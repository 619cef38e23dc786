//! The gateway under test, assembled like the paper's Figure 7-1 testbed:
//! a MobiGATE server whose `communicator` streamlet writes wire frames onto
//! an emulated wireless link, pumped at the far end into the thin client,
//! which reverses peer processing and hands each message to the
//! application (the benchmark's load-generator thread).
//!
//! The rig is built here rather than through `mobigate::testbed` so that a
//! traced run can switch the server's telemetry on and stamp the two layer
//! boundaries the load generator cannot see from its own thread: the
//! communicator handing a frame to the link, and the frame leaving the
//! link at the mobile host.

use mobigate::client::{ClientStats, ClientStreamletPool, MobiGateClient};
use mobigate::core::{
    BridgeConfig, CoreError, ExecutorConfig, MobiGate, RunningStream, ServerConfig, SessionManager,
    StreamletDirectory, StreamletPool, TelemetryConfig,
};
use mobigate::netsim::{LinkConfig, LinkReceiver, LinkSender, LinkStats, WirelessLink};
use mobigate::streamlets::comm::{Communicator, Transport};
use mobigate::streamlets::compress::{TextDecompress, DECOMPRESS_PEER};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Header carrying the load generator's sequence number through every layer.
pub const SEQ_HEADER: &str = "X-Bench-Seq";

/// Emulated link bandwidth: unbounded, with no propagation delay, so the
/// gateway and not the air limits the rate. At any finite rate the link
/// worker sleeps once per frame, and the OS sleep granularity (tens of µs)
/// would then set the pace of every workload.
const LINK_BPS: u64 = u64::MAX;

/// Client Message Distributor threads.
const CLIENT_THREADS: usize = 2;

/// Idle instances the server's §3.3.4 pool keeps per streamlet type: above
/// any workload's live instances of one type, so a teardown never discards.
const POOL_IDLE_PER_TYPE: usize = 512;

/// How the server runs its streamlets.
#[derive(Clone, Copy)]
pub struct Engine {
    pub executor: ExecutorConfig,
    /// Deploy-time chain fusion.
    pub fusion: bool,
}

/// Stamp ring size: far above any in-flight window, so a slot is never
/// reused while its message is still in flight.
const STAMP_SLOTS: usize = 1 << 16;

/// Per-message timestamps at the link boundaries, in nanoseconds since
/// the rig's epoch.
pub struct Stamps {
    epoch: Instant,
    sent: Vec<AtomicU64>,
    linked: Vec<AtomicU64>,
}

impl Stamps {
    fn new(epoch: Instant) -> Self {
        let ring = || (0..STAMP_SLOTS).map(|_| AtomicU64::new(0)).collect();
        Stamps {
            epoch,
            sent: ring(),
            linked: ring(),
        }
    }

    fn mark(&self, ring: &[AtomicU64], wire: &[u8]) {
        if let Some(seq) = wire_seq(wire) {
            // Relaxed: the frame's later hand-offs (link and client queues,
            // all mutex-protected) order this store before the load
            // generator reads it.
            ring[seq as usize % STAMP_SLOTS].store(nanos_since(self.epoch), Ordering::Relaxed);
        }
    }

    /// When the communicator handed message `seq` to the link.
    pub fn sent_ns(&self, seq: u64) -> u64 {
        self.sent[seq as usize % STAMP_SLOTS].load(Ordering::Relaxed)
    }

    /// When message `seq` left the link at the mobile host.
    pub fn linked_ns(&self, seq: u64) -> u64 {
        self.linked[seq as usize % STAMP_SLOTS].load(Ordering::Relaxed)
    }
}

fn nanos_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// The sequence number in a wire frame's header block, if it has one.
fn wire_seq(wire: &[u8]) -> Option<u64> {
    let name = SEQ_HEADER.as_bytes();
    for line in wire.split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if line.is_empty() {
            return None; // end of the header block
        }
        if line.len() > name.len()
            && line[name.len()] == b':'
            && line[..name.len()].eq_ignore_ascii_case(name)
        {
            return std::str::from_utf8(&line[name.len() + 1..])
                .ok()?
                .trim()
                .parse()
                .ok();
        }
    }
    None
}

/// The communicator's transport: the link sender, stamping in traced runs.
struct LinkTransport {
    sender: LinkSender,
    stamps: Option<Arc<Stamps>>,
}

impl Transport for LinkTransport {
    fn send(&self, wire: &[u8]) -> Result<(), String> {
        if let Some(s) = &self.stamps {
            s.mark(&s.sent, wire);
        }
        if self.sender.send(wire.to_vec()) {
            Ok(())
        } else {
            Err("link down".into())
        }
    }
}

/// Server, link and client, wired together.
pub struct Rig {
    server: MobiGate,
    link: WirelessLink,
    client: Arc<MobiGateClient>,
    pump_stop: Arc<AtomicBool>,
    pump: Option<JoinHandle<()>>,
    stamps: Option<Arc<Stamps>>,
    epoch: Instant,
}

impl Rig {
    /// Builds the rig; `trace` switches on the server's telemetry and the
    /// link-boundary stamps.
    pub fn new(trace: bool, engine: Engine) -> Rig {
        let epoch = Instant::now();
        let telemetry = if trace {
            TelemetryConfig {
                enabled: true,
                // Observe only: the bridge would turn measurements into
                // context events that reconfigure the streams under test.
                bridge: BridgeConfig {
                    enabled: false,
                    ..Default::default()
                },
                ..Default::default()
            }
        } else {
            TelemetryConfig::default()
        };
        let server = MobiGate::with_config(
            ServerConfig {
                executor: engine.executor,
                fusion: engine.fusion,
                telemetry,
                ..Default::default()
            },
            Arc::new(StreamletDirectory::new()),
            Arc::new(StreamletPool::new(POOL_IDLE_PER_TYPE)),
        );
        mobigate::streamlets::register_builtins(server.directory());

        let (link, sender, receiver) = WirelessLink::spawn(LinkConfig {
            bandwidth_bps: LINK_BPS,
            propagation_delay: Duration::ZERO,
            queue_limit: usize::MAX,
            ..Default::default()
        });
        let stamps = trace.then(|| Arc::new(Stamps::new(epoch)));
        Communicator::register(
            server.directory(),
            Arc::new(LinkTransport {
                sender,
                stamps: stamps.clone(),
            }),
        );

        let peers = ClientStreamletPool::new();
        peers.register_peer(DECOMPRESS_PEER, || Box::new(TextDecompress));
        let client = MobiGateClient::new(peers, CLIENT_THREADS);
        let pump_stop = Arc::new(AtomicBool::new(false));
        let pump = spawn_pump(receiver, client.clone(), stamps.clone(), pump_stop.clone());
        Rig {
            server,
            link,
            client,
            pump_stop,
            pump: Some(pump),
            stamps,
            epoch,
        }
    }

    pub fn server(&self) -> &MobiGate {
        &self.server
    }

    pub fn client(&self) -> &MobiGateClient {
        &self.client
    }

    pub fn client_stats(&self) -> ClientStats {
        self.client.stats()
    }

    pub fn link_stats(&self) -> LinkStats {
        self.link.stats()
    }

    /// The link-boundary stamps, in traced runs.
    pub fn stamps(&self) -> Option<&Stamps> {
        self.stamps.as_deref()
    }

    /// Nanoseconds since the rig was built: the clock of every span.
    pub fn now_ns(&self) -> u64 {
        nanos_since(self.epoch)
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.server.coordination().shutdown_all();
        self.pump_stop.store(true, Ordering::Release);
        if let Some(pump) = self.pump.take() {
            if pump.join().is_err() {
                eprintln!("gatebench: link pump panicked");
            }
        }
        self.client.shutdown();
        self.link.shutdown();
    }
}

/// A rig with the source of its streams: a session template, or a script
/// deployed as it is.
pub struct Gateway {
    // Declared before `rig`: sessions go before the server does.
    sessions: Option<SessionManager>,
    script: String,
    pub rig: Rig,
}

impl Gateway {
    /// A fresh rig; `template` compiles `script` once into a session
    /// template instead of deploying it per stream.
    pub fn new(
        trace: bool,
        engine: Engine,
        script: String,
        template: bool,
    ) -> Result<Gateway, CoreError> {
        let rig = Rig::new(trace, engine);
        let sessions = if template {
            Some(rig.server().session_manager(&script)?)
        } else {
            None
        };
        Ok(Gateway {
            sessions,
            script,
            rig,
        })
    }

    /// Deploys one more stream.
    pub fn spawn(&self) -> Result<Arc<RunningStream>, CoreError> {
        match &self.sessions {
            Some(m) => m.spawn(),
            None => self.rig.server().deploy_mcl(&self.script),
        }
    }

    /// Drains and tears one stream down; false when it was not live.
    pub fn teardown(&self, stream: &RunningStream) -> bool {
        match &self.sessions {
            Some(m) => m.teardown(stream.session()),
            None => self.rig.server().undeploy(stream.session()),
        }
    }
}

/// Moves frames from the link into the client's Message Distributor (the
/// mobile host's network interface).
fn spawn_pump(
    receiver: LinkReceiver,
    client: Arc<MobiGateClient>,
    stamps: Option<Arc<Stamps>>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("gatebench-pump".into())
        .spawn(move || {
            while !stop.load(Ordering::Acquire) {
                if let Some(frame) = receiver.recv(Duration::from_millis(20)) {
                    if let Some(s) = &stamps {
                        s.mark(&s.linked, &frame);
                    }
                    client.submit_wire(frame);
                }
            }
        })
        .expect("spawn link pump")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_is_read_from_the_header_block_only() {
        assert_eq!(
            wire_seq(b"Content-Type: text/plain\r\nx-bench-seq: 42\r\n\r\nbody"),
            Some(42)
        );
        assert_eq!(
            wire_seq(b"Content-Type: text/plain\r\n\r\nX-Bench-Seq: 7\r\n"),
            None
        );
    }
}
