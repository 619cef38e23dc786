//! The Figure 7-1 testbed in one object.
//!
//! The paper's setup uses three PCs: a MobiGATE server on the wired LAN, a
//! Linux router emulating the wireless environment, and a mobile node
//! running the MobiGATE client. [`Testbed`] assembles the equivalent
//! in-process: a [`MobiGate`] server whose `communicator` streamlet sends
//! wire frames over a [`WirelessLink`], pumped on the far side into a
//! [`MobiGateClient`] that performs the peer-streamlet reverse processing.

use mobigate_client::{ClientStreamletPool, MobiGateClient};
use mobigate_core::pool::PayloadMode;
use mobigate_core::{
    CoreError, ExecutorConfig, MobiGate, RunningStream, ServerConfig, StreamletPool,
};
use mobigate_netsim::{LinkConfig, LinkSender, WirelessLink};
use mobigate_streamlets::batch::{Disaggregate, DISAGGREGATE_PEER};
use mobigate_streamlets::comm::{Communicator, Transport};
use mobigate_streamlets::compress::{TextDecompress, DECOMPRESS_PEER};
use mobigate_streamlets::crypto::{Decrypt, DECRYPT_PEER, DEFAULT_KEY};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The MCL definition of the link-bound `communicator` sink.
pub const COMMUNICATOR_DEF: &str = r#"
streamlet communicator {
    port { in pi : */*; }
    attribute { type = STATELESS; library = "builtin/communicator";
                description = "send messages onto the emulated wireless link"; }
}
"#;

/// The §7.5 web-acceleration composition: Switch, Gif2Jpeg,
/// ImageDownSample and Communicator. Under normal conditions text passes
/// Switch → Communicator directly; LOW_BANDWIDTH inserts the text
/// compressor between them. Images always go through Gif2Jpeg +
/// down-sampling. Deploy it with [`Testbed::deploy_with_defs`].
pub const WEB_ACCELERATOR: &str = r#"
streamlet gif_switch {
    port { in pi : */*; out po1 : image/gif; out po2 : text; }
    attribute { type = STATELESS; library = "builtin/switch";
                description = "switch whose image branch is declared GIF"; }
}
main stream webAccel {
    streamlet sw = new-streamlet (gif_switch);
    streamlet g2j = new-streamlet (gif2jpeg);
    streamlet ds = new-streamlet (img_down_sample);
    streamlet comp = new-streamlet (text_compress);
    streamlet out = new-streamlet (communicator);
    connect (sw.po1, g2j.pi);
    connect (g2j.po, ds.pi);
    connect (ds.po, out.pi);
    connect (sw.po2, out.pi);
    when (LOW_BANDWIDTH) {
        insert (sw.po2, out.pi, comp);
    }
}
"#;

/// Adapts a [`LinkSender`] to the streamlet [`Transport`] interface so the
/// `communicator` streamlet transmits over the emulated link. The sender is
/// swappable, which is what makes a **vertical handoff** (switching between
/// wireless networks, §2.2.1/§8.2.1) possible without touching the deployed
/// streams: the communicator keeps writing, the frames just leave on the
/// new network.
pub struct LinkTransport {
    sender: parking_lot::Mutex<LinkSender>,
}

impl LinkTransport {
    /// Wraps the initial link sender.
    pub fn new(sender: LinkSender) -> Self {
        LinkTransport {
            sender: parking_lot::Mutex::new(sender),
        }
    }

    /// Redirects all future sends onto a different link.
    pub fn switch(&self, sender: LinkSender) {
        *self.sender.lock() = sender;
    }
}

impl Transport for LinkTransport {
    fn send(&self, wire: &[u8]) -> Result<(), String> {
        if self.sender.lock().send(wire.to_vec()) {
            Ok(())
        } else {
            Err("link queue full or link down".into())
        }
    }
}

/// Testbed parameters.
#[derive(Clone)]
pub struct TestbedConfig {
    /// Wireless link emulation parameters.
    pub link: LinkConfig,
    /// Payload passing mode of the server runtime.
    pub mode: PayloadMode,
    /// Maximum client distributor threads.
    pub client_threads: usize,
    /// Disable streamlet pooling (ablation).
    pub disable_pooling: bool,
    /// Enable the §4.1 runtime type check on every emission.
    pub runtime_type_check: bool,
    /// Execution back end for the server's streamlets.
    pub executor: ExecutorConfig,
    /// Chain fusion: collapse fusable streamlet runs into single execution
    /// units on the server (ablation).
    pub fusion: bool,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            link: LinkConfig::default(),
            mode: PayloadMode::Reference,
            client_threads: 4,
            disable_pooling: false,
            runtime_type_check: false,
            executor: ExecutorConfig::default(),
            fusion: false,
        }
    }
}

impl TestbedConfig {
    /// A configuration suited to tests and doc examples: a fast, lossless
    /// link with negligible delay.
    pub fn fast() -> Self {
        TestbedConfig {
            link: LinkConfig {
                bandwidth_bps: 1_000_000_000,
                propagation_delay: Duration::ZERO,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// Server → link → client, wired together.
pub struct Testbed {
    server: MobiGate,
    link: WirelessLink,
    client: Arc<MobiGateClient>,
    transport: Arc<LinkTransport>,
    pump: Option<JoinHandle<()>>,
}

impl Testbed {
    /// Builds the testbed: registers every built-in streamlet (plus a
    /// `communicator` bound to the link) on the server, and the standard
    /// peer streamlets (`text_decompress`, `decrypt`) on the client.
    pub fn new(cfg: TestbedConfig) -> Self {
        let pool = if cfg.disable_pooling {
            Arc::new(StreamletPool::disabled())
        } else {
            Arc::new(StreamletPool::new(64))
        };
        let server = MobiGate::with_config(
            ServerConfig {
                mode: cfg.mode,
                route_opts: mobigate_core::RouteOpts {
                    enforce_types: cfg.runtime_type_check,
                    ..Default::default()
                },
                executor: cfg.executor,
                fusion: cfg.fusion,
                ..Default::default()
            },
            Arc::new(mobigate_core::StreamletDirectory::new()),
            pool,
        );
        mobigate_streamlets::register_builtins(server.directory());

        let (link, sender, receiver) = WirelessLink::spawn(cfg.link);
        let transport = Arc::new(LinkTransport::new(sender));
        Communicator::register(server.directory(), transport.clone());

        let peer_pool = ClientStreamletPool::new();
        peer_pool.register_peer(DECOMPRESS_PEER, || Box::new(TextDecompress));
        peer_pool.register_peer(DECRYPT_PEER, || Box::new(Decrypt::new(DEFAULT_KEY)));
        peer_pool.register_peer(DISAGGREGATE_PEER, || Box::new(Disaggregate));
        let client = MobiGateClient::new(peer_pool, cfg.client_threads);

        // Pump: deliver link frames into the client distributor (the mobile
        // node's network interface).
        let pump = spawn_pump(receiver, client.clone());

        let tb = Testbed {
            server,
            link,
            client,
            transport,
            pump: Some(pump),
        };
        // Uplink: client context reports become gateway events (§3.1).
        let events = tb.server.events().clone();
        tb.client.set_context_reporter(move |kind| {
            events.multicast(&mobigate_core::ContextEvent::broadcast(kind));
        });
        tb
    }

    /// The MCL streamlet definitions available in this testbed: the
    /// standard library plus the link-bound `communicator`.
    pub fn defs(&self) -> String {
        format!(
            "{}\n{}\n{COMMUNICATOR_DEF}",
            mobigate_streamlets::standard_defs(),
            mobigate_streamlets::batch::defs(),
        )
    }

    /// Deploys an MCL script on the server (the script may reference any
    /// [`Testbed::defs`] definition — prepend them yourself or use
    /// [`Testbed::deploy_with_defs`]).
    pub fn deploy(&self, script: &str) -> Result<Arc<RunningStream>, CoreError> {
        self.server.deploy_mcl(script)
    }

    /// Convenience: prepends [`Testbed::defs`] to `composition` and
    /// deploys.
    pub fn deploy_with_defs(&self, composition: &str) -> Result<Arc<RunningStream>, CoreError> {
        let script = format!("{}\n{composition}", self.defs());
        self.server.deploy_mcl(&script)
    }

    /// The server.
    pub fn server(&self) -> &MobiGate {
        &self.server
    }

    /// The emulated link.
    pub fn link(&self) -> &WirelessLink {
        &self.link
    }

    /// The client.
    pub fn client(&self) -> &Arc<MobiGateClient> {
        &self.client
    }

    /// Performs a **vertical handoff**: the mobile node switches to a
    /// different wireless network (§2.2.1's TranSend mechanism; listed as
    /// MobiGATE future work in §8.2.1). The communicator's transport is
    /// redirected to the new link; deployed streams are untouched. Frames
    /// still queued on the old link are lost — a hard handoff. Returns the
    /// final statistics of the old link.
    pub fn vertical_handoff(&mut self, cfg: LinkConfig) -> mobigate_netsim::LinkStats {
        let (new_link, new_sender, new_receiver) = WirelessLink::spawn(cfg);
        self.transport.switch(new_sender);

        // Retire the old link and, once it has handed over what it had
        // delivered, its pump.
        let mut old_link = std::mem::replace(&mut self.link, new_link);
        old_link.shutdown();
        if let Some(h) = self
            .pump
            .replace(spawn_pump(new_receiver, self.client.clone()))
        {
            let _ = h.join();
        }
        old_link.stats()
    }

    /// Tears the whole testbed down.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.server.coordination().shutdown_all();
        self.link.shutdown();
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
        self.client.shutdown();
    }
}

impl Drop for Testbed {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts a pump thread delivering link frames to the client distributor
/// until the link shuts down.
fn spawn_pump(
    receiver: mobigate_netsim::LinkReceiver,
    client: Arc<MobiGateClient>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("testbed-pump".into())
        .spawn(move || {
            while let Some(frame) = receiver.recv(Duration::MAX) {
                client.submit_wire(frame);
            }
        })
        .expect("spawn pump")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobigate_mime::MimeMessage;

    #[test]
    fn testbed_defs_compile() {
        let tb = Testbed::new(TestbedConfig::fast());
        let script = format!("{}\nmain stream empty {{ }}", tb.defs());
        assert!(mobigate_mcl::compile::compile(&script).is_ok());
        tb.shutdown();
    }

    #[test]
    fn end_to_end_passthrough() {
        let tb = Testbed::new(TestbedConfig::fast());
        let stream = tb
            .deploy_with_defs(
                "main stream app {\n\
                 streamlet r = new-streamlet (redirector);\n\
                 streamlet out = new-streamlet (communicator);\n\
                 connect (r.po, out.pi);\n}",
            )
            .unwrap();
        stream
            .post_input(MimeMessage::text("across the air"))
            .unwrap();
        let got = tb.client().recv(Duration::from_secs(5)).expect("delivered");
        assert_eq!(&got.body[..], b"across the air");
        tb.shutdown();
    }

    #[test]
    fn worker_pool_testbed_end_to_end() {
        let tb = Testbed::new(TestbedConfig {
            executor: ExecutorConfig::WorkerPool { workers: 4 },
            ..TestbedConfig::fast()
        });
        assert_eq!(tb.server().executor().name(), "worker-pool");
        let stream = tb
            .deploy_with_defs(
                "main stream app {\n\
                 streamlet r = new-streamlet (redirector);\n\
                 streamlet out = new-streamlet (communicator);\n\
                 connect (r.po, out.pi);\n}",
            )
            .unwrap();
        stream
            .post_input(MimeMessage::text("pooled workers"))
            .unwrap();
        let got = tb.client().recv(Duration::from_secs(5)).expect("delivered");
        assert_eq!(&got.body[..], b"pooled workers");
        tb.shutdown();
    }

    #[test]
    fn compression_is_reversed_client_side() {
        let tb = Testbed::new(TestbedConfig::fast());
        let stream = tb
            .deploy_with_defs(
                "main stream app {\n\
                 streamlet c = new-streamlet (text_compress);\n\
                 streamlet out = new-streamlet (communicator);\n\
                 connect (c.po, out.pi);\n}",
            )
            .unwrap();
        let body = "wireless wireless wireless wireless wireless".repeat(20);
        stream.post_input(MimeMessage::text(body.clone())).unwrap();
        let got = tb.client().recv(Duration::from_secs(5)).expect("delivered");
        assert_eq!(got.body, body.as_bytes());
        // The link saw fewer bytes than the plaintext.
        let link_bytes = tb.link().stats().delivered_bytes;
        assert!(
            link_bytes < body.len() as u64,
            "{link_bytes} >= {}",
            body.len()
        );
        assert_eq!(tb.client().stats().reversals, 1);
        tb.shutdown();
    }
}
