//! The Message Distributor (§3.4.1) and the client facade.
//!
//! Each incoming wire frame is parsed as a MIME message, then reverse-
//! processed: the distributor pops peer identifiers off the
//! `X-MobiGATE-Peer` stack (most recently applied first) and runs the
//! matching peer streamlets from the [`ClientStreamletPool`] (§6.5: "once a
//! message has been processed by all necessary peer streamlets, it is
//! delivered to the application"). `multipart/mixed` messages are split
//! and each part reverse-processed and delivered individually.
//!
//! Threading follows the paper's servlet model: "whenever a new message
//! arrives, the system tries to find an available Message Distributor
//! thread … If this fails, the system creates a new thread", up to a cap.

use crate::pool::ClientStreamletPool;
use mobigate_core::sync::{deadline_after, Parker, Wake};
use mobigate_core::{EventKind, StreamletCtx, StreamletLogic};
use mobigate_mime::{multipart, MimeMessage, PEER_CHAIN};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Client-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Frames accepted by [`MobiGateClient::submit_wire`].
    pub received: u64,
    /// Messages fully reverse-processed and delivered upward.
    pub delivered: u64,
    /// Individual peer-streamlet invocations.
    pub reversals: u64,
    /// Frames that failed to parse as MIME.
    pub parse_errors: u64,
    /// Peer identifiers with no registered streamlet.
    pub unknown_peers: u64,
    /// Peer streamlets whose `process` failed.
    pub peer_errors: u64,
    /// Distributor threads spawned so far.
    pub threads: u64,
}

/// Frames waiting for a distributor thread.
#[derive(Default)]
struct Inbox {
    frames: VecDeque<Vec<u8>>,
    /// Distributor threads waiting for a frame.
    idle: usize,
    stop: bool,
}

/// Delivered messages waiting for [`MobiGateClient::recv`].
#[derive(Default)]
struct Outbox {
    msgs: VecDeque<MimeMessage>,
    stop: bool,
}

struct Shared {
    pool: ClientStreamletPool,
    inbox: Parker<Inbox>,
    outbox: Parker<Outbox>,
    received: AtomicU64,
    delivered: AtomicU64,
    reversals: AtomicU64,
    parse_errors: AtomicU64,
    unknown_peers: AtomicU64,
    peer_errors: AtomicU64,
    threads: AtomicU64,
}

/// Carries client context reports (LOW_ENERGY, LOW_GRAYS, …) back to the
/// gateway — the uplink half of Figure 3-1 ("these messages can originate
/// from local operating system services and remote clients", §3.1).
pub type ContextReporter = dyn Fn(EventKind) + Send + Sync;

/// The MobiGATE client runtime.
pub struct MobiGateClient {
    shared: Arc<Shared>,
    max_threads: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
    reporter: Mutex<Option<Box<ContextReporter>>>,
}

impl MobiGateClient {
    /// A client with a peer pool and a worker cap. One distributor thread
    /// is started eagerly; more appear under load.
    pub fn new(pool: ClientStreamletPool, max_threads: usize) -> Arc<Self> {
        let shared = Arc::new(Shared {
            pool,
            inbox: Parker::default(),
            outbox: Parker::default(),
            received: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            reversals: AtomicU64::new(0),
            parse_errors: AtomicU64::new(0),
            unknown_peers: AtomicU64::new(0),
            peer_errors: AtomicU64::new(0),
            threads: AtomicU64::new(0),
        });
        let client = Arc::new(MobiGateClient {
            shared,
            max_threads: max_threads.max(1),
            workers: Mutex::new(Vec::new()),
            reporter: Mutex::new(None),
        });
        client.spawn_worker();
        client
    }

    /// The peer pool (to register more peers after construction).
    pub fn pool(&self) -> &ClientStreamletPool {
        &self.shared.pool
    }

    /// Installs the uplink used by [`MobiGateClient::report_context`]
    /// (typically a closure raising the event on the gateway's Event
    /// Manager).
    pub fn set_context_reporter<F>(&self, reporter: F)
    where
        F: Fn(EventKind) + Send + Sync + 'static,
    {
        *self.reporter.lock() = Some(Box::new(reporter));
    }

    /// Reports a client-side context variation (shallow display, low
    /// battery, …) to the gateway. Returns false when no uplink is
    /// installed.
    pub fn report_context(&self, event: EventKind) -> bool {
        match self.reporter.lock().as_ref() {
            Some(r) => {
                r(event);
                true
            }
            None => false,
        }
    }

    /// Submits a raw wire frame from the link.
    pub fn submit_wire(&self, frame: Vec<u8>) {
        let none_idle = self.shared.inbox.update(|inbox| {
            if inbox.stop {
                return (false, Wake::None);
            }
            self.shared.received.fetch_add(1, Ordering::Relaxed);
            inbox.frames.push_back(frame);
            (inbox.idle == 0, Wake::One)
        });
        // Servlet-style elasticity: grow a worker when none is idle.
        if none_idle && (self.shared.threads.load(Ordering::Relaxed) as usize) < self.max_threads {
            self.spawn_worker();
        }
    }

    /// Submits an already-parsed message (in-process testing shortcut).
    pub fn submit(&self, msg: &MimeMessage) {
        self.submit_wire(msg.to_wire().to_vec());
    }

    /// Receives the next fully reverse-processed message, waiting up to
    /// `timeout`.
    pub fn recv(&self, timeout: Duration) -> Option<MimeMessage> {
        self.shared.outbox.wait_then(
            |out| out.msgs.is_empty() && !out.stop,
            deadline_after(timeout),
            |out, _| (out.msgs.pop_front(), Wake::None),
        )
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            received: self.shared.received.load(Ordering::Relaxed),
            delivered: self.shared.delivered.load(Ordering::Relaxed),
            reversals: self.shared.reversals.load(Ordering::Relaxed),
            parse_errors: self.shared.parse_errors.load(Ordering::Relaxed),
            unknown_peers: self.shared.unknown_peers.load(Ordering::Relaxed),
            peer_errors: self.shared.peer_errors.load(Ordering::Relaxed),
            threads: self.shared.threads.load(Ordering::Relaxed),
        }
    }

    /// Stops the distributor threads.
    pub fn shutdown(&self) {
        self.shared.inbox.update(|inbox| {
            inbox.stop = true;
            ((), Wake::All)
        });
        self.shared.outbox.update(|out| {
            out.stop = true;
            ((), Wake::All)
        });
        for h in self.workers.lock().drain(..) {
            let _ = h.join();
        }
    }

    fn spawn_worker(&self) {
        let shared = self.shared.clone();
        let n = self.shared.threads.fetch_add(1, Ordering::Relaxed);
        let handle = std::thread::Builder::new()
            .name(format!("mg-distributor-{n}"))
            .spawn(move || distributor_loop(shared))
            .expect("spawn distributor");
        self.workers.lock().push(handle);
    }
}

impl Drop for MobiGateClient {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn distributor_loop(shared: Arc<Shared>) {
    loop {
        // Idle until it takes a frame, so `submit_wire` grows the pool
        // only when every thread is busy.
        shared.inbox.update(|inbox| {
            inbox.idle += 1;
            ((), Wake::None)
        });
        let frame = shared.inbox.wait_then(
            |inbox| inbox.frames.is_empty() && !inbox.stop,
            None,
            |inbox, _| {
                inbox.idle -= 1;
                let frame = inbox.frames.pop_front().filter(|_| !inbox.stop);
                (frame, Wake::None)
            },
        );
        let Some(frame) = frame else { return };

        let Ok(msg) = MimeMessage::from_wire(&frame) else {
            shared.parse_errors.fetch_add(1, Ordering::Relaxed);
            continue;
        };

        // Multipart bodies *without* a peer chain are distributed per part
        // (§3.4.1 "parse the incoming MIME messages and distribute them");
        // a multipart with a chain is handled by its peers (e.g. the
        // disaggregate peer of the aggregate streamlet). A frame with
        // neither goes straight to the application.
        let parts = if msg.headers.get(PEER_CHAIN).is_some() {
            vec![msg]
        } else if msg.has_top_type("multipart") {
            match multipart::split(&msg) {
                Ok(parts) => parts,
                Err(_) => {
                    shared.parse_errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
        } else {
            deliver(&shared, msg);
            continue;
        };

        for part in parts {
            for done in reverse_process(&shared, part) {
                deliver(&shared, done);
            }
        }
    }
}

/// Hands a fully reverse-processed message to the application.
fn deliver(shared: &Shared, msg: MimeMessage) {
    shared.delivered.fetch_add(1, Ordering::Relaxed);
    shared.outbox.update(|out| {
        out.msgs.push_back(msg);
        ((), Wake::All)
    });
}

/// Pops the peer chain and applies each peer streamlet (most recent
/// first). A peer may emit several messages (disaggregation); each emission
/// then continues with its *own* remaining chain.
fn reverse_process(shared: &Shared, mut msg: MimeMessage) -> Vec<MimeMessage> {
    while let Some(peer_id) = msg.pop_peer() {
        let mut logic: Box<dyn StreamletLogic> = match shared.pool.checkout(&peer_id) {
            Ok(l) => l,
            Err(_) => {
                // Unknown peer: deliver what we have rather than losing the
                // message; the application sees the partially-reversed form.
                shared.unknown_peers.fetch_add(1, Ordering::Relaxed);
                return vec![msg];
            }
        };
        let session = msg.session();
        let mut ctx = StreamletCtx::new(&peer_id, session.as_ref());
        let result = logic.process(msg.clone(), &mut ctx);
        shared.pool.checkin(&peer_id, logic);
        match result {
            Ok(()) => {
                shared.reversals.fetch_add(1, Ordering::Relaxed);
                let mut outs = ctx.into_outputs();
                match outs.len() {
                    1 => msg = outs.pop().expect("len checked").1,
                    0 => return Vec::new(), // peer consumed the message
                    _ => {
                        // Fan-out (e.g. disaggregation): each emission
                        // carries its own remaining chain.
                        return outs
                            .into_iter()
                            .flat_map(|(_, m)| reverse_process(shared, m))
                            .collect();
                    }
                }
            }
            Err(_) => {
                shared.peer_errors.fetch_add(1, Ordering::Relaxed);
                return Vec::new();
            }
        }
    }
    vec![msg]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobigate_core::{CoreError, Emitter};
    use mobigate_mime::MimeType;

    /// Reverses the body (self-inverse, so double application restores).
    struct RevBytes;
    impl StreamletLogic for RevBytes {
        fn process(&mut self, m: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            let mut b = m.body.to_vec();
            b.reverse();
            let mut out = m.clone();
            out.set_body(b);
            ctx.emit("po", out);
            Ok(())
        }
    }

    /// XORs with 0x5A (also self-inverse).
    struct XorA5;
    impl StreamletLogic for XorA5 {
        fn process(&mut self, m: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            let b: Vec<u8> = m.body.iter().map(|x| x ^ 0x5A).collect();
            let mut out = m.clone();
            out.set_body(b);
            ctx.emit("po", out);
            Ok(())
        }
    }

    struct Failing;
    impl StreamletLogic for Failing {
        fn process(&mut self, _: MimeMessage, _: &mut StreamletCtx) -> Result<(), CoreError> {
            Err(CoreError::Process {
                streamlet: "f".into(),
                message: "nope".into(),
            })
        }
    }

    fn client() -> Arc<MobiGateClient> {
        let pool = ClientStreamletPool::new();
        pool.register_peer("rev", || Box::new(RevBytes));
        pool.register_peer("xor", || Box::new(XorA5));
        pool.register_peer("fail", || Box::new(Failing));
        MobiGateClient::new(pool, 4)
    }

    #[test]
    fn single_peer_reversal() {
        let c = client();
        // Server applied `rev` (body reversed, peer pushed).
        let mut msg = MimeMessage::text("cba");
        msg.push_peer("rev");
        c.submit(&msg);
        let out = c.recv(Duration::from_secs(2)).expect("delivered");
        assert_eq!(&out.body[..], b"abc");
        assert!(out.peer_chain().is_empty());
        assert_eq!(c.stats().reversals, 1);
    }

    #[test]
    fn chain_is_reversed_in_lifo_order() {
        let c = client();
        // Server order: rev then xor → chain [rev, xor]; client must apply
        // xor first, then rev.
        let original = b"payload".to_vec();
        let mut body = original.clone();
        body.reverse(); // rev applied first on the server
        let body: Vec<u8> = body.iter().map(|x| x ^ 0x5A).collect(); // then xor
        let mut msg = MimeMessage::new(&MimeType::new("text", "plain"), body);
        msg.push_peer("rev");
        msg.push_peer("xor");
        c.submit(&msg);
        let out = c.recv(Duration::from_secs(2)).expect("delivered");
        assert_eq!(out.body.to_vec(), original);
        assert_eq!(c.stats().reversals, 2);
    }

    #[test]
    fn no_peers_delivers_as_is() {
        let c = client();
        c.submit(&MimeMessage::text("plain pass"));
        let out = c.recv(Duration::from_secs(2)).expect("delivered");
        assert_eq!(&out.body[..], b"plain pass");
        assert_eq!(c.stats().reversals, 0);
    }

    #[test]
    fn unknown_peer_counts_and_still_delivers() {
        let c = client();
        let mut msg = MimeMessage::text("x");
        msg.push_peer("martian");
        c.submit(&msg);
        let out = c.recv(Duration::from_secs(2)).expect("delivered");
        assert_eq!(&out.body[..], b"x");
        assert_eq!(c.stats().unknown_peers, 1);
    }

    #[test]
    fn failing_peer_drops_message() {
        let c = client();
        let mut msg = MimeMessage::text("x");
        msg.push_peer("fail");
        c.submit(&msg);
        assert!(c.recv(Duration::from_millis(200)).is_none());
        assert_eq!(c.stats().peer_errors, 1);
        assert_eq!(c.stats().delivered, 0);
    }

    #[test]
    fn parse_errors_counted() {
        let c = client();
        c.submit_wire(b"complete garbage, no header separator".to_vec());
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(c.stats().parse_errors, 1);
    }

    #[test]
    fn multipart_is_split_and_each_part_reversed() {
        let c = client();
        let mut p1 = MimeMessage::text("cba");
        p1.push_peer("rev");
        let p2 = MimeMessage::text("untouched");
        let combined = multipart::compose(&[p1, p2], "bdy");
        c.submit(&combined);
        let a = c.recv(Duration::from_secs(2)).expect("part 1");
        let b = c.recv(Duration::from_secs(2)).expect("part 2");
        assert_eq!(&a.body[..], b"abc");
        assert_eq!(&b.body[..], b"untouched");
        assert_eq!(c.stats().delivered, 2);
    }

    #[test]
    fn worker_pool_grows_under_load() {
        let c = client();
        for i in 0..200 {
            let mut m = MimeMessage::text(format!("m{i}"));
            m.push_peer("rev");
            c.submit(&m);
        }
        let mut got = 0;
        while got < 200 {
            match c.recv(Duration::from_secs(5)) {
                Some(_) => got += 1,
                None => break,
            }
        }
        assert_eq!(got, 200);
        let stats = c.stats();
        assert!(
            stats.threads >= 1 && stats.threads <= 4,
            "threads {}",
            stats.threads
        );
        assert_eq!(stats.delivered, 200);
    }

    #[test]
    fn context_reports_reach_the_uplink() {
        let c = client();
        assert!(!c.report_context(EventKind::LowGrays), "no uplink yet");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        c.set_context_reporter(move |e| seen2.lock().push(e));
        assert!(c.report_context(EventKind::LowGrays));
        assert!(c.report_context(EventKind::LowEnergy));
        assert_eq!(
            *seen.lock(),
            vec![EventKind::LowGrays, EventKind::LowEnergy]
        );
    }

    /// `Duration::MAX` means no deadline, not an `Instant` overflow: a
    /// delivered message comes back, and after shutdown `recv` returns
    /// `None` at once.
    #[test]
    fn unbounded_recv_returns_what_is_there() {
        let c = client();
        c.submit(&MimeMessage::text("here"));
        let out = c.recv(Duration::MAX).expect("delivered");
        assert_eq!(&out.body[..], b"here");
        c.shutdown();
        assert!(c.recv(Duration::MAX).is_none());
    }

    #[test]
    fn shutdown_is_idempotent_and_stops_recv() {
        let c = client();
        c.shutdown();
        c.shutdown();
        assert!(c.recv(Duration::from_millis(50)).is_none());
        // Submissions after shutdown are ignored.
        c.submit(&MimeMessage::text("late"));
        assert_eq!(c.stats().received, 0);
    }
}
