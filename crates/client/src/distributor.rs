//! The Message Distributor (§3.4.1) and the client facade.
//!
//! Each incoming wire frame is parsed once, as a MIME message, on the
//! thread that submits it. A message with no `X-MobiGATE-Peer` chain and
//! no multipart body has no peer to find, so that thread delivers it to
//! the application at once. Any other message goes to a distributor
//! thread, which reverse-processes it: it pops peer identifiers off the
//! chain (most recently applied first) and runs the matching peer
//! streamlets from the [`ClientStreamletPool`] (§6.5: "once a message has
//! been processed by all necessary peer streamlets, it is delivered to the
//! application"). `multipart/mixed` messages are split and each part
//! reverse-processed and delivered individually.
//!
//! Distributor threads follow the paper's servlet model: "whenever a new
//! message arrives, the system tries to find an available Message
//! Distributor thread … If this fails, the system creates a new thread",
//! up to a cap. None exists until the first message that needs a peer.

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

/// Parsed messages waiting for a distributor thread.
#[derive(Default)]
struct Inbox {
    msgs: VecDeque<MimeMessage>,
    /// Distributor threads waiting for a message.
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
    /// A client with a peer pool and a cap on distributor threads. No
    /// thread is started here: the first message that needs a peer starts
    /// one, and more appear while none is idle.
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
        Arc::new(MobiGateClient {
            shared,
            max_threads: max_threads.max(1),
            workers: Mutex::new(Vec::new()),
            reporter: Mutex::new(None),
        })
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

    /// Submits a raw wire frame from the link. The frame is parsed here;
    /// one that needs no peer is delivered on the calling thread, and the
    /// rest are queued for the distributor threads. After
    /// [`MobiGateClient::shutdown`] nothing is delivered or counted.
    pub fn submit_wire(&self, frame: Vec<u8>) {
        let shared = &*self.shared;
        let Ok(msg) = MimeMessage::from_wire(&frame) else {
            shared.outbox.read(|out| {
                if !out.stop {
                    shared.received.fetch_add(1, Ordering::Relaxed);
                    shared.parse_errors.fetch_add(1, Ordering::Relaxed);
                }
            });
            return;
        };
        // Multipart bodies *without* a peer chain are distributed per part
        // (§3.4.1 "parse the incoming MIME messages and distribute them");
        // a multipart with a chain is handled by its peers (e.g. the
        // disaggregate peer of the aggregate streamlet). A message with
        // neither goes straight to the application.
        if msg.headers.get(PEER_CHAIN).is_none() && !msg.has_top_type("multipart") {
            shared.outbox.update(|out| {
                if out.stop {
                    return ((), Wake::None);
                }
                shared.received.fetch_add(1, Ordering::Relaxed);
                push_delivery(shared, out, msg)
            });
            return;
        }
        let none_idle = shared.inbox.update(|inbox| {
            if inbox.stop {
                return (false, Wake::None);
            }
            shared.received.fetch_add(1, Ordering::Relaxed);
            inbox.msgs.push_back(msg);
            (inbox.idle == 0, Wake::One)
        });
        // Servlet-style elasticity: grow a worker when none is idle.
        if none_idle && (shared.threads.load(Ordering::Relaxed) as usize) < self.max_threads {
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

    /// Stops the distributor threads and ends every wait in `recv`.
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
        // Idle until it takes a message, so `submit_wire` grows the pool
        // only when every thread is busy.
        shared.inbox.update(|inbox| {
            inbox.idle += 1;
            ((), Wake::None)
        });
        let msg = shared.inbox.wait_then(
            |inbox| inbox.msgs.is_empty() && !inbox.stop,
            None,
            |inbox, _| {
                inbox.idle -= 1;
                let msg = inbox.msgs.pop_front().filter(|_| !inbox.stop);
                (msg, Wake::None)
            },
        );
        let Some(msg) = msg else { return };

        // `submit_wire` queues only messages with a peer chain or a
        // multipart body.
        let parts = if msg.headers.get(PEER_CHAIN).is_some() {
            vec![msg]
        } else {
            match multipart::split(&msg) {
                Ok(parts) => parts,
                Err(_) => {
                    shared.parse_errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
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
    shared.outbox.update(|out| push_delivery(shared, out, msg));
}

/// Queues `msg` for [`MobiGateClient::recv`], under the outbox lock.
fn push_delivery(shared: &Shared, out: &mut Outbox, msg: MimeMessage) -> ((), Wake) {
    shared.delivered.fetch_add(1, Ordering::Relaxed);
    out.msgs.push_back(msg);
    ((), Wake::All)
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

    /// Parsing happens inside `submit_wire`, so the counters are final
    /// when it returns.
    #[test]
    fn parse_errors_counted() {
        let c = client();
        c.submit_wire(b"complete garbage, no header separator".to_vec());
        let stats = c.stats();
        assert_eq!((stats.received, stats.parse_errors), (1, 1));
        assert_eq!(stats.delivered, 0);
    }

    /// Frames with nothing to reverse are delivered by the submitting
    /// thread, in submit order, and start no distributor thread.
    #[test]
    fn plain_frames_are_delivered_in_order_without_a_distributor() {
        let c = client();
        for i in 0..1000 {
            c.submit(&MimeMessage::text(format!("m{i}")));
        }
        for i in 0..1000 {
            let out = c.recv(Duration::from_secs(2)).expect("delivered");
            assert_eq!(out.body.to_vec(), format!("m{i}").into_bytes());
        }
        let stats = c.stats();
        assert_eq!((stats.received, stats.delivered), (1000, 1000));
        assert_eq!(stats.threads, 0);
    }

    /// Records the name of the thread that runs it, then passes the
    /// message on unchanged.
    struct NameThread(Arc<Mutex<Vec<Option<String>>>>);
    impl StreamletLogic for NameThread {
        fn process(&mut self, m: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            let name = std::thread::current().name().map(str::to_string);
            self.0.lock().push(name);
            ctx.emit("po", m);
            Ok(())
        }
    }

    #[test]
    fn peer_frames_are_reversed_on_a_distributor_thread() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let pool = ClientStreamletPool::new();
        let seen2 = seen.clone();
        pool.register_peer("name", move || Box::new(NameThread(seen2.clone())));
        let c = MobiGateClient::new(pool, 2);
        assert_eq!(c.stats().threads, 0, "no thread before a peer frame");
        let mut msg = MimeMessage::text("x");
        msg.push_peer("name");
        c.submit(&msg);
        let out = c.recv(Duration::from_secs(2)).expect("delivered");
        assert_eq!(&out.body[..], b"x");
        let seen = seen.lock();
        assert_eq!(seen.len(), 1);
        let name = seen[0].as_deref().unwrap_or("");
        assert!(name.starts_with("mg-distributor-"), "ran on `{name}`");
        assert_eq!(c.stats().threads, 1);
    }

    #[test]
    fn submissions_after_shutdown_are_neither_delivered_nor_counted() {
        let c = client();
        c.shutdown();
        let mut peer = MimeMessage::text("cba");
        peer.push_peer("rev");
        c.submit(&MimeMessage::text("plain"));
        c.submit(&peer);
        c.submit_wire(b"garbage".to_vec());
        assert!(c.recv(Duration::from_millis(50)).is_none());
        assert_eq!(c.stats(), ClientStats::default());
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
