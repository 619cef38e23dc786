//! Streamlet sharing (§4.4.3).
//!
//! "The complete decoupling of coordination from computation makes it
//! possible to share instances of streamlets between different streams.
//! The question is, how can messages be distributed to their corresponding
//! streams when the messages are generated on the output ports of the
//! shared instances? … Before executing a coordination stream, the system
//! automatically generates a unique session ID for each instance of a
//! stream. Subsequently, all messages belonging to this stream are labeled
//! with the assigned session ID in their Content-Session field. By this
//! means, the system can easily differentiate messages from different
//! streams."
//!
//! [`SharedStreamlet`] hosts **one** logic instance on **one** worker
//! thread and serves any number of streams concurrently: every stream
//! posts session-labeled messages into the shared inbox; emissions are
//! routed back to the subscribing stream's queue by their `Content-Session`
//! label. Stateless logic is required — per-stream state inside a shared
//! instance would leak across sessions, which is exactly why §3.3.4
//! restricts pooling/sharing to stateless streamlets.

use crate::error::CoreError;
use crate::pool::{MessagePool, PayloadMode};
use crate::queue::{FetchResult, MessageQueue, QueueConfig};
use crate::streamlet::{StreamletCtx, StreamletLogic};
use mobigate_mime::{MimeMessage, SessionId};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Counters of a shared instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharingStats {
    /// Messages processed.
    pub processed: u64,
    /// Emissions routed to a subscribed stream.
    pub routed: u64,
    /// Emissions whose session had no subscriber (dropped).
    pub unrouted: u64,
}

struct SharedInner {
    /// Session → the queue carrying this stream's share of the output.
    routes: RwLock<HashMap<SessionId, Arc<MessageQueue>>>,
    inbox: Arc<MessageQueue>,
    pool: Arc<MessagePool>,
    mode: PayloadMode,
    processed: AtomicU64,
    routed: AtomicU64,
    unrouted: AtomicU64,
    name: String,
}

/// A single streamlet instance shared by multiple streams.
pub struct SharedStreamlet {
    inner: Arc<SharedInner>,
    worker: Mutex<Option<JoinHandle<()>>>,
    logic_slot: Arc<Mutex<Option<Box<dyn StreamletLogic>>>>,
}

impl SharedStreamlet {
    /// Hosts `logic` as a shared instance. The inbox is an async queue with
    /// a generous buffer; subscribers attach their own output queues.
    pub fn spawn(
        name: impl Into<String>,
        logic: Box<dyn StreamletLogic>,
        pool: Arc<MessagePool>,
        mode: PayloadMode,
    ) -> Arc<Self> {
        let name = name.into();
        let inbox = MessageQueue::new(
            QueueConfig {
                name: format!("__shared/{name}"),
                capacity_bytes: 16 << 20,
                full_wait: Duration::from_millis(200),
                ..Default::default()
            },
            pool.clone(),
        );
        // The instance is the inbox's one source: `shutdown` detaches it,
        // and the worker stops once the inbox is drained.
        inbox.attach_source();
        let inner = Arc::new(SharedInner {
            routes: RwLock::new(HashMap::new()),
            inbox,
            pool,
            mode,
            processed: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            unrouted: AtomicU64::new(0),
            name,
        });
        let logic_slot = Arc::new(Mutex::new(None));
        let worker = {
            let inner = inner.clone();
            let slot = logic_slot.clone();
            std::thread::Builder::new()
                .name(format!("shared-{}", inner.name))
                .spawn(move || shared_worker(inner, slot, logic))
                .expect("spawn shared streamlet")
        };
        Arc::new(SharedStreamlet {
            inner,
            worker: Mutex::new(Some(worker)),
            logic_slot,
        })
    }

    /// Subscribes a stream: its emissions will arrive on `out`.
    pub fn subscribe(&self, session: &SessionId, out: Arc<MessageQueue>) {
        out.attach_source();
        self.inner.routes.write().insert(session.clone(), out);
    }

    /// Unsubscribes a stream; its pending emissions may still be in `out`.
    pub fn unsubscribe(&self, session: &SessionId) {
        if let Some(q) = self.inner.routes.write().remove(session) {
            let _ = q.detach_source();
        }
    }

    /// Number of subscribed streams.
    pub fn subscriber_count(&self) -> usize {
        self.inner.routes.read().len()
    }

    /// Posts a message on behalf of a stream. The message is labeled with
    /// the session (§4.4.3) before entering the shared inbox.
    pub fn post(&self, session: &SessionId, mut msg: MimeMessage) -> Result<(), CoreError> {
        if !self.inner.routes.read().contains_key(session) {
            return Err(CoreError::NotFound {
                kind: "shared-streamlet subscription",
                name: session.as_str().to_string(),
            });
        }
        msg.set_session(session);
        let payload = self.inner.pool.wrap(msg, self.inner.mode, 1);
        self.inner.inbox.post(payload);
        Ok(())
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SharingStats {
        SharingStats {
            processed: self.inner.processed.load(Ordering::Relaxed),
            routed: self.inner.routed.load(Ordering::Relaxed),
            unrouted: self.inner.unrouted.load(Ordering::Relaxed),
        }
    }

    /// Closes the inbox, joins the worker once it has drained it, and
    /// returns the logic instance (for pooling).
    pub fn shutdown(&self) -> Option<Box<dyn StreamletLogic>> {
        if let Some(h) = self.worker.lock().take() {
            // Disconnects the inbox, which wakes the worker's fetch.
            let _ = self.inner.inbox.detach_source();
            let _ = h.join();
        }
        self.logic_slot.lock().take()
    }
}

fn shared_worker(
    inner: Arc<SharedInner>,
    slot: Arc<Mutex<Option<Box<dyn StreamletLogic>>>>,
    mut logic: Box<dyn StreamletLogic>,
) {
    logic.on_activate();
    loop {
        // No deadline: only `shutdown` (disconnected) ends the wait.
        let FetchResult::Msg(payload) = inner.inbox.fetch(Duration::MAX) else {
            break;
        };
        let Some(msg) = inner.pool.resolve(payload) else {
            continue;
        };
        let session = msg.session();
        let mut ctx = StreamletCtx::new(&inner.name, session.as_ref());
        if logic.process(msg, &mut ctx).is_err() {
            continue;
        }
        inner.processed.fetch_add(1, Ordering::Relaxed);

        // Route emissions by Content-Session (§4.4.3). A streamlet must not
        // relabel sessions, but be defensive: prefer the emission's own
        // label, falling back to the input's.
        for (_port, out_msg) in ctx.into_outputs() {
            let label = out_msg.session().or_else(|| session.clone());
            let target = label.and_then(|s| inner.routes.read().get(&s).cloned());
            match target {
                Some(q) => {
                    let payload = match inner.mode {
                        PayloadMode::Reference => inner.pool.insert_ref(out_msg, 1),
                        // The emission is owned and about to drop — moving
                        // it (refcounted body and all) into the payload is
                        // observationally identical to a deep copy, minus
                        // the memcpy.
                        PayloadMode::Value => inner.pool.wrap_owned(out_msg),
                    };
                    // Count before posting: a consumer that sees the
                    // message must also see it counted.
                    inner.routed.fetch_add(1, Ordering::Relaxed);
                    q.post(payload);
                }
                None => {
                    inner.unrouted.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    logic.on_end();
    *slot.lock() = Some(logic);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streamlet::Emitter;

    /// Uppercases text; stateless, so sharable.
    struct Upper;
    impl StreamletLogic for Upper {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            let up = String::from_utf8_lossy(&msg.body).to_uppercase();
            let mut out = msg.clone();
            out.set_body(up.into_bytes());
            ctx.emit("po", out);
            Ok(())
        }
    }

    fn setup() -> (Arc<MessagePool>, Arc<SharedStreamlet>) {
        let pool = Arc::new(MessagePool::new());
        let shared = SharedStreamlet::spawn(
            "upper",
            Box::new(Upper),
            pool.clone(),
            PayloadMode::Reference,
        );
        (pool, shared)
    }

    fn out_queue(pool: &Arc<MessagePool>) -> Arc<MessageQueue> {
        MessageQueue::new(QueueConfig::default(), pool.clone())
    }

    fn fetch_text(pool: &MessagePool, q: &MessageQueue) -> String {
        match q.fetch(Duration::from_secs(5)) {
            FetchResult::Msg(p) => {
                String::from_utf8_lossy(&pool.resolve(p).unwrap().body).into_owned()
            }
            other => panic!("expected message, got {other:?}"),
        }
    }

    #[test]
    fn routes_outputs_back_to_the_owning_stream() {
        let (pool, shared) = setup();
        let (sa, sb) = (SessionId::new("stream-a"), SessionId::new("stream-b"));
        let (qa, qb) = (out_queue(&pool), out_queue(&pool));
        shared.subscribe(&sa, qa.clone());
        shared.subscribe(&sb, qb.clone());
        assert_eq!(shared.subscriber_count(), 2);

        shared.post(&sa, MimeMessage::text("from a")).unwrap();
        shared.post(&sb, MimeMessage::text("from b")).unwrap();
        shared.post(&sa, MimeMessage::text("again a")).unwrap();

        assert_eq!(fetch_text(&pool, &qa), "FROM A");
        assert_eq!(fetch_text(&pool, &qa), "AGAIN A");
        assert_eq!(fetch_text(&pool, &qb), "FROM B");
        // No cross-talk.
        assert!(matches!(qb.try_fetch(), FetchResult::Empty));
        assert!(matches!(qa.try_fetch(), FetchResult::Empty));
        let stats = shared.stats();
        assert_eq!(stats.processed, 3);
        assert_eq!(stats.routed, 3);
        assert_eq!(stats.unrouted, 0);
        shared.shutdown();
    }

    #[test]
    fn outputs_carry_the_session_label() {
        let (pool, shared) = setup();
        let s = SessionId::new("labeled");
        let q = out_queue(&pool);
        shared.subscribe(&s, q.clone());
        shared.post(&s, MimeMessage::text("x")).unwrap();
        if let FetchResult::Msg(p) = q.fetch(Duration::from_secs(5)) {
            let m = pool.resolve(p).unwrap();
            assert_eq!(m.session().unwrap().as_str(), "labeled");
        } else {
            panic!("no output");
        }
        shared.shutdown();
    }

    #[test]
    fn post_requires_subscription() {
        let (_pool, shared) = setup();
        let err = shared.post(&SessionId::new("ghost"), MimeMessage::text("x"));
        assert!(err.is_err());
        shared.shutdown();
    }

    #[test]
    fn unsubscribed_sessions_outputs_drop() {
        let (pool, shared) = setup();
        let s = SessionId::new("leaver");
        let q = out_queue(&pool);
        shared.subscribe(&s, q.clone());
        shared.post(&s, MimeMessage::text("first")).unwrap();
        assert_eq!(fetch_text(&pool, &q), "FIRST");
        shared.unsubscribe(&s);
        // A message already in the inbox when the stream leaves: routed
        // nowhere, counted as unrouted — never delivered to someone else.
        assert!(shared.post(&s, MimeMessage::text("late")).is_err());
        assert_eq!(shared.subscriber_count(), 0);
        shared.shutdown();
    }

    #[test]
    fn concurrent_streams_share_one_instance() {
        let (pool, shared) = setup();
        let sessions: Vec<SessionId> = (0..8).map(|i| SessionId::new(format!("s{i}"))).collect();
        let queues: Vec<Arc<MessageQueue>> = (0..8).map(|_| out_queue(&pool)).collect();
        for (s, q) in sessions.iter().zip(&queues) {
            shared.subscribe(s, q.clone());
        }
        let mut posters = Vec::new();
        for (i, s) in sessions.iter().cloned().enumerate() {
            let shared = shared.clone();
            posters.push(std::thread::spawn(move || {
                for k in 0..25 {
                    shared
                        .post(&s, MimeMessage::text(format!("m{i}-{k}")))
                        .unwrap();
                }
            }));
        }
        for p in posters {
            p.join().unwrap();
        }
        // Each stream gets exactly its 25 messages, in its own order.
        for (i, q) in queues.iter().enumerate() {
            for k in 0..25 {
                let text = fetch_text(&pool, q);
                assert_eq!(text, format!("M{i}-{k}").to_uppercase());
            }
        }
        assert_eq!(shared.stats().processed, 200);
        shared.shutdown();
    }

    #[test]
    fn shutdown_returns_logic() {
        let (_pool, shared) = setup();
        assert!(shared.shutdown().is_some());
        // Second shutdown is a no-op.
        assert!(shared.shutdown().is_none());
    }

    /// The idle worker waits on its notifier with no timeout, so a
    /// `shutdown` racing the worker's way into that wait must still be
    /// seen: every cycle joins the worker and gets the logic back. The
    /// spin before each shutdown varies how far the worker got; with
    /// `stop` checked before the snapshot this hangs within a few
    /// thousand cycles.
    #[test]
    fn idle_start_shutdown_cycles_return_the_logic() {
        let pool = Arc::new(MessagePool::new());
        for i in 0..3000u32 {
            let shared = SharedStreamlet::spawn(
                "idle",
                Box::new(Upper),
                pool.clone(),
                PayloadMode::Reference,
            );
            for _ in 0..(i % 128) * 20 {
                std::hint::spin_loop();
            }
            assert!(shared.shutdown().is_some(), "cycle {i}");
        }
    }

    /// Byte-accounting conservation for the value-mode emission hop: a
    /// pass-through emission is *moved* into the payload (`wrap_owned`),
    /// so each delivered body is the very allocation the logic emitted —
    /// no copy — and the bytes delivered equal the bytes emitted exactly.
    #[test]
    fn value_mode_emission_moves_body_without_copy() {
        use mobigate_mime::Bytes;

        struct Recorder {
            seen: Arc<Mutex<Vec<Bytes>>>,
        }
        impl StreamletLogic for Recorder {
            fn process(
                &mut self,
                msg: MimeMessage,
                ctx: &mut StreamletCtx,
            ) -> Result<(), CoreError> {
                self.seen.lock().push(msg.body.clone());
                ctx.emit("po", msg);
                Ok(())
            }
        }

        let pool = Arc::new(MessagePool::new());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let shared = SharedStreamlet::spawn(
            "record",
            Box::new(Recorder { seen: seen.clone() }),
            pool.clone(),
            PayloadMode::Value,
        );
        let s = SessionId::new("conserve");
        let q = out_queue(&pool);
        shared.subscribe(&s, q.clone());

        // Bodies past the inline threshold, so sharing is observable.
        let mut sent_bytes = 0usize;
        for i in 0..4u8 {
            let mut m = MimeMessage::text("");
            m.set_body(vec![i; 96 + i as usize]);
            sent_bytes += m.body.len();
            shared.post(&s, m).unwrap();
        }

        let mut delivered_bytes = 0usize;
        for i in 0..4usize {
            let m = match q.fetch(Duration::from_secs(5)) {
                FetchResult::Msg(p) => pool.resolve(p).unwrap(),
                other => panic!("expected message, got {other:?}"),
            };
            delivered_bytes += m.body.len();
            let recorded = &seen.lock()[i];
            assert!(
                m.body.shares_allocation_with(recorded),
                "delivered body {i} must be the emitted allocation, not a copy"
            );
        }
        assert_eq!(delivered_bytes, sent_bytes, "bytes conserved end to end");
        shared.shutdown();
    }
}
