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
//! [`SharedStreamlet`] hosts **one** logic instance as an ordinary
//! [`StreamletHandle`] on the server's executor, under its supervisor and
//! telemetry, and serves any number of streams: each subscribed session is
//! an output binding named after the session, and the hosted logic emits
//! on the port of each emission's `Content-Session` label, so the handle's
//! own routing hands it back to its stream. Stateless logic is required —
//! per-stream state inside a shared instance would leak across sessions,
//! which is exactly why §3.3.4 restricts pooling/sharing to stateless
//! streamlets.

use crate::error::CoreError;
use crate::pool::{MessagePool, PayloadMode};
use crate::queue::{MessageQueue, Notifier, QueueConfig};
use crate::server::MobiGate;
use crate::session::DEFAULT_DRAIN_TIMEOUT;
use crate::streamlet::{Emitter, RouteOpts, StreamletCtx, StreamletHandle, StreamletLogic};
use crate::supervisor::Supervisor;
use crate::sync::{deadline_after, expired};
use crate::telemetry::QueueProbe;
use mobigate_mime::{MimeMessage, SessionId};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Counters of a shared instance: a view of its handle's
/// [`StreamletStats`](crate::streamlet::StreamletStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharingStats {
    /// Messages processed.
    pub processed: u64,
    /// Emissions routed to a subscribed stream.
    pub routed: u64,
    /// Emissions whose session had no subscriber (dropped).
    pub unrouted: u64,
}

/// Where the hosted logic is parked when the instance ends.
type LogicSlot = Arc<Mutex<Option<Box<dyn StreamletLogic>>>>;

/// A single streamlet instance shared by multiple streams.
pub struct SharedStreamlet {
    handle: Arc<StreamletHandle>,
    inbox: Arc<MessageQueue>,
    /// Fired after every step of the instance; `shutdown` drains on it.
    quiesce: Arc<Notifier>,
    pool: Arc<MessagePool>,
    mode: PayloadMode,
    parked: LogicSlot,
    probe: Option<QueueProbe>,
    /// Keeps the restart worker alive while the instance can fault.
    _supervisor: Option<Arc<Supervisor>>,
}

impl SharedStreamlet {
    /// Hosts a fresh instance of directory `key` as `name` on `server`'s
    /// executor, message pool and payload mode; a restart rebuilds it from
    /// `key`. Subscribers attach their own output queues.
    pub fn spawn(server: &MobiGate, name: &str, key: &str) -> Result<Arc<Self>, CoreError> {
        let (directory, pool) = (server.directory().clone(), server.message_pool().clone());
        let parked = LogicSlot::default();
        let handle = StreamletHandle::with_executor(
            name,
            key,
            false,
            SessionRouted::boxed(directory.create(key)?, &parked),
            pool.clone(),
            server.mode(),
            None,
            RouteOpts::default(),
            server.executor().clone(),
        );
        let probe = server.telemetry().map(|t| t.probe_for(name));
        if let Some(p) = &probe {
            handle.set_probe(p.clone());
        }
        let supervisor = server.supervisor().cloned();
        if let Some(sup) = &supervisor {
            let (key, parked): (Arc<str>, _) = (key.into(), parked.clone());
            let rebuild = move || Ok(SessionRouted::boxed(directory.create(&key)?, &parked));
            sup.supervise(&handle, rebuild, None);
        }
        let inbox = QueueConfig {
            name: format!("__shared/{name}"),
            capacity_bytes: 16 << 20,
            full_wait: Duration::from_millis(200),
            ..Default::default()
        };
        let inbox = MessageQueue::with_probe(inbox, pool.clone(), probe.clone());
        handle.attach_in("pi", &inbox);
        let quiesce = Arc::new(Notifier::new());
        handle.set_quiesce_notifier(quiesce.clone());
        handle.start()?;
        Ok(Arc::new(SharedStreamlet {
            handle,
            inbox,
            quiesce,
            pool,
            mode: server.mode(),
            parked,
            probe,
            _supervisor: supervisor,
        }))
    }

    /// Subscribes a stream, replacing its previous queue: its emissions
    /// will arrive on `out`.
    pub fn subscribe(&self, session: &SessionId, out: Arc<MessageQueue>) {
        self.unsubscribe(session);
        self.handle.attach_out(session.as_str(), &out);
    }

    /// Unsubscribes a stream; its pending emissions may still be in its
    /// queue, and emissions of its messages not yet routed drop unrouted.
    pub fn unsubscribe(&self, session: &SessionId) {
        let bound = self.handle.bound_outputs();
        if let Some((port, q)) = bound.iter().find(|(p, _)| p == session.as_str()) {
            let _ = self.handle.detach_out(port, &q.config().name);
        }
    }

    /// Number of subscribed streams.
    pub fn subscriber_count(&self) -> usize {
        self.handle.output_bindings().len()
    }

    /// Posts a message on behalf of a subscribed stream (after `shutdown`,
    /// none is). The message is labeled with the session (§4.4.3) before
    /// entering the shared inbox.
    pub fn post(&self, session: &SessionId, mut msg: MimeMessage) -> Result<(), CoreError> {
        if !self.handle.has_output(session.as_str()) {
            return Err(CoreError::NotFound {
                kind: "shared-streamlet subscription",
                name: session.as_str().to_string(),
            });
        }
        msg.set_session(session);
        self.inbox.post(self.pool.wrap(msg, self.mode, 1));
        Ok(())
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SharingStats {
        let s = self.handle.stats();
        SharingStats {
            processed: s.processed,
            routed: s.emitted,
            unrouted: s.dropped_unrouted,
        }
    }

    /// Waits (bounded) for the instance to take everything out of the
    /// inbox, ends it once it has processed what it took, unsubscribes
    /// every stream, closes the inbox, and returns the logic instance (for
    /// pooling) the first time.
    pub fn shutdown(&self) -> Option<Box<dyn StreamletLogic>> {
        // The snapshot precedes each check, as in `RunningStream::drain`.
        let deadline = deadline_after(DEFAULT_DRAIN_TIMEOUT);
        let mut seen = self.quiesce.snapshot();
        while !self.inbox.is_empty() && !expired(deadline) {
            self.quiesce.wait_unless(seen, deadline);
            seen = self.quiesce.snapshot();
        }
        self.handle.end();
        let _ = self.handle.detach_all();
        if let Some(p) = &self.probe {
            p.telemetry.registry().deregister(&p.key);
        }
        self.parked.lock().take()
    }
}

impl Drop for SharedStreamlet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The hosted logic as the handle runs it: the logic sees the input's
/// session in its context, and each emission leaves on the port named after
/// its own `Content-Session` label, or the input's when it has none.
struct SessionRouted {
    /// `None` once `on_end` parked it.
    logic: Option<Box<dyn StreamletLogic>>,
    parked: LogicSlot,
}

impl SessionRouted {
    fn boxed(logic: Box<dyn StreamletLogic>, parked: &LogicSlot) -> Box<dyn StreamletLogic> {
        let parked = parked.clone();
        Box::new(SessionRouted {
            logic: Some(logic),
            parked,
        })
    }
}

impl StreamletLogic for SessionRouted {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        let logic = self.logic.as_mut().expect("process never follows on_end");
        let session = msg.session();
        let mut inner = StreamletCtx::new(ctx.instance(), session.as_ref());
        let result = logic.process(msg, &mut inner);
        for (_, out) in inner.into_outputs() {
            let label = out.session().or_else(|| session.clone());
            ctx.emit(label.as_ref().map_or("", SessionId::as_str), out);
        }
        result
    }

    fn on_activate(&mut self) {
        if let Some(logic) = self.logic.as_mut() {
            logic.on_activate();
        }
    }

    fn on_end(&mut self) {
        if let Some(mut logic) = self.logic.take() {
            logic.on_end();
            *self.parked.lock() = Some(logic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{ContextEvent, EventSubscriber};
    use crate::pooling::StreamletPool;
    use crate::queue::FetchResult;
    use crate::server::{ExecutorConfig, ServerConfig};
    use crate::supervisor::RestartPolicy;
    use crate::sync::{Parker, Wake};
    use mobigate_mcl::events::{EventCategory, EventKind};
    use std::sync::atomic::{AtomicBool, Ordering};

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

    fn server(executor: ExecutorConfig, mode: PayloadMode) -> MobiGate {
        let config = ServerConfig {
            executor,
            mode,
            ..Default::default()
        };
        let server =
            MobiGate::with_config(config, Arc::default(), Arc::new(StreamletPool::new(64)));
        server
            .directory()
            .register("upper", "uppercases text", || Box::new(Upper));
        server
    }

    fn executors() -> [ExecutorConfig; 2] {
        [
            ExecutorConfig::ThreadPerStreamlet,
            ExecutorConfig::WorkerPool { workers: 2 },
        ]
    }

    fn setup() -> (Arc<MessagePool>, Arc<SharedStreamlet>) {
        let server = server(ExecutorConfig::ThreadPerStreamlet, PayloadMode::Reference);
        let shared = SharedStreamlet::spawn(&server, "upper", "upper").unwrap();
        (server.message_pool().clone(), shared)
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

    fn received_nothing(q: &MessageQueue) -> bool {
        !matches!(q.try_fetch(), FetchResult::Msg(_))
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

    /// An idle instance's driver waits with no timeout, so a `shutdown`
    /// racing the driver's way into that wait must still be seen: every
    /// cycle ends the instance and gets the logic back. The spin before
    /// each shutdown varies how far the driver got.
    #[test]
    fn idle_start_shutdown_cycles_return_the_logic() {
        for executor in executors() {
            let server = server(executor, PayloadMode::Reference);
            for i in 0..1500u32 {
                let shared = SharedStreamlet::spawn(&server, "idle", "upper").unwrap();
                for _ in 0..(i % 128) * 20 {
                    std::hint::spin_loop();
                }
                assert!(shared.shutdown().is_some(), "{executor:?} cycle {i}");
            }
        }
    }

    /// Byte-accounting conservation for the value-mode emission hop. The
    /// hop is an ordinary by-value channel post (Figure 7-3): each
    /// delivered body is a copy of the emitted one, never the emitted
    /// allocation, and the bytes delivered equal the bytes emitted exactly.
    #[test]
    fn value_mode_emission_is_a_copy_and_conserves_bytes() {
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

        let server = server(ExecutorConfig::ThreadPerStreamlet, PayloadMode::Value);
        let pool = server.message_pool().clone();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let recorded = seen.clone();
        server.directory().register("record", "", move || {
            Box::new(Recorder {
                seen: recorded.clone(),
            })
        });
        let shared = SharedStreamlet::spawn(&server, "record", "record").unwrap();
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
            assert_eq!(m.body, *recorded);
            assert!(
                !m.body.shares_allocation_with(recorded),
                "delivered body {i} must be a copy of the emitted one"
            );
        }
        assert_eq!(delivered_bytes, sent_bytes, "bytes conserved end to end");
        shared.shutdown();
    }

    /// Uppercases text, but refuses a `bad` body and panics on `boom`
    /// while its `armed` flag is up. The flag is shared by every instance
    /// the directory builds, so a transient fault clears it on the way
    /// down and a poison message keeps it up.
    struct Picky {
        armed: Arc<AtomicBool>,
        transient: bool,
    }
    impl StreamletLogic for Picky {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            match &msg.body[..] {
                b"bad" => Err(CoreError::Process {
                    streamlet: "picky".into(),
                    message: "refused".into(),
                }),
                b"boom" if self.armed.swap(!self.transient, Ordering::SeqCst) => {
                    panic!("picky: boom")
                }
                _ => Upper.process(msg, ctx),
            }
        }
    }

    #[derive(Default)]
    struct FaultRecorder {
        seen: Mutex<Vec<ContextEvent>>,
    }
    impl EventSubscriber for FaultRecorder {
        fn subscriber_name(&self) -> String {
            "fault-recorder".into()
        }
        fn on_event(&self, event: &ContextEvent) {
            self.seen.lock().push(event.clone());
        }
    }

    /// A `picky` shared instance on `server`, two subscribed sessions and
    /// their queues, and a recorder of `STREAMLET_FAULT` events.
    struct Rig {
        shared: Arc<SharedStreamlet>,
        sessions: [SessionId; 2],
        queues: [Arc<MessageQueue>; 2],
        faults: Arc<FaultRecorder>,
    }

    fn picky_rig(server: &MobiGate, transient: bool) -> Rig {
        let armed = Arc::new(AtomicBool::new(true));
        server.directory().register("picky", "", move || {
            Box::new(Picky {
                armed: armed.clone(),
                transient,
            })
        });
        let faults = Arc::new(FaultRecorder::default());
        let sub: Arc<dyn EventSubscriber> = faults.clone();
        server.events().subscribe(EventCategory::RuntimeFault, &sub);
        let shared = SharedStreamlet::spawn(server, "picky", "picky").unwrap();
        let pool = server.message_pool();
        let sessions = [SessionId::new("a"), SessionId::new("b")];
        let queues = [out_queue(pool), out_queue(pool)];
        for (s, q) in sessions.iter().zip(&queues) {
            shared.subscribe(s, q.clone());
        }
        Rig {
            shared,
            sessions,
            queues,
            faults,
        }
    }

    #[test]
    fn a_poison_message_faults_restarts_and_is_dead_lettered_on_all_executors() {
        for executor in executors() {
            let server = server(executor, PayloadMode::Reference);
            let rig = picky_rig(&server, false);
            let pool = server.message_pool();
            let [sa, sb] = &rig.sessions;
            let [qa, qb] = &rig.queues;
            rig.shared.post(sa, MimeMessage::text("boom")).unwrap();
            for k in 0..5 {
                rig.shared
                    .post(sa, MimeMessage::text(format!("a{k}")))
                    .unwrap();
                rig.shared
                    .post(sb, MimeMessage::text(format!("b{k}")))
                    .unwrap();
            }
            // Later messages of both sessions, each on its own queue: the
            // instance came back, and the poison message is out of the way.
            for k in 0..5 {
                assert_eq!(fetch_text(pool, qa), format!("A{k}"), "{executor:?}");
                assert_eq!(fetch_text(pool, qb), format!("B{k}"), "{executor:?}");
            }
            assert!(received_nothing(qa) && received_nothing(qb), "{executor:?}");

            // The default policy dead-letters a message once it has
            // faulted the instance `poison_threshold` times, restarting
            // the instance after every fault.
            let threshold = RestartPolicy::default().poison_threshold;
            let letters = server.dead_letters().unwrap().snapshot();
            assert_eq!(letters.len(), 1, "{executor:?}");
            assert_eq!(&letters[0].message.body[..], b"boom", "{executor:?}");
            assert_eq!(letters[0].instance, "picky", "{executor:?}");
            assert_eq!(letters[0].faults, threshold, "{executor:?}");
            let sup = server.supervisor().unwrap().stats();
            assert_eq!(sup.restarts, u64::from(threshold), "{executor:?}");
            let stats = rig.shared.handle.stats();
            assert_eq!(stats.faults, u64::from(threshold), "{executor:?}");
            assert_eq!(stats.restarts, u64::from(threshold), "{executor:?}");

            let seen = rig.faults.seen.lock();
            assert_eq!(seen.len(), threshold as usize, "{executor:?}");
            assert!(seen.iter().all(|e| e.kind == EventKind::StreamletFault));
            let info = seen[0].fault.as_ref().unwrap();
            assert_eq!(info.instance, "picky", "{executor:?}");
            assert!(info.cause.message().contains("picky: boom"), "{executor:?}");
            drop(seen);
            assert!(rig.shared.shutdown().is_some(), "{executor:?}");
        }
    }

    #[test]
    fn a_transient_panic_redelivers_the_message_on_all_executors() {
        for executor in executors() {
            let server = server(executor, PayloadMode::Reference);
            let rig = picky_rig(&server, true);
            let pool = server.message_pool();
            let [sa, sb] = &rig.sessions;
            let [qa, qb] = &rig.queues;
            rig.shared.post(sa, MimeMessage::text("boom")).unwrap();
            for k in 0..5 {
                rig.shared
                    .post(sa, MimeMessage::text(format!("a{k}")))
                    .unwrap();
                rig.shared
                    .post(sb, MimeMessage::text(format!("b{k}")))
                    .unwrap();
            }
            // The rebuilt instance takes the faulting message again first.
            assert_eq!(fetch_text(pool, qa), "BOOM", "{executor:?}");
            for k in 0..5 {
                assert_eq!(fetch_text(pool, qa), format!("A{k}"), "{executor:?}");
                assert_eq!(fetch_text(pool, qb), format!("B{k}"), "{executor:?}");
            }
            assert!(received_nothing(qa) && received_nothing(qb), "{executor:?}");
            assert!(server.dead_letters().unwrap().is_empty(), "{executor:?}");
            let restarts = server.supervisor().unwrap().stats().restarts;
            assert_eq!(restarts, 1, "{executor:?}");
            assert_eq!(rig.faults.seen.lock().len(), 1, "{executor:?}");
            assert_eq!(rig.shared.stats().processed, 11, "{executor:?}");
            rig.shared.shutdown();
        }
    }

    #[test]
    fn a_process_error_is_counted_on_all_executors() {
        for executor in executors() {
            let server = server(executor, PayloadMode::Reference);
            let rig = picky_rig(&server, false);
            let pool = server.message_pool();
            let [sa, _] = &rig.sessions;
            let [qa, _] = &rig.queues;
            rig.shared.post(sa, MimeMessage::text("bad")).unwrap();
            rig.shared.post(sa, MimeMessage::text("good")).unwrap();
            assert_eq!(fetch_text(pool, qa), "GOOD", "{executor:?}");
            assert!(received_nothing(qa), "{executor:?}");
            let stats = rig.shared.handle.stats();
            assert_eq!((stats.errors, stats.processed), (1, 1), "{executor:?}");
            assert_eq!(stats.faults, 0, "{executor:?}");
            rig.shared.shutdown();
        }
    }

    /// What was posted before `shutdown` is processed and delivered, as
    /// the subscriber's queue keeps what reached it.
    #[test]
    fn shutdown_drains_the_inbox_on_all_executors() {
        for executor in executors() {
            let server = server(executor, PayloadMode::Reference);
            let pool = server.message_pool();
            let shared = SharedStreamlet::spawn(&server, "upper", "upper").unwrap();
            let s = SessionId::new("s");
            let q = out_queue(pool);
            shared.subscribe(&s, q.clone());
            for k in 0..50 {
                shared.post(&s, MimeMessage::text(format!("m{k}"))).unwrap();
            }
            assert!(shared.shutdown().is_some(), "{executor:?}");
            for k in 0..50 {
                assert_eq!(fetch_text(pool, &q), format!("M{k}"), "{executor:?}");
            }
            assert_eq!(shared.stats().routed, 50, "{executor:?}");
        }
    }

    #[test]
    fn post_after_shutdown_is_refused_on_all_executors() {
        for executor in executors() {
            let server = server(executor, PayloadMode::Reference);
            let shared = SharedStreamlet::spawn(&server, "upper", "upper").unwrap();
            let s = SessionId::new("s");
            shared.subscribe(&s, out_queue(server.message_pool()));
            assert!(shared.shutdown().is_some(), "{executor:?}");
            assert!(
                shared.post(&s, MimeMessage::text("x")).is_err(),
                "{executor:?}"
            );
        }
    }

    /// A message still inside the instance when its stream leaves is
    /// counted as unrouted and reaches no queue. The message waits inside
    /// `process` behind a gate while the session unsubscribes; a later
    /// message of another session shows when it has been routed.
    #[test]
    fn a_message_in_flight_when_its_stream_leaves_is_unrouted_on_all_executors() {
        /// 0: idle, 1: holding a message, 2: open.
        struct Gated(Arc<Parker<u8>>);
        impl StreamletLogic for Gated {
            fn process(
                &mut self,
                msg: MimeMessage,
                ctx: &mut StreamletCtx,
            ) -> Result<(), CoreError> {
                if &msg.body[..] == b"hold" {
                    self.0.update(|s| {
                        *s = 1;
                        ((), Wake::All)
                    });
                    self.0.wait_while(|s| *s != 2, None);
                }
                Upper.process(msg, ctx)
            }
        }

        for executor in executors() {
            let server = server(executor, PayloadMode::Reference);
            let pool = server.message_pool();
            let gate = Arc::new(Parker::new(0u8));
            let g = gate.clone();
            server
                .directory()
                .register("gated", "", move || Box::new(Gated(g.clone())));
            let shared = SharedStreamlet::spawn(&server, "gated", "gated").unwrap();
            let (sa, sb) = (SessionId::new("leaver"), SessionId::new("stayer"));
            let (qa, qb) = (out_queue(pool), out_queue(pool));
            shared.subscribe(&sa, qa.clone());
            shared.subscribe(&sb, qb.clone());

            shared.post(&sa, MimeMessage::text("hold")).unwrap();
            gate.wait_while(|s| *s != 1, None);
            shared.unsubscribe(&sa);
            shared.post(&sb, MimeMessage::text("after")).unwrap();
            gate.update(|s| {
                *s = 2;
                ((), Wake::All)
            });

            assert_eq!(fetch_text(pool, &qb), "AFTER", "{executor:?}");
            let stats = shared.stats();
            assert_eq!(stats.unrouted, 1, "{executor:?}");
            assert_eq!((stats.processed, stats.routed), (2, 1), "{executor:?}");
            assert!(
                received_nothing(&qa) && received_nothing(&qb),
                "{executor:?}"
            );
            shared.shutdown();
        }
    }
}
