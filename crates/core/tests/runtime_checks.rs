//! Runtime-behaviour integration tests for the core crate: the §4.1
//! runtime type check, topology introspection, and Figure 6-9 drop
//! behaviour under a slow consumer.

use mobigate_core::pool::{MessagePool, PayloadMode};
use mobigate_core::queue::{FetchResult, MessageQueue, QueueConfig};
use mobigate_core::{
    CoreError, Emitter, MobiGate, RouteOpts, StreamletCtx, StreamletHandle, StreamletLogic,
};
use mobigate_mime::{MimeMessage, MimeType, TypeRegistry};
use std::sync::Arc;
use std::time::Duration;

/// Emits whatever it receives, relabeled as `image/gif`.
struct Mislabel;
impl StreamletLogic for Mislabel {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        let mut out = msg.clone();
        out.set_content_type(&MimeType::new("image", "gif"));
        ctx.emit("po", out);
        Ok(())
    }
}

/// Sleeps per message — the "radically different speeds" scenario (§6.7).
struct Slow(Duration);
impl StreamletLogic for Slow {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        std::thread::sleep(self.0);
        ctx.emit("po", msg);
        Ok(())
    }
}

#[test]
fn runtime_type_check_suppresses_mismatched_emissions() {
    let pool = Arc::new(MessagePool::new());
    let qin = MessageQueue::new(QueueConfig::default(), pool.clone());
    // A text-only channel downstream.
    let qout = MessageQueue::new(
        QueueConfig {
            name: "textchan".into(),
            ty: "text".parse().unwrap(),
            ..Default::default()
        },
        pool.clone(),
    );
    let opts = RouteOpts {
        registry: Arc::new(TypeRegistry::standard()),
        enforce_types: true,
    };
    let h = StreamletHandle::with_route_opts(
        "m1",
        "mislabel",
        false,
        Box::new(Mislabel),
        pool.clone(),
        PayloadMode::Reference,
        None,
        opts,
    );
    h.attach_in("pi", &qin);
    h.attach_out("po", &qout);
    h.start().unwrap();

    qin.post(pool.wrap(
        MimeMessage::text("becomes an image"),
        PayloadMode::Reference,
        1,
    ));
    // The image/gif emission must never reach the text channel.
    assert!(matches!(
        qout.fetch(Duration::from_millis(300)),
        FetchResult::Empty
    ));
    assert_eq!(h.stats().type_violations, 1);
    h.end();
}

#[test]
fn runtime_type_check_off_by_default() {
    let pool = Arc::new(MessagePool::new());
    let qin = MessageQueue::new(QueueConfig::default(), pool.clone());
    let qout = MessageQueue::new(
        QueueConfig {
            name: "textchan".into(),
            ty: "text".parse().unwrap(),
            ..Default::default()
        },
        pool.clone(),
    );
    let h = StreamletHandle::new(
        "m1",
        "mislabel",
        false,
        Box::new(Mislabel),
        pool.clone(),
        PayloadMode::Reference,
        None,
    );
    h.attach_in("pi", &qin);
    h.attach_out("po", &qout);
    h.start().unwrap();
    qin.post(pool.wrap(MimeMessage::text("x"), PayloadMode::Reference, 1));
    assert!(matches!(
        qout.fetch(Duration::from_secs(2)),
        FetchResult::Msg(_)
    ));
    assert_eq!(h.stats().type_violations, 0);
    h.end();
}

#[test]
fn slow_consumer_drops_messages_per_figure_6_9() {
    // A fast producer feeds a slow streamlet through a 1 KB channel with a
    // short full-wait T: the excess messages are dropped, the producer is
    // never stalled indefinitely, and the drops are accounted.
    let pool = Arc::new(MessagePool::new());
    let chan = MessageQueue::new(
        QueueConfig {
            name: "narrow".into(),
            capacity_bytes: 1024,
            full_wait: Duration::from_millis(10),
            ..Default::default()
        },
        pool.clone(),
    );
    let sink = MessageQueue::new(QueueConfig::default(), pool.clone());
    let slow = StreamletHandle::new(
        "slowpoke",
        "slow",
        false,
        Box::new(Slow(Duration::from_millis(30))),
        pool.clone(),
        PayloadMode::Reference,
        None,
    );
    slow.attach_in("pi", &chan);
    slow.attach_out("po", &sink);
    slow.start().unwrap();

    let n = 30;
    let body = vec![0u8; 700]; // ~1 message fits the 1 KB buffer
    let t0 = std::time::Instant::now();
    for _ in 0..n {
        chan.post(pool.wrap(
            MimeMessage::new(&MimeType::new("text", "plain"), body.clone()),
            PayloadMode::Reference,
            1,
        ));
    }
    let produced_in = t0.elapsed();
    // The producer finished long before the slow consumer could have
    // processed 30 × 30 ms of work.
    assert!(
        produced_in < Duration::from_millis(600),
        "producer stalled: {produced_in:?}"
    );

    // Drain whatever survived.
    let mut survived = 0;
    while let FetchResult::Msg(p) = sink.fetch(Duration::from_millis(200)) {
        pool.resolve(p);
        survived += 1;
    }
    let stats = chan.stats();
    assert_eq!(stats.posted + stats.dropped_full, n, "every post accounted");
    assert!(
        stats.dropped_full > 0,
        "the narrow channel must have dropped"
    );
    assert_eq!(
        survived as u64, stats.posted,
        "everything admitted was processed"
    );
    // Dropped refs were reclaimed — no leaks in the message pool.
    assert_eq!(pool.stats().resident, 0);
    slow.end();
}

#[test]
fn to_dot_reflects_live_topology() {
    let gate = MobiGate::default();
    gate.directory().register("echo", "", || {
        struct Echo;
        impl StreamletLogic for Echo {
            fn process(&mut self, m: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
                ctx.emit("po", m);
                Ok(())
            }
        }
        Box::new(Echo)
    });
    let stream = gate
        .deploy_mcl(
            r#"
            streamlet echo { port { in pi : */*; out po : */*; } }
            main stream dotted {
                streamlet a = new-streamlet (echo);
                streamlet b = new-streamlet (echo);
                connect (a.po, b.pi);
            }
            "#,
        )
        .unwrap();
    let dot = stream.to_dot();
    assert!(dot.starts_with("digraph \"dotted\""));
    assert!(dot.contains("\"a\" -> \"b\""));
    assert!(dot.contains("(echo)"));
    // After an insert, the new node shows up.
    stream
        .insert_streamlet(("a", "po"), ("b", "pi"), "mid", "echo")
        .unwrap();
    let dot2 = stream.to_dot();
    assert!(dot2.contains("\"a\" -> \"mid\""));
    assert!(dot2.contains("\"mid\" -> \"b\""));
    stream.shutdown();
}

/// Doubles or halves its output count based on a controllable parameter.
struct Repeater {
    times: usize,
}
impl StreamletLogic for Repeater {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        for _ in 0..self.times {
            ctx.emit("po", msg.clone());
        }
        Ok(())
    }
    fn control(&mut self, key: &str, value: &str) -> Result<(), CoreError> {
        match key {
            "times" => {
                self.times = value.parse().map_err(|_| CoreError::Process {
                    streamlet: "repeater".into(),
                    message: format!("bad times `{value}`"),
                })?;
                Ok(())
            }
            other => Err(CoreError::NotFound {
                kind: "control parameter",
                name: other.into(),
            }),
        }
    }
}

#[test]
fn control_interface_reaches_live_worker() {
    let pool = Arc::new(MessagePool::new());
    let qin = MessageQueue::new(QueueConfig::default(), pool.clone());
    let qout = MessageQueue::new(QueueConfig::default(), pool.clone());
    let h = StreamletHandle::new(
        "rep",
        "repeater",
        false,
        Box::new(Repeater { times: 1 }),
        pool.clone(),
        PayloadMode::Reference,
        None,
    );
    h.attach_in("pi", &qin);
    h.attach_out("po", &qout);
    h.start().unwrap();

    qin.post(pool.wrap(MimeMessage::text("once"), PayloadMode::Reference, 1));
    assert!(matches!(
        qout.fetch(Duration::from_secs(2)),
        FetchResult::Msg(_)
    ));

    // Live parameter change through the control interface.
    h.set_parameter("times", "3", Duration::from_secs(2))
        .unwrap();
    qin.post(pool.wrap(MimeMessage::text("thrice"), PayloadMode::Reference, 1));
    for _ in 0..3 {
        assert!(matches!(
            qout.fetch(Duration::from_secs(2)),
            FetchResult::Msg(_)
        ));
    }
    assert!(matches!(
        qout.fetch(Duration::from_millis(100)),
        FetchResult::Empty
    ));

    // Unknown keys surface the streamlet's error.
    assert!(h
        .set_parameter("volume", "11", Duration::from_secs(2))
        .is_err());
    h.end();
    assert!(h
        .set_parameter("times", "1", Duration::from_millis(100))
        .is_err());
}

mod reconfig_actions {
    use super::*;
    use mobigate_core::EventKind;
    use mobigate_mcl::config::ReconfigAction;

    struct Echo;
    impl StreamletLogic for Echo {
        fn process(&mut self, m: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            ctx.emit("po", m);
            Ok(())
        }
    }

    fn gate() -> MobiGate {
        let g = MobiGate::default();
        g.directory().register("echo", "", || Box::new(Echo));
        g
    }

    const SRC: &str = r#"
        streamlet echo { port { in pi : */*; out po : */*; } }
        main stream acts {
            streamlet a = new-streamlet (echo);
            streamlet b = new-streamlet (echo);
            streamlet alt = new-streamlet (echo);
            connect (a.po, b.pi);
        }
    "#;

    #[test]
    fn disconnect_all_severs_every_connection() {
        let g = gate();
        let stream = g.deploy_mcl(SRC).unwrap();
        let stats = stream.reconfigure(&[ReconfigAction::DisconnectAll {
            instance: "a".into(),
        }]);
        assert_eq!(stats.errors, 0);
        assert!(stream.connections().is_empty());
        // Flow is severed: input sits, nothing comes out via b.
        stream.post_input(MimeMessage::text("stranded?")).unwrap();
        // a still emits (to egress? a.po was never exported — it was
        // connected initially, so the emission is unrouted now).
        std::thread::sleep(Duration::from_millis(100));
        let a = stream.instance("a").unwrap();
        assert!(a.stats().dropped_unrouted >= 1 || a.stats().processed >= 1);
        stream.shutdown();
    }

    #[test]
    fn remove_channel_detaches_and_forgets() {
        let g = gate();
        let stream = g.deploy_mcl(SRC).unwrap();
        let chan = stream.connections()[0].channel.clone();
        let stats = stream.reconfigure(&[ReconfigAction::RemoveChannel { name: chan.clone() }]);
        assert_eq!(stats.errors, 0);
        assert!(stream.connections().is_empty());
        // Removing it twice is an error (counted, not fatal).
        let stats = stream.reconfigure(&[ReconfigAction::RemoveChannel { name: chan }]);
        assert_eq!(stats.errors, 1);
        stream.shutdown();
    }

    #[test]
    fn replace_swaps_instances_live() {
        let g = gate();
        let stream = g.deploy_mcl(SRC).unwrap();
        stream.post_input(MimeMessage::text("before")).unwrap();
        assert!(stream.take_output(Duration::from_secs(5)).is_some());
        let stats = stream.reconfigure(&[ReconfigAction::Replace {
            old: "a".into(),
            new: "alt".into(),
        }]);
        assert_eq!(stats.errors, 0);
        assert!(!stream.instance_names().contains(&"a".to_string()));
        assert!(stream.instance_names().contains(&"alt".to_string()));
        // NOTE: `a.pi` was the exported input; replace moved its bindings
        // (including the ingress channel) onto `alt`, so flow continues.
        stream.post_input(MimeMessage::text("after")).unwrap();
        assert!(stream.take_output(Duration::from_secs(5)).is_some());
        stream.shutdown();
    }

    #[test]
    fn end_event_shuts_down_via_coordination() {
        let g = gate();
        let stream = g.deploy_mcl(SRC).unwrap();
        g.raise_event(&mobigate_core::ContextEvent::targeted(
            EventKind::End,
            "acts",
        ));
        stream.post_input(MimeMessage::text("too late")).unwrap();
        assert!(stream.take_output(Duration::from_millis(150)).is_none());
    }
}

mod supervision {
    use super::*;
    use mobigate_core::events::EventSubscriber;
    use mobigate_core::{
        ContextEvent, EventCategory, EventManager, Executor, LifecycleState, MessageQueue,
        PayloadMode, QueueConfig, RestartPolicy, ServerConfig, SupervisionConfig, Supervisor,
        ThreadPerStreamlet, WorkerPool,
    };
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    /// Panics on a `boom` body while `armed`, echoes otherwise. The flag is
    /// disarmed *before* panicking, so the redelivered message succeeds —
    /// a transient fault a restart genuinely fixes.
    struct Flaky(Arc<AtomicBool>);
    impl StreamletLogic for Flaky {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            if &msg.body[..] == b"boom" && self.0.swap(false, Ordering::SeqCst) {
                panic!("flaky: transient failure");
            }
            ctx.emit("po", msg);
            Ok(())
        }
    }

    /// Panics deterministically on a `boom` body — a poison message no
    /// restart can get past.
    struct BoomAllergic;
    impl StreamletLogic for BoomAllergic {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            if &msg.body[..] == b"boom" {
                panic!("allergic to boom");
            }
            ctx.emit("po", msg);
            Ok(())
        }
    }

    struct FaultRecorder {
        name: String,
        seen: Mutex<Vec<ContextEvent>>,
    }
    impl EventSubscriber for FaultRecorder {
        fn subscriber_name(&self) -> String {
            self.name.clone()
        }
        fn on_event(&self, event: &ContextEvent) {
            self.seen.lock().push(event.clone());
        }
    }

    struct Rig {
        pool: Arc<MessagePool>,
        qin: Arc<MessageQueue>,
        qout: Arc<MessageQueue>,
        handle: Arc<StreamletHandle>,
        sup: Arc<Supervisor>,
        events: Arc<EventManager>,
    }

    fn rig(
        executor: Arc<dyn Executor>,
        policy: RestartPolicy,
        make: impl Fn() -> Box<dyn StreamletLogic> + Send + Sync + 'static,
    ) -> Rig {
        let pool = Arc::new(MessagePool::new());
        let qin = MessageQueue::new(QueueConfig::default(), pool.clone());
        let qout = MessageQueue::new(QueueConfig::default(), pool.clone());
        let events = Arc::new(EventManager::new());
        let sup = Supervisor::new(events.clone(), policy, 16);
        let handle = StreamletHandle::with_executor(
            "probe",
            "probe",
            true,
            make(),
            pool.clone(),
            PayloadMode::Reference,
            None,
            RouteOpts::default(),
            executor,
        );
        sup.supervise(&handle, move || Ok(make()), Some("rigstream".into()));
        handle.attach_in("pi", &qin);
        handle.attach_out("po", &qout);
        handle.start().unwrap();
        Rig {
            pool,
            qin,
            qout,
            handle,
            sup,
            events,
        }
    }

    fn post(rig: &Rig, body: &str) {
        rig.qin.post(
            rig.pool
                .wrap(MimeMessage::text(body), PayloadMode::Reference, 1),
        );
    }

    fn take(rig: &Rig, timeout: Duration) -> Option<MimeMessage> {
        match rig.qout.fetch(timeout) {
            FetchResult::Msg(p) => rig.pool.resolve(p),
            _ => None,
        }
    }

    fn wait_for(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let t0 = Instant::now();
        while t0.elapsed() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        cond()
    }

    fn executors() -> Vec<(&'static str, Arc<dyn Executor>)> {
        vec![
            ("thread-per-streamlet", ThreadPerStreamlet::new()),
            ("worker-pool", WorkerPool::new(4)),
        ]
    }

    #[test]
    fn transient_fault_is_restarted_and_message_redelivered() {
        for (name, executor) in executors() {
            let armed = Arc::new(AtomicBool::new(true));
            let r = rig(executor, RestartPolicy::default(), move || {
                Box::new(Flaky(armed.clone()))
            });
            let recorder = Arc::new(FaultRecorder {
                name: "rigstream".into(),
                seen: Mutex::new(Vec::new()),
            });
            let sub: Arc<dyn EventSubscriber> = recorder.clone();
            r.events.subscribe(EventCategory::RuntimeFault, &sub);

            post(&r, "first");
            assert_eq!(
                take(&r, Duration::from_secs(5)).map(|m| m.body.to_vec()),
                Some(b"first".to_vec()),
                "[{name}] healthy delivery before the fault"
            );

            // The panic faults the instance; the supervisor restarts it and
            // the *same* message is redelivered and now succeeds.
            post(&r, "boom");
            assert_eq!(
                take(&r, Duration::from_secs(5)).map(|m| m.body.to_vec()),
                Some(b"boom".to_vec()),
                "[{name}] faulting message must survive the restart"
            );
            post(&r, "after");
            assert_eq!(
                take(&r, Duration::from_secs(5)).map(|m| m.body.to_vec()),
                Some(b"after".to_vec()),
                "[{name}] flow continues after recovery"
            );

            assert!(
                wait_for(Duration::from_secs(2), || r.handle.state()
                    == LifecycleState::Running),
                "[{name}] instance must end up Running again"
            );
            let stats = r.handle.stats();
            assert_eq!(stats.faults, 1, "[{name}]");
            assert_eq!(stats.restarts, 1, "[{name}]");
            // The supervisor counts a restart before the instance is back
            // to Running, so the count is already visible here.
            assert_eq!(
                r.sup.stats().restarts,
                1,
                "[{name}] supervisor must record the restart"
            );

            // The fault was surfaced as a categorized event with details.
            assert!(
                wait_for(Duration::from_secs(2), || !recorder.seen.lock().is_empty()),
                "[{name}] STREAMLET_FAULT event must reach subscribers"
            );
            let seen = recorder.seen.lock();
            assert_eq!(seen[0].kind, mobigate_core::EventKind::StreamletFault);
            let info = seen[0].fault.as_ref().expect("fault payload");
            assert_eq!(info.instance, "probe");
            assert!(info.cause.message().contains("transient failure"));

            r.handle.end();
            r.sup.shutdown();
        }
    }

    #[test]
    fn restart_budget_exhaustion_quarantines() {
        for (name, executor) in executors() {
            let policy = RestartPolicy {
                max_restarts: 1,
                window: Duration::from_secs(60),
                backoff_base: Duration::from_micros(100),
                backoff_max: Duration::from_millis(1),
                jitter: false,
                // Higher than the budget so quarantine wins the race.
                poison_threshold: 100,
            };
            let r = rig(executor, policy, || Box::new(BoomAllergic));

            post(&r, "boom");
            assert!(
                wait_for(Duration::from_secs(5), || r.handle.state()
                    == LifecycleState::Quarantined),
                "[{name}] exhausting the budget must quarantine (state: {:?})",
                r.handle.state()
            );
            assert_eq!(r.sup.stats().quarantined, 1, "[{name}]");
            // A quarantined instance rejects control traffic outright.
            assert!(
                r.handle
                    .set_parameter("k", "v", Duration::from_millis(100))
                    .is_err(),
                "[{name}]"
            );
            r.handle.end();
            r.sup.shutdown();
        }
    }

    #[test]
    fn poison_message_is_dead_lettered_and_flow_resumes() {
        for (name, executor) in executors() {
            let policy = RestartPolicy {
                max_restarts: 1000,
                window: Duration::from_secs(60),
                backoff_base: Duration::from_micros(100),
                backoff_max: Duration::from_millis(1),
                jitter: false,
                poison_threshold: 3,
            };
            let r = rig(executor, policy, || Box::new(BoomAllergic));

            post(&r, "ok-1");
            post(&r, "boom");
            post(&r, "ok-2");

            // ok-1 precedes the poison; ok-2 must flow once `boom` has been
            // evicted to the dead-letter queue after 3 failed deliveries.
            assert_eq!(
                take(&r, Duration::from_secs(5)).map(|m| m.body.to_vec()),
                Some(b"ok-1".to_vec()),
                "[{name}]"
            );
            assert_eq!(
                take(&r, Duration::from_secs(10)).map(|m| m.body.to_vec()),
                Some(b"ok-2".to_vec()),
                "[{name}] flow must resume past the poison message"
            );

            let dlq = r.sup.dead_letters();
            assert_eq!(dlq.len(), 1, "[{name}]");
            let letters = dlq.snapshot();
            assert_eq!(&letters[0].message.body[..], b"boom", "[{name}]");
            assert_eq!(letters[0].instance, "probe", "[{name}]");
            assert_eq!(letters[0].faults, 3, "[{name}]");
            assert_eq!(r.sup.stats().dead_lettered, 1, "[{name}]");

            r.handle.end();
            r.sup.shutdown();
        }
    }

    #[test]
    fn pause_timeout_is_a_dedicated_error() {
        let pool = Arc::new(MessagePool::new());
        let qin = MessageQueue::new(QueueConfig::default(), pool.clone());
        let qout = MessageQueue::new(QueueConfig::default(), pool.clone());
        let h = StreamletHandle::new(
            "sleeper",
            "slow",
            false,
            Box::new(Slow(Duration::from_millis(400))),
            pool.clone(),
            PayloadMode::Reference,
            None,
        );
        h.attach_in("pi", &qin);
        h.attach_out("po", &qout);
        h.start().unwrap();
        qin.post(pool.wrap(MimeMessage::text("x"), PayloadMode::Reference, 1));
        std::thread::sleep(Duration::from_millis(50)); // let processing begin
        let err = h.pause_and_wait(Duration::from_millis(20)).unwrap_err();
        match err {
            CoreError::Timeout { waited, instance } => {
                assert_eq!(instance, "sleeper");
                assert!(waited >= Duration::from_millis(20));
            }
            other => panic!("expected Timeout, got {other}"),
        }
        h.end();
    }

    /// The acceptance scenario: a `when (STREAMLET_FAULT)` rule reconfigures
    /// the stream to bypass a quarantined streamlet.
    #[test]
    fn streamlet_fault_event_drives_mcl_bypass() {
        let config = ServerConfig {
            supervision: SupervisionConfig {
                policy: RestartPolicy {
                    // No restart budget: the first fault quarantines, and
                    // the when-rule routes around the dead instance.
                    max_restarts: 0,
                    window: Duration::from_secs(60),
                    backoff_base: Duration::from_micros(100),
                    backoff_max: Duration::from_millis(1),
                    jitter: false,
                    poison_threshold: 3,
                },
                dead_letter_capacity: 16,
                jitter_seed: Supervisor::DEFAULT_JITTER_SEED,
            },
            ..Default::default()
        };
        let gate = MobiGate::with_config(
            config,
            Arc::new(mobigate_core::StreamletDirectory::new()),
            Arc::new(mobigate_core::StreamletPool::new(8)),
        );
        gate.directory().register("test/echo", "", || {
            struct Echo;
            impl StreamletLogic for Echo {
                fn process(
                    &mut self,
                    m: MimeMessage,
                    ctx: &mut StreamletCtx,
                ) -> Result<(), CoreError> {
                    ctx.emit("po", m);
                    Ok(())
                }
            }
            Box::new(Echo)
        });
        gate.directory()
            .register("test/boom", "", || Box::new(BoomAllergic));

        let stream = gate
            .deploy_mcl(
                r#"
                streamlet echo { port { in pi : */*; out po : */*; }
                                 attribute { type = STATELESS; library = "test/echo"; } }
                streamlet boom { port { in pi : */*; out po : */*; }
                                 attribute { type = STATEFUL; library = "test/boom"; } }
                main stream bypass {
                    streamlet a = new-streamlet (echo);
                    streamlet f = new-streamlet (boom);
                    streamlet b = new-streamlet (echo);
                    connect (a.po, f.pi);
                    connect (f.po, b.pi);
                    when (STREAMLET_FAULT) {
                        disconnect (a.po, f.pi);
                        disconnect (f.po, b.pi);
                        connect (a.po, b.pi);
                    }
                }
                "#,
            )
            .unwrap();

        // Healthy path first.
        stream.post_input(MimeMessage::text("fine")).unwrap();
        assert!(stream.take_output(Duration::from_secs(5)).is_some());

        // Fault the middle streamlet. Budget 0 ⇒ quarantine + event ⇒ the
        // when-rule reconnects a.po straight to b.pi.
        stream.post_input(MimeMessage::text("boom")).unwrap();
        let reconfigured = {
            let t0 = Instant::now();
            loop {
                if stream.stats().reconfigurations >= 1 {
                    break true;
                }
                if t0.elapsed() > Duration::from_secs(5) {
                    break false;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        assert!(reconfigured, "STREAMLET_FAULT must trigger the when-rule");
        let f = stream.instance("f").unwrap();
        assert_eq!(f.state(), LifecycleState::Quarantined);

        // Traffic now flows around the quarantined instance.
        stream.post_input(MimeMessage::text("rerouted")).unwrap();
        let out = stream.take_output(Duration::from_secs(5));
        assert_eq!(
            out.map(|m| m.body.to_vec()),
            Some(b"rerouted".to_vec()),
            "bypass must carry traffic end to end"
        );
        stream.shutdown();
    }
}
