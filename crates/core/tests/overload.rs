//! Overload-protection plane integration tests:
//!
//! * priority-aware shedding fires from a *measured* `CHANNEL_CONGESTED`
//!   event raised by the post that crossed the mark — bulk payloads are shed,
//!   interactive traffic survives, and every drop is reason-coded;
//! * the circuit breaker routes a repeatedly faulting instance through
//!   trip → half-open probe → close without burning the supervisor's
//!   restart budget (no quarantine, breaker traces present);
//! * token-bucket admission control rejects the overflow of a burst with
//!   a typed error, charges the `admission` drop reason, and keeps its
//!   per-session buckets bounded to live sessions;
//! * the restart-backoff jitter PRNG is bit-for-bit reproducible from
//!   `SupervisionConfig::jitter_seed`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mobigate_core::{
    AdmissionConfig, BreakerConfig, BreakerState, BridgeConfig, CoreError, Emitter, EventManager,
    LifecycleState, MobiGate, OverloadConfig, RestartPolicy, ServerConfig, ShedConfig,
    StreamletCtx, StreamletDirectory, StreamletLogic, StreamletPool, Supervisor, TelemetryConfig,
};
use mobigate_mime::{MimeMessage, MimeType};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// Pass-through logic.
struct Echo;
impl StreamletLogic for Echo {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        ctx.emit("po", msg);
        Ok(())
    }
}

/// Stateful logic that panics until the shared attempt counter reaches
/// `faults`, then passes messages through — the classic transient-fault
/// shape a circuit breaker exists for.
struct Flaky {
    attempts: Arc<AtomicU64>,
    faults: u64,
}
impl StreamletLogic for Flaky {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        if self.attempts.fetch_add(1, Ordering::SeqCst) < self.faults {
            panic!("transient fault");
        }
        ctx.emit("po", msg);
        Ok(())
    }
}

fn telemetry_on(bridge: Option<BridgeConfig>) -> TelemetryConfig {
    TelemetryConfig {
        enabled: true,
        bridge: bridge.unwrap_or(BridgeConfig {
            enabled: false,
            ..Default::default()
        }),
    }
}

fn gate(config: ServerConfig, flaky_attempts: Arc<AtomicU64>) -> MobiGate {
    let directory = Arc::new(StreamletDirectory::new());
    directory.register("ovl/echo", "", || Box::new(Echo));
    directory.register("ovl/flaky", "", move || {
        Box::new(Flaky {
            attempts: flaky_attempts.clone(),
            faults: 2,
        })
    });
    MobiGate::with_config(config, directory, Arc::new(StreamletPool::new(32)))
}

const ECHO_CHAIN: &str = r#"
    streamlet echo {
        port { in pi : */*; out po : */*; }
        attribute { type = STATELESS; library = "ovl/echo"; }
    }
    main stream app {
        streamlet a = new-streamlet (echo);
        streamlet b = new-streamlet (echo);
        connect (a.po, b.pi);
    }
"#;

const FLAKY_CHAIN: &str = r#"
    streamlet echo {
        port { in pi : */*; out po : */*; }
        attribute { type = STATELESS; library = "ovl/echo"; }
    }
    streamlet flaky {
        port { in pi : */*; out po : */*; }
        attribute { type = STATEFUL; library = "ovl/flaky"; }
    }
    main stream app {
        streamlet a = new-streamlet (echo);
        streamlet f = new-streamlet (flaky);
        streamlet b = new-streamlet (echo);
        connect (a.po, f.pi);
        connect (f.po, b.pi);
    }
"#;

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < timeout {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

/// Quiet scopes currently open (see [`with_quiet_panics`]).
static QUIET_SCOPES: AtomicUsize = AtomicUsize::new(0);

/// Silences panic reports from executor threads (`streamlet-*`,
/// `mobigate-worker-*`) while `f` runs. The filtering hook is installed
/// once per process and forwards every other panic to the hook it
/// replaced, so a sibling test's failing assertion still prints and two
/// overlapping scopes cannot undo each other. The scope is a guard: it
/// closes even when `f` unwinds.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let executor_thread = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("streamlet-") || n.starts_with("mobigate-worker-"));
            if !(executor_thread && QUIET_SCOPES.load(Ordering::Acquire) > 0) {
                prev(info);
            }
        }));
    });
    struct Scope;
    impl Drop for Scope {
        fn drop(&mut self) {
            QUIET_SCOPES.fetch_sub(1, Ordering::AcqRel);
        }
    }
    QUIET_SCOPES.fetch_add(1, Ordering::AcqRel);
    let _scope = Scope;
    f()
}

/// Satellite 1: load shedding fires from a *real* `CHANNEL_CONGESTED`
/// event raised by the post that crossed the mark — nobody raises the
/// event by hand. Bulk (image) payloads parked in the paused ingress are shed
/// lowest-priority-first; the interactive (text) messages behind them
/// all survive and deliver, and every drop is charged to the `shed`
/// reason.
#[test]
fn bridge_congestion_sheds_bulk_keeps_interactive() {
    let g = gate(
        ServerConfig {
            telemetry: telemetry_on(Some(BridgeConfig {
                enabled: true,
                // 8 × 256 B of bulk payload crosses this exactly, so the
                // congestion signal cannot fire before the whole bulk
                // burst is resident.
                queue_high_water_bytes: 2048,
                drop_rate_per_sec: u64::MAX,
                fault_rate_per_sec: u64::MAX,
                session_byte_budget: None,
                admission_rejects_per_sec: u64::MAX,
            })),
            overload: OverloadConfig {
                enabled: true,
                admission: AdmissionConfig {
                    enabled: false,
                    ..Default::default()
                },
                shed: ShedConfig {
                    enabled: true,
                    shed_max: 8,
                },
                breaker: BreakerConfig {
                    enabled: false,
                    ..Default::default()
                },
            },
            ..Default::default()
        },
        Arc::new(AtomicU64::new(0)),
    );
    let stream = g.deploy_mcl(ECHO_CHAIN).unwrap();

    // Park a bulk burst, then interactive traffic, in the paused ingress.
    stream.pause_all();
    let image = MimeType::new("image", "jpeg");
    for i in 0..8 {
        let body = vec![b'j'; 256];
        let mut msg = MimeMessage::new(&image, body);
        msg.headers.set("x-seq", format!("img-{i}"));
        stream.post_input(msg).unwrap();
    }
    for i in 0..4 {
        stream
            .post_input(MimeMessage::text(format!("interactive-{i}")))
            .unwrap();
    }

    // The high-water crossing must raise the event; the stream subscribes for LoadVariation automatically when
    // shedding is on (no `when` rule in the script).
    let g2 = &g;
    assert!(
        wait_until(Duration::from_secs(5), move || {
            g2.metrics_snapshot()
                .map(|m| m.totals.dropped_shed > 0)
                .unwrap_or(false)
        }),
        "shed must fire from the measured congestion crossing"
    );

    stream.activate_all();
    let mut delivered = Vec::new();
    while let Some(msg) = stream.take_output(Duration::from_millis(500)) {
        delivered.push(msg);
    }

    // Every interactive message survived the shed.
    let texts: Vec<_> = delivered
        .iter()
        .filter(|m| m.content_type().top == "text")
        .collect();
    assert_eq!(
        texts.len(),
        4,
        "all interactive messages must survive shedding"
    );
    // Accounting closes: offered == delivered + shed, nothing silent.
    let m = g.metrics_snapshot().unwrap();
    assert!(m.totals.dropped_shed >= 1);
    assert_eq!(
        delivered.len() as u64 + m.totals.dropped_shed,
        12,
        "every message is either delivered or reason-coded as shed"
    );
    assert_eq!(m.totals.dropped_total(), m.totals.dropped_shed);
    // The shed is a first-class trace event.
    let jsonl = g.export_trace_jsonl().unwrap();
    assert!(
        jsonl.contains("\"kind\":\"shed\""),
        "missing shed trace:\n{jsonl}"
    );
    stream.shutdown();
}

/// Congestion that persists keeps shedding. The first crossing sheds the
/// paused ingress empty; a steady producer then refills it past the mark
/// within the stream's one-second event interval. That crossing raises
/// nothing, but it leaves the channel armed, so a post once the second
/// has passed raises `CHANNEL_CONGESTED` again and the stream sheds a
/// second time instead of backing up to the channel's capacity.
#[test]
fn sustained_congestion_sheds_again_after_a_second() {
    let g = gate(
        ServerConfig {
            telemetry: telemetry_on(Some(BridgeConfig {
                enabled: true,
                queue_high_water_bytes: 2048,
                drop_rate_per_sec: u64::MAX,
                fault_rate_per_sec: u64::MAX,
                session_byte_budget: None,
                admission_rejects_per_sec: u64::MAX,
            })),
            overload: OverloadConfig {
                enabled: true,
                admission: AdmissionConfig {
                    enabled: false,
                    ..Default::default()
                },
                shed: ShedConfig {
                    enabled: true,
                    shed_max: 64,
                },
                breaker: BreakerConfig {
                    enabled: false,
                    ..Default::default()
                },
            },
            ..Default::default()
        },
        Arc::new(AtomicU64::new(0)),
    );
    let stream = g.deploy_mcl(ECHO_CHAIN).unwrap();
    stream.pause_all();
    let sheds = || {
        g.export_trace_jsonl()
            .unwrap()
            .matches("\"kind\":\"shed\"")
            .count()
    };

    // 256 B bodies every 5 ms: the mark is at most 8 posts away, and a
    // second of this load stays below the ingress channel's 100 KiB.
    let image = MimeType::new("image", "jpeg");
    let t0 = Instant::now();
    while sheds() < 2 && t0.elapsed() < Duration::from_secs(10) {
        stream
            .post_input(MimeMessage::new(&image, vec![b'j'; 256]))
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(sheds() >= 2, "sustained congestion must shed again");
    let m = g.metrics_snapshot().unwrap();
    assert_eq!(
        m.totals.dropped_total(),
        m.totals.dropped_shed,
        "no post waited out a full channel"
    );
    stream.shutdown();
}

/// Tentpole: a transiently faulting instance trips its circuit breaker
/// *before* the restart budget exhausts, parks through the cooldown,
/// half-opens for a probe restart, and closes when the probe stays
/// quiet — the in-flight message is still delivered, nothing is
/// quarantined, and the whole transition is traced.
#[test]
fn breaker_trips_probes_and_closes_without_quarantine() {
    let attempts = Arc::new(AtomicU64::new(0));
    let mut config = ServerConfig {
        telemetry: telemetry_on(None),
        overload: OverloadConfig {
            enabled: true,
            admission: AdmissionConfig {
                enabled: false,
                ..Default::default()
            },
            shed: ShedConfig {
                enabled: false,
                ..Default::default()
            },
            breaker: BreakerConfig {
                enabled: true,
                fault_threshold: 2,
                window: Duration::from_secs(10),
                cooldown: Duration::from_millis(50),
                probe_successes: 1,
            },
        },
        ..Default::default()
    };
    config.supervision.policy.max_restarts = 5;
    config.supervision.policy.backoff_base = Duration::from_millis(1);
    config.supervision.policy.backoff_max = Duration::from_millis(2);
    config.supervision.policy.jitter = false;
    config.supervision.policy.poison_threshold = 10;
    let g = gate(config, attempts);
    let stream = g.deploy_mcl(FLAKY_CHAIN).unwrap();

    // One message: fault #1 → restart + redelivery → fault #2 → breaker
    // trips (threshold 2) → cooldown → half-open probe restart →
    // redelivery succeeds → breaker closes.
    let delivered = with_quiet_panics(|| {
        stream.post_input(MimeMessage::text("survives")).unwrap();
        stream.take_output(Duration::from_secs(10))
    });
    assert!(
        delivered.is_some(),
        "the in-flight message must be delivered after the breaker closes"
    );

    let sup = g.supervisor();
    let breaker = sup.breaker_of("f").expect("f must carry a breaker");
    assert!(
        wait_until(Duration::from_secs(5), || breaker.state()
            == BreakerState::Closed),
        "breaker must close after a quiet probe, got {:?}",
        breaker.state()
    );

    let stats = sup.stats();
    assert_eq!(stats.breaker_trips, 1, "exactly one trip");
    assert_eq!(
        stats.quarantined, 0,
        "the breaker must spare the restart budget — no quarantine"
    );
    assert!(stats.restarts >= 2, "budget restart + probe restart");
    let f = stream.instance("f").unwrap();
    assert_eq!(f.state(), LifecycleState::Running);

    // The full transition is in the lifecycle trace.
    let jsonl = g.export_trace_jsonl().unwrap();
    for kind in ["breaker-trip", "breaker-half-open", "breaker-close"] {
        assert!(
            jsonl.contains(&format!("\"kind\":\"{kind}\"")),
            "missing {kind} trace:\n{jsonl}"
        );
    }
    stream.shutdown();
}

/// Tentpole: a burst past the session bucket's capacity is rejected at
/// ingress with a typed error — admitted traffic all delivers, rejected
/// posts are charged to the `admission` drop reason, and the arithmetic
/// closes exactly (offered = delivered + rejected).
#[test]
fn admission_burst_overflow_is_rejected_and_accounted() {
    let g = gate(
        ServerConfig {
            telemetry: telemetry_on(None),
            overload: OverloadConfig {
                enabled: true,
                admission: AdmissionConfig {
                    enabled: true,
                    // No refill: the 4-token burst is the whole budget, so
                    // the outcome is deterministic.
                    session_rate: 0.0,
                    session_burst: 4.0,
                    global_rate: 0.0,
                    global_burst: 100.0,
                },
                shed: ShedConfig {
                    enabled: false,
                    ..Default::default()
                },
                breaker: BreakerConfig {
                    enabled: false,
                    ..Default::default()
                },
            },
            ..Default::default()
        },
        Arc::new(AtomicU64::new(0)),
    );
    let stream = g.deploy_mcl(ECHO_CHAIN).unwrap();

    let mut admitted = 0usize;
    let mut rejected = 0usize;
    for i in 0..10 {
        match stream.post_input(MimeMessage::text(format!("b{i}"))) {
            Ok(()) => admitted += 1,
            Err(CoreError::Overloaded { session }) => {
                assert!(!session.is_empty(), "rejection names the session");
                rejected += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(admitted, 4, "exactly the burst capacity is admitted");
    assert_eq!(rejected, 6);

    // Everything admitted is delivered — admission rejects load, it never
    // degrades what it let in.
    for _ in 0..admitted {
        assert!(stream.take_output(Duration::from_secs(5)).is_some());
    }
    assert!(stream.take_output(Duration::from_millis(100)).is_none());

    // Reason-coded accounting, controller stats, and the global-bucket
    // refund (global tokens only pay for admitted messages).
    let m = g.metrics_snapshot().unwrap();
    assert_eq!(m.totals.dropped_admission, 6);
    assert_eq!(m.totals.dropped_total(), 6);
    let ctl = g.admission().unwrap();
    let stats = ctl.stats();
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.rejected_session, 6);
    assert_eq!(stats.rejected_global, 0);
    assert!(
        (ctl.global_available() - 96.0).abs() < 1e-6,
        "session rejections must refund the global token, got {}",
        ctl.global_available()
    );
    stream.shutdown();
}

/// Session churn keeps the admission controller's bucket map bounded:
/// spawn registers a bucket per session, teardown forgets it.
#[test]
fn session_churn_registers_and_forgets_admission_buckets() {
    let g = gate(
        ServerConfig {
            overload: OverloadConfig {
                enabled: true,
                admission: AdmissionConfig::default(),
                shed: ShedConfig {
                    enabled: false,
                    ..Default::default()
                },
                breaker: BreakerConfig {
                    enabled: false,
                    ..Default::default()
                },
            },
            ..Default::default()
        },
        Arc::new(AtomicU64::new(0)),
    );
    let manager = g.session_manager(ECHO_CHAIN).unwrap();
    let ctl = g.admission().unwrap();
    assert_eq!(ctl.session_count(), 0);

    let sessions = manager.spawn_many(3).unwrap();
    assert_eq!(
        ctl.session_count(),
        3,
        "each spawned session registers its bucket eagerly"
    );
    for s in &sessions {
        s.post_input(MimeMessage::text("ping")).unwrap();
        assert!(s.take_output(Duration::from_secs(5)).is_some());
    }
    for s in &sessions {
        manager.teardown(s.session());
    }
    assert_eq!(
        ctl.session_count(),
        0,
        "teardown must forget the bucket — the map stays bounded to live sessions"
    );
}

/// Satellite 2: the restart-backoff jitter stream is a pure function of
/// `jitter_seed` — same seed, same sequence, bit for bit; different
/// seeds diverge; and a zero seed falls back to the well-known default
/// rather than sticking at the xorshift fixed point.
#[test]
fn jitter_sequence_is_reproducible_from_seed() {
    let sup = |seed: u64| {
        Supervisor::with_options(
            Arc::new(EventManager::new()),
            RestartPolicy::default(),
            16,
            seed,
            None,
        )
    };
    let draw = |s: &Arc<Supervisor>| (0..32).map(|_| s.next_jitter()).collect::<Vec<u64>>();

    let a = draw(&sup(0xDEAD_BEEF));
    let b = draw(&sup(0xDEAD_BEEF));
    assert_eq!(a, b, "same seed must reproduce the same jitter sequence");
    let c = draw(&sup(0xDEAD_BEF0));
    assert_ne!(a, c, "different seeds must diverge");
    assert!(a.iter().all(|&x| x != 0), "xorshift never emits zero");

    // Zero would be a fixed point of xorshift64; the constructor must
    // substitute the default seed instead of a frozen PRNG.
    let z = draw(&sup(0));
    let d = draw(&sup(Supervisor::DEFAULT_JITTER_SEED));
    assert_eq!(z, d, "seed 0 falls back to DEFAULT_JITTER_SEED");

    // The knob is plumbed through ServerConfig: a gateway built with an
    // explicit seed draws the same sequence as a bare supervisor.
    let mut config = ServerConfig::default();
    config.supervision.jitter_seed = 0xDEAD_BEEF;
    let g = gate(config, Arc::new(AtomicU64::new(0)));
    let via_server = (0..32)
        .map(|_| g.supervisor().next_jitter())
        .collect::<Vec<u64>>();
    assert_eq!(via_server, a);
}
