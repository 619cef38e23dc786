//! Overload-protection harness.
//!
//! Drives a burst 10× over the admission budget through N per-user
//! sessions whose chains drain at a bounded rate (a throttle streamlet),
//! and compares the protected gateway (token-bucket admission at
//! ingress) against the unprotected baseline whose only defense is the
//! Figure 6-9 drop-on-full semantics:
//!
//! * protected: the overflow is rejected at ingress with a typed error,
//!   every admitted message is delivered, and its latency stays bounded
//!   by the *admitted* queue depth, not the offered burst;
//! * baseline: everything is accepted and the burst queues up behind
//!   the throttle, so delivered latency grows with the offered load.
//!
//! A separate leg exercises the circuit breaker: a deterministically
//! flaky streamlet trips its breaker before the supervisor's restart
//! budget exhausts, probes, closes, and keeps delivering.

use mobigate::core::{
    AdmissionConfig, BreakerConfig, CoreError, Emitter, ExecutorConfig, MobiGate, OverloadConfig,
    ServerConfig, ShedConfig, StreamletCtx, StreamletDirectory, StreamletLogic, StreamletPool,
    TelemetryConfig,
};
use mobigate::mime::MimeMessage;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pass-rate limiter: sleeps `delay` per message, bounding the drain
/// rate the way a slow wireless downlink bounds a real gateway.
struct Throttle {
    delay: Duration,
}
impl StreamletLogic for Throttle {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        ctx.emit("po", msg);
        Ok(())
    }
}

/// Panics until the shared attempt counter reaches `faults`, then passes
/// everything — the transient-fault shape circuit breakers exist for.
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

const THROTTLE_CHAIN: &str = r#"
    streamlet throttle {
        port { in pi : */*; out po : */*; }
        attribute { type = STATEFUL; library = "ovl/throttle"; }
    }
    main stream burst {
        streamlet t = new-streamlet (throttle);
    }
"#;

const FLAKY_CHAIN: &str = r#"
    streamlet flaky {
        port { in pi : */*; out po : */*; }
        attribute { type = STATEFUL; library = "ovl/flaky"; }
    }
    main stream probe {
        streamlet f = new-streamlet (flaky);
    }
"#;

/// One burst run's knobs.
#[derive(Clone)]
pub struct OverloadBurstConfig {
    /// Executor back end.
    pub executor: ExecutorConfig,
    /// Concurrent per-user sessions.
    pub sessions: usize,
    /// Messages each session offers back-to-back — 10× the admission
    /// budget when `protected`.
    pub burst_per_session: usize,
    /// Per-message drain delay inside the throttle streamlet.
    pub throttle: Duration,
    /// Admission control on (protected) or off (drop-on-full baseline).
    pub protected: bool,
}

/// What one burst run observed.
#[derive(Debug, Clone)]
pub struct OverloadBurstOutcome {
    /// Messages offered across all sessions.
    pub offered: usize,
    /// Posts the admission controller let through (all posts, baseline).
    pub admitted: usize,
    /// Posts rejected with `CoreError::Overloaded`.
    pub rejected: usize,
    /// Messages that came out the far end.
    pub delivered: usize,
    /// Reason-coded drop counters from the telemetry registry.
    pub dropped_admission: u64,
    pub dropped_full: u64,
    pub dropped_total: u64,
    /// Post→delivery latency of admitted traffic.
    pub p50: Duration,
    pub p99: Duration,
    /// Wall-clock for the whole burst + drain.
    pub elapsed: Duration,
}

impl OverloadBurstOutcome {
    /// Every admitted message delivered?
    pub fn admitted_delivered(&self) -> bool {
        self.delivered == self.admitted
    }

    /// Does the arithmetic close: offered = delivered + Σ reason drops?
    pub fn accounted(&self) -> bool {
        self.offered as u64 == self.delivered as u64 + self.dropped_total
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs one burst scenario: N sessions each offer a burst through a
/// throttled chain; admitted traffic is drained per session and its
/// latency measured.
pub fn run_overload_burst(cfg: &OverloadBurstConfig) -> OverloadBurstOutcome {
    let budget = (cfg.burst_per_session / 10).max(1);
    let directory = Arc::new(StreamletDirectory::new());
    let delay = cfg.throttle;
    directory.register("ovl/throttle", "rate-bound drain", move || {
        Box::new(Throttle { delay })
    });
    let server = MobiGate::with_config(
        ServerConfig {
            executor: cfg.executor,
            telemetry: TelemetryConfig {
                enabled: true,
                ..Default::default()
            },
            overload: if cfg.protected {
                OverloadConfig {
                    enabled: true,
                    admission: AdmissionConfig {
                        enabled: true,
                        // The burst is over in milliseconds, so the refill
                        // is negligible: the per-session budget *is* the
                        // burst capacity, 1/10th of the offered load.
                        session_rate: 1.0,
                        session_burst: budget as f64,
                        global_rate: 0.0,
                        global_burst: (cfg.sessions * cfg.burst_per_session) as f64,
                    },
                    shed: ShedConfig {
                        enabled: false,
                        ..Default::default()
                    },
                    breaker: BreakerConfig {
                        enabled: false,
                        ..Default::default()
                    },
                }
            } else {
                OverloadConfig::default()
            },
            ..Default::default()
        },
        directory,
        Arc::new(StreamletPool::new(64)),
    );
    let manager = Arc::new(server.session_manager(THROTTLE_CHAIN).expect("template"));
    let sessions = manager.spawn_many(cfg.sessions).expect("spawn sessions");

    let t0 = Instant::now();
    let workers: Vec<_> = sessions
        .iter()
        .map(|s| {
            let s = s.clone();
            let burst = cfg.burst_per_session;
            std::thread::spawn(move || {
                // Post the whole burst back-to-back, stamping each
                // admitted message; outputs come back in FIFO order, so
                // stamp i maps to output i.
                let mut stamps = Vec::with_capacity(burst);
                let mut rejected = 0usize;
                for i in 0..burst {
                    match s.post_input(MimeMessage::text(format!("b{i}"))) {
                        Ok(()) => stamps.push(Instant::now()),
                        Err(CoreError::Overloaded { .. }) => rejected += 1,
                        Err(e) => panic!("unexpected post error: {e}"),
                    }
                }
                let mut latencies = Vec::with_capacity(stamps.len());
                let mut delivered = 0usize;
                for stamp in &stamps {
                    match s.take_output(Duration::from_secs(60)) {
                        Some(_) => {
                            delivered += 1;
                            latencies.push(stamp.elapsed());
                        }
                        None => break,
                    }
                }
                (stamps.len(), rejected, delivered, latencies)
            })
        })
        .collect();

    let mut admitted = 0usize;
    let mut rejected = 0usize;
    let mut delivered = 0usize;
    let mut latencies = Vec::new();
    for w in workers {
        let (a, r, d, l) = w.join().expect("session worker");
        admitted += a;
        rejected += r;
        delivered += d;
        latencies.extend(l);
    }
    let elapsed = t0.elapsed();
    latencies.sort();

    let m = server.metrics_snapshot().expect("telemetry on");
    let out = OverloadBurstOutcome {
        offered: cfg.sessions * cfg.burst_per_session,
        admitted,
        rejected,
        delivered,
        dropped_admission: m.totals.dropped_admission,
        dropped_full: m.totals.dropped_full,
        dropped_total: m.totals.dropped_total(),
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        elapsed,
    };
    for s in &sessions {
        manager.teardown(s.session());
    }
    out
}

/// What the breaker leg observed.
#[derive(Debug, Clone)]
pub struct BreakerProbeOutcome {
    /// Breaker trips (must be ≥ 1).
    pub trips: u64,
    /// Supervisor restarts performed (budget restart + probe restart).
    pub restarts: u64,
    /// Instances that exhausted their restart budget (must be 0 — the
    /// breaker exists to spare the budget).
    pub quarantined: u64,
    /// Messages delivered end to end, including the one the faults rode
    /// in on.
    pub delivered: usize,
    /// Messages offered.
    pub offered: usize,
}

/// Runs the breaker leg: a streamlet that faults deterministically on
/// its first two attempts trips its breaker (threshold 2 < restart
/// budget 5), half-opens after the cooldown, closes on the quiet probe,
/// and the stream keeps delivering afterwards.
pub fn run_breaker_probe(executor: ExecutorConfig, follow_up: usize) -> BreakerProbeOutcome {
    let attempts = Arc::new(AtomicU64::new(0));
    let directory = Arc::new(StreamletDirectory::new());
    let shared = attempts.clone();
    directory.register("ovl/flaky", "transient fault", move || {
        Box::new(Flaky {
            attempts: shared.clone(),
            faults: 2,
        })
    });
    let mut config = ServerConfig {
        executor,
        telemetry: TelemetryConfig {
            enabled: true,
            ..Default::default()
        },
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
                cooldown: Duration::from_millis(30),
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
    let server = MobiGate::with_config(config, directory, Arc::new(StreamletPool::new(16)));
    let stream = server.deploy_mcl(FLAKY_CHAIN).expect("deploy flaky chain");

    let mut delivered = 0usize;
    let offered = 1 + follow_up;
    // The first message rides through fault → restart → fault → trip →
    // cooldown → half-open probe → redelivery success → close.
    stream
        .post_input(MimeMessage::text("first"))
        .expect("post first");
    if stream.take_output(Duration::from_secs(30)).is_some() {
        delivered += 1;
    }
    // The closed breaker must not impede steady traffic.
    for i in 0..follow_up {
        stream
            .post_input(MimeMessage::text(format!("f{i}")))
            .expect("post follow-up");
    }
    for _ in 0..follow_up {
        if stream.take_output(Duration::from_secs(10)).is_some() {
            delivered += 1;
        }
    }
    let stats = server.supervisor().stats();
    stream.shutdown();
    BreakerProbeOutcome {
        trips: stats.breaker_trips,
        restarts: stats.restarts,
        quarantined: stats.quarantined,
        delivered,
        offered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_quiet_panics;

    #[test]
    fn protected_burst_accounts_every_drop() {
        let out = run_overload_burst(&OverloadBurstConfig {
            executor: ExecutorConfig::WorkerPool { workers: 4 },
            sessions: 4,
            burst_per_session: 40,
            throttle: Duration::from_micros(100),
            protected: true,
        });
        assert!(
            out.accounted(),
            "offered {} != delivered {} + dropped {}",
            out.offered,
            out.delivered,
            out.dropped_total
        );
        assert!(out.admitted_delivered());
        assert!(out.rejected > 0, "a 10x burst must overflow the budget");
        assert_eq!(out.rejected as u64, out.dropped_admission);
    }

    #[test]
    fn baseline_burst_admits_everything() {
        let out = run_overload_burst(&OverloadBurstConfig {
            executor: ExecutorConfig::WorkerPool { workers: 4 },
            sessions: 2,
            burst_per_session: 30,
            throttle: Duration::from_micros(100),
            protected: false,
        });
        assert_eq!(out.rejected, 0);
        assert_eq!(out.dropped_admission, 0);
        assert!(out.accounted());
    }

    #[test]
    fn breaker_probe_leg_trips_without_quarantine() {
        let out = with_quiet_panics(|| run_breaker_probe(ExecutorConfig::ThreadPerStreamlet, 5));
        assert_eq!(out.trips, 1, "{out:?}");
        assert_eq!(out.quarantined, 0, "{out:?}");
        assert_eq!(out.delivered, out.offered, "{out:?}");
        assert!(out.restarts >= 2, "{out:?}");
    }
}
