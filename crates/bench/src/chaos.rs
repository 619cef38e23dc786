//! Chaos harness for the supervision subsystem.
//!
//! Deploys the Figure 7-2 chain with a [`FaultInjector`] spliced into the
//! middle (`r0 → fault_injector → r1`), drives a message load while the
//! injector panics/corrupts at configurable rates, and reports how much of
//! the load still made it end to end while the supervisor restarted the
//! faulting instance.
//!
//! Poison messages (marked with [`POISON_HEADER`]) panic the injector
//! deterministically on every redelivery; the supervisor must evict them to
//! the dead-letter queue so the rest of the load keeps flowing.

use mobigate::core::{MobiGate, RestartPolicy, ServerConfig, SupervisionConfig};
use mobigate::core::{StreamletDirectory, StreamletPool};
use mobigate::mime::{MimeMessage, MimeType};
use mobigate_streamlets::fault::{FaultInjector, GARBAGE_HEADER, POISON_HEADER};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// One chaos run's knobs.
#[derive(Clone)]
pub struct ChaosConfig {
    /// Executor back end + everything else (supervision settings are
    /// overridden by [`run_chaos`] unless already customized).
    pub server: ServerConfig,
    /// Probability of an injected panic per message.
    pub panic_rate: f64,
    /// Probability of a corrupted (garbage) output per message.
    pub garbage_rate: f64,
    /// Fixed per-message delay inside the injector.
    pub delay: Duration,
    /// Benign messages to drive through the chain.
    pub messages: usize,
    /// Deterministic poison messages interleaved with the load.
    pub poison: usize,
    /// Redirectors on *each* side of the injector. The default of 1 is the
    /// classic `r0 → f → r1` probe; with chain fusion enabled, use ≥ 2 so a
    /// fusable run actually forms on both sides of the (stateful, unfusable)
    /// injector and the faults land next to live fused units.
    pub pad_redirectors: usize,
    /// Base RNG seed (each injector rebuild gets `seed + n`).
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            server: chaos_server_config(ServerConfig::default()),
            panic_rate: 0.0,
            garbage_rate: 0.0,
            delay: Duration::ZERO,
            messages: 500,
            poison: 0,
            pad_redirectors: 1,
            seed: 0xC4A05,
        }
    }
}

/// A [`ServerConfig`] tuned for chaos runs: supervision on, a restart
/// budget far above any expected fault count, and millisecond-scale
/// backoff so runs stay fast.
pub fn chaos_server_config(base: ServerConfig) -> ServerConfig {
    ServerConfig {
        supervision: SupervisionConfig {
            enabled: true,
            policy: RestartPolicy {
                max_restarts: 100_000,
                window: Duration::from_secs(3600),
                backoff_base: Duration::from_micros(200),
                backoff_max: Duration::from_millis(2),
                jitter: true,
                poison_threshold: 3,
            },
            dead_letter_capacity: 1024,
            jitter_seed: mobigate_core::Supervisor::DEFAULT_JITTER_SEED,
        },
        ..base
    }
}

/// What one chaos run observed.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Benign (non-poison) messages driven through the chain.
    pub sent: usize,
    /// Messages that came out the far end.
    pub delivered: usize,
    /// Delivered messages whose body had been garbage-corrupted.
    pub garbage: usize,
    /// Messages parked in the dead-letter queue.
    pub dead_lettered: usize,
    /// Faults the supervisor handled.
    pub faults: u64,
    /// Restarts the supervisor performed.
    pub restarts: u64,
    /// Instances that exhausted their restart budget.
    pub quarantined: u64,
    /// Wall-clock time from first post to last delivery.
    pub elapsed: Duration,
}

impl ChaosOutcome {
    /// Delivered fraction of the benign load.
    pub fn delivery_ratio(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.delivered as f64 / self.sent as f64
        }
    }

    /// Delivered messages per second.
    pub fn throughput(&self) -> f64 {
        self.delivered as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs one chaos scenario: `r0 → fault_injector → r1` under load.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosOutcome {
    let directory = Arc::new(StreamletDirectory::new());
    mobigate_streamlets::register_builtins(&directory);
    // The supervisor rebuilds faulted logic from the directory factory, so
    // the fault rates must live in the factory itself (a `control()`-set
    // rate would vanish on restart). Each rebuild gets a fresh seed so a
    // redelivered message faces an independent panic draw.
    let (panic_rate, garbage_rate, delay, seed) =
        (cfg.panic_rate, cfg.garbage_rate, cfg.delay, cfg.seed);
    let rebuilds = Arc::new(AtomicU64::new(0));
    directory.register("chaos/fault_injector", "chaos probe", move || {
        let n = rebuilds.fetch_add(1, Ordering::Relaxed);
        Box::new(FaultInjector::new(
            panic_rate,
            garbage_rate,
            delay,
            seed.wrapping_add(n),
        ))
    });

    let server = MobiGate::with_config(
        cfg.server.clone(),
        directory,
        Arc::new(StreamletPool::new(64)),
    );
    let pad = cfg.pad_redirectors.max(1);
    let mut script = String::from(
        "streamlet redirector {\n\
            port { in pi : */*; out po : */*; }\n\
            attribute { type = STATELESS; library = \"builtin/redirector\"; }\n\
        }\n\
        streamlet fault_injector {\n\
            port { in pi : */*; out po : */*; }\n\
            attribute { type = STATEFUL; library = \"chaos/fault_injector\"; }\n\
        }\n\
        main stream chaos {\n",
    );
    use std::fmt::Write as _;
    for i in 0..2 * pad {
        let _ = writeln!(script, "streamlet r{i} = new-streamlet (redirector);");
    }
    let _ = writeln!(script, "streamlet f = new-streamlet (fault_injector);");
    for i in 1..pad {
        let _ = writeln!(script, "connect (r{}.po, r{}.pi);", i - 1, i);
    }
    let _ = writeln!(script, "connect (r{}.po, f.pi);", pad - 1);
    let _ = writeln!(script, "connect (f.po, r{pad}.pi);");
    for i in pad + 1..2 * pad {
        let _ = writeln!(script, "connect (r{}.po, r{}.pi);", i - 1, i);
    }
    script.push('}');
    let stream = server.deploy_mcl(&script).expect("deploy chaos chain");
    // Interleave poison messages evenly through the benign load. The
    // producer runs on its own thread while this thread drains the egress:
    // a gateway's output is consumed continuously, and posting the whole
    // load before draining would turn any burst larger than the chain's
    // total buffering into guaranteed Figure 6-9 drops (every queue full,
    // nothing freeing space, each post waiting out its budget).
    let every = if cfg.poison > 0 {
        (cfg.messages / (cfg.poison + 1)).max(1)
    } else {
        usize::MAX
    };
    let t0 = Instant::now();
    let producer = {
        let stream = stream.clone();
        let (messages, poison) = (cfg.messages, cfg.poison);
        std::thread::spawn(move || {
            let ty = MimeType::new("application", "octet-stream");
            let mut poison_sent = 0usize;
            for i in 0..messages {
                if poison_sent < poison && i > 0 && i % every == 0 {
                    let mut bad =
                        MimeMessage::new(&ty, format!("poison-{poison_sent}").into_bytes());
                    bad.headers.set(POISON_HEADER, "1");
                    stream.post_input(bad).expect("post poison");
                    poison_sent += 1;
                }
                let msg = MimeMessage::new(&ty, format!("chaos-{i}").into_bytes());
                stream.post_input(msg).expect("post");
            }
            while poison_sent < poison {
                let mut bad = MimeMessage::new(&ty, format!("poison-{poison_sent}").into_bytes());
                bad.headers.set(POISON_HEADER, "1");
                stream.post_input(bad).expect("post poison");
                poison_sent += 1;
            }
        })
    };

    // Drain until the benign load is accounted for or the chain goes quiet
    // (a few consecutive empty waits after the last delivery).
    let mut delivered = 0usize;
    let mut garbage = 0usize;
    let mut quiet = 0;
    let mut last = t0;
    while delivered < cfg.messages && quiet < 20 {
        match stream.take_output(Duration::from_millis(250)) {
            Some(msg) => {
                quiet = 0;
                last = Instant::now();
                delivered += 1;
                if msg.headers.get(GARBAGE_HEADER).is_some() {
                    garbage += 1;
                }
            }
            None => quiet += 1,
        }
    }
    producer.join().expect("chaos producer thread");
    let elapsed = last.duration_since(t0);

    let (faults, restarts, quarantined) = match server.supervisor() {
        Some(sup) => {
            let s = sup.stats();
            (s.faults, s.restarts, s.quarantined)
        }
        None => (0, 0, 0),
    };
    let dead_lettered = server.dead_letters().map(|q| q.len()).unwrap_or(0);

    ChaosOutcome {
        sent: cfg.messages,
        delivered,
        garbage,
        dead_lettered,
        faults,
        restarts,
        quarantined,
        elapsed,
    }
}

/// Quiet scopes currently open (see [`with_quiet_panics`]).
static QUIET_SCOPES: AtomicUsize = AtomicUsize::new(0);

/// Silences panics on streamlet executor threads for the duration of `f` —
/// chaos runs panic thousands of times on purpose and would otherwise
/// flood stderr with backtraces.
///
/// The filtering hook is installed once per process and forwards every
/// other panic to the hook it replaced, so concurrent scopes never
/// restore each other's silence, and a failing assertion on any other
/// thread still prints.
pub fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
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
    /// Closes the scope even if `f` unwinds.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_delivers_everything() {
        let cfg = ChaosConfig {
            messages: 50,
            ..Default::default()
        };
        let out = run_chaos(&cfg);
        assert_eq!(out.delivered, 50);
        assert_eq!(out.faults, 0);
        assert_eq!(out.dead_lettered, 0);
    }

    #[test]
    fn panics_are_survived_and_poison_is_dead_lettered() {
        let cfg = ChaosConfig {
            panic_rate: 0.05,
            messages: 120,
            poison: 2,
            ..Default::default()
        };
        let out = with_quiet_panics(|| run_chaos(&cfg));
        assert!(
            out.delivery_ratio() >= 0.99,
            "delivered {}/{}",
            out.delivered,
            out.sent
        );
        assert_eq!(out.dead_lettered, 2, "both poison messages evicted");
        assert!(out.faults > 0, "the injector must actually have faulted");
        assert!(out.restarts > 0);
        assert_eq!(out.quarantined, 0);
    }

    #[test]
    fn fusion_enabled_chaos_still_delivers() {
        // Fused runs on both sides of the (unfusable) injector: faults and
        // restarts in the discrete middle must not disturb the fused units.
        let cfg = ChaosConfig {
            server: chaos_server_config(ServerConfig {
                fusion: true,
                ..Default::default()
            }),
            panic_rate: 0.05,
            messages: 120,
            poison: 2,
            pad_redirectors: 2,
            ..Default::default()
        };
        let out = with_quiet_panics(|| run_chaos(&cfg));
        assert!(
            out.delivery_ratio() >= 0.99,
            "delivered {}/{}",
            out.delivered,
            out.sent
        );
        assert_eq!(out.dead_lettered, 2);
        assert!(out.faults > 0);
        assert_eq!(out.quarantined, 0);
    }
}
