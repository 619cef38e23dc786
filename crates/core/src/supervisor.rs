//! Streamlet supervision: restart policies, poison-message quarantine, and
//! the dead-letter queue.
//!
//! The paper's event-driven reconfiguration (`when (EVENT) { … }`, §4.2.3)
//! presumes the coordination plane can *detect* execution-plane failure.
//! This module closes that loop: when a `StreamletLogic` panics, the
//! executor marks the instance [`Faulted`](crate::streamlet::LifecycleState)
//! (see `streamlet.rs`) and notifies the [`Supervisor`], which
//!
//! 1. rebuilds the logic object from the directory factory and restarts the
//!    instance in place — channel bindings live on the handle, so they are
//!    preserved across the restart;
//! 2. applies a per-streamlet [`RestartPolicy`] (restart budget over a
//!    sliding window, exponential backoff with jitter) and gives up into
//!    `Quarantined` once the budget is exhausted;
//! 3. evicts a *poison message* — one that faults the same instance
//!    `poison_threshold` times in a row — into a bounded [`DeadLetterQueue`]
//!    so the restarted instance makes progress without it;
//! 4. raises every fault as a categorized `STREAMLET_FAULT` context event
//!    through the Event Manager, so MCL `when (STREAMLET_FAULT)` rules can
//!    degrade or bypass the failing streamlet.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::CoreError;
use crate::events::{ContextEvent, EventManager};
use crate::overload::{BreakerConfig, CircuitBreaker, FaultVerdict, ProbeOutcome};
use crate::streamlet::{StreamletHandle, StreamletLogic};
use crate::sync::{Parker, Wake};
use crate::telemetry::{Telemetry, TraceKind};
use mobigate_mcl::events::EventKind;
use mobigate_mime::MimeMessage;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a streamlet instance faulted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultCause {
    /// `StreamletLogic::process` panicked (payload text).
    Panic(String),
    /// `StreamletLogic::control` panicked (payload text).
    ControlPanic(String),
}

impl FaultCause {
    /// The panic payload text.
    pub fn message(&self) -> &str {
        match self {
            FaultCause::Panic(m) | FaultCause::ControlPanic(m) => m,
        }
    }

    /// A stable category label for reporting.
    pub fn label(&self) -> &'static str {
        match self {
            FaultCause::Panic(_) => "panic",
            FaultCause::ControlPanic(_) => "control-panic",
        }
    }
}

impl fmt::Display for FaultCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.label(), self.message())
    }
}

/// Details attached to a `STREAMLET_FAULT` context event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultInfo {
    /// Faulted instance name.
    pub instance: String,
    /// Why it faulted.
    pub cause: FaultCause,
    /// Supervisor restarts performed on this instance so far (before this
    /// fault is handled).
    pub restarts: u32,
}

/// Per-streamlet restart policy.
#[derive(Debug, Clone)]
pub struct RestartPolicy {
    /// Faults tolerated inside `window` before the instance is quarantined.
    pub max_restarts: u32,
    /// Sliding window over which faults are counted.
    pub window: Duration,
    /// First restart delay; doubles per consecutive fault in the window.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Randomize each delay into `[50%, 150%]` of the exponential value so
    /// a burst of correlated faults does not restart in lock-step.
    pub jitter: bool,
    /// A message that faults the same instance this many times is evicted
    /// to the dead-letter queue instead of being redelivered again.
    pub poison_threshold: u32,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 5,
            window: Duration::from_secs(10),
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(200),
            jitter: true,
            poison_threshold: 3,
        }
    }
}

impl RestartPolicy {
    /// The delay before restart number `consecutive` (1-based count of
    /// faults currently inside the window). `jitter_bits` supplies the
    /// randomness; only the low 16 bits are used.
    pub fn backoff_for(&self, consecutive: u32, jitter_bits: u64) -> Duration {
        let exp = consecutive.saturating_sub(1).min(16);
        let raw = self
            .backoff_base
            .saturating_mul(1u32 << exp)
            .min(self.backoff_max);
        if !self.jitter {
            return raw;
        }
        // Scale into [0.5, 1.5) of the exponential value.
        let frac = (jitter_bits & 0xFFFF) as f64 / 65536.0;
        raw.mul_f64(0.5 + frac)
    }
}

/// A poison message evicted from a faulting instance.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// Instance the message repeatedly faulted.
    pub instance: String,
    /// Stream the instance belongs to, when known.
    pub stream: Option<String>,
    /// The message itself (body is `Bytes`, so this clone is cheap).
    pub message: MimeMessage,
    /// How many faults the message caused before eviction.
    pub faults: u32,
    /// The final fault's cause.
    pub cause: FaultCause,
}

/// Counters exposed by [`DeadLetterQueue::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadLetterStats {
    /// Messages ever enqueued.
    pub enqueued: u64,
    /// Messages dropped because the queue was full (oldest-first).
    pub discarded: u64,
}

/// A bounded FIFO of poison messages, inspectable through the server API
/// ([`crate::server::MobiGate::dead_letters`]).
pub struct DeadLetterQueue {
    slots: Mutex<VecDeque<DeadLetter>>,
    capacity: usize,
    enqueued: AtomicU64,
    discarded: AtomicU64,
}

impl DeadLetterQueue {
    /// An empty queue holding at most `capacity` letters; when full, the
    /// oldest letter is discarded to admit the new one.
    pub fn new(capacity: usize) -> Self {
        DeadLetterQueue {
            slots: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            enqueued: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
        }
    }

    /// Admits a letter, evicting the oldest if at capacity.
    pub fn push(&self, letter: DeadLetter) {
        let mut slots = self.slots.lock();
        if slots.len() >= self.capacity {
            slots.pop_front();
            self.discarded.fetch_add(1, Ordering::Relaxed);
        }
        slots.push_back(letter);
        self.enqueued.fetch_add(1, Ordering::Relaxed);
    }

    /// Letters currently held.
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// Whether the queue holds no letters.
    pub fn is_empty(&self) -> bool {
        self.slots.lock().is_empty()
    }

    /// Removes and returns the oldest letter.
    pub fn take(&self) -> Option<DeadLetter> {
        self.slots.lock().pop_front()
    }

    /// Clones the current contents oldest-first (inspection API).
    pub fn snapshot(&self) -> Vec<DeadLetter> {
        self.slots.lock().iter().cloned().collect()
    }

    /// Removes and returns everything, oldest-first.
    pub fn drain(&self) -> Vec<DeadLetter> {
        self.slots.lock().drain(..).collect()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> DeadLetterStats {
        DeadLetterStats {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }
}

/// Counters exposed by [`Supervisor::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Faults handled.
    pub faults: u64,
    /// Successful restarts performed.
    pub restarts: u64,
    /// Instances given up on.
    pub quarantined: u64,
    /// Poison messages evicted to the dead-letter queue.
    pub dead_lettered: u64,
    /// Circuit-breaker trips (Closed→Open and HalfOpen→Open transitions).
    /// A tripped fault is parked, not restarted, and does not charge the
    /// restart budget.
    pub breaker_trips: u64,
}

/// Entry count below which registrations never sweep.
const MIN_SWEEP: usize = 64;

type RebuildFn = Box<dyn Fn() -> Result<Box<dyn StreamletLogic>, CoreError> + Send + Sync>;

struct Entry {
    handle: Weak<StreamletHandle>,
    rebuild: RebuildFn,
    policy: RestartPolicy,
    stream: Option<Arc<str>>,
    /// Fault timestamps inside the policy window (pruned on each fault).
    fault_times: Vec<Instant>,
    restarts: u32,
    /// Per-instance circuit breaker, present when the supervisor was built
    /// with a [`BreakerConfig`]. Consulted before the restart budget: a
    /// tripped instance is parked and probed, never quarantined.
    breaker: Option<Arc<CircuitBreaker>>,
}

enum JobKind {
    Fault(FaultCause),
    Restart,
    /// Cooldown elapsed on an open breaker: move to half-open and restart
    /// the instance so live traffic can prove it healthy.
    Probe,
    /// The half-open probe window elapsed: close the breaker if the probe
    /// stayed quiet.
    ProbeVerdict,
}

struct Job {
    key: u64,
    due: Instant,
    kind: JobKind,
}

#[derive(Default)]
struct WorkQueue {
    jobs: VecDeque<Job>,
    stop: bool,
}

impl WorkQueue {
    fn earliest_due(&self) -> Option<Instant> {
        self.jobs.iter().map(|j| j.due).min()
    }

    /// Removes the earliest job if it is due.
    fn pop_due(&mut self) -> Option<Job> {
        let due = self.earliest_due().filter(|&d| d <= Instant::now())?;
        let i = self.jobs.iter().position(|j| j.due == due)?;
        self.jobs.remove(i)
    }
}

/// Queues a job for the supervision worker.
fn push_job(work: &Parker<WorkQueue>, key: u64, due: Instant, kind: JobKind) {
    work.update(|w| {
        w.jobs.push_back(Job { key, due, kind });
        ((), Wake::All)
    });
}

/// The supervision engine: one background worker that restarts faulted
/// instances, quarantines repeat offenders, dead-letters poison messages,
/// and raises `STREAMLET_FAULT` events.
pub struct Supervisor {
    entries: Mutex<HashMap<u64, Entry>>,
    next_key: AtomicU64,
    /// Entry count at which the next registration sweeps out entries
    /// whose instance is gone.
    sweep_at: AtomicUsize,
    work: Arc<Parker<WorkQueue>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    events: Arc<EventManager>,
    dead_letters: Arc<DeadLetterQueue>,
    default_policy: RestartPolicy,
    faults: AtomicU64,
    restarts: AtomicU64,
    quarantined: AtomicU64,
    breaker_trips: AtomicU64,
    /// Circuit-breaker template applied to every supervised instance;
    /// `None` reproduces the plain restart-budget behaviour.
    breaker_cfg: Option<BreakerConfig>,
    /// xorshift state for backoff jitter.
    seed: AtomicU64,
    /// Observability plane; when installed, every supervision decision
    /// (fault, restart, refusal, quarantine, dead-letter) leaves a trace.
    telemetry: Mutex<Option<Arc<Telemetry>>>,
}

impl Supervisor {
    /// Default seed of the restart-backoff jitter PRNG (the 64-bit golden
    /// ratio, as in the original hardcoded constant).
    pub const DEFAULT_JITTER_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Spawns the supervision worker. Faults are reported through `events`;
    /// poison messages land in a dead-letter queue of `dead_letter_capacity`.
    pub fn new(
        events: Arc<EventManager>,
        default_policy: RestartPolicy,
        dead_letter_capacity: usize,
    ) -> Arc<Self> {
        Self::with_options(
            events,
            default_policy,
            dead_letter_capacity,
            Self::DEFAULT_JITTER_SEED,
            None,
        )
    }

    /// [`Self::new`] with an explicit jitter seed (bit-for-bit reproducible
    /// restart schedules) and an optional circuit-breaker template applied
    /// to every supervised instance. A zero seed is replaced by the default
    /// (xorshift64 has a fixed point at zero).
    pub fn with_options(
        events: Arc<EventManager>,
        default_policy: RestartPolicy,
        dead_letter_capacity: usize,
        jitter_seed: u64,
        breaker_cfg: Option<BreakerConfig>,
    ) -> Arc<Self> {
        let seed = if jitter_seed == 0 {
            Self::DEFAULT_JITTER_SEED
        } else {
            jitter_seed
        };
        let sup = Arc::new(Supervisor {
            entries: Mutex::new(HashMap::new()),
            next_key: AtomicU64::new(1),
            sweep_at: AtomicUsize::new(MIN_SWEEP),
            work: Arc::default(),
            worker: Mutex::new(None),
            events,
            dead_letters: Arc::new(DeadLetterQueue::new(dead_letter_capacity)),
            default_policy,
            faults: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            breaker_cfg,
            seed: AtomicU64::new(seed),
            telemetry: Mutex::new(None),
        });
        let weak = Arc::downgrade(&sup);
        // Failing to spawn the supervisor thread is unrecoverable: the
        // server would silently never restart anything.
        #[allow(clippy::expect_used)]
        let handle = std::thread::Builder::new()
            .name("mobigate-supervisor".into())
            .spawn(move || Supervisor::worker_loop(weak))
            .expect("spawn supervisor thread");
        *sup.worker.lock() = Some(handle);
        sup
    }

    /// Attaches the observability plane: subsequent supervision decisions
    /// append lifecycle trace events.
    pub fn set_telemetry(&self, telemetry: Arc<Telemetry>) {
        *self.telemetry.lock() = Some(telemetry);
    }

    fn trace(&self, kind: TraceKind, stream: Option<&str>, instance: &str, detail: String) {
        if let Some(t) = &*self.telemetry.lock() {
            t.trace_event(kind, stream, Some(instance), detail);
        }
    }

    /// Places `handle` under supervision with the supervisor-wide default
    /// policy. `rebuild` must produce a fresh logic object (normally
    /// `directory.create(key)` — deliberately *not* the instance pool, so a
    /// poisoned object is never recycled). `stream` scopes fault events to
    /// the owning stream when known.
    pub fn supervise(
        self: &Arc<Self>,
        handle: &Arc<StreamletHandle>,
        rebuild: impl Fn() -> Result<Box<dyn StreamletLogic>, CoreError> + Send + Sync + 'static,
        stream: Option<Arc<str>>,
    ) {
        let policy = self.default_policy.clone();
        self.supervise_with_policy(handle, rebuild, policy, stream);
    }

    /// [`Self::supervise`] with an explicit per-streamlet policy.
    pub fn supervise_with_policy(
        self: &Arc<Self>,
        handle: &Arc<StreamletHandle>,
        rebuild: impl Fn() -> Result<Box<dyn StreamletLogic>, CoreError> + Send + Sync + 'static,
        policy: RestartPolicy,
        stream: Option<Arc<str>>,
    ) {
        let key = self.next_key.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock();
        if entries.len() >= self.sweep_at.load(Ordering::Relaxed) {
            // Torn-down instances leave entries whose handle is gone (a
            // restart still pending for a live, ended handle must find
            // its entry to be refused and traced). Sweeping when the map
            // has doubled since the last sweep keeps it within twice the
            // live instances at amortized O(1) per registration.
            entries.retain(|_, e| e.handle.strong_count() > 0);
            self.sweep_at
                .store((2 * entries.len()).max(MIN_SWEEP), Ordering::Relaxed);
        }
        entries.insert(
            key,
            Entry {
                handle: Arc::downgrade(handle),
                rebuild: Box::new(rebuild),
                policy,
                stream,
                fault_times: Vec::new(),
                restarts: 0,
                breaker: self
                    .breaker_cfg
                    .as_ref()
                    .map(|c| Arc::new(CircuitBreaker::new(c.clone()))),
            },
        );
        drop(entries);
        let work = Arc::clone(&self.work);
        handle.set_fault_hook(move |cause| {
            push_job(&work, key, Instant::now(), JobKind::Fault(cause));
        });
    }

    /// Supervision entries held: every live supervised instance, plus
    /// those of dropped instances not yet swept (see `supervise`).
    pub fn entry_count(&self) -> usize {
        self.entries.lock().len()
    }

    /// The dead-letter queue (server inspection API).
    pub fn dead_letters(&self) -> &Arc<DeadLetterQueue> {
        &self.dead_letters
    }

    /// The supervisor-wide default policy.
    pub fn default_policy(&self) -> &RestartPolicy {
        &self.default_policy
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SupervisorStats {
        SupervisorStats {
            faults: self.faults.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            dead_lettered: self.dead_letters.stats().enqueued,
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
        }
    }

    /// The circuit breaker guarding `instance`, when one exists (tests and
    /// benches inspect breaker state through this).
    pub fn breaker_of(&self, instance: &str) -> Option<Arc<CircuitBreaker>> {
        let entries = self.entries.lock();
        entries.values().find_map(|e| {
            let h = e.handle.upgrade()?;
            (h.name() == instance).then(|| e.breaker.clone()).flatten()
        })
    }

    /// Stops the worker thread. Idempotent; also run on drop.
    pub fn shutdown(&self) {
        self.work.update(|w| {
            w.stop = true;
            ((), Wake::All)
        });
        if let Some(h) = self.worker.lock().take() {
            // The worker loop upgrades its Weak while handling a job, so the
            // last Arc can die *on the worker thread* (Drop → shutdown here).
            // Joining ourselves would EDEADLK; the stop flag is already set,
            // so detaching lets the loop exit on its own right after this.
            if std::thread::current().id() != h.thread().id() {
                let _ = h.join();
            }
        }
    }

    /// Advances and returns the backoff-jitter PRNG. Public so tests can
    /// assert that a fixed `jitter_seed` reproduces the exact sequence.
    pub fn next_jitter(&self) -> u64 {
        // xorshift64: cheap, deterministic, good enough to de-correlate
        // restart delays (no external RNG dependency in core).
        let mut x = self.seed.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.seed.store(x, Ordering::Relaxed);
        x
    }

    fn worker_loop(sup: Weak<Supervisor>) {
        loop {
            // Hold only the job queue lock while waiting so supervised
            // streamlets (and Drop) never block on the worker.
            let job = {
                let Some(sup) = sup.upgrade() else { return };
                let work = Arc::clone(&sup.work);
                drop(sup);
                loop {
                    let (stop, job, due) =
                        work.update(|w| ((w.stop, w.pop_due(), w.earliest_due()), Wake::None));
                    if stop {
                        return;
                    }
                    if let Some(job) = job {
                        break job;
                    }
                    // Until the earliest job comes due, one due sooner
                    // arrives, or stop.
                    work.wait_while(|w| !w.stop && w.earliest_due() == due, due);
                }
            };
            let Some(sup) = sup.upgrade() else { return };
            match job.kind {
                JobKind::Fault(cause) => sup.handle_fault(job.key, cause),
                JobKind::Restart => sup.handle_restart(job.key),
                JobKind::Probe => sup.handle_probe(job.key),
                JobKind::ProbeVerdict => sup.handle_probe_verdict(job.key),
            }
        }
    }

    /// Decides what to do about one fault: quarantine, dead-letter the
    /// poison message, schedule a backoff restart — and always raise a
    /// `STREAMLET_FAULT` event.
    fn handle_fault(&self, key: u64, cause: FaultCause) {
        self.faults.fetch_add(1, Ordering::Relaxed);
        let event = {
            let mut entries = self.entries.lock();
            let Some(entry) = entries.get_mut(&key) else {
                return;
            };
            let Some(handle) = entry.handle.upgrade() else {
                entries.remove(&key);
                return;
            };
            let now = Instant::now();

            let info = FaultInfo {
                instance: handle.name().to_string(),
                cause: cause.clone(),
                restarts: entry.restarts,
            };
            let event = ContextEvent::fault(info, entry.stream.as_deref().map(str::to_string));
            self.trace(
                TraceKind::Fault,
                entry.stream.as_deref(),
                handle.name(),
                format!("{cause}"),
            );

            // Circuit breaker first: a fault past the trip threshold parks
            // the instance behind an open breaker instead of charging the
            // restart budget — the STREAMLET_FAULT event below still fires,
            // so `when (STREAMLET_FAULT)` bypass rules route around it,
            // and a probe is scheduled for after the cooldown.
            match entry.breaker.as_ref().map(|b| (b.on_fault(), b.cooldown())) {
                Some((FaultVerdict::Tripped | FaultVerdict::Reopened, cooldown)) => {
                    self.breaker_trips.fetch_add(1, Ordering::Relaxed);
                    self.trace(
                        TraceKind::BreakerTrip,
                        entry.stream.as_deref(),
                        handle.name(),
                        format!("fault rate over threshold; probe in {cooldown:?}"),
                    );
                    let breaker_event =
                        scoped_event(EventKind::BreakerOpen, entry.stream.as_deref());
                    push_job(&self.work, key, now + cooldown, JobKind::Probe);
                    // Raise events only after releasing the registry lock
                    // (delivery can run `when` rules that supervise new
                    // instances).
                    drop(entries);
                    self.events.multicast(&event);
                    self.events.multicast(&breaker_event);
                    return;
                }
                Some((FaultVerdict::AlreadyOpen, _)) => {
                    // Cooldown in progress and a probe already queued: the
                    // fault is swallowed (no budget charge, no restart).
                    drop(entries);
                    self.events.multicast(&event);
                    return;
                }
                Some((FaultVerdict::Restart, _)) | None => {}
            }

            let window = entry.policy.window;
            entry
                .fault_times
                .retain(|t| now.duration_since(*t) < window);
            entry.fault_times.push(now);

            if entry.fault_times.len() as u32 > entry.policy.max_restarts {
                // Budget exhausted: give up on this instance. The handle
                // stays attached so a `when (STREAMLET_FAULT)` rule can
                // still bypass or remove it.
                let _ = handle.quarantine();
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                self.trace(
                    TraceKind::Quarantine,
                    entry.stream.as_deref(),
                    handle.name(),
                    format!("restart budget exhausted ({})", entry.policy.max_restarts),
                );
            } else {
                // Poison eviction: the pending message already faulted this
                // instance too many times — park it in the dead-letter
                // queue so the restart makes progress without it. With
                // batching, `redelivery_faults`/`take_redelivery` address
                // the *head* of the redelivery queue: a faulted batch is
                // replayed one message at a time, so only the message that
                // keeps faulting accumulates a count and gets evicted;
                // innocent batch-mates are redelivered normally.
                if handle.redelivery_faults() >= entry.policy.poison_threshold {
                    if let Some((message, faults)) = handle.take_redelivery() {
                        self.trace(
                            TraceKind::DeadLetter,
                            entry.stream.as_deref(),
                            handle.name(),
                            format!("poison message after {faults} faults"),
                        );
                        self.dead_letters.push(DeadLetter {
                            instance: handle.name().to_string(),
                            stream: entry.stream.as_deref().map(str::to_string),
                            message,
                            faults,
                            cause: cause.clone(),
                        });
                    }
                }
                let delay = entry
                    .policy
                    .backoff_for(entry.fault_times.len() as u32, self.next_jitter());
                push_job(&self.work, key, now + delay, JobKind::Restart);
            }
            event
        };
        // Raise the event only after releasing the registry lock: delivery
        // can run `when` rules that create (and hence supervise) instances.
        self.events.multicast(&event);
    }

    /// Rebuilds the logic from the factory and restarts the instance.
    fn handle_restart(&self, key: u64) {
        let mut entries = self.entries.lock();
        let Some(entry) = entries.get_mut(&key) else {
            return;
        };
        let Some(handle) = entry.handle.upgrade() else {
            entries.remove(&key);
            return;
        };
        match (entry.rebuild)() {
            Ok(logic) => {
                // `restart_with` refuses unless the instance is still
                // Faulted — losing the race with `end()` or a second
                // restart is benign. The restart is counted before the
                // instance can run again, so whoever observes its output
                // also observes the count.
                let restarts = &mut entry.restarts;
                let counted = handle.restart_with(logic, || {
                    *restarts += 1;
                    self.restarts.fetch_add(1, Ordering::Relaxed);
                });
                if counted.is_ok() {
                    self.trace(
                        TraceKind::Restart,
                        entry.stream.as_deref(),
                        handle.name(),
                        format!("restart #{}", entry.restarts),
                    );
                } else {
                    self.trace(
                        TraceKind::RestartRefused,
                        entry.stream.as_deref(),
                        handle.name(),
                        format!("instance is {:?}, not Faulted", handle.state()),
                    );
                }
            }
            Err(_) => {
                // The factory itself failed; nothing to install.
                let _ = handle.quarantine();
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                self.trace(
                    TraceKind::Quarantine,
                    entry.stream.as_deref(),
                    handle.name(),
                    "rebuild factory failed".to_string(),
                );
            }
        }
    }

    /// Cooldown elapsed on an open breaker: move it to half-open, restart
    /// the parked instance so the probe sees live traffic, and schedule the
    /// verdict check for one more cooldown later.
    fn handle_probe(&self, key: u64) {
        let event = {
            let mut entries = self.entries.lock();
            let Some(entry) = entries.get_mut(&key) else {
                return;
            };
            let Some(handle) = entry.handle.upgrade() else {
                entries.remove(&key);
                return;
            };
            let Some(breaker) = entry.breaker.clone() else {
                return;
            };
            if !breaker.begin_probe() {
                // Closed meanwhile, or a concurrent probe won the race.
                return;
            }
            self.trace(
                TraceKind::BreakerHalfOpen,
                entry.stream.as_deref(),
                handle.name(),
                "probing with live traffic".to_string(),
            );
            match (entry.rebuild)() {
                Ok(logic) => {
                    let restarts = &mut entry.restarts;
                    // A refused restart (no longer Faulted) counts nothing.
                    let _ = handle.restart_with(logic, || {
                        *restarts += 1;
                        self.restarts.fetch_add(1, Ordering::Relaxed);
                    });
                    push_job(
                        &self.work,
                        key,
                        Instant::now() + breaker.cooldown(),
                        JobKind::ProbeVerdict,
                    );
                    scoped_event(EventKind::BreakerHalfOpen, entry.stream.as_deref())
                }
                Err(_) => {
                    // The factory failed; the instance cannot prove itself.
                    // Give up exactly as a failed restart does.
                    let _ = handle.quarantine();
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                    self.trace(
                        TraceKind::Quarantine,
                        entry.stream.as_deref(),
                        handle.name(),
                        "rebuild factory failed during probe".to_string(),
                    );
                    return;
                }
            }
        };
        self.events.multicast(&event);
    }

    /// The half-open probe window elapsed: close the breaker if the probe
    /// stayed quiet; keep waiting if more quiet windows are required. A
    /// fault during the window reopened the breaker (and scheduled the
    /// next probe), so there is nothing to do here in that case.
    fn handle_probe_verdict(&self, key: u64) {
        let event = {
            let mut entries = self.entries.lock();
            let Some(entry) = entries.get_mut(&key) else {
                return;
            };
            let Some(breaker) = entry.breaker.clone() else {
                return;
            };
            match breaker.probe_quiet() {
                ProbeOutcome::Closed => {
                    // Close resets the supervisor's restart-budget window
                    // too: the instance proved healthy, so past faults no
                    // longer count against it.
                    entry.fault_times.clear();
                    let instance = entry
                        .handle
                        .upgrade()
                        .map(|h| h.name().to_string())
                        .unwrap_or_default();
                    self.trace(
                        TraceKind::BreakerClose,
                        entry.stream.as_deref(),
                        &instance,
                        "probe quiet; breaker closed".to_string(),
                    );
                    scoped_event(EventKind::BreakerClose, entry.stream.as_deref())
                }
                ProbeOutcome::StillHalfOpen => {
                    push_job(
                        &self.work,
                        key,
                        Instant::now() + breaker.cooldown(),
                        JobKind::ProbeVerdict,
                    );
                    return;
                }
                ProbeOutcome::NotHalfOpen => return,
            }
        };
        self.events.multicast(&event);
    }
}

/// A breaker lifecycle event, targeted at the owning stream when known.
fn scoped_event(kind: EventKind, stream: Option<&str>) -> ContextEvent {
    match stream {
        Some(s) => ContextEvent::targeted(kind, s),
        None => ContextEvent::broadcast(kind),
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// An idle supervisor shut down at any point of its worker's way into
    /// the untimed wait still joins: `stop` is stored under the jobs lock
    /// the worker checks it under. The spin varies how far it got.
    #[test]
    fn idle_supervisor_shutdown_always_joins() {
        let events = Arc::new(EventManager::new());
        for i in 0..20_000u32 {
            let sup = Supervisor::new(events.clone(), RestartPolicy::default(), 4);
            let spin = Instant::now() + Duration::from_micros(u64::from(i % 61));
            while Instant::now() < spin {
                std::hint::spin_loop();
            }
            sup.shutdown();
        }
    }

    #[test]
    fn dead_letter_queue_is_bounded_fifo() {
        let q = DeadLetterQueue::new(2);
        for i in 0..3 {
            q.push(DeadLetter {
                instance: format!("s{i}"),
                stream: None,
                message: MimeMessage::text(format!("m{i}")),
                faults: 1,
                cause: FaultCause::Panic("boom".into()),
            });
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.stats().enqueued, 3);
        assert_eq!(q.stats().discarded, 1);
        // Oldest (s0) was discarded; s1 is now at the front.
        assert_eq!(q.take().unwrap().instance, "s1");
        assert_eq!(q.drain().len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RestartPolicy {
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(16),
            jitter: false,
            ..Default::default()
        };
        assert_eq!(p.backoff_for(1, 0), Duration::from_millis(2));
        assert_eq!(p.backoff_for(2, 0), Duration::from_millis(4));
        assert_eq!(p.backoff_for(3, 0), Duration::from_millis(8));
        assert_eq!(p.backoff_for(4, 0), Duration::from_millis(16));
        assert_eq!(p.backoff_for(10, 0), Duration::from_millis(16), "capped");
    }

    #[test]
    fn jittered_backoff_stays_in_band() {
        let p = RestartPolicy {
            backoff_base: Duration::from_millis(8),
            backoff_max: Duration::from_millis(8),
            jitter: true,
            ..Default::default()
        };
        for bits in [0u64, 0x7FFF, 0xFFFF, 0xDEAD_BEEF] {
            let d = p.backoff_for(1, bits);
            assert!(d >= Duration::from_millis(4), "{d:?} below 50%");
            assert!(d < Duration::from_millis(12), "{d:?} above 150%");
        }
    }

    #[test]
    fn fault_cause_reports_label_and_message() {
        let c = FaultCause::Panic("index out of bounds".into());
        assert_eq!(c.label(), "panic");
        assert!(c.to_string().contains("index out of bounds"));
        let c = FaultCause::ControlPanic("bad knob".into());
        assert_eq!(c.label(), "control-panic");
    }
}
