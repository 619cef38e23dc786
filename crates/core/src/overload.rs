//! The overload-protection plane: admission control, priority-aware
//! shedding policy, and per-instance circuit breakers.
//!
//! Fig 6-9's block-then-drop is the gateway's only native defense; under a
//! stampede it degenerates into timeout storms (every producer parks for
//! `full_wait`) and supervisor restart churn. This module adds the three
//! graceful-degradation mechanisms `ServerConfig { overload }` gates:
//!
//! * **Admission control** — token buckets at stream ingress, one per
//!   session plus one global gateway bucket. A post that finds either
//!   bucket empty is rejected *immediately* and charged to the
//!   reason-coded `dropped_admission` counter, instead of blocking the
//!   producer and timing out later as `dropped_full`.
//! * **Priority classes** — messages classify by MIME top-level type:
//!   interactive `text/*`/`application/*` control traffic above bulk
//!   `image/*`/`video/*`/`audio/*` prefetch. `MessageQueue::shed_oldest`
//!   sheds lowest class first (oldest within a class) when the
//!   `MetricsBridge` publishes `CHANNEL_CONGESTED`.
//! * **Circuit breakers** — one per supervised streamlet instance. A
//!   breaker trips open after `fault_threshold` faults inside `window`,
//!   which stops the supervisor scheduling restarts (the `when
//!   (STREAMLET_FAULT)` bypass machinery routes around the instance
//!   instead) and so stops the restart budget burning toward quarantine.
//!   After `cooldown` the breaker half-opens, the supervisor probes with
//!   one restart, and `probe_successes` quiet cooldown windows close it.
//!
//! Everything here is deliberately free of wall-clock side effects beyond
//! `Instant::now()` reads, so the state machines unit-test directly.

// Overload decisions sit on the ingress hot path; surface failures as
// values, never abort.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use mobigate_mime::{MimeMessage, MimeType};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Master switches of the overload plane, carried on
/// `ServerConfig { overload }`. Everything defaults off: the unconfigured
/// gateway behaves exactly as before this plane existed.
#[derive(Clone, Debug, Default)]
pub struct OverloadConfig {
    /// Master switch. When false the admission controller is never built,
    /// shedding never subscribes, and breakers are never attached.
    pub enabled: bool,
    /// Token-bucket admission control at stream ingress.
    pub admission: AdmissionConfig,
    /// Priority-aware shedding under `CHANNEL_CONGESTED`.
    pub shed: ShedConfig,
    /// Per-streamlet-instance circuit breakers.
    pub breaker: BreakerConfig,
}

impl OverloadConfig {
    /// An enabled config with default knobs — the common opt-in.
    pub fn enabled() -> Self {
        OverloadConfig {
            enabled: true,
            ..Default::default()
        }
    }

    /// True when admission control should run.
    pub fn admission_on(&self) -> bool {
        self.enabled && self.admission.enabled
    }

    /// True when congestion-triggered shedding should run.
    pub fn shed_on(&self) -> bool {
        self.enabled && self.shed.enabled
    }

    /// True when supervised instances should carry breakers.
    pub fn breaker_on(&self) -> bool {
        self.enabled && self.breaker.enabled
    }
}

/// Token-bucket admission knobs.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Sub-switch (meaningful only with `OverloadConfig::enabled`).
    pub enabled: bool,
    /// Steady-state tokens per second refilled into each session bucket.
    pub session_rate: f64,
    /// Burst capacity of each session bucket, in messages.
    pub session_burst: f64,
    /// Steady-state tokens per second refilled into the global bucket.
    pub global_rate: f64,
    /// Burst capacity of the global bucket, in messages.
    pub global_burst: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            enabled: true,
            session_rate: 1_000.0,
            session_burst: 200.0,
            global_rate: 50_000.0,
            global_burst: 10_000.0,
        }
    }
}

/// Congestion-shedding knobs.
#[derive(Clone, Debug)]
pub struct ShedConfig {
    /// Sub-switch (meaningful only with `OverloadConfig::enabled`).
    pub enabled: bool,
    /// Most messages shed per `CHANNEL_CONGESTED` event per stream.
    pub shed_max: usize,
}

impl Default for ShedConfig {
    fn default() -> Self {
        ShedConfig {
            enabled: true,
            shed_max: 64,
        }
    }
}

/// Circuit-breaker knobs.
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Sub-switch (meaningful only with `OverloadConfig::enabled`).
    pub enabled: bool,
    /// Faults inside `window` that trip the breaker open. Keep this below
    /// the supervisor's `max_restarts` so the breaker trips *before* the
    /// restart budget exhausts into quarantine.
    pub fault_threshold: u32,
    /// Sliding window over which faults count toward the threshold.
    pub window: Duration,
    /// How long an open breaker waits before half-opening for a probe.
    pub cooldown: Duration,
    /// Quiet cooldown windows a half-open breaker must observe to close.
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            enabled: true,
            fault_threshold: 3,
            window: Duration::from_secs(10),
            cooldown: Duration::from_millis(250),
            probe_successes: 1,
        }
    }
}

/// Message priority derived from the MIME top-level type. Ordered so that
/// `Bulk < Normal < Interactive` — shedding walks ascending.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PriorityClass {
    /// Prefetch media: `image/*`, `video/*`, `audio/*`.
    Bulk,
    /// Everything else (`multipart/*`, `message/*`, unknown tops).
    Normal,
    /// Control/interactive traffic: `text/*`, `application/*`.
    Interactive,
}

impl PriorityClass {
    /// Classifies a content type by its top-level component.
    pub fn of(ty: &MimeType) -> PriorityClass {
        PriorityClass::of_top(&ty.top)
    }

    /// Classifies a message by its content type's top-level component,
    /// read without building the type.
    pub(crate) fn of_message(msg: &MimeMessage) -> PriorityClass {
        PriorityClass::of_top(msg.content_top())
    }

    /// Classifies a top-level media type (compared case-insensitively).
    fn of_top(top: &str) -> PriorityClass {
        let is = |name: &str| top.eq_ignore_ascii_case(name);
        if is("text") || is("application") {
            PriorityClass::Interactive
        } else if is("image") || is("video") || is("audio") {
            PriorityClass::Bulk
        } else {
            PriorityClass::Normal
        }
    }
}

/// A thread-safe token bucket: `burst` capacity, `rate` tokens/second
/// continuous refill. Empty buckets reject instead of blocking.
#[derive(Debug)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    state: Mutex<BucketState>,
}

#[derive(Debug)]
struct BucketState {
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A full bucket. `rate` and `burst` are clamped to be non-negative;
    /// a zero-burst bucket rejects everything.
    pub fn new(rate: f64, burst: f64) -> Self {
        let burst = burst.max(0.0);
        TokenBucket {
            rate: rate.max(0.0),
            burst,
            state: Mutex::new(BucketState {
                tokens: burst,
                last: Instant::now(),
            }),
        }
    }

    /// Takes one token if available. Non-blocking.
    pub fn try_take(&self) -> bool {
        self.try_take_at(Instant::now())
    }

    /// [`TokenBucket::try_take`] with an injected clock (tests).
    pub fn try_take_at(&self, now: Instant) -> bool {
        let mut st = self.state.lock();
        let elapsed = now.saturating_duration_since(st.last).as_secs_f64();
        st.tokens = (st.tokens + elapsed * self.rate).min(self.burst);
        st.last = now;
        if st.tokens >= 1.0 {
            st.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Returns one token (a downstream bucket rejected after this one
    /// admitted). Never exceeds the burst capacity.
    pub fn refund(&self) {
        let mut st = self.state.lock();
        st.tokens = (st.tokens + 1.0).min(self.burst);
    }

    /// Tokens currently available (tests/introspection; racy by nature).
    pub fn available(&self) -> f64 {
        self.state.lock().tokens
    }
}

/// Running totals of admission decisions, readable without locks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Posts admitted through both buckets.
    pub admitted: u64,
    /// Posts rejected by a session bucket.
    pub rejected_session: u64,
    /// Posts rejected by the global bucket.
    pub rejected_global: u64,
}

impl AdmissionStats {
    /// Total rejections, either bucket.
    pub fn rejected(&self) -> u64 {
        self.rejected_session + self.rejected_global
    }
}

/// Gateway-wide admission control: one global token bucket plus one bucket
/// per live session, created lazily on first post and dropped on
/// [`AdmissionController::forget`] at session teardown.
pub struct AdmissionController {
    cfg: AdmissionConfig,
    global: TokenBucket,
    sessions: Mutex<HashMap<String, Arc<TokenBucket>>>,
    admitted: AtomicU64,
    rejected_session: AtomicU64,
    rejected_global: AtomicU64,
}

impl AdmissionController {
    pub fn new(cfg: AdmissionConfig) -> Arc<Self> {
        let global = TokenBucket::new(cfg.global_rate, cfg.global_burst);
        Arc::new(AdmissionController {
            cfg,
            global,
            sessions: Mutex::new(HashMap::new()),
            admitted: AtomicU64::new(0),
            rejected_session: AtomicU64::new(0),
            rejected_global: AtomicU64::new(0),
        })
    }

    fn session_bucket(&self, session: &str) -> Arc<TokenBucket> {
        let mut map = self.sessions.lock();
        map.entry(session.to_string())
            .or_insert_with(|| {
                Arc::new(TokenBucket::new(
                    self.cfg.session_rate,
                    self.cfg.session_burst,
                ))
            })
            .clone()
    }

    /// Decides one ingress post for `session`. Charges the global bucket
    /// first and refunds it when the session bucket rejects, so one
    /// stampeding session cannot starve the global budget for others.
    pub fn admit(&self, session: &str) -> bool {
        if !self.global.try_take() {
            self.rejected_global.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let bucket = self.session_bucket(session);
        if bucket.try_take() {
            self.admitted.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            self.global.refund();
            self.rejected_session.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Pre-creates `session`'s bucket so its first burst sees the full
    /// configured burst capacity (called from session spawn).
    pub fn register(&self, session: &str) {
        let _ = self.session_bucket(session);
    }

    /// Drops `session`'s bucket (session teardown). Idempotent.
    pub fn forget(&self, session: &str) {
        self.sessions.lock().remove(session);
    }

    /// Tokens currently available in the global bucket (introspection).
    pub fn global_available(&self) -> f64 {
        self.global.available()
    }

    /// Live per-session buckets.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Decision totals so far.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_session: self.rejected_session.load(Ordering::Relaxed),
            rejected_global: self.rejected_global.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionController")
            .field("sessions", &self.session_count())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Observable breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: faults count toward the threshold, restarts proceed.
    Closed,
    /// Tripped: no restarts are scheduled until the cooldown elapses.
    Open,
    /// Probing: one restart attempted; quiet windows close the breaker.
    HalfOpen,
}

/// What the supervisor should do with the fault that was just reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Below threshold: charge the restart budget and schedule a restart.
    Restart,
    /// This fault crossed the threshold: the breaker is now open. Publish
    /// `BREAKER_OPEN`, skip the restart, schedule a probe after cooldown.
    Tripped,
    /// The breaker was already open: swallow the fault entirely.
    AlreadyOpen,
    /// A probe faulted while half-open: back to open, schedule another
    /// probe after cooldown.
    Reopened,
}

/// Outcome of a quiet-window check while half-open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// Enough quiet windows: the breaker closed. Publish `BREAKER_CLOSE`.
    Closed,
    /// Quiet, but more windows are required: check again after cooldown.
    StillHalfOpen,
    /// The breaker is no longer half-open (a fault reopened it); the
    /// pending check is stale and should be dropped.
    NotHalfOpen,
}

#[derive(Debug)]
enum BreakerInner {
    Closed { fault_times: Vec<Instant> },
    Open { since: Instant },
    HalfOpen { quiet: u32 },
}

/// Per-streamlet-instance circuit breaker. All transitions are driven by
/// explicit calls from the supervisor (fault reports, probe starts, quiet
/// checks), so the machine is deterministic and directly testable.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            inner: Mutex::new(BreakerInner::Closed {
                fault_times: Vec::new(),
            }),
        }
    }

    /// Current state (for traces and tests).
    pub fn state(&self) -> BreakerState {
        match &*self.inner.lock() {
            BreakerInner::Closed { .. } => BreakerState::Closed,
            BreakerInner::Open { .. } => BreakerState::Open,
            BreakerInner::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Reports one fault of the protected instance.
    pub fn on_fault(&self) -> FaultVerdict {
        self.on_fault_at(Instant::now())
    }

    /// [`CircuitBreaker::on_fault`] with an injected clock (tests).
    pub fn on_fault_at(&self, now: Instant) -> FaultVerdict {
        let mut inner = self.inner.lock();
        match &mut *inner {
            BreakerInner::Closed { fault_times } => {
                fault_times.retain(|t| now.saturating_duration_since(*t) < self.cfg.window);
                fault_times.push(now);
                if fault_times.len() as u32 >= self.cfg.fault_threshold {
                    *inner = BreakerInner::Open { since: now };
                    FaultVerdict::Tripped
                } else {
                    FaultVerdict::Restart
                }
            }
            BreakerInner::Open { .. } => FaultVerdict::AlreadyOpen,
            BreakerInner::HalfOpen { .. } => {
                *inner = BreakerInner::Open { since: now };
                FaultVerdict::Reopened
            }
        }
    }

    /// Attempts the open→half-open transition. Returns true exactly once
    /// per cooldown expiry: the caller that sees true owns the probe
    /// restart; concurrent callers see false.
    pub fn begin_probe(&self) -> bool {
        self.begin_probe_at(Instant::now())
    }

    /// [`CircuitBreaker::begin_probe`] with an injected clock (tests).
    pub fn begin_probe_at(&self, now: Instant) -> bool {
        let mut inner = self.inner.lock();
        match &*inner {
            BreakerInner::Open { since }
                if now.saturating_duration_since(*since) >= self.cfg.cooldown =>
            {
                *inner = BreakerInner::HalfOpen { quiet: 0 };
                true
            }
            _ => false,
        }
    }

    /// Records that one cooldown window elapsed while half-open with no
    /// fault, and closes the breaker when enough have.
    pub fn probe_quiet(&self) -> ProbeOutcome {
        let mut inner = self.inner.lock();
        match &mut *inner {
            BreakerInner::HalfOpen { quiet } => {
                *quiet += 1;
                if *quiet >= self.cfg.probe_successes.max(1) {
                    *inner = BreakerInner::Closed {
                        fault_times: Vec::new(),
                    };
                    ProbeOutcome::Closed
                } else {
                    ProbeOutcome::StillHalfOpen
                }
            }
            _ => ProbeOutcome::NotHalfOpen,
        }
    }

    /// The configured cooldown (the supervisor schedules probe jobs by it).
    pub fn cooldown(&self) -> Duration {
        self.cfg.cooldown
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn ty(top: &str) -> MimeType {
        MimeType::new(top, "x")
    }

    #[test]
    fn priority_classes_order_interactive_above_bulk() {
        assert_eq!(PriorityClass::of(&ty("text")), PriorityClass::Interactive);
        assert_eq!(
            PriorityClass::of(&ty("application")),
            PriorityClass::Interactive
        );
        assert_eq!(PriorityClass::of(&ty("image")), PriorityClass::Bulk);
        assert_eq!(PriorityClass::of(&ty("video")), PriorityClass::Bulk);
        assert_eq!(PriorityClass::of(&ty("audio")), PriorityClass::Bulk);
        assert_eq!(PriorityClass::of(&ty("multipart")), PriorityClass::Normal);
        assert!(PriorityClass::Bulk < PriorityClass::Normal);
        assert!(PriorityClass::Normal < PriorityClass::Interactive);
    }

    #[test]
    fn bucket_burst_then_refill() {
        let b = TokenBucket::new(10.0, 3.0);
        let t0 = Instant::now();
        assert!(b.try_take_at(t0));
        assert!(b.try_take_at(t0));
        assert!(b.try_take_at(t0));
        assert!(!b.try_take_at(t0), "burst exhausted");
        // 100ms at 10/s refills one token.
        assert!(b.try_take_at(t0 + Duration::from_millis(100)));
        assert!(!b.try_take_at(t0 + Duration::from_millis(100)));
    }

    #[test]
    fn bucket_refill_caps_at_burst() {
        let b = TokenBucket::new(1_000.0, 2.0);
        let t0 = Instant::now();
        assert!(b.try_take_at(t0));
        // A long idle period must not bank more than `burst` tokens.
        let later = t0 + Duration::from_secs(60);
        assert!(b.try_take_at(later));
        assert!(b.try_take_at(later));
        assert!(!b.try_take_at(later));
    }

    #[test]
    fn bucket_refund_restores_a_token() {
        let b = TokenBucket::new(0.0, 1.0);
        let t0 = Instant::now();
        assert!(b.try_take_at(t0));
        assert!(!b.try_take_at(t0));
        b.refund();
        assert!(b.try_take_at(t0));
    }

    #[test]
    fn admission_rejects_per_session_without_starving_global() {
        let ctl = AdmissionController::new(AdmissionConfig {
            enabled: true,
            session_rate: 0.0,
            session_burst: 2.0,
            global_rate: 0.0,
            global_burst: 100.0,
        });
        // Session `a` exhausts its own bucket…
        assert!(ctl.admit("a"));
        assert!(ctl.admit("a"));
        for _ in 0..10 {
            assert!(!ctl.admit("a"));
        }
        // …but the refund keeps the global budget intact for `b`.
        assert!(ctl.admit("b"));
        assert!(ctl.admit("b"));
        let s = ctl.stats();
        assert_eq!(s.admitted, 4);
        assert_eq!(s.rejected_session, 10);
        assert_eq!(s.rejected_global, 0);
        assert!((ctl.global_available() - 96.0).abs() < 1e-6);
    }

    #[test]
    fn admission_global_bucket_caps_everyone() {
        let ctl = AdmissionController::new(AdmissionConfig {
            enabled: true,
            session_rate: 0.0,
            session_burst: 100.0,
            global_rate: 0.0,
            global_burst: 3.0,
        });
        assert!(ctl.admit("a"));
        assert!(ctl.admit("b"));
        assert!(ctl.admit("c"));
        assert!(!ctl.admit("d"));
        assert_eq!(ctl.stats().rejected_global, 1);
    }

    #[test]
    fn admission_forget_drops_bucket_state() {
        let ctl = AdmissionController::new(AdmissionConfig {
            enabled: true,
            session_rate: 0.0,
            session_burst: 1.0,
            global_rate: 0.0,
            global_burst: 100.0,
        });
        assert!(ctl.admit("a"));
        assert!(!ctl.admit("a"));
        ctl.forget("a");
        assert_eq!(ctl.session_count(), 0);
        // A reborn session starts with a fresh burst.
        assert!(ctl.admit("a"));
        ctl.forget("zzz"); // idempotent / unknown ok
    }

    #[test]
    fn breaker_trips_exactly_at_threshold() {
        let br = CircuitBreaker::new(BreakerConfig {
            fault_threshold: 3,
            ..Default::default()
        });
        let t0 = Instant::now();
        assert_eq!(br.on_fault_at(t0), FaultVerdict::Restart);
        assert_eq!(br.on_fault_at(t0), FaultVerdict::Restart);
        assert_eq!(br.state(), BreakerState::Closed);
        assert_eq!(br.on_fault_at(t0), FaultVerdict::Tripped);
        assert_eq!(br.state(), BreakerState::Open);
        assert_eq!(br.on_fault_at(t0), FaultVerdict::AlreadyOpen);
    }

    #[test]
    fn breaker_window_expires_old_faults() {
        let br = CircuitBreaker::new(BreakerConfig {
            fault_threshold: 2,
            window: Duration::from_secs(1),
            ..Default::default()
        });
        let t0 = Instant::now();
        assert_eq!(br.on_fault_at(t0), FaultVerdict::Restart);
        // The first fault ages out of the window, so this is again #1.
        assert_eq!(
            br.on_fault_at(t0 + Duration::from_secs(2)),
            FaultVerdict::Restart
        );
        assert_eq!(br.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_half_open_probe_success_closes() {
        let br = CircuitBreaker::new(BreakerConfig {
            fault_threshold: 1,
            cooldown: Duration::from_millis(100),
            probe_successes: 2,
            ..Default::default()
        });
        let t0 = Instant::now();
        assert_eq!(br.on_fault_at(t0), FaultVerdict::Tripped);
        // Before cooldown the probe is refused.
        assert!(!br.begin_probe_at(t0 + Duration::from_millis(50)));
        assert!(br.begin_probe_at(t0 + Duration::from_millis(100)));
        assert_eq!(br.state(), BreakerState::HalfOpen);
        // A concurrent prober loses the race.
        assert!(!br.begin_probe_at(t0 + Duration::from_millis(100)));
        assert_eq!(br.probe_quiet(), ProbeOutcome::StillHalfOpen);
        assert_eq!(br.probe_quiet(), ProbeOutcome::Closed);
        assert_eq!(br.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_half_open_fault_reopens() {
        let br = CircuitBreaker::new(BreakerConfig {
            fault_threshold: 1,
            cooldown: Duration::from_millis(10),
            ..Default::default()
        });
        let t0 = Instant::now();
        assert_eq!(br.on_fault_at(t0), FaultVerdict::Tripped);
        assert!(br.begin_probe_at(t0 + Duration::from_millis(10)));
        assert_eq!(
            br.on_fault_at(t0 + Duration::from_millis(11)),
            FaultVerdict::Reopened
        );
        assert_eq!(br.state(), BreakerState::Open);
        // The stale quiet check from the reopened probe is dropped.
        assert_eq!(br.probe_quiet(), ProbeOutcome::NotHalfOpen);
        // Concurrent faults while re-opened are swallowed.
        assert_eq!(
            br.on_fault_at(t0 + Duration::from_millis(12)),
            FaultVerdict::AlreadyOpen
        );
        // The reopen restarted the cooldown clock.
        assert!(!br.begin_probe_at(t0 + Duration::from_millis(15)));
        assert!(br.begin_probe_at(t0 + Duration::from_millis(21)));
    }

    #[test]
    fn breaker_close_resets_fault_window() {
        let br = CircuitBreaker::new(BreakerConfig {
            fault_threshold: 2,
            cooldown: Duration::from_millis(10),
            probe_successes: 1,
            ..Default::default()
        });
        let t0 = Instant::now();
        assert_eq!(br.on_fault_at(t0), FaultVerdict::Restart);
        assert_eq!(br.on_fault_at(t0), FaultVerdict::Tripped);
        assert!(br.begin_probe_at(t0 + Duration::from_millis(10)));
        assert_eq!(br.probe_quiet(), ProbeOutcome::Closed);
        // A fresh fault after close is fault #1, not #3.
        assert_eq!(
            br.on_fault_at(t0 + Duration::from_millis(20)),
            FaultVerdict::Restart
        );
    }
}
