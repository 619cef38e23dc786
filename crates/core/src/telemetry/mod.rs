//! The observability plane — hot-path telemetry, lifecycle tracing, and
//! the load-event watchers (ROADMAP item 5's measurement half).
//!
//! Everything hangs off one [`Telemetry`] object created by the server
//! when `ServerConfig { telemetry }` enables it:
//!
//! * a [`MetricsRegistry`] of per-stream [`StreamMetrics`]: the message
//!   counters are read from the stream's channels at scrape time (each
//!   [`crate::queue::MessageQueue`] counts posts, fetches and
//!   reason-coded drops in the lock hold that moves the message), next
//!   to log₂ [`hist::Histogram`]s fed by the [`QueueProbe`]s installed on
//!   every channel and task of an instrumented stream — a scrape
//!   snapshots the streams outside the registry lock, so it never stalls
//!   deploys;
//! * a bounded overwrite-oldest [`TraceRing`] of lifecycle
//!   [`trace::TraceEvent`]s (deploy, reconfigure, fuse/fission, fault,
//!   quarantine, session spawn/teardown, drops) with monotonic
//!   nanosecond timestamps, exportable as JSONL;
//! * load-event watchers, armed by `TelemetryConfig { bridge }`: the
//!   probe call that moves a counter past its threshold raises the Load
//!   Variation event itself, targeted at the stream's name, so MCL
//!   `when (...)` rules react to what the gateway *measures*. A post that
//!   lifts a channel to its high-water mark raises `CHANNEL_CONGESTED`
//!   (at most once per second per stream); the drop, fault or admission
//!   reject that brings the stream's count in a one-second window to its
//!   threshold raises `HIGH_DROP_RATE`, `HIGH_FAULT_RATE` or `OVERLOAD`;
//!   the ingress post that takes a session past its byte budget raises
//!   `BYTE_BUDGET_EXCEEDED`. Each fires on its crossing edge only (the
//!   re-arm rules are on [`BridgeConfig`]). No thread
//!   polls: the event goes onto the supervisor's job queue through an
//!   [`EventSink`], and the supervisor thread multicasts it and runs the
//!   `when` reconfiguration it triggers — never the streamlet driver that
//!   raised it, which that reconfiguration may pause.
//!
//! When telemetry is disabled nothing here is allocated: the runtime
//! threads an `Option<Arc<Telemetry>>` that stays `None`, and every hot
//! path pays exactly one branch on it.

pub mod hist;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{DropReason, MetricsRegistry, StreamMetrics, StreamMetricsSnapshot, TimingSite};
use registry::{RateWindow, RATE_WINDOW_NS};
pub use snapshot::MetricsSnapshot;
pub use trace::{TraceEvent, TraceKind, TraceRing};

use crate::events::ContextEvent;
use crate::supervisor::EventSink;
use mobigate_mcl::events::EventKind;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Lifecycle trace ring capacity in events.
const TRACE_CAPACITY: usize = 1024;

/// Runtime telemetry switches, carried on `ServerConfig { telemetry }`.
#[derive(Clone, Debug, Default)]
pub struct TelemetryConfig {
    /// Master switch. Off by default: the disabled path allocates nothing
    /// and costs one `Option` branch per instrumented operation.
    pub enabled: bool,
    /// Thresholds of the load-event watchers.
    pub bridge: BridgeConfig,
}

impl TelemetryConfig {
    /// An enabled config with default sizing — the common opt-in.
    pub fn enabled() -> Self {
        TelemetryConfig {
            enabled: true,
            ..Default::default()
        }
    }
}

/// Thresholds of the load-event watchers. Rates count over one-second
/// windows, each opened by the first charge after the previous one
/// closed; a rate watcher fires on the charge that reaches its threshold
/// and re-arms when a window closes below it or a whole window passes
/// with no charge.
#[derive(Clone, Debug)]
pub struct BridgeConfig {
    /// Raises load events (only meaningful with telemetry enabled).
    pub enabled: bool,
    /// `CHANNEL_CONGESTED` when a post lifts one channel's buffered bytes
    /// to this mark. A stream raises it at most once per second; a channel
    /// that raised it re-arms at half the mark, and one whose crossing fell
    /// inside that second stays armed, so a later post while it is still
    /// at the mark raises it once the second has passed.
    pub queue_high_water_bytes: u64,
    /// `HIGH_DROP_RATE` when a stream drops this many messages within
    /// one second.
    pub drop_rate_per_sec: u64,
    /// `HIGH_FAULT_RATE` when a stream faults this many times within one
    /// second.
    pub fault_rate_per_sec: u64,
    /// `BYTE_BUDGET_EXCEEDED` when a session's cumulative ingress bytes
    /// exceed this budget. `None` disables the watcher.
    pub session_byte_budget: Option<u64>,
    /// `OVERLOAD` when admission control rejects this many of a stream's
    /// posts within one second — the signal that load shedding should
    /// engage downstream of the bucket.
    pub admission_rejects_per_sec: u64,
}

impl Default for BridgeConfig {
    fn default() -> Self {
        BridgeConfig {
            enabled: true,
            queue_high_water_bytes: 4 << 20,
            drop_rate_per_sec: 1_000,
            fault_rate_per_sec: 50,
            session_byte_budget: None,
            admission_rejects_per_sec: 1_000,
        }
    }
}

/// The armed watchers: their thresholds and where their events go.
struct Watch {
    cfg: BridgeConfig,
    sink: EventSink,
}

/// The observability plane's root object (one per server).
pub struct Telemetry {
    epoch: Instant,
    registry: MetricsRegistry,
    trace: TraceRing,
    /// `None` when no load event is watched.
    watch: Option<Watch>,
}

impl Telemetry {
    /// Builds the plane with no load-event watchers. Callers gate on
    /// `TelemetryConfig::enabled` themselves (the server builds `None`
    /// when disabled).
    pub fn new() -> Arc<Self> {
        Self::build(None)
    }

    /// Builds the plane with the load-event watchers of `cfg` armed: their
    /// events are published through `sink`.
    pub(crate) fn watching(cfg: BridgeConfig, sink: EventSink) -> Arc<Self> {
        Self::build(Some(Watch { cfg, sink }))
    }

    fn build(watch: Option<Watch>) -> Arc<Self> {
        Arc::new(Telemetry {
            epoch: Instant::now(),
            registry: MetricsRegistry::new(),
            trace: TraceRing::new(TRACE_CAPACITY),
            watch,
        })
    }

    /// Monotonic nanoseconds since this plane came up — the timestamp
    /// base of every trace event.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The per-stream metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The lifecycle trace ring.
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Records one lifecycle trace event, stamped now.
    pub fn trace_event(
        &self,
        kind: TraceKind,
        stream: Option<&str>,
        instance: Option<&str>,
        detail: impl Into<String>,
    ) {
        self.trace
            .record(self.now_ns(), kind, stream, instance, detail);
    }

    /// JSONL export of the surviving trace events.
    pub fn export_trace_jsonl(&self) -> String {
        self.trace.export_jsonl()
    }

    /// Registers (or re-fetches) stream metrics for `key` and returns a
    /// probe queues and tasks can record through. Load events it raises
    /// target `stream`, the event identity of the stream keyed `key`.
    pub fn probe_for(self: &Arc<Self>, key: &str, stream: &str) -> QueueProbe {
        QueueProbe {
            telemetry: self.clone(),
            stream: self.registry.register(key),
            key: Arc::from(key),
            target: Arc::from(stream),
        }
    }
}

/// The hot-path recording handle: one per instrumented stream, cloned
/// into each of its queues and streamlet tasks. It counts no message: the
/// queues do. It samples histograms, counts ingress bytes and faults,
/// appends a trace event per drop and, with the watchers armed, charges
/// drops and faults to rate windows.
#[derive(Clone)]
pub struct QueueProbe {
    pub telemetry: Arc<Telemetry>,
    pub stream: Arc<StreamMetrics>,
    /// The registry key (session/stream ID) — names trace events.
    pub key: Arc<str>,
    /// The stream name load events are targeted at.
    pub target: Arc<str>,
}

impl std::fmt::Debug for QueueProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueProbe")
            .field("key", &self.key)
            .finish()
    }
}

/// Histograms sample 1 in this many operations: an instrumented post or
/// process pays one relaxed increment of a sampling tick instead of two
/// clock reads.
pub const TIMING_SAMPLE: u64 = 64;

impl QueueProbe {
    /// Returns true when this operation should pay for wall-clock timing
    /// (1 in [`TIMING_SAMPLE`] calls from `site`). The gate is one relaxed
    /// increment of the site's own tick.
    #[inline]
    pub fn sample_timing(&self, site: TimingSite) -> bool {
        self.stream.timing_ticks[site as usize].fetch_add(1, Ordering::Relaxed)
            & (TIMING_SAMPLE - 1)
            == 0
    }

    /// The `ticket`-th message admitted into a queue (`len` payload
    /// bytes), under the queue's lock. The size histogram samples the
    /// queue's first admission and every [`TIMING_SAMPLE`]th after it, so
    /// an admit touches no shared counter.
    #[inline]
    pub fn on_admit(&self, len: usize, ticket: u64) {
        if ticket & (TIMING_SAMPLE - 1) == 1 {
            self.stream.msg_bytes.record(len as u64);
        }
    }

    /// Wall time of one post call (ns).
    #[inline]
    pub fn on_post_ns(&self, ns: u64) {
        self.stream.post_ns.record(ns);
    }

    /// One `take_batch` handed out `n` messages: the batch-length
    /// histogram is sampled.
    #[inline]
    pub fn on_batch(&self, n: usize) {
        if self.sample_timing(TimingSite::Batch) {
            self.stream.batch_len.record(n as u64);
        }
    }

    /// `n` messages dropped for `reason` on queue `queue`, which has
    /// counted them — appends one trace event, and charges the drop (and,
    /// for admission rejects, the admission) rate window.
    pub fn on_drop(&self, queue: &str, reason: DropReason, n: u64) {
        self.telemetry.trace_event(
            TraceKind::Drop,
            Some(&self.key),
            None,
            format!("{}x{} on {}", reason.name(), n, queue),
        );
        if let Some(w) = &self.telemetry.watch {
            let (rate, kind) = (&self.stream.drop_rate, EventKind::HighDropRate);
            self.charge(rate, n, w.cfg.drop_rate_per_sec, kind);
            if reason == DropReason::Admission {
                let (rate, kind) = (&self.stream.admission_rate, EventKind::Overload);
                self.charge(rate, n, w.cfg.admission_rejects_per_sec, kind);
            }
        }
    }

    /// Wall time of one streamlet `process`/`process_batch` call (ns).
    #[inline]
    pub fn on_process_ns(&self, ns: u64) {
        self.stream.process_ns.record(ns);
    }

    /// Ingress bytes injected into the stream. The add that takes them
    /// past the session byte budget raises `BYTE_BUDGET_EXCEEDED`; only
    /// one add can, so it fires once.
    #[inline]
    pub fn on_bytes_in(&self, n: u64) {
        let before = self.stream.bytes_in.fetch_add(n, Ordering::Relaxed);
        let budget = self
            .telemetry
            .watch
            .as_ref()
            .and_then(|w| w.cfg.session_byte_budget);
        if budget.is_some_and(|b| before <= b && before.saturating_add(n) > b) {
            self.raise(EventKind::ByteBudgetExceeded);
        }
    }

    /// One execution-plane fault attributed to this stream; charges the
    /// fault rate window.
    #[inline]
    pub fn on_fault(&self) {
        self.stream.faults.fetch_add(1, Ordering::Relaxed);
        if let Some(w) = &self.telemetry.watch {
            let (rate, kind) = (&self.stream.fault_rate, EventKind::HighFaultRate);
            self.charge(rate, 1, w.cfg.fault_rate_per_sec, kind);
        }
    }

    /// Claims this stream's `CHANNEL_CONGESTED` for a post that left a
    /// channel at its congestion mark: true at most once per second per
    /// stream. Congestion that moves from channel to channel as a burst
    /// flows down the stream is one condition, not one event per hop;
    /// congestion that persists raises one event each second. Called under
    /// the channel's state lock, so it takes no lock itself.
    pub(crate) fn claim_congestion(&self) -> bool {
        let now = self.telemetry.now_ns();
        let due = &self.stream.congestion_due_ns;
        let at = due.load(Ordering::Relaxed);
        now >= at
            && due
                .compare_exchange(
                    at,
                    now + RATE_WINDOW_NS,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok()
    }

    /// Raises the `CHANNEL_CONGESTED` a post claimed.
    pub(crate) fn on_congested(&self) {
        self.raise(EventKind::ChannelCongested);
    }

    /// Charges `n` to `window`; raises `kind` on its firing edge.
    fn charge(&self, window: &Mutex<RateWindow>, n: u64, threshold: u64, kind: EventKind) {
        if window.lock().charge(self.telemetry.now_ns(), n, threshold) {
            self.raise(kind);
        }
    }

    /// The buffered bytes at which a channel raises `CHANNEL_CONGESTED`:
    /// `usize::MAX`, which no channel reaches, when no watcher is armed.
    pub(crate) fn congestion_mark(&self) -> usize {
        self.telemetry.watch.as_ref().map_or(usize::MAX, |w| {
            usize::try_from(w.cfg.queue_high_water_bytes).unwrap_or(usize::MAX)
        })
    }

    /// Publishes `kind`, targeted at this probe's stream, from the
    /// supervisor thread.
    fn raise(&self, kind: EventKind) {
        if let Some(w) = &self.telemetry.watch {
            w.sink.publish(ContextEvent::targeted(kind, &*self.target));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One message on a one-in-flight session: post, two batch fetches
    /// (its input and the egress), process — four sampled calls, which
    /// divides the period. Each histogram must still get its own 1-in-N
    /// share.
    #[test]
    fn each_histogram_samples_its_own_share() {
        let probe = Telemetry::new().probe_for("s", "s");
        let cycles = 64 * TIMING_SAMPLE;
        for _ in 0..cycles {
            if probe.sample_timing(TimingSite::Post) {
                probe.on_post_ns(1);
            }
            probe.on_batch(1);
            probe.on_batch(1);
            if probe.sample_timing(TimingSite::Process) {
                probe.on_process_ns(1);
            }
        }
        let m = &probe.stream;
        let want = cycles / TIMING_SAMPLE;
        for (name, h, per_cycle) in [
            ("post_ns", &m.post_ns, 1),
            ("batch_len", &m.batch_len, 2),
            ("process_ns", &m.process_ns, 1),
        ] {
            assert_eq!(h.snapshot().count, per_cycle * want, "{name}");
        }
    }

    /// Every channel of a stream shares one claim: a second crossing within
    /// the second is refused, wherever it happens, and the claim opens
    /// again once the second has passed.
    #[test]
    fn congestion_claims_once_per_second_per_stream() {
        let telemetry = Telemetry::new();
        let (ingress, interior) = (telemetry.probe_for("s", "s"), telemetry.probe_for("s", "s"));
        let other = telemetry.probe_for("t", "t");
        assert!(ingress.claim_congestion());
        assert!(
            !interior.claim_congestion(),
            "one claim per stream per second"
        );
        assert!(!ingress.claim_congestion());
        assert!(other.claim_congestion(), "streams claim independently");
        let due = ingress.stream.congestion_due_ns.load(Ordering::Relaxed);
        assert!(due >= RATE_WINDOW_NS && due <= telemetry.now_ns() + RATE_WINDOW_NS);
        // Move the stream's second into the past.
        ingress.stream.congestion_due_ns.store(0, Ordering::Relaxed);
        assert!(interior.claim_congestion());
    }
}
