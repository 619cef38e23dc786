//! The observability plane — hot-path telemetry, lifecycle tracing, and
//! the metrics→event bridge (ROADMAP item 5's measurement half).
//!
//! Everything hangs off one [`Telemetry`] object created by the server
//! when `ServerConfig { telemetry }` enables it:
//!
//! * a [`MetricsRegistry`] of per-stream [`StreamMetrics`] (relaxed
//!   counters + log₂ [`hist::Histogram`]s) fed by [`QueueProbe`]s
//!   installed on every channel of an instrumented stream — a scrape
//!   snapshots the streams outside the registry lock, so it never stalls
//!   deploys;
//! * a bounded overwrite-oldest [`TraceRing`] of lifecycle
//!   [`trace::TraceEvent`]s (deploy, reconfigure, fuse/fission, fault,
//!   quarantine, session spawn/teardown, drops) with monotonic
//!   nanosecond timestamps, exportable as JSONL;
//! * a [`bridge::MetricsBridge`] that polls measured state and publishes
//!   real `ContextEvent`s (CHANNEL_CONGESTED, HIGH_DROP_RATE,
//!   HIGH_FAULT_RATE, BYTE_BUDGET_EXCEEDED) into the `EventManager`, so
//!   MCL `when (...)` rules react to what the gateway *measures*.
//!
//! When telemetry is disabled nothing here is allocated: the runtime
//! threads an `Option<Arc<Telemetry>>` that stays `None`, and every hot
//! path pays exactly one branch on it.

pub mod bridge;
pub mod hist;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use bridge::BridgeConfig;
pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{DropReason, MetricsRegistry, StreamMetrics, StreamMetricsSnapshot, TimingSite};
pub use snapshot::MetricsSnapshot;
pub use trace::{TraceEvent, TraceKind, TraceRing};

use parking_lot::Mutex;
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
    /// Threshold watcher configuration for the metrics→event bridge.
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

/// The observability plane's root object (one per server).
pub struct Telemetry {
    epoch: Instant,
    registry: MetricsRegistry,
    trace: TraceRing,
    bridge: Mutex<Option<bridge::MetricsBridge>>,
}

impl Telemetry {
    /// Builds the plane. Callers gate on `TelemetryConfig::enabled`
    /// themselves (the server builds `None` when disabled).
    pub fn new() -> Arc<Self> {
        Arc::new(Telemetry {
            epoch: Instant::now(),
            registry: MetricsRegistry::new(),
            trace: TraceRing::new(TRACE_CAPACITY),
            bridge: Mutex::new(None),
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
    /// probe queues and tasks can record through.
    pub fn probe_for(self: &Arc<Self>, key: &str) -> QueueProbe {
        QueueProbe {
            telemetry: self.clone(),
            stream: self.registry.register(key),
            key: Arc::from(key),
        }
    }

    /// Stops the bridge thread, if one is running. Idempotent.
    pub fn stop_bridge(&self) {
        if let Some(b) = self.bridge.lock().take() {
            b.stop();
        }
    }

    pub(crate) fn install_bridge(&self, b: bridge::MetricsBridge) {
        let prev = self.bridge.lock().replace(b);
        if let Some(prev) = prev {
            prev.stop();
        }
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        self.stop_bridge();
    }
}

/// The hot-path recording handle: one per instrumented stream, cloned
/// into each of its queues and streamlet tasks. All methods are relaxed
/// atomics on [`StreamMetrics`] plus (for drops) one trace-ring append.
#[derive(Clone)]
pub struct QueueProbe {
    pub telemetry: Arc<Telemetry>,
    pub stream: Arc<StreamMetrics>,
    /// The registry key (session/stream ID) — names trace events.
    pub key: Arc<str>,
}

impl std::fmt::Debug for QueueProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueProbe")
            .field("key", &self.key)
            .finish()
    }
}

/// Latency histograms time 1 in this many operations. Counters stay
/// exact; only the `Instant::now()` pairs are sampled, so the per-op cost
/// of an instrumented post/process is a couple of relaxed increments
/// instead of two clock reads.
pub const TIMING_SAMPLE: u64 = 64;

impl QueueProbe {
    /// Returns true when this operation should pay for wall-clock timing
    /// (1 in [`TIMING_SAMPLE`] calls from `site`). The gate is one relaxed
    /// increment of the site's own tick.
    #[inline]
    pub fn sample_timing(&self, site: TimingSite) -> bool {
        self.stream.timing_ticks[site as usize].fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            & (TIMING_SAMPLE - 1)
            == 0
    }

    /// One message admitted into a queue (`len` payload bytes). The
    /// counter is exact; the size histogram samples 1 in
    /// [`TIMING_SAMPLE`], gated by the counter value itself so an admit
    /// costs exactly one relaxed increment.
    #[inline]
    pub fn on_admit(&self, len: usize) {
        let n = self
            .stream
            .posted
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if n & (TIMING_SAMPLE - 1) == 0 {
            self.stream.msg_bytes.record(len as u64);
        }
    }

    /// Wall time of one post call (ns).
    #[inline]
    pub fn on_post_ns(&self, ns: u64) {
        self.stream.post_ns.record(ns);
    }

    /// `n` messages fetched (single fetch: `n = 1`).
    #[inline]
    pub fn on_fetch(&self, n: u64) {
        self.stream
            .fetched
            .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    /// One `take_batch` handed out `n` messages. The fetched counter is
    /// exact; the batch-length histogram is sampled.
    #[inline]
    pub fn on_batch(&self, n: usize) {
        self.on_fetch(n as u64);
        if self.sample_timing(TimingSite::Batch) {
            self.stream.batch_len.record(n as u64);
        }
    }

    /// `n` messages dropped for `reason` on queue `queue` — charges the
    /// reason counter and appends one trace event.
    pub fn on_drop(&self, queue: &str, reason: DropReason, n: u64) {
        self.stream
            .drop_for(reason)
            .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        self.telemetry.trace_event(
            TraceKind::Drop,
            Some(&self.key),
            None,
            format!("{}x{} on {}", reason.name(), n, queue),
        );
    }

    /// Wall time of one streamlet `process`/`process_batch` call (ns).
    #[inline]
    pub fn on_process_ns(&self, ns: u64) {
        self.stream.process_ns.record(ns);
    }

    /// Ingress bytes injected into the stream (byte-budget watcher feed).
    #[inline]
    pub fn on_bytes_in(&self, n: u64) {
        self.stream
            .bytes_in
            .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    /// One execution-plane fault attributed to this stream.
    #[inline]
    pub fn on_fault(&self) {
        self.stream
            .faults
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
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
        let probe = Telemetry::new().probe_for("s");
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
}
