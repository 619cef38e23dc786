//! Per-stream hot-path metrics, registered in a session-keyed registry.
//!
//! Every deployed stream/session owns one [`StreamMetrics`]: relaxed
//! atomic counters plus log₂ histograms, shared (`Arc`) with the queues
//! and streamlet tasks that feed it, so the hot path never touches the
//! registry itself. The registry is one map behind one mutex; a scrape
//! clones the handles under the lock and snapshots them outside it, so
//! it never holds the lock across thousands of snapshots and never
//! stalls deploys for longer than one copy of the handles. When a stream
//! retires, its counters and histograms are folded into a `retired`
//! accumulator so global totals stay monotonic across session churn.

use super::hist::{Histogram, HistogramSnapshot};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Why a message was dropped — the reason-coded split of the old
/// all-purpose `dropped_full` bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Admission wait exhausted `T` while the queue stayed full (Fig 6-9).
    Full,
    /// Queue closed (sink/source detached or stream ending).
    Closed,
    /// Discarded by `BB_BREAK`/`BK_BREAK` semantics.
    Break,
    /// Expired out of a `pending_out` overflow before space appeared.
    Expired,
    /// Explicitly shed by the overload relief valve.
    Shed,
    /// Rejected at ingress by token-bucket admission control.
    Admission,
}

impl DropReason {
    pub fn name(self) -> &'static str {
        match self {
            DropReason::Full => "full",
            DropReason::Closed => "closed",
            DropReason::Break => "break",
            DropReason::Expired => "expired",
            DropReason::Shed => "shed",
            DropReason::Admission => "admission",
        }
    }
}

/// The sampled histograms, each gated by its own tick. A shared tick
/// aliases: with one message in flight per session every message makes
/// the same calls in the same order, and when their number divides the
/// sampling period the gate keeps landing on the same call site, starving
/// the others.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimingSite {
    /// `post_ns`.
    Post,
    /// `batch_len`.
    Batch,
    /// `process_ns`.
    Process,
}

impl TimingSite {
    /// Number of sites.
    pub const COUNT: usize = 3;
}

/// Hot-path metrics for one stream/session (or the retired accumulator).
#[derive(Default)]
pub struct StreamMetrics {
    // Counters.
    pub posted: AtomicU64,
    pub fetched: AtomicU64,
    pub bytes_in: AtomicU64,
    pub dropped_full: AtomicU64,
    pub dropped_closed: AtomicU64,
    pub dropped_break: AtomicU64,
    pub dropped_expired: AtomicU64,
    pub dropped_shed: AtomicU64,
    pub dropped_admission: AtomicU64,
    pub faults: AtomicU64,
    /// Internal tick counters driving the 1-in-N sampling gate
    /// ([`super::QueueProbe::sample_timing`]), one per [`TimingSite`];
    /// not part of snapshots.
    pub timing_ticks: [AtomicU64; TimingSite::COUNT],
    // Histograms.
    /// Wall time of one `post`/`post_all` call, nanoseconds.
    pub post_ns: Histogram,
    /// Admitted message payload sizes, bytes.
    pub msg_bytes: Histogram,
    /// Messages handed out per `take_batch` call.
    pub batch_len: Histogram,
    /// Wall time of one streamlet `process`/`process_batch` call, ns.
    pub process_ns: Histogram,
}

impl StreamMetrics {
    /// Charges one drop to the right reason counter.
    #[inline]
    pub fn drop_for(&self, reason: DropReason) -> &AtomicU64 {
        match reason {
            DropReason::Full => &self.dropped_full,
            DropReason::Closed => &self.dropped_closed,
            DropReason::Break => &self.dropped_break,
            DropReason::Expired => &self.dropped_expired,
            DropReason::Shed => &self.dropped_shed,
            DropReason::Admission => &self.dropped_admission,
        }
    }

    /// Sum of every drop reason.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_full.load(Ordering::Relaxed)
            + self.dropped_closed.load(Ordering::Relaxed)
            + self.dropped_break.load(Ordering::Relaxed)
            + self.dropped_expired.load(Ordering::Relaxed)
            + self.dropped_shed.load(Ordering::Relaxed)
            + self.dropped_admission.load(Ordering::Relaxed)
    }

    /// Folds `other` into `self` (retirement accumulation).
    pub fn absorb(&self, other: &StreamMetrics) {
        for (dst, src) in [
            (&self.posted, &other.posted),
            (&self.fetched, &other.fetched),
            (&self.bytes_in, &other.bytes_in),
            (&self.dropped_full, &other.dropped_full),
            (&self.dropped_closed, &other.dropped_closed),
            (&self.dropped_break, &other.dropped_break),
            (&self.dropped_expired, &other.dropped_expired),
            (&self.dropped_shed, &other.dropped_shed),
            (&self.dropped_admission, &other.dropped_admission),
            (&self.faults, &other.faults),
        ] {
            dst.fetch_add(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.post_ns.absorb(&other.post_ns);
        self.msg_bytes.absorb(&other.msg_bytes);
        self.batch_len.absorb(&other.batch_len);
        self.process_ns.absorb(&other.process_ns);
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> StreamMetricsSnapshot {
        StreamMetricsSnapshot {
            posted: self.posted.load(Ordering::Relaxed),
            fetched: self.fetched.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            dropped_full: self.dropped_full.load(Ordering::Relaxed),
            dropped_closed: self.dropped_closed.load(Ordering::Relaxed),
            dropped_break: self.dropped_break.load(Ordering::Relaxed),
            dropped_expired: self.dropped_expired.load(Ordering::Relaxed),
            dropped_shed: self.dropped_shed.load(Ordering::Relaxed),
            dropped_admission: self.dropped_admission.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
            post_ns: self.post_ns.snapshot(),
            msg_bytes: self.msg_bytes.snapshot(),
            batch_len: self.batch_len.snapshot(),
            process_ns: self.process_ns.snapshot(),
        }
    }
}

/// Owned copy of [`StreamMetrics`].
#[derive(Clone, Debug, Default)]
pub struct StreamMetricsSnapshot {
    pub posted: u64,
    pub fetched: u64,
    pub bytes_in: u64,
    pub dropped_full: u64,
    pub dropped_closed: u64,
    pub dropped_break: u64,
    pub dropped_expired: u64,
    pub dropped_shed: u64,
    pub dropped_admission: u64,
    pub faults: u64,
    pub post_ns: HistogramSnapshot,
    pub msg_bytes: HistogramSnapshot,
    pub batch_len: HistogramSnapshot,
    pub process_ns: HistogramSnapshot,
}

impl StreamMetricsSnapshot {
    pub fn dropped_total(&self) -> u64 {
        self.dropped_full
            + self.dropped_closed
            + self.dropped_break
            + self.dropped_expired
            + self.dropped_shed
            + self.dropped_admission
    }

    /// Merges another snapshot into this one (aggregation).
    pub fn merge(&mut self, other: &StreamMetricsSnapshot) {
        self.posted += other.posted;
        self.fetched += other.fetched;
        self.bytes_in += other.bytes_in;
        self.dropped_full += other.dropped_full;
        self.dropped_closed += other.dropped_closed;
        self.dropped_break += other.dropped_break;
        self.dropped_expired += other.dropped_expired;
        self.dropped_shed += other.dropped_shed;
        self.dropped_admission += other.dropped_admission;
        self.faults += other.faults;
        self.post_ns.merge(&other.post_ns);
        self.msg_bytes.merge(&other.msg_bytes);
        self.batch_len.merge(&other.batch_len);
        self.process_ns.merge(&other.process_ns);
    }
}

/// Session-keyed registry of live [`StreamMetrics`].
#[derive(Default)]
pub struct MetricsRegistry {
    live: Mutex<HashMap<String, Arc<StreamMetrics>>>,
    /// Folded metrics of streams that have retired.
    retired: StreamMetrics,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-fetches) the metrics handle for `key`.
    pub fn register(&self, key: &str) -> Arc<StreamMetrics> {
        self.live.lock().entry(key.to_string()).or_default().clone()
    }

    /// Looks up a live handle without registering.
    pub fn get(&self, key: &str) -> Option<Arc<StreamMetrics>> {
        self.live.lock().get(key).cloned()
    }

    /// Retires `key`: removes it from the live map and folds its final
    /// counters into the retired accumulator. Idempotent.
    pub fn deregister(&self, key: &str) {
        // Folded under the live lock, which `totals` also reads `retired`
        // under: a total sees the stream live or retired, never neither.
        let mut live = self.live.lock();
        if let Some(m) = live.remove(key) {
            self.retired.absorb(&m);
        }
    }

    /// Number of live entries.
    pub fn live_count(&self) -> usize {
        self.live.lock().len()
    }

    /// Snapshot of every live stream's metrics, sorted by key. The
    /// handles are cloned under the lock and snapshotted outside it.
    pub fn per_stream(&self) -> Vec<(String, StreamMetricsSnapshot)> {
        let live: Vec<(String, Arc<StreamMetrics>)> = self
            .live
            .lock()
            .iter()
            .map(|(k, m)| (k.clone(), m.clone()))
            .collect();
        let mut out: Vec<_> = live.into_iter().map(|(k, m)| (k, m.snapshot())).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Global totals: retired accumulator plus every live stream.
    pub fn totals(&self) -> StreamMetricsSnapshot {
        let (mut total, live) = {
            let live = self.live.lock();
            let handles: Vec<Arc<StreamMetrics>> = live.values().cloned().collect();
            (self.retired.snapshot(), handles)
        };
        for m in live {
            total.merge(&m.snapshot());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_get_deregister() {
        let reg = MetricsRegistry::new();
        let m = reg.register("app-1");
        m.posted.fetch_add(3, Ordering::Relaxed);
        assert_eq!(reg.live_count(), 1);
        assert!(Arc::ptr_eq(&reg.register("app-1"), &m));
        assert_eq!(reg.get("app-1").unwrap().posted.load(Ordering::Relaxed), 3);
        reg.deregister("app-1");
        assert!(reg.get("app-1").is_none());
        assert_eq!(reg.live_count(), 0);
        // Retired totals keep the counts.
        assert_eq!(reg.totals().posted, 3);
        reg.deregister("app-1"); // idempotent
        assert_eq!(reg.totals().posted, 3);
    }

    #[test]
    fn totals_span_live_and_retired() {
        let reg = MetricsRegistry::new();
        let a = reg.register("a");
        let b = reg.register("b");
        a.posted.fetch_add(5, Ordering::Relaxed);
        a.msg_bytes.record(100);
        b.posted.fetch_add(7, Ordering::Relaxed);
        reg.deregister("a");
        let t = reg.totals();
        assert_eq!(t.posted, 12);
        assert_eq!(t.msg_bytes.count, 1);
        assert_eq!(reg.per_stream().len(), 1);
    }
}
