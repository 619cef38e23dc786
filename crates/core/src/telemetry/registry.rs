//! Per-stream metrics, registered in a session-keyed registry.
//!
//! Every deployed stream/session owns one [`StreamMetrics`], shared
//! (`Arc`) with its queues and streamlet tasks, so the hot path never
//! touches the registry itself. Its message counters are read from the
//! channels: a snapshot sums each channel's own [`QueueStats`]. The
//! registry is one map behind one mutex; a scrape clones the handles
//! under the lock and snapshots them outside it, so it never stalls
//! deploys for longer than one copy of the handles. A retiring stream's
//! final snapshot is merged into a `retired` accumulator, so global
//! totals stay monotonic across session churn. Lock order: registry →
//! channel list → channel monitor.

use super::hist::{Histogram, HistogramSnapshot};
use crate::queue::{MessageQueue, QueueStats};
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

/// Length of a watched rate's window, nanoseconds.
pub(crate) const RATE_WINDOW_NS: u64 = 1_000_000_000;

/// One watched rate: a count over a one-second window that opens at the
/// first charge after the previous one closed, so no timer resets it.
/// The watcher fires on the charge that lifts a window's count to the
/// threshold, then stays latched until a window closes below the
/// threshold or a whole window passes without a charge.
#[derive(Debug, Default)]
pub(crate) struct RateWindow {
    start_ns: u64,
    count: u64,
    latched: bool,
}

impl RateWindow {
    /// Charges `n` at `now_ns`; true on the firing edge.
    pub(crate) fn charge(&mut self, now_ns: u64, n: u64, threshold: u64) -> bool {
        let elapsed = now_ns.saturating_sub(self.start_ns);
        if self.count == 0 || elapsed >= RATE_WINDOW_NS {
            if self.count < threshold || elapsed >= 2 * RATE_WINDOW_NS {
                self.latched = false;
            }
            self.start_ns = now_ns;
            self.count = 0;
        }
        self.count = self.count.saturating_add(n);
        let fire = !self.latched && self.count >= threshold;
        self.latched |= fire;
        fire
    }
}

/// A stream's channels: the message counters a snapshot sums.
#[derive(Default)]
struct Channels {
    live: Vec<Arc<MessageQueue>>,
    /// Final counters of channels no longer listed: dropped by the
    /// stream, or folded in when the stream retired.
    gone: QueueStats,
}

impl Channels {
    /// Folds the counters of the channels `keep` rejects into `gone` and
    /// unlists them.
    fn fold_unless(&mut self, keep: impl Fn(&Arc<MessageQueue>) -> bool) {
        let gone = &mut self.gone;
        self.live.retain(|q| {
            let kept = keep(q);
            if !kept {
                *gone = *gone + q.stats();
            }
            kept
        });
    }
}

/// Metrics for one stream/session.
#[derive(Default)]
pub struct StreamMetrics {
    /// Every channel created with this stream's probe.
    channels: Mutex<Channels>,
    // Counters with no channel counterpart.
    pub bytes_in: AtomicU64,
    pub faults: AtomicU64,
    /// Internal tick counters driving the 1-in-N sampling gate
    /// ([`super::QueueProbe::sample_timing`]), one per [`TimingSite`];
    /// not part of snapshots.
    pub timing_ticks: [AtomicU64; TimingSite::COUNT],
    /// Load-event watcher state ([`super::BridgeConfig`]); not part of
    /// snapshots. `congestion_due_ns` is the earliest telemetry time at
    /// which the stream may raise `CHANNEL_CONGESTED` again.
    pub(crate) congestion_due_ns: AtomicU64,
    pub(crate) drop_rate: Mutex<RateWindow>,
    pub(crate) fault_rate: Mutex<RateWindow>,
    pub(crate) admission_rate: Mutex<RateWindow>,
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
    /// Lists a channel whose counters this stream's snapshots sum. Folds
    /// the final counters of listed channels nothing else holds any more,
    /// so a stream that keeps rewiring keeps a bounded list.
    pub(crate) fn add_channel(&self, q: Arc<MessageQueue>) {
        let mut c = self.channels.lock();
        c.fold_unless(|q| Arc::strong_count(q) > 1);
        c.live.push(q);
    }

    /// The stream's message counters: its channels' summed.
    fn counters(&self) -> QueueStats {
        let c = self.channels.lock();
        c.live.iter().fold(c.gone, |sum, q| sum + q.stats())
    }

    /// A point-in-time copy: each channel's counters are read in one
    /// hold of its monitor.
    pub fn snapshot(&self) -> StreamMetricsSnapshot {
        let c = self.counters();
        StreamMetricsSnapshot {
            posted: c.posted,
            fetched: c.fetched,
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            dropped_full: c.dropped_full,
            dropped_closed: c.dropped_closed,
            dropped_break: c.dropped_break,
            dropped_expired: c.dropped_expired,
            dropped_shed: c.dropped_shed,
            dropped_admission: c.dropped_admission,
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
    /// Merged final snapshots of the streams that have retired; locked
    /// only while `live` is held.
    retired: Mutex<StreamMetricsSnapshot>,
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

    /// Retires `key`: removes it from the live map and merges its final
    /// snapshot into the retired accumulator. Idempotent.
    pub fn deregister(&self, key: &str) {
        // Merged under the live lock, which `totals` also reads `retired`
        // under: a total sees the stream live or retired, never neither.
        // A total that cloned the handle before this reads the counters
        // folded into it, so it sees them once too.
        // Forgetting the channels breaks the channel → probe → metrics →
        // channel cycle; later snapshots read their folded counters.
        let mut live = self.live.lock();
        if let Some(m) = live.remove(key) {
            m.channels.lock().fold_unless(|_| false);
            self.retired.lock().merge(&m.snapshot());
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
            (self.retired.lock().clone(), handles)
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
    use crate::pool::{MessagePool, PayloadMode};
    use crate::queue::{FetchResult, QueueConfig};
    use mobigate_mime::MimeMessage;
    use std::time::Duration;

    /// A channel listed with `m`, carrying `n` posts.
    fn channel_with_posts(m: &StreamMetrics, n: usize) -> Arc<MessageQueue> {
        let pool = Arc::new(MessagePool::new());
        let q = MessageQueue::new(QueueConfig::default(), pool.clone());
        m.add_channel(q.clone());
        for _ in 0..n {
            q.post(pool.wrap(MimeMessage::text("x"), PayloadMode::Value, 1));
        }
        q
    }

    #[test]
    fn register_get_deregister() {
        let reg = MetricsRegistry::new();
        let m = reg.register("app-1");
        let _q = channel_with_posts(&m, 3);
        assert_eq!(reg.live_count(), 1);
        assert!(Arc::ptr_eq(&reg.register("app-1"), &m));
        assert_eq!(reg.per_stream()[0].1.posted, 3);
        reg.deregister("app-1");
        assert!(reg.per_stream().is_empty());
        assert_eq!(reg.live_count(), 0);
        // Retired totals keep the counts.
        assert_eq!(reg.totals().posted, 3);
        reg.deregister("app-1"); // idempotent
        assert_eq!(reg.totals().posted, 3);
    }

    #[test]
    fn rate_window_fires_on_the_crossing_charge_only() {
        let mut w = RateWindow::default();
        let t0 = 5 * RATE_WINDOW_NS;
        assert!(!w.charge(t0, 2, 3));
        assert!(w.charge(t0 + 1, 1, 3), "the charge reaching 3 fires");
        assert!(!w.charge(t0 + 2, 10, 3), "latched within the window");
        // A standing rate keeps the latch across windows.
        assert!(!w.charge(t0 + RATE_WINDOW_NS, 3, 3));
        assert!(!w.charge(t0 + 2 * RATE_WINDOW_NS, 3, 3));
    }

    #[test]
    fn rate_window_rearms_after_a_quiet_window() {
        // A window that closes below the threshold re-arms.
        let mut w = RateWindow::default();
        assert!(w.charge(0, 3, 3));
        assert!(!w.charge(RATE_WINDOW_NS, 1, 3));
        assert!(!w.charge(RATE_WINDOW_NS + 1, 1, 3));
        assert!(w.charge(2 * RATE_WINDOW_NS, 3, 3));
        // So does a whole window without a charge.
        let mut w = RateWindow::default();
        assert!(w.charge(0, 3, 3));
        assert!(!w.charge(RATE_WINDOW_NS + RATE_WINDOW_NS / 2, 3, 3));
        assert!(w.charge(4 * RATE_WINDOW_NS, 3, 3));
        // Charges spread over two windows never reach the threshold.
        let mut w = RateWindow::default();
        assert!(!w.charge(0, 2, 3));
        assert!(!w.charge(RATE_WINDOW_NS, 2, 3));
    }

    #[test]
    fn totals_span_live_and_retired() {
        let reg = MetricsRegistry::new();
        let a = reg.register("a");
        let b = reg.register("b");
        let qa = channel_with_posts(&a, 5);
        a.msg_bytes.record(100);
        let _qb = channel_with_posts(&b, 7);
        reg.deregister("a");
        let t = reg.totals();
        assert_eq!(t.posted, 12);
        assert_eq!(t.msg_bytes.count, 1);
        assert_eq!(reg.per_stream().len(), 1);
        // A retired stream's channel is forgotten: traffic after the
        // retirement is not counted, and the list no longer holds it.
        assert!(matches!(qa.try_fetch(), FetchResult::Msg(_)));
        assert_eq!(reg.totals().fetched, 0);
        assert_eq!(Arc::strong_count(&qa), 1);
    }

    /// A channel the stream dropped keeps its counts: listing the next
    /// channel folds them in and forgets it.
    #[test]
    fn dropped_channels_fold_into_the_stream() {
        let reg = MetricsRegistry::new();
        let m = reg.register("s");
        let q = channel_with_posts(&m, 4);
        assert!(matches!(q.fetch(Duration::ZERO), FetchResult::Msg(_)));
        drop(q);
        let _next = channel_with_posts(&m, 1);
        assert_eq!(m.channels.lock().live.len(), 1);
        let s = m.snapshot();
        assert_eq!((s.posted, s.fetched), (5, 1));
    }
}
