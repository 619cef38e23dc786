//! The unified metrics snapshot and its Prometheus-style renderer.
//!
//! [`MetricsSnapshot`] supersedes reading the scattered `*Stats` structs
//! one by one: the server assembles stream totals (live + retired),
//! per-stream breakdowns, the message/streamlet pools, the event
//! manager, the supervisor, and trace-ring counters into one coherent
//! point-in-time value. `render_prometheus` emits the text exposition
//! format (`# HELP`/`# TYPE`, cumulative `_bucket{le=...}` histograms)
//! so any scraper — or a test — can consume it.

use super::hist::{bucket_bound, HistogramSnapshot, BUCKETS};
use super::registry::StreamMetricsSnapshot;
use crate::events::EventStats;
use crate::pool::PoolStats;
use crate::pooling::PoolingStats;
use crate::supervisor::{DeadLetterStats, SupervisorStats};

/// One coherent point-in-time view of everything the gateway measures.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Stream-plane totals: retired accumulator plus every live stream.
    pub totals: StreamMetricsSnapshot,
    /// Per-live-stream breakdown, sorted by session key.
    pub per_stream: Vec<(String, StreamMetricsSnapshot)>,
    /// Live streams currently registered.
    pub live_streams: usize,
    /// Stateless streamlet-instance pool (§3.3.4).
    pub streamlet_pool: PoolingStats,
    /// Central message pool.
    pub msg_pool: PoolStats,
    /// Event manager counters.
    pub events: EventStats,
    /// Supervisor counters.
    pub supervisor: SupervisorStats,
    /// Dead-letter queue counters.
    pub dead_letters: DeadLetterStats,
    /// Lifecycle trace events ever recorded.
    pub trace_recorded: u64,
    /// Lifecycle trace events lost to ring overwrite.
    pub trace_overwritten: u64,
    /// Memory-plane buffer pool counters, when the pool is enabled.
    pub buf_pool: Option<crate::membuf::BufferPoolStats>,
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);

        counter(
            &mut out,
            "mobigate_posted_total",
            "Messages admitted into stream queues.",
            self.totals.posted,
        );
        counter(
            &mut out,
            "mobigate_fetched_total",
            "Messages fetched from stream queues.",
            self.totals.fetched,
        );
        counter(
            &mut out,
            "mobigate_bytes_in_total",
            "Ingress payload bytes injected into streams.",
            self.totals.bytes_in,
        );

        help_type(
            &mut out,
            "mobigate_dropped_total",
            "Messages dropped, by reason.",
            "counter",
        );
        for (reason, v) in [
            ("full", self.totals.dropped_full),
            ("closed", self.totals.dropped_closed),
            ("break", self.totals.dropped_break),
            ("expired", self.totals.dropped_expired),
            ("shed", self.totals.dropped_shed),
            ("admission", self.totals.dropped_admission),
        ] {
            out.push_str(&format!(
                "mobigate_dropped_total{{reason=\"{reason}\"}} {v}\n"
            ));
        }

        counter(
            &mut out,
            "mobigate_faults_total",
            "Execution-plane faults attributed to streams.",
            self.totals.faults,
        );
        gauge(
            &mut out,
            "mobigate_live_streams",
            "Streams currently registered for metrics.",
            self.live_streams as u64,
        );

        histogram(
            &mut out,
            "mobigate_post_ns",
            "Wall time of one queue post call (ns).",
            &self.totals.post_ns,
        );
        histogram(
            &mut out,
            "mobigate_msg_bytes",
            "Admitted message payload sizes (bytes).",
            &self.totals.msg_bytes,
        );
        histogram(
            &mut out,
            "mobigate_batch_len",
            "Messages handed out per take_batch call.",
            &self.totals.batch_len,
        );
        histogram(
            &mut out,
            "mobigate_process_ns",
            "Wall time of one streamlet process call (ns).",
            &self.totals.process_ns,
        );

        counter(
            &mut out,
            "mobigate_pool_hits_total",
            "Streamlet checkouts served from the pool.",
            self.streamlet_pool.hits,
        );
        counter(
            &mut out,
            "mobigate_pool_misses_total",
            "Streamlet checkouts that built a fresh instance.",
            self.streamlet_pool.misses,
        );
        counter(
            &mut out,
            "mobigate_pool_returned_total",
            "Streamlet instances returned to the pool.",
            self.streamlet_pool.returned,
        );
        counter(
            &mut out,
            "mobigate_pool_discarded_total",
            "Streamlet instances discarded at the per-key cap.",
            self.streamlet_pool.discarded,
        );

        gauge(
            &mut out,
            "mobigate_msg_pool_resident",
            "Messages resident in the central pool.",
            self.msg_pool.resident as u64,
        );
        gauge(
            &mut out,
            "mobigate_msg_pool_resident_bytes",
            "Body bytes resident in the central pool.",
            self.msg_pool.resident_bytes as u64,
        );
        counter(
            &mut out,
            "mobigate_msg_pool_inserted_total",
            "Lifetime message-pool insertions.",
            self.msg_pool.inserted,
        );
        counter(
            &mut out,
            "mobigate_msg_pool_evicted_total",
            "Lifetime message-pool evictions.",
            self.msg_pool.evicted,
        );

        counter(
            &mut out,
            "mobigate_events_published_total",
            "Context events handed to multicast.",
            self.events.published,
        );
        counter(
            &mut out,
            "mobigate_events_delivered_total",
            "Individual event deliveries to subscribers.",
            self.events.delivered,
        );
        counter(
            &mut out,
            "mobigate_events_filtered_total",
            "Deliveries suppressed by source filtering.",
            self.events.filtered,
        );

        let (s, d) = (&self.supervisor, &self.dead_letters);
        counter(
            &mut out,
            "mobigate_supervisor_faults_total",
            "Faults handled by the supervisor.",
            s.faults,
        );
        counter(
            &mut out,
            "mobigate_supervisor_restarts_total",
            "Successful supervised restarts.",
            s.restarts,
        );
        counter(
            &mut out,
            "mobigate_supervisor_quarantined_total",
            "Instances quarantined.",
            s.quarantined,
        );
        counter(
            &mut out,
            "mobigate_supervisor_dead_lettered_total",
            "Poison messages evicted to the dead-letter queue.",
            s.dead_lettered,
        );
        counter(
            &mut out,
            "mobigate_supervisor_breaker_trips_total",
            "Circuit-breaker trips (faults parked behind an open breaker).",
            s.breaker_trips,
        );
        counter(
            &mut out,
            "mobigate_dead_letters_enqueued_total",
            "Messages ever enqueued to the dead-letter queue.",
            d.enqueued,
        );
        counter(
            &mut out,
            "mobigate_dead_letters_discarded_total",
            "Dead letters dropped at capacity.",
            d.discarded,
        );

        if let Some(bp) = &self.buf_pool {
            for (name, help, v) in [
                (
                    "mobigate_membuf_hits_total",
                    "Buffer-pool checkouts served from a recycled slab.",
                    bp.hits,
                ),
                (
                    "mobigate_membuf_misses_total",
                    "Buffer-pool checkouts that allocated a fresh slab.",
                    bp.misses,
                ),
                (
                    "mobigate_membuf_resizes_total",
                    "Recycled slabs grown to fit a checkout's size hint.",
                    bp.resizes,
                ),
                (
                    "mobigate_membuf_recycled_total",
                    "Slabs returned to the pool and retained.",
                    bp.recycled,
                ),
                (
                    "mobigate_membuf_discarded_total",
                    "Slab returns freed instead of retained.",
                    bp.discarded,
                ),
            ] {
                counter(&mut out, name, help, v);
            }
            help_type(
                &mut out,
                "mobigate_membuf_population",
                "Slabs currently retained in the pool.",
                "gauge",
            );
            out.push_str(&format!("mobigate_membuf_population {}\n", bp.population));
            help_type(
                &mut out,
                "mobigate_membuf_outstanding",
                "Slabs checked out and not yet returned.",
                "gauge",
            );
            out.push_str(&format!("mobigate_membuf_outstanding {}\n", bp.outstanding));
        }

        counter(
            &mut out,
            "mobigate_trace_recorded_total",
            "Lifecycle trace events recorded.",
            self.trace_recorded,
        );
        counter(
            &mut out,
            "mobigate_trace_overwritten_total",
            "Lifecycle trace events lost to ring overwrite.",
            self.trace_overwritten,
        );

        out
    }
}

fn help_type(out: &mut String, name: &str, help: &str, ty: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {ty}\n"));
}

fn counter(out: &mut String, name: &str, help: &str, v: u64) {
    help_type(out, name, help, "counter");
    out.push_str(&format!("{name} {v}\n"));
}

fn gauge(out: &mut String, name: &str, help: &str, v: u64) {
    help_type(out, name, help, "gauge");
    out.push_str(&format!("{name} {v}\n"));
}

/// Renders one log₂ histogram as cumulative `_bucket{le=...}` lines plus
/// `_sum`/`_count`. Empty buckets past the last occupied one are elided
/// (the `+Inf` bucket always closes the series).
fn histogram(out: &mut String, name: &str, help: &str, h: &HistogramSnapshot) {
    help_type(out, name, help, "histogram");
    let total = h.bucket_total();
    let last = (0..BUCKETS).rev().find(|&i| h.buckets[i] != 0);
    let mut cum = 0u64;
    if let Some(last) = last {
        for i in 0..=last {
            cum = cum.saturating_add(h.buckets[i]);
            out.push_str(&format!(
                "{name}_bucket{{le=\"{}\"}} {cum}\n",
                bucket_bound(i)
            ));
        }
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {total}\n"));
    out.push_str(&format!("{name}_sum {}\n", h.sum));
    out.push_str(&format!("{name}_count {total}\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_counters_and_histograms() {
        let mut snap = MetricsSnapshot::default();
        snap.totals.posted = 10;
        snap.totals.dropped_break = 2;
        snap.totals.post_ns.buckets[3] = 4;
        snap.totals.post_ns.count = 4;
        snap.totals.post_ns.sum = 20;
        snap.supervisor = SupervisorStats {
            faults: 1,
            restarts: 1,
            quarantined: 0,
            dead_lettered: 0,
            breaker_trips: 0,
        };
        let text = snap.render_prometheus();
        assert!(text.contains("# TYPE mobigate_posted_total counter"));
        assert!(text.contains("mobigate_posted_total 10"));
        assert!(text.contains("mobigate_dropped_total{reason=\"break\"} 2"));
        assert!(text.contains("mobigate_post_ns_bucket{le=\"7\"} 4"));
        assert!(text.contains("mobigate_post_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("mobigate_post_ns_sum 20"));
        assert!(text.contains("mobigate_supervisor_faults_total 1"));
        // Every exposition line is either a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "{line}"
            );
        }
    }
}
