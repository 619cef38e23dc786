//! Lock-free log₂-bucketed histograms for hot-path latencies and sizes.
//!
//! A recorded value `v` lands in bucket `⌈log₂(v+1)⌉`: bucket 0 holds the
//! value 0, bucket `i` (i ≥ 1) holds `[2^(i-1), 2^i)`. With 64 buckets the
//! full `u64` range is covered, so `record` never branches on overflow.
//! Everything is relaxed atomics — recorders never contend with each other
//! or with snapshots, which is what lets the probe sit on the queue post
//! and streamlet process paths.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets — covers the full `u64` range.
pub const BUCKETS: usize = 64;

/// A lock-free log₂ histogram: per-bucket counts plus total count and sum.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Index of the bucket a value falls into (`⌈log₂(v+1)⌉`, capped at 63 so
/// the top bucket absorbs `[2^62, u64::MAX]`).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`2^i - 1`); `u64::MAX` for the last.
pub fn bucket_bound(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation. Three relaxed increments, no branches
    /// beyond the bucket computation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy. Buckets are read individually (relaxed), so a
    /// snapshot taken during concurrent recording may be mid-update between
    /// `count` and a bucket — totals are reconciled from the buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (i, b) in self.buckets.iter().enumerate() {
            buckets[i] = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`].
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Merges another snapshot into this one bucket-by-bucket.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for i in 0..BUCKETS {
            self.buckets[i] = self.buckets[i].saturating_add(other.buckets[i]);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total observations according to the buckets (authoritative under
    /// concurrent snapshots).
    pub fn bucket_total(&self) -> u64 {
        self.buckets.iter().fold(0u64, |a, b| a.saturating_add(*b))
    }

    /// Mean observed value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` (0.0..=1.0) — a
    /// log₂-granular estimate, exact enough for threshold dashboards.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let total = self.bucket_total();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(*n);
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64 - 1 + 1 - 1);
    }

    #[test]
    fn bucket_bounds_nest() {
        // Every value's bucket bound is >= the value and the previous
        // bucket's bound is < the value.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40] {
            let i = bucket_index(v);
            assert!(bucket_bound(i) >= v, "bound({i}) < {v}");
            if i > 0 {
                assert!(bucket_bound(i - 1) < v);
            }
        }
    }

    #[test]
    fn record_and_quantiles() {
        let h = Histogram::new();
        for v in 0..100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.bucket_total(), 100);
        assert_eq!(s.sum, (0..100).sum::<u64>());
        assert!((s.mean() - 49.5).abs() < 1e-9);
        // p50 of 0..100 is <= 63 (bucket bound of values around 50).
        assert!(s.quantile_bound(0.5) >= 49);
        assert!(s.quantile_bound(1.0) >= 99);
    }

    #[test]
    fn merge_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(5);
        b.record(5);
        b.record(1000);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[bucket_index(5)], 2);
        assert_eq!(s.buckets[bucket_index(1000)], 1);
    }
}
