//! The memory plane's buffer pool: recycled body slabs in size classes.
//!
//! The gateway's job is to shuttle multimedia payloads through streamlet
//! chains (§3.3); at 10k+ concurrent sessions the dominant steady-state
//! cost is no longer scheduling but per-message heap churn. This module
//! removes it at the source: ingress checks a slab out of a
//! [`BufferPool`], parses the wire body straight into it, and freezes it
//! into a refcounted [`Bytes`] whose **last-drop hook returns the slab to
//! the pool automatically** (see the vendored `bytes` crate's
//! `SlabRecycler`). Delivery, drop, shed, and dead-lettering all recycle
//! through the same path — there is no manual return call to forget.
//!
//! Ownership rules (the memory plane's contract):
//!
//! * a [`PooledBuf`] is exclusively owned until frozen; after
//!   [`PooledBuf::freeze`] the bytes are immutable and shared,
//! * bodies at or under the inline threshold ([`bytes::INLINE_CAP`])
//!   never touch the pool — they live in the `Bytes` handle itself,
//! * recycled buffers are classified by the capacity they *return* with,
//!   not the class they left from, so a slab that grew inside a
//!   streamlet is promoted to the matching larger class.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use bytes::{Bytes, SlabRecycler, INLINE_CAP};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Slab capacities, smallest to largest. Checkout rounds the size hint up
/// to the next class; returns round the capacity *down* (promotion).
pub const SIZE_CLASSES: [usize; 7] = [
    256,
    1 << 10,
    4 << 10,
    16 << 10,
    64 << 10,
    256 << 10,
    1 << 20,
];

/// Returns above this capacity are freed instead of pooled, bounding the
/// worst-case memory a pathological payload can pin.
const MAX_POOLED_CAPACITY: usize = 2 << 20;

/// Lock-free snapshot of the pool's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Checkouts served from a recycled slab.
    pub hits: u64,
    /// Checkouts that had to allocate a fresh slab.
    pub misses: u64,
    /// Recycled slabs whose capacity had to grow to fit the size hint.
    pub resizes: u64,
    /// Slabs returned and retained for reuse.
    pub recycled: u64,
    /// Returns freed instead of retained (class full or capacity out of
    /// range).
    pub discarded: u64,
    /// Slabs currently retained across all classes.
    pub population: u64,
    /// Slabs checked out and not yet returned (live message bodies).
    pub outstanding: u64,
}

/// A pool of recycled body slabs (see module docs).
pub struct BufferPool {
    /// One stack of retained slabs per size class.
    classes: Vec<Mutex<Vec<Vec<u8>>>>,
    max_per_class: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    resizes: AtomicU64,
    recycled: AtomicU64,
    discarded: AtomicU64,
    population: AtomicU64,
    outstanding: AtomicU64,
}

/// Index of the smallest class whose capacity covers `size_hint`
/// (saturating at the largest class for oversized hints).
fn class_up(size_hint: usize) -> usize {
    SIZE_CLASSES
        .iter()
        .position(|&c| c >= size_hint)
        .unwrap_or(SIZE_CLASSES.len() - 1)
}

/// Index of the largest class at or under `capacity`, or `None` when the
/// capacity is below the smallest class.
fn class_down(capacity: usize) -> Option<usize> {
    SIZE_CLASSES.iter().rposition(|&c| c <= capacity)
}

impl BufferPool {
    /// Builds a pool retaining at most `max_per_class` slabs per class.
    pub fn new(max_per_class: usize) -> Arc<Self> {
        Arc::new(BufferPool {
            classes: SIZE_CLASSES
                .iter()
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            max_per_class: max_per_class.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            resizes: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            population: AtomicU64::new(0),
            outstanding: AtomicU64::new(0),
        })
    }

    /// Checks a cleared slab out of the pool, recycled when available,
    /// freshly allocated otherwise.
    pub fn checkout(self: &Arc<Self>, size_hint: usize) -> PooledBuf {
        let class = class_up(size_hint);
        let reused = self.classes[class].lock().pop();
        let buf = match reused {
            Some(mut buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.population.fetch_sub(1, Ordering::Relaxed);
                buf.clear();
                if buf.capacity() < size_hint {
                    self.resizes.fetch_add(1, Ordering::Relaxed);
                    buf.reserve(size_hint - buf.len());
                }
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(SIZE_CLASSES[class].max(size_hint))
            }
        };
        self.outstanding.fetch_add(1, Ordering::Relaxed);
        PooledBuf {
            buf,
            pool: self.clone(),
        }
    }

    /// Copies `data` into pool-backed [`Bytes`]: inline below the
    /// threshold (the slab is recycled immediately), a recycler-backed
    /// slab otherwise. This is the ingress body hook for
    /// [`mobigate_mime::MimeMessage::from_wire_with`].
    pub fn checkout_bytes(self: &Arc<Self>, data: &[u8]) -> Bytes {
        if data.len() <= INLINE_CAP {
            return Bytes::copy_from_slice(data);
        }
        let mut buf = self.checkout(data.len());
        buf.extend_from_slice(data);
        buf.freeze()
    }

    /// Current counters.
    pub fn stats(&self) -> BufferPoolStats {
        BufferPoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            resizes: self.resizes.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
            population: self.population.load(Ordering::Relaxed),
            outstanding: self.outstanding.load(Ordering::Relaxed),
        }
    }
}

impl SlabRecycler for BufferPool {
    /// Takes a spent slab back. Classification is by returned capacity
    /// (size-class promotion); out-of-range or over-cap returns are
    /// freed.
    fn recycle(&self, buf: Vec<u8>) {
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        let cap = buf.capacity();
        let class = match class_down(cap) {
            Some(c) if cap <= MAX_POOLED_CAPACITY => c,
            _ => {
                self.discarded.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let mut stack = self.classes[class].lock();
        if stack.len() >= self.max_per_class {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return;
        }
        stack.push(buf);
        self.recycled.fetch_add(1, Ordering::Relaxed);
        self.population.fetch_add(1, Ordering::Relaxed);
    }
}

/// A slab checked out of the pool: exclusively owned, mutable, and
/// returned automatically — via [`PooledBuf::freeze`]'s last-drop hook
/// once shared, or straight back to the pool if dropped unfrozen.
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: Arc<BufferPool>,
}

impl PooledBuf {
    /// Appends bytes to the slab.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Freezes into immutable, shareable [`Bytes`]. Sub-threshold
    /// contents collapse to the inline form and the slab returns to the
    /// pool right away; larger contents keep the slab and return it when
    /// the last clone drops.
    pub fn freeze(mut self) -> Bytes {
        let buf = std::mem::take(&mut self.buf);
        let pool = self.pool.clone();
        std::mem::forget(self);
        if buf.len() <= INLINE_CAP {
            let bytes = Bytes::copy_from_slice(&buf);
            pool.recycle(buf);
            bytes
        } else {
            Bytes::from_vec_with_recycler(buf, pool)
        }
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        self.pool.recycle(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_miss_then_hit() {
        let pool = BufferPool::new(8);
        let b = pool.checkout(1000);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().outstanding, 1);
        drop(b);
        let s = pool.stats();
        assert_eq!(s.recycled, 1);
        assert_eq!(s.population, 1);
        assert_eq!(s.outstanding, 0);
        let _b2 = pool.checkout(900);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().population, 0);
    }

    #[test]
    fn freeze_recycles_on_last_clone_drop() {
        let pool = BufferPool::new(8);
        let mut b = pool.checkout(200);
        b.extend_from_slice(&[7u8; 200]);
        let bytes = b.freeze();
        let clone = bytes.clone();
        assert_eq!(pool.stats().outstanding, 1, "slab pinned by live clones");
        drop(bytes);
        assert_eq!(pool.stats().outstanding, 1);
        drop(clone);
        let s = pool.stats();
        assert_eq!(s.outstanding, 0);
        assert_eq!(s.recycled, 1);
    }

    #[test]
    fn small_freeze_goes_inline_and_recycles_immediately() {
        let pool = BufferPool::new(8);
        let mut b = pool.checkout(16);
        b.extend_from_slice(&[1u8; 16]);
        let bytes = b.freeze();
        assert_eq!(pool.stats().outstanding, 0, "inline freeze returns slab");
        assert_eq!(pool.stats().recycled, 1);
        assert_eq!(bytes.len(), 16);
    }

    #[test]
    fn returns_classify_by_grown_capacity() {
        let pool = BufferPool::new(8);
        let mut b = pool.checkout(256);
        // Grow well past the checkout class.
        b.extend_from_slice(&vec![0u8; 70 << 10]);
        drop(b.freeze());
        // The promoted slab now serves 64K checkouts from the hit path.
        let _big = pool.checkout(60 << 10);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn oversized_returns_are_discarded() {
        let pool = BufferPool::new(8);
        let mut b = pool.checkout(3 << 20);
        b.extend_from_slice(&vec![0u8; 3 << 20]);
        drop(b.freeze());
        let s = pool.stats();
        assert_eq!(s.discarded, 1);
        assert_eq!(s.population, 0);
    }

    #[test]
    fn class_cap_bounds_population() {
        let pool = BufferPool::new(2);
        let bufs: Vec<_> = (0..4).map(|_| pool.checkout(1024)).collect();
        drop(bufs);
        let s = pool.stats();
        assert_eq!(s.population, 2);
        assert_eq!(s.discarded, 2);
    }

    #[test]
    fn checkout_bytes_round_trips_content() {
        let pool = BufferPool::new(8);
        let data: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        let bytes = pool.checkout_bytes(&data);
        assert_eq!(bytes, data);
        assert_eq!(pool.stats().outstanding, 1);
        drop(bytes);
        assert_eq!(pool.stats().outstanding, 0);
    }
}
