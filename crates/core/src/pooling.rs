//! Streamlet pooling (§3.3.4).
//!
//! "MobiGATE explicitly supports a mechanism called streamlet pooling that
//! makes it easier to manage large numbers of streamlets … Streamlet
//! pooling is applicable to streamlets that are considered Stateless …
//! it is also less expensive to reuse pooled streamlet instances than to
//! frequently create and destroy instances."
//!
//! The pool keeps idle `Box<dyn StreamletLogic>` objects keyed by library.
//! `checkout` is a pool *hit* when an idle instance exists, otherwise a
//! *miss* that falls through to the [`crate::StreamletDirectory`] factory.
//! Returned instances are `reset()` before reuse.

use crate::directory::StreamletDirectory;
use crate::error::CoreError;
use crate::streamlet::StreamletLogic;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Pool behaviour statistics (ablation bench material).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolingStats {
    /// Checkouts served from the pool.
    pub hits: u64,
    /// Checkouts that had to create a fresh instance.
    pub misses: u64,
    /// Instances returned to the pool.
    pub returned: u64,
    /// Instances discarded because the per-key cap was reached.
    pub discarded: u64,
}

/// A pool of idle stateless streamlet logic instances.
pub struct StreamletPool {
    idle: Mutex<HashMap<String, Vec<Box<dyn StreamletLogic>>>>,
    /// Maximum idle instances retained per library key.
    max_idle_per_key: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    returned: AtomicU64,
    discarded: AtomicU64,
    /// When false, the pool always misses — the ablation baseline.
    enabled: bool,
}

impl Default for StreamletPool {
    fn default() -> Self {
        Self::new(64)
    }
}

impl StreamletPool {
    /// A pool retaining at most `max_idle_per_key` idle instances per
    /// library key.
    pub fn new(max_idle_per_key: usize) -> Self {
        StreamletPool {
            idle: Mutex::new(HashMap::new()),
            max_idle_per_key,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            returned: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            enabled: true,
        }
    }

    /// A pool that never reuses instances (every checkout is a miss) — the
    /// "no pooling" ablation baseline.
    pub fn disabled() -> Self {
        StreamletPool {
            enabled: false,
            ..Self::new(0)
        }
    }

    /// Obtains a logic instance for `library`: pooled if available,
    /// freshly created via `directory` otherwise.
    pub fn checkout(
        &self,
        library: &str,
        directory: &StreamletDirectory,
    ) -> Result<Box<dyn StreamletLogic>, CoreError> {
        if self.enabled {
            if let Some(instance) = self.idle.lock().get_mut(library).and_then(|v| v.pop()) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(instance);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        directory.create(library)
    }

    /// Returns a (stateless) instance to the pool; the instance is
    /// `reset()` first. Stateful instances must not be checked in — that is
    /// the caller's contract, enforced by
    /// [`crate::stream::RunningStream`].
    pub fn checkin(&self, library: &str, mut instance: Box<dyn StreamletLogic>) {
        if !self.enabled {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return;
        }
        instance.reset();
        let mut idle = self.idle.lock();
        // Look the key up before `entry`, which would copy it: every
        // checkin after a key's first finds its slot.
        let slot = match idle.get_mut(library) {
            Some(slot) => slot,
            None => idle.entry(library.to_string()).or_default(),
        };
        if slot.len() >= self.max_idle_per_key {
            self.discarded.fetch_add(1, Ordering::Relaxed);
        } else {
            slot.push(instance);
            self.returned.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Idle instances currently held for `library`.
    pub fn idle_count(&self, library: &str) -> usize {
        self.idle.lock().get(library).map_or(0, Vec::len)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> PoolingStats {
        PoolingStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            returned: self.returned.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streamlet::StreamletCtx;
    use mobigate_mime::MimeMessage;

    struct Counting {
        processed: u64,
        reset_calls: u64,
    }
    impl StreamletLogic for Counting {
        fn process(&mut self, _: MimeMessage, _: &mut StreamletCtx) -> Result<(), CoreError> {
            self.processed += 1;
            Ok(())
        }
        fn reset(&mut self) {
            self.reset_calls += 1;
            self.processed = 0;
        }
    }

    fn dir() -> StreamletDirectory {
        let d = StreamletDirectory::new();
        d.register("c", "counting", || {
            Box::new(Counting {
                processed: 0,
                reset_calls: 0,
            })
        });
        d
    }

    #[test]
    fn miss_then_hit() {
        let d = dir();
        let p = StreamletPool::new(8);
        let inst = p.checkout("c", &d).unwrap();
        assert_eq!(p.stats().misses, 1);
        p.checkin("c", inst);
        assert_eq!(p.idle_count("c"), 1);
        let _inst2 = p.checkout("c", &d).unwrap();
        let s = p.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(p.idle_count("c"), 0);
    }

    #[test]
    fn checkin_resets_instance() {
        let d = dir();
        let p = StreamletPool::new(8);
        let mut inst = p.checkout("c", &d).unwrap();
        let mut ctx = StreamletCtx::new("t", None);
        inst.process(MimeMessage::text("x"), &mut ctx).unwrap();
        p.checkin("c", inst);
        // The pooled instance was reset; we can't downcast easily, but the
        // returned counter proves the path ran.
        assert_eq!(p.stats().returned, 1);
    }

    #[test]
    fn cap_discards_overflow() {
        let d = dir();
        let p = StreamletPool::new(1);
        let a = p.checkout("c", &d).unwrap();
        let b = p.checkout("c", &d).unwrap();
        p.checkin("c", a);
        p.checkin("c", b);
        assert_eq!(p.idle_count("c"), 1);
        assert_eq!(p.stats().discarded, 1);
    }

    #[test]
    fn disabled_pool_always_misses() {
        let d = dir();
        let p = StreamletPool::disabled();
        let a = p.checkout("c", &d).unwrap();
        p.checkin("c", a);
        assert_eq!(p.idle_count("c"), 0);
        let _b = p.checkout("c", &d).unwrap();
        let s = p.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 2);
        assert_eq!(s.discarded, 1);
    }

    #[test]
    fn unknown_library_propagates_error() {
        let d = StreamletDirectory::new();
        let p = StreamletPool::new(4);
        assert!(p.checkout("ghost", &d).is_err());
    }
}
