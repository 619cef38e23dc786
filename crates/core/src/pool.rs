//! The centralized message store enabling **pass-by-reference** (§6.7).
//!
//! "The MobiGATE infrastructure employs a centralized message storage
//! management, while utilizing memory references to pass messages between
//! streamlets. In particular, the system maintains all incoming messages by
//! storing them in a message pool and passing them between different
//! streamlets by their associated message identifier."
//!
//! Entries are reference-counted: a producer that fans a message out to
//! `n` channels inserts it with `n` references; each consumer's
//! [`MessagePool::take_ref`] hands back the message (sharing the underlying
//! [`bytes::Bytes`] buffer — no copy) and drops one reference; the entry is
//! evicted at zero. [`PayloadMode::Value`] exists to reproduce the paper's
//! pass-by-value baseline (Figure 7-3): each hop deep-copies the body.
//!
//! # One lock, lock-free statistics
//!
//! The store is one id-keyed map behind one mutex, as in the paper's
//! centralized pool. [`MessagePool::stats`] reads atomic counters that are
//! only written under that mutex, so it takes no lock; `resident` is
//! derived as `inserted - evicted`, so the lifetime invariant
//! `resident + evicted == inserted` holds by construction even while
//! producers and consumers race.

// Hot-path modules must surface failures as `CoreError`s, never abort.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::overload::PriorityClass;
use bytes::Bytes;
use mobigate_mime::MimeMessage;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of a pooled message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(pub u64);

/// How channels carry message payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PayloadMode {
    /// Messages live in the [`MessagePool`]; channels carry [`MessageId`]s
    /// (the paper's production configuration, §6.7).
    #[default]
    Reference,
    /// Channels carry deep copies of the whole message — the Figure 7-3
    /// baseline. Every hop pays a full body copy.
    Value,
}

/// What actually travels through a [`crate::queue::MessageQueue`].
#[derive(Debug)]
pub enum Payload {
    /// A pool reference, carrying the message's wire length taken when it
    /// was inserted, so a channel accounts its buffer without a pool
    /// lookup.
    Ref {
        /// The pooled message.
        id: MessageId,
        /// [`MimeMessage::wire_len`] of the message at insert.
        len: usize,
    },
    /// An owned copy.
    Value(Box<MimeMessage>),
}

impl Payload {
    /// Size in bytes for channel-buffer accounting: the message's wire
    /// length. Constant over the payload's life.
    pub fn buffered_len(&self) -> usize {
        match self {
            Payload::Ref { len, .. } => *len,
            Payload::Value(m) => m.wire_len(),
        }
    }
}

/// Hashes the pool's sequential `u64` ids: one multiply by the golden
/// ratio and a fold of the high half into the low, so both the bucket
/// bits (low) and the tag bits (high) a hash table reads vary with every
/// id.
#[derive(Default)]
struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    // Only `u64` keys are hashed; other input folds in a byte at a time.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        let x = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 32);
    }
}

/// A map keyed by sequential ids, hashed by [`IdHasher`].
type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

#[derive(Debug)]
struct Entry {
    msg: MimeMessage,
    refs: u32,
}

/// Aggregate pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Messages currently resident.
    pub resident: usize,
    /// Total body bytes currently resident.
    pub resident_bytes: usize,
    /// Lifetime insertions.
    pub inserted: u64,
    /// Lifetime evictions (refcount reached zero).
    pub evicted: u64,
}

/// The centralized, thread-safe message store.
///
/// The atomics are only written while holding `slots`, so they always agree
/// with the map they describe; [`MessagePool::stats`] reads them without
/// locking.
#[derive(Debug, Default)]
pub struct MessagePool {
    slots: Mutex<IdMap<Entry>>,
    next_id: AtomicU64,
    inserted: AtomicU64,
    evicted: AtomicU64,
    resident_bytes: AtomicU64,
}

impl MessagePool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    fn evict(&self, slots: &mut IdMap<Entry>, id: u64) -> Option<MimeMessage> {
        let e = slots.remove(&id)?;
        self.evicted.fetch_add(1, Ordering::Release);
        self.resident_bytes
            .fetch_sub(e.msg.body.len() as u64, Ordering::Release);
        Some(e.msg)
    }

    /// Stores a message with `refs` outstanding references and returns its
    /// id. `refs == 0` is clamped to 1.
    pub fn insert(&self, msg: MimeMessage, refs: u32) -> MessageId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let body_len = msg.body.len() as u64;
        let mut slots = self.slots.lock();
        slots.insert(
            id,
            Entry {
                msg,
                refs: refs.max(1),
            },
        );
        self.inserted.fetch_add(1, Ordering::Release);
        self.resident_bytes.fetch_add(body_len, Ordering::Release);
        MessageId(id)
    }

    /// Stores a message for `refs` consumers and returns the payload that
    /// references it, its wire length taken now.
    pub(crate) fn insert_ref(&self, msg: MimeMessage, refs: u32) -> Payload {
        let len = msg.wire_len();
        Payload::Ref {
            id: self.insert(msg, refs),
            len,
        }
    }

    /// Adds `n` references to an existing entry (fan-out after insertion).
    /// Returns false when the id is unknown (already fully consumed).
    pub fn add_refs(&self, id: MessageId, n: u32) -> bool {
        let mut slots = self.slots.lock();
        match slots.get_mut(&id.0) {
            Some(e) => {
                e.refs += n;
                true
            }
            None => false,
        }
    }

    /// Reads the message *without* consuming a reference (stubs peeking at
    /// headers for routing do this). The returned message shares the pooled
    /// body buffer — no payload bytes are copied.
    pub fn peek(&self, id: MessageId) -> Option<MimeMessage> {
        self.slots.lock().get(&id.0).map(|e| e.msg.clone())
    }

    /// Reads just the body of a resident message as a shared [`Bytes`]
    /// handle — the cheapest way to inspect a payload without consuming a
    /// reference or touching the headers.
    pub fn peek_body(&self, id: MessageId) -> Option<Bytes> {
        self.slots.lock().get(&id.0).map(|e| e.msg.body.clone())
    }

    /// Body length of a resident message (buffer accounting).
    pub fn peek_len(&self, id: MessageId) -> Option<usize> {
        self.slots.lock().get(&id.0).map(|e| e.msg.wire_len())
    }

    /// Priority class of a resident message — feeds shedding without
    /// cloning the body handle or the headers, or building its type.
    pub(crate) fn peek_class(&self, id: MessageId) -> Option<PriorityClass> {
        self.slots
            .lock()
            .get(&id.0)
            .map(|e| PriorityClass::of_message(&e.msg))
    }

    /// Takes one reference: returns the message (body shared, not copied)
    /// and evicts the entry when this was the last reference.
    pub fn take_ref(&self, id: MessageId) -> Option<MimeMessage> {
        let mut slots = self.slots.lock();
        let entry = slots.get_mut(&id.0)?;
        entry.refs -= 1;
        if entry.refs == 0 {
            self.evict(&mut slots, id.0)
        } else {
            Some(entry.msg.clone())
        }
    }

    /// Drops one reference without reading (used when a queue discards a
    /// pending payload).
    pub fn drop_ref(&self, id: MessageId) {
        let mut slots = self.slots.lock();
        if let Some(entry) = slots.get_mut(&id.0) {
            entry.refs -= 1;
            if entry.refs == 0 {
                self.evict(&mut slots, id.0);
            }
        }
    }

    /// Current statistics snapshot, read without taking the lock.
    ///
    /// `evicted` is read before `inserted`: evictions strictly follow
    /// their insertion, so this ordering guarantees `inserted >= evicted`
    /// in the snapshot and `resident` (derived as the difference) never
    /// underflows, even mid-race. The lifetime invariant
    /// `resident + evicted == inserted` holds by construction.
    pub fn stats(&self) -> PoolStats {
        let evicted = self.evicted.load(Ordering::Acquire);
        let resident_bytes = self.resident_bytes.load(Ordering::Acquire);
        let inserted = self.inserted.load(Ordering::Acquire);
        PoolStats {
            resident: (inserted - evicted) as usize,
            resident_bytes: resident_bytes as usize,
            inserted,
            evicted,
        }
    }

    /// Wraps a message as a payload according to `mode`, for delivery to
    /// `fanout` consumers. In `Reference` mode the pool stores the message
    /// once; in `Value` mode each consumer gets an independent deep copy
    /// (this method returns the first; use [`MessagePool::wrap_copy`] for
    /// the rest).
    pub fn wrap(&self, msg: MimeMessage, mode: PayloadMode, fanout: u32) -> Payload {
        match mode {
            PayloadMode::Reference => self.insert_ref(msg, fanout),
            PayloadMode::Value => Payload::Value(Box::new(deep_copy(&msg))),
        }
    }

    /// An additional deep copy of a message for value-mode fan-out.
    pub fn wrap_copy(&self, msg: &MimeMessage) -> Payload {
        Payload::Value(Box::new(deep_copy(msg)))
    }

    /// Resolves a payload into an owned message, consuming its reference.
    pub fn resolve(&self, payload: Payload) -> Option<MimeMessage> {
        match payload {
            Payload::Ref { id, .. } => self.take_ref(id),
            Payload::Value(m) => Some(*m),
        }
    }

    /// Releases a payload without reading it.
    pub fn discard(&self, payload: Payload) {
        if let Payload::Ref { id, .. } = payload {
            self.drop_ref(id);
        }
    }
}

/// A genuine deep copy: header and body bytes memcpy'd into fresh
/// buffers (defeating `Headers` and `Bytes` sharing) — the cost Figure 7-3
/// measures. Exactly one copy each: straight into fresh storage, not via
/// an intermediate buffer.
pub fn deep_copy(msg: &MimeMessage) -> MimeMessage {
    // `Headers::clone` is a copy-on-write share (one refcount bump), which
    // is exactly what Figure 7-3's pass-by-value system did *not* have.
    MimeMessage {
        headers: msg.headers.deep_clone(),
        body: Bytes::copy_from_slice(&msg.body),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use mobigate_mime::MimeType;

    fn msg(n: usize) -> MimeMessage {
        MimeMessage::new(&MimeType::new("application", "octet-stream"), vec![7u8; n])
    }

    #[test]
    fn insert_take_evicts_at_zero() {
        let pool = MessagePool::new();
        let id = pool.insert(msg(10), 1);
        assert_eq!(pool.stats().resident, 1);
        let m = pool.take_ref(id).unwrap();
        assert_eq!(m.body.len(), 10);
        assert_eq!(pool.stats().resident, 0);
        assert_eq!(pool.stats().evicted, 1);
        assert!(pool.take_ref(id).is_none());
    }

    #[test]
    fn multi_ref_survives_until_last_take() {
        let pool = MessagePool::new();
        let id = pool.insert(msg(4), 3);
        assert!(pool.take_ref(id).is_some());
        assert!(pool.take_ref(id).is_some());
        assert_eq!(pool.stats().resident, 1);
        assert!(pool.take_ref(id).is_some());
        assert_eq!(pool.stats().resident, 0);
    }

    #[test]
    fn add_refs_extends_lifetime() {
        let pool = MessagePool::new();
        let id = pool.insert(msg(4), 1);
        assert!(pool.add_refs(id, 1));
        assert!(pool.take_ref(id).is_some());
        assert!(pool.take_ref(id).is_some());
        assert!(!pool.add_refs(id, 1), "fully consumed entries are gone");
    }

    #[test]
    fn take_shares_body_buffer() {
        // Pass-by-reference must not copy the body.
        let pool = MessagePool::new();
        let original = msg(1 << 20);
        let ptr = original.body.as_ptr();
        let id = pool.insert(original, 2);
        let a = pool.take_ref(id).unwrap();
        let b = pool.take_ref(id).unwrap();
        assert_eq!(a.body.as_ptr(), ptr);
        assert_eq!(b.body.as_ptr(), ptr);
    }

    #[test]
    fn deep_copy_detaches_buffer() {
        let m = msg(128);
        let c = deep_copy(&m);
        assert_eq!(c, m);
        assert_ne!(c.body.as_ptr(), m.body.as_ptr());
        assert!(!c.headers.shares_entries_with(&m.headers));
        assert_ne!(c.headers.as_wire().as_ptr(), m.headers.as_wire().as_ptr());
    }

    #[test]
    fn peek_does_not_consume() {
        let pool = MessagePool::new();
        let id = pool.insert(msg(5), 1);
        assert!(pool.peek(id).is_some());
        assert!(pool.peek(id).is_some());
        assert_eq!(pool.peek_len(id).unwrap(), msg(5).wire_len());
        assert!(pool.take_ref(id).is_some());
        assert!(pool.peek(id).is_none());
    }

    #[test]
    fn drop_ref_discards() {
        let pool = MessagePool::new();
        let id = pool.insert(msg(5), 2);
        pool.drop_ref(id);
        assert_eq!(pool.stats().resident, 1);
        pool.drop_ref(id);
        assert_eq!(pool.stats().resident, 0);
        // Dropping an unknown id is a no-op.
        pool.drop_ref(id);
    }

    #[test]
    fn wrap_and_resolve_reference_mode() {
        let pool = MessagePool::new();
        let p = pool.wrap(msg(9), PayloadMode::Reference, 1);
        assert!(matches!(p, Payload::Ref { .. }));
        let m = pool.resolve(p).unwrap();
        assert_eq!(m.body.len(), 9);
        assert_eq!(pool.stats().resident, 0);
    }

    #[test]
    fn wrap_and_resolve_value_mode() {
        let pool = MessagePool::new();
        let p = pool.wrap(msg(9), PayloadMode::Value, 1);
        assert!(matches!(p, Payload::Value(_)));
        assert_eq!(pool.stats().resident, 0, "value mode bypasses the pool");
        assert_eq!(pool.resolve(p).unwrap().body.len(), 9);
    }

    #[test]
    fn buffered_len_accounts_both_modes() {
        let pool = MessagePool::new();
        let m = msg(100);
        let expected = m.wire_len();
        let r = pool.wrap(m.clone(), PayloadMode::Reference, 1);
        assert_eq!(r.buffered_len(), expected);
        let v = pool.wrap_copy(&m);
        assert_eq!(v.buffered_len(), expected);
        pool.discard(r);
    }

    #[test]
    fn refs_zero_clamped_to_one() {
        let pool = MessagePool::new();
        let id = pool.insert(msg(1), 0);
        assert!(pool.take_ref(id).is_some());
        assert!(pool.take_ref(id).is_none());
    }

    #[test]
    fn concurrent_insert_take() {
        use std::sync::Arc;
        let pool = Arc::new(MessagePool::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    let id = pool.insert(msg(i % 64), 1);
                    assert!(pool.take_ref(id).is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.resident, 0);
        assert_eq!(stats.inserted, 4000);
        assert_eq!(stats.evicted, 4000);
    }

    #[test]
    fn added_ref_and_drop_ref_evict_once() {
        let pool = MessagePool::new();
        let id = pool.insert(msg(16), 2);
        assert!(pool.add_refs(id, 1));
        assert!(pool.take_ref(id).is_some());
        assert!(pool.take_ref(id).is_some());
        assert_eq!(pool.stats().resident, 1);
        pool.drop_ref(id);
        let stats = pool.stats();
        assert_eq!(stats.resident, 0);
        assert_eq!(stats.inserted, 1);
        assert_eq!(stats.evicted, 1);
    }

    #[test]
    fn peek_shares_body_buffer() {
        // Peeking must not copy payload bytes in pass-by-reference mode.
        let pool = MessagePool::new();
        let original = msg(4096);
        let ptr = original.body.as_ptr();
        let id = pool.insert(original, 1);
        let peeked = pool.peek(id).unwrap();
        assert_eq!(peeked.body.as_ptr(), ptr);
        let body = pool.peek_body(id).unwrap();
        assert_eq!(body.as_ptr(), ptr);
        assert_eq!(body.len(), 4096);
        pool.drop_ref(id);
        assert!(pool.peek_body(id).is_none());
    }

    #[test]
    fn stats_track_resident_bytes() {
        let pool = MessagePool::new();
        let a = pool.insert(msg(100), 1);
        let b = pool.insert(msg(50), 1);
        assert_eq!(pool.stats().resident_bytes, 150);
        pool.drop_ref(a);
        assert_eq!(pool.stats().resident_bytes, 50);
        pool.drop_ref(b);
        assert_eq!(pool.stats().resident_bytes, 0);
    }

    /// The accounting race lock-free stats must survive: concurrent
    /// `take_ref`/`drop_ref` on the *last* reference of many messages must
    /// never double-evict or leave `resident + evicted != inserted`.
    #[test]
    fn take_drop_race_keeps_accounting_consistent() {
        use std::sync::Arc;
        let pool = Arc::new(MessagePool::new());
        let ids: Arc<Vec<MessageId>> =
            Arc::new((0..2000).map(|_| pool.insert(msg(8), 2)).collect());
        let mut handles = Vec::new();
        for worker in 0..4 {
            let pool = pool.clone();
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                for id in ids.iter() {
                    if worker % 2 == 0 {
                        pool.take_ref(*id);
                    } else {
                        pool.drop_ref(*id);
                    }
                    // Mid-race snapshots must uphold the invariant too.
                    let s = pool.stats();
                    assert_eq!(s.resident as u64 + s.evicted, s.inserted);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.inserted, 2000);
        assert_eq!(stats.evicted, 2000);
        assert_eq!(stats.resident, 0);
        assert_eq!(stats.resident_bytes, 0);
    }
}
