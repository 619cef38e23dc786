//! Concurrency and reference-model tests for the [`MessagePool`].
//!
//! * an 8 producer × 8 consumer stress run, with a concurrent auditor
//!   asserting the lifetime invariant `resident + evicted == inserted`
//!   from the lock-free [`MessagePool::stats`] while the race is live;
//! * a property test driving a random op sequence through a pool and a
//!   `HashMap<id, (body, refs)>` model, comparing every return value,
//!   every resident body, the stats and the invariant after each op, and
//!   every refcount by draining the survivors at the end.

use bytes::Bytes;
use mobigate_core::pool::{MessageId, MessagePool, PoolStats};
use mobigate_mime::{MimeMessage, MimeType};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

const PRODUCERS: usize = 8;
const CONSUMERS: usize = 8;
const OPS_PER_PRODUCER: usize = 2_000;

#[test]
fn stress_8_producers_8_consumers_accounting_stays_consistent() {
    let pool = Arc::new(MessagePool::new());
    let (tx, rx) = mpsc::channel::<MessageId>();
    let rx = Arc::new(Mutex::new(rx));
    let done = Arc::new(AtomicBool::new(false));

    // Auditor: sample the lock-free stats mid-race; the invariant must hold
    // at every instant, not just at quiescence.
    let audit_pool = pool.clone();
    let audit_done = done.clone();
    let auditor = thread::spawn(move || {
        let mut samples = 0u64;
        while !audit_done.load(Ordering::Acquire) {
            let s = audit_pool.stats();
            assert_eq!(
                s.resident as u64 + s.evicted,
                s.inserted,
                "mid-race stats violated resident + evicted == inserted: {s:?}"
            );
            samples += 1;
        }
        assert!(samples > 0);
    });

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let pool = pool.clone();
            let tx = tx.clone();
            thread::spawn(move || {
                for i in 0..OPS_PER_PRODUCER {
                    let msg = MimeMessage::new(
                        &MimeType::new("text", "plain"),
                        Bytes::from(format!("p{p}-m{i}")),
                    );
                    // Two references: the consumer takes one and drops one.
                    let id = pool.insert(msg, 2);
                    tx.send(id).expect("consumer alive");
                }
            })
        })
        .collect();
    drop(tx);

    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let pool = pool.clone();
            let rx = rx.clone();
            thread::spawn(move || {
                let mut taken = 0usize;
                loop {
                    let id = match rx.lock().expect("not poisoned").recv() {
                        Ok(id) => id,
                        Err(_) => return taken,
                    };
                    assert!(pool.peek_len(id).is_some(), "id live until both refs go");
                    assert!(pool.take_ref(id).is_some(), "first ref yields the message");
                    pool.drop_ref(id); // second ref evicts
                    taken += 1;
                }
            })
        })
        .collect();

    for p in producers {
        p.join().expect("producer ok");
    }
    let total_taken: usize = consumers
        .into_iter()
        .map(|c| c.join().expect("consumer ok"))
        .sum();
    done.store(true, Ordering::Release);
    auditor.join().expect("auditor ok");

    assert_eq!(total_taken, PRODUCERS * OPS_PER_PRODUCER);
    let s = pool.stats();
    assert_eq!(s.inserted, (PRODUCERS * OPS_PER_PRODUCER) as u64);
    assert_eq!(s.evicted, s.inserted, "every message evicted");
    assert_eq!(s.resident, 0);
    assert_eq!(s.resident_bytes, 0);
}

/// One decoded step of the random op program.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert { body_len: usize, refs: u32 },
    AddRefs { idx: usize, n: u32 },
    Peek { idx: usize },
    PeekLen { idx: usize },
    TakeRef { idx: usize },
    DropRef { idx: usize },
}

/// Packs a raw `u32` into an op: low bits select the kind, the rest select
/// the target index / parameters, so `vec(any::<u32>(), ..)` is a program.
fn decode(raw: u32) -> Op {
    let idx = (raw >> 8) as usize;
    match raw % 6 {
        0 => Op::Insert {
            body_len: (raw >> 8) as usize % 512,
            refs: (raw >> 4) % 4,
        },
        1 => Op::AddRefs {
            idx,
            n: (raw >> 4) % 3 + 1,
        },
        2 => Op::Peek { idx },
        3 => Op::PeekLen { idx },
        4 => Op::TakeRef { idx },
        _ => Op::DropRef { idx },
    }
}

/// The pool's reference model: every resident message's body and
/// outstanding references, plus the lifetime counters.
#[derive(Default)]
struct Model {
    live: HashMap<u64, (Vec<u8>, u32)>,
    next_id: u64,
    evicted: u64,
}

impl Model {
    /// Consumes one reference; `Some(body)` while the entry was resident.
    fn take(&mut self, id: u64) -> Option<Vec<u8>> {
        let (body, refs) = self.live.get_mut(&id)?;
        let body = body.clone();
        *refs -= 1;
        if *refs == 0 {
            self.live.remove(&id);
            self.evicted += 1;
        }
        Some(body)
    }

    fn stats(&self) -> PoolStats {
        PoolStats {
            resident: self.live.len(),
            resident_bytes: self.live.values().map(|(b, _)| b.len()).sum(),
            inserted: self.next_id,
            evicted: self.evicted,
        }
    }
}

fn body_of(m: MimeMessage) -> Vec<u8> {
    m.body.to_vec()
}

/// Applies one op to both the pool and the model and asserts they agree
/// on its result. Ops pick any id ever issued, live or evicted.
fn step(pool: &MessagePool, model: &mut Model, op: Op) {
    let pick = |idx: usize| (model.next_id > 0).then(|| idx as u64 % model.next_id);
    match op {
        Op::Insert { body_len, refs } => {
            // Distinct content per message, so a mixed-up id shows.
            let body: Vec<u8> = (0..body_len)
                .map(|i| (i as u64 ^ model.next_id) as u8)
                .collect();
            let msg = MimeMessage::new(&MimeType::new("application", "octet-stream"), body.clone());
            let id = pool.insert(msg, refs);
            assert_eq!(id, MessageId(model.next_id), "ids are sequential");
            model.live.insert(model.next_id, (body, refs.max(1)));
            model.next_id += 1;
        }
        Op::AddRefs { idx, n } => {
            if let Some(id) = pick(idx) {
                let expected = model.live.get_mut(&id).map(|(_, refs)| *refs += n);
                assert_eq!(pool.add_refs(MessageId(id), n), expected.is_some());
            }
        }
        Op::Peek { idx } => {
            if let Some(id) = pick(idx) {
                let expected = model.live.get(&id).map(|(b, _)| b.clone());
                assert_eq!(pool.peek(MessageId(id)).map(body_of), expected);
            }
        }
        Op::PeekLen { idx } => {
            if let Some(id) = pick(idx) {
                assert_eq!(
                    pool.peek_len(MessageId(id)).is_some(),
                    model.live.contains_key(&id)
                );
            }
        }
        Op::TakeRef { idx } => {
            if let Some(id) = pick(idx) {
                assert_eq!(pool.take_ref(MessageId(id)).map(body_of), model.take(id));
            }
        }
        Op::DropRef { idx } => {
            if let Some(id) = pick(idx) {
                pool.drop_ref(MessageId(id));
                model.take(id);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// The pool behaves as its reference model under any op sequence.
    #[test]
    fn pool_matches_reference_model(raw_ops in prop::collection::vec(any::<u32>(), 0..200)) {
        let pool = MessagePool::new();
        let mut model = Model::default();
        for (&raw, n) in raw_ops.iter().zip(0..) {
            let op = decode(raw);
            step(&pool, &mut model, op);
            for (id, (body, _)) in &model.live {
                let peeked = pool.peek_body(MessageId(*id)).map(|b| b.to_vec());
                prop_assert_eq!(peeked.as_ref(), Some(body), "body of {} after step {}", id, n);
            }
            let s = pool.stats();
            prop_assert_eq!(s, model.stats(), "stats after step {} ({:?})", n, op);
            prop_assert_eq!(s.resident as u64 + s.evicted, s.inserted);
        }
        // Every survivor gives up exactly its modelled references.
        let survivors: Vec<(u64, u32)> = model.live.iter().map(|(id, (_, r))| (*id, *r)).collect();
        for (id, refs) in survivors {
            for _ in 0..refs {
                prop_assert!(pool.take_ref(MessageId(id)).is_some());
            }
            prop_assert!(pool.take_ref(MessageId(id)).is_none(), "{} had more than {} refs", id, refs);
        }
        prop_assert_eq!(pool.stats().resident, 0);
    }
}
