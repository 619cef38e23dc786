//! Hot-path batching tests for [`MessageQueue`]:
//!
//! * admission corner cases under batching — an oversized message still
//!   enters an *empty* queue, and `post_all` keeps per-message Figure 6-9
//!   drop-on-full semantics;
//! * `take_batch` count and byte budgets;
//! * the non-blocking producer API (`post_nowait` / `post_all_nowait`)
//!   and the edge-triggered space-listener wakeup that pool executors
//!   build their parked-output flushing on;
//! * a property test driving random schedules of every post and take
//!   entry point (plus sink breaks) through one queue and a `VecDeque`
//!   reference model with the same byte budget, requiring identical
//!   `PostResult`s, delivery order, byte accounting and stats.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mobigate_core::pool::{MessagePool, Payload, PayloadMode};
use mobigate_core::queue::{Notifier, QueueConfig, QueueStats};
use mobigate_core::{FetchResult, MessageQueue, PostResult};
use mobigate_mcl::ast::ChannelKind;
use mobigate_mime::{MimeMessage, MimeType};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

fn setup(cfg: QueueConfig) -> (Arc<MessageQueue>, Arc<MessagePool>) {
    let pool = Arc::new(MessagePool::new());
    let q = MessageQueue::new(cfg, pool.clone());
    (q, pool)
}

/// A payload whose body is `n` copies of `tag` — size drives admission,
/// the tag makes delivery order observable.
fn payload(pool: &MessagePool, n: usize, tag: u8) -> Payload {
    pool.wrap(
        MimeMessage::new(&MimeType::new("application", "octet-stream"), vec![tag; n]),
        PayloadMode::Reference,
        1,
    )
}

/// `take_batch` into a fresh vec.
fn take(q: &MessageQueue, max_n: usize, max_bytes: usize) -> Vec<Payload> {
    let mut out = Vec::new();
    let n = q.take_batch(&mut out, max_n, max_bytes);
    assert_eq!(n, out.len());
    out
}

fn small_queue() -> QueueConfig {
    QueueConfig {
        capacity_bytes: 256,
        full_wait: Duration::from_millis(5),
        ..Default::default()
    }
}

#[test]
fn oversized_message_admitted_when_empty() {
    let (q, pool) = setup(small_queue());
    q.attach_source();
    q.attach_sink();
    // 4 KiB into a 256-byte queue: empty buffer admits it.
    assert_eq!(q.post(payload(&pool, 4096, 1)), PostResult::Posted);
    assert_eq!(q.len(), 1);
    // A second oversized message finds a non-empty queue and must wait
    // out `T`, then drop.
    assert_eq!(q.post(payload(&pool, 4096, 2)), PostResult::Dropped);
    assert_eq!(q.stats().dropped_full, 1);
    let batch = take(&q, 16, usize::MAX);
    assert_eq!(batch.len(), 1);
    assert_eq!(
        pool.resolve(batch.into_iter().next().unwrap())
            .unwrap()
            .body[0],
        1
    );
}

/// Buffered wire length of an `n`-byte-body message (body + MIME
/// headers) — admission accounting is in wire bytes, not body bytes.
fn unit_len(pool: &MessagePool, n: usize) -> usize {
    let p = payload(pool, n, 0);
    let len = p.buffered_len();
    pool.discard(p);
    len
}

#[test]
fn take_batch_respects_count_and_byte_budgets() {
    let (q, pool) = setup(QueueConfig::default());
    let unit = unit_len(&pool, 32);
    for tag in 0..8u8 {
        assert_eq!(q.post(payload(&pool, 32, tag)), PostResult::Posted);
    }
    // Count budget.
    assert_eq!(take(&q, 3, usize::MAX).len(), 3);
    // Byte budget: room for exactly two messages, not three.
    assert_eq!(take(&q, 16, 2 * unit).len(), 2);
    // The head is always taken even when it alone exceeds the budget.
    assert_eq!(take(&q, 16, 1).len(), 1);
    assert_eq!(q.len(), 2);
}

#[test]
fn post_all_admits_prefix_then_drops_on_full() {
    let pool = Arc::new(MessagePool::new());
    let unit = unit_len(&pool, 100);
    // Budget for exactly two messages: #0 and #1 fit, #2 and #3 wait
    // out the shared 5 ms Figure 6-9 budget and drop.
    let q = MessageQueue::new(
        QueueConfig {
            capacity_bytes: 2 * unit,
            full_wait: Duration::from_millis(5),
            ..Default::default()
        },
        pool.clone(),
    );
    let mut batch: Vec<Payload> = (0..4).map(|tag| payload(&pool, 100, tag)).collect();
    q.post_all(&mut batch);
    assert!(batch.is_empty(), "every payload handled");
    let stats = q.stats();
    assert_eq!(stats.posted, 2);
    assert_eq!(stats.dropped_full, 2);
    assert_eq!(q.buffered_bytes(), 2 * unit);
    // The pool reclaimed the dropped messages' references.
    assert_eq!(pool.stats().resident, 2);
    // The admitted two are the prefix.
    let tags: Vec<u8> = take(&q, 16, usize::MAX)
        .into_iter()
        .map(|p| pool.resolve(p).unwrap().body[0])
        .collect();
    assert_eq!(tags, vec![0, 1]);
}

/// A `Ref` payload carries the wire length it was inserted with, and a
/// channel accounts its buffer by that length alone: after interleaved
/// batch posts, byte-budgeted batch takes and priority sheds of mixed
/// sizes and types, draining the channel leaves exactly zero bytes.
#[test]
fn buffered_bytes_return_to_zero_after_interleaved_posts_takes_and_sheds() {
    let (q, pool) = setup(QueueConfig {
        capacity_bytes: 1 << 20,
        ..Default::default()
    });
    q.attach_source();
    q.attach_sink();
    let (mut run, mut out) = (Vec::new(), Vec::new());
    let (mut posted, mut taken) = (0usize, 0usize);
    for round in 0..60usize {
        for i in 0..6usize {
            let ty = if (round + i) % 3 == 0 {
                MimeType::new("image", "gif")
            } else {
                MimeType::new("text", "plain")
            };
            let msg = MimeMessage::new(&ty, vec![i as u8; 16 + 40 * i + round]);
            let p = pool.wrap(msg, PayloadMode::Reference, 1);
            assert!(matches!(p, Payload::Ref { .. }));
            posted += p.buffered_len();
            run.push(p);
        }
        q.post_all(&mut run);
        let before = q.buffered_bytes();
        match round % 3 {
            0 => {
                q.take_batch(&mut out, 4, 300);
            }
            1 => {
                q.shed_oldest(2);
                taken += before - q.buffered_bytes();
            }
            _ => {
                q.take_batch(&mut out, 2, usize::MAX);
            }
        }
        for p in out.drain(..) {
            taken += p.buffered_len();
            pool.discard(p);
        }
        assert_eq!(q.buffered_bytes(), posted - taken, "round {round}");
    }
    while q.take_batch(&mut out, usize::MAX, usize::MAX) > 0 {
        for p in out.drain(..) {
            pool.discard(p);
        }
    }
    assert_eq!(q.len(), 0);
    assert_eq!(q.buffered_bytes(), 0);
    assert_eq!(q.stats().dropped_shed, 40);
    assert_eq!(pool.stats().resident, 0);
}

#[test]
fn post_nowait_hands_payload_back_instead_of_waiting() {
    let (q, pool) = setup(small_queue());
    assert_eq!(
        q.post_nowait(payload(&pool, 200, 1)).unwrap(),
        PostResult::Posted
    );
    // Full: the payload comes straight back, nothing is dropped.
    let p = q.post_nowait(payload(&pool, 200, 2)).unwrap_err();
    assert_eq!(q.stats().dropped_full, 0);
    // Space frees up → the same payload is admitted.
    assert!(matches!(q.try_fetch(), FetchResult::Msg(_)));
    assert_eq!(q.post_nowait(p).unwrap(), PostResult::Posted);
}

#[test]
fn post_all_nowait_returns_fifo_leftovers() {
    let pool = Arc::new(MessagePool::new());
    let unit = unit_len(&pool, 100);
    let q = MessageQueue::new(
        QueueConfig {
            capacity_bytes: 2 * unit,
            full_wait: Duration::from_millis(5),
            ..Default::default()
        },
        pool.clone(),
    );
    let mut rest: Vec<Payload> = (0..5).map(|tag| payload(&pool, 100, tag)).collect();
    // #0 and #1 fit; the tail comes back untouched, still in emission
    // order, so the caller's re-post preserves FIFO.
    assert_eq!(q.post_all_nowait(&mut rest), 2);
    assert_eq!(rest.len(), 3);
    // Drain, re-post the leftovers, and confirm global order 0..5.
    let mut tags = Vec::new();
    for p in take(&q, 16, usize::MAX) {
        tags.push(pool.resolve(p).unwrap().body[0]);
    }
    assert_eq!(q.post_all_nowait(&mut rest), 2);
    assert_eq!(rest.len(), 1);
    for p in take(&q, 16, usize::MAX) {
        tags.push(pool.resolve(p).unwrap().body[0]);
    }
    for p in rest {
        assert_eq!(q.post_nowait(p).unwrap(), PostResult::Posted);
    }
    for p in take(&q, 16, usize::MAX) {
        tags.push(pool.resolve(p).unwrap().body[0]);
    }
    assert_eq!(tags, vec![0, 1, 2, 3, 4]);
}

#[test]
fn space_listener_fires_on_pop_and_sink_close() {
    let (q, pool) = setup(small_queue());
    q.attach_source();
    q.attach_sink();
    let n = Arc::new(Notifier::new());
    q.add_space_listener(n.clone());
    assert_eq!(q.post(payload(&pool, 200, 1)), PostResult::Posted);
    // Posting never wakes the producer side.
    let before = n.snapshot();
    // A pop frees capacity → edge-triggered wake.
    assert!(matches!(q.try_fetch(), FetchResult::Msg(_)));
    assert_ne!(n.snapshot(), before, "pop must wake space listeners");
    // Closing the sink unblocks parked producers too (their flush will
    // discard into the pool instead of waiting for room).
    let before = n.snapshot();
    q.detach_sink().unwrap();
    assert_ne!(n.snapshot(), before, "sink close must wake space listeners");
    q.remove_space_listener(&n);
    q.attach_sink();
    assert_eq!(q.post(payload(&pool, 10, 2)), PostResult::Posted);
    let before = n.snapshot();
    assert!(matches!(q.try_fetch(), FetchResult::Msg(_)));
    assert_eq!(n.snapshot(), before, "removed listener stays quiet");
}

// ---------------------------------------------------------------------
// MessageQueue against a reference model.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    /// `post` one message of the given body size.
    Post(usize),
    /// `post_all` a run of messages.
    PostAll(Vec<usize>),
    /// `post_nowait` one message.
    PostNowait(usize),
    /// `post_all_nowait` a run of messages.
    PostAllNowait(Vec<usize>),
    /// `take_batch` bounded by `(max_n, max_bytes)`.
    Take(usize, usize),
    /// `take_batch` of up to `max_n` with a byte budget at the boundary:
    /// the buffered length of the first `k` pending messages, plus
    /// `delta` (-1, 0 or 1).
    TakeAtBoundary(usize, usize, isize),
    /// `try_fetch`.
    TryFetch,
    /// Detach the sink (a BK break: pending dropped, posts `Closed`).
    Break,
    /// Reattach the sink.
    Reattach,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Sizes 1..64 against a 200-byte budget fill the queue within a few
    // posts; the occasional 300-byte message exercises
    // oversized-into-empty admission. Arms repeat to weight the uniform
    // choice toward posts.
    let size = || prop_oneof![1usize..64, 1usize..64, 1usize..64, Just(300usize)];
    prop_oneof![
        size().prop_map(Op::Post),
        size().prop_map(Op::Post),
        prop::collection::vec(size(), 0..6).prop_map(Op::PostAll),
        size().prop_map(Op::PostNowait),
        prop::collection::vec(size(), 0..6).prop_map(Op::PostAllNowait),
        (1usize..6, 1usize..600).prop_map(|(n, b)| Op::Take(n, b)),
        (1usize..6, 1usize..4, -1isize..2).prop_map(|(n, k, d)| Op::TakeAtBoundary(n, k, d)),
        Just(Op::TryFetch),
        Just(Op::Break),
        Just(Op::Reattach),
    ]
}

/// The Figure 6-9 channel with `T = 0`, as a plain FIFO over a byte
/// budget: an empty buffer admits anything, otherwise a message fits
/// only within `capacity` buffered bytes.
struct Model {
    capacity: usize,
    /// (tag, buffered length) per pending message.
    queue: VecDeque<(u8, usize)>,
    bytes: usize,
    sink_open: bool,
    stats: QueueStats,
}

impl Model {
    fn admits(&self, len: usize) -> bool {
        self.queue.is_empty() || self.bytes + len <= self.capacity
    }

    /// `post`/`post_nowait` admission; `None` when refused.
    fn offer(&mut self, tag: u8, len: usize) -> Option<PostResult> {
        if !self.sink_open {
            self.stats.dropped_closed += 1;
            return Some(PostResult::Closed);
        }
        if !self.admits(len) {
            return None;
        }
        self.queue.push_back((tag, len));
        self.bytes += len;
        self.stats.posted += 1;
        self.stats.pending += 1;
        Some(PostResult::Posted)
    }

    /// A blocking post with `T = 0`: refused means dropped at once.
    fn post(&mut self, tag: u8, len: usize) -> PostResult {
        self.offer(tag, len).unwrap_or_else(|| {
            self.stats.dropped_full += 1;
            PostResult::Dropped
        })
    }

    fn pop(&mut self) -> Option<u8> {
        let (tag, len) = self.queue.pop_front()?;
        self.bytes -= len;
        self.stats.fetched += 1;
        self.stats.pending -= 1;
        Some(tag)
    }

    fn take(&mut self, max_n: usize, max_bytes: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut bytes = 0;
        while out.len() < max_n {
            let Some(&(_, len)) = self.queue.front() else {
                break;
            };
            if !out.is_empty() && bytes + len > max_bytes {
                break;
            }
            bytes += len;
            out.extend(self.pop());
        }
        out
    }

    fn break_sink(&mut self) {
        self.stats.dropped_break += self.queue.len() as u64;
        self.stats.pending = 0;
        self.queue.clear();
        self.bytes = 0;
        self.sink_open = false;
    }
}

fn tag_of(pool: &MessagePool, p: Payload) -> u8 {
    pool.resolve(p).unwrap().body[0]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Every post and take entry point behaves as the reference model:
    /// per-call outcomes, FIFO delivery order, byte accounting, the
    /// lifetime stats, and the pool's resident count after each step.
    #[test]
    fn queue_matches_reference_model(ops in prop::collection::vec(op_strategy(), 0..120)) {
        let (q, pool) = setup(QueueConfig {
            capacity_bytes: 200,
            full_wait: Duration::ZERO,
            kind: ChannelKind::Async,
            ..Default::default()
        });
        q.attach_source();
        q.attach_sink();
        let mut model = Model {
            capacity: 200,
            queue: VecDeque::new(),
            bytes: 0,
            sink_open: true,
            stats: QueueStats::default(),
        };
        let mut next_tag = 0u8;
        let mut mint = |size: usize| {
            let tag = next_tag;
            next_tag = next_tag.wrapping_add(1);
            let p = payload(&pool, size, tag);
            let len = p.buffered_len();
            (p, tag, len)
        };
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Post(size) => {
                    let (p, tag, len) = mint(*size);
                    prop_assert_eq!(q.post(p), model.post(tag, len), "step {}", step);
                }
                Op::PostAll(sizes) => {
                    let minted: Vec<_> = sizes.iter().map(|s| mint(*s)).collect();
                    for &(_, tag, len) in &minted {
                        model.post(tag, len);
                    }
                    let mut run: Vec<Payload> = minted.into_iter().map(|(p, ..)| p).collect();
                    q.post_all(&mut run);
                    prop_assert!(run.is_empty(), "step {}", step);
                }
                Op::PostNowait(size) => {
                    let (p, tag, len) = mint(*size);
                    match (q.post_nowait(p), model.offer(tag, len)) {
                        (Ok(got), Some(want)) => prop_assert_eq!(got, want, "step {}", step),
                        (Err(back), None) => {
                            prop_assert_eq!(tag_of(&pool, back), tag, "step {}", step)
                        }
                        (got, want) => prop_assert!(
                            false,
                            "step {}: queue {:?}, model {:?}",
                            step,
                            got.map_err(|_| "refused"),
                            want
                        ),
                    }
                }
                Op::PostAllNowait(sizes) => {
                    let minted: Vec<_> = sizes.iter().map(|s| mint(*s)).collect();
                    let mut handled = 0;
                    let mut refused = Vec::new();
                    for &(_, tag, len) in &minted {
                        if refused.is_empty() && model.offer(tag, len).is_some() {
                            handled += 1;
                        } else {
                            refused.push(tag);
                        }
                    }
                    let mut run: Vec<Payload> = minted.into_iter().map(|(p, ..)| p).collect();
                    prop_assert_eq!(q.post_all_nowait(&mut run), handled, "step {}", step);
                    let back: Vec<u8> = run.into_iter().map(|p| tag_of(&pool, p)).collect();
                    prop_assert_eq!(back, refused, "step {}", step);
                }
                Op::Take(max_n, max_bytes) => {
                    let got: Vec<u8> = take(&q, *max_n, *max_bytes)
                        .into_iter()
                        .map(|p| tag_of(&pool, p))
                        .collect();
                    prop_assert_eq!(got, model.take(*max_n, *max_bytes), "step {}", step);
                }
                Op::TakeAtBoundary(max_n, k, delta) => {
                    let head: usize = model.queue.iter().take(*k).map(|&(_, len)| len).sum();
                    let max_bytes = head.saturating_add_signed(*delta);
                    let got: Vec<u8> = take(&q, *max_n, max_bytes)
                        .into_iter()
                        .map(|p| tag_of(&pool, p))
                        .collect();
                    prop_assert_eq!(got, model.take(*max_n, max_bytes), "step {}", step);
                }
                Op::TryFetch => {
                    let got = match q.try_fetch() {
                        FetchResult::Msg(p) => Some(tag_of(&pool, p)),
                        FetchResult::Empty => None,
                        FetchResult::Disconnected => {
                            prop_assert!(false, "step {}: source is attached", step);
                            None
                        }
                    };
                    prop_assert_eq!(got, model.pop(), "step {}", step);
                }
                Op::Break => {
                    if model.sink_open {
                        q.detach_sink().unwrap();
                        model.break_sink();
                    }
                }
                Op::Reattach => {
                    if !model.sink_open {
                        q.attach_sink();
                        model.sink_open = true;
                    }
                }
            }
            prop_assert_eq!(q.len(), model.queue.len(), "step {}", step);
            prop_assert_eq!(q.buffered_bytes(), model.bytes, "step {}", step);
            prop_assert_eq!(q.stats(), model.stats, "step {}", step);
            prop_assert_eq!(pool.stats().resident, model.queue.len(), "step {}", step);
        }
    }
}
