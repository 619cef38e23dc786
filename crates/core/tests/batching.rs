//! Hot-path batching tests for [`MessageQueue`]:
//!
//! * admission corner cases under batching — an oversized message still
//!   enters an *empty* queue, and `post_all` keeps per-message Figure 6-9
//!   drop-on-full semantics;
//! * `take_batch` count and byte budgets;
//! * the non-blocking producer API (`post_nowait` / `post_all_nowait`):
//!   refused payloads wait in the channel's lane, in order, and a lane
//!   departure wakes only the pooled producer whose entry departed;
//! * a property test driving random schedules of every post and take
//!   entry point (plus sheds and sink breaks) through one queue and a
//!   `VecDeque` reference model of the buffer and the lane with the same
//!   byte budget, requiring identical `PostResult`s, delivery order, byte
//!   accounting and stats.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mobigate_core::pool::{MessagePool, Payload, PayloadMode};
use mobigate_core::queue::{Notifier, QueueConfig, QueueStats};
use mobigate_core::{FetchResult, MessageQueue, PostResult};
use mobigate_mcl::ast::ChannelKind;
use mobigate_mime::{MimeMessage, MimeType};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// A channel whose refused payloads never expire within a test.
fn patient_queue(capacity_bytes: usize) -> QueueConfig {
    QueueConfig {
        capacity_bytes,
        full_wait: Duration::from_secs(3600),
        ..Default::default()
    }
}

fn tags(pool: &MessagePool, ps: Vec<Payload>) -> Vec<u8> {
    ps.into_iter().map(|p| tag_of(pool, p)).collect()
}

/// A refused non-blocking post neither waits nor comes back: the payload
/// waits in the lane, nothing is dropped, and the take that frees room
/// admits it in the same hold.
#[test]
fn post_nowait_queues_a_refused_payload_in_the_lane() {
    let (q, pool) = setup(patient_queue(256));
    assert_eq!(
        q.post_nowait(payload(&pool, 200, 1), None),
        PostResult::Posted
    );
    assert_eq!(
        q.post_nowait(payload(&pool, 200, 2), None),
        PostResult::Waiting
    );
    let s = q.stats();
    assert_eq!((s.pending, s.waiting, s.dropped_total()), (1, 1, 0));
    assert_eq!(tags(&pool, take(&q, 1, usize::MAX)), vec![1]);
    let s = q.stats();
    assert_eq!((s.posted, s.pending, s.waiting), (2, 1, 0));
    assert_eq!(tags(&pool, take(&q, 1, usize::MAX)), vec![2]);
    assert_eq!(pool.stats().resident, 0);
}

/// A run's refused tail waits in the lane in emission order, and a later
/// post that would fit by bytes still queues behind it: takes deliver
/// the global order 0..6.
#[test]
fn post_all_nowait_queues_the_refused_tail_in_order() {
    let pool = Arc::new(MessagePool::new());
    let unit = unit_len(&pool, 100);
    let small = unit_len(&pool, 1);
    let q = MessageQueue::new(patient_queue(2 * unit + small), pool.clone());
    let mut run: Vec<Payload> = (0..5).map(|tag| payload(&pool, 100, tag)).collect();
    // #0 and #1 fit; the tail waits.
    assert_eq!(q.post_all_nowait(&mut run, None), 3);
    assert!(run.is_empty());
    assert_eq!(
        q.post_nowait(payload(&pool, 1, 5), None),
        PostResult::Waiting
    );
    assert_eq!(q.stats().waiting, 4);
    let mut got = Vec::new();
    loop {
        let batch = take(&q, 16, usize::MAX);
        if batch.is_empty() {
            break;
        }
        got.extend(tags(&pool, batch));
    }
    assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
    assert_eq!(q.stats().dropped_total(), 0);
}

/// A notifier with a hook that counts its (non-coalesced) wakes.
fn counting_notifier() -> (Arc<Notifier>, Arc<AtomicUsize>) {
    let n = Arc::new(Notifier::new());
    let wakes = Arc::new(AtomicUsize::new(0));
    let w = wakes.clone();
    n.set_hook(move || {
        w.fetch_add(1, Ordering::SeqCst);
    });
    (n, wakes)
}

/// Two pooled producers wait on one channel: each departure wakes only
/// the producer whose entry departed, whether a take promotes it or a
/// sink close charges it, and joining the lane wakes none.
#[test]
fn lane_departure_wakes_only_its_own_producer() {
    let (q, pool) = setup(patient_queue(1));
    q.attach_sink();
    let (na, a_wakes) = counting_notifier();
    let (nb, b_wakes) = counting_notifier();
    assert_eq!(q.post(payload(&pool, 8, 0)), PostResult::Posted);
    assert_eq!(
        q.post_nowait(payload(&pool, 8, 1), Some(&na)),
        PostResult::Waiting
    );
    assert_eq!(
        q.post_nowait(payload(&pool, 8, 2), Some(&nb)),
        PostResult::Waiting
    );
    let wakes = || {
        (
            a_wakes.load(Ordering::SeqCst),
            b_wakes.load(Ordering::SeqCst),
        )
    };
    assert_eq!((na.waiting(), nb.waiting(), wakes()), (1, 1, (0, 0)));
    // Taking #0 promotes A's entry into the one-message buffer.
    assert_eq!(tags(&pool, take(&q, 1, usize::MAX)), vec![0]);
    assert_eq!((na.waiting(), nb.waiting(), wakes()), (0, 1, (1, 0)));
    na.disarm();
    // Taking #1 promotes B's.
    assert_eq!(tags(&pool, take(&q, 1, usize::MAX)), vec![1]);
    assert_eq!((na.waiting(), nb.waiting(), wakes()), (0, 0, (1, 1)));
    nb.disarm();
    // An empty lane wakes nobody.
    assert_eq!(tags(&pool, take(&q, 1, usize::MAX)), vec![2]);
    assert_eq!(wakes(), (1, 1));
    // A sink close charges A's waiting entry `closed` and wakes A alone.
    assert_eq!(q.post(payload(&pool, 8, 3)), PostResult::Posted);
    assert_eq!(
        q.post_nowait(payload(&pool, 8, 4), Some(&na)),
        PostResult::Waiting
    );
    na.disarm();
    q.detach_sink().unwrap();
    assert_eq!((na.waiting(), wakes()), (0, (2, 1)));
    let s = q.stats();
    assert_eq!((s.waiting, s.dropped_closed, s.dropped_break), (0, 1, 1));
    assert_eq!(pool.stats().resident, 0);
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
    /// `shed_oldest` of up to `n` (every message here is one class, so
    /// the oldest go).
    Shed(usize),
    /// Detach the sink (a BK break: pending dropped, the lane charged
    /// `closed`, posts `Closed`).
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
        (1usize..4).prop_map(Op::Shed),
        Just(Op::Break),
        Just(Op::Reattach),
    ]
}

/// The Figure 6-9 channel as a plain FIFO over a byte budget, with its
/// lane: an empty buffer admits anything, otherwise a message fits only
/// behind an empty lane and within `capacity` buffered bytes. `T` is
/// either zero (`expires`: every lane entry has expired by the next
/// hold) or longer than any case (none ever does).
#[derive(Clone)]
struct Model {
    capacity: usize,
    expires: bool,
    /// (tag, buffered length) per pending message.
    queue: VecDeque<(u8, usize)>,
    bytes: usize,
    /// (tag, buffered length) per waiting message.
    lane: VecDeque<(u8, usize)>,
    sink_open: bool,
    stats: QueueStats,
}

impl Model {
    fn fits(&self, len: usize) -> bool {
        self.queue.is_empty() || self.bytes + len <= self.capacity
    }

    fn push(&mut self, tag: u8, len: usize) {
        self.queue.push_back((tag, len));
        self.bytes += len;
        self.stats.posted += 1;
        self.stats.pending += 1;
    }

    /// A hold moves the lane on: with `T = 0` every entry has expired and
    /// is charged `full`, never admitted; otherwise heads that fit are.
    fn advance(&mut self) {
        if self.expires {
            self.stats.dropped_full += self.lane.len() as u64;
            self.lane.clear();
        }
        while let Some(&(tag, len)) = self.lane.front() {
            if !self.fits(len) {
                break;
            }
            self.lane.pop_front();
            self.push(tag, len);
        }
    }

    /// One admission attempt inside a post's hold.
    fn offer(&mut self, tag: u8, len: usize) -> PostResult {
        if !self.sink_open {
            self.stats.dropped_closed += 1;
            return PostResult::Closed;
        }
        if self.lane.is_empty() && self.fits(len) {
            self.push(tag, len);
            return PostResult::Posted;
        }
        self.lane.push_back((tag, len));
        PostResult::Waiting
    }

    /// A non-blocking post of a run: how many of it wait in the lane. An
    /// empty run takes no hold.
    fn post_nowait(&mut self, run: &[(u8, usize)]) -> usize {
        if run.is_empty() {
            return 0;
        }
        self.advance();
        run.iter()
            .filter(|&&(tag, len)| self.offer(tag, len) == PostResult::Waiting)
            .count()
    }

    /// True when a blocking post of `run` would wait for room: with a
    /// patient `T` such a post would block the single-threaded case.
    fn would_wait(&self, run: &[(u8, usize)]) -> bool {
        !self.expires && self.clone().post_nowait(run) > 0
    }

    /// A blocking post of a run: what waits has expired by the poster's
    /// own hold at its deadline, which charges it `full`.
    fn post(&mut self, run: &[(u8, usize)]) -> PostResult {
        let waiting = self.post_nowait(run);
        if waiting > 0 {
            self.advance();
            return PostResult::Dropped;
        }
        match run.first() {
            Some(_) if !self.sink_open => PostResult::Closed,
            _ => PostResult::Posted,
        }
    }

    fn pop(&mut self) -> Option<u8> {
        let (tag, len) = self.queue.pop_front()?;
        self.bytes -= len;
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
        self.stats.fetched += out.len() as u64;
        if !out.is_empty() {
            self.advance();
        }
        out
    }

    fn shed(&mut self, n: usize) -> usize {
        if self.queue.is_empty() {
            return 0;
        }
        let shed = (0..n).filter_map(|_| self.pop()).count();
        self.stats.dropped_shed += shed as u64;
        self.advance();
        shed
    }

    fn break_sink(&mut self) {
        self.stats.dropped_closed += self.lane.len() as u64;
        self.lane.clear();
        self.stats.dropped_break += self.queue.len() as u64;
        self.stats.pending = 0;
        self.queue.clear();
        self.bytes = 0;
        self.sink_open = false;
    }

    /// The stats a queue in this state reports.
    fn stats(&self) -> QueueStats {
        QueueStats {
            waiting: self.lane.len() as u64,
            ..self.stats
        }
    }
}

fn tag_of(pool: &MessagePool, p: Payload) -> u8 {
    pool.resolve(p).unwrap().body[0]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Every post and take entry point behaves as the reference model:
    /// per-call outcomes, FIFO delivery order through the buffer and the
    /// lane, byte accounting, the lifetime stats with both depths, and
    /// the pool's resident count after each step. With `T = 0` an expired
    /// head is charged `full` and never admitted; with a patient `T`
    /// takes and sheds promote the lane in order; a sink break charges
    /// the lane `closed`. A lane is only ever seen behind a non-empty
    /// buffer and an open sink.
    #[test]
    fn queue_matches_reference_model(
        expires in any::<bool>(),
        ops in prop::collection::vec(op_strategy(), 0..120),
    ) {
        let full_wait = if expires { Duration::ZERO } else { Duration::from_secs(3600) };
        let (q, pool) = setup(QueueConfig {
            capacity_bytes: 200,
            full_wait,
            kind: ChannelKind::Async,
            ..Default::default()
        });
        q.attach_source();
        q.attach_sink();
        let mut model = Model {
            capacity: 200,
            expires,
            queue: VecDeque::new(),
            bytes: 0,
            lane: VecDeque::new(),
            sink_open: true,
            stats: QueueStats::default(),
        };
        let mut next_tag = 0u8;
        let mut mint = |sizes: &[usize]| {
            sizes
                .iter()
                .map(|&size| {
                    let tag = next_tag;
                    next_tag = next_tag.wrapping_add(1);
                    let p = payload(&pool, size, tag);
                    let len = p.buffered_len();
                    (p, (tag, len))
                })
                .unzip::<_, _, Vec<Payload>, Vec<(u8, usize)>>()
        };
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Post(size) => {
                    let (mut run, keys) = mint(&[*size]);
                    if model.would_wait(&keys) {
                        run.into_iter().for_each(|p| pool.discard(p));
                        continue;
                    }
                    let p = run.pop().unwrap();
                    prop_assert_eq!(q.post(p), model.post(&keys), "step {}", step);
                }
                Op::PostAll(sizes) => {
                    let (mut run, keys) = mint(sizes);
                    if model.would_wait(&keys) {
                        run.into_iter().for_each(|p| pool.discard(p));
                        continue;
                    }
                    model.post(&keys);
                    q.post_all(&mut run);
                    prop_assert!(run.is_empty(), "step {}", step);
                }
                Op::PostNowait(size) => {
                    let (mut run, keys) = mint(&[*size]);
                    let want = match model.post_nowait(&keys) {
                        0 if model.sink_open => PostResult::Posted,
                        0 => PostResult::Closed,
                        _ => PostResult::Waiting,
                    };
                    let got = q.post_nowait(run.pop().unwrap(), None);
                    prop_assert_eq!(got, want, "step {}", step);
                }
                Op::PostAllNowait(sizes) => {
                    let (mut run, keys) = mint(sizes);
                    let want = model.post_nowait(&keys);
                    prop_assert_eq!(q.post_all_nowait(&mut run, None), want, "step {}", step);
                    prop_assert!(run.is_empty(), "step {}", step);
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
                    prop_assert_eq!(got, model.take(1, usize::MAX).pop(), "step {}", step);
                }
                Op::Shed(n) => {
                    prop_assert_eq!(q.shed_oldest(*n), model.shed(*n), "step {}", step);
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
            let lane_bytes: usize = model.lane.iter().map(|&(_, len)| len).sum();
            let s = q.stats();
            prop_assert_eq!(s, model.stats(), "step {}", step);
            prop_assert!(
                s.waiting == 0 || (s.pending > 0 && model.sink_open),
                "step {}: {:?}",
                step,
                s
            );
            prop_assert_eq!(q.len(), model.queue.len(), "step {}", step);
            prop_assert_eq!(q.buffered_bytes(), model.bytes + lane_bytes, "step {}", step);
            prop_assert_eq!(
                pool.stats().resident,
                model.queue.len() + model.lane.len(),
                "step {}",
                step
            );
        }
    }
}
