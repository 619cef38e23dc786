//! `MessageQueue` — the channel object of the coordination plane (§6.2).
//!
//! A queue connects producer streamlets to consumer streamlets. Following
//! the paper:
//!
//! * producer/consumer attachment is tracked by `pCount` / `cCount`
//!   (Figure 6-3);
//! * `postMessage` on a full queue waits a bounded time `T` and then
//!   **drops** the message (Figure 6-9) — slow streamlets must not stall
//!   fast ones (§6.7);
//! * synchronous channels are zero-length buffers (at most one message in
//!   flight, producer blocked until it is taken); asynchronous channels are
//!   FIFO buffers bounded in **bytes** (the MCL `buffer` attribute,
//!   Kbytes);
//! * the channel *category* (S/BB/BK/KB/KK, Figure 4-4) governs what
//!   happens to pending units when one side detaches.
//!
//! Buffer accounting admits one oversized message into an empty queue so a
//! message larger than the buffer can still traverse the channel (otherwise
//! a 1024 KB image could never cross a 100 KB channel and the stream would
//! stall forever).
//!
//! A payload the buffer refuses waits in the channel's **lane**, in
//! arrival order, with the Figure 6-9 deadline stamped at its refusal.
//! Every take, shed or break promotes lane heads into the buffer while
//! they fit, in the same lock hold; an entry past its deadline is never
//! admitted late but charged `full`, once, by the next hold; a sink close
//! charges the lane `closed`. The executors differ only in whether the
//! poster waits: a blocking post waits on the monitor until its entry
//! has left the lane (or withdraws it at the deadline), while a pooled
//! producer returns at once and is woken when one of its entries departs.

// Hot-path modules must surface failures as `CoreError`s, never abort.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::overload::PriorityClass;
use crate::pool::{MessagePool, Payload};
use crate::sync::{deadline_after, Parker, Wake};
use crate::telemetry::{DropReason, QueueProbe, TimingSite};
use mobigate_mcl::ast::{ChannelCategory, ChannelKind};
use mobigate_mime::MimeType;
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wakes streamlet worker threads when any of their input queues receives a
/// message (or a lifecycle change occurs).
///
/// Wakeups **coalesce**: an atomic "armed" flag records that a wake is
/// already pending, and while it is set further [`Notifier::notify`] calls
/// return without touching the sequence mutex or the hook. The contract is
/// that consumers *disarm* before re-checking their work sources —
/// [`Notifier::snapshot`] and [`Notifier::wait_unless`] disarm on entry,
/// as does `StreamletTask::pump` — so a skipped notification is always
/// covered by a re-check that observes its effects.
#[derive(Default)]
pub struct Notifier {
    /// Notification sequence; dedicated threads wait for it to move.
    seq: Parker<u64>,
    /// A wake is pending and its consumer has not yet re-checked: further
    /// notifies are redundant and skipped.
    armed: AtomicBool,
    /// Mirrors `hook.is_some()` so the common no-hook case never locks.
    has_hook: AtomicBool,
    /// Optional wake hook, invoked on every non-coalesced
    /// [`Notifier::notify`] — this is how a
    /// [`crate::executor::WorkerPool`] turns queue posts and lifecycle
    /// transitions into run-queue scheduling instead of waking a dedicated
    /// blocked thread.
    hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
    /// Entries of this notifier's owner waiting in channel lanes (a
    /// pooled producer's refused outputs), counted in and out by the
    /// channels under their locks. A departure's decrement precedes its
    /// `notify`, so an owner that disarms and then reads the count sees
    /// every departure it was not woken for.
    waiting: AtomicUsize,
}

impl std::fmt::Debug for Notifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Notifier")
            .field("seq", &self.seq.read(|s| *s))
            .field("armed", &self.armed.load(Ordering::Relaxed))
            .field("hooked", &self.hook.lock().is_some())
            .field("waiting", &self.waiting())
            .finish()
    }
}

impl Notifier {
    /// Creates a notifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a notifier that starts armed: notifies cost one atomic swap
    /// until a consumer first disarms it. For consumers that always
    /// disarm (`snapshot`) before their first check, so no notify issued
    /// before then matters.
    pub(crate) fn armed() -> Self {
        Notifier {
            armed: AtomicBool::new(true),
            ..Self::default()
        }
    }

    /// Wakes all waiters and fires the wake hook, if any. Returns without
    /// doing either when a previous wake is still unconsumed (the consumer
    /// has not disarmed since): repeated posts to an already-woken consumer
    /// cost one atomic swap.
    pub fn notify(&self) {
        if self.armed.swap(true, Ordering::SeqCst) {
            // Already armed: the pending wake's consumer will disarm and
            // then re-check, observing whatever this notify announces.
            return;
        }
        self.seq.update(|seq| {
            *seq += 1;
            ((), Wake::All)
        });
        // Outside the seq lock: the hook takes scheduler locks of its own.
        // The atomic guard keeps hookless notifiers (the common case —
        // thread-per-streamlet installs no hook) off this mutex entirely.
        if self.has_hook.load(Ordering::Acquire) {
            if let Some(hook) = &*self.hook.lock() {
                hook();
            }
        }
    }

    /// Clears the coalescing flag. Consumers call this *before* re-checking
    /// the condition they sleep on; any notify after the disarm then does a
    /// full (non-coalesced) wake.
    pub fn disarm(&self) {
        // A swap (RMW), not a store: reading the producer's `swap(true)`
        // synchronizes-with it, so everything the producer published
        // before a coalesced notify is visible to the re-check that
        // follows this disarm.
        self.armed.swap(false, Ordering::SeqCst);
    }

    /// Installs the wake hook (replacing any previous one). Executors call
    /// this when adopting a streamlet so every notification also schedules
    /// its task.
    pub fn set_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        *self.hook.lock() = Some(Box::new(hook));
        self.has_hook.store(true, Ordering::Release);
    }

    /// True while a wake hook is installed.
    pub(crate) fn has_hook(&self) -> bool {
        self.has_hook.load(Ordering::Acquire)
    }

    /// Removes the wake hook.
    pub fn clear_hook(&self) {
        self.has_hook.store(false, Ordering::Release);
        *self.hook.lock() = None;
    }

    /// Entries posted with this notifier as their waker that still wait
    /// in a channel's lane.
    pub fn waiting(&self) -> usize {
        self.waiting.load(Ordering::Acquire)
    }

    /// Current notification sequence. Take a snapshot *before* checking
    /// the condition you wait on, then use [`Notifier::wait_unless`]: any
    /// notify between the snapshot and the wait is then never missed.
    /// Disarms wake coalescing, per the consumer contract.
    pub fn snapshot(&self) -> u64 {
        self.disarm();
        self.seq.read(|s| *s)
    }

    /// Waits until notified or `deadline` passes (`None`: no deadline, for
    /// consumers every one of whose wake sources notifies). Returns
    /// immediately when a notification already happened after `since` was
    /// snapshotted.
    pub fn wait_unless(&self, since: u64, deadline: Option<Instant>) {
        self.disarm();
        self.seq.wait_while(|seq| *seq == since, deadline);
    }
}

/// Construction parameters of a queue.
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Channel instance name (diagnostics).
    pub name: String,
    /// Sync (rendezvous) or async (buffered).
    pub kind: ChannelKind,
    /// Disconnection category.
    pub category: ChannelCategory,
    /// Buffer capacity in bytes (ignored for sync channels).
    pub capacity_bytes: usize,
    /// Figure 6-9's `T`: how long a refused post waits for room before
    /// the message is dropped.
    pub full_wait: Duration,
    /// The MIME type the channel carries (runtime type check on post).
    pub ty: MimeType,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            name: "<anon>".into(),
            kind: ChannelKind::Async,
            category: ChannelCategory::BK,
            capacity_bytes: 100 * 1024,
            full_wait: Duration::from_millis(50),
            ty: MimeType::any(),
        }
    }
}

impl QueueConfig {
    /// Builds a config from a compiled MCL [`mobigate_mcl::ChannelSpec`].
    pub fn from_spec(name: &str, spec: &mobigate_mcl::ChannelSpec) -> Self {
        QueueConfig {
            name: name.to_string(),
            kind: spec.kind,
            category: spec.category,
            capacity_bytes: (spec.buffer_kb as usize) * 1024,
            full_wait: Duration::from_millis(50),
            ty: spec.ty.clone(),
        }
    }
}

/// Outcome of a `post`.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum PostResult {
    /// Enqueued (or handed over, for sync channels).
    Posted,
    /// Queue stayed full for `T`; the message was dropped (Figure 6-9).
    Dropped,
    /// The sink side is disconnected; the message was discarded.
    Closed,
    /// Refused for now (non-blocking posts only): the message waits in
    /// the channel's lane until room frees or its deadline passes.
    Waiting,
}

/// Outcome of a `fetch`.
#[derive(Debug)]
pub enum FetchResult {
    /// A message payload.
    Msg(Payload),
    /// Timed out with nothing available.
    Empty,
    /// The source side is gone and the queue is drained — no more messages
    /// will ever arrive.
    Disconnected,
}

/// Lifetime counters, and the pending and waiting depths at the same
/// instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Successfully enqueued messages.
    pub posted: u64,
    /// Successfully fetched messages.
    pub fetched: u64,
    /// Messages in the channel: admitted, not yet fetched or dropped.
    pub pending: u64,
    /// Refused messages waiting in the lane for room.
    pub waiting: u64,
    /// Messages dropped because the queue stayed full past `T`.
    pub dropped_full: u64,
    /// Messages discarded because the sink was disconnected.
    pub dropped_closed: u64,
    /// Pending messages discarded by a category-mandated break.
    pub dropped_break: u64,
    /// Pending messages discarded by the overload relief valve
    /// ([`MessageQueue::shed_oldest`]).
    pub dropped_shed: u64,
    /// Ingress posts rejected by token-bucket admission control before a
    /// payload was ever created.
    pub dropped_admission: u64,
}

impl QueueStats {
    /// Sum of every drop reason.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_full
            + self.dropped_closed
            + self.dropped_break
            + self.dropped_shed
            + self.dropped_admission
    }

    /// Admitted messages that have left the channel: fetched, or drained
    /// by a break or a shed. `posted == departed + pending` always.
    fn departed(&self) -> u64 {
        self.fetched + self.dropped_break + self.dropped_shed
    }
}

/// Field-wise sum: a stream's counters are its channels' summed.
impl std::ops::Add for QueueStats {
    type Output = QueueStats;

    fn add(self, o: QueueStats) -> QueueStats {
        QueueStats {
            posted: self.posted + o.posted,
            fetched: self.fetched + o.fetched,
            pending: self.pending + o.pending,
            waiting: self.waiting + o.waiting,
            dropped_full: self.dropped_full + o.dropped_full,
            dropped_closed: self.dropped_closed + o.dropped_closed,
            dropped_break: self.dropped_break + o.dropped_break,
            dropped_shed: self.dropped_shed + o.dropped_shed,
            dropped_admission: self.dropped_admission + o.dropped_admission,
        }
    }
}

/// Where one offered payload went.
#[derive(Debug, Clone, Copy)]
enum Fate {
    /// Admitted as the `n`-th message counted `posted`.
    Admitted(u64),
    /// Joined the lane as its `n`-th entry.
    Waiting(u64),
    /// Charged to `full`: its Figure 6-9 deadline passed first.
    Full,
    /// Charged to `closed`: the sink was closed.
    Closed,
}

impl Fate {
    fn result(self) -> PostResult {
        match self {
            Fate::Admitted(_) => PostResult::Posted,
            Fate::Waiting(_) => PostResult::Waiting,
            Fate::Full => PostResult::Dropped,
            Fate::Closed => PostResult::Closed,
        }
    }
}

/// A refused payload in the lane.
#[derive(Debug)]
struct Waiting {
    payload: Payload,
    len: usize,
    /// Figure 6-9's drop deadline, stamped at the first refusal of the
    /// run it belongs to. Stamped inside the hold that queues the entry,
    /// so deadlines never decrease along the lane.
    deadline: Instant,
    /// A pooled producer's notifier: counted in, and woken when this
    /// entry departs.
    waker: Option<Arc<Notifier>>,
    /// A blocking `post` waits for this entry's fate.
    reported: bool,
}

/// The monitor's state: the buffer, the lane, both sides' attachment,
/// and the counters, all changed under one lock.
#[derive(Debug)]
struct QState {
    queue: VecDeque<Payload>,
    bytes: usize,
    /// Refused payloads in arrival order. Non-empty only while the
    /// buffer is non-empty and the sink open: a head that fits is
    /// promoted in the hold that made room.
    lane: VecDeque<Waiting>,
    /// Entries ever queued in the lane, and ever departed from it.
    /// Entries depart in order, so entry `k` has left once
    /// `lane_out >= k`.
    lane_in: u64,
    lane_out: u64,
    /// Fates of departed entries whose blocking poster has yet to
    /// collect them.
    fates: Vec<(u64, Fate)>,
    /// Pooled producers whose entries departed, to be notified once the
    /// lock is released.
    woken: Vec<Arc<Notifier>>,
    source_open: bool,
    sink_open: bool,
    /// This channel raised `CHANNEL_CONGESTED` and has not re-armed yet.
    congested: bool,
    /// Paper `pCount` / `cCount` (Figure 6-3).
    pcount: usize,
    ccount: usize,
    /// Lifetime counters, charged in the same lock hold that moves the
    /// message (`pending` and `waiting` are filled in by
    /// [`MessageQueue::stats`]).
    stats: QueueStats,
}

impl QState {
    /// No producer is attached and the source side is closed: nothing
    /// more will ever arrive.
    fn source_gone(&self) -> bool {
        !self.source_open && self.pcount == 0
    }

    /// Collects the fate of departed lane entry `k` for its poster.
    fn take_fate(&mut self, k: u64) -> Fate {
        match self.fates.iter().position(|&(n, _)| n == k) {
            Some(i) => self.fates.swap_remove(i).1,
            None => Fate::Waiting(k),
        }
    }
}

/// What one lock hold moved, announced once the lock is released:
/// consumer wakes, the congestion edge, drops for the probe, and whether
/// pooled producers wait in `QState::woken`. Plain data: a field that
/// needs dropping costs every post and take tens of nanoseconds.
#[derive(Default)]
struct Moved {
    admitted: bool,
    crossed: bool,
    full: u64,
    closed: u64,
    woke: bool,
}

impl Moved {
    /// Waiters on the monitor re-check when a message was admitted or a
    /// lane entry left.
    fn wake(&self, otherwise: Wake) -> Wake {
        if self.admitted || self.full + self.closed > 0 {
            Wake::All
        } else {
            otherwise
        }
    }
}

/// The channel object. Cheaply shareable via `Arc`.
#[derive(Debug)]
pub struct MessageQueue {
    /// Shared with every queue stamped from the same stream blueprint.
    cfg: Arc<QueueConfig>,
    /// The monitor: consumers wait on it for a message, blocking posters
    /// for their lane entry to depart or for their rendezvous, like the
    /// paper's `wait`/`notifyAll`.
    state: Parker<QState>,
    pool: Arc<MessagePool>,
    /// Telemetry recording handle of the owning stream, when the
    /// observability plane is enabled. `None` costs one branch per
    /// instrumented operation.
    probe: Option<QueueProbe>,
    /// Buffered bytes at which a post raises `CHANNEL_CONGESTED`
    /// ([`QueueProbe::congestion_mark`]; `usize::MAX` without a watcher).
    congest_at: usize,
    listeners: RwLock<Vec<Arc<Notifier>>>,
}

impl MessageQueue {
    /// Creates a queue backed by `pool` for reference accounting.
    pub fn new(cfg: impl Into<Arc<QueueConfig>>, pool: Arc<MessagePool>) -> Arc<Self> {
        Self::with_probe(cfg, pool, None)
    }

    /// Creates a queue carrying an optional telemetry probe. The queue
    /// joins the owning stream's channel list, whose metrics read its
    /// counters; drops and sampled figures reach the probe.
    pub fn with_probe(
        cfg: impl Into<Arc<QueueConfig>>,
        pool: Arc<MessagePool>,
        probe: Option<QueueProbe>,
    ) -> Arc<Self> {
        let q = Arc::new(MessageQueue {
            cfg: cfg.into(),
            state: Parker::new(QState {
                queue: VecDeque::new(),
                bytes: 0,
                lane: VecDeque::new(),
                lane_in: 0,
                lane_out: 0,
                fates: Vec::new(),
                woken: Vec::new(),
                source_open: true,
                sink_open: true,
                congested: false,
                pcount: 0,
                ccount: 0,
                stats: QueueStats::default(),
            }),
            pool,
            congest_at: probe
                .as_ref()
                .map_or(usize::MAX, QueueProbe::congestion_mark),
            probe,
            listeners: RwLock::new(Vec::new()),
        });
        if let Some(p) = &q.probe {
            p.stream.add_channel(q.clone());
        }
        q
    }

    /// Reports `n` drops charged to `reason` to the telemetry probe.
    /// Called with the state lock released.
    fn probe_drop(&self, reason: DropReason, n: u64) {
        if let (true, Some(p)) = (n > 0, &self.probe) {
            p.on_drop(&self.cfg.name, reason, n);
        }
    }

    /// Adds `len` buffered bytes. True on the congestion edge: the bytes
    /// reached the mark while the channel was armed and the stream could
    /// raise the event ([`QueueProbe::claim_congestion`]). A crossing the
    /// stream could not raise leaves the channel armed.
    fn grow(&self, st: &mut QState, len: usize) -> bool {
        st.bytes += len;
        let crossed = !st.congested
            && st.bytes >= self.congest_at
            && self
                .probe
                .as_ref()
                .is_some_and(QueueProbe::claim_congestion);
        st.congested |= crossed;
        crossed
    }

    /// Releases `len` buffered bytes; at half the mark or below, the
    /// congestion watcher re-arms.
    fn shrink(&self, st: &mut QState, len: usize) {
        st.bytes = st.bytes.saturating_sub(len);
        st.congested &= st.bytes > self.congest_at / 2;
    }

    /// The queue's configuration.
    pub fn config(&self) -> &QueueConfig {
        &self.cfg
    }

    /// Producer count (paper `pCount`).
    pub fn pcount(&self) -> usize {
        self.state.read(|st| st.pcount)
    }

    /// Consumer count (paper `cCount`).
    pub fn ccount(&self) -> usize {
        self.state.read(|st| st.ccount)
    }

    /// Registers a notifier woken on every post (consumer-side wakeup).
    pub fn add_listener(&self, n: Arc<Notifier>) {
        self.listeners.write().push(n);
    }

    /// Unregisters a notifier.
    pub fn remove_listener(&self, n: &Arc<Notifier>) {
        self.listeners.write().retain(|l| !Arc::ptr_eq(l, n));
    }

    fn wake_listeners(&self) {
        for l in self.listeners.read().iter() {
            l.notify();
        }
    }

    /// A lock hold that may move messages: `f` records what it moved,
    /// and the release announces it.
    fn update<R>(&self, f: impl FnOnce(&mut QState, &mut Moved) -> (R, Wake)) -> R {
        self.wait_then(|_| false, None, |st, _, m| f(st, m))
    }

    /// [`Parker::wait_then`] over the monitor, with the hold's moves
    /// announced after the release.
    fn wait_then<R>(
        &self,
        blocked: impl FnMut(&QState) -> bool,
        deadline: Option<Instant>,
        then: impl FnOnce(&mut QState, bool, &mut Moved) -> (R, Wake),
    ) -> R {
        let (r, moved) = self.state.wait_then(blocked, deadline, |st, cleared| {
            let mut m = Moved::default();
            let (r, wake) = then(st, cleared, &mut m);
            let wake = m.wake(wake);
            ((r, m), wake)
        });
        if moved.admitted {
            self.wake_listeners();
        }
        if let (true, Some(p)) = (moved.crossed, &self.probe) {
            p.on_congested();
        }
        self.probe_drop(DropReason::Full, moved.full);
        self.probe_drop(DropReason::Closed, moved.closed);
        if moved.woke {
            self.notify_woken();
        }
        r
    }

    /// A second, short hold collects the pooled producers whose entries
    /// departed. Whichever hold takes a producer notifies it after the
    /// departure that queued it. Kept out of line: the post and take
    /// paths only test `Moved::woke`.
    #[cold]
    fn notify_woken(&self) {
        let woken = self
            .state
            .update(|st| (std::mem::take(&mut st.woken), Wake::None));
        for w in woken {
            w.notify();
        }
    }

    /// Attaches a producer (paper `incr_pCount`); reopens the source side.
    /// No waiter waits for a side to open.
    pub fn attach_source(&self) {
        self.state.update(|st| {
            st.pcount += 1;
            st.source_open = true;
            ((), Wake::None)
        });
    }

    /// Attaches a consumer (paper `incr_cCount`); reopens the sink side.
    pub fn attach_sink(&self) {
        self.state.update(|st| {
            st.ccount += 1;
            st.sink_open = true;
            ((), Wake::None)
        });
        self.wake_listeners();
    }

    /// Detaches a producer, applying the category semantics when the last
    /// producer leaves. Returns `Err` for KK channels, which "cannot be
    /// disconnected at either side".
    pub fn detach_source(&self) -> Result<(), crate::CoreError> {
        self.refuse_kk()?;
        let (last, broken) = self.update(|st, m| {
            let prev = st.pcount;
            debug_assert!(prev > 0, "detach_source without attach");
            st.pcount = prev.saturating_sub(1);
            if prev != 1 {
                return ((false, 0), Wake::None);
            }
            st.source_open = false;
            let broken = match self.cfg.category {
                // BB: breaking one side breaks the other; pending dropped.
                // KB reverses BK: a source break also breaks the target.
                ChannelCategory::BB | ChannelCategory::KB => {
                    self.close_sink(st, m);
                    self.drop_pending(st)
                }
                // BK: pending and waiting units keep flowing to the
                // target; S/sync has no pending by construction.
                ChannelCategory::BK | ChannelCategory::S | ChannelCategory::KK => 0,
            };
            ((true, broken), Wake::All)
        });
        if last {
            self.probe_drop(DropReason::Break, broken);
            self.wake_listeners();
        }
        Ok(())
    }

    /// Detaches a consumer (category-symmetric to [`Self::detach_source`]).
    pub fn detach_sink(&self) -> Result<(), crate::CoreError> {
        self.refuse_kk()?;
        let (last, broken) = self.update(|st, m| {
            let prev = st.ccount;
            debug_assert!(prev > 0, "detach_sink without attach");
            st.ccount = prev.saturating_sub(1);
            if prev != 1 {
                return ((false, 0), Wake::None);
            }
            self.close_sink(st, m);
            let broken = match self.cfg.category {
                // BK: a sink break also breaks the source; pending dropped.
                ChannelCategory::BB | ChannelCategory::BK => {
                    st.source_open = false;
                    self.drop_pending(st)
                }
                // KB: pending units are retained for a future sink.
                ChannelCategory::KB | ChannelCategory::S | ChannelCategory::KK => 0,
            };
            ((true, broken), Wake::All)
        });
        if last {
            self.probe_drop(DropReason::Break, broken);
        }
        Ok(())
    }

    /// KK channels "cannot be disconnected at either side".
    fn refuse_kk(&self) -> Result<(), crate::CoreError> {
        if self.cfg.category == ChannelCategory::KK {
            return Err(crate::CoreError::Channel {
                name: self.cfg.name.clone(),
                message: "KK channels cannot be disconnected".into(),
            });
        }
        Ok(())
    }

    /// Discards every pending unit on a break and charges them to
    /// `break`, returning how many; the caller has closed the sink. Every
    /// post checks `sink_open` under the same lock, so none can land
    /// after this drain.
    fn drop_pending(&self, st: &mut QState) -> u64 {
        let n = st.queue.len() as u64;
        for p in st.queue.drain(..) {
            self.pool.discard(p);
        }
        st.bytes = 0;
        st.congested = false;
        st.stats.dropped_break += n;
        n
    }

    /// Closes the sink side and charges every lane entry `closed`.
    fn close_sink(&self, st: &mut QState, m: &mut Moved) {
        st.sink_open = false;
        while let Some(w) = st.lane.pop_front() {
            self.pool.discard(w.payload);
            st.stats.dropped_closed += 1;
            m.closed += 1;
            Self::depart(st, m, w.waker, w.reported, Fate::Closed);
        }
    }

    /// Room for a `len`-byte payload: an empty buffer admits anything (so
    /// one oversized message can still cross); otherwise an async channel
    /// needs room in its byte budget, and a rendezvous slot has none.
    fn fits(&self, st: &QState, len: usize) -> bool {
        st.queue.is_empty()
            || (self.cfg.kind == ChannelKind::Async && st.bytes + len <= self.cfg.capacity_bytes)
    }

    /// Admits a payload into the buffer, shows it to the probe's size
    /// sampler, and returns its admission number.
    fn admit(&self, st: &mut QState, m: &mut Moved, payload: Payload, len: usize) -> u64 {
        st.queue.push_back(payload);
        st.stats.posted += 1;
        let ticket = st.stats.posted;
        if let Some(p) = &self.probe {
            p.on_admit(len, ticket);
        }
        m.crossed |= self.grow(st, len);
        m.admitted = true;
        ticket
    }

    /// One admission attempt (Figure 6-9). A closed sink discards the
    /// payload; one that fits behind an empty lane is admitted; any
    /// other joins the lane, its deadline stamped at the run's first
    /// refusal (`deadline`), with `waker` and `reported` as the poster
    /// asks.
    #[allow(clippy::too_many_arguments)]
    fn offer(
        &self,
        st: &mut QState,
        m: &mut Moved,
        payload: Payload,
        len: usize,
        deadline: &mut Option<Instant>,
        waker: Option<&Arc<Notifier>>,
        reported: bool,
    ) -> Fate {
        if !st.sink_open {
            self.pool.discard(payload);
            st.stats.dropped_closed += 1;
            m.closed += 1;
            return Fate::Closed;
        }
        if st.lane.is_empty() && self.fits(st, len) {
            return Fate::Admitted(self.admit(st, m, payload, len));
        }
        let deadline = *deadline.get_or_insert_with(|| Instant::now() + self.cfg.full_wait);
        if let Some(w) = waker {
            w.waiting.fetch_add(1, Ordering::AcqRel);
        }
        st.lane.push_back(Waiting {
            payload,
            len,
            deadline,
            waker: waker.cloned(),
            reported,
        });
        st.lane_in += 1;
        Fate::Waiting(st.lane_in)
    }

    /// Moves the lane on, in order: a head past its deadline (at `floor`
    /// or later) is charged `full` and never admitted late; a head that
    /// fits is admitted. Runs in every hold that posts or makes room.
    fn advance(&self, st: &mut QState, m: &mut Moved, floor: Option<Instant>) {
        let mut now = None;
        while let Some(head) = st.lane.front() {
            let t = *now
                .get_or_insert_with(|| floor.map_or_else(Instant::now, |f| f.max(Instant::now())));
            let expired = t >= head.deadline;
            if !expired && !self.fits(st, head.len) {
                break;
            }
            let Some(w) = st.lane.pop_front() else { break };
            let fate = if expired {
                self.pool.discard(w.payload);
                st.stats.dropped_full += 1;
                m.full += 1;
                Fate::Full
            } else {
                Fate::Admitted(self.admit(st, m, w.payload, w.len))
            };
            Self::depart(st, m, w.waker, w.reported, fate);
        }
    }

    /// Books a lane entry's departure: its number, its poster's fate
    /// record, and its pooled producer's count and wake.
    fn depart(
        st: &mut QState,
        m: &mut Moved,
        waker: Option<Arc<Notifier>>,
        reported: bool,
        fate: Fate,
    ) {
        st.lane_out += 1;
        if reported {
            st.fates.push((st.lane_out, fate));
        }
        if let Some(w) = waker {
            w.waiting.fetch_sub(1, Ordering::AcqRel);
            if !st.woken.iter().any(|o| Arc::ptr_eq(o, &w)) {
                st.woken.push(w);
            }
            m.woke = true;
        }
    }

    /// Posts a payload (Figure 6-9 semantics). Sync channels block until
    /// the message is taken or `T` elapses (rendezvous-or-drop).
    pub fn post(&self, payload: Payload) -> PostResult {
        let len = payload.buffered_len();
        let t0 = self
            .probe
            .as_ref()
            .filter(|p| p.sample_timing(TimingSite::Post))
            .map(|_| Instant::now());
        let res = self.post_one(payload, len);
        if let (Some(p), Some(t0)) = (&self.probe, t0) {
            p.on_post_ns(t0.elapsed().as_nanos() as u64);
        }
        res
    }

    /// The monitor-based post path (the paper's Figure 6-9 pseudocode):
    /// a refused payload waits in the lane until it departs, or until its
    /// deadline, when the poster withdraws it — everything ahead of it
    /// has expired too, so the hold charges them all in order.
    fn post_one(&self, payload: Payload, len: usize) -> PostResult {
        let mut deadline = None;
        let mut fate = self.update(|st, m| {
            self.advance(st, m, None);
            let fate = self.offer(st, m, payload, len, &mut deadline, None, true);
            (fate, Wake::None)
        });
        if let (Fate::Waiting(k), Some(d)) = (fate, deadline) {
            fate = self.wait_then(
                |st| st.lane_out < k,
                Some(d),
                |st, _, m| {
                    self.advance(st, m, Some(d));
                    (st.take_fate(k), Wake::None)
                },
            );
        }
        match fate {
            Fate::Admitted(ticket) if self.cfg.kind == ChannelKind::Sync => {
                let deadline = deadline.unwrap_or_else(|| Instant::now() + self.cfg.full_wait);
                match self.rendezvous(ticket, deadline) {
                    true => PostResult::Posted,
                    false => PostResult::Dropped,
                }
            }
            fate => fate.result(),
        }
    }

    /// A rendezvous's second half: waits until its own message — the
    /// `ticket`-th admission — has left the slot (fetched, or drained by
    /// a break or a shed). Every message admitted is fetched, drained or
    /// still pending, so the slot's message has left once `departed`
    /// reaches the ticket; a later message landing in the freed slot does
    /// not hold the wait. On timeout the message is still the slot's only
    /// occupant, and only it is withdrawn: uncounted as posted, charged
    /// to `full`, and the lane's head takes the slot. Returns whether the
    /// message was taken.
    fn rendezvous(&self, ticket: u64, deadline: Instant) -> bool {
        self.wait_then(
            |st| st.stats.departed() < ticket,
            Some(deadline),
            |st, taken, m| {
                if !taken {
                    if let Some(p) = st.queue.pop_front() {
                        self.shrink(st, p.buffered_len());
                        self.pool.discard(p);
                    }
                    st.stats.posted -= 1;
                    st.stats.dropped_full += 1;
                    m.full += 1;
                    self.advance(st, m, None);
                }
                (taken, Wake::None)
            },
        )
    }

    /// Offers a run under one lock hold, in order, sharing one Figure
    /// 6-9 deadline; drains `payloads` in place (its capacity is kept for
    /// the caller's next run). Returns the run's last lane number and
    /// that deadline when some of it joined the lane, and how many did.
    fn offer_run(
        &self,
        payloads: &mut Vec<Payload>,
        waker: Option<&Arc<Notifier>>,
    ) -> (Option<(u64, Instant)>, usize) {
        let mut deadline = None;
        let (last, n) = self.update(|st, m| {
            self.advance(st, m, None);
            let (mut last, mut n) = (0, 0);
            for p in payloads.drain(..) {
                let len = p.buffered_len();
                if let Fate::Waiting(k) = self.offer(st, m, p, len, &mut deadline, waker, false) {
                    (last, n) = (k, n + 1);
                }
            }
            ((last, n), Wake::None)
        });
        (deadline.map(|d| (last, d)), n)
    }

    /// Posts a run of payloads, sharing one Figure 6-9 wait budget `T`
    /// across the run: one lock hold admits what fits and queues the rest
    /// in the lane, and the poster waits (on the rest of the budget) for
    /// the run's last entry to depart. Per-message byte accounting and
    /// drop-on-full semantics are identical to calling
    /// [`MessageQueue::post`] once per payload; sync (zero-length)
    /// channels rendezvous per message, so they simply delegate. Drains
    /// `payloads` in place, so the caller can reuse the buffer (its
    /// capacity is retained for the next run).
    pub fn post_all(&self, payloads: &mut Vec<Payload>) {
        if payloads.is_empty() {
            return;
        }
        if self.cfg.kind == ChannelKind::Sync {
            // Per-message delegation records its own post timings.
            for p in payloads.drain(..) {
                self.post(p);
            }
            return;
        }
        let t0 = self
            .probe
            .as_ref()
            .filter(|p| p.sample_timing(TimingSite::Post))
            .map(|_| Instant::now());
        // The admissions' consumer wake went out with the hold's release,
        // before this wait: a consumer never woken would leave the run
        // stuck until its drop deadline.
        if let (Some((k, d)), _) = self.offer_run(payloads, None) {
            self.wait_then(
                |st| st.lane_out < k,
                Some(d),
                |st, _, m| {
                    self.advance(st, m, Some(d));
                    ((), Wake::None)
                },
            );
        }
        if let (Some(p), Some(t0)) = (&self.probe, t0) {
            p.on_post_ns(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Non-blocking post: admits the payload if the channel has room
    /// behind an empty lane, otherwise queues it in the lane and returns
    /// [`PostResult::Waiting`] at once; the channel then admits it when
    /// room frees, or charges it `full` past its deadline. A closed sink
    /// discards the payload (as `post` does) and reports `Closed`.
    ///
    /// A pooled producer passes its notifier as `waker`: the entry counts
    /// in [`Notifier::waiting`] until it departs, and its departure wakes
    /// the producer. A sync channel admits into its empty slot without
    /// the rendezvous wait; an occupied slot queues the payload, so the
    /// rendezvous pacing survives without a parked worker thread — a
    /// chain deeper than the worker count would otherwise deadlock with
    /// every worker blocked inside a post.
    pub fn post_nowait(&self, payload: Payload, waker: Option<&Arc<Notifier>>) -> PostResult {
        let len = payload.buffered_len();
        let mut deadline = None;
        self.update(|st, m| {
            self.advance(st, m, None);
            let fate = self.offer(st, m, payload, len, &mut deadline, waker, false);
            (fate.result(), Wake::None)
        })
    }

    /// Non-blocking batch post under one lock acquisition: admits what
    /// fits, in order, and queues the rest in the lane (see
    /// [`Self::post_nowait`]), sharing one deadline. Drains `payloads`
    /// in place, keeping its capacity, and returns how many of them wait
    /// in the lane.
    pub fn post_all_nowait(
        &self,
        payloads: &mut Vec<Payload>,
        waker: Option<&Arc<Notifier>>,
    ) -> usize {
        if payloads.is_empty() {
            return 0;
        }
        self.offer_run(payloads, waker).1
    }

    /// One lock hold on the channel: charges the lane entries past their
    /// deadline (and admits the heads that then fit). A gated pooled
    /// producer holds its output channels so, as a blocked poster would,
    /// it drops what waited out `T` and moves on.
    pub(crate) fn expire_waiting(&self) {
        self.update(|st, m| {
            self.advance(st, m, None);
            ((), Wake::None)
        });
    }

    /// Overload relief valve: discards up to `max_n` pending messages,
    /// charging them to the `shed` drop reason, and returns how many were
    /// shed. The runtime's congestion handler (a `CHANNEL_CONGESTED`
    /// event raised by a post that congested a channel) and operator
    /// hooks call this to trade old data for headroom instead of stalling
    /// producers.
    ///
    /// Selection is **priority-aware**: lowest [`PriorityClass`] first
    /// (bulk `image/*`/`video/*`/`audio/*` before interactive
    /// `text/*`/`application/*`), oldest within a class.
    pub fn shed_oldest(&self, max_n: usize) -> usize {
        if max_n == 0 {
            return 0;
        }
        let n = self.update(|st, m| {
            if st.queue.is_empty() {
                return (0, Wake::None);
            }
            // Lowest class first, oldest within a class.
            let mut order: Vec<(PriorityClass, usize)> = st
                .queue
                .iter()
                .map(|p| self.payload_class(p))
                .zip(0..)
                .collect();
            order.sort_unstable();
            let mut shed = vec![false; order.len()];
            for &(_, i) in order.iter().take(max_n) {
                shed[i] = true;
            }
            let mut n = 0usize;
            let old = std::mem::take(&mut st.queue);
            for (i, p) in old.into_iter().enumerate() {
                if shed[i] {
                    self.shrink(st, p.buffered_len());
                    self.pool.discard(p);
                    n += 1;
                } else {
                    st.queue.push_back(p);
                }
            }
            st.stats.dropped_shed += n as u64;
            self.advance(st, m, None);
            (n, if n > 0 { Wake::All } else { Wake::None })
        });
        self.probe_drop(DropReason::Shed, n as u64);
        n
    }

    /// Priority class of a pending payload, by its MIME top-level type.
    /// A `Ref` whose pool entry vanished classifies as `Normal`.
    fn payload_class(&self, p: &Payload) -> PriorityClass {
        match p {
            Payload::Value(m) => PriorityClass::of_message(m),
            Payload::Ref { id, .. } => self.pool.peek_class(*id).unwrap_or(PriorityClass::Normal),
        }
    }

    /// Accounts `n` ingress posts rejected by admission control. No
    /// payload ever existed (rejection happens before the message enters
    /// the pool), so only the reason counter is charged, and the drop
    /// reaches the probe's trace and rate watchers.
    pub fn charge_admission_rejected(&self, n: u64) {
        self.state.update(|st| {
            st.stats.dropped_admission += n;
            ((), Wake::None)
        });
        self.probe_drop(DropReason::Admission, n);
    }

    /// Takes the oldest pending payload, or says why there is none. A
    /// take promotes the lane and wakes blocked rendezvous.
    fn take_one(&self, st: &mut QState, m: &mut Moved) -> (FetchResult, Wake) {
        if let Some(p) = st.queue.pop_front() {
            self.shrink(st, p.buffered_len());
            st.stats.fetched += 1;
            self.advance(st, m, None);
            return (FetchResult::Msg(p), Wake::All);
        }
        let r = if st.source_gone() {
            FetchResult::Disconnected
        } else {
            FetchResult::Empty
        };
        (r, Wake::None)
    }

    /// Non-blocking fetch.
    pub fn try_fetch(&self) -> FetchResult {
        self.update(|st, m| self.take_one(st, m))
    }

    /// Blocking fetch with timeout: waits while the queue is empty and
    /// its source live.
    pub fn fetch(&self, timeout: Duration) -> FetchResult {
        self.wait_then(
            |st| st.queue.is_empty() && !st.source_gone(),
            deadline_after(timeout),
            |st, _, m| self.take_one(st, m),
        )
    }

    /// Removes up to `max_n` pending payloads under a single lock
    /// acquisition, in FIFO order, stopping before a payload that would
    /// push the batch past `max_bytes` — except the first, which is always
    /// taken regardless of size (mirroring the oversized-admission rule so
    /// a message bigger than any budget still makes progress). Appends to
    /// `out`, so a driver can reuse one scratch vec across every step, and
    /// returns how many were taken.
    pub fn take_batch(&self, out: &mut Vec<Payload>, max_n: usize, max_bytes: usize) -> usize {
        if max_n == 0 {
            return 0;
        }
        let taken = self.update(|st, m| {
            let mut taken = 0usize;
            let mut bytes = 0usize;
            while taken < max_n {
                let Some(next) = st.queue.front().map(|p| p.buffered_len()) else {
                    break;
                };
                if taken != 0 && bytes.saturating_add(next) > max_bytes {
                    break;
                }
                let Some(p) = st.queue.pop_front() else {
                    break;
                };
                self.shrink(st, next);
                bytes = bytes.saturating_add(next);
                out.push(p);
                taken += 1;
            }
            if taken == 0 {
                return (0, Wake::None);
            }
            st.stats.fetched += taken as u64;
            self.advance(st, m, None);
            (taken, Wake::All)
        });
        if let (true, Some(p)) = (taken != 0, &self.probe) {
            p.on_batch(taken);
        }
        taken
    }

    /// Number of pending messages.
    pub fn len(&self) -> usize {
        self.state.read(|st| st.queue.len())
    }

    /// True when nothing is pending (and so nothing waits in the lane).
    pub fn is_empty(&self) -> bool {
        self.state.read(|st| st.queue.is_empty())
    }

    /// Bytes the channel holds: buffered, plus waiting in the lane.
    pub fn buffered_bytes(&self) -> usize {
        self.state
            .read(|st| st.bytes + st.lane.iter().map(|w| w.len).sum::<usize>())
    }

    /// Statistics snapshot, counters and depths from one lock hold:
    /// `posted == fetched + pending + dropped_break + dropped_shed`
    /// holds for every snapshot.
    pub fn stats(&self) -> QueueStats {
        self.state.read(|st| QueueStats {
            pending: st.queue.len() as u64,
            waiting: st.lane.len() as u64,
            ..st.stats
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use mobigate_mime::MimeMessage;
    use std::thread;

    fn setup(cfg: QueueConfig) -> (Arc<MessageQueue>, Arc<MessagePool>) {
        let pool = Arc::new(MessagePool::new());
        let q = MessageQueue::new(cfg, pool.clone());
        (q, pool)
    }

    fn payload(pool: &MessagePool, n: usize) -> Payload {
        pool.wrap(
            MimeMessage::new(&MimeType::new("text", "plain"), vec![0u8; n]),
            crate::PayloadMode::Reference,
            1,
        )
    }

    #[test]
    fn fifo_order_preserved() {
        let (q, pool) = setup(QueueConfig::default());
        for i in 0..10usize {
            let m = MimeMessage::text(format!("m{i}"));
            assert_eq!(
                q.post(pool.wrap(m, crate::PayloadMode::Reference, 1)),
                PostResult::Posted
            );
        }
        for i in 0..10usize {
            match q.try_fetch() {
                FetchResult::Msg(p) => {
                    let m = pool.resolve(p).unwrap();
                    assert_eq!(m.body, format!("m{i}").as_bytes());
                }
                other => panic!("expected message, got {other:?}"),
            }
        }
        assert!(matches!(q.try_fetch(), FetchResult::Empty));
    }

    #[test]
    fn post_on_full_queue_drops_after_t() {
        let cfg = QueueConfig {
            capacity_bytes: 256,
            full_wait: Duration::from_millis(20),
            ..Default::default()
        };
        let (q, pool) = setup(cfg);
        assert_eq!(q.post(payload(&pool, 200)), PostResult::Posted);
        // Queue non-empty and over capacity: this one must drop after T.
        let t0 = Instant::now();
        assert_eq!(q.post(payload(&pool, 200)), PostResult::Dropped);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert_eq!(q.stats().dropped_full, 1);
        // The pool reclaimed the dropped message's reference.
        assert_eq!(pool.stats().resident, 1);
    }

    #[test]
    fn oversized_message_admitted_when_empty() {
        let cfg = QueueConfig {
            capacity_bytes: 64,
            ..Default::default()
        };
        let (q, pool) = setup(cfg);
        assert_eq!(q.post(payload(&pool, 4096)), PostResult::Posted);
    }

    #[test]
    fn post_unblocks_when_consumer_drains() {
        let cfg = QueueConfig {
            capacity_bytes: 300,
            full_wait: Duration::from_millis(500),
            ..Default::default()
        };
        let (q, pool) = setup(cfg);
        assert_eq!(q.post(payload(&pool, 256)), PostResult::Posted);
        let q2 = q.clone();
        let drainer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            q2.try_fetch()
        });
        // Blocks ~30ms, then space appears.
        assert_eq!(q.post(payload(&pool, 256)), PostResult::Posted);
        assert!(matches!(drainer.join().unwrap(), FetchResult::Msg(_)));
    }

    #[test]
    fn blocking_fetch_waits_for_message() {
        let (q, pool) = setup(QueueConfig::default());
        let q2 = q.clone();
        let pool2 = pool.clone();
        let poster = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            q2.post(payload(&pool2, 8))
        });
        match q.fetch(Duration::from_millis(500)) {
            FetchResult::Msg(p) => drop(pool.resolve(p)),
            other => panic!("{other:?}"),
        }
        assert_eq!(poster.join().unwrap(), PostResult::Posted);
    }

    #[test]
    fn fetch_times_out_empty() {
        let (q, _) = setup(QueueConfig::default());
        let t0 = Instant::now();
        assert!(matches!(
            q.fetch(Duration::from_millis(15)),
            FetchResult::Empty
        ));
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn sync_channel_rendezvous() {
        let cfg = QueueConfig {
            kind: ChannelKind::Sync,
            category: ChannelCategory::S,
            full_wait: Duration::from_millis(500),
            ..Default::default()
        };
        let (q, pool) = setup(cfg);
        let q2 = q.clone();
        let consumer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            q2.fetch(Duration::from_millis(500))
        });
        let t0 = Instant::now();
        assert_eq!(q.post(payload(&pool, 8)), PostResult::Posted);
        // Post returned only after the consumer took the message.
        assert!(t0.elapsed() >= Duration::from_millis(15));
        assert!(matches!(consumer.join().unwrap(), FetchResult::Msg(_)));
        assert!(q.is_empty());
    }

    fn text(pool: &MessagePool, body: &str) -> Payload {
        pool.wrap(MimeMessage::text(body), crate::PayloadMode::Reference, 1)
    }

    fn body(pool: &MessagePool, r: FetchResult) -> String {
        match r {
            FetchResult::Msg(p) => String::from_utf8_lossy(&pool.resolve(p).unwrap().body).into(),
            other => panic!("expected a message, got {other:?}"),
        }
    }

    /// A rendezvous waits for its own message to be taken, not for the
    /// slot to empty: a message another producer lands in the freed slot
    /// neither holds the wait nor is withdrawn by its timeout.
    #[test]
    fn sync_rendezvous_waits_for_its_own_message() {
        let (q, pool) = setup(QueueConfig {
            kind: ChannelKind::Sync,
            category: ChannelCategory::S,
            full_wait: Duration::from_millis(100),
            ..Default::default()
        });
        let (q2, pool2) = (q.clone(), pool.clone());
        let producer = thread::spawn(move || q2.post(text(&pool2, "A")));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(body(&pool, q.try_fetch()), "A");
        assert_eq!(q.post_nowait(text(&pool, "C"), None), PostResult::Posted);
        assert_eq!(producer.join().unwrap(), PostResult::Posted);
        assert_eq!(body(&pool, q.try_fetch()), "C");
        let s = q.stats();
        assert_eq!((s.posted, s.fetched, s.dropped_total()), (2, 2, 0));
    }

    /// Two blocking producers on one rendezvous slot: the second admits
    /// the moment the first message is taken, and the first producer
    /// still returns `Posted` at once, withdrawing nothing.
    #[test]
    fn sync_rendezvous_of_two_producers_withdraws_nothing_it_does_not_own() {
        for round in 0..20 {
            let (q, pool) = setup(QueueConfig {
                kind: ChannelKind::Sync,
                category: ChannelCategory::S,
                full_wait: Duration::from_secs(2),
                ..Default::default()
            });
            let post = |tag: &'static str| {
                let (q, pool) = (q.clone(), pool.clone());
                thread::spawn(move || q.post(text(&pool, tag)))
            };
            let first = post("A");
            while q.is_empty() {
                thread::yield_now();
            }
            let second = post("B");
            thread::sleep(Duration::from_millis(5));
            assert_eq!(body(&pool, q.try_fetch()), "A", "round {round}");
            assert_eq!(first.join().unwrap(), PostResult::Posted, "round {round}");
            assert_eq!(
                body(&pool, q.fetch(Duration::from_secs(2))),
                "B",
                "round {round}"
            );
            assert_eq!(second.join().unwrap(), PostResult::Posted, "round {round}");
            let s = q.stats();
            assert_eq!(
                (s.posted, s.fetched, s.dropped_total()),
                (2, 2, 0),
                "round {round}"
            );
        }
    }

    /// A break that drains the slot ends the rendezvous as it always
    /// has: the post reports `Posted`, the message is charged `break`.
    #[test]
    fn sync_rendezvous_broken_by_a_drain_returns() {
        let (q, pool) = setup(QueueConfig {
            kind: ChannelKind::Sync,
            category: ChannelCategory::BB,
            full_wait: Duration::from_secs(5),
            ..Default::default()
        });
        q.attach_source();
        q.attach_sink();
        let (q2, pool2) = (q.clone(), pool.clone());
        let t0 = Instant::now();
        let producer = thread::spawn(move || q2.post(text(&pool2, "A")));
        while q.is_empty() {
            thread::yield_now();
        }
        q.detach_source().unwrap();
        assert_eq!(producer.join().unwrap(), PostResult::Posted);
        assert!(t0.elapsed() < Duration::from_secs(4), "woken by the drain");
        let s = q.stats();
        assert_eq!((s.posted, s.dropped_break, s.pending), (1, 1, 0));
        assert_eq!(pool.stats().resident, 0);
    }

    #[test]
    fn sync_channel_drops_without_consumer() {
        let cfg = QueueConfig {
            kind: ChannelKind::Sync,
            category: ChannelCategory::S,
            full_wait: Duration::from_millis(20),
            ..Default::default()
        };
        let (q, pool) = setup(cfg);
        assert_eq!(q.post(payload(&pool, 8)), PostResult::Dropped);
        assert!(q.is_empty());
        assert_eq!(pool.stats().resident, 0, "withdrawn message reclaimed");
    }

    #[test]
    fn bb_break_drops_pending_both_ways() {
        let cfg = QueueConfig {
            category: ChannelCategory::BB,
            ..Default::default()
        };
        let (q, pool) = setup(cfg);
        q.attach_source();
        q.attach_sink();
        assert_eq!(q.post(payload(&pool, 8)), PostResult::Posted);
        q.detach_source().unwrap();
        // Sink side auto-disconnected; pending dropped.
        assert!(matches!(q.try_fetch(), FetchResult::Disconnected));
        assert_eq!(q.stats().dropped_break, 1);
        // Posts now fail Closed.
        assert_eq!(q.post(payload(&pool, 8)), PostResult::Closed);
    }

    #[test]
    fn bk_source_break_keeps_pending_flowing() {
        let cfg = QueueConfig {
            category: ChannelCategory::BK,
            ..Default::default()
        };
        let (q, pool) = setup(cfg);
        q.attach_source();
        q.attach_sink();
        assert_eq!(q.post(payload(&pool, 8)), PostResult::Posted);
        q.detach_source().unwrap();
        // The pending unit still reaches the target…
        assert!(matches!(q.try_fetch(), FetchResult::Msg(_)));
        // …after which the consumer learns the source is gone.
        assert!(matches!(q.try_fetch(), FetchResult::Disconnected));
    }

    #[test]
    fn bk_sink_break_drops_pending() {
        let cfg = QueueConfig {
            category: ChannelCategory::BK,
            ..Default::default()
        };
        let (q, pool) = setup(cfg);
        q.attach_source();
        q.attach_sink();
        assert_eq!(q.post(payload(&pool, 8)), PostResult::Posted);
        q.detach_sink().unwrap();
        assert_eq!(q.stats().dropped_break, 1);
        assert_eq!(q.post(payload(&pool, 8)), PostResult::Closed);
    }

    #[test]
    fn kb_sink_break_retains_pending_for_new_sink() {
        let cfg = QueueConfig {
            category: ChannelCategory::KB,
            ..Default::default()
        };
        let (q, pool) = setup(cfg);
        q.attach_source();
        q.attach_sink();
        assert_eq!(q.post(payload(&pool, 8)), PostResult::Posted);
        q.detach_sink().unwrap();
        assert_eq!(q.stats().dropped_break, 0, "KB keeps pending on sink break");
        // A replacement sink attaches and receives the retained unit.
        q.attach_sink();
        assert!(matches!(q.try_fetch(), FetchResult::Msg(_)));
    }

    #[test]
    fn kk_cannot_be_disconnected() {
        let cfg = QueueConfig {
            category: ChannelCategory::KK,
            ..Default::default()
        };
        let (q, _) = setup(cfg);
        q.attach_source();
        q.attach_sink();
        assert!(q.detach_source().is_err());
        assert!(q.detach_sink().is_err());
    }

    #[test]
    fn reattach_reopens_channel() {
        let cfg = QueueConfig {
            category: ChannelCategory::BB,
            ..Default::default()
        };
        let (q, pool) = setup(cfg);
        q.attach_source();
        q.attach_sink();
        q.detach_source().unwrap();
        assert_eq!(q.post(payload(&pool, 8)), PostResult::Closed);
        // Reconfiguration reattaches both ends (the paper reuses channel m
        // when inserting streamlet C, Figure 7-4).
        q.attach_source();
        q.attach_sink();
        assert_eq!(q.post(payload(&pool, 8)), PostResult::Posted);
        assert!(matches!(q.try_fetch(), FetchResult::Msg(_)));
    }

    #[test]
    fn counts_track_attachments() {
        let (q, _) = setup(QueueConfig::default());
        q.attach_source();
        q.attach_source();
        q.attach_sink();
        assert_eq!(q.pcount(), 2);
        assert_eq!(q.ccount(), 1);
        q.detach_source().unwrap();
        assert_eq!(q.pcount(), 1);
    }

    /// `Duration::MAX` means no deadline, not an `Instant` overflow: a
    /// fetch with a message queued, or from a disconnected queue, returns
    /// at once.
    #[test]
    fn fetch_with_an_unbounded_timeout_returns_what_is_there() {
        let (q, pool) = setup(QueueConfig::default());
        q.attach_source();
        q.post(payload(&pool, 4));
        assert!(matches!(q.fetch(Duration::MAX), FetchResult::Msg(_)));
        q.detach_source().unwrap();
        assert!(matches!(q.fetch(Duration::MAX), FetchResult::Disconnected));
    }

    #[test]
    fn listener_woken_on_post() {
        let (q, pool) = setup(QueueConfig::default());
        let n = Arc::new(Notifier::new());
        q.add_listener(n.clone());
        let n2 = n.clone();
        let since = n.snapshot();
        let waiter = thread::spawn(move || {
            let t0 = Instant::now();
            n2.wait_unless(since, deadline_after(Duration::from_millis(500)));
            t0.elapsed()
        });
        thread::sleep(Duration::from_millis(20));
        q.post(payload(&pool, 4));
        let waited = waiter.join().unwrap();
        assert!(
            waited < Duration::from_millis(400),
            "woken early, waited {waited:?}"
        );
        q.remove_listener(&n);
    }

    #[test]
    fn stats_account_everything() {
        let (q, pool) = setup(QueueConfig {
            capacity_bytes: 100,
            full_wait: Duration::from_millis(5),
            ..Default::default()
        });
        q.post(payload(&pool, 90));
        q.post(payload(&pool, 90)); // drops
        if let FetchResult::Msg(p) = q.try_fetch() {
            pool.discard(p);
        }
        let s = q.stats();
        assert_eq!(s.posted, 1);
        assert_eq!(s.fetched, 1);
        assert_eq!(s.dropped_full, 1);
    }

    #[test]
    fn concurrent_producers_consumers() {
        let (q, pool) = setup(QueueConfig {
            capacity_bytes: 1 << 20,
            ..Default::default()
        });
        let total = 2000;
        let mut producers = Vec::new();
        for _ in 0..4 {
            let q = q.clone();
            let pool = pool.clone();
            producers.push(thread::spawn(move || {
                for _ in 0..total / 4 {
                    assert_eq!(q.post(payload(&pool, 16)), PostResult::Posted);
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let q = q.clone();
            let pool = pool.clone();
            consumers.push(thread::spawn(move || {
                let mut got = 0;
                while got < total / 2 {
                    if let FetchResult::Msg(p) = q.fetch(Duration::from_millis(200)) {
                        pool.resolve(p).unwrap();
                        got += 1;
                    }
                }
                got
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        let received: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(received, total);
        assert_eq!(pool.stats().resident, 0);
    }

    #[test]
    fn drops_are_reason_coded() {
        let (q, pool) = setup(QueueConfig {
            capacity_bytes: 64,
            full_wait: Duration::from_millis(1),
            ..Default::default()
        });
        q.attach_source();
        q.attach_sink();
        // Oversized-head admission fills the queue; the next post waits
        // out its tiny budget and drops with reason `full`.
        assert_eq!(q.post(payload(&pool, 128)), PostResult::Posted);
        assert_eq!(q.post(payload(&pool, 16)), PostResult::Dropped);
        let s = q.stats();
        assert_eq!((s.dropped_full, s.dropped_total()), (1, 1));

        // Shedding the resident head charges `shed`, not `full`.
        assert_eq!(q.shed_oldest(8), 1);
        assert!(q.is_empty());
        let s = q.stats();
        assert_eq!(s.dropped_shed, 1);

        // A lane entry whose Figure 6-9 deadline passed is charged `full`
        // too, by the hold that next moves the lane.
        assert_eq!(q.post(payload(&pool, 128)), PostResult::Posted);
        assert_eq!(q.post_nowait(payload(&pool, 16), None), PostResult::Waiting);
        thread::sleep(Duration::from_millis(5));
        if let FetchResult::Msg(p) = q.try_fetch() {
            pool.discard(p);
        }
        // `break` covers in-queue messages destroyed when a BK channel's
        // sink side breaks the stream.
        assert_eq!(q.post(payload(&pool, 8)), PostResult::Posted);
        q.detach_sink().unwrap();
        let s = q.stats();
        assert_eq!(s.dropped_full, 2);
        assert_eq!(s.dropped_break, 1);
        assert_eq!(s.dropped_shed, 1);
        assert_eq!(s.dropped_total(), 4);
        assert_eq!(pool.stats().resident, 0, "every drop released its payload");
    }

    #[test]
    fn shed_oldest_sheds_in_fifo_order() {
        let (q, pool) = setup(QueueConfig {
            capacity_bytes: 1 << 20,
            ..Default::default()
        });
        for i in 0..4usize {
            let m = MimeMessage::text(format!("m{i}"));
            assert_eq!(
                q.post(pool.wrap(m, crate::PayloadMode::Reference, 1)),
                PostResult::Posted
            );
        }
        assert_eq!(q.shed_oldest(2), 2);
        // The survivors are the *newest* two, still in order.
        for expect in ["m2", "m3"] {
            match q.try_fetch() {
                FetchResult::Msg(p) => {
                    let m = pool.resolve(p).unwrap();
                    assert_eq!(&m.body[..], expect.as_bytes());
                }
                other => panic!("expected {expect}, got {other:?}"),
            }
        }
        assert_eq!(q.shed_oldest(5), 0, "empty queue sheds nothing");
        assert_eq!(q.stats().dropped_shed, 2);
    }

    #[test]
    fn shed_oldest_sheds_lowest_priority_first() {
        let (q, pool) = setup(QueueConfig {
            capacity_bytes: 1 << 20,
            ..Default::default()
        });
        let post = |top: &str, body: &str| {
            let m = MimeMessage::new(&MimeType::new(top, "x"), body.as_bytes().to_vec());
            assert_eq!(
                q.post(pool.wrap(m, crate::PayloadMode::Reference, 1)),
                PostResult::Posted
            );
        };
        post("text", "t0");
        post("image", "i0");
        post("multipart", "n0");
        post("video", "i1");
        post("text", "t1");
        post("image", "i2");
        // Shed 4: all three bulk entries go first (oldest-first), then the
        // single normal entry; interactive text survives untouched.
        assert_eq!(q.shed_oldest(4), 4);
        for expect in ["t0", "t1"] {
            match q.try_fetch() {
                FetchResult::Msg(p) => {
                    let m = pool.resolve(p).unwrap();
                    assert_eq!(&m.body[..], expect.as_bytes());
                }
                other => panic!("expected {expect}, got {other:?}"),
            }
        }
        assert!(q.is_empty());
        assert_eq!(q.stats().dropped_shed, 4);
        assert_eq!(pool.stats().resident, 0, "shed payloads released");
    }

    #[test]
    fn shed_oldest_partial_within_class_keeps_order_and_bytes() {
        let (q, pool) = setup(QueueConfig {
            capacity_bytes: 1 << 20,
            ..Default::default()
        });
        for i in 0..3 {
            let m = MimeMessage::new(&MimeType::new("image", "gif"), vec![7u8; 100 + i]);
            assert_eq!(
                q.post(pool.wrap(m, crate::PayloadMode::Reference, 1)),
                PostResult::Posted
            );
        }
        let before = q.buffered_bytes();
        assert_eq!(q.shed_oldest(1), 1);
        assert!(q.buffered_bytes() < before, "byte accounting shrank");
        // Survivors keep FIFO order within the class.
        match q.try_fetch() {
            FetchResult::Msg(p) => {
                assert_eq!(pool.resolve(p).unwrap().body.len(), 101);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn admission_rejections_are_reason_coded() {
        let (q, _) = setup(QueueConfig::default());
        q.charge_admission_rejected(3);
        let s = q.stats();
        assert_eq!(s.dropped_admission, 3);
        assert_eq!(s.dropped_total(), 3);
        assert_eq!(s.posted, 0, "rejected posts never count as posted");
    }

    #[test]
    fn post_racing_a_break_is_never_stranded() {
        // Posts racing a sink break either land before the break drains
        // the channel (charged `break`) or see it closed (charged
        // `closed`): none is left behind uncharged. Two posting threads
        // widen the window.
        const POSTS: u64 = 64;
        for round in 0..200 {
            let (q, pool) = setup(QueueConfig {
                capacity_bytes: 1 << 20,
                ..Default::default()
            });
            q.attach_source();
            q.attach_sink();
            let posters: Vec<_> = (0..2)
                .map(|_| {
                    let (q, pool) = (q.clone(), pool.clone());
                    thread::spawn(move || {
                        (0..POSTS)
                            .filter(|_| q.post(payload(&pool, 8)) == PostResult::Posted)
                            .count() as u64
                    })
                })
                .collect();
            for _ in 0..round % 16 {
                thread::yield_now();
            }
            q.detach_sink().unwrap();
            let posted: u64 = posters.into_iter().map(|p| p.join().unwrap()).sum();
            let s = q.stats();
            assert_eq!(q.len(), 0, "round {round}: stranded in the channel");
            assert_eq!(s.dropped_break, posted, "round {round}");
            assert_eq!(
                s.dropped_break + s.dropped_closed,
                2 * POSTS,
                "round {round}"
            );
            assert_eq!(pool.stats().resident, 0, "round {round}");
        }
    }

    /// Every snapshot balances, `posted == fetched + pending +
    /// dropped_break + dropped_shed`, and shows a lane only behind a
    /// non-empty buffer, while producers on `post`, `post_all` and
    /// `post_nowait`, a batch-and-fetch consumer and a shedder run; after
    /// a final sink break nothing waits, and every offered message was
    /// fetched or charged to exactly one drop reason.
    #[test]
    fn channel_conservation_holds_at_every_instant() {
        use std::sync::atomic::AtomicU64;
        const EACH: u64 = 400;
        let (q, pool) = setup(QueueConfig {
            capacity_bytes: 600,
            full_wait: Duration::from_millis(2),
            ..Default::default()
        });
        q.attach_source();
        q.attach_sink();
        let done = Arc::new(AtomicBool::new(false));
        let offered = Arc::new(AtomicU64::new(0));
        let spawn = |f: fn(&MessageQueue, &MessagePool, &AtomicU64)| {
            let (q, pool, offered) = (q.clone(), pool.clone(), offered.clone());
            thread::spawn(move || f(&q, &pool, &offered))
        };
        let producers = [
            spawn(|q, pool, offered| {
                for _ in 0..EACH {
                    q.post(payload(pool, 40));
                    offered.fetch_add(1, Ordering::Relaxed);
                }
            }),
            spawn(|q, pool, offered| {
                let mut run = Vec::new();
                for _ in 0..EACH / 4 {
                    run.extend((0..4).map(|_| payload(pool, 40)));
                    q.post_all(&mut run);
                    offered.fetch_add(4, Ordering::Relaxed);
                }
            }),
            spawn(|q, pool, offered| {
                for _ in 0..EACH {
                    let r = q.post_nowait(payload(pool, 40), None);
                    offered.fetch_add(1, Ordering::Relaxed);
                    if r == PostResult::Waiting {
                        thread::yield_now();
                    }
                }
            }),
        ];
        let until_done = |f: fn(&MessageQueue, &MessagePool)| {
            let (q, pool, done) = (q.clone(), pool.clone(), done.clone());
            thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    f(&q, &pool);
                }
            })
        };
        let helpers = [
            until_done(|q, pool| {
                let mut out = Vec::new();
                q.take_batch(&mut out, 3, usize::MAX);
                if let FetchResult::Msg(p) = q.fetch(Duration::from_millis(1)) {
                    out.push(p);
                }
                out.into_iter().for_each(|p| pool.discard(p));
            }),
            until_done(|q, _| {
                q.shed_oldest(2);
                thread::sleep(Duration::from_micros(300));
            }),
            until_done(|q, _| {
                let s = q.stats();
                assert_eq!(
                    s.posted,
                    s.fetched + s.pending + s.dropped_break + s.dropped_shed,
                    "{s:?}"
                );
                assert!(s.waiting == 0 || s.pending > 0, "{s:?}");
            }),
        ];
        for p in producers {
            p.join().unwrap();
        }
        q.detach_sink().unwrap();
        done.store(true, Ordering::Relaxed);
        for h in helpers {
            h.join().unwrap();
        }
        let s = q.stats();
        assert_eq!(
            (s.pending, s.waiting),
            (0, 0),
            "the break drained the channel"
        );
        assert_eq!(
            offered.load(Ordering::Relaxed),
            s.fetched + s.dropped_total(),
            "{s:?}"
        );
        assert_eq!(s.dropped_admission, 0);
        assert_eq!(pool.stats().resident, 0);
    }

    /// An entry that waited out `T` in the lane is charged `full` exactly
    /// once, by the next hold, and never admitted late — not even by the
    /// take that makes room for it.
    #[test]
    fn expired_lane_entry_is_charged_full_once_and_never_admitted() {
        let (q, pool) = setup(QueueConfig {
            capacity_bytes: 1,
            full_wait: Duration::from_millis(10),
            ..Default::default()
        });
        let n = Arc::new(Notifier::new());
        // Oversized-head admission fills the queue past its budget…
        assert_eq!(q.post(text(&pool, "head")), PostResult::Posted);
        // …so this post waits in the lane, counted on its producer.
        assert_eq!(
            q.post_nowait(text(&pool, "late"), Some(&n)),
            PostResult::Waiting
        );
        assert_eq!(n.waiting(), 1);
        let s = q.stats();
        assert_eq!((s.waiting, s.dropped_full), (1, 0));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(body(&pool, q.try_fetch()), "head");
        let s = q.stats();
        assert_eq!((s.posted, s.waiting, s.dropped_full), (1, 0, 1));
        assert_eq!(n.waiting(), 0);
        // Later holds charge nothing more and deliver nothing late.
        assert!(matches!(q.try_fetch(), FetchResult::Empty));
        assert_eq!(q.shed_oldest(1), 0);
        assert!(matches!(
            q.fetch(Duration::from_millis(20)),
            FetchResult::Empty
        ));
        assert_eq!(q.stats().dropped_full, 1);
        assert_eq!(pool.stats().resident, 0, "dropped payload fully released");
    }

    /// A producer's teardown leaves its waiting entries to the channel:
    /// the last source detach of a BK channel charges nothing, an entry
    /// that waited out `T` is charged `full` by the next hold, and one
    /// still inside it is delivered.
    #[test]
    fn waiting_entries_outlive_their_producer() {
        let (q, pool) = setup(QueueConfig {
            capacity_bytes: 1,
            full_wait: Duration::from_millis(100),
            ..Default::default()
        });
        q.attach_source();
        q.attach_sink();
        let n = Arc::new(Notifier::new());
        assert_eq!(q.post(text(&pool, "head")), PostResult::Posted);
        let wait = |tag| q.post_nowait(text(&pool, tag), Some(&n));
        assert_eq!(wait("old"), PostResult::Waiting);
        thread::sleep(Duration::from_millis(150));
        // This post's hold charges "old" before "new" joins the lane.
        assert_eq!(wait("new"), PostResult::Waiting);
        q.detach_source().unwrap();
        let s = q.stats();
        assert_eq!((s.waiting, s.dropped_full, s.dropped_total()), (1, 1, 1));
        assert_eq!(body(&pool, q.try_fetch()), "head");
        assert_eq!(body(&pool, q.try_fetch()), "new");
        assert!(matches!(q.try_fetch(), FetchResult::Disconnected));
        let s = q.stats();
        assert_eq!((s.posted, s.fetched, s.dropped_total()), (2, 2, 1));
        assert_eq!(n.waiting(), 0);
        assert_eq!(pool.stats().resident, 0);
    }
}
