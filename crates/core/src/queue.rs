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
}

impl std::fmt::Debug for Notifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Notifier")
            .field("seq", &self.seq.read(|s| *s))
            .field("armed", &self.armed.load(Ordering::Relaxed))
            .field("hooked", &self.hook.lock().is_some())
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
    /// Figure 6-9's `T`: how long `post` waits on a full queue before
    /// dropping the message.
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

/// Lifetime counters, and the pending depth at the same instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Successfully enqueued messages.
    pub posted: u64,
    /// Successfully fetched messages.
    pub fetched: u64,
    /// Messages in the channel: admitted, not yet fetched or dropped.
    pub pending: u64,
    /// Messages dropped because the queue stayed full past `T`.
    pub dropped_full: u64,
    /// Messages discarded because the sink was disconnected.
    pub dropped_closed: u64,
    /// Pending messages discarded by a category-mandated break.
    pub dropped_break: u64,
    /// Parked pending outputs whose Figure 6-9 deadline expired before
    /// the queue had room.
    pub dropped_expired: u64,
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
            + self.dropped_expired
            + self.dropped_shed
            + self.dropped_admission
    }

    /// Admitted messages that have left the channel: fetched, or drained
    /// by a break or a shed. `posted == departed + pending` always.
    fn departed(&self) -> u64 {
        self.fetched + self.dropped_break + self.dropped_shed
    }
}

/// The monitor's state: the buffer, both sides' attachment, and the
/// counters, all changed under one lock.
#[derive(Debug)]
struct QState {
    queue: VecDeque<Payload>,
    bytes: usize,
    source_open: bool,
    sink_open: bool,
    /// This channel raised `CHANNEL_CONGESTED` and has not re-armed yet.
    congested: bool,
    /// Paper `pCount` / `cCount` (Figure 6-3).
    pcount: usize,
    ccount: usize,
    /// Lifetime counters, charged in the same lock hold that moves the
    /// message (`pending` is filled in by [`MessageQueue::stats`]).
    stats: QueueStats,
}

impl QState {
    /// No producer is attached and the source side is closed: nothing
    /// more will ever arrive.
    fn source_gone(&self) -> bool {
        !self.source_open && self.pcount == 0
    }
}

/// What one admission attempt did with its payload.
enum Offer {
    /// Admitted as the `ticket`-th message counted `posted`; `crossed` is
    /// true when it reached the congestion mark.
    Admitted { crossed: bool, ticket: u64 },
    /// Discarded and charged to `reason` (`Closed` or `Full`).
    Discarded(DropReason),
    /// No room: the payload is handed back.
    Refused(Payload),
}

/// An admission wakes the blocked fetches; a discard or a refusal changes
/// nothing a waiter waits on.
fn woken(offer: Offer) -> (Offer, Wake) {
    let wake = match offer {
        Offer::Admitted { .. } => Wake::All,
        _ => Wake::None,
    };
    (offer, wake)
}

/// The channel object. Cheaply shareable via `Arc`.
#[derive(Debug)]
pub struct MessageQueue {
    /// Shared with every queue stamped from the same stream blueprint.
    cfg: Arc<QueueConfig>,
    /// The monitor: consumers wait on it for a message, producers for
    /// room or for their rendezvous, like the paper's `wait`/`notifyAll`.
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
    /// Producer-side peers of `listeners`: notified whenever capacity
    /// frees up, so pool-driven producers with parked outputs wake
    /// edge-triggered instead of polling the full queue.
    space_listeners: RwLock<Vec<Arc<Notifier>>>,
    /// Mirror of `space_listeners.len()`, maintained under its write
    /// lock: lets the wake fan-out skip the read lock entirely in the
    /// common no-parked-producer case.
    space_listener_count: AtomicUsize,
}

impl MessageQueue {
    /// Creates a queue backed by `pool` for reference accounting.
    pub fn new(cfg: impl Into<Arc<QueueConfig>>, pool: Arc<MessagePool>) -> Arc<Self> {
        Self::with_probe(cfg, pool, None)
    }

    /// Creates a queue carrying an optional telemetry probe: every post,
    /// fetch, and drop is mirrored into the owning stream's metrics.
    pub fn with_probe(
        cfg: impl Into<Arc<QueueConfig>>,
        pool: Arc<MessagePool>,
        probe: Option<QueueProbe>,
    ) -> Arc<Self> {
        Arc::new(MessageQueue {
            cfg: cfg.into(),
            state: Parker::new(QState {
                queue: VecDeque::new(),
                bytes: 0,
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
            space_listeners: RwLock::new(Vec::new()),
            space_listener_count: AtomicUsize::new(0),
        })
    }

    /// Mirrors `n` drops charged to `reason` into the telemetry probe.
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

    /// Reports a post that crossed the congestion mark to the probe, which
    /// raises `CHANNEL_CONGESTED`. Called with the state lock released.
    fn raise_congested(&self, crossed: bool) {
        if let (true, Some(p)) = (crossed, &self.probe) {
            p.on_congested();
        }
    }

    /// Mirrors one admitted message into the probe, when present.
    #[inline]
    fn probe_admit(&self, len: usize) {
        if let Some(p) = &self.probe {
            p.on_admit(len);
        }
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

    /// Registers a notifier woken whenever buffered capacity frees up — a
    /// fetch, a pending drop, or a sink close (producer-side wakeup).
    /// Pool-driven producers with outputs parked behind this (full) queue
    /// sleep on it instead of spinning through the run queue.
    pub fn add_space_listener(&self, n: Arc<Notifier>) {
        let mut ls = self.space_listeners.write();
        ls.push(n);
        self.space_listener_count.store(ls.len(), Ordering::Release);
    }

    /// Unregisters a space notifier.
    pub fn remove_space_listener(&self, n: &Arc<Notifier>) {
        let mut ls = self.space_listeners.write();
        ls.retain(|l| !Arc::ptr_eq(l, n));
        self.space_listener_count.store(ls.len(), Ordering::Release);
    }

    fn wake_space_listeners(&self) {
        // Fast path: most queues never have a parked producer, yet every
        // fetch/shed/close used to pay the RwLock read just to find the
        // list empty. One relaxed-ish load skips that. A producer that
        // registers concurrently re-checks for space *after* attaching
        // (the flush-before-input discipline), so a miss here cannot
        // strand it.
        if self.space_listener_count.load(Ordering::Acquire) == 0 {
            return;
        }
        for l in self.space_listeners.read().iter() {
            l.notify();
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
        let (last, broken) = self.state.update(|st| {
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
                    st.sink_open = false;
                    self.drop_pending(st)
                }
                // BK: pending units keep flowing to the target; S/sync has
                // no pending by construction.
                ChannelCategory::BK | ChannelCategory::S | ChannelCategory::KK => 0,
            };
            ((true, broken), Wake::All)
        });
        if last {
            self.probe_drop(DropReason::Break, broken);
            self.wake_listeners();
            self.wake_space_listeners();
        }
        Ok(())
    }

    /// Detaches a consumer (category-symmetric to [`Self::detach_source`]).
    pub fn detach_sink(&self) -> Result<(), crate::CoreError> {
        self.refuse_kk()?;
        let (last, broken) = self.state.update(|st| {
            let prev = st.ccount;
            debug_assert!(prev > 0, "detach_sink without attach");
            st.ccount = prev.saturating_sub(1);
            if prev != 1 {
                return ((false, 0), Wake::None);
            }
            st.sink_open = false;
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
            // A closed sink unblocks parked producers too: their next
            // flush discards into the pool instead of waiting for room.
            self.wake_space_listeners();
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

    fn wake_listeners(&self) {
        for l in self.listeners.read().iter() {
            l.notify();
        }
    }

    /// Room for a `len`-byte payload: an empty buffer admits anything (so
    /// one oversized message can still cross); otherwise an async channel
    /// needs room in its byte budget, and a rendezvous slot has none.
    fn fits(&self, st: &QState, len: usize) -> bool {
        st.queue.is_empty()
            || (self.cfg.kind == ChannelKind::Async && st.bytes + len <= self.cfg.capacity_bytes)
    }

    /// One admission attempt (Figure 6-9). A closed sink discards the
    /// payload; a payload that fits is admitted; one that does not is
    /// handed back, or — on the `last` attempt, once the wait budget is
    /// spent — discarded and charged to `full`.
    fn offer(&self, st: &mut QState, payload: Payload, len: usize, last: bool) -> Offer {
        if !st.sink_open {
            self.pool.discard(payload);
            st.stats.dropped_closed += 1;
            return Offer::Discarded(DropReason::Closed);
        }
        if !self.fits(st, len) {
            if !last {
                return Offer::Refused(payload);
            }
            self.pool.discard(payload);
            st.stats.dropped_full += 1;
            return Offer::Discarded(DropReason::Full);
        }
        st.queue.push_back(payload);
        st.stats.posted += 1;
        Offer::Admitted {
            crossed: self.grow(st, len),
            ticket: st.stats.posted,
        }
    }

    /// Settles an offer with the lock released: an admission is counted,
    /// wakes the consumer listeners and may raise `CHANNEL_CONGESTED`; a
    /// discard reaches the probe; a refusal hands the payload back.
    fn finish(&self, offer: Offer, len: usize) -> Result<PostResult, Payload> {
        match offer {
            Offer::Admitted { crossed, .. } => {
                self.probe_admit(len);
                self.wake_listeners();
                self.raise_congested(crossed);
                Ok(PostResult::Posted)
            }
            Offer::Discarded(reason) => {
                self.probe_drop(reason, 1);
                Ok(match reason {
                    DropReason::Closed => PostResult::Closed,
                    _ => PostResult::Dropped,
                })
            }
            Offer::Refused(payload) => Err(payload),
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

    /// The monitor-based post path (the paper's Figure 6-9 pseudocode).
    fn post_one(&self, payload: Payload, len: usize) -> PostResult {
        // The clock is read only once the first attempt is refused.
        let mut deadline = None;
        let mut offer = self
            .state
            .update(|st| woken(self.offer(st, payload, len, false)));
        if let Offer::Refused(payload) = offer {
            let d = *deadline.insert(Instant::now() + self.cfg.full_wait);
            offer = self.state.wait_then(
                |st| st.sink_open && !self.fits(st, len),
                Some(d),
                |st, _| woken(self.offer(st, payload, len, true)),
            );
        }
        match offer {
            Offer::Admitted { crossed, ticket } if self.cfg.kind == ChannelKind::Sync => {
                self.wake_listeners();
                let deadline = deadline.unwrap_or_else(|| Instant::now() + self.cfg.full_wait);
                if !self.rendezvous(ticket, deadline) {
                    return PostResult::Dropped;
                }
                // Only now is the admission final: a withdrawn message
                // must never have been counted.
                self.probe_admit(len);
                self.raise_congested(crossed);
                PostResult::Posted
            }
            // A last attempt never hands its payload back.
            offer => self.finish(offer, len).unwrap_or(PostResult::Dropped),
        }
    }

    /// A rendezvous's second half: waits until its own message — the
    /// `ticket`-th admission — has left the slot (fetched, or drained by
    /// a break or a shed). Every message admitted is fetched, drained or
    /// still pending, so the slot's message has left once `departed`
    /// reaches the ticket; a later message landing in the freed slot does
    /// not hold the wait. On timeout the message is still the slot's only
    /// occupant, and only it is withdrawn: uncounted as posted, charged
    /// to `full`. Returns whether the message was taken.
    fn rendezvous(&self, ticket: u64, deadline: Instant) -> bool {
        let taken = self.state.wait_then(
            |st| st.stats.departed() < ticket,
            Some(deadline),
            |st, taken| {
                if taken {
                    return (true, Wake::None);
                }
                if let Some(p) = st.queue.pop_front() {
                    self.shrink(st, p.buffered_len());
                    self.pool.discard(p);
                }
                st.stats.posted -= 1;
                st.stats.dropped_full += 1;
                // The slot is free for the next producer.
                (false, Wake::All)
            },
        );
        if !taken {
            self.probe_drop(DropReason::Full, 1);
            self.wake_space_listeners();
        }
        taken
    }

    /// Posts a run of payloads, sharing one Figure 6-9 wait budget `T`
    /// across the run: each lock hold admits as many as fit, and a
    /// refused payload waits (on the rest of the budget) for room.
    /// Per-message byte accounting and drop-on-full semantics are
    /// identical to calling [`MessageQueue::post`] once per payload; sync
    /// (zero-length) channels rendezvous per message, so they simply
    /// delegate. Drains `payloads` in place, so the caller can reuse the
    /// buffer (its capacity is retained for the next run).
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
        let mut run = payloads.drain(..).map(|p| {
            let len = p.buffered_len();
            (p, len)
        });
        // The payload the queue last refused, waiting for room.
        let mut refused: Option<(Payload, usize)> = None;
        // The run's shared budget starts when its first admission fails.
        let mut deadline = None;
        let (mut crossed, mut closed, mut full) = (false, 0u64, 0u64);
        loop {
            let waiting = refused.as_ref().map(|&(_, len)| len);
            let admitted = self.state.wait_then(
                |st| waiting.is_some_and(|len| st.sink_open && !self.fits(st, len)),
                deadline,
                |st, cleared| {
                    // Still refused when the wait ended: the budget is
                    // spent, and the rest of the run drops if it must wait.
                    let last = !cleared;
                    let mut admitted = 0u64;
                    for (p, len) in refused.take().into_iter().chain(run.by_ref()) {
                        match self.offer(st, p, len, last) {
                            Offer::Admitted { crossed: c, .. } => {
                                admitted += 1;
                                crossed |= c;
                                self.probe_admit(len);
                            }
                            Offer::Discarded(DropReason::Closed) => closed += 1,
                            Offer::Discarded(_) => full += 1,
                            Offer::Refused(p) => {
                                refused = Some((p, len));
                                break;
                            }
                        }
                    }
                    let wake = if admitted > 0 { Wake::All } else { Wake::None };
                    (admitted, wake)
                },
            );
            if admitted > 0 {
                // Before waiting for room: a consumer that was never woken
                // would leave this run stuck until its drop deadline.
                self.wake_listeners();
            }
            if refused.is_none() {
                break;
            }
            deadline.get_or_insert_with(|| Instant::now() + self.cfg.full_wait);
        }
        self.probe_drop(DropReason::Closed, closed);
        self.probe_drop(DropReason::Full, full);
        self.raise_congested(crossed);
        if let (Some(p), Some(t0)) = (&self.probe, t0) {
            p.on_post_ns(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Non-blocking post: admits the payload if the channel has room right
    /// now, otherwise hands it straight back without waiting out Figure
    /// 6-9's `T`. A closed sink discards the payload (as `post` does) and
    /// reports `Closed`.
    ///
    /// Sync (rendezvous) channels admit into their zero-length slot only
    /// while it is empty; an occupied slot hands the payload back. The
    /// blocking `post` additionally waits for the consumer to *take* the
    /// message — here that discipline moves to the caller: a pool-driven
    /// producer parks the refused payload in its pending-output buffer
    /// and retries on the queue's space wakeup (fired by the fetch that
    /// empties the slot), so the rendezvous pacing survives without a
    /// parked worker thread.
    ///
    /// Pool executors use this so a full downstream queue parks the
    /// *message* (in the producer's pending-output buffer) instead of the
    /// *worker thread* — a chain deeper than the worker count would
    /// otherwise deadlock with every worker blocked inside a post.
    pub fn post_nowait(&self, payload: Payload) -> Result<PostResult, Payload> {
        let len = payload.buffered_len();
        let offer = self
            .state
            .update(|st| woken(self.offer(st, payload, len, false)));
        self.finish(offer, len)
    }

    /// Non-blocking batch post under one lock acquisition: handles a
    /// prefix of `payloads` in place (admitted, or discarded on a closed
    /// sink) and returns how many were consumed. On return the vec holds
    /// only the refused tail, in order, still owned by the caller; its
    /// capacity is retained either way. A rendezvous slot admits at most
    /// one payload.
    pub fn post_all_nowait(&self, payloads: &mut Vec<Payload>) -> usize {
        if payloads.is_empty() {
            return 0;
        }
        // Pop-from-the-back over the reversed vec hands out owned
        // payloads front-first without shifting or reallocating; the
        // refused tail is reversed back into order.
        payloads.reverse();
        let (mut crossed, mut closed) = (false, 0u64);
        let admitted = self.state.update(|st| {
            let mut admitted = 0u64;
            while let Some(p) = payloads.pop() {
                let len = p.buffered_len();
                match self.offer(st, p, len, false) {
                    Offer::Admitted { crossed: c, .. } => {
                        admitted += 1;
                        crossed |= c;
                        self.probe_admit(len);
                    }
                    Offer::Discarded(_) => closed += 1,
                    Offer::Refused(p) => {
                        // Full: stop here so per-queue FIFO order survives.
                        payloads.push(p);
                        break;
                    }
                }
            }
            let wake = if admitted > 0 { Wake::All } else { Wake::None };
            (admitted, wake)
        });
        payloads.reverse();
        if admitted > 0 {
            self.wake_listeners();
        }
        self.probe_drop(DropReason::Closed, closed);
        self.raise_congested(crossed);
        (admitted + closed) as usize
    }

    /// Accounts a payload that waited out Figure 6-9's `T` *outside* the
    /// queue (in a producer's pending-output buffer) and must now be
    /// dropped: discarded to the pool and charged to `dropped_expired` —
    /// its own reason code, distinct from an in-queue `dropped_full`
    /// (which blocked a `post`), so overflow and expiry stay separable.
    pub fn discard_expired(&self, payload: Payload) {
        self.pool.discard(payload);
        self.state.update(|st| {
            st.stats.dropped_expired += 1;
            ((), Wake::None)
        });
        self.probe_drop(DropReason::Expired, 1);
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
        let n = self.state.update(|st| {
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
            (n, if n > 0 { Wake::All } else { Wake::None })
        });
        if n > 0 {
            self.probe_drop(DropReason::Shed, n as u64);
            self.wake_space_listeners();
        }
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
    /// the pool), so only the reason counter — and its probe/trace mirror
    /// — is charged.
    pub fn charge_admission_rejected(&self, n: u64) {
        self.state.update(|st| {
            st.stats.dropped_admission += n;
            ((), Wake::None)
        });
        self.probe_drop(DropReason::Admission, n);
    }

    /// The Figure 6-9 full-wait budget `T` configured for this channel.
    pub fn full_wait(&self) -> Duration {
        self.cfg.full_wait
    }

    /// True when a [`MessageQueue::post_nowait`] of a `len`-byte payload
    /// would make progress right now — room in the byte budget (for a
    /// sync channel, an empty slot), an empty buffer (oversized
    /// admission), or a closed sink (the post discards and reports
    /// `Closed`). Advisory: the answer can go stale the moment the lock
    /// drops, so callers treat `true` as "worth retrying", not a
    /// guarantee.
    pub fn has_space(&self, len: usize) -> bool {
        self.state.read(|st| !st.sink_open || self.fits(st, len))
    }

    /// Pops the oldest pending payload. Caller holds the state lock.
    fn pop_one(&self, st: &mut QState) -> Option<Payload> {
        let p = st.queue.pop_front()?;
        self.shrink(st, p.buffered_len());
        Some(p)
    }

    /// Takes the oldest pending payload, or says why there is none. A
    /// take wakes blocked producers and rendezvous.
    fn take_one(&self, st: &mut QState) -> (FetchResult, Wake) {
        if let Some(p) = self.pop_one(st) {
            st.stats.fetched += 1;
            return (FetchResult::Msg(p), Wake::All);
        }
        let gone = st.source_gone();
        let r = if gone {
            FetchResult::Disconnected
        } else {
            FetchResult::Empty
        };
        (r, Wake::None)
    }

    /// Mirrors a fetch into the probe and wakes the space listeners.
    fn after_fetch(&self, r: FetchResult) -> FetchResult {
        if let FetchResult::Msg(_) = r {
            if let Some(pr) = &self.probe {
                pr.on_fetch(1);
            }
            self.wake_space_listeners();
        }
        r
    }

    /// Non-blocking fetch.
    pub fn try_fetch(&self) -> FetchResult {
        self.after_fetch(self.state.update(|st| self.take_one(st)))
    }

    /// Blocking fetch with timeout: waits while the queue is empty and
    /// its source live.
    pub fn fetch(&self, timeout: Duration) -> FetchResult {
        self.after_fetch(self.state.wait_then(
            |st| st.queue.is_empty() && !st.source_gone(),
            deadline_after(timeout),
            |st, _| self.take_one(st),
        ))
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
        let taken = self.state.update(|st| {
            let mut taken = 0usize;
            let mut bytes = 0usize;
            while taken < max_n {
                let Some(next) = st.queue.front().map(|p| p.buffered_len()) else {
                    break;
                };
                if taken != 0 && bytes.saturating_add(next) > max_bytes {
                    break;
                }
                let Some(p) = self.pop_one(st) else {
                    break;
                };
                bytes = bytes.saturating_add(next);
                out.push(p);
                taken += 1;
            }
            st.stats.fetched += taken as u64;
            (taken, if taken != 0 { Wake::All } else { Wake::None })
        });
        if taken != 0 {
            if let Some(p) = &self.probe {
                p.on_batch(taken);
            }
            self.wake_space_listeners();
        }
        taken
    }

    /// Number of pending messages.
    pub fn len(&self) -> usize {
        self.state.read(|st| st.queue.len())
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.state.read(|st| st.queue.is_empty())
    }

    /// Bytes currently buffered.
    pub fn buffered_bytes(&self) -> usize {
        self.state.read(|st| st.bytes)
    }

    /// Statistics snapshot, counters and pending depth from one lock
    /// hold: `posted == fetched + pending + dropped_break + dropped_shed`
    /// holds for every snapshot.
    pub fn stats(&self) -> QueueStats {
        self.state.read(|st| QueueStats {
            pending: st.queue.len() as u64,
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
        assert_eq!(
            q.post_nowait(text(&pool, "C")).ok(),
            Some(PostResult::Posted)
        );
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

        // A parked output whose Figure 6-9 deadline passed charges
        // `expired` when its owner discards it.
        q.discard_expired(payload(&pool, 16));
        // `break` covers in-queue messages destroyed when a BK channel's
        // sink side breaks the stream.
        assert_eq!(q.post(payload(&pool, 8)), PostResult::Posted);
        q.detach_sink().unwrap();
        let s = q.stats();
        assert_eq!(s.dropped_full, 1);
        assert_eq!(s.dropped_expired, 1);
        assert_eq!(s.dropped_break, 1);
        assert_eq!(s.dropped_shed, 1);
        assert_eq!(s.dropped_total(), 4);
        assert_eq!(pool.stats().resident, 0, "every drop released its payload");
    }

    #[test]
    fn shed_oldest_sheds_in_fifo_order_and_wakes_space() {
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
    /// dropped_break + dropped_shed`, while producers on `post`,
    /// `post_all` and `post_nowait`, a batch-and-fetch consumer and a
    /// shedder run; after a final sink break, every offered message was
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
                    match q.post_nowait(payload(pool, 40)) {
                        Ok(_) => offered.fetch_add(1, Ordering::Relaxed),
                        Err(p) => {
                            pool.discard(p);
                            thread::yield_now();
                            0
                        }
                    };
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
        assert_eq!(s.pending, 0, "the break drained the channel");
        assert_eq!(
            offered.load(Ordering::Relaxed),
            s.fetched + s.dropped_total(),
            "{s:?}"
        );
        assert_eq!(s.dropped_expired + s.dropped_admission, 0);
        assert_eq!(pool.stats().resident, 0);
    }
}
