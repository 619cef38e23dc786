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
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

/// Lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Successfully enqueued messages.
    pub posted: u64,
    /// Successfully fetched messages.
    pub fetched: u64,
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
}

#[derive(Debug)]
struct QState {
    queue: VecDeque<Payload>,
    bytes: usize,
    source_open: bool,
    sink_open: bool,
}

/// The channel object. Cheaply shareable via `Arc`.
#[derive(Debug)]
pub struct MessageQueue {
    /// Shared with every queue stamped from the same stream blueprint.
    cfg: Arc<QueueConfig>,
    state: Mutex<QState>,
    /// Signals consumers (message available) and producers (space
    /// available); a single condvar keeps the monitor simple, exactly like
    /// the paper's `wait`/`notifyAll` usage.
    cv: Condvar,
    pool: Arc<MessagePool>,
    pcount: AtomicUsize,
    ccount: AtomicUsize,
    posted: AtomicU64,
    fetched: AtomicU64,
    dropped_full: AtomicU64,
    dropped_closed: AtomicU64,
    dropped_break: AtomicU64,
    dropped_expired: AtomicU64,
    dropped_shed: AtomicU64,
    dropped_admission: AtomicU64,
    /// Telemetry recording handle of the owning stream, when the
    /// observability plane is enabled. `None` costs one branch per
    /// instrumented operation.
    probe: Option<QueueProbe>,
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
            state: Mutex::new(QState {
                queue: VecDeque::new(),
                bytes: 0,
                source_open: true,
                sink_open: true,
            }),
            cv: Condvar::new(),
            pool,
            pcount: AtomicUsize::new(0),
            ccount: AtomicUsize::new(0),
            posted: AtomicU64::new(0),
            fetched: AtomicU64::new(0),
            dropped_full: AtomicU64::new(0),
            dropped_closed: AtomicU64::new(0),
            dropped_break: AtomicU64::new(0),
            dropped_expired: AtomicU64::new(0),
            dropped_shed: AtomicU64::new(0),
            dropped_admission: AtomicU64::new(0),
            probe,
            listeners: RwLock::new(Vec::new()),
            space_listeners: RwLock::new(Vec::new()),
            space_listener_count: AtomicUsize::new(0),
        })
    }

    /// Charges `n` drops to `reason` — the single bookkeeping site for
    /// every drop path, mirroring into the telemetry probe when present.
    fn charge_drop(&self, reason: DropReason, n: u64) {
        let ctr = match reason {
            DropReason::Full => &self.dropped_full,
            DropReason::Closed => &self.dropped_closed,
            DropReason::Break => &self.dropped_break,
            DropReason::Expired => &self.dropped_expired,
            DropReason::Shed => &self.dropped_shed,
            DropReason::Admission => &self.dropped_admission,
        };
        ctr.fetch_add(n, Ordering::Relaxed);
        if let Some(p) = &self.probe {
            p.on_drop(&self.cfg.name, reason, n);
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
        self.pcount.load(Ordering::Acquire)
    }

    /// Consumer count (paper `cCount`).
    pub fn ccount(&self) -> usize {
        self.ccount.load(Ordering::Acquire)
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
    pub fn attach_source(&self) {
        self.pcount.fetch_add(1, Ordering::SeqCst);
        self.state.lock().source_open = true;
        self.cv.notify_all();
    }

    /// Attaches a consumer (paper `incr_cCount`); reopens the sink side.
    pub fn attach_sink(&self) {
        self.ccount.fetch_add(1, Ordering::SeqCst);
        self.state.lock().sink_open = true;
        self.cv.notify_all();
        self.wake_listeners();
    }

    /// Detaches a producer, applying the category semantics when the last
    /// producer leaves. Returns `Err` for KK channels, which "cannot be
    /// disconnected at either side".
    pub fn detach_source(&self) -> Result<(), crate::CoreError> {
        if self.cfg.category == ChannelCategory::KK {
            return Err(crate::CoreError::Channel {
                name: self.cfg.name.clone(),
                message: "KK channels cannot be disconnected".into(),
            });
        }
        let prev = self.pcount.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "detach_source without attach");
        let mut st = self.state.lock();
        if prev == 1 {
            st.source_open = false;
            match self.cfg.category {
                // BB: breaking one side breaks the other; pending dropped.
                ChannelCategory::BB => {
                    st.sink_open = false;
                    self.drop_pending(&mut st);
                }
                // KB reverses BK: a source break also breaks the target.
                ChannelCategory::KB => {
                    st.sink_open = false;
                    self.drop_pending(&mut st);
                }
                // BK: pending units keep flowing to the target; S/sync has
                // no pending by construction.
                ChannelCategory::BK | ChannelCategory::S | ChannelCategory::KK => {}
            }
        }
        drop(st);
        if prev == 1 {
            self.cv.notify_all();
            self.wake_listeners();
            self.wake_space_listeners();
        }
        Ok(())
    }

    /// Detaches a consumer (category-symmetric to [`Self::detach_source`]).
    pub fn detach_sink(&self) -> Result<(), crate::CoreError> {
        if self.cfg.category == ChannelCategory::KK {
            return Err(crate::CoreError::Channel {
                name: self.cfg.name.clone(),
                message: "KK channels cannot be disconnected".into(),
            });
        }
        let prev = self.ccount.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "detach_sink without attach");
        let mut st = self.state.lock();
        if prev == 1 {
            st.sink_open = false;
            match self.cfg.category {
                ChannelCategory::BB => {
                    st.source_open = false;
                    self.drop_pending(&mut st);
                }
                // BK: a sink break also breaks the source; pending dropped.
                ChannelCategory::BK => {
                    st.source_open = false;
                    self.drop_pending(&mut st);
                }
                // KB: pending units are retained for a future sink.
                ChannelCategory::KB | ChannelCategory::S | ChannelCategory::KK => {}
            }
        }
        drop(st);
        if prev == 1 {
            self.cv.notify_all();
            // A closed sink unblocks parked producers too: their next
            // flush discards into the pool instead of waiting for room.
            self.wake_space_listeners();
        }
        Ok(())
    }

    /// Discards every pending unit on a break; the caller has closed the
    /// sink. Every post checks `sink_open` under the same lock, so none
    /// can land after this drain.
    fn drop_pending(&self, st: &mut QState) {
        let n = st.queue.len() as u64;
        for p in st.queue.drain(..) {
            self.pool.discard(p);
        }
        st.bytes = 0;
        if n > 0 {
            self.charge_drop(DropReason::Break, n);
        }
    }

    fn wake_listeners(&self) {
        for l in self.listeners.read().iter() {
            l.notify();
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
        let res = self.post_locked(payload, len);
        if let (Some(p), Some(t0)) = (&self.probe, t0) {
            p.on_post_ns(t0.elapsed().as_nanos() as u64);
        }
        res
    }

    /// Admits `payload` into the buffer if the byte budget allows (an
    /// empty channel admits one oversized message). Caller holds the state
    /// lock.
    fn try_admit(&self, st: &mut QState, payload: Payload, len: usize) -> Result<(), Payload> {
        if !st.queue.is_empty() && st.bytes + len > self.cfg.capacity_bytes {
            return Err(payload);
        }
        st.queue.push_back(payload);
        st.bytes += len;
        Ok(())
    }

    /// The monitor-based post path (the paper's Figure 6-9 pseudocode).
    fn post_locked(&self, payload: Payload, len: usize) -> PostResult {
        let mut st = self.state.lock();
        if !st.sink_open {
            drop(st);
            self.pool.discard(payload);
            self.charge_drop(DropReason::Closed, 1);
            return PostResult::Closed;
        }
        match self.cfg.kind {
            ChannelKind::Async => {
                // The clock is read only once a post has to wait.
                let mut deadline = None;
                let mut payload = payload;
                loop {
                    match self.try_admit(&mut st, payload, len) {
                        Ok(()) => {
                            self.posted.fetch_add(1, Ordering::Relaxed);
                            self.probe_admit(len);
                            drop(st);
                            self.cv.notify_all();
                            self.wake_listeners();
                            return PostResult::Posted;
                        }
                        Err(p) => payload = p,
                    }
                    let deadline =
                        *deadline.get_or_insert_with(|| Instant::now() + self.cfg.full_wait);
                    if self.cv.wait_until(&mut st, deadline).timed_out() {
                        match self.try_admit(&mut st, payload, len) {
                            Ok(()) => {
                                self.posted.fetch_add(1, Ordering::Relaxed);
                                self.probe_admit(len);
                                drop(st);
                                self.cv.notify_all();
                                self.wake_listeners();
                                return PostResult::Posted;
                            }
                            Err(p) => {
                                drop(st);
                                self.pool.discard(p);
                                self.charge_drop(DropReason::Full, 1);
                                return PostResult::Dropped;
                            }
                        }
                    }
                    if !st.sink_open {
                        drop(st);
                        self.pool.discard(payload);
                        self.charge_drop(DropReason::Closed, 1);
                        return PostResult::Closed;
                    }
                }
            }
            ChannelKind::Sync => {
                // A rendezvous always waits for its consumer, so its
                // deadline is taken up front.
                let deadline = Instant::now() + self.cfg.full_wait;
                // Zero-length buffer: admit when empty, then wait until the
                // consumer takes it.
                while !st.queue.is_empty() {
                    if self.cv.wait_until(&mut st, deadline).timed_out() {
                        drop(st);
                        self.pool.discard(payload);
                        self.charge_drop(DropReason::Full, 1);
                        return PostResult::Dropped;
                    }
                }
                if !st.sink_open {
                    drop(st);
                    self.pool.discard(payload);
                    self.charge_drop(DropReason::Closed, 1);
                    return PostResult::Closed;
                }
                st.queue.push_back(payload);
                st.bytes += len;
                self.posted.fetch_add(1, Ordering::Relaxed);
                self.cv.notify_all();
                self.wake_listeners();
                // Rendezvous: wait until taken (or deadline).
                while !st.queue.is_empty() {
                    if self.cv.wait_until(&mut st, deadline).timed_out() {
                        // Consumer never came: withdraw the message.
                        if let Some(p) = st.queue.pop_front() {
                            st.bytes = st.bytes.saturating_sub(len);
                            drop(st);
                            self.pool.discard(p);
                            self.posted.fetch_sub(1, Ordering::Relaxed);
                            self.charge_drop(DropReason::Full, 1);
                            return PostResult::Dropped;
                        }
                        break;
                    }
                }
                // The rendezvous completed: only now is the admission
                // final (a withdrawn message must never have been counted).
                self.probe_admit(len);
                PostResult::Posted
            }
        }
    }

    /// Posts a run of payloads under a single lock acquisition, sharing
    /// one Figure 6-9 wait budget `T` across the run. Per-message byte
    /// accounting and drop-on-full semantics are identical to calling
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
        // The run's shared budget starts when its first admission fails.
        let mut deadline = None;
        let mut admitted = 0u64;
        let mut st = self.state.lock();
        'run: for payload in payloads.drain(..) {
            if !st.sink_open {
                self.pool.discard(payload);
                self.charge_drop(DropReason::Closed, 1);
                continue;
            }
            let len = payload.buffered_len();
            let mut payload = payload;
            loop {
                match self.try_admit(&mut st, payload, len) {
                    Ok(()) => {
                        admitted += 1;
                        self.probe_admit(len);
                        if st.queue.len() == 1 {
                            // Empty→non-empty: blocked fetchers wake as
                            // soon as we release (or wait on) the lock.
                            self.cv.notify_all();
                        }
                        // Make the wake visible *during* the run, not just
                        // at its end: if the queue fills before the run
                        // completes, we wait on the consumer below — and a
                        // consumer that was never woken would leave us
                        // stuck until the drop deadline. The coalescing
                        // armed flag keeps the repeat notifies down to one
                        // atomic swap each.
                        self.wake_listeners();
                        continue 'run;
                    }
                    Err(p) => payload = p,
                }
                let deadline = *deadline.get_or_insert_with(|| Instant::now() + self.cfg.full_wait);
                if self.cv.wait_until(&mut st, deadline).timed_out() {
                    match self.try_admit(&mut st, payload, len) {
                        Ok(()) => {
                            admitted += 1;
                            self.probe_admit(len);
                        }
                        Err(p) => {
                            self.pool.discard(p);
                            self.charge_drop(DropReason::Full, 1);
                        }
                    }
                    continue 'run;
                }
                if !st.sink_open {
                    self.pool.discard(payload);
                    self.charge_drop(DropReason::Closed, 1);
                    continue 'run;
                }
            }
        }
        drop(st);
        if admitted > 0 {
            self.posted.fetch_add(admitted, Ordering::Relaxed);
            self.cv.notify_all();
            self.wake_listeners();
        }
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
        let mut st = self.state.lock();
        if !st.sink_open {
            drop(st);
            self.pool.discard(payload);
            self.charge_drop(DropReason::Closed, 1);
            return Ok(PostResult::Closed);
        }
        if self.cfg.kind == ChannelKind::Sync && !st.queue.is_empty() {
            return Err(payload);
        }
        self.try_admit(&mut st, payload, len)?;
        self.posted.fetch_add(1, Ordering::Relaxed);
        self.probe_admit(len);
        drop(st);
        self.cv.notify_all();
        self.wake_listeners();
        Ok(PostResult::Posted)
    }

    /// Non-blocking batch post under one lock acquisition: handles a
    /// prefix of `payloads` in place (admitted, or discarded on a closed
    /// sink) and returns how many were consumed. On return the vec holds
    /// only the refused tail, in order, still owned by the caller; its
    /// capacity is retained either way.
    pub fn post_all_nowait(&self, payloads: &mut Vec<Payload>) -> usize {
        if payloads.is_empty() {
            return 0;
        }
        let mut handled = 0usize;
        // Pop-from-the-back over the reversed vec hands out owned
        // payloads front-first without shifting or reallocating; the
        // (rare) refused tail pays one more reverse to restore order.
        payloads.reverse();
        if self.cfg.kind == ChannelKind::Sync {
            // A rendezvous slot admits at most one payload; the rest go
            // back to the caller untouched.
            while let Some(payload) = payloads.pop() {
                match self.post_nowait(payload) {
                    Ok(_) => handled += 1,
                    Err(p) => {
                        payloads.push(p);
                        payloads.reverse();
                        return handled;
                    }
                }
            }
            return handled;
        }
        let mut admitted = 0u64;
        let mut st = self.state.lock();
        while let Some(payload) = payloads.pop() {
            if !st.sink_open {
                self.pool.discard(payload);
                self.charge_drop(DropReason::Closed, 1);
                handled += 1;
                continue;
            }
            let len = payload.buffered_len();
            match self.try_admit(&mut st, payload, len) {
                Ok(()) => {
                    admitted += 1;
                    self.probe_admit(len);
                    handled += 1;
                }
                Err(p) => {
                    // Full: stop here so per-queue FIFO order survives.
                    payloads.push(p);
                    payloads.reverse();
                    break;
                }
            }
        }
        drop(st);
        if admitted > 0 {
            self.posted.fetch_add(admitted, Ordering::Relaxed);
            self.cv.notify_all();
            self.wake_listeners();
        }
        handled
    }

    /// Accounts a payload that waited out Figure 6-9's `T` *outside* the
    /// queue (in a producer's pending-output buffer) and must now be
    /// dropped: discarded to the pool and charged to `dropped_expired` —
    /// its own reason code, distinct from an in-queue `dropped_full`
    /// (which blocked a `post`), so overflow and expiry stay separable.
    pub fn discard_expired(&self, payload: Payload) {
        self.pool.discard(payload);
        self.charge_drop(DropReason::Expired, 1);
    }

    /// Overload relief valve: discards up to `max_n` pending messages,
    /// charging them to the `shed` drop reason, and returns how many were
    /// shed. The runtime's congestion handler (a `CHANNEL_CONGESTED`
    /// event from the metrics→event bridge) and operator hooks call this
    /// to trade old data for headroom instead of stalling producers.
    ///
    /// Selection is **priority-aware**: lowest [`PriorityClass`] first
    /// (bulk `image/*`/`video/*`/`audio/*` before interactive
    /// `text/*`/`application/*`), oldest within a class.
    pub fn shed_oldest(&self, max_n: usize) -> usize {
        if max_n == 0 {
            return 0;
        }
        let mut st = self.state.lock();
        let mut n = 0usize;
        if !st.queue.is_empty() {
            let classes: Vec<PriorityClass> =
                st.queue.iter().map(|p| self.payload_class(p)).collect();
            let mut shed = vec![false; classes.len()];
            let mut remaining = max_n;
            for class in [
                PriorityClass::Bulk,
                PriorityClass::Normal,
                PriorityClass::Interactive,
            ] {
                if remaining == 0 {
                    break;
                }
                for (i, c) in classes.iter().enumerate() {
                    if remaining == 0 {
                        break;
                    }
                    if *c == class {
                        shed[i] = true;
                        remaining -= 1;
                    }
                }
            }
            let old = std::mem::take(&mut st.queue);
            for (i, p) in old.into_iter().enumerate() {
                if shed[i] {
                    st.bytes = st.bytes.saturating_sub(p.buffered_len());
                    self.pool.discard(p);
                    n += 1;
                } else {
                    st.queue.push_back(p);
                }
            }
        }
        drop(st);
        if n > 0 {
            self.charge_drop(DropReason::Shed, n as u64);
            self.cv.notify_all();
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
        self.charge_drop(DropReason::Admission, n);
    }

    /// The Figure 6-9 full-wait budget `T` configured for this channel.
    pub fn full_wait(&self) -> Duration {
        self.cfg.full_wait
    }

    /// True when a [`MessageQueue::post_nowait`] of a `len`-byte payload
    /// would make progress right now — room in the byte budget, an empty
    /// buffer (oversized admission), or a closed sink (the post discards
    /// and reports `Closed`). Advisory: the answer can go stale the moment
    /// the lock drops, so callers treat `true` as "worth retrying", not a
    /// guarantee.
    pub fn has_space(&self, len: usize) -> bool {
        let st = self.state.lock();
        if !st.sink_open {
            return true;
        }
        if self.cfg.kind == ChannelKind::Sync {
            // The rendezvous slot is the only capacity there is; the byte
            // budget below would wrongly report room while it is occupied
            // (and a retrying producer would spin instead of sleeping on
            // the space wakeup).
            return st.queue.is_empty();
        }
        st.queue.is_empty() || st.bytes + len <= self.cfg.capacity_bytes
    }

    /// Pops the oldest pending payload. Caller holds the state lock.
    fn pop_one(&self, st: &mut QState) -> Option<Payload> {
        let p = st.queue.pop_front()?;
        st.bytes = st.bytes.saturating_sub(p.buffered_len());
        Some(p)
    }

    /// Non-blocking fetch.
    pub fn try_fetch(&self) -> FetchResult {
        let mut st = self.state.lock();
        if let Some(p) = self.pop_one(&mut st) {
            self.fetched.fetch_add(1, Ordering::Relaxed);
            if let Some(pr) = &self.probe {
                pr.on_fetch(1);
            }
            drop(st);
            self.cv.notify_all();
            self.wake_space_listeners();
            return FetchResult::Msg(p);
        }
        if !st.source_open && self.pcount() == 0 {
            FetchResult::Disconnected
        } else {
            FetchResult::Empty
        }
    }

    /// Blocking fetch with timeout.
    pub fn fetch(&self, timeout: Duration) -> FetchResult {
        let deadline = deadline_after(timeout);
        let mut st = self.state.lock();
        loop {
            if let Some(p) = self.pop_one(&mut st) {
                self.fetched.fetch_add(1, Ordering::Relaxed);
                if let Some(pr) = &self.probe {
                    pr.on_fetch(1);
                }
                drop(st);
                self.cv.notify_all();
                self.wake_space_listeners();
                return FetchResult::Msg(p);
            }
            if !st.source_open && self.pcount() == 0 {
                return FetchResult::Disconnected;
            }
            match deadline {
                None => self.cv.wait(&mut st),
                Some(d) => {
                    if self.cv.wait_until(&mut st, d).timed_out() && st.queue.is_empty() {
                        return FetchResult::Empty;
                    }
                }
            }
        }
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
        let mut st = self.state.lock();
        let mut taken = 0usize;
        let mut bytes = 0usize;
        while taken < max_n {
            let Some(next) = st.queue.front().map(|p| p.buffered_len()) else {
                break;
            };
            if taken != 0 && bytes.saturating_add(next) > max_bytes {
                break;
            }
            let Some(p) = self.pop_one(&mut st) else {
                break;
            };
            bytes = bytes.saturating_add(next);
            out.push(p);
            taken += 1;
        }
        if taken != 0 {
            self.fetched.fetch_add(taken as u64, Ordering::Relaxed);
            if let Some(p) = &self.probe {
                p.on_batch(taken);
            }
            drop(st);
            self.cv.notify_all();
            self.wake_space_listeners();
        }
        taken
    }

    /// Number of pending messages.
    pub fn len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.state.lock().queue.is_empty()
    }

    /// Bytes currently buffered.
    pub fn buffered_bytes(&self) -> usize {
        self.state.lock().bytes
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            posted: self.posted.load(Ordering::Relaxed),
            fetched: self.fetched.load(Ordering::Relaxed),
            dropped_full: self.dropped_full.load(Ordering::Relaxed),
            dropped_closed: self.dropped_closed.load(Ordering::Relaxed),
            dropped_break: self.dropped_break.load(Ordering::Relaxed),
            dropped_expired: self.dropped_expired.load(Ordering::Relaxed),
            dropped_shed: self.dropped_shed.load(Ordering::Relaxed),
            dropped_admission: self.dropped_admission.load(Ordering::Relaxed),
        }
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
}
