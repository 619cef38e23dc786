//! The reactor back end: per-worker run queues with work stealing.
//!
//! [`Reactor`] multiplexes any number of streamlet tasks over a fixed set
//! of workers, like [`super::WorkerPool`], but replaces the single shared
//! run queue with one local queue per worker plus a global injector:
//!
//! * **Wakers, not threads.** A task blocked on input or output holds no
//!   thread — its [`crate::queue::Notifier`] sits on the queue's listener
//!   (or space-listener) list, and the edge-triggered wake hook re-queues
//!   the task when the queue transitions. Idle sessions therefore cost
//!   zero threads and one queue-table entry each.
//! * **Locality.** A wake fired *from* a reactor worker (the common case:
//!   an upstream pump posting downstream) lands on that worker's own
//!   local queue — the task's input bytes are already warm in that core's
//!   cache. Wakes from foreign threads (ingress, control plane) land on
//!   the shared injector.
//! * **Stealing.** A worker with an empty local queue drains the injector,
//!   then steals the *oldest* task from a sibling's queue (front-steal:
//!   FIFO order is preserved globally, so one hot session cannot starve
//!   cold sessions parked behind it — they get stolen away instead).
//! * **Quantum.** Each pump drives one task — one fused unit after the
//!   PR 5 fusion pass — for at most [`super::PUMP_BATCH`] messages before
//!   it is requeued behind its siblings, the same cooperative budget the
//!   worker pool uses.
//!
//! Sleep/wake uses the same Dekker-style handshake as the SPSC ring: a
//! parking worker bumps the sleeper count (SeqCst RMW), re-checks every
//! queue, and only then waits; a producer makes its enqueue visible, runs
//! a SeqCst fence, and reads the sleeper count — so either the producer
//! sees the sleeper and takes the sleep lock to notify, or the parker
//! sees the enqueue and never sleeps. A timed wait backstops the
//! handshake but is not needed for correctness.

use super::{launch_pooled, pump_and_reschedule, Executor, ExecutorStats, WorkerStats};
use crate::streamlet::StreamletTask;
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Safety-net bound on one park; the explicit handshake below makes the
/// wake path lossless, so this only bounds recovery from the unforeseen.
const PARK_TIMEOUT: Duration = Duration::from_millis(100);

/// Process-wide reactor instance ids, so a worker of one reactor never
/// pushes onto the local queue of a same-indexed worker of another.
static REACTOR_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(reactor id, worker index)` when the current thread is a reactor
    /// worker; wake hooks use it to pick the local queue over the injector.
    static CURRENT_WORKER: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

/// One worker's run queue plus its scheduler counters.
struct LocalQueue {
    deque: Mutex<VecDeque<Arc<StreamletTask>>>,
    /// Mirror of `deque.len()`, so thieves and the park re-check can probe
    /// emptiness without taking the lock.
    len: AtomicUsize,
    pumps: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
}

impl LocalQueue {
    fn new() -> Self {
        LocalQueue {
            deque: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            pumps: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        }
    }

    fn push(&self, task: Arc<StreamletTask>) {
        let mut d = self.deque.lock();
        d.push_back(task);
        self.len.store(d.len(), Ordering::Release);
    }

    /// Pops the oldest task. Used both by the owning worker and by thieves
    /// (front-steal keeps global FIFO order — see module docs).
    fn pop_front(&self) -> Option<Arc<StreamletTask>> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut d = self.deque.lock();
        let task = d.pop_front();
        self.len.store(d.len(), Ordering::Release);
        task
    }
}

struct ReactorState {
    id: u64,
    locals: Vec<LocalQueue>,
    /// Overflow queue for wakes arriving from non-worker threads.
    injector: Mutex<VecDeque<Arc<StreamletTask>>>,
    injector_len: AtomicUsize,
    sleep: Mutex<()>,
    cv: Condvar,
    sleepers: AtomicUsize,
    stop: AtomicBool,
}

impl ReactorState {
    /// Enqueues `task` unless it is already queued or being pumped —
    /// the same never-lose-a-wakeup gate as the worker pool.
    fn schedule(&self, task: Arc<StreamletTask>) {
        if !task.try_mark_scheduled() {
            return;
        }
        match CURRENT_WORKER.with(Cell::get) {
            Some((rid, idx)) if rid == self.id => self.locals[idx].push(task),
            _ => {
                let mut inj = self.injector.lock();
                inj.push_back(task);
                self.injector_len.store(inj.len(), Ordering::Release);
            }
        }
        // Dekker producer side: enqueue first, fence, then read the
        // sleeper count. Taking the sleep lock before notifying closes
        // the register-to-wait gap on the parker side.
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            let _guard = self.sleep.lock();
            self.cv.notify_one();
        }
    }

    /// Own local queue, then the injector, then steal the oldest task
    /// from a sibling (rotating the starting victim to spread pressure).
    fn next_task(&self, idx: usize, rr: &mut usize) -> Option<Arc<StreamletTask>> {
        if let Some(task) = self.locals[idx].pop_front() {
            return Some(task);
        }
        if self.injector_len.load(Ordering::Acquire) > 0 {
            let mut inj = self.injector.lock();
            if let Some(task) = inj.pop_front() {
                self.injector_len.store(inj.len(), Ordering::Release);
                return Some(task);
            }
        }
        let n = self.locals.len();
        for off in 1..n {
            let victim = (*rr + off) % n;
            if victim == idx {
                continue;
            }
            if let Some(task) = self.locals[victim].pop_front() {
                *rr = victim;
                self.locals[idx].steals.fetch_add(1, Ordering::Relaxed);
                return Some(task);
            }
        }
        None
    }

    fn has_runnable(&self) -> bool {
        self.injector_len.load(Ordering::SeqCst) > 0
            || self.locals.iter().any(|l| l.len.load(Ordering::SeqCst) > 0)
    }

    /// Dekker parker side: register as a sleeper, re-check every queue,
    /// and only then wait (holding the sleep lock from registration
    /// through the wait, so a producer's notify cannot fall in the gap).
    fn park(&self, idx: usize) {
        let mut guard = self.sleep.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.has_runnable() || self.stop.load(Ordering::Acquire) {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.locals[idx].parks.fetch_add(1, Ordering::Relaxed);
        let _ = self.cv.wait_for(&mut guard, PARK_TIMEOUT);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-worker run queues with work stealing: the third executor back end,
/// built for thousands of mostly-idle sessions per core.
pub struct Reactor {
    state: Arc<ReactorState>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Reactor {
    /// Spawns a reactor with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Arc<Self> {
        let workers = workers.max(1);
        let state = Arc::new(ReactorState {
            id: REACTOR_IDS.fetch_add(1, Ordering::Relaxed),
            locals: (0..workers).map(|_| LocalQueue::new()).collect(),
            injector: Mutex::new(VecDeque::new()),
            injector_len: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let state = state.clone();
                match std::thread::Builder::new()
                    .name(format!("mobigate-reactor-{i}"))
                    .spawn(move || worker_loop(&state, i))
                {
                    Ok(h) => h,
                    Err(e) => panic!("spawn reactor worker: {e}"),
                }
            })
            .collect();
        Arc::new(Reactor {
            state,
            workers: Mutex::new(handles),
        })
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.lock().len()
    }
}

fn worker_loop(state: &Arc<ReactorState>, idx: usize) {
    CURRENT_WORKER.with(|c| c.set(Some((state.id, idx))));
    let mut rr = idx;
    while !state.stop.load(Ordering::Acquire) {
        match state.next_task(idx, &mut rr) {
            Some(task) => {
                state.locals[idx].pumps.fetch_add(1, Ordering::Relaxed);
                let st = state.clone();
                pump_and_reschedule(task, move |t| st.schedule(t));
            }
            None => state.park(idx),
        }
    }
    CURRENT_WORKER.with(|c| c.set(None));
}

impl Executor for Reactor {
    fn launch(&self, task: Arc<StreamletTask>) {
        // Identical discipline to the worker pool.
        launch_pooled(&self.state, task, ReactorState::schedule);
    }

    fn name(&self) -> &'static str {
        "reactor"
    }

    fn shutdown(&self) {
        self.state.stop.store(true, Ordering::Release);
        // Take the sleep lock so the notify cannot land between a
        // parker's stop re-check and its wait.
        {
            let _guard = self.state.sleep.lock();
            self.state.cv.notify_all();
        }
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
    }

    fn stats(&self) -> Option<ExecutorStats> {
        Some(ExecutorStats {
            workers: self
                .state
                .locals
                .iter()
                .map(|l| WorkerStats {
                    pumps: l.pumps.load(Ordering::Relaxed),
                    steals: l.steals.load(Ordering::Relaxed),
                    parks: l.parks.load(Ordering::Relaxed),
                })
                .collect(),
        })
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}
