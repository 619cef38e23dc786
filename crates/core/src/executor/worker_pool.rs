//! The shared-run-queue back end: `M` workers, one global queue.

use super::{Executor, PUMP_BATCH};
use crate::streamlet::{PumpOutcome, StreamletTask};
use crate::sync::{Parker, Wake};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Run-queue shared by a [`WorkerPool`]'s workers and the wake hooks.
///
/// A schedule wakes a parked worker only when no awake worker is about to
/// look at the queue: every wake is a futex round trip that costs more
/// than the work it hands over, and an awake searcher pops the task
/// anyway. Workers fall into three groups for this:
/// * `searching`: awake and bound to lock the queue and pop from it
///   before they could park (just woken, or just back from a pump);
/// * parked: waiting in the run queue's parker, possibly with a wake on
///   its way (`waking`);
/// * busy: inside a pump, counted in neither.
///
/// `searching` is decremented only under the run-queue lock (by a worker
/// that pops or parks), but incremented lock-free right after a pump. A
/// scheduler that misses that increment wakes a worker it did not need,
/// which is harmless; one that sees it leaves the task to a worker that
/// has yet to look.
struct PoolState {
    run_queue: Parker<RunQueue>,
    searching: AtomicUsize,
}

struct RunQueue {
    tasks: VecDeque<Arc<StreamletTask>>,
    /// Workers parked on the run queue.
    parked: usize,
    /// A wake was issued and no parked worker has taken it up yet.
    waking: bool,
    stop: bool,
}

impl PoolState {
    /// Enqueues `task` unless it is already queued or being pumped. Paired
    /// with the re-check in [`pump_and_reschedule`], this never loses a
    /// wakeup: a notify during a pump is either absorbed by that pump or
    /// caught by the post-pump `has_pending_work` check.
    fn schedule(&self, task: Arc<StreamletTask>) {
        if task.try_mark_scheduled() {
            self.run_queue.update(|queue| {
                queue.tasks.push_back(task);
                ((), self.wake_one_if_unsearched(queue))
            });
        }
    }

    /// Wakes one parked worker when a task waits and nobody awake will
    /// look at the queue: no searcher and no wake already on its way.
    fn wake_one_if_unsearched(&self, queue: &mut RunQueue) -> Wake {
        let idle = !queue.tasks.is_empty() && queue.parked > 0 && !queue.waking;
        if idle && self.searching.load(Ordering::Acquire) == 0 {
            queue.waking = true;
            Wake::One
        } else {
            Wake::None
        }
    }
}

/// `M` worker threads multiplexing any number of streamlets over one
/// shared run queue.
pub struct WorkerPool {
    state: Arc<PoolState>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Arc<Self> {
        let workers = workers.max(1);
        let state = Arc::new(PoolState {
            run_queue: Parker::new(RunQueue {
                tasks: VecDeque::new(),
                parked: 0,
                waking: false,
                stop: false,
            }),
            // Every worker starts out searching.
            searching: AtomicUsize::new(workers),
        });
        let handles = (0..workers)
            .map(|i| {
                let state = state.clone();
                match std::thread::Builder::new()
                    .name(format!("mobigate-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                {
                    Ok(h) => h,
                    Err(e) => panic!("spawn pool worker: {e}"),
                }
            })
            .collect();
        Arc::new(WorkerPool {
            state,
            workers: Mutex::new(handles),
        })
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.lock().len()
    }
}

/// What a searching worker found in the run queue.
enum Next {
    Pump(Arc<StreamletTask>),
    Park,
    Stop,
}

/// A worker searches the queue, pumps what it pops, and parks only when
/// the queue is empty. Taking a task while others wait behind it passes
/// the search on to a parked worker if no one else is searching (a chain
/// wake), so `W` queued tasks still reach `W` workers.
fn worker_loop(state: &PoolState) {
    loop {
        let next = state.run_queue.update(|queue| {
            if queue.stop {
                return (Next::Stop, Wake::None);
            }
            state.searching.fetch_sub(1, Ordering::AcqRel);
            let Some(task) = queue.tasks.pop_front() else {
                queue.parked += 1;
                return (Next::Park, Wake::None);
            };
            (Next::Pump(task), state.wake_one_if_unsearched(queue))
        });
        match next {
            Next::Stop => return,
            Next::Pump(task) => pump_and_reschedule(state, task),
            // Parked until a schedule's wake (or shutdown); taking the wake
            // up makes this worker the searcher it was meant to be.
            Next::Park => state.run_queue.wait_then(
                |queue| !queue.waking && !queue.stop,
                None,
                |queue, _| {
                    queue.parked -= 1;
                    queue.waking = false;
                    state.searching.fetch_add(1, Ordering::AcqRel);
                    ((), Wake::None)
                },
            ),
        }
    }
}

/// Drives one task for one quantum and applies the never-lose-a-wakeup
/// reschedule protocol. The ordering is load-bearing: clear the
/// membership mark *before* re-checking for work — a notify racing the
/// pump either found the mark set (caught by the re-check) or lands after
/// and re-queues — then re-arm the coalescing notifier for the same
/// reason.
///
/// The worker counts itself searching as soon as the pump returns, before
/// anything is rescheduled: it is about to pop again, so requeueing its
/// own task (or a racing notify requeueing it) wakes nobody.
fn pump_and_reschedule(state: &PoolState, task: Arc<StreamletTask>) {
    let outcome = task.pump(PUMP_BATCH);
    state.searching.fetch_add(1, Ordering::AcqRel);
    task.clear_scheduled();
    task.disarm_wake();
    match outcome {
        PumpOutcome::Ended => task.clear_wake_hook(),
        PumpOutcome::More => state.schedule(task),
        PumpOutcome::Idle => {
            if task.has_pending_work() {
                state.schedule(task);
            }
        }
    }
}

impl Executor for WorkerPool {
    /// Adopts `task`: a wake hook routing every notification to the run
    /// queue. With the hook installed the task's output posts never wait:
    /// what a full channel refuses waits in its lane, and the worker moves
    /// on, so a backed-up chain deeper than the pool cannot eat every
    /// worker. The launch itself schedules nothing unless the task
    /// already has work — an idle session costs no pump, and
    /// `on_activate` waits for the first one (or for an inline `end`).
    ///
    /// Order matters as in `pump_and_reschedule`: the hook is installed
    /// and the coalescing notifier re-armed *before* the work check, so a
    /// post landing after the disarm fires the hook, and one that landed
    /// before it is seen by the check.
    fn launch(&self, task: Arc<StreamletTask>) {
        // Weak in both directions: the hook lives inside the task's
        // notifier, so a strong task ref here would leak the task, and a
        // strong state ref would keep a dead pool alive.
        let weak_state = Arc::downgrade(&self.state);
        let weak_task = Arc::downgrade(&task);
        task.set_wake_hook(move || {
            if let (Some(state), Some(task)) = (weak_state.upgrade(), weak_task.upgrade()) {
                state.schedule(task);
            }
        });
        task.disarm_wake();
        if task.has_pending_work() {
            self.state.schedule(task);
        }
    }

    fn name(&self) -> &'static str {
        "worker-pool"
    }

    fn shutdown(&self) {
        self.state.run_queue.update(|queue| {
            queue.stop = true;
            ((), Wake::All)
        });
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}
