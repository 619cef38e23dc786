//! The shared-run-queue back end: `M` workers, one global queue.

use super::{launch_pooled, pump_and_reschedule, Executor};
use crate::streamlet::StreamletTask;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Run-queue shared by a [`WorkerPool`]'s workers and the wake hooks.
struct PoolState {
    run_queue: Mutex<VecDeque<Arc<StreamletTask>>>,
    cv: Condvar,
    stop: AtomicBool,
}

impl PoolState {
    /// Enqueues `task` unless it is already queued or being pumped. Paired
    /// with the re-check in [`worker_loop`], this never loses a wakeup:
    /// a notify during a pump is either absorbed by that pump or caught by
    /// the post-pump `has_pending_work` check.
    fn schedule(&self, task: Arc<StreamletTask>) {
        if task.try_mark_scheduled() {
            self.run_queue.lock().push_back(task);
            self.cv.notify_one();
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
        let state = Arc::new(PoolState {
            run_queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let handles = (0..workers.max(1))
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

fn worker_loop(state: &Arc<PoolState>) {
    loop {
        let task = {
            let mut queue = state.run_queue.lock();
            loop {
                if state.stop.load(Ordering::Acquire) {
                    return;
                }
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                state.cv.wait(&mut queue);
            }
        };
        let st = state.clone();
        pump_and_reschedule(task, move |t| st.schedule(t));
    }
}

impl Executor for WorkerPool {
    fn launch(&self, task: Arc<StreamletTask>) {
        launch_pooled(&self.state, task, PoolState::schedule);
    }

    fn name(&self) -> &'static str {
        "worker-pool"
    }

    fn shutdown(&self) {
        self.state.stop.store(true, Ordering::Release);
        self.state.cv.notify_all();
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
