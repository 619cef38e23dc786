//! Execution backends for the Streamlet Execution Plane.
//!
//! The paper schedules streamlets with one OS thread each (`Streamlet
//! extends Thread`, §6.1) — faithful, but a 100-streamlet chain (the
//! Figure 7-6 workload) then burns 100 threads. This module decouples the
//! logical streamlet graph from physical execution resources, in the
//! spirit of component-pipeline platforms that separate composition from
//! scheduling:
//!
//! * [`ThreadPerStreamlet`] — the paper-faithful default; each started
//!   streamlet gets a dedicated blocking worker thread.
//! * [`WorkerPool`] — `M` workers drive a single shared run-queue of
//!   runnable streamlet tasks. A task becomes runnable when its
//!   [`crate::queue::Notifier`] fires (queue post, pause/activate/end,
//!   control command) via a wake hook installed at launch, so idle
//!   streamlets cost no threads and a 100-redirector chain runs on a
//!   handful of workers. Launch itself schedules only a task that already
//!   has work, and `end` finalizes a task no worker is pumping on the
//!   calling thread, so an idle session's lifecycle costs no pump.
//! * [`Reactor`] — per-worker run queues with work stealing. The same
//!   wake hooks act as wakers: a blocked `fetch`/`post` costs one
//!   queue-listener entry instead of a parked thread, workers steal from
//!   each other before sleeping, and each fused unit is the scheduling
//!   quantum. Built for thousands of mostly-idle sessions per core.
//!
//! All back ends drive the same [`StreamletTask`] state machine, so
//! lifecycle semantics (Created → Running → Paused → Ended,
//! suspend-during-reconfiguration per Figure 7-4, control commands
//! serviced between messages) are identical under any executor.
//!
//! Pool-driven tasks post outputs without blocking: a full async queue
//! parks the message in the task's pending-output buffer (with its Figure
//! 6-9 drop deadline) rather than parking the worker, and a rendezvous
//! (sync) channel whose slot is occupied does the same — the producer
//! registers on the queue's space listeners and yields the worker, so
//! chains of either channel kind deeper than the worker count keep making
//! progress under backpressure.

#![deny(clippy::unwrap_used, clippy::expect_used)]

mod reactor;
mod worker_pool;

pub use reactor::Reactor;
pub use worker_pool::WorkerPool;

use crate::streamlet::{PumpOutcome, StreamletTask};
use std::sync::{Arc, OnceLock};

/// Maximum messages a worker pumps from one task before requeueing it, so
/// a busy streamlet cannot starve its siblings. This is the cooperative
/// scheduling quantum shared by the pool and reactor back ends.
pub(crate) const PUMP_BATCH: usize = 64;

/// Scheduler counters for one pool/reactor worker thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Pump calls executed (each drives one task for up to one quantum).
    pub pumps: u64,
    /// Tasks stolen from another worker's local queue.
    pub steals: u64,
    /// Times the worker went to sleep with no runnable task anywhere.
    pub parks: u64,
}

/// Point-in-time scheduler counters for an executor back end.
#[derive(Clone, Debug, Default)]
pub struct ExecutorStats {
    /// One entry per worker thread, indexed by worker id.
    pub workers: Vec<WorkerStats>,
}

impl ExecutorStats {
    /// Sum of pump calls across workers.
    pub fn total_pumps(&self) -> u64 {
        self.workers.iter().map(|w| w.pumps).sum()
    }

    /// Sum of steals across workers.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Sum of parks across workers.
    pub fn total_parks(&self) -> u64 {
        self.workers.iter().map(|w| w.parks).sum()
    }
}

/// A scheduling back end for started streamlets.
pub trait Executor: Send + Sync {
    /// Adopts a started task and drives it until it ends.
    fn launch(&self, task: Arc<StreamletTask>);

    /// Diagnostic name of the back end.
    fn name(&self) -> &'static str;

    /// Stops the back end's threads. Streamlets must have ended first;
    /// the default (thread-per-streamlet) has nothing to stop because each
    /// thread exits with its streamlet.
    fn shutdown(&self) {}

    /// Per-worker scheduler counters, when the back end keeps them.
    fn stats(&self) -> Option<ExecutorStats> {
        None
    }
}

/// The paper's scheduling model: one dedicated OS thread per streamlet.
#[derive(Debug, Default)]
pub struct ThreadPerStreamlet;

impl ThreadPerStreamlet {
    /// A fresh thread-per-streamlet executor.
    pub fn new() -> Arc<Self> {
        Arc::new(Self)
    }
}

impl Executor for ThreadPerStreamlet {
    fn launch(&self, task: Arc<StreamletTask>) {
        let name = format!("streamlet-{}", task.name());
        if let Err(e) = std::thread::Builder::new()
            .name(name)
            .spawn(move || task.run_blocking())
        {
            panic!("spawn streamlet thread: {e}");
        }
    }

    fn name(&self) -> &'static str {
        "thread-per-streamlet"
    }
}

/// The process-wide default executor (thread-per-streamlet), used by
/// handles constructed without an explicit executor.
pub fn default_executor() -> Arc<dyn Executor> {
    static DEFAULT: OnceLock<Arc<ThreadPerStreamlet>> = OnceLock::new();
    DEFAULT.get_or_init(ThreadPerStreamlet::new).clone()
}

/// Adopts `task` into a pooled back end (worker pool or reactor):
/// non-blocking outputs, and a wake hook routing every notification to
/// `schedule` on `state`. The launch itself schedules nothing unless the
/// task already has work — an idle session costs no pump, and
/// `on_activate` waits for the first one (or for an inline `end`).
///
/// Order matters as in [`pump_and_reschedule`]: the hook is installed and
/// the coalescing notifier re-armed *before* the work check, so a post
/// landing after the disarm fires the hook, and one that landed before it
/// is seen by the check.
pub(crate) fn launch_pooled<S: Send + Sync + 'static>(
    state: &Arc<S>,
    task: Arc<StreamletTask>,
    schedule: fn(&S, Arc<StreamletTask>),
) {
    // Workers must never park inside a downstream post: with more
    // streamlets than workers, a backed-up chain would otherwise eat every
    // worker and stall until the drop deadline. Full async queues park the
    // message in the task's pending-output buffer, occupied rendezvous
    // slots do the same, and the worker moves on.
    task.set_nonblocking_outputs(true);
    // Weak in both directions: the hook lives inside the task's notifier,
    // so a strong task ref here would leak the task, and a strong state
    // ref would keep dead back ends alive.
    let weak_state = Arc::downgrade(state);
    let weak_task = Arc::downgrade(&task);
    task.set_wake_hook(move || {
        if let (Some(state), Some(task)) = (weak_state.upgrade(), weak_task.upgrade()) {
            schedule(&state, task);
        }
    });
    task.disarm_wake();
    if task.has_pending_work() {
        schedule(state, task);
    }
}

/// Drives one task for one quantum and applies the shared never-lose-a-
/// wakeup reschedule protocol. `reschedule` must route the task back into
/// the caller's run queue (it is only invoked when the task stays live).
///
/// The ordering is load-bearing and identical under pool and reactor:
/// clear the membership mark *before* re-checking for work — a notify
/// racing the pump either found the mark set (caught by the re-check) or
/// lands after and re-queues — then re-arm the coalescing notifier for
/// the same reason.
pub(crate) fn pump_and_reschedule(
    task: Arc<StreamletTask>,
    reschedule: impl FnOnce(Arc<StreamletTask>),
) {
    let outcome = task.pump(PUMP_BATCH);
    task.clear_scheduled();
    task.disarm_wake();
    match outcome {
        PumpOutcome::Ended => task.clear_wake_hook(),
        PumpOutcome::More => reschedule(task),
        PumpOutcome::Idle => {
            if task.has_pending_work() {
                reschedule(task);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::error::CoreError;
    use crate::pool::{MessagePool, PayloadMode};
    use crate::queue::{FetchResult, MessageQueue, PostResult, QueueConfig};
    use crate::streamlet::{
        Emitter, LifecycleState, RouteOpts, StreamletCtx, StreamletHandle, StreamletLogic,
    };
    use mobigate_mcl::ast::ChannelKind;
    use mobigate_mime::MimeMessage;
    use std::time::Duration;

    /// Uppercases text bodies, emits on `po`; `rate` is a control knob.
    struct Upper {
        rate: u32,
    }

    impl StreamletLogic for Upper {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            let text = String::from_utf8_lossy(&msg.body).to_uppercase();
            let mut out = msg.clone();
            out.set_body(text.into_bytes());
            ctx.emit("po", out);
            Ok(())
        }

        fn control(&mut self, key: &str, value: &str) -> Result<(), CoreError> {
            if key == "rate" {
                self.rate = value.parse().map_err(|_| CoreError::NotFound {
                    kind: "control value",
                    name: value.into(),
                })?;
                Ok(())
            } else {
                Err(CoreError::NotFound {
                    kind: "control parameter",
                    name: key.into(),
                })
            }
        }
    }

    /// Forwards its input unchanged (the Figure 7-6 redirector).
    struct Redirect;

    impl StreamletLogic for Redirect {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            ctx.emit("po", msg);
            Ok(())
        }
    }

    fn queue(name: &str, pool: &Arc<MessagePool>) -> Arc<MessageQueue> {
        MessageQueue::new(
            QueueConfig {
                name: name.into(),
                ..Default::default()
            },
            pool.clone(),
        )
    }

    /// A rendezvous (zero-buffer) channel with a generous producer wait so
    /// deep sync chains are not subject to the 50 ms drop deadline.
    fn sync_queue(name: &str, pool: &Arc<MessagePool>) -> Arc<MessageQueue> {
        MessageQueue::new(
            QueueConfig {
                name: name.into(),
                kind: ChannelKind::Sync,
                full_wait: Duration::from_secs(10),
                ..Default::default()
            },
            pool.clone(),
        )
    }

    fn upper_pipeline(
        executor: Arc<dyn Executor>,
    ) -> (
        Arc<MessagePool>,
        Arc<MessageQueue>,
        Arc<MessageQueue>,
        Arc<StreamletHandle>,
    ) {
        let pool = Arc::new(MessagePool::new());
        let qin = queue("cin", &pool);
        let qout = queue("cout", &pool);
        let h = StreamletHandle::with_executor(
            "u1",
            "upper",
            false,
            Box::new(Upper { rate: 1 }),
            pool.clone(),
            PayloadMode::Reference,
            None,
            RouteOpts::default(),
            executor,
        );
        h.attach_in("pi", &qin);
        h.attach_out("po", &qout);
        (pool, qin, qout, h)
    }

    fn post_text(pool: &MessagePool, q: &MessageQueue, s: &str) {
        let msg = MimeMessage::text(s);
        assert_eq!(
            q.post(pool.wrap(msg, PayloadMode::Reference, 1)),
            PostResult::Posted
        );
    }

    fn fetch_text(pool: &MessagePool, q: &MessageQueue) -> String {
        match q.fetch(Duration::from_secs(5)) {
            FetchResult::Msg(p) => {
                String::from_utf8_lossy(&pool.resolve(p).unwrap().body).into_owned()
            }
            other => panic!("expected message, got {other:?}"),
        }
    }

    /// Full lifecycle — process, pause (Fig 7-4 step 2), control command,
    /// activate, end with logic parked — identical under all back ends.
    fn lifecycle_suite(executor: Arc<dyn Executor>) {
        let (pool, qin, qout, h) = upper_pipeline(executor);
        h.start().unwrap();
        post_text(&pool, &qin, "a");
        assert_eq!(fetch_text(&pool, &qout), "A");

        h.pause_and_wait(Duration::from_secs(5)).unwrap();
        assert_eq!(h.state(), LifecycleState::Paused);
        post_text(&pool, &qin, "b");
        assert!(matches!(
            qout.fetch(Duration::from_millis(50)),
            FetchResult::Empty
        ));

        h.activate().unwrap();
        assert_eq!(fetch_text(&pool, &qout), "B");

        h.set_parameter("rate", "9", Duration::from_secs(5))
            .unwrap();
        assert!(h
            .set_parameter("nope", "1", Duration::from_secs(5))
            .is_err());

        h.end();
        assert_eq!(h.state(), LifecycleState::Ended);
        assert!(h.take_logic().is_some(), "logic parked back after end");
    }

    #[test]
    fn lifecycle_under_thread_per_streamlet() {
        lifecycle_suite(ThreadPerStreamlet::new());
    }

    #[test]
    fn lifecycle_under_worker_pool() {
        lifecycle_suite(WorkerPool::new(2));
    }

    #[test]
    fn worker_pool_single_worker_suffices() {
        // Even one worker must drive a streamlet through its lifecycle:
        // the run-queue serializes, nothing blocks inside a pump.
        lifecycle_suite(WorkerPool::new(1));
    }

    #[test]
    fn lifecycle_under_reactor() {
        lifecycle_suite(Reactor::new(2));
    }

    #[test]
    fn reactor_single_worker_suffices() {
        lifecycle_suite(Reactor::new(1));
    }

    /// The Figure 7-6 stress shape: a chain of `CHAIN` redirector
    /// streamlets, multiplexed onto far fewer worker threads.
    fn redirector_chain(executor: Arc<dyn Executor>, chain: usize, msgs: usize) {
        let pool = Arc::new(MessagePool::new());
        let queues: Vec<_> = (0..=chain)
            .map(|i| queue(&format!("c{i}"), &pool))
            .collect();
        let handles: Vec<_> = (0..chain)
            .map(|i| {
                let h = StreamletHandle::with_executor(
                    format!("redir-{i}"),
                    "redirect",
                    false,
                    Box::new(Redirect),
                    pool.clone(),
                    PayloadMode::Reference,
                    None,
                    RouteOpts::default(),
                    executor.clone(),
                );
                h.attach_in("pi", &queues[i]);
                h.attach_out("po", &queues[i + 1]);
                h.start().unwrap();
                h
            })
            .collect();

        for i in 0..msgs {
            post_text(&pool, &queues[0], &format!("m{i}"));
        }
        for i in 0..msgs {
            assert_eq!(fetch_text(&pool, &queues[chain]), format!("m{i}"));
        }
        for h in &handles {
            h.end();
        }
        assert_eq!(pool.stats().resident, 0, "chain drained the pool");
        executor.shutdown();
    }

    #[test]
    fn hundred_redirector_chain_on_eight_workers() {
        let executor = WorkerPool::new(8);
        assert_eq!(executor.worker_count(), 8);
        redirector_chain(executor, 100, 25);
    }

    #[test]
    fn hundred_redirector_chain_on_reactor() {
        let executor = Reactor::new(4);
        assert_eq!(executor.worker_count(), 4);
        redirector_chain(executor, 100, 25);
    }

    /// Regression for the old header caveat: a chain of *rendezvous*
    /// channels much deeper than the worker count. Before non-blocking
    /// sync posts, each producer parked its worker inside `post` until the
    /// downstream consumer ran — impossible with every worker parked — so
    /// the chain deadlocked until drop deadlines fired. Now the producer
    /// parks the payload and yields, and the chain drains on one worker.
    fn sync_chain_deeper_than_workers(executor: Arc<dyn Executor>) {
        const CHAIN: usize = 40;
        let pool = Arc::new(MessagePool::new());
        let queues: Vec<_> = (0..=CHAIN)
            .map(|i| sync_queue(&format!("s{i}"), &pool))
            .collect();
        let handles: Vec<_> = (0..CHAIN)
            .map(|i| {
                let h = StreamletHandle::with_executor(
                    format!("sredir-{i}"),
                    "redirect",
                    false,
                    Box::new(Redirect),
                    pool.clone(),
                    PayloadMode::Reference,
                    None,
                    RouteOpts::default(),
                    executor.clone(),
                );
                h.attach_in("pi", &queues[i]);
                h.attach_out("po", &queues[i + 1]);
                h.start().unwrap();
                h
            })
            .collect();

        // The tail consumer drains concurrently, as rendezvous requires.
        let tail = queues[CHAIN].clone();
        let pool2 = pool.clone();
        let drain = std::thread::spawn(move || {
            (0..10)
                .map(|_| fetch_text(&pool2, &tail))
                .collect::<Vec<_>>()
        });
        for i in 0..10 {
            // Head posts from a dedicated (test) thread: blocking rendezvous
            // semantics apply here, only pool-driven producers yield.
            post_text(&pool, &queues[0], &format!("m{i}"));
        }
        let got = drain.join().unwrap();
        assert_eq!(got, (0..10).map(|i| format!("m{i}")).collect::<Vec<_>>());
        for h in &handles {
            h.end();
        }
        executor.shutdown();
    }

    #[test]
    fn sync_chain_deeper_than_workers_on_worker_pool() {
        sync_chain_deeper_than_workers(WorkerPool::new(2));
    }

    #[test]
    fn sync_chain_deeper_than_workers_on_reactor() {
        sync_chain_deeper_than_workers(Reactor::new(2));
    }

    #[test]
    fn worker_pool_shutdown_is_idempotent() {
        let pool = WorkerPool::new(2);
        pool.shutdown();
        pool.shutdown();
        assert_eq!(pool.worker_count(), 0, "workers joined");
    }

    #[test]
    fn reactor_shutdown_is_idempotent() {
        let r = Reactor::new(2);
        r.shutdown();
        r.shutdown();
        assert_eq!(r.worker_count(), 0, "workers joined");
    }

    #[test]
    fn executor_names() {
        assert_eq!(ThreadPerStreamlet::new().name(), "thread-per-streamlet");
        assert_eq!(WorkerPool::new(1).name(), "worker-pool");
        assert_eq!(Reactor::new(1).name(), "reactor");
        assert_eq!(default_executor().name(), "thread-per-streamlet");
    }

    #[test]
    fn reactor_reports_per_worker_stats() {
        let executor = Reactor::new(3);
        redirector_chain(executor.clone(), 20, 50);
        let stats = executor.stats().expect("reactor keeps stats");
        assert_eq!(stats.workers.len(), 3);
        assert!(stats.total_pumps() > 0, "workers pumped tasks");
        // Parks happen whenever a worker finds nothing runnable; with 3
        // workers and a mostly-serial chain this is effectively certain.
        assert!(stats.total_parks() > 0, "idle workers parked");
    }
}
