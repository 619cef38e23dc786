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
//!   streamlet gets a dedicated thread that pumps it and, when idle,
//!   blocks on its notifier with no timeout. Outputs keep the paper's
//!   blocking posts.
//! * [`WorkerPool`] — `M` workers drive a single shared run-queue of
//!   runnable streamlet tasks. A task becomes runnable when its
//!   [`crate::queue::Notifier`] fires (queue post, pause/activate/end,
//!   control command) via a wake hook installed at launch, so idle
//!   streamlets cost no threads and a 100-redirector chain runs on a
//!   handful of workers. Launch itself schedules only a task that already
//!   has work, and `end` finalizes a task no worker is pumping on the
//!   calling thread, so an idle session's lifecycle costs no pump. A
//!   schedule wakes a parked worker only when no awake worker is about to
//!   look at the run queue.
//!
//! Both back ends drive the same [`StreamletTask::pump`] state machine,
//! so lifecycle semantics (Created → Running → Paused → Ended,
//! suspend-during-reconfiguration per Figure 7-4, control commands
//! serviced between messages) are identical under either executor. They
//! differ only in who calls `pump` and how an idle task waits: a
//! dedicated thread blocks on the task's notifier, a pooled task leaves
//! the run queue until its wake hook re-schedules it.
//!
//! Pool-driven tasks post outputs without blocking: a full async queue
//! queues the message in its waiting lane (with its Figure 6-9 drop
//! deadline) rather than parking the worker, and a rendezvous (sync)
//! channel whose slot is occupied does the same — the producer yields the
//! worker and the entry's departure wakes it, so chains of either channel
//! kind deeper than the worker count keep making progress under
//! backpressure.

#![deny(clippy::unwrap_used, clippy::expect_used)]

mod worker_pool;

pub use worker_pool::WorkerPool;

use crate::streamlet::{PumpOutcome, StreamletTask};
use std::sync::{Arc, OnceLock};

/// Maximum messages a worker pumps from one task before requeueing it, so
/// a busy streamlet cannot starve its siblings. This is the cooperative
/// scheduling quantum; a dedicated thread uses the same budget between
/// its notifier checks.
pub(crate) const PUMP_BATCH: usize = 64;

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
            .spawn(move || drive_dedicated(&task))
        {
            panic!("spawn streamlet thread: {e}");
        }
    }

    fn name(&self) -> &'static str {
        "thread-per-streamlet"
    }
}

/// The paper's `Streamlet.run()` on a dedicated thread: pump one quantum
/// at a time and, once the task goes idle, block on its notifier with no
/// timeout. Every source of pump work notifies, and the snapshot precedes
/// the pump, so a wake that lands while the pump inspects inputs and
/// lifecycle state makes the wait return at once.
fn drive_dedicated(task: &StreamletTask) {
    let notifier = task.notifier();
    loop {
        let seen = notifier.snapshot();
        match task.pump(PUMP_BATCH) {
            PumpOutcome::More => {}
            PumpOutcome::Idle => notifier.wait_unless(seen, None),
            PumpOutcome::Ended => return,
        }
    }
}

/// The process-wide default executor (thread-per-streamlet), used by
/// handles constructed without an explicit executor.
pub fn default_executor() -> Arc<dyn Executor> {
    static DEFAULT: OnceLock<Arc<ThreadPerStreamlet>> = OnceLock::new();
    DEFAULT.get_or_init(ThreadPerStreamlet::new).clone()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::error::CoreError;
    use crate::pool::{MessagePool, PayloadMode};
    use crate::queue::{FetchResult, MessageQueue, Notifier, PostResult, QueueConfig};
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
    /// activate, end with logic parked — identical under both back ends.
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
    fn idle_dedicated_thread_blocks_until_notified() {
        let (pool, qin, qout, h) = upper_pipeline(ThreadPerStreamlet::new());
        // Fired after every step the task runs.
        let steps = Arc::new(Notifier::new());
        h.set_quiesce_notifier(steps.clone());
        h.start().unwrap();
        post_text(&pool, &qin, "a");
        assert_eq!(fetch_text(&pool, &qout), "A");
        // Once the thread has gone idle, no step runs until a wake: a
        // timed idle poll would step (and fire `steps`) in every window.
        let quiet_window = (0..10).any(|_| {
            let since = steps.snapshot();
            std::thread::sleep(Duration::from_millis(50));
            steps.snapshot() == since
        });
        assert!(quiet_window, "idle dedicated thread kept stepping");
        post_text(&pool, &qin, "b");
        assert_eq!(fetch_text(&pool, &qout), "B");
        h.end();
        assert!(h.take_logic().is_some(), "logic parked back after end");
    }

    #[test]
    fn worker_pool_single_worker_suffices() {
        // Even one worker must drive a streamlet through its lifecycle:
        // the run-queue serializes, nothing blocks inside a pump.
        lifecycle_suite(WorkerPool::new(1));
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

    /// Regression for the old header caveat: a chain of *rendezvous*
    /// channels much deeper than the worker count. Before non-blocking
    /// sync posts, each producer parked its worker inside `post` until the
    /// downstream consumer ran — impossible with every worker parked — so
    /// the chain deadlocked until drop deadlines fired. Now the payload
    /// waits in the channel's lane and the producer yields, and the chain
    /// drains on one worker.
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

    /// Blocks in `process` until `n` instances are inside it at once (or
    /// a 10 s deadline passes), then counts whether all `n` met.
    struct Rendezvous {
        gate: Arc<(parking_lot::Mutex<usize>, parking_lot::Condvar)>,
        n: usize,
        met: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl StreamletLogic for Rendezvous {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            let (arrived, cv) = &*self.gate;
            let mut arrived = arrived.lock();
            *arrived += 1;
            cv.notify_all();
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while *arrived < self.n && !cv.wait_until(&mut arrived, deadline).timed_out() {}
            if *arrived >= self.n {
                self.met.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            drop(arrived);
            ctx.emit("po", msg);
            Ok(())
        }
    }

    /// `W` tasks that each block until all `W` run at once, posted in one
    /// burst from a foreign thread: a schedule wakes only one parked
    /// worker, so the rest must be reached by chain wakes.
    #[test]
    fn worker_pool_reaches_every_worker_through_chain_wakes() {
        const W: usize = 4;
        let executor = WorkerPool::new(W);
        let pool = Arc::new(MessagePool::new());
        let gate = Arc::new((parking_lot::Mutex::new(0), parking_lot::Condvar::new()));
        let met = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let out = queue("out", &pool);
        let inputs: Vec<_> = (0..W).map(|i| queue(&format!("in{i}"), &pool)).collect();
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, qin)| {
                let h = StreamletHandle::with_executor(
                    format!("meet-{i}"),
                    "meet",
                    false,
                    Box::new(Rendezvous {
                        gate: gate.clone(),
                        n: W,
                        met: met.clone(),
                    }),
                    pool.clone(),
                    PayloadMode::Reference,
                    None,
                    RouteOpts::default(),
                    executor.clone(),
                );
                h.attach_in("pi", qin);
                h.attach_out("po", &out);
                h.start().unwrap();
                h
            })
            .collect();
        for qin in &inputs {
            post_text(&pool, qin, "x");
        }
        for _ in 0..W {
            match out.fetch(Duration::from_secs(20)) {
                FetchResult::Msg(p) => drop(pool.resolve(p)),
                other => panic!("expected message, got {other:?}"),
            }
        }
        assert_eq!(
            met.load(std::sync::atomic::Ordering::Relaxed),
            W,
            "all {W} tasks must run on {W} workers at once"
        );
        for h in &handles {
            h.end();
        }
        executor.shutdown();
    }

    /// Every post from a foreign thread onto a pool whose workers went
    /// idle is processed: the schedule wakes a parked worker unless an
    /// awake one is bound to look. Each cycle waits for the previous
    /// delivery, so the post races the workers on their way to park.
    #[test]
    fn worker_pool_post_to_idle_workers_is_never_lost() {
        let executor = WorkerPool::new(4);
        let (pool, qin, qout, h) = upper_pipeline(executor.clone());
        h.start().unwrap();
        for i in 0..3000u32 {
            post_text(&pool, &qin, &format!("m{i}"));
            assert_eq!(fetch_text(&pool, &qout), format!("M{i}"));
        }
        h.end();
        executor.shutdown();
    }

    #[test]
    fn worker_pool_shutdown_is_idempotent() {
        let pool = WorkerPool::new(2);
        pool.shutdown();
        pool.shutdown();
        assert_eq!(pool.worker_count(), 0, "workers joined");
    }

    /// A shutdown landing while a fresh worker is between its `stop`
    /// check and its wait must still reach it: every cycle joins. The
    /// spin varies how far the worker got before the shutdown.
    #[test]
    fn worker_pool_shutdown_reaches_a_worker_on_its_way_to_sleep() {
        for i in 0..3000u32 {
            let pool = WorkerPool::new(1);
            for _ in 0..(i % 128) * 20 {
                std::hint::spin_loop();
            }
            pool.shutdown();
        }
    }

    #[test]
    fn executor_names() {
        assert_eq!(ThreadPerStreamlet::new().name(), "thread-per-streamlet");
        assert_eq!(WorkerPool::new(1).name(), "worker-pool");
        assert_eq!(default_executor().name(), "thread-per-streamlet");
    }
}
