//! Cross-executor equivalence and fairness tests:
//!
//! * a property test feeding one random message sequence through a
//!   three-stage tagging chain and requiring each output to be its
//!   input's expected tagged body, in order, under *each* executor back
//!   end (thread-per-streamlet, worker pool);
//! * a worker-pool starvation test: one hot session flooding a deep
//!   chain must not stall cold sessions sharing the same (small) worker
//!   set — the cooperative pump budget plus the FIFO run queue keeps
//!   them live;
//! * producer teardown: a pooled producer ended while its outputs wait in
//!   a full channel's lane loses none of them.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mobigate_core::stream::{BatchConfig, RunningStream, StreamDeps};
use mobigate_core::{
    default_executor, CoreError, Emitter, Executor, FetchResult, MessagePool, MessageQueue,
    PayloadMode, QueueConfig, RouteOpts, StreamletCtx, StreamletDirectory, StreamletHandle,
    StreamletLogic, StreamletPool, WorkerPool,
};
use mobigate_mcl::compile::compile;
use mobigate_mime::{MimeMessage, SessionId};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Appends a marker character to text bodies.
struct Tag(char);
impl StreamletLogic for Tag {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        let mut s = String::from_utf8_lossy(&msg.body).into_owned();
        s.push(self.0);
        let mut out = msg.clone();
        out.set_body(s.into_bytes());
        ctx.emit("po", out);
        Ok(())
    }
}

const CHAIN: &str = r#"
    streamlet tag_x {
        port { in pi : text/plain; out po : text/plain; }
        attribute { type = STATELESS; library = "xq/tag_x"; }
    }
    streamlet tag_y {
        port { in pi : text/plain; out po : text/plain; }
        attribute { type = STATELESS; library = "xq/tag_y"; }
    }
    streamlet tag_z {
        port { in pi : text/plain; out po : text/plain; }
        attribute { type = STATELESS; library = "xq/tag_z"; }
    }
    main stream app {
        streamlet s1 = new-streamlet (tag_x);
        streamlet s2 = new-streamlet (tag_y);
        streamlet s3 = new-streamlet (tag_z);
        connect (s1.po, s2.pi);
        connect (s2.po, s3.pi);
    }
"#;

fn deploy(executor: Arc<dyn Executor>, session: &str) -> (Arc<RunningStream>, StreamDeps) {
    let directory = Arc::new(StreamletDirectory::new());
    directory.register("xq/tag_x", "", || Box::new(Tag('x')));
    directory.register("xq/tag_y", "", || Box::new(Tag('y')));
    directory.register("xq/tag_z", "", || Box::new(Tag('z')));
    let deps = StreamDeps {
        msg_pool: Arc::new(MessagePool::new()),
        directory,
        streamlet_pool: Arc::new(StreamletPool::new(16)),
        mode: PayloadMode::Reference,
        route_opts: RouteOpts::default(),
        executor,
        supervisor: None,
        batching: BatchConfig { batch_max: 16 },
        fusion: false,
        telemetry: None,
        overload: Default::default(),
        admission: None,
        buf_pool: None,
    };
    let program = compile(CHAIN).unwrap();
    let stream = RunningStream::deploy(
        program.main().unwrap(),
        &program.streamlet_defs,
        deps.clone(),
        SessionId::new(session),
    )
    .unwrap();
    (stream, deps)
}

fn executors() -> [Arc<dyn Executor>; 2] {
    [default_executor(), WorkerPool::new(2)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Every message crosses the chain once, tagged by each stage in
    /// order, and leaves in the order it entered; the scheduler driving
    /// the chain must not matter — both executors satisfy it.
    #[test]
    fn chain_output_is_each_input_tagged_in_order_on_all_executors(
        tags in prop::collection::vec(any::<u8>(), 1..20)
    ) {
        for executor in executors() {
            let (stream, _) = deploy(executor.clone(), "chain");
            for (i, t) in tags.iter().enumerate() {
                stream.post_input(MimeMessage::text(format!("m{i}-{t}"))).unwrap();
            }
            let out: Vec<String> = (0..tags.len())
                .map(|_| {
                    let out = stream.take_output(Duration::from_secs(5)).expect("output");
                    String::from_utf8_lossy(&out.body).into_owned()
                })
                .collect();
            let expected: Vec<String> = tags
                .iter()
                .enumerate()
                .map(|(i, t)| format!("m{i}-{t}xyz"))
                .collect();
            prop_assert_eq!(out, expected, "executor {}", executor.name());
            prop_assert!(stream.take_output(Duration::ZERO).is_none());
            stream.shutdown();
            if executor.name() != "thread-per-streamlet" {
                executor.shutdown();
            }
        }
    }
}

/// One hot session saturating a deep chain must not stall cold sessions
/// on the same two pool workers: the pump budget bounds how long the hot
/// task holds a worker, and the FIFO run queue puts cold wakes ahead of
/// the hot task's requeue.
#[test]
fn worker_pool_hot_session_does_not_starve_cold_sessions() {
    let executor: Arc<dyn Executor> = WorkerPool::new(2);
    let (hot, _) = deploy(executor.clone(), "hot");
    let colds: Vec<_> = (0..4)
        .map(|i| deploy(executor.clone(), &format!("cold-{i}")).0)
        .collect();

    // Flood the hot session from a dedicated producer for the duration
    // of the test. Drops on its input queue are fine — the point is to
    // keep the pool saturated with hot work.
    let hot2 = hot.clone();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop2 = stop.clone();
    let flood = std::thread::spawn(move || {
        let mut n = 0u64;
        while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
            let _ = hot2.post_input(MimeMessage::text(format!("h{n}")));
            n += 1;
            // Drain what we can so the chain keeps cycling end to end.
            while hot2.take_output(Duration::ZERO).is_some() {}
        }
    });

    // Meanwhile every cold session must keep round-tripping promptly.
    let mut worst = Duration::ZERO;
    for round in 0..5 {
        for (i, cold) in colds.iter().enumerate() {
            let t0 = Instant::now();
            cold.post_input(MimeMessage::text(format!("c{round}-{i}")))
                .unwrap();
            let out = cold
                .take_output(Duration::from_secs(10))
                .expect("cold session starved behind the hot one");
            assert_eq!(
                String::from_utf8_lossy(&out.body),
                format!("c{round}-{i}xyz")
            );
            worst = worst.max(t0.elapsed());
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    flood.join().unwrap();
    assert!(
        worst < Duration::from_secs(10),
        "cold round-trip took {worst:?} under hot load"
    );

    hot.shutdown();
    for cold in colds {
        cold.shutdown();
    }
    executor.shutdown();
}

/// Message pool, input, output and producer of [`pooled_producer`].
type Producer = (
    Arc<MessagePool>,
    Arc<MessageQueue>,
    Arc<MessageQueue>,
    Arc<StreamletHandle>,
);

/// A `Tag('p')` producer on the worker pool between `input` and a
/// one-message `output` channel with Figure 6-9's `T` = `full_wait`.
fn pooled_producer(batch_max: usize, full_wait: Duration) -> Producer {
    let pool = Arc::new(MessagePool::new());
    let input = MessageQueue::new(QueueConfig::default(), pool.clone());
    let output = MessageQueue::new(
        QueueConfig {
            capacity_bytes: 1,
            full_wait,
            ..Default::default()
        },
        pool.clone(),
    );
    let h = StreamletHandle::with_executor(
        "p",
        "tag",
        false,
        Box::new(Tag('p')),
        pool.clone(),
        PayloadMode::Reference,
        None,
        RouteOpts::default(),
        WorkerPool::new(2),
    );
    h.set_batch_max(batch_max);
    input.attach_source();
    h.attach_in("pi", &input);
    h.attach_out("po", &output);
    output.attach_sink();
    (pool, input, output, h)
}

fn post_texts(pool: &MessagePool, q: &MessageQueue, n: u64) {
    for i in 0..n {
        q.post(pool.wrap(
            MimeMessage::text(format!("m{i}")),
            PayloadMode::Reference,
            1,
        ));
    }
}

/// Polls `done` every 2 ms until it holds or 10 s pass.
fn wait_until(mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

/// A pooled producer takes input only while fewer than `batch_max` of its
/// outputs wait in a lane: with `batch_max` 2 it takes two batches (one
/// output admitted, three waiting) and stops, and each departure lets it
/// go on until all ten arrive in order.
#[test]
fn pooled_producer_stops_taking_input_at_batch_max_waiting_outputs() {
    let (pool, input, output, h) = pooled_producer(2, Duration::from_secs(5));
    post_texts(&pool, &input, 10);
    h.start().unwrap();
    let stuck = || (input.len(), output.stats().pending, output.stats().waiting);
    assert!(wait_until(|| stuck() == (6, 1, 3)), "{:?}", stuck());
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(stuck(), (6, 1, 3), "the gate holds");
    let mut got = Vec::new();
    while got.len() < 10 {
        match output.fetch(Duration::from_secs(5)) {
            FetchResult::Msg(p) => got.push(pool.resolve(p).unwrap().body),
            other => panic!("after {} messages: {other:?}", got.len()),
        }
    }
    let want: Vec<Vec<u8>> = (0..10).map(|i| format!("m{i}p").into_bytes()).collect();
    assert_eq!(got, want);
    assert_eq!(output.stats().dropped_total(), 0);
    h.end();
}

/// Figure 6-9 on the pool: a gated producer whose consumer never takes
/// drops the outputs that waited out `T` when its next input wakes it,
/// and goes on consuming, as a blocked poster would.
#[test]
fn gated_producer_drops_expired_outputs_and_moves_on() {
    let (pool, input, output, h) = pooled_producer(2, Duration::from_millis(100));
    post_texts(&pool, &input, 10);
    h.start().unwrap();
    let state = || {
        let s = output.stats();
        (input.len(), s.waiting, s.dropped_full)
    };
    assert!(wait_until(|| state() == (6, 3, 0)), "{:?}", state());
    std::thread::sleep(Duration::from_millis(150));
    post_texts(&pool, &input, 1);
    // The wake's step charges the three expired entries and takes the
    // next batch, whose two outputs wait again.
    assert!(wait_until(|| state() == (5, 2, 3)), "{:?}", state());
    h.end();
}

/// A pooled producer ended while most of its outputs wait, inside their
/// Figure 6-9 deadline, in a full channel's lane: the teardown leaves
/// them to the channel, so every message it emitted is later delivered
/// or charged to exactly one drop reason, and the message pool's
/// resident count returns to 0.
#[test]
fn ending_a_pooled_producer_loses_none_of_its_waiting_outputs() {
    const N: u64 = 6;
    let (pool, input, output, h) = pooled_producer(16, Duration::from_secs(5));
    h.start().unwrap();
    post_texts(&pool, &input, N);
    // One message fills the channel; the rest wait in its lane.
    assert!(
        wait_until(|| output.stats().waiting == N - 1),
        "{:?}",
        output.stats()
    );
    h.end();
    h.detach_all().unwrap();
    let mut delivered = 0;
    while let FetchResult::Msg(p) = output.try_fetch() {
        pool.discard(p);
        delivered += 1;
    }
    output.detach_sink().unwrap();
    let s = output.stats();
    assert_eq!(h.stats().emitted, N);
    assert_eq!(
        delivered + s.dropped_total(),
        N,
        "{delivered} delivered, {s:?}"
    );
    assert_eq!((s.pending, s.waiting), (0, 0));
    assert_eq!(pool.stats().resident, 0);
}
