//! Cross-executor equivalence and fairness tests:
//!
//! * a property test feeding one random message sequence through a
//!   three-stage tagging chain and requiring each output to be its
//!   input's expected tagged body, in order, under *each* executor back
//!   end (thread-per-streamlet, worker pool);
//! * a worker-pool starvation test: one hot session flooding a deep
//!   chain must not stall cold sessions sharing the same (small) worker
//!   set — the cooperative pump budget plus the FIFO run queue keeps
//!   them live.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mobigate_core::stream::{BatchConfig, RunningStream, StreamDeps};
use mobigate_core::{
    default_executor, CoreError, Emitter, Executor, MessagePool, PayloadMode, RouteOpts,
    StreamletCtx, StreamletDirectory, StreamletLogic, StreamletPool, WorkerPool,
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
