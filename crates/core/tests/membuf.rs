//! Memory-plane lifecycle tests: slab churn through a deployed stream's
//! wire path, size-class promotion across the whole class ladder, and the
//! leak check — after many sessions drain, every checked-out slab is back
//! (outstanding zero, checkout/return conservation, population at its
//! steady-state baseline).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mobigate_core::stream::{BatchConfig, RunningStream, StreamDeps};
use mobigate_core::{
    BufferPool, CoreError, Emitter, MessagePool, PayloadMode, RouteOpts, StreamletCtx,
    StreamletDirectory, StreamletLogic, StreamletPool, WorkerPool,
};
use mobigate_mcl::compile::compile;
use mobigate_mime::{MimeMessage, SessionId};
use std::sync::Arc;
use std::time::Duration;

/// Forwards every message unchanged — the pooled ingress body flows
/// through untouched, so its slab stays checked out until delivery.
struct Forward;
impl StreamletLogic for Forward {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        ctx.emit("po", msg);
        Ok(())
    }
}

const CHAIN: &str = r#"
    streamlet fwd {
        port { in pi : text/plain; out po : text/plain; }
        attribute { type = STATELESS; library = "mb/fwd"; }
    }
    main stream app {
        streamlet s1 = new-streamlet (fwd);
        streamlet s2 = new-streamlet (fwd);
        connect (s1.po, s2.pi);
    }
"#;

fn deps(pool: Arc<BufferPool>) -> StreamDeps {
    let directory = Arc::new(StreamletDirectory::new());
    directory.register("mb/fwd", "", || Box::new(Forward));
    StreamDeps {
        msg_pool: Arc::new(MessagePool::new()),
        directory,
        streamlet_pool: Arc::new(StreamletPool::new(16)),
        mode: PayloadMode::Reference,
        route_opts: RouteOpts::default(),
        executor: WorkerPool::new(2),
        supervisor: None,
        batching: BatchConfig { batch_max: 16 },
        fusion: false,
        telemetry: None,
        overload: Default::default(),
        admission: None,
        buf_pool: Some(pool),
    }
}

fn deploy(deps: &StreamDeps, session: &str) -> Arc<RunningStream> {
    let program = compile(CHAIN).unwrap();
    RunningStream::deploy(
        program.main().unwrap(),
        &program.streamlet_defs,
        deps.clone(),
        SessionId::new(session),
    )
    .unwrap()
}

/// One wire message with a pool-class body (1 KiB: past the inline
/// threshold, inside the 1K size class).
fn wire_msg(tag: usize) -> Vec<u8> {
    let mut m = MimeMessage::text("");
    m.set_body(vec![(tag % 251) as u8; 1024]);
    m.to_wire().to_vec()
}

/// Pumps `n` wire messages through `stream` one at a time — each
/// delivery is drained (into a reused scratch buffer) before the next
/// post, so a message's slab is back in the pool before the following
/// checkout and steady-state recycling is deterministic.
fn pump(stream: &RunningStream, n: usize, scratch: &mut Vec<u8>) {
    for i in 0..n {
        stream.post_wire(&wire_msg(i)).unwrap();
        scratch.clear();
        assert!(
            stream.take_output_wire_into(Duration::from_secs(5), scratch),
            "delivery timed out"
        );
        // The delivered wire form carries the stamped Content-Session
        // header on top of what was posted; the body is untouched.
        let body = &scratch[scratch.len() - 1024..];
        assert!(body.iter().all(|&b| b == (i % 251) as u8));
    }
}

/// Steady-state churn: after a warmup round every ingress checkout is
/// served from a recycled slab — misses stop growing while hits keep
/// climbing.
#[test]
fn wire_churn_recycles_slabs() {
    let pool = BufferPool::new(8);
    let deps = deps(pool.clone());
    let stream = deploy(&deps, "churn");
    let mut scratch = Vec::new();

    pump(&stream, 32, &mut scratch);
    let warm = pool.stats();
    assert!(warm.hits > 0, "warmup must already recycle: {warm:?}");

    pump(&stream, 256, &mut scratch);
    let s = pool.stats();
    assert_eq!(
        s.misses, warm.misses,
        "steady state allocates no new slabs: {s:?}"
    );
    assert!(s.hits >= warm.hits + 256, "all checkouts were hits: {s:?}");
    stream.shutdown();
    deps.executor.shutdown();
    assert_eq!(pool.stats().outstanding, 0);
}

/// A slab promoted by growth serves every class it climbs through: grown
/// returns are classified by the capacity they come back with, so one
/// 256-byte checkout that grew to 1 MiB re-enters at the top class.
#[test]
fn grown_slabs_promote_through_the_class_ladder() {
    let pool = BufferPool::new(8);
    for (i, &class) in mobigate_core::membuf::SIZE_CLASSES
        .iter()
        .enumerate()
        .skip(1)
    {
        let mut b = pool.checkout(64);
        b.extend_from_slice(&vec![0u8; class]);
        drop(b.freeze());
        // The promoted slab serves the class it grew into, not the class
        // it left from.
        let before = pool.stats().hits;
        let promoted = pool.checkout(class);
        assert_eq!(
            pool.stats().hits,
            before + 1,
            "class {i} ({class}B) not served by the promoted slab"
        );
        drop(promoted);
    }
}

/// The leak check: many sessions share one pool, each deploys, pumps the
/// wire path, drains, and shuts down. Afterwards nothing is outstanding,
/// every checkout is matched by a return, and the retained population
/// sits at its post-warmup baseline (bounded by the class cap).
#[test]
fn sessions_drain_back_to_baseline() {
    let pool = BufferPool::new(2);
    let deps = deps(pool.clone());
    let mut scratch = Vec::new();

    let run_session = |i: usize, scratch: &mut Vec<u8>| {
        let stream = deploy(&deps, &format!("s{i}"));
        pump(&stream, 40, scratch);
        stream.shutdown();
    };

    run_session(0, &mut scratch);
    let baseline = pool.stats().population;
    for i in 1..64 {
        run_session(i, &mut scratch);
    }
    deps.executor.shutdown();

    let s = pool.stats();
    assert_eq!(s.outstanding, 0, "leaked slabs: {s:?}");
    assert_eq!(
        s.hits + s.misses,
        s.recycled + s.discarded,
        "every checkout must be returned: {s:?}"
    );
    assert!(
        s.population <= baseline.max(2),
        "population {} grew past the post-warmup baseline {}",
        s.population,
        baseline
    );
}
