//! Chain fusion / fission integration tests:
//!
//! * a fused deployment collapses a maximal fusable run into one execution
//!   unit while producing byte-identical output to the discrete topology;
//! * a property test feeding the same random message sequence through a
//!   fused and an unfused deployment of the same MCL script and requiring
//!   observational equivalence (same bodies, same order);
//! * fission under load — a reconfiguration addressed at fused members
//!   splits the unit mid-burst with zero message loss;
//! * member-granular quarantine — a poisoned member inside a fused unit is
//!   quarantined *alone*; surviving contiguous segments re-fuse;
//! * sink tails — a chain ending in the `communicator` sink fuses into one
//!   unit, delivers the same frames in the same order as the discrete
//!   chain, charges transport errors to the sink member, and fissions and
//!   quarantines around the sink like around any other member.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mobigate_core::stream::{RunningStream, StreamDeps};
use mobigate_core::{
    default_executor, CoreError, Emitter, Executor, LifecycleState, MessagePool, MobiGate,
    PayloadMode, RouteOpts, ServerConfig, StreamletCtx, StreamletDirectory, StreamletHandle,
    StreamletLogic, StreamletPool, Telemetry, WorkerPool,
};
use mobigate_mcl::compile::compile;
use mobigate_mime::{MimeMessage, SessionId};
use mobigate_streamlets::comm::{CollectorTransport, Communicator, FailingTransport, Transport};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Appends a marker character to text bodies and opts into fusion.
struct FTag(char);
impl StreamletLogic for FTag {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        let mut s = String::from_utf8_lossy(&msg.body).into_owned();
        s.push(self.0);
        let mut out = msg.clone();
        out.set_body(s.into_bytes());
        ctx.emit("po", out);
        Ok(())
    }
    fn fusable(&self) -> bool {
        true
    }
}

/// Fusable, but panics on any body starting with `boom`.
struct Boom;
impl StreamletLogic for Boom {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        if msg.body.starts_with(b"boom") {
            panic!("boom poison");
        }
        let mut s = String::from_utf8_lossy(&msg.body).into_owned();
        s.push('b');
        let mut out = msg.clone();
        out.set_body(s.into_bytes());
        ctx.emit("po", out);
        Ok(())
    }
    fn fusable(&self) -> bool {
        true
    }
}

fn deps_on(fusion: bool, executor: Arc<dyn Executor>) -> StreamDeps {
    let directory = Arc::new(StreamletDirectory::new());
    directory.register("fuse/tag_a", "", || Box::new(FTag('a')));
    directory.register("fuse/tag_b", "", || Box::new(FTag('b')));
    directory.register("fuse/tag_c", "", || Box::new(FTag('c')));
    StreamDeps {
        msg_pool: Arc::new(MessagePool::new()),
        directory,
        streamlet_pool: Arc::new(StreamletPool::new(16)),
        mode: PayloadMode::Reference,
        route_opts: RouteOpts::default(),
        executor,
        supervisor: None,
        batching: Default::default(),
        fusion,
        telemetry: None,
        overload: Default::default(),
        admission: None,
        buf_pool: None,
    }
}

/// The three tag definitions every chain here is built from.
const TAG_DEFS: &str = r#"
    streamlet ftag_a {
        port { in pi : text/plain; out po : text/plain; }
        attribute { type = STATELESS; library = "fuse/tag_a"; }
    }
    streamlet ftag_b {
        port { in pi : text/plain; out po : text/plain; }
        attribute { type = STATELESS; library = "fuse/tag_b"; }
    }
    streamlet ftag_c {
        port { in pi : text/plain; out po : text/plain; }
        attribute { type = STATELESS; library = "fuse/tag_c"; }
    }
    streamlet communicator {
        port { in pi : */*; }
        attribute { type = STATELESS; library = "builtin/communicator"; }
    }
"#;

/// Three fusable streamlets in a chain, no `when` rules: the whole run is
/// eligible, so a fused deployment collapses f1→f2→f3 into one unit. With
/// `sink` the chain ends in the `communicator` sink `out`, and the unit
/// becomes f1..out.
fn chain_script(sink: bool) -> String {
    let tail = if sink {
        "streamlet out = new-streamlet (communicator);\n connect (f3.po, out.pi);"
    } else {
        ""
    };
    format!(
        "{TAG_DEFS}
        main stream app {{
            streamlet f1 = new-streamlet (ftag_a);
            streamlet f2 = new-streamlet (ftag_b);
            streamlet f3 = new-streamlet (ftag_c);
            connect (f1.po, f2.pi);
            connect (f2.po, f3.pi);
            {tail}
        }}"
    )
}

fn deploy_script(script: &str, d: StreamDeps, session: &str) -> Arc<RunningStream> {
    let program = compile(script).unwrap();
    RunningStream::deploy(
        program.main().unwrap(),
        &program.streamlet_defs,
        d,
        SessionId::new(session),
    )
    .unwrap()
}

fn deploy_chain(fusion: bool) -> (Arc<RunningStream>, StreamDeps) {
    deploy_chain_on(fusion, default_executor())
}

fn deploy_chain_on(fusion: bool, executor: Arc<dyn Executor>) -> (Arc<RunningStream>, StreamDeps) {
    let d = deps_on(fusion, executor);
    let session = if fusion { "fused" } else { "unfused" };
    (deploy_script(&chain_script(false), d.clone(), session), d)
}

/// The chain ending in a `communicator` that sends over `transport`. The
/// session is the same either way, so fused and unfused frames compare
/// byte for byte.
fn deploy_sink_chain_on(
    fusion: bool,
    executor: Arc<dyn Executor>,
    transport: Arc<dyn Transport>,
) -> Arc<RunningStream> {
    let d = deps_on(fusion, executor);
    Communicator::register(&d.directory, transport);
    deploy_script(&chain_script(true), d, "app")
}

/// Bodies of the frames a collector has received, in arrival order.
fn collected(collector: &CollectorTransport) -> Vec<String> {
    collector
        .messages()
        .iter()
        .map(|m| String::from_utf8_lossy(&m.body).into_owned())
        .collect()
}

/// Polls `done` until it holds or 10 s pass; returns its last value.
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

fn roundtrip(stream: &RunningStream, text: &str) -> String {
    stream.post_input(MimeMessage::text(text)).unwrap();
    let out = stream.take_output(Duration::from_secs(5)).expect("output");
    String::from_utf8_lossy(&out.body).into_owned()
}

#[test]
fn fused_deploy_collapses_chain_and_processes() {
    let (stream, _) = deploy_chain(true);
    assert_eq!(
        stream.instance_names(),
        vec!["fused:f1..f3".to_string()],
        "the whole run collapses into one execution unit"
    );
    assert_eq!(roundtrip(&stream, "x"), "xabc");
    let stats = stream.stats();
    assert_eq!(stats.injected, 1);
    assert_eq!(stats.delivered, 1);
    stream.shutdown();
}

#[test]
fn unfused_control_keeps_discrete_instances() {
    let (stream, _) = deploy_chain(false);
    assert_eq!(stream.instance_names(), vec!["f1", "f2", "f3"]);
    assert_eq!(roundtrip(&stream, "x"), "xabc");
    stream.shutdown();
}

#[test]
fn fused_members_return_to_pool_on_shutdown() {
    let (stream, d) = deploy_chain(true);
    assert_eq!(roundtrip(&stream, "x"), "xabc");
    stream.shutdown();
    // The FusedLogic wrapper is stateful and never pooled, but each member
    // logic is an ordinary pooling-eligible object.
    for key in ["fuse/tag_a", "fuse/tag_b", "fuse/tag_c"] {
        assert_eq!(d.streamlet_pool.idle_count(key), 1, "{key}");
    }
}

#[test]
fn insert_addressed_at_members_triggers_fission() {
    let (stream, _) = deploy_chain(true);
    assert_eq!(roundtrip(&stream, "x"), "xabc");
    // `mid` splices between f1 and f2 — both currently run fused, so the
    // pre-pass must split the unit back into discrete instances first.
    stream
        .insert_streamlet(("f1", "po"), ("f2", "pi"), "mid", "ftag_c")
        .unwrap();
    let names = stream.instance_names();
    for want in ["f1", "f2", "f3", "mid"] {
        assert!(
            names.contains(&want.to_string()),
            "{want} missing: {names:?}"
        );
    }
    assert!(
        !names.iter().any(|n| n.starts_with("fused:")),
        "fission must fully re-materialize the run: {names:?}"
    );
    assert_eq!(roundtrip(&stream, "y"), "yacbc");
    stream.shutdown();
}

#[test]
fn fission_under_load_loses_nothing() {
    let (stream, _) = deploy_chain(true);
    let n = 200;
    let stream2 = stream.clone();
    let producer = std::thread::spawn(move || {
        for i in 0..n {
            stream2
                .post_input(MimeMessage::text(format!("m{i}")))
                .unwrap();
            if i == n / 2 {
                stream2
                    .insert_streamlet(("f1", "po"), ("f2", "pi"), "mid", "ftag_c")
                    .unwrap();
            }
        }
    });
    let mut got = 0;
    while got < n {
        match stream.take_output(Duration::from_secs(5)) {
            Some(_) => got += 1,
            None => break,
        }
    }
    producer.join().unwrap();
    assert_eq!(got, n, "all {n} messages must survive the fission");
    assert!(stream.instance_names().contains(&"mid".to_string()));
    stream.shutdown();
}

/// Under the worker pool a full downstream queue parks a fused unit's
/// outputs. Fission waits for them on the unit's notifier: once the
/// consumer drains the egress, every parked output arrives.
#[test]
fn fission_parked_outputs_arrive_once_downstream_drains() {
    let (stream, _) = deploy_chain_on(true, WorkerPool::new(2));
    let unit = stream.instance("fused:f1..f3").unwrap();
    let (_, egress) = unit.bound_outputs().remove(0);
    // 64 KiB bodies: ~127 fill the 8 MiB egress and the unit parks the
    // rest, fewer than a batch, so it takes every message off the
    // ingress and none flows through the channels fission creates.
    let body = "x".repeat(64 << 10);
    let n = 137;
    for _ in 0..n {
        stream.post_input(MimeMessage::text(body.clone())).unwrap();
    }
    assert!(
        wait_until(|| unit.pending_outputs() > 0 && unit.pending_outputs() + egress.len() == n),
        "outputs park behind the full egress"
    );
    let consumer = {
        let stream = stream.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            (0..n)
                .take_while(|_| stream.take_output(Duration::from_secs(5)).is_some())
                .count()
        })
    };
    stream
        .insert_streamlet(("f1", "po"), ("f2", "pi"), "mid", "ftag_c")
        .unwrap();
    assert_eq!(consumer.join().unwrap(), n, "every parked output arrives");
    assert_eq!(unit.pending_outputs(), 0);
    assert_eq!(egress.stats().dropped_total(), 0);
    stream.shutdown();
}

/// Blocks in `process` until the gate opens.
struct Stall(Arc<std::sync::Mutex<()>>);
impl StreamletLogic for Stall {
    fn process(&mut self, _msg: MimeMessage, _ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        drop(self.0.lock());
        Ok(())
    }
}

/// A fused unit whose outputs are parked behind a 1 KB channel that its
/// consumer never drains: fission charges them `expired` at their Figure
/// 6-9 deadline (`T` = 50 ms) and returns then, not at its 500 ms bound.
#[test]
fn fission_parked_outputs_expire_after_t_when_downstream_never_drains() {
    let gate = Arc::new(std::sync::Mutex::new(()));
    let d = deps_on(true, WorkerPool::new(3));
    let g = gate.clone();
    d.directory
        .register("fuse/stall", "", move || Box::new(Stall(g.clone())));
    let stream = deploy_script(
        &format!(
            "{TAG_DEFS}
            streamlet stall {{
                port {{ in pi : text/plain; }}
                attribute {{ type = STATELESS; library = \"fuse/stall\"; }}
            }}
            channel smallbuf {{
                port {{ in ci : text/plain; out co : text/plain; }}
                attribute {{ type = ASYNC; category = BK; buffer = 1; }}
            }}
            main stream app {{
                streamlet f1 = new-streamlet (ftag_a);
                streamlet f2 = new-streamlet (ftag_b);
                streamlet f3 = new-streamlet (ftag_c);
                streamlet s = new-streamlet (stall);
                channel small = new-channel (smallbuf);
                connect (f1.po, f2.pi);
                connect (f2.po, f3.pi);
                connect (f3.po, s.pi, small);
            }}"
        ),
        d,
        "stalled",
    );
    let unit = stream.instance("fused:f1..f3").unwrap();
    let (_, small) = unit.bound_outputs().remove(0);
    // Declared after the stream, so a failed assertion opens the gate
    // before the stream's teardown waits on `s`.
    let closed = gate.lock().unwrap();
    for _ in 0..20 {
        stream
            .post_input(MimeMessage::text("y".repeat(600)))
            .unwrap();
    }
    assert!(
        wait_until(|| unit.pending_outputs() > 0),
        "outputs park behind the full channel"
    );
    let t0 = Instant::now();
    stream
        .insert_streamlet(("f1", "po"), ("f2", "pi"), "mid", "ftag_c")
        .unwrap();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(400),
        "fission returns at the parked outputs' deadline, took {took:?}"
    );
    assert_eq!(unit.pending_outputs(), 0, "none stranded with the unit");
    let s = small.stats();
    assert!(s.dropped_expired > 0, "{s:?}");
    assert_eq!(s.dropped_full, 0, "{s:?}");
    drop(closed);
    stream.shutdown();
}

/// Body size of the backlog messages below: ~127 fill the 8 MiB egress
/// and each 100 KB interior channel holds one.
const BACKLOG_BODY: usize = 64 << 10;

/// The three-tag chain with `f3b` declared for a `replace` of `f3`.
fn replaceable_chain_script() -> String {
    format!(
        "{TAG_DEFS}
        main stream app {{
            streamlet f1 = new-streamlet (ftag_a);
            streamlet f2 = new-streamlet (ftag_b);
            streamlet f3 = new-streamlet (ftag_c);
            connect (f1.po, f2.pi);
            connect (f2.po, f3.pi);
            when (LOW_BANDWIDTH) {{
                streamlet f3b = new-streamlet (ftag_c);
                replace (f3, f3b);
            }}
        }}"
    )
}

/// Messages charged to a drop reason so far: the channels' drop counters
/// (through telemetry, which also covers channels a reconfiguration has
/// since removed) plus the live instances' unrouted emissions.
fn charged(stream: &RunningStream, telemetry: &Telemetry) -> u64 {
    let unrouted: u64 = stream
        .instance_names()
        .iter()
        .filter_map(|name| stream.instance(name))
        .map(|h| h.stats().dropped_unrouted)
        .sum();
    telemetry.registry().totals().dropped_total() + unrouted
}

/// Posts `n` 64 KiB messages into `stream`, waits until `stuck` holds,
/// and runs `rewire` while a consumer that starts 30 ms later drains the
/// egress. Returns (delivered, charged) once they add up to `n` or 10 s
/// pass.
fn rewire_under_backlog(
    stream: &Arc<RunningStream>,
    telemetry: &Arc<Telemetry>,
    n: u64,
    stuck: impl FnMut() -> bool,
    rewire: impl FnOnce(),
) -> (u64, u64) {
    let body = "x".repeat(BACKLOG_BODY);
    for _ in 0..n {
        stream.post_input(MimeMessage::text(body.clone())).unwrap();
    }
    assert!(
        wait_until(stuck),
        "the backlog reaches the rewired instance"
    );
    let consumer = {
        let (stream, telemetry) = (stream.clone(), telemetry.clone());
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut delivered = 0;
            loop {
                if stream.take_output(Duration::from_millis(50)).is_some() {
                    delivered += 1;
                    continue;
                }
                // Only when the egress runs dry: `charged` takes the
                // stream lock, which the rewiring holds.
                let charged = charged(&stream, &telemetry);
                if delivered + charged >= n || Instant::now() >= deadline {
                    return (delivered, charged);
                }
            }
        })
    };
    rewire();
    consumer.join().unwrap()
}

/// Both executors, the worker pool flagged: only its instances park
/// outputs.
fn both_executors() -> [(bool, Arc<dyn Executor>); 2] {
    [(false, default_executor()), (true, WorkerPool::new(2))]
}

/// The rewired instance `h` is backed up: its outputs are parked (worker
/// pool), or its output queue is full (a dedicated thread blocks in the
/// post instead).
fn backed_up(h: &StreamletHandle, pool: bool) -> bool {
    let (_, out) = h.bound_outputs().remove(0);
    if pool {
        h.pending_outputs() > 0
    } else {
        !out.has_space(BACKLOG_BODY)
    }
}

fn deploy_traced(script: &str, fusion: bool, executor: Arc<dyn Executor>) -> Deployed {
    let telemetry = Telemetry::new();
    let mut d = deps_on(fusion, executor);
    d.telemetry = Some(telemetry.clone());
    (deploy_script(script, d, "rewired"), telemetry)
}

type Deployed = (Arc<RunningStream>, Arc<Telemetry>);

/// An insert pauses the upstream instance A and moves its output from
/// channel m to the new channel n. Outputs A had parked for m must reach
/// m first: once A no longer listens for space on m, nothing retries
/// them. Fused, A is `f1` as re-materialized by the fission the insert
/// triggers in mid-backlog. Discrete, A has taken the whole backlog off
/// the ingress and parked its tail, so no later input steps it either.
#[test]
fn insert_flushes_the_paused_upstreams_parked_outputs() {
    for fusion in [true, false] {
        for (pool, executor) in both_executors() {
            let (stream, telemetry) = deploy_traced(&chain_script(false), fusion, executor);
            let (a, n) = match fusion {
                true => (stream.instance("fused:f1..f3").unwrap(), 160),
                // ~127 in the egress, 16 parked by f3 and by f2, one in
                // each interior channel: f1 parks the rest.
                false => (stream.instance("f1").unwrap(), 170),
            };
            let (delivered, charged) = rewire_under_backlog(
                &stream,
                &telemetry,
                n,
                || backed_up(&a, pool) && (fusion || !pool || a.inputs_empty()),
                || {
                    stream
                        .insert_streamlet(("f1", "po"), ("f2", "pi"), "mid", "ftag_c")
                        .unwrap();
                },
            );
            assert_eq!(
                delivered + charged,
                n,
                "fusion {fusion}, pool {pool}: {delivered} delivered"
            );
            stream.shutdown();
        }
    }
}

/// A replace moves the old instance's bindings to the new one and ends
/// the old one. Outputs it had parked must be pushed downstream before
/// the end discards its overflow buffer.
#[test]
fn replace_flushes_the_old_handles_parked_outputs() {
    use mobigate_mcl::config::ReconfigAction;
    for (pool, executor) in both_executors() {
        let (stream, telemetry) = deploy_traced(&replaceable_chain_script(), false, executor);
        let f3 = stream.instance("f3").unwrap();
        let n = 160;
        let (delivered, charged) = rewire_under_backlog(
            &stream,
            &telemetry,
            n,
            || backed_up(&f3, pool),
            || {
                let stats = stream.reconfigure(&[ReconfigAction::Replace {
                    old: "f3".into(),
                    new: "f3b".into(),
                }]);
                assert_eq!(stats.errors, 0);
            },
        );
        assert_eq!(delivered + charged, n, "pool {pool}: {delivered} delivered");
        assert_eq!(f3.pending_outputs(), 0, "none stranded with the old handle");
        stream.shutdown();
    }
}

/// Figure 6-8's third condition: a streamlet is removed only once its
/// outputs have left it. Under the worker pool they may sit parked after
/// its inputs drained; removal waits for them instead of ending the
/// instance, which would discard them uncharged.
#[test]
fn remove_waits_for_the_removed_handles_parked_outputs() {
    for (pool, executor) in both_executors() {
        let (stream, telemetry) = deploy_traced(&chain_script(false), false, executor);
        let [f1, f2, f3] = ["f1", "f2", "f3"].map(|name| stream.instance(name).unwrap());
        // ~127 in the egress, 16 parked by f3, one in f2's output
        // channel: f2 takes the rest off its input and parks its tail.
        let n = 155;
        let settled = || {
            let idle = |h: &StreamletHandle| h.inputs_empty() && h.pending_outputs() == 0;
            backed_up(&f3, false) && (!pool || (idle(&f1) && f2.inputs_empty()))
        };
        let (delivered, charged) = rewire_under_backlog(
            &stream,
            &telemetry,
            n,
            || settled() && backed_up(&f2, pool),
            || {
                stream
                    .remove_streamlet("f2", Duration::from_secs(5))
                    .unwrap()
            },
        );
        assert_eq!(
            delivered + charged,
            n,
            "pool {pool}: {delivered} delivered, f2 {:?}",
            f2.stats()
        );
        assert_eq!(
            f2.pending_outputs(),
            0,
            "none stranded with the removed handle"
        );
        stream.shutdown();
    }
}

#[test]
fn member_panic_quarantines_only_that_member() {
    let mut cfg = ServerConfig {
        fusion: true,
        ..Default::default()
    };
    // No restart budget: the first fault quarantines immediately.
    cfg.supervision.policy.max_restarts = 0;
    let gate = MobiGate::with_config(
        cfg,
        Arc::new(StreamletDirectory::new()),
        Arc::new(StreamletPool::new(16)),
    );
    gate.directory()
        .register("fuse/tag_a", "", || Box::new(FTag('a')));
    gate.directory()
        .register("fuse/boom", "", || Box::new(Boom));
    gate.directory()
        .register("fuse/tag_c", "", || Box::new(FTag('c')));
    gate.directory()
        .register("fuse/tag_d", "", || Box::new(FTag('d')));
    let stream = gate
        .deploy_mcl(
            r#"
            streamlet ftag_a {
                port { in pi : text/plain; out po : text/plain; }
                attribute { type = STATELESS; library = "fuse/tag_a"; }
            }
            streamlet fboom {
                port { in pi : text/plain; out po : text/plain; }
                attribute { type = STATELESS; library = "fuse/boom"; }
            }
            streamlet ftag_c {
                port { in pi : text/plain; out po : text/plain; }
                attribute { type = STATELESS; library = "fuse/tag_c"; }
            }
            streamlet ftag_d {
                port { in pi : text/plain; out po : text/plain; }
                attribute { type = STATELESS; library = "fuse/tag_d"; }
            }
            main stream app {
                streamlet f1 = new-streamlet (ftag_a);
                streamlet f2 = new-streamlet (fboom);
                streamlet f3 = new-streamlet (ftag_c);
                streamlet f4 = new-streamlet (ftag_d);
                connect (f1.po, f2.pi);
                connect (f2.po, f3.pi);
                connect (f3.po, f4.pi);
            }
        "#,
        )
        .unwrap();
    assert_eq!(stream.instance_names(), vec!["fused:f1..f4".to_string()]);
    assert_eq!(roundtrip(&stream, "ok"), "okabcd");

    // Poison member f2. The supervisor quarantines the unit, raises
    // STREAMLET_FAULT, and fault-driven fission splits the run around the
    // poisoned member.
    stream.post_input(MimeMessage::text("boom")).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        if stream.instance_names().iter().any(|n| n == "f2") {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    let names = stream.instance_names();
    assert!(names.contains(&"f1".to_string()), "{names:?}");
    assert!(names.contains(&"f2".to_string()), "{names:?}");
    assert!(
        names.contains(&"fused:f3..f4".to_string()),
        "the surviving downstream segment must re-fuse: {names:?}"
    );
    assert!(!names.contains(&"fused:f1..f4".to_string()), "{names:?}");
    // Only the poisoned member is quarantined; its neighbours keep running.
    let state = |n: &str| stream.instance(n).unwrap().state();
    assert_eq!(state("f2"), LifecycleState::Quarantined);
    assert_eq!(state("f1"), LifecycleState::Running);
    assert_eq!(state("fused:f3..f4"), LifecycleState::Running);
    stream.shutdown();
}

#[test]
fn sink_tail_fuses_into_the_run() {
    let collector = CollectorTransport::new();
    let stream = deploy_sink_chain_on(true, default_executor(), collector.clone());
    assert_eq!(
        stream.instance_names(),
        vec!["fused:f1..out".to_string()],
        "the communicator ends the run instead of running as its own task"
    );
    stream.post_input(MimeMessage::text("x")).unwrap();
    assert!(wait_until(|| collector.len() == 1));
    assert_eq!(collected(&collector), vec!["xabc"]);
    stream.shutdown();
}

#[test]
fn transport_error_is_charged_to_the_sink_member() {
    let stream = deploy_sink_chain_on(true, default_executor(), Arc::new(FailingTransport));
    let unit = "fused:f1..out";
    let n = 5u64;
    for i in 0..n {
        stream
            .post_input(MimeMessage::text(format!("m{i}")))
            .unwrap();
    }
    let out_errors = || {
        stream
            .fused_member_errors(unit)
            .and_then(|e| e.last().map(|(_, n)| *n))
    };
    assert!(wait_until(|| out_errors() == Some(n)), "{:?}", out_errors());
    let errors = stream.fused_member_errors(unit).unwrap();
    let want: Vec<(String, u64)> = [("f1", 0), ("f2", 0), ("f3", 0), ("out", n)]
        .into_iter()
        .map(|(m, e)| (m.to_string(), e))
        .collect();
    assert_eq!(errors, want);
    let h = stream.instance(unit).unwrap();
    assert_eq!(h.state(), LifecycleState::Running);
    let stats = h.stats();
    assert_eq!(
        (stats.faults, stats.errors),
        (0, n),
        "member errors also count in the unit's stats: {stats:?}"
    );
    stream.shutdown();
}

#[test]
fn sink_unit_fission_under_load_loses_nothing() {
    let collector = CollectorTransport::new();
    let stream = deploy_sink_chain_on(true, default_executor(), collector.clone());
    assert_eq!(stream.instance_names(), vec!["fused:f1..out".to_string()]);
    let n = 200;
    let stream2 = stream.clone();
    let producer = std::thread::spawn(move || {
        for i in 0..n {
            stream2
                .post_input(MimeMessage::text(format!("m{i}")))
                .unwrap();
            if i == n / 2 {
                stream2
                    .insert_streamlet(("f3", "po"), ("out", "pi"), "mid", "ftag_c")
                    .unwrap();
            }
        }
    });
    producer.join().unwrap();
    assert!(
        wait_until(|| collector.len() == n),
        "all {n} messages must survive the fission: got {}",
        collector.len()
    );
    let names = stream.instance_names();
    for want in ["f1", "f2", "f3", "mid", "out"] {
        assert!(names.contains(&want.to_string()), "{want}: {names:?}");
    }
    stream.shutdown();
}

/// Panics on any frame whose wire form carries `boom`.
struct PanicOnBoom;
impl Transport for PanicOnBoom {
    fn send(&self, wire: &[u8]) -> Result<(), String> {
        assert!(!wire.windows(4).any(|w| w == b"boom"), "boom poison");
        Ok(())
    }
}

/// Records every frame, and panics on a frame carrying `boom` before
/// sending it.
#[derive(Default)]
struct CollectUntilBoom(parking_lot::Mutex<Vec<Vec<u8>>>);
impl Transport for CollectUntilBoom {
    fn send(&self, wire: &[u8]) -> Result<(), String> {
        assert!(!wire.windows(4).any(|w| w == b"boom"), "boom poison");
        self.0.lock().push(wire.to_vec());
        Ok(())
    }
}

/// A gateway with fusion on, the tag components registered, and a
/// supervisor allowing `max_restarts` restarts.
fn fusing_gate(max_restarts: u32) -> MobiGate {
    let mut cfg = ServerConfig {
        fusion: true,
        ..Default::default()
    };
    cfg.supervision.policy.max_restarts = max_restarts;
    let gate = MobiGate::with_config(
        cfg,
        Arc::new(StreamletDirectory::new()),
        Arc::new(StreamletPool::new(16)),
    );
    for (key, tag) in [
        ("fuse/tag_a", 'a'),
        ("fuse/tag_b", 'b'),
        ("fuse/tag_c", 'c'),
    ] {
        gate.directory()
            .register(key, "", move || Box::new(FTag(tag)));
    }
    gate
}

#[test]
fn sink_panic_mid_batch_does_not_resend_delivered_frames() {
    let gate = fusing_gate(1);
    let transport = Arc::new(CollectUntilBoom::default());
    Communicator::register(gate.directory(), transport.clone());
    let stream = gate.deploy_mcl(&chain_script(true)).unwrap();
    let unit = "fused:f1..out";
    assert_eq!(stream.instance_names(), vec![unit.to_string()]);

    // Queue all three while the unit is paused so one wake fetches them
    // as a single batch.
    let h = stream.instance(unit).unwrap();
    h.pause_and_wait(Duration::from_secs(5)).unwrap();
    for text in ["first", "second", "boom"] {
        stream.post_input(MimeMessage::text(text)).unwrap();
    }
    h.activate().unwrap();

    // `boom` faults the unit, is retried once after the restart, and then
    // quarantines the sink, which fission splits off.
    assert!(wait_until(|| stream
        .instance("out")
        .is_some_and(|o| o.state() == LifecycleState::Quarantined)));
    let count = |needle: &[u8]| {
        transport
            .0
            .lock()
            .iter()
            .filter(|w| w.windows(needle.len()).any(|x| x == needle))
            .count()
    };
    assert_eq!(count(b"firstabc"), 1, "first must be sent exactly once");
    assert_eq!(count(b"secondabc"), 1, "second must be sent exactly once");
    assert_eq!(transport.0.lock().len(), 2);
    stream.shutdown();
}

#[test]
fn quarantined_sink_leaves_the_rest_fused() {
    // No restart budget: the first fault quarantines immediately.
    let gate = fusing_gate(0);
    Communicator::register(gate.directory(), Arc::new(PanicOnBoom));
    let stream = gate.deploy_mcl(&chain_script(true)).unwrap();
    assert_eq!(stream.instance_names(), vec!["fused:f1..out".to_string()]);

    // Poison the sink. The supervisor quarantines the unit, raises
    // STREAMLET_FAULT, and fault-driven fission splits the sink off.
    stream.post_input(MimeMessage::text("boom")).unwrap();
    assert!(wait_until(|| stream
        .instance_names()
        .iter()
        .any(|n| n == "out")));
    let names = stream.instance_names();
    assert_eq!(
        names,
        vec!["fused:f1..f3".to_string(), "out".to_string()],
        "the upstream segment must re-fuse"
    );
    let state = |n: &str| stream.instance(n).unwrap().state();
    assert_eq!(state("out"), LifecycleState::Quarantined);
    assert_eq!(state("fused:f1..f3"), LifecycleState::Running);
    stream.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Fusion is a pure scheduling optimization: under a non-saturating
    /// load (no interior queue ever overflows) a fused deployment is
    /// observationally equivalent to the discrete one — identical bodies
    /// in identical order — under every executor back end.
    #[test]
    fn fused_stream_matches_unfused_stream(tags in prop::collection::vec(any::<u8>(), 1..24)) {
        let executors: [Arc<dyn Executor>; 2] = [default_executor(), WorkerPool::new(2)];
        for executor in executors {
            let (fused, _) = deploy_chain_on(true, executor.clone());
            let (unfused, _) = deploy_chain_on(false, executor.clone());
            for (i, t) in tags.iter().enumerate() {
                let text = format!("m{i}-{t}");
                fused.post_input(MimeMessage::text(text.clone())).unwrap();
                unfused.post_input(MimeMessage::text(text)).unwrap();
            }
            let drain = |s: &RunningStream| -> Vec<String> {
                (0..tags.len())
                    .map(|_| {
                        let out = s.take_output(Duration::from_secs(5)).expect("output");
                        String::from_utf8_lossy(&out.body).into_owned()
                    })
                    .collect()
            };
            let out_fused = drain(&fused);
            let out_unfused = drain(&unfused);
            prop_assert_eq!(out_fused, out_unfused, "executor {}", executor.name());
            fused.shutdown();
            unfused.shutdown();
            if executor.name() != "thread-per-streamlet" {
                executor.shutdown();
            }
        }
    }

    /// The same equivalence for chains that end in the `communicator`
    /// sink: the fused unit f1..out puts the same frames on the transport,
    /// in the same order, as the four discrete instances.
    #[test]
    fn fused_sink_chain_matches_unfused(tags in prop::collection::vec(any::<u8>(), 1..24)) {
        let executors: [Arc<dyn Executor>; 2] = [default_executor(), WorkerPool::new(2)];
        for executor in executors {
            let fused_out = CollectorTransport::new();
            let unfused_out = CollectorTransport::new();
            let fused = deploy_sink_chain_on(true, executor.clone(), fused_out.clone());
            let unfused = deploy_sink_chain_on(false, executor.clone(), unfused_out.clone());
            prop_assert_eq!(fused.instance_names(), vec!["fused:f1..out".to_string()]);
            for (i, t) in tags.iter().enumerate() {
                let text = format!("m{i}-{t}");
                fused.post_input(MimeMessage::text(text.clone())).unwrap();
                unfused.post_input(MimeMessage::text(text)).unwrap();
            }
            let n = tags.len();
            prop_assert!(wait_until(|| fused_out.len() == n && unfused_out.len() == n));
            prop_assert_eq!(fused_out.frames(), unfused_out.frames(), "executor {}", executor.name());
            fused.shutdown();
            unfused.shutdown();
            if executor.name() != "thread-per-streamlet" {
                executor.shutdown();
            }
        }
    }
}
