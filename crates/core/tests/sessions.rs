//! Session-plane integration tests:
//!
//! * concurrent session churn — spawn/teardown batches racing steady
//!   traffic on survivor sessions and reconfiguration on a neighbor
//!   session, with zero loss, correct per-session labels, and no
//!   deadlock;
//! * a property test driving a random op program (spawn / teardown /
//!   round-trip / census) through the coordination plane and checking
//!   every step against a model roster;
//! * the satellite leak assertion — `MobiGate::undeploy` returns every
//!   fused member to the §3.3.4 pool and clears the routing-table row;
//! * per-session targeted events — a `Pause` aimed at one session's
//!   `evtSource` identity stalls that session alone;
//! * the cheap session lifecycle — an idle pooled task ends inline on the
//!   calling thread, a launch with no input schedules nothing, `end`
//!   racing a burst of posts loses no message, and a dedicated-thread
//!   task still ends through its own thread;
//! * template sharing — sessions of one manager share one definitions
//!   table and one fusion plan, and deploy like a hand deploy would.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mobigate_core::{
    ContextEvent, CoreError, Emitter, EventKind, Executor, ExecutorConfig, FetchResult,
    MessagePool, MessageQueue, MobiGate, PayloadMode, PostResult, QueueConfig, RouteOpts,
    ServerConfig, SessionManager, StreamletCtx, StreamletDirectory, StreamletHandle,
    StreamletLogic, StreamletPool, ThreadPerStreamlet, WorkerPool,
};
use mobigate_mime::{MimeMessage, MimeType, SessionId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Pass-through logic; fusable so the session plane's intended mode
/// (fused chains drawn from the pool) is what gets exercised.
struct Echo;
impl StreamletLogic for Echo {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        ctx.emit("po", msg);
        Ok(())
    }
    fn fusable(&self) -> bool {
        true
    }
}

/// A k-echo chain template named `app`.
fn script(k: usize) -> String {
    let mut s = String::from(
        "streamlet echo {\n\
         port { in pi : */*; out po : */*; }\n\
         attribute { type = STATELESS; library = \"test/echo\"; }\n}\n\
         main stream app {\n",
    );
    for i in 0..k {
        let _ = writeln!(s, "streamlet e{i} = new-streamlet (echo);");
    }
    for i in 1..k {
        let _ = writeln!(s, "connect (e{}.po, e{}.pi);", i - 1, i);
    }
    s.push('}');
    s
}

fn gate(pool_cap: usize) -> MobiGate {
    let directory = Arc::new(StreamletDirectory::new());
    directory.register("test/echo", "", || Box::new(Echo));
    MobiGate::with_config(
        ServerConfig {
            executor: ExecutorConfig::WorkerPool { workers: 2 },
            fusion: true,
            ..Default::default()
        },
        directory,
        Arc::new(StreamletPool::new(pool_cap)),
    )
}

fn msg(tag: &str) -> MimeMessage {
    MimeMessage::new(&MimeType::new("text", "plain"), tag.as_bytes().to_vec())
}

/// Posts one message through `stream` and asserts it comes back carrying
/// that session's own `Content-Session`.
fn round_trip(stream: &mobigate_core::RunningStream, tag: &str) {
    stream.post_input(msg(tag)).expect("post");
    let out = stream
        .take_output(Duration::from_secs(20))
        .expect("round trip output");
    assert_eq!(out.body.as_ref(), tag.as_bytes());
    assert_eq!(
        out.session().as_ref(),
        Some(stream.session()),
        "output must carry its own session's label"
    );
}

#[test]
fn session_churn_races_traffic_and_reconfiguration_without_loss() {
    let server = gate(256);
    let manager = Arc::new(server.session_manager(&script(3)).expect("template"));
    let survivors = manager.spawn_many(8).expect("survivors");
    // A dedicated neighbor session that only gets reconfigured, living in
    // the same routing table the churn and traffic hit.
    let neighbor = manager.spawn().expect("neighbor");
    let stop = Arc::new(AtomicBool::new(false));

    // Churn: spawn a batch, run one verified message through each new
    // session, tear the batch down again — repeatedly.
    let churn = {
        let m = manager.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            let mut cycles = 0u32;
            while !stop.load(Ordering::Acquire) {
                let batch = m.spawn_many(4).expect("churn spawn");
                for s in &batch {
                    round_trip(s, "churn");
                }
                for s in &batch {
                    assert!(m.teardown(s.session()), "churn teardown");
                }
                cycles += 1;
            }
            cycles
        })
    };

    // Reconfiguration on the neighbor: splice an extra echo into the live
    // chain, safely remove it, and re-link the seam (removal detaches the
    // neighbor connections; Fig 6-8 does not heal them), while churn and
    // traffic race in the same plane. Fusion makes this fission + insert
    // every time.
    let reconfig = {
        let stop = stop.clone();
        let neighbor = neighbor.clone();
        thread::spawn(move || {
            use mobigate_mcl::config::{ChannelSpec, ReconfigAction};
            let mut cycles = 0u32;
            while !stop.load(Ordering::Acquire) {
                neighbor
                    .insert_streamlet(("e0", "po"), ("e1", "pi"), "extra", "echo")
                    .expect("insert on idle neighbor");
                neighbor
                    .remove_streamlet("extra", Duration::from_secs(5))
                    .expect("safe removal on idle neighbor");
                let heal = neighbor.reconfigure(&[
                    ReconfigAction::NewChannel {
                        name: "heal".into(),
                        spec: ChannelSpec::default_for(MimeType::new("*", "*")),
                    },
                    ReconfigAction::Connect {
                        from: ("e0".into(), "po".into()),
                        to: ("e1".into(), "pi".into()),
                        channel: "heal".into(),
                    },
                ]);
                assert_eq!(heal.errors, 0, "re-linking the seam failed");
                cycles += 1;
            }
            cycles
        })
    };

    // Steady traffic on the survivors, every message verified.
    for round in 0..150 {
        for s in &survivors {
            s.post_input(msg(&format!("r{round}"))).expect("post");
        }
        for s in &survivors {
            let out = s
                .take_output(Duration::from_secs(20))
                .expect("survivor output (no deadlock under churn)");
            assert_eq!(out.session().as_ref(), Some(s.session()));
        }
    }

    stop.store(true, Ordering::Release);
    assert!(churn.join().expect("churn thread") > 0);
    assert!(reconfig.join().expect("reconfig thread") > 0);

    // The neighbor still works after all that reconfiguration.
    round_trip(&neighbor, "after");
    drop(neighbor);

    assert_eq!(manager.teardown_all(), 9);
    assert_eq!(server.coordination().stream_count(), 0);
}

/// One decoded step of the random session op program.
#[derive(Debug, Clone, Copy)]
enum Op {
    Spawn,
    Teardown { idx: usize },
    RoundTrip { idx: usize },
    Census,
}

fn decode(raw: u32) -> Op {
    let idx = (raw >> 4) as usize;
    match raw % 4 {
        0 => Op::Spawn,
        1 => Op::Teardown { idx },
        2 => Op::RoundTrip { idx },
        _ => Op::Census,
    }
}

/// Applies one op to the gate and to `live`, the model roster of
/// sessions spawned and not torn down, asserting that the plane's
/// observation agrees with the model.
fn step(server: &MobiGate, manager: &SessionManager, live: &mut Vec<SessionId>, op: Op) {
    match op {
        Op::Spawn => {
            let session = manager.spawn().expect("spawn").session().clone();
            assert!(!live.contains(&session), "session id {session:?} reused");
            live.push(session);
        }
        Op::Teardown { idx } => {
            if !live.is_empty() {
                let session = live.remove(idx % live.len());
                assert!(manager.teardown(&session), "live session {session:?}");
                assert!(manager.get(&session).is_none());
                assert!(!manager.teardown(&session), "torn down twice");
            }
        }
        Op::RoundTrip { idx } => {
            if !live.is_empty() {
                let session = &live[idx % live.len()];
                let stream = manager.get(session).expect("live session");
                assert_eq!(stream.session(), session);
                round_trip(&stream, "prop");
            }
        }
        Op::Census => {
            assert_eq!(manager.session_count(), live.len());
            assert_eq!(server.coordination().stream_count(), live.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// The coordination plane agrees with a model roster under any
    /// spawn/teardown/traffic program: every live session is routable and
    /// answers with its own label, every torn-down one is gone, and the
    /// census counts exactly the roster.
    #[test]
    fn coordination_matches_model_roster(raw_ops in prop::collection::vec(any::<u32>(), 0..30)) {
        let server = gate(128);
        let manager = server.session_manager(&script(2)).expect("template");
        let mut live = Vec::new();
        for &raw in &raw_ops {
            step(&server, &manager, &mut live, decode(raw));
        }
        step(&server, &manager, &mut live, Op::Census);
        prop_assert_eq!(manager.teardown_all(), live.len());
        prop_assert_eq!(server.coordination().stream_count(), 0);
    }
}

#[test]
fn undeploy_returns_every_instance_to_the_pool() {
    let server = gate(64);
    let manager = server.session_manager(&script(3)).expect("template");
    let streams = manager.spawn_many(5).expect("spawn");
    for s in &streams {
        round_trip(s, "traffic");
    }

    let before = server.streamlet_pool().stats();
    for s in &streams {
        assert!(server.undeploy(s.session()), "undeploy live session");
    }
    let after = server.streamlet_pool().stats();

    // Every fused member of every chain checked back in, none discarded:
    // the sessions cost the pool nothing.
    assert_eq!(after.returned - before.returned, (5 * 3) as u64);
    assert_eq!(after.discarded, before.discarded);
    assert_eq!(server.coordination().stream_count(), 0);

    // Idempotent: the rows are gone.
    assert!(!server.undeploy(streams[0].session()));
    assert!(!server.undeploy(&SessionId::new("app#999")));
}

#[test]
fn targeted_pause_stalls_only_the_named_session() {
    let server = gate(64);
    let manager = server.session_manager(&script(2)).expect("template");
    let streams = manager.spawn_many(6).expect("spawn");
    let (target, bystander) = (&streams[3], &streams[0]);

    // The Pause is addressed by evtSource == the session ID; exactly one
    // subscriber may act on it.
    let delivered = server.raise_event(&ContextEvent::targeted(
        EventKind::Pause,
        target.session().as_str(),
    ));
    assert_eq!(delivered, 1);

    // The paused session queues its input; the bystander still flows.
    target.post_input(msg("held")).expect("post");
    round_trip(bystander, "flowing");
    assert!(
        target.take_output(Duration::from_millis(200)).is_none(),
        "paused session must not emit"
    );

    // Resume releases the queued message.
    let delivered = server.raise_event(&ContextEvent::targeted(
        EventKind::Resume,
        target.session().as_str(),
    ));
    assert_eq!(delivered, 1);
    let out = target
        .take_output(Duration::from_secs(20))
        .expect("resumed session delivers");
    assert_eq!(out.body.as_ref(), b"held");
    assert_eq!(out.session().as_ref(), Some(target.session()));

    // A ghost target reaches nobody.
    let delivered = server.raise_event(&ContextEvent::targeted(
        EventKind::Pause,
        "app#no-such-session",
    ));
    assert_eq!(delivered, 0);

    assert_eq!(manager.teardown_all(), 6);
    assert_eq!(server.coordination().stream_count(), 0);
}

/// What a [`Journaled`] logic saw of its lifecycle.
#[derive(Default)]
struct Journal {
    events: Mutex<Vec<&'static str>>,
    end_thread: Mutex<Option<(thread::ThreadId, Option<String>)>>,
    activate_thread: Mutex<Option<thread::ThreadId>>,
}

impl Journal {
    fn events(&self) -> Vec<&'static str> {
        self.events.lock().unwrap().clone()
    }
}

/// Pass-through logic journaling its lifecycle hooks, and the threads
/// `on_activate` and `on_end` ran on.
struct Journaled(Arc<Journal>);

impl StreamletLogic for Journaled {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        ctx.emit("po", msg);
        Ok(())
    }
    fn on_activate(&mut self) {
        self.0.events.lock().unwrap().push("activate");
        *self.0.activate_thread.lock().unwrap() = Some(thread::current().id());
    }
    fn on_end(&mut self) {
        self.0.events.lock().unwrap().push("end");
        let me = thread::current();
        *self.0.end_thread.lock().unwrap() = Some((me.id(), me.name().map(String::from)));
    }
}

/// One journaled instance between an input and an output queue.
struct Rig {
    pool: Arc<MessagePool>,
    qin: Arc<MessageQueue>,
    qout: Arc<MessageQueue>,
    handle: Arc<StreamletHandle>,
    journal: Arc<Journal>,
}

fn rig(executor: Arc<dyn Executor>) -> Rig {
    let pool = Arc::new(MessagePool::new());
    let queue = |name: &str| {
        MessageQueue::new(
            QueueConfig {
                name: name.into(),
                capacity_bytes: 8 << 20,
                ..Default::default()
            },
            pool.clone(),
        )
    };
    let (qin, qout) = (queue("in"), queue("out"));
    let journal = Arc::new(Journal::default());
    let handle = StreamletHandle::with_executor(
        "j",
        "journaled",
        false,
        Box::new(Journaled(journal.clone())),
        pool.clone(),
        PayloadMode::Reference,
        None,
        RouteOpts::default(),
        executor,
    );
    handle.attach_in("pi", &qin);
    handle.attach_out("po", &qout);
    Rig {
        pool,
        qin,
        qout,
        handle,
        journal,
    }
}

impl Rig {
    fn post(&self, i: usize) -> PostResult {
        self.qin.post(
            self.pool
                .wrap(msg(&format!("m{i}")), PayloadMode::Reference, 1),
        )
    }

    fn take(&self, timeout: Duration) -> Option<String> {
        match self.qout.fetch(timeout) {
            FetchResult::Msg(p) => {
                let m = self.pool.resolve(p).expect("resident payload");
                Some(String::from_utf8_lossy(&m.body).into_owned())
            }
            _ => None,
        }
    }
}

/// The pooled back ends, with a label for assertion messages.
fn pooled() -> Vec<(&'static str, Arc<dyn Executor>)> {
    vec![
        ("worker-pool/1", WorkerPool::new(1)),
        ("worker-pool/2", WorkerPool::new(2)),
    ]
}

#[test]
fn idle_pooled_task_ends_inline_without_a_pump() {
    for (label, executor) in pooled() {
        let r = rig(executor.clone());
        r.handle.start().unwrap();
        r.handle.end();
        // The deferred `on_activate` still ran, once, before `on_end` —
        // both here on the ending thread. Had the launch (or the end)
        // needed a pump, a pool worker would have activated the logic.
        assert_eq!(r.journal.events(), ["activate", "end"], "{label}");
        let activated_on = r.journal.activate_thread.lock().unwrap().unwrap();
        assert_eq!(activated_on, thread::current().id(), "{label}: pumped");
        let (ended_on, _) = r.journal.end_thread.lock().unwrap().clone().unwrap();
        assert_eq!(ended_on, thread::current().id(), "{label}: not inline");
        assert!(r.handle.take_logic().is_some(), "{label}: logic parked");
        // Idempotent, and a late post neither runs nor resurrects it.
        r.handle.end();
        assert_eq!(r.post(0), PostResult::Posted);
        assert!(r.take(Duration::from_millis(20)).is_none(), "{label}");
        assert_eq!(r.journal.events(), ["activate", "end"], "{label}");
        executor.shutdown();
    }
}

#[test]
fn launch_defers_activation_until_work_arrives() {
    // One pool worker, FIFO: had the idle task's launch been scheduled,
    // it would have been pumped (and activated) before the busy one's
    // backlog.
    let executor: Arc<dyn Executor> = WorkerPool::new(1);
    let idle = rig(executor.clone());
    let busy = rig(executor.clone());
    idle.handle.start().unwrap();
    busy.post(0);
    busy.handle.start().unwrap();
    assert_eq!(busy.take(Duration::from_secs(10)).as_deref(), Some("m0"));
    assert!(idle.journal.events().is_empty(), "idle launch was pumped");
    assert_eq!(busy.journal.events(), ["activate"]);
    idle.handle.end();
    busy.handle.end();
    assert_eq!(idle.journal.events(), ["activate", "end"]);
    assert_eq!(busy.journal.events(), ["activate", "end"]);
    executor.shutdown();
}

#[test]
fn launch_onto_a_backlog_still_schedules_the_task() {
    // Guards the disarm-then-check order of the wakeless launch: posts
    // that landed before the wake hook existed must still get drained.
    for (label, executor) in pooled() {
        let r = rig(executor.clone());
        for i in 0..5 {
            assert_eq!(r.post(i), PostResult::Posted);
        }
        r.handle.start().unwrap();
        for i in 0..5 {
            let got = r.take(Duration::from_secs(10));
            assert_eq!(got, Some(format!("m{i}")), "{label}");
        }
        r.handle.end();
        assert_eq!(r.journal.events(), ["activate", "end"], "{label}");
        executor.shutdown();
    }
}

/// `end` racing a burst of posts, on both executors, across
/// seeds that vary the burst length, the post the end lands after, and
/// the poster's pacing. Whichever of the inline end or the driver's
/// fallback wins, `on_end` runs once, after `on_activate`, and every
/// posted message is delivered (in order) or charged as a reason-coded
/// drop.
#[test]
fn end_racing_posts_finalizes_once_and_loses_nothing() {
    const SEEDS: u64 = 150;
    for (label, executor) in [
        (
            "thread-per-streamlet",
            ThreadPerStreamlet::new() as Arc<dyn Executor>,
        ),
        ("worker-pool/2", WorkerPool::new(2)),
    ] {
        for seed in 0..SEEDS {
            let mut rng = StdRng::seed_from_u64(seed);
            let total = rng.gen_range(1usize..64);
            let end_after = rng.gen_range(0..=total);
            let pace: u64 = rng.gen();
            let r = Arc::new(rig(executor.clone()));
            r.handle.start().unwrap();
            let posted = Arc::new(AtomicUsize::new(0));
            let poster = {
                let (r, posted) = (r.clone(), posted.clone());
                thread::spawn(move || {
                    for i in 0..total {
                        r.post(i);
                        posted.fetch_add(1, Ordering::Release);
                        if (pace >> (i % 64)) & 1 == 1 {
                            thread::yield_now();
                        }
                    }
                })
            };
            while posted.load(Ordering::Acquire) < end_after {
                thread::yield_now();
            }
            r.handle.end();
            r.handle.detach_all().unwrap();
            poster.join().unwrap();

            let events = r.journal.events();
            assert_eq!(events, ["activate", "end"], "{label} seed {seed}");
            let mut delivered = Vec::new();
            while let Some(body) = r.take(Duration::ZERO) {
                delivered.push(body);
            }
            let expect: Vec<String> = (0..delivered.len()).map(|i| format!("m{i}")).collect();
            assert_eq!(delivered, expect, "{label} seed {seed}: order");
            let drops = r.qin.stats().dropped_total() + r.qout.stats().dropped_total();
            assert_eq!(
                delivered.len() as u64 + drops,
                total as u64,
                "{label} seed {seed}: {} delivered, {drops} dropped, {} still queued",
                delivered.len(),
                r.qin.len(),
            );
            assert_eq!(r.pool.stats().resident, 0, "{label} seed {seed}: leak");
        }
        executor.shutdown();
    }
}

#[test]
fn dedicated_thread_task_ends_through_its_thread() {
    let r = rig(ThreadPerStreamlet::new());
    r.handle.start().unwrap();
    // A round trip proves the dedicated thread holds the logic.
    r.post(0);
    assert_eq!(r.take(Duration::from_secs(10)).as_deref(), Some("m0"));
    r.handle.end();
    assert_eq!(r.journal.events(), ["activate", "end"]);
    let (ended_on, name) = r.journal.end_thread.lock().unwrap().clone().unwrap();
    assert_ne!(ended_on, thread::current().id(), "ended inline");
    assert_eq!(
        name.as_deref(),
        Some("streamlet-j"),
        "ended on its own thread"
    );
    assert!(r.handle.take_logic().is_some(), "logic parked after exit");
}

#[test]
fn sessions_of_one_manager_share_one_definitions_table() {
    let server = gate(64);
    let manager = server.session_manager(&script(3)).expect("template");
    let streams = manager.spawn_many(3).expect("spawn");
    for s in &streams {
        assert!(Arc::ptr_eq(s.defs(), manager.template().defs()));
    }
    manager.teardown_all();
}

#[test]
fn spawned_session_deploys_like_a_hand_deployed_table() {
    let server = gate(64);
    let manager = server.session_manager(&script(3)).expect("template");
    let spawned = manager.spawn().expect("spawn");
    let template = manager.template();
    let session = SessionId::new("app#hand");
    let hand = server
        .coordination()
        .deploy_table(
            &template.instantiate(session.as_str()),
            template.defs(),
            session,
        )
        .expect("hand deploy");
    assert_eq!(spawned.instance_names(), ["fused:e0..e2"]);
    assert_eq!(spawned.instance_names(), hand.instance_names());
    assert_eq!(spawned.connections(), hand.connections());
    round_trip(&spawned, "planned");
    round_trip(&hand, "hand");
    assert!(
        !Arc::ptr_eq(spawned.defs(), hand.defs()),
        "hand deploys own theirs"
    );
    assert!(server.undeploy(hand.session()));
    manager.teardown_all();
}

#[test]
fn each_spawn_checks_out_one_instance_per_member() {
    let server = gate(64);
    // The fusion plan (with its logic probe) is computed here, once.
    let manager = server.session_manager(&script(3)).expect("template");
    let checkouts = || {
        let s = server.streamlet_pool().stats();
        s.hits + s.misses
    };
    for _ in 0..4 {
        let before = checkouts();
        manager.spawn().expect("spawn");
        assert_eq!(checkouts() - before, 3, "one checkout per member");
    }
    manager.teardown_all();
}

/// A 4-echo chain template whose `when (LOW_BANDWIDTH)` rule splices `x`
/// between `e2` and `e3`: the rule keeps `e2` and `e3` discrete, so with
/// fusion on `e0..e1` is the one fused unit.
fn when_script() -> String {
    let mut s = script(4);
    s.pop(); // the closing brace of `main stream app`
    s.push_str(
        "when (LOW_BANDWIDTH) {\n\
         streamlet x = new-streamlet (echo);\n\
         insert (e2.po, e3.pi, x);\n}\n}",
    );
    s
}

/// Everything a session's topology consists of: connection rows, each
/// live instance's port bindings (port, channel) and each fused unit's
/// member roster.
type Topology = (
    Vec<mobigate_mcl::config::ConnectionRow>,
    Vec<(String, Vec<(String, String)>, Vec<(String, String)>)>,
    Vec<(String, Vec<String>)>,
);

fn topology(stream: &mobigate_core::RunningStream) -> Topology {
    let names = stream.instance_names();
    let bindings = names
        .iter()
        .map(|n| {
            let h = stream.instance(n).expect("live instance");
            let mut ins = h.input_bindings();
            let mut outs = h.output_bindings();
            ins.sort();
            outs.sort();
            (n.clone(), ins, outs)
        })
        .collect();
    let rosters = names
        .iter()
        .filter_map(|n| {
            let members = stream.fused_member_errors(n)?;
            Some((n.clone(), members.into_iter().map(|(m, _)| m).collect()))
        })
        .collect();
    (stream.connections(), bindings, rosters)
}

/// Sessions stamped from one blueprint share its rows copy-on-write: a
/// `when` rule fired at one session's `evtSource`, and a fission of that
/// session's fused unit, edit that session alone. Siblings keep their
/// connection rows, bindings and fused rosters, the template's base table
/// is untouched, and a stamped session matches a hand `deploy_table` of
/// the same table.
#[test]
fn one_session_reconfigures_without_touching_its_siblings() {
    let executors = [
        ExecutorConfig::ThreadPerStreamlet,
        ExecutorConfig::WorkerPool { workers: 2 },
    ];
    for executor in executors {
        for fusion in [false, true] {
            let directory = Arc::new(StreamletDirectory::new());
            directory.register("test/echo", "", || Box::new(Echo));
            let server = MobiGate::with_config(
                ServerConfig {
                    executor,
                    fusion,
                    ..Default::default()
                },
                directory,
                Arc::new(StreamletPool::new(64)),
            );
            let manager = server.session_manager(&when_script()).expect("template");
            let base = manager.template().base_table().clone();
            let streams = manager.spawn_many(4).expect("spawn");
            let (target, siblings) = streams.split_first().unwrap();
            let before: Vec<Topology> = siblings.iter().map(|s| topology(s)).collect();
            let unit = "fused:e0..e1";
            assert_eq!(
                before[0].2.iter().any(|(n, _)| n == unit),
                fusion,
                "{executor:?} fusion={fusion}"
            );

            // The rule fires on the target alone.
            let delivered = server.raise_event(&ContextEvent::targeted(
                EventKind::LowBandwidth,
                target.session().as_str(),
            ));
            assert_eq!(delivered, 1);
            assert!(target.instance_names().contains(&"x".to_string()));
            // A reconfiguration addressed at e0/e1 fissions the target's
            // fused unit first (with fusion off it is a plain insert).
            target
                .insert_streamlet(("e0", "po"), ("e1", "pi"), "y", "echo")
                .expect("insert");
            let names = target.instance_names();
            assert!(!names.contains(&unit.to_string()), "{names:?}");
            for n in ["e0", "e1", "x", "y"] {
                assert!(names.contains(&n.to_string()), "{n} in {names:?}");
            }
            round_trip(target, "target");

            for (sibling, topo) in siblings.iter().zip(&before) {
                assert_eq!(&topology(sibling), topo, "{executor:?} fusion={fusion}");
                round_trip(sibling, "sibling");
            }
            assert_eq!(manager.template().base_table(), &base);

            // A sibling's own copy of the lazy `x` declaration survived the
            // target's instantiation of it.
            let delivered = server.raise_event(&ContextEvent::targeted(
                EventKind::LowBandwidth,
                siblings[0].session().as_str(),
            ));
            assert_eq!(delivered, 1);
            assert!(siblings[0].instance_names().contains(&"x".to_string()));
            round_trip(&siblings[0], "sibling after its own rule");

            // Stamping and a hand `deploy_table` of the same table agree.
            let stamped = manager.spawn().expect("spawn");
            let session = SessionId::new("app#hand");
            let hand = server
                .coordination()
                .deploy_table(
                    &manager.template().instantiate(session.as_str()),
                    manager.template().defs(),
                    session,
                )
                .expect("hand deploy");
            assert_eq!(topology(&stamped), topology(&hand));
            round_trip(&stamped, "stamped");
            round_trip(&hand, "hand");

            assert!(server.undeploy(hand.session()));
            assert_eq!(manager.teardown_all(), 5);
        }
    }
}

/// Every spawn registers its execution units with the supervisor, and
/// torn-down sessions' entries are swept as later spawns register, so
/// session churn holds the supervisor's map to a bound instead of
/// growing it by one entry per churned instance.
#[test]
fn session_churn_keeps_supervisor_entries_bounded() {
    let server = gate(64);
    let sup = server.supervisor().expect("supervision is on by default");
    let manager = server.session_manager(&when_script()).expect("template");
    // Each session registers 4 instances: the fused e0..e1, e2, e3, and
    // the x its rule creates.
    for _ in 0..100 {
        let stream = manager.spawn().expect("spawn");
        server.raise_event(&ContextEvent::targeted(
            EventKind::LowBandwidth,
            stream.session().as_str(),
        ));
        assert!(stream.instance("x").is_some());
        assert!(manager.teardown(stream.session()));
    }
    let held = sup.entry_count();
    assert!(
        held <= 70,
        "{held} supervisor entries held after 100 churned sessions"
    );
}
