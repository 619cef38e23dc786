//! Observability-plane integration tests:
//!
//! * byte-accounting audit — a fused deployment charges `queued_bytes` /
//!   `pending_out_bytes` exactly once, so its resident footprint matches
//!   the discrete topology byte-for-byte, survives fission unchanged,
//!   and drains to zero;
//! * the load-event watchers — a `when (CHANNEL_CONGESTED)` rule fires
//!   from a *measured* queue high-water crossing (nobody calls
//!   `raise_event`), closing the adaptation loop, also when the crossing
//!   post runs on a streamlet driver whose own unit the rule rewires; and
//!   each rate or budget watcher fires once, on the charge that crosses;
//! * telemetry concurrency — merged histograms match a sequential model
//!   (property test), the trace ring keeps the newest events under
//!   concurrent wraparound, and snapshots taken during session churn
//!   stay monotonic;
//! * lifecycle forensics — the JSONL trace export reconstructs a
//!   fault → restart → fault → quarantine timeline, and a restart that
//!   arrives after the stream ended is traced as refused.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mobigate_core::events::EventSubscriber;
use mobigate_core::queue::QueueStats;
use mobigate_core::telemetry::{Histogram, StreamMetricsSnapshot, TraceKind, TraceRing};
use mobigate_core::{
    AdmissionConfig, BridgeConfig, ContextEvent, CoreError, Emitter, EventCategory, EventKind,
    ExecutorConfig, LifecycleState, MessageQueue, MobiGate, OverloadConfig, ServerConfig,
    StreamletCtx, StreamletDirectory, StreamletLogic, StreamletPool, TelemetryConfig,
};
use mobigate_mcl::config::{ChannelSpec, ReconfigAction};
use mobigate_mime::{MimeMessage, MimeType};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pass-through logic; fusable so fused deployments exercise the
/// single-execution-unit byte accounting.
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

/// Stateful (never pooled/fused) logic that panics on `boom` bodies.
struct Boom;
impl StreamletLogic for Boom {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        if msg.body.starts_with(b"boom") {
            panic!("boom poison");
        }
        ctx.emit("po", msg);
        Ok(())
    }
}

/// Telemetry on, load-event watchers off unless a config is given.
fn telemetry_on(bridge: Option<BridgeConfig>) -> TelemetryConfig {
    TelemetryConfig {
        enabled: true,
        bridge: bridge.unwrap_or(BridgeConfig {
            enabled: false,
            ..Default::default()
        }),
    }
}

fn gate(config: ServerConfig) -> MobiGate {
    let directory = Arc::new(StreamletDirectory::new());
    directory.register("obs/echo", "", || Box::new(Echo));
    directory.register("obs/boom", "", || Box::new(Boom));
    MobiGate::with_config(config, directory, Arc::new(StreamletPool::new(32)))
}

const CHAIN: &str = r#"
    streamlet echo {
        port { in pi : */*; out po : */*; }
        attribute { type = STATELESS; library = "obs/echo"; }
    }
    main stream app {
        streamlet f1 = new-streamlet (echo);
        streamlet f2 = new-streamlet (echo);
        streamlet f3 = new-streamlet (echo);
        connect (f1.po, f2.pi);
        connect (f2.po, f3.pi);
    }
"#;

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < timeout {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

/// Satellite audit: with every streamlet paused, N messages of B bytes
/// leave the same resident byte footprint whether the chain runs fused
/// (one execution unit) or discrete — bytes are charged exactly once,
/// never per-member — and both drain back to exactly zero.
#[test]
fn fused_and_discrete_deployments_charge_bytes_identically() {
    let deploy = |fusion: bool| {
        let g = gate(ServerConfig {
            fusion,
            telemetry: telemetry_on(None),
            ..Default::default()
        });
        let s = g.deploy_mcl(CHAIN).unwrap();
        (g, s)
    };
    let (gf, fused) = deploy(true);
    let (gu, unfused) = deploy(false);
    assert_eq!(fused.instance_names(), vec!["fused:f1..f3".to_string()]);
    assert_eq!(unfused.instance_names(), vec!["f1", "f2", "f3"]);

    fused.pause_all();
    unfused.pause_all();
    let body = "x".repeat(64);
    for _ in 0..8 {
        fused.post_input(MimeMessage::text(body.clone())).unwrap();
        unfused.post_input(MimeMessage::text(body.clone())).unwrap();
    }
    let rf = fused.stats().resident_bytes();
    let ru = unfused.stats().resident_bytes();
    assert!(rf > 0, "paused ingress must hold resident bytes");
    assert_eq!(
        rf, ru,
        "a fused unit must charge queued bytes exactly once, like the discrete chain"
    );

    // Telemetry saw the same ingress on both sides.
    let bytes_in = |g: &MobiGate| g.metrics_snapshot().unwrap().totals.bytes_in;
    assert_eq!(bytes_in(&gf), 8 * 64);
    assert_eq!(bytes_in(&gf), bytes_in(&gu));

    for s in [&fused, &unfused] {
        s.activate_all();
        for _ in 0..8 {
            assert!(s.take_output(Duration::from_secs(5)).is_some());
        }
        assert!(s.drain(Duration::from_secs(5)));
        assert_eq!(
            s.stats().resident_bytes(),
            0,
            "drained stream must release every charged byte"
        );
    }
    fused.shutdown();
    unfused.shutdown();
}

/// Fission conservation: splitting a fused unit mid-burst neither leaks
/// nor double-releases charged bytes — after the burst drains, the
/// resident footprint is exactly zero and every message was delivered.
#[test]
fn fission_mid_burst_conserves_byte_accounting() {
    let g = gate(ServerConfig {
        fusion: true,
        telemetry: telemetry_on(None),
        ..Default::default()
    });
    let stream = g.deploy_mcl(CHAIN).unwrap();
    let n = 100;
    for i in 0..n {
        stream
            .post_input(MimeMessage::text(format!("m{i:03}")))
            .unwrap();
        if i == n / 2 {
            // Addressed at fused members: forces fission under load.
            stream
                .insert_streamlet(("f1", "po"), ("f2", "pi"), "mid", "echo")
                .unwrap();
        }
    }
    for _ in 0..n {
        assert!(stream.take_output(Duration::from_secs(5)).is_some());
    }
    assert!(stream.drain(Duration::from_secs(5)));
    let stats = stream.stats();
    assert_eq!(stats.delivered, n as u64);
    assert_eq!(
        stats.resident_bytes(),
        0,
        "fission must hand byte charges over exactly once (queued={} pending={})",
        stats.queued_bytes,
        stats.pending_out_bytes
    );
    assert!(stream.instance_names().contains(&"mid".to_string()));
    // Telemetry agrees: every admitted payload was eventually fetched.
    let m = g.metrics_snapshot().unwrap();
    assert_eq!(m.totals.dropped_total(), 0);
    stream.shutdown();
}

/// The tentpole acceptance loop: a `when (CHANNEL_CONGESTED)` rule fires
/// from a *measured* queue high-water crossing, raised by the post that
/// crossed — no test code ever raises the event.
#[test]
fn bridge_published_congestion_fires_when_rule() {
    let g = gate(ServerConfig {
        telemetry: telemetry_on(Some(BridgeConfig {
            enabled: true,
            queue_high_water_bytes: 1024,
            // Keep the other watchers out of the way.
            drop_rate_per_sec: u64::MAX,
            fault_rate_per_sec: u64::MAX,
            session_byte_budget: None,
            admission_rejects_per_sec: u64::MAX,
        })),
        ..Default::default()
    });
    let stream = g
        .deploy_mcl(
            r#"
            streamlet echo {
                port { in pi : */*; out po : */*; }
                attribute { type = STATELESS; library = "obs/echo"; }
            }
            main stream app {
                streamlet a = new-streamlet (echo);
                streamlet b = new-streamlet (echo);
                connect (a.po, b.pi);
                when (CHANNEL_CONGESTED) {
                    disconnect (a.po, b.pi);
                    connect (a.po, b.pi);
                }
            }
            "#,
        )
        .unwrap();

    // Build up measurable congestion: pause the chain and park 2 KiB of
    // payload in the ingress queue, over the 1 KiB high-water mark.
    stream.pause_all();
    let body = "x".repeat(256);
    for _ in 0..8 {
        stream.post_input(MimeMessage::text(body.clone())).unwrap();
    }
    assert!(stream.stats().resident_bytes() >= 1024);

    let stream2 = stream.clone();
    assert!(
        wait_until(Duration::from_secs(5), move || {
            stream2.stats().reconfigurations >= 1
        }),
        "the bridge must publish CHANNEL_CONGESTED from the measured high-water crossing"
    );

    // The adaptation is visible in the lifecycle trace too.
    let jsonl = g.export_trace_jsonl().unwrap();
    assert!(
        jsonl.contains("\"kind\":\"reconfigure\""),
        "missing reconfigure trace:\n{jsonl}"
    );

    stream.activate_all();
    for _ in 0..8 {
        assert!(stream.take_output(Duration::from_secs(5)).is_some());
    }
    stream.shutdown();
}

/// Concurrent wraparound on a small ring: the survivors are exactly the
/// ring capacity, strictly ordered, and the overwrite counter accounts
/// for what was displaced.
#[test]
fn trace_ring_concurrent_wraparound_keeps_newest() {
    let ring = Arc::new(TraceRing::new(16));
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let ring = ring.clone();
            std::thread::spawn(move || {
                for i in 0..1000u64 {
                    ring.record(i, TraceKind::Drop, Some("s"), None, format!("w{w}"));
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    assert_eq!(ring.recorded(), 4000);
    let events = ring.events();
    assert_eq!(events.len(), ring.capacity());
    assert!(
        events.windows(2).all(|w| w[0].seq < w[1].seq),
        "survivors must be strictly seq-ordered"
    );
    // Every displaced slot write is either counted as an overwrite or was
    // a stale ticket discarded in favor of a newer one — never both.
    assert!(ring.overwritten() <= ring.recorded() - ring.capacity() as u64);
    // The newest ticket always survives (no writer can displace it).
    assert_eq!(events.last().unwrap().seq, 3999);
    assert_eq!(ring.export_jsonl().lines().count(), ring.capacity());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Sharded recording is invisible in the aggregate: values recorded
    /// concurrently across 4 histograms, then snapshot-merged, match one
    /// histogram fed sequentially.
    #[test]
    /// Values stay below 2^55 so 200 of them cannot overflow the `sum`
    /// counter (`merge` saturates while the atomics wrap, so an overflow
    /// would make the merge and the model legitimately disagree).
    fn sharded_histograms_match_sequential_model(values in prop::collection::vec(0u64..(1u64 << 55), 0..200)) {
        let model = Histogram::new();
        for v in &values {
            model.record(*v);
        }

        let shards: Vec<Arc<Histogram>> = (0..4).map(|_| Arc::new(Histogram::new())).collect();
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(k, h)| {
                let h = h.clone();
                let mine: Vec<u64> = values.iter().copied().skip(k).step_by(4).collect();
                std::thread::spawn(move || {
                    for v in mine {
                        h.record(v);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }

        // Snapshot each shard and merge the owned copies.
        let mut got = shards[0].snapshot();
        for h in &shards[1..] {
            got.merge(&h.snapshot());
        }

        let want = model.snapshot();
        prop_assert_eq!(&got.buckets[..], &want.buckets[..]);
        prop_assert_eq!(got.count, want.count);
        prop_assert_eq!(got.sum, want.sum);
        prop_assert_eq!(got.bucket_total(), want.count);
    }
}

/// Scrapes racing session churn: totals (live + retired accumulator)
/// never move backwards, and the registry ends empty once every session
/// tears down.
#[test]
fn snapshot_during_session_churn_stays_monotonic() {
    let g = gate(ServerConfig {
        fusion: true,
        telemetry: telemetry_on(None),
        ..Default::default()
    });
    let manager = Arc::new(g.session_manager(CHAIN).unwrap());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let churn = {
        let manager = manager.clone();
        std::thread::spawn(move || {
            for round in 0..20 {
                let sessions = manager.spawn_many(4).unwrap();
                for (i, s) in sessions.iter().enumerate() {
                    s.post_input(MimeMessage::text(format!("r{round}i{i}")))
                        .unwrap();
                    assert!(s.take_output(Duration::from_secs(10)).is_some());
                }
                for s in &sessions {
                    manager.teardown(s.session());
                }
            }
        })
    };

    let mut last_posted = 0u64;
    let mut last_trace = 0u64;
    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
        if churn.is_finished() {
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        }
        let m = g.metrics_snapshot().unwrap();
        assert!(
            m.totals.posted >= last_posted,
            "posted went backwards: {} -> {}",
            last_posted,
            m.totals.posted
        );
        assert!(m.trace_recorded >= last_trace);
        last_posted = m.totals.posted;
        last_trace = m.trace_recorded;
        std::thread::sleep(Duration::from_millis(1));
    }
    churn.join().unwrap();

    let m = g.metrics_snapshot().unwrap();
    assert_eq!(m.live_streams, 0, "every session must deregister");
    assert_eq!(m.totals.posted, last_posted.max(m.totals.posted));
    assert!(m.totals.posted >= 80, "80 round-trips were posted");
    // The churn itself is in the lifecycle trace.
    let jsonl = g.export_trace_jsonl().unwrap();
    assert!(jsonl.contains("\"kind\":\"session-spawn\""));
    assert!(jsonl.contains("\"kind\":\"session-teardown\""));
    // And the scrape renders.
    let text = m.render_prometheus();
    assert!(text.contains("mobigate_posted_total"));
    assert!(text.contains("mobigate_dropped_total{reason=\"full\"}"));
    assert!(text.contains("mobigate_post_ns_bucket"));
}

/// The eight message counters a snapshot reads from the channels.
fn counters(s: &StreamMetricsSnapshot) -> [u64; 8] {
    [
        s.posted,
        s.fetched,
        s.dropped_full,
        s.dropped_closed,
        s.dropped_break,
        s.dropped_expired,
        s.dropped_shed,
        s.dropped_admission,
    ]
}

/// The same counters, summed over channels' own `stats()`.
fn channel_counters<'a>(qs: impl IntoIterator<Item = &'a Arc<MessageQueue>>) -> [u64; 8] {
    let s = qs
        .into_iter()
        .fold(QueueStats::default(), |sum, q| sum + q.stats());
    [
        s.posted,
        s.fetched,
        s.dropped_full,
        s.dropped_closed,
        s.dropped_break,
        s.dropped_expired,
        s.dropped_shed,
        s.dropped_admission,
    ]
}

/// Telemetry reads the channels' own counters: a drained stream's entry
/// is the sum of its channels' `stats()`, and the counts of a channel a
/// reconfiguration removes stay in the stream's entry and in the totals,
/// through the removal, a later channel creation, and the stream's
/// retirement.
#[test]
fn removed_channel_keeps_its_counts_in_the_totals() {
    let g = gate(ServerConfig {
        telemetry: telemetry_on(None),
        ..Default::default()
    });
    let stream = g.deploy_mcl(CHAIN).unwrap();
    let [f1, f2, f3] = ["f1", "f2", "f3"].map(|name| stream.instance(name).unwrap());
    let (_, ingress) = f1.bound_inputs().remove(0);
    let (_, m) = f1.bound_outputs().remove(0);
    let (_, n) = f2.bound_outputs().remove(0);
    let (_, egress) = f3.bound_outputs().remove(0);
    for i in 0..10 {
        stream
            .post_input(MimeMessage::text(format!("m{i}")))
            .unwrap();
        assert!(stream.take_output(Duration::from_secs(5)).is_some());
    }
    // Drops on the channel about to go: one shed while f2 is paused,
    // and two admission rejects charged to it directly.
    f2.pause_and_wait(Duration::from_secs(2)).unwrap();
    for i in 0..3 {
        stream
            .post_input(MimeMessage::text(format!("p{i}")))
            .unwrap();
    }
    assert!(wait_until(Duration::from_secs(5), || m.len() == 3));
    assert_eq!(m.shed_oldest(1), 1);
    m.charge_admission_rejected(2);
    f2.activate().unwrap();
    for _ in 0..2 {
        assert!(stream.take_output(Duration::from_secs(5)).is_some());
    }
    assert!(stream.drain(Duration::from_secs(5)));

    let channels = [&ingress, &m, &n, &egress];
    let before = g.metrics_snapshot().unwrap();
    assert_eq!(before.per_stream.len(), 1);
    assert_eq!(
        counters(&before.per_stream[0].1),
        channel_counters(channels),
        "a drained stream's entry is its channels' sum"
    );
    assert_eq!(counters(&before.totals), channel_counters(channels));
    assert_eq!(
        before.totals.posted,
        4 * 13 - 2,
        "four channels per message; the shed one never reached n or the egress"
    );
    let removed = channel_counters([&m]);
    assert!(removed[6] == 1 && removed[7] == 2, "{removed:?}");

    let name = m.config().name.clone();
    drop(m);
    let stats = stream.reconfigure(&[ReconfigAction::RemoveChannel { name }]);
    assert_eq!(stats.errors, 0);
    let rest = channel_counters([&ingress, &n, &egress]);
    let expected: Vec<u64> = rest.iter().zip(removed).map(|(r, m)| r + m).collect();
    let after = g.metrics_snapshot().unwrap();
    assert_eq!(counters(&after.totals).to_vec(), expected, "removal");
    assert_eq!(counters(&after.totals), counters(&before.totals));

    // A new channel lists itself, folding the removed one's counts in.
    let stats = stream.reconfigure(&[ReconfigAction::NewChannel {
        name: "fresh".into(),
        spec: ChannelSpec::default_for(MimeType::any()),
    }]);
    assert_eq!(stats.errors, 0);
    let after = g.metrics_snapshot().unwrap();
    assert_eq!(counters(&after.totals).to_vec(), expected, "new channel");
    assert_eq!(counters(&after.per_stream[0].1).to_vec(), expected);

    stream.shutdown();
    let retired = g.metrics_snapshot().unwrap();
    assert_eq!(retired.live_streams, 0);
    assert_eq!(counters(&retired.totals).to_vec(), expected, "retirement");
}

const BOOM_CHAIN: &str = r#"
    streamlet echo {
        port { in pi : */*; out po : */*; }
        attribute { type = STATELESS; library = "obs/echo"; }
    }
    streamlet boom {
        port { in pi : */*; out po : */*; }
        attribute { type = STATEFUL; library = "obs/boom"; }
    }
    main stream app {
        streamlet a = new-streamlet (echo);
        streamlet f = new-streamlet (boom);
        streamlet b = new-streamlet (echo);
        connect (a.po, f.pi);
        connect (f.po, b.pi);
    }
"#;

fn kinds_for_instance(jsonl: &str, instance: &str) -> Vec<String> {
    let tag = format!("\"instance\":\"{instance}\"");
    jsonl
        .lines()
        .filter(|l| l.contains(&tag))
        .filter_map(|l| {
            let rest = l.split("\"kind\":\"").nth(1)?;
            Some(rest.split('"').next()?.to_string())
        })
        .collect()
}

fn is_subsequence(needle: &[&str], hay: &[String]) -> bool {
    let mut it = hay.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

/// Satellite 6: a chaos-style poison message drives the supervisor through
/// fault → restart → fault → quarantine, and the JSONL trace export
/// reconstructs that timeline for the faulted instance.
#[test]
fn jsonl_export_reconstructs_fault_quarantine_timeline() {
    let mut config = ServerConfig {
        telemetry: telemetry_on(None),
        ..Default::default()
    };
    config.supervision.policy.max_restarts = 1;
    config.supervision.policy.backoff_base = Duration::from_millis(1);
    config.supervision.policy.backoff_max = Duration::from_millis(2);
    config.supervision.policy.jitter = false;
    config.supervision.policy.poison_threshold = 10;
    let g = gate(config);
    let stream = g.deploy_mcl(BOOM_CHAIN).unwrap();

    // One poison message: fault #1 → restart (budget 1) → redelivery →
    // fault #2 → budget exhausted → quarantine.
    stream.post_input(MimeMessage::text("boom")).unwrap();
    let f = stream.instance("f").unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || f.state()
            == LifecycleState::Quarantined),
        "instance must end quarantined, got {:?}",
        f.state()
    );

    let jsonl = g.export_trace_jsonl().unwrap();
    let kinds = kinds_for_instance(&jsonl, "f");
    assert!(
        is_subsequence(&["fault", "restart", "fault", "quarantine"], &kinds),
        "timeline must read fault → restart → fault → quarantine, got {kinds:?}\n{jsonl}"
    );
    // The stream-level story is there too: the deploy that started it all.
    assert!(jsonl.contains("\"kind\":\"deploy\""));

    // Measured fault counters match the trace.
    let m = g.metrics_snapshot().unwrap();
    assert!(
        m.totals.faults >= 2,
        "both faults counted: {}",
        m.totals.faults
    );
    stream.shutdown();
}

/// A restart that fires after its stream already ended is refused — and
/// the refusal is a first-class trace event.
#[test]
fn refused_restart_after_shutdown_is_traced() {
    let mut config = ServerConfig {
        telemetry: telemetry_on(None),
        ..Default::default()
    };
    config.supervision.policy.max_restarts = 5;
    config.supervision.policy.backoff_base = Duration::from_millis(300);
    config.supervision.policy.backoff_max = Duration::from_millis(300);
    config.supervision.policy.jitter = false;
    let g = gate(config);
    let stream = g.deploy_mcl(BOOM_CHAIN).unwrap();

    // Keep the faulted handle alive across shutdown so the supervisor's
    // scheduled restart still finds it (and must refuse it).
    let _f = stream.instance("f").unwrap();
    stream.post_input(MimeMessage::text("boom")).unwrap();
    // Wait for the fault to land, then end the stream inside the 300 ms
    // restart backoff window.
    let g2 = &g;
    assert!(wait_until(Duration::from_secs(5), move || {
        g2.metrics_snapshot()
            .map(|m| m.totals.faults >= 1)
            .unwrap_or(false)
    }));
    stream.shutdown();

    assert!(
        wait_until(Duration::from_secs(5), || {
            g.export_trace_jsonl()
                .map(|j| j.contains("\"kind\":\"restart-refused\""))
                .unwrap_or(false)
        }),
        "the late restart must be traced as refused:\n{}",
        g.export_trace_jsonl().unwrap_or_default()
    );
}

/// Watchers armed with every threshold out of reach; each test lowers
/// the one it exercises.
fn quiet() -> BridgeConfig {
    BridgeConfig {
        enabled: true,
        queue_high_water_bytes: u64::MAX,
        drop_rate_per_sec: u64::MAX,
        fault_rate_per_sec: u64::MAX,
        session_byte_budget: None,
        admission_rejects_per_sec: u64::MAX,
    }
}

/// Records the load events targeted at one stream, in arrival order.
struct LoadEvents {
    name: String,
    seen: Mutex<Vec<EventKind>>,
    /// Broadcast markers received (see [`LoadEvents::flush`]).
    marks: AtomicU64,
}

impl EventSubscriber for LoadEvents {
    fn subscriber_name(&self) -> String {
        self.name.clone()
    }
    fn on_event(&self, event: &ContextEvent) {
        match event.source {
            Some(_) => self.seen.lock().push(event.kind),
            None => {
                self.marks.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

impl LoadEvents {
    /// Subscribes a recorder for `stream`'s load events on `g`.
    fn on(g: &MobiGate, stream: &str) -> Arc<Self> {
        let rec = Arc::new(LoadEvents {
            name: stream.to_string(),
            seen: Mutex::new(Vec::new()),
            marks: AtomicU64::new(0),
        });
        let sub: Arc<dyn EventSubscriber> = rec.clone();
        g.events().subscribe(EventCategory::LoadVariation, &sub);
        rec
    }

    /// Every load event raised so far. The supervisor thread publishes
    /// events in the order they were raised, so once a marker queued now
    /// arrives, everything raised before it has arrived too. The marker
    /// is a kind streams take no built-in action on.
    fn flush(&self, g: &MobiGate) -> Vec<EventKind> {
        let marks = self.marks.load(Ordering::SeqCst);
        g.supervisor()
            .event_sink()
            .publish(ContextEvent::broadcast(EventKind::HighDropRate));
        assert!(
            wait_until(Duration::from_secs(10), || self
                .marks
                .load(Ordering::SeqCst)
                > marks),
            "the supervisor thread must publish the marker"
        );
        self.seen.lock().clone()
    }
}

/// Charges one unit of load per step and checks that `kind` fires on
/// the `threshold`-th charge, not before, and never again while the
/// load stands.
fn fires_once_at(
    g: &MobiGate,
    events: &LoadEvents,
    kind: EventKind,
    threshold: usize,
    mut charge: impl FnMut(usize),
) {
    for i in 1..=threshold + 3 {
        charge(i);
        let want = if i < threshold { vec![] } else { vec![kind] };
        assert_eq!(events.flush(g), want, "after charge {i} of {kind:?}");
    }
}

/// BYTE_BUDGET_EXCEEDED fires on the ingress post that takes the session
/// past its budget, and once only.
#[test]
fn byte_budget_fires_once_on_the_crossing_post() {
    let g = gate(ServerConfig {
        telemetry: telemetry_on(Some(BridgeConfig {
            session_byte_budget: Some(1000),
            ..quiet()
        })),
        ..Default::default()
    });
    let stream = g.deploy_mcl(CHAIN).unwrap();
    let events = LoadEvents::on(&g, stream.name());
    // 250 B bodies: the fourth post reaches the budget, the fifth exceeds it.
    fires_once_at(&g, &events, EventKind::ByteBudgetExceeded, 5, |_| {
        stream
            .post_input(MimeMessage::text("b".repeat(250)))
            .unwrap();
    });
    stream.shutdown();
}

/// OVERLOAD fires on the admission reject that brings the stream's
/// rejects within one second to the threshold.
#[test]
fn admission_rejects_fire_overload_once_on_the_crossing_reject() {
    let g = gate(ServerConfig {
        telemetry: telemetry_on(Some(BridgeConfig {
            admission_rejects_per_sec: 3,
            ..quiet()
        })),
        overload: OverloadConfig {
            enabled: true,
            admission: AdmissionConfig {
                enabled: true,
                session_rate: 0.001,
                session_burst: 1.0,
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    });
    let stream = g.deploy_mcl(CHAIN).unwrap();
    let events = LoadEvents::on(&g, stream.name());
    // The bucket's one token admits the first post; every later one is
    // rejected.
    stream.post_input(MimeMessage::text("in")).unwrap();
    fires_once_at(&g, &events, EventKind::Overload, 3, |_| {
        let err = stream.post_input(MimeMessage::text("out")).unwrap_err();
        assert!(matches!(err, CoreError::Overloaded { .. }), "{err}");
    });
    stream.shutdown();
}

/// HIGH_DROP_RATE fires on the drop that brings the stream's drops
/// within one second to the threshold.
#[test]
fn drop_rate_fires_once_on_the_crossing_drop() {
    let g = gate(ServerConfig {
        telemetry: telemetry_on(Some(BridgeConfig {
            drop_rate_per_sec: 3,
            ..quiet()
        })),
        ..Default::default()
    });
    let stream = g.deploy_mcl(CHAIN).unwrap();
    let events = LoadEvents::on(&g, stream.name());
    stream.pause_all();
    for i in 0..6 {
        stream
            .post_input(MimeMessage::text(format!("m{i}")))
            .unwrap();
    }
    // Each shed drops one parked message.
    fires_once_at(&g, &events, EventKind::HighDropRate, 3, |_| {
        assert_eq!(stream.shed_lowest(1), 1);
    });
    stream.shutdown();
}

/// HIGH_FAULT_RATE fires on the fault that brings the stream's faults
/// within one second to the threshold.
#[test]
fn fault_rate_fires_once_on_the_crossing_fault() {
    let mut config = ServerConfig {
        telemetry: telemetry_on(Some(BridgeConfig {
            fault_rate_per_sec: 3,
            ..quiet()
        })),
        ..Default::default()
    };
    // Each poison message faults `f` once, is dead-lettered, and `f`
    // restarts at once for the next.
    config.supervision.policy.max_restarts = 100;
    config.supervision.policy.backoff_base = Duration::from_millis(1);
    config.supervision.policy.backoff_max = Duration::from_millis(1);
    config.supervision.policy.jitter = false;
    config.supervision.policy.poison_threshold = 1;
    let g = gate(config);
    let stream = g.deploy_mcl(BOOM_CHAIN).unwrap();
    let events = LoadEvents::on(&g, stream.name());
    let faults = |g: &MobiGate| g.metrics_snapshot().unwrap().totals.faults;
    fires_once_at(&g, &events, EventKind::HighFaultRate, 3, |i| {
        stream.post_input(MimeMessage::text("boom")).unwrap();
        assert!(
            wait_until(Duration::from_secs(10), || faults(&g) == i as u64),
            "fault {i} never landed"
        );
    });
    stream.shutdown();
}

/// An interior channel congests on the streamlet driver that posts into
/// it, and the `when (CHANNEL_CONGESTED)` rule splices a streamlet in
/// behind that very unit — Figure 7-4's insert, which suspends it first.
/// Run on that driver, the rule would wait on itself until the pause
/// timed out and the insert failed. The rule runs on the supervisor
/// thread, so the insert completes while the driver keeps running, and
/// every message is delivered.
fn driver_posted_congestion_reconfigures(executor: ExecutorConfig) {
    let g = gate(ServerConfig {
        executor,
        telemetry: telemetry_on(Some(BridgeConfig {
            queue_high_water_bytes: 1024,
            ..quiet()
        })),
        ..Default::default()
    });
    let stream = g
        .deploy_mcl(
            r#"
            streamlet echo {
                port { in pi : */*; out po : */*; }
                attribute { type = STATELESS; library = "obs/echo"; }
            }
            main stream app {
                streamlet a = new-streamlet (echo);
                streamlet b = new-streamlet (echo);
                streamlet mid = new-streamlet (echo);
                connect (a.po, b.pi);
                when (CHANNEL_CONGESTED) {
                    insert (a.po, b.pi, mid);
                }
            }
            "#,
        )
        .unwrap();
    let (a, b) = (stream.instance("a").unwrap(), stream.instance("b").unwrap());
    b.pause_and_wait(Duration::from_secs(5)).unwrap();
    let spliced = || {
        stream
            .connections()
            .iter()
            .any(|c| c.from.0 == "a" && c.to.0 == "mid")
    };
    let n = 8u64;
    for i in 1..=n {
        // One message at a time, each taken by `a` before the next: the
        // ingress never holds 1 KiB, so the crossing is `a`'s post into
        // the interior channel, which `b` does not drain.
        stream
            .post_input(MimeMessage::text("x".repeat(256)))
            .unwrap();
        assert!(
            wait_until(Duration::from_secs(10), || a.stats().processed == i),
            "`a` must take message {i}"
        );
        if i == 4 {
            assert!(
                wait_until(Duration::from_secs(10), || stream.stats().reconfigurations
                    >= 1),
                "the rule must run"
            );
            assert!(
                spliced(),
                "the insert must complete: {:?}",
                stream.connections()
            );
        }
    }
    assert_eq!(a.state(), LifecycleState::Running);

    b.activate().unwrap();
    for i in 0..n {
        assert!(
            stream.take_output(Duration::from_secs(10)).is_some(),
            "message {i} must be delivered"
        );
    }
    assert_eq!(g.metrics_snapshot().unwrap().totals.dropped_total(), 0);
    stream.shutdown();
}

#[test]
fn driver_posted_congestion_reconfigures_thread_per_streamlet() {
    driver_posted_congestion_reconfigures(ExecutorConfig::ThreadPerStreamlet);
}

#[test]
fn driver_posted_congestion_reconfigures_worker_pool() {
    driver_posted_congestion_reconfigures(ExecutorConfig::WorkerPool { workers: 2 });
}
