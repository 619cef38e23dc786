//! The workloads, and why each one exists.
//!
//! Every workload drives the whole path — wire ingress at the server, the
//! streamlet chain, the communicator, the emulated link, the client's peer
//! reversal — so every layer is measured on every workload. They differ in
//! which layer dominates:
//!
//! * `webaccel` — the paper's §7.5 web accelerator, the MobiGATE side of
//!   Figure 7-7: one stream carrying a 50/50 mix of 128×128 GIF-like images
//!   (gif2jpeg → img_down_sample) and 8 KiB texts (text_compress, reversed
//!   on the client), in the low-bandwidth steady state. Codec work inside
//!   streamlet `process` dominates.
//! * `sessions` — the smallest point of the session-plane ablation
//!   (`repro -- sessions`, `crates/bench/src/sessions.rs`): 100 per-user
//!   sessions stamped from one 3-redirector template, fused, on a 4-worker
//!   pool, carrying 64 B bodies. Per-message overhead spread over many
//!   streams dominates: queues, routing, waking many execution units, the
//!   client's distributor.
//! * `churn` — the session-churn integration test
//!   (`session_churn_races_traffic_and_reconfiguration_without_loss` in
//!   `crates/core/tests/sessions.rs`) on the same template and bodies: 8
//!   survivor sessions carry steady traffic on a 2-worker pool while 4
//!   more are each spawned, carry one message and are torn down. On top of
//!   the per-message path it pays the session lifecycle: deploy, drain,
//!   teardown and §3.3.4 instance-pool reuse.
//!
//! Two choices have no source and are this benchmark's own: the closed
//! loop's window (4 messages in flight for `webaccel`, one per live
//! session for the others), and `churn`'s 64 B bodies where the test sends
//! a few bytes.

use crate::drive::{self, millis, Expect, Input, Outcome, Plan, Slice};
use crate::rig::{Engine, Gateway, Rig};
use crate::stats::{median, quantile, ratio, Metric, Report};
use crate::Args;
use mobigate::core::telemetry::HistogramSnapshot;
use mobigate::core::{CoreError, ExecutorConfig, RunningStream};
use mobigate::streamlets::workload::{image_message, text_message};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["webaccel", "sessions", "churn"];

/// Fresh gateways one run's measured window is split across, so a run's
/// figures do not hang on how one gateway's threads happened to land on
/// the host's cores.
const ROUNDS: usize = 10;

/// Gateway set-ups per round; the last of each carries the round's
/// traffic. `setup_s` is the median of all of them.
const SETUPS_PER_ROUND: usize = 5;

/// Distinct generated inputs per run; messages draw from them.
const INPUTS: usize = 128;

/// Figure 7-7's mix: image side in pixels and text size in bytes.
const IMAGE_SIDE: u16 = 128;
const TEXT_BYTES: usize = 8 * 1024;

/// The session-plane ablation's body size.
const SESSION_BODY_BYTES: usize = 64;

/// The §7.5 web-acceleration composition in its low-bandwidth steady
/// state: the text compressor sits between switch and communicator from
/// the start, where the paper's LOW_BANDWIDTH rule would splice it in. A
/// run measures the accelerator, not the reconfiguration.
const ACCELERATOR: &str = r#"
streamlet gif_switch {
    port { in pi : */*; out po1 : image/gif; out po2 : text; }
    attribute { type = STATELESS; library = "builtin/switch"; }
}
main stream webAccel {
    streamlet sw = new-streamlet (gif_switch);
    streamlet g2j = new-streamlet (gif2jpeg);
    streamlet ds = new-streamlet (img_down_sample);
    streamlet comp = new-streamlet (text_compress);
    streamlet out = new-streamlet (communicator);
    connect (sw.po1, g2j.pi);
    connect (g2j.po, ds.pi);
    connect (ds.po, out.pi);
    connect (sw.po2, comp.pi);
    connect (comp.po, out.pi);
}
"#;

/// The session-plane ablation's 3-redirector template, ending in the
/// communicator that puts it on the link.
const USER_CHAIN: &str = r#"
main stream user {
    streamlet r0 = new-streamlet (redirector);
    streamlet r1 = new-streamlet (redirector);
    streamlet r2 = new-streamlet (redirector);
    streamlet out = new-streamlet (communicator);
    connect (r0.po, r1.pi);
    connect (r1.po, r2.pi);
    connect (r2.po, out.pi);
}
"#;

/// The link-bound `communicator` the scripts end in.
const COMMUNICATOR: &str = r#"
streamlet communicator {
    port { in pi : */*; }
    attribute { type = STATELESS; library = "builtin/communicator"; }
}
"#;

struct Spec {
    engine: Engine,
    /// Stamp sessions from `script` as a template (else deploy it as is).
    template: bool,
    script: &'static str,
    /// Streams live at once.
    streams: usize,
    /// Streams that live for the whole run; each of the others carries one
    /// message and is then replaced.
    survivors: usize,
    inputs: Vec<Input>,
    window: usize,
}

/// Runs the workload `args` names; `None` for an unknown name.
pub fn run(args: &Args) -> Option<Report> {
    let spec = match args.workload.as_str() {
        "webaccel" => Spec {
            // The paper's gateway: a thread per streamlet, no fusion.
            engine: Engine {
                executor: ExecutorConfig::ThreadPerStreamlet,
                fusion: false,
            },
            template: false,
            script: ACCELERATOR,
            streams: 1,
            survivors: 1,
            inputs: webaccel_inputs(args.seed),
            window: 4,
        },
        "sessions" => Spec {
            engine: Engine {
                executor: ExecutorConfig::WorkerPool { workers: 4 },
                fusion: true,
            },
            template: true,
            script: USER_CHAIN,
            streams: 100,
            survivors: 100,
            inputs: text_inputs(args.seed),
            window: 100,
        },
        "churn" => Spec {
            engine: Engine {
                executor: ExecutorConfig::WorkerPool { workers: 2 },
                fusion: true,
            },
            template: true,
            script: USER_CHAIN,
            streams: 12,
            survivors: 8,
            inputs: text_inputs(args.seed),
            window: 12,
        },
        _ => return None,
    };
    Some(run_spec(args, &spec))
}

/// Exactly half images, half texts: a seed changes content, not the mix.
fn webaccel_inputs(seed: u64) -> Vec<Input> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..INPUTS)
        .map(|i| {
            if i % 2 == 0 {
                Input::new(
                    &image_message(&mut rng, IMAGE_SIDE),
                    Expect::Jpeg {
                        side: IMAGE_SIDE / 2,
                    },
                )
            } else {
                let m = text_message(&mut rng, TEXT_BYTES);
                Input::new(&m, Expect::Text(m.body.to_vec()))
            }
        })
        .collect()
}

/// Texts of the session-plane ablation's body size: a seed changes
/// content, not the size.
fn text_inputs(seed: u64) -> Vec<Input> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..INPUTS)
        .map(|_| {
            let m = text_message(&mut rng, SESSION_BODY_BYTES);
            Input::new(&m, Expect::Text(m.body.to_vec()))
        })
        .collect()
}

/// Builds a fresh gateway and deploys the spec's streams on it.
fn set_up(
    spec: &Spec,
    trace: bool,
    out: &mut Outcome,
) -> Result<(Gateway, Vec<Arc<RunningStream>>), CoreError> {
    let script = format!(
        "{}\n{COMMUNICATOR}\n{}",
        mobigate::streamlets::standard_defs(),
        spec.script
    );
    let gateway = Gateway::new(trace, spec.engine, script, spec.template)?;
    let mut streams = Vec::with_capacity(spec.streams);
    for _ in 0..spec.streams {
        out.attempted += 1;
        let t = Instant::now();
        streams.push(gateway.spawn()?);
        out.spawn_ms.push(millis(t.elapsed()));
    }
    Ok((gateway, streams))
}

fn tear_down(gateway: &Gateway, streams: Vec<Arc<RunningStream>>, out: &mut Outcome) {
    for stream in streams {
        out.attempted += 1;
        let t = Instant::now();
        if gateway.teardown(&stream) {
            out.teardown_ms.push(millis(t.elapsed()));
        } else {
            eprintln!("gatebench: teardown of {} failed", stream.session());
            out.failed += 1;
        }
    }
}

fn run_spec(args: &Args, spec: &Spec) -> Report {
    let measure = Duration::from_secs_f64(args.seconds / ROUNDS as f64);
    let mut total = Outcome::default();
    let mut setup_s = Vec::with_capacity(ROUNDS * SETUPS_PER_ROUND);
    let mut layers = Layers::default();
    for round in 0..ROUNDS {
        let mut kept: Option<(Gateway, Vec<Arc<RunningStream>>)> = None;
        for _ in 0..SETUPS_PER_ROUND {
            let t = Instant::now();
            match set_up(spec, args.trace, &mut total) {
                Ok(deployed) => {
                    setup_s.push(t.elapsed().as_secs_f64());
                    // Only the round's last set-up carries traffic.
                    if let Some((old, old_streams)) = kept.replace(deployed) {
                        tear_down(&old, old_streams, &mut total);
                    }
                }
                Err(e) => {
                    eprintln!("gatebench: set-up failed: {e}");
                    total.failed += 1;
                    return report(args, total, &setup_s, layers);
                }
            }
        }
        let (gateway, streams) = kept.expect("SETUPS_PER_ROUND > 0");
        let plan = Plan {
            inputs: &spec.inputs,
            window: spec.window,
            survivors: spec.survivors,
            lifetime: 1,
            warmup: (measure / 10).clamp(Duration::from_millis(200), Duration::from_millis(500)),
            measure,
            seed: args.seed.wrapping_add(round as u64),
        };
        let (out, streams) = drive::run(&gateway, streams, &plan);
        if args.trace {
            layers.add(&gateway.rig);
        }
        total.absorb(out);
        tear_down(&gateway, streams, &mut total);
    }
    report(args, total, &setup_s, layers)
}

/// Counters of the gateway's own telemetry, the link and the client,
/// summed over every round's gateway at the end of its traffic.
#[derive(Default)]
struct Layers {
    process_ns: HistogramSnapshot,
    post_ns: HistogramSnapshot,
    batch_len: HistogramSnapshot,
    queue_drops: u64,
    msgpool_inserts: u64,
    client_delivered: u64,
    instance_hits: u64,
    instance_misses: u64,
    slab_hits: u64,
    slab_misses: u64,
    link_bytes: u64,
    link_frames: u64,
}

impl Layers {
    fn add(&mut self, rig: &Rig) {
        let snap = rig.server().metrics_snapshot().unwrap_or_default();
        let link = rig.link_stats();
        self.process_ns.merge(&snap.totals.process_ns);
        self.post_ns.merge(&snap.totals.post_ns);
        self.batch_len.merge(&snap.totals.batch_len);
        self.queue_drops += snap.totals.dropped_total();
        self.msgpool_inserts += snap.msg_pool.inserted;
        self.client_delivered += rig.client_stats().delivered;
        self.instance_hits += snap.streamlet_pool.hits;
        self.instance_misses += snap.streamlet_pool.misses;
        if let Some(b) = snap.buf_pool {
            self.slab_hits += b.hits;
            self.slab_misses += b.misses;
        }
        self.link_bytes += link.delivered_bytes;
        self.link_frames += link.delivered;
    }
}

fn report(args: &Args, out: Outcome, setup_s: &[f64], layers: Layers) -> Report {
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = if args.trace {
        let [ingress, gateway, link, client] = &out.spans_us;
        vec![
            metric("ingress_us", median(ingress), "us"),
            metric("gateway_us", median(gateway), "us"),
            metric("link_us", median(link), "us"),
            metric("client_us", median(client), "us"),
            metric("streamlet_process_us", layers.process_ns.mean() / 1e3, "us"),
            metric("queue_post_us", layers.post_ns.mean() / 1e3, "us"),
            metric("queue_batch_len", layers.batch_len.mean(), "msg"),
            metric("queue_drops", layers.queue_drops as f64, "count"),
            metric(
                "msgpool_inserts_per_msg",
                ratio(layers.msgpool_inserts, layers.client_delivered),
                "count/msg",
            ),
            metric(
                "instance_pool_hit_ratio",
                ratio(
                    layers.instance_hits,
                    layers.instance_hits + layers.instance_misses,
                ),
                "ratio",
            ),
            metric(
                "membuf_hit_ratio",
                ratio(layers.slab_hits, layers.slab_hits + layers.slab_misses),
                "ratio",
            ),
            metric(
                "link_bytes_per_msg",
                ratio(layers.link_bytes, layers.link_frames),
                "B/msg",
            ),
            metric("session_spawn_ms", median(&out.spawn_ms), "ms"),
            metric("session_teardown_ms", median(&out.teardown_ms), "ms"),
        ]
    } else {
        // Per-slice figures, then their median across slices.
        let across =
            |f: &dyn Fn(&Slice) -> f64| median(&out.slices.iter().map(f).collect::<Vec<_>>());
        vec![
            metric(
                "latency_p50_ms",
                across(&|s| quantile(&s.latency_ms, 0.5)),
                "ms",
            ),
            metric(
                "throughput_mps",
                across(&|s| s.completed as f64 / s.secs),
                "msg/s",
            ),
            metric("setup_s", median(setup_s), "s"),
        ]
    };
    Report {
        correct: out.failed == 0 && out.slices.iter().all(|s| !s.latency_ms.is_empty()),
        attempted: out.attempted,
        failed: out.failed,
        metrics,
    }
}
