//! Regenerates every figure of the thesis's Chapter 7 evaluation.
//!
//! ```text
//! cargo run --release -p mobigate-bench --bin repro -- all
//! cargo run --release -p mobigate-bench --bin repro -- fig7_2
//! cargo run --release -p mobigate-bench --bin repro -- fig7_3 fig7_6
//! cargo run --release -p mobigate-bench --bin repro -- fig7_7 --quick
//! ```
//!
//! Each section prints its tables (and ASCII charts for the figures). A
//! full run (neither `--quick` nor `--smoke`) also writes each section's
//! record as `results/BENCH_<section>.json`; the reduced modes write
//! nothing there, so they never overwrite the committed full-mode
//! records. An unknown section name is an error.

use mobigate::core::pool::PayloadMode;
use mobigate::core::{BatchConfig, ExecutorConfig, ServerConfig};
use mobigate_bench::report::{ascii_series, BenchRecord, Mode, Row, Summary};
use mobigate_bench::roles::{json_number, run_sampled, SampledRun};
use mobigate_bench::{
    channel_post_us, chaos_server_config, end_to_end_point, obs_chain_pair, pool_checkout_ns,
    reconfig_time, run_breaker_probe, run_chaos, run_memplane_chain, run_overload_burst,
    run_scrape_churn, run_sessions, with_quiet_panics, ChainHarness, ChaosConfig, E2EPoint,
    MemplaneChainConfig, ObsChainConfig, OverloadBurstConfig, SessionsConfig, POOLED_LIBRARY,
};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

/// A section's name and the function that runs it.
type Section = (&'static str, fn(Mode));

/// Every section, in the order `all` runs them.
const SECTIONS: &[Section] = &[
    ("fig7_2", fig7_2),
    ("fig7_3", fig7_3),
    ("fig7_6", fig7_6),
    ("eq7_1", eq7_1),
    ("fig7_7", fig7_7),
    ("chaos", chaos),
    ("batching", batching),
    ("fusion", fusion),
    ("sessions", sessions),
    ("obs", obs),
    ("overload", overload),
    ("memplane", memplane),
    ("ablation", ablation),
    ("roles", roles),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = if args.iter().any(|a| a == "--smoke") {
        Mode::Smoke
    } else if args.iter().any(|a| a == "--quick") {
        Mode::Quick
    } else {
        Mode::Full
    };
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if let Some(unknown) = selected
        .iter()
        .find(|s| **s != "all" && !SECTIONS.iter().any(|(name, _)| name == *s))
    {
        let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "repro: unknown section `{unknown}`; valid sections: all {}",
            names.join(" ")
        );
        std::process::exit(2);
    }
    let run_all = selected.is_empty() || selected.contains(&"all");
    for (name, run) in SECTIONS {
        if run_all || selected.contains(name) {
            run(mode);
        }
    }
    if mode == Mode::Full {
        println!("\nResults written under results/");
    } else {
        println!("\nReduced run (--quick/--smoke): nothing written under results/");
    }
}

/// Repeats behind each Figure 7-2/7-3/7-6 shape guard's median.
const GUARD_REPEATS: usize = 5;

/// [`GUARD_REPEATS`] runs of [`ChainHarness::mean_latency`] through `k`
/// redirectors, in µs.
fn latency_us(k: usize, payload: PayloadMode, size: usize, iters: usize) -> Summary {
    let h = ChainHarness::new(k, payload);
    Summary::sample(GUARD_REPEATS, || {
        h.mean_latency(size, iters).as_secs_f64() * 1e6
    })
}

/// Figure 7-2: streamlet overhead — delay vs. number of redirectors.
fn fig7_2(mode: Mode) {
    println!("\n================ Figure 7-2: streamlet overhead ================");
    println!("(paper: linear growth, ≈12 ms per streamlet on 2004 Java/hardware)\n");
    let quick = mode != Mode::Full;
    let counts: &[usize] = if quick {
        &[1, 5, 10]
    } else {
        &[1, 5, 10, 15, 20, 25, 30]
    };
    let iters = if quick { 20 } else { 100 };
    let size = 10 * 1024;
    let mut rec = BenchRecord::new("fig7_2", mode);
    rec.config("message_bytes", size).config("iters", iters);

    let mut pts = Vec::new();
    for &k in counts {
        let h = ChainHarness::new(k, PayloadMode::Reference);
        let us = h.mean_latency(size, iters).as_secs_f64() * 1e6;
        rec.push(
            "latency",
            Row::new()
                .label("streamlets", k)
                .metric("mean_latency_us", us)
                .metric("per_streamlet_us", us / k as f64),
        );
        pts.push((k as f64, us));
    }
    print!(
        "{}",
        ascii_series("delay vs streamlet count", &[("latency", pts)], "µs")
    );

    // Shape guard: 16 redirectors cost more per message than 2, compared
    // on the median of repeated runs so one descheduled run cannot flip it.
    let short = latency_us(2, PayloadMode::Reference, size, 20);
    let long = latency_us(16, PayloadMode::Reference, size, 20);
    for (k, s) in [(2usize, short), (16, long)] {
        rec.push(
            "guard",
            Row::new().label("streamlets", k).metric("latency_us", s),
        );
    }
    assert!(
        long.median > short.median,
        "16 hops ({:.1} µs) must cost more than 2 ({:.1} µs)",
        long.median,
        short.median
    );
    println!(
        "\nchain-length guard: 16 hops {:.1} µs > 2 hops {:.1} µs  [ok]",
        long.median, short.median
    );
    rec.finish();
}

/// Figure 7-3: passing by reference vs. passing by value.
fn fig7_3(mode: Mode) {
    println!("\n========= Figure 7-3: pass by reference vs pass by value =========");
    println!("(paper: reference ≪ value, gap widening beyond ~200 KB messages)\n");
    let quick = mode != Mode::Full;
    let sizes_kb: &[usize] = if quick {
        &[10, 100, 400]
    } else {
        &[10, 50, 100, 200, 400, 800]
    };
    let k = if quick { 10 } else { 30 };
    let iters = if quick { 5 } else { 15 };
    let mut rec = BenchRecord::new("fig7_3", mode);
    rec.config("redirectors", k).config("iters", iters);

    let mut ref_pts = Vec::new();
    let mut val_pts = Vec::new();
    let href = ChainHarness::new(k, PayloadMode::Reference);
    let hval = ChainHarness::new(k, PayloadMode::Value);
    for &kb in sizes_kb {
        let r = href.mean_latency(kb * 1024, iters).as_secs_f64() * 1e6;
        let v = hval.mean_latency(kb * 1024, iters).as_secs_f64() * 1e6;
        rec.push(
            "latency",
            Row::new()
                .label("size_kb", kb)
                .metric("reference_us", r)
                .metric("value_us", v)
                .metric("value_over_reference", v / r),
        );
        ref_pts.push((kb as f64, r));
        val_pts.push((kb as f64, v));
    }
    print!(
        "{}",
        ascii_series(
            &format!("latency through {k} redirectors"),
            &[("pass-by-reference", ref_pts), ("pass-by-value", val_pts)],
            "µs",
        )
    );

    // Shape guard: 400 KB through 10 hops costs more by value than by
    // reference, on the median of repeated runs.
    let by_ref = latency_us(10, PayloadMode::Reference, 400 * 1024, 10);
    let by_val = latency_us(10, PayloadMode::Value, 400 * 1024, 10);
    for (payload, s) in [("reference", by_ref), ("value", by_val)] {
        rec.push(
            "guard",
            Row::new()
                .label("payload", payload)
                .label("size_kb", 400usize)
                .metric("latency_us", s),
        );
    }
    assert!(
        by_val.median > by_ref.median,
        "value {:.1} µs must exceed reference {:.1} µs",
        by_val.median,
        by_ref.median
    );
    println!(
        "\npayload-mode guard: value {:.1} µs > reference {:.1} µs  [ok]",
        by_val.median, by_ref.median
    );
    rec.finish();
}

/// Figure 7-6: reconfiguration overhead vs. number of inserted streamlets.
fn fig7_6(mode: Mode) {
    println!("\n============== Figure 7-6: reconfiguration overhead ==============");
    println!("(paper: <20 ms for 10 streamlets, <100 ms for 100)\n");
    let counts: &[usize] = if mode != Mode::Full {
        &[1, 10, 40]
    } else {
        &[1, 5, 10, 20, 40, 60, 80, 100]
    };
    let runs = 9usize;
    let mut rec = BenchRecord::new("fig7_6", mode);
    rec.config("runs", runs);

    let mut pts = Vec::new();
    for &n in counts {
        // Nine runs per point to tame scheduler noise.
        let stats: Vec<_> = (0..runs).map(|_| reconfig_time(n)).collect();
        let us = |part: fn(&mobigate::core::ReconfigStats) -> Duration| {
            let values: Vec<f64> = stats.iter().map(|s| part(s).as_secs_f64() * 1e6).collect();
            Summary::of(&values)
        };
        let total = us(|s| s.total);
        rec.push(
            "reconfiguration",
            Row::new()
                .label("inserted", n)
                .metric("total_us", total)
                .metric("suspend_us", us(|s| s.suspension_time))
                .metric("channel_us", us(|s| s.channel_time))
                .metric("activate_us", us(|s| s.activation_time)),
        );
        pts.push((n as f64, total.median));
    }
    print!(
        "{}",
        ascii_series("reconfiguration time vs inserts", &[("total", pts)], "µs")
    );

    // Shape guard: 20 inserts cost more than 2, compared on the median of
    // repeated runs so one descheduled run cannot flip it.
    let total_us =
        |n: usize| Summary::sample(GUARD_REPEATS, || reconfig_time(n).total.as_secs_f64() * 1e6);
    let few = total_us(2);
    let many = total_us(20);
    for (n, s) in [(2usize, few), (20, many)] {
        rec.push(
            "guard",
            Row::new().label("inserted", n).metric("total_us", s),
        );
    }
    assert!(
        many.median > few.median,
        "20 inserts ({:.1} µs) must cost more than 2 ({:.1} µs)",
        many.median,
        few.median
    );
    println!(
        "\ninsert-count guard: 20 inserts {:.1} µs > 2 inserts {:.1} µs  [ok]",
        many.median, few.median
    );
    rec.finish();
}

/// Equation 7-1: T = Σ sᵢ + n·c + Σ aᵢ — measured decomposition.
fn eq7_1(mode: Mode) {
    println!("\n===== Equation 7-1: T = Σ suspensions + n·channel-ops + Σ activations =====");
    let mut rec = BenchRecord::new("eq7_1", mode);
    for n in [1usize, 5, 20, 50] {
        let s = reconfig_time(n);
        let comp = s.suspension_time + s.channel_time + s.activation_time;
        rec.push(
            "decomposition",
            Row::new()
                .label("inserted", n)
                .metric("suspensions", s.suspensions)
                .metric("channel_ops", s.channel_ops)
                .metric("activations", s.activations)
                .metric("components_us", comp.as_secs_f64() * 1e6)
                .metric("total_us", s.total.as_secs_f64() * 1e6)
                .metric(
                    "accounted_pct",
                    comp.as_secs_f64() / s.total.as_secs_f64() * 100.0,
                ),
        );
    }
    rec.finish();
}

/// Figure 7-7: end-to-end effectiveness of the MobiGATE system.
fn fig7_7(mode: Mode) {
    println!("\n========== Figure 7-7: MobiGATE end-to-end effectiveness ==========");
    println!("(paper: MobiGATE ≥ direct at all bandwidths; gap grows as bandwidth");
    println!(" drops; TextCompressor auto-inserted below 100 Kb/s)\n");

    let quick = mode != Mode::Full;
    let bandwidths_kbps: &[u64] = if quick {
        &[50, 500, 2000]
    } else {
        &[20, 50, 100, 200, 500, 750, 1000, 2000]
    };
    let delays_ms: &[u64] = if quick { &[0] } else { &[0, 50, 100] };
    let n = if quick { 8 } else { 16 };
    // Scale wall time so the slowest point (20 Kb/s) stays tractable.
    let time_scale = if quick { 0.004 } else { 0.002 };
    let seed = 42;
    let mut rec = BenchRecord::new("fig7_7", mode);
    rec.config("messages", n)
        .config("time_scale", time_scale)
        .config("seed", seed);

    for &delay_ms in delays_ms {
        let delay = Duration::from_millis(delay_ms);
        let mut direct_pts = Vec::new();
        let mut mg_pts = Vec::new();
        for &bw in bandwidths_kbps {
            let bps = bw * 1000;
            // Five runs (odd: each median is one run's reading; stalls
            // come in bursts that can spoil two runs in a row), direct
            // and MobiGATE alternating, so a stall spoils one pair rather
            // than one side of the point.
            let pairs: Vec<_> = (0..5)
                .map(|_| {
                    let d = end_to_end_point(bps, delay, false, n, time_scale, seed);
                    (d, end_to_end_point(bps, delay, true, n, time_scale, seed))
                })
                .collect();
            let summary = |kbps: fn(&(E2EPoint, E2EPoint)) -> f64| {
                Summary::of(&pairs.iter().map(kbps).collect::<Vec<_>>())
            };
            let direct = summary(|(d, _)| d.throughput_kbps);
            let mobigate = summary(|(_, m)| m.throughput_kbps);
            let speedup = summary(|(d, m)| m.throughput_kbps / d.throughput_kbps).median;
            // One seed, so every run puts the same bytes on the link.
            let (d, m) = &pairs[0];
            rec.push(
                "end_to_end",
                Row::new()
                    .label("bandwidth_kbps", bw)
                    .label("delay_ms", delay_ms)
                    .metric("direct_kbps", direct)
                    .metric("mobigate_kbps", mobigate)
                    .metric("speedup", speedup)
                    .metric("link_bytes_direct", d.link_bytes)
                    .metric("link_bytes_mobigate", m.link_bytes),
            );
            direct_pts.push((bw as f64, direct.median));
            mg_pts.push((bw as f64, mobigate.median));
        }
        print!(
            "{}",
            ascii_series(
                &format!("throughput vs bandwidth (delay {delay_ms} ms)"),
                &[("direct", direct_pts), ("mobigate", mg_pts)],
                "Kb/s",
            )
        );
    }
    rec.finish();
}

/// The two back ends the ablations compare, by the name records use.
const EXECUTORS: [(&str, ExecutorConfig); 2] = [
    ("thread_per_streamlet", ExecutorConfig::ThreadPerStreamlet),
    ("worker_pool8", ExecutorConfig::WorkerPool { workers: 8 }),
];

/// Chaos harness: throughput and delivery of the `r0 → fault_injector → r1`
/// chain under injected panic rates, per executor back end. Asserts that
/// supervision keeps ≥99% of the benign load flowing and that poison
/// messages land in the dead-letter queue.
fn chaos(mode: Mode) {
    println!("\n=========== Chaos: delivery under streamlet faults ===========");
    println!("(supervision restarts the faulting injector; poison messages are");
    println!(" evicted to the dead-letter queue; the benign load keeps flowing)");

    let messages = if mode != Mode::Full { 300 } else { 1500 };
    let poison = 3usize;
    let garbage_rate = 0.01;
    let mut rec = BenchRecord::new("chaos", mode);
    rec.config("chain", "r0 -> fault_injector -> r1")
        .config("messages", messages)
        .config("poison_messages", poison)
        .config("garbage_rate", garbage_rate);

    for (exec_name, exec_cfg) in EXECUTORS {
        for rate in [0.0, 0.01, 0.05] {
            let cfg = ChaosConfig {
                server: chaos_server_config(ServerConfig {
                    executor: exec_cfg,
                    ..Default::default()
                }),
                panic_rate: rate,
                garbage_rate,
                messages,
                // Poison only makes sense alongside faults; keep the 0%
                // corner perfectly clean as the baseline.
                poison: if rate > 0.0 { poison } else { 0 },
                seed: 0xC4A05 + (rate * 1000.0) as u64,
                ..Default::default()
            };
            let out = with_quiet_panics(|| run_chaos(&cfg));
            assert!(
                out.delivery_ratio() >= 0.99,
                "{exec_name} rate {rate}: delivered only {}/{}",
                out.delivered,
                out.sent
            );
            assert_eq!(out.quarantined, 0, "restart budget must never exhaust");
            if rate > 0.0 {
                assert_eq!(
                    out.dead_lettered, poison,
                    "{exec_name} rate {rate}: every poison message must be dead-lettered"
                );
            }
            rec.push(
                "faults",
                Row::new()
                    .label("executor", exec_name)
                    .label("panic_rate", rate)
                    .metric("sent", out.sent)
                    .metric("delivered", out.delivered)
                    .metric("delivery_ratio", out.delivery_ratio())
                    .metric("garbage_delivered", out.garbage)
                    .metric("dead_lettered", out.dead_lettered)
                    .metric("faults", out.faults)
                    .metric("restarts", out.restarts)
                    .metric("quarantined", out.quarantined)
                    .metric("throughput_msg_per_s", out.throughput()),
            );
        }
    }
    rec.finish();
}

/// Hot-path batching ablation: pipelined chain throughput (the Figure 7-2
/// redirector chain, kept saturated) under {batch=1, batch=16} × executor
/// back end.
fn batching(mode: Mode) {
    println!("\n========= Ablation: hot-path batching x executor =========");
    println!("(pipelined throughput, every hop busy at once — the workload that");
    println!(" per-message locking and per-message wakeups throttle)");

    let quick = mode != Mode::Full;
    let chain_k = 10;
    let chain_bytes = 10 * 1024;
    // Each sample is a burst of at least this long, so that one
    // descheduling on a shared host cannot move a corner's median.
    let window = Duration::from_millis(if quick { 250 } else { 1000 });
    let runs = if quick { 3 } else { 5 };
    let batch_n = 16;
    let mut rec = BenchRecord::new("batching", mode);
    rec.config("redirectors", chain_k)
        .config("message_bytes", chain_bytes)
        .config("sample_seconds", window.as_secs_f64())
        .config("runs", runs)
        .config("order", "corners interleaved within each run");

    // Every corner's chain is deployed up front; each repeat then samples
    // all four in turn, so slow spells on the host fall on every corner
    // alike instead of on whichever corner ran during them.
    let corners: Vec<(&str, usize, ChainHarness)> = EXECUTORS
        .iter()
        .flat_map(|(exec_name, exec_cfg)| {
            [1, batch_n].map(|batch_max| {
                let cfg = ServerConfig {
                    executor: *exec_cfg,
                    batching: BatchConfig { batch_max },
                    ..Default::default()
                };
                (
                    *exec_name,
                    batch_max,
                    ChainHarness::with_config(chain_k, cfg),
                )
            })
        })
        .collect();
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); corners.len()];
    for _ in 0..runs {
        for ((_, _, harness), samples) in corners.iter().zip(&mut samples) {
            samples.push(harness.throughput_for(chain_bytes, window));
        }
    }

    let summaries: Vec<Summary> = samples.iter().map(|s| Summary::of(s)).collect();
    for ((exec_name, batch_max, _), s) in corners.iter().zip(&summaries) {
        rec.push(
            "throughput",
            Row::new()
                .label("executor", *exec_name)
                .label("batch_max", *batch_max)
                .metric("throughput_msg_per_s", *s),
        );
    }
    // Corners come in (batch 1, batch n) pairs per executor.
    for (pair, s) in corners.chunks(2).zip(summaries.chunks(2)) {
        rec.push(
            "speedup",
            Row::new()
                .label("executor", pair[0].0)
                .metric("batched_over_batch1", s[1].median / s[0].median),
        );
    }
    rec.finish();
}

/// Chain fusion ablation: pipelined throughput of the Figure 7-2 redirector
/// chain with the whole run statically fused into one execution unit vs.
/// the discrete (batched) baseline, per executor back end and chain
/// length — plus a fusion-enabled chaos run proving supervision still
/// holds.
fn fusion(mode: Mode) {
    println!("\n=========== Ablation: chain fusion vs discrete chain ===========");
    println!("(fused: one execution unit runs every redirector back-to-back —");
    println!(" no interior queues, no interior wakeups, no pool round-trips)");

    let quick = mode != Mode::Full;
    let chain_ks: &[usize] = if quick { &[10] } else { &[10, 30] };
    let chain_bytes = 10 * 1024;
    let total = if quick { 400 } else { 2000 };
    let runs = if quick { 3 } else { 5 };
    let mut rec = BenchRecord::new("fusion", mode);
    rec.config("message_bytes", chain_bytes)
        .config("messages_per_burst", total)
        .config("runs", runs);

    for (exec_name, exec_cfg) in EXECUTORS {
        for &k in chain_ks {
            let mut medians = [0.0; 2];
            for (median, fused) in medians.iter_mut().zip([false, true]) {
                let cfg = ServerConfig {
                    executor: exec_cfg,
                    fusion: fused,
                    ..Default::default()
                };
                let harness = ChainHarness::with_config(k, cfg);
                let instances = harness.stream().instance_names().len();
                if fused {
                    assert_eq!(
                        instances, 1,
                        "the whole {k}-redirector run must fuse into one unit"
                    );
                }
                let s = Summary::sample(runs, || harness.throughput(chain_bytes, total));
                *median = s.median;
                rec.push(
                    "throughput",
                    Row::new()
                        .label("executor", exec_name)
                        .label("chain_k", k)
                        .label("fused", fused)
                        .metric("live_instances", instances)
                        .metric("throughput_msg_per_s", s),
                );
            }
            rec.push(
                "speedup",
                Row::new()
                    .label("executor", exec_name)
                    .label("chain_k", k)
                    .metric("fused_over_batched", medians[1] / medians[0]),
            );
        }
    }

    // Chaos with fusion on: fused runs flank the (unfusable, stateful)
    // fault injector; restarts in the discrete middle must leave the
    // fused units flowing.
    let chaos_cfg = ChaosConfig {
        server: chaos_server_config(ServerConfig {
            fusion: true,
            ..Default::default()
        }),
        panic_rate: 0.05,
        garbage_rate: 0.01,
        messages: if quick { 300 } else { 1500 },
        poison: 3,
        pad_redirectors: 2,
        seed: 0xF0510,
        ..Default::default()
    };
    let out = with_quiet_panics(|| run_chaos(&chaos_cfg));
    assert!(
        out.delivery_ratio() >= 0.99,
        "fusion-enabled chaos delivered only {}/{}",
        out.delivered,
        out.sent
    );
    assert_eq!(
        out.quarantined, 0,
        "restart budget must never exhaust under fused chaos"
    );
    rec.push(
        "chaos_with_fusion",
        Row::new()
            .label(
                "chain",
                "r0 -> r1 (fused) -> fault_injector -> r2 -> r3 (fused)",
            )
            .metric("sent", out.sent)
            .metric("delivered", out.delivered)
            .metric("delivery_ratio", out.delivery_ratio())
            .metric("dead_lettered", out.dead_lettered)
            .metric("faults", out.faults)
            .metric("restarts", out.restarts)
            .metric("quarantined", out.quarantined),
    );
    rec.finish();
}

/// Session-plane ablation: one MCL template instantiated as N concurrent
/// per-user sessions, measured for spawn rate, aggregate throughput,
/// steady-state latency, memory and teardown time, with pool-return and
/// thread-leak verification at teardown. Asserts that the worker pool's
/// thread count stays flat across its session scales.
fn sessions(mode: Mode) {
    println!("\n=============== Session plane: N concurrent user streams ===============");
    println!("(one compiled template stamped out per session; name-keyed event lists)");
    let chain_len = 3;
    let payload = 64;
    // Keep total traffic roughly constant as N grows so every point
    // finishes in comparable wall time.
    let total_msgs: usize = mode.pick(20_000, 5_000, 400);
    let workers = 4;
    let wp = ExecutorConfig::WorkerPool { workers };
    let tps = ExecutorConfig::ThreadPerStreamlet;
    // Thread-per-streamlet costs one OS thread per fused unit, blocked on
    // its notifier while idle; past ~1k sessions on a small host spawning
    // and scheduling those threads is the wall the worker-pool executor
    // exists to remove — so the TPS curve stops at 1k and the worker pool
    // carries the 10k point on a flat thread count.
    let points: Vec<(ExecutorConfig, usize)> = mode.pick(
        vec![
            (tps, 100),
            (tps, 1_000),
            (wp, 100),
            (wp, 1_000),
            (wp, 10_000),
        ],
        vec![(tps, 100), (wp, 100), (wp, 1_000)],
        vec![(tps, 25), (wp, 25), (wp, 100)],
    );
    let mut rec = BenchRecord::new("sessions", mode);
    rec.config("chain_len", chain_len)
        .config("fusion", true)
        .config("payload_bytes", payload)
        .config("total_msgs_target", total_msgs)
        .config("workers", workers);

    let mut pooled_extra = Vec::new();
    for (executor, n) in points {
        let out = run_sessions(SessionsConfig {
            sessions: n,
            mode: PayloadMode::Reference,
            chain_len,
            msgs_per_session: (total_msgs / n).max(2),
            payload_bytes: payload,
            executor,
            fusion: true,
            latency_iters: if mode == Mode::Smoke { 5 } else { 20 },
        });
        // Acceptance: zero loss, correct per-session labels, every
        // instance back in the pool, zero residual threads or rows.
        assert!(
            out.delivery_clean(),
            "{} n={} lost messages or mislabeled sessions: injected={} delivered={} label_errors={}",
            out.executor,
            out.sessions,
            out.injected,
            out.delivered,
            out.label_errors
        );
        assert!(
            out.teardown_clean(),
            "{} n={} teardown left residue: threads {}→{} (baseline {}), residual streams {}",
            out.executor,
            out.sessions,
            out.threads_running,
            out.threads_after_teardown,
            out.threads_baseline,
            out.residual_streams
        );
        assert_eq!(
            out.pool_returned_delta,
            (out.sessions * chain_len) as u64,
            "{} n={}: every fused member must return to the pool",
            out.executor,
            out.sessions
        );
        assert_eq!(out.pool_discarded_delta, 0);
        assert_eq!(out.settled_resident_bytes, 0);
        if matches!(executor, ExecutorConfig::WorkerPool { .. }) {
            pooled_extra.push(out.threads_running.saturating_sub(out.threads_baseline));
        }
        rec.push(
            "sessions",
            Row::new()
                .label("executor", out.executor.as_str())
                .label("sessions", out.sessions)
                .metric("spawn_rate_per_s", out.spawn_rate)
                .metric("throughput_msg_per_s", out.throughput_mps)
                .metric("mean_latency_us", out.mean_latency.as_secs_f64() * 1e6)
                .metric("rss_spawn_kib", out.rss_spawn_kib)
                .metric(
                    "rss_kib_per_session",
                    out.rss_spawn_kib as f64 / out.sessions as f64,
                )
                .metric("peak_resident_bytes", out.peak_resident_bytes)
                .metric("injected", out.injected)
                .metric("delivered", out.delivered)
                .metric("label_errors", out.label_errors)
                .metric("threads_baseline", out.threads_baseline)
                .metric("threads_running", out.threads_running)
                .metric("threads_after_teardown", out.threads_after_teardown)
                .metric("torn_down", out.torn_down)
                .metric("teardown_ms", out.teardown.as_secs_f64() * 1e3)
                .metric("pool_returned", out.pool_returned_delta)
                .metric("pool_discarded", out.pool_discarded_delta)
                .metric("residual_streams", out.residual_streams),
        );
    }

    // Thread flatness: the pool's sessions cost no threads of their own,
    // so the threads beyond the baseline stay within the worker count and
    // identical at every pooled scale.
    assert!(
        pooled_extra.iter().all(|&e| e <= workers) && pooled_extra.windows(2).all(|w| w[0] == w[1]),
        "worker-pool threads must stay flat across the session sweep: {pooled_extra:?}"
    );
    rec.finish();
}

/// Observability ablation: telemetry-on vs. telemetry-off chain
/// throughput per executor back end (the ≤5% overhead guard), plus a
/// scrape-under-load point at session scale.
fn obs(mode: Mode) {
    println!("\n=========== Ablation: observability plane on vs off ===========");
    println!("(on: queue/process probes on every channel, trace ring, load-event");
    println!(" watchers armed; off: one `None` branch per instrumented op)");

    let chain_k = 8;
    let chain_bytes = 4 * 1024;
    // One burst shape in every mode, so the CI smoke guard and the
    // recorded run measure the same thing; only the scrape point scales.
    let window = Duration::from_millis(100);
    let runs = 15;
    let mut rec = BenchRecord::new("obs", mode);
    rec.config("chain_k", chain_k)
        .config("message_bytes", chain_bytes)
        .config("sample_seconds", window.as_secs_f64())
        .config("runs", runs);

    for (exec_name, executor) in EXECUTORS {
        let pairs = obs_chain_pair(&ObsChainConfig {
            executor,
            chain_k,
            message_bytes: chain_bytes,
            window,
            runs,
        });
        let side =
            |pick: fn(&(f64, f64)) -> f64| Summary::of(&pairs.iter().map(pick).collect::<Vec<_>>());
        for (telemetry, s) in [(false, side(|p| p.0)), (true, side(|p| p.1))] {
            rec.push(
                "throughput",
                Row::new()
                    .label("executor", exec_name)
                    .label("telemetry", telemetry)
                    .metric("throughput_msg_per_s", s),
            );
        }
        // Each pair ran its two bursts back to back, so its ratio cancels
        // the host's slow spells; the guard reads the median ratio.
        let ratio = side(|(off, on)| on / off);
        rec.push(
            "overhead",
            Row::new()
                .label("executor", exec_name)
                .metric("on_over_off", ratio),
        );
        assert!(
            ratio.median >= 0.95,
            "telemetry-on regressed {exec_name} by more than 5%: median on/off ratio \
             {:.3} over {runs} pairs (IQR {:.3}..{:.3})",
            ratio.median,
            ratio.q1,
            ratio.q3
        );
    }

    // Scrape-under-load: 1k live telemetry-enabled sessions (full mode).
    let scrape = run_scrape_churn(
        mode.pick(1_000, 250, 50),
        ExecutorConfig::WorkerPool { workers: 4 },
    );
    assert_eq!(
        scrape.live_streams_mid, scrape.sessions,
        "every live session must be registered for metrics"
    );
    assert_eq!(
        scrape.live_streams_after, 0,
        "teardown must deregister every session"
    );
    assert!(scrape.round_trips >= 1, "traffic phase must round-trip");
    rec.push(
        "scrape_under_load",
        Row::new()
            .label("sessions", scrape.sessions)
            .metric("spawn_secs", scrape.spawn_secs)
            .metric("scrape_us", scrape.scrape_micros)
            .metric("exposition_bytes", scrape.render_bytes)
            .metric("trace_recorded", scrape.trace_recorded)
            .metric("trace_overwritten", scrape.trace_overwritten)
            .metric("round_trips", scrape.round_trips)
            .metric("live_streams_after_teardown", scrape.live_streams_after),
    );
    rec.finish();
}

/// Overload-protection ablation: a 10× admission-budget burst through N
/// throttled sessions, protected (token-bucket admission) vs. the
/// drop-on-full baseline, per executor back end — plus a circuit-breaker
/// leg proving a transiently faulting instance trips, probes, and closes
/// without burning the restart budget.
fn overload(mode: Mode) {
    println!("\n========= Overload: admission control vs drop-on-full =========");
    println!("(each session offers 10x its admission budget; the throttle bounds");
    println!(" the drain rate, so the baseline's latency grows with the offered");
    println!(" burst while the protected gateway's is bounded by what it admits)");

    // Scaled so the full run carries the 1k-session point on the worker
    // pool while thread-per-streamlet stays at a thread count a small
    // host survives (same split as the sessions ablation).
    let burst = if mode == Mode::Smoke { 50 } else { 100 };
    let throttle = Duration::from_micros(200);
    let sessions = mode.pick([100, 1_000], [50, 200], [8, 16]);
    let mut rec = BenchRecord::new("overload", mode);
    rec.config("burst_per_session", burst)
        .config("burst_over_budget", 10usize)
        .config("throttle_us", throttle.as_secs_f64() * 1e6)
        .config("chain", "session -> throttle -> out");

    for ((exec_name, executor), sessions) in EXECUTORS.into_iter().zip(sessions) {
        let mut p99 = [Duration::ZERO; 2];
        for (p99, protected) in p99.iter_mut().zip([false, true]) {
            let out = run_overload_burst(&OverloadBurstConfig {
                executor,
                sessions,
                burst_per_session: burst,
                throttle,
                protected,
            });
            // Acceptance: the arithmetic closes (offered = delivered +
            // Σ reason-coded drops) and every admitted message delivers.
            assert!(
                out.accounted(),
                "{exec_name} protected={protected}: offered {} != delivered {} + dropped {}",
                out.offered,
                out.delivered,
                out.dropped_total
            );
            assert!(
                out.admitted_delivered(),
                "{exec_name} protected={protected}: admitted {} but delivered {}",
                out.admitted,
                out.delivered
            );
            if protected {
                assert!(
                    out.rejected > 0,
                    "{exec_name}: a 10x burst must overflow the admission budget"
                );
                assert_eq!(
                    out.rejected as u64, out.dropped_admission,
                    "{exec_name}: every rejection must be reason-coded"
                );
            }
            *p99 = out.p99;
            rec.push(
                "burst",
                Row::new()
                    .label("executor", exec_name)
                    .label("protected", protected)
                    .label("sessions", sessions)
                    .metric("offered", out.offered)
                    .metric("admitted", out.admitted)
                    .metric("delivered", out.delivered)
                    .metric("rejected", out.rejected)
                    .metric("dropped_admission", out.dropped_admission)
                    .metric("dropped_full", out.dropped_full)
                    .metric("dropped_total", out.dropped_total)
                    .metric("accounted", out.accounted())
                    .metric("p50_ms", out.p50.as_secs_f64() * 1e3)
                    .metric("p99_ms", out.p99.as_secs_f64() * 1e3)
                    .metric("elapsed_s", out.elapsed.as_secs_f64()),
            );
        }
        // Graceful degradation: the protected p99 for admitted traffic
        // must beat the baseline's, which queues the whole 10x burst.
        let [base, prot] = p99;
        assert!(
            prot < base,
            "{exec_name}: protected p99 {prot:?} must be below baseline p99 {base:?}"
        );
    }

    // Circuit-breaker leg, both executors.
    let follow_up = if mode == Mode::Smoke { 5 } else { 20 };
    for (exec_name, executor) in EXECUTORS {
        let out = with_quiet_panics(|| run_breaker_probe(executor, follow_up));
        assert!(out.trips >= 1, "{exec_name}: the breaker must trip");
        assert_eq!(
            out.quarantined, 0,
            "{exec_name}: the breaker must trip before the restart budget exhausts"
        );
        assert_eq!(
            out.delivered, out.offered,
            "{exec_name}: the probe must recover the stream"
        );
        rec.push(
            "breaker",
            Row::new()
                .label("executor", exec_name)
                .metric("trips", out.trips)
                .metric("restarts", out.restarts)
                .metric("quarantined", out.quarantined)
                .metric("offered", out.offered)
                .metric("delivered", out.delivered),
        );
    }
    rec.finish();
}

/// Memory-plane ablation: allocations per message through a pure
/// pass-through chain (counting global allocator) and session-scale
/// throughput, each with the memory plane on (`Reference` payloads +
/// recycled slab pool) vs. the pre-memory-plane baseline (`Value`
/// deep copies, no slab pool).
fn memplane(mode: Mode) {
    println!("\n============ Ablation: zero-copy memory plane on vs off ============");
    println!("(on: recycled ingress slabs, CoW bodies/headers, reused scratch;");
    println!(" off: Value deep copies per hop, plain allocation at ingress)\n");

    // --- Part 1: allocs/msg through the pass-through chain. ---
    let chains: &[usize] = if mode == Mode::Smoke {
        &[4]
    } else {
        &[1, 2, 4, 8]
    };
    let alloc_msgs: usize = mode.pick(2_048, 512, 128);
    let alloc_payload = 4 * 1024;
    // --- Part 2: throughput at session scale on the worker pool. ---
    let chain_len = 4;
    let payload = 16 * 1024;
    let workers = 4;
    let total_msgs: usize = mode.pick(20_000, 4_000, 400);
    let mut rec = BenchRecord::new("memplane", mode);
    rec.config("alloc_payload_bytes", alloc_payload)
        .config("alloc_msgs", alloc_msgs)
        .config("alloc_library", "builtin/forward")
        .config("sessions_chain_len", chain_len)
        .config("sessions_payload_bytes", payload)
        .config("sessions_fusion", true)
        .config("sessions_total_msgs_target", total_msgs)
        .config("workers", workers);

    // Chains run shortest first, so the last ratio is the headline's.
    let mut head_ratio = 0.0;
    for &k in chains {
        let run = |memplane| {
            run_memplane_chain(MemplaneChainConfig {
                chain_len: k,
                payload_bytes: alloc_payload,
                msgs: alloc_msgs,
                memplane,
            })
        };
        let base = run(false);
        let mem = run(true);
        head_ratio = base.allocs_per_msg / mem.allocs_per_msg.max(f64::MIN_POSITIVE);
        rec.push(
            "allocs",
            Row::new()
                .label("chain_len", k)
                .metric("baseline_allocs_per_msg", base.allocs_per_msg)
                .metric("memplane_allocs_per_msg", mem.allocs_per_msg)
                .metric("alloc_ratio", head_ratio)
                .metric("baseline_roundtrip_mps", base.roundtrip_mps)
                .metric("memplane_roundtrip_mps", mem.roundtrip_mps),
        );
    }

    // Acceptance guard: at the headline (longest) chain the memory plane
    // removes at least 5x the allocation churn.
    let head_k = chains[chains.len() - 1];
    assert!(
        head_ratio >= 5.0,
        "memory plane must cut allocs/msg by >=5x on the k={head_k} pass-through \
         chain, got {head_ratio:.2}x"
    );
    println!("allocs/msg guard: {head_ratio:.1}x >= 5x at k={head_k}  [ok]");

    let wp = ExecutorConfig::WorkerPool { workers };
    let label = "worker-pool";
    let scales = if mode == Mode::Smoke {
        [100, 1_000]
    } else {
        [1_000, 10_000]
    };
    let headline_sessions = scales[1];
    let run = |n: usize, payload_mode: PayloadMode| {
        let out = run_sessions(SessionsConfig {
            sessions: n,
            mode: payload_mode,
            chain_len,
            msgs_per_session: (total_msgs / n).max(2),
            payload_bytes: payload,
            executor: wp,
            fusion: true,
            latency_iters: if mode == Mode::Smoke { 5 } else { 20 },
        });
        assert!(
            out.delivery_clean(),
            "{} n={} lost messages: injected={} delivered={}",
            out.executor,
            out.sessions,
            out.injected,
            out.delivered
        );
        out
    };

    // Scales run smallest first, so the last ratio is the headline's.
    let mut headline_ratio = 0.0;
    for n in scales {
        let base = run(n, PayloadMode::Value);
        // Best-of-3 against scheduler jitter at the guarded point.
        let mut mem = run(n, PayloadMode::Reference);
        if n == headline_sessions {
            for _ in 0..2 {
                if mem.throughput_mps >= 1.15 * base.throughput_mps {
                    break;
                }
                let retry = run(n, PayloadMode::Reference);
                if retry.throughput_mps > mem.throughput_mps {
                    mem = retry;
                }
            }
        }
        headline_ratio = mem.throughput_mps / base.throughput_mps;
        rec.push(
            "throughput",
            Row::new()
                .label("executor", label)
                .label("sessions", n)
                .metric("baseline_msg_per_s", base.throughput_mps)
                .metric("memplane_msg_per_s", mem.throughput_mps)
                .metric("throughput_ratio", headline_ratio)
                .metric("baseline_latency_us", base.mean_latency.as_secs_f64() * 1e6)
                .metric("memplane_latency_us", mem.mean_latency.as_secs_f64() * 1e6),
        );
    }

    // Acceptance guard: at the headline scale the memory plane gains
    // >=1.15x throughput.
    assert!(
        headline_ratio >= 1.15,
        "memory plane must gain >=1.15x throughput at n={headline_sessions} on the \
         {label}; got {headline_ratio:.3}x"
    );
    println!(
        "throughput guard: {headline_ratio:.3}x >= 1.15x at n={headline_sessions} ({label})  [ok]"
    );
    rec.finish();
}

/// The paper-claim ablations: streamlet pooling (§3.3.4) and sync vs.
/// async channels. Each repeat measures all four corners in turn.
/// Asserts that a sync rendezvous costs more per message than an async
/// post+fetch; pooling gets no guard (see EXPERIMENTS.md).
fn ablation(mode: Mode) {
    println!("\n=========== Ablation: streamlet pooling, sync vs async channels ===========");
    println!("(pooling: checkout+checkin of {POOLED_LIBRARY}, reused vs built afresh;");
    println!(" channels: a rendezvous post taken by a consumer thread vs post+fetch)");

    let (repeats, iters) = mode.pick((9, 20_000), (5, 2_000), (5, 2_000));
    let mut rec = BenchRecord::new("ablation", mode);
    rec.config("repeats", repeats)
        .config("iters", iters)
        .config("library", POOLED_LIBRARY);

    let mut samples = [(); 4].map(|()| Vec::with_capacity(repeats));
    for _ in 0..repeats {
        samples[0].push(pool_checkout_ns(true, iters));
        samples[1].push(pool_checkout_ns(false, iters));
        samples[2].push(channel_post_us(false, iters));
        samples[3].push(channel_post_us(true, iters));
    }
    let [pooled, fresh, async_us, sync_us] = samples.map(|s| Summary::of(&s));
    for (pool, s) in [("pooled", pooled), ("fresh", fresh)] {
        rec.push(
            "pooling",
            Row::new()
                .label("pool", pool)
                .metric("checkout_checkin_ns", s),
        );
    }
    for (channel, s) in [
        ("async_post_fetch", async_us),
        ("sync_rendezvous_post", sync_us),
    ] {
        rec.push(
            "channels",
            Row::new().label("channel", channel).metric("us_per_msg", s),
        );
    }
    println!(
        "\npooling: pooled {:.0} ns vs fresh {:.0} ns per checkout+checkin \
         (fresh/pooled {:.2}; recorded, not guarded)",
        pooled.median,
        fresh.median,
        fresh.median / pooled.median
    );
    assert!(
        sync_us.median > async_us.median,
        "a sync rendezvous ({:.2} µs) must cost more per message than async post+fetch \
         ({:.2} µs)",
        sync_us.median,
        async_us.median
    );
    println!(
        "channel guard: sync {:.2} µs > async {:.2} µs per message  [ok]",
        sync_us.median, async_us.median
    );
    rec.finish();
}

/// The gatebench manifest, relative to the repository root `repro` runs
/// from.
const GATEBENCH_MANIFEST: &str = "gatebench/Cargo.toml";

/// Builds the gatebench binary as `BENCHMARK.json`'s command does and
/// returns its path.
fn build_gatebench() -> PathBuf {
    assert!(
        std::path::Path::new(GATEBENCH_MANIFEST).exists(),
        "{GATEBENCH_MANIFEST} not found: run repro from the repository root"
    );
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(GATEBENCH_MANIFEST)
        .status()
        .expect("run cargo build");
    assert!(status.success(), "building gatebench failed: {status}");
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("gatebench/target"), PathBuf::from);
    target.join("release").join("mobigate-gatebench")
}

/// Per-thread-role cost of the declared benchmark: gatebench runs as a
/// child process while its threads are sampled from `/proc` every 50 ms.
/// Each role's CPU time and voluntary and involuntary switches are
/// divided by the run's `attempted` operations; the whole child's CPU
/// per operation comes from `cutime`+`cstime`. Asserts that every run
/// is correct and that the samples cover at least 85% of the child's
/// CPU time.
fn roles(mode: Mode) {
    println!("\n=========== Thread roles: CPU and switches per operation ===========");
    println!("(gatebench as a child process; /proc/<child>/task/* sampled every 50 ms,");
    println!(" summed by thread name without its `-<n>`; `main` is gatebench's first thread)");
    const PERIOD: Duration = Duration::from_millis(50);
    const MIN_COVERAGE: f64 = 0.85;
    let all: &[&str] = &["webaccel", "sessions", "churn"];
    let (workloads, runs, seconds) =
        mode.pick((all, 3usize, 10usize), (all, 1, 3), (&["sessions"], 1, 1));
    let mut rec = BenchRecord::new("roles", mode);
    rec.config("runs", runs)
        .config("seconds", seconds)
        .config("trace", 0usize)
        .config("sample_period_ms", PERIOD.as_millis() as u64);
    let binary = build_gatebench();

    for &workload in workloads {
        let mut sampled: Vec<(SampledRun, f64)> = Vec::new();
        for run in 0..runs {
            let seed = 1 + run;
            let mut cmd = Command::new(&binary);
            cmd.args(["--workload", workload, "--trace", "0"])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()]);
            let out = run_sampled(cmd, PERIOD)
                .unwrap_or_else(|e| panic!("gatebench --workload {workload}: {e}"));
            assert!(
                out.last_line.contains("\"correct\": true"),
                "gatebench --workload {workload} --seed {seed} was not correct: {}",
                out.last_line
            );
            let attempted = json_number(&out.last_line, "attempted")
                .filter(|&n| n > 0.0)
                .unwrap_or_else(|| panic!("no `attempted` in: {}", out.last_line));
            assert!(
                out.coverage() >= MIN_COVERAGE,
                "{workload} seed {seed}: samples cover {:.1}% of the child's CPU time \
                 ({:.2} of {:.2} s); at least {:.0}% expected",
                100.0 * out.coverage(),
                out.total().cpu_s,
                out.child_cpu_s,
                100.0 * MIN_COVERAGE
            );
            sampled.push((out, attempted));
        }

        // One cell per metric: its summary over the runs, each run's value
        // computed from the run and its `attempted` count.
        let over_runs = |f: &dyn Fn(&SampledRun, f64) -> f64| {
            Summary::of(&sampled.iter().map(|(r, n)| f(r, *n)).collect::<Vec<_>>())
        };
        // A role missing from a run (no distributor thread started, say)
        // used nothing in it.
        let names: BTreeSet<&String> = sampled.iter().flat_map(|(r, _)| r.roles.keys()).collect();
        for name in names {
            let role = |r: &SampledRun| r.roles.get(name).copied().unwrap_or_default();
            rec.push(
                "roles",
                Row::new()
                    .label("workload", workload)
                    .label("role", name.as_str())
                    .metric("cpu_us_per_op", over_runs(&|r, n| role(r).cpu_s * 1e6 / n))
                    .metric(
                        "voluntary_per_op",
                        over_runs(&|r, n| role(r).voluntary as f64 / n),
                    )
                    .metric(
                        "involuntary_per_op",
                        over_runs(&|r, n| role(r).involuntary as f64 / n),
                    )
                    .metric("threads", over_runs(&|r, _| role(r).threads as f64)),
            );
        }
        let end_to_end = |key: &str| {
            over_runs(&|r, _| {
                json_number(&r.last_line, key)
                    .unwrap_or_else(|| panic!("no `{key}` in: {}", r.last_line))
            })
        };
        rec.push(
            "process",
            Row::new()
                .label("workload", workload)
                .metric("cpu_us_per_op", over_runs(&|r, n| r.child_cpu_s * 1e6 / n))
                .metric("sampled_coverage", over_runs(&|r, _| r.coverage()))
                .metric(
                    "voluntary_per_op",
                    over_runs(&|r, n| r.total().voluntary as f64 / n),
                )
                .metric(
                    "involuntary_per_op",
                    over_runs(&|r, n| r.total().involuntary as f64 / n),
                )
                .metric("latency_p50_ms", end_to_end("latency_p50_ms"))
                .metric("throughput_mps", end_to_end("throughput_mps")),
        );
    }
    println!(
        "\ncoverage guard: every run's samples cover >= {:.0}% of its CPU time  [ok]",
        100.0 * MIN_COVERAGE
    );
    rec.finish();
}
