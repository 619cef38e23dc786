//! Observability-plane ablation harness: what does telemetry cost on the
//! hot path, and what does a scrape cost at session scale?
//!
//! Two measurements back `repro -- obs`:
//!
//! * **chain overhead** — pipelined throughput of the Figure 7-2
//!   redirector chain with `ServerConfig { telemetry }` off vs. on
//!   (probes installed on every channel, the load-event watchers armed
//!   at their default thresholds), per executor back end. The acceptance bar
//!   is ≤5% regression on the median of the per-pair on/off ratios: the
//!   enabled path is relaxed atomics plus one branch per operation, and
//!   the disabled path is a `None` check.
//! * **scrape under load** — a gateway holding N live sessions is
//!   scraped (`metrics_snapshot` + Prometheus render) while traffic
//!   flows; the point records scrape latency, exposition size, and the
//!   trace ring's accounting, then tears every session down and checks
//!   the registry drained.

use crate::chain::ChainHarness;
use crate::sessions::chain_script;
use mobigate::core::{
    ExecutorConfig, MobiGate, ServerConfig, StreamletDirectory, StreamletPool, TelemetryConfig,
};
use mobigate::mime::{MimeMessage, MimeType};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One executor's chain-overhead measurement (off vs. on).
#[derive(Debug, Clone, Copy)]
pub struct ObsChainConfig {
    /// Execution back end.
    pub executor: ExecutorConfig,
    /// Redirectors in the chain.
    pub chain_k: usize,
    /// Message body size in bytes.
    pub message_bytes: usize,
    /// How long each throughput burst lasts at least.
    pub window: Duration,
    /// Burst pairs to run.
    pub runs: usize,
}

/// Pipelined throughput of each burst pair as `(telemetry_off,
/// telemetry_on)` msg/s. Both deployments are built once and each pair
/// runs its two bursts back to back, so scheduler drift (this may be a
/// one-core box) hits both sides of a pair alike; a pair's on/off ratio
/// is one overhead sample.
pub fn obs_chain_pair(cfg: &ObsChainConfig) -> Vec<(f64, f64)> {
    let build = |telemetry: bool| {
        ChainHarness::with_config(
            cfg.chain_k,
            ServerConfig {
                executor: cfg.executor,
                telemetry: if telemetry {
                    TelemetryConfig::enabled()
                } else {
                    TelemetryConfig::default()
                },
                ..Default::default()
            },
        )
    };
    let off = build(false);
    let on = build(true);
    let burst = |h: &ChainHarness| h.throughput_for(cfg.message_bytes, cfg.window);
    (0..cfg.runs)
        .map(|i| {
            // Alternate which side goes first, so that whatever the first
            // burst of a pair gains or loses falls on both sides alike.
            if i % 2 == 0 {
                let off = burst(&off);
                (off, burst(&on))
            } else {
                let on = burst(&on);
                (burst(&off), on)
            }
        })
        .collect()
}

/// What the scrape-under-load point measures.
#[derive(Debug, Clone)]
pub struct ScrapeOutcome {
    /// Live sessions during the scrape phase.
    pub sessions: usize,
    /// Wall-clock seconds to spawn them all (telemetry registration on
    /// the deploy path included).
    pub spawn_secs: f64,
    /// Mean `metrics_snapshot()` + `render_prometheus()` latency with
    /// all sessions live, microseconds.
    pub scrape_micros: f64,
    /// Bytes of the rendered Prometheus exposition.
    pub render_bytes: usize,
    /// Live streams the registry reported mid-scrape (must equal
    /// `sessions`).
    pub live_streams_mid: usize,
    /// Live streams after `teardown_all` (must be 0).
    pub live_streams_after: usize,
    /// Lifecycle trace events recorded over the whole run.
    pub trace_recorded: u64,
    /// Trace events lost to ring overwrite.
    pub trace_overwritten: u64,
    /// Messages round-tripped during the traffic phase.
    pub round_trips: usize,
}

/// Spawns `sessions` telemetry-enabled sessions, drives traffic on a
/// rotating subset, scrapes the registry while everything is live, and
/// tears it all down.
pub fn run_scrape_churn(sessions: usize, executor: ExecutorConfig) -> ScrapeOutcome {
    let directory = Arc::new(StreamletDirectory::new());
    let gate = MobiGate::with_config(
        ServerConfig {
            executor,
            fusion: true,
            telemetry: TelemetryConfig::enabled(),
            ..Default::default()
        },
        directory,
        Arc::new(StreamletPool::new(sessions.max(64))),
    );
    mobigate_streamlets::register_builtins(gate.directory());
    let manager = gate.session_manager(&chain_script(3)).expect("template");

    let t0 = Instant::now();
    let streams = manager.spawn_many(sessions).expect("spawn sessions");
    let spawn_secs = t0.elapsed().as_secs_f64();

    // Traffic on a rotating subset so counters move on many keys without
    // the point degenerating into a throughput benchmark.
    let subset = sessions.clamp(1, 64);
    let body = vec![0x5Au8; 64];
    let msg = MimeMessage::new(&MimeType::new("application", "octet-stream"), body);
    let mut round_trips = 0usize;
    for s in streams.iter().step_by(sessions.div_ceil(subset).max(1)) {
        s.post_input(msg.clone()).expect("post");
        s.take_output(Duration::from_secs(20)).expect("round trip");
        round_trips += 1;
    }

    // Scrape with every session live.
    let scrapes = 10;
    let mut render_bytes = 0usize;
    let mut live_streams_mid = 0usize;
    let t1 = Instant::now();
    for _ in 0..scrapes {
        let m = gate.metrics_snapshot().expect("telemetry on");
        let text = m.render_prometheus();
        render_bytes = text.len();
        live_streams_mid = m.live_streams;
    }
    let scrape_micros = t1.elapsed().as_secs_f64() * 1e6 / scrapes as f64;

    drop(streams);
    manager.teardown_all();
    let m = gate.metrics_snapshot().expect("telemetry on");
    ScrapeOutcome {
        sessions,
        spawn_secs,
        scrape_micros,
        render_bytes,
        live_streams_mid,
        live_streams_after: m.live_streams,
        trace_recorded: m.trace_recorded,
        trace_overwritten: m.trace_overwritten,
        round_trips,
    }
}
