//! Session-plane harness: one MCL template stamped out as N concurrent
//! per-user sessions (ROADMAP item: the "millions of users" axis).
//!
//! Each point deploys a gateway, builds a [`SessionManager`] from one
//! k-redirector chain script, spawns N sessions, drives round-robin
//! traffic with per-session delivery verification (every output must
//! carry its own session's `Content-Session`), probes per-session
//! latency at steady state, samples memory, and finally tears everything
//! down checking that the §3.3.4 pool got its instances back and no
//! executor threads leaked.

use mobigate::core::pool::PayloadMode;
use mobigate::core::{
    ExecutorConfig, MobiGate, RunningStream, ServerConfig, SessionManager, StreamletDirectory,
    StreamletPool,
};
use mobigate::mime::{MimeMessage, MimeType};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured configuration of the sessions ablation.
#[derive(Debug, Clone, Copy)]
pub struct SessionsConfig {
    /// Concurrent sessions to spawn.
    pub sessions: usize,
    /// Payload passing mode: `Reference` is the production path (pool
    /// refs + copy-on-write bodies); `Value` is the Figure 7-3 deep-copy
    /// baseline the memplane ablation measures against.
    pub mode: PayloadMode,
    /// Redirectors per session chain.
    pub chain_len: usize,
    /// Messages driven through every session.
    pub msgs_per_session: usize,
    /// Message body size in bytes.
    pub payload_bytes: usize,
    /// Execution back end.
    pub executor: ExecutorConfig,
    /// Chain fusion on/off (on is the session plane's intended mode: an
    /// idle session then costs one parked execution unit, not k).
    pub fusion: bool,
    /// Round-trip samples for the steady-state latency probe.
    pub latency_iters: usize,
}

/// Everything one point measures.
#[derive(Debug, Clone)]
pub struct SessionsOutcome {
    /// Concurrent sessions the point ran.
    pub sessions: usize,
    /// Executor label ("thread-per-streamlet" / "worker-pool").
    pub executor: String,
    /// Wall-clock seconds to spawn all sessions.
    pub spawn_secs: f64,
    /// Sessions instantiated per second.
    pub spawn_rate: f64,
    /// Aggregate delivered messages per second during the traffic phase.
    pub throughput_mps: f64,
    /// Mean single-message round-trip on one session while the other
    /// N − 1 sit idle.
    pub mean_latency: Duration,
    /// Messages injected across all sessions.
    pub injected: u64,
    /// Messages delivered across all sessions.
    pub delivered: u64,
    /// Outputs whose `Content-Session` did not match their session.
    pub label_errors: u64,
    /// RSS delta attributable to the spawned sessions (KiB).
    pub rss_spawn_kib: i64,
    /// Peak sum of per-stream resident bytes observed mid-traffic
    /// (`StreamStats::resident_bytes`, the new memory accounting).
    pub peak_resident_bytes: u64,
    /// Sum of per-stream resident bytes after the drain (must be 0 at
    /// steady state: nothing stuck in channels or overflow buffers).
    pub settled_resident_bytes: u64,
    /// Threads before spawning any session.
    pub threads_baseline: usize,
    /// Threads while all sessions were up.
    pub threads_running: usize,
    /// Threads after teardown (must equal the baseline).
    pub threads_after_teardown: usize,
    /// Sessions torn down.
    pub torn_down: usize,
    /// Wall time of tearing every session down (`teardown_all`).
    pub teardown: Duration,
    /// Pool checkins during teardown.
    pub pool_returned_delta: u64,
    /// Pool checkins dropped by the idle cap during teardown (0 when the
    /// pool is sized to the population).
    pub pool_discarded_delta: u64,
    /// Live streams the coordination plane still tracks after teardown.
    pub residual_streams: usize,
}

impl SessionsOutcome {
    /// Zero loss and correct per-session labeling.
    pub fn delivery_clean(&self) -> bool {
        self.injected == self.delivered && self.label_errors == 0
    }

    /// Teardown returned every instance and left no thread behind.
    pub fn teardown_clean(&self) -> bool {
        self.threads_after_teardown == self.threads_baseline && self.residual_streams == 0
    }
}

/// The k-redirector template script every session instantiates.
pub fn chain_script(k: usize) -> String {
    let mut script = String::from(
        "streamlet redirector {\n\
         port { in pi : */*; out po : */*; }\n\
         attribute { type = STATELESS; library = \"builtin/redirector\"; }\n}\n\
         main stream app {\n",
    );
    for i in 0..k {
        let _ = writeln!(script, "streamlet r{i} = new-streamlet (redirector);");
    }
    for i in 1..k {
        let _ = writeln!(script, "connect (r{}.po, r{}.pi);", i - 1, i);
    }
    script.push('}');
    script
}

/// OS threads of this process (Linux); 0 where /proc is unavailable.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// Resident set size in KiB (Linux); 0 where /proc is unavailable.
pub fn rss_kib() -> i64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|pages| pages.parse::<i64>().ok())
        })
        .map(|pages| pages * (page_size_kib()))
        .unwrap_or(0)
}

fn page_size_kib() -> i64 {
    // All supported targets use 4 KiB pages; /proc reports in pages.
    4
}

/// Runs one full session-plane point: spawn → verify traffic → latency →
/// memory → teardown.
pub fn run_sessions(cfg: SessionsConfig) -> SessionsOutcome {
    let executor_label = match cfg.executor {
        ExecutorConfig::ThreadPerStreamlet => "thread-per-streamlet",
        ExecutorConfig::WorkerPool { .. } => "worker-pool",
    };
    // Pool sized so teardown checkins are never discarded: every session
    // can return its full chain.
    let pool = Arc::new(StreamletPool::new(cfg.sessions * cfg.chain_len + 8));
    let server = MobiGate::with_config(
        ServerConfig {
            mode: cfg.mode,
            executor: cfg.executor,
            fusion: cfg.fusion,
            ..Default::default()
        },
        Arc::new(StreamletDirectory::new()),
        pool.clone(),
    );
    mobigate_streamlets::register_builtins(server.directory());
    let manager: SessionManager = server
        .session_manager(&chain_script(cfg.chain_len))
        .expect("session template");

    let threads_baseline = thread_count();
    let rss_before = rss_kib();

    // --- spawn ----------------------------------------------------------
    let t0 = Instant::now();
    let streams: Vec<Arc<RunningStream>> =
        manager.spawn_many(cfg.sessions).expect("spawn sessions");
    let spawn_secs = t0.elapsed().as_secs_f64();
    let threads_running = thread_count();
    let rss_after_spawn = rss_kib();

    // --- traffic with per-session verification --------------------------
    let body = vec![0x5Au8; cfg.payload_bytes];
    let msg = MimeMessage::new(&MimeType::new("application", "octet-stream"), body);
    let t1 = Instant::now();
    for _ in 0..cfg.msgs_per_session {
        for s in &streams {
            s.post_input(msg.clone()).expect("post");
        }
    }
    // Sample in-flight memory while queues are loaded (before the drain
    // empties them).
    let peak_resident_bytes: u64 = streams
        .iter()
        .take(2048)
        .map(|s| s.stats().resident_bytes())
        .sum();
    let mut delivered: u64 = 0;
    let mut label_errors: u64 = 0;
    for s in &streams {
        for _ in 0..cfg.msgs_per_session {
            match s.take_output(Duration::from_secs(60)) {
                Some(out) => {
                    delivered += 1;
                    if out
                        .session()
                        .map(|sess| sess != *s.session())
                        .unwrap_or(true)
                    {
                        label_errors += 1;
                    }
                }
                None => break,
            }
        }
    }
    let traffic_secs = t1.elapsed().as_secs_f64().max(1e-9);
    let injected: u64 = streams.iter().map(|s| s.stats().injected).sum();
    let throughput_mps = delivered as f64 / traffic_secs;
    let settled_resident_bytes: u64 = streams.iter().map(|s| s.stats().resident_bytes()).sum();

    // --- steady-state latency probe --------------------------------------
    let probe = &streams[0];
    let mut total = Duration::ZERO;
    for _ in 0..cfg.latency_iters.max(1) {
        let t = Instant::now();
        probe.post_input(msg.clone()).expect("post");
        probe
            .take_output(Duration::from_secs(30))
            .expect("latency probe output");
        total += t.elapsed();
    }
    let mean_latency = total / cfg.latency_iters.max(1) as u32;

    // --- teardown --------------------------------------------------------
    let pool_before = pool.stats();
    drop(streams);
    let t2 = Instant::now();
    let torn_down = manager.teardown_all();
    let teardown = t2.elapsed();
    let pool_after = pool.stats();
    // Give TPS worker threads a moment to observe `end` and exit.
    let deadline = Instant::now() + Duration::from_secs(30);
    while thread_count() > threads_baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let threads_after_teardown = thread_count();
    let residual_streams = server.coordination().stream_count();

    SessionsOutcome {
        sessions: cfg.sessions,
        executor: executor_label.to_string(),
        spawn_secs,
        spawn_rate: cfg.sessions as f64 / spawn_secs.max(1e-9),
        throughput_mps,
        mean_latency,
        injected,
        delivered,
        label_errors,
        rss_spawn_kib: rss_after_spawn - rss_before,
        peak_resident_bytes,
        settled_resident_bytes,
        threads_baseline,
        threads_running,
        threads_after_teardown,
        torn_down,
        teardown,
        pool_returned_delta: pool_after.returned - pool_before.returned,
        pool_discarded_delta: pool_after.discarded - pool_before.discarded,
        residual_streams,
    }
}
