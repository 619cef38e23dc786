//! The session plane's teardown check, alone in its own process.
//!
//! `SessionsOutcome::teardown_clean` compares the process-wide thread count
//! (`/proc/self/task`) after teardown with the count before the sessions
//! spawned. Tests in one binary share a process and run concurrently, so a
//! sibling test starting or stopping threads would move that count. Keep
//! this the only test in this file.

use mobigate::core::pool::PayloadMode;
use mobigate::core::ExecutorConfig;
use mobigate_bench::{run_sessions, SessionsConfig};

#[test]
fn small_session_plane_round_trips_cleanly() {
    let out = run_sessions(SessionsConfig {
        sessions: 8,
        mode: PayloadMode::Reference,
        chain_len: 3,
        msgs_per_session: 4,
        payload_bytes: 64,
        executor: ExecutorConfig::WorkerPool { workers: 2 },
        fusion: true,
        latency_iters: 2,
    });
    assert!(out.delivery_clean(), "{out:?}");
    assert!(out.teardown_clean(), "{out:?}");
    assert_eq!(out.torn_down, 8);
    assert_eq!(out.settled_resident_bytes, 0, "{out:?}");
}
