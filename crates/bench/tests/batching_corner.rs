//! Saturation probe for the batching ablation corners: drives pipelined
//! bursts through the 10-redirector chain and requires every message to
//! come out the far end — no drops, no stalls — under worker-pool
//! backpressure (the corner where blocking posts used to starve the
//! pool) and on thread-per-streamlet, at batch 1 and batch 16.
//!
//! Not part of the acceptance suite — run manually with
//! `cargo test -p mobigate-bench --release --test batching_corner -- --ignored --nocapture`.

use mobigate::core::pool::PayloadMode;
use mobigate::core::{BatchConfig, ExecutorConfig, ServerConfig};
use mobigate::mime::{MimeMessage, MimeType};
use mobigate_bench::chain::ChainHarness;
use std::time::{Duration, Instant};

fn corner(exec: ExecutorConfig, batch_max: usize) {
    let h = ChainHarness::with_config(
        10,
        ServerConfig {
            mode: PayloadMode::Reference,
            executor: exec,
            batching: BatchConfig { batch_max },
            ..Default::default()
        },
    );
    for run in 0..3 {
        let total = 400usize;
        let body = vec![0x5Au8; 10 * 1024];
        let msg = MimeMessage::new(&MimeType::new("application", "octet-stream"), body);
        let stream = h.stream().clone();
        let t0 = Instant::now();
        let producer = std::thread::spawn(move || {
            for _ in 0..total {
                stream.post_input(msg.clone()).expect("post");
            }
        });
        let mut got = 0usize;
        let mut misses = 0usize;
        while got < total && misses < 5 {
            match h.stream().take_output(Duration::from_millis(200)) {
                Some(_) => {
                    got += 1;
                    misses = 0;
                }
                None => misses += 1,
            }
        }
        producer.join().expect("producer");
        eprintln!(
            "{exec:?} batch={batch_max} run={run}: got={got} wall={:?}",
            t0.elapsed(),
        );
        assert_eq!(got, total, "{exec:?} batch={batch_max} run={run}");
    }
}

#[test]
#[ignore = "manual probe"]
fn batching_corners() {
    let wp = ExecutorConfig::WorkerPool { workers: 8 };
    corner(wp, 1);
    corner(wp, 16);
    corner(ExecutorConfig::ThreadPerStreamlet, 1);
    corner(ExecutorConfig::ThreadPerStreamlet, 16);
}
