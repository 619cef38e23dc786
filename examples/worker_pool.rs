//! The execution-plane knob: run an adaptation pipeline on the shared
//! worker pool instead of the paper's thread-per-streamlet default.
//!
//! ```text
//! cargo run --example worker_pool            # 2 workers
//! cargo run --example worker_pool -- 8       # 8 workers
//! ```

use mobigate::core::ExecutorConfig;
use mobigate::mime::MimeMessage;
use mobigate::testbed::{Testbed, TestbedConfig};
use std::time::Duration;

fn main() {
    let workers: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("worker count"))
        .unwrap_or(2);

    let testbed = Testbed::new(TestbedConfig {
        executor: ExecutorConfig::WorkerPool { workers },
        ..TestbedConfig::fast()
    });
    println!(
        "executor: {} ({} requested)",
        testbed.server().executor().name(),
        workers
    );

    let stream = testbed
        .deploy_with_defs(
            r#"
            main stream pipeline {
                streamlet c = new-streamlet (text_compress);
                streamlet e = new-streamlet (encrypt);
                streamlet out = new-streamlet (communicator);
                connect (c.po, e.pi);
                connect (e.po, out.pi);
            }
            "#,
        )
        .expect("deploy");

    for i in 0..5 {
        let body = format!("message {i}: the quick brown fox jumps over the lazy dog");
        stream.post_input(MimeMessage::text(body)).expect("post");
    }
    for _ in 0..5 {
        let got = testbed
            .client()
            .recv(Duration::from_secs(5))
            .expect("delivered");
        println!(
            "client got {} bytes: {:?}",
            got.body.len(),
            String::from_utf8_lossy(&got.body)
        );
    }

    let stats = testbed.server().message_pool().stats();
    println!(
        "pool stats: inserted={} evicted={} resident={} (invariant resident+evicted==inserted: {})",
        stats.inserted,
        stats.evicted,
        stats.resident,
        stats.resident as u64 + stats.evicted == stats.inserted
    );
    testbed.shutdown();
    println!("done");
}
