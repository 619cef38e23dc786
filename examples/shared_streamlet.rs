//! Streamlet sharing (§4.4.3): one stateless streamlet instance serving
//! several streams at once, with outputs routed back to their owners by
//! the `Content-Session` label.
//!
//! ```text
//! cargo run --example shared_streamlet
//! ```

use mobigate::core::pool::PayloadMode;
use mobigate::core::queue::{FetchResult, MessageQueue, QueueConfig};
use mobigate::core::{CoreError, Emitter, MobiGate, SharedStreamlet, StreamletCtx, StreamletLogic};
use mobigate::mime::{MimeMessage, SessionId};
use mobigate::streamlets::codec::lzss;
use std::sync::Arc;
use std::time::Duration;

/// A stateless LZSS compressor — exactly the kind of streamlet §3.3.4
/// allows to be shared: no per-stream state to leak across sessions.
struct SharedCompressor;
impl StreamletLogic for SharedCompressor {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        let mut out = msg.clone();
        out.set_body(lzss::compress(&msg.body));
        ctx.emit("po", out);
        Ok(())
    }
}

fn main() {
    // The shared instance runs on the server's executor, under its
    // supervisor, built from the directory like any deployed streamlet.
    let server = MobiGate::new(PayloadMode::Reference);
    server
        .directory()
        .register("shared/lzss", "stateless LZSS compressor", || {
            Box::new(SharedCompressor)
        });
    let pool = server.message_pool().clone();
    let shared = SharedStreamlet::spawn(&server, "shared-compressor", "shared/lzss")
        .expect("the directory knows shared/lzss");

    // Three independent "streams" subscribe, each with its own output
    // channel and session ID (§4.4.3: "the system automatically generates a
    // unique session ID for each instance of a stream").
    let sessions: Vec<SessionId> = (1..=3)
        .map(|i| SessionId::new(format!("stream-{i}")))
        .collect();
    let queues: Vec<Arc<MessageQueue>> = sessions
        .iter()
        .map(|s| {
            let q = MessageQueue::new(
                QueueConfig {
                    name: format!("out-{s}"),
                    ..Default::default()
                },
                pool.clone(),
            );
            shared.subscribe(s, q.clone());
            q
        })
        .collect();
    println!(
        "one instance, {} subscribed streams",
        shared.subscriber_count()
    );

    // Interleaved traffic from all three streams into the single instance.
    for round in 0..4 {
        for (i, s) in sessions.iter().enumerate() {
            let text = format!("stream {i} round {round}: {}", "data ".repeat(20 + i * 10));
            shared.post(s, MimeMessage::text(text)).unwrap();
        }
    }

    // Every stream receives exactly its own outputs, in its own order.
    for (i, (s, q)) in sessions.iter().zip(&queues).enumerate() {
        print!("{s}: ");
        let mut sizes = Vec::new();
        for _ in 0..4 {
            match q.fetch(Duration::from_secs(5)) {
                FetchResult::Msg(p) => {
                    let m = pool.resolve(p).unwrap();
                    assert_eq!(m.session().unwrap(), *s, "no cross-stream leakage");
                    sizes.push(m.body.len());
                }
                other => panic!("missing output: {other:?}"),
            }
        }
        println!("4 compressed messages, sizes {sizes:?} (stream {i})");
    }

    let stats = shared.stats();
    println!(
        "\nshared instance processed {} messages, routed {} ({} unrouted)",
        stats.processed, stats.routed, stats.unrouted
    );
    shared.shutdown();
}
