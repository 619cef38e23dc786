//! The two paper-claim ablations behind `repro -- ablation`:
//!
//! * **streamlet pooling** (§3.3.4: reusing an idle instance beats
//!   creating and destroying one) — a checkout+checkin of
//!   `builtin/text_compress` from a pool that keeps instances vs. one that
//!   builds every checkout afresh (`StreamletPool::disabled`);
//! * **sync vs. async channels** — a rendezvous post that waits for a
//!   consumer thread to take the message vs. a buffered post followed by
//!   a fetch on the same thread.

use mobigate::core::pool::{MessagePool, PayloadMode};
use mobigate::core::queue::{FetchResult, MessageQueue, PostResult, QueueConfig};
use mobigate::core::{StreamletDirectory, StreamletPool};
use mobigate::mcl::ast::{ChannelCategory, ChannelKind};
use mobigate::mime::MimeMessage;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The streamlet whose instances the pooling ablation checks out.
pub const POOLED_LIBRARY: &str = "builtin/text_compress";

/// Mean nanoseconds per checkout+checkin of [`POOLED_LIBRARY`] over
/// `iters` rounds, from a pool that keeps instances (`pooled`) or from one
/// that creates each checkout and drops each checkin.
pub fn pool_checkout_ns(pooled: bool, iters: usize) -> f64 {
    let directory = StreamletDirectory::new();
    mobigate_streamlets::register_builtins(&directory);
    let pool = if pooled {
        StreamletPool::new(64)
    } else {
        StreamletPool::disabled()
    };
    let round = || {
        let instance = pool.checkout(POOLED_LIBRARY, &directory).expect("builtin");
        pool.checkin(POOLED_LIBRARY, instance);
    };
    round(); // warm-up: the pooled side builds its one instance here
    let t0 = Instant::now();
    for _ in 0..iters {
        round();
    }
    t0.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// Mean microseconds per message over `iters` messages through one
/// channel: a sync rendezvous `post` that returns once a consumer thread
/// has taken the message (`sync`), or an async `post` then `try_fetch` on
/// the calling thread.
pub fn channel_post_us(sync: bool, iters: usize) -> f64 {
    let pool = Arc::new(MessagePool::new());
    let msg = MimeMessage::text("payload");
    let post = |queue: &MessageQueue| {
        let res = queue.post(pool.wrap(msg.clone(), PayloadMode::Reference, 1));
        assert!(matches!(res, PostResult::Posted), "post: {res:?}");
    };
    if !sync {
        let queue = MessageQueue::new(QueueConfig::default(), pool.clone());
        let t0 = Instant::now();
        for _ in 0..iters {
            post(&queue);
            match queue.try_fetch() {
                FetchResult::Msg(p) => drop(pool.resolve(p)),
                other => panic!("async fetch: {other:?}"),
            }
        }
        return t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
    }
    let queue = MessageQueue::new(
        QueueConfig {
            kind: ChannelKind::Sync,
            category: ChannelCategory::S,
            full_wait: Duration::from_secs(5),
            ..Default::default()
        },
        pool.clone(),
    );
    // The consumer fetches with no deadline until the source detaches.
    queue.attach_source();
    let consumer = {
        let (queue, pool) = (queue.clone(), pool.clone());
        std::thread::spawn(move || {
            while let FetchResult::Msg(p) = queue.fetch(Duration::MAX) {
                drop(pool.resolve(p));
            }
        })
    };
    post(&queue); // warm-up: the consumer is parked in `fetch`
    let t0 = Instant::now();
    for _ in 0..iters {
        post(&queue);
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
    queue.detach_source().expect("S channels detach");
    consumer.join().expect("consumer thread");
    us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_pools_and_both_channels_measure_a_positive_cost() {
        for pooled in [true, false] {
            assert!(pool_checkout_ns(pooled, 10) > 0.0);
        }
        for sync in [true, false] {
            assert!(channel_post_us(sync, 10) > 0.0);
        }
    }
}
