//! Harness for Figures 7-2 and 7-3: a chain of `redirector` streamlets.
//!
//! "Delay times can easily be captured by measuring the time needed for a
//! size-specific message to pass through a configured number of streamlet
//! redirectors" (§7.2). The same chain, with the pool switched to
//! pass-by-value, reproduces the Figure 7-3 comparison.

use mobigate::core::pool::PayloadMode;
use mobigate::core::{MobiGate, RunningStream, ServerConfig, StreamletDirectory, StreamletPool};
use mobigate::mime::{MimeMessage, MimeType};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A deployed chain of `k` redirectors with an exported input and output.
pub struct ChainHarness {
    _server: MobiGate,
    stream: Arc<RunningStream>,
    /// Number of redirectors in the chain.
    pub k: usize,
}

impl ChainHarness {
    /// Builds and deploys the chain in the given payload mode.
    pub fn new(k: usize, mode: PayloadMode) -> Self {
        Self::with_config(
            k,
            ServerConfig {
                mode,
                ..Default::default()
            },
        )
    }

    /// Builds and deploys the chain over a fully specified [`ServerConfig`]
    /// (executor back end, batching, telemetry) — the ablation entry point.
    pub fn with_config(k: usize, config: ServerConfig) -> Self {
        Self::with_library(k, config, "builtin/redirector")
    }

    /// Like [`Self::with_config`] but with the streamlet library chosen by
    /// the caller: `"builtin/redirector"` for the §7.2 parse/re-encapsulate
    /// probe, `"builtin/forward"` for a pure pass-through chain that
    /// isolates transport cost (the memory-plane ablation).
    pub fn with_library(k: usize, config: ServerConfig, library: &str) -> Self {
        assert!(k >= 1, "a chain needs at least one streamlet");
        let server = MobiGate::with_config(
            config,
            Arc::new(StreamletDirectory::new()),
            Arc::new(StreamletPool::new(64)),
        );
        mobigate_streamlets::register_builtins(server.directory());

        let mut script = format!(
            "streamlet redirector {{\n\
             port {{ in pi : */*; out po : */*; }}\n\
             attribute {{ type = STATELESS; library = \"{library}\"; }}\n}}\n\
             main stream chain {{\n",
        );
        for i in 0..k {
            let _ = writeln!(script, "streamlet r{i} = new-streamlet (redirector);");
        }
        for i in 1..k {
            let _ = writeln!(script, "connect (r{}.po, r{}.pi);", i - 1, i);
        }
        script.push('}');

        let stream = server.deploy_mcl(&script).expect("deploy chain");
        ChainHarness {
            _server: server,
            stream,
            k,
        }
    }

    /// The deployed stream (for inspection).
    pub fn stream(&self) -> &Arc<RunningStream> {
        &self.stream
    }

    /// Pushes one message through the whole chain and returns the
    /// end-to-end latency.
    pub fn round_trip(&self, msg: MimeMessage) -> Duration {
        let t0 = Instant::now();
        self.stream.post_input(msg).expect("post");
        self.stream
            .take_output(Duration::from_secs(30))
            .expect("chain output");
        t0.elapsed()
    }

    /// Mean per-message latency over `iters` messages of `size` bytes
    /// (the first message is discarded as warm-up).
    pub fn mean_latency(&self, size: usize, iters: usize) -> Duration {
        let body = vec![0x5Au8; size];
        let msg = MimeMessage::new(&MimeType::new("application", "octet-stream"), body);
        self.round_trip(msg.clone()); // warm-up
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            total += self.round_trip(msg.clone());
        }
        total / iters as u32
    }

    /// Pipelined chain throughput in messages/second: a producer thread
    /// posts `total` messages of `size` bytes as fast as admission allows
    /// while this thread drains the egress. Unlike [`Self::round_trip`],
    /// every hop stays busy at once, which is what channel batching and
    /// wakeup coalescing speed up.
    pub fn throughput(&self, size: usize, total: usize) -> f64 {
        assert!(total >= 1);
        let body = vec![0x5Au8; size];
        let msg = MimeMessage::new(&MimeType::new("application", "octet-stream"), body);
        self.round_trip(msg.clone()); // warm-up: deploy + first-touch costs
        let stream = self.stream.clone();
        let producer_msg = msg;
        let t0 = Instant::now();
        let producer = std::thread::spawn(move || {
            for _ in 0..total {
                stream.post_input(producer_msg.clone()).expect("post");
            }
        });
        let mut got = 0usize;
        let mut last = t0;
        while got < total {
            match self.stream.take_output(Duration::from_secs(10)) {
                Some(_) => {
                    got += 1;
                    last = Instant::now();
                }
                // Back-pressure drop under extreme load: rate over what
                // arrived, clocked at the last delivery.
                None => break,
            }
        }
        producer.join().expect("producer thread");
        let elapsed = last
            .saturating_duration_since(t0)
            .max(Duration::from_micros(1));
        got as f64 / elapsed.as_secs_f64()
    }

    /// Pipelined chain throughput in messages/second over a burst that
    /// lasts at least `window`: like [`Self::throughput`], but the producer
    /// posts until the window has passed, so a sample is long enough that
    /// one descheduling on a shared host cannot dominate it. The rate counts
    /// deliveries inside the window; the chain is then drained, so the next
    /// sample (of this chain or another) starts on an idle host.
    pub fn throughput_for(&self, size: usize, window: Duration) -> f64 {
        let body = vec![0x5Au8; size];
        let msg = MimeMessage::new(&MimeType::new("application", "octet-stream"), body);
        self.round_trip(msg.clone()); // warm-up: first-touch costs
        let stop = Arc::new(AtomicBool::new(false));
        let t0 = Instant::now();
        let producer = {
            let (stream, stop) = (self.stream.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut posted = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    stream.post_input(msg.clone()).expect("post");
                    posted += 1;
                }
                posted
            })
        };
        let mut got = 0usize;
        let mut in_window = None;
        // Back-pressure drops under extreme load can leave the egress
        // empty for good: a 2 s silence ends the burst.
        while in_window.is_none() && self.stream.take_output(Duration::from_secs(2)).is_some() {
            got += 1;
            let elapsed = t0.elapsed();
            if elapsed >= window {
                in_window = Some((got, elapsed));
            }
        }
        stop.store(true, Ordering::Relaxed);
        let posted = producer.join().expect("producer thread");
        while got < posted && self.stream.take_output(Duration::from_secs(2)).is_some() {
            got += 1;
        }
        let (delivered, elapsed) = in_window.unwrap_or((got, t0.elapsed()));
        delivered as f64 / elapsed.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_of_one_works() {
        let h = ChainHarness::new(1, PayloadMode::Reference);
        let d = h.round_trip(MimeMessage::text("x"));
        assert!(d < Duration::from_secs(5));
    }

    /// Total `process` calls across the chain's redirectors.
    fn processed(h: &ChainHarness) -> u64 {
        (0..h.k)
            .map(|i| {
                let r = h.stream().instance(&format!("r{i}")).expect("redirector");
                r.stats().processed
            })
            .sum()
    }

    #[test]
    fn longer_chains_do_more_work_per_message() {
        // Figure 7-2's mechanism: every hop processes every message, so 16
        // hops do 8x the work of 2. The latency comparison itself is a
        // release-mode guard in `repro -- fig7_2`.
        let work = |k: usize| {
            let h = ChainHarness::new(k, PayloadMode::Reference);
            h.mean_latency(1_000, 4); // one warm-up + four timed messages
            assert!(h.stream().drain(Duration::from_secs(5)));
            processed(&h)
        };
        let (short, long) = (work(2), work(16));
        assert_eq!((short, long), (2 * 5, 16 * 5));
    }

    #[test]
    fn value_mode_hops_share_no_body_storage_with_the_input() {
        // Figure 7-3's mechanism: by reference the body crosses every hop
        // in place; by value each hop gets its own copy. The latency
        // comparison itself is a release-mode guard in `repro -- fig7_3`.
        let body = vec![0x5Au8; 400_000];
        let msg = MimeMessage::new(&MimeType::new("application", "octet-stream"), body);
        let through = |mode: PayloadMode| {
            let h = ChainHarness::new(10, mode);
            h.stream().post_input(msg.clone()).expect("post");
            let out = h
                .stream()
                .take_output(Duration::from_secs(30))
                .expect("chain output");
            assert_eq!(out.body, msg.body);
            out.body.as_ptr()
        };
        assert_eq!(through(PayloadMode::Reference), msg.body.as_ptr());
        assert_ne!(through(PayloadMode::Value), msg.body.as_ptr());
    }
}
