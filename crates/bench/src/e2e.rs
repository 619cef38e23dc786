//! Harness for Figure 7-7: end-to-end system throughput with and without
//! MobiGATE across bandwidths and delays.
//!
//! The §7.5 methodology: a continuous mix of image and text messages is
//! transmitted over the emulated wireless link; throughput is compared
//! between direct transfer and the MobiGATE web-acceleration stream
//! (Switch + Gif2Jpeg + ImageDownSample + Communicator, with TextCompressor
//! spliced in below 100 Kb/s).
//!
//! Time runs under a scale factor: emulated transmission seconds pass in
//! `time_scale` wall seconds, while MobiGATE's computation runs unscaled.
//! Reported throughput divides by the scale, so computation overheads are
//! magnified by `1/time_scale` relative to transmission — a conservative
//! stand-in for the paper's millisecond-scale Java overheads (DESIGN.md §3).

use mobigate::core::events::ContextEvent;
use mobigate::core::EventKind;
use mobigate::netsim::{LinkConfig, LinkEvent, WirelessLink};
use mobigate::streamlets::workload::MessageMix;
use mobigate::testbed::{Testbed, TestbedConfig, WEB_ACCELERATOR};
use std::time::{Duration, Instant};

/// The bandwidth below which the LOW_BANDWIDTH reconfiguration fires
/// (§7.5: "this streamlet is activated only if the bandwidth of the
/// wireless link falls below 100 Kb/s").
pub const LOW_BANDWIDTH_THRESHOLD: u64 = 100_000;

/// One measured grid point.
#[derive(Debug, Clone, Copy)]
pub struct E2EPoint {
    /// Link bandwidth (bits per emulated second).
    pub bandwidth_bps: u64,
    /// Propagation delay (emulated).
    pub delay: Duration,
    /// True when the MobiGATE pipeline was active.
    pub mobigate: bool,
    /// Messages delivered.
    pub messages: usize,
    /// Application payload bytes represented by those messages.
    pub payload_bytes: usize,
    /// Bytes that actually crossed the link.
    pub link_bytes: u64,
    /// Wall time of the run.
    pub wall: Duration,
    /// Application-level throughput in Kb per emulated second.
    pub throughput_kbps: f64,
}

/// Measures one grid point. `n` messages of a web-like mix (half images of
/// 128×128, half 8 KB texts) are pushed through either the MobiGATE
/// pipeline or a direct link transfer.
pub fn end_to_end_point(
    bandwidth_bps: u64,
    delay: Duration,
    with_mobigate: bool,
    n: usize,
    time_scale: f64,
    seed: u64,
) -> E2EPoint {
    let link_cfg = LinkConfig {
        bandwidth_bps,
        propagation_delay: delay,
        time_scale,
        queue_limit: usize::MAX,
        ..Default::default()
    };
    let mix = MessageMix::new(seed, 50, 128, 8 * 1024);
    let messages: Vec<_> = mix.take(n).collect();
    let payload_bytes: usize = messages.iter().map(|m| m.body.len()).sum();

    let (link_bytes, wall) = if with_mobigate {
        let tb = Testbed::new(TestbedConfig {
            link: link_cfg,
            ..TestbedConfig::default()
        });
        let stream = tb
            .deploy_with_defs(WEB_ACCELERATOR)
            .expect("deploy accelerator");
        // The link's watch raises LOW_BANDWIDTH; a link that starts below
        // the threshold raises it here, before the measurement starts.
        let coordination = tb.server().coordination().clone();
        let low = LOW_BANDWIDTH_THRESHOLD;
        tb.link().watch(low, low, move |e| {
            if let LinkEvent::BandwidthLow(_) = e {
                coordination.raise(&ContextEvent::broadcast(EventKind::LowBandwidth));
            }
        });
        let t0 = Instant::now();
        for m in messages {
            stream.post_input(m).expect("post");
        }
        let mut received = 0;
        while received < n {
            match tb.client().recv(Duration::from_secs(120)) {
                Some(_) => received += 1,
                None => break,
            }
        }
        assert_eq!(received, n, "all messages must arrive");
        let wall = t0.elapsed();
        let bytes = tb.link().stats().delivered_bytes;
        tb.shutdown();
        (bytes, wall)
    } else {
        // Direct transfer: the same messages cross the link unadapted.
        let (link, tx, rx) = WirelessLink::spawn(link_cfg);
        let t0 = Instant::now();
        for m in &messages {
            assert!(tx.send(m.to_wire().to_vec()), "link accepts frame");
        }
        for _ in 0..n {
            rx.recv(Duration::from_secs(120)).expect("frame delivered");
        }
        let wall = t0.elapsed();
        let bytes = link.stats().delivered_bytes;
        (bytes, wall)
    };

    // Application throughput over emulated time: wall/scale seconds passed
    // in the emulated world.
    let emulated_secs = wall.as_secs_f64() / time_scale;
    let throughput_kbps = payload_bytes as f64 * 8.0 / emulated_secs / 1000.0;

    E2EPoint {
        bandwidth_bps,
        delay,
        mobigate: with_mobigate,
        messages: n,
        payload_bytes,
        link_bytes,
        wall,
        throughput_kbps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mobigate_reduces_link_bytes() {
        let with = end_to_end_point(500_000, Duration::ZERO, true, 10, 0.01, 1);
        let without = end_to_end_point(500_000, Duration::ZERO, false, 10, 0.01, 1);
        assert_eq!(with.payload_bytes, without.payload_bytes, "same workload");
        assert!(
            with.link_bytes < without.link_bytes,
            "adaptation must shrink what crosses the link: {} vs {}",
            with.link_bytes,
            without.link_bytes
        );
    }

    #[test]
    fn low_bandwidth_run_inserts_compressor_and_wins() {
        // At 50 Kb/s (< threshold) the compressor halves text traffic; the
        // MobiGATE run must beat the direct one — the Figure 7-7 headline.
        let with = end_to_end_point(50_000, Duration::ZERO, true, 8, 0.005, 2);
        let without = end_to_end_point(50_000, Duration::ZERO, false, 8, 0.005, 2);
        assert!(
            with.throughput_kbps > without.throughput_kbps,
            "MobiGATE {:.1} Kb/s !> direct {:.1} Kb/s",
            with.throughput_kbps,
            without.throughput_kbps
        );
    }

    #[test]
    fn throughput_rises_with_bandwidth() {
        let slow = end_to_end_point(100_000, Duration::ZERO, false, 6, 0.01, 3);
        let fast = end_to_end_point(1_000_000, Duration::ZERO, false, 6, 0.01, 3);
        assert!(fast.throughput_kbps > slow.throughput_kbps);
    }
}
