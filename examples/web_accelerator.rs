//! The §7.5 web-acceleration application: speed up web surfing over slow
//! links with Switch, Gif2Jpeg, ImageDownSample, Communicator — and a
//! TextCompressor that MobiGATE splices in automatically when the link
//! bandwidth falls below 100 Kb/s.
//!
//! ```text
//! cargo run --release --example web_accelerator
//! ```

use mobigate::core::events::ContextEvent;
use mobigate::core::EventKind;
use mobigate::netsim::{LinkConfig, LinkEvent};
use mobigate::streamlets::workload::MessageMix;
use mobigate::testbed::{Testbed, TestbedConfig, WEB_ACCELERATOR};
use std::time::{Duration, Instant};

fn main() {
    // Emulated wireless link at 1/50 time scale: a 500 Kb/s experiment
    // second passes in 20 ms of wall time.
    let cfg = TestbedConfig {
        link: LinkConfig {
            bandwidth_bps: 500_000,
            propagation_delay: Duration::from_millis(50),
            time_scale: 0.02,
            ..Default::default()
        },
        ..TestbedConfig::default()
    };
    let testbed = Testbed::new(cfg);
    let stream = testbed.deploy_with_defs(WEB_ACCELERATOR).expect("deploy");
    println!(
        "deployed `{}`: {:?}",
        stream.name(),
        stream.instance_names()
    );

    // Wire the link's watch to the Event Manager: bandwidth crossings
    // become LOW_BANDWIDTH / HIGH_BANDWIDTH context events (§6.4), raised
    // inside the `set_bandwidth` call that crosses.
    let coordination = testbed.server().coordination().clone();
    testbed.link().watch(100_000, 150_000, move |e| {
        let kind = match e {
            LinkEvent::BandwidthLow(_) => EventKind::LowBandwidth,
            LinkEvent::BandwidthHigh(_) => EventKind::HighBandwidth,
        };
        let delivered = coordination.raise(&ContextEvent::broadcast(kind));
        println!("link: {e:?} → {kind:?} delivered to {delivered} stream(s)");
    });

    let run_phase = |label: &str, n: usize| {
        let mut mix = MessageMix::new(7, 30, 64, 8 * 1024);
        let before = testbed.link().stats();
        let t0 = Instant::now();
        let mut sent_payload = 0usize;
        for _ in 0..n {
            let msg = mix.next().expect("mix is infinite");
            sent_payload += msg.body.len();
            stream.post_input(msg).expect("post");
        }
        // Wait until the link has carried everything the pipeline emits.
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut received = 0;
        while received < n && Instant::now() < deadline {
            if testbed.client().recv(Duration::from_millis(500)).is_some() {
                received += 1;
            }
        }
        let after = testbed.link().stats();
        let wall = t0.elapsed();
        let carried = after.delivered_bytes - before.delivered_bytes;
        println!(
            "{label}: {received}/{n} messages in {wall:.2?} — payload {sent_payload} B, \
             link carried {carried} B ({}%)",
            carried as usize * 100 / sent_payload.max(1)
        );
    };

    println!("\n--- phase 1: 500 Kb/s, no compression ---");
    run_phase("normal", 30);

    println!("\n--- phase 2: link degrades to 60 Kb/s ---");
    // The watch raises LOW_BANDWIDTH before this call returns.
    testbed.link().set_bandwidth(60_000);
    if let Some(stats) = stream.last_reconfig() {
        println!(
            "reconfiguration: total {:?} = suspend {:?} + channels {:?} ({} ops) + activate {:?}",
            stats.total,
            stats.suspension_time,
            stats.channel_time,
            stats.channel_ops,
            stats.activation_time
        );
    }
    println!("instances now: {:?}", stream.instance_names());
    run_phase("degraded+compressor", 30);

    println!("\nlink totals: {:?}", testbed.link().stats());
    println!("client totals: {:?}", testbed.client().stats());
    testbed.shutdown();
}
