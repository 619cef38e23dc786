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
use mobigate::netsim::{LinkConfig, LinkEvent, LinkMonitor};
use mobigate::streamlets::workload::MessageMix;
use mobigate::testbed::{Testbed, TestbedConfig, WEB_ACCELERATOR};
use std::sync::mpsc;
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

    // Wire the link monitor to the Event Manager: bandwidth crossings
    // become LOW_BANDWIDTH / HIGH_BANDWIDTH context events (§6.4).
    let (event_tx, event_rx) = mpsc::channel::<LinkEvent>();
    let _monitor = LinkMonitor::watch(
        testbed.link(),
        100_000,
        150_000,
        Duration::from_millis(5),
        move |e| {
            let _ = event_tx.send(e);
        },
    );

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
    testbed.link().set_bandwidth(60_000);
    // The monitor notices and we translate to a MobiGATE event.
    match event_rx.recv_timeout(Duration::from_secs(1)) {
        Ok(LinkEvent::BandwidthLow(bw)) => {
            println!("monitor: bandwidth low ({bw} b/s) → raising LOW_BANDWIDTH");
            let delivered = testbed
                .server()
                .raise_event(&ContextEvent::broadcast(EventKind::LowBandwidth));
            println!("event delivered to {delivered} stream(s)");
        }
        other => println!("unexpected monitor outcome: {other:?}"),
    }
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
