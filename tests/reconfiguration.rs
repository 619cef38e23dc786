//! Reconfiguration under load, across the whole stack.

use mobigate::core::events::ContextEvent;
use mobigate::core::EventKind;
use mobigate::mime::MimeMessage;
use mobigate::testbed::{Testbed, TestbedConfig};
use std::time::Duration;

const APP: &str = r#"
main stream reconf {
    streamlet a = new-streamlet (redirector);
    streamlet out = new-streamlet (communicator);
    streamlet comp = new-streamlet (text_compress);
    connect (a.po, out.pi);
    when (LOW_BANDWIDTH) {
        insert (a.po, out.pi, comp);
    }
}
"#;

#[test]
fn no_message_lost_across_event_reconfiguration() {
    let tb = Testbed::new(TestbedConfig::fast());
    let stream = tb.deploy_with_defs(APP).unwrap();

    let n = 300usize;
    let stream2 = stream.clone();
    let server_raise = {
        let raised = std::sync::atomic::AtomicBool::new(false);
        move |i: usize| {
            if i == n / 2 && !raised.swap(true, std::sync::atomic::Ordering::AcqRel) {
                stream2.handle_event(&ContextEvent::broadcast(EventKind::LowBandwidth));
            }
        }
    };
    for i in 0..n {
        server_raise(i);
        stream
            .post_input(MimeMessage::text(format!("msg-{i} {}", "pad ".repeat(50))))
            .unwrap();
    }

    let mut got = 0usize;
    while got < n {
        match tb.client().recv(Duration::from_secs(10)) {
            Some(_) => got += 1,
            None => break,
        }
    }
    assert_eq!(got, n, "every message must survive the live insert");
    // The compressor actually joined the path.
    let comp = stream.instance("comp").expect("compressor live");
    assert!(
        comp.stats().processed > 0,
        "compressor processed part of the flow"
    );
    tb.shutdown();
}

#[test]
fn eq_7_1_components_sum_below_total() {
    let tb = Testbed::new(TestbedConfig::fast());
    let stream = tb.deploy_with_defs(APP).unwrap();
    let stats = stream
        .insert_streamlet(("a", "po"), ("out", "pi"), "mid", "redirector")
        .unwrap();
    // T = Σ s_i + n·c + Σ a_i — the measured components are disjoint phases
    // of the same wall interval, so their sum bounds the total from below.
    let sum = stats.suspension_time + stats.channel_time + stats.activation_time;
    assert!(
        sum <= stats.total,
        "components {sum:?} exceed total {:?}",
        stats.total
    );
    assert_eq!(stats.suspensions, 1);
    assert_eq!(stats.activations, 1);
    assert!(stats.channel_ops >= 4);
    tb.shutdown();
}

#[test]
fn repeated_insert_remove_cycles_stay_healthy() {
    let tb = Testbed::new(TestbedConfig::fast());
    let stream = tb.deploy_with_defs(APP).unwrap();
    for round in 0..10 {
        let name = format!("cycle{round}");
        stream
            .insert_streamlet(("a", "po"), ("out", "pi"), &name, "redirector")
            .unwrap();
        stream
            .post_input(MimeMessage::text(format!("round {round}")))
            .unwrap();
        assert!(
            tb.client().recv(Duration::from_secs(5)).is_some(),
            "flow must work with {name} inserted"
        );
        stream
            .remove_streamlet(&name, Duration::from_secs(2))
            .unwrap();
        // Removing the splice leaves a -> ? and ? -> out disconnected;
        // re-establish the direct path for the next round.
        let reconnect = stream.reconfigure(&[mobigate::mcl::config::ReconfigAction::Connect {
            from: ("a".into(), "po".into()),
            to: ("out".into(), "pi".into()),
            channel: stream
                .connections()
                .first()
                .map(|c| c.channel.clone())
                .unwrap_or_else(|| "__chan0".into()),
        }]);
        assert_eq!(reconnect.errors, 0, "round {round} reconnect failed");
        stream
            .post_input(MimeMessage::text("direct again"))
            .unwrap();
        assert!(tb.client().recv(Duration::from_secs(5)).is_some());
    }
    tb.shutdown();
}

#[test]
fn reconfiguration_steps_grow_with_insert_count() {
    // Figure 7-6's shape at integration level, counted in Equation 7-1's
    // steps rather than timed: each insert pays its own suspension,
    // channel operations, activation and instance creation, so 20
    // inserts take more of every step than 2. `repro -- fig7_6` guards
    // the wall-time comparison on release-build medians.
    let measure = |count: usize| {
        let tb = Testbed::new(TestbedConfig::fast());
        let stream = tb.deploy_with_defs(APP).unwrap();
        let mut steps = [0usize; 4];
        let mut upstream = ("a".to_string(), "po".to_string());
        for i in 0..count {
            let name = format!("r{i}");
            let stats = stream
                .insert_streamlet(
                    (&upstream.0, &upstream.1),
                    ("out", "pi"),
                    &name,
                    "redirector",
                )
                .unwrap();
            assert_eq!(stats.errors, 0, "insert {name}");
            for (total, n) in steps.iter_mut().zip([
                stats.suspensions,
                stats.channel_ops,
                stats.activations,
                stats.instance_creations,
            ]) {
                *total += n;
            }
            upstream = (name, "po".to_string());
        }
        tb.shutdown();
        steps
    };
    let small = measure(2);
    let large = measure(20);
    for (step, (s, l)) in [
        "suspensions",
        "channel ops",
        "activations",
        "instance creations",
    ]
    .iter()
    .zip(small.iter().zip(large.iter()))
    {
        assert!(*s > 0, "2 inserts take no {step}");
        assert!(l > s, "20 inserts ({l} {step}) must take more than 2 ({s})");
    }
}

/// The §7.5 LOW_BANDWIDTH rule splices the compressor into a running
/// stream. `comp` is declared at deploy time with both ports unconnected,
/// so they start out exported to the stream boundary; the insert must
/// retire those bindings, or every compressed text is duplicated onto
/// egress, which nobody drains, until egress fills (8 MiB) and posts
/// start to wait out Figure 6-9's `T` and drop.
#[test]
fn low_bandwidth_insert_retires_the_compressor_boundary_ports() {
    use mobigate::core::{BridgeConfig, TelemetryConfig};
    use mobigate::core::{MobiGate, ServerConfig, StreamletDirectory, StreamletPool};
    use mobigate::streamlets::comm::{CollectorTransport, Communicator};
    use mobigate::streamlets::workload::gen_text;
    use mobigate::testbed::{COMMUNICATOR_DEF, WEB_ACCELERATOR};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use std::time::Instant;

    const TEXT_BYTES: usize = 8 * 1024;
    // A little over 8 MiB of texts: past the egress capacity.
    const TEXTS: usize = (9 << 20) / TEXT_BYTES;

    let gate = MobiGate::with_config(
        ServerConfig {
            telemetry: TelemetryConfig {
                enabled: true,
                bridge: BridgeConfig {
                    enabled: false,
                    ..Default::default()
                },
            },
            ..Default::default()
        },
        Arc::new(StreamletDirectory::new()),
        Arc::new(StreamletPool::new(16)),
    );
    mobigate::streamlets::register_builtins(gate.directory());
    let collector = CollectorTransport::new();
    Communicator::register(gate.directory(), collector.clone());
    let stream = gate
        .deploy_mcl(&format!(
            "{}\n{COMMUNICATOR_DEF}\n{WEB_ACCELERATOR}",
            mobigate::streamlets::standard_defs()
        ))
        .unwrap();
    gate.raise_event(&ContextEvent::broadcast(EventKind::LowBandwidth));
    assert!(stream.instance("comp").is_some(), "compressor spliced in");

    let mut rng = StdRng::seed_from_u64(7);
    for seq in 0..TEXTS {
        let mut msg = MimeMessage::new(
            &mobigate::mime::MimeType::new("text", "plain"),
            gen_text(&mut rng, TEXT_BYTES),
        );
        msg.headers.set("X-Seq", seq.to_string());
        stream.post_input(msg).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while collector.len() < TEXTS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    let delivered = collector.messages();
    assert!(
        delivered
            .iter()
            .all(|m| m.content_type().to_string() == "text/x-lzss"),
        "every text took the compressed path"
    );
    let seqs: BTreeSet<usize> = delivered
        .iter()
        .filter_map(|m| m.headers.get("X-Seq")?.parse().ok())
        .collect();
    assert_eq!(delivered.len(), TEXTS, "one frame per text");
    assert_eq!(seqs.len(), TEXTS, "every text reached the link");
    assert!(
        stream.take_output(Duration::ZERO).is_none(),
        "nothing may be duplicated onto egress"
    );
    assert_eq!(stream.stats().queued_bytes, 0);
    let drops = gate.metrics_snapshot().unwrap().totals.dropped_total();
    assert_eq!(drops, 0, "no post may wait out egress and drop");
    stream.shutdown();
}
