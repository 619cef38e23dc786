//! Vertical handoff: the mobile node switches wireless networks while the
//! deployed stream keeps running (§2.2.1 / §8.2.1 future work).

use mobigate::core::events::ContextEvent;
use mobigate::core::EventKind;
use mobigate::mime::MimeMessage;
use mobigate::netsim::LinkConfig;
use mobigate::testbed::{Testbed, TestbedConfig};
use std::time::Duration;

const APP: &str = r#"
main stream roaming {
    streamlet r = new-streamlet (redirector);
    streamlet comp = new-streamlet (text_compress);
    streamlet out = new-streamlet (communicator);
    connect (r.po, out.pi);
    when (LOW_BANDWIDTH) {
        insert (r.po, out.pi, comp);
    }
    when (HIGH_BANDWIDTH) { }
}
"#;

#[test]
fn handoff_keeps_the_stream_flowing() {
    let mut tb = Testbed::new(TestbedConfig::fast());
    let stream = tb.deploy_with_defs(APP).unwrap();

    stream
        .post_input(MimeMessage::text("on network A"))
        .unwrap();
    assert!(tb.client().recv(Duration::from_secs(5)).is_some());
    let before = tb.link().stats();
    assert_eq!(before.delivered, 1);

    // Switch to a different (slower) network.
    let old = tb.vertical_handoff(LinkConfig {
        bandwidth_bps: 5_000_000,
        propagation_delay: Duration::from_millis(1),
        time_scale: 0.01,
        ..Default::default()
    });
    assert_eq!(old.delivered, 1, "old link accounting frozen at handoff");

    // The same deployed stream transmits over the new link untouched.
    for i in 0..5 {
        stream
            .post_input(MimeMessage::text(format!("on network B #{i}")))
            .unwrap();
    }
    for _ in 0..5 {
        assert!(tb.client().recv(Duration::from_secs(10)).is_some());
    }
    assert_eq!(
        tb.link().stats().delivered,
        5,
        "new link carried the new traffic"
    );
    tb.shutdown();
}

#[test]
fn handoff_to_slow_network_can_trigger_adaptation() {
    // Handoff to a slow network, then raise LOW_BANDWIDTH by hand: a
    // link's `watch` raises it only from `set_bandwidth`, and a handoff
    // swaps in a new link rather than changing the bandwidth of the old
    // one (tests/adaptation_loop.rs runs the watch-driven loop). The
    // compressor joins the path and traffic shrinks.
    let mut tb = Testbed::new(TestbedConfig::fast());
    let stream = tb.deploy_with_defs(APP).unwrap();

    tb.vertical_handoff(LinkConfig {
        bandwidth_bps: 64_000,
        propagation_delay: Duration::ZERO,
        time_scale: 0.001,
        ..Default::default()
    });
    // `comp` is instantiated at deploy, so only the connection table shows
    // whether the insert spliced it into the path.
    let spliced = || stream.connections().iter().any(|c| c.from.0 == "comp");
    assert!(!spliced());
    tb.server()
        .raise_event(&ContextEvent::broadcast(EventKind::LowBandwidth));
    assert!(spliced(), "LOW_BANDWIDTH inserted comp between r and out");

    let body = "roaming payload ".repeat(200);
    stream.post_input(MimeMessage::text(body.clone())).unwrap();
    let got = tb
        .client()
        .recv(Duration::from_secs(10))
        .expect("delivered");
    assert_eq!(got.body, body.as_bytes());
    let link_bytes = tb.link().stats().delivered_bytes;
    assert!(
        link_bytes < body.len() as u64 / 2,
        "compressed on the wire: {link_bytes} vs {}",
        body.len()
    );
    tb.shutdown();
}

#[test]
fn repeated_handoffs_are_stable() {
    let mut tb = Testbed::new(TestbedConfig::fast());
    let stream = tb
        .deploy_with_defs(
            "main stream ping {\n streamlet r = new-streamlet (redirector);\n \
             streamlet out = new-streamlet (communicator);\n connect (r.po, out.pi);\n}",
        )
        .unwrap();
    for round in 0..5 {
        tb.vertical_handoff(LinkConfig {
            bandwidth_bps: 1_000_000_000,
            propagation_delay: Duration::ZERO,
            ..Default::default()
        });
        stream
            .post_input(MimeMessage::text(format!("round {round}")))
            .unwrap();
        let got = tb.client().recv(Duration::from_secs(5)).expect("delivered");
        assert_eq!(got.body, format!("round {round}").as_bytes());
    }
    tb.shutdown();
}
