//! The full adaptation loop: client context reports and the link's own
//! bandwidth changes become Event Manager events and reconfigure the
//! stream — plus aggregation/disaggregation across the link.

use mobigate::core::events::ContextEvent;
use mobigate::core::{EventKind, ExecutorConfig, RunningStream};
use mobigate::mime::MimeMessage;
use mobigate::netsim::{LinkConfig, LinkEvent};
use mobigate::streamlets::codec::raster::Image;
use mobigate::streamlets::workload;
use mobigate::testbed::{Testbed, TestbedConfig, WEB_ACCELERATOR};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn client_report_drives_gateway_reconfiguration() {
    // The client device reports LOW_GRAYS; the gateway reacts by splicing
    // the 16-gray mapper into the image path — the complete Figure 3-1
    // loop: client → event → coordination → new topology.
    let tb = Testbed::new(TestbedConfig::fast());
    let stream = tb
        .deploy_with_defs(
            r#"
            streamlet gifsw {
                port { in pi : */*; out po1 : image/gif; out po2 : text; }
                attribute { type = STATELESS; library = "builtin/switch"; }
            }
            main stream adaptive {
                streamlet sw = new-streamlet (gifsw);
                streamlet gray = new-streamlet (map_to_16_grays);
                streamlet out = new-streamlet (communicator);
                connect (sw.po1, out.pi);
                connect (sw.po2, out.pi);
                when (LOW_GRAYS) {
                    insert (sw.po1, out.pi, gray);
                }
            }
            "#,
        )
        .unwrap();

    let mut rng = StdRng::seed_from_u64(31);

    // Before the report: the image arrives in color (3 channels).
    tb.client();
    stream
        .post_input(workload::image_message(&mut rng, 32))
        .unwrap();
    let before = tb.client().recv(Duration::from_secs(5)).expect("delivered");
    let (img, _, _) = Image::decode(&before.body).unwrap();
    assert_eq!(img.channels, 3);

    // The mobile device reports its shallow display. The uplink runs the
    // event through the Event Manager on this thread, so the splice has
    // landed when the report returns.
    assert!(tb.client().report_context(EventKind::LowGrays));
    assert!(stream.connections().iter().any(|c| c.from.0 == "gray"));

    // After the report: images arrive as 16-level grayscale.
    stream
        .post_input(workload::image_message(&mut rng, 32))
        .unwrap();
    let after = tb.client().recv(Duration::from_secs(5)).expect("delivered");
    let (img, _, _) = Image::decode(&after.body).unwrap();
    assert_eq!(img.channels, 1, "client now receives grayscale");
    assert!(after.body.len() < before.body.len());
    tb.shutdown();
}

#[test]
fn aggregation_is_transparent_across_the_link() {
    let tb = Testbed::new(TestbedConfig::fast());
    let stream = tb
        .deploy_with_defs(
            r#"
            main stream bundled {
                streamlet agg = new-streamlet (aggregate);
                streamlet out = new-streamlet (communicator);
                connect (agg.po, out.pi);
            }
            "#,
        )
        .unwrap();

    // The default aggregator bundles 4 messages; the client's disaggregate
    // peer unpacks them, so the application sees 8 individual messages.
    for i in 0..8 {
        stream
            .post_input(MimeMessage::text(format!("part-{i}")))
            .unwrap();
    }
    let mut got = Vec::new();
    for _ in 0..8 {
        got.push(tb.client().recv(Duration::from_secs(5)).expect("delivered"));
    }
    let mut bodies: Vec<String> = got
        .iter()
        .map(|m| String::from_utf8_lossy(&m.body).into_owned())
        .collect();
    bodies.sort();
    let expected: Vec<String> = (0..8).map(|i| format!("part-{i}")).collect();
    assert_eq!(bodies, expected);
    // Only 2 frames crossed the link for 8 application messages.
    assert_eq!(tb.link().stats().delivered, 2);
    tb.shutdown();
}

#[test]
fn aggregate_then_compress_chains_reverse_fully() {
    // Bundle, then compress the bundle; the client must first decompress
    // (outermost peer) then disaggregate.
    let tb = Testbed::new(TestbedConfig::fast());
    let stream = tb
        .deploy_with_defs(
            r#"
            streamlet any_compress {
                port { in pi : */*; out po : */*; }
                attribute { type = STATELESS; library = "builtin/text_compress";
                            description = "LZSS over arbitrary bodies"; }
            }
            main stream bundledz {
                streamlet agg = new-streamlet (aggregate);
                streamlet z = new-streamlet (any_compress);
                streamlet out = new-streamlet (communicator);
                connect (agg.po, z.pi);
                connect (z.po, out.pi);
            }
            "#,
        )
        .unwrap();
    for i in 0..4 {
        stream
            .post_input(MimeMessage::text(format!(
                "bundle member {i} {}",
                "pad ".repeat(30)
            )))
            .unwrap();
    }
    let mut bodies = Vec::new();
    for _ in 0..4 {
        let m = tb.client().recv(Duration::from_secs(5)).expect("delivered");
        bodies.push(String::from_utf8_lossy(&m.body).into_owned());
    }
    bodies.sort();
    for (i, b) in bodies.iter().enumerate() {
        assert!(b.starts_with(&format!("bundle member {i}")), "{b}");
    }
    let stats = tb.client().stats();
    assert_eq!(stats.reversals, 2, "decompress + disaggregate");
    assert_eq!(stats.delivered, 4);
    tb.shutdown();
}

/// §7.5 with nothing raised by hand: the link's own drop below 100 Kb/s
/// raises LOW_BANDWIDTH into the server, whose `when` rule splices the
/// text compressor in before `set_bandwidth` returns.
fn bandwidth_drop_splices_in_the_compressor(executor: ExecutorConfig) {
    let tb = Testbed::new(TestbedConfig {
        link: LinkConfig {
            bandwidth_bps: 500_000,
            propagation_delay: Duration::ZERO,
            time_scale: 0.001,
            ..Default::default()
        },
        executor,
        ..TestbedConfig::default()
    });
    let stream = tb.deploy_with_defs(WEB_ACCELERATOR).unwrap();
    let spliced = |s: &RunningStream| s.connections().iter().any(|c| c.from.0 == "comp");
    assert!(!spliced(&stream));

    let events = Arc::new(Mutex::new(Vec::new()));
    let (seen, coordination) = (events.clone(), tb.server().coordination().clone());
    tb.link().watch(100_000, 150_000, move |e| {
        seen.lock().push(e);
        if let LinkEvent::BandwidthLow(_) = e {
            coordination.raise(&ContextEvent::broadcast(EventKind::LowBandwidth));
        }
    });
    assert!(events.lock().is_empty(), "500 Kb/s is above the band");
    tb.link().set_bandwidth(60_000);
    assert!(spliced(&stream), "comp is live when set_bandwidth returns");
    assert_eq!(*events.lock(), [LinkEvent::BandwidthLow(60_000)]);

    let before = tb.link().stats().delivered_bytes;
    let texts: Vec<String> = (0..12)
        .map(|i| format!("page {i}: {}", "slow wireless web text ".repeat(40)))
        .collect();
    for text in &texts {
        stream.post_input(MimeMessage::text(text.clone())).unwrap();
    }
    // Distributor threads reverse the texts concurrently: compare as sets.
    let mut got: Vec<String> = (0..texts.len())
        .map(|_| tb.client().recv(Duration::from_secs(10)).expect("text"))
        .map(|m| String::from_utf8(m.body.to_vec()).expect("decompressed"))
        .collect();
    got.sort();
    let mut sent = texts.clone();
    sent.sort();
    assert_eq!(got, sent, "every text arrives decompressed");
    let carried = tb.link().stats().delivered_bytes - before;
    let payload: usize = texts.iter().map(String::len).sum();
    assert!(
        carried < payload as u64 / 2,
        "texts crossed compressed: {carried} B for {payload} B"
    );
    assert_eq!(tb.client().stats().reversals, texts.len() as u64);

    tb.link().set_bandwidth(90_000); // still below the band's top
    assert_eq!(events.lock().len(), 1, "no second event");
    tb.shutdown();
}

#[test]
fn link_bandwidth_drop_splices_in_the_compressor_thread_per_streamlet() {
    bandwidth_drop_splices_in_the_compressor(ExecutorConfig::ThreadPerStreamlet);
}

#[test]
fn link_bandwidth_drop_splices_in_the_compressor_worker_pool() {
    bandwidth_drop_splices_in_the_compressor(ExecutorConfig::WorkerPool { workers: 2 });
}
