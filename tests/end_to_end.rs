//! End-to-end integration: MCL script → server pipeline → emulated
//! wireless link → client reverse processing.

use mobigate::core::events::ContextEvent;
use mobigate::core::EventKind;
use mobigate::mime::{MimeMessage, MimeType};
use mobigate::netsim::LinkConfig;
use mobigate::streamlets::codec::raster::{Encoding, Image};
use mobigate::streamlets::workload;
use mobigate::testbed::{Testbed, TestbedConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// GIF images through gif2jpeg and down-sampling to the link; other
/// types go straight to the link.
const IMAGING: &str = r#"
    streamlet gifsw {
        port { in pi : */*; out po1 : image/gif; out po2 : text; }
        attribute { type = STATELESS; library = "builtin/switch"; }
    }
    main stream imaging {
        streamlet sw = new-streamlet (gifsw);
        streamlet g2j = new-streamlet (gif2jpeg);
        streamlet ds = new-streamlet (img_down_sample);
        streamlet out = new-streamlet (communicator);
        connect (sw.po1, g2j.pi);
        connect (g2j.po, ds.pi);
        connect (ds.po, out.pi);
        connect (sw.po2, out.pi);
    }
"#;

#[test]
fn compress_then_encrypt_chain_reverses_in_lifo_order() {
    let tb = Testbed::new(TestbedConfig::fast());
    let stream = tb
        .deploy_with_defs(
            r#"
            main stream secureCompress {
                streamlet c = new-streamlet (text_compress);
                streamlet e = new-streamlet (encrypt);
                streamlet out = new-streamlet (communicator);
                connect (c.po, e.pi);
                connect (e.po, out.pi);
            }
            "#,
        )
        .unwrap();

    let body = "confidential wireless traffic ".repeat(64);
    stream.post_input(MimeMessage::text(body.clone())).unwrap();

    let got = tb.client().recv(Duration::from_secs(5)).expect("delivered");
    assert_eq!(
        got.body,
        body.as_bytes(),
        "decrypt→decompress must restore the original"
    );
    assert!(got.peer_chain().is_empty(), "whole chain consumed");
    assert_eq!(tb.client().stats().reversals, 2);
    tb.shutdown();
}

#[test]
fn image_transcoding_pipeline_shrinks_and_remains_decodable() {
    let tb = Testbed::new(TestbedConfig::fast());
    let stream = tb.deploy_with_defs(IMAGING).unwrap();

    let mut rng = StdRng::seed_from_u64(99);
    let original = workload::image_message(&mut rng, 128);
    let original_len = original.body.len();
    stream.post_input(original).unwrap();

    let got = tb.client().recv(Duration::from_secs(5)).expect("delivered");
    assert_eq!(got.content_type().to_string(), "image/jpeg");
    assert!(
        got.body.len() < original_len,
        "{} !< {original_len}",
        got.body.len()
    );
    let (img, enc, _) = Image::decode(&got.body).expect("decodable");
    assert_eq!(enc, Encoding::Quantized);
    assert_eq!(img.width, 64, "down-sampled 2x from 128");
    tb.shutdown();
}

/// An `MGRF` header claiming 65535 × 65535 × 4 samples over one RLE pair
/// must be an ordinary process error that leaves the stream running: were
/// the decoder to reserve the 17 GB the header claims, the allocation
/// failure would abort the process, past any `catch_unwind`.
#[test]
fn oversized_image_header_is_a_process_error_not_an_abort() {
    let tb = Testbed::new(TestbedConfig::fast());
    let stream = tb.deploy_with_defs(IMAGING).unwrap();

    let mut bomb = b"MGRF\x01\x02\x04\x50\xFF\xFF\xFF\xFF".to_vec();
    bomb.extend_from_slice(&2u32.to_le_bytes());
    bomb.extend_from_slice(&[1, 0]);
    stream
        .post_input(MimeMessage::new(&MimeType::new("image", "gif"), bomb))
        .unwrap();
    // Whether or not the next image shares its batch, the failure costs
    // only the bomb itself.
    let mut rng = StdRng::seed_from_u64(7);
    stream
        .post_input(workload::image_message(&mut rng, 64))
        .unwrap();

    let got = tb.client().recv(Duration::from_secs(5)).expect("delivered");
    let (img, enc, _) = Image::decode(&got.body).expect("decodable");
    assert_eq!((enc, img.width), (Encoding::Quantized, 32));
    let g2j = stream.instance("g2j").expect("discrete g2j").stats();
    assert_eq!((g2j.errors, g2j.faults), (1, 0), "{g2j:?}");
    tb.shutdown();
}

/// A message that fails inside a batch costs only itself: its batch-mates
/// are still processed and delivered, and it is charged as one error, just
/// as three separate `process` calls would count.
#[test]
fn a_failing_message_does_not_discard_its_batch_mates() {
    let tb = Testbed::new(TestbedConfig::fast());
    let stream = tb
        .deploy_with_defs(
            "main stream shrink {\n streamlet ds = new-streamlet (img_down_sample);\n \
             streamlet out = new-streamlet (communicator);\n connect (ds.po, out.pi);\n}",
        )
        .unwrap();
    let ds = stream.instance("ds").expect("discrete ds");
    // Hold the streamlet so the three posts wait in its queue; on resume
    // it takes them as one batch.
    ds.pause_and_wait(Duration::from_secs(5)).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let corrupt = MimeMessage::new(&MimeType::new("image", "gif"), b"not an image".to_vec());
    for msg in [
        workload::image_message(&mut rng, 64),
        corrupt,
        workload::image_message(&mut rng, 64),
    ] {
        stream.post_input(msg).unwrap();
    }
    ds.activate().unwrap();

    for _ in 0..2 {
        let got = tb.client().recv(Duration::from_secs(5)).expect("delivered");
        let (img, _, _) = Image::decode(&got.body).expect("decodable");
        assert_eq!(img.width, 32, "down-sampled 2x from 64");
    }
    assert!(stream.drain(Duration::from_secs(5)));
    let stats = ds.stats();
    assert_eq!(
        (stats.processed, stats.errors, stats.faults),
        (2, 1, 0),
        "{stats:?}"
    );
    tb.shutdown();
}

#[test]
fn sessions_label_messages_across_streams() {
    let tb = Testbed::new(TestbedConfig::fast());
    let script = format!(
        "{}\nmain stream multi {{\n streamlet r = new-streamlet (redirector);\n streamlet out = new-streamlet (communicator);\n connect (r.po, out.pi);\n}}",
        tb.defs()
    );
    // Two instances of the same stream: distinct sessions (§4.4.3).
    let program = tb.server().compile(&script).unwrap();
    let s1 = tb.server().deploy_stream(&program, "multi").unwrap();
    let s2 = tb.server().deploy_stream(&program, "multi").unwrap();
    assert_ne!(s1.session(), s2.session());

    s1.post_input(MimeMessage::text("from one")).unwrap();
    s2.post_input(MimeMessage::text("from two")).unwrap();

    let mut sessions = Vec::new();
    for _ in 0..2 {
        let m = tb.client().recv(Duration::from_secs(5)).expect("delivered");
        sessions.push(m.session().expect("labeled").as_str().to_string());
    }
    sessions.sort();
    let mut expected = vec![
        s1.session().as_str().to_string(),
        s2.session().as_str().to_string(),
    ];
    expected.sort();
    assert_eq!(sessions, expected);
    tb.shutdown();
}

#[test]
fn lossy_link_drops_are_accounted_not_hung() {
    let tb = Testbed::new(TestbedConfig {
        link: LinkConfig {
            bandwidth_bps: 1_000_000_000,
            propagation_delay: Duration::ZERO,
            loss_rate: 0.4,
            seed: 5,
            ..Default::default()
        },
        ..TestbedConfig::default()
    });
    let stream = tb
        .deploy_with_defs(
            "main stream lossy {\n streamlet r = new-streamlet (redirector);\n \
             streamlet out = new-streamlet (communicator);\n connect (r.po, out.pi);\n}",
        )
        .unwrap();

    let n = 100;
    for i in 0..n {
        stream
            .post_input(MimeMessage::text(format!("m{i}")))
            .unwrap();
    }
    let mut delivered = 0;
    while tb.client().recv(Duration::from_millis(400)).is_some() {
        delivered += 1;
    }
    let link = tb.link().stats();
    assert_eq!(link.sent, n);
    assert_eq!(link.delivered + link.lost, n);
    assert_eq!(delivered as u64, link.delivered);
    assert!(
        link.lost > 10,
        "loss process should have bitten, lost {}",
        link.lost
    );
    tb.shutdown();
}

#[test]
fn bandwidth_throttling_orders_throughput() {
    // The same 60 KB workload takes visibly longer at 200 Kb/s than at
    // 5 Mb/s (time scale 0.02).
    let run = |bps: u64| {
        let tb = Testbed::new(TestbedConfig {
            link: LinkConfig {
                bandwidth_bps: bps,
                propagation_delay: Duration::ZERO,
                time_scale: 0.02,
                ..Default::default()
            },
            ..TestbedConfig::default()
        });
        let stream = tb
            .deploy_with_defs(
                "main stream tp {\n streamlet r = new-streamlet (redirector);\n \
                 streamlet out = new-streamlet (communicator);\n connect (r.po, out.pi);\n}",
            )
            .unwrap();
        let t0 = std::time::Instant::now();
        for _ in 0..6 {
            stream
                .post_input(MimeMessage::text("x".repeat(10_000)))
                .unwrap();
        }
        for _ in 0..6 {
            tb.client()
                .recv(Duration::from_secs(30))
                .expect("delivered");
        }
        let elapsed = t0.elapsed();
        tb.shutdown();
        elapsed
    };
    let slow = run(200_000);
    let fast = run(5_000_000);
    assert!(
        slow > fast * 2,
        "throughput must scale with bandwidth: slow {slow:?} vs fast {fast:?}"
    );
}

#[test]
fn pause_event_stops_the_flow_until_resume() {
    let tb = Testbed::new(TestbedConfig::fast());
    let stream = tb
        .deploy_with_defs(
            "main stream gated {\n streamlet r = new-streamlet (redirector);\n \
             streamlet out = new-streamlet (communicator);\n connect (r.po, out.pi);\n}",
        )
        .unwrap();
    tb.server()
        .raise_event(&ContextEvent::broadcast(EventKind::Pause));
    stream.post_input(MimeMessage::text("held")).unwrap();
    assert!(tb.client().recv(Duration::from_millis(200)).is_none());
    tb.server()
        .raise_event(&ContextEvent::broadcast(EventKind::Resume));
    assert!(tb.client().recv(Duration::from_secs(5)).is_some());
    tb.shutdown();
}
