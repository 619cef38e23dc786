//! The gateway's wire output is a contract: the frames the communicator
//! puts on the link for a fixed input sequence must not change when the
//! message path is optimized. Each test feeds a seeded message sequence
//! through a composition, collects every frame the communicator sends,
//! and compares a digest of them with the one recorded before the header
//! parse, the redirector's hop stamp and the communicator's serialization
//! were reworked — so the redirector's `X-MobiGATE-Hop` header, the
//! session label and every codec's output are pinned byte for byte.

use mobigate::core::{ExecutorConfig, MobiGate, ServerConfig, StreamletDirectory, StreamletPool};
use mobigate::streamlets::comm::{CollectorTransport, Communicator};
use mobigate::streamlets::workload::{image_message, text_message};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const COMMUNICATOR: &str = r#"
streamlet communicator {
    port { in pi : */*; }
    attribute { type = STATELESS; library = "builtin/communicator"; }
}
"#;

/// The session-plane template: three redirectors and the communicator.
const USER_CHAIN: &str = r#"
main stream user {
    streamlet r0 = new-streamlet (redirector);
    streamlet r1 = new-streamlet (redirector);
    streamlet r2 = new-streamlet (redirector);
    streamlet out = new-streamlet (communicator);
    connect (r0.po, r1.pi);
    connect (r1.po, r2.pi);
    connect (r2.po, out.pi);
}
"#;

/// The §7.5 web accelerator in its low-bandwidth steady state.
const ACCELERATOR: &str = r#"
streamlet gif_switch {
    port { in pi : */*; out po1 : image/gif; out po2 : text; }
    attribute { type = STATELESS; library = "builtin/switch"; }
}
main stream webAccel {
    streamlet sw = new-streamlet (gif_switch);
    streamlet g2j = new-streamlet (gif2jpeg);
    streamlet ds = new-streamlet (img_down_sample);
    streamlet comp = new-streamlet (text_compress);
    streamlet out = new-streamlet (communicator);
    connect (sw.po1, g2j.pi);
    connect (g2j.po, ds.pi);
    connect (ds.po, out.pi);
    connect (sw.po2, comp.pi);
    connect (comp.po, out.pi);
}
"#;

/// The §7.5 text branch alone: the compressor and the communicator.
const COMPRESSOR: &str = r#"
main stream textAccel {
    streamlet comp = new-streamlet (text_compress);
    streamlet out = new-streamlet (communicator);
    connect (comp.po, out.pi);
}
"#;

fn server(executor: ExecutorConfig, fusion: bool) -> (MobiGate, Arc<CollectorTransport>) {
    let server = MobiGate::with_config(
        ServerConfig {
            executor,
            fusion,
            ..Default::default()
        },
        Arc::new(StreamletDirectory::new()),
        Arc::new(StreamletPool::new(16)),
    );
    mobigate::streamlets::register_builtins(server.directory());
    let collector = CollectorTransport::new();
    Communicator::register(server.directory(), collector.clone());
    (server, collector)
}

fn script(composition: &str) -> String {
    format!(
        "{}\n{COMMUNICATOR}\n{composition}",
        mobigate::streamlets::standard_defs()
    )
}

fn wait_for(collector: &CollectorTransport, n: usize) -> Vec<Vec<u8>> {
    let deadline = Instant::now() + Duration::from_secs(60);
    while collector.len() < n {
        assert!(
            Instant::now() < deadline,
            "{} of {n} frames sent",
            collector.len()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    collector.frames()
}

/// Frame count, total bytes and a 64-bit FNV-1a digest of every frame,
/// length-prefixed, in the given order.
fn digest(frames: &[Vec<u8>]) -> (usize, usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for frame in frames {
        for &b in (frame.len() as u64).to_le_bytes().iter().chain(frame) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (frames.len(), frames.iter().map(Vec::len).sum(), h)
}

/// 64 texts through one session of the three-redirector template, fused
/// on the worker pool as `gatebench --workload sessions` runs it. One
/// chain, so the frames arrive in input order.
#[test]
fn session_template_frames_are_byte_identical() {
    let (server, collector) = server(ExecutorConfig::WorkerPool { workers: 2 }, true);
    let sessions = server.session_manager(&script(USER_CHAIN)).unwrap();
    let stream = sessions.spawn().unwrap();
    let mut rng = StdRng::seed_from_u64(24);
    for seq in 0..64u64 {
        let mut wire = format!("X-Bench-Seq: {seq}\r\n").into_bytes();
        wire.extend_from_slice(&text_message(&mut rng, 64).to_wire());
        stream.post_wire(&wire).unwrap();
    }
    let frames = wait_for(&collector, 64);
    let last = String::from_utf8_lossy(&frames[63]).into_owned();
    assert!(
        last.starts_with(
            "X-Bench-Seq: 63\r\nContent-Type: text/plain\r\nContent-Length: 64\r\n\
             Content-Session: user#0\r\nX-MobiGATE-Hop: 64\r\n\r\n"
        ),
        "{last:?}"
    );
    assert_eq!(digest(&frames), (64, 11_117, 0xbde2_4a86_d9b2_b8bf));
    assert!(sessions.teardown(stream.session()));
}

/// 16 images and 16 texts through the §7.5 accelerator on a thread per
/// streamlet. The image and text branches meet at the communicator in
/// either order, so the frames are compared as a sorted set.
#[test]
fn web_accelerator_frames_are_byte_identical() {
    let (server, collector) = server(ExecutorConfig::ThreadPerStreamlet, false);
    let stream = server.deploy_mcl(&script(ACCELERATOR)).unwrap();
    let mut rng = StdRng::seed_from_u64(75);
    for i in 0..32 {
        let msg = if i % 2 == 0 {
            image_message(&mut rng, 32)
        } else {
            text_message(&mut rng, 1024)
        };
        stream.post_wire(&msg.to_wire()).unwrap();
    }
    let mut frames = wait_for(&collector, 32);
    frames.sort();
    assert_eq!(digest(&frames), (32, 16_368, 0xa3ec_18d1_c570_8af1));
    assert!(server.undeploy(stream.session()));
}

/// 16 texts of 8 KiB, the size `gatebench --workload webaccel` sends, from
/// four seeds, through one compressor instance. Each body is twice the
/// LZSS window, so matches reach back across the window's edge; the
/// digest was recorded before the compressor began building its hash
/// chains ahead of the match search.
#[test]
fn compressed_8k_text_frames_are_byte_identical() {
    let (server, collector) = server(ExecutorConfig::ThreadPerStreamlet, false);
    let stream = server.deploy_mcl(&script(COMPRESSOR)).unwrap();
    for seed in 31..35 {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..4 {
            let msg = text_message(&mut rng, 8 * 1024);
            stream.post_wire(&msg.to_wire()).unwrap();
        }
    }
    let frames = wait_for(&collector, 16);
    assert_eq!(digest(&frames), (16, 32_862, 0xd714_22f0_ca3a_1cfa));
    assert!(server.undeploy(stream.session()));
}
