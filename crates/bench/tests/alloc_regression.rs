//! CI allocation-regression guard for the memory plane.
//!
//! Uses the counting global allocator in `mobigate_bench::memplane` to
//! round-trip messages through a pass-through chain and asserts that the
//! steady-state allocation rate stays where the memory plane put it. Counts
//! are process-wide, so each scenario runs alone in its own process: the
//! harness interleaves exactly one message in flight and the test binary
//! runs these tests single-threaded via the harness's own serial lock.

use mobigate_bench::{run_library_chain, run_memplane_chain, MemplaneChainConfig};
use std::sync::Mutex;

/// Allocation counts are global; overlapping chains would pollute each
/// other's deltas.
static SERIAL: Mutex<()> = Mutex::new(());

fn run(chain_len: usize, memplane: bool) -> f64 {
    let _guard = SERIAL.lock().unwrap();
    run_memplane_chain(MemplaneChainConfig {
        chain_len,
        payload_bytes: 4 * 1024,
        msgs: 256,
        memplane,
    })
    .allocs_per_msg
}

/// The headline invariant: per-hop transport is allocation-free, so the
/// rate must not grow with chain length. The absolute bound (16/msg for
/// ingress parse + egress serialize, measured at 5) is the regression
/// tripwire for the hot path.
#[test]
fn memplane_steady_state_allocation_rate_is_flat_and_low() {
    let short = run(2, true);
    let long = run(8, true);
    assert!(
        short <= 16.0,
        "memplane k=2 allocates {short:.1}/msg (> 16): hot-path regression"
    );
    assert!(
        long <= 16.0,
        "memplane k=8 allocates {long:.1}/msg (> 16): hot-path regression"
    );
    assert!(
        long <= short + 2.0,
        "allocation rate grows with chain length ({short:.1} -> {long:.1}): \
         a per-hop allocation crept back in"
    );
}

/// The ablation contrast: the pre-memory-plane baseline (Value deep
/// copies, no slab pool) allocates several times more. 3x here is
/// deliberately looser than the 5x acceptance guard in `repro -- memplane`
/// so CI noise cannot flake it.
#[test]
fn memplane_beats_deep_copy_baseline_by_3x() {
    let base = run(4, false);
    let mem = run(4, true);
    assert!(
        base >= 3.0 * mem,
        "memory plane only cut allocs/msg from {base:.1} to {mem:.1} (< 3x)"
    );
}

/// The §7.2 redirector serializes and re-parses every message's header
/// block and stamps a hop header. With the block kept in wire form, its
/// line index inline, the serialized form in a reused buffer and the hop
/// count formatted on the stack, that costs at most 2 allocations per hop:
/// in an unfused chain each hop's input block is shared with the task's
/// replay snapshot, so the parse takes fresh storage — a shared handle and
/// its text (measured at exactly 2). The per-hop figure is the slope
/// between a 2- and an 8-redirector chain, so transport cost cancels out.
#[test]
fn redirector_hop_allocates_at_most_twice() {
    let run = |chain_len: usize| {
        let _guard = SERIAL.lock().unwrap();
        run_library_chain(
            MemplaneChainConfig {
                chain_len,
                payload_bytes: 4 * 1024,
                msgs: 256,
                memplane: true,
            },
            "builtin/redirector",
        )
        .allocs_per_msg
    };
    let (short, long) = (run(2), run(8));
    let per_hop = (long - short) / 6.0;
    eprintln!("redirector hop: {per_hop:.2} allocations");
    assert!(
        per_hop <= 2.0,
        "a redirector hop allocates {per_hop:.2} times (k=2: {short:.1}/msg, \
         k=8: {long:.1}/msg); at most 2 expected"
    );
}

/// A fused unit hands each stage's emissions to the next stage in a feed
/// buffer it keeps across stages and messages, so its allocations per
/// message do not grow with its member count.
#[test]
fn fused_unit_allocations_do_not_grow_with_member_count() {
    use mobigate::core::{ExecutorConfig, ServerConfig};
    use mobigate::mime::{MimeMessage, MimeType};
    use mobigate_bench::ChainHarness;
    use std::time::Duration;

    let run = |members: usize| {
        let _guard = SERIAL.lock().unwrap();
        let harness = ChainHarness::with_library(
            members,
            ServerConfig {
                executor: ExecutorConfig::WorkerPool { workers: 2 },
                fusion: true,
                ..Default::default()
            },
            "builtin/forward",
        );
        let stream = harness.stream().clone();
        let mut m = MimeMessage::new(&MimeType::new("text", "plain"), vec![b'x'; 64]);
        m.set_session(stream.session());
        let wire = m.to_wire().to_vec();
        let mut out = Vec::new();
        let mut round = |n: usize| {
            for _ in 0..n {
                stream.post_wire(&wire).unwrap();
                out.clear();
                assert!(stream.take_output_wire_into(Duration::from_secs(30), &mut out));
            }
        };
        round(64);
        const MSGS: usize = 512;
        let before = mobigate_bench::allocations();
        round(MSGS);
        (mobigate_bench::allocations() - before) as f64 / MSGS as f64
    };
    let (short, long) = (run(2), run(8));
    eprintln!("fused unit: {short:.2} allocations per message with 2 members, {long:.2} with 8");
    assert!(
        long <= short + 0.5,
        "a fused unit's allocations per message grow with its members \
         ({short:.2} with 2, {long:.2} with 8)"
    );
}

/// A parsed header block costs two allocations — its shared handle and
/// its text; the line index lives inside the handle for up to eight lines
/// — however the block is framed, and the edit that usually follows (one
/// stamped line) fits the reserved spare. Re-parsing into a block nothing
/// else shares allocates nothing.
#[test]
fn header_block_parse_allocates_at_most_twice() {
    use mobigate::mime::Headers;

    let _guard = SERIAL.lock().unwrap();
    let blocks = [
        "X-Bench-Seq: 7\r\nContent-Type: text/plain\r\nContent-Length: 64\r\n",
        "X-Bench-Seq: 7\nContent-Type: text/plain\nContent-Length: 64\n",
        "A:1\r\nB :  two \r\n\tfolded\r\n\r\nC\u{a0}: x\u{2003}",
        "H1: 1\r\nH2: 2\r\nH3: 3\r\nH4: 4\r\nH5: 5\r\nH6: 6\r\nH7: 7\r\n",
    ];
    for text in blocks {
        // The count is process-wide, and the harness may start another
        // test's thread mid-measurement. That can only add to a count, so
        // each figure is the least of a few identical repetitions.
        let (mut parsed, mut reparsed) = (u64::MAX, u64::MAX);
        for _ in 0..5 {
            let before = mobigate_bench::allocations();
            let mut h = Headers::parse(text).unwrap();
            h.set_u64("X-MobiGATE-Hop", 123_456);
            parsed = parsed.min(mobigate_bench::allocations() - before);

            let wire = h.to_wire();
            let before = mobigate_bench::allocations();
            h.reparse(&wire).unwrap();
            h.set_u64("X-MobiGATE-Hop", 123_457);
            reparsed = reparsed.min(mobigate_bench::allocations() - before);
        }
        assert!(
            parsed <= 2,
            "{text:?}: parse + one edit allocated {parsed} times"
        );
        assert_eq!(reparsed, 0, "{text:?}: re-parse in place allocated");
    }
}

/// A link that accepts and discards every message, so the session
/// template's `communicator` can be deployed without a network.
struct NullTransport;

impl mobigate::streamlets::comm::Transport for NullTransport {
    fn send(&self, _wire: &[u8]) -> Result<(), String> {
        Ok(())
    }
}

/// The `sessions`/`churn` template: three fused redirectors ending in the
/// communicator.
fn session_template() -> String {
    format!(
        "{}\nstreamlet communicator {{ port {{ in pi : */*; }} \
         attribute {{ type = STATELESS; library = \"builtin/communicator\"; }} }}\n\
         main stream user {{
             streamlet r0 = new-streamlet (redirector);
             streamlet r1 = new-streamlet (redirector);
             streamlet r2 = new-streamlet (redirector);
             streamlet out = new-streamlet (communicator);
             connect (r0.po, r1.pi);
             connect (r1.po, r2.pi);
             connect (r2.po, out.pi);
         }}",
        mobigate::streamlets::standard_defs()
    )
}

/// Session lifecycle allocations: one spawn plus one teardown of the
/// `churn` template (three fused redirectors ending in the communicator,
/// on a 2-worker pool). The template is compiled into a shared blueprint
/// once, so a cycle allocates only live state: queues, handles, the fused
/// unit and the registrations. Measured at 173 per cycle before stamping
/// from a blueprint.
#[test]
fn session_spawn_and_teardown_allocate_at_most_40() {
    use mobigate::core::StreamletPool;
    use mobigate::core::{ExecutorConfig, MobiGate, ServerConfig, StreamletDirectory};
    use std::sync::Arc;

    let _guard = SERIAL.lock().unwrap();
    let server = MobiGate::with_config(
        ServerConfig {
            executor: ExecutorConfig::WorkerPool { workers: 2 },
            fusion: true,
            ..Default::default()
        },
        Arc::new(StreamletDirectory::new()),
        Arc::new(StreamletPool::new(64)),
    );
    mobigate::streamlets::register_builtins(server.directory());
    mobigate::streamlets::comm::Communicator::register(server.directory(), Arc::new(NullTransport));
    let sessions = server.session_manager(&session_template()).unwrap();
    let cycle = || {
        let stream = sessions.spawn().unwrap();
        assert!(sessions.teardown(stream.session()));
    };
    // Warm the instance pool and every table's capacity first.
    for _ in 0..32 {
        cycle();
    }
    const CYCLES: u64 = 200;
    let before = mobigate_bench::allocations();
    for _ in 0..CYCLES {
        cycle();
    }
    let per_cycle = (mobigate_bench::allocations() - before) as f64 / CYCLES as f64;
    eprintln!("session spawn+teardown: {per_cycle:.1} allocations per cycle");
    assert!(
        per_cycle <= 40.0,
        "a session spawn+teardown allocates {per_cycle:.1} times; at most 40 expected"
    );
}

/// The communicator's link in the session-path test: every frame goes
/// straight into the client's Message Distributor, as the emulated link's
/// far end would hand it over.
struct ClientLink(std::sync::Arc<mobigate::client::MobiGateClient>);

impl mobigate::streamlets::comm::Transport for ClientLink {
    fn send(&self, wire: &[u8]) -> Result<(), String> {
        self.0.submit_wire(wire.to_vec());
        Ok(())
    }
}

/// Allocations per message on the whole session path, as `gatebench
/// --workload sessions` drives it, one message in flight: wire ingress
/// (parse, session stamp, pool insert), the three fused redirectors, the
/// communicator's serialization, the client's parse and delivery.
/// Measured at exactly 7 per message, the same with one redirector as with
/// three: inside the fused unit a hop re-parses the block in place.
#[test]
fn session_message_path_allocation_budget() {
    use mobigate::client::{ClientStreamletPool, MobiGateClient};
    use mobigate::core::StreamletPool;
    use mobigate::core::{ExecutorConfig, MobiGate, ServerConfig, StreamletDirectory};
    use mobigate::streamlets::workload::text_message;
    use rand::SeedableRng;
    use std::io::Write as _;
    use std::sync::Arc;
    use std::time::Duration;

    let _guard = SERIAL.lock().unwrap();
    let server = MobiGate::with_config(
        ServerConfig {
            executor: ExecutorConfig::WorkerPool { workers: 2 },
            fusion: true,
            ..Default::default()
        },
        Arc::new(StreamletDirectory::new()),
        Arc::new(StreamletPool::new(64)),
    );
    mobigate::streamlets::register_builtins(server.directory());
    let client = MobiGateClient::new(ClientStreamletPool::new(), 1);
    mobigate::streamlets::comm::Communicator::register(
        server.directory(),
        Arc::new(ClientLink(client.clone())),
    );
    let sessions = server.session_manager(&session_template()).unwrap();
    let stream = sessions.spawn().unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let body = text_message(&mut rng, 64).to_wire();
    let mut wire = Vec::new();
    let mut send = |seq: u64| {
        wire.clear();
        write!(wire, "X-Bench-Seq: {seq}\r\n").unwrap();
        wire.extend_from_slice(&body);
        stream.post_wire(&wire).unwrap();
        let msg = client.recv(Duration::from_secs(10)).expect("delivered");
        // Checked without allocating: the count covers the path alone.
        let got = msg
            .headers
            .get("X-Bench-Seq")
            .and_then(|v| v.parse::<u64>().ok());
        assert_eq!(got, Some(seq));
        assert_eq!(
            msg.headers.get(mobigate::mime::CONTENT_SESSION),
            Some(stream.session().as_str())
        );
    };
    // Warm the slab pool, scratch buffers and queue storage first.
    for seq in 0..256 {
        send(seq);
    }
    const MSGS: u64 = 1000;
    let before = mobigate_bench::allocations();
    for seq in 1000..1000 + MSGS {
        send(seq);
    }
    let per_msg = (mobigate_bench::allocations() - before) as f64 / MSGS as f64;
    eprintln!("session message path: {per_msg:.2} allocations per message");
    assert!(
        per_msg <= 8.0,
        "a session message allocates {per_msg:.2} times end to end; at most 8 expected"
    );
    drop(sessions);
    client.shutdown();
}
