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
/// block and stamps a hop header. With the block kept in wire form that
/// costs at most 5 allocations per hop: the serialized block, the parsed
/// block's handle, text and index, and the hop counter's string. The
/// per-hop figure is the slope between a 2- and an 8-redirector chain, so
/// transport cost cancels out.
#[test]
fn redirector_hop_allocates_at_most_five_times() {
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
    assert!(
        per_hop <= 5.0,
        "a redirector hop allocates {per_hop:.2} times (k=2: {short:.1}/msg, \
         k=8: {long:.1}/msg); at most 5 expected"
    );
}

/// A link that accepts and discards every message, so the session
/// template's `communicator` can be deployed without a network.
struct NullTransport;

impl mobigate::streamlets::comm::Transport for NullTransport {
    fn send(&self, _wire: &[u8]) -> Result<(), String> {
        Ok(())
    }
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
    let script = format!(
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
    );
    let sessions = server.session_manager(&script).unwrap();
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
