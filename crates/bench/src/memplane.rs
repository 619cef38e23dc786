//! Memory-plane harness: allocations per message through a pass-through
//! chain, measured with a counting global allocator.
//!
//! The tentpole claim of the memory plane is *allocation-free steady
//! state*: recycled ingress slabs, copy-on-write bodies and headers, and
//! reused driver scratch remove per-message heap churn from the hot
//! path. This module proves it the blunt way — a `#[global_allocator]`
//! wrapper counts every allocation in the process, a chain round-trips
//! wire messages at steady state, and the delta divided by the message
//! count is the score. The same harness drives the `repro -- memplane`
//! ablation and the CI allocation-regression test.

use crate::ChainHarness;
use mobigate::core::pool::PayloadMode;
use mobigate::core::ServerConfig;
use mobigate::mime::{MimeMessage, MimeType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A pass-through wrapper over the system allocator that counts
/// allocation events (alloc, alloc_zeroed, and growth via realloc —
/// frees are not counted: the metric is churn, not balance).
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure delegation to `System`; the counter is a relaxed atomic
// with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Every binary linking `mobigate-bench` counts allocations process-wide
/// (two relaxed atomic adds per event — noise next to malloc itself).
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events since process start (all threads).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One configuration of the allocs-per-message measurement.
#[derive(Debug, Clone, Copy)]
pub struct MemplaneChainConfig {
    /// Redirectors in the pass-through chain.
    pub chain_len: usize,
    /// Wire body size in bytes.
    pub payload_bytes: usize,
    /// Measured steady-state messages (after warmup).
    pub msgs: usize,
    /// `true` = memory plane on: `Reference` payloads + recycled slab
    /// pool at ingress. `false` = the pre-memory-plane baseline:
    /// `Value` payloads (Figure 7-3 deep copies) and plain allocation
    /// for every ingress body.
    pub memplane: bool,
}

/// What one allocs-per-message run measured.
#[derive(Debug, Clone, Copy)]
pub struct MemplaneChainOutcome {
    /// Allocation events per round-tripped message at steady state.
    pub allocs_per_msg: f64,
    /// Interleaved round-trip throughput (msg/s) over the measured span
    /// — a sanity series, not the headline throughput (that comes from
    /// the sessions points).
    pub roundtrip_mps: f64,
}

/// Round-trips `cfg.msgs` wire messages through a `chain_len` chain and
/// returns the steady-state allocation rate. Ingress uses the wire path
/// ([`mobigate::core::RunningStream::post_wire`]); egress serializes
/// into one reused scratch buffer. Interleaved post/take keeps exactly
/// one message in flight so the pipeline is quiescent between
/// iterations and the count is reproducible.
///
/// The chain is *pass-through*: `builtin/forward` does zero application
/// work, so every allocation counted is transport — ingress, queueing,
/// routing, payload handling, egress.
pub fn run_memplane_chain(cfg: MemplaneChainConfig) -> MemplaneChainOutcome {
    run_library_chain(cfg, "builtin/forward")
}

/// [`run_memplane_chain`] over a chain of `library` streamlets. With
/// `"builtin/redirector"` the difference between two chain lengths is the
/// §7.2 probe's per-hop parse/re-encapsulate allocation cost.
pub fn run_library_chain(cfg: MemplaneChainConfig, library: &str) -> MemplaneChainOutcome {
    let mode = if cfg.memplane {
        PayloadMode::Reference
    } else {
        PayloadMode::Value
    };
    let harness = ChainHarness::with_library(
        cfg.chain_len,
        ServerConfig {
            mode,
            membuf: cfg.memplane,
            ..Default::default()
        },
        library,
    );
    let stream = harness.stream().clone();

    let mut m = MimeMessage::new(
        &MimeType::new("application", "octet-stream"),
        vec![0x5Au8; cfg.payload_bytes],
    );
    // Pre-stamp the session so ingress re-stamping is the idempotent
    // fast path (no header unsharing on the hot path).
    m.set_session(stream.session());
    let wire = m.to_wire().to_vec();
    let mut scratch: Vec<u8> = Vec::new();

    let mut round = |n: usize| {
        for _ in 0..n {
            stream.post_wire(&wire).expect("post wire");
            scratch.clear();
            assert!(
                stream.take_output_wire_into(Duration::from_secs(30), &mut scratch),
                "chain output timed out"
            );
        }
    };

    // Warmup: fill the slab pool, route memos, scratch vecs, and any
    // lazily-grown queue storage.
    round(64.min(cfg.msgs.max(1)));

    let before = allocations();
    let t0 = std::time::Instant::now();
    round(cfg.msgs);
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    let after = allocations();

    MemplaneChainOutcome {
        allocs_per_msg: (after - before) as f64 / cfg.msgs as f64,
        roundtrip_mps: cfg.msgs as f64 / elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let before = allocations();
        let v: Vec<u8> = Vec::with_capacity(1024);
        drop(v);
        assert!(allocations() > before);
    }

    #[test]
    fn memplane_chain_runs_both_modes() {
        for memplane in [false, true] {
            let out = run_memplane_chain(MemplaneChainConfig {
                chain_len: 2,
                payload_bytes: 1024,
                msgs: 64,
                memplane,
            });
            assert!(out.allocs_per_msg >= 0.0);
            assert!(out.roundtrip_mps > 0.0);
        }
    }
}
