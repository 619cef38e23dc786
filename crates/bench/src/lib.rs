//! Measurement harnesses behind the `repro` binary and the bench crate's
//! tests. One module per experiment; see DESIGN.md §5 for the experiment
//! index and EXPERIMENTS.md for recorded results.

pub mod ablation;
pub mod chain;
pub mod chaos;
pub mod e2e;
pub mod memplane;
pub mod obs;
pub mod overload;
pub mod reconfig;
pub mod report;
pub mod roles;
pub mod sessions;

pub use ablation::{channel_post_us, pool_checkout_ns, POOLED_LIBRARY};
pub use chain::ChainHarness;
pub use chaos::{chaos_server_config, run_chaos, with_quiet_panics, ChaosConfig, ChaosOutcome};
pub use e2e::{end_to_end_point, E2EPoint};
pub use memplane::{
    allocations, run_library_chain, run_memplane_chain, CountingAlloc, MemplaneChainConfig,
    MemplaneChainOutcome,
};
pub use obs::{obs_chain_pair, run_scrape_churn, ObsChainConfig, ScrapeOutcome};
pub use overload::{
    run_breaker_probe, run_overload_burst, BreakerProbeOutcome, OverloadBurstConfig,
    OverloadBurstOutcome,
};
pub use reconfig::reconfig_time;
pub use sessions::{run_sessions, SessionsConfig, SessionsOutcome};
