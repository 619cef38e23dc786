//! The MobiGATE server runtime (thesis chapters 3 and 6).
//!
//! The runtime is organized — like the paper's Figure 3-2 — into two planes:
//!
//! * the **Stream Coordination Plane**: [`queue::MessageQueue`] channel
//!   objects, the wiring held by [`stream::RunningStream`], and the
//!   [`coordination::CoordinationManager`] with its per-stream configuration
//!   tables;
//! * the **Streamlet Execution Plane**: [`streamlet::StreamletLogic`]
//!   computation objects held by [`streamlet::StreamletHandle`] and
//!   scheduled by an [`executor::Executor`] (thread-per-streamlet, or a
//!   shared worker pool; both drive the one
//!   [`streamlet::StreamletTask::pump`] state machine), with
//!   [`pooling::StreamletPool`] reusing stateless instances.
//!
//! Cross-cutting services: the [`events::EventManager`] (Table 6-1 context
//! events, category subscription, multicast), the
//! [`directory::StreamletDirectory`] where providers advertise streamlet
//! implementations, and the central [`pool::MessagePool`] that lets
//! channels pass messages **by reference** (§6.7).
//!
//! The [`server::MobiGate`] facade ties everything together: it compiles an
//! MCL script, deploys the resulting configuration tables as running
//! streams, feeds messages in, and collects adapted messages out.

#![forbid(unsafe_code)]

pub mod coordination;
pub mod directory;
pub mod error;
pub mod events;
pub mod executor;
pub mod fusion;
pub mod membuf;
pub mod overload;
pub mod pool;
pub mod pooling;
pub mod queue;
pub mod server;
pub mod session;
pub mod sharing;
pub mod stream;
pub mod streamlet;
pub mod supervisor;
pub mod sync;
pub mod telemetry;

pub use coordination::CoordinationManager;
pub use directory::StreamletDirectory;
pub use error::CoreError;
pub use events::{ContextEvent, EventManager};
pub use executor::{default_executor, Executor, ThreadPerStreamlet, WorkerPool};
pub use fusion::{FusedLogic, FusedMember, FusedShared};
pub use membuf::{BufferPool, BufferPoolStats, PooledBuf};
pub use overload::{
    AdmissionConfig, AdmissionController, AdmissionStats, BreakerConfig, BreakerState,
    CircuitBreaker, FaultVerdict, OverloadConfig, PriorityClass, ProbeOutcome, ShedConfig,
    TokenBucket,
};
pub use pool::{MessagePool, PayloadMode};
pub use pooling::StreamletPool;
pub use queue::{FetchResult, MessageQueue, PostResult, QueueConfig};
pub use server::{ExecutorConfig, MobiGate, ServerConfig, SupervisionConfig};
pub use session::SessionManager;
pub use sharing::{SharedStreamlet, SharingStats};
pub use stream::{BatchConfig, ReconfigStats, RunningStream, StreamStats};
pub use streamlet::{
    Emitter, LifecycleState, PumpOutcome, RouteOpts, StreamletCtx, StreamletHandle, StreamletLogic,
    StreamletTask,
};
pub use supervisor::{
    DeadLetter, DeadLetterQueue, FaultCause, FaultInfo, RestartPolicy, Supervisor, SupervisorStats,
};
pub use telemetry::{
    BridgeConfig, DropReason, MetricsSnapshot, Telemetry, TelemetryConfig, TraceEvent, TraceKind,
};

// Re-export the language-level vocabulary the runtime shares with MCL.
pub use mobigate_mcl::events::{EventCategory, EventKind};
