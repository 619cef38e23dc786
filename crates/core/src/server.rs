//! The MobiGATE server facade (Figure 3-2 in one object).
//!
//! `MobiGate` bundles the Streamlet Directory, the streamlet pool, the
//! central message pool, the Event Manager, and the Coordination Manager,
//! and exposes the paper's working surface: register streamlet
//! implementations, deploy MCL scripts, inject flows, raise context events.
//!
//! Deployment runs the Chapter-5 semantic analyses first and rejects
//! inconsistent compositions ("the overall MCL description can be validated
//! to ensure that potential conflicts … are resolved at compilation time",
//! §5.3); [`MobiGate::deploy_mcl_unchecked`] skips the analyses for
//! experiments that need a deliberately odd topology.

use crate::coordination::CoordinationManager;
use crate::directory::StreamletDirectory;
use crate::error::CoreError;
use crate::events::{ContextEvent, EventManager};
use crate::executor::{default_executor, Executor, WorkerPool};
use crate::membuf::BufferPool;
use crate::overload::{AdmissionController, OverloadConfig};
use crate::pool::{MessagePool, PayloadMode};
use crate::pooling::StreamletPool;
use crate::session::SessionManager;
use crate::stream::{BatchConfig, RunningStream, StreamDeps};
use crate::supervisor::{DeadLetterQueue, RestartPolicy, Supervisor};
use crate::telemetry::{bridge::MetricsBridge, MetricsSnapshot, Telemetry, TelemetryConfig};
use mobigate_mcl::analysis;
use mobigate_mcl::compile::compile;
use mobigate_mcl::config::Program;
use mobigate_mcl::template::StreamTemplate;
use mobigate_mime::SessionId;
use std::sync::Arc;

/// Which back end schedules the execution plane's streamlets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorConfig {
    /// One OS thread per streamlet — the paper-faithful default
    /// (`Streamlet extends Thread`).
    #[default]
    ThreadPerStreamlet,
    /// A shared pool of `workers` threads driving a run-queue of runnable
    /// streamlets, so deep compositions don't cost a thread per hop.
    WorkerPool {
        /// Number of pool worker threads (clamped to at least 1).
        workers: usize,
    },
}

impl ExecutorConfig {
    /// Instantiates the configured executor.
    pub fn build(self) -> Arc<dyn Executor> {
        match self {
            ExecutorConfig::ThreadPerStreamlet => default_executor(),
            ExecutorConfig::WorkerPool { workers } => WorkerPool::new(workers),
        }
    }
}

/// Fault-tolerance knobs for the execution plane (see `supervisor.rs`).
#[derive(Clone)]
pub struct SupervisionConfig {
    /// When false, no supervisor is built: a faulted instance stays
    /// `Faulted` forever (panics are still isolated from the executor).
    pub enabled: bool,
    /// Default restart policy applied to every deployed instance.
    pub policy: RestartPolicy,
    /// Capacity of the poison-message dead-letter queue.
    pub dead_letter_capacity: usize,
    /// Seed of the supervisor's restart-backoff jitter PRNG. A fixed seed
    /// makes restart schedules bit-for-bit reproducible across runs; vary
    /// it to decorrelate restart storms across gateway replicas.
    pub jitter_seed: u64,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig {
            enabled: true,
            policy: RestartPolicy::default(),
            dead_letter_capacity: 64,
            jitter_seed: Supervisor::DEFAULT_JITTER_SEED,
        }
    }
}

/// Server-wide runtime knobs, grouped so ablations can vary one axis at a
/// time.
#[derive(Clone)]
pub struct ServerConfig {
    /// Reference vs. value payload passing (Figure 7-3).
    pub mode: PayloadMode,
    /// Runtime type-check options (§4.1).
    pub route_opts: crate::streamlet::RouteOpts,
    /// Execution back end for streamlets.
    pub executor: ExecutorConfig,
    /// Streamlet supervision (panic isolation is always on; this governs
    /// restarts, quarantine, and the dead-letter queue).
    pub supervision: SupervisionConfig,
    /// Hot-path batching: the per-wake drain ceiling.
    pub batching: BatchConfig,
    /// Chain fusion: statically collapse maximal runs of fusable streamlets
    /// into single execution units at deploy time, with event-driven
    /// fission on reconfiguration or member quarantine (see `fusion.rs`).
    pub fusion: bool,
    /// Observability plane: hot-path metrics, lifecycle traces, and the
    /// metrics→event bridge. Disabled by default — the off path allocates
    /// nothing and costs one branch per instrumented operation.
    pub telemetry: TelemetryConfig,
    /// Overload protection: token-bucket admission control at ingress,
    /// priority-aware load shedding, and per-instance circuit breakers.
    /// Disabled by default — enabling it is the graceful-degradation
    /// posture for gateways facing bursty client populations.
    pub overload: OverloadConfig,
    /// Memory plane: the recycled-slab buffer pool backing
    /// [`RunningStream::post_wire`] ingress bodies. Enabled by default;
    /// disabling reproduces the plain-allocation baseline for ablations.
    pub membuf: bool,
}

/// Slabs the memory plane retains per size class.
const MEMBUF_MAX_PER_CLASS: usize = 128;

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            mode: PayloadMode::Reference,
            route_opts: Default::default(),
            executor: ExecutorConfig::default(),
            supervision: SupervisionConfig::default(),
            batching: BatchConfig::default(),
            fusion: false,
            telemetry: TelemetryConfig::default(),
            overload: OverloadConfig::default(),
            membuf: true,
        }
    }
}

/// The assembled MobiGATE server.
pub struct MobiGate {
    directory: Arc<StreamletDirectory>,
    streamlet_pool: Arc<StreamletPool>,
    msg_pool: Arc<MessagePool>,
    events: Arc<EventManager>,
    /// Shared (`Arc`) so session managers can deploy/undeploy against it;
    /// the server's `Drop` still shuts every stream down first (see
    /// below), whatever clones are outstanding.
    coordination: Arc<CoordinationManager>,
    mode: PayloadMode,
    /// Declared after `coordination` on purpose: streams shut down (ending
    /// their streamlets) before the supervisor stops restarting them and
    /// before the executor's workers are joined.
    supervisor: Option<Arc<Supervisor>>,
    executor: Arc<dyn Executor>,
    /// The observability plane, when `ServerConfig { telemetry }` enabled
    /// it. `None` otherwise — nothing is allocated, nothing is polled.
    telemetry: Option<Arc<Telemetry>>,
    /// Gateway-wide admission controller, when `ServerConfig { overload }`
    /// enabled admission control. Shared with every stream's deps.
    admission: Option<Arc<AdmissionController>>,
    /// Memory plane: the recycled-slab buffer pool, when enabled.
    buf_pool: Option<Arc<BufferPool>>,
}

impl Drop for MobiGate {
    fn drop(&mut self) {
        // Stop the bridge's watcher thread before tearing streams down so
        // it never observes a half-shut-down coordination plane.
        if let Some(t) = &self.telemetry {
            t.stop_bridge();
        }
        // An outstanding `Arc<CoordinationManager>` (a SessionManager kept
        // alive past the gate) must not keep streams running against an
        // executor whose workers the next field drops are about to join.
        self.coordination.shutdown_all();
    }
}

impl Default for MobiGate {
    fn default() -> Self {
        Self::new(PayloadMode::Reference)
    }
}

impl MobiGate {
    /// Builds a server with the given payload-passing mode.
    pub fn new(mode: PayloadMode) -> Self {
        Self::with_config(
            ServerConfig {
                mode,
                ..Default::default()
            },
            Arc::new(StreamletDirectory::new()),
            Arc::new(StreamletPool::new(64)),
        )
    }

    /// Builds a server from a full [`ServerConfig`] (executor back end,
    /// payload mode, routing options, optional planes) over
    /// caller-supplied directory and streamlet pool (ablations swap in
    /// [`StreamletPool::disabled`]).
    pub fn with_config(
        config: ServerConfig,
        directory: Arc<StreamletDirectory>,
        streamlet_pool: Arc<StreamletPool>,
    ) -> Self {
        let msg_pool = Arc::new(MessagePool::new());
        let executor = config.executor.build();
        let events = Arc::new(EventManager::new());
        let supervisor = if config.supervision.enabled {
            Some(Supervisor::with_options(
                events.clone(),
                config.supervision.policy.clone(),
                config.supervision.dead_letter_capacity,
                config.supervision.jitter_seed,
                config
                    .overload
                    .breaker_on()
                    .then(|| config.overload.breaker.clone()),
            ))
        } else {
            None
        };
        let admission = config
            .overload
            .admission_on()
            .then(|| AdmissionController::new(config.overload.admission.clone()));
        let telemetry = if config.telemetry.enabled {
            let t = Telemetry::new();
            if let Some(sup) = &supervisor {
                sup.set_telemetry(t.clone());
            }
            Some(t)
        } else {
            None
        };
        let buf_pool = config.membuf.then(|| BufferPool::new(MEMBUF_MAX_PER_CLASS));
        let deps = StreamDeps {
            msg_pool: msg_pool.clone(),
            directory: directory.clone(),
            streamlet_pool: streamlet_pool.clone(),
            mode: config.mode,
            route_opts: config.route_opts,
            executor: executor.clone(),
            supervisor: supervisor.clone(),
            batching: config.batching,
            fusion: config.fusion,
            telemetry: telemetry.clone(),
            overload: config.overload.clone(),
            admission: admission.clone(),
            buf_pool: buf_pool.clone(),
        };
        let coordination = Arc::new(CoordinationManager::new(deps, events.clone()));
        if let Some(t) = &telemetry {
            if config.telemetry.bridge.enabled {
                let bridge = MetricsBridge::start(
                    config.telemetry.bridge.clone(),
                    Arc::downgrade(t),
                    Arc::downgrade(&coordination),
                    Arc::downgrade(&events),
                );
                t.install_bridge(bridge);
            }
        }
        MobiGate {
            directory,
            streamlet_pool,
            msg_pool,
            events,
            coordination,
            mode: config.mode,
            supervisor,
            executor,
            telemetry,
            admission,
            buf_pool,
        }
    }

    /// The streamlet implementation registry.
    pub fn directory(&self) -> &Arc<StreamletDirectory> {
        &self.directory
    }

    /// The stateless-instance pool.
    pub fn streamlet_pool(&self) -> &Arc<StreamletPool> {
        &self.streamlet_pool
    }

    /// The central message pool.
    pub fn message_pool(&self) -> &Arc<MessagePool> {
        &self.msg_pool
    }

    /// The event manager.
    pub fn events(&self) -> &Arc<EventManager> {
        &self.events
    }

    /// The coordination manager (shared with session managers).
    pub fn coordination(&self) -> &Arc<CoordinationManager> {
        &self.coordination
    }

    /// The configured payload mode.
    pub fn mode(&self) -> PayloadMode {
        self.mode
    }

    /// The execution back end scheduling this server's streamlets.
    pub fn executor(&self) -> &Arc<dyn Executor> {
        &self.executor
    }

    /// The streamlet supervisor, when supervision is enabled.
    pub fn supervisor(&self) -> Option<&Arc<Supervisor>> {
        self.supervisor.as_ref()
    }

    /// The poison-message dead-letter queue (inspection API), when
    /// supervision is enabled.
    pub fn dead_letters(&self) -> Option<&Arc<DeadLetterQueue>> {
        self.supervisor.as_ref().map(|s| s.dead_letters())
    }

    /// The observability plane, when enabled.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// The admission controller, when overload protection enabled it.
    pub fn admission(&self) -> Option<&Arc<AdmissionController>> {
        self.admission.as_ref()
    }

    /// The memory plane's buffer pool, when enabled.
    pub fn buffer_pool(&self) -> Option<&Arc<BufferPool>> {
        self.buf_pool.as_ref()
    }

    /// Assembles one coherent [`MetricsSnapshot`] across every subsystem
    /// (stream totals + per-stream breakdown, pools, events, supervisor,
    /// trace ring). `None` when telemetry is disabled. Render it with
    /// [`MetricsSnapshot::render_prometheus`].
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let t = self.telemetry.as_ref()?;
        let registry = t.registry();
        Some(MetricsSnapshot {
            totals: registry.totals(),
            per_stream: registry.per_stream(),
            live_streams: registry.live_count(),
            streamlet_pool: self.streamlet_pool.stats(),
            msg_pool: self.msg_pool.stats(),
            events: self.events.stats(),
            supervisor: self.supervisor.as_ref().map(|s| s.stats()),
            dead_letters: self.supervisor.as_ref().map(|s| s.dead_letters().stats()),
            trace_recorded: t.trace().recorded(),
            trace_overwritten: t.trace().overwritten(),
            buf_pool: self.buf_pool.as_ref().map(|p| p.stats()),
        })
    }

    /// JSONL export of the lifecycle trace ring. `None` when telemetry is
    /// disabled.
    pub fn export_trace_jsonl(&self) -> Option<String> {
        self.telemetry.as_ref().map(|t| t.export_trace_jsonl())
    }

    /// Compiles `source` and returns the program without deploying.
    pub fn compile(&self, source: &str) -> Result<Program, CoreError> {
        compile(source).map_err(|e| CoreError::Deploy {
            message: e.to_string(),
        })
    }

    /// The single compile-and-resolve path every script entry point shares:
    /// compiles `source`, resolves the `main` stream, and (when `checked`)
    /// runs the Chapter-5 consistency gate.
    fn compile_main(&self, source: &str, checked: bool) -> Result<(Program, String), CoreError> {
        let program = self.compile(source)?;
        let name = program
            .main_stream
            .clone()
            .ok_or_else(|| CoreError::Deploy {
                message: "script has no `main` stream".into(),
            })?;
        if checked {
            // Chapter-5 consistency gate.
            if let Some(report) = analysis::analyze(&program, &name) {
                if !report.is_consistent() {
                    return Err(CoreError::Deploy {
                        message: format!("composition inconsistent:\n{}", report.summary()),
                    });
                }
            }
        }
        Ok((program, name))
    }

    /// Compiles, analyzes, and deploys the `main` stream of an MCL script.
    pub fn deploy_mcl(&self, source: &str) -> Result<Arc<RunningStream>, CoreError> {
        let (program, name) = self.compile_main(source, true)?;
        self.coordination.deploy(&program, &name)
    }

    /// Deploys without the semantic-analysis gate.
    pub fn deploy_mcl_unchecked(&self, source: &str) -> Result<Arc<RunningStream>, CoreError> {
        let (program, name) = self.compile_main(source, false)?;
        self.coordination.deploy(&program, &name)
    }

    /// Compiles an MCL script into a session plane: the `main` stream
    /// becomes a validated template and the returned [`SessionManager`]
    /// stamps out one independent per-user stream per `spawn`, each with
    /// its own `Content-Session` identity. Compilation and the Chapter-5
    /// analyses run once here, not once per session.
    pub fn session_manager(&self, source: &str) -> Result<SessionManager, CoreError> {
        // The template runs the consistency gate itself.
        let (program, name) = self.compile_main(source, false)?;
        let template =
            StreamTemplate::from_program(&program, &name).map_err(|e| CoreError::Deploy {
                message: e.to_string(),
            })?;
        SessionManager::new(template, self.coordination.clone())
    }

    /// Tears one stream down: drains its in-flight messages (bounded),
    /// detaches its channels, checks stateless instances back into the
    /// §3.3.4 pool, and forgets its routing-table row. Returns whether
    /// the session existed. (Before the session plane, streams only died
    /// with the server.)
    pub fn undeploy(&self, session: &SessionId) -> bool {
        if let Some(stream) = self.coordination.stream(session) {
            stream.drain(crate::session::DEFAULT_DRAIN_TIMEOUT);
        }
        self.coordination.undeploy(session)
    }

    /// Deploys a named (non-main) stream of an already-compiled program.
    pub fn deploy_stream(
        &self,
        program: &Program,
        name: &str,
    ) -> Result<Arc<RunningStream>, CoreError> {
        self.coordination.deploy(program, name)
    }

    /// Raises a context event; returns the number of deliveries.
    pub fn raise_event(&self, event: &ContextEvent) -> usize {
        self.coordination.raise(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streamlet::{Emitter, StreamletCtx, StreamletLogic};
    use mobigate_mime::MimeMessage;
    use std::time::Duration;

    struct Rev;
    impl StreamletLogic for Rev {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            let mut b = msg.body.to_vec();
            b.reverse();
            let mut out = msg.clone();
            out.set_body(b);
            ctx.emit("po", out);
            Ok(())
        }
    }

    fn server() -> MobiGate {
        let gate = MobiGate::default();
        gate.directory()
            .register("builtin/rev", "reverse bytes", || Box::new(Rev));
        gate
    }

    #[test]
    fn deploy_and_process() {
        let gate = server();
        let stream = gate
            .deploy_mcl(
                r#"
                streamlet rev {
                    port { in pi : text; out po : text; }
                    attribute { type = STATELESS; library = "builtin/rev"; }
                }
                main stream app {
                    streamlet r = new-streamlet (rev);
                }
                "#,
            )
            .unwrap();
        stream.post_input(MimeMessage::text("abc")).unwrap();
        let out = stream.take_output(Duration::from_secs(5)).unwrap();
        assert_eq!(&out.body[..], b"cba");
    }

    #[test]
    fn worker_pool_config_runs_streams() {
        let gate = MobiGate::with_config(
            ServerConfig {
                executor: ExecutorConfig::WorkerPool { workers: 4 },
                ..Default::default()
            },
            Arc::new(StreamletDirectory::new()),
            Arc::new(crate::pooling::StreamletPool::new(8)),
        );
        assert_eq!(gate.executor().name(), "worker-pool");
        gate.directory()
            .register("builtin/rev", "reverse bytes", || Box::new(Rev));
        let stream = gate
            .deploy_mcl(
                r#"
                streamlet rev {
                    port { in pi : text; out po : text; }
                    attribute { type = STATELESS; library = "builtin/rev"; }
                }
                main stream app {
                    streamlet r = new-streamlet (rev);
                }
                "#,
            )
            .unwrap();
        stream.post_input(MimeMessage::text("abc")).unwrap();
        let out = stream.take_output(Duration::from_secs(5)).unwrap();
        assert_eq!(&out.body[..], b"cba");
        stream.shutdown();
    }

    #[test]
    fn deploy_rejects_feedback_loop() {
        let gate = server();
        let err = gate
            .deploy_mcl(
                r#"
                streamlet rev {
                    port { in pi : text; out po : text; }
                    attribute { type = STATELESS; library = "builtin/rev"; }
                }
                main stream app {
                    streamlet a = new-streamlet (rev);
                    streamlet b = new-streamlet (rev);
                    connect (a.po, b.pi);
                    connect (b.po, a.pi);
                }
                "#,
            )
            .err()
            .expect("deployment must be rejected");
        assert!(err.to_string().contains("feedback loop"), "{err}");
    }

    #[test]
    fn unchecked_deploy_skips_the_gate() {
        let gate = server();
        // The same cyclic composition deploys when explicitly unchecked.
        let stream = gate
            .deploy_mcl_unchecked(
                r#"
                streamlet rev {
                    port { in pi : text; out po : text; }
                    attribute { type = STATELESS; library = "builtin/rev"; }
                }
                main stream app {
                    streamlet a = new-streamlet (rev);
                    streamlet b = new-streamlet (rev);
                    connect (a.po, b.pi);
                    connect (b.po, a.pi);
                }
                "#,
            )
            .unwrap();
        stream.shutdown();
    }

    #[test]
    fn deploy_reports_compile_errors() {
        let gate = server();
        let err = gate
            .deploy_mcl("main stream app { connect (x.o, y.i); }")
            .err()
            .expect("deployment must fail");
        assert!(matches!(err, CoreError::Deploy { .. }));
        assert!(err.to_string().contains("undefined"));
    }

    #[test]
    fn deploy_requires_main() {
        let gate = server();
        assert!(gate.deploy_mcl("stream s { }").is_err());
    }

    #[test]
    fn missing_library_fails_at_deploy() {
        let gate = server();
        let err = gate
            .deploy_mcl(
                r#"
                streamlet ghost {
                    port { in pi : text; out po : text; }
                    attribute { type = STATELESS; library = "no/such"; }
                }
                main stream app { streamlet g = new-streamlet (ghost); }
                "#,
            )
            .err()
            .expect("deployment must fail");
        assert!(matches!(err, CoreError::UnknownLibrary(_)), "{err}");
    }
}
