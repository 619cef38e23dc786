//! `RunningStream` — a deployed stream application (§6.3).
//!
//! A running stream materializes a compiled [`ConfigTable`]: channels become
//! [`MessageQueue`]s, instance rows become [`StreamletHandle`]s (logic
//! checked out of the [`StreamletPool`]), connections become port bindings.
//! The struct then owns the three responsibilities of the paper's `Stream`
//! base class: initializing connection setup, reconfiguration in response
//! to events (`onEvent`), and the composition primitives (`new_streamlet`,
//! `connect`, `insert`, `remove`, `replace`).
//!
//! Reconfiguration follows Figure 7-4 exactly and is instrumented to report
//! the Equation 7-1 components: `T = Σ sᵢ (suspensions) + n·c (channel
//! operations) + Σ aᵢ (activations)`.
//!
//! Streamlet removal observes the Figure 6-8 message-loss-avoidance
//! prerequisites: the input queues must be empty, the streamlet must not be
//! processing, and produced messages must have been handed downstream.

// Hot-path modules must surface failures as `CoreError`s, never abort.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::directory::StreamletDirectory;
use crate::error::CoreError;
use crate::events::{ContextEvent, EventSubscriber};
use crate::executor::Executor;
use crate::fusion::{FusedLogic, FusedMember, FusedShared};
use crate::overload::{AdmissionController, OverloadConfig};
use crate::pool::{MessagePool, PayloadMode};
use crate::pooling::StreamletPool;
use crate::queue::{FetchResult, MessageQueue, Notifier, QueueConfig};
use crate::streamlet::{LifecycleState, RouteOpts, StreamletHandle, StreamletLogic};
use crate::sync::{deadline_after, expired};
use crate::telemetry::{QueueProbe, Telemetry, TraceKind};
use mobigate_mcl::config::{
    ChannelRow, ConfigTable, ConnectionRow, ReconfigAction, StreamletSpec, WhenRule,
};
use mobigate_mcl::events::{EventCategory, EventKind};
use mobigate_mcl::fusion::{FusedRun, FusionPlan};
use mobigate_mcl::template::StreamTemplate;
use mobigate_mime::{MimeMessage, SessionId};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::{Duration, Instant};

/// Hot-path batching knobs, plumbed from `ServerConfig` down to every
/// channel and streamlet instance a stream deploys.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Maximum messages a streamlet drains per wake (1 = the paper's
    /// per-message cadence; `process_batch` only engages above 1).
    pub batch_max: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { batch_max: 16 }
    }
}

/// Shared services a stream deploys against.
#[derive(Clone)]
pub struct StreamDeps {
    /// Central message store.
    pub msg_pool: Arc<MessagePool>,
    /// Streamlet implementation registry.
    pub directory: Arc<StreamletDirectory>,
    /// Stateless-instance pool.
    pub streamlet_pool: Arc<StreamletPool>,
    /// Reference vs. value payload passing (Figure 7-3).
    pub mode: PayloadMode,
    /// Runtime type-check options (§4.1).
    pub route_opts: RouteOpts,
    /// Execution back end scheduling the streamlets.
    pub executor: Arc<dyn Executor>,
    /// Optional fault supervisor; when present every created instance is
    /// registered for panic recovery and restart.
    pub supervisor: Option<Arc<crate::supervisor::Supervisor>>,
    /// Hot-path batching knobs applied to every channel and instance.
    pub batching: BatchConfig,
    /// Chain fusion: collapse maximal runs of fusable streamlets into
    /// single execution units at deploy time (see `fusion.rs` in this crate
    /// and in `mobigate-mcl`); fission re-expands them on demand.
    pub fusion: bool,
    /// The observability plane, when enabled. `None` keeps every
    /// instrumented hot path at a single branch.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Overload-protection knobs (admission control, priority shedding,
    /// circuit breakers). The default is fully disabled, which keeps every
    /// guarded hot path at a single branch.
    pub overload: OverloadConfig,
    /// Gateway-wide admission controller, present when
    /// `overload.admission_on()`. Shared across streams so the global
    /// token bucket means what it says.
    pub admission: Option<Arc<AdmissionController>>,
    /// The memory plane's recycled-slab buffer pool, when enabled.
    /// `post_wire` parses ingress bodies straight into pooled slabs that
    /// return automatically when the last body reference drops.
    pub buf_pool: Option<Arc<crate::membuf::BufferPool>>,
}

/// Equation 7-1 instrumentation of one reconfiguration:
/// `T = Σ sᵢ + n·c + Σ aᵢ`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReconfigStats {
    /// Number of streamlet suspensions (`k` in Σ sᵢ).
    pub suspensions: usize,
    /// Time spent suspending.
    pub suspension_time: Duration,
    /// Channel operations: creations, deletions, attaches, detaches (`n`).
    pub channel_ops: usize,
    /// Time spent on channel operations.
    pub channel_time: Duration,
    /// Number of streamlet activations.
    pub activations: usize,
    /// Time spent activating.
    pub activation_time: Duration,
    /// Streamlet instance creations (insert/new actions).
    pub instance_creations: usize,
    /// Wall-clock total of the whole reconfiguration.
    pub total: Duration,
    /// Actions that failed (and were skipped).
    pub errors: usize,
}

impl ReconfigStats {
    fn absorb(&mut self, other: ReconfigStats) {
        self.suspensions += other.suspensions;
        self.suspension_time += other.suspension_time;
        self.channel_ops += other.channel_ops;
        self.channel_time += other.channel_time;
        self.activations += other.activations;
        self.activation_time += other.activation_time;
        self.instance_creations += other.instance_creations;
        self.errors += other.errors;
    }
}

/// Aggregate stream counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStats {
    /// Messages injected at the stream's exported inputs.
    pub injected: u64,
    /// Messages delivered at the stream's exported outputs.
    pub delivered: u64,
    /// Reconfigurations executed.
    pub reconfigurations: u64,
    /// Body bytes the stream's channels hold (interior channels + ingress
    /// + egress), buffered or waiting in their lanes.
    pub queued_bytes: u64,
}

impl StreamStats {
    /// Total bytes of in-flight message memory attributable to the stream:
    /// every in-flight message sits in a channel.
    pub fn resident_bytes(&self) -> u64 {
        self.queued_bytes
    }
}

struct Inner {
    instances: HashMap<Arc<str>, Arc<StreamletHandle>>,
    channels: HashMap<Arc<str>, Arc<MessageQueue>>,
    /// The live connection rows, shared with the blueprint until a
    /// reconfiguration or a fission edits this session's copy.
    connections: Arc<Vec<ConnectionRow>>,
    /// Lazily created instances declared inside `when` blocks: name → def
    /// (shared with the blueprint until this session creates one).
    lazy: Arc<HashMap<String, String>>,
    reconf_chan_counter: usize,
    shutdown: bool,
    /// Live fused units: unit instance name → fission bookkeeping.
    fused: HashMap<Arc<str>, FusedInfo>,
    /// Member instance name → owning fused unit name (shared with the
    /// blueprint until a fission edits this session's copy).
    fused_members: Arc<HashMap<Arc<str>, Arc<str>>>,
}

/// Everything the stream must remember about one fused unit to be able to
/// fission it back into discrete streamlets with real channels.
struct FusedInfo {
    /// Shared member roster; the member logic objects live here while the
    /// run is fused.
    shared: Arc<FusedShared>,
    /// The collapsed interior channels, pipeline order (`[i]` joined member
    /// `i` to member `i + 1`).
    interior_channels: Arc<[ChannelRow]>,
    /// The connection rows those channels carried, same order.
    interior_connections: Arc<[ConnectionRow]>,
}

/// A streamlet instance as the blueprint resolved it: names, definition,
/// and the §3.3.4 pool key, each allocated once and shared by refcount.
struct InstanceDesc {
    name: Arc<str>,
    def: Arc<str>,
    key: Arc<str>,
    stateful: bool,
}

/// A fused run as the blueprint resolved it.
struct UnitDesc {
    /// `fused:{first}..{last}`.
    name: Arc<str>,
    /// Member descriptors, pipeline order.
    members: Box<[MemberDesc]>,
    interior_channels: Arc<[ChannelRow]>,
    interior_connections: Arc<[ConnectionRow]>,
}

/// One member of a fused run, minus its logic.
struct MemberDesc {
    instance: Arc<str>,
    def: Arc<str>,
    key: Arc<str>,
    in_port: Arc<str>,
    out_port: Option<Arc<str>>,
}

impl MemberDesc {
    fn stamp(&self, logic: Box<dyn StreamletLogic>) -> FusedMember {
        FusedMember {
            instance: self.instance.clone(),
            def: self.def.clone(),
            key: self.key.clone(),
            in_port: self.in_port.clone(),
            out_port: self.out_port.clone(),
            logic: Some(logic),
            errors: 0,
        }
    }
}

/// A port of one execution slot. Slots number the discrete instances
/// first, then the fused units, in blueprint order.
struct Endpoint {
    slot: usize,
    port: String,
}

/// One connection row that keeps a live channel: `channel` indexes the
/// blueprint's channels.
struct BindingDesc {
    channel: usize,
    from: Endpoint,
    to: Endpoint,
}

/// An exported input: its `instance.port` alias, its ingress queue's
/// configuration, and the port it feeds.
struct IngressDesc {
    alias: Arc<str>,
    cfg: Arc<QueueConfig>,
    to: Endpoint,
}

/// A stream compiled once for instantiation (§6: the Coordination Manager
/// compiles MCL into configuration and routing tables).
///
/// Compiling resolves everything that does not change from one deployment
/// to the next: definitions and pool keys, the fusion plan with its member
/// descriptors and unit names, the channel, ingress and egress queue
/// configurations, and the port bindings as slot indices. The connection
/// rows, the lazy `when` declarations and the fused-member index are kept
/// behind `Arc`s that every instance shares until a reconfiguration or a
/// fission edits its own copy (`Arc::make_mut`); `when` rules are shared
/// for good. [`StreamBlueprint::instantiate`] then creates only live
/// state: queues, handles, pooled logics and the fused rosters.
pub(crate) struct StreamBlueprint {
    /// The compiled stream's name.
    name: Arc<str>,
    /// Session templates name each instance by its session ID, so the
    /// Event Manager's `evtSource` matching tells sessions apart.
    named_by_session: bool,
    deps: StreamDeps,
    defs: Arc<BTreeMap<String, StreamletSpec>>,
    instances: Box<[InstanceDesc]>,
    units: Box<[UnitDesc]>,
    /// Channels that stay live queues (fused interiors excluded).
    channels: Box<[(Arc<str>, Arc<QueueConfig>)]>,
    bindings: Box<[BindingDesc]>,
    ingress: Box<[IngressDesc]>,
    egress: Arc<QueueConfig>,
    egress_from: Box<[Endpoint]>,
    connections: Arc<Vec<ConnectionRow>>,
    lazy: Arc<HashMap<String, String>>,
    fused_members: Arc<HashMap<Arc<str>, Arc<str>>>,
    when_rules: Box<[WhenRule]>,
    categories: Box<[EventCategory]>,
}

impl StreamBlueprint {
    /// Compiles `table` against `defs` and the runtime services in `deps`.
    /// `fusion_plan` probes pooled logics for their fusion opt-in, so
    /// compile once per template, not once per session.
    pub(crate) fn compile(
        table: &ConfigTable,
        defs: Arc<BTreeMap<String, StreamletSpec>>,
        deps: StreamDeps,
    ) -> Result<Arc<Self>, CoreError> {
        let plan = fusion_plan(table, &defs, &deps);
        Self::compile_planned(table, defs, &plan, deps, false)
    }

    /// Compiles a session template: every instance is named by its own
    /// session ID.
    pub(crate) fn compile_template(
        template: &StreamTemplate,
        deps: StreamDeps,
    ) -> Result<Arc<Self>, CoreError> {
        let table = template.base_table();
        let plan = fusion_plan(table, template.defs(), &deps);
        Self::compile_planned(table, template.defs().clone(), &plan, deps, true)
    }

    fn compile_planned(
        table: &ConfigTable,
        defs: Arc<BTreeMap<String, StreamletSpec>>,
        plan: &FusionPlan,
        deps: StreamDeps,
        named_by_session: bool,
    ) -> Result<Arc<Self>, CoreError> {
        let interior: HashSet<&str> = plan
            .runs
            .iter()
            .flat_map(|r| r.interior_channels.iter().map(String::as_str))
            .collect();
        let is_member: HashSet<&str> = plan
            .runs
            .iter()
            .flat_map(|r| r.members.iter().map(String::as_str))
            .collect();

        let channels: Box<[(Arc<str>, Arc<QueueConfig>)]> = table
            .channels
            .iter()
            .filter(|row| !interior.contains(row.name.as_str()))
            .map(|row| {
                let cfg = QueueConfig::from_spec(&row.name, &row.spec);
                (Arc::from(row.name.as_str()), Arc::new(cfg))
            })
            .collect();

        // Execution slots: discrete initial instances, then fused units.
        let mut slots: HashMap<&str, usize> = HashMap::new();
        let mut instances = Vec::new();
        let mut lazy = HashMap::new();
        for row in &table.streamlets {
            if !row.initial {
                lazy.insert(row.name.clone(), row.def.clone());
                continue;
            }
            if is_member.contains(row.name.as_str()) {
                continue;
            }
            let spec = spec_of(&defs, &row.def)?;
            slots.insert(&row.name, instances.len());
            instances.push(InstanceDesc {
                name: row.name.as_str().into(),
                def: row.def.as_str().into(),
                key: pool_key(&deps, spec),
                stateful: spec.stateful,
            });
        }
        let mut units = Vec::with_capacity(plan.runs.len());
        let mut fused_members = HashMap::new();
        for run in &plan.runs {
            let unit = compile_unit(run, table, &defs, &deps)?;
            for (name, m) in run.members.iter().zip(unit.members.iter()) {
                slots.insert(name, instances.len() + units.len());
                fused_members.insert(m.instance.clone(), unit.name.clone());
            }
            units.push(unit);
        }
        let endpoint = |inst: &String, port: &String| -> Result<Endpoint, CoreError> {
            let slot = *slots
                .get(inst.as_str())
                .ok_or_else(|| CoreError::NotFound {
                    kind: "streamlet instance",
                    name: inst.clone(),
                })?;
            Ok(Endpoint {
                slot,
                port: port.clone(),
            })
        };

        // Port bindings per the connection rows (interior rows of fused
        // runs have no physical channel; member endpoints resolve to their
        // unit's slot).
        let mut bindings = Vec::new();
        for c in &table.connections {
            if interior.contains(c.channel.as_str()) {
                continue;
            }
            let channel = channels
                .iter()
                .position(|(name, _)| **name == *c.channel)
                .ok_or_else(|| CoreError::NotFound {
                    kind: "channel",
                    name: c.channel.clone(),
                })?;
            bindings.push(BindingDesc {
                channel,
                from: endpoint(&c.from.0, &c.from.1)?,
                to: endpoint(&c.to.0, &c.to.1)?,
            });
        }

        // Ingress/egress channels for the stream's exported ports.
        let mut ingress = Vec::with_capacity(table.exported_inputs.len());
        for (inst, port, ty) in &table.exported_inputs {
            ingress.push(IngressDesc {
                alias: format!("{inst}.{port}").into(),
                cfg: Arc::new(QueueConfig {
                    name: format!("__ingress/{inst}.{port}"),
                    capacity_bytes: 8 << 20,
                    full_wait: Duration::from_millis(500),
                    ty: ty.clone(),
                    ..Default::default()
                }),
                to: endpoint(inst, port)?,
            });
        }
        let egress = Arc::new(QueueConfig {
            name: "__egress".into(),
            capacity_bytes: 8 << 20,
            full_wait: Duration::from_millis(500),
            ..Default::default()
        });
        let egress_from = table
            .exported_outputs
            .iter()
            .map(|(inst, port, _)| endpoint(inst, port))
            .collect::<Result<_, _>>()?;

        let categories = event_categories(&table.when_rules, &deps);
        Ok(Arc::new(StreamBlueprint {
            name: table.name.as_str().into(),
            named_by_session,
            defs,
            instances: instances.into(),
            units: units.into(),
            channels,
            bindings: bindings.into(),
            ingress: ingress.into(),
            egress,
            egress_from,
            // Interior rows of fused runs have no live channel; they are
            // remembered per unit and resurface on fission.
            connections: Arc::new(
                table
                    .connections
                    .iter()
                    .filter(|c| !interior.contains(c.channel.as_str()))
                    .cloned()
                    .collect(),
            ),
            lazy: Arc::new(lazy),
            fused_members: Arc::new(fused_members),
            when_rules: table.when_rules.as_slice().into(),
            categories,
            deps,
        }))
    }

    /// The paper's setup sequence for one instance of the stream: create
    /// channels, allocate streamlet instances (§3.3.3, out of the §3.3.4
    /// pool), bind ports per the configuration table, then start every
    /// streamlet. Only live state is created here; every name, key, row
    /// and binding comes from the blueprint.
    pub(crate) fn instantiate(
        self: &Arc<Self>,
        session: SessionId,
    ) -> Result<Arc<RunningStream>, CoreError> {
        let deps = &self.deps;
        let name = if self.named_by_session {
            session.shared()
        } else {
            self.name.clone()
        };
        // One session-keyed telemetry probe is shared by every channel and
        // handle of this stream; `None` when the observability plane is off.
        let probe = deps
            .telemetry
            .as_ref()
            .map(|t| t.probe_for(session.as_str(), &name));
        let queue = |cfg: &Arc<QueueConfig>| {
            MessageQueue::with_probe(cfg.clone(), deps.msg_pool.clone(), probe.clone())
        };
        let channels: Vec<Arc<MessageQueue>> =
            self.channels.iter().map(|(_, cfg)| queue(cfg)).collect();
        let ingress: Box<[(Arc<str>, Arc<MessageQueue>)]> = self
            .ingress
            .iter()
            .map(|d| (d.alias.clone(), queue(&d.cfg)))
            .collect();
        let egress = queue(&self.egress);
        let egress_notifier = Arc::new(Notifier::new());
        egress.add_listener(egress_notifier.clone());
        let stream = Arc::new(RunningStream {
            name,
            session,
            blueprint: self.clone(),
            inner: Mutex::new(Inner {
                instances: HashMap::with_capacity(self.instances.len() + self.units.len()),
                channels: self
                    .channels
                    .iter()
                    .zip(&channels)
                    .map(|((name, _), q)| (name.clone(), q.clone()))
                    .collect(),
                connections: self.connections.clone(),
                lazy: self.lazy.clone(),
                reconf_chan_counter: 0,
                shutdown: false,
                fused: HashMap::with_capacity(self.units.len()),
                fused_members: self.fused_members.clone(),
            }),
            ingress,
            egress,
            egress_notifier,
            // `drain` disarms before its first check, so the notifier can
            // start armed: until a drain waits, instances pay one swap a
            // step.
            quiesce: Arc::new(Notifier::armed()),
            reconfigurations: AtomicU64::new(0),
            last_reconfig: Mutex::new(None),
            probe,
        });
        stream.populate(&channels)?;
        if let Some(t) = &deps.telemetry {
            t.trace_event(
                TraceKind::Deploy,
                Some(stream.session.as_str()),
                None,
                format!(
                    "stream {} ({} instances, {} fused)",
                    stream.name,
                    self.instances.len() + self.units.len(),
                    self.units.len()
                ),
            );
        }
        Ok(stream)
    }
}

/// The definition named `def`.
fn spec_of<'a>(
    defs: &'a BTreeMap<String, StreamletSpec>,
    def: &str,
) -> Result<&'a StreamletSpec, CoreError> {
    defs.get(def).ok_or_else(|| CoreError::NotFound {
        kind: "streamlet definition",
        name: def.to_string(),
    })
}

/// The §3.3.4 pool key (= directory key) of a definition's logic.
fn pool_key(deps: &StreamDeps, spec: &StreamletSpec) -> Arc<str> {
    deps.directory.resolve_key(&spec.library, &spec.name).into()
}

/// Resolves one planned fused run into its unit descriptor.
fn compile_unit(
    run: &FusedRun,
    table: &ConfigTable,
    defs: &BTreeMap<String, StreamletSpec>,
    deps: &StreamDeps,
) -> Result<UnitDesc, CoreError> {
    let mut members = Vec::with_capacity(run.members.len());
    for name in &run.members {
        let row = table.instance(name).ok_or_else(|| CoreError::NotFound {
            kind: "streamlet instance",
            name: name.clone(),
        })?;
        let spec = spec_of(defs, &row.def)?;
        let pin = match (spec.inputs.as_slice(), spec.outputs.len()) {
            ([pin], 0 | 1) => pin,
            _ => {
                return Err(CoreError::Reconfig {
                    message: format!(
                        "fused member `{name}` must have 1 input and at most 1 output"
                    ),
                })
            }
        };
        members.push(MemberDesc {
            instance: name.as_str().into(),
            def: row.def.as_str().into(),
            key: pool_key(deps, spec),
            in_port: pin.0.as_str().into(),
            out_port: spec.outputs.first().map(|p| p.0.as_str().into()),
        });
    }
    let name = fused_unit_name(
        members.first().map(|m| &*m.instance),
        members.last().map(|m| &*m.instance),
    );
    Ok(UnitDesc {
        name: name.into(),
        members: members.into(),
        interior_channels: run
            .interior_channels
            .iter()
            .filter_map(|n| table.channel(n).cloned())
            .collect(),
        interior_connections: run
            .interior_channels
            .iter()
            .filter_map(|n| table.connections.iter().find(|c| &c.channel == n).cloned())
            .collect(),
    })
}

/// The instance name of the fused unit running `first..last`.
fn fused_unit_name(first: Option<&str>, last: Option<&str>) -> String {
    match (first, last) {
        (Some(a), Some(b)) => format!("fused:{a}..{b}"),
        _ => "fused:".to_string(),
    }
}

/// The event categories a stream with `rules` needs subscribed: whatever
/// its `when` rules react to, plus System Command (every stream obeys
/// PAUSE/RESUME/END), plus Runtime Fault when fusion is on (fault-driven
/// fission must observe STREAMLET_FAULT), plus Load Variation when load
/// shedding is on.
fn event_categories(rules: &[WhenRule], deps: &StreamDeps) -> Box<[EventCategory]> {
    let mut categories: Vec<EventCategory> = rules.iter().map(|r| r.event.category()).collect();
    categories.push(EventCategory::SystemCommand);
    if deps.fusion {
        categories.push(EventCategory::RuntimeFault);
    }
    if deps.overload.shed_on() {
        // Load shedding reacts to CHANNEL_CONGESTED even when the script
        // has no load-variation rules.
        categories.push(EventCategory::LoadVariation);
    }
    categories.sort_by_key(|c| c.id());
    categories.dedup();
    categories.into()
}

/// A deployed, running stream application.
pub struct RunningStream {
    /// The stream name: the MCL stream identifier, or for a session
    /// stamped from a template, its session ID.
    name: Arc<str>,
    session: SessionId,
    /// What the stream was instantiated from: runtime services,
    /// definitions, pool keys, and the shared rows and `when` rules.
    blueprint: Arc<StreamBlueprint>,
    inner: Mutex<Inner>,
    /// Exported input alias → ingress channel (alias is the inner
    /// `instance.port`).
    ingress: Box<[(Arc<str>, Arc<MessageQueue>)]>,
    /// Single egress channel every exported output feeds.
    egress: Arc<MessageQueue>,
    egress_notifier: Arc<Notifier>,
    /// Fired by every instance of the stream after each step; `drain`
    /// waits on it.
    quiesce: Arc<Notifier>,
    reconfigurations: AtomicU64,
    last_reconfig: Mutex<Option<ReconfigStats>>,
    /// Telemetry recording handle (session-keyed), cloned into every
    /// channel this stream creates — including reconfiguration- and
    /// fission-created ones, so instrumentation survives topology changes.
    probe: Option<QueueProbe>,
}

impl RunningStream {
    /// Materializes a configuration table into a running stream: compiles
    /// a `StreamBlueprint` and stamps its one instance.
    pub fn deploy(
        table: &ConfigTable,
        defs: &BTreeMap<String, StreamletSpec>,
        deps: StreamDeps,
        session: SessionId,
    ) -> Result<Arc<Self>, CoreError> {
        StreamBlueprint::compile(table, Arc::new(defs.clone()), deps)?.instantiate(session)
    }

    /// Creates the blueprint's streamlet instances and fused units, binds
    /// their ports to `channels` (the blueprint's channels, same order)
    /// and to the stream boundary, and starts them. On error the caller
    /// drops the stream, whose shutdown returns whatever was already
    /// checked out.
    fn populate(&self, channels: &[Arc<MessageQueue>]) -> Result<(), CoreError> {
        let bp = &*self.blueprint;
        let deps = &bp.deps;
        let mut inner = self.inner.lock();
        let mut slots = Vec::with_capacity(bp.instances.len() + bp.units.len());
        for d in bp.instances.iter() {
            let logic = deps.streamlet_pool.checkout(&d.key, &deps.directory)?;
            let h = self.new_handle(&d.name, &d.def, d.stateful, logic, &d.key);
            inner.instances.insert(d.name.clone(), h.clone());
            slots.push(h);
        }
        for unit in bp.units.iter() {
            let mut members = Vec::with_capacity(unit.members.len());
            for m in unit.members.iter() {
                members.push(m.stamp(deps.streamlet_pool.checkout(&m.key, &deps.directory)?));
            }
            let (handle, shared) = self.fused_handle(unit.name.clone(), members);
            inner.fused.insert(
                unit.name.clone(),
                FusedInfo {
                    shared,
                    interior_channels: unit.interior_channels.clone(),
                    interior_connections: unit.interior_connections.clone(),
                },
            );
            inner.instances.insert(unit.name.clone(), handle.clone());
            slots.push(handle);
        }
        for b in bp.bindings.iter() {
            let q = &channels[b.channel];
            slots[b.from.slot].attach_out(&b.from.port, q);
            slots[b.to.slot].attach_in(&b.to.port, q);
        }
        for (d, (_, q)) in bp.ingress.iter().zip(self.ingress.iter()) {
            slots[d.to.slot].attach_in(&d.to.port, q);
        }
        for e in bp.egress_from.iter() {
            slots[e.slot].attach_out(&e.port, &self.egress);
        }
        for h in &slots {
            h.start()?;
        }
        Ok(())
    }

    /// [`Self::wrap_logic`], recording the pool key a stateless logic
    /// returns under. With a supervisor configured, the instance is
    /// registered for panic recovery; rebuilds go through the directory
    /// factory (never the pool, which could recycle poisoned state).
    fn new_handle(
        &self,
        name: &Arc<str>,
        def: &Arc<str>,
        stateful: bool,
        logic: Box<dyn StreamletLogic>,
        key: &Arc<str>,
    ) -> Arc<StreamletHandle> {
        let deps = self.deps();
        let handle = self.wrap_logic(name.clone(), def.clone(), stateful, logic);
        handle.set_pool_key(key.clone());
        if let Some(sup) = &deps.supervisor {
            let dir = deps.directory.clone();
            let key = key.clone();
            sup.supervise(&handle, move || dir.create(&key), Some(self.name.clone()));
        }
        handle
    }

    /// Wraps `logic` in an unstarted handle of this stream: session
    /// label, batching, quiescence notifier and telemetry probe.
    fn wrap_logic(
        &self,
        name: Arc<str>,
        def: Arc<str>,
        stateful: bool,
        logic: Box<dyn StreamletLogic>,
    ) -> Arc<StreamletHandle> {
        let deps = self.deps();
        let handle = StreamletHandle::with_executor(
            name,
            def,
            stateful,
            logic,
            deps.msg_pool.clone(),
            deps.mode,
            Some(self.session.clone()),
            deps.route_opts.clone(),
            deps.executor.clone(),
        );
        handle.set_batch_max(deps.batching.batch_max);
        handle.set_quiesce_notifier(self.quiesce.clone());
        if let Some(p) = &self.probe {
            handle.set_probe(p.clone());
        }
        handle
    }

    /// Wraps a member roster in a stateful handle driving a
    /// [`FusedLogic`]. Supervision resolves to the *member*: the rebuild
    /// closure re-creates only the faulted member's logic (directory
    /// factory, never the pool) and hands back a fresh logic view over the
    /// same roster, so one bad stage never resets its healthy neighbours.
    fn fused_handle(
        &self,
        unit: Arc<str>,
        members: Vec<FusedMember>,
    ) -> (Arc<StreamletHandle>, Arc<FusedShared>) {
        let deps = self.deps();
        let n_members = members.len();
        let shared = FusedShared::new(members);
        let handle = self.wrap_logic(
            unit.clone(),
            fused_def(),
            true, // stateful: a fused logic must never enter the stateless pool
            Box::new(FusedLogic::new(shared.clone())),
        );
        if let Some(p) = &self.probe {
            p.telemetry.trace_event(
                TraceKind::Fuse,
                Some(self.session.as_str()),
                Some(&unit),
                format!("{n_members} members"),
            );
        }
        if let Some(sup) = &deps.supervisor {
            let dir = deps.directory.clone();
            let roster = shared.clone();
            sup.supervise(
                &handle,
                move || {
                    if let Some((idx, key)) = roster.faulted_member_key() {
                        let fresh = dir.create(&key)?;
                        roster.install_member_logic(idx, fresh);
                    }
                    Ok(Box::new(FusedLogic::new(roster.clone())) as Box<dyn StreamletLogic>)
                },
                Some(self.name.clone()),
            );
        }
        (handle, shared)
    }

    /// The runtime services the stream was deployed against.
    fn deps(&self) -> &StreamDeps {
        &self.blueprint.deps
    }

    /// Stream name (the MCL stream identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stream name as the shared string the stream holds.
    pub(crate) fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// The unique session of this stream instance (§4.4.3).
    pub fn session(&self) -> &SessionId {
        &self.session
    }

    /// The streamlet definitions the stream resolves instances against.
    /// Sessions of one template share a single copy.
    pub fn defs(&self) -> &Arc<BTreeMap<String, StreamletSpec>> {
        &self.blueprint.defs
    }

    /// Counters snapshot, read from the channels: `post_to`, the ingress
    /// channels' only producer, counts there as admitted or dropped full
    /// or closed, and `take_output` is the egress channel's only consumer.
    /// The walk runs under the stream lock — control-plane cost, paid by
    /// the caller asking, never by the data path.
    pub fn stats(&self) -> StreamStats {
        let inner = self.inner.lock();
        let mut queued: u64 = inner
            .channels
            .values()
            .chain([&self.egress])
            .map(|q| q.buffered_bytes() as u64)
            .sum();
        let mut injected = 0;
        for (_, q) in &self.ingress {
            let s = q.stats();
            injected += s.posted + s.dropped_full + s.dropped_closed;
            queued += q.buffered_bytes() as u64;
        }
        StreamStats {
            injected,
            delivered: self.egress.stats().fetched,
            reconfigurations: self.reconfigurations.load(Ordering::Relaxed),
            queued_bytes: queued,
        }
    }

    /// Instrumentation of the most recent reconfiguration.
    pub fn last_reconfig(&self) -> Option<ReconfigStats> {
        *self.last_reconfig.lock()
    }

    /// Names of currently live instances.
    pub fn instance_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .lock()
            .instances
            .keys()
            .map(|k| k.to_string())
            .collect();
        names.sort();
        names
    }

    /// The handle of a live instance (for inspection in tests/benches).
    pub fn instance(&self, name: &str) -> Option<Arc<StreamletHandle>> {
        self.inner.lock().instances.get(name).cloned()
    }

    /// Member-attributed `process` error counts of fused unit `unit`, in
    /// pipeline order (`None` when no such unit is live).
    pub fn fused_member_errors(&self, unit: &str) -> Option<Vec<(String, u64)>> {
        let inner = self.inner.lock();
        inner.fused.get(unit).map(|i| i.shared.member_errors())
    }

    /// Current connection rows.
    pub fn connections(&self) -> Vec<ConnectionRow> {
        self.inner.lock().connections.to_vec()
    }

    // --- data path ----------------------------------------------------------

    /// Injects a message at the stream's (sole or first) exported input.
    /// The message is stamped with the stream session (§4.4.3).
    pub fn post_input(&self, msg: MimeMessage) -> Result<(), CoreError> {
        let Some((_, q)) = self.ingress.first() else {
            return Err(CoreError::NotFound {
                kind: "exported input",
                name: self.name.to_string(),
            });
        };
        self.post_to(q.clone(), msg)
    }

    /// Injects at a named exported input (`instance.port` alias).
    pub fn post_input_to(&self, alias: &str, msg: MimeMessage) -> Result<(), CoreError> {
        let q = self
            .ingress
            .iter()
            .find(|(a, _)| **a == *alias)
            .map(|(_, q)| q.clone())
            .ok_or_else(|| CoreError::NotFound {
                kind: "exported input",
                name: alias.to_string(),
            })?;
        self.post_to(q, msg)
    }

    fn post_to(&self, q: Arc<MessageQueue>, mut msg: MimeMessage) -> Result<(), CoreError> {
        // Admission control gates ingress *before* the message touches the
        // pool: a rejected post costs one token-bucket probe and one
        // reason-coded counter bump — no allocation, no blocking wait.
        if let Some(ctl) = &self.deps().admission {
            if !ctl.admit(self.session.as_str()) {
                q.charge_admission_rejected(1);
                return Err(CoreError::Overloaded {
                    session: self.session.as_str().to_string(),
                });
            }
        }
        msg.set_session(&self.session);
        if let Some(p) = &self.probe {
            p.on_bytes_in(msg.body.len() as u64);
        }
        let payload = self.deps().msg_pool.wrap(msg, self.deps().mode, 1);
        q.post(payload);
        Ok(())
    }

    /// Injects a wire-format message (headers, blank line, body). The
    /// body is materialized in a recycled buffer-pool slab when the
    /// memory plane is enabled — the slab returns to the pool on its
    /// own once the message is delivered or dropped.
    pub fn post_wire(&self, data: &[u8]) -> Result<(), CoreError> {
        let parsed = match &self.deps().buf_pool {
            Some(pool) => MimeMessage::from_wire_with(data, |b| pool.checkout_bytes(b)),
            None => MimeMessage::from_wire(data),
        };
        let msg = parsed.map_err(|e| CoreError::Malformed {
            message: e.to_string(),
        })?;
        self.post_input(msg)
    }

    /// Takes one adapted message and appends its wire form to `buf`
    /// (egress counterpart of [`RunningStream::post_wire`]: callers
    /// reuse one scratch buffer across deliveries).
    pub fn take_output_wire_into(&self, timeout: Duration, buf: &mut Vec<u8>) -> bool {
        match self.take_output(timeout) {
            Some(msg) => {
                msg.to_wire_into(buf);
                true
            }
            None => false,
        }
    }

    /// Takes one adapted message from the stream's exported outputs,
    /// waiting up to `timeout`.
    pub fn take_output(&self, timeout: Duration) -> Option<MimeMessage> {
        let deadline = deadline_after(timeout);
        loop {
            let notified = self.egress_notifier.snapshot();
            match self.egress.try_fetch() {
                FetchResult::Msg(p) => return self.deps().msg_pool.resolve(p),
                // The last exported output detaching (teardown) wakes the
                // egress listeners, so this ends an unbounded wait too.
                FetchResult::Disconnected => return None,
                FetchResult::Empty if expired(deadline) => return None,
                FetchResult::Empty => self.egress_notifier.wait_unless(notified, deadline),
            }
        }
    }

    /// Number of exported inputs.
    pub fn ingress_count(&self) -> usize {
        self.ingress.len()
    }

    /// Sets an operation parameter on a live streamlet through its control
    /// interface (§8.2.1 future-work feature: "data ports to communicate
    /// with other streamlets … and control interfaces to receive parameter
    /// setting information from the coordinator").
    pub fn set_parameter(&self, instance: &str, key: &str, value: &str) -> Result<(), CoreError> {
        let (handle, key) = {
            let inner = self.inner.lock();
            if let Some(h) = inner.instances.get(instance) {
                (h.clone(), key.to_string())
            } else if let Some(unit) = inner.fused_members.get(instance) {
                // The instance runs fused: route through the unit's
                // member-addressed control interface (`member.key`).
                let h = inner
                    .instances
                    .get(unit)
                    .cloned()
                    .ok_or_else(|| CoreError::NotFound {
                        kind: "streamlet instance",
                        name: unit.to_string(),
                    })?;
                (h, format!("{instance}.{key}"))
            } else {
                return Err(CoreError::NotFound {
                    kind: "streamlet instance",
                    name: instance.to_string(),
                });
            }
        };
        handle.set_parameter(&key, value, Duration::from_secs(2))
    }

    /// Renders the current live topology as Graphviz DOT (initial and
    /// reconfigured instances, channels as edge labels).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let inner = self.inner.lock();
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", self.name);
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  node [shape=box, style=rounded];");
        let mut names: Vec<&Arc<str>> = inner.instances.keys().collect();
        names.sort();
        for name in names {
            let h = &inner.instances[name];
            let _ = writeln!(
                out,
                "  \"{}\" [label=\"{}\\n({})\"];",
                name,
                name,
                h.def_name()
            );
        }
        for c in inner.connections.iter() {
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\" [label=\"{}\"];",
                c.from.0, c.to.0, c.channel
            );
        }
        out.push('}');
        out
    }

    // --- events --------------------------------------------------------------

    /// The event categories this stream needs subscribed: whatever its
    /// `when` rules react to, plus System Command (every stream obeys
    /// PAUSE/RESUME/END), plus Runtime Fault when fusion is on (fault-
    /// driven fission must observe STREAMLET_FAULT). The Coordination
    /// Manager uses this for symmetric subscribe-on-deploy /
    /// unsubscribe-on-undeploy; `when` rules are fixed at compile time, so
    /// the set never changes over the stream's life.
    pub fn subscribed_categories(&self) -> &[EventCategory] {
        &self.blueprint.categories
    }

    /// Reacts to a context event: System-Command events get their built-in
    /// behaviour (PAUSE/RESUME/END), and any matching `when` rules from the
    /// MCL script run as reconfigurations. Returns the instrumentation when
    /// a reconfiguration ran.
    pub fn handle_event(&self, event: &ContextEvent) -> Option<ReconfigStats> {
        match event.kind {
            EventKind::Pause => {
                self.pause_all();
            }
            EventKind::Resume => {
                self.activate_all();
            }
            EventKind::End => {
                self.shutdown();
            }
            EventKind::StreamletFault => {
                // Fault-driven fission: when supervision has given up on a
                // fused unit, split it so quarantine is confined to the
                // member that actually faulted.
                if let Some(info) = &event.fault {
                    self.fission_quarantined(&info.instance);
                }
            }
            EventKind::ChannelCongested | EventKind::Overload if self.deps().overload.shed_on() => {
                // Load shedding: drop the lowest-priority resident messages
                // so interactive traffic keeps a bounded queue in front of
                // it. Shed drops are reason-coded, never silent.
                self.shed_lowest(self.deps().overload.shed.shed_max);
            }
            _ => {}
        }
        let mut rules = self
            .blueprint
            .when_rules
            .iter()
            .filter(|r| r.event == event.kind)
            .peekable();
        rules.peek()?;
        let actions: Vec<ReconfigAction> = rules.flat_map(|r| r.actions.iter().cloned()).collect();
        Some(self.reconfigure(&actions))
    }

    /// Sheds up to `max_n` resident messages across the stream's channels,
    /// lowest priority class first (see [`crate::overload::PriorityClass`]),
    /// ingress before interior so bulk traffic dies as early as possible.
    /// Returns how many messages were shed; each is charged to the `shed`
    /// drop reason by the queue.
    pub fn shed_lowest(&self, max_n: usize) -> usize {
        if max_n == 0 {
            return 0;
        }
        let mut remaining = max_n;
        let mut shed = 0usize;
        for (_, q) in &self.ingress {
            if remaining == 0 {
                break;
            }
            let n = q.shed_oldest(remaining);
            shed += n;
            remaining -= n;
        }
        if remaining > 0 {
            let channels: Vec<Arc<MessageQueue>> =
                self.inner.lock().channels.values().cloned().collect();
            for q in channels {
                if remaining == 0 {
                    break;
                }
                let n = q.shed_oldest(remaining);
                shed += n;
                remaining -= n;
            }
        }
        if shed > 0 {
            if let Some(p) = &self.probe {
                p.telemetry.trace_event(
                    TraceKind::Shed,
                    Some(&p.key),
                    None,
                    format!("{shed} messages (budget {max_n})"),
                );
            }
        }
        shed
    }

    /// Pauses every live streamlet.
    pub fn pause_all(&self) {
        let handles: Vec<_> = self.inner.lock().instances.values().cloned().collect();
        for h in handles {
            let _ = h.pause_and_wait(Duration::from_secs(1));
        }
    }

    /// Resumes every paused streamlet.
    pub fn activate_all(&self) {
        let handles: Vec<_> = self.inner.lock().instances.values().cloned().collect();
        for h in handles {
            let _ = h.activate();
        }
    }

    /// Waits (up to `timeout`) for every in-flight message to leave the
    /// stream's interior: ingress and interior channels empty (their
    /// lanes with them), no instance mid-`process`. Egress is deliberately
    /// excluded — delivered output waiting for the consumer is not
    /// "in flight". Returns whether quiescence was reached; either way the
    /// stream keeps running, so a false return means the caller tears down
    /// with messages still queued (they are dropped by `shutdown`).
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = deadline_after(timeout);
        loop {
            // Snapshot before the check: an instance finishing a step
            // after it fires the notifier, and the wait returns at once.
            let seen = self.quiesce.snapshot();
            if self.quiescent() {
                return true;
            }
            if expired(deadline) {
                return false;
            }
            self.quiesce.wait_unless(seen, deadline);
        }
    }

    /// One quiescence check for [`Self::drain`].
    fn quiescent(&self) -> bool {
        let inner = self.inner.lock();
        // Channels → instances → channels again: a message leaving a
        // queue shows up as `is_processing` on its consumer, and one
        // leaving `process` lands back in a queue before the worker clears
        // the flag, so (absent new input) passing all three passes means
        // nothing is in flight.
        let queues_empty = |inner: &Inner| {
            self.ingress.iter().all(|(_, q)| q.is_empty())
                && inner.channels.values().all(|q| q.is_empty())
        };
        inner.shutdown
            || (queues_empty(&inner)
                && inner.instances.values().all(|h| !h.is_processing())
                && queues_empty(&inner))
    }

    /// Ends every streamlet, detaches bindings, and returns stateless logic
    /// objects to the pool.
    pub fn shutdown(&self) {
        let mut inner = self.inner.lock();
        if inner.shutdown {
            return;
        }
        inner.shutdown = true;
        let handles = std::mem::take(&mut inner.instances);
        let fused = std::mem::take(&mut inner.fused);
        inner.connections = no_rows();
        drop(inner);
        for h in handles.into_values() {
            h.end();
            let _ = h.detach_all();
            self.reclaim_logic(&h);
        }
        // Fused units are stateful handles on purpose (a FusedLogic must
        // never be recycled through the stateless pool), but their members
        // are ordinary pooling-eligible logics: return each one.
        for info in fused.into_values() {
            for m in info.shared.take_members() {
                if let Some(logic) = m.logic {
                    self.deps().streamlet_pool.checkin(&m.key, logic);
                }
            }
        }
        // Retire this session's metrics (totals fold into the registry's
        // retired accumulator) and trace the teardown. Only reachable on
        // the first shutdown thanks to the `inner.shutdown` guard above.
        if let Some(p) = &self.probe {
            p.telemetry.trace_event(
                TraceKind::Undeploy,
                Some(&p.key),
                None,
                format!("stream {}", self.name),
            );
            p.telemetry.registry().deregister(&p.key);
        }
    }

    /// Checks a stateless instance's logic back into the pool under the
    /// key it was checked out with.
    fn reclaim_logic(&self, handle: &StreamletHandle) {
        if handle.is_stateful() {
            return;
        }
        if let (Some(key), Some(logic)) = (handle.pool_key(), handle.take_logic()) {
            self.deps().streamlet_pool.checkin(key, logic);
        }
    }

    // --- reconfiguration ------------------------------------------------------

    /// Executes a sequence of reconfiguration actions under the stream lock,
    /// with Equation 7-1 instrumentation. Failed actions are counted and
    /// skipped ("the system has to wait some time or take special actions").
    pub fn reconfigure(&self, actions: &[ReconfigAction]) -> ReconfigStats {
        let t0 = Instant::now();
        let mut stats = ReconfigStats::default();
        let mut inner = self.inner.lock();
        // Event-driven fission: any fused unit one of these actions
        // addresses (by member or interior channel) returns to discrete
        // form first, so the actions operate on ordinary instances.
        self.fission_for_actions(&mut inner, actions, &mut stats);
        for action in actions {
            match self.apply_action(&mut inner, action) {
                Ok(s) => stats.absorb(s),
                Err(_) => stats.errors += 1,
            }
        }
        drop(inner);
        stats.total = t0.elapsed();
        self.reconfigurations.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = &self.probe {
            p.telemetry.trace_event(
                TraceKind::Reconfigure,
                Some(&p.key),
                None,
                format!("{} actions, {} errors", actions.len(), stats.errors),
            );
        }
        *self.last_reconfig.lock() = Some(stats);
        stats
    }

    /// Public composition primitive: splice `instance` (an instance of
    /// `def`) into the live connection `from → to` (Figure 7-4). This is
    /// the operation the Figure 7-6 experiment times in a loop.
    pub fn insert_streamlet(
        &self,
        from: (&str, &str),
        to: (&str, &str),
        instance: &str,
        def: &str,
    ) -> Result<ReconfigStats, CoreError> {
        let t0 = Instant::now();
        let mut inner = self.inner.lock();
        Arc::make_mut(&mut inner.lazy).insert(instance.to_string(), def.to_string());
        let action = ReconfigAction::Insert {
            from: (from.0.to_string(), from.1.to_string()),
            to: (to.0.to_string(), to.1.to_string()),
            instance: instance.to_string(),
        };
        let mut fission_stats = ReconfigStats::default();
        self.fission_for_actions(
            &mut inner,
            std::slice::from_ref(&action),
            &mut fission_stats,
        );
        let mut stats = self.apply_action(&mut inner, &action)?;
        stats.absorb(fission_stats);
        drop(inner);
        stats.total = t0.elapsed();
        self.reconfigurations.fetch_add(1, Ordering::Relaxed);
        *self.last_reconfig.lock() = Some(stats);
        Ok(stats)
    }

    /// Public composition primitive: safely remove a streamlet once the
    /// Figure 6-8 prerequisites hold (inputs drained, not processing),
    /// waiting at most `deadline` for them.
    pub fn remove_streamlet(&self, name: &str, deadline: Duration) -> Result<(), CoreError> {
        let mut inner = self.inner.lock();
        let mut stats = ReconfigStats::default();
        let action = ReconfigAction::RemoveStreamlet {
            name: name.to_string(),
        };
        self.fission_for_actions(&mut inner, std::slice::from_ref(&action), &mut stats);
        self.do_remove_with_deadline(&mut inner, name, &mut stats, deadline)
    }

    fn apply_action(
        &self,
        inner: &mut Inner,
        action: &ReconfigAction,
    ) -> Result<ReconfigStats, CoreError> {
        let mut stats = ReconfigStats::default();
        match action {
            ReconfigAction::NewStreamlet { name, def } => {
                self.ensure_instance(inner, name, Some(def), &mut stats)?;
            }
            ReconfigAction::NewChannel { name, spec } => {
                if !inner.channels.contains_key(name.as_str()) {
                    let t = Instant::now();
                    let q = MessageQueue::with_probe(
                        QueueConfig::from_spec(name, spec),
                        self.deps().msg_pool.clone(),
                        self.probe.clone(),
                    );
                    inner.channels.insert(name.as_str().into(), q);
                    stats.channel_ops += 1;
                    stats.channel_time += t.elapsed();
                }
            }
            ReconfigAction::Connect { from, to, channel } => {
                self.do_connect(inner, from, to, channel, &mut stats)?;
            }
            ReconfigAction::Disconnect { from, to } => {
                self.do_disconnect(inner, from, to, &mut stats)?;
            }
            ReconfigAction::DisconnectAll { instance } => {
                let rows: Vec<ConnectionRow> = inner
                    .connections
                    .iter()
                    .filter(|c| c.from.0 == *instance || c.to.0 == *instance)
                    .cloned()
                    .collect();
                for row in rows {
                    self.do_disconnect(inner, &row.from, &row.to, &mut stats)?;
                }
            }
            ReconfigAction::Insert { from, to, instance } => {
                self.do_insert(inner, from, to, instance, &mut stats)?;
            }
            ReconfigAction::RemoveStreamlet { name } => {
                self.do_remove_with_deadline(inner, name, &mut stats, Duration::from_secs(2))?;
            }
            ReconfigAction::RemoveChannel { name } => {
                let rows: Vec<ConnectionRow> = inner
                    .connections
                    .iter()
                    .filter(|c| c.channel == *name)
                    .cloned()
                    .collect();
                for row in rows {
                    self.do_disconnect(inner, &row.from, &row.to, &mut stats)?;
                }
                let t = Instant::now();
                if inner.channels.remove(name.as_str()).is_none() {
                    return Err(CoreError::NotFound {
                        kind: "channel",
                        name: name.clone(),
                    });
                }
                stats.channel_ops += 1;
                stats.channel_time += t.elapsed();
            }
            ReconfigAction::Replace { old, new } => {
                self.do_replace(inner, old, new, &mut stats)?;
            }
        }
        Ok(stats)
    }

    /// Ensures `name` exists as a live instance, creating it from its lazy
    /// declaration (or `def_hint`) and starting its worker.
    fn ensure_instance(
        &self,
        inner: &mut Inner,
        name: &str,
        def_hint: Option<&str>,
        stats: &mut ReconfigStats,
    ) -> Result<Arc<StreamletHandle>, CoreError> {
        if let Some(h) = inner.instances.get(name) {
            return Ok(h.clone());
        }
        let def = match def_hint {
            Some(d) => d.to_string(),
            None => inner
                .lazy
                .get(name)
                .cloned()
                .ok_or_else(|| CoreError::NotFound {
                    kind: "streamlet instance",
                    name: name.to_string(),
                })?,
        };
        let handle = self.create_instance(name, &def)?;
        handle.start()?;
        stats.instance_creations += 1;
        if inner.lazy.contains_key(name) {
            Arc::make_mut(&mut inner.lazy).remove(name);
        }
        inner.instances.insert(name.into(), handle.clone());
        Ok(handle)
    }

    /// Checks logic for a new instance `name` of `def` out of the pool (or
    /// directory) and wraps it in an unstarted handle.
    fn create_instance(&self, name: &str, def: &str) -> Result<Arc<StreamletHandle>, CoreError> {
        let deps = self.deps();
        let spec = spec_of(&self.blueprint.defs, def)?;
        let key = pool_key(deps, spec);
        let logic = deps.streamlet_pool.checkout(&key, &deps.directory)?;
        Ok(self.new_handle(&name.into(), &def.into(), spec.stateful, logic, &key))
    }

    fn do_connect(
        &self,
        inner: &mut Inner,
        from: &(String, String),
        to: &(String, String),
        channel: &str,
        stats: &mut ReconfigStats,
    ) -> Result<(), CoreError> {
        let from_h = self.ensure_instance(inner, &from.0, None, stats)?;
        let to_h = self.ensure_instance(inner, &to.0, None, stats)?;
        let q = inner
            .channels
            .get(channel)
            .cloned()
            .ok_or_else(|| CoreError::NotFound {
                kind: "channel",
                name: channel.to_string(),
            })?;
        let t = Instant::now();
        retire_boundary(&from_h, &from.1, &to_h, &to.1, stats);
        from_h.attach_out(&from.1, &q);
        to_h.attach_in(&to.1, &q);
        stats.channel_ops += 2;
        stats.channel_time += t.elapsed();
        Arc::make_mut(&mut inner.connections).push(ConnectionRow {
            from: from.clone(),
            to: to.clone(),
            channel: channel.to_string(),
        });
        Ok(())
    }

    fn do_disconnect(
        &self,
        inner: &mut Inner,
        from: &(String, String),
        to: &(String, String),
        stats: &mut ReconfigStats,
    ) -> Result<(), CoreError> {
        let idx = inner
            .connections
            .iter()
            .position(|c| c.from == *from && c.to == *to)
            .ok_or_else(|| CoreError::NotFound {
                kind: "connection",
                name: format!("{}.{} -> {}.{}", from.0, from.1, to.0, to.1),
            })?;
        let row = Arc::make_mut(&mut inner.connections).remove(idx);
        let from_h = inner.instances.get(row.from.0.as_str()).cloned();
        let to_h = inner.instances.get(row.to.0.as_str()).cloned();
        let t = Instant::now();
        if let Some(h) = from_h {
            let _ = h.detach_out(&row.from.1, &row.channel);
            stats.channel_ops += 1;
        }
        if let Some(h) = to_h {
            let _ = h.detach_in(&row.to.1, &row.channel);
            stats.channel_ops += 1;
        }
        stats.channel_time += t.elapsed();
        Ok(())
    }

    /// Figure 7-4: insert `instance` between `from` and `to`.
    ///
    /// 1. suspend the upstream streamlet A;
    /// 2. detach A from channel m;
    /// 3. attach C to m (C's output feeds m);
    /// 4. create channel n between A and C;
    /// 5. activate A.
    fn do_insert(
        &self,
        inner: &mut Inner,
        from: &(String, String),
        to: &(String, String),
        instance: &str,
        stats: &mut ReconfigStats,
    ) -> Result<(), CoreError> {
        let idx = inner
            .connections
            .iter()
            .position(|c| c.from == *from && c.to == *to)
            .ok_or_else(|| CoreError::NotFound {
                kind: "connection",
                name: format!("{}.{} -> {}.{}", from.0, from.1, to.0, to.1),
            })?;
        let row = inner.connections[idx].clone();

        let a = inner
            .instances
            .get(from.0.as_str())
            .cloned()
            .ok_or_else(|| CoreError::NotFound {
                kind: "streamlet instance",
                name: from.0.clone(),
            })?;
        let c_handle = self.ensure_instance(inner, instance, None, stats)?;
        let (c_in, c_out) = self.single_ports(c_handle.def_name())?;
        let m = inner
            .channels
            .get(row.channel.as_str())
            .cloned()
            .ok_or_else(|| CoreError::NotFound {
                kind: "channel",
                name: row.channel.clone(),
            })?;

        // Step 2: suspend A.
        let t_s = Instant::now();
        a.pause_and_wait(Duration::from_secs(2))?;
        stats.suspensions += 1;
        stats.suspension_time += t_s.elapsed();

        // Steps 3-5: rewire through channel m and a fresh channel n.
        let t_c = Instant::now();
        retire_boundary(&c_handle, &c_out, &c_handle, &c_in, stats);
        a.detach_out(&from.1, &row.channel)?;
        c_handle.attach_out(&c_out, &m);
        let n_name = loop {
            let candidate = format!("__reconf{}", inner.reconf_chan_counter);
            inner.reconf_chan_counter += 1;
            if !inner.channels.contains_key(candidate.as_str()) {
                break candidate;
            }
        };
        let n = MessageQueue::with_probe(
            QueueConfig {
                name: n_name.clone(),
                ty: m.config().ty.clone(),
                ..Default::default()
            },
            self.deps().msg_pool.clone(),
            self.probe.clone(),
        );
        a.attach_out(&from.1, &n);
        c_handle.attach_in(&c_in, &n);
        inner.channels.insert(n_name.as_str().into(), n);
        stats.channel_ops += 5; // detach + attach×3 + create
        stats.channel_time += t_c.elapsed();

        // Update the routing table.
        let rows = Arc::make_mut(&mut inner.connections);
        rows.remove(idx);
        rows.push(ConnectionRow {
            from: from.clone(),
            to: (instance.to_string(), c_in),
            channel: n_name,
        });
        rows.push(ConnectionRow {
            from: (instance.to_string(), c_out),
            to: to.clone(),
            channel: row.channel,
        });

        // Step 6: activate A.
        let t_a = Instant::now();
        a.activate()?;
        stats.activations += 1;
        stats.activation_time += t_a.elapsed();
        Ok(())
    }

    /// Figure 6-8 safe removal.
    fn do_remove_with_deadline(
        &self,
        inner: &mut Inner,
        name: &str,
        stats: &mut ReconfigStats,
        deadline: Duration,
    ) -> Result<(), CoreError> {
        let handle = inner
            .instances
            .get(name)
            .cloned()
            .ok_or_else(|| CoreError::NotFound {
                kind: "streamlet instance",
                name: name.into(),
            })?;

        // Stop upstream flow into the streamlet first.
        let rows: Vec<ConnectionRow> = inner
            .connections
            .iter()
            .filter(|c| c.to.0 == name)
            .cloned()
            .collect();
        for row in &rows {
            // Suspend producers so no new units enter channel m mid-drain.
            if let Some(p) = inner.instances.get(row.from.0.as_str()).cloned() {
                let t_s = Instant::now();
                if p.pause_and_wait(Duration::from_secs(2)).is_ok() {
                    stats.suspensions += 1;
                    stats.suspension_time += t_s.elapsed();
                }
            }
        }

        // Wait for the Fig 6-8 prerequisites: inputs drained and not
        // processing. Outputs have left the streamlet once its step ends:
        // one a full channel refused waits in that channel's lane. Only a
        // step of the streamlet drains its inputs, and every step fires
        // the stream's quiesce notifier.
        let deadline = deadline_after(deadline);
        loop {
            let seen = self.quiesce.snapshot();
            if handle.inputs_empty() && !handle.is_processing() {
                break;
            }
            if expired(deadline) {
                // Reactivate producers before giving up.
                for row in &rows {
                    if let Some(p) = inner.instances.get(row.from.0.as_str()) {
                        let _ = p.activate();
                    }
                }
                return Err(CoreError::Reconfig {
                    message: format!(
                        "streamlet `{name}` did not reach the safe-removal conditions in time"
                    ),
                });
            }
            self.quiesce.wait_unless(seen, deadline);
        }

        // Detach every connection touching the streamlet.
        let touching: Vec<ConnectionRow> = inner
            .connections
            .iter()
            .filter(|c| c.from.0 == name || c.to.0 == name)
            .cloned()
            .collect();
        for row in &touching {
            let _ = self.do_disconnect(inner, &row.from, &row.to, stats);
        }

        handle.end();
        inner.instances.remove(name);
        self.reclaim_logic(&handle);

        // Reactivate the suspended producers.
        for row in &rows {
            if let Some(p) = inner.instances.get(row.from.0.as_str()) {
                let t_a = Instant::now();
                if p.activate().is_ok() {
                    stats.activations += 1;
                    stats.activation_time += t_a.elapsed();
                }
            }
        }
        Ok(())
    }

    fn do_replace(
        &self,
        inner: &mut Inner,
        old: &str,
        new: &str,
        stats: &mut ReconfigStats,
    ) -> Result<(), CoreError> {
        let old_h = inner
            .instances
            .get(old)
            .cloned()
            .ok_or_else(|| CoreError::NotFound {
                kind: "streamlet instance",
                name: old.into(),
            })?;
        let new_h = self.ensure_instance(inner, new, None, stats)?;

        let t_s = Instant::now();
        old_h.pause_and_wait(Duration::from_secs(2))?;
        stats.suspensions += 1;
        stats.suspension_time += t_s.elapsed();

        // Move *every* binding from old to new, port names preserved —
        // including the stream-boundary ingress/egress bindings, so a
        // replaced head or tail streamlet keeps the stream's exported
        // ports alive.
        let t_c = Instant::now();
        for (port, chan) in old_h.input_bindings() {
            let Some(q) = self.find_queue(inner, &chan) else {
                continue;
            };
            let _ = old_h.detach_in(&port, &chan);
            new_h.attach_in(&port, &q);
            stats.channel_ops += 2;
        }
        for (port, chan) in old_h.output_bindings() {
            let Some(q) = self.find_queue(inner, &chan) else {
                continue;
            };
            let _ = old_h.detach_out(&port, &chan);
            new_h.attach_out(&port, &q);
            stats.channel_ops += 2;
        }
        stats.channel_time += t_c.elapsed();
        for c in Arc::make_mut(&mut inner.connections).iter_mut() {
            if c.from.0 == old {
                c.from.0 = new.to_string();
            }
            if c.to.0 == old {
                c.to.0 = new.to_string();
            }
        }

        old_h.end();
        inner.instances.remove(old);
        self.reclaim_logic(&old_h);
        Ok(())
    }

    // --- fission --------------------------------------------------------------

    /// Splits every fused unit that `actions` address — by member instance
    /// or by collapsed interior channel — back into discrete streamlets, so
    /// the actions then operate on ordinary instances. Event-driven: this
    /// runs as a pre-pass of every reconfiguration entry point.
    fn fission_for_actions(
        &self,
        inner: &mut Inner,
        actions: &[ReconfigAction],
        stats: &mut ReconfigStats,
    ) {
        if inner.fused.is_empty() {
            return;
        }
        let mut units: Vec<Arc<str>> = Vec::new();
        for action in actions {
            for name in mobigate_mcl::fusion::action_instances(action) {
                if let Some(unit) = inner.fused_members.get(name) {
                    units.push(unit.clone());
                }
            }
            for chan in mobigate_mcl::fusion::action_channels(action) {
                for (unit, info) in &inner.fused {
                    if info.interior_channels.iter().any(|r| r.name == chan) {
                        units.push(unit.clone());
                    }
                }
            }
        }
        units.sort_unstable();
        units.dedup();
        for unit in units {
            match self.fission_unit(inner, &unit, None) {
                Ok(s) => stats.absorb(s),
                Err(_) => stats.errors += 1,
            }
        }
    }

    /// Splits a fused unit that supervision has given up on, so quarantine
    /// is confined to the member whose panics exhausted the restart budget.
    /// Driven by the `STREAMLET_FAULT` event the supervisor raises.
    fn fission_quarantined(&self, unit: &str) {
        let mut inner = self.inner.lock();
        if inner.shutdown || !inner.fused.contains_key(unit) {
            return;
        }
        let quarantined = inner
            .instances
            .get(unit)
            .map(|h| h.state() == LifecycleState::Quarantined)
            .unwrap_or(false);
        if !quarantined {
            return; // restartable fault — the supervisor handles it in place
        }
        let at = inner
            .fused
            .get(unit)
            .and_then(|i| i.shared.faulted_member())
            .map(|(idx, _)| idx);
        let _ = self.fission_unit(&mut inner, unit, at);
    }

    /// Fission: pause the fused unit, re-create the interior channels and
    /// member instances, splice them into the live topology
    /// **attach-before-detach** (so no queue ever closes with messages in
    /// flight), transplant the redelivery backlog into the entry member,
    /// and only then retire the unit — zero message loss.
    ///
    /// With `quarantine_at = Some(i)`, member `i` comes back discrete with
    /// fresh directory logic but is left `Quarantined`, and the surviving
    /// contiguous segments on either side re-fuse — one poisoned stage
    /// costs only its own fusion.
    fn fission_unit(
        &self,
        inner: &mut Inner,
        unit: &str,
        quarantine_at: Option<usize>,
    ) -> Result<ReconfigStats, CoreError> {
        let mut stats = ReconfigStats::default();
        let handle = inner
            .instances
            .get(unit)
            .cloned()
            .ok_or_else(|| CoreError::NotFound {
                kind: "streamlet instance",
                name: unit.to_string(),
            })?;

        // 1. Suspend the unit. A Faulted/Quarantined worker is already
        // parked and cannot race the roster handoff.
        if matches!(
            handle.state(),
            LifecycleState::Running | LifecycleState::Paused
        ) {
            let t_s = Instant::now();
            handle.pause_and_wait(Duration::from_secs(2))?;
            stats.suspensions += 1;
            stats.suspension_time += t_s.elapsed();
        }

        let Some(info) = inner.fused.remove(unit) else {
            return Err(CoreError::NotFound {
                kind: "fused unit",
                name: unit.to_string(),
            });
        };
        let member_names = info.shared.member_names();
        let members = info.shared.take_members();
        let redelivery = handle.drain_redelivery();
        let fused_members = Arc::make_mut(&mut inner.fused_members);
        for name in &member_names {
            fused_members.remove(name.as_str());
        }
        let n = members.len();
        let quarantine_at = quarantine_at.filter(|&q| q < n);

        // 2. Segment the roster: fully discrete by default; around a
        // quarantined member, the survivors re-fuse.
        let (segments, boundary): (Vec<(usize, usize)>, HashSet<usize>) = match quarantine_at {
            None => (
                (0..n).map(|i| (i, i)).collect(),
                (0..n.saturating_sub(1)).collect(),
            ),
            Some(q) => {
                let mut segs = Vec::new();
                if q > 0 {
                    segs.push((0, q - 1));
                }
                segs.push((q, q));
                if q + 1 < n {
                    segs.push((q + 1, n - 1));
                }
                let mut b = HashSet::new();
                if q > 0 {
                    b.insert(q - 1);
                }
                if q + 1 < n {
                    b.insert(q);
                }
                (segs, b)
            }
        };

        // 3. Re-materialize the boundary channels (those between segments;
        // channels interior to a re-fused segment stay collapsed).
        for (i, row) in info.interior_channels.iter().enumerate() {
            if !boundary.contains(&i) {
                continue;
            }
            let t = Instant::now();
            let cfg = QueueConfig::from_spec(&row.name, &row.spec);
            inner.channels.insert(
                row.name.as_str().into(),
                MessageQueue::with_probe(cfg, self.deps().msg_pool.clone(), self.probe.clone()),
            );
            stats.channel_ops += 1;
            stats.channel_time += t.elapsed();
        }

        // 4. One handle per segment, in pipeline order.
        let mut seg_handles: Vec<Arc<StreamletHandle>> = Vec::new();
        let mut quarantine_seg: Option<usize> = None;
        let mut roster: VecDeque<FusedMember> = members.into();
        for (si, &(start, end)) in segments.iter().enumerate() {
            let count = end - start + 1;
            let segment: Vec<FusedMember> = roster.drain(..count).collect();
            if count == 1 {
                let Some(m) = segment.into_iter().next() else {
                    continue;
                };
                if quarantine_at == Some(start) {
                    quarantine_seg = Some(si);
                }
                let name = m.instance.clone();
                let h = self.materialize_member(m)?;
                inner.instances.insert(name, h.clone());
                stats.instance_creations += 1;
                seg_handles.push(h);
            } else {
                let sub_unit: Arc<str> = fused_unit_name(
                    segment.first().map(|m| &*m.instance),
                    segment.last().map(|m| &*m.instance),
                )
                .into();
                let (h, shared) = self.fused_handle(sub_unit.clone(), segment);
                let fused_members = Arc::make_mut(&mut inner.fused_members);
                for name in &member_names[start..=end] {
                    fused_members.insert(name.as_str().into(), sub_unit.clone());
                }
                inner.fused.insert(
                    sub_unit.clone(),
                    FusedInfo {
                        shared,
                        interior_channels: info.interior_channels[start..end].into(),
                        interior_connections: info.interior_connections[start..end].into(),
                    },
                );
                inner.instances.insert(sub_unit, h.clone());
                seg_handles.push(h);
            }
        }

        // 5. Splice into the live topology. Attach-before-detach: every
        // stream-side queue gains its new consumer/producer before the old
        // handle lets go.
        let t_c = Instant::now();
        if let (Some(first), Some(last)) = (seg_handles.first(), seg_handles.last()) {
            for (port, q) in handle.bound_inputs() {
                first.attach_in(&port, &q);
                stats.channel_ops += 1;
            }
            for (port, q) in handle.bound_outputs() {
                last.attach_out(&port, &q);
                stats.channel_ops += 1;
            }
        }
        let mut seg_of = vec![0usize; n];
        for (si, &(s, e)) in segments.iter().enumerate() {
            for slot in seg_of.iter_mut().take(e + 1).skip(s) {
                *slot = si;
            }
        }
        for (i, row) in info.interior_connections.iter().enumerate() {
            if !boundary.contains(&i) {
                continue;
            }
            let Some(q) = inner.channels.get(row.channel.as_str()).cloned() else {
                continue;
            };
            if let (Some(from), Some(to)) =
                (seg_handles.get(seg_of[i]), seg_handles.get(seg_of[i + 1]))
            {
                from.attach_out(&row.from.1, &q);
                to.attach_in(&row.to.1, &q);
                stats.channel_ops += 2;
                Arc::make_mut(&mut inner.connections).push(row.clone());
            }
        }
        stats.channel_time += t_c.elapsed();

        // 6. Transplant the redelivery backlog into the entry segment so a
        // faulted batch keeps replaying (poison accounting survives).
        if let Some(first) = seg_handles.first() {
            if !redelivery.is_empty() {
                first.stash_redelivery(redelivery);
            }
        }

        // 7. Retire the unit, then start the segments.
        handle.end();
        let _ = handle.detach_all();
        inner.instances.remove(unit);
        for (si, h) in seg_handles.iter().enumerate() {
            if quarantine_seg == Some(si) {
                // The poisoned member stays down — but discrete, so the rest
                // of the pipeline keeps flowing and a `when (STREAMLET_FAULT)`
                // rule can still bypass or remove exactly this instance.
                let _ = h.quarantine();
                continue;
            }
            let t_a = Instant::now();
            match h.start() {
                Ok(()) => {
                    stats.activations += 1;
                    stats.activation_time += t_a.elapsed();
                }
                Err(_) => stats.errors += 1,
            }
        }
        if let Some(p) = &self.probe {
            p.telemetry.trace_event(
                TraceKind::Fission,
                Some(&p.key),
                Some(unit),
                format!("{} segments", seg_handles.len()),
            );
        }
        Ok(stats)
    }

    /// Rebuilds one ex-member as a discrete, individually supervised
    /// instance. A poisoned member (its logic was dropped by the panic
    /// boundary) gets fresh logic from the directory factory — never the
    /// pool, which could recycle poisoned state.
    fn materialize_member(&self, mut m: FusedMember) -> Result<Arc<StreamletHandle>, CoreError> {
        let stateful = self
            .blueprint
            .defs
            .get(&*m.def)
            .map(|d| d.stateful)
            .unwrap_or(false);
        let logic = match m.logic.take() {
            Some(l) => l,
            None => self.deps().directory.create(&m.key)?,
        };
        Ok(self.new_handle(&m.instance, &m.def, stateful, logic, &m.key))
    }

    /// Resolves a channel name to its queue, covering MCL channels plus the
    /// stream-boundary ingress/egress queues.
    fn find_queue(&self, inner: &Inner, name: &str) -> Option<Arc<MessageQueue>> {
        if let Some(q) = inner.channels.get(name) {
            return Some(q.clone());
        }
        if name == "__egress" {
            return Some(self.egress.clone());
        }
        self.ingress
            .iter()
            .map(|(_, q)| q)
            .find(|q| q.config().name == name)
            .cloned()
    }

    /// The (single input, single output) port names of a definition.
    fn single_ports(&self, def: &str) -> Result<(String, String), CoreError> {
        let spec = self
            .blueprint
            .defs
            .get(def)
            .ok_or_else(|| CoreError::NotFound {
                kind: "streamlet definition",
                name: def.into(),
            })?;
        if spec.inputs.len() != 1 || spec.outputs.len() != 1 {
            return Err(CoreError::Reconfig {
                message: format!(
                    "insert requires 1 input + 1 output; `{def}` has {}+{}",
                    spec.inputs.len(),
                    spec.outputs.len()
                ),
            });
        }
        Ok((spec.inputs[0].0.clone(), spec.outputs[0].0.clone()))
    }
}

impl EventSubscriber for RunningStream {
    fn subscriber_name(&self) -> String {
        self.name.to_string()
    }
    fn on_event(&self, event: &ContextEvent) {
        self.handle_event(event);
    }
}

impl Drop for RunningStream {
    fn drop(&mut self) {
        // Best-effort teardown so worker threads never outlive the stream.
        self.shutdown();
    }
}

/// Chain fusion's plan for `table` (empty when `deps.fusion` is off).
/// Rule 4 of the plan (logic opt-in) is answered by probing an instance
/// out of the pool/directory and asking `StreamletLogic::fusable`, so a
/// plan costs a pool checkout and checkin per candidate member: compute
/// it once per template, not once per session.
pub(crate) fn fusion_plan(
    table: &ConfigTable,
    defs: &BTreeMap<String, StreamletSpec>,
    deps: &StreamDeps,
) -> FusionPlan {
    if !deps.fusion {
        return FusionPlan::default();
    }
    let probe = |spec: &StreamletSpec| {
        let key = deps.directory.resolve_key(&spec.library, &spec.name);
        match deps.streamlet_pool.checkout(key, &deps.directory) {
            Ok(logic) => {
                let fusable = logic.fusable();
                deps.streamlet_pool.checkin(key, logic);
                fusable
            }
            Err(_) => false,
        }
    };
    mobigate_mcl::fusion::plan(table, defs, &deps.route_opts.registry, &probe)
}

/// A port that was exported at deploy time (unsatisfied, §5.1.4) is
/// satisfied once a connection or insert wires it: retire its egress
/// binding (`from`'s output) and ingress binding (`to`'s input) so traffic
/// is not duplicated onto the stream boundary.
fn retire_boundary(
    from_h: &StreamletHandle,
    from_port: &str,
    to_h: &StreamletHandle,
    to_port: &str,
    stats: &mut ReconfigStats,
) {
    if from_h
        .output_bindings()
        .iter()
        .any(|(p, c)| p == from_port && c == "__egress")
    {
        let _ = from_h.detach_out(from_port, "__egress");
        stats.channel_ops += 1;
    }
    if let Some((_, ingress_chan)) = to_h
        .input_bindings()
        .into_iter()
        .find(|(p, c)| p == to_port && c.starts_with("__ingress/"))
    {
        let _ = to_h.detach_in(to_port, &ingress_chan);
        stats.channel_ops += 1;
    }
}

/// The definition name every fused unit's handle reports, shared.
fn fused_def() -> Arc<str> {
    static DEF: LazyLock<Arc<str>> = LazyLock::new(|| Arc::from("fused"));
    DEF.clone()
}

/// The connection rows of a stream that has shut down, shared.
fn no_rows() -> Arc<Vec<ConnectionRow>> {
    static ROWS: LazyLock<Arc<Vec<ConnectionRow>>> = LazyLock::new(Arc::default);
    ROWS.clone()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::streamlet::{Emitter, StreamletCtx, StreamletLogic};
    use mobigate_mcl::compile::compile;

    /// Appends a marker character to text bodies.
    struct Tag(char);
    impl StreamletLogic for Tag {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            let mut s = String::from_utf8_lossy(&msg.body).into_owned();
            s.push(self.0);
            let mut out = msg.clone();
            out.set_body(s.into_bytes());
            ctx.emit("po", out);
            Ok(())
        }
    }

    fn deps() -> StreamDeps {
        let directory = Arc::new(StreamletDirectory::new());
        directory.register("builtin/tag_a", "", || Box::new(Tag('a')));
        directory.register("builtin/tag_b", "", || Box::new(Tag('b')));
        directory.register("builtin/tag_c", "", || Box::new(Tag('c')));
        StreamDeps {
            msg_pool: Arc::new(MessagePool::new()),
            directory,
            streamlet_pool: Arc::new(StreamletPool::new(16)),
            mode: PayloadMode::Reference,
            route_opts: RouteOpts::default(),
            executor: crate::executor::default_executor(),
            supervisor: None,
            batching: BatchConfig::default(),
            fusion: false,
            telemetry: None,
            overload: OverloadConfig::default(),
            admission: None,
            buf_pool: None,
        }
    }

    const SCRIPT: &str = r#"
        streamlet tag_a {
            port { in pi : text; out po : text; }
            attribute { type = STATELESS; library = "builtin/tag_a"; }
        }
        streamlet tag_b {
            port { in pi : text; out po : text; }
            attribute { type = STATELESS; library = "builtin/tag_b"; }
        }
        streamlet tag_c {
            port { in pi : text; out po : text; }
            attribute { type = STATELESS; library = "builtin/tag_c"; }
        }
        main stream app {
            streamlet s1 = new-streamlet (tag_a);
            streamlet s2 = new-streamlet (tag_b);
            connect (s1.po, s2.pi);
            when (LOW_BANDWIDTH) {
                streamlet s3 = new-streamlet (tag_c);
                insert (s1.po, s2.pi, s3);
            }
        }
    "#;

    fn deploy(script: &str) -> (Arc<RunningStream>, StreamDeps) {
        let program = compile(script).unwrap();
        let table = program.main().unwrap();
        let d = deps();
        let stream = RunningStream::deploy(
            table,
            &program.streamlet_defs,
            d.clone(),
            SessionId::new("s-test"),
        )
        .unwrap();
        (stream, d)
    }

    fn roundtrip(stream: &RunningStream, text: &str) -> String {
        stream.post_input(MimeMessage::text(text)).unwrap();
        let out = stream.take_output(Duration::from_secs(5)).expect("output");
        String::from_utf8_lossy(&out.body).into_owned()
    }

    #[test]
    fn deploys_and_processes_end_to_end() {
        let (stream, _) = deploy(SCRIPT);
        assert_eq!(roundtrip(&stream, "x"), "xab");
        let stats = stream.stats();
        assert_eq!(stats.injected, 1);
        assert_eq!(stats.delivered, 1);
        stream.shutdown();
    }

    /// `Duration::MAX` means no deadline, not an `Instant` overflow: with
    /// output already waiting, `take_output` returns it at once.
    #[test]
    fn unbounded_take_output_returns_waiting_output() {
        let (stream, _) = deploy(SCRIPT);
        stream.post_input(MimeMessage::text("x")).unwrap();
        let out = stream.take_output(Duration::MAX).expect("output");
        assert_eq!(&out.body[..], b"xab");
        stream.shutdown();
    }

    /// As above for `drain`: a quiescent stream drains at once.
    #[test]
    fn unbounded_drain_of_a_quiescent_stream_returns_at_once() {
        let (stream, _) = deploy(SCRIPT);
        assert_eq!(roundtrip(&stream, "x"), "xab");
        assert!(stream.drain(Duration::MAX));
        stream.shutdown();
    }

    /// An unbounded `take_output` waits on the egress notifier with no
    /// poll slice; the last exported output detaching at shutdown wakes
    /// it, and it returns `None`.
    #[test]
    fn unbounded_take_output_returns_none_once_the_stream_shuts_down() {
        let (stream, _) = deploy(SCRIPT);
        assert_eq!(roundtrip(&stream, "x"), "xab");
        let taker = {
            let stream = stream.clone();
            std::thread::spawn(move || stream.take_output(Duration::MAX))
        };
        std::thread::sleep(Duration::from_millis(20));
        stream.shutdown();
        assert!(taker.join().unwrap().is_none());
    }

    #[test]
    fn messages_carry_the_session_label() {
        let (stream, _) = deploy(SCRIPT);
        stream.post_input(MimeMessage::text("x")).unwrap();
        let out = stream.take_output(Duration::from_secs(5)).unwrap();
        assert_eq!(out.session().unwrap().as_str(), "s-test");
        stream.shutdown();
    }

    #[test]
    fn lazy_instances_not_created_at_deploy() {
        let (stream, _) = deploy(SCRIPT);
        assert_eq!(
            stream.instance_names(),
            vec!["s1".to_string(), "s2".to_string()]
        );
        stream.shutdown();
    }

    #[test]
    fn event_triggers_insert_reconfiguration() {
        let (stream, _) = deploy(SCRIPT);
        assert_eq!(roundtrip(&stream, "x"), "xab");
        let stats = stream
            .handle_event(&ContextEvent::broadcast(EventKind::LowBandwidth))
            .expect("rule ran");
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.suspensions, 1);
        assert_eq!(stats.activations, 1);
        assert!(stats.instance_creations >= 1);
        assert_eq!(stream.instance_names(), vec!["s1", "s2", "s3"]);
        // The new topology routes through s3.
        assert_eq!(roundtrip(&stream, "y"), "yacb");
        stream.shutdown();
    }

    #[test]
    fn unmatched_event_is_ignored() {
        let (stream, _) = deploy(SCRIPT);
        assert!(stream
            .handle_event(&ContextEvent::broadcast(EventKind::LowEnergy))
            .is_none());
        stream.shutdown();
    }

    #[test]
    fn insert_streamlet_primitive_reports_eq71_components() {
        let (stream, _) = deploy(SCRIPT);
        let stats = stream
            .insert_streamlet(("s1", "po"), ("s2", "pi"), "mid", "tag_c")
            .unwrap();
        assert_eq!(stats.suspensions, 1);
        assert_eq!(stats.activations, 1);
        assert!(stats.channel_ops >= 4);
        assert!(stats.total >= stats.suspension_time);
        assert_eq!(roundtrip(&stream, "z"), "zacb");
        stream.shutdown();
    }

    #[test]
    fn no_message_loss_across_reconfiguration() {
        let (stream, _) = deploy(SCRIPT);
        // Inject a burst, reconfigure mid-flight, and count every output.
        let n = 200;
        let stream2 = stream.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                stream2
                    .post_input(MimeMessage::text(format!("m{i}")))
                    .unwrap();
                if i == n / 2 {
                    stream2.handle_event(&ContextEvent::broadcast(EventKind::LowBandwidth));
                }
            }
        });
        let mut got = 0;
        while got < n {
            match stream.take_output(Duration::from_secs(5)) {
                Some(_) => got += 1,
                None => break,
            }
        }
        producer.join().unwrap();
        assert_eq!(got, n, "all {n} messages must survive the reconfiguration");
        stream.shutdown();
    }

    #[test]
    fn remove_streamlet_safely_drains_first() {
        let (stream, _) = deploy(SCRIPT);
        stream
            .insert_streamlet(("s1", "po"), ("s2", "pi"), "mid", "tag_c")
            .unwrap();
        assert_eq!(roundtrip(&stream, "q"), "qacb");
        // Remove the middle streamlet again; the stream must keep working
        // with the remaining topology (s1 -> ??). After removal, s1.po and
        // s2.pi are disconnected, so output stops — verify removal occurred
        // and nothing paniced.
        stream
            .remove_streamlet("mid", Duration::from_secs(2))
            .unwrap();
        assert!(!stream.instance_names().contains(&"mid".to_string()));
        stream.shutdown();
    }

    #[test]
    fn remove_unknown_instance_errors() {
        let (stream, _) = deploy(SCRIPT);
        assert!(stream
            .remove_streamlet("ghost", Duration::from_millis(100))
            .is_err());
        stream.shutdown();
    }

    #[test]
    fn pause_resume_events_gate_flow() {
        let (stream, _) = deploy(SCRIPT);
        stream.handle_event(&ContextEvent::broadcast(EventKind::Pause));
        stream.post_input(MimeMessage::text("held")).unwrap();
        assert!(stream.take_output(Duration::from_millis(100)).is_none());
        stream.handle_event(&ContextEvent::broadcast(EventKind::Resume));
        assert!(stream.take_output(Duration::from_secs(5)).is_some());
        stream.shutdown();
    }

    #[test]
    fn drain_waits_out_a_held_message() {
        let (stream, _) = deploy(SCRIPT);
        stream.handle_event(&ContextEvent::broadcast(EventKind::Pause));
        stream.post_input(MimeMessage::text("held")).unwrap();
        assert!(!stream.drain(Duration::from_millis(30)), "held in ingress");
        // Resumed while `drain` waits: the instances' steps wake it.
        let resumer = stream.clone();
        let resume = std::thread::spawn(move || {
            resumer.handle_event(&ContextEvent::broadcast(EventKind::Resume));
        });
        assert!(stream.drain(Duration::from_secs(10)));
        resume.join().unwrap();
        assert!(stream.take_output(Duration::from_secs(5)).is_some());
        stream.shutdown();
    }

    #[test]
    fn shutdown_returns_stateless_logic_to_pool() {
        let (stream, d) = deploy(SCRIPT);
        assert_eq!(roundtrip(&stream, "x"), "xab");
        stream.shutdown();
        // Two stateless instances were reclaimed.
        let stats = d.streamlet_pool.stats();
        assert_eq!(stats.returned, 2);
        assert_eq!(d.streamlet_pool.idle_count("builtin/tag_a"), 1);
        assert_eq!(d.streamlet_pool.idle_count("builtin/tag_b"), 1);
    }

    #[test]
    fn second_deploy_reuses_pooled_instances() {
        let program = compile(SCRIPT).unwrap();
        let d = deps();
        let s1 = RunningStream::deploy(
            program.main().unwrap(),
            &program.streamlet_defs,
            d.clone(),
            SessionId::new("one"),
        )
        .unwrap();
        s1.shutdown();
        let _s2 = RunningStream::deploy(
            program.main().unwrap(),
            &program.streamlet_defs,
            d.clone(),
            SessionId::new("two"),
        )
        .unwrap();
        let stats = d.streamlet_pool.stats();
        assert_eq!(stats.hits, 2, "second deployment pooled both streamlets");
    }

    #[test]
    fn reconfigure_counts_failed_actions() {
        let (stream, _) = deploy(SCRIPT);
        let stats = stream.reconfigure(&[ReconfigAction::RemoveStreamlet {
            name: "nope".into(),
        }]);
        assert_eq!(stats.errors, 1);
        stream.shutdown();
    }

    #[test]
    fn post_to_named_ingress() {
        let (stream, _) = deploy(SCRIPT);
        assert_eq!(stream.ingress_count(), 1);
        stream
            .post_input_to("s1.pi", MimeMessage::text("n"))
            .unwrap();
        assert!(stream.take_output(Duration::from_secs(5)).is_some());
        assert!(stream
            .post_input_to("bogus.pi", MimeMessage::text("n"))
            .is_err());
        stream.shutdown();
    }
}
