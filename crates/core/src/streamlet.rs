//! Streamlets: the computation units of the execution plane (§6.1).
//!
//! A streamlet author implements [`StreamletLogic::process`] (the paper's
//! `processMsg()` override) and never touches communication: messages
//! arrive from whatever channels the coordination plane bound to the input
//! ports, and emissions go to whatever channels are bound to the named
//! output ports. [`StreamletHandle`] supplies the lifecycle operations
//! `pause()`, `activate()`, `end()`; the actual scheduling is delegated to
//! an [`Executor`] (thread-per-streamlet by default, matching the paper's
//! `Streamlet extends Thread`, or a shared worker pool) which drives the
//! handle's [`StreamletTask`].

use crate::error::CoreError;
use crate::executor::{default_executor, Executor};
use crate::pool::{MessagePool, Payload, PayloadMode};
use crate::queue::{FetchResult, MessageQueue, Notifier};
use crate::supervisor::FaultCause;
use crate::sync::{deadline_after, Parker, Wake};
use crate::telemetry::{QueueProbe, TimingSite};
use mobigate_mime::{MimeMessage, SessionId, TypeRegistry};
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Something that accepts emissions to named output ports.
pub trait Emitter {
    /// Emits `msg` on output port `port`.
    fn emit(&mut self, port: &str, msg: MimeMessage);
}

/// The per-invocation context handed to [`StreamletLogic::process`].
pub struct StreamletCtx<'a> {
    /// Instance name (diagnostics).
    instance: &'a str,
    /// The stream session this invocation belongs to, if known.
    session: Option<&'a SessionId>,
    /// Collected emissions, routed by the handle after `process` returns.
    outputs: Vec<(String, MimeMessage)>,
    /// Retired port-name strings, reused by `emit` so steady-state
    /// emission allocates nothing (the memory plane's scratch reuse).
    spare: Vec<String>,
    /// Errors an adapter logic absorbed on behalf of inner logics (a fused
    /// unit's member errors), added to the handle's `errors` stat.
    charged_errors: u64,
    /// Messages of a batch whose `process` call failed (each also charged
    /// as an error): the handle counts them as not processed.
    failed_messages: u64,
}

impl<'a> StreamletCtx<'a> {
    /// Creates a context (exposed so tests and the client runtime can drive
    /// logic objects directly).
    pub fn new(instance: &'a str, session: Option<&'a SessionId>) -> Self {
        Self::with_buffers(instance, session, Vec::new(), Vec::new())
    }

    /// Creates a context over caller-lent buffers (the drivers' scratch
    /// vecs, recovered via [`StreamletCtx::into_parts`] after the call).
    pub(crate) fn with_buffers(
        instance: &'a str,
        session: Option<&'a SessionId>,
        outputs: Vec<(String, MimeMessage)>,
        spare: Vec<String>,
    ) -> Self {
        StreamletCtx {
            instance,
            session,
            outputs,
            spare,
            charged_errors: 0,
            failed_messages: 0,
        }
    }

    /// The instance name executing this invocation.
    pub fn instance(&self) -> &str {
        self.instance
    }

    /// The owning stream session.
    pub fn session(&self) -> Option<&SessionId> {
        self.session
    }

    /// Consumes the context, yielding the collected `(port, message)`
    /// emissions in order.
    pub fn into_outputs(self) -> Vec<(String, MimeMessage)> {
        self.outputs
    }

    /// Consumes the context, handing back both lent buffers.
    pub(crate) fn into_parts(self) -> (Vec<(String, MimeMessage)>, Vec<String>) {
        (self.outputs, self.spare)
    }

    /// Charges `n` errors that an inner logic returned and the adapter
    /// absorbed (a fused member's `Err`), so the handle's `errors` stat
    /// still counts them.
    pub(crate) fn charge_errors(&mut self, n: u64) {
        self.charged_errors += n;
    }

    /// Charges one error for a batched message whose `process` call
    /// failed, which the handle then counts as not processed.
    fn fail_message(&mut self) {
        self.charge_errors(1);
        self.failed_messages += 1;
    }

    /// Messages charged through [`StreamletCtx::fail_message`].
    pub(crate) fn failed_messages(&self) -> u64 {
        self.failed_messages
    }

    /// Errors charged through [`StreamletCtx::charge_errors`].
    pub(crate) fn charged_errors(&self) -> u64 {
        self.charged_errors
    }

    /// `emit` with an already-owned port name (the fused interior loop
    /// forwards recovered strings instead of re-copying them).
    pub(crate) fn emit_owned(&mut self, port: String, msg: MimeMessage) {
        self.outputs.push((port, msg));
    }

    /// Emissions collected so far (rollback mark for per-message errors).
    pub(crate) fn outputs_len(&self) -> usize {
        self.outputs.len()
    }

    /// Discards emissions past `mark`, retiring their port strings.
    pub(crate) fn truncate_outputs(&mut self, mark: usize) {
        for (mut name, _) in self.outputs.drain(mark..) {
            name.clear();
            self.spare.push(name);
        }
    }
}

impl Emitter for StreamletCtx<'_> {
    fn emit(&mut self, port: &str, msg: MimeMessage) {
        let mut name = self.spare.pop().unwrap_or_default();
        name.clear();
        name.push_str(port);
        self.outputs.push((name, msg));
    }
}

/// The computation interface streamlet authors implement (§6.1's
/// `processMsg`). Implementations must be `Send`: they migrate onto worker
/// threads and, when stateless, in and out of the streamlet pool.
pub trait StreamletLogic: Send {
    /// Processes one incoming message, emitting any number of results.
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError>;

    /// True when `process_batch` should be preferred over per-message
    /// `process` calls. Only streamlets whose per-message behavior is
    /// independent of batching (stateless transforms) should opt in: a
    /// batch shares one panic-isolation boundary, so a panic faults the
    /// whole batch rather than the single message that caused it.
    fn supports_batch(&self) -> bool {
        false
    }

    /// Processes a run of messages under one invocation, amortizing the
    /// dispatch and routing overhead.
    ///
    /// The default calls [`StreamletLogic::process`] on every message and
    /// counts exactly as separate calls would: a failing message loses
    /// only its own emissions and is charged as one error, while its
    /// batch-mates are processed and delivered. An override that returns
    /// `Err` fails the whole batch instead: the handle discards every
    /// emission of the call, charges one error for each message not
    /// already charged, and counts none of the batch as processed.
    fn process_batch(
        &mut self,
        msgs: Vec<MimeMessage>,
        ctx: &mut StreamletCtx,
    ) -> Result<(), CoreError> {
        for msg in msgs {
            let mark = ctx.outputs_len();
            if self.process(msg, ctx).is_err() {
                ctx.truncate_outputs(mark);
                ctx.fail_message();
            }
        }
        Ok(())
    }

    /// True when this logic may be **chain-fused** with adjacent fusable
    /// streamlets (see `fusion.rs`): members of a fused unit run
    /// back-to-back on one driver, handing each emission directly to the
    /// next member instead of crossing a `MessageQueue`. Only opt in when
    /// `process` is a pure per-message transform — nothing may observe
    /// the missing channel boundary (no cross-message buffering, no
    /// reliance on queue backpressure or on running concurrently with its
    /// neighbors). Stateless pooling-eligible transforms qualify, and so
    /// does a zero-output sink whose only side effect is delivering each
    /// message (the `communicator`): a unit ending in a sink never batches,
    /// so a panic redelivers only the messages not yet delivered. The
    /// default is conservative.
    fn fusable(&self) -> bool {
        false
    }

    /// Lifecycle hook: the streamlet (re)starts running. Runs once per
    /// (re)start on the driver's first turn — under the pooled executors
    /// that is the first pump, which a launch with no input defers until
    /// work arrives — and always before `on_end`.
    fn on_activate(&mut self) {}

    /// Lifecycle hook: the streamlet is paused.
    fn on_pause(&mut self) {}

    /// Lifecycle hook: the streamlet ends.
    fn on_end(&mut self) {}

    /// Clears per-stream state before the instance is returned to the pool.
    /// Stateless streamlets usually need nothing here.
    fn reset(&mut self) {}

    /// Control interface (the thesis's §8.2.1 extension): the coordinator
    /// sets an operation parameter ("the text compression streamlet might
    /// have parameters that determine compression rate"). Implementations
    /// return `Err` for unknown keys or invalid values; the default knows
    /// no parameters.
    fn control(&mut self, key: &str, value: &str) -> Result<(), CoreError> {
        Err(CoreError::NotFound {
            kind: "control parameter",
            name: format!("{key}={value}"),
        })
    }
}

/// Routing options: the runtime type check of §4.1 ("runtime checking, in
/// the form of matching the message types to the streamlet ports, can be
/// exercised to ensure consistency during operations").
#[derive(Clone)]
pub struct RouteOpts {
    /// The MIME lattice used for the check.
    pub registry: Arc<TypeRegistry>,
    /// When true, an emission whose content type does not specialize the
    /// target channel's type is suppressed and counted instead of posted.
    pub enforce_types: bool,
}

impl Default for RouteOpts {
    fn default() -> Self {
        RouteOpts {
            registry: Arc::new(TypeRegistry::standard()),
            enforce_types: false,
        }
    }
}

/// Lifecycle states of a streamlet instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleState {
    /// Constructed but not yet started.
    Created,
    /// Actively processing.
    Running,
    /// Suspended (reconfiguration step 2, Figure 7-4).
    Paused,
    /// Terminated; the driver has finalized or will imminently.
    Ended,
    /// The logic panicked; the poisoned object was dropped and the task is
    /// parked awaiting a supervisor restart (see `supervisor.rs`).
    Faulted,
    /// The supervisor's restart budget is exhausted: the instance stays
    /// wired but will never process again unless reconfigured away.
    Quarantined,
}

/// The lifecycle as the driver and its controllers share it: the public
/// [`LifecycleState`] plus whether the driver has taken up a pause or an
/// end. `Pausing` and `Ending` read as `Paused` and `Ended`; the driver
/// moves them on once it is quiescent (Figure 6-8) or has finalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Created,
    Running,
    Pausing,
    Paused,
    Ending,
    Ended,
    Faulted,
    Quarantined,
}

impl Phase {
    fn public(self) -> LifecycleState {
        match self {
            Phase::Created => LifecycleState::Created,
            Phase::Running => LifecycleState::Running,
            Phase::Pausing | Phase::Paused => LifecycleState::Paused,
            Phase::Ending | Phase::Ended => LifecycleState::Ended,
            Phase::Faulted => LifecycleState::Faulted,
            Phase::Quarantined => LifecycleState::Quarantined,
        }
    }
}

/// Counters exposed by a handle.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamletStats {
    /// Messages processed.
    pub processed: u64,
    /// Messages emitted.
    pub emitted: u64,
    /// Emissions dropped because no channel was bound to the port.
    pub dropped_unrouted: u64,
    /// `process` invocations that returned an error.
    pub errors: u64,
    /// Emissions suppressed by the runtime type check.
    pub type_violations: u64,
    /// Panics caught in `process`/`control`/`on_activate`.
    pub faults: u64,
    /// Supervisor restarts applied to this instance.
    pub restarts: u64,
}

struct Shared {
    name: Arc<str>,
    /// `pause_and_wait` and `end` wait here for the driver to reach
    /// `Paused` or `Ended`, whichever executor drives it. Drivers wait on
    /// `notifier`, never here.
    life: Parker<Phase>,
    notifier: Arc<Notifier>,
    /// Set by the worker while inside `process` (Fig 6-8 condition 2).
    processing: AtomicBool,
    inputs: RwLock<Vec<(String, Arc<MessageQueue>)>>,
    outputs: RwLock<Vec<(String, Arc<MessageQueue>)>>,
    /// Monotonic generation of the `outputs` binding table, bumped *after*
    /// every mutation (`attach_out`/`detach_out`/`detach_all`). Readers of
    /// `route_memo` compare against it to invalidate stale entries, so the
    /// per-message hot path never re-resolves a port against the `RwLock`d
    /// table while the wiring is stable.
    route_epoch: AtomicU64,
    /// Per-port resolved routes, valid for one `route_epoch` generation.
    route_memo: Mutex<RouteMemo>,
    processed: AtomicU64,
    emitted: AtomicU64,
    dropped_unrouted: AtomicU64,
    errors: AtomicU64,
    pool: Arc<MessagePool>,
    mode: PayloadMode,
    session: Option<SessionId>,
    route_opts: RouteOpts,
    type_violations: AtomicU64,
    /// Pending control-interface commands, applied by the worker between
    /// messages: (key, value, result slot).
    controls: Mutex<Vec<ControlRequest>>,
    /// Messages whose `process`/`process_batch` panicked, stashed (with a
    /// per-message fault count) for redelivery after the supervisor
    /// restarts the instance — or, for the head entry, eviction to the
    /// dead-letter queue if it keeps faulting. Redelivered messages are
    /// always reprocessed one at a time so a poison message isolates to
    /// the front of the deque.
    redelivery: Mutex<VecDeque<(MimeMessage, u32)>>,
    /// Upper bound on messages drained per wake (1 = the paper's original
    /// per-message cadence; set via `StreamletHandle::set_batch_max`).
    batch_max: AtomicUsize,
    /// Cause of the most recent fault.
    last_fault: Mutex<Option<FaultCause>>,
    /// Fired from the executor thread when the instance faults; installed
    /// by the supervisor to enqueue restart work.
    fault_hook: Mutex<Option<FaultHook>>,
    faults: AtomicU64,
    restarts: AtomicU64,
    /// Session-keyed telemetry probe (observability plane). `get()` is a
    /// single atomic load, so the disabled path stays one branch per call.
    probe: OnceLock<QueueProbe>,
    /// The owning stream's quiescence notifier, fired after every step
    /// (once `processing` is down), so `RunningStream::drain` waits on
    /// events instead of polling. Coalesces to one atomic swap while no
    /// drain is waiting.
    quiesce: OnceLock<Arc<Notifier>>,
    /// Reused per-step buffers (memory plane). Exactly one driver runs a
    /// task at a time, so the mutex is uncontended; `step` moves the
    /// scratch out for the duration of the step and back at its end,
    /// which keeps the lock reentrancy-free. Buffers lent into a
    /// panicking `process` are lost with the unwind and self-heal to
    /// fresh (empty) vecs on the next step.
    scratch: Mutex<StepScratch>,
}

/// The per-task reusable buffers: input snapshot, drained payloads,
/// resolved messages, emission collection, retired port strings, and
/// per-queue output runs. All retain capacity across steps so the
/// steady-state hot path allocates nothing.
#[derive(Default)]
struct StepScratch {
    inputs: Vec<Arc<MessageQueue>>,
    payloads: Vec<Payload>,
    msgs: Vec<MimeMessage>,
    outputs: Vec<(String, MimeMessage)>,
    spare_strings: Vec<String>,
    runs: Vec<(Arc<MessageQueue>, Vec<Payload>)>,
    spare_runs: Vec<Vec<Payload>>,
}

/// Rendezvous slot a control requester waits on for the result.
type ControlSlot = Arc<Parker<Option<Result<(), CoreError>>>>;

/// Supervisor callback invoked (off the executor thread's unwind path)
/// whenever the instance faults.
type FaultHook = Box<dyn Fn(FaultCause) + Send + Sync>;

struct ControlRequest {
    key: String,
    value: String,
    done: ControlSlot,
}

/// Cached routing-table resolutions (satellite of the fusion PR): the
/// coordination plane mutates port wiring rarely (deploy, Figure 7-4
/// reconfiguration) while the execution plane resolves a port on every
/// emission, so each resolved port keeps its target list here until the
/// epoch moves. Port counts are tiny (1–2), so a `Vec` scan beats hashing.
#[derive(Default)]
struct RouteMemo {
    epoch: u64,
    entries: Vec<(String, Vec<Arc<MessageQueue>>)>,
}

impl Shared {
    /// Moves the lifecycle to `to` if `from` accepts the phase it is in,
    /// waking lifecycle waiters; returns that phase.
    fn transition(&self, from: impl FnOnce(Phase) -> bool, to: Phase) -> Phase {
        self.life.update(|p| {
            let was = *p;
            if from(was) {
                *p = to;
            }
            (was, Wake::All)
        })
    }

    /// A lifecycle error naming this instance.
    fn lifecycle_error(&self, message: impl Into<String>) -> CoreError {
        CoreError::Lifecycle {
            name: self.name.to_string(),
            message: message.into(),
        }
    }

    /// The error for a lifecycle call the phase `from` does not allow.
    fn refuse(&self, action: &str, from: Phase) -> CoreError {
        self.lifecycle_error(format!("cannot {action} from {:?}", from.public()))
    }

    /// Routes the emissions collected in `scratch.outputs` (drained in
    /// order), grouping payloads into per-queue runs so a batch of
    /// emissions to the same channel pays one lock acquisition. Run vecs
    /// and port strings retire into the scratch's spare pools — the
    /// steady-state path allocates nothing.
    fn route_outputs(&self, scratch: &mut StepScratch) {
        let StepScratch {
            outputs,
            spare_strings,
            runs,
            spare_runs,
            ..
        } = scratch;
        debug_assert!(runs.is_empty());
        for (mut port, msg) in outputs.drain(..) {
            let routed = self.with_route(&port, |targets| {
                let ty = self.route_opts.enforce_types.then(|| msg.content_type());
                let admit = |q: &Arc<MessageQueue>| match &ty {
                    Some(ty) => self.route_opts.registry.connectable(ty, &q.config().ty),
                    None => true,
                };
                let fanout = targets.iter().filter(|q| admit(q)).count();
                let suppressed = (targets.len() - fanout) as u64;
                if suppressed > 0 {
                    self.type_violations
                        .fetch_add(suppressed, Ordering::Relaxed);
                }
                if fanout == 0 {
                    return false;
                }
                match self.mode {
                    PayloadMode::Reference => {
                        let len = msg.wire_len();
                        let id = self.pool.insert(msg, fanout as u32);
                        for q in targets.iter().filter(|q| admit(q)) {
                            Self::push_run(runs, spare_runs, q, Payload::Ref { id, len });
                        }
                    }
                    PayloadMode::Value => {
                        for q in targets.iter().filter(|q| admit(q)) {
                            Self::push_run(runs, spare_runs, q, self.pool.wrap_copy(&msg));
                        }
                    }
                }
                true
            });
            if routed {
                self.emitted.fetch_add(1, Ordering::Relaxed);
            } else {
                // Runtime open circuit: §5.2.2's failure mode, observable.
                self.dropped_unrouted.fetch_add(1, Ordering::Relaxed);
            }
            port.clear();
            spare_strings.push(port);
        }
        // A pooled producer (one with a wake hook) never waits in a post:
        // what a channel refuses waits in its lane, and `gated` holds the
        // producer's input while a batch's worth does. A dedicated thread
        // waits in the post, as the paper's does.
        let waker = self.notifier.has_hook().then_some(&self.notifier);
        for (q, mut payloads) in runs.drain(..) {
            if waker.is_some() {
                q.post_all_nowait(&mut payloads, waker);
            } else if payloads.len() == 1 {
                if let Some(p) = payloads.pop() {
                    q.post(p);
                }
            } else {
                q.post_all(&mut payloads);
            }
            spare_runs.push(payloads);
        }
    }

    /// A pooled producer's input gate: it consumes input only while fewer
    /// than `batch_max` of its outputs wait in channel lanes, and the
    /// departure of one wakes it. At the gate it first holds each output
    /// channel, which charges the entries that waited out `T`, so it
    /// drops those and moves on as a blocked poster would.
    fn gated(&self, batch_max: usize) -> bool {
        if self.notifier.waiting() < batch_max {
            return false;
        }
        for (_, q) in self.outputs.read().iter() {
            q.expire_waiting();
        }
        self.notifier.waiting() >= batch_max
    }

    /// Accounts a finished `process`/`process_batch` call whose context
    /// charged `charged` errors and left `fresh` messages uncharged. A
    /// call that succeeded counts those as processed and routes its
    /// emissions; a failed call charges each of them one error and
    /// discards its emissions, retiring their port strings.
    fn settle(&self, ok: bool, charged: u64, fresh: u64, scratch: &mut StepScratch) {
        self.errors.fetch_add(charged, Ordering::Relaxed);
        if ok {
            self.processed.fetch_add(fresh, Ordering::Relaxed);
            self.route_outputs(scratch);
            return;
        }
        self.errors.fetch_add(fresh, Ordering::Relaxed);
        for (mut port, _msg) in scratch.outputs.drain(..) {
            port.clear();
            scratch.spare_strings.push(port);
        }
    }

    /// Resolves the channels bound to output `port` through the
    /// epoch-invalidated memo and hands the target slice to `f` under
    /// the memo lock (no per-emission clone of the target list). The
    /// epoch is loaded *before* the binding table is read, so a
    /// concurrent rewiring either invalidates what we cache (its bump
    /// lands after our load) or is what we cache — a memo entry can
    /// never outlive the next post-mutation lookup. The per-message type
    /// check (`enforce_types`) stays outside the memo: it depends on
    /// each message's content type, not on the wiring.
    fn with_route<R>(&self, port: &str, f: impl FnOnce(&[Arc<MessageQueue>]) -> R) -> R {
        let epoch = self.route_epoch.load(Ordering::Acquire);
        let mut memo = self.route_memo.lock();
        if memo.epoch != epoch {
            memo.entries.clear();
            memo.epoch = epoch;
        }
        if let Some(i) = memo.entries.iter().position(|(p, _)| p == port) {
            return f(&memo.entries[i].1);
        }
        let targets: Vec<Arc<MessageQueue>> = self
            .outputs
            .read()
            .iter()
            .filter(|(p, _)| p == port)
            .map(|(_, q)| q.clone())
            .collect();
        let i = memo.entries.len();
        memo.entries.push((port.to_string(), targets));
        f(&memo.entries[i].1)
    }

    /// Invalidate the route memo after an output-binding mutation.
    fn bump_route_epoch(&self) {
        self.route_epoch.fetch_add(1, Ordering::Release);
    }

    /// Appends a payload to the run for `q`, creating it on first use.
    fn push_run(
        runs: &mut Vec<(Arc<MessageQueue>, Vec<Payload>)>,
        spare_runs: &mut Vec<Vec<Payload>>,
        q: &Arc<MessageQueue>,
        payload: Payload,
    ) {
        if let Some((_, run)) = runs.iter_mut().find(|(rq, _)| Arc::ptr_eq(rq, q)) {
            run.push(payload);
        } else {
            let mut run = spare_runs.pop().unwrap_or_default();
            run.push(payload);
            runs.push((q.clone(), run));
        }
    }

    /// Test shim over `with_route` preserving the old clone-out signature.
    #[cfg(test)]
    fn resolve_route(&self, port: &str) -> Vec<Arc<MessageQueue>> {
        self.with_route(port, |targets| targets.to_vec())
    }

    /// Test shim over `route_outputs` for callers without a step scratch.
    #[cfg(test)]
    fn route_outputs_vec(&self, outs: Vec<(String, MimeMessage)>) {
        let mut scratch = StepScratch {
            outputs: outs,
            ..Default::default()
        };
        self.route_outputs(&mut scratch);
    }
}

/// A scheduled streamlet instance: logic + execution back end + port
/// bindings.
pub struct StreamletHandle {
    shared: Arc<Shared>,
    def_name: Arc<str>,
    stateful: bool,
    /// The §3.3.4 pool key a stateless logic checks back in under, set by
    /// the stream that deployed the instance.
    pool_key: OnceLock<Arc<str>>,
    logic_slot: Arc<Mutex<Option<Box<dyn StreamletLogic>>>>,
    executor: Arc<dyn Executor>,
    /// The live task, owned here so wake hooks (which hold only a `Weak`)
    /// can upgrade for as long as the streamlet runs. `None` before
    /// `start()` and after `end()`.
    task: Mutex<Option<Arc<StreamletTask>>>,
}

impl StreamletHandle {
    /// Creates a handle in the `Created` state (no execution resources yet)
    /// with default routing options.
    pub fn new(
        name: impl Into<Arc<str>>,
        def_name: impl Into<Arc<str>>,
        stateful: bool,
        logic: Box<dyn StreamletLogic>,
        pool: Arc<MessagePool>,
        mode: PayloadMode,
        session: Option<SessionId>,
    ) -> Arc<Self> {
        Self::with_route_opts(
            name,
            def_name,
            stateful,
            logic,
            pool,
            mode,
            session,
            RouteOpts::default(),
        )
    }

    /// Creates a handle with explicit routing options (runtime type check).
    #[allow(clippy::too_many_arguments)]
    pub fn with_route_opts(
        name: impl Into<Arc<str>>,
        def_name: impl Into<Arc<str>>,
        stateful: bool,
        logic: Box<dyn StreamletLogic>,
        pool: Arc<MessagePool>,
        mode: PayloadMode,
        session: Option<SessionId>,
        route_opts: RouteOpts,
    ) -> Arc<Self> {
        Self::with_executor(
            name,
            def_name,
            stateful,
            logic,
            pool,
            mode,
            session,
            route_opts,
            default_executor(),
        )
    }

    /// Creates a handle scheduled by an explicit [`Executor`].
    #[allow(clippy::too_many_arguments)]
    pub fn with_executor(
        name: impl Into<Arc<str>>,
        def_name: impl Into<Arc<str>>,
        stateful: bool,
        logic: Box<dyn StreamletLogic>,
        pool: Arc<MessagePool>,
        mode: PayloadMode,
        session: Option<SessionId>,
        route_opts: RouteOpts,
        executor: Arc<dyn Executor>,
    ) -> Arc<Self> {
        Arc::new(StreamletHandle {
            shared: Arc::new(Shared {
                name: name.into(),
                life: Parker::new(Phase::Created),
                notifier: Arc::new(Notifier::new()),
                processing: AtomicBool::new(false),
                inputs: RwLock::new(Vec::new()),
                outputs: RwLock::new(Vec::new()),
                route_epoch: AtomicU64::new(0),
                route_memo: Mutex::new(RouteMemo::default()),
                processed: AtomicU64::new(0),
                emitted: AtomicU64::new(0),
                dropped_unrouted: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                pool,
                mode,
                session,
                route_opts,
                type_violations: AtomicU64::new(0),
                controls: Mutex::new(Vec::new()),
                redelivery: Mutex::new(VecDeque::new()),
                batch_max: AtomicUsize::new(1),
                last_fault: Mutex::new(None),
                fault_hook: Mutex::new(None),
                faults: AtomicU64::new(0),
                restarts: AtomicU64::new(0),
                probe: OnceLock::new(),
                quiesce: OnceLock::new(),
                scratch: Mutex::new(StepScratch::default()),
            }),
            def_name: def_name.into(),
            stateful,
            pool_key: OnceLock::new(),
            logic_slot: Arc::new(Mutex::new(Some(logic))),
            executor,
            task: Mutex::new(None),
        })
    }

    /// Instance name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Definition name.
    pub fn def_name(&self) -> &str {
        &self.def_name
    }

    /// Whether the instance keeps per-stream state (not poolable).
    pub fn is_stateful(&self) -> bool {
        self.stateful
    }

    /// Records the pool key the instance's logic returns under.
    pub(crate) fn set_pool_key(&self, key: Arc<str>) {
        let _ = self.pool_key.set(key);
    }

    /// The pool key recorded by [`Self::set_pool_key`], if any.
    pub(crate) fn pool_key(&self) -> Option<&str> {
        self.pool_key.get().map(|k| &**k)
    }

    /// Current lifecycle state.
    pub fn state(&self) -> LifecycleState {
        self.shared.life.read(|p| p.public())
    }

    /// True while the worker is inside `process` (Fig 6-8 condition).
    pub fn is_processing(&self) -> bool {
        self.shared.processing.load(Ordering::Acquire)
    }

    /// True when every bound input queue is empty (Fig 6-8 condition).
    pub fn inputs_empty(&self) -> bool {
        self.shared.inputs.read().iter().all(|(_, q)| q.is_empty())
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> StreamletStats {
        StreamletStats {
            processed: self.shared.processed.load(Ordering::Relaxed),
            emitted: self.shared.emitted.load(Ordering::Relaxed),
            dropped_unrouted: self.shared.dropped_unrouted.load(Ordering::Relaxed),
            errors: self.shared.errors.load(Ordering::Relaxed),
            type_violations: self.shared.type_violations.load(Ordering::Relaxed),
            faults: self.shared.faults.load(Ordering::Relaxed),
            restarts: self.shared.restarts.load(Ordering::Relaxed),
        }
    }

    /// Sets a streamlet operation parameter through the control interface
    /// (§8.2.1). The command is executed by the worker thread between
    /// messages; this call blocks (up to `timeout`) for the result. Data
    /// ports and the control interface are the streamlet's only two ways
    /// to communicate with the outside world.
    pub fn set_parameter(
        &self,
        key: &str,
        value: &str,
        timeout: Duration,
    ) -> Result<(), CoreError> {
        let s = self.state();
        if matches!(s, LifecycleState::Ended | LifecycleState::Quarantined) {
            let message = format!("cannot control a streamlet in {s:?}");
            return Err(self.shared.lifecycle_error(message));
        }
        let done: ControlSlot = Arc::default();
        self.shared.controls.lock().push(ControlRequest {
            key: key.to_string(),
            value: value.to_string(),
            done: done.clone(),
        });
        self.shared.notifier.notify();
        done.wait_then(
            |r| r.is_none(),
            deadline_after(timeout),
            |r, _| (r.take(), Wake::None),
        )
        .unwrap_or_else(|| {
            let message = "control command not serviced in time";
            Err(self.shared.lifecycle_error(message))
        })
    }

    // --- port wiring (coordination plane only) ---------------------------

    /// Binds a channel to an input port (the paper's `setIn`): increments
    /// the queue's consumer count and subscribes the worker's notifier.
    pub fn attach_in(&self, port: &str, q: &Arc<MessageQueue>) {
        q.attach_sink();
        q.add_listener(self.shared.notifier.clone());
        self.shared
            .inputs
            .write()
            .push((port.to_string(), q.clone()));
        self.shared.notifier.notify();
    }

    /// Binds a channel to an output port (the paper's `setOut`).
    pub fn attach_out(&self, port: &str, q: &Arc<MessageQueue>) {
        q.attach_source();
        self.shared
            .outputs
            .write()
            .push((port.to_string(), q.clone()));
        self.shared.bump_route_epoch();
    }

    /// Unbinds the channel named `chan` from input `port`.
    pub fn detach_in(&self, port: &str, chan: &str) -> Result<(), CoreError> {
        let mut inputs = self.shared.inputs.write();
        let idx = inputs
            .iter()
            .position(|(p, q)| p == port && q.config().name == chan)
            .ok_or_else(|| CoreError::NotFound {
                kind: "input binding",
                name: format!("{}.{port}<-{chan}", self.shared.name),
            })?;
        let (_, q) = inputs.remove(idx);
        drop(inputs);
        q.remove_listener(&self.shared.notifier);
        q.detach_sink()
    }

    /// Unbinds the channel named `chan` from output `port`.
    pub fn detach_out(&self, port: &str, chan: &str) -> Result<(), CoreError> {
        let mut outputs = self.shared.outputs.write();
        let idx = outputs
            .iter()
            .position(|(p, q)| p == port && q.config().name == chan)
            .ok_or_else(|| CoreError::NotFound {
                kind: "output binding",
                name: format!("{}.{port}->{chan}", self.shared.name),
            })?;
        let (_, q) = outputs.remove(idx);
        drop(outputs);
        self.shared.bump_route_epoch();
        q.detach_source()
    }

    /// Detaches every binding (used during teardown). Errors (KK channels)
    /// are returned after best-effort detachment of the rest; bindings the
    /// channel *refused* to release stay recorded on the handle, so the
    /// handle's view never disagrees with the queue's attachment counts.
    pub fn detach_all(&self) -> Result<(), CoreError> {
        let mut first_err = None;
        {
            let mut inputs = self.shared.inputs.write();
            let mut kept = Vec::new();
            for (port, q) in inputs.drain(..) {
                q.remove_listener(&self.shared.notifier);
                match q.detach_sink() {
                    Ok(()) => {}
                    Err(e) => {
                        // Restore the listener along with the binding.
                        q.add_listener(self.shared.notifier.clone());
                        first_err.get_or_insert(e);
                        kept.push((port, q));
                    }
                }
            }
            *inputs = kept;
        }
        {
            let mut outputs = self.shared.outputs.write();
            let mut kept = Vec::new();
            for (port, q) in outputs.drain(..) {
                match q.detach_source() {
                    Ok(()) => {}
                    Err(e) => {
                        first_err.get_or_insert(e);
                        kept.push((port, q));
                    }
                }
            }
            *outputs = kept;
        }
        self.shared.bump_route_epoch();
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Input bindings snapshot (port, channel name).
    pub fn input_bindings(&self) -> Vec<(String, String)> {
        self.shared
            .inputs
            .read()
            .iter()
            .map(|(p, q)| (p.clone(), q.config().name.clone()))
            .collect()
    }

    /// Output bindings snapshot (port, channel name).
    pub fn output_bindings(&self) -> Vec<(String, String)> {
        self.shared
            .outputs
            .read()
            .iter()
            .map(|(p, q)| (p.clone(), q.config().name.clone()))
            .collect()
    }

    /// True when a channel is bound to output `port`.
    pub(crate) fn has_output(&self, port: &str) -> bool {
        self.shared.outputs.read().iter().any(|(p, _)| p == port)
    }

    /// Input bindings with their live queues (port, queue). Fission uses
    /// this to hand a fused unit's exact attachments to the re-materialized
    /// member instances before the unit detaches.
    pub fn bound_inputs(&self) -> Vec<(String, Arc<MessageQueue>)> {
        self.shared.inputs.read().clone()
    }

    /// Output bindings with their live queues (port, queue).
    pub fn bound_outputs(&self) -> Vec<(String, Arc<MessageQueue>)> {
        self.shared.outputs.read().clone()
    }

    /// Moves this handle's entire redelivery stash out (message, fault
    /// count), preserving order. Fission transplants the stash into the
    /// first re-materialized member so faulted-batch replays survive the
    /// split.
    pub fn drain_redelivery(&self) -> Vec<(MimeMessage, u32)> {
        self.shared.redelivery.lock().drain(..).collect()
    }

    /// Prepends messages to the redelivery stash in order (the transplant
    /// counterpart of [`Self::drain_redelivery`]). Redelivered messages
    /// are processed before fresh input, one at a time.
    pub fn stash_redelivery(&self, msgs: Vec<(MimeMessage, u32)>) {
        let mut redelivery = self.shared.redelivery.lock();
        for entry in msgs.into_iter().rev() {
            redelivery.push_front(entry);
        }
        drop(redelivery);
        self.shared.notifier.notify();
    }

    // --- lifecycle ---------------------------------------------------------

    /// Starts execution (`Created` → `Running`): hands a [`StreamletTask`]
    /// to the handle's executor.
    pub fn start(self: &Arc<Self>) -> Result<(), CoreError> {
        let logic = self.shared.life.update(|p| {
            if *p != Phase::Created {
                return (Err(self.shared.refuse("start", *p)), Wake::None);
            }
            let Some(logic) = self.logic_slot.lock().take() else {
                let taken = self.shared.lifecycle_error("logic already taken");
                return (Err(taken), Wake::None);
            };
            *p = Phase::Running;
            (Ok(logic), Wake::All)
        })?;

        let task = Arc::new(StreamletTask {
            shared: self.shared.clone(),
            park: self.logic_slot.clone(),
            running: Mutex::new(Some(logic)),
            activated: AtomicBool::new(false),
            scheduled: AtomicBool::new(false),
        });
        *self.task.lock() = Some(task.clone());
        self.executor.launch(task);
        Ok(())
    }

    /// Requests suspension and returns once the worker is quiescent (not
    /// inside `process`). This is step 2 of the Figure 7-4 reconfiguration.
    pub fn pause_and_wait(&self, timeout: Duration) -> Result<(), CoreError> {
        let t0 = Instant::now();
        let running = |p| p == Phase::Running;
        match self.shared.transition(running, Phase::Pausing) {
            Phase::Running | Phase::Pausing | Phase::Paused => {}
            // No worker is inside `process` for a faulted/quarantined
            // instance: it is already quiescent for reconfiguration.
            Phase::Faulted | Phase::Quarantined => return Ok(()),
            other => return Err(self.shared.refuse("pause", other)),
        }
        self.shared.notifier.notify();
        // The driver acknowledges the pause once quiescent; a fault can
        // supersede it, and the instance is then quiescent anyway.
        let quiescent = self.shared.life.wait_while(
            |p| !matches!(p, Phase::Paused | Phase::Faulted | Phase::Quarantined),
            deadline_after(timeout),
        );
        if quiescent {
            return Ok(());
        }
        Err(CoreError::Timeout {
            waited: t0.elapsed(),
            instance: self.shared.name.to_string(),
        })
    }

    /// Resumes a paused streamlet (Figure 7-4 step 6).
    pub fn activate(&self) -> Result<(), CoreError> {
        let paused = |p| matches!(p, Phase::Pausing | Phase::Paused);
        match self.shared.transition(paused, Phase::Running) {
            Phase::Pausing | Phase::Paused => {
                self.shared.notifier.notify();
                Ok(())
            }
            Phase::Running => Ok(()),
            other => Err(self.shared.refuse("activate", other)),
        }
    }

    /// Ends the streamlet: the task finalizes and the logic object is
    /// parked back in the handle (retrievable via [`Self::take_logic`] for
    /// pooling). Blocks until the task has finalized, whichever executor
    /// drives it.
    ///
    /// A pooled task no worker is pumping — its logic in the task's slot
    /// — is finalized right here on the calling thread, without an
    /// executor round trip. Otherwise (a dedicated thread drives it, a
    /// pump is in progress, or a fault dropped the logic) the driver is
    /// woken and publishes the exit itself.
    pub fn end(&self) {
        let ended = |p| matches!(p, Phase::Ending | Phase::Ended);
        if ended(self.shared.transition(|p| !ended(p), Phase::Ending)) {
            return;
        }
        // No task: never started, or `start` has yet to hand it over, and
        // its driver then finds `Ending` on its first pump.
        let Some(task) = self.task.lock().clone() else {
            return;
        };
        if !task.end_inline() {
            self.shared.notifier.notify();
            self.shared.life.wait_while(|p| *p == Phase::Ending, None);
        }
        // The task has finalized; release our ownership of it.
        *self.task.lock() = None;
    }

    /// Takes the logic object back after `end()` (or before `start()`).
    pub fn take_logic(&self) -> Option<Box<dyn StreamletLogic>> {
        self.logic_slot.lock().take()
    }

    // --- supervision (see `supervisor.rs`) -------------------------------

    /// Installs the callback fired (from the executor thread) when the
    /// instance faults. The supervisor uses this to enqueue restart work;
    /// the hook must be cheap and must not block.
    pub fn set_fault_hook(&self, hook: impl Fn(FaultCause) + Send + Sync + 'static) {
        *self.shared.fault_hook.lock() = Some(Box::new(hook));
    }

    /// The most recent fault's cause, if any.
    pub fn last_fault(&self) -> Option<FaultCause> {
        self.shared.last_fault.lock().clone()
    }

    /// How many times the head of the redelivery queue has faulted this
    /// instance (0 when nothing is stashed). Redelivered messages are
    /// reprocessed one at a time, so only the head accumulates faults —
    /// messages stashed behind it (the rest of a faulted batch) carry
    /// count 0 until they reach the front.
    pub fn redelivery_faults(&self) -> u32 {
        self.shared
            .redelivery
            .lock()
            .front()
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Removes the head redelivery message (poison eviction): the next
    /// restart then resumes from the rest of the stash — or the input
    /// queues — instead of replaying the poison message.
    pub fn take_redelivery(&self) -> Option<(MimeMessage, u32)> {
        self.shared.redelivery.lock().pop_front()
    }

    /// Sets the per-wake batch ceiling (1 = the paper's per-message
    /// cadence). Takes effect from the next wake.
    pub fn set_batch_max(&self, max: usize) {
        self.shared.batch_max.store(max.max(1), Ordering::Relaxed);
    }

    /// Installs the session-keyed telemetry probe. First install wins;
    /// later calls are no-ops (the probe is immutable once published to
    /// the worker).
    pub fn set_probe(&self, probe: QueueProbe) {
        let _ = self.shared.probe.set(probe);
    }

    /// Installs the owning stream's quiescence notifier, fired after
    /// every step this instance runs. First install wins.
    pub(crate) fn set_quiesce_notifier(&self, notifier: Arc<Notifier>) {
        let _ = self.shared.quiesce.set(notifier);
    }

    /// Installs fresh logic into a `Faulted` instance and resumes it in
    /// place. Channel bindings live on the handle and are untouched, so the
    /// restarted instance keeps its exact position in the stream topology.
    ///
    /// `on_restart` runs only when the restart is accepted, under the
    /// lifecycle lock and before the instance is back to `Running`, so
    /// anything it records (a restart counter) is visible before the
    /// restarted instance can process a message.
    pub fn restart_with(
        &self,
        logic: Box<dyn StreamletLogic>,
        on_restart: impl FnOnce(),
    ) -> Result<(), CoreError> {
        let task = self.task.lock().clone();
        let Some(task) = task else {
            return Err(self.shared.lifecycle_error("no live task to restart"));
        };
        // Lock order matches `pump`: running slot, then lifecycle.
        let mut slot = task.running.lock();
        let restarted = self.shared.life.update(|p| {
            if *p != Phase::Faulted {
                return (Err(*p), Wake::None);
            }
            *slot = Some(logic);
            // The fresh logic gets its own `on_activate`.
            task.activated.store(false, Ordering::Release);
            self.shared.restarts.fetch_add(1, Ordering::Relaxed);
            on_restart();
            *p = Phase::Running;
            (Ok(()), Wake::All)
        });
        drop(slot);
        if let Err(from) = restarted {
            return Err(self.shared.refuse("restart", from));
        }
        self.shared.notifier.notify();
        Ok(())
    }

    /// Gives up on a `Faulted` instance (`Faulted` → `Quarantined`): it
    /// stays wired but processes nothing until a reconfiguration bypasses
    /// or removes it. Also accepted from `Created` — quarantine-fission
    /// re-materializes the faulted member of a fused unit as a discrete,
    /// never-started instance that must carry the quarantine over.
    pub fn quarantine(&self) -> Result<(), CoreError> {
        let faulted = |p| matches!(p, Phase::Faulted | Phase::Created);
        match self.shared.transition(faulted, Phase::Quarantined) {
            Phase::Faulted | Phase::Created => {
                self.shared.notifier.notify();
                Ok(())
            }
            Phase::Quarantined => Ok(()),
            other => Err(self.shared.refuse("quarantine", other)),
        }
    }
}

/// How a [`StreamletTask::pump`] call left the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PumpOutcome {
    /// Budget exhausted with work possibly remaining — reschedule.
    More,
    /// Nothing runnable right now (idle inputs, paused, or not started).
    Idle,
    /// The streamlet ended and its logic is parked; never reschedule.
    Ended,
}

/// The executable unit an [`Executor`] drives: the streamlet's shared
/// state plus its logic object. Every executor drives it through
/// [`Self::pump`], one caller at a time (a dedicated thread, or pool
/// workers serialized by the scheduling mark). `end()` may finalize an
/// idle pooled task itself, holding the logic slot so no pump runs
/// meanwhile.
pub struct StreamletTask {
    shared: Arc<Shared>,
    /// The handle's slot: the logic is parked back here at end for pooling.
    park: Arc<Mutex<Option<Box<dyn StreamletLogic>>>>,
    /// The logic while the task is live; `None` once finalized.
    running: Mutex<Option<Box<dyn StreamletLogic>>>,
    /// First-execution flag: `on_activate` fires exactly once.
    activated: AtomicBool,
    /// Run-queue membership mark (worker-pool scheduling protocol).
    scheduled: AtomicBool,
}

impl StreamletTask {
    /// Instance name (diagnostics, thread naming).
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Installs a callback fired on every wakeup source (queue post,
    /// lifecycle transition, control command). Worker pools use this to
    /// move the task onto their run-queue.
    pub fn set_wake_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        self.shared.notifier.set_hook(hook);
    }

    /// Removes the wake hook installed by [`Self::set_wake_hook`].
    pub fn clear_wake_hook(&self) {
        self.shared.notifier.clear_hook();
    }

    /// Atomically marks the task as queued; returns `true` when the caller
    /// won the mark and must enqueue it.
    pub fn try_mark_scheduled(&self) -> bool {
        !self.scheduled.swap(true, Ordering::AcqRel)
    }

    /// Clears the run-queue membership mark (after a pump completes).
    pub fn clear_scheduled(&self) {
        self.scheduled.store(false, Ordering::Release);
    }

    /// Re-arms the coalescing wake notifier: the next `notify` fires the
    /// wake hook again. Pool workers call this after a pump, before the
    /// final `has_pending_work` re-check, so a post that raced the drain
    /// either re-fires the hook or is caught by the re-check.
    pub fn disarm_wake(&self) {
        self.shared.notifier.disarm();
    }

    /// The notifier every source of pump work fires: queue post,
    /// lifecycle transition, control command, restart.
    pub(crate) fn notifier(&self) -> &Notifier {
        &self.shared.notifier
    }

    /// True when a pump would make progress: unserviced lifecycle
    /// transition, pending control command, or a non-empty input.
    pub fn has_pending_work(&self) -> bool {
        match self.shared.life.read(|p| *p) {
            // An end or pause the driver has yet to take up.
            Phase::Ending | Phase::Pausing => true,
            Phase::Ended | Phase::Paused | Phase::Created => false,
            // A faulted/quarantined task has nothing to run until the
            // supervisor's `restart_with` moves it back to Running (which
            // notifies, so the wake hook reschedules it).
            Phase::Faulted | Phase::Quarantined => false,
            Phase::Running => {
                if !self.shared.controls.lock().is_empty() {
                    return true;
                }
                // At the gate a step would bail at once, so non-empty
                // inputs are not runnable work — counting them would
                // hot-spin a backpressured task through the run queue and
                // starve the consumers that free room. The departure of
                // one of its waiting outputs wakes it.
                let batch_max = self.shared.batch_max.load(Ordering::Relaxed).max(1);
                if self.shared.notifier.waiting() >= batch_max {
                    return false;
                }
                !self.shared.redelivery.lock().is_empty()
                    || self.shared.inputs.read().iter().any(|(_, q)| !q.is_empty())
            }
        }
    }

    /// The one driver of the lifecycle state machine: runs up to `budget`
    /// messages, servicing lifecycle transitions and control commands
    /// between them, then reports how it left the task. It never waits
    /// for work: an idle, paused or faulted task returns
    /// [`PumpOutcome::Idle`], and the executor waits for the next wake
    /// (a dedicated thread on the task's notifier, a pooled task on its
    /// wake hook).
    ///
    /// A panic in the logic does **not** unwind out of this function: the
    /// poisoned logic object is dropped, the instance goes `Faulted`, and
    /// later pumps idle until the supervisor installs fresh logic via
    /// [`StreamletHandle::restart_with`] (or `end()` terminates it).
    pub fn pump(&self, budget: usize) -> PumpOutcome {
        // Re-arm wakeups for the work we are about to drain: posts from
        // here on must fire the wake hook again (`Notifier::notify`
        // coalesces while armed), and anything posted before this line is
        // observed by the drain below.
        self.shared.notifier.disarm();
        let mut slot = self.running.lock();
        if slot.is_none() {
            // Finalized already, or the poisoned logic was dropped by a
            // fault. Keep servicing lifecycle transitions: `end()` still
            // needs the exit published, and until then the task just
            // idles awaiting a supervisor restart.
            return match self.shared.life.read(|p| *p) {
                Phase::Ended => PumpOutcome::Ended,
                Phase::Ending => {
                    drop(slot);
                    self.finalize_empty();
                    PumpOutcome::Ended
                }
                _ => PumpOutcome::Idle,
            };
        }
        if !self.activate_logic(slot.as_mut().expect("checked").as_mut()) {
            drop(slot.take());
            return PumpOutcome::Idle;
        }
        for _ in 0..budget.max(1) {
            match self.shared.life.read(|p| *p) {
                Phase::Running => {}
                Phase::Pausing => {
                    slot.as_mut().expect("checked").on_pause();
                    // Quiescent: acknowledge, unless an activate or a
                    // fault already moved the lifecycle on.
                    let pausing = |p| p == Phase::Pausing;
                    self.shared.transition(pausing, Phase::Paused);
                    return PumpOutcome::Idle;
                }
                Phase::Ending => {
                    let logic = slot.take().expect("checked");
                    drop(slot);
                    self.finalize(logic);
                    return PumpOutcome::Ended;
                }
                Phase::Created
                | Phase::Paused
                | Phase::Ended
                | Phase::Faulted
                | Phase::Quarantined => return PumpOutcome::Idle,
            }
            let logic = slot.as_mut().expect("checked");
            if !self.service_controls(logic.as_mut()) {
                drop(slot.take());
                return PumpOutcome::Idle;
            }
            let logic = slot.as_mut().expect("checked");
            match self.step(logic.as_mut()) {
                Step::Progress => {}
                Step::Idle => return PumpOutcome::Idle,
                Step::Fault => {
                    drop(slot.take());
                    return PumpOutcome::Idle;
                }
            }
        }
        PumpOutcome::More
    }

    /// `end()`'s fast path: finalizes a pooled task on the calling thread
    /// when its logic sits in the slot, i.e. no worker is pumping it.
    /// Returns `false` without touching anything when the task has no
    /// wake hook (a dedicated thread drives it, and `on_end` runs on that
    /// thread as the paper's `run()` would), when the slot is locked (a
    /// pump in progress) or when it is empty (a fault dropped the logic).
    /// The caller has already moved the state to `Ended`.
    fn end_inline(&self) -> bool {
        if !self.shared.notifier.has_hook() {
            return false;
        }
        let Some(mut slot) = self.running.try_lock() else {
            return false;
        };
        let Some(mut logic) = slot.take() else {
            return false;
        };
        // A task launched idle is activated by its first pump, which may
        // never have come: `on_activate` still precedes `on_end`.
        let healthy = self.activate_logic(logic.as_mut());
        // Nothing needs pumping any more, and `finalize`'s notify must
        // not schedule a pump just to find the task ended.
        self.clear_wake_hook();
        if healthy {
            self.finalize(logic);
        } else {
            drop(logic);
            self.finalize_empty();
        }
        // Released only now: a pump already queued blocks on the slot,
        // then finds it empty with the exit published (`Ended`).
        drop(slot);
        true
    }

    /// Fires `on_activate` exactly once per (re)start. A panic there is a
    /// fault like any other; returns `false` when the logic is poisoned.
    fn activate_logic(&self, logic: &mut dyn StreamletLogic) -> bool {
        if self.activated.swap(true, Ordering::AcqRel) {
            return true;
        }
        match std::panic::catch_unwind(AssertUnwindSafe(|| logic.on_activate())) {
            Ok(()) => true,
            Err(payload) => {
                self.fault(FaultCause::Panic(panic_message(payload.as_ref())));
                false
            }
        }
    }

    /// Services pending control commands (§8.2.1) between messages.
    /// Returns `false` when a control handler panicked (the task faulted;
    /// the caller must drop the logic).
    fn service_controls(&self, logic: &mut dyn StreamletLogic) -> bool {
        loop {
            let req = {
                let mut controls = self.shared.controls.lock();
                if controls.is_empty() {
                    break;
                }
                controls.remove(0)
            };
            let outcome =
                std::panic::catch_unwind(AssertUnwindSafe(|| logic.control(&req.key, &req.value)));
            let (result, panic) = match outcome {
                Ok(result) => (result, None),
                Err(payload) => {
                    let text = panic_message(payload.as_ref());
                    // The requester gets an error rather than a timeout.
                    let err = CoreError::Process {
                        streamlet: self.shared.name.to_string(),
                        message: format!("control handler panicked: {text}"),
                    };
                    (Err(err), Some(text))
                }
            };
            req.done.update(|slot| {
                *slot = Some(result);
                ((), Wake::All)
            });
            if let Some(text) = panic {
                self.fault(FaultCause::ControlPanic(text));
                return false;
            }
        }
        true
    }

    /// Fetches up to `batch_max` messages round-robin and processes them
    /// inside panic boundaries. A stashed redelivery message (from a
    /// previous fault) takes priority over fresh input and is always
    /// reprocessed **alone** — one message, one panic boundary — so a
    /// restarted instance resumes exactly where it failed and a poison
    /// message isolates to the front of the redelivery queue.
    fn step(&self, logic: &mut dyn StreamletLogic) -> Step {
        // Borrow the task's scratch buffers for the duration of the step.
        // Only this task's driver ever steps it, so the lock is always
        // uncontended; `take`/restore (rather than holding the guard)
        // keeps the buffers out of the panic boundary's reach and makes a
        // poisoning panic merely lose one set of buffers.
        let mut scratch = std::mem::take(&mut *self.shared.scratch.lock());
        // `processing` covers the whole step, from before the fetch until
        // the emissions land in their queues: a fetched message is in
        // flight through this instance even between the fetch and its
        // `process` call, or while it waits its turn in a batch, and both
        // Fig 6-8 safe removal and `RunningStream::drain` read "not
        // processing && queues empty" as nothing in transit.
        self.shared.processing.store(true, Ordering::Release);
        let step = self.step_inner(logic, &mut scratch);
        self.shared.processing.store(false, Ordering::Release);
        *self.shared.scratch.lock() = scratch;
        if let Some(n) = self.shared.quiesce.get() {
            n.notify();
        }
        step
    }

    fn step_inner(&self, logic: &mut dyn StreamletLogic, scratch: &mut StepScratch) -> Step {
        let shared = &self.shared;
        // Waiting outputs do not gate input outright — demanding that none
        // wait turns a backpressured chain into a lockstep wave, one
        // scheduling round-trip per batch per hop. The task keeps
        // consuming while fewer than a batch wait, so the pipeline stays
        // full and the lanes hold at most one batch plus one step's
        // emissions of its outputs.
        let batch_max = shared.batch_max.load(Ordering::Relaxed).max(1);
        if shared.gated(batch_max) {
            return Step::Idle;
        }
        let pending = shared.redelivery.lock().pop_front();
        if let Some((msg, prior_faults)) = pending {
            return self.process_one(logic, msg, prior_faults, scratch);
        }

        scratch.inputs.clear();
        scratch
            .inputs
            .extend(shared.inputs.read().iter().map(|(_, q)| q.clone()));
        scratch.payloads.clear();
        {
            let StepScratch {
                inputs, payloads, ..
            } = &mut *scratch;
            for q in inputs.iter() {
                if payloads.len() >= batch_max {
                    break;
                }
                if batch_max == 1 {
                    // The paper's per-message cadence.
                    if let FetchResult::Msg(p) = q.try_fetch() {
                        payloads.push(p);
                        break;
                    }
                } else {
                    q.take_batch(payloads, batch_max - payloads.len(), BATCH_BYTE_BUDGET);
                }
            }
        }
        if scratch.payloads.is_empty() {
            return Step::Idle;
        }
        scratch.msgs.clear();
        {
            let StepScratch { payloads, msgs, .. } = &mut *scratch;
            for p in payloads.drain(..) {
                if let Some(msg) = shared.pool.resolve(p) {
                    msgs.push(msg);
                }
                // Dangling references still count as progress: the slots
                // are drained.
            }
        }
        if scratch.msgs.is_empty() {
            return Step::Progress;
        }

        if scratch.msgs.len() > 1 && logic.supports_batch() {
            // `process_batch` consumes its Vec by value (public logic
            // API), so the batch path gives up this allocation — the
            // scratch vec self-heals as an empty Default on the next step.
            let msgs = std::mem::take(&mut scratch.msgs);
            return self.process_batched(logic, msgs, scratch);
        }
        // Consume front-to-back by popping from the reversed vec: each
        // message is moved out whole, and the unprocessed tail stays in
        // the scratch for the fault path below.
        scratch.msgs.reverse();
        while let Some(msg) = scratch.msgs.pop() {
            if let Step::Fault = self.process_one(logic, msg, 0, scratch) {
                // `process_one` stashed the faulted message at the front;
                // queue the unprocessed tail behind it, in order.
                let mut redelivery = shared.redelivery.lock();
                for rest in scratch.msgs.drain(..).rev() {
                    redelivery.push_back((rest, 0));
                }
                return Step::Fault;
            }
        }
        Step::Progress
    }

    /// Processes one message inside its own panic boundary (the paper's
    /// per-message contract). On panic the message is stashed at the front
    /// of the redelivery queue with an incremented fault count.
    fn process_one(
        &self,
        logic: &mut dyn StreamletLogic,
        msg: MimeMessage,
        prior_faults: u32,
        scratch: &mut StepScratch,
    ) -> Step {
        let shared = &self.shared;
        // Keep a handle on the message so a panic can stash it for
        // redelivery (the body is `Bytes`; this clone is cheap).
        let replay = msg.clone();
        let t0 = shared
            .probe
            .get()
            .filter(|p| p.sample_timing(TimingSite::Process))
            .map(|_| Instant::now());
        // Lend the scratch's output and spare-string buffers to the ctx so
        // steady-state emission reuses last step's allocations. A panic
        // loses the lent buffers (the empty `take` leftovers self-heal on
        // the next step).
        let outputs = std::mem::take(&mut scratch.outputs);
        let spare = std::mem::take(&mut scratch.spare_strings);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(move || {
            let mut ctx =
                StreamletCtx::with_buffers(&shared.name, shared.session.as_ref(), outputs, spare);
            let result = logic.process(msg, &mut ctx);
            (result, ctx.charged_errors(), ctx.into_parts())
        }));
        let step = match outcome {
            Ok((result, charged, (outs, spare))) => {
                // No panic, so no replay: release the snapshot before
                // routing. A consumer may take the delivery and post again
                // at once, and the snapshot would otherwise still pin the
                // body's slab out of the buffer pool.
                drop(replay);
                scratch.outputs = outs;
                scratch.spare_strings = spare;
                shared.settle(result.is_ok(), charged, 1, scratch);
                Step::Progress
            }
            Err(payload) => {
                shared
                    .redelivery
                    .lock()
                    .push_front((replay, prior_faults + 1));
                self.fault(FaultCause::Panic(panic_message(payload.as_ref())));
                Step::Fault
            }
        };
        if let (Some(p), Some(t0)) = (shared.probe.get(), t0) {
            p.on_process_ns(t0.elapsed().as_nanos() as u64);
        }
        step
    }

    /// Processes a fresh batch through `process_batch` under a single
    /// panic boundary (only reached when the logic opted in via
    /// `supports_batch`).
    fn process_batched(
        &self,
        logic: &mut dyn StreamletLogic,
        msgs: Vec<MimeMessage>,
        scratch: &mut StepScratch,
    ) -> Step {
        let shared = &self.shared;
        let replays: Vec<MimeMessage> = msgs.to_vec();
        let n = msgs.len() as u64;
        let t0 = shared
            .probe
            .get()
            .filter(|p| p.sample_timing(TimingSite::Process))
            .map(|_| Instant::now());
        let outputs = std::mem::take(&mut scratch.outputs);
        let spare = std::mem::take(&mut scratch.spare_strings);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(move || {
            let mut ctx =
                StreamletCtx::with_buffers(&shared.name, shared.session.as_ref(), outputs, spare);
            let result = logic.process_batch(msgs, &mut ctx);
            let counts = (ctx.charged_errors(), ctx.failed_messages());
            (result, counts, ctx.into_parts())
        }));
        let step = match outcome {
            Ok((result, (charged, failed), (outs, spare))) => {
                // As in `process_one`: release the snapshots before routing.
                drop(replays);
                scratch.outputs = outs;
                scratch.spare_strings = spare;
                shared.settle(result.is_ok(), charged, n - failed, scratch);
                Step::Progress
            }
            Err(payload) => {
                // The batch shared one panic boundary, so stash every
                // message for redelivery, charging the fault to the head.
                // Redelivered messages are reprocessed one at a time, so a
                // true poison message re-isolates itself on replay.
                {
                    let mut redelivery = shared.redelivery.lock();
                    for (i, replay) in replays.into_iter().enumerate().rev() {
                        redelivery.push_front((replay, u32::from(i == 0)));
                    }
                }
                self.fault(FaultCause::Panic(panic_message(payload.as_ref())));
                Step::Fault
            }
        };
        if let (Some(p), Some(t0)) = (shared.probe.get(), t0) {
            p.on_process_ns(t0.elapsed().as_nanos() as u64);
        }
        step
    }

    /// Marks the instance `Faulted` and fires the supervisor's fault hook.
    /// Loses gracefully to a concurrent `end()`: an ended instance is never
    /// resurrected into `Faulted`.
    fn fault(&self, cause: FaultCause) {
        let shared = &self.shared;
        shared.faults.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = shared.probe.get() {
            p.on_fault();
        }
        let report = shared.life.update(|p| {
            if matches!(p, Phase::Ending | Phase::Ended) {
                return (false, Wake::None);
            }
            *p = Phase::Faulted;
            *shared.last_fault.lock() = Some(cause.clone());
            (true, Wake::All)
        });
        if report {
            let hook = shared.fault_hook.lock();
            if let Some(h) = &*hook {
                h(cause);
            }
        }
    }

    /// Runs `on_end`, parks the logic back in the handle, and publishes
    /// the exit so `end()` waiters wake up.
    fn finalize(&self, mut logic: Box<dyn StreamletLogic>) {
        logic.on_end();
        *self.park.lock() = Some(logic);
        self.finalize_empty();
    }

    /// Publishes the exit for a task whose logic was already dropped by a
    /// fault: there is nothing to run `on_end` on and nothing to park.
    fn finalize_empty(&self) {
        self.shared.transition(|_| true, Phase::Ended);
        self.shared.notifier.notify();
    }
}

/// Byte ceiling for one fetched batch. Batching amortizes per-message
/// constants, which only small messages notice; a batch of fat messages
/// buys nothing and holds off the consumer's next take, and a producer
/// blocked on the full channel waits out that whole batch against Figure
/// 6-9's `T`. 32 KiB keeps small-message batches whole (`batch_max` 16 of
/// up to 2 KiB) and takes 8 KiB texts three or four at a time.
const BATCH_BYTE_BUDGET: usize = 32 << 10;

/// How a [`StreamletTask::step`] invocation left the task.
enum Step {
    /// A message was consumed (successfully or with a logic `Err`).
    Progress,
    /// Every input was empty; nothing to do.
    Idle,
    /// The logic panicked: the task is `Faulted` and the logic object must
    /// be dropped by the driver.
    Fault,
}

/// Extracts the human-readable text of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{PostResult, QueueConfig};

    /// Uppercases text bodies, emits on `po`.
    struct Upper;
    impl StreamletLogic for Upper {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            let text = String::from_utf8_lossy(&msg.body).to_uppercase();
            let mut out = msg.clone();
            out.set_body(text.into_bytes());
            ctx.emit("po", out);
            Ok(())
        }
    }

    /// Fails on every message.
    struct Exploder;
    impl StreamletLogic for Exploder {
        fn process(&mut self, _: MimeMessage, _: &mut StreamletCtx) -> Result<(), CoreError> {
            Err(CoreError::Process {
                streamlet: "exploder".into(),
                message: "bang".into(),
            })
        }
    }

    /// Emits every message, then refuses those whose body is `bad`.
    struct RefuseBad;
    impl StreamletLogic for RefuseBad {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            let bad = &msg.body[..] == b"bad";
            ctx.emit("po", msg);
            if bad {
                return Err(CoreError::Process {
                    streamlet: "refuser".into(),
                    message: "bad".into(),
                });
            }
            Ok(())
        }
    }

    /// [`RefuseBad`] through the default `process_batch`, which charges
    /// the `bad` message alone, after which the whole batch fails.
    struct RefuseBatch;
    impl StreamletLogic for RefuseBatch {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            RefuseBad.process(msg, ctx)
        }

        fn supports_batch(&self) -> bool {
            true
        }

        fn process_batch(
            &mut self,
            msgs: Vec<MimeMessage>,
            ctx: &mut StreamletCtx,
        ) -> Result<(), CoreError> {
            RefuseBad.process_batch(msgs, ctx)?;
            Err(CoreError::Process {
                streamlet: "refuser".into(),
                message: "whole batch".into(),
            })
        }
    }

    /// An executor that keeps the task for the test to pump by hand.
    #[derive(Default)]
    struct Held(Mutex<Option<Arc<StreamletTask>>>);
    impl Executor for Held {
        fn launch(&self, task: Arc<StreamletTask>) {
            // A hook lets `end` finalize the idle task inline.
            task.set_wake_hook(|| {});
            *self.0.lock() = Some(task);
        }

        fn name(&self) -> &'static str {
            "held"
        }
    }

    #[test]
    fn a_failed_batch_charges_each_message_not_already_charged() {
        let pool = Arc::new(MessagePool::new());
        let qin = MessageQueue::new(QueueConfig::default(), pool.clone());
        let qout = MessageQueue::new(QueueConfig::default(), pool.clone());
        let held = Arc::new(Held::default());
        let h = StreamletHandle::with_executor(
            "r1",
            "refuser",
            false,
            Box::new(RefuseBatch),
            pool.clone(),
            PayloadMode::Reference,
            None,
            RouteOpts::default(),
            held.clone(),
        );
        h.attach_in("pi", &qin);
        h.attach_out("po", &qout);
        h.set_batch_max(16);
        for text in ["ok1", "bad", "ok2"] {
            post_text(&pool, &qin, text);
        }
        h.start().unwrap();
        let task = held.0.lock().clone().unwrap();
        // One step takes all three messages as one batch.
        assert_eq!(task.pump(1), PumpOutcome::More);
        let stats = h.stats();
        assert_eq!((stats.errors, stats.processed), (3, 0));
        assert_eq!((stats.emitted, stats.dropped_unrouted), (0, 0));
        assert!(matches!(qout.try_fetch(), FetchResult::Empty));
        h.end();
        assert_eq!(h.state(), LifecycleState::Ended);
    }

    #[test]
    fn default_process_batch_fails_only_the_failing_message() {
        let mut ctx = StreamletCtx::new("t", None);
        let batch = ["ok1", "bad", "ok2"].map(MimeMessage::text).to_vec();
        RefuseBad.process_batch(batch, &mut ctx).unwrap();
        assert_eq!((ctx.charged_errors(), ctx.failed_messages()), (1, 1));
        let bodies: Vec<_> = ctx
            .into_outputs()
            .into_iter()
            .map(|(_, m)| m.body.to_vec())
            .collect();
        assert_eq!(
            bodies,
            [b"ok1".to_vec(), b"ok2".to_vec()],
            "bad's emission rolled back"
        );
    }

    fn pipeline() -> (
        Arc<MessagePool>,
        Arc<MessageQueue>,
        Arc<MessageQueue>,
        Arc<StreamletHandle>,
    ) {
        let pool = Arc::new(MessagePool::new());
        let qin = MessageQueue::new(
            QueueConfig {
                name: "cin".into(),
                ..Default::default()
            },
            pool.clone(),
        );
        let qout = MessageQueue::new(
            QueueConfig {
                name: "cout".into(),
                ..Default::default()
            },
            pool.clone(),
        );
        let h = StreamletHandle::new(
            "u1",
            "upper",
            false,
            Box::new(Upper),
            pool.clone(),
            PayloadMode::Reference,
            None,
        );
        h.attach_in("pi", &qin);
        h.attach_out("po", &qout);
        (pool, qin, qout, h)
    }

    fn post_text(pool: &MessagePool, q: &MessageQueue, s: &str) {
        let msg = MimeMessage::text(s);
        assert_eq!(
            q.post(pool.wrap(msg, PayloadMode::Reference, 1)),
            PostResult::Posted
        );
    }

    fn fetch_text(pool: &MessagePool, q: &MessageQueue) -> String {
        match q.fetch(Duration::from_secs(2)) {
            FetchResult::Msg(p) => {
                String::from_utf8_lossy(&pool.resolve(p).unwrap().body).into_owned()
            }
            other => panic!("expected message, got {other:?}"),
        }
    }

    #[test]
    fn processes_and_routes() {
        let (pool, qin, qout, h) = pipeline();
        h.start().unwrap();
        post_text(&pool, &qin, "hello");
        assert_eq!(fetch_text(&pool, &qout), "HELLO");
        let stats = h.stats();
        assert_eq!(stats.processed, 1);
        assert_eq!(stats.emitted, 1);
        h.end();
        assert_eq!(h.state(), LifecycleState::Ended);
    }

    #[test]
    fn preserves_order() {
        let (pool, qin, qout, h) = pipeline();
        h.start().unwrap();
        for i in 0..50 {
            post_text(&pool, &qin, &format!("m{i}"));
        }
        for i in 0..50 {
            assert_eq!(fetch_text(&pool, &qout), format!("M{i}"));
        }
        h.end();
    }

    #[test]
    fn pause_blocks_processing_until_activate() {
        let (pool, qin, qout, h) = pipeline();
        h.start().unwrap();
        post_text(&pool, &qin, "a");
        assert_eq!(fetch_text(&pool, &qout), "A");
        h.pause_and_wait(Duration::from_secs(2)).unwrap();
        assert_eq!(h.state(), LifecycleState::Paused);
        post_text(&pool, &qin, "b");
        // Paused: nothing comes out.
        assert!(matches!(
            qout.fetch(Duration::from_millis(50)),
            FetchResult::Empty
        ));
        h.activate().unwrap();
        assert_eq!(fetch_text(&pool, &qout), "B");
        h.end();
    }

    /// `Duration::MAX` means no deadline, not an `Instant` overflow: the
    /// driver acknowledges the pause at once.
    #[test]
    fn pause_with_an_unbounded_timeout_returns_once_quiescent() {
        let (_pool, _qin, _qout, h) = pipeline();
        h.start().unwrap();
        h.pause_and_wait(Duration::MAX).unwrap();
        assert_eq!(h.state(), LifecycleState::Paused);
        h.end();
    }

    /// As above for a control command: the driver services it (here with
    /// the default "unknown parameter" error) instead of the call
    /// overflowing its deadline.
    #[test]
    fn control_with_an_unbounded_timeout_returns_once_serviced() {
        let (_pool, _qin, _qout, h) = pipeline();
        h.start().unwrap();
        let err = h.set_parameter("rate", "9", Duration::MAX).unwrap_err();
        assert!(matches!(err, CoreError::NotFound { .. }), "{err:?}");
        h.end();
    }

    #[test]
    fn end_returns_logic_for_pooling() {
        let (_pool, _qin, _qout, h) = pipeline();
        h.start().unwrap();
        assert!(
            h.take_logic().is_none(),
            "logic lives on the worker while running"
        );
        h.end();
        assert!(h.take_logic().is_some(), "logic parked back after end");
    }

    #[test]
    fn cannot_start_twice() {
        let (_pool, _qin, _qout, h) = pipeline();
        h.start().unwrap();
        assert!(h.start().is_err());
        h.end();
    }

    #[test]
    fn lifecycle_errors_from_wrong_states() {
        let (_pool, _qin, _qout, h) = pipeline();
        // Not started yet.
        assert!(h.pause_and_wait(Duration::from_millis(50)).is_err());
        assert!(h.activate().is_err());
        h.start().unwrap();
        h.end();
        assert!(h.activate().is_err());
        // end is idempotent.
        h.end();
    }

    #[test]
    fn unrouted_emissions_are_counted() {
        let pool = Arc::new(MessagePool::new());
        let qin = MessageQueue::new(QueueConfig::default(), pool.clone());
        let h = StreamletHandle::new(
            "u1",
            "upper",
            false,
            Box::new(Upper),
            pool.clone(),
            PayloadMode::Reference,
            None,
        );
        h.attach_in("pi", &qin);
        // No output binding at all.
        h.start().unwrap();
        post_text(&pool, &qin, "x");
        let deadline = Instant::now() + Duration::from_secs(2);
        while h.stats().dropped_unrouted == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(h.stats().dropped_unrouted, 1);
        h.end();
    }

    #[test]
    fn process_errors_do_not_kill_worker() {
        let pool = Arc::new(MessagePool::new());
        let qin = MessageQueue::new(QueueConfig::default(), pool.clone());
        let h = StreamletHandle::new(
            "x1",
            "exploder",
            false,
            Box::new(Exploder),
            pool.clone(),
            PayloadMode::Reference,
            None,
        );
        h.attach_in("pi", &qin);
        h.start().unwrap();
        post_text(&pool, &qin, "a");
        post_text(&pool, &qin, "b");
        let deadline = Instant::now() + Duration::from_secs(2);
        while h.stats().errors < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(h.stats().errors, 2);
        assert_eq!(h.state(), LifecycleState::Running);
        h.end();
    }

    #[test]
    fn fanout_in_reference_mode_shares_pool_entry() {
        let pool = Arc::new(MessagePool::new());
        let qin = MessageQueue::new(QueueConfig::default(), pool.clone());
        let qa = MessageQueue::new(
            QueueConfig {
                name: "a".into(),
                ..Default::default()
            },
            pool.clone(),
        );
        let qb = MessageQueue::new(
            QueueConfig {
                name: "b".into(),
                ..Default::default()
            },
            pool.clone(),
        );
        let h = StreamletHandle::new(
            "u1",
            "upper",
            false,
            Box::new(Upper),
            pool.clone(),
            PayloadMode::Reference,
            None,
        );
        h.attach_in("pi", &qin);
        h.attach_out("po", &qa);
        h.attach_out("po", &qb);
        h.start().unwrap();
        post_text(&pool, &qin, "dup");
        let a = fetch_text(&pool, &qa);
        let b = fetch_text(&pool, &qb);
        assert_eq!(a, "DUP");
        assert_eq!(b, "DUP");
        assert_eq!(pool.stats().resident, 0, "both refs consumed");
        h.end();
    }

    #[test]
    fn detach_in_stops_consumption() {
        let (pool, qin, qout, h) = pipeline();
        h.start().unwrap();
        post_text(&pool, &qin, "a");
        assert_eq!(fetch_text(&pool, &qout), "A");
        h.detach_in("pi", "cin").unwrap();
        assert!(h.input_bindings().is_empty());
        // BK category: sink detach breaks the source side; posts now close.
        let msg = MimeMessage::text("b");
        assert_eq!(
            qin.post(pool.wrap(msg, PayloadMode::Reference, 1)),
            PostResult::Closed
        );
        h.end();
    }

    #[test]
    fn detach_unknown_binding_errors() {
        let (_pool, _qin, _qout, h) = pipeline();
        assert!(h.detach_in("pi", "nope").is_err());
        assert!(h.detach_out("nope", "cout").is_err());
    }

    #[test]
    fn inputs_empty_reflects_queue_state() {
        let (pool, qin, _qout, h) = pipeline();
        // Not started: message sits in the queue.
        post_text(&pool, &qin, "z");
        assert!(!h.inputs_empty());
    }

    #[test]
    fn value_mode_copies_per_target() {
        let pool = Arc::new(MessagePool::new());
        let qin = MessageQueue::new(QueueConfig::default(), pool.clone());
        let qout = MessageQueue::new(QueueConfig::default(), pool.clone());
        let h = StreamletHandle::new(
            "u1",
            "upper",
            false,
            Box::new(Upper),
            pool.clone(),
            PayloadMode::Value,
            None,
        );
        h.attach_in("pi", &qin);
        h.attach_out("po", &qout);
        h.start().unwrap();
        let msg = MimeMessage::text("v");
        qin.post(pool.wrap(msg, PayloadMode::Value, 1));
        match qout.fetch(Duration::from_secs(2)) {
            FetchResult::Msg(Payload::Value(m)) => assert_eq!(&m.body[..], b"V"),
            other => panic!("expected value payload, got {other:?}"),
        }
        assert_eq!(
            pool.stats().inserted,
            0,
            "value mode never touches the pool"
        );
        h.end();
    }

    #[test]
    fn route_memo_follows_rewiring() {
        let (_pool, _qin, _qout, h) = pipeline();
        // First resolution populates the memo, second one hits it.
        assert_eq!(h.shared.resolve_route("po").len(), 1);
        assert_eq!(h.shared.resolve_route("po").len(), 1);
        // A new binding bumps the epoch: the memo may not serve the stale
        // single-target route.
        let extra = MessageQueue::new(
            QueueConfig {
                name: "extra".into(),
                ..Default::default()
            },
            h.shared.pool.clone(),
        );
        h.attach_out("po", &extra);
        assert_eq!(h.shared.resolve_route("po").len(), 2);
        h.detach_out("po", "extra").unwrap();
        assert_eq!(h.shared.resolve_route("po").len(), 1);
        // Unknown ports memoize as empty, not as an error.
        assert!(h.shared.resolve_route("nope").is_empty());
    }

    /// A producer is woken only by departures of its own lane entries:
    /// takes from its output channel while the lane is empty notify it
    /// not at all.
    #[test]
    fn take_with_an_empty_lane_wakes_no_attached_producer() {
        let pool = Arc::new(MessagePool::new());
        let q = MessageQueue::new(QueueConfig::default(), pool.clone());
        let h = StreamletHandle::new(
            "u1",
            "upper",
            false,
            Box::new(Upper),
            pool.clone(),
            PayloadMode::Reference,
            None,
        );
        h.attach_out("po", &q);
        let wakes = Arc::new(AtomicUsize::new(0));
        let w = wakes.clone();
        h.shared.notifier.set_hook(move || {
            w.fetch_add(1, Ordering::SeqCst);
        });
        for i in 0..8 {
            // Disarmed, as a pump leaves it: any notify would fire the hook.
            h.shared.notifier.disarm();
            let msg = MimeMessage::text(format!("m{i}"));
            h.shared.route_outputs_vec(vec![("po".to_string(), msg)]);
            assert_eq!(fetch_text(&pool, &q), format!("m{i}"));
        }
        assert_eq!(wakes.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn quarantine_accepts_created_instances() {
        let (_pool, _qin, _qout, h) = pipeline();
        h.quarantine().unwrap();
        assert_eq!(h.state(), LifecycleState::Quarantined);
        assert!(h.start().is_err(), "a quarantined instance never starts");
    }
}
