//! The session plane — one MCL template, N per-user streams.
//!
//! MobiGATE's premise is a gateway multiplexing *many mobile users*, each
//! with a private streamlet chain keyed by `Content-Session` (§4.4.3:
//! "the system automatically generates a unique session ID for each
//! instance of a stream"; §3.3.4 pooling exists so that per-session cost
//! stays small). The [`SessionManager`] industrializes that: it holds one
//! validated [`StreamTemplate`] (compiled and analyzed exactly once),
//! compiles it once more into a [`StreamBlueprint`] — resolved pool keys,
//! fused-run descriptors, queue configurations, port bindings as indices —
//! and stamps out independent sessions from that, each a full
//! `RunningStream` with its own session ID, event identity, and
//! routing-table row in the Coordination Manager. A spawn creates
//! only live state; the blueprint's rows and `when` rules are shared.
//!
//! Per-session cost at idle is deliberately tiny: instances come out of
//! the §3.3.4 streamlet pool, fusion (when enabled) collapses the chain
//! into few execution units, and under the worker-pool executor an idle
//! session is just parked tasks — a routing-table row, not threads.
//! Teardown reverses all of it: drain in-flight traffic, detach channels,
//! check stateless logic back into the pool, drop the row.

use crate::coordination::CoordinationManager;
use crate::error::CoreError;
use crate::stream::{RunningStream, StreamBlueprint};
use crate::telemetry::TraceKind;
use mobigate_mcl::template::StreamTemplate;
use mobigate_mime::SessionId;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long session teardown waits for in-flight messages to clear
/// before tearing down anyway (dropping whatever is still queued).
pub const DEFAULT_DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Stamps out and tears down per-user sessions of one stream template.
pub struct SessionManager {
    template: StreamTemplate,
    /// The template compiled against the coordination manager's runtime
    /// services, once: every session is stamped from it.
    blueprint: Arc<StreamBlueprint>,
    coordination: Arc<CoordinationManager>,
    /// Monotonic per-template sequence feeding `StreamTemplate::
    /// session_name` — never reused, so a torn-down session's ID cannot
    /// be resurrected by a later spawn.
    next_seq: AtomicU64,
    /// Sessions this manager spawned and has not torn down. Manager-local
    /// bookkeeping (`teardown_all`, listing); the authoritative routing
    /// rows live in the Coordination Manager.
    roster: Mutex<HashSet<SessionId>>,
}

impl SessionManager {
    /// A manager stamping sessions of `template` into `coordination`.
    /// Fails when the template does not compile into a blueprint (an
    /// instance of an unknown definition, a row naming an unknown
    /// channel).
    pub fn new(
        template: StreamTemplate,
        coordination: Arc<CoordinationManager>,
    ) -> Result<Self, CoreError> {
        let blueprint = StreamBlueprint::compile_template(&template, coordination.deps().clone())?;
        Ok(SessionManager {
            template,
            blueprint,
            coordination,
            next_seq: AtomicU64::new(0),
            roster: Mutex::new(HashSet::new()),
        })
    }

    /// The underlying template.
    pub fn template(&self) -> &StreamTemplate {
        &self.template
    }

    /// Instantiates one new session: stamps the blueprint under a fresh
    /// `<stream>#<seq>` identity. The session ID, the stream name (= event
    /// `evtSource` identity), and the `Content-Session` header stamped on
    /// every message the session carries all share that one string.
    pub fn spawn(&self) -> Result<Arc<RunningStream>, CoreError> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let session = SessionId::new(self.template.session_name(seq));
        let stream = self
            .coordination
            .instantiate(&self.blueprint, session.clone())?;
        if let Some(t) = &self.coordination.deps().telemetry {
            t.trace_event(
                TraceKind::SessionSpawn,
                Some(session.as_str()),
                None,
                format!("template {}", self.template.base_name()),
            );
        }
        // Pre-create the session's admission bucket so its very first
        // burst sees the full configured burst capacity.
        if let Some(ctl) = &self.coordination.deps().admission {
            ctl.register(session.as_str());
        }
        self.roster.lock().insert(session);
        Ok(stream)
    }

    /// Spawns `n` sessions, returning them in spawn order. Fails fast on
    /// the first deployment error (already-spawned sessions stay up).
    pub fn spawn_many(&self, n: usize) -> Result<Vec<Arc<RunningStream>>, CoreError> {
        (0..n).map(|_| self.spawn()).collect()
    }

    /// Looks up a live session in the routing table.
    pub fn get(&self, session: &SessionId) -> Option<Arc<RunningStream>> {
        self.coordination.stream(session)
    }

    /// Sessions currently alive under this manager (no global order).
    pub fn sessions(&self) -> Vec<SessionId> {
        self.roster.lock().iter().cloned().collect()
    }

    /// Number of live sessions under this manager.
    pub fn session_count(&self) -> usize {
        self.roster.lock().len()
    }

    /// Tears one session down: drains in-flight messages (bounded by
    /// `drain_timeout`), removes the routing-table row, unsubscribes the
    /// stream from its event categories, ends its execution units, and
    /// checks stateless logic back into the §3.3.4 pool. Returns whether
    /// the session existed.
    pub fn teardown_with_timeout(&self, session: &SessionId, drain_timeout: Duration) -> bool {
        if !self.roster.lock().remove(session) {
            return false;
        }
        if let Some(stream) = self.coordination.stream(session) {
            stream.drain(drain_timeout);
        }
        self.trace_teardown(session);
        self.coordination.undeploy(session)
    }

    /// [`Self::teardown_with_timeout`] with [`DEFAULT_DRAIN_TIMEOUT`].
    pub fn teardown(&self, session: &SessionId) -> bool {
        self.teardown_with_timeout(session, DEFAULT_DRAIN_TIMEOUT)
    }

    /// Tears down every live session of this manager; returns how many.
    pub fn teardown_all(&self) -> usize {
        let sessions: Vec<SessionId> = { self.roster.lock().drain().collect() };
        let mut n = 0;
        for session in sessions {
            if let Some(stream) = self.coordination.stream(&session) {
                stream.drain(DEFAULT_DRAIN_TIMEOUT);
            }
            self.trace_teardown(&session);
            if self.coordination.undeploy(&session) {
                n += 1;
            }
        }
        n
    }

    fn trace_teardown(&self, session: &SessionId) {
        // Drop the session's admission bucket with the session, so the
        // controller's map tracks only live sessions.
        if let Some(ctl) = &self.coordination.deps().admission {
            ctl.forget(session.as_str());
        }
        if let Some(t) = &self.coordination.deps().telemetry {
            t.trace_event(
                TraceKind::SessionTeardown,
                Some(session.as_str()),
                None,
                format!("template {}", self.template.base_name()),
            );
        }
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        // Sessions are this manager's resources: dropping it reclaims
        // them (instances back to the pool, rows out of the routing
        // table) instead of leaving orphans only `shutdown_all` can find.
        self.teardown_all();
    }
}
