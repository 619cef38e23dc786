//! The Coordination Manager (§3.3.1).
//!
//! Holds the configuration tables of every running coordination stream,
//! generates the per-instance session IDs (§4.4.3), deploys streams against
//! the shared runtime services, and bridges the Event Manager to streams —
//! "another important function of the Coordination Manager is to filter
//! events from the Event Manager and to broadcast them among coordination
//! streams."
//!
//! Per-message routing never consults these tables on the hot path: each
//! `StreamletHandle` memoizes its port → channel routes behind an epoch
//! counter (`streamlet.rs::Shared::resolve_route`) that every rewiring
//! bumps, so reconfigurations here invalidate the caches without the data
//! path ever taking the coordination locks.
//!
//! The routing table itself ("the configuration table acts as the routing
//! table", §3.3.1) is one map from session ID to stream behind one mutex.
//! Deploys, lookups and teardowns hold it only for one map operation;
//! stream construction and shutdown run outside it.

use crate::error::CoreError;
use crate::events::{ContextEvent, EventManager, EventSubscriber};
use crate::stream::{RunningStream, StreamBlueprint, StreamDeps};
use mobigate_mcl::config::{ConfigTable, Program, StreamletSpec};
use mobigate_mime::SessionId;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Deploys and tracks running streams.
pub struct CoordinationManager {
    deps: StreamDeps,
    events: Arc<EventManager>,
    streams: Mutex<HashMap<SessionId, Arc<RunningStream>>>,
    next_session: AtomicU64,
}

impl CoordinationManager {
    /// A manager over shared runtime services.
    pub fn new(deps: StreamDeps, events: Arc<EventManager>) -> Self {
        CoordinationManager {
            deps,
            events,
            streams: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
        }
    }

    /// Generates the next unique session ID (§4.4.3: "the system
    /// automatically generates a unique session ID for each instance of a
    /// stream").
    pub fn next_session_id(&self, stream_name: &str) -> SessionId {
        let n = self.next_session.fetch_add(1, Ordering::Relaxed);
        SessionId::new(format!("{stream_name}-{n}"))
    }

    /// Deploys one configuration table under an explicit session identity:
    /// compiles it into a `StreamBlueprint` and stamps the blueprint's
    /// one instance. `deploy` routes compiled programs here; the session
    /// plane (`session.rs`) compiles its template once and stamps every
    /// session through `Self::instantiate`.
    pub fn deploy_table(
        &self,
        table: &ConfigTable,
        defs: &BTreeMap<String, StreamletSpec>,
        session: SessionId,
    ) -> Result<Arc<RunningStream>, CoreError> {
        let blueprint = StreamBlueprint::compile(table, Arc::new(defs.clone()), self.deps.clone())?;
        self.instantiate(&blueprint, session)
    }

    /// Stamps one instance of `blueprint` under `session`, subscribes it
    /// to the event categories its `when` rules react to (plus System
    /// Command, which every stream obeys for PAUSE/RESUME/END), and enters
    /// its routing-table row. This is the bottom of every deployment path.
    pub(crate) fn instantiate(
        &self,
        blueprint: &Arc<StreamBlueprint>,
        session: SessionId,
    ) -> Result<Arc<RunningStream>, CoreError> {
        let stream = blueprint.instantiate(session.clone())?;
        // Subscribe to the categories of interest (§6.4: streams subscribe
        // to events of interest and ignore the flood of the rest).
        let sub: Arc<dyn EventSubscriber> = stream.clone();
        self.events
            .subscribe_as(stream.shared_name(), stream.subscribed_categories(), &sub);
        self.streams.lock().insert(session, stream.clone());
        Ok(stream)
    }

    /// Deploys one stream of a compiled program under a generated session.
    pub fn deploy(
        &self,
        program: &Program,
        stream_name: &str,
    ) -> Result<Arc<RunningStream>, CoreError> {
        let table = program
            .streams
            .get(stream_name)
            .ok_or_else(|| CoreError::NotFound {
                kind: "stream",
                name: stream_name.to_string(),
            })?;
        let session = self.next_session_id(stream_name);
        self.deploy_table(table, &program.streamlet_defs, session)
    }

    /// Deploys the program's `main` stream.
    pub fn deploy_main(&self, program: &Program) -> Result<Arc<RunningStream>, CoreError> {
        let name = program
            .main_stream
            .clone()
            .ok_or_else(|| CoreError::Deploy {
                message: "program has no `main` stream".into(),
            })?;
        self.deploy(program, &name)
    }

    /// Shuts a stream down and forgets it. Returns whether it existed.
    ///
    /// Teardown protocol: the routing-table row is removed first (new
    /// lookups miss immediately), the stream is unsubscribed from every
    /// event category it registered for (so 10k session teardowns do not
    /// leave 10k dead weak entries for multicast to prune), and only then
    /// is the stream shut down — outside the table lock, because shutdown
    /// waits on executor tasks and checks instances back into the pool.
    pub fn undeploy(&self, session: &SessionId) -> bool {
        let removed = self.streams.lock().remove(session);
        match removed {
            Some(stream) => {
                let sub: Arc<dyn EventSubscriber> = stream.clone();
                self.events
                    .unsubscribe_as(stream.name(), stream.subscribed_categories(), &sub);
                stream.shutdown();
                true
            }
            None => false,
        }
    }

    /// Number of live streams.
    pub fn stream_count(&self) -> usize {
        self.streams.lock().len()
    }

    /// Looks up a stream by session.
    pub fn stream(&self, session: &SessionId) -> Option<Arc<RunningStream>> {
        self.streams.lock().get(session).cloned()
    }

    /// Raises a context event through the Event Manager; returns the number
    /// of deliveries.
    pub fn raise(&self, event: &ContextEvent) -> usize {
        self.events.multicast(event)
    }

    /// The shared event manager.
    pub fn events(&self) -> &Arc<EventManager> {
        &self.events
    }

    /// The shared runtime services streams deploy against.
    pub fn deps(&self) -> &StreamDeps {
        &self.deps
    }

    /// Shuts every stream down.
    pub fn shutdown_all(&self) {
        // Collect under the lock, shut down outside it.
        let drained: Vec<_> = self.streams.lock().drain().map(|(_, s)| s).collect();
        for stream in drained {
            stream.shutdown();
        }
    }
}

impl Drop for CoordinationManager {
    fn drop(&mut self) {
        self.shutdown_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::StreamletDirectory;
    use crate::pool::{MessagePool, PayloadMode};
    use crate::pooling::StreamletPool;
    use crate::streamlet::{Emitter, StreamletCtx, StreamletLogic};
    use mobigate_mcl::compile::compile;
    use mobigate_mcl::events::EventKind;
    use mobigate_mime::MimeMessage;
    use std::time::Duration;

    struct Echo;
    impl StreamletLogic for Echo {
        fn process(&mut self, m: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            ctx.emit("po", m);
            Ok(())
        }
    }

    fn manager() -> CoordinationManager {
        let directory = Arc::new(StreamletDirectory::new());
        directory.register("echo", "", || Box::new(Echo));
        let deps = StreamDeps {
            msg_pool: Arc::new(MessagePool::new()),
            directory,
            streamlet_pool: Arc::new(StreamletPool::new(8)),
            mode: PayloadMode::Reference,
            route_opts: Default::default(),
            executor: crate::executor::default_executor(),
            supervisor: None,
            batching: Default::default(),
            fusion: false,
            telemetry: None,
            overload: Default::default(),
            admission: None,
            buf_pool: None,
        };
        CoordinationManager::new(deps, Arc::new(EventManager::new()))
    }

    const SRC: &str = r#"
        streamlet echo { port { in pi : */*; out po : */*; } }
        main stream app {
            streamlet e = new-streamlet (echo);
            when (LOW_BANDWIDTH) { }
        }
    "#;

    #[test]
    fn deploy_main_and_route() {
        let mgr = manager();
        let program = compile(SRC).unwrap();
        let stream = mgr.deploy_main(&program).unwrap();
        stream.post_input(MimeMessage::text("hi")).unwrap();
        assert!(stream.take_output(Duration::from_secs(5)).is_some());
        assert_eq!(mgr.stream_count(), 1);
    }

    #[test]
    fn sessions_are_unique_per_deployment() {
        let mgr = manager();
        let program = compile(SRC).unwrap();
        let a = mgr.deploy_main(&program).unwrap();
        let b = mgr.deploy_main(&program).unwrap();
        assert_ne!(a.session(), b.session());
        assert_eq!(mgr.stream_count(), 2);
    }

    #[test]
    fn undeploy_removes_and_shuts_down() {
        let mgr = manager();
        let program = compile(SRC).unwrap();
        let s = mgr.deploy_main(&program).unwrap();
        let session = s.session().clone();
        assert!(mgr.stream(&session).is_some());
        assert!(mgr.undeploy(&session));
        assert!(!mgr.undeploy(&session));
        assert!(mgr.stream(&session).is_none());
    }

    #[test]
    fn deploy_unknown_stream_fails() {
        let mgr = manager();
        let program = compile(SRC).unwrap();
        assert!(mgr.deploy(&program, "ghost").is_err());
    }

    #[test]
    fn deploy_main_requires_main() {
        let mgr = manager();
        let program = compile("stream notmain { }").unwrap();
        assert!(matches!(
            mgr.deploy_main(&program),
            Err(CoreError::Deploy { .. })
        ));
    }

    #[test]
    fn events_reach_subscribed_streams() {
        let mgr = manager();
        let program = compile(SRC).unwrap();
        let _stream = mgr.deploy_main(&program).unwrap();
        // The app subscribed NetworkVariation (when rule) + SystemCommand.
        let delivered = mgr.raise(&ContextEvent::broadcast(EventKind::LowBandwidth));
        assert_eq!(delivered, 1);
        let delivered = mgr.raise(&ContextEvent::broadcast(EventKind::LowEnergy));
        assert_eq!(delivered, 0, "not subscribed to HardwareVariation");
    }

    #[test]
    fn end_event_is_obeyed() {
        let mgr = manager();
        let program = compile(SRC).unwrap();
        let stream = mgr.deploy_main(&program).unwrap();
        mgr.raise(&ContextEvent::targeted(EventKind::End, "app"));
        stream.post_input(MimeMessage::text("late")).unwrap();
        assert!(stream.take_output(Duration::from_millis(100)).is_none());
    }
}
