//! Chain fusion: the runtime half of the fusion/fission engine.
//!
//! The static half (`mobigate-mcl::fusion`) finds maximal runs of fusable
//! streamlets; this module executes such a run as **one** scheduled unit.
//! A [`FusedLogic`] is an ordinary [`StreamletLogic`] installed on a
//! single [`StreamletHandle`](crate::StreamletHandle): each incoming
//! message is threaded through the member logics back-to-back on the same
//! driver, stage by stage, so the interior `MessageQueue`s — and their
//! admission locks, pool reference handoffs, and wakeups — disappear
//! entirely. The stream keeps the member roster in the shared state
//! ([`FusedShared`]), which is what makes **fission** possible: the
//! coordination plane can pause the unit, take the member logics back out
//! ([`FusedShared::take_members`]), and re-materialize discrete instances
//! with real channels, without ever copying or losing a message.
//!
//! Supervision resolves to the *member*, not the unit: a member panic is
//! re-thrown with the member's name and recorded index
//! ([`FusedShared::faulted_member`]), so the supervisor's rebuild closure
//! replaces only that member's logic, and quarantine-fission can split the
//! unit around exactly the poisoned stage.

use crate::error::CoreError;
#[cfg(test)]
use crate::streamlet::Emitter;
use crate::streamlet::{StreamletCtx, StreamletLogic};
use mobigate_mime::MimeMessage;
use parking_lot::Mutex;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// One member of a fused run: identity (for fault attribution, rebuild,
/// and fission) plus the live logic object.
pub struct FusedMember {
    /// Original instance name from the configuration table.
    pub instance: Arc<str>,
    /// Definition name (fission re-creates the instance row from this).
    pub def: Arc<str>,
    /// Directory key of the implementing component (member rebuild).
    pub key: Arc<str>,
    /// The single input port of the member's definition.
    pub in_port: Arc<str>,
    /// The single output port of the member's definition; `None` for a
    /// zero-output sink, which can only be the run's tail.
    pub out_port: Option<Arc<str>>,
    /// The live logic; `None` while poisoned (awaiting rebuild) or after
    /// fission took it.
    pub logic: Option<Box<dyn StreamletLogic>>,
    /// Member-attributed `process` errors (the counter the member's own
    /// handle would have charged when running unfused).
    pub errors: u64,
}

/// State shared between a fused unit's logic, its supervisor rebuild
/// closure, and the owning stream (for fission). The members `Mutex` is
/// uncontended on the hot path: exactly one driver runs a task at a time,
/// and the other lockers (rebuild, fission) only run while the task is
/// parked or paused.
pub struct FusedShared {
    unit: Arc<str>,
    members: Mutex<Vec<FusedMember>>,
    /// Index of the member whose panic poisoned the unit, if any.
    faulted: Mutex<Option<usize>>,
}

impl FusedShared {
    /// Creates the shared roster for unit `unit`.
    pub fn new(unit: impl Into<Arc<str>>, members: Vec<FusedMember>) -> Arc<Self> {
        Arc::new(FusedShared {
            unit: unit.into(),
            members: Mutex::new(members),
            faulted: Mutex::new(None),
        })
    }

    /// The fused unit's instance name.
    pub fn unit_name(&self) -> &str {
        &self.unit
    }

    /// Member instance names in pipeline order.
    pub fn member_names(&self) -> Vec<String> {
        self.members
            .lock()
            .iter()
            .map(|m| m.instance.to_string())
            .collect()
    }

    /// Member-attributed error counters, pipeline order.
    pub fn member_errors(&self) -> Vec<(String, u64)> {
        self.members
            .lock()
            .iter()
            .map(|m| (m.instance.to_string(), m.errors))
            .collect()
    }

    /// The member whose panic poisoned the unit: (index, instance name).
    pub fn faulted_member(&self) -> Option<(usize, String)> {
        let idx = (*self.faulted.lock())?;
        let members = self.members.lock();
        members.get(idx).map(|m| (idx, m.instance.to_string()))
    }

    /// Directory key of the faulted member (rebuild closures resolve the
    /// replacement logic through this).
    pub fn faulted_member_key(&self) -> Option<(usize, String)> {
        let idx = (*self.faulted.lock())?;
        let members = self.members.lock();
        members.get(idx).map(|m| (idx, m.key.to_string()))
    }

    /// Installs fresh logic for member `idx` and clears the fault marker
    /// (the supervisor's member-level restart).
    pub fn install_member_logic(&self, idx: usize, logic: Box<dyn StreamletLogic>) {
        {
            let mut members = self.members.lock();
            if let Some(m) = members.get_mut(idx) {
                m.logic = Some(logic);
            }
        }
        *self.faulted.lock() = None;
    }

    /// Drains the entire member roster (logic objects included) for
    /// fission. The unit's `FusedLogic` processes nothing afterwards; the
    /// caller must have paused the owning handle first.
    pub fn take_members(&self) -> Vec<FusedMember> {
        std::mem::take(&mut *self.members.lock())
    }

    /// Number of members currently in the roster.
    pub fn len(&self) -> usize {
        self.members.lock().len()
    }

    /// True when the roster was drained by fission.
    pub fn is_empty(&self) -> bool {
        self.members.lock().is_empty()
    }
}

/// The [`StreamletLogic`] adapter that drives a fused run. Stage-by-stage
/// threading: every message of the invocation passes member `i` before any
/// message reaches member `i + 1`, which is exactly the order a FIFO
/// channel between them would have enforced — fused and unfused pipelines
/// are observationally equivalent under non-saturating load (fusion has no
/// interior queues, so interior Figure 6-9 overflow drops cannot occur).
pub struct FusedLogic {
    shared: Arc<FusedShared>,
    /// Interior-loop scratch, reused across invocations so the fused hot
    /// path allocates nothing in steady state: the current stage's feed,
    /// the next stage's feed, the per-stage emission buffer, and retired
    /// port-name strings. A member panic unwinds past these; whatever was
    /// lent to the stage context at that moment is lost and the fields
    /// self-heal as empty vecs (the whole batch goes to redelivery anyway).
    batch: Vec<MimeMessage>,
    next: Vec<MimeMessage>,
    stage_outs: Vec<(String, MimeMessage)>,
    spare: Vec<String>,
    /// The run ends in a zero-output sink, whose delivery is a side effect
    /// outside the unit: the unit then never batches (see
    /// [`FusedLogic::supports_batch`]).
    sink_tail: bool,
}

impl FusedLogic {
    /// A logic view over the shared roster (the supervisor creates a fresh
    /// one per member-level restart; they all drive the same members).
    pub fn new(shared: Arc<FusedShared>) -> Self {
        let sink_tail = shared
            .members
            .lock()
            .last()
            .is_some_and(|m| m.out_port.is_none());
        FusedLogic {
            shared,
            sink_tail,
            batch: Vec::new(),
            next: Vec::new(),
            stage_outs: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Runs `self.batch` through every member. Emissions on a member's
    /// single output port feed the next stage; the last stage's feed is
    /// emitted on its own port name (the fused handle's output binding uses
    /// the same name). A sink tail has no output port and emits nothing.
    /// Any *other* emission is surfaced as `instance.port` — never bound,
    /// so it drops as unrouted exactly like the open circuit it would have
    /// been unfused.
    fn thread(&mut self, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        self.next.clear();
        let mut members = self.shared.members.lock();
        let last = members.len().saturating_sub(1);
        for (i, member) in members.iter_mut().enumerate() {
            if self.batch.is_empty() {
                break;
            }
            let Some(logic) = member.logic.as_mut() else {
                // Poisoned member awaiting rebuild: the outer handle is
                // normally Faulted before this can run, but a racing
                // activation must not silently eat messages — fault the
                // unit so the batch lands in redelivery.
                std::panic::panic_any(format!(
                    "fused member {} has no logic installed",
                    member.instance
                ));
            };
            let mut feed = std::mem::take(&mut self.batch);
            let outs_buf = std::mem::take(&mut self.stage_outs);
            let spare = std::mem::take(&mut self.spare);
            let use_batch = feed.len() > 1 && logic.supports_batch();
            let session = ctx.session();
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                // Error semantics mirror the member's own handle exactly:
                // a per-message `Err` discards that invocation's emissions
                // and counts one error (the default `process_batch` charges
                // its failed messages the same way); a batch that returns
                // `Err` discards the whole batch's emissions and charges
                // one error per message not already charged (what
                // `process_batched` does for a discrete streamlet). One
                // context serves the whole stage; rollback marks give each
                // message its own discard scope.
                let mut errors = 0u64;
                let mut mctx =
                    StreamletCtx::with_buffers(&member.instance, session, outs_buf, spare);
                if use_batch {
                    let n = feed.len() as u64;
                    // `process_batch` takes the feed's buffer with it.
                    if logic
                        .process_batch(std::mem::take(&mut feed), &mut mctx)
                        .is_err()
                    {
                        errors += n - mctx.failed_messages();
                        mctx.truncate_outputs(0);
                    }
                    errors += mctx.charged_errors();
                } else {
                    for msg in feed.drain(..) {
                        let mark = mctx.outputs_len();
                        if logic.process(msg, &mut mctx).is_err() {
                            errors += 1;
                            mctx.truncate_outputs(mark);
                        }
                    }
                }
                (errors, mctx.into_parts(), feed)
            }));
            let (errors, (mut outs, spare), feed) = match outcome {
                Ok(pair) => pair,
                Err(payload) => {
                    // Member-attributed fault: drop the poisoned logic,
                    // record which stage it was, and re-throw so the
                    // handle's panic boundary does its normal redelivery +
                    // Faulted bookkeeping for the whole unit.
                    member.logic = None;
                    *self.shared.faulted.lock() = Some(i);
                    let text = crate::streamlet::panic_message(payload.as_ref());
                    std::panic::resume_unwind(Box::new(format!(
                        "fused member {}: {text}",
                        member.instance
                    )));
                }
            };
            member.errors += errors;
            ctx.charge_errors(errors);
            self.spare = spare;
            for (mut port, msg) in outs.drain(..) {
                if member.out_port.as_deref() == Some(port.as_str()) {
                    if i == last {
                        ctx.emit_owned(port, msg);
                    } else {
                        self.next.push(msg);
                        port.clear();
                        self.spare.push(port);
                    }
                } else {
                    use std::fmt::Write as _;
                    let mut name = self.spare.pop().unwrap_or_default();
                    name.clear();
                    let _ = write!(name, "{}.{port}", member.instance);
                    ctx.emit_owned(name, msg);
                    port.clear();
                    self.spare.push(port);
                }
            }
            self.stage_outs = outs;
            // The drained feed's buffer becomes the next stage's: no stage
            // transition allocates.
            self.batch = std::mem::replace(&mut self.next, feed);
        }
        self.batch.clear();
        Ok(())
    }
}

impl StreamletLogic for FusedLogic {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        self.batch.clear();
        self.batch.push(msg);
        self.thread(ctx)
    }

    /// A batch shares one panic boundary, and a panic redelivers the whole
    /// batch. That is harmless while every member is a pure transform, but
    /// a sink tail has already delivered the messages before the faulting
    /// one, and replaying them would deliver them twice. A unit ending in a
    /// sink therefore runs message by message, like the discrete sink did.
    fn supports_batch(&self) -> bool {
        !self.sink_tail
    }

    fn process_batch(
        &mut self,
        msgs: Vec<MimeMessage>,
        ctx: &mut StreamletCtx,
    ) -> Result<(), CoreError> {
        self.batch.clear();
        self.batch.extend(msgs);
        self.thread(ctx)
    }

    fn on_activate(&mut self) {
        for m in self.shared.members.lock().iter_mut() {
            if let Some(logic) = m.logic.as_mut() {
                logic.on_activate();
            }
        }
    }

    fn on_pause(&mut self) {
        for m in self.shared.members.lock().iter_mut() {
            if let Some(logic) = m.logic.as_mut() {
                logic.on_pause();
            }
        }
    }

    fn on_end(&mut self) {
        for m in self.shared.members.lock().iter_mut() {
            if let Some(logic) = m.logic.as_mut() {
                logic.on_end();
            }
        }
    }

    fn reset(&mut self) {
        for m in self.shared.members.lock().iter_mut() {
            if let Some(logic) = m.logic.as_mut() {
                logic.reset();
            }
        }
    }

    /// Member-addressed control: `"<member>.<key>"` routes to that member's
    /// own control handler; a bare key is offered to every member in order
    /// until one accepts it.
    fn control(&mut self, key: &str, value: &str) -> Result<(), CoreError> {
        let mut members = self.shared.members.lock();
        if let Some((member, mkey)) = key.split_once('.') {
            for m in members.iter_mut() {
                if *m.instance == *member {
                    if let Some(logic) = m.logic.as_mut() {
                        return logic.control(mkey, value);
                    }
                }
            }
        } else {
            for m in members.iter_mut() {
                if let Some(logic) = m.logic.as_mut() {
                    if logic.control(key, value).is_ok() {
                        return Ok(());
                    }
                }
            }
        }
        Err(CoreError::NotFound {
            kind: "control parameter",
            name: format!("{key}={value}"),
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    struct Append(&'static str);
    impl StreamletLogic for Append {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            let mut body = msg.body.to_vec();
            body.extend_from_slice(self.0.as_bytes());
            let mut out = msg.clone();
            out.set_body(body);
            ctx.emit("po", out);
            Ok(())
        }
        fn supports_batch(&self) -> bool {
            true
        }
    }

    struct FailOn(&'static str);
    impl StreamletLogic for FailOn {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            if msg.body.starts_with(self.0.as_bytes()) {
                return Err(CoreError::Process {
                    streamlet: "failer".into(),
                    message: "refused".into(),
                });
            }
            ctx.emit("po", msg);
            Ok(())
        }
    }

    struct PanicOn(&'static str);
    impl StreamletLogic for PanicOn {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            assert!(!msg.body.starts_with(self.0.as_bytes()), "poison");
            ctx.emit("po", msg);
            Ok(())
        }
    }

    fn member(name: &str, logic: Box<dyn StreamletLogic>) -> FusedMember {
        FusedMember {
            instance: name.into(),
            def: "d".into(),
            key: "builtin/d".into(),
            in_port: "pi".into(),
            out_port: Some("po".into()),
            logic: Some(logic),
            errors: 0,
        }
    }

    fn texts(outs: &[(String, MimeMessage)]) -> Vec<String> {
        outs.iter()
            .map(|(_, m)| String::from_utf8_lossy(&m.body).into_owned())
            .collect()
    }

    #[test]
    fn threads_messages_through_all_members_in_order() {
        let shared = FusedShared::new(
            "fused:a..c",
            vec![
                member("a", Box::new(Append(".a"))),
                member("b", Box::new(Append(".b"))),
                member("c", Box::new(Append(".c"))),
            ],
        );
        let mut fused = FusedLogic::new(shared);
        let mut ctx = StreamletCtx::new("fused:a..c", None);
        fused
            .process_batch(
                vec![MimeMessage::text("m1"), MimeMessage::text("m2")],
                &mut ctx,
            )
            .unwrap();
        let outs = ctx.into_outputs();
        assert_eq!(texts(&outs), vec!["m1.a.b.c", "m2.a.b.c"]);
        assert!(outs.iter().all(|(p, _)| p == "po"), "last stage's port");
    }

    /// [`FailOn`] taking the batched path through the default
    /// `process_batch`.
    struct BatchFailOn(&'static str);
    impl StreamletLogic for BatchFailOn {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            FailOn(self.0).process(msg, ctx)
        }

        fn supports_batch(&self) -> bool {
            true
        }
    }

    #[test]
    fn batched_member_error_drops_only_that_message() {
        let shared = FusedShared::new(
            "u",
            vec![
                member("a", Box::new(Append(".a"))),
                member("b", Box::new(BatchFailOn("bad"))),
                member("c", Box::new(Append(".c"))),
            ],
        );
        let mut fused = FusedLogic::new(shared.clone());
        let mut ctx = StreamletCtx::new("u", None);
        let batch = ["ok1", "bad", "ok2"].map(MimeMessage::text).to_vec();
        fused.process_batch(batch, &mut ctx).unwrap();
        assert_eq!(ctx.charged_errors(), 1);
        assert_eq!(texts(&ctx.into_outputs()), vec!["ok1.a.c", "ok2.a.c"]);
        assert_eq!(
            shared.member_errors(),
            vec![("a".into(), 0), ("b".into(), 1), ("c".into(), 0)]
        );
    }

    /// [`BatchFailOn`] through the default `process_batch`, which charges
    /// the `bad` message alone, after which the whole batch fails.
    struct FailWholeBatch;
    impl StreamletLogic for FailWholeBatch {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            FailOn("bad").process(msg, ctx)
        }

        fn supports_batch(&self) -> bool {
            true
        }

        fn process_batch(
            &mut self,
            msgs: Vec<MimeMessage>,
            ctx: &mut StreamletCtx,
        ) -> Result<(), CoreError> {
            BatchFailOn("bad").process_batch(msgs, ctx)?;
            Err(CoreError::Process {
                streamlet: "failer".into(),
                message: "whole batch".into(),
            })
        }
    }

    #[test]
    fn a_failed_member_batch_charges_each_message_not_already_charged() {
        let shared = FusedShared::new(
            "u",
            vec![
                member("a", Box::new(Append(".a"))),
                member("b", Box::new(FailWholeBatch)),
                member("c", Box::new(Append(".c"))),
            ],
        );
        let mut fused = FusedLogic::new(shared.clone());
        let mut ctx = StreamletCtx::new("u", None);
        let batch = ["ok1", "bad", "ok2"].map(MimeMessage::text).to_vec();
        fused.process_batch(batch, &mut ctx).unwrap();
        assert_eq!(ctx.charged_errors(), 3);
        assert!(ctx.into_outputs().is_empty());
        assert_eq!(
            shared.member_errors(),
            vec![("a".into(), 0), ("b".into(), 3), ("c".into(), 0)]
        );
    }

    #[test]
    fn member_error_drops_only_that_message() {
        let shared = FusedShared::new(
            "u",
            vec![
                member("a", Box::new(Append(".a"))),
                member("b", Box::new(FailOn("bad"))),
                member("c", Box::new(Append(".c"))),
            ],
        );
        let mut fused = FusedLogic::new(shared.clone());
        let mut ctx = StreamletCtx::new("u", None);
        fused
            .process_batch(
                vec![
                    MimeMessage::text("ok1"),
                    MimeMessage::text("bad"),
                    MimeMessage::text("ok2"),
                ],
                &mut ctx,
            )
            .unwrap();
        assert_eq!(texts(&ctx.into_outputs()), vec!["ok1.a.c", "ok2.a.c"]);
        assert_eq!(
            shared.member_errors(),
            vec![("a".into(), 0), ("b".into(), 1), ("c".into(), 0)]
        );
    }

    #[test]
    fn member_panic_attributes_and_poisons_only_that_member() {
        let shared = FusedShared::new(
            "u",
            vec![
                member("a", Box::new(Append(".a"))),
                member("boom", Box::new(PanicOn("poison"))),
                member("c", Box::new(Append(".c"))),
            ],
        );
        let mut fused = FusedLogic::new(shared.clone());
        let mut ctx = StreamletCtx::new("u", None);
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = fused.process(MimeMessage::text("poison"), &mut ctx);
        }))
        .unwrap_err();
        let text = crate::streamlet::panic_message(payload.as_ref());
        assert!(text.contains("fused member boom"), "got: {text}");
        assert_eq!(shared.faulted_member(), Some((1, "boom".into())));
        // Only the poisoned member lost its logic.
        let members = shared.take_members();
        assert!(members[0].logic.is_some());
        assert!(members[1].logic.is_none());
        assert!(members[2].logic.is_some());
    }

    #[test]
    fn rebuild_installs_fresh_member_logic() {
        let shared = FusedShared::new(
            "u",
            vec![
                member("a", Box::new(Append(".a"))),
                member("boom", Box::new(PanicOn("poison"))),
            ],
        );
        let mut fused = FusedLogic::new(shared.clone());
        let mut ctx = StreamletCtx::new("u", None);
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = fused.process(MimeMessage::text("poison"), &mut ctx);
        }));
        let (idx, key) = shared.faulted_member_key().unwrap();
        assert_eq!((idx, key.as_str()), (1, "builtin/d"));
        shared.install_member_logic(idx, Box::new(Append(".b2")));
        assert!(shared.faulted_member().is_none());
        let mut fresh = FusedLogic::new(shared);
        let mut ctx = StreamletCtx::new("u", None);
        fresh.process(MimeMessage::text("x"), &mut ctx).unwrap();
        assert_eq!(texts(&ctx.into_outputs()), vec!["x.a.b2"]);
    }

    #[test]
    fn side_emissions_surface_with_member_prefix() {
        struct Teer;
        impl StreamletLogic for Teer {
            fn process(
                &mut self,
                msg: MimeMessage,
                ctx: &mut StreamletCtx,
            ) -> Result<(), CoreError> {
                ctx.emit("side", msg.clone());
                ctx.emit("po", msg);
                Ok(())
            }
        }
        let shared = FusedShared::new(
            "u",
            vec![
                member("t", Box::new(Teer)),
                member("z", Box::new(Append(".z"))),
            ],
        );
        let mut fused = FusedLogic::new(shared);
        let mut ctx = StreamletCtx::new("u", None);
        fused.process(MimeMessage::text("m"), &mut ctx).unwrap();
        let outs = ctx.into_outputs();
        let ports: Vec<&str> = outs.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(ports, vec!["t.side", "po"]);
    }

    /// A pipeline sink: records every body and declares no output port.
    /// A body starting with `stray` is also emitted on `po` anyway.
    struct Sink(Arc<Mutex<Vec<String>>>);
    impl StreamletLogic for Sink {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            self.0
                .lock()
                .push(String::from_utf8_lossy(&msg.body).into_owned());
            if msg.body.starts_with(b"stray") {
                ctx.emit("po", msg);
            }
            Ok(())
        }
    }

    fn sink_unit(seen: &Arc<Mutex<Vec<String>>>) -> FusedLogic {
        let sink = FusedMember {
            out_port: None,
            ..member("out", Box::new(Sink(seen.clone())))
        };
        FusedLogic::new(FusedShared::new(
            "fused:a..out",
            vec![
                member("a", Box::new(Append(".a"))),
                member("b", Box::new(Append(".b"))),
                sink,
            ],
        ))
    }

    #[test]
    fn sink_tail_consumes_and_emits_nothing() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut fused = sink_unit(&seen);
        let mut ctx = StreamletCtx::new("fused:a..out", None);
        fused
            .process_batch(
                vec![MimeMessage::text("m1"), MimeMessage::text("m2")],
                &mut ctx,
            )
            .unwrap();
        assert!(ctx.into_outputs().is_empty(), "a sink tail emits nothing");
        assert_eq!(*seen.lock(), vec!["m1.a.b", "m2.a.b"]);
    }

    #[test]
    fn only_a_unit_without_a_sink_tail_batches() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        assert!(!sink_unit(&seen).supports_batch());
        let plain = FusedShared::new("u", vec![member("a", Box::new(Append(".a")))]);
        assert!(FusedLogic::new(plain).supports_batch());
    }

    #[test]
    fn member_errors_are_charged_to_the_unit() {
        let shared = FusedShared::new(
            "u",
            vec![
                member("a", Box::new(FailOn("bad"))),
                member("b", Box::new(FailOn("ok"))),
            ],
        );
        let mut fused = FusedLogic::new(shared);
        let mut ctx = StreamletCtx::new("u", None);
        fused
            .process_batch(
                vec![MimeMessage::text("bad"), MimeMessage::text("ok")],
                &mut ctx,
            )
            .unwrap();
        assert_eq!(ctx.charged_errors(), 2);
    }

    #[test]
    fn stray_sink_emission_surfaces_unrouted() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut fused = sink_unit(&seen);
        let mut ctx = StreamletCtx::new("fused:a..out", None);
        fused.process(MimeMessage::text("stray"), &mut ctx).unwrap();
        let outs = ctx.into_outputs();
        let ports: Vec<&str> = outs.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(ports, vec!["out.po"]);
    }

    #[test]
    fn member_addressed_control_routes() {
        struct Knob {
            #[allow(dead_code)]
            v: String,
        }
        impl StreamletLogic for Knob {
            fn process(
                &mut self,
                msg: MimeMessage,
                ctx: &mut StreamletCtx,
            ) -> Result<(), CoreError> {
                ctx.emit("po", msg);
                Ok(())
            }
            fn control(&mut self, key: &str, value: &str) -> Result<(), CoreError> {
                if key == "v" {
                    self.v = value.to_string();
                    Ok(())
                } else {
                    Err(CoreError::NotFound {
                        kind: "control parameter",
                        name: key.to_string(),
                    })
                }
            }
        }
        let shared = FusedShared::new(
            "u",
            vec![
                member("k1", Box::new(Knob { v: String::new() })),
                member("k2", Box::new(Knob { v: String::new() })),
            ],
        );
        let mut fused = FusedLogic::new(shared);
        fused.control("k2.v", "x").unwrap();
        fused.control("v", "y").unwrap(); // first taker (k1)
        assert!(fused.control("k1.nope", "x").is_err());
        assert!(fused.control("ghost.v", "x").is_err());
    }
}
