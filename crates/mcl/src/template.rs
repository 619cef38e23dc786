//! Stream templates — one compiled stream stamped out per session.
//!
//! The paper's deployment story is per-user: "the system automatically
//! generates a unique session ID for each instance of a stream" (§4.4.3),
//! and §3.3.4 pooling exists so instantiating a chain for every mobile
//! user stays cheap. A [`StreamTemplate`] captures the expensive half of
//! that pipeline — compilation and the Chapter-5 semantic analyses — once.
//! A session is the template under a per-session identity
//! ([`StreamTemplate::session_name`]); `instantiate` spells that out as a
//! table rewrite (clone the configuration table, rename it), while the
//! runtime compiles the template once more and stamps sessions without
//! cloning the table. Everything downstream keys off that name: the
//! runtime stamps `Content-Session` from it, the Event Manager matches
//! `evtSource` against it, and supervision labels faults with it, so one
//! name per session gives every session its own routing row, event
//! identity, and fault domain.

use crate::analysis;
use crate::config::{ConfigTable, Program, StreamletSpec};
use crate::error::{MclError, Span};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A validated, reusable stream blueprint.
///
/// Construction runs the Chapter-5 consistency gate exactly once;
/// [`StreamTemplate::instantiate`] afterwards is O(table size) with no
/// re-compilation and no re-analysis, which is what makes stamping out
/// thousands of sessions from one script tractable. The streamlet
/// definitions are shared, not copied: every session stamped from the
/// template resolves against the same `Arc`.
#[derive(Debug, Clone)]
pub struct StreamTemplate {
    base: ConfigTable,
    defs: Arc<BTreeMap<String, StreamletSpec>>,
}

impl StreamTemplate {
    /// Captures `stream` of a compiled program as a template, running the
    /// Chapter-5 semantic analyses as a one-time admission gate.
    pub fn from_program(program: &Program, stream: &str) -> Result<Self, MclError> {
        let table = program
            .streams
            .get(stream)
            .ok_or_else(|| MclError::Undefined {
                span: Span::default(),
                kind: "stream",
                name: stream.to_string(),
            })?;
        if let Some(report) = analysis::analyze(program, stream) {
            if !report.is_consistent() {
                return Err(MclError::Semantic {
                    message: format!(
                        "stream `{stream}` composition inconsistent:\n{}",
                        report.summary()
                    ),
                });
            }
        }
        Ok(StreamTemplate {
            base: table.clone(),
            defs: Arc::new(program.streamlet_defs.clone()),
        })
    }

    /// Captures the program's `main` stream as a template.
    pub fn from_main(program: &Program) -> Result<Self, MclError> {
        let name = program.main_stream.clone().ok_or(MclError::Undefined {
            span: Span::default(),
            kind: "stream",
            name: "main".into(),
        })?;
        Self::from_program(program, &name)
    }

    /// The template's base stream name (the MCL stream identifier).
    pub fn base_name(&self) -> &str {
        &self.base.name
    }

    /// The streamlet definitions instances resolve against, shared by
    /// every session stamped from this template.
    pub fn defs(&self) -> &Arc<BTreeMap<String, StreamletSpec>> {
        &self.defs
    }

    /// The unmodified base table (deploying this is equivalent to the
    /// pre-template single-stream path).
    pub fn base_table(&self) -> &ConfigTable {
        &self.base
    }

    /// The per-session stream name for `seq` (`<stream>#<seq>`). `#` never
    /// appears in MCL identifiers, so instantiated names cannot collide
    /// with a hand-deployed stream.
    pub fn session_name(&self, seq: u64) -> String {
        format!("{}#{}", self.base.name, seq)
    }

    /// Stamps out one per-session configuration table: a clone of the base
    /// table renamed to `session_name`. Only the table *name* is rewritten
    /// — instance rows, channels, connections, and `when` rules are scoped
    /// to the table they live in, so they need no renaming; the session
    /// identity flows from the name into `Content-Session` stamping and
    /// `evtSource` matching at deploy time.
    pub fn instantiate(&self, session_name: &str) -> ConfigTable {
        let mut table = self.base.clone();
        table.name = session_name.to_string();
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;

    const SRC: &str = r#"
        streamlet echo { port { in pi : */*; out po : */*; } }
        main stream app {
            streamlet e = new-streamlet (echo);
            when (LOW_BANDWIDTH) { }
        }
    "#;

    #[test]
    fn instantiate_rewrites_only_the_name() {
        let program = compile(SRC).unwrap();
        let t = StreamTemplate::from_main(&program).unwrap();
        assert_eq!(t.base_name(), "app");
        let inst = t.instantiate(&t.session_name(7));
        assert_eq!(inst.name, "app#7");
        assert_eq!(inst.streamlets, t.base_table().streamlets);
        assert_eq!(inst.connections, t.base_table().connections);
        assert_eq!(inst.when_rules, t.base_table().when_rules);
    }

    #[test]
    fn session_names_are_disjoint_from_mcl_identifiers() {
        let program = compile(SRC).unwrap();
        let t = StreamTemplate::from_main(&program).unwrap();
        // `#` cannot be lexed as part of an identifier, so no stream
        // declared in a script can collide with an instantiated name.
        assert!(t.session_name(0).contains('#'));
        assert!(compile("main stream app#0 { }").is_err());
    }

    #[test]
    fn unknown_stream_is_rejected() {
        let program = compile(SRC).unwrap();
        assert!(StreamTemplate::from_program(&program, "ghost").is_err());
    }

    #[test]
    fn inconsistent_composition_is_rejected_once_at_template_time() {
        let cyclic = r#"
            streamlet echo { port { in pi : */*; out po : */*; } }
            main stream app {
                streamlet a = new-streamlet (echo);
                streamlet b = new-streamlet (echo);
                connect (a.po, b.pi);
                connect (b.po, a.pi);
            }
        "#;
        let program = compile(cyclic).unwrap();
        let err = StreamTemplate::from_main(&program).unwrap_err();
        assert!(err.to_string().contains("feedback loop"), "{err}");
    }

    #[test]
    fn missing_main_is_rejected() {
        let program = compile("stream s { }").unwrap();
        assert!(StreamTemplate::from_main(&program).is_err());
    }
}
