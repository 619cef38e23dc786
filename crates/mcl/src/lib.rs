//! MCL — the MobiGATE Coordination Language.
//!
//! MCL (thesis chapters 4 and 5) is a declarative coordination language that
//! describes applications as networks of **streamlets** connected by
//! **channels** inside **streams**. This crate implements the complete
//! language pipeline:
//!
//! ```text
//!  source ──lexer──▶ tokens ──parser──▶ AST ──compiler──▶ ConfigTable
//!                                               │
//!                                               └─▶ semantic analyses (Ch.5)
//! ```
//!
//! * [`lexer`] / [`parser`] / [`ast`] — the front end (Figures 4-2..4-5);
//! * [`compile`](mod@compile) — name resolution, MIME port-compatibility checking
//!   (§4.4.1), recursive-composition expansion (§4.4.2), and generation of
//!   the configuration tables consumed by the Coordination Manager (§3.3.1);
//! * [`config`] — the configuration-table data model;
//! * [`analysis`] — the executable semantic model: feedback-loop detection,
//!   open-circuit detection, mutual exclusion, dependency and preorder
//!   verification (§5.2), expressed over the [`analysis::StreamGraph`]
//!   relation exactly as the thesis's Z schemas define them;
//! * [`events`] — the event vocabulary shared with the runtime (Table 6-1).
//!
//! # Quick example
//!
//! ```
//! use mobigate_mcl::compile::compile;
//!
//! let source = r#"
//! streamlet upper {
//!     port { in pi : text/plain; out po : text/plain; }
//!     attribute { type = STATELESS; library = "builtin/upper"; }
//! }
//! main stream demo {
//!     streamlet s1 = new-streamlet (upper);
//!     streamlet s2 = new-streamlet (upper);
//!     connect (s1.po, s2.pi);
//! }
//! "#;
//! let program = compile(source).expect("compiles");
//! let main = program.main().expect("has a main stream");
//! assert_eq!(main.streamlets.len(), 2);
//! assert_eq!(main.connections.len(), 1);
//! ```

pub mod analysis;
pub mod ast;
pub mod compile;
pub mod config;
pub mod error;
pub mod events;
pub mod fusion;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod template;

pub use analysis::{AnalysisReport, StreamGraph};
pub use compile::{compile, compile_with_registry};
pub use config::{ChannelSpec, ConfigTable, Program, StreamletSpec};
pub use error::{MclError, Span};
pub use events::{EventCategory, EventKind};
pub use fusion::{FusedRun, FusionPlan};
pub use model::{verify_program, verify_table, ModelViolation};
pub use template::StreamTemplate;
