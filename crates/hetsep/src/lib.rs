//! # hetsep
//!
//! Verifying safety properties using **separation** and **heterogeneous
//! abstractions** — a Rust reproduction of Yahav & Ramalingam (PLDI 2004).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`tvl`] — the three-valued-logic engine (structures, canonical
//!   abstraction, focus/coerce),
//! * [`ir`] — the mini-Java client-program language,
//! * [`easl`] — the Easl component-specification language and built-in
//!   JDBC / IO-stream / collections specifications,
//! * [`strategy`] — the separation-strategy language,
//! * [`core`] — the verification engine ([`Verifier`], [`Mode`]) and the
//!   owned-session API ([`Workspace`], [`Session`]),
//! * [`analysis`] — the static pre-verification layer (dataflow framework,
//!   program/strategy/spec lints, unified diagnostics),
//! * [`baseline`] — the ESP-style two-phase comparator,
//! * [`suite`] — the Table 3 benchmark programs and the corpus generator,
//! * [`sched`] — the corpus-scale work-queue job scheduler with persistent
//!   cross-job caches,
//! * [`harness`] — drivers that regenerate the paper's table rows,
//! * [`corpus`] — drivers bridging generated corpora to the scheduler,
//! * [`options`] — the CLI flag table shared by every subcommand,
//! * [`serve`] — the `hetsep serve` verification daemon loop.
//!
//! # Quickstart
//!
//! The front door is the [`Verifier`] builder. Its report says where the
//! engine spent its effort: merged [`RunMetrics`] plus one
//! [`SubproblemStats`] row per subproblem, which [`write_trace`] renders as
//! NDJSON:
//!
//! ```
//! use hetsep::{write_trace, Counter, Mode, Verifier};
//!
//! let program = hetsep::ir::parse_program(
//!     "program Quick uses IOStreams; void main() {\n\
//!        InputStream f = new InputStream();\n\
//!        f.read();\n\
//!        f.close();\n\
//!      }",
//! )?;
//! let spec = hetsep::easl::builtin::iostreams();
//! let report = Verifier::new(&program, &spec).mode(Mode::Vanilla).run()?;
//! assert!(report.verified());
//! assert!(report.total_visits > 0);
//! assert!(report.metrics.counters.get(Counter::InternMisses) > 0);
//! let mut trace = Vec::new();
//! write_trace(&report.subproblems, &mut trace)?;
//! let trace = String::from_utf8(trace)?;
//! assert!(trace.starts_with("{\"event\":\"subproblem_start\",\"subproblem\":0,"));
//! assert!(trace.ends_with("\"complete\":true}\n"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The builder is the one front door: the [`verify`] free function is a
//! thin wrapper over it, and each [`Workspace::verify`] (the daemon's path,
//! through [`Session`]) runs a short-lived [`Verifier`] with the
//! workspace's cross-run stores attached.

pub use hetsep_analysis as analysis;
pub use hetsep_baseline as baseline;
pub use hetsep_core as core;
pub use hetsep_easl as easl;
pub use hetsep_ir as ir;
pub use hetsep_sched as sched;
pub use hetsep_strategy as strategy;
pub use hetsep_suite as suite;
pub use hetsep_tvl as tvl;

pub use hetsep_core::{
    verify, write_trace, Counter, Counters, EngineConfig, Event, Mode, ModeKind, Phase,
    PhaseStats, PhaseTimings, RunMetrics, Session, SubproblemStats, VerificationReport, Verifier,
    VerifyError, Workspace,
};

pub mod corpus;
pub mod harness;
pub mod options;
pub mod serve;
