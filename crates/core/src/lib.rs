//! # hetsep-core
//!
//! The separation-based verification engine of the paper: translation of a
//! (client program, Easl specification, separation strategy) triple into a
//! first-order transition system, and a forward abstract interpretation over
//! canonically-abstracted 3-valued structures with *heterogeneous
//! abstraction* — relevant objects abstracted precisely, irrelevant objects
//! collapsed.
//!
//! One front door, one engine:
//!
//! * **The [`Verifier`] builder** borrows a parsed program and spec for a
//!   single run (the [`verify`] free function is a thin wrapper over it).
//! * **Owned sessions** are built on it: a [`Workspace`] owns artifacts
//!   registered from source text — content-fingerprinted, parsed and stored
//!   once per distinct content — plus the mounted cross-request transfer
//!   store of [`jobcache`], and each [`Workspace::verify`] is a short-lived
//!   [`Verifier`] with that store attached, so repeat calls replay
//!   memoized transfers instead of recomputing them. [`Session`] layers
//!   the `hetsep serve` wire protocol's name bindings on top. Every surface
//!   runs a [`Verifier`], so their verdicts are byte-identical by
//!   construction.
//!
//! Verification runs under a [`Mode`] (its strategy-free family is
//! [`ModeKind`]):
//!
//! * [`Mode::Vanilla`] — TVLA-style verification without separation,
//! * [`Mode::Separation`] — one strategy stage; either *simultaneous* (all
//!   subproblems explored in one run via the non-deterministic `choose some`)
//!   or per-allocation-site subproblem scheduling (the paper's
//!   non-simultaneous mode, which reduces the peak memory footprint),
//! * [`Mode::Incremental`] — a sequence of stages, each restricted to the
//!   allocation sites that failed the previous one.
//!
//! # Example
//!
//! ```
//! use hetsep_core::{Verifier, Mode};
//!
//! let program = hetsep_ir::parse_program(
//!     "program P uses IOStreams; void main() {\n\
//!        InputStream f = new InputStream();\n\
//!        f.read();\n\
//!        f.close();\n\
//!      }",
//! )
//! .unwrap();
//! let spec = hetsep_easl::builtin::iostreams();
//! let report = Verifier::new(&program, &spec).mode(Mode::Vanilla).run().unwrap();
//! assert!(report.errors.is_empty());
//! ```

pub mod concrete;
pub mod engine;
pub mod jobcache;
pub mod liveness;
pub mod modes;
pub mod parallel;
pub mod relevance;
pub mod report;
pub mod semantics;
pub mod session;
pub mod translate;
pub mod vocab;
pub mod workspace;

pub use engine::{AnalysisOutcome, EngineConfig, ParallelConfig, RunStats};
pub use jobcache::{CacheFile, SharedTransferSession, TransferStore};
#[doc(hidden)]
pub use jobcache::{SharedSummarySession, SummaryStore};
pub use parallel::{for_each_ordered, map_ordered};
pub use hetsep_tvl::telemetry::{
    Counter, Counters, Event, Phase, PhaseStats, PhaseTimings, RunMetrics,
};
pub use modes::{
    verify, write_trace, Mode, ModeKind, PreanalysisSummary, SubproblemStats, VerificationReport,
    Verifier,
};
pub use report::{ErrorReport, VerifyError};
pub use session::Session;
pub use translate::{translate, AnalysisInstance, TranslateOptions};
pub use vocab::Vocabulary;
pub use workspace::{
    ProgramId, Registered, SpecId, StrategyId, VerifyOutput, VerifyRequest, Workspace,
};
