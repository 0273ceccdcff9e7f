//! # hetsep-tvl
//!
//! A three-valued-logic engine in the style of TVLA (Lev-Ami & Sagiv) and the
//! parametric shape-analysis framework of Sagiv, Reps & Wilhelm, as used by
//! Yahav & Ramalingam, *"Verifying Safety Properties using Separation and
//! Heterogeneous Abstractions"* (PLDI 2004).
//!
//! The crate provides:
//!
//! * [`Kleene`] — three-valued truth values with Kleene semantics,
//! * [`PredTable`] / [`PredId`] — a registry of nullary/unary/binary predicates,
//! * [`Structure`] — logical structures whose individuals model heap objects,
//! * [`Formula`] — first-order formulas with transitive closure,
//! * [`canon`] — canonical abstraction (individual merging / "blur"),
//! * [`mod@focus`] — materialization of definite values out of summary nodes,
//! * [`mod@coerce`] — constraint-driven sharpening and infeasibility pruning,
//! * [`merge`] — structure-merging policies, including the paper's
//!   *heterogeneous* merge keyed on the relevant substructure,
//! * [`action`] — predicate-update transformers (the operational semantics of
//!   a first-order transition system),
//! * [`display`] — text/DOT rendering of structures (paper Figures 2, 5, 7),
//! * [`telemetry`] — the observability layer: per-phase timings and counters
//!   ([`RunMetrics`]) and the typed [`Event`] lines of the NDJSON trace.
//!
//! # Example
//!
//! ```
//! use hetsep_tvl::{PredTable, Structure, Kleene, Formula, Var};
//!
//! let mut table = PredTable::new();
//! let x = table.add_unary("x", Default::default());
//! let mut s = Structure::new(&table);
//! let n = s.add_node(&table);
//! s.set_unary(&table, x, n, Kleene::True);
//! let v = Var(0);
//! let f = Formula::exists(v, Formula::unary(x, v));
//! assert_eq!(hetsep_tvl::eval_closed(&s, &table, &f), Kleene::True);
//! ```

pub mod action;
pub mod bits;
pub mod canon;
pub mod coerce;
pub mod display;
pub mod embed;
pub mod eval;
pub mod focus;
pub mod formula;
pub mod intern;
pub mod kleene;
pub mod merge;
pub mod pred;
pub mod structure;
pub mod telemetry;

pub use action::{
    apply, apply_planned, Action, ApplyOutcome, Check, CheckViolation, NewNodeSpec, PredUpdate,
};
pub use canon::{blur, canonical_key, CanonicalKey};
pub use coerce::{coerce, coerce_with, CoerceOutcome, CoercePlan};
pub use eval::{eval, eval_closed, eval_memo, Assignment, TcMemo};
pub use focus::{focus, focus_all, FocusSpec, DEFAULT_FOCUS_LIMIT};
pub use formula::{Formula, Var};
pub use intern::{PoolId, StructureId, StructureInterner, WordPool};
pub use kleene::Kleene;
pub use merge::{merge_all, MergePolicy};
pub use pred::{Arity, PredFlags, PredId, PredTable};
pub use structure::{NodeId, Structure};
pub use telemetry::{Counter, Counters, Event, Phase, PhaseStats, PhaseTimings, RunMetrics};
