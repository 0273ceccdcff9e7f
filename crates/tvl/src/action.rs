//! Actions: the operational semantics of a first-order transition system.
//!
//! A program statement is modelled as an [`Action`] that transforms incoming
//! structures into outgoing structures (paper §4.2, "Operational Semantics").
//! Applying an action performs, in order:
//!
//! 1. **focus** on the action's [`FocusSpec`]s (materialization),
//! 2. **coerce** (discard infeasible variants, sharpen),
//! 3. **assume** filtering (branch conditions),
//! 4. **checks** — the `requires` preconditions of the safety property; a
//!    check that is not definitely satisfied produces a [`CheckViolation`],
//! 5. **allocation** of a fresh individual (marked by the built-in `isnew`
//!    predicate) if the action allocates,
//! 6. simultaneous **core updates** — each updated predicate's new value is
//!    its update formula evaluated over the *pre*-state,
//! 7. sequential **derived updates** — instrumentation predicates recomputed
//!    over the evolving *post*-state (in dependency order),
//! 8. the **forget mask**, if any: one masked pass per forgotten predicate
//!    ([`ForgetMask`]),
//! 9. clearing of `isnew` and a final **coerce**.
//!
//! The focused variant that the updates start from is a coerce fixpoint,
//! and the updates report which predicates they changed (an allocation
//! changes all of them), so the final coerce runs only the rules that read a
//! changed predicate ([`coerce_dirty`]).
//!
//! Canonical abstraction (blur) is *not* performed here; the analysis engine
//! blurs when joining into a program location.

use std::sync::Arc;

use crate::bits;
use crate::coerce::{coerce_dirty, coerce_with, CoercePlan};
use crate::eval::{eval_closed, Assignment, Evaluator, Scratch};
use crate::focus::{focus_all, FocusSpec};
use crate::formula::{Formula, Var};
use crate::kleene::Kleene;
use crate::pred::{Arity, PredId, PredSet, PredTable};
use crate::structure::Structure;
use crate::telemetry::{Counter, Phase, RunMetrics};

/// An update `p(args) := rhs`, where `args` are the free variables of `rhs`
/// that range over the universe (one for unary, two for binary predicates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredUpdate {
    /// The predicate being updated.
    pub pred: PredId,
    /// Formal parameters: `[]` (nullary), `[v]` (unary) or `[v, w]` (binary).
    pub args: Vec<Var>,
    /// New value of the predicate, as a formula over the pre-state (core
    /// updates) or the evolving post-state (derived updates).
    pub rhs: Formula,
    /// When `true`, the update *refines*: an indefinite (`1/2`) evaluation
    /// keeps the previously stored value instead of overwriting it. Used for
    /// abstraction-directing predicates (e.g. `relevant`) whose re-evaluated
    /// formula loses definiteness on blurred structures — the stored value
    /// only directs individual merging, so retaining it is sound (it plays
    /// the role of the finite-differencing maintenance of Reps et al. in the
    /// paper's implementation).
    pub refine: bool,
    /// When `true`, the update is re-applied to a fixpoint (bounded by the
    /// universe size): each round evaluates `rhs` against the previous
    /// round's values. Used for closure-style predicates whose defining
    /// formula references the predicate itself one step away (e.g.
    /// `relevant(v) = chosen(v) ∨ ∃w. edge(v,w) ∧ relevant(w)`).
    pub iterate: bool,
}

impl PredUpdate {
    /// An update of a nullary predicate.
    pub fn nullary(pred: PredId, rhs: Formula) -> PredUpdate {
        PredUpdate { pred, args: Vec::new(), rhs, refine: false, iterate: false }
    }

    /// An update of a unary predicate with formal parameter `v`.
    pub fn unary(pred: PredId, v: Var, rhs: Formula) -> PredUpdate {
        PredUpdate { pred, args: vec![v], rhs, refine: false, iterate: false }
    }

    /// A refining update of a unary predicate (see [`PredUpdate::refine`]).
    pub fn unary_refine(pred: PredId, v: Var, rhs: Formula) -> PredUpdate {
        PredUpdate { pred, args: vec![v], rhs, refine: true, iterate: false }
    }

    /// A refining, iterated-to-fixpoint update of a unary predicate (see
    /// [`PredUpdate::refine`] and [`PredUpdate::iterate`]).
    pub fn unary_closure(pred: PredId, v: Var, rhs: Formula) -> PredUpdate {
        PredUpdate { pred, args: vec![v], rhs, refine: true, iterate: true }
    }

    /// An update of a binary predicate with formal parameters `v`, `w`.
    pub fn binary(pred: PredId, v: Var, w: Var, rhs: Formula) -> PredUpdate {
        PredUpdate { pred, args: vec![v, w], rhs, refine: false, iterate: false }
    }
}

/// Allocation request: create one fresh individual. While the updates run it
/// is identified by the built-in `isnew` predicate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NewNodeSpec {
    /// Whether the freshly created node starts as a non-summary individual
    /// (always true in this crate; present for future extensions).
    pub singleton: bool,
}

/// A `requires` precondition check carried by an action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// The condition required to hold (closed formula).
    pub cond: Formula,
    /// Optional guard: the check applies only when this formula may hold
    /// (used to restrict checking to *chosen* objects, paper §4.2).
    pub guard: Option<Formula>,
    /// Identifier used in error reports (e.g. "read after close").
    pub label: String,
}

/// A possibly-failed check, produced when `cond` is not definitely true on a
/// structure whose guard may hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckViolation {
    /// Index of the violated check within [`Action::checks`].
    pub check_index: usize,
    /// The check's label.
    pub label: String,
    /// Value the condition evaluated to (`False` = definite violation,
    /// `Unknown` = possible violation).
    pub value: Kleene,
}

/// Heterogeneous forgetting (paper §5, "adapting predicate values
/// retained"): every predicate of `preds` is blurred to `1/2` on the
/// individuals where `c` is not definitely true, and kept where it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForgetMask {
    /// The unary predicate whose definitely-true individuals keep their
    /// values.
    pub c: PredId,
    /// The forgotten unary predicates, in ascending id order.
    pub preds: Vec<PredId>,
}

impl ForgetMask {
    /// Forgets `preds` on `s` in one pass per predicate over its planes:
    /// `t ← p.t & c.t` and `h ← (p.h & c.t) | (valid & !c.t)`. Each new value
    /// is the Kleene value of `ite(c(u), p(u), 1/2)`, `c = 1/2` included.
    /// Every forgotten predicate whose planes changed is added to `changed`.
    ///
    /// # Panics
    ///
    /// Panics if `c` or a member of `preds` is not unary.
    pub fn apply(&self, s: &mut Structure, table: &PredTable, changed: &mut PredSet) {
        assert_eq!(table.arity(self.c), Arity::Unary);
        let keep = s.unary_planes(table.slot(self.c)).0.to_vec();
        let n = s.node_count();
        for &p in &self.preds {
            assert_eq!(table.arity(p), Arity::Unary);
            let (t, h) = s.unary_planes_mut(table.slot(p));
            let mut diff = 0;
            for (w, &ct) in keep.iter().enumerate() {
                let nt = t[w] & ct;
                let nh = (h[w] & ct) | (bits::word_mask(n, w) & !ct);
                diff |= (t[w] ^ nt) | (h[w] ^ nh);
                t[w] = nt;
                h[w] = nh;
            }
            if diff != 0 {
                changed.insert(p);
            }
        }
    }
}

/// A structure transformer modelling one program statement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Action {
    /// Human-readable name (statement text), used in traces and reports.
    pub name: String,
    /// Materialization requests executed before everything else.
    pub focus: Vec<FocusSpec>,
    /// Branch condition: structures on which it is definitely false are
    /// dropped; `None` keeps all structures.
    pub assume: Option<Formula>,
    /// `requires` checks evaluated on the (focused, assumed) pre-state.
    pub checks: Vec<Check>,
    /// Allocation of a fresh individual.
    pub new_node: Option<NewNodeSpec>,
    /// Simultaneous core updates evaluated over the pre-state.
    pub updates: Vec<PredUpdate>,
    /// Sequential derived updates (instrumentation predicates) evaluated over
    /// the evolving post-state. Shared: every mutating action of one
    /// vocabulary carries the same list.
    pub derived: Arc<[PredUpdate]>,
    /// Applied after the derived updates; shared like `derived`.
    pub forget: Option<Arc<ForgetMask>>,
}

impl Action {
    /// Creates an action with the given display name and no effect.
    pub fn named(name: impl Into<String>) -> Action {
        Action {
            name: name.into(),
            ..Action::default()
        }
    }

    /// Whether the action is a pure no-op (no focus, filter, check, or update).
    pub fn is_identity(&self) -> bool {
        self.focus.is_empty()
            && self.assume.is_none()
            && self.checks.is_empty()
            && self.new_node.is_none()
            && self.updates.is_empty()
            && self.derived.is_empty()
            && self.forget.is_none()
    }
}

/// The outcome of applying an action to one structure.
#[derive(Debug, Clone, Default)]
pub struct ApplyOutcome {
    /// Post-states (not blurred).
    pub results: Vec<Structure>,
    /// Checks that were possibly violated on some focused variant.
    pub violations: Vec<CheckViolation>,
}

/// Applies `action` to `s`, with a focus expansion budget of `focus_limit`
/// (use [`crate::focus::DEFAULT_FOCUS_LIMIT`] unless tuning).
pub fn apply(action: &Action, s: &Structure, table: &PredTable, focus_limit: usize) -> ApplyOutcome {
    apply_traced(action, s, table, focus_limit, &mut RunMetrics::disabled())
}

/// [`apply`] with observability: per-phase invocation counts (and durations,
/// when `metrics` was created timed) for focus, coerce, and the update
/// transform, plus [`Counter::FocusVariants`] / [`Counter::CoerceInfeasible`]
/// / [`Counter::PostStructures`]. Results are identical to [`apply`] —
/// metrics collection is observation-only.
pub fn apply_traced(
    action: &Action,
    s: &Structure,
    table: &PredTable,
    focus_limit: usize,
    metrics: &mut RunMetrics,
) -> ApplyOutcome {
    apply_planned(action, s, false, table, &CoercePlan::new(table), focus_limit, metrics)
}

/// [`apply_traced`] with a precompiled [`CoercePlan`]. The plan must have
/// been built from the same `table`; results are identical to
/// [`apply_traced`], which compiles a fresh plan per call. Hot loops (the
/// analysis engine) compile the plan once per run and call this directly.
///
/// `settled` asserts that `s` is a coerce fixpoint, as every settled
/// structure is (see [`crate::intern::StructureInterner::is_settled`]).
/// When focus then splits nothing, its one variant is `s` and the coerce
/// after focus is skipped: it would return its input. The skipped step
/// still counts as one [`Phase::Coerce`] application, so results, counters
/// and phase counts do not depend on `settled`.
pub fn apply_planned(
    action: &Action,
    s: &Structure,
    settled: bool,
    table: &PredTable,
    plan: &CoercePlan,
    focus_limit: usize,
    metrics: &mut RunMetrics,
) -> ApplyOutcome {
    let mut outcome = ApplyOutcome::default();
    let focused = metrics.time(Phase::Focus, || {
        focus_all(s, table, &action.focus, focus_limit)
    });
    metrics
        .counters
        .add(Counter::FocusVariants, focused.len() as u64);
    let fixpoint = settled && focused.len() == 1;
    for f in focused {
        let Some(f) = metrics.time(Phase::Coerce, || {
            if fixpoint {
                Some(f)
            } else {
                coerce_with(f, table, plan).feasible()
            }
        }) else {
            metrics.counters.add(Counter::CoerceInfeasible, 1);
            continue;
        };
        // Branch condition.
        if let Some(cond) = &action.assume {
            if eval_closed(&f, table, cond) == Kleene::False {
                continue;
            }
        }
        // Requires checks on the pre-state.
        for (ix, check) in action.checks.iter().enumerate() {
            let applicable = match &check.guard {
                Some(g) => eval_closed(&f, table, g).maybe_true(),
                None => true,
            };
            if !applicable {
                continue;
            }
            let v = eval_closed(&f, table, &check.cond);
            if v.maybe_false() {
                outcome.violations.push(CheckViolation {
                    check_index: ix,
                    label: check.label.clone(),
                    value: v,
                });
            }
        }
        // Allocation + updates, then coerce from the fixpoint `f` over the
        // predicates they changed.
        let (post, dirty) = metrics.time(Phase::Update, || transform(action, f, table));
        match metrics.time(Phase::Coerce, || coerce_dirty(post, table, plan, dirty).feasible()) {
            Some(post) => {
                metrics.counters.add(Counter::PostStructures, 1);
                outcome.results.push(post);
            }
            None => metrics.counters.add(Counter::CoerceInfeasible, 1),
        }
    }
    outcome
}

/// Applies allocation, updates and the forget mask (steps 5–9) without
/// focus/checks, in place on `post`. Also returns the predicates whose
/// values changed: those the stores and the forget mask report, or every
/// predicate after an allocation (the universe grew).
fn transform(action: &Action, mut post: Structure, table: &PredTable) -> (Structure, PredSet) {
    let mut changed = PredSet::empty();
    if action.new_node.is_some() {
        let fresh = post.add_node(table);
        post.set_unary(table, table.isnew(), fresh, Kleene::True);
        changed = PredSet::all();
    }
    // Core updates: every RHS is evaluated over the pre-state (plus the
    // fresh node) by one evaluator before any new value is stored.
    let mut buf = Scratch::default();
    let mut rows = Vec::new();
    let mut ends = Vec::with_capacity(action.updates.len());
    let mut ev = Evaluator::new(&post, table, &mut buf);
    for up in &action.updates {
        eval_update(&mut ev, &post, table, up, &mut rows);
        ends.push(rows.len());
    }
    let mut start = 0;
    for (up, end) in action.updates.iter().zip(ends) {
        if store_update(&mut post, table, up, &rows[start..end]) {
            changed.insert(up.pred);
        }
        start = end;
    }
    // Derived updates: evaluated sequentially, in place, over the evolving
    // post-state. An iterating update re-evaluates until its own values
    // stop changing (each round reads the previous round's values).
    for up in action.derived.iter() {
        let rounds = if up.iterate {
            post.node_count() + 1
        } else {
            1
        };
        for _ in 0..rounds {
            rows.clear();
            eval_update(&mut Evaluator::new(&post, table, &mut buf), &post, table, up, &mut rows);
            if !store_update(&mut post, table, up, &rows) {
                break;
            }
            changed.insert(up.pred);
        }
    }
    if let Some(mask) = &action.forget {
        mask.apply(&mut post, table, &mut changed);
    }
    // Clear the allocation marker: a whole-plane word fill rather than a
    // per-node store loop.
    if action.new_node.is_some() {
        post.fill_unary(table, table.isnew(), Kleene::False);
    }
    (post, changed)
}

/// Evaluates the new values of `up` over `src` (the structure `ev`
/// evaluates over) and appends them to `rows`, as `(t, h)` value-plane row
/// pairs: one pair of `stride` words per source row of a binary predicate,
/// one for a unary predicate, and one pair of one-lane words for a nullary
/// one.
fn eval_update<'a>(
    ev: &mut Evaluator<'a>,
    src: &Structure,
    table: &PredTable,
    up: &'a PredUpdate,
    rows: &mut Vec<u64>,
) {
    let mut asg = Assignment::new();
    match (table.arity(up.pred), up.args.as_slice()) {
        (Arity::Nullary, []) => {
            let mut v = ev.eval(&up.rhs, &mut asg);
            if up.refine && !v.is_definite() {
                v = src.nullary(table, up.pred);
            }
            let (t, h) = v.to_bits();
            rows.extend([u64::from(t), u64::from(h)]);
        }
        (Arity::Unary, [v]) => {
            let (t, m) = ev.planes(&up.rhs, *v, &mut asg);
            let (st, sh) = src.unary_planes(table.slot(up.pred));
            // Lanes evaluated to 1/2 keep the stored value under `refine`.
            let half = |w: usize| m[w] & !t[w];
            if up.refine {
                rows.extend((0..t.len()).map(|w| t[w] | (half(w) & st[w])));
                rows.extend((0..t.len()).map(|w| half(w) & sh[w]));
            } else {
                rows.extend_from_slice(t);
                rows.extend((0..t.len()).map(half));
            }
        }
        (Arity::Binary, [v, w]) => {
            for a in src.nodes() {
                asg.bind(*v, a);
                let (t, m) = ev.planes(&up.rhs, *w, &mut asg);
                rows.extend_from_slice(t);
                rows.extend(t.iter().zip(m).map(|(t, m)| m & !t));
            }
        }
        (arity, args) => panic!("{arity:?} update with {} formal args", args.len()),
    }
}

/// Writes the values [`eval_update`] produced into `dst`, returning whether
/// any value of the predicate changed.
fn store_update(dst: &mut Structure, table: &PredTable, up: &PredUpdate, rows: &[u64]) -> bool {
    let (slot, stride) = (table.slot(up.pred), dst.stride_words());
    let binary = match table.arity(up.pred) {
        Arity::Nullary => {
            let v = Kleene::from_bits(rows[0] != 0, rows[1] != 0);
            let changed = dst.nullary(table, up.pred) != v;
            dst.set_nullary(table, up.pred, v);
            return changed;
        }
        arity => arity == Arity::Binary,
    };
    let mut changed = false;
    for src in 0..if binary { dst.node_count() } else { 1 } {
        let (nt, nh) = rows[2 * stride * src..2 * stride * (src + 1)].split_at(stride);
        let (t, h) = if binary { dst.binary_row_mut(slot, src) } else { dst.unary_planes_mut(slot) };
        changed |= t != nt || h != nh;
        t.copy_from_slice(nt);
        h.copy_from_slice(nh);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::focus::DEFAULT_FOCUS_LIMIT;
    use crate::pred::PredFlags;
    use crate::structure::NodeId;

    fn table() -> (PredTable, PredId, PredId, PredId) {
        let mut t = PredTable::new();
        let x = t.add_unary("x", PredFlags::reference_variable());
        let y = t.add_unary("y", PredFlags::reference_variable());
        let f = t.add_binary("f", PredFlags::reference_field());
        (t, x, y, f)
    }

    /// `x = new T()`: allocate, x points to the new node.
    fn alloc_action(t: &PredTable, x: PredId) -> Action {
        let v = Var(0);
        Action {
            name: "x = new T()".into(),
            new_node: Some(NewNodeSpec::default()),
            updates: vec![PredUpdate::unary(x, v, Formula::unary(t.isnew(), v))],
            ..Action::default()
        }
    }

    #[test]
    fn allocation_creates_marked_then_cleared_node() {
        let (t, x, _y, _f) = table();
        let s = Structure::new(&t);
        let out = apply(&alloc_action(&t, x), &s, &t, DEFAULT_FOCUS_LIMIT);
        assert_eq!(out.results.len(), 1);
        let post = &out.results[0];
        assert_eq!(post.node_count(), 1);
        let u = NodeId::from_index(0);
        assert_eq!(post.unary(&t, x, u), Kleene::True);
        assert_eq!(post.unary(&t, t.isnew(), u), Kleene::False);
        assert!(out.violations.is_empty());
    }

    #[test]
    fn copy_assignment_is_strong_update() {
        let (t, x, y, _f) = table();
        // y = x where x points to u.
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        let w = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::True);
        s.set_unary(&t, y, w, Kleene::True);
        let v = Var(0);
        let action = Action {
            name: "y = x".into(),
            updates: vec![PredUpdate::unary(y, v, Formula::unary(x, v))],
            ..Action::default()
        };
        let out = apply(&action, &s, &t, DEFAULT_FOCUS_LIMIT);
        assert_eq!(out.results.len(), 1);
        let post = &out.results[0];
        assert_eq!(post.unary(&t, y, u), Kleene::True);
        assert_eq!(post.unary(&t, y, w), Kleene::False, "old target dropped");
    }

    #[test]
    fn updates_are_simultaneous_over_pre_state() {
        let (t, x, y, _f) = table();
        // swap: x := y, y := x — must read both from the pre-state.
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        let w = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::True);
        s.set_unary(&t, y, w, Kleene::True);
        let v = Var(0);
        let action = Action {
            name: "swap".into(),
            updates: vec![
                PredUpdate::unary(x, v, Formula::unary(y, v)),
                PredUpdate::unary(y, v, Formula::unary(x, v)),
            ],
            ..Action::default()
        };
        let post = &apply(&action, &s, &t, DEFAULT_FOCUS_LIMIT).results[0];
        assert_eq!(post.unary(&t, x, w), Kleene::True);
        assert_eq!(post.unary(&t, y, u), Kleene::True);
    }

    #[test]
    fn derived_updates_see_post_state() {
        let (t, x, y, _f) = table();
        // core: x := y; derived: d := x  (must observe the new x).
        let mut t = t;
        let d = t.add_unary("d", PredFlags::default());
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        s.set_unary(&t, y, u, Kleene::True);
        let v = Var(0);
        let action = Action {
            name: "derived".into(),
            updates: vec![PredUpdate::unary(x, v, Formula::unary(y, v))],
            derived: vec![PredUpdate::unary(d, v, Formula::unary(x, v))].into(),
            ..Action::default()
        };
        let post = &apply(&action, &s, &t, DEFAULT_FOCUS_LIMIT).results[0];
        assert_eq!(post.unary(&t, d, u), Kleene::True);
    }

    #[test]
    fn assume_filters_definitely_false() {
        let (t, x, _y, _f) = table();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::False);
        let v = Var(0);
        let action = Action {
            name: "assume exists x".into(),
            assume: Some(Formula::exists(v, Formula::unary(x, v))),
            ..Action::default()
        };
        let out = apply(&action, &s, &t, DEFAULT_FOCUS_LIMIT);
        assert!(out.results.is_empty());
    }

    #[test]
    fn assume_with_focus_refines_unknown() {
        let (t, x, _y, _f) = table();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::Unknown);
        let v = Var(0);
        let action = Action {
            name: "assume x != null".into(),
            focus: vec![FocusSpec::Unary(x)],
            assume: Some(Formula::exists(v, Formula::unary(x, v))),
            ..Action::default()
        };
        let out = apply(&action, &s, &t, DEFAULT_FOCUS_LIMIT);
        // Only the variant where x(u)=1 survives.
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].unary(&t, x, u), Kleene::True);
    }

    #[test]
    fn violated_check_is_reported_with_value() {
        let (t, x, _y, _f) = table();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::Unknown);
        let v = Var(0);
        let action = Action {
            name: "requires x".into(),
            checks: vec![Check {
                cond: Formula::exists(v, Formula::unary(x, v)),
                guard: None,
                label: "x must be set".into(),
            }],
            ..Action::default()
        };
        let out = apply(&action, &s, &t, DEFAULT_FOCUS_LIMIT);
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].value, Kleene::Unknown);
        assert_eq!(out.violations[0].label, "x must be set");
    }

    #[test]
    fn guarded_check_skipped_when_guard_false() {
        let (t, x, y, _f) = table();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::False); // condition would fail
        s.set_unary(&t, y, u, Kleene::False); // but guard is definitely false
        let v = Var(0);
        let action = Action {
            name: "guarded requires".into(),
            checks: vec![Check {
                cond: Formula::exists(v, Formula::unary(x, v)),
                guard: Some(Formula::exists(v, Formula::unary(y, v))),
                label: "guarded".into(),
            }],
            ..Action::default()
        };
        let out = apply(&action, &s, &t, DEFAULT_FOCUS_LIMIT);
        assert!(out.violations.is_empty());
    }

    #[test]
    fn field_update_via_formula() {
        let (t, x, y, f) = table();
        // x.f = y  ==>  f'(a,b) = (f(a,b) ∧ ¬x(a)) ∨ (x(a) ∧ y(b))
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        let w = s.add_node(&t);
        let old = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::True);
        s.set_unary(&t, y, w, Kleene::True);
        s.set_binary(&t, f, u, old, Kleene::True);
        let (a, b) = (Var(0), Var(1));
        let rhs = Formula::binary(f, a, b)
            .and(Formula::unary(x, a).not())
            .or(Formula::unary(x, a).and(Formula::unary(y, b)));
        let action = Action {
            name: "x.f = y".into(),
            updates: vec![PredUpdate::binary(f, a, b, rhs)],
            ..Action::default()
        };
        let post = &apply(&action, &s, &t, DEFAULT_FOCUS_LIMIT).results[0];
        assert_eq!(post.binary(&t, f, u, w), Kleene::True);
        assert_eq!(post.binary(&t, f, u, old), Kleene::False, "strong update");
    }

    #[test]
    fn identity_action_detection() {
        let a = Action::named("skip");
        assert!(a.is_identity());
        let (t, x, ..) = table();
        let _ = t;
        let mut b = Action::named("not-skip");
        b.updates.push(PredUpdate::unary(x, Var(0), Formula::ff()));
        assert!(!b.is_identity());
        let mut c = Action::named("forget");
        c.forget = Some(Arc::new(ForgetMask { c: x, preds: Vec::new() }));
        assert!(!c.is_identity());
    }
}
