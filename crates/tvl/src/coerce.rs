//! Coerce: constraint-driven sharpening.
//!
//! After focus and predicate update, a structure may contain indefinite
//! values that are incompatible with the integrity constraints of the
//! vocabulary — e.g. a reference variable (a *unique* predicate) cannot point
//! to two individuals, and a reference field (a *functional* predicate)
//! leaves each individual along at most one edge. The coerce operation
//! (paper §5, following TVLA) repeatedly:
//!
//! * sharpens `1/2` values whose definite value is forced by a constraint,
//! * shrinks summary nodes (`sm := 0`) that are forced to represent exactly
//!   one individual,
//! * discards structures whose definite values contradict a constraint
//!   (infeasible states).
//!
//! Constraints come from three sources: `unique` unary predicates,
//! `function` binary predicates, and the defining formulas of
//! instrumentation predicates.
//!
//! The constraint set depends only on the vocabulary, never on the structure
//! being coerced, so it is compiled once per [`PredTable`] into a
//! [`CoercePlan`] — predicate-indexed constraint lists with the defining
//! formulas and their variable bindings resolved up front. Hot callers (the
//! analysis engine's action-application loop) build the plan once per run
//! and use [`coerce_with`]; the plan-free [`coerce`] entry point compiles a
//! fresh plan per call and is equivalent.
//!
//! An instrumentation rule is checked a whole plane at a time: its defining
//! formula is swept over every node (row by row for binary rules) and
//! reconciled with the stored planes word-wise. Sharpening writes only the
//! rule's own predicate, so this equals the per-node order exactly unless
//! the definition reads that predicate. Even then the outcome is the same:
//! sharpening only makes values more definite, so a lane that the up-front
//! plane leaves at `1/2` is sharpened (or found in conflict) by a later
//! round of the fixpoint loop instead of the current one.
//!
//! Each rule reads a fixed set of predicates: a unique rule reads its
//! predicate and `sm`, a function rule its field and `sm`, and an
//! instrumentation rule its own predicate, `sm` and every predicate of its
//! defining formula. A rule changes nothing on a coerce fixpoint, so it
//! changes nothing on any structure over the same universe that agrees with
//! that fixpoint on the rule's reads. [`coerce_dirty`] uses this when its
//! input is a fixpoint changed in a known set of predicates (the action
//! updates, see [`crate::action`]): the loop skips every rule none of whose
//! reads is *dirty*, and a rule that writes a predicate makes it dirty.
//! [`coerce_with`] is the same loop with every predicate dirty.

use crate::bits;
use crate::eval::{eval_closed, Assignment, Evaluator, Scratch};
use crate::formula::{Formula, Var};
use crate::kleene::Kleene;
use crate::pred::{Arity, PredId, PredSet, PredTable};
use crate::structure::{NodeId, Structure};

/// Result of coercing a structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoerceOutcome {
    /// The structure is consistent; the payload is the (possibly sharpened)
    /// structure.
    Feasible(Structure),
    /// The structure's definite values contradict an integrity constraint;
    /// it represents no concrete state and must be discarded.
    Infeasible,
}

impl CoerceOutcome {
    /// Extracts the feasible structure, if any.
    pub fn feasible(self) -> Option<Structure> {
        match self {
            CoerceOutcome::Feasible(s) => Some(s),
            CoerceOutcome::Infeasible => None,
        }
    }
}

/// A single precompiled instrumentation constraint: the predicate, its
/// defining formula, and the formula's free variables resolved once.
#[derive(Debug, Clone)]
struct InstrRule {
    pred: PredId,
    arity: Arity,
    defining: Formula,
    /// Binding variable for unary rules / source variable for binary rules.
    va: Var,
    /// Target variable for binary rules (unused otherwise).
    vb: Var,
    /// The predicates the rule reads: `pred`, `sm` and those of `defining`.
    reads: Vec<PredId>,
}

/// The coerce constraint set of one vocabulary, compiled into
/// predicate-indexed lists so the per-application loop never walks the full
/// predicate table or re-derives formula metadata.
#[derive(Debug, Clone)]
pub struct CoercePlan {
    unique: Vec<PredId>,
    function: Vec<PredId>,
    instr: Vec<InstrRule>,
}

impl CoercePlan {
    /// Compiles the constraint lists for `table`. The plan is only valid for
    /// structures over the same vocabulary.
    pub fn new(table: &PredTable) -> Self {
        let unique = table.unique_preds();
        let function = table.function_preds();
        let instr = table
            .instrumentation_preds()
            .into_iter()
            .map(|p| {
                let defining = table
                    .flags(p)
                    .defining
                    .clone()
                    .expect("instrumentation_preds filtered on defining");
                let arity = table.arity(p);
                let free = defining.free_vars();
                let (va, vb) = match arity {
                    Arity::Nullary => (Var(0), Var(1)),
                    Arity::Unary => {
                        debug_assert!(free.len() <= 1, "unary instrumentation formula arity");
                        (free.first().copied().unwrap_or(Var(0)), Var(1))
                    }
                    Arity::Binary => {
                        debug_assert!(free.len() <= 2, "binary instrumentation formula arity");
                        match free.as_slice() {
                            [a, b] => (*a, *b),
                            [a] => (*a, Var(a.0 + 1)),
                            [] => (Var(0), Var(1)),
                            _ => unreachable!(),
                        }
                    }
                };
                let mut reads = defining.preds();
                reads.extend([p, table.sm()]);
                reads.sort();
                reads.dedup();
                InstrRule { pred: p, arity, defining, va, vb, reads }
            })
            .collect();
        CoercePlan { unique, function, instr }
    }
}

/// Applies all integrity constraints to fixpoint.
///
/// Compiles a fresh [`CoercePlan`] per call and coerces a copy of `s`; hot
/// loops should compile the plan once and hand their structure to
/// [`coerce_with`].
pub fn coerce(s: &Structure, table: &PredTable) -> CoerceOutcome {
    coerce_with(s.clone(), table, &CoercePlan::new(table))
}

/// Applies all integrity constraints to fixpoint using a precompiled plan,
/// sharpening `s` in place.
pub fn coerce_with(s: Structure, table: &PredTable, plan: &CoercePlan) -> CoerceOutcome {
    coerce_dirty(s, table, plan, PredSet::all())
}

/// [`coerce_with`] for a structure that differs from some coerce fixpoint
/// over the same universe only in the predicates of `dirty`. Rules that
/// read no dirty predicate are skipped (see the module docs); the outcome
/// equals [`coerce_with`]'s.
pub fn coerce_dirty(
    s: Structure,
    table: &PredTable,
    plan: &CoercePlan,
    dirty: PredSet,
) -> CoerceOutcome {
    let mut cur = s;
    #[cfg(debug_assertions)]
    cur.debug_check_invariants();
    let mut round = Round { dirty, changed: false };
    loop {
        round.changed = false;
        if !apply_unique(&mut cur, table, plan, &mut round) {
            return CoerceOutcome::Infeasible;
        }
        if !apply_function(&mut cur, table, plan, &mut round) {
            return CoerceOutcome::Infeasible;
        }
        if !apply_instrumentation(&mut cur, table, plan, &mut round) {
            return CoerceOutcome::Infeasible;
        }
        if !round.changed {
            return CoerceOutcome::Feasible(cur);
        }
    }
}

/// The fixpoint loop's state: the predicates that may differ from the
/// fixpoint the input came from, and whether the current round wrote any.
struct Round {
    dirty: PredSet,
    changed: bool,
}

impl Round {
    /// Whether a rule reading `preds` can change anything.
    fn reads_dirty(&self, preds: &[PredId]) -> bool {
        preds.iter().any(|&p| self.dirty.contains(p))
    }

    /// Records that a rule changed a value of `p`.
    fn wrote(&mut self, p: PredId) {
        self.changed = true;
        self.dirty.insert(p);
    }
}

/// `unique` unary predicates hold for at most one concrete individual.
///
/// Runs on the bitplanes directly: the definite holders are the `t`-plane
/// population count, and "clear every other `1/2` candidate" is zeroing the
/// slot's `h`-plane (the holder's `h` bit is already 0 by the `t & h`
/// invariant), one word store per 64 nodes.
fn apply_unique(s: &mut Structure, table: &PredTable, plan: &CoercePlan, round: &mut Round) -> bool {
    let sm = table.sm();
    for &p in &plan.unique {
        if !round.reads_dirty(&[p, sm]) {
            continue;
        }
        let slot = table.slot(p);
        let (holders, holder, has_half) = {
            let (t, h) = s.unary_planes(slot);
            (bits::count_set(t), bits::first_set(t), bits::any_set(h))
        };
        if holders >= 2 {
            // Two distinct nodes each definitely carry p: since every node
            // denotes at least one individual, p holds for ≥ 2 individuals.
            return false;
        }
        if let Some(holder) = holder {
            // No other node may carry p.
            if has_half {
                let (_, h) = s.unary_planes_mut(slot);
                h.fill(0);
                round.wrote(p);
            }
            // A summary node on which p definitely holds represents nodes
            // that all carry p; uniqueness forces it to be a single
            // individual.
            let holder = NodeId::from_index(holder);
            if s.is_summary(table, holder) {
                s.set_summary(table, holder, false);
                round.wrote(sm);
            }
        }
    }
    true
}

/// `function` binary predicates relate each source individual to at most one
/// target.
fn apply_function(
    s: &mut Structure,
    table: &PredTable,
    plan: &CoercePlan,
    round: &mut Round,
) -> bool {
    // Summary bits are read from the `sm` plane's `h` words (a summary node
    // is `sm = 1/2`, and by the `t & h` invariant `h` alone decides it).
    let sm = table.sm();
    let sm_slot = table.slot(sm);
    let is_summary = |s: &Structure, u: usize| {
        let (w, b) = bits::lane(u);
        (s.unary_planes(sm_slot).1[w] >> b) & 1 != 0
    };
    for &f in &plan.function {
        if !round.reads_dirty(&[f, sm]) {
            continue;
        }
        let slot = table.slot(f);
        for src in s.nodes() {
            if is_summary(s, src.index()) {
                // Distinct members of a summary source may have distinct
                // targets; no sharpening is possible.
                continue;
            }
            // One plane row per source: definite targets are the row's
            // `t`-plane bits, and dropping the remaining `1/2` targets is a
            // word-wise zeroing of its `h`-plane (the target's own `h` bit
            // is 0 by the `t & h` invariant).
            let (targets, target, has_half) = {
                let (t, h) = s.binary_row(slot, src.index());
                (bits::count_set(t), bits::first_set(t), bits::any_set(h))
            };
            if targets >= 2 {
                return false;
            }
            if let Some(target) = target {
                if has_half {
                    let (_, h) = s.binary_row_mut(slot, src.index());
                    h.fill(0);
                    round.wrote(f);
                }
                // A definite edge into a summary target means the single
                // source individual points to *every* member: functionality
                // forces the target to be a single individual.
                if is_summary(s, target) {
                    s.set_summary(table, NodeId::from_index(target), false);
                    round.wrote(sm);
                }
            }
        }
    }
    true
}

/// Stored instrumentation-predicate values must be consistent with their
/// defining formulas; definite evaluations sharpen stored `1/2`s, and
/// definite disagreements make the structure infeasible.
fn apply_instrumentation(
    s: &mut Structure,
    table: &PredTable,
    plan: &CoercePlan,
    round: &mut Round,
) -> bool {
    let mut buf = Scratch::default();
    let mut rows = Vec::new();
    for rule in &plan.instr {
        if !round.reads_dirty(&rule.reads) {
            continue;
        }
        let p = rule.pred;
        let slot = table.slot(p);
        match rule.arity {
            Arity::Nullary => {
                let stored = s.nullary(table, p);
                let evaled = eval_closed(s, table, &rule.defining);
                match reconcile(stored, evaled) {
                    Reconciled::Conflict => return false,
                    Reconciled::Sharpen(v) => {
                        s.set_nullary(table, p, v);
                        round.wrote(p);
                    }
                    Reconciled::Keep => {}
                }
            }
            arity => {
                // One plane row for a unary rule, one per source node for a
                // binary rule, all evaluated before any is reconciled.
                let binary = arity == Arity::Binary;
                let (sources, var) = if binary { (s.node_count(), rule.vb) } else { (1, rule.va) };
                rows.clear();
                let mut ev = Evaluator::new(s, table, &mut buf);
                let mut asg = Assignment::new();
                for src in 0..sources {
                    if binary {
                        asg.bind(rule.va, NodeId::from_index(src));
                    }
                    let (t, m) = ev.planes(&rule.defining, var, &mut asg);
                    rows.extend_from_slice(t);
                    rows.extend_from_slice(m);
                }
                let width = 2 * s.stride_words();
                for src in 0..sources {
                    let row = &rows[width * src..width * (src + 1)];
                    let planes =
                        if binary { s.binary_row_mut(slot, src) } else { s.unary_planes_mut(slot) };
                    match sharpen_row(planes, row) {
                        None => return false,
                        Some(true) => round.wrote(p),
                        Some(false) => {}
                    }
                }
            }
        }
    }
    true
}

/// Reconciles one stored plane row `(t, h)` with the threshold planes `row`
/// (`t` then `m`, `stride` words each) of its defining formula: `false` if
/// a lane is definite in both and they differ (`None`), otherwise every
/// stored `1/2` whose evaluation is definite is sharpened (`Some(true)` iff
/// one was).
fn sharpen_row((t, h): (&mut [u64], &mut [u64]), row: &[u64]) -> Option<bool> {
    let (et, em) = row.split_at(t.len());
    for w in 0..t.len() {
        // Stored 1 evaluated 0, or stored 0 evaluated 1.
        if (t[w] & !em[w]) | (et[w] & !(t[w] | h[w])) != 0 {
            return None;
        }
    }
    let mut sharpened = false;
    for w in 0..t.len() {
        let sharpen = h[w] & (et[w] | !em[w]);
        if sharpen != 0 {
            t[w] |= sharpen & et[w];
            h[w] &= !sharpen;
            sharpened = true;
        }
    }
    Some(sharpened)
}

enum Reconciled {
    Conflict,
    Sharpen(Kleene),
    Keep,
}

fn reconcile(stored: Kleene, evaled: Kleene) -> Reconciled {
    match (stored, evaled) {
        (a, b) if a == b => Reconciled::Keep,
        (Kleene::Unknown, v) if v.is_definite() => Reconciled::Sharpen(v),
        (_, Kleene::Unknown) => Reconciled::Keep,
        _ => Reconciled::Conflict, // both definite and different
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula;
    use crate::pred::{PredFlags, PredId};

    fn table() -> (PredTable, PredId, PredId) {
        let mut t = PredTable::new();
        let x = t.add_unary("x", PredFlags::reference_variable());
        let f = t.add_binary("f", PredFlags::reference_field());
        (t, x, f)
    }

    #[test]
    fn unique_two_definite_holders_is_infeasible() {
        let (t, x, _f) = table();
        let mut s = Structure::new(&t);
        let a = s.add_node(&t);
        let b = s.add_node(&t);
        s.set_unary(&t, x, a, Kleene::True);
        s.set_unary(&t, x, b, Kleene::True);
        assert_eq!(coerce(&s, &t), CoerceOutcome::Infeasible);
    }

    #[test]
    fn unique_sharpens_other_candidates() {
        let (t, x, _f) = table();
        let mut s = Structure::new(&t);
        let a = s.add_node(&t);
        let b = s.add_node(&t);
        s.set_unary(&t, x, a, Kleene::True);
        s.set_unary(&t, x, b, Kleene::Unknown);
        let out = coerce(&s, &t).feasible().unwrap();
        assert_eq!(out.unary(&t, x, b), Kleene::False);
    }

    #[test]
    fn unique_shrinks_summary_holder() {
        let (t, x, _f) = table();
        let mut s = Structure::new(&t);
        let a = s.add_node(&t);
        s.set_summary(&t, a, true);
        s.set_unary(&t, x, a, Kleene::True);
        let out = coerce(&s, &t).feasible().unwrap();
        assert!(!out.is_summary(&t, a), "x unique forces |a| = 1");
    }

    #[test]
    fn function_conflicting_targets_infeasible() {
        let (t, _x, f) = table();
        let mut s = Structure::new(&t);
        let a = s.add_node(&t);
        let b = s.add_node(&t);
        let c = s.add_node(&t);
        s.set_binary(&t, f, a, b, Kleene::True);
        s.set_binary(&t, f, a, c, Kleene::True);
        assert_eq!(coerce(&s, &t), CoerceOutcome::Infeasible);
    }

    #[test]
    fn function_sharpens_alternatives_and_target_summary() {
        let (t, _x, f) = table();
        let mut s = Structure::new(&t);
        let a = s.add_node(&t);
        let b = s.add_node(&t);
        let c = s.add_node(&t);
        s.set_summary(&t, b, true);
        s.set_binary(&t, f, a, b, Kleene::True);
        s.set_binary(&t, f, a, c, Kleene::Unknown);
        let out = coerce(&s, &t).feasible().unwrap();
        assert_eq!(out.binary(&t, f, a, c), Kleene::False);
        assert!(!out.is_summary(&t, b), "definite edge into summary shrinks it");
    }

    #[test]
    fn function_does_not_sharpen_from_summary_source() {
        let (t, _x, f) = table();
        let mut s = Structure::new(&t);
        let a = s.add_node(&t);
        let b = s.add_node(&t);
        let c = s.add_node(&t);
        s.set_summary(&t, a, true);
        s.set_binary(&t, f, a, b, Kleene::True);
        s.set_binary(&t, f, a, c, Kleene::Unknown);
        let out = coerce(&s, &t).feasible().unwrap();
        assert_eq!(out.binary(&t, f, a, c), Kleene::Unknown);
    }

    #[test]
    fn instrumentation_sharpened_from_definition() {
        let (mut t, x, _f) = table();
        // inst(v) defined as x(v)
        let inst = t.add_unary(
            "inst",
            PredFlags {
                defining: Some(Formula::unary(x, Var(0))),
                ..PredFlags::default()
            },
        );
        let mut s = Structure::new(&t);
        let a = s.add_node(&t);
        s.set_unary(&t, x, a, Kleene::True);
        s.set_unary(&t, inst, a, Kleene::Unknown);
        let out = coerce(&s, &t).feasible().unwrap();
        assert_eq!(out.unary(&t, inst, a), Kleene::True);
    }

    #[test]
    fn instrumentation_conflict_is_infeasible() {
        let (mut t, x, _f) = table();
        let inst = t.add_unary(
            "inst",
            PredFlags {
                defining: Some(Formula::unary(x, Var(0))),
                ..PredFlags::default()
            },
        );
        let mut s = Structure::new(&t);
        let a = s.add_node(&t);
        s.set_unary(&t, x, a, Kleene::True);
        s.set_unary(&t, inst, a, Kleene::False);
        assert_eq!(coerce(&s, &t), CoerceOutcome::Infeasible);
    }

    #[test]
    fn instrumentation_sharpening_feeds_uniqueness() {
        // Sharpening from one rule can enable another: inst := x (definite)
        // then inst unique removes candidates elsewhere.
        let (mut t, x, _f) = table();
        let inst = t.add_unary(
            "inst",
            PredFlags {
                unique: true,
                defining: Some(Formula::unary(x, Var(0))),
                ..PredFlags::default()
            },
        );
        let mut s = Structure::new(&t);
        let a = s.add_node(&t);
        let b = s.add_node(&t);
        s.set_unary(&t, x, a, Kleene::True);
        s.set_unary(&t, inst, a, Kleene::Unknown);
        s.set_unary(&t, inst, b, Kleene::Unknown);
        // x(b) = False so inst(b) sharpens to False via the definition; and
        // inst(a) sharpens to True via the definition.
        let out = coerce(&s, &t).feasible().unwrap();
        assert_eq!(out.unary(&t, inst, a), Kleene::True);
        assert_eq!(out.unary(&t, inst, b), Kleene::False);
    }

    #[test]
    fn consistent_structure_is_fixpoint() {
        let (t, x, f) = table();
        let mut s = Structure::new(&t);
        let a = s.add_node(&t);
        let b = s.add_node(&t);
        s.set_unary(&t, x, a, Kleene::True);
        s.set_binary(&t, f, a, b, Kleene::True);
        let out = coerce(&s, &t).feasible().unwrap();
        assert_eq!(out, s);
    }
}
