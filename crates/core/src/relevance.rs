//! Transitive relevance (paper §4.3).
//!
//! The `relevant` predicate identifies the objects a verification subproblem
//! must model precisely: every chosen object, plus — via *transitive
//! relevance* — every object from which a chosen object is reachable through
//! reference or set fields. This separates heap paths that may reach a
//! relevant object from heap paths that cannot, and is what lets the
//! `InputStream5`-style "holder" benchmarks verify: the holders *holding* the
//! chosen stream stay materialized while unrelated holders collapse.
//!
//! The paper maintains `relevant` with the finite-differencing machinery of
//! Reps, Sagiv & Loginov; after each action we iterate a one-step formula
//! to a fixpoint instead (see DESIGN.md) — sound, and precise enough because
//! the formula is evaluated on the focused post-state.

use hetsep_tvl::formula::{Formula, Var};
use hetsep_tvl::pred::PredId;

use crate::vocab::Vocabulary;

/// Builds the *one-step* maintenance formula of `relevant`:
///
/// ```text
/// relevant(v) = chosen(v) ∨ ∃w. edge(v, w) ∧ relevant(w)
/// ```
///
/// Iterated to a fixpoint (with refine semantics) by the engine, this
/// propagates relevance incrementally against the *stored* values of
/// neighbours — one definite edge into the already-relevant region suffices,
/// where re-evaluating the full transitive closure would degrade to `1/2`
/// through summary-internal edges.
pub fn relevant_step_formula(vocab: &Vocabulary, chosen: PredId, relevant: PredId) -> Formula {
    let v = Var(0);
    let w = Var(90);
    let edges = vocab.all_edge_preds();
    let step = Formula::or_all(edges.iter().map(|&p| Formula::binary(p, v, w)));
    let reach_one = Formula::exists(w, step.and(Formula::unary(relevant, w)));
    Formula::unary(chosen, v).or(reach_one)
}

/// Builds the defining formula of `nearChosen`:
///
/// ```text
/// nearChosen(v) = ∃w. edge(v, w) ∧ chosen(w)
/// ```
pub fn near_chosen_formula(vocab: &Vocabulary, chosen: PredId) -> Formula {
    let v = Var(0);
    let w = Var(90);
    let edges = vocab.all_edge_preds();
    let step = Formula::or_all(edges.iter().map(|&p| Formula::binary(p, v, w)));
    Formula::exists(w, step.and(Formula::unary(chosen, w)))
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use hetsep_ir::cfg::Cfg;
    use hetsep_strategy::builtin::{parse_builtin, JDBC_SINGLE};
    use hetsep_strategy::instrument::InstrumentPlan;
    use hetsep_tvl::eval::eval_unary_at_all;
    use hetsep_tvl::kleene::Kleene;
    use hetsep_tvl::structure::Structure;

    use super::*;

    /// Builds a vocabulary for a trivial JDBC program with a strategy.
    fn vocab() -> Vocabulary {
        let program = hetsep_ir::parse_program(
            "program P uses JDBC; void main() { ConnectionManager cm = new ConnectionManager(); }",
        )
        .unwrap();
        let spec = hetsep_easl::builtin::jdbc();
        let cfg = Cfg::build(&program, "main").unwrap();
        let var_types: HashMap<String, String> = cfg
            .variables()
            .into_iter()
            .map(|(a, b)| (a.to_owned(), b.to_owned()))
            .collect();
        let strategy = parse_builtin(JDBC_SINGLE);
        let plan = InstrumentPlan::for_stage(&strategy.stages[0]);
        Vocabulary::build(&program, &spec, &cfg, &var_types, Some(&plan), false)
    }

    /// `relevant` as the engine maintains it: the step formula iterated
    /// from all-false stored values to a fixpoint, which is transitive
    /// relevance, `chosen(v) ∨ ∃w. (TC a,b: edge(a,b))(v, w) ∧ chosen(w)`.
    fn relevance(v: &Vocabulary, s: &mut Structure) -> Vec<Kleene> {
        let relevant = v.relevant.unwrap();
        let step = relevant_step_formula(v, v.chosen.unwrap(), relevant);
        let nodes: Vec<_> = s.nodes().collect();
        loop {
            let vals = eval_unary_at_all(s, &v.table, &step, Var(0));
            if nodes
                .iter()
                .all(|&u| s.unary(&v.table, relevant, u) == vals[u.index()])
            {
                return vals;
            }
            for &u in &nodes {
                s.set_unary(&v.table, relevant, u, vals[u.index()]);
            }
        }
    }

    #[test]
    fn chosen_objects_are_relevant() {
        let v = vocab();
        let chosen = v.chosen.unwrap();
        let mut s = Structure::new(&v.table);
        let a = s.add_node(&v.table);
        let b = s.add_node(&v.table);
        s.set_unary(&v.table, chosen, a, Kleene::True);
        let vals = relevance(&v, &mut s);
        assert_eq!(vals[a.index()], Kleene::True);
        assert_eq!(vals[b.index()], Kleene::False);
    }

    #[test]
    fn reaching_objects_are_transitively_relevant() {
        let v = vocab();
        let chosen = v.chosen.unwrap();
        // holder --Statement.myResultSet--> mid --…--> chosen target
        let edge = v.ref_fields[&("Statement".to_owned(), "myResultSet".to_owned())];
        let mut s = Structure::new(&v.table);
        let holder = s.add_node(&v.table);
        let mid = s.add_node(&v.table);
        let target = s.add_node(&v.table);
        let unrelated = s.add_node(&v.table);
        s.set_binary(&v.table, edge, holder, mid, Kleene::True);
        s.set_binary(&v.table, edge, mid, target, Kleene::True);
        s.set_unary(&v.table, chosen, target, Kleene::True);
        let vals = relevance(&v, &mut s);
        assert_eq!(vals[holder.index()], Kleene::True, "reaches chosen at depth 2");
        assert_eq!(vals[mid.index()], Kleene::True);
        assert_eq!(vals[target.index()], Kleene::True);
        assert_eq!(vals[unrelated.index()], Kleene::False);
    }

    #[test]
    fn unknown_edges_give_unknown_relevance() {
        let v = vocab();
        let chosen = v.chosen.unwrap();
        let edge = v.ref_fields[&("Statement".to_owned(), "myConnection".to_owned())];
        let mut s = Structure::new(&v.table);
        let a = s.add_node(&v.table);
        let b = s.add_node(&v.table);
        s.set_binary(&v.table, edge, a, b, Kleene::Unknown);
        s.set_unary(&v.table, chosen, b, Kleene::True);
        let vals = relevance(&v, &mut s);
        assert_eq!(vals[a.index()], Kleene::Unknown);
    }
}
