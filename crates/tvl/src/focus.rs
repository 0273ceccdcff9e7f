//! Focus (materialization).
//!
//! Focus takes an abstract structure and a *focus specification* and produces
//! a set of structures that collectively represent the same concrete states
//! but in which the focused property has a definite value everywhere. This is
//! the precision-recovering step of the parametric framework: e.g. before
//! `y = x.f` executes, the target of the `f`-edge leaving the `x`-node is
//! materialized out of any summary node so the engine can perform a strong
//! update.
//!
//! We implement the two materialization shapes required by the statement
//! language of the paper (reference variables and field dereference); this is
//! the same subset exercised by the paper's front end. Focus is *sound by
//! construction*: when the expansion budget is exhausted the remaining
//! structures are returned with their `1/2` values intact (less precise, never
//! wrong).

use crate::kleene::Kleene;
use crate::pred::{Arity, PredId, PredTable};
use crate::structure::Structure;

/// A materialization request attached to an action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FocusSpec {
    /// Make the unary predicate definite on every individual
    /// (materializes e.g. the node pointed to by a reference variable).
    Unary(PredId),
    /// Make `field(n, v)` definite for every `v`, where `n` is the unique
    /// individual on which the unary predicate `src` definitely holds.
    /// If no such individual exists the spec is a no-op.
    EdgeFrom {
        /// Unary predicate identifying the edge source (a reference variable).
        src: PredId,
        /// The binary field predicate whose outgoing edges are materialized.
        field: PredId,
    },
}

/// Default bound on the number of structures a single focus step may produce.
pub const DEFAULT_FOCUS_LIMIT: usize = 8192;

/// Applies one focus specification to a structure.
///
/// Returns a set of structures whose union represents every concrete state
/// the input represents. If expanding would exceed `limit` structures, the
/// remaining indefinite values are left as `1/2` (sound, less precise).
pub fn focus(s: &Structure, table: &PredTable, spec: &FocusSpec, limit: usize) -> Vec<Structure> {
    match spec {
        FocusSpec::Unary(p) => focus_unary(s, table, *p, limit),
        FocusSpec::EdgeFrom { src, field } => focus_edge(s, table, *src, *field, limit),
    }
}

/// Applies a sequence of focus specifications left to right.
///
/// Focus never drops a structure and every split yields at least two, so
/// the result is a single structure exactly when no spec split anything;
/// that structure is then `s` itself.
pub fn focus_all(
    s: &Structure,
    table: &PredTable,
    specs: &[FocusSpec],
    limit: usize,
) -> Vec<Structure> {
    let mut current = vec![s.clone()];
    for spec in specs {
        let mut next = Vec::new();
        for (i, st) in current.iter().enumerate() {
            next.extend(focus(st, table, spec, limit));
            if next.len() >= limit {
                // Abandon further splitting: keep the remaining structures
                // unfocused rather than exploding.
                next.extend(current[i + 1..].iter().cloned());
                break;
            }
        }
        current = next;
    }
    current
}

fn focus_unary(s: &Structure, table: &PredTable, p: PredId, limit: usize) -> Vec<Structure> {
    assert_eq!(table.arity(p), Arity::Unary);
    let slot = table.slot(p);
    let mut done: Vec<Structure> = Vec::new();
    let mut work: Vec<Structure> = vec![s.clone()];
    while let Some(st) = work.pop() {
        // The next node still carrying 1/2 is the lowest set bit of the
        // slot's half-plane — a word scan, not a per-node probe loop.
        let Some(u) = st.first_unknown_unary(slot) else {
            done.push(st);
            continue;
        };
        if done.len() + work.len() >= limit {
            done.push(st); // budget exhausted: keep the 1/2 (sound)
            done.extend(work);
            return done;
        }
        // Variant 1: definitely false.
        let mut v0 = st.clone();
        v0.set_unary(table, p, u, Kleene::False);
        work.push(v0);
        // Variant 2: definitely true.
        let mut v1 = st.clone();
        v1.set_unary(table, p, u, Kleene::True);
        work.push(v1);
        // Variant 3 (summary only): bifurcate into a p-individual and the rest.
        if st.is_summary(table, u) {
            let mut v2 = st.clone();
            let fresh = v2.duplicate_node(table, u);
            v2.set_unary(table, p, u, Kleene::True);
            v2.set_unary(table, p, fresh, Kleene::False);
            work.push(v2);
        }
    }
    done
}

fn focus_edge(
    s: &Structure,
    table: &PredTable,
    src: PredId,
    field: PredId,
    limit: usize,
) -> Vec<Structure> {
    assert_eq!(table.arity(field), Arity::Binary);
    let field_slot = table.slot(field);
    let mut done: Vec<Structure> = Vec::new();
    let mut work: Vec<Structure> = vec![s.clone()];
    while let Some(st) = work.pop() {
        let Some(n) = st.definite_node(table, src) else {
            done.push(st); // no definite source: nothing to focus
            continue;
        };
        // First 1/2-valued outgoing edge: lowest set bit of the source row's
        // half-plane.
        let Some(v) = st.first_unknown_in_row(field_slot, n.index()) else {
            done.push(st);
            continue;
        };
        if done.len() + work.len() >= limit {
            done.push(st);
            done.extend(work);
            return done;
        }
        let mut v0 = st.clone();
        v0.set_binary(table, field, n, v, Kleene::False);
        work.push(v0);
        let mut v1 = st.clone();
        v1.set_binary(table, field, n, v, Kleene::True);
        work.push(v1);
        if st.is_summary(table, v) {
            // Split the summary target into the pointed-to individual and the
            // remainder.
            let mut v2 = st.clone();
            let fresh = v2.duplicate_node(table, v);
            v2.set_binary(table, field, n, v, Kleene::True);
            v2.set_binary(table, field, n, fresh, Kleene::False);
            work.push(v2);
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::embeds;
    use crate::pred::PredFlags;

    fn table() -> (PredTable, PredId, PredId) {
        let mut t = PredTable::new();
        let x = t.add_unary("x", PredFlags::reference_variable());
        let f = t.add_binary("f", PredFlags::reference_field());
        (t, x, f)
    }

    #[test]
    fn focus_unary_definite_is_identity() {
        let (t, x, _f) = table();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::True);
        let out = focus(&s, &t, &FocusSpec::Unary(x), DEFAULT_FOCUS_LIMIT);
        assert_eq!(out, vec![s]);
    }

    #[test]
    fn focus_unary_nonsummary_splits_in_two() {
        let (t, x, _f) = table();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::Unknown);
        let out = focus(&s, &t, &FocusSpec::Unary(x), DEFAULT_FOCUS_LIMIT);
        assert_eq!(out.len(), 2);
        let mut vals: Vec<Kleene> = out.iter().map(|st| st.unary(&t, x, u)).collect();
        vals.sort();
        assert_eq!(vals, vec![Kleene::False, Kleene::True]);
    }

    #[test]
    fn focus_unary_summary_splits_in_three() {
        let (t, x, _f) = table();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        s.set_summary(&t, u, true);
        s.set_unary(&t, x, u, Kleene::Unknown);
        let out = focus(&s, &t, &FocusSpec::Unary(x), DEFAULT_FOCUS_LIMIT);
        assert_eq!(out.len(), 3);
        // One variant has two nodes (the bifurcation).
        let sizes: Vec<usize> = {
            let mut v: Vec<usize> = out.iter().map(Structure::node_count).collect();
            v.sort();
            v
        };
        assert_eq!(sizes, vec![1, 1, 2]);
        // Every output has x definite on all nodes.
        for st in &out {
            for n in st.nodes() {
                assert!(st.unary(&t, x, n).is_definite());
            }
        }
    }

    #[test]
    fn focus_outputs_cover_original() {
        // Soundness: each concrete state embedded in the input is embedded in
        // some output. We use a concrete 2-node chain and its blur.
        let (t, x, f) = table();
        let mut conc = Structure::new(&t);
        let a = conc.add_node(&t);
        let b = conc.add_node(&t);
        let c = conc.add_node(&t);
        conc.set_unary(&t, x, a, Kleene::True);
        conc.set_binary(&t, f, a, b, Kleene::True);
        conc.set_binary(&t, f, b, c, Kleene::True);
        let abs = crate::canon::blur(&conc, &t);
        let out = focus(&abs, &t, &FocusSpec::EdgeFrom { src: x, field: f }, DEFAULT_FOCUS_LIMIT);
        assert!(
            out.iter().any(|st| embeds(&conc, st, &t)),
            "some focused structure must still embed the concrete state"
        );
    }

    #[test]
    fn focus_edge_materializes_target() {
        let (t, x, f) = table();
        // x → u ; u --1/2--> summary node
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        let sumn = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::True);
        s.set_summary(&t, sumn, true);
        s.set_binary(&t, f, u, sumn, Kleene::Unknown);
        let out = focus(&s, &t, &FocusSpec::EdgeFrom { src: x, field: f }, DEFAULT_FOCUS_LIMIT);
        assert_eq!(out.len(), 3);
        for st in &out {
            let n = st.definite_node(&t, x).unwrap();
            for v in st.nodes() {
                assert!(
                    st.binary(&t, f, n, v).is_definite(),
                    "outgoing f edge must be definite"
                );
            }
        }
        // The bifurcating variant exposes a definite singleton target edge.
        assert!(out.iter().any(|st| {
            let n = st.definite_node(&t, x).unwrap();
            st.nodes()
                .any(|v| st.binary(&t, f, n, v) == Kleene::True)
        }));
    }

    #[test]
    fn focus_edge_without_definite_source_is_noop() {
        let (t, x, f) = table();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::Unknown);
        let out = focus(&s, &t, &FocusSpec::EdgeFrom { src: x, field: f }, DEFAULT_FOCUS_LIMIT);
        assert_eq!(out, vec![s]);
    }

    #[test]
    fn focus_respects_limit() {
        let (t, x, _f) = table();
        let mut s = Structure::new(&t);
        for _ in 0..6 {
            let u = s.add_node(&t);
            s.set_unary(&t, x, u, Kleene::Unknown);
        }
        let out = focus(&s, &t, &FocusSpec::Unary(x), 4);
        // Budget hit: output is bounded and still sound (some 1/2 remain).
        assert!(out.len() <= 4 + 6, "got {}", out.len());
        assert!(out
            .iter()
            .any(|st| st.nodes().any(|u| !st.unary(&t, x, u).is_definite())));
    }

    #[test]
    fn focus_all_keeps_unprocessed_structures_at_the_limit() {
        // Focus on p splits three 1/2 nodes into 5 variants before the
        // limit of 4 stops it; focus on q then hits the limit on the first
        // variant and must keep the other four unfocused, not drop them.
        let mut t = PredTable::new();
        let p = t.add_unary("p", PredFlags::default());
        let q = t.add_unary("q", PredFlags::default());
        let mut s = Structure::new(&t);
        for _ in 0..3 {
            let u = s.add_node(&t);
            s.set_unary(&t, p, u, Kleene::Unknown);
            s.set_unary(&t, q, u, Kleene::Unknown);
        }
        let by_p = focus(&s, &t, &FocusSpec::Unary(p), 4);
        assert_eq!(by_p.len(), 5);
        let out = focus_all(&s, &t, &[FocusSpec::Unary(p), FocusSpec::Unary(q)], 4);
        let head = focus(&by_p[0], &t, &FocusSpec::Unary(q), 4);
        assert!(head.len() >= 4, "the first variant alone reaches the limit");
        let mut expected = head;
        expected.extend(by_p[1..].iter().cloned());
        assert_eq!(out, expected, "variants 1-4 of the p focus survive unfocused");
    }

    #[test]
    fn focus_all_chains_specs() {
        let (t, x, f) = table();
        let mut t2 = t;
        let y = t2.add_unary("y", PredFlags::reference_variable());
        let mut s = Structure::new(&t2);
        let u = s.add_node(&t2);
        let v = s.add_node(&t2);
        s.set_unary(&t2, x, u, Kleene::Unknown);
        s.set_unary(&t2, y, v, Kleene::Unknown);
        let out = focus_all(
            &s,
            &t2,
            &[FocusSpec::Unary(x), FocusSpec::Unary(y)],
            DEFAULT_FOCUS_LIMIT,
        );
        assert_eq!(out.len(), 4);
        let _ = f;
    }
}
