//! Embedding and isomorphism checks.
//!
//! A 3-valued structure `A` *embeds* a structure `C` when there is a
//! surjection `h` from `C`'s universe onto `A`'s universe such that every
//! predicate value in `C` is `⊑`-below the corresponding value in `A`, and
//! every node with more than one preimage is a summary node. Embedding is the
//! soundness relation of the parametric framework: the abstract transformers
//! in this crate are tested (see the property tests) to preserve it.
//!
//! The search here is brute force and intended for testing and for the small
//! universes that arise under heterogeneous abstraction — it is exponential in
//! the universe size.

use crate::pred::{Arity, PredTable};
use crate::structure::{NodeId, Structure};

/// Checks whether `abst` embeds `conc` via *some* surjective mapping.
///
/// Returns the witness mapping (indexed by `conc` node) if one exists.
pub fn find_embedding(
    conc: &Structure,
    abst: &Structure,
    table: &PredTable,
) -> Option<Vec<NodeId>> {
    let nc = conc.node_count();
    let na = abst.node_count();
    if na > nc {
        return None;
    }
    if nc == 0 {
        return check_nullary(conc, abst, table).then(Vec::new);
    }
    let mut map: Vec<NodeId> = vec![NodeId::from_index(0); nc];
    if !check_nullary(conc, abst, table) {
        return None;
    }
    if search(conc, abst, table, &mut map, 0) {
        Some(map)
    } else {
        None
    }
}

/// Whether `abst` embeds `conc` (see [`find_embedding`]).
pub fn embeds(conc: &Structure, abst: &Structure, table: &PredTable) -> bool {
    find_embedding(conc, abst, table).is_some()
}

/// Whether the two structures are isomorphic (mutual embedding by a
/// bijection with equal predicate values).
pub fn is_isomorphic(a: &Structure, b: &Structure, table: &PredTable) -> bool {
    if a.node_count() != b.node_count() {
        return false;
    }
    // An isomorphism is an embedding in both directions with equal counts;
    // since values must be ⊑ in both directions they are equal.
    embeds(a, b, table) && embeds(b, a, table)
}

fn check_nullary(conc: &Structure, abst: &Structure, table: &PredTable) -> bool {
    table
        .iter_arity(Arity::Nullary)
        .all(|p| conc.nullary(table, p).le_info(abst.nullary(table, p)))
}

fn search(
    conc: &Structure,
    abst: &Structure,
    table: &PredTable,
    map: &mut Vec<NodeId>,
    next: usize,
) -> bool {
    let nc = conc.node_count();
    if next == nc {
        return surjective(abst, map) && consistent(conc, abst, table, map);
    }
    for target in abst.nodes() {
        map[next] = target;
        if unary_compatible(conc, abst, table, NodeId::from_index(next), target)
            && search(conc, abst, table, map, next + 1)
        {
            return true;
        }
    }
    false
}

fn surjective(abst: &Structure, map: &[NodeId]) -> bool {
    let mut hit = vec![false; abst.node_count()];
    for m in map {
        hit[m.index()] = true;
    }
    hit.into_iter().all(|h| h)
}

fn unary_compatible(
    conc: &Structure,
    abst: &Structure,
    table: &PredTable,
    cu: NodeId,
    au: NodeId,
) -> bool {
    table
        .iter_arity(Arity::Unary)
        .all(|p| conc.unary(table, p, cu).le_info(abst.unary(table, p, au)))
}

fn consistent(conc: &Structure, abst: &Structure, table: &PredTable, map: &[NodeId]) -> bool {
    // Summary-node condition: a non-summary abstract node has exactly one preimage.
    let mut count = vec![0usize; abst.node_count()];
    for m in map {
        count[m.index()] += 1;
    }
    for u in abst.nodes() {
        if count[u.index()] > 1 && !abst.is_summary(table, u) {
            return false;
        }
    }
    // sm itself must also satisfy ⊑ pointwise, which unary_compatible checked.
    // Binary predicates:
    for p in table.iter_arity(Arity::Binary) {
        for s in conc.nodes() {
            for d in conc.nodes() {
                let cv = conc.binary(table, p, s, d);
                let av = abst.binary(table, p, map[s.index()], map[d.index()]);
                if !cv.le_info(av) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::blur;
    use crate::kleene::Kleene;
    use crate::pred::{PredFlags, PredId};

    fn table() -> (PredTable, PredId, PredId) {
        let mut t = PredTable::new();
        let x = t.add_unary("x", PredFlags::reference_variable());
        let f = t.add_binary("f", PredFlags::reference_field());
        (t, x, f)
    }

    fn chain(t: &PredTable, x: PredId, f: PredId, len: usize) -> Structure {
        let mut s = Structure::new(t);
        let nodes: Vec<NodeId> = (0..len).map(|_| s.add_node(t)).collect();
        if let Some(&first) = nodes.first() {
            s.set_unary(t, x, first, Kleene::True);
        }
        for w in nodes.windows(2) {
            s.set_binary(t, f, w[0], w[1], Kleene::True);
        }
        s
    }

    #[test]
    fn blur_embeds_original() {
        let (t, x, f) = table();
        for len in 1..5 {
            let s = chain(&t, x, f, len);
            let b = blur(&s, &t);
            assert!(
                embeds(&s, &b, &t),
                "blur of a {len}-chain must embed the original"
            );
        }
    }

    #[test]
    fn embedding_is_reflexive() {
        let (t, x, f) = table();
        let s = chain(&t, x, f, 3);
        assert!(embeds(&s, &s, &t));
        assert!(is_isomorphic(&s, &s, &t));
    }

    #[test]
    fn concrete_does_not_embed_into_incompatible() {
        let (t, x, f) = table();
        let s = chain(&t, x, f, 2);
        let mut other = chain(&t, x, f, 2);
        // Remove the edge: s has f(u0,u1)=1 but other has 0 — no embedding.
        other.set_binary(&t, f, NodeId::from_index(0), NodeId::from_index(1), Kleene::False);
        assert!(!embeds(&s, &other, &t));
        // The reverse direction also fails (0 ⋢ 1? 0 ⊑ 1 is false: le_info
        // requires equal or target Unknown).
        assert!(!embeds(&other, &s, &t));
    }

    #[test]
    fn summary_node_required_for_many_to_one() {
        let (t, x, f) = table();
        let s = chain(&t, x, f, 3);
        // Abstract: x-node plus one NON-summary node cannot absorb two nodes.
        let mut bad = Structure::new(&t);
        let a = bad.add_node(&t);
        let b = bad.add_node(&t);
        bad.set_unary(&t, x, a, Kleene::True);
        bad.set_binary(&t, f, a, b, Kleene::Unknown);
        bad.set_binary(&t, f, b, b, Kleene::Unknown);
        assert!(!embeds(&s, &bad, &t), "needs sm=1/2 on the absorbing node");
        bad.set_summary(&t, b, true);
        assert!(embeds(&s, &bad, &t));
    }

    #[test]
    fn surjectivity_enforced() {
        let (t, x, f) = table();
        let small = chain(&t, x, f, 1);
        let big = chain(&t, x, f, 2);
        assert!(!embeds(&small, &big, &t), "no surjection from 1 onto 2 nodes");
    }

    #[test]
    fn isomorphism_detects_renaming() {
        let (t, x, f) = table();
        let s1 = chain(&t, x, f, 3);
        let s2 = s1.permute(&[NodeId::from_index(2), NodeId::from_index(0), NodeId::from_index(1)]);
        assert!(is_isomorphic(&s1, &s2, &t));
    }
}
