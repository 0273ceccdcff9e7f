//! Canonical abstraction (individual merging).
//!
//! The basic abstraction primitive of the parametric framework (paper §5):
//! individuals that agree on the values of all *abstraction predicates* are
//! merged into one (summary) individual, with remaining predicate values
//! joined in the information order. The paper's heterogeneous abstraction
//! `⟨c, A1, A0, A½⟩` is obtained by choosing the abstraction-predicate set
//! per relevance class. The paper's prototype realized it by storing one
//! combined predicate `p_r = p ∧ relevant` per abstraction predicate; here
//! the table's [relevance mask](PredTable::set_relevance_mask) `(c, P)`
//! adds one *masked column* `p ∧ c` per `p ∈ P` to the canonical name,
//! computed from the planes of `p` and `c` when names are built (see
//! [`name_columns`] and `hetsep-core`'s vocabulary).

use crate::bits;
use crate::kleene::Kleene;
use crate::pred::{Arity, PredId, PredTable};
use crate::structure::{NodeId, Structure};

/// One column of a canonical name: the value of `pred`, or with a `mask`
/// the Kleene conjunction `pred ∧ mask`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Column {
    /// The predicate whose value the column reads.
    pub pred: PredId,
    /// The relevance predicate the value is conjoined with, if masked.
    pub mask: Option<PredId>,
}

impl Column {
    /// An unmasked column reading `pred`.
    pub fn plain(pred: PredId) -> Column {
        Column { pred, mask: None }
    }

    /// The column's value at individual `u`.
    pub fn value(&self, s: &Structure, table: &PredTable, u: NodeId) -> Kleene {
        let v = s.unary(table, self.pred, u);
        match self.mask {
            Some(c) => v.and(s.unary(table, c, u)),
            None => v,
        }
    }
}

/// The canonical-name columns of `table`: every abstraction predicate in
/// ascending id order, then one masked column `p ∧ c` per predicate `p` of
/// the relevance mask `(c, P)`, in ascending id order of `p`. The list
/// depends only on the table, so hot callers compute it once per table.
pub fn name_columns(table: &PredTable) -> Vec<Column> {
    let mut cols: Vec<Column> =
        table.abstraction_preds().into_iter().map(Column::plain).collect();
    if let Some((c, preds)) = table.relevance_mask() {
        cols.extend(preds.iter().map(|&pred| Column { pred, mask: Some(c) }));
    }
    cols
}

/// The *canonical name* of an individual: its vector of column values.
pub fn canonical_name(s: &Structure, table: &PredTable, cols: &[Column], u: NodeId) -> Vec<Kleene> {
    cols.iter().map(|c| c.value(s, table, u)).collect()
}

/// Builds the packed canonical-name matrix: one row of `words_per_name(k)`
/// `u64` words per node, holding the node's `k` column values as 2-bit
/// codes (`False`=0, `Unknown`=1, `True`=2 — the Kleene truth order) packed
/// most-significant-first. Lexicographic comparison of the word rows is then
/// exactly lexicographic comparison of the Kleene value rows, so sorting and
/// grouping compare one `u64` per 32 columns instead of one byte each.
///
/// The matrix is filled by a set-bit scan of each column's two planes
/// (OR-ing code 2 for a `t` bit and code 1 for an `h` bit), so the cost is
/// one word read per plane word plus one OR per non-`False` value. A masked
/// column's planes are the Kleene conjunction of two predicates' planes:
/// `t = p.t & c.t`, `h = (p.t | p.h) & (c.t | c.h) & !t`.
fn packed_name_rows(s: &Structure, table: &PredTable, cols: &[Column]) -> (Vec<u64>, usize) {
    let wpn = cols.len().div_ceil(32);
    let mut rows = vec![0u64; s.node_count() * wpn];
    let planes = |p: PredId| {
        assert_eq!(table.arity(p), Arity::Unary, "canonical names are unary");
        s.unary_planes(table.slot(p))
    };
    let (mut and_t, mut and_h) = (Vec::new(), Vec::new());
    for (j, col) in cols.iter().enumerate() {
        let (pt, ph) = planes(col.pred);
        let (t, h) = match col.mask {
            None => (pt, ph),
            Some(c) => {
                let (ct, ch) = planes(c);
                and_t.clear();
                and_h.clear();
                for w in 0..pt.len() {
                    let t = pt[w] & ct[w];
                    and_t.push(t);
                    and_h.push((pt[w] | ph[w]) & (ct[w] | ch[w]) & !t);
                }
                (&and_t[..], &and_h[..])
            }
        };
        let (word, shift) = (j / 32, 62 - 2 * (j % 32));
        bits::for_each_set(t, |u| rows[u * wpn + word] |= 2 << shift);
        bits::for_each_set(h, |u| rows[u * wpn + word] |= 1 << shift);
    }
    (rows, wpn)
}

/// Merges all individuals that share a canonical name (the `s/≃` quotient of
/// paper §5), over the [`name_columns`] of `table`.
///
/// Returns the blurred structure together with the map from old node ids to
/// the merged node ids.
pub fn blur_with_map(s: &Structure, table: &PredTable) -> (Structure, Vec<NodeId>) {
    blur_by(s, table, &name_columns(table))
}

/// Like [`blur_with_map`] but drops the node map.
pub fn blur(s: &Structure, table: &PredTable) -> Structure {
    blur_with_map(s, table).0
}

/// Merges individuals by canonical name computed over explicit name columns
/// `cols` (all predicates must be unary), such as a precomputed
/// [`name_columns`] list.
///
/// The merged structure's nodes are ordered by ascending canonical name, so
/// blurred structures are directly comparable with `==` and hashable — two
/// blurred structures over the same table are isomorphic iff they are equal.
pub fn blur_by(s: &Structure, table: &PredTable, cols: &[Column]) -> (Structure, Vec<NodeId>) {
    quotient(s, table, cols).unwrap_or_else(|| (s.clone(), s.nodes().collect()))
}

/// The one blur path behind [`blur_by`] and [`blur_post`]: the quotient of
/// `s` and its node map, or `None` when the quotient is `s` itself (the
/// names are already sorted and nothing merges), so that a caller owning
/// `s` returns it without a copy.
fn quotient(s: &Structure, table: &PredTable, cols: &[Column]) -> Option<(Structure, Vec<NodeId>)> {
    // Group nodes by canonical name. This is the hottest allocation site of
    // the whole analysis (one call per post-structure), so instead of a
    // `HashMap<Vec<Kleene>, Vec<NodeId>>` with a fresh name vector per node,
    // canonical names live in one flat matrix of 2-bit-packed word rows (see
    // `packed_name_rows` — word order coincides with Kleene row order) and
    // grouping is a stable sort of the node order by name row. The stable
    // sort keeps members of a group in ascending node order and yields
    // groups in ascending canonical-name order — exactly the ordering the
    // map-based grouping produced (names are unique per group, so sorting
    // the collected map entries compared names only).
    let n_old = s.node_count();
    let (names, wpn) = packed_name_rows(s, table, cols);
    let name_row = |u: NodeId| &names[u.index() * wpn..u.index() * wpn + wpn];
    let mut order: Vec<NodeId> = s.nodes().collect();
    order.sort_by(|&a, &b| name_row(a).cmp(name_row(b)));
    // Group boundaries: maximal runs of `order` with equal name rows.
    let mut groups: Vec<std::ops::Range<usize>> = Vec::new();
    let mut start = 0;
    for i in 1..=order.len() {
        if i == order.len() || name_row(order[i]) != name_row(order[start]) {
            groups.push(start..i);
            start = i;
        }
    }
    let n_new = groups.len();
    if n_new == n_old && order.iter().enumerate().all(|(ix, u)| u.index() == ix) {
        // Already sorted and nothing merges: the quotient is `s` itself.
        return None;
    }
    let mut map = vec![NodeId::from_index(0); n_old];
    for (new_ix, g) in groups.iter().enumerate() {
        for &m in &order[g.clone()] {
            map[m.index()] = NodeId::from_index(new_ix);
        }
    }
    // One scatter for a pure reorder and a merge alike: every lane becomes
    // the OR of its preimages, which is already the join wherever a block
    // (a lane, or a source×destination pair of groups) has one member.
    let mut out = s.scatter(&map, n_new);
    if n_new < n_old {
        fix_merged_blocks(s, table, &order, &groups, &mut out);
    }
    Some((out, map))
}

/// The [`name_columns`] of a table together with the unary slots they read
/// (each column's predicate and its mask predicate), every slot once, as
/// maximal runs of consecutive slots. It depends only on the table, so hot
/// callers build it once per table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Names {
    columns: Vec<Column>,
    slots: Vec<std::ops::Range<usize>>,
}

impl Names {
    /// The name columns of `table` and the slots they read.
    pub fn new(table: &PredTable) -> Names {
        let columns = name_columns(table);
        let mut slots: Vec<usize> = columns
            .iter()
            .flat_map(|c| std::iter::once(c.pred).chain(c.mask))
            .map(|p| {
                assert_eq!(table.arity(p), Arity::Unary, "canonical names are unary");
                table.slot(p)
            })
            .collect();
        slots.sort_unstable();
        slots.dedup();
        let mut runs: Vec<std::ops::Range<usize>> = Vec::new();
        for slot in slots {
            match runs.last_mut() {
                Some(run) if run.end == slot => run.end += 1,
                _ => runs.push(slot..slot + 1),
            }
        }
        Names { columns, slots: runs }
    }

    /// The name columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }
}

/// Whether `post` has `pre`'s universe and `pre`'s planes on every unary
/// slot that the name columns of `names` read. Then every individual keeps
/// its canonical name: if `pre` blurs to itself (its names are sorted and
/// unique), so does `post`. Each slot is compared once, however many
/// columns read it, and each run of consecutive slots as one slice per
/// plane.
pub fn keeps_names(pre: &Structure, post: &Structure, names: &Names) -> bool {
    pre.node_count() == post.node_count()
        && names
            .slots
            .iter()
            .all(|run| pre.unary_slot_planes(run.clone()) == post.unary_slot_planes(run.clone()))
}

/// Canonical abstraction of a transfer's post-state, with the post's
/// *settled* bit (see [`crate::intern::StructureInterner::settle`]).
///
/// `post` must be a coerce fixpoint computed from `pre`, and `pre_settled`
/// may only be `true` if `pre` is settled. The result equals
/// `blur_by(&post, table, names.columns()).0`:
///
/// * if `pre` is settled and `post` [keeps its names](keeps_names), `post`
///   is its own canonical form and is returned as it is, settled;
/// * otherwise `post` is blurred, and the result is settled iff the blur
///   merged nothing: it is then a permutation of a coerce fixpoint (itself
///   one, as coerce treats nodes alike) with sorted, unique names. When the
///   names are already sorted and unique, that permutation is the identity
///   and `post` itself is returned.
pub fn blur_post(
    pre: &Structure,
    pre_settled: bool,
    post: Structure,
    table: &PredTable,
    names: &Names,
) -> (Structure, bool) {
    if pre_settled && keeps_names(pre, &post, names) {
        return (post, true);
    }
    match quotient(&post, table, &names.columns) {
        None => (post, true),
        Some((blurred, _)) => {
            let merged_nothing = blurred.node_count() == post.node_count();
            (blurred, merged_nothing)
        }
    }
}

/// Turns the OR-scattered blocks of merged groups into joins.
///
/// After the scatter a block holds `t` iff some member value is `True` and
/// `h` iff some member value is `Unknown`. The join over the members is
///
/// * `True` iff `row_t & gm == gm` for every member source row (`gm` the
///   destination group's member mask over the old universe; a unary plane
///   is a single row),
/// * `False` iff `(row_t | row_h) & gm == 0` for every member source row —
///   exactly the blocks the scatter left empty,
/// * `Unknown` otherwise.
///
/// So only blocks that touch a merged group and carry a `t` bit need work:
/// those that fail the all-`True` test become `Unknown`. `sm` is `Unknown`
/// on every merged group whatever its members held.
fn fix_merged_blocks(
    s: &Structure,
    table: &PredTable,
    order: &[NodeId],
    groups: &[std::ops::Range<usize>],
    out: &mut Structure,
) {
    let n_new = groups.len();
    let (st, out_st) = (s.stride_words(), out.stride_words());
    // Member masks over the old universe, one row per group, and the lanes
    // of the merged groups over the new universe.
    let mut gm = vec![0u64; n_new * st];
    let mut merged = vec![0u64; out_st];
    for (g, range) in groups.iter().enumerate() {
        for &m in &order[range.clone()] {
            let (w, b) = bits::lane(m.index());
            gm[g * st + w] |= 1 << b;
        }
        if range.len() > 1 {
            let (w, b) = bits::lane(g);
            merged[w] |= 1 << b;
        }
    }
    let covers = |row_t: &[u64], g: usize| {
        let mask = &gm[g * st..g * st + st];
        row_t.iter().zip(mask).all(|(&t, &m)| t & m == m)
    };
    let all = vec![!0u64; out_st];
    let sm = table.slot(table.sm());
    for slot in 0..table.unary_count() {
        let (row_t, _) = s.unary_planes(slot);
        let (t, h) = out.unary_planes_mut(slot);
        if slot == sm {
            for ((tw, hw), &mw) in t.iter_mut().zip(h.iter_mut()).zip(&merged) {
                *tw &= !mw;
                *hw |= mw;
            }
        } else {
            demote_unless(t, h, &merged, |g| covers(row_t, g));
        }
    }
    for slot in 0..table.binary_count() {
        for (si, range) in groups.iter().enumerate() {
            let members = &order[range.clone()];
            // A merged source makes every block of its row a merged block.
            let select = if members.len() > 1 { &all } else { &merged };
            let (t, h) = out.binary_row_mut(slot, si);
            demote_unless(t, h, select, |di| {
                members.iter().all(|m| covers(s.binary_row(slot, m.index()).0, di))
            });
        }
    }
}

/// Demotes to `Unknown` every lane of `t & select` for which `all_true`
/// fails.
fn demote_unless(t: &mut [u64], h: &mut [u64], select: &[u64], all_true: impl Fn(usize) -> bool) {
    for wi in 0..t.len() {
        let mut word = t[wi] & select[wi];
        while word != 0 {
            let b = word.trailing_zeros();
            word &= word - 1;
            if !all_true(wi * bits::WORD_BITS + b as usize) {
                t[wi] &= !(1 << b);
                h[wi] |= 1 << b;
            }
        }
    }
}

/// A hash-/equality-ready canonical key for a blurred structure.
///
/// Obtained from [`canonical_key`]; two structures over the same table get
/// equal keys iff their blurred forms are isomorphic.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalKey(Structure);

impl CanonicalKey {
    /// The canonically-ordered structure underlying this key.
    pub fn structure(&self) -> &Structure {
        &self.0
    }

    /// Extracts the canonically-ordered structure.
    pub fn into_structure(self) -> Structure {
        self.0
    }

    /// A 64-bit fingerprint of the canonical form (see
    /// [`Structure::fingerprint`]). Because the underlying structure is
    /// canonically ordered, isomorphic structures get equal fingerprints.
    pub fn fingerprint(&self) -> u64 {
        self.0.fingerprint()
    }
}

/// Canonicalizes an *already blurred* structure into a key: nodes are sorted
/// by canonical name (which is unique per node after blurring).
///
/// For structures that are not blurred the key is still deterministic, but
/// two isomorphic non-blurred structures with duplicate canonical names may
/// receive different keys; callers in the analysis engine always key blurred
/// structures, where keys coincide exactly with isomorphism classes.
pub fn canonical_key(s: &Structure, table: &PredTable) -> CanonicalKey {
    // Sort nodes by (canonical name, full unary row) for determinism. The
    // rows are precomputed into one flat matrix of 2-bit-packed words (word
    // order equals Kleene row order; see `packed_name_rows`): a sort key
    // closure would recompute — and reallocate — both vectors on every
    // comparison.
    let mut cols = name_columns(table);
    cols.extend(table.iter_arity(Arity::Unary).map(Column::plain));
    let (rows, wpn) = packed_name_rows(s, table, &cols);
    let row = |u: NodeId| &rows[u.index() * wpn..u.index() * wpn + wpn];
    let mut order: Vec<NodeId> = s.nodes().collect();
    order.sort_by(|&a, &b| row(a).cmp(row(b)));
    CanonicalKey(s.permute(&order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::PredFlags;

    fn table() -> (PredTable, PredId, PredId, PredId) {
        let mut t = PredTable::new();
        let x = t.add_unary("x", PredFlags::reference_variable());
        let c = t.add_unary("closed", PredFlags::boolean_field());
        let f = t.add_binary("f", PredFlags::reference_field());
        (t, x, c, f)
    }

    #[test]
    fn blur_merges_same_named_nodes() {
        let (t, x, c, f) = table();
        let mut s = Structure::new(&t);
        let a = s.add_node(&t); // x=1
        let b = s.add_node(&t); // plain
        let d = s.add_node(&t); // plain
        s.set_unary(&t, x, a, Kleene::True);
        s.set_binary(&t, f, a, b, Kleene::True);
        let (blurred, map) = blur_with_map(&s, &t);
        assert_eq!(blurred.node_count(), 2);
        let na = map[a.index()];
        let nb = map[b.index()];
        assert_eq!(map[d.index()], nb, "b and d share a canonical name");
        assert_ne!(na, nb);
        assert_eq!(blurred.unary(&t, x, na), Kleene::True);
        // b had an incoming f edge, d did not: joined to Unknown.
        assert_eq!(blurred.binary(&t, f, na, nb), Kleene::Unknown);
        // Merged node is summary; singleton stays non-summary.
        assert!(blurred.is_summary(&t, nb));
        assert!(!blurred.is_summary(&t, na));
        let _ = c;
    }

    #[test]
    fn blur_is_idempotent() {
        let (t, x, _c, f) = table();
        let mut s = Structure::new(&t);
        let a = s.add_node(&t);
        let b = s.add_node(&t);
        let d = s.add_node(&t);
        s.set_unary(&t, x, a, Kleene::True);
        s.set_binary(&t, f, a, b, Kleene::True);
        s.set_binary(&t, f, b, d, Kleene::Unknown);
        let once = blur(&s, &t);
        let twice = blur(&once, &t);
        assert_eq!(
            canonical_key(&once, &t),
            canonical_key(&twice, &t),
            "blur must be idempotent up to node order"
        );
    }

    #[test]
    fn blur_distinguishes_abstraction_values() {
        let (t, _x, c, _f) = table();
        let mut s = Structure::new(&t);
        let a = s.add_node(&t);
        let b = s.add_node(&t);
        s.set_unary(&t, c, a, Kleene::True);
        s.set_unary(&t, c, b, Kleene::False);
        let blurred = blur(&s, &t);
        assert_eq!(blurred.node_count(), 2, "different closed values stay apart");
    }

    #[test]
    fn canonical_key_identifies_isomorphic() {
        let (t, x, _c, f) = table();
        // s1: node0=x-node → node1
        let mut s1 = Structure::new(&t);
        let a = s1.add_node(&t);
        let b = s1.add_node(&t);
        s1.set_unary(&t, x, a, Kleene::True);
        s1.set_binary(&t, f, a, b, Kleene::True);
        // s2: same but with nodes created in opposite order
        let mut s2 = Structure::new(&t);
        let b2 = s2.add_node(&t);
        let a2 = s2.add_node(&t);
        s2.set_unary(&t, x, a2, Kleene::True);
        s2.set_binary(&t, f, a2, b2, Kleene::True);
        assert_ne!(s1, s2, "raw structures differ in node order");
        assert_eq!(canonical_key(&s1, &t), canonical_key(&s2, &t));
    }

    #[test]
    fn canonical_key_separates_nonisomorphic() {
        let (t, x, _c, f) = table();
        let mut s1 = Structure::new(&t);
        let a = s1.add_node(&t);
        let b = s1.add_node(&t);
        s1.set_unary(&t, x, a, Kleene::True);
        s1.set_binary(&t, f, a, b, Kleene::True);
        let mut s2 = s1.clone();
        s2.set_binary(&t, f, b, a, Kleene::True);
        assert_ne!(canonical_key(&s1, &t), canonical_key(&s2, &t));
    }

    #[test]
    fn blur_preserves_nullary() {
        let mut t = PredTable::new();
        let g = t.add_nullary("g", PredFlags::default());
        let mut s = Structure::new(&t);
        s.add_node(&t);
        s.add_node(&t);
        s.set_nullary(&t, g, Kleene::True);
        let blurred = blur(&s, &t);
        assert_eq!(blurred.nullary(&t, g), Kleene::True);
        assert_eq!(blurred.node_count(), 1);
    }

    #[test]
    fn blur_with_no_abstraction_preds_collapses_all() {
        let mut t = PredTable::new();
        let f = t.add_binary("f", PredFlags::reference_field());
        let mut s = Structure::new(&t);
        let a = s.add_node(&t);
        let b = s.add_node(&t);
        let c = s.add_node(&t);
        s.set_binary(&t, f, a, b, Kleene::True);
        s.set_binary(&t, f, b, c, Kleene::True);
        let blurred = blur(&s, &t);
        assert_eq!(blurred.node_count(), 1);
        let u = NodeId::from_index(0);
        assert!(blurred.is_summary(&t, u));
        assert_eq!(blurred.binary(&t, f, u, u), Kleene::Unknown);
    }
}
