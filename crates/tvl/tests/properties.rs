//! Property-based tests of the three-valued-logic engine's soundness
//! obligations (the embedding theorem instances the analysis relies on):
//!
//! * canonical abstraction embeds the original structure;
//! * the canonical key is invariant under node permutation;
//! * focus outputs cover the input (some output embeds each represented
//!   concrete state);
//! * coerce never discards a consistent concrete structure and never
//!   changes one;
//! * formula evaluation is monotone along blurring: the value on the
//!   blurred structure conservatively approximates the concrete value.
//!
//! Inputs are generated by a seeded in-repo PRNG (`hetsep-prng`) so the
//! suite runs with no network access; each property replays a fixed number
//! of deterministic cases, reporting the offending seed on failure.

use hetsep_prng::XorShift;

use hetsep_tvl::canon::{blur, canonical_key, name_columns, Column};
use hetsep_tvl::coerce::{coerce, CoerceOutcome};
use hetsep_tvl::embed::embeds;
use hetsep_tvl::eval::eval_closed;
use hetsep_tvl::focus::{focus, FocusSpec, DEFAULT_FOCUS_LIMIT};
use hetsep_tvl::formula::{Formula, Var};
use hetsep_tvl::pred::{PredFlags, PredId, PredTable};
use hetsep_tvl::structure::{NodeId, Structure};
use hetsep_tvl::Kleene;

const CASES: u64 = 128;
const N_VARS: usize = 2;
const N_BOOLS: usize = 2;
const N_FIELDS: usize = 2;

struct Vocab {
    table: PredTable,
    vars: Vec<PredId>,
    bools: Vec<PredId>,
    fields: Vec<PredId>,
}

fn vocab() -> Vocab {
    let mut table = PredTable::new();
    let vars = (0..N_VARS)
        .map(|i| table.add_unary(&format!("x{i}"), PredFlags::reference_variable()))
        .collect();
    let bools = (0..N_BOOLS)
        .map(|i| table.add_unary(&format!("b{i}"), PredFlags::boolean_field()))
        .collect();
    let fields = (0..N_FIELDS)
        .map(|i| table.add_binary(&format!("f{i}"), PredFlags::reference_field()))
        .collect();
    Vocab {
        table,
        vars,
        bools,
        fields,
    }
}

/// A concrete heap description: per variable an optional target, per node a
/// bool-field bitmap, per (field, node) an optional target.
#[derive(Debug, Clone)]
struct ConcreteHeap {
    nodes: usize,
    var_targets: Vec<Option<usize>>,
    bools: Vec<Vec<bool>>,
    field_targets: Vec<Vec<Option<usize>>>,
}

fn gen_heap(rng: &mut XorShift) -> ConcreteHeap {
    let nodes = 1 + rng.gen_range(4);
    let opt_target = |rng: &mut XorShift| {
        if rng.gen_bool() {
            Some(rng.gen_range(nodes))
        } else {
            None
        }
    };
    let var_targets = (0..N_VARS).map(|_| opt_target(rng)).collect();
    let field_targets = (0..N_FIELDS)
        .map(|_| (0..nodes).map(|_| opt_target(rng)).collect())
        .collect();
    let bools = (0..N_BOOLS)
        .map(|_| (0..nodes).map(|_| rng.gen_bool()).collect())
        .collect();
    ConcreteHeap {
        nodes,
        var_targets,
        bools,
        field_targets,
    }
}

fn build(v: &Vocab, h: &ConcreteHeap) -> Structure {
    let mut s = Structure::new(&v.table);
    let ids: Vec<NodeId> = (0..h.nodes).map(|_| s.add_node(&v.table)).collect();
    for (p, t) in v.vars.iter().zip(&h.var_targets) {
        if let Some(t) = t {
            s.set_unary(&v.table, *p, ids[*t], Kleene::True);
        }
    }
    for (p, col) in v.bools.iter().zip(&h.bools) {
        for (n, &b) in col.iter().enumerate() {
            s.set_unary(&v.table, *p, ids[n], Kleene::from_bool(b));
        }
    }
    for (p, col) in v.fields.iter().zip(&h.field_targets) {
        for (src, t) in col.iter().enumerate() {
            if let Some(t) = t {
                s.set_binary(&v.table, *p, ids[src], ids[*t], Kleene::True);
            }
        }
    }
    s
}

/// Random closed formulas over the vocabulary: a small and/or/not tree over
/// atoms, closed by existentials over both variables.
fn gen_formula(rng: &mut XorShift, v: &Vocab, depth: u32) -> Formula {
    if depth > 0 && rng.gen_range(2) == 0 {
        let a = gen_formula(rng, v, depth - 1);
        match rng.gen_range(3) {
            0 => return Formula::not(a),
            1 => return a.and(gen_formula(rng, v, depth - 1)),
            _ => return a.or(gen_formula(rng, v, depth - 1)),
        }
    }
    match rng.gen_range(4) {
        0 => Formula::unary(*rng.choose(&v.vars), Var(0)),
        1 => Formula::unary(*rng.choose(&v.bools), Var(0)),
        2 => Formula::binary(*rng.choose(&v.fields), Var(0), Var(1)),
        _ => Formula::eq(Var(0), Var(1)),
    }
}

fn gen_closed_formula(rng: &mut XorShift, v: &Vocab) -> Formula {
    let body = gen_formula(rng, v, 3);
    Formula::exists(Var(0), Formula::exists(Var(1), body))
}

/// blur(s) embeds s for every concrete structure.
#[test]
fn blur_embeds_concrete() {
    let v = vocab();
    for seed in 0..CASES {
        let h = gen_heap(&mut XorShift::new(seed));
        let s = build(&v, &h);
        let b = blur(&s, &v.table);
        assert!(embeds(&s, &b, &v.table), "seed {seed}");
    }
}

/// Blur is idempotent up to canonical ordering.
#[test]
fn blur_idempotent() {
    let v = vocab();
    for seed in 0..CASES {
        let h = gen_heap(&mut XorShift::new(seed));
        let s = build(&v, &h);
        let once = blur(&s, &v.table);
        let twice = blur(&once, &v.table);
        assert_eq!(
            canonical_key(&once, &v.table),
            canonical_key(&twice, &v.table),
            "seed {seed}"
        );
    }
}

/// The canonical key is invariant under permutations of the universe.
#[test]
fn canonical_key_permutation_invariant() {
    let v = vocab();
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let h = gen_heap(&mut rng);
        let s = blur(&build(&v, &h), &v.table);
        let n = s.node_count();
        let mut perm: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        rng.shuffle(&mut perm);
        let p = s.permute(&perm);
        assert_eq!(
            canonical_key(&s, &v.table),
            canonical_key(&p, &v.table),
            "seed {seed}"
        );
    }
}

/// Focus on a variable covers the blurred structure: for the concrete
/// state, some focused output still embeds it.
#[test]
fn focus_covers() {
    let v = vocab();
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let h = gen_heap(&mut rng);
        let var_ix = rng.gen_range(N_VARS);
        let s = build(&v, &h);
        let b = blur(&s, &v.table);
        let out = focus(
            &b,
            &v.table,
            &FocusSpec::Unary(v.vars[var_ix]),
            DEFAULT_FOCUS_LIMIT,
        );
        assert!(
            out.iter().any(|o| embeds(&s, o, &v.table)),
            "seed {seed}: no focused output embeds the concrete state"
        );
    }
}

/// Focus + coerce still covers: coercion may sharpen or discard focused
/// variants, but some surviving variant embeds the concrete state.
#[test]
fn focus_then_coerce_covers() {
    let v = vocab();
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let h = gen_heap(&mut rng);
        let var_ix = rng.gen_range(N_VARS);
        let s = build(&v, &h);
        let b = blur(&s, &v.table);
        let out = focus(
            &b,
            &v.table,
            &FocusSpec::Unary(v.vars[var_ix]),
            DEFAULT_FOCUS_LIMIT,
        );
        let survivors: Vec<_> = out
            .iter()
            .filter_map(|o| coerce(o, &v.table).feasible())
            .collect();
        assert!(
            survivors.iter().any(|o| embeds(&s, o, &v.table)),
            "seed {seed}: no coerced output embeds the concrete state"
        );
    }
}

/// Coerce is the identity on consistent concrete structures.
#[test]
fn coerce_fixes_concrete() {
    let v = vocab();
    for seed in 0..CASES {
        let h = gen_heap(&mut XorShift::new(seed));
        let s = build(&v, &h);
        match coerce(&s, &v.table) {
            CoerceOutcome::Feasible(out) => assert_eq!(out, s, "seed {seed}"),
            CoerceOutcome::Infeasible => panic!("seed {seed}: concrete structure discarded"),
        }
    }
}

/// Evaluation is conservative along blurring: the blurred value
/// information-approximates the concrete value.
#[test]
fn eval_monotone_under_blur() {
    let v = vocab();
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let h = gen_heap(&mut rng);
        let f = gen_closed_formula(&mut rng, &v);
        let s = build(&v, &h);
        let b = blur(&s, &v.table);
        let cv = eval_closed(&s, &v.table, &f);
        let av = eval_closed(&b, &v.table, &f);
        assert!(
            cv.le_info(av),
            "seed {seed}: concrete {cv} not approximated by abstract {av} for {f}"
        );
    }
}

/// Structure equality after canonicalization coincides with isomorphism
/// on blurred structures.
#[test]
fn canonical_equality_is_isomorphism() {
    let v = vocab();
    for seed in 0..CASES {
        let h = gen_heap(&mut XorShift::new(seed));
        let s = blur(&build(&v, &h), &v.table);
        let reversed: Vec<NodeId> = (0..s.node_count()).rev().map(NodeId::from_index).collect();
        let p = s.permute(&reversed);
        assert!(
            hetsep_tvl::embed::is_isomorphic(&s, &p, &v.table),
            "seed {seed}"
        );
        assert_eq!(
            canonical_key(&s, &v.table),
            canonical_key(&p, &v.table),
            "seed {seed}"
        );
    }
}

/// The per-node canonical abstraction: the original map-based grouping (a
/// fresh canonical-name `Vec` per node in a `HashMap`, then sorted) and a
/// Kleene join per node, per node pair and per predicate. `blur_by` must be
/// output-identical to it.
fn reference_blur_by(
    s: &Structure,
    table: &PredTable,
    abs: &[Column],
) -> (Structure, Vec<NodeId>) {
    use hetsep_tvl::canon::canonical_name;
    use hetsep_tvl::pred::Arity;
    use std::collections::HashMap;

    let mut groups: HashMap<Vec<Kleene>, Vec<NodeId>> = HashMap::new();
    for u in s.nodes() {
        groups
            .entry(canonical_name(s, table, abs, u))
            .or_default()
            .push(u);
    }
    let mut named: Vec<(Vec<Kleene>, Vec<NodeId>)> = groups.into_iter().collect();
    named.sort();

    let n_new = named.len();
    let n_old = s.node_count();
    let mut map = vec![NodeId::from_index(0); n_old];
    for (new_ix, (_, members)) in named.iter().enumerate() {
        for &m in members {
            map[m.index()] = NodeId::from_index(new_ix);
        }
    }

    let mut out = Structure::new(table);
    for _ in 0..n_new {
        out.add_node(table);
    }
    for p in table.iter_arity(Arity::Nullary) {
        out.set_nullary(table, p, s.nullary(table, p));
    }
    let sm = table.sm();
    for p in table.iter_arity(Arity::Unary) {
        for (new_ix, (_, members)) in named.iter().enumerate() {
            let mut acc: Option<Kleene> = None;
            for &m in members {
                let v = s.unary(table, p, m);
                acc = Some(match acc {
                    None => v,
                    Some(a) => a.join(v),
                });
            }
            let mut v = acc.expect("group is nonempty");
            if p == sm && members.len() > 1 {
                v = Kleene::Unknown;
            }
            out.set_unary(table, p, NodeId::from_index(new_ix), v);
        }
    }
    for p in table.iter_arity(Arity::Binary) {
        for (si, (_, src_members)) in named.iter().enumerate() {
            for (di, (_, dst_members)) in named.iter().enumerate() {
                let mut acc: Option<Kleene> = None;
                for &sm_ in src_members {
                    for &dm in dst_members {
                        let v = s.binary(table, p, sm_, dm);
                        acc = Some(match acc {
                            None => v,
                            Some(a) => a.join(v),
                        });
                    }
                }
                out.set_binary(
                    table,
                    p,
                    NodeId::from_index(si),
                    NodeId::from_index(di),
                    acc.expect("groups are nonempty"),
                );
            }
        }
    }
    (out, map)
}

/// The plane-based `blur_by` is output-identical to `reference_blur_by`:
/// both the blurred structure and the old→new node map agree on every input.
///
/// Two input families: small concrete heaps with indefinite values sprinkled
/// in (and their blurred forms, which carry summary nodes), and random
/// three-valued structures at every `PLANE_SIZES` universe size, so multi-word
/// strides are blurred too. The latter draw abstraction values from few
/// choices, so groups of two up to all `n` members form, and carry summary
/// nodes and `Unknown` binary entries before blurring.
#[test]
fn blur_by_matches_reference_grouping() {
    use hetsep_tvl::canon::blur_by;

    let v = vocab();
    let abs = name_columns(&v.table);
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let h = gen_heap(&mut rng);
        let mut s = build(&v, &h);
        // Sprinkle indefinite values so canonical names also carry 1/2.
        let nodes: Vec<NodeId> = s.nodes().collect();
        for &u in &nodes {
            if rng.gen_bool() {
                let p = *rng.choose(&v.bools);
                s.set_unary(&v.table, p, u, Kleene::Unknown);
            }
        }
        assert_eq!(
            blur_by(&s, &v.table, &abs),
            reference_blur_by(&s, &v.table, &abs),
            "seed {seed}: sort-based grouping diverged on a concrete structure"
        );
        // Re-blur the blurred structure: exercises summary nodes and
        // duplicate-free grouping.
        let b = blur(&s, &v.table);
        assert_eq!(
            blur_by(&b, &v.table, &abs),
            reference_blur_by(&b, &v.table, &abs),
            "seed {seed}: sort-based grouping diverged on a blurred structure"
        );
    }

    let mut table = PredTable::new();
    let named = [
        table.add_unary("a", PredFlags::boolean_field()),
        table.add_unary("b", PredFlags::boolean_field()),
    ];
    let plain = table.add_unary("p", PredFlags::default());
    let fields = [
        table.add_binary("f", PredFlags::default()),
        table.add_binary("g", PredFlags::default()),
    ];
    let c = table.add_nullary("c", PredFlags::default());
    let abs = name_columns(&table);
    for (ix, &n) in PLANE_SIZES.iter().enumerate() {
        let mut merged_all = false;
        for case in 0..if n <= 5 { CASES } else { 16 } {
            let seed = (ix as u64) << 32 | case;
            let mut rng = XorShift::new(seed);
            let mut s = Structure::new(&table);
            s.add_nodes(&table, n);
            s.set_nullary(&table, c, gen_kleene(&mut rng));
            // How many of the abstraction predicates vary: none (one group of
            // all `n` nodes), one over {0, 1}, or both over all three values.
            let spread = rng.gen_range(3);
            let nodes: Vec<NodeId> = s.nodes().collect();
            for &u in &nodes {
                let a = match spread {
                    0 => Kleene::False,
                    1 => Kleene::from_bool(rng.gen_bool()),
                    _ => gen_kleene(&mut rng),
                };
                s.set_unary(&table, named[0], u, a);
                if spread == 2 {
                    s.set_unary(&table, named[1], u, gen_kleene(&mut rng));
                }
                s.set_unary(&table, plain, u, gen_kleene(&mut rng));
                s.set_summary(&table, u, rng.gen_ratio(1, 4));
                for &f in &fields {
                    for &w in &nodes {
                        if rng.gen_ratio(1, 3) {
                            s.set_binary(&table, f, u, w, gen_kleene(&mut rng));
                        }
                    }
                }
            }
            let got = blur_by(&s, &table, &abs);
            merged_all |= n > 1 && got.0.node_count() == 1;
            assert_eq!(got, reference_blur_by(&s, &table, &abs), "seed {seed} n={n}");
        }
        assert!(n <= 1 || merged_all, "n={n}: no case merged every node");
    }
}

/// Blur under a relevance mask `(c, P)` is blur over explicitly stored
/// conjunctions: on random structures at every `PLANE_SIZES` universe size,
/// blurring over `name_columns` of a masked table gives the same node map
/// (hence the same node order) and the same value of every predicate as
/// blurring a copy over a table that instead registers one abstraction
/// predicate `q = p ∧ c` per `p ∈ P` after all others (the stored
/// predicates the paper's prototype used). Only the stored `q` columns
/// themselves are not compared. `p` and `c` take all three values, nodes
/// are summaries at random, `P` is a random subset of two plain predicates
/// and one abstraction predicate (empty included), and `c` is an
/// abstraction predicate in some cases only. The masked blur is also
/// checked against the per-node `reference_blur_by`, which evaluates each
/// masked column with `Kleene::and`.
#[test]
fn masked_blur_matches_materialized_conjunction() {
    use hetsep_tvl::canon::blur_by;
    use hetsep_tvl::pred::Arity;

    let mut empty_mask = false;
    for (ix, &n) in PLANE_SIZES.iter().enumerate() {
        let mut merged_masked = false;
        for case in 0..if n <= 5 { CASES } else { 16 } {
            let seed = (ix as u64) << 32 | case;
            let mut rng = XorShift::new(seed);
            let mut masked = PredTable::new();
            let a = masked.add_unary("a", PredFlags::boolean_field());
            let p0 = masked.add_unary("p0", PredFlags::default());
            let p1 = masked.add_unary("p1", PredFlags::default());
            let c_flags = if rng.gen_bool() {
                PredFlags::boolean_field()
            } else {
                PredFlags::default()
            };
            let c = masked.add_unary("c", c_flags);
            let fields = [
                masked.add_binary("f", PredFlags::default()),
                masked.add_binary("g", PredFlags::default()),
            ];
            let flag = masked.add_nullary("flag", PredFlags::default());
            // P in random order: the table keeps it sorted.
            let preds: Vec<PredId> = [p0, a, p1].into_iter().filter(|_| rng.gen_bool()).collect();
            empty_mask |= preds.is_empty();
            let mut sorted = preds.clone();
            sorted.sort();
            let mut stored = masked.clone();
            let q: Vec<(PredId, PredId)> = sorted
                .into_iter()
                .map(|p| {
                    let name = format!("q${}", masked.name(p));
                    (p, stored.add_unary(&name, PredFlags::boolean_field()))
                })
                .collect();
            masked.set_relevance_mask(c, preds);

            let mut s = Structure::new(&masked);
            s.add_nodes(&masked, n);
            s.set_nullary(&masked, flag, gen_kleene(&mut rng));
            let nodes: Vec<NodeId> = s.nodes().collect();
            for &u in &nodes {
                // `a` from few values so merges happen; `c` false on about
                // half the nodes, where the masked columns agree whatever
                // `p` holds.
                s.set_unary(&masked, a, u, Kleene::from_bool(rng.gen_ratio(1, 4)));
                let cv = if rng.gen_bool() { Kleene::False } else { gen_kleene(&mut rng) };
                s.set_unary(&masked, c, u, cv);
                s.set_unary(&masked, p0, u, gen_kleene(&mut rng));
                s.set_unary(&masked, p1, u, gen_kleene(&mut rng));
                s.set_summary(&masked, u, rng.gen_ratio(1, 4));
                for &f in &fields {
                    for &w in &nodes {
                        if rng.gen_ratio(1, 3) {
                            s.set_binary(&masked, f, u, w, gen_kleene(&mut rng));
                        }
                    }
                }
            }
            // The same structure over the stored table, with q = p ∧ c.
            let mut t = Structure::new(&stored);
            t.add_nodes(&stored, n);
            t.set_nullary(&stored, flag, s.nullary(&masked, flag));
            for &u in &nodes {
                for p in masked.iter_arity(Arity::Unary) {
                    t.set_unary(&stored, p, u, s.unary(&masked, p, u));
                }
                for &(p, qp) in &q {
                    let conj = s.unary(&masked, p, u).and(s.unary(&masked, c, u));
                    t.set_unary(&stored, qp, u, conj);
                }
                for &f in &fields {
                    for &w in &nodes {
                        t.set_binary(&stored, f, u, w, s.binary(&masked, f, u, w));
                    }
                }
            }

            let cols = name_columns(&masked);
            assert_eq!(cols.len(), name_columns(&stored).len(), "seed {seed} n={n}");
            let (bm, map_m) = blur_by(&s, &masked, &cols);
            let (bs, map_s) = blur_by(&t, &stored, &name_columns(&stored));
            assert_eq!(map_m, map_s, "seed {seed} n={n}: node maps differ");
            assert_eq!(bm.node_count(), bs.node_count(), "seed {seed} n={n}");
            assert_eq!(bm.nullary(&masked, flag), bs.nullary(&stored, flag), "seed {seed} n={n}");
            let new_nodes: Vec<NodeId> = bm.nodes().collect();
            for &u in &new_nodes {
                for p in masked.iter_arity(Arity::Unary) {
                    assert_eq!(
                        bm.unary(&masked, p, u),
                        bs.unary(&stored, p, u),
                        "seed {seed} n={n}: {} at {u:?}",
                        masked.name(p)
                    );
                }
                for &f in &fields {
                    for &w in &new_nodes {
                        assert_eq!(
                            bm.binary(&masked, f, u, w),
                            bs.binary(&stored, f, u, w),
                            "seed {seed} n={n}"
                        );
                    }
                }
            }
            // The mask must matter: some case merges nodes that the
            // unmasked columns keep apart.
            let unmasked: Vec<Column> = cols.iter().map(|col| Column::plain(col.pred)).collect();
            merged_masked |= bm.node_count() < blur_by(&s, &masked, &unmasked).0.node_count();
            assert_eq!(
                (bm, map_m),
                reference_blur_by(&s, &masked, &cols),
                "seed {seed} n={n}: masked blur diverged from the per-node reference"
            );
        }
        assert!(n < 5 || merged_masked, "n={n}: the mask never merged more nodes");
    }
    assert!(empty_mask, "no case drew an empty P");
}

/// `Structure::permute` moves every value to its permuted place: on random
/// structures at every `PLANE_SIZES` universe size and random permutations,
/// it equals a per-bit `get`/`set` copy.
#[test]
fn permute_matches_per_bit_reference() {
    use hetsep_tvl::pred::Arity;
    let v = plane_vocab();
    let t = &v.table;
    for (ix, &n) in PLANE_SIZES.iter().enumerate() {
        for case in 0..if n <= 5 { CASES } else { 16 } {
            let seed = (ix as u64) << 32 | case;
            let mut rng = XorShift::new(seed);
            let s = gen_plane_structure(&mut rng, &v, n);
            let mut perm: Vec<NodeId> = s.nodes().collect();
            rng.shuffle(&mut perm);
            let mut want = Structure::new(t);
            want.add_nodes(t, n);
            want.set_nullary(t, v.nullary, s.nullary(t, v.nullary));
            for (new, &old) in perm.iter().enumerate() {
                let new = NodeId::from_index(new);
                for p in t.iter_arity(Arity::Unary) {
                    want.set_unary(t, p, new, s.unary(t, p, old));
                }
                for p in t.iter_arity(Arity::Binary) {
                    for (dst, &old_dst) in perm.iter().enumerate() {
                        let val = s.binary(t, p, old, old_dst);
                        want.set_binary(t, p, new, NodeId::from_index(dst), val);
                    }
                }
            }
            assert_eq!(s.permute(&perm), want, "seed {seed} n={n}");
        }
    }
}

/// Exhaustive truth table for the word-parallel `⊑` violation mask: each of
/// the 3×3 operand pairs is planted in each of the 64 lanes of a word (with
/// all other lanes cycling through the full pair space so neighbouring lanes
/// are never neutral), and the word-level result must agree with the scalar
/// `kleene.rs` `le_info` lane by lane.
#[test]
fn word_kernels_match_scalar_truth_tables_in_every_lane() {
    use hetsep_tvl::bits;

    const ALL: [Kleene; 3] = [Kleene::False, Kleene::Unknown, Kleene::True];
    let pair = |ix: usize| (ALL[ix % 3], ALL[(ix / 3) % 3]);

    for planted in 0..9 {
        for lane in 0..64 {
            // Build one word pair: `lane` carries `planted`, lane j ≠ lane
            // carries pair (planted + j) % 9.
            let (mut ta, mut ha, mut tb, mut hb) = (0u64, 0u64, 0u64, 0u64);
            let mut scalar = [(Kleene::False, Kleene::False); 64];
            for (j, slot) in scalar.iter_mut().enumerate() {
                let ix = if j == lane { planted } else { (planted + j) % 9 };
                let (a, b) = pair(ix);
                *slot = (a, b);
                let (at, ah) = a.to_bits();
                let (bt, bh) = b.to_bits();
                ta |= (at as u64) << j;
                ha |= (ah as u64) << j;
                tb |= (bt as u64) << j;
                hb |= (bh as u64) << j;
            }
            let viol = bits::le_info_violations(ta, ha, tb, hb, !0);
            for (j, &(a, b)) in scalar.iter().enumerate() {
                assert_eq!(viol >> j & 1 == 1, !a.le_info(b), "le lane {j} ({a},{b})");
            }
        }
    }
}

/// The wide-lane block kernel `or_into` is word for word its scalar
/// definition: every operand pair planted in every lane of a row spanning
/// one full unrolled block plus a scalar remainder.
#[test]
fn block_kernels_match_word_kernels_in_every_lane() {
    use hetsep_tvl::bits;

    const ALL: [Kleene; 3] = [Kleene::False, Kleene::Unknown, Kleene::True];
    let pair = |ix: usize| (ALL[ix % 3], ALL[(ix / 3) % 3]);
    // One full 4-word block plus a remainder word: the unrolled body, the
    // block boundary, and the tail loop are all on the path.
    const WORDS: usize = 5;

    for planted in 0..9 {
        for lane in 0..WORDS * 64 {
            let (mut ta, mut tb) = ([0u64; WORDS], [0u64; WORDS]);
            for j in 0..WORDS * 64 {
                let ix = if j == lane { planted } else { (planted + j) % 9 };
                let (a, b) = pair(ix);
                let (w, bit) = bits::lane(j);
                ta[w] |= (a.to_bits().0 as u64) << bit;
                tb[w] |= (b.to_bits().0 as u64) << bit;
            }

            let mut dst = ta;
            bits::or_into(&mut dst, &tb);
            for w in 0..WORDS {
                assert_eq!(dst[w], ta[w] | tb[w], "or_into word {w}");
            }
        }
    }
}

/// The block *scan* kernels honour lane validity and slab strides: padding
/// lanes (zero by the plane invariant, so they read as `False`) must never
/// count as a ∀-counterexample, a `⊑` violation planted only in a padding
/// lane must be masked out, and violations or overlaps in any valid lane of
/// any row — first word, block interior, tail — must be found.
#[test]
fn block_scan_kernels_respect_stride_padding() {
    use hetsep_tvl::bits;

    // any_false: all-True valid lanes with inherently-False padding.
    for n in [1usize, 63, 64, 65, 127, 128, 130, 257, 320] {
        let words = bits::words_for(n);
        let mut t = vec![0u64; words];
        let h = vec![0u64; words];
        for (w, tw) in t.iter_mut().enumerate() {
            *tw = bits::word_mask(n, w);
        }
        assert!(!bits::any_false(&t, &h, n), "n={n}: padding must not read as False");
        for probe in [0, n / 2, n - 1] {
            let (w, b) = bits::lane(probe);
            let saved = t[w];
            t[w] &= !(1u64 << b);
            assert!(bits::any_false(&t, &h, n), "n={n}: missed False at lane {probe}");
            t[w] = saved;
        }
    }

    // le_info_any over a 3-row slab (binary-plane geometry).
    for n in [5usize, 63, 65, 130, 300] {
        let stride = bits::words_for(n);
        let rows = 3;
        let len = rows * stride;
        // a == b == all-Unknown on valid lanes: ordered, no violation.
        let mut ta = vec![0u64; len];
        let mut ha = vec![0u64; len];
        let tb = vec![0u64; len];
        let mut hb = vec![0u64; len];
        for r in 0..rows {
            for w in 0..stride {
                ha[r * stride + w] = bits::word_mask(n, w);
                hb[r * stride + w] = bits::word_mask(n, w);
            }
        }
        assert!(!bits::le_info_any(&ta, &ha, &tb, &hb, n, stride), "n={n}: ⊑ holds");
        if n % 64 != 0 {
            // a=True vs b=False planted in a *padding* lane of the middle
            // row's tail word: a violation bit-wise, but invalid — masked.
            let w = stride + stride - 1;
            ta[w] |= 1u64 << 63;
            assert!(
                !bits::le_info_any(&ta, &ha, &tb, &hb, n, stride),
                "n={n}: padding-lane violation must be masked out"
            );
            ta[w] &= !(1u64 << 63);
        }
        for (row, probe) in [(0, 0), (1, n / 2), (rows - 1, n - 1)] {
            // a=True vs b=False at a valid lane: a real violation.
            let (w, b) = bits::lane(probe);
            let ix = row * stride + w;
            let (sta, sha, shb) = (ta[ix], ha[ix], hb[ix]);
            ta[ix] |= 1u64 << b;
            ha[ix] &= !(1u64 << b);
            hb[ix] &= !(1u64 << b);
            assert!(
                bits::le_info_any(&ta, &ha, &tb, &hb, n, stride),
                "n={n}: missed violation at row {row} lane {probe}"
            );
            ta[ix] = sta;
            ha[ix] = sha;
            hb[ix] = shb;
        }
    }

    // overlap_any: split the universe, no overlap; then share one lane.
    for n in [1usize, 64, 65, 200, 260] {
        let words = bits::words_for(n);
        let (mut t1, h1) = (vec![0u64; words], vec![0u64; words]);
        let (mut t2, mut h2) = (vec![0u64; words], vec![0u64; words]);
        let split = n / 2;
        for j in 0..n {
            let (w, b) = bits::lane(j);
            if j < split {
                t1[w] |= 1u64 << b;
            } else if j % 2 == 0 {
                t2[w] |= 1u64 << b;
            } else {
                h2[w] |= 1u64 << b;
            }
        }
        assert!(
            !bits::overlap_any(&t1, &h1, &t2, &h2),
            "n={n}: disjoint supports must not overlap"
        );
        if split > 0 {
            let (w, b) = bits::lane(split - 1);
            h2[w] |= 1u64 << b;
            assert!(
                bits::overlap_any(&t1, &h1, &t2, &h2),
                "n={n}: shared lane {j} must overlap",
                j = split - 1
            );
        }
    }
}

/// Stride padding never leaks: running a structure through the full mutating
/// pipeline (bulk grow, duplicate, permute, blur, coerce) at universe
/// sizes straddling the 64-bit word boundary always leaves it
/// byte-identical — `==`, hash, and fingerprint — to a clean rebuild from
/// its accessor-visible values. Any stray bit past `n` in a plane word would
/// break at least one of the three.
#[test]
fn stride_padding_bits_never_leak() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn rebuild(s: &Structure, table: &PredTable) -> Structure {
        use hetsep_tvl::pred::Arity;
        let mut out = Structure::new(table);
        out.add_nodes(table, s.node_count());
        for p in table.iter_arity(Arity::Nullary) {
            out.set_nullary(table, p, s.nullary(table, p));
        }
        for p in table.iter_arity(Arity::Unary) {
            for u in s.nodes() {
                out.set_unary(table, p, u, s.unary(table, p, u));
            }
        }
        for p in table.iter_arity(Arity::Binary) {
            for a in s.nodes() {
                for b in s.nodes() {
                    out.set_binary(table, p, a, b, s.binary(table, p, a, b));
                }
            }
        }
        out
    }

    fn hash_of(s: &Structure) -> u64 {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    let v = vocab();
    for n in [1usize, 62, 63, 64, 65, 127, 128, 130] {
        let mut rng = XorShift::new(n as u64);
        let mut s = Structure::new(&v.table);
        s.add_nodes(&v.table, n);
        let ids: Vec<NodeId> = s.nodes().collect();
        for &u in &ids {
            let p = *rng.choose(&v.bools);
            s.set_unary(&v.table, p, u, [Kleene::True, Kleene::Unknown][rng.gen_range(2)]);
            let f = *rng.choose(&v.fields);
            let t = ids[rng.gen_range(n)];
            s.set_binary(&v.table, f, u, t, Kleene::True);
        }
        s.set_unary(&v.table, v.vars[0], ids[n - 1], Kleene::True);

        // Mutating pipeline across the word boundary.
        s.duplicate_node(&v.table, ids[0]);
        let mut perm: Vec<NodeId> = s.nodes().collect();
        rng.shuffle(&mut perm);
        s = s.permute(&perm);
        let s = blur(&s, &v.table);
        let s = coerce(&s, &v.table)
            .feasible()
            .expect("pipeline output stays feasible");

        let clean = rebuild(&s, &v.table);
        assert_eq!(s, clean, "n={n}: equality must ignore nothing but values");
        assert_eq!(
            s.fingerprint(),
            clean.fingerprint(),
            "n={n}: fingerprint must be a pure function of the values"
        );
        assert_eq!(hash_of(&s), hash_of(&clean), "n={n}: hashes must agree");
        // Count folds see exactly the universe, never padding lanes.
        let all = s.nodes_where(&v.table, v.table.sm());
        assert!(all.len() <= s.node_count(), "n={n}");
        assert!(
            s.nodes_where(&v.table, v.vars[1]).is_empty(),
            "n={n}: unset predicate scans empty"
        );
    }
}

/// `blur` output is already canonical: nodes come out ordered by ascending
/// canonical name and names are unique per node (that is what merging
/// guarantees), so `canonical_key` on a blurred structure is the identity —
/// the keyed structure is byte-equal to the blurred one. The engine relies
/// on this to skip the re-keying pass on every post-structure.
#[test]
fn canonical_key_is_identity_on_blurred() {
    let v = vocab();
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let h = gen_heap(&mut rng);
        let mut s = build(&v, &h);
        let nodes: Vec<NodeId> = s.nodes().collect();
        for &u in &nodes {
            if rng.gen_bool() {
                let p = *rng.choose(&v.bools);
                s.set_unary(&v.table, p, u, Kleene::Unknown);
            }
        }
        let b = blur(&s, &v.table);
        assert_eq!(
            canonical_key(&b, &v.table).into_structure(),
            b,
            "seed {seed}: canonical_key must be the identity on blur output"
        );
    }
}

// ---------------------------------------------------------------------------
// Plane evaluation against a per-node reference.
//
// `Evaluator::planes` sweeps a formula over every binding of one variable at
// once, and scalar `eval` folds quantifier bodies through the same planes.
// The reference below is the textbook per-node Kleene evaluator: quantifiers
// loop over the universe and a transitive closure relaxes max-min paths from
// its source. Both properties compare the two on random formulas over random
// structures, at universe sizes on both sides of the 64-lane word boundary.

/// Universe sizes: empty, tiny, a few lanes, and straddling one and two
/// plane words.
const PLANE_SIZES: [usize; 8] = [0, 1, 2, 5, 63, 64, 65, 130];
/// Variable pool: four names, so quantifiers shadow and closure bodies
/// mention outer variables.
const POOL: [Var; 4] = [Var(0), Var(1), Var(2), Var(3)];

struct PlaneVocab {
    table: PredTable,
    unary: Vec<PredId>,
    binary: Vec<PredId>,
    nullary: PredId,
}

fn plane_vocab() -> PlaneVocab {
    let mut table = PredTable::new();
    let unary = vec![
        table.add_unary("p", PredFlags::default()),
        table.add_unary("q", PredFlags::default()),
        table.sm(),
    ];
    let binary = vec![
        table.add_binary("f", PredFlags::default()),
        table.add_binary("g", PredFlags::default()),
    ];
    let nullary = table.add_nullary("c", PredFlags::default());
    PlaneVocab { table, unary, binary, nullary }
}

fn gen_kleene(rng: &mut XorShift) -> Kleene {
    [Kleene::False, Kleene::Unknown, Kleene::True][rng.gen_range(3)]
}

/// A random structure with `n` nodes: about a quarter of them summaries,
/// every unary and nullary value random, binary values sparse.
fn gen_plane_structure(rng: &mut XorShift, v: &PlaneVocab, n: usize) -> Structure {
    let t = &v.table;
    let mut s = Structure::new(t);
    s.add_nodes(t, n);
    let nodes: Vec<NodeId> = s.nodes().collect();
    s.set_nullary(t, v.nullary, gen_kleene(rng));
    for &u in &nodes {
        for &p in &v.unary[..2] {
            s.set_unary(t, p, u, gen_kleene(rng));
        }
        s.set_summary(t, u, rng.gen_ratio(1, 4));
        for &f in &v.binary {
            for &w in &nodes {
                if rng.gen_ratio(1, 4) {
                    s.set_binary(t, f, u, w, gen_kleene(rng));
                }
            }
        }
    }
    s
}

/// A random formula over every constructor. `quants` bounds the number of
/// nested quantifiers and closures, so the reference stays polynomial at
/// the larger universe sizes. Besides free combinations it builds the
/// relational-product shapes `∃w. φ ∧ R` and `∀w. φ ∨ R` (either operand
/// order, `R` a row, column or negated atom over `w` and another variable,
/// `φ` usually free of that variable) and their mismatched duals
/// `∃w. φ ∨ R` and `∀w. φ ∧ R`.
fn gen_plane_formula(rng: &mut XorShift, v: &PlaneVocab, depth: u32, quants: u32) -> Formula {
    let var = |rng: &mut XorShift| *rng.choose(&POOL);
    if depth > 0 && rng.gen_range(3) != 0 {
        let pick = rng.gen_range(if quants > 0 { 8 } else { 3 });
        let sub = |rng: &mut XorShift, q| gen_plane_formula(rng, v, depth - 1, q);
        return match pick {
            0 => sub(rng, quants).not(),
            1 => sub(rng, quants).and(sub(rng, quants)),
            2 => sub(rng, quants).or(sub(rng, quants)),
            3 => Formula::exists(var(rng), sub(rng, quants - 1)),
            4 => Formula::forall(var(rng), sub(rng, quants - 1)),
            6 | 7 => {
                let w = var(rng);
                let y = *rng.choose(&POOL.iter().copied().filter(|&z| z != w).collect::<Vec<_>>());
                let r = *rng.choose(&v.binary);
                let rel = match rng.gen_range(3) {
                    0 => Formula::binary(r, w, y),
                    1 => Formula::binary(r, y, w),
                    _ => Formula::binary(r, w, y).not(),
                };
                let sel = match rng.gen_range(3) {
                    0 => Formula::unary(*rng.choose(&v.unary), w),
                    1 => Formula::unary(*rng.choose(&v.unary), w).not(),
                    _ => sub(rng, quants - 1),
                };
                let (l, r) = if rng.gen_bool() { (sel, rel) } else { (rel, sel) };
                // `matched`: `∧` under `∃`, `∨` under `∀`.
                let (exists, matched) = (rng.gen_bool(), pick == 6);
                let body = if exists == matched { l.and(r) } else { l.or(r) };
                if exists {
                    Formula::exists(w, body)
                } else {
                    Formula::forall(w, body)
                }
            }
            _ => {
                let (lhs, rhs) = (var(rng), var(rng));
                let a = var(rng);
                let b = *rng.choose(&POOL.iter().copied().filter(|&x| x != a).collect::<Vec<_>>());
                // The step relation usually relates `a` and `b`, sometimes
                // with a third free variable from outside the closure.
                let step = Formula::binary(*rng.choose(&v.binary), a, b);
                let body = match rng.gen_range(3) {
                    0 => step,
                    1 => step.and(sub(rng, 0)),
                    _ => step.or(sub(rng, quants - 1)),
                };
                Formula::tc(lhs, rhs, a, b, body)
            }
        };
    }
    match rng.gen_range(6) {
        0 => Formula::Const(gen_kleene(rng)),
        1 => Formula::nullary(v.nullary),
        2 | 3 => Formula::unary(*rng.choose(&v.unary), var(rng)),
        4 => Formula::binary(*rng.choose(&v.binary), var(rng), var(rng)),
        _ => Formula::eq(var(rng), var(rng)),
    }
}

/// Per-node Kleene evaluation: the specification the planes must meet.
fn reference_eval(s: &Structure, t: &PredTable, f: &Formula, asg: &mut [Option<NodeId>]) -> Kleene {
    let at = |asg: &[Option<NodeId>], x: &Var| asg[x.0 as usize].expect("bound");
    match f {
        Formula::Const(k) => *k,
        Formula::Nullary(p) => s.nullary(t, *p),
        Formula::Unary(p, x) => s.unary(t, *p, at(asg, x)),
        Formula::Binary(p, a, b) => s.binary(t, *p, at(asg, a), at(asg, b)),
        Formula::Eq(a, b) => {
            let (u, w) = (at(asg, a), at(asg, b));
            if u != w {
                Kleene::False
            } else if s.is_summary(t, u) {
                Kleene::Unknown
            } else {
                Kleene::True
            }
        }
        Formula::Not(g) => !reference_eval(s, t, g, asg),
        Formula::And(l, r) => reference_eval(s, t, l, asg) & reference_eval(s, t, r, asg),
        Formula::Or(l, r) => reference_eval(s, t, l, asg) | reference_eval(s, t, r, asg),
        Formula::Exists(x, g) | Formula::Forall(x, g) => {
            let exists = matches!(f, Formula::Exists(..));
            let saved = asg[x.0 as usize];
            let mut acc = Kleene::from_bool(!exists);
            for u in s.nodes() {
                asg[x.0 as usize] = Some(u);
                let val = reference_eval(s, t, g, asg);
                acc = if exists { acc | val } else { acc & val };
            }
            asg[x.0 as usize] = saved;
            acc
        }
        Formula::Tc { lhs, rhs, a, b, body } => {
            let (src, dst) = (at(asg, lhs), at(asg, rhs));
            let (sa, sb) = (asg[a.0 as usize], asg[b.0 as usize]);
            let nodes: Vec<NodeId> = s.nodes().collect();
            let mut step = Vec::with_capacity(nodes.len() * nodes.len());
            for &u in &nodes {
                for &w in &nodes {
                    asg[a.0 as usize] = Some(u);
                    asg[b.0 as usize] = Some(w);
                    step.push(reference_eval(s, t, body, asg));
                }
            }
            let edge = |u: NodeId, w: NodeId| step[u.index() * nodes.len() + w.index()];
            // best[w]: the max over paths src → w of the min edge value.
            let mut best: Vec<Kleene> = nodes.iter().map(|&w| edge(src, w)).collect();
            let rank = |k: Kleene| [Kleene::False, Kleene::Unknown, Kleene::True].iter().position(|&x| x == k);
            loop {
                let mut grew = false;
                for &k in &nodes {
                    if best[k.index()] == Kleene::False {
                        continue;
                    }
                    for &w in &nodes {
                        let cand = best[k.index()] & edge(k, w);
                        if rank(cand) > rank(best[w.index()]) {
                            best[w.index()] = cand;
                            grew = true;
                        }
                    }
                }
                if !grew {
                    break;
                }
            }
            asg[a.0 as usize] = sa;
            asg[b.0 as usize] = sb;
            best[dst.index()]
        }
    }
}

/// The lanes checked at size `n`: all of them when small, otherwise the
/// word boundaries plus a few random ones.
fn probe_lanes(rng: &mut XorShift, n: usize) -> Vec<usize> {
    if n <= 5 {
        return (0..n).collect();
    }
    let mut lanes: Vec<usize> = [0, 1, 62, 63, 64, 65, 127, 128, n - 1]
        .into_iter()
        .filter(|&u| u < n)
        .collect();
    lanes.extend((0..3).map(|_| rng.gen_range(n)));
    lanes
}

/// Plane evaluation equals per-node evaluation: for random formulas, a
/// random swept variable and random bindings of the others, lane `u` of the
/// threshold planes is the reference value at `x ↦ u`; `t ⊆ m`; padding is
/// zero; and scalar `eval` agrees with the reference too. Each case sweeps
/// one evaluator three times under different bindings, as a binary update
/// does row by row, so a hoisted plane that depends on a binding shows.
#[test]
fn plane_evaluation_matches_per_node_eval() {
    use hetsep_tvl::eval::{eval, Assignment, Evaluator, Scratch};
    let v = plane_vocab();
    let t = &v.table;
    let mut buf = Scratch::default();
    for (ix, &n) in PLANE_SIZES.iter().enumerate() {
        // Nested quantifiers and closures at the small sizes; one level past
        // the word boundary, where the reference costs O(n³) per closure.
        let (cases, quants) = if n <= 5 { (CASES * 2, 3) } else { (24, 1) };
        for case in 0..cases {
            let seed = (ix as u64) << 32 | case;
            let mut rng = XorShift::new(seed);
            let s = gen_plane_structure(&mut rng, &v, n);
            let mut f = gen_plane_formula(&mut rng, &v, 5, quants);
            let x = *rng.choose(&POOL);
            if n == 0 {
                // Nothing to bind: close every variable but the swept one.
                for y in f.free_vars() {
                    if y != x {
                        f = Formula::exists(y, f);
                    }
                }
            }
            let mut ev = Evaluator::new(&s, t, &mut buf);
            for _ in 0..3 {
                let mut asg = Assignment::new();
                let mut slots = vec![None; POOL.len()];
                for &y in &POOL {
                    if y != x && n > 0 {
                        let u = NodeId::from_index(rng.gen_range(n));
                        asg.bind(y, u);
                        slots[y.0 as usize] = Some(u);
                    }
                }
                let (pt, pm) = ev.planes(&f, x, &mut asg);
                assert_eq!(pt.len(), n.div_ceil(64), "seed {seed}: stride");
                for w in 0..pt.len() {
                    assert_eq!(pt[w] & !pm[w], 0, "seed {seed}: t ⊆ m");
                    let valid = if (w + 1) * 64 <= n { !0 } else { (1u64 << (n % 64)) - 1 };
                    assert_eq!(pm[w] & !valid, 0, "seed {seed} n={n}: padding of {f}");
                }
                let (pt, pm) = (pt.to_vec(), pm.to_vec());
                for u in probe_lanes(&mut rng, n) {
                    let node = NodeId::from_index(u);
                    slots[x.0 as usize] = Some(node);
                    let want = reference_eval(&s, t, &f, &mut slots);
                    let got = Kleene::from_bits(
                        (pt[u / 64] >> (u % 64)) & 1 != 0,
                        (pm[u / 64] & !pt[u / 64]) >> (u % 64) & 1 != 0,
                    );
                    assert_eq!(got, want, "seed {seed} n={n}: {f} swept over {x} at {node}");
                    let mut at = asg.clone();
                    at.bind(x, node);
                    assert_eq!(eval(&s, t, &f, &mut at), want, "seed {seed} n={n}: eval of {f}");
                }
            }
        }
    }
}

/// The forget pass equals evaluating `ite(c(u), p(u), 1/2)` one predicate at
/// a time: on random structures at every `PLANE_SIZES` universe size, with
/// `c` and every `p` taking all three values on summary and non-summary
/// nodes, [`ForgetMask::apply`] sets each `p ∈ F` to the evaluator's planes
/// of that formula over the structure before the pass and leaves every
/// other predicate (including `c` unless it is in `F`) unchanged. `F` is a
/// random subset of the unary predicates, `c` and the empty set included.
/// The predicates the pass reports changed are exactly those whose values
/// differ afterwards.
#[test]
fn forget_pass_matches_ite_evaluation() {
    use hetsep_tvl::action::ForgetMask;
    use hetsep_tvl::eval::eval_unary_at_all;
    use hetsep_tvl::pred::{Arity, PredSet};

    let v = plane_vocab();
    let t = &v.table;
    let u = Var(0);
    let (mut kept, mut reported) = (false, false);
    for (ix, &n) in PLANE_SIZES.iter().enumerate() {
        for case in 0..if n <= 5 { CASES } else { 16 } {
            let seed = (ix as u64) << 32 | case;
            let mut rng = XorShift::new(seed);
            let s = gen_plane_structure(&mut rng, &v, n);
            let c = *rng.choose(&v.unary[..2]);
            let preds: Vec<PredId> = v.unary[..2].iter().copied().filter(|_| rng.gen_bool()).collect();
            let mut want = s.clone();
            for &p in &preds {
                let half = Formula::Const(Kleene::Unknown);
                let ite = Formula::ite(Formula::unary(c, u), Formula::unary(p, u), half);
                for (node, k) in s.nodes().zip(eval_unary_at_all(&s, t, &ite, u)) {
                    want.set_unary(t, p, node, k);
                }
            }
            let mut got = s.clone();
            let mut changed = PredSet::empty();
            ForgetMask { c, preds: preds.clone() }.apply(&mut got, t, &mut changed);
            assert_eq!(got, want, "seed {seed} n={n}: forget {preds:?} unless {c:?}");
            for q in t.iter() {
                let differs = t.arity(q) == Arity::Unary
                    && s.nodes().any(|u| s.unary(t, q, u) != got.unary(t, q, u));
                assert_eq!(changed.contains(q), differs, "seed {seed} n={n}: {q} reported");
                kept |= preds.contains(&q) && !differs;
                reported |= differs;
            }
        }
    }
    assert!(kept && reported, "every forgotten predicate always changed, or none ever did");
}

/// Plane-driven coerce equals the per-node path: on random structures over
/// a vocabulary with unary and binary instrumentation predicates (one of
/// them defined through itself, so its up-front plane misses sharpening
/// made earlier in the same sweep), `coerce` gives the same outcome,
/// structure included, as a reference that reconciles every rule node by
/// node with per-node evaluation.
#[test]
fn plane_coerce_matches_per_node_coerce() {
    use hetsep_tvl::pred::Arity;
    let mut table = PredTable::new();
    let p = table.add_unary("p", PredFlags::default());
    let f = table.add_binary("f", PredFlags::default());
    let (u, w) = (Var(0), Var(1));
    let defined = |defining| PredFlags { defining: Some(defining), ..PredFlags::default() };
    // near(u) = ∃w. f(u, w) ∧ p(w)
    let near = Formula::exists(w, Formula::binary(f, u, w).and(Formula::unary(p, w)));
    table.add_unary("near", defined(near));
    // edge(u, w) = f(u, w) ∧ ¬p(w)
    table.add_binary("edge", defined(Formula::binary(f, u, w).and(Formula::unary(p, w).not())));
    // reach(u) = p(u) ∨ ∃w. f(u, w) ∧ reach(w): reads itself.
    let reach = table.add_unary("reach", PredFlags::default());
    let step = Formula::binary(f, u, w).and(Formula::unary(reach, w));
    table.set_flags(reach, defined(Formula::unary(p, u).or(Formula::exists(w, step))));
    let rules: Vec<(PredId, Formula)> = table
        .instrumentation_preds()
        .into_iter()
        .map(|q| (q, table.flags(q).defining.clone().unwrap()))
        .collect();

    let reference = |mut s: Structure| -> CoerceOutcome {
        loop {
            let mut changed = false;
            for (q, def) in &rules {
                let binary = table.arity(*q) == Arity::Binary;
                let n = s.node_count();
                for a in 0..n {
                    for b in 0..if binary { n } else { 1 } {
                        let (a, b) = (NodeId::from_index(a), NodeId::from_index(b));
                        let mut slots = vec![Some(a), binary.then_some(b)];
                        let evaled = reference_eval(&s, &table, def, &mut slots);
                        let stored =
                            if binary { s.binary(&table, *q, a, b) } else { s.unary(&table, *q, a) };
                        if stored == evaled || evaled == Kleene::Unknown {
                            continue;
                        }
                        if stored != Kleene::Unknown {
                            return CoerceOutcome::Infeasible;
                        }
                        if binary {
                            s.set_binary(&table, *q, a, b, evaled);
                        } else {
                            s.set_unary(&table, *q, a, evaled);
                        }
                        changed = true;
                    }
                }
            }
            if !changed {
                return CoerceOutcome::Feasible(s);
            }
        }
    };

    let (mut feasible, mut infeasible) = (0, 0);
    for (ix, &n) in PLANE_SIZES.iter().enumerate() {
        for case in 0..if n <= 5 { CASES } else { 16 } {
            let seed = (ix as u64) << 32 | case;
            let mut rng = XorShift::new(seed);
            let mut s = Structure::new(&table);
            s.add_nodes(&table, n);
            let nodes: Vec<NodeId> = s.nodes().collect();
            for &a in &nodes {
                s.set_unary(&table, p, a, gen_kleene(&mut rng));
                s.set_summary(&table, a, rng.gen_ratio(1, 4));
                for &b in &nodes {
                    if rng.gen_ratio(1, 4) {
                        s.set_binary(&table, f, a, b, gen_kleene(&mut rng));
                    }
                }
            }
            // Stored instrumentation values: mostly 1/2, otherwise the
            // definition's value (over all-1/2 instrumentation), so rules
            // sharpen often, plus at most one random definite value that
            // may conflict.
            for (q, def) in &rules {
                let binary = table.arity(*q) == Arity::Binary;
                for a in 0..n {
                    for b in 0..if binary { n } else { 1 } {
                        let (a, b) = (NodeId::from_index(a), NodeId::from_index(b));
                        let mut slots = vec![Some(a), binary.then_some(b)];
                        let k = if rng.gen_ratio(1, 3) {
                            reference_eval(&s, &table, def, &mut slots)
                        } else {
                            Kleene::Unknown
                        };
                        if binary {
                            s.set_binary(&table, *q, a, b, k);
                        } else {
                            s.set_unary(&table, *q, a, k);
                        }
                    }
                }
            }
            if n > 0 && rng.gen_bool() {
                let (q, _) = rng.choose(&rules);
                let (a, b) = (NodeId::from_index(rng.gen_range(n)), NodeId::from_index(rng.gen_range(n)));
                let k = Kleene::from_bool(rng.gen_bool());
                if table.arity(*q) == Arity::Binary {
                    s.set_binary(&table, *q, a, b, k);
                } else {
                    s.set_unary(&table, *q, a, k);
                }
            }
            let got = coerce(&s, &table);
            match &got {
                CoerceOutcome::Feasible(_) => feasible += 1,
                CoerceOutcome::Infeasible => infeasible += 1,
            }
            assert_eq!(got, reference(s), "seed {seed} n={n}");
        }
    }
    assert!(feasible > 0 && infeasible > 0, "{feasible} feasible, {infeasible} infeasible");
}

/// Coerce over dirty predicates equals full coerce. On a vocabulary with
/// unique, function, and unary, binary and nullary instrumentation rules
/// (one reading itself, one reading `sm` through equality, one reading
/// another instrumentation predicate), a random structure is coerced to a
/// fixpoint; then up to three random unary, binary or nullary values are
/// overwritten or summary bits flipped, and exactly the predicates written
/// are marked dirty. `coerce_dirty` must return what `coerce_with` returns,
/// structure or `Infeasible`.
#[test]
fn dirty_coerce_matches_full_coerce() {
    use hetsep_tvl::coerce::{coerce_dirty, coerce_with, CoercePlan};
    use hetsep_tvl::pred::PredSet;

    let mut table = PredTable::new();
    let x = table.add_unary("x", PredFlags::reference_variable());
    let y = table.add_unary("y", PredFlags::reference_variable());
    let p = table.add_unary("p", PredFlags::default());
    let f = table.add_binary("f", PredFlags::reference_field());
    let g = table.add_binary("g", PredFlags::default());
    let b = table.add_nullary("b", PredFlags::default());
    let (u, w) = (Var(0), Var(1));
    let defined = |defining| PredFlags { defining: Some(defining), ..PredFlags::default() };
    // near(u) = ∃w. f(u, w) ∧ p(w)
    let near_def = Formula::exists(w, Formula::binary(f, u, w).and(Formula::unary(p, w)));
    let near = table.add_unary("near", defined(near_def));
    // far(u) = ∃w. g(u, w) ∧ near(w): reads another rule's predicate.
    let far_def = Formula::exists(w, Formula::binary(g, u, w).and(Formula::unary(near, w)));
    let far = table.add_unary("far", defined(far_def));
    // looped(u) = ∃w. g(u, w) ∧ u = w: reads `sm` through equality.
    let looped_def = Formula::exists(w, Formula::binary(g, u, w).and(Formula::eq(u, w)));
    let looped = table.add_unary("looped", defined(looped_def));
    // edge(u, w) = f(u, w) ∧ ¬y(w)
    let edge_def = Formula::binary(f, u, w).and(Formula::unary(y, w).not());
    let edge = table.add_binary("edge", defined(edge_def));
    // reach(u) = x(u) ∨ ∃w. g(u, w) ∧ reach(w): reads itself.
    let reach = table.add_unary("reach", PredFlags::default());
    let step = Formula::binary(g, u, w).and(Formula::unary(reach, w));
    table.set_flags(reach, defined(Formula::unary(x, u).or(Formula::exists(w, step))));
    // some = b ∨ ∃u. x(u) ∧ p(u)
    let some_def = Formula::nullary(b).or(Formula::exists(u, Formula::unary(x, u).and(Formula::unary(p, u))));
    let some = table.add_nullary("some", defined(some_def));
    let plan = CoercePlan::new(&table);
    let unary = [x, y, p, near, far, looped, reach];
    let binary = [f, g, edge];
    let nullary = [b, some];

    let (mut sharpened, mut infeasible, mut unchanged) = (0, 0, 0);
    for (ix, &n) in PLANE_SIZES.iter().enumerate() {
        for case in 0..if n <= 5 { 8 * CASES } else { 32 } {
            let seed = (ix as u64) << 32 | case;
            let mut rng = XorShift::new(seed);
            let mut s = Structure::new(&table);
            s.add_nodes(&table, n);
            let nodes: Vec<NodeId> = s.nodes().collect();
            if n > 0 {
                for v in [x, y] {
                    s.set_unary(&table, v, *rng.choose(&nodes), gen_kleene(&mut rng));
                }
            }
            for &a in &nodes {
                s.set_unary(&table, p, a, gen_kleene(&mut rng));
                s.set_summary(&table, a, rng.gen_ratio(1, 4));
                for q in [near, far, looped, reach] {
                    s.set_unary(&table, q, a, Kleene::Unknown);
                }
                for &c in &nodes {
                    for q in [f, g] {
                        // Self-loops are common, so `looped` depends on `sm`.
                        if rng.gen_ratio(1, if a == c { 2 } else { 4 }) {
                            s.set_binary(&table, q, a, c, gen_kleene(&mut rng));
                        }
                    }
                    s.set_binary(&table, edge, a, c, Kleene::Unknown);
                }
            }
            s.set_nullary(&table, b, gen_kleene(&mut rng));
            s.set_nullary(&table, some, Kleene::Unknown);
            let Some(mut s) = coerce_with(s, &table, &plan).feasible() else {
                continue;
            };
            let mut dirty = PredSet::empty();
            for _ in 0..rng.gen_range(4) {
                match rng.gen_range(4) {
                    0 if n > 0 => {
                        let (q, a) = (*rng.choose(&unary), *rng.choose(&nodes));
                        s.set_unary(&table, q, a, gen_kleene(&mut rng));
                        dirty.insert(q);
                    }
                    1 if n > 0 => {
                        let a = *rng.choose(&nodes);
                        s.set_summary(&table, a, !s.is_summary(&table, a));
                        dirty.insert(table.sm());
                    }
                    2 if n > 0 => {
                        let q = *rng.choose(&binary);
                        let (a, c) = (*rng.choose(&nodes), *rng.choose(&nodes));
                        s.set_binary(&table, q, a, c, gen_kleene(&mut rng));
                        dirty.insert(q);
                    }
                    _ => {
                        let q = *rng.choose(&nullary);
                        s.set_nullary(&table, q, gen_kleene(&mut rng));
                        dirty.insert(q);
                    }
                }
            }
            let want = coerce_with(s.clone(), &table, &plan);
            match &want {
                CoerceOutcome::Infeasible => infeasible += 1,
                CoerceOutcome::Feasible(r) if *r == s => unchanged += 1,
                CoerceOutcome::Feasible(_) => sharpened += 1,
            }
            assert_eq!(coerce_dirty(s, &table, &plan, dirty), want, "seed {seed} n={n}");
        }
    }
    assert!(
        sharpened > 0 && infeasible > 0 && unchanged > 0,
        "{sharpened} sharpened, {infeasible} infeasible, {unchanged} unchanged"
    );
}

/// The vocabulary of the settled-structure properties: a reference
/// variable `x`, `NAMED` boolean abstraction predicates `a0…`, plain
/// predicates `p`, `c` and `q` between them (so name slots and other slots
/// interleave), a function field `f` and a plain field `g`. With `masked`,
/// the relevance mask is `(c, {p, a0})`: `a0`'s slot is read by two
/// columns, and `c`'s by mask columns only.
struct SettledVocab {
    table: PredTable,
    x: PredId,
    named: Vec<PredId>,
    plain: [PredId; 3],
    fields: [PredId; 2],
}

/// Enough abstraction predicates for 130 distinct names: 3⁵ = 243.
const NAMED: usize = 5;

fn settled_vocab(masked: bool) -> SettledVocab {
    let mut table = PredTable::new();
    let x = table.add_unary("x", PredFlags::reference_variable());
    let mut named = Vec::new();
    let mut plain = Vec::new();
    for i in 0..NAMED {
        named.push(table.add_unary(&format!("a{i}"), PredFlags::boolean_field()));
        if let Some(name) = ["p", "c", "q"].get(i) {
            plain.push(table.add_unary(name, PredFlags::default()));
        }
    }
    let plain: [PredId; 3] = plain.try_into().unwrap();
    let fields = [
        table.add_binary("f", PredFlags::reference_field()),
        table.add_binary("g", PredFlags::default()),
    ];
    if masked {
        table.set_relevance_mask(plain[1], vec![plain[0], named[0]]);
    }
    SettledVocab { table, x, named, plain, fields }
}

/// The universe sizes of the settled-structure properties: every size up to
/// [`SMALL`], then the multi-word `PLANE_SIZES`.
fn settled_sizes() -> impl Iterator<Item = usize> {
    (0..=SMALL).chain(PLANE_SIZES.into_iter().filter(|&n| n > SMALL))
}

/// Universes up to this size get random values on both fields at every
/// pair of nodes.
const SMALL: usize = 5;

/// A random structure over [`settled_vocab`] with `n` nodes. `x` holds at
/// one node and every other value is random. With `distinct`, the
/// abstraction predicates spell a different base-3 code at every node, so
/// no two nodes share a name; otherwise only `a0` varies, so names repeat.
/// Up to [`SMALL`] nodes both fields get a random value at about a third of
/// all pairs, so coerce sharpens sources with several non-`False` `f`
/// targets; above it `f` has at most one non-`False` target per source,
/// which keeps large universes feasible.
fn gen_settled_structure(rng: &mut XorShift, v: &SettledVocab, n: usize, distinct: bool) -> Structure {
    let t = &v.table;
    let mut s = Structure::new(t);
    s.add_nodes(t, n);
    let nodes: Vec<NodeId> = s.nodes().collect();
    if n > 0 {
        s.set_unary(t, v.x, *rng.choose(&nodes), Kleene::True);
    }
    let mut codes: Vec<usize> = (0..3usize.pow(NAMED as u32)).collect();
    rng.shuffle(&mut codes);
    let digits = [Kleene::False, Kleene::Unknown, Kleene::True];
    for &u in &nodes {
        let mut code = codes[u.index()];
        for (i, &a) in v.named.iter().enumerate() {
            let value = if distinct {
                digits[code % 3]
            } else if i == 0 {
                gen_kleene(rng)
            } else {
                Kleene::False
            };
            code /= 3;
            s.set_unary(t, a, u, value);
        }
        for &r in &v.plain {
            s.set_unary(t, r, u, gen_kleene(rng));
        }
        s.set_summary(t, u, rng.gen_ratio(1, 4));
        let dense = if n <= SMALL {
            &v.fields[..]
        } else {
            if rng.gen_bool() {
                s.set_binary(t, v.fields[0], u, *rng.choose(&nodes), gen_kleene(rng));
            }
            &v.fields[1..]
        };
        for &f in dense {
            for &w in &nodes {
                if rng.gen_ratio(1, 3) {
                    s.set_binary(t, f, u, w, gen_kleene(rng));
                }
            }
        }
    }
    s
}

/// A Kleene value other than `old`.
fn other_kleene(rng: &mut XorShift, old: Kleene) -> Kleene {
    let rest: Vec<Kleene> = [Kleene::False, Kleene::Unknown, Kleene::True]
        .into_iter()
        .filter(|&k| k != old)
        .collect();
    *rng.choose(&rest)
}

/// The column-by-column definition of `keeps_names`: the same universe, and
/// the same value at every node of every predicate that a name column
/// reads, its mask predicate included.
fn reference_keeps_names(pre: &Structure, post: &Structure, t: &PredTable, cols: &[Column]) -> bool {
    let same = |p: PredId| pre.nodes().all(|u| pre.unary(t, p, u) == post.unary(t, p, u));
    pre.node_count() == post.node_count()
        && cols.iter().all(|c| same(c.pred) && c.mask.is_none_or(same))
}

/// `keeps_names` over a table's `Names` agrees with the column-by-column
/// reference on random structures at every universe size up to five nodes
/// and every `PLANE_SIZES` universe size,
/// without and with a relevance mask. Posts keep the pre-state, change a
/// value that no column reads, change a name predicate, change only the
/// mask predicate `c` (read by no column without a mask), or gain a node.
#[test]
fn keeps_names_matches_column_reference() {
    use hetsep_tvl::canon::{keeps_names, Names};
    use hetsep_tvl::pred::Arity;

    for masked in [false, true] {
        let v = settled_vocab(masked);
        let t = &v.table;
        let names = Names::new(t);
        let cols = names.columns();
        let [p, c, q] = v.plain;
        let mut named = v.named.clone();
        named.push(v.x);
        let mut unread = vec![q, t.sm(), t.isnew()];
        if !masked {
            unread.extend([p, c]);
        }
        let mut tally = [0usize; 5];
        for n in settled_sizes() {
            for case in 0..if n <= SMALL { CASES } else { 16 } {
                let seed = u64::from(masked) << 40 | (n as u64) << 32 | case;
                let mut rng = XorShift::new(seed);
                let distinct = rng.gen_bool();
                let pre = gen_settled_structure(&mut rng, &v, n, distinct);
                let nodes: Vec<NodeId> = pre.nodes().collect();
                let mut post = pre.clone();
                let kind = if n == 0 { 4 * rng.gen_range(2) } else { rng.gen_range(5) };
                let change = |post: &mut Structure, r: PredId, rng: &mut XorShift| {
                    let u = *rng.choose(&nodes);
                    if t.arity(r) == Arity::Unary {
                        let new = other_kleene(rng, post.unary(t, r, u));
                        post.set_unary(t, r, u, new);
                    } else {
                        let w = *rng.choose(&nodes);
                        let new = other_kleene(rng, post.binary(t, r, u, w));
                        post.set_binary(t, r, u, w, new);
                    }
                };
                let want = match kind {
                    0 => true,
                    1 => {
                        for _ in 0..1 + rng.gen_range(3) {
                            let r = if rng.gen_bool() { *rng.choose(&unread) } else { *rng.choose(&v.fields) };
                            change(&mut post, r, &mut rng);
                        }
                        true
                    }
                    2 => {
                        change(&mut post, *rng.choose(&named), &mut rng);
                        false
                    }
                    3 => {
                        change(&mut post, c, &mut rng);
                        !masked
                    }
                    _ => {
                        post.add_node(t);
                        false
                    }
                };
                tally[kind] += 1;
                let got = keeps_names(&pre, &post, &names);
                assert_eq!(got, reference_keeps_names(&pre, &post, t, cols), "seed {seed} n={n}");
                assert_eq!(got, want, "seed {seed} n={n} kind {kind}");
            }
        }
        assert!(tally.iter().all(|&k| k > 0), "masked={masked}: {tally:?}");
    }
}

/// Settled structures blur to themselves, over a vocabulary without and
/// with a relevance mask. On random coerced structures at every universe
/// size up to five nodes and every `PLANE_SIZES` universe size, `blur_post`
/// returns `blur_by`'s result and
/// settles it exactly when the blur merged nothing; a settled result is a
/// coerce fixpoint and `blur_by` returns it unchanged. A structure that
/// keeps a settled structure's universe and name-column planes, but changes
/// other unary or binary values, is returned as it is (and settled) by
/// `blur_post` and blurs to itself exactly; one that changes a name-column
/// value is blurred. Above five nodes half the cases give every node a
/// distinct name, so multi-word universes settle too.
#[test]
fn settled_structure_blurs_to_itself() {
    use hetsep_tvl::canon::{blur_by, blur_post, keeps_names, Names};
    use hetsep_tvl::coerce::{coerce_with, CoercePlan};
    use hetsep_tvl::pred::Arity;

    for masked in [false, true] {
        let v = settled_vocab(masked);
        let t = &v.table;
        let names = Names::new(t);
        let cols = names.columns();
        let in_names = |r: PredId| cols.iter().any(|col| col.pred == r || col.mask == Some(r));
        let named: Vec<PredId> = t.iter_arity(Arity::Unary).filter(|&r| in_names(r)).collect();
        let other: Vec<PredId> = t
            .iter_arity(Arity::Unary)
            .filter(|&r| !in_names(r) && r != t.isnew())
            .collect();
        assert_eq!(named.len(), if masked { NAMED + 3 } else { NAMED + 1 });
        let plan = CoercePlan::new(t);
        let (mut merged, mut settled, mut settled_wide, mut renamed) = (0, 0, 0, 0);
        for n in settled_sizes() {
            for case in 0..if n <= SMALL { CASES } else { 16 } {
                let seed = u64::from(masked) << 40 | (n as u64) << 32 | case;
                let mut rng = XorShift::new(seed);
                let distinct = rng.gen_bool();
                let s = gen_settled_structure(&mut rng, &v, n, distinct);
                let nodes: Vec<NodeId> = s.nodes().collect();
                let Some(post) = coerce_with(s, t, &plan).feasible() else {
                    continue;
                };
                let (b, is_settled) = blur_post(&post, false, post.clone(), t, &names);
                assert_eq!(b, blur_by(&post, t, cols).0, "seed {seed}");
                assert_eq!(is_settled, b.node_count() == n, "seed {seed}: settled iff nothing merged");
                if !is_settled {
                    merged += 1;
                    continue;
                }
                settled += 1;
                settled_wide += usize::from(n > 64);
                assert_eq!(blur_by(&b, t, cols).0, b, "seed {seed}: settled blurs to itself");
                assert_eq!(blur_post(&b, false, b.clone(), t, &names), (b.clone(), true));
                let fixpoint = coerce_with(b.clone(), t, &plan);
                assert_eq!(fixpoint, CoerceOutcome::Feasible(b.clone()), "seed {seed}");
                if n == 0 {
                    continue;
                }
                // Change values that no name column reads.
                let mut kept = b.clone();
                for _ in 0..1 + rng.gen_range(3) {
                    let (u, w) = (*rng.choose(&nodes), *rng.choose(&nodes));
                    if rng.gen_bool() {
                        let r = *rng.choose(&other);
                        if r == t.sm() {
                            kept.set_summary(t, u, rng.gen_bool());
                        } else {
                            kept.set_unary(t, r, u, gen_kleene(&mut rng));
                        }
                    } else {
                        kept.set_binary(t, *rng.choose(&v.fields), u, w, gen_kleene(&mut rng));
                    }
                }
                assert!(keeps_names(&b, &kept, &names), "seed {seed}");
                assert_eq!(blur_by(&kept, t, cols).0, kept, "seed {seed}: kept names");
                let out = blur_post(&b, true, kept.clone(), t, &names);
                assert_eq!(out, (kept, true), "seed {seed}");
                // Change one name-column value: the post is blurred.
                let mut moved = b.clone();
                let (r, u) = (*rng.choose(&named), *rng.choose(&nodes));
                let new = other_kleene(&mut rng, moved.unary(t, r, u));
                moved.set_unary(t, r, u, new);
                assert!(!keeps_names(&b, &moved, &names), "seed {seed}");
                let blurred = blur_by(&moved, t, cols).0;
                let is_settled = blurred.node_count() == n;
                renamed += 1;
                assert_eq!(
                    blur_post(&b, true, moved, t, &names),
                    (blurred, is_settled),
                    "seed {seed}"
                );
            }
        }
        assert!(
            merged > 0 && settled > 0 && settled_wide > 0 && renamed > 0,
            "masked={masked}: {merged} merged, {settled} settled ({settled_wide} over 64 nodes), \
             {renamed} renamed"
        );
    }
}

/// The interner gives structures one id exactly when they are equal. At
/// every `PLANE_SIZES` universe size, a random structure is varied in one
/// plane word at a time: one value goes from `False` to `True` (its
/// `t`-plane word) or to `Unknown` (its `h`-plane word), at lane 0 of every
/// word of every row of every unary and binary predicate, so the changed
/// word falls in each of the fingerprint's lanes and in the remainder words
/// of each plane. Both sides of every pair are also rebuilt independently
/// (node by node, values copied in reverse order): the copy gets the
/// original's id, and the two sides of a pair get distinct ids and distinct
/// fingerprints.
#[test]
fn interned_ids_follow_word_equality() {
    use hetsep_tvl::intern::StructureInterner;
    use hetsep_tvl::pred::Arity;
    use hetsep_tvl::structure::FINGERPRINT_LANES;
    use std::collections::HashSet;

    // Six unary slots (with `sm` and `isnew`) and one binary slot: at one
    // word per row the unary planes have a remainder of two words, the
    // binary planes one of `n mod 4` words.
    let mut t = PredTable::new();
    for name in ["p", "q", "r", "s"] {
        t.add_unary(name, PredFlags::default());
    }
    let f = t.add_binary("f", PredFlags::default());
    let flag = t.add_nullary("flag", PredFlags::default());
    let unary: Vec<PredId> = t.iter_arity(Arity::Unary).collect();
    assert_eq!((unary.len(), t.binary_count()), (6, 1));
    // An equal structure built another way: one node at a time, values
    // set in reverse order.
    let rebuild = |s: &Structure| {
        let mut copy = Structure::new(&t);
        for _ in 0..s.node_count() {
            copy.add_node(&t);
        }
        copy.set_nullary(&t, flag, s.nullary(&t, flag));
        let mut nodes: Vec<NodeId> = s.nodes().collect();
        nodes.reverse();
        for &u in &nodes {
            for &r in unary.iter().rev() {
                copy.set_unary(&t, r, u, s.unary(&t, r, u));
            }
            for &w in &nodes {
                copy.set_binary(&t, f, u, w, s.binary(&t, f, u, w));
            }
        }
        copy
    };
    // (plane, lane), lane `FINGERPRINT_LANES` standing for the remainder.
    let mut hit: HashSet<(usize, usize)> = HashSet::new();
    let mut interner = StructureInterner::new();
    let mut distinct: HashSet<Vec<u64>> = HashSet::new();
    for (ix, &n) in PLANE_SIZES.iter().enumerate() {
        let mut rng = XorShift::new((ix as u64) << 32);
        let mut base = Structure::new(&t);
        base.add_nodes(&t, n);
        base.set_nullary(&t, flag, gen_kleene(&mut rng));
        let nodes: Vec<NodeId> = base.nodes().collect();
        for &u in &nodes {
            for &r in &unary {
                base.set_unary(&t, r, u, gen_kleene(&mut rng));
            }
            for &w in &nodes {
                if rng.gen_ratio(1, 3) {
                    base.set_binary(&t, f, u, w, gen_kleene(&mut rng));
                }
            }
        }
        let word_starts: Vec<NodeId> = nodes.iter().copied().step_by(64).collect();
        let stride = word_starts.len();
        let plane_lens = [unary.len() * stride, unary.len() * stride, n * stride, n * stride];
        let mut sites: Vec<(Option<PredId>, NodeId, NodeId)> = Vec::new();
        for &w in &word_starts {
            sites.extend(unary.iter().map(|&r| (Some(r), w, w)));
            sites.extend(nodes.iter().map(|&u| (None, u, w)));
        }
        for (r, u, w) in sites {
            for value in [Kleene::True, Kleene::Unknown] {
                let mut lo = base.clone();
                let mut hi = base.clone();
                match r {
                    Some(r) => {
                        lo.set_unary(&t, r, u, Kleene::False);
                        hi.set_unary(&t, r, u, value);
                    }
                    None => {
                        lo.set_binary(&t, f, u, w, Kleene::False);
                        hi.set_binary(&t, f, u, w, value);
                    }
                }
                let (lw, hw) = (lo.to_words(), hi.to_words());
                let diff: Vec<usize> = (0..lw.len()).filter(|&i| lw[i] != hw[i]).collect();
                assert_eq!(diff.len(), 1, "n={n}: one word differs");
                // Locate the word: past `n` and the packed nullary word.
                let (mut plane, mut at) = (0, diff[0] - 2);
                while at >= plane_lens[plane] {
                    at -= plane_lens[plane];
                    plane += 1;
                }
                let chunked = plane_lens[plane] / FINGERPRINT_LANES * FINGERPRINT_LANES;
                let lane = if at < chunked { at % FINGERPRINT_LANES } else { FINGERPRINT_LANES };
                hit.insert((plane, lane));
                assert_ne!(lo.fingerprint(), hi.fingerprint(), "n={n} plane {plane} word {at}");
                let (lo_id, hi_id) = (interner.intern(lo.clone()), interner.intern(hi.clone()));
                assert_ne!(lo_id, hi_id, "n={n} plane {plane} word {at}");
                assert_eq!(interner.intern(rebuild(&lo)), lo_id, "n={n}");
                assert_eq!(interner.intern(rebuild(&hi)), hi_id, "n={n}");
                distinct.extend([lw, hw]);
            }
        }
    }
    assert_eq!(interner.len(), distinct.len());
    for plane in 0..4 {
        for lane in 0..=FINGERPRINT_LANES {
            assert!(hit.contains(&(plane, lane)), "plane {plane} lane {lane} never varied");
        }
    }
}
