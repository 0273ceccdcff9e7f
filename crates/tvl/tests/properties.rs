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

use hetsep_tvl::canon::{blur, canonical_key};
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

/// The sort-based grouping inside `blur_by` is output-identical to the
/// original map-based grouping (fresh canonical-name `Vec` per node in a
/// `HashMap`, then sorted). `reference_blur_by` below *is* that original
/// implementation; both the blurred structure and the old→new node map must
/// agree on every input, including structures that already contain summary
/// nodes and indefinite values.
#[test]
fn blur_by_matches_reference_grouping() {
    use hetsep_tvl::canon::{blur_by, canonical_name};
    use hetsep_tvl::pred::Arity;
    use std::collections::HashMap;

    fn reference_blur_by(
        s: &Structure,
        table: &PredTable,
        abs: &[PredId],
    ) -> (Structure, Vec<NodeId>) {
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

    let v = vocab();
    let abs = v.table.abstraction_preds();
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
