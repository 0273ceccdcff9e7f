//! Kernel microbenchmarks: scalar per-node reference kernels vs the
//! word-parallel two-plane kernels, at universe sizes n ∈ {4, 16, 64, 256}.
//!
//! The scalar baselines reimplement the pre-bit-packing kernels on top of
//! the public accessor API — one `Kleene` probe per node or per pair,
//! exactly the loops the library ran before truth values were packed into
//! `u64` plane words:
//!
//! * **eval-sweep** — `∃v. b(v)` and a bound-source row sweep `∃w. f(u, w)`
//!   evaluated at every node. The word path folds whole plane words
//!   (`quantifier_fold`); the scalar path is forced through the generic
//!   per-node loop by double-negating the atom (`¬¬` has no plane fast
//!   path and is a no-op on the result).
//! * **tc-closure** — transitive closure of a field predicate (computed
//!   fresh each repetition, one entry read). The word path runs the boolean
//!   Warshall closure over both planes (O(n³/64) word ops); the scalar path
//!   is the classic Kleene Floyd–Warshall on an n×n `Vec<Kleene>` grid.
//! * **fingerprint** — the per-word FNV-1a structure fingerprint vs the
//!   pre-packing per-value FNV (one mix per truth value via accessors).
//! * **equality** — derived plane-vector `==` vs a per-value accessor
//!   comparison loop.
//! * **closure-union** — the wide-lane block kernel `bits::or_into`
//!   against the one-word-at-a-time loop it replaced, as the Warshall inner
//!   union of `bool_closure`. Here the "scalar" column is the per-word loop
//!   (the pre-block path), not a per-node one.
//!
//! Timing uses `std::time::Instant`, best-of-`REPS` (the in-tree harness;
//! Criterion is intentionally not a dependency). Run with
//! `cargo run -p hetsep-bench --bin kernels --release`.

use std::hint::black_box;
use std::time::Instant;

use hetsep::tvl::bits;
use hetsep::tvl::eval::{eval_memo, Assignment, TcMemo};
use hetsep::tvl::formula::{Formula, Var};
use hetsep::tvl::pred::{PredFlags, PredId, PredTable};
use hetsep::tvl::structure::Structure;
use hetsep::tvl::Kleene;

const SIZES: [usize; 4] = [4, 16, 64, 256];
const REPS: usize = 9;

/// Deterministic 3-valued noise without a PRNG dependency: a fixed LCG.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn kleene(&mut self) -> Kleene {
        match self.next() % 4 {
            0 => Kleene::True,
            1 => Kleene::Unknown,
            _ => Kleene::False, // bias toward False like real heaps
        }
    }
}

fn build(table: &PredTable, b: PredId, f: PredId, n: usize) -> Structure {
    let mut rng = Lcg(0x5eed ^ n as u64);
    let mut s = Structure::new(table);
    s.add_nodes(table, n);
    let ids: Vec<_> = s.nodes().collect();
    for &u in &ids {
        s.set_unary(table, b, u, rng.kleene());
        // Sparse edges: ~2 per source, plus occasional 1/2.
        for _ in 0..2 {
            let d = ids[(rng.next() as usize) % n];
            s.set_binary(table, f, u, d, rng.kleene());
        }
    }
    s
}

/// Best-of-REPS wall time of `f`, in nanoseconds.
fn best_ns(mut f: impl FnMut()) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..REPS {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos().max(1));
    }
    best
}

fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn row(kernel: &str, n: usize, scalar: u128, word: u128) {
    println!(
        "| {kernel} | {n} | {} | {} | {:.1}× |",
        fmt_ns(scalar),
        fmt_ns(word),
        scalar as f64 / word as f64
    );
}

/// Scalar reference: Kleene Floyd–Warshall on an accessor-read grid
/// (the pre-packing closure kernel), returning one entry like the word
/// path's single lookup.
fn scalar_tc(s: &Structure, table: &PredTable, f: PredId) -> Kleene {
    let n = s.node_count();
    let ids: Vec<_> = s.nodes().collect();
    let mut grid: Vec<Kleene> = Vec::with_capacity(n * n);
    for &a in &ids {
        for &b in &ids {
            grid.push(s.binary(table, f, a, b));
        }
    }
    for k in 0..n {
        for i in 0..n {
            let ik = grid[i * n + k];
            if ik == Kleene::False {
                continue;
            }
            for j in 0..n {
                grid[i * n + j] = grid[i * n + j] | (ik & grid[k * n + j]);
            }
        }
    }
    grid[n - 1]
}

/// Scalar reference: the pre-packing fingerprint — FNV-1a with one mix per
/// truth value, read through the accessors.
fn scalar_fingerprint(s: &Structure, table: &PredTable, b: PredId, f: PredId) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET ^ s.node_count() as u64;
    for u in s.nodes() {
        h = (h ^ s.unary(table, b, u) as u64).wrapping_mul(PRIME);
        for v in s.nodes() {
            h = (h ^ s.binary(table, f, u, v) as u64).wrapping_mul(PRIME);
        }
    }
    h
}

/// Scalar reference: per-value accessor equality.
fn scalar_eq(a: &Structure, b: &Structure, table: &PredTable, bp: PredId, f: PredId) -> bool {
    if a.node_count() != b.node_count() {
        return false;
    }
    a.nodes().all(|u| a.unary(table, bp, u) == b.unary(table, bp, u))
        && a.nodes().all(|u| {
            a.nodes()
                .all(|v| a.binary(table, f, u, v) == b.binary(table, f, u, v))
        })
}

fn main() {
    let mut table = PredTable::new();
    let b = table.add_unary("b", PredFlags::boolean_field());
    let f = table.add_binary("f", PredFlags::reference_field());

    let (v0, v1, va, vb) = (Var(0), Var(1), Var(2), Var(3));
    // Word path: plane-foldable atoms. Scalar path: the same formulas with a
    // double-negated atom, which bypasses the fold and runs the generic
    // per-node loop (identical results).
    let exists_fast = Formula::exists(v0, Formula::unary(b, v0));
    let exists_slow = Formula::exists(v0, Formula::not(Formula::not(Formula::unary(b, v0))));
    let row_fast = Formula::exists(v1, Formula::binary(f, v0, v1));
    let row_slow = Formula::exists(v1, Formula::not(Formula::not(Formula::binary(f, v0, v1))));
    let tc_formula = Formula::tc(v0, v1, va, vb, Formula::binary(f, va, vb));

    println!("| kernel | n | scalar | word-parallel | speedup |");
    println!("|---|---|---|---|---|");
    for &n in &SIZES {
        let s = build(&table, b, f, n);
        let ids: Vec<_> = s.nodes().collect();

        // eval-sweep: both exists shapes at every node.
        let sweep = |unary: &Formula, binary: &Formula| {
            let mut memo = TcMemo::new();
            let mut asg = Assignment::new();
            let mut acc = Kleene::False;
            for &u in &ids {
                asg.bind(v0, u);
                acc = acc | eval_memo(&s, &table, binary, &mut asg, &mut memo);
                asg.unbind(v0);
                acc = acc | eval_memo(&s, &table, unary, &mut asg, &mut memo);
            }
            black_box(acc)
        };
        let scalar = best_ns(|| {
            sweep(&exists_slow, &row_slow);
        });
        let word = best_ns(|| {
            sweep(&exists_fast, &row_fast);
        });
        row("eval-sweep", n, scalar, word);

        // tc-closure: compute the full closure, read one entry. A fresh memo
        // per repetition forces the word path to actually run the boolean
        // Warshall closure instead of replaying a cached matrix.
        let scalar = best_ns(|| {
            black_box(scalar_tc(&s, &table, f));
        });
        let (first, last) = (ids[0], ids[n - 1]);
        let word = best_ns(|| {
            let mut memo = TcMemo::new();
            let mut asg = Assignment::new();
            asg.bind(v0, first);
            asg.bind(v1, last);
            black_box(eval_memo(&s, &table, &tc_formula, &mut asg, &mut memo));
        });
        row("tc-closure", n, scalar, word);

        // fingerprint.
        let scalar = best_ns(|| {
            black_box(scalar_fingerprint(&s, &table, b, f));
        });
        let word = best_ns(|| {
            black_box(s.fingerprint());
        });
        row("fingerprint", n, scalar, word);

        // equality (worst case: equal operands, full scan).
        let s2 = s.clone();
        let scalar = best_ns(|| {
            black_box(scalar_eq(&s, &s2, &table, b, f));
        });
        let word = best_ns(|| {
            black_box(s == s2);
        });
        row("equality", n, scalar, word);

        // closure-union on binary-plane-slab geometry (n rows of
        // `words_for(n)` words, padding bits zero).
        let stride = bits::words_for(n);
        let words = n * stride;
        let mut rng = Lcg(0xb10c ^ n as u64);
        let adj0: Vec<u64> = (0..words)
            .map(|w| (rng.next() << 33 ^ rng.next()) & bits::word_mask(n, w % stride))
            .collect();
        // In-place boolean Warshall over the n×n adjacency, per-word inner
        // union vs `bits::or_into` (the `bool_closure` body).
        let mut krow = vec![0u64; stride];
        let mut warshall = |block: bool| {
            let mut adj = adj0.clone();
            for k in 0..n {
                let (kw, kb) = (k >> 6, (k & 63) as u32);
                krow.copy_from_slice(&adj[k * stride..(k + 1) * stride]);
                for row in adj.chunks_exact_mut(stride).take(n) {
                    if (row[kw] >> kb) & 1 != 0 {
                        if block {
                            bits::or_into(row, &krow);
                        } else {
                            for (dst, &kword) in row.iter_mut().zip(&krow) {
                                *dst |= kword;
                            }
                        }
                    }
                }
            }
            black_box(adj[words - 1]);
        };
        let scalar = best_ns(|| warshall(false));
        let word = best_ns(|| warshall(true));
        row("closure-union", n, scalar, word);
    }
}
