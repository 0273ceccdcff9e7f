#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, lint-clean clippy,
# warning-free rustdoc, and a smoke run of the quickstart example.
# Run from the repository root. Works fully offline (no registry access).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# Word-parallel Kleene kernels: the exhaustive truth-table identities,
# the block (4x u64 unrolled) kernels and the stride-padding leak checks
# must also pass under release codegen (the bit-twiddling kernels are
# exactly what optimization rewrites hardest).
# The threshold-plane evaluator, plane-driven coerce, and the scatter-based
# canonical abstraction and permutation are checked against their per-node
# references the same way, blur under a relevance mask against blur
# over stored conjunction predicates, the forget pass against
# evaluating its `ite` formula, coerce over dirty predicates against full
# coerce, settled structures against blurring them at every size up to
# five nodes and every plane size
# (the blur's identity path returns its input), the per-slot settled check
# against its column-by-column reference with and without a relevance mask,
# and interned ids against word equality with the changed word in each
# fingerprint lane and in each plane's remainder words.
cargo test -q -p hetsep-tvl --release --test properties -- \
    word_kernels_match_scalar_truth_tables_in_every_lane \
    stride_padding_bits_never_leak \
    block_kernels_match_word_kernels_in_every_lane \
    block_scan_kernels_respect_stride_padding \
    plane_evaluation_matches_per_node_eval \
    plane_coerce_matches_per_node_coerce \
    blur_by_matches_reference_grouping \
    masked_blur_matches_materialized_conjunction \
    forget_pass_matches_ite_evaluation \
    permute_matches_per_bit_reference \
    dirty_coerce_matches_full_coerce \
    settled_structure_blurs_to_itself \
    keeps_names_matches_column_reference \
    interned_ids_follow_word_equality
cargo test -q -p hetsep-tvl --release --test bulk_grow
# Release-only suites: the Table 3 shape tests (every row of `full_table3`
# against the paper's reported counts, its `-` rows included), the pruning
# matrix and the store-replay equivalence (every Table 3 row with no
# store, on a cold store and warm from its cache-file bytes) are ignored
# in debug builds, so they run here.
cargo test -q --release -p hetsep --test table3_shape
cargo test -q --release -p hetsep-core --test pruning
cargo test -q --release -p hetsep-core --test transfer_cache -- \
    store_replay_is_observation_equivalent_on_every_table3_row

# Scheduler determinism matrix: the scenario-suite byte-identity contracts
# must hold whatever the subproblem worker count is. The expensive
# generated workloads stay out of the matrix; everything else runs at 1 and
# 2 workers and at an oversubscribed 4.
for threads in 1 2 4; do
    HETSEP_THREADS=$threads cargo test -q -p hetsep-core --release --test determinism -- \
        --skip generated_workloads
done
# Budget exhaustion mid-fan-out: the cancellation watermark must reproduce
# the serial outcome on every run, not just most of them, so the race-prone
# test is looped.
for t in 1 2; do
    for _ in $(seq 20); do
        HETSEP_THREADS=$t cargo test -q -p hetsep-core --release --test determinism -- \
            cancellation_mid_partition_is_schedule_independent > /dev/null
    done
done
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo run -q -p hetsep --example quickstart --release > /dev/null

# Static pre-verification gate: the shipped example programs must lint
# clean (no E-codes, no warnings).
for prog in examples/programs/*.hsp; do
    cargo run -q -p hetsep --bin hetsep --release -- lint "$prog" --quiet --deny warnings
done
# The bundled benchmarks are linted against a golden instead: the suite
# deliberately contains buggy programs (KernelBench1's iterator misuse is
# a true positive for the flow-sensitive W105), so the gate pins the exact
# diagnostic stream rather than requiring silence. New or vanished
# warnings both fail the diff.
cargo run -q -p hetsep --bin hetsep --release -- \
    lint --suite --format json --quiet | diff -u scripts/lint_quick.golden -

# Reporting golden: `table3_quick GOLDEN` diffs the semantic columns of
# the last Table 3 run (wall-clock columns deliberately excluded) against
# GOLDEN. Guards the space/visits and reported/complete accounting against
# silent drift.
table3_quick_json="$(mktemp)"
table3_quick() {
    sed 's/"subproblems".*//' "$table3_quick_json" | sed -n \
        's/.*"benchmark": "\([^"]*\)", "mode": "\([^"]*\)", "space": \([0-9]*\), "visits": \([0-9]*\),.*"reported": \([^,]*\), "complete": \([^,]*\),.*/\1 \2 space=\3 visits=\4 reported=\5 complete=\6/p' \
        | diff -u "$1" -
}
# The same columns over every Table 3 program, so the rows that spend their
# time in predicate updates and coerce (KernelBench3, SQLExecutor,
# InputStream5/5b/6, JDBCExample(Fixed), SharedLib) are pinned too;
# SQLExecutor inc is the heaviest heterogeneous row.
cargo run -q -p hetsep-bench --bin table3 --release -- --threads 1 --json "$table3_quick_json" \
    ISPath InputStream5 InputStream5b InputStream6 HandleReuse JDBCExample JDBCExampleFixed \
    db KernelBench1 KernelBench3 SQLExecutor SharedLib SharedLibLoop > /dev/null
table3_quick scripts/table3_suite.golden

# EXPERIMENTS.md's Table 3 block is rendered from the committed
# BENCH_table3.json; the two must agree.
python3 scripts/table3_block.py BENCH_table3.json --check EXPERIMENTS.md

# Trace golden: the NDJSON trace rendered from a quick Table 3 subset's
# per-subproblem rows must be byte-identical to the committed golden,
# serially and with two subproblem threads.
# Phase timings stay off, so every `nanos` field is 0.
trace_quick="$(mktemp)"
cargo run -q -p hetsep-bench --bin table3 --release -- \
    --threads 1 --json "$table3_quick_json" --trace "$trace_quick" \
    ISPath db SharedLibLoop > /dev/null
diff -u scripts/trace_quick.golden "$trace_quick"
cargo run -q -p hetsep-bench --bin table3 --release -- \
    --threads 2 --json "$table3_quick_json" --trace "$trace_quick" \
    ISPath db SharedLibLoop > /dev/null
diff -u scripts/trace_quick.golden "$trace_quick"
rm -f "$table3_quick_json" "$trace_quick"

# Ablation golden: the paper's §4.3 claims on the `ablation` bin — no
# transitive relevance brings back InputStream5's false alarm, and no
# heterogeneous abstraction stores 13085 structures against 6011 — plus
# every other row, pinned byte for byte.
cargo run -q -p hetsep-bench --bin ablation --release | diff -u scripts/ablation_quick.golden -

# Figure golden: the `fig2`, `fig3` and `fig7` bins (paper Figs. 2/5, 3
# and 7) print no timings, so their concatenated output is pinned byte for
# byte.
for fig in fig2 fig3 fig7; do
    cargo run -q -p hetsep-bench --bin "$fig" --release
done | diff -u scripts/figs_quick.golden -

# Corpus scheduler smoke gate: a 50-job generated corpus run cold at 4 and
# at 1 worker, then warm through the persisted cross-job cache. Every run
# must reproduce the committed verdict summary (the summary line is
# schedule- and cache-independent by the scheduler's determinism contract).
# The two cold caches must be byte-identical: store files do not depend on
# the schedule. A warm run at the same seed must replay from the cold cache
# alone: every one of its 50 per-job rows reports zero shared-store misses,
# and the cache file it rewrites stays byte-identical.
# Then a warm batch at another seed on each cache merges what it computed
# into a non-empty store: the two caches must again be byte-identical, and
# so must the two batches' summary lines and per-job rows without
# wall-clock.
corpus_cache="$(mktemp -u)"
corpus_rows="$(mktemp)"
cargo run -q -p hetsep --bin hetsep --release -- \
    corpus --jobs 50 --seed 42 --workers 4 --cache "$corpus_cache" --quiet \
    | diff -u scripts/corpus_quick.golden -
cargo run -q -p hetsep --bin hetsep --release -- \
    corpus --jobs 50 --seed 42 --workers 1 --cache "$corpus_cache.1" --quiet \
    | diff -u scripts/corpus_quick.golden -
cmp "$corpus_cache" "$corpus_cache.1"
cargo run -q -p hetsep --bin hetsep --release -- \
    corpus --jobs 50 --seed 42 --workers 4 --cache "$corpus_cache" --quiet \
    --json "$corpus_rows" | diff -u scripts/corpus_quick.golden -
[ "$(grep -c '"shared_misses"' "$corpus_rows")" -eq 50 ]
[ "$(grep -c '"shared_misses": 0,' "$corpus_rows")" -eq 50 ]
cmp "$corpus_cache" "$corpus_cache.1"
for workers in 4 1; do
    suffix="$([ "$workers" -eq 4 ] || echo .1)"
    cargo run -q -p hetsep --bin hetsep --release -- \
        corpus --jobs 50 --seed 7 --workers "$workers" --cache "$corpus_cache$suffix" \
        --quiet --json "$corpus_rows$suffix" > "$corpus_rows$suffix.out"
    sed -E 's/, "wall_ms": [0-9.]+//' "$corpus_rows$suffix" >> "$corpus_rows$suffix.out"
done
cmp "$corpus_cache" "$corpus_cache.1"
cmp "$corpus_rows.out" "$corpus_rows.1.out"
[ "$(grep -c '"shared_hits": [1-9]' "$corpus_rows.out")" -gt 0 ]
rm -f "$corpus_rows.1" "$corpus_rows.out" "$corpus_rows.1.out"
rm -f "$corpus_cache" "$corpus_cache.1" "$corpus_rows"

# Hostile cache input: a 28-byte cache file whose transfer store declares
# one structure of u32::MAX words must be rejected with the CLI's error
# diagnostic (exit 2), not abort the process reserving 32 GiB. Layout:
# store magic, 0 contexts, 0 keys, 1 structure: id 0, u32::MAX words.
{
    printf 'HSEPTC02'
    printf '\000\000\000\000\000\000\000\000\001\000\000\000'
    printf '\000\000\000\000\377\377\377\377'
} > "$corpus_cache"
[ "$(wc -c < "$corpus_cache")" -eq 28 ]
corpus_status=0
cargo run -q -p hetsep --bin hetsep --release -- \
    corpus --jobs 1 --cache "$corpus_cache" --quiet > /dev/null 2> "$corpus_cache.err" \
    || corpus_status=$?
[ "$corpus_status" -eq 2 ]
grep -q '^error: ' "$corpus_cache.err"
rm -f "$corpus_cache" "$corpus_cache.err"

# Verification-daemon smoke gate: a canned NDJSON session (load a buggy
# program, verify cold, re-verify warm, load the edited fix, re-verify,
# lint twice, an unknown-name error, status, flip back to the first content
# and re-verify twice, a `multi` and an `inc` verify, status, shutdown) must
# reproduce the committed transcript byte-for-byte. Responses are deliberately
# wall-clock-free, so this pins verdicts AND the warm-replay cache
# accounting (the warm verify's shared_hits/cache_misses are part of the
# golden). `--preanalysis` makes the pruning columns live: the fixed
# program's only subproblem is pruned (zero visits), and the repeated lint
# must come from the workspace lint cache (`lint_cache_hits` in status);
# repeated verifies reuse their program's prepared verification
# (`prepared_hits` in status) without changing any verify line.
cargo run -q -p hetsep --bin hetsep --release -- \
    serve --quiet --preanalysis < scripts/serve_session.ndjson \
    | diff -u scripts/serve_quick.golden -
