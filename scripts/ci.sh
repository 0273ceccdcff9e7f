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
# coerce, and settled structures against blurring them.
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
    settled_structure_blurs_to_itself
cargo test -q -p hetsep-tvl --release --test bulk_grow

# Scheduler determinism matrix: the scenario-suite byte-identity contracts
# must hold whatever the outer (subproblem) and inner (intra-batch
# transfer fan-out) worker counts are. The expensive generated workloads
# stay out of the matrix; everything else runs under every env setting:
# the full outer {1,2} x inner {1,2} cross, plus an oversubscribed 4/4 leg.
for workers in 1/1 1/2 2/1 2/2 4/4; do
    HETSEP_THREADS=${workers%/*} HETSEP_INTRA_THREADS=${workers#*/} \
        cargo test -q -p hetsep-core --release --test determinism -- \
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

# Transfer-cache / reporting golden: a quick Table 3 subset must keep its
# semantic columns byte-identical to the committed golden (wall-clock
# columns deliberately excluded). Guards the exact transfer cache and the
# reported/complete accounting against silent drift.
table3_quick_json="$(mktemp)"
table3_quick() {
    sed 's/"subproblems".*//' "$table3_quick_json" | sed -n \
        's/.*"benchmark": "\([^"]*\)", "mode": "\([^"]*\)", "space": \([0-9]*\), "visits": \([0-9]*\),.*"reported": \([^,]*\), "complete": \([^,]*\),.*/\1 \2 space=\3 visits=\4 reported=\5 complete=\6/p' \
        | diff -u "${1:-scripts/table3_quick.golden}" -
}
# The same columns over every Table 3 program, so the rows that spend their
# time in predicate updates and coerce (KernelBench3, SQLExecutor,
# InputStream5/5b/6, JDBCExample(Fixed), SharedLib) are pinned too;
# SQLExecutor inc is the heaviest heterogeneous row.
cargo run -q -p hetsep-bench --bin table3 --release -- --threads 1 --json "$table3_quick_json" \
    ISPath InputStream5 InputStream5b InputStream6 HandleReuse JDBCExample JDBCExampleFixed \
    db KernelBench1 KernelBench3 SQLExecutor SharedLib SharedLibLoop > /dev/null
table3_quick scripts/table3_suite.golden
# The quick subset with the intra-batch transfer fan-out forced on: partition
# workers may only change wall-clock, never a semantic column.
HETSEP_INTRA_THREADS=4 cargo run -q -p hetsep-bench --bin table3 --release -- \
    --threads 1 --json "$table3_quick_json" ISPath KernelBench1 db SharedLibLoop > /dev/null
table3_quick
# And the summaries A/B: `--no-summaries` is the inlining-equivalent
# baseline, so the semantic columns must be byte-identical against the
# very same golden — only wall-clock and the summary counters may move.
cargo run -q -p hetsep-bench --bin table3 --release -- \
    --threads 1 --no-summaries --json "$table3_quick_json" \
    ISPath KernelBench1 db SharedLibLoop > /dev/null
table3_quick

# Trace golden: the NDJSON trace rendered from a quick Table 3 subset's
# per-subproblem rows must be byte-identical to the committed golden,
# serially and with both the subproblem and the intra-batch fan-out on.
# Phase timings stay off, so every `nanos` field is 0.
trace_quick="$(mktemp)"
cargo run -q -p hetsep-bench --bin table3 --release -- \
    --threads 1 --json "$table3_quick_json" --trace "$trace_quick" \
    ISPath db SharedLibLoop > /dev/null
diff -u scripts/trace_quick.golden "$trace_quick"
HETSEP_INTRA_THREADS=2 cargo run -q -p hetsep-bench --bin table3 --release -- \
    --threads 2 --json "$table3_quick_json" --trace "$trace_quick" \
    ISPath db SharedLibLoop > /dev/null
diff -u scripts/trace_quick.golden "$trace_quick"
rm -f "$table3_quick_json" "$trace_quick"

# Ablation golden: the paper's §4.3 claims on the `ablation` bin — no
# transitive relevance brings back InputStream5's false alarm, and no
# heterogeneous abstraction stores 13085 structures against 6011 — plus
# every other row, pinned byte for byte.
cargo run -q -p hetsep-bench --bin ablation --release | diff -u scripts/ablation_quick.golden -

# Per-procedure summary gate: the shared-library bench asserts internally
# that verdicts/visits/space are identical across baseline (summaries
# off), cold, and warm runs, that the in-run memo and the cross-run store
# both hit, and that every region evaluation is exactly one hit or miss.
summaries_json="$(mktemp)"
cargo run -q -p hetsep-bench --bin summaries --release -- \
    --json "$summaries_json" --repeats 1 > /dev/null
rm -f "$summaries_json"

# Corpus scheduler smoke gate: a 50-job generated corpus run cold at 4 and
# at 1 worker, then warm through the persisted cross-job cache. Every run
# must reproduce the committed verdict summary (the summary line is
# schedule- and cache-independent by the scheduler's determinism contract).
# The two cold caches must be byte-identical: store files do not depend on
# the schedule. The warm run must replay from the cache: every one of its
# 50 per-job rows reports zero shared-store misses.
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
rm -f "$corpus_cache" "$corpus_cache.1" "$corpus_rows"

# Hostile cache input: a 44-byte container whose transfer section declares
# one structure of u32::MAX words must be rejected with the CLI's error
# diagnostic (exit 2), not abort the process reserving 32 GiB. Layout:
# container magic, section length 28, section magic, 0 contexts, 0 keys,
# 1 structure: id 0, u32::MAX words.
{
    printf 'HSEPWS02\034\000\000\000\000\000\000\000HSEPTC01'
    printf '\000\000\000\000\000\000\000\000\001\000\000\000'
    printf '\000\000\000\000\377\377\377\377'
} > "$corpus_cache"
[ "$(wc -c < "$corpus_cache")" -eq 44 ]
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
