//! Exactness of the transfer-function cache.
//!
//! The cache (`EngineConfig::transfer_cache` / `Verifier::with_transfer_cache`)
//! memoizes the full focus → coerce → update → canon pipeline per
//! `(action, interned pre-structure)` key. Because structure ids are
//! hash-consed (id equality ⇔ structure equality) and the pipeline is
//! deterministic, cache hits must be *exact*: for every suite benchmark and
//! every Table 3 mode, the verdict, the reported-error set, the completeness
//! flag, and the per-site `visits`/`structures` statistics are byte-identical
//! with the cache on and off. Only wall-clock time and the work counters of
//! the skipped phases may differ.

use hetsep_core::{AnalysisOutcome, Counter, EngineConfig, Mode, VerificationReport, Verifier, VerifyError};
use hetsep_strategy::parse_strategy;
use hetsep_suite::{Benchmark, TableMode};

/// The Table 3 budget (mirrors `hetsep::harness::table3_config`, which the
/// core crate cannot depend on).
fn budget() -> EngineConfig {
    EngineConfig {
        max_visits: 400_000,
        max_structures: 120_000,
        ..EngineConfig::default()
    }
}

fn core_mode(bench: &Benchmark, mode: TableMode) -> Result<Mode, VerifyError> {
    let parse =
        |src: &str| parse_strategy(src).map_err(|e| VerifyError::Strategy(e.to_string()));
    Ok(match mode {
        TableMode::Vanilla => Mode::Vanilla,
        TableMode::Single => Mode::separation(parse(bench.single_strategy)?),
        TableMode::Sim => Mode::simultaneous(parse(bench.single_strategy)?),
        TableMode::Multi => Mode::separation(parse(bench.multi_strategy.unwrap())?),
        TableMode::Inc => Mode::incremental(parse(bench.incremental_strategy.unwrap())?),
    })
}

fn run(bench: &Benchmark, mode: &Mode, cache: bool) -> VerificationReport {
    let program = bench.program();
    let spec = bench.spec();
    Verifier::new(&program, &spec)
        .mode(mode.clone())
        .config(budget())
        .with_transfer_cache(cache)
        .run()
        .unwrap()
}

/// The heart of the tentpole: a cache hit replays exactly what the pipeline
/// would have computed, so *everything observable* except wall time matches.
fn assert_equivalent(
    name: &str,
    mode_label: &str,
    off: &VerificationReport,
    on: &VerificationReport,
) {
    assert_eq!(
        format!("{:?}", off.errors),
        format!("{:?}", on.errors),
        "{name}/{mode_label}: error reports differ with the cache"
    );
    assert_eq!(
        off.verified(),
        on.verified(),
        "{name}/{mode_label}: verdict differs with the cache"
    );
    assert_eq!(
        off.complete, on.complete,
        "{name}/{mode_label}: complete flag differs with the cache"
    );
    assert_eq!(
        off.total_visits, on.total_visits,
        "{name}/{mode_label}: visit counts differ with the cache"
    );
    assert_eq!(
        off.max_space, on.max_space,
        "{name}/{mode_label}: space differs with the cache"
    );
    assert_eq!(
        off.peak_nodes, on.peak_nodes,
        "{name}/{mode_label}: peak universe differs with the cache"
    );
    assert_eq!(
        off.subproblems.len(),
        on.subproblems.len(),
        "{name}/{mode_label}: subproblem fan-out differs with the cache"
    );
    for (o, n) in off.subproblems.iter().zip(&on.subproblems) {
        assert_eq!(o.site, n.site, "{name}/{mode_label}: site order changed");
        assert_eq!(o.outcome, n.outcome, "{name}/{mode_label}: per-site outcome changed");
        assert_eq!(
            o.stats.visits, n.stats.visits,
            "{name}/{mode_label}: per-site visits changed"
        );
        assert_eq!(
            o.stats.structures, n.stats.structures,
            "{name}/{mode_label}: per-site space changed"
        );
        assert_eq!(
            o.stats.peak_nodes, n.stats.peak_nodes,
            "{name}/{mode_label}: per-site peak universe changed"
        );
        assert_eq!(
            o.stats.distinct_structures, n.stats.distinct_structures,
            "{name}/{mode_label}: interner arena size changed (cache must not \
             materialize or skip distinct structures)"
        );
        assert_eq!(o.errors, n.errors, "{name}/{mode_label}: per-site errors changed");
    }
    // The off run touches the cache counters not at all; the on run accounts
    // for every action application as exactly one hit or one miss. A run
    // that stops mid-visit (budget/cancel) breaks after counting the visit
    // but before the transfer step, losing at most one application per
    // non-complete subproblem.
    assert_eq!(
        off.metrics.counters.get(Counter::TransferCacheHits)
            + off.metrics.counters.get(Counter::TransferCacheMisses),
        0,
        "{name}/{mode_label}: cache-off run touched the cache"
    );
    let answered = on.metrics.counters.get(Counter::TransferCacheHits)
        + on.metrics.counters.get(Counter::TransferCacheMisses);
    let aborted = on
        .subproblems
        .iter()
        .filter(|s| s.outcome == AnalysisOutcome::BudgetExceeded)
        .count() as u64;
    assert!(
        answered + aborted >= on.total_visits && answered <= on.total_visits,
        "{name}/{mode_label}: hits + misses = {answered} does not account for \
         {} applications ({aborted} aborted subproblems)",
        on.total_visits
    );
    if on.complete {
        assert_eq!(
            answered, on.total_visits,
            "{name}/{mode_label}: complete run must answer every application \
             from the cache or compute it"
        );
    }
}

/// Small hand-written programs covering the interesting transfer shapes:
/// loops (revisited structures — the cache's bread and butter), branches
/// (merge joins), error paths (violation replay), and allocation.
#[test]
fn transfer_cache_is_observation_equivalent_on_scenarios() {
    let cases: &[(&str, &str)] = &[
        (
            "loop_fresh_streams",
            "program P uses IOStreams; void main() {\n\
             while (?) {\n\
             InputStream f = new InputStream();\n\
             f.read();\n\
             f.close();\n\
             }\n}",
        ),
        (
            "branchy_possible_error",
            "program P uses IOStreams; void main() {\n\
             InputStream f = new InputStream();\n\
             if (?) {\n\
             f.close();\n\
             }\n\
             f.read();\n}",
        ),
        (
            "definite_error_replay",
            "program P uses IOStreams; void main() {\n\
             InputStream f = new InputStream();\n\
             f.close();\n\
             f.read();\n}",
        ),
        (
            "nested_loops",
            "program P uses IOStreams; void main() {\n\
             while (?) {\n\
             InputStream f = new InputStream();\n\
             while (?) {\n\
             f.read();\n\
             }\n\
             f.close();\n\
             }\n}",
        ),
    ];
    for (name, src) in cases {
        let bench = Benchmark {
            name,
            description: "",
            source: (*src).to_owned(),
            single_strategy: hetsep_strategy::builtin::IOSTREAM_SINGLE,
            multi_strategy: None,
            incremental_strategy: None,
            modes: vec![TableMode::Vanilla, TableMode::Single],
            actual_errors: 0,
            expected_reported: vec![None, None],
        };
        for table_mode in [TableMode::Vanilla, TableMode::Single] {
            let mode = core_mode(&bench, table_mode).unwrap();
            let off = run(&bench, &mode, false);
            let on = run(&bench, &mode, true);
            assert_equivalent(name, table_mode.label(), &off, &on);
        }
    }
    // Spot-check that the loops actually exercise the cache: revisiting a
    // stabilized loop body must replay from the cache, not recompute.
    let bench = Benchmark {
        name: "loop_fresh_streams",
        description: "",
        source: cases[0].1.to_owned(),
        single_strategy: hetsep_strategy::builtin::IOSTREAM_SINGLE,
        multi_strategy: None,
        incremental_strategy: None,
        modes: vec![TableMode::Vanilla],
        actual_errors: 0,
        expected_reported: vec![None],
    };
    let mode = core_mode(&bench, TableMode::Vanilla).unwrap();
    let on = run(&bench, &mode, true);
    assert!(
        on.metrics.counters.get(Counter::TransferCacheHits) > 0,
        "a fixpoint loop must produce at least one cache hit"
    );
}

/// At a tiny capacity the cache overflows constantly, and two-generation
/// eviction must stay exact: verdicts, visits, space and errors are
/// byte-identical to an uncapped run.
#[test]
fn tiny_capacity_two_generation_eviction_is_exact() {
    let src = "program P uses IOStreams; void main() {\n\
               while (?) {\n\
               InputStream f = new InputStream();\n\
               while (?) {\n\
               f.read();\n\
               }\n\
               f.close();\n\
               }\n}";
    let bench = Benchmark {
        name: "nested_loops_tiny_cache",
        description: "",
        source: src.to_owned(),
        single_strategy: hetsep_strategy::builtin::IOSTREAM_SINGLE,
        multi_strategy: None,
        incremental_strategy: None,
        modes: vec![TableMode::Vanilla, TableMode::Single],
        actual_errors: 0,
        expected_reported: vec![None, None],
    };
    let program = bench.program();
    let spec = bench.spec();
    for table_mode in [TableMode::Vanilla, TableMode::Single] {
        let label = table_mode.label();
        let mode = core_mode(&bench, table_mode).unwrap();
        let uncapped = run(&bench, &mode, true);
        let capped = Verifier::new(&program, &spec)
            .mode(mode.clone())
            .config(EngineConfig {
                transfer_cache_capacity: 4,
                ..budget()
            })
            .run()
            .unwrap();
        assert_eq!(
            format!("{:?}", uncapped.errors),
            format!("{:?}", capped.errors),
            "{label}: errors differ under capacity 4"
        );
        assert_eq!(
            uncapped.verified(),
            capped.verified(),
            "{label}: verdict differs under capacity 4"
        );
        assert_eq!(
            uncapped.complete, capped.complete,
            "{label}: completeness differs under capacity 4"
        );
        assert_eq!(
            uncapped.total_visits, capped.total_visits,
            "{label}: visits differ under capacity 4 (eviction must only \
             re-compute, never re-explore)"
        );
        assert_eq!(
            uncapped.max_space, capped.max_space,
            "{label}: space differs under capacity 4"
        );
        assert_eq!(
            uncapped.peak_nodes, capped.peak_nodes,
            "{label}: peak universe differs under capacity 4"
        );
        assert!(
            capped.metrics.counters.get(Counter::TransferCacheEvictions) > 0,
            "{label}: capacity 4 must overflow the cache"
        );
        // The uncapped run never evicts: the counter stays an actual-eviction
        // count, not a rotation count.
        assert_eq!(
            uncapped.metrics.counters.get(Counter::TransferCacheEvictions),
            0,
            "{label}: uncapped run must not evict"
        );
    }
}

/// Every suite benchmark × every Table 3 mode, cache on vs off. Expensive
/// (the full table twice) — release builds only, like the pruning suite.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn transfer_cache_is_observation_equivalent_on_the_suite() {
    let mut total_hits = 0u64;
    for bench in hetsep_suite::all() {
        for &table_mode in &bench.modes {
            let mode = core_mode(&bench, table_mode).unwrap();
            let off = run(&bench, &mode, false);
            let on = run(&bench, &mode, true);
            assert_equivalent(bench.name, table_mode.label(), &off, &on);
            total_hits += on.metrics.counters.get(Counter::TransferCacheHits);
        }
    }
    assert!(
        total_hits > 0,
        "the cache should hit at least once somewhere in the suite"
    );
}
