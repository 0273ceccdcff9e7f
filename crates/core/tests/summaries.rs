//! Exactness of the per-procedure summary cache.
//!
//! Summaries (`EngineConfig::summaries` / `Verifier::with_summaries`)
//! memoize whole call-region evaluations per (region content, interned
//! input abstraction) key. A summary replay re-applies the recorded exit
//! structures, violations, failing sites, and the region's visit/space
//! accounting — so for every suite benchmark and every Table 3 mode the
//! verdict, the reported-error set, the completeness flag, the visit
//! counts, and the space peaks are byte-identical with summaries on and
//! off. Only wall-clock time, the summary counters, and *interner arena
//! size* (a replay does not re-intern the region's interior states) may
//! differ — which is exactly the transfer-cache exactness contract, one
//! level up.

use hetsep_core::summary::SharedSummarySession;
use hetsep_core::{
    Counter, EngineConfig, Mode, SummaryStore, VerificationReport, Verifier, VerifyError,
};
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

fn run(bench: &Benchmark, mode: &Mode, summaries: bool) -> VerificationReport {
    let program = bench.program();
    let spec = bench.spec();
    Verifier::new(&program, &spec)
        .mode(mode.clone())
        .config(budget())
        .with_summaries(summaries)
        .run()
        .unwrap()
}

/// Everything observable except wall time, the summary counters, and the
/// interner arena size must match between a summaries-on and a
/// summaries-off (inlining-equivalent) run.
fn assert_equivalent(
    name: &str,
    mode_label: &str,
    off: &VerificationReport,
    on: &VerificationReport,
) {
    assert_eq!(
        format!("{:?}", off.errors),
        format!("{:?}", on.errors),
        "{name}/{mode_label}: error reports differ with summaries"
    );
    assert_eq!(
        off.verified(),
        on.verified(),
        "{name}/{mode_label}: verdict differs with summaries"
    );
    assert_eq!(
        off.complete, on.complete,
        "{name}/{mode_label}: complete flag differs with summaries"
    );
    assert_eq!(
        off.total_visits, on.total_visits,
        "{name}/{mode_label}: visit counts differ with summaries"
    );
    assert_eq!(
        off.max_space, on.max_space,
        "{name}/{mode_label}: space differs with summaries"
    );
    assert_eq!(
        off.peak_nodes, on.peak_nodes,
        "{name}/{mode_label}: peak universe differs with summaries"
    );
    assert_eq!(
        off.subproblems.len(),
        on.subproblems.len(),
        "{name}/{mode_label}: subproblem fan-out differs with summaries"
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
        assert_eq!(o.errors, n.errors, "{name}/{mode_label}: per-site errors changed");
        // Deliberately NOT compared: `distinct_structures` — a replayed
        // region skips interning its interior states, so the arena is
        // allowed to stay smaller with summaries on.
    }
    // The off run must not touch the summary machinery at all; the on run
    // accounts for every region evaluation as exactly one hit or one miss.
    for c in [
        Counter::CallEvaluations,
        Counter::SummaryHits,
        Counter::SummaryMisses,
        Counter::SharedSummaryHits,
    ] {
        assert_eq!(
            off.metrics.counters.get(c),
            0,
            "{name}/{mode_label}: summaries-off run touched {c:?}"
        );
    }
    assert_eq!(
        on.metrics.counters.get(Counter::SummaryHits)
            + on.metrics.counters.get(Counter::SummaryMisses),
        on.metrics.counters.get(Counter::CallEvaluations),
        "{name}/{mode_label}: every region evaluation is one hit or one miss"
    );
}

/// The shared-library family in debug runs: small, region-heavy, covers
/// both the correct and the erroneous (violation-replay) paths.
#[test]
fn shared_lib_family_is_observation_equivalent() {
    let mut total_hits = 0u64;
    for name in ["SharedLib", "SharedLibLoop"] {
        let bench = hetsep_suite::by_name(name).unwrap();
        for &table_mode in &bench.modes {
            let mode = core_mode(&bench, table_mode).unwrap();
            let off = run(&bench, &mode, false);
            let on = run(&bench, &mode, true);
            assert_equivalent(bench.name, table_mode.label(), &off, &on);
            total_hits += on.metrics.counters.get(Counter::SummaryHits);
        }
    }
    assert!(
        total_hits > 0,
        "the in-run memo should hit at least once on the shared-library family"
    );
}

/// Every suite benchmark × every Table 3 mode, summaries on vs off.
/// Expensive (the full table twice) — release builds only, like the
/// transfer-cache and pruning suite matrices.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn summaries_are_observation_equivalent_on_the_suite() {
    let mut total_evals = 0u64;
    for bench in hetsep_suite::all() {
        for &table_mode in &bench.modes {
            let mode = core_mode(&bench, table_mode).unwrap();
            let off = run(&bench, &mode, false);
            let on = run(&bench, &mode, true);
            assert_equivalent(bench.name, table_mode.label(), &off, &on);
            total_evals += on.metrics.counters.get(Counter::CallEvaluations);
        }
    }
    assert!(
        total_evals > 0,
        "the suite should evaluate at least one call region"
    );
}

/// Cross-run persistence: a warm run over a *serialized and reloaded*
/// summary store replays regions from the store (strictly fewer misses,
/// shared hits observed) with byte-identical observable results. The
/// inputs cover the error-free `SharedLib` and the erroneous
/// `SharedLibLoop` in vanilla and both separation modes, where regions
/// record violations and failing allocation sites that the warm replay
/// must reproduce.
#[test]
fn persisted_summary_store_is_observation_equivalent() {
    for (name, table_mode) in [
        ("SharedLib", TableMode::Vanilla),
        ("SharedLibLoop", TableMode::Vanilla),
        ("SharedLibLoop", TableMode::Single),
        ("SharedLibLoop", TableMode::Sim),
    ] {
        let bench = hetsep_suite::by_name(name).unwrap();
        let mode = core_mode(&bench, table_mode).unwrap();
        let label = format!("{}-warm", table_mode.label());
        assert_warm_replay_is_equivalent(&bench, &mode, &label);
    }
}

fn assert_warm_replay_is_equivalent(bench: &Benchmark, mode: &Mode, label: &str) {
    let name = bench.name;
    let program = bench.program();
    let spec = bench.spec();
    let run_with = |store: &SummaryStore| {
        let session = SharedSummarySession::new(store);
        let report = Verifier::new(&program, &spec)
            .mode(mode.clone())
            .config(budget())
            .shared_summaries(&session)
            .run()
            .unwrap();
        (report, session.into_deltas())
    };

    let mut store = SummaryStore::new();
    let (cold, deltas) = run_with(&store);
    store.absorb(deltas);
    assert!(store.entry_count() > 0, "{name}/{label}: cold run must populate the store");

    let bytes = store.to_bytes();
    let reloaded = SummaryStore::from_bytes(&bytes).expect("round-trip");
    assert_eq!(reloaded.entry_count(), store.entry_count());
    assert_eq!(reloaded.to_bytes(), bytes, "serialization is deterministic");

    let (warm, warm_deltas) = run_with(&reloaded);
    // The cold run *did* use summaries; clearing its metrics lets the
    // invariant-checking comparison treat it as the reference side.
    let mut reference = cold.clone();
    reference.metrics = Default::default();
    assert_equivalent(name, label, &reference, &warm);

    let cold_misses = cold.metrics.counters.get(Counter::SummaryMisses);
    let warm_misses = warm.metrics.counters.get(Counter::SummaryMisses);
    assert!(
        warm_misses < cold_misses,
        "{name}/{label}: warm run must miss less: {warm_misses} vs {cold_misses}"
    );
    assert!(
        warm.metrics.counters.get(Counter::SharedSummaryHits) > 0,
        "{name}/{label}: warm run must replay from the shared store"
    );
    // The repeat run is a fixed point of the store: nothing new to record.
    assert!(
        warm_deltas.is_empty(),
        "{name}/{label}: a fully warmed run should record no new summaries"
    );
}
