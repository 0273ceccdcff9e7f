//! Call regions behind the transfer store.
//!
//! A spliced call region is drained like the rest of the CFG (the paper
//! inlines procedures), so its interior is a sequence of transfers that the
//! per-run transfer cache and the cross-run transfer store replay like any
//! other. For the region-heavy shared-library family the verdict, the
//! reported-error set, the failing allocation sites, the visit counts, the
//! space peaks and the call-evaluation count are byte-identical with the
//! transfer cache on or off, and cold or warm over a store round-tripped
//! through the cache file format. Only wall-clock time and the cache
//! counters may differ.

use hetsep_core::engine::run_shared;
use hetsep_core::{
    translate, CacheFile, Counter, EngineConfig, Mode, SharedTransferSession, TransferStore,
    TranslateOptions, VerificationReport, Verifier, VerifyError,
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

/// Everything observable except wall time and the cache counters must
/// match between two runs of one program and mode.
fn assert_equivalent(label: &str, a: &VerificationReport, b: &VerificationReport) {
    assert_eq!(
        format!("{:?}", a.errors),
        format!("{:?}", b.errors),
        "{label}: error reports differ"
    );
    assert_eq!(a.verified(), b.verified(), "{label}: verdict differs");
    assert_eq!(a.complete, b.complete, "{label}: complete flag differs");
    assert_eq!(a.total_visits, b.total_visits, "{label}: visit counts differ");
    assert_eq!(a.max_space, b.max_space, "{label}: space differs");
    assert_eq!(a.peak_nodes, b.peak_nodes, "{label}: peak universe differs");
    assert_eq!(
        a.subproblems.len(),
        b.subproblems.len(),
        "{label}: subproblem fan-out differs"
    );
    for (x, y) in a.subproblems.iter().zip(&b.subproblems) {
        assert_eq!(x.site, y.site, "{label}: site order changed");
        assert_eq!(x.outcome, y.outcome, "{label}: per-site outcome changed");
        assert_eq!(x.stats.visits, y.stats.visits, "{label}: per-site visits changed");
        assert_eq!(
            x.stats.structures, y.stats.structures,
            "{label}: per-site space changed"
        );
        assert_eq!(
            x.stats.peak_nodes, y.stats.peak_nodes,
            "{label}: per-site peak universe changed"
        );
        assert_eq!(x.errors, y.errors, "{label}: per-site errors changed");
    }
    assert_eq!(
        a.metrics.counters.get(Counter::CallEvaluations),
        b.metrics.counters.get(Counter::CallEvaluations),
        "{label}: region-entry pops are counted the same either way"
    );
}

/// The shared-library family in debug runs, transfer cache on against off:
/// small, region-heavy, and it covers both the correct and the erroneous
/// (violation-replay) paths.
#[test]
fn shared_lib_family_is_observation_equivalent() {
    let mut evaluations = 0u64;
    for name in ["SharedLib", "SharedLibLoop"] {
        let bench = hetsep_suite::by_name(name).unwrap();
        let program = bench.program();
        let spec = bench.spec();
        for &table_mode in &bench.modes {
            let mode = core_mode(&bench, table_mode).unwrap();
            let run = |cache: bool| {
                Verifier::new(&program, &spec)
                    .mode(mode.clone())
                    .config(budget())
                    .with_transfer_cache(cache)
                    .run()
                    .unwrap()
            };
            let on = run(true);
            assert_equivalent(&format!("{name}/{table_mode:?}"), &run(false), &on);
            assert!(on.metrics.counters.get(Counter::TransferCacheHits) > 0);
            evaluations += on.metrics.counters.get(Counter::CallEvaluations);
        }
    }
    assert!(evaluations > 0, "the family should evaluate call regions");
}

/// Cross-run persistence: a warm run over a transfer store that went
/// through the cache file's bytes replays every transfer, call-region
/// interiors included, with byte-identical observable results. The inputs
/// cover the error-free `SharedLib` and the erroneous `SharedLibLoop` in
/// vanilla and both separation modes, where region interiors raise
/// violations and flag failing allocation sites that the warm replay must
/// reproduce.
#[test]
fn persisted_transfer_store_replays_call_regions() {
    for (name, table_mode) in [
        ("SharedLib", TableMode::Vanilla),
        ("SharedLibLoop", TableMode::Vanilla),
        ("SharedLibLoop", TableMode::Single),
        ("SharedLibLoop", TableMode::Sim),
    ] {
        let bench = hetsep_suite::by_name(name).unwrap();
        let mode = core_mode(&bench, table_mode).unwrap();
        assert_warm_replay_is_equivalent(&bench, &mode, &format!("{name}/{table_mode:?}"));
    }
}

/// The store's cache file bytes, loaded back.
fn round_trip(store: &TransferStore) -> TransferStore {
    let bytes = store.to_bytes();
    let loaded = CacheFile::from_bytes(&bytes).expect("round-trip").transfers;
    assert_eq!(loaded.to_bytes(), bytes, "serialization is deterministic");
    loaded
}

fn assert_warm_replay_is_equivalent(bench: &Benchmark, mode: &Mode, label: &str) {
    let program = bench.program();
    let spec = bench.spec();
    let run_with = |store: &TransferStore| {
        let session = SharedTransferSession::new(store);
        let report = Verifier::new(&program, &spec)
            .mode(mode.clone())
            .config(budget())
            .shared_cache(&session)
            .run()
            .unwrap();
        (report, session.into_deltas())
    };

    let mut store = TransferStore::new();
    let (cold, deltas) = run_with(&store);
    store.absorb(deltas);
    assert!(store.entry_count() > 0, "{label}: cold run must populate the store");
    assert!(cold.metrics.counters.get(Counter::CallEvaluations) > 0);

    let (warm, warm_deltas) = run_with(&round_trip(&store));
    assert_equivalent(label, &cold, &warm);
    assert_eq!(
        warm.metrics.counters.get(Counter::SharedCacheMisses),
        0,
        "{label}: the warm run must replay every transfer from the store"
    );
    assert!(warm.metrics.counters.get(Counter::SharedCacheHits) > 0);
    assert!(
        warm_deltas.is_empty(),
        "{label}: a fully warmed run should record nothing new"
    );

    // Failing sites live on the engine run, not the report: check them on
    // the one instance the mode's probe (or simultaneous run) translates.
    let options = match mode {
        Mode::Vanilla => TranslateOptions::default(),
        Mode::Separation { strategy, .. } => TranslateOptions {
            stage: Some(strategy.stages[0].clone()),
            heterogeneous: true,
            ..TranslateOptions::default()
        },
        Mode::Incremental { .. } => unreachable!("the family has no incremental mode"),
    };
    let instance = translate(&program, &spec, &options).unwrap();
    let run_engine = |store: &TransferStore| {
        let session = SharedTransferSession::new(store);
        let result = run_shared(&instance, &budget(), None, Some(&session));
        (result, session.into_deltas())
    };
    let mut store = TransferStore::new();
    let (cold, deltas) = run_engine(&store);
    store.absorb(deltas);
    let (warm, warm_deltas) = run_engine(&round_trip(&store));
    if !matches!(mode, Mode::Vanilla) {
        assert_eq!(
            cold.failing_sites.is_empty(),
            cold.errors.is_empty(),
            "{label}: a violation inside the library flags its stream's site"
        );
    }
    assert_eq!(
        cold.failing_sites, warm.failing_sites,
        "{label}: failing sites differ"
    );
    assert_eq!(cold.errors, warm.errors, "{label}: engine errors differ");
    assert_eq!(cold.stats.visits, warm.stats.visits, "{label}: engine visits differ");
    assert_eq!(
        cold.stats.structures, warm.stats.structures,
        "{label}: engine space differs"
    );
    assert_eq!(
        warm.stats.metrics.counters.get(Counter::SharedCacheMisses),
        0,
        "{label}: the warm engine run must replay every transfer"
    );
    assert!(warm_deltas.is_empty(), "{label}: the warm engine run records nothing new");
}
