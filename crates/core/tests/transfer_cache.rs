//! Exactness of transfer-store replay.
//!
//! A run with a shared transfer session (`Verifier::shared_cache`) probes
//! the store for every `(action content, input structure)` key before it
//! computes the focus → coerce → update → canon pipeline, and replays a hit's
//! canonical posts, violations and peak universe. Because the pipeline is
//! deterministic, a replay must be *exact*: for every Table 3 row, a run with
//! no store, a run on a cold store and a run warm from the cold store's
//! cache-file bytes agree on the verdict, the reported-error set, the
//! completeness flag, the visit and space figures and every per-site
//! statistic. The warm run computes nothing: every probe hits. Only
//! wall-clock time and the cache counters may differ.

use hetsep_core::{
    CacheFile, Counter, EngineConfig, Mode, SharedTransferSession, TransferStore,
    VerificationReport, Verifier, VerifyError,
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

/// Everything observable except wall time and the cache counters.
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
        assert_eq!(
            x.stats.distinct_structures, y.stats.distinct_structures,
            "{label}: interner arena size changed (a replay must not \
             materialize or skip distinct structures)"
        );
        assert_eq!(x.errors, y.errors, "{label}: per-site errors changed");
    }
}

/// Runs `bench` in `mode` with no store, on a cold store, and warm from
/// the cold store's cache-file bytes; checks that the three agree and that
/// the warm run replays every transfer. Returns the warm run's store hits.
fn assert_store_replay_is_exact(bench: &Benchmark, table_mode: TableMode) -> u64 {
    let label = format!("{}/{}", bench.name, table_mode.label());
    let program = bench.program();
    let spec = bench.spec();
    let mode = core_mode(bench, table_mode).unwrap();
    let verifier = || Verifier::new(&program, &spec).mode(mode.clone()).config(budget());
    let run_with = |store: &TransferStore| {
        let session = SharedTransferSession::new(store);
        let report = verifier().shared_cache(&session).run().unwrap();
        (report, session.into_deltas())
    };

    let plain = verifier().run().unwrap();
    assert_eq!(
        plain.metrics.counters.get(Counter::SharedCacheHits)
            + plain.metrics.counters.get(Counter::SharedCacheMisses),
        0,
        "{label}: a run without a session touched a store"
    );

    let mut store = TransferStore::new();
    let (cold, deltas) = run_with(&store);
    store.absorb(deltas);
    assert_equivalent(&format!("{label} cold"), &plain, &cold);
    assert_eq!(
        cold.metrics.counters.get(Counter::SharedCacheHits),
        0,
        "{label}: an empty store cannot answer"
    );

    let bytes = store.to_bytes();
    let warm_store = CacheFile::from_bytes(&bytes).expect("round-trip").transfers;
    let (warm, warm_deltas) = run_with(&warm_store);
    assert_equivalent(&format!("{label} warm"), &plain, &warm);
    assert_eq!(
        warm.metrics.counters.get(Counter::SharedCacheMisses),
        0,
        "{label}: the warm run must replay every transfer from the store"
    );
    assert_eq!(
        warm.metrics.counters.get(Counter::TransferCacheMisses),
        0,
        "{label}: the warm run must compute nothing"
    );
    assert!(warm_deltas.is_empty(), "{label}: a fully warm run records nothing");
    warm.metrics.counters.get(Counter::SharedCacheHits)
}

/// Small hand-written programs covering the interesting transfer shapes:
/// loops (revisited structures), branches (merge joins), error paths
/// (violation replay), and allocation.
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
            let hits = assert_store_replay_is_exact(&bench, table_mode);
            assert!(hits > 0, "{name}: the warm run must replay from the store");
        }
    }
}

/// Every Table 3 row, three ways. Expensive (the full table three times) —
/// release builds only, like the pruning suite.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn store_replay_is_observation_equivalent_on_every_table3_row() {
    for bench in hetsep_suite::all() {
        for &table_mode in &bench.modes {
            assert_store_replay_is_exact(&bench, table_mode);
        }
    }
}
