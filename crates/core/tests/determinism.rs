//! Determinism regression tests for the parallel subproblem scheduler.
//!
//! For every benchmark exercised by the scenario suite (and the larger
//! generated workloads), a parallel run must be indistinguishable from a
//! serial run: byte-identical error reports, the same verified/complete
//! flags, the same structure counts, and — since the observability layer —
//! identical merged telemetry (phase counts and counters; wall-clock
//! sampling stays off, so every duration is 0 and `RunMetrics` equality is
//! exact). Visit counts may only differ when a run exceeds its budget
//! (cancellation timing is scheduling-dependent); every workload here
//! completes within budget, so full equality is asserted.

use hetsep_core::{
    verify, write_trace, Counter, EngineConfig, Mode, ParallelConfig, VerificationReport, Verifier,
};
use hetsep_strategy::builtin as strategies;
use hetsep_strategy::parse_strategy;
use hetsep_suite::generators::{jdbc_client, kernel, JdbcWorkload, KernelWorkload};

fn config_with_threads(threads: usize) -> EngineConfig {
    EngineConfig {
        parallel: ParallelConfig {
            threads,
            intra_threads: 0,
        },
        ..EngineConfig::default()
    }
}

fn config_with_workers(threads: usize, intra_threads: usize) -> EngineConfig {
    EngineConfig {
        parallel: ParallelConfig {
            threads,
            intra_threads,
        },
        ..EngineConfig::default()
    }
}

fn run_with_threads(src: &str, mode: &Mode, threads: usize) -> VerificationReport {
    let program = hetsep_ir::parse_program(src).unwrap();
    let spec = hetsep_easl::builtin::by_name(&program.uses).unwrap();
    verify(&program, &spec, mode, &config_with_threads(threads)).unwrap()
}

/// Asserts that serial (threads=1) and parallel (threads=4) runs agree on
/// everything observable: errors, flags, spaces, and per-subproblem stats.
fn assert_deterministic(name: &str, src: &str, mode: Mode) {
    let serial = run_with_threads(src, &mode, 1);
    let parallel = run_with_threads(src, &mode, 4);

    assert_eq!(
        format!("{:?}", serial.errors),
        format!("{:?}", parallel.errors),
        "{name}: error reports differ"
    );
    assert_eq!(
        serial.verified(),
        parallel.verified(),
        "{name}: verified flag differs"
    );
    assert_eq!(
        serial.complete, parallel.complete,
        "{name}: complete flag differs"
    );
    assert_eq!(
        serial.max_space, parallel.max_space,
        "{name}: max_space differs"
    );
    assert_eq!(
        serial.total_visits, parallel.total_visits,
        "{name}: total visits differ (all runs complete, so cancellation \
         cannot explain this)"
    );
    assert_eq!(
        serial.stages_run, parallel.stages_run,
        "{name}: stages differ"
    );
    let key = |r: &VerificationReport| {
        r.subproblems
            .iter()
            .map(|s| {
                (
                    s.site,
                    s.stats.visits,
                    s.stats.structures,
                    s.stats.peak_nodes,
                    s.errors,
                    s.outcome,
                    s.stats.metrics.clone(),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&serial), key(&parallel), "{name}: subproblem stats differ");
    assert_eq!(
        serial.metrics, parallel.metrics,
        "{name}: merged telemetry differs between serial and parallel runs"
    );
}

fn sep(strategy: &str) -> Mode {
    Mode::separation(parse_strategy(strategy).unwrap())
}

/// The scenario-suite workloads shared by the schedule-independence and
/// intra-worker matrix tests below.
fn scenario_cases() -> Vec<(&'static str, String, Mode)> {
    vec![
        (
            "two_streams_verifies",
            "program P uses IOStreams; void main() {\n\
             InputStream a = new InputStream();\n\
             InputStream b = new InputStream();\n\
             a.read();\n\
             b.read();\n\
             a.close();\n\
             b.read();\n\
             b.close();\n}"
                .into(),
            sep(strategies::IOSTREAM_SINGLE),
        ),
        (
            "two_errors_in_two_components",
            "program P uses IOStreams; void main() {\n\
             InputStream a = new InputStream();\n\
             InputStream b = new InputStream();\n\
             a.close();\n\
             a.read();\n\
             b.close();\n\
             b.read();\n}"
                .into(),
            sep(strategies::IOSTREAM_SINGLE),
        ),
        (
            "statement_independence",
            "program P uses JDBC; void main() {\n\
             ConnectionManager cm = new ConnectionManager();\n\
             Connection con = cm.getConnection();\n\
             Statement st1 = cm.createStatement(con);\n\
             Statement st2 = cm.createStatement(con);\n\
             ResultSet rs2 = st2.executeQuery(\"q\");\n\
             st1.close();\n\
             while (rs2.next()) {\n\
             }\n}"
                .into(),
            sep(strategies::JDBC_SINGLE),
        ),
        (
            "killed_result_set",
            "program P uses JDBC; void main() {\n\
             ConnectionManager cm = new ConnectionManager();\n\
             Connection con = cm.getConnection();\n\
             Statement st = cm.createStatement(con);\n\
             ResultSet rs = st.executeQuery(\"q\");\n\
             st.close();\n\
             while (rs.next()) {\n\
             }\n}"
                .into(),
            sep(strategies::JDBC_SINGLE),
        ),
        (
            "iterator_independence",
            "program P uses CMP; void main() {\n\
             Collection c1 = new Collection();\n\
             Collection c2 = new Collection();\n\
             Iterator it1 = c1.iterator();\n\
             Iterator it2 = c2.iterator();\n\
             Element x = new Element();\n\
             c1.add(x);\n\
             while (it2.hasNext()) {\n\
             Element e = it2.next();\n\
             }\n}"
                .into(),
            sep(strategies::CMP_SINGLE),
        ),
        (
            "cloned_procedure_sites",
            "program P uses IOStreams;\n\
             InputStream open() {\n\
             InputStream s = new InputStream();\n\
             return s;\n\
             }\n\
             void main() {\n\
             InputStream a = open();\n\
             InputStream b = open();\n\
             a.read();\n\
             b.read();\n\
             a.close();\n\
             b.close();\n}"
                .into(),
            sep(strategies::IOSTREAM_SINGLE),
        ),
    ]
}

#[test]
fn scenario_benchmarks_are_schedule_independent() {
    for (name, src, mode) in scenario_cases() {
        assert_deterministic(name, &src, mode);
    }
}

/// The larger generated workloads (several allocation sites, real fan-out).
/// Expensive without optimizations — run in release builds, like the
/// Table 3 shape tests.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn generated_workloads_are_schedule_independent() {
    let cases: Vec<(&str, String, Mode)> = vec![
        (
            "jdbc_generated_interleaved",
            jdbc_client(
                "Det",
                &JdbcWorkload {
                    connections: 4,
                    queries_per_connection: 2,
                    buggy_connection: Some(2),
                    interleaved: true,
                    seed: 7,
                },
            ),
            sep(strategies::JDBC_SINGLE),
        ),
        (
            "jdbc_generated_multi",
            jdbc_client(
                "Det",
                &JdbcWorkload {
                    connections: 3,
                    queries_per_connection: 2,
                    buggy_connection: Some(1),
                    interleaved: true,
                    seed: 11,
                },
            ),
            sep(strategies::JDBC_MULTI),
        ),
        (
            "kernel_generated",
            kernel(
                "Det",
                &KernelWorkload {
                    collections: 3,
                    buggy_collection: Some(1),
                    interleaved: true,
                },
            ),
            sep(strategies::CMP_SINGLE),
        ),
        (
            "kernel_incremental",
            kernel(
                "Det",
                &KernelWorkload {
                    collections: 3,
                    buggy_collection: Some(1),
                    interleaved: true,
                },
            ),
            Mode::incremental(parse_strategy(strategies::CMP_INCREMENTAL).unwrap()),
        ),
    ];
    for (name, src, mode) in cases {
        assert_deterministic(name, &src, mode);
    }
}

/// The trace is schedule-independent too: a serial and a parallel run
/// render byte-identical NDJSON and merge identical report metrics (the
/// trace is rendered from the report, whose rows are merged in site order,
/// never live from the workers).
#[test]
fn sink_state_is_schedule_independent() {
    let src = "program P uses IOStreams; void main() {\n\
               InputStream a = new InputStream();\n\
               InputStream b = new InputStream();\n\
               a.read();\n\
               b.read();\n\
               a.close();\n\
               b.read();\n\
               b.close();\n}";
    let mode = sep(strategies::IOSTREAM_SINGLE);
    let program = hetsep_ir::parse_program(src).unwrap();
    let spec = hetsep_easl::builtin::by_name(&program.uses).unwrap();
    let trace_for = |threads: usize| {
        let report = Verifier::new(&program, &spec)
            .mode(mode.clone())
            .config(config_with_threads(threads))
            .run()
            .unwrap();
        let mut trace = Vec::new();
        write_trace(&report.subproblems, &mut trace).expect("in-memory writes cannot fail");
        (report, trace)
    };
    let (serial, serial_trace) = trace_for(1);
    let (parallel, parallel_trace) = trace_for(4);
    assert!(serial.subproblems.len() > 1, "workload should split");
    assert_eq!(
        serial.metrics, parallel.metrics,
        "metrics differ between schedules"
    );
    assert_eq!(
        serial_trace, parallel_trace,
        "traces differ between schedules"
    );
}

/// `threads = 0` (auto) must agree with an explicit serial run too — this is
/// the default configuration every caller gets.
#[test]
fn auto_thread_count_is_schedule_independent() {
    let src = "program P uses IOStreams; void main() {\n\
               InputStream a = new InputStream();\n\
               InputStream b = new InputStream();\n\
               a.close();\n\
               a.read();\n\
               b.close();\n\
               b.read();\n}";
    let mode = sep(strategies::IOSTREAM_SINGLE);
    let serial = run_with_threads(src, &mode, 1);
    let auto = run_with_threads(src, &mode, 0);
    assert_eq!(
        format!("{:?}", serial.errors),
        format!("{:?}", auto.errors)
    );
    assert_eq!(serial.total_visits, auto.total_visits);
    assert_eq!(serial.max_space, auto.max_space);
}

/// The intra-subproblem transfer fan-out must be invisible: runs with 1, 2,
/// and 8 partition workers agree byte-for-byte on verdicts, visit counts,
/// merged telemetry, and the rendered NDJSON trace. Speculative
/// classification only predicts cache hits — the commit loop performs the
/// exact serial cache-op sequence — so even the hit/miss/eviction counters
/// must match.
#[test]
fn intra_worker_matrix_is_byte_identical() {
    let mut saw_batches = false;
    for (name, src, mode) in scenario_cases() {
        let program = hetsep_ir::parse_program(&src).unwrap();
        let spec = hetsep_easl::builtin::by_name(&program.uses).unwrap();
        let mut baseline: Option<(VerificationReport, Vec<u8>)> = None;
        for intra in [1usize, 2, 8] {
            let config = config_with_workers(1, intra);
            let report = Verifier::new(&program, &spec)
                .mode(mode.clone())
                .config(config)
                .run()
                .unwrap();
            let mut trace = Vec::new();
            write_trace(&report.subproblems, &mut trace).expect("in-memory writes cannot fail");
            match &baseline {
                None => {
                    saw_batches |=
                        report.metrics.counters.get(Counter::IntraBatches) > 0;
                    baseline = Some((report, trace));
                }
                Some((base_report, base_trace)) => {
                    assert_eq!(
                        format!("{:?}", base_report.errors),
                        format!("{:?}", report.errors),
                        "{name}: verdicts differ at intra={intra}"
                    );
                    assert_eq!(
                        base_report.total_visits, report.total_visits,
                        "{name}: visit counts differ at intra={intra}"
                    );
                    assert_eq!(
                        base_report.complete, report.complete,
                        "{name}: complete flag differs at intra={intra}"
                    );
                    assert_eq!(
                        base_report.max_space, report.max_space,
                        "{name}: max_space differs at intra={intra}"
                    );
                    assert_eq!(
                        base_report.metrics, report.metrics,
                        "{name}: merged telemetry differs at intra={intra}"
                    );
                    assert_eq!(
                        base_trace, &trace,
                        "{name}: NDJSON traces differ at intra={intra}"
                    );
                }
            }
        }
    }
    assert!(
        saw_batches,
        "no workload ever drained a multi-structure batch; the matrix is vacuous"
    );
}

/// Budget exhaustion in the middle of a partitioned batch is deterministic:
/// phase-1 classification stops speculating past the visit budget and the
/// serial commit loop re-checks the same bound, so a truncated run reports
/// identical verdicts and visit counts no matter how many partition workers
/// were in flight when the budget ran out.
#[test]
fn budget_exhaustion_mid_batch_is_intra_independent() {
    let src = "program P uses JDBC; void main() {\n\
               ConnectionManager cm = new ConnectionManager();\n\
               Connection con = cm.getConnection();\n\
               Statement st1 = cm.createStatement(con);\n\
               Statement st2 = cm.createStatement(con);\n\
               ResultSet rs2 = st2.executeQuery(\"q\");\n\
               st1.close();\n\
               while (rs2.next()) {\n\
               }\n}";
    let mode = sep(strategies::JDBC_SINGLE);
    let program = hetsep_ir::parse_program(src).unwrap();
    let spec = hetsep_easl::builtin::by_name(&program.uses).unwrap();
    let mut baseline: Option<VerificationReport> = None;
    for intra in [1usize, 2, 8] {
        let config = EngineConfig {
            max_visits: 8,
            parallel: ParallelConfig {
                threads: 1,
                intra_threads: intra,
            },
            ..EngineConfig::default()
        };
        let report = verify(&program, &spec, &mode, &config).unwrap();
        assert!(
            !report.complete,
            "a budget of 8 visits must exhaust mid-run (intra={intra})"
        );
        match &baseline {
            None => baseline = Some(report),
            Some(base) => {
                assert_eq!(
                    format!("{:?}", base.errors),
                    format!("{:?}", report.errors),
                    "verdicts differ at intra={intra}"
                );
                assert_eq!(
                    base.total_visits, report.total_visits,
                    "truncation point differs at intra={intra}"
                );
                assert_eq!(
                    base.metrics, report.metrics,
                    "telemetry differs at intra={intra}"
                );
            }
        }
    }
}

/// Combined outer and inner parallelism (two subproblem threads, four
/// partition workers each) still terminates promptly when the visit budget
/// is exhausted while partitions are in flight, and reports the same
/// truncated outcome as a fully serial run — budgets are per-subproblem, so
/// neither scheduling layer can perturb them.
#[test]
fn cancellation_mid_partition_is_schedule_independent() {
    let src = "program P uses IOStreams; void main() {\n\
               InputStream a = new InputStream();\n\
               InputStream b = new InputStream();\n\
               a.close();\n\
               a.read();\n\
               b.close();\n\
               b.read();\n}";
    let mode = sep(strategies::IOSTREAM_SINGLE);
    let program = hetsep_ir::parse_program(src).unwrap();
    let spec = hetsep_easl::builtin::by_name(&program.uses).unwrap();
    let run = |threads: usize, intra: usize| {
        let config = EngineConfig {
            max_visits: 3,
            parallel: ParallelConfig {
                threads,
                intra_threads: intra,
            },
            ..EngineConfig::default()
        };
        verify(&program, &spec, &mode, &config).unwrap()
    };
    let serial = run(1, 1);
    let fanned = run(2, 4);
    assert!(
        !serial.complete,
        "a budget of 3 visits must exhaust mid-run"
    );
    assert_eq!(
        format!("{:?}", serial.errors),
        format!("{:?}", fanned.errors),
        "verdicts differ under combined fan-out"
    );
    assert_eq!(serial.complete, fanned.complete);
    assert_eq!(serial.total_visits, fanned.total_visits);
    assert_eq!(serial.metrics, fanned.metrics);
}
