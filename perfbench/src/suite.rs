//! `suite`: the paper's own programs, every Table 3 row one at a time.
//!
//! Rows run under `harness::table3_config()` budgets with two site-pool
//! threads and one intra-run thread, set here so `HETSEP_THREADS` /
//! `HETSEP_INTRA_THREADS` cannot leak in. SQLExecutor `vanilla` (about 120 s,
//! and no longer the paper's `-` row) and SQLExecutor `inc` (16–25 s) are
//! left out. Each row's reported error count must equal the suite's
//! hand-written `expected_reported` (`None` ⇔ incomplete). The seed only
//! orders the rows within each pass.

use std::time::{Duration, Instant};

use hetsep::core::{EngineConfig, Mode, ParallelConfig, Verifier};
use hetsep::easl::Spec;
use hetsep::ir::Program;
use hetsep::suite::{Benchmark, TableMode};
use hetsep_prng::XorShift;

use crate::layers::{self, CacheCounts, EngineAgg, Item, Values};
use crate::stats::median;
use crate::trace::{SpanTotals, Tracer};
use crate::{another_unit, peak_rss_mb, Args, Measured, Outcome};

const THREADS: usize = 2;
const SETUPS: usize = 5;

/// Rows whose benchmarks stay well under 50 ms per row: the warm-up set.
const LIGHT: &[&str] = &[
    "ISPath",
    "HandleReuse",
    "db",
    "KernelBench1",
    "SharedLib",
    "SharedLibLoop",
];

struct Row {
    name: String,
    benchmark: &'static str,
    program: Program,
    spec: Spec,
    mode: Mode,
    expected: Option<usize>,
    item: Item,
}

fn config() -> EngineConfig {
    EngineConfig {
        parallel: ParallelConfig {
            threads: THREADS,
            intra_threads: 1,
        },
        ..hetsep::harness::table3_config()
    }
}

fn excluded(b: &Benchmark, mode: TableMode) -> bool {
    b.name == "SQLExecutor" && matches!(mode, TableMode::Vanilla | TableMode::Inc)
}

fn rows() -> Result<Vec<Row>, String> {
    let mut out = Vec::new();
    for b in hetsep::suite::all() {
        for (&mode, &expected) in b.modes.iter().zip(&b.expected_reported) {
            if excluded(&b, mode) {
                continue;
            }
            let core = hetsep::harness::core_mode(&b, mode).map_err(|e| e.to_string())?;
            let strategy = match mode {
                TableMode::Vanilla => None,
                TableMode::Single | TableMode::Sim => Some(b.single_strategy),
                TableMode::Multi => b.multi_strategy,
                TableMode::Inc => b.incremental_strategy,
            };
            let name = format!("{}/{}", b.name, mode.label());
            out.push(Row {
                item: Item {
                    key: name.clone(),
                    source: b.source.clone(),
                    strategy: strategy.map(str::to_owned),
                    kind: hetsep::corpus::job_mode(mode),
                },
                name,
                benchmark: b.name,
                program: b.program(),
                spec: b.spec(),
                mode: core,
                expected,
            });
        }
    }
    Ok(out)
}

struct RowRun {
    elapsed: Duration,
    reported: Option<usize>,
    report: hetsep::core::VerificationReport,
}

fn verify(row: &Row, config: &EngineConfig, phase_timings: bool) -> Result<RowRun, String> {
    let start = Instant::now();
    let report = Verifier::new(&row.program, &row.spec)
        .mode(row.mode.clone())
        .config(config.clone())
        .phase_timings(phase_timings)
        .run()
        .map_err(|e| format!("{}: {e}", row.name))?;
    let elapsed = start.elapsed();
    Ok(RowRun {
        elapsed,
        reported: report.complete.then_some(report.errors.len()),
        report,
    })
}

/// Builds the rows and warms the engine on the light ones.
fn setup(config: &EngineConfig) -> Result<Vec<Row>, String> {
    let rows = rows()?;
    for row in rows.iter().filter(|r| LIGHT.contains(&r.benchmark)) {
        verify(row, config, false)?;
    }
    Ok(rows)
}

/// One pass over every row in a seeded order, with a `core.verify` span
/// around each `Verifier::run` when `tracer` records; returns the pass wall
/// time.
fn pass(
    rows: &[Row],
    config: &EngineConfig,
    rng: &mut XorShift,
    tracer: &Tracer,
    outcome: &mut Outcome,
    mut each: impl FnMut(&RowRun),
) -> Result<Duration, String> {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    rng.shuffle(&mut order);
    let start = Instant::now();
    tracer.span("suite.pass", None, String::new, |p| {
        for ix in order {
            let row = &rows[ix];
            let run = tracer.span(
                "core.verify",
                p,
                || row.name.clone(),
                |_| verify(row, config, p.is_some()),
            )?;
            outcome.attempted += 1;
            if run.reported != row.expected {
                outcome.failures.push(format!(
                    "{}: reported {:?}, expected {:?}",
                    row.name, run.reported, row.expected
                ));
            }
            each(&run);
        }
        Ok::<_, String>(())
    })?;
    Ok(start.elapsed())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let config = config();
    let mut outcome = Outcome::default();
    let mut setups_s = Vec::new();
    let mut rows = Vec::new();
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let start = Instant::now();
        rows = setup(&config)?;
        setups_s.push(start.elapsed().as_secs_f64());
    }
    let mut rng = XorShift::new(args.seed);
    if args.trace {
        return traced(args, &rows, &config, &mut rng, outcome);
    }

    let start = Instant::now();
    let mut units_s = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut slowest_ms = Vec::new();
    // Read after the first pass: later passes repeat its work.
    let mut rss_mb = 0.0;
    while another_unit(start, args.seconds, &units_s) {
        let mut slowest = 0f64;
        let wall = pass(
            &rows,
            &config,
            &mut rng,
            &Tracer::new(false),
            &mut outcome,
            |run| {
                let ms = run.elapsed.as_secs_f64() * 1e3;
                slowest = slowest.max(ms);
                latencies_ms.push(ms);
            },
        )?;
        units_s.push(wall.as_secs_f64());
        slowest_ms.push(slowest);
        if rss_mb == 0.0 {
            rss_mb = peak_rss_mb("self")?;
        }
    }
    // 44 distinct programs are not a sample of one distribution: the tail
    // is the slowest row (the paper's KernelBench3), median over passes.
    let measured = Measured {
        setups_s,
        ops: rows.len() * units_s.len(),
        units_s,
        latencies_ms,
        tail_ms: median(&slowest_ms),
        rss_mb,
    };
    outcome
        .notes
        .push(measured.describe("passes", &format!("one of {} rows", rows.len())));
    outcome.metrics = measured.end_to_end()?;
    Ok(outcome)
}

/// One untraced pass, then a traced pass (phase timings on), then the layer
/// walk over the rows and a session sample of the light rows.
fn traced(
    args: &Args,
    rows: &[Row],
    config: &EngineConfig,
    rng: &mut XorShift,
    mut outcome: Outcome,
) -> Result<Outcome, String> {
    let untraced = pass(rows, config, rng, &Tracer::new(false), &mut outcome, |_| {})?;
    let tracer = Tracer::new(true);
    let mut agg = EngineAgg::default();
    let mut caches = CacheCounts::default();
    let traced = pass(rows, config, rng, &tracer, &mut outcome, |run| {
        agg.add(&run.report, run.elapsed, THREADS);
        caches += CacheCounts::of_report(&run.report);
    })?;

    let items: Vec<Item> = rows.iter().map(|r| r.item.clone()).collect();
    let walk = layers::walk(&tracer, None, &items, None, 1)?;
    let light: Vec<&Item> = rows
        .iter()
        .filter(|r| LIGHT.contains(&r.benchmark))
        .map(|r| &r.item)
        .collect();
    layers::session_sample(&tracer, None, &light, config.clone())?;
    let mut v = Values::default();
    // The suite has no cross-job store: the round trip is of the empty
    // container, the fixed cost any persisted cache pays.
    layers::cache_round_trip(
        &tracer,
        &mut v,
        Default::default(),
        Default::default(),
        &crate::scratch_file(args, "cache.bin"),
    )?;

    let spans = SpanTotals::new(tracer.spans());
    agg.fill(&mut v);
    caches.fill(&mut v);
    layers::fill_walk(&mut v, &spans, &walk);
    layers::fill_session(&mut v, &spans);
    layers::fill_cache_times(&mut v, &spans);
    // The suite's worker pool is each row's site pool.
    let engine_s = agg.engine().as_secs_f64();
    v.set(
        "sched.busy_frac",
        engine_s / (THREADS as f64 * traced.as_secs_f64()),
    );
    v.set(
        "sched.tail_ms",
        (traced.as_secs_f64() - engine_s / THREADS as f64) * 1e3,
    );
    layers::fill_overhead(&mut v, untraced.as_secs_f64(), traced.as_secs_f64());
    outcome.metrics = v.render()?;
    outcome.spans = Some(spans.to_ndjson());
    Ok(outcome)
}
