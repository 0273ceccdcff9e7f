//! Drivers that regenerate the paper's evaluation rows.
//!
//! [`run_mode`] executes one benchmark under one Table 3 mode and returns a
//! [`ModeRow`] with the measurements the paper reports: space (peak
//! structures of a single run), time (wall clock and the deterministic
//! visit-count proxy), reported errors, and whether the run finished within
//! budget (`-` rows). Per-subproblem measurements are the engine's own
//! [`SubproblemStats`] (metrics included); `--trace`-style consumers render
//! them with [`hetsep_core::write_trace`].

use std::time::Duration;

use hetsep_core::{
    AnalysisOutcome, Counter, EngineConfig, Mode, Phase, RunMetrics, SubproblemStats, Verifier,
    VerifyError,
};
use hetsep_strategy::parse_strategy;
use hetsep_suite::{Benchmark, TableMode};

/// One measured cell block of Table 3.
#[derive(Debug, Clone)]
pub struct ModeRow {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Mode label (`vanilla`, `single`, `sim`, `multi`, `inc`) — rendered
    /// through [`hetsep_core::ModeKind`], so the same naming scheme flows
    /// from the engine API to Table 3 output.
    pub mode: &'static str,
    /// Peak structures stored by a single engine run (the paper's "space":
    /// the maximal footprint of analyzing one set of subproblems).
    pub space: usize,
    /// Accumulated wall-clock time over all subproblems (CPU-like under
    /// parallel scheduling).
    pub time: Duration,
    /// Real elapsed wall-clock of the whole verification.
    pub elapsed: Duration,
    /// Total action applications (deterministic time proxy).
    pub visits: u64,
    /// Largest universe encountered by any run.
    pub peak_nodes: usize,
    /// Number of subproblems analyzed.
    pub subproblems: usize,
    /// Subproblems skipped by the static pre-analysis
    /// ([`AnalysisOutcome::Pruned`] rows). Always `0` when
    /// [`EngineConfig::preanalysis`] is off.
    pub pruned: usize,
    /// May-share heap components the pre-analysis found (0 when it did not
    /// run — preanalysis off, or a mode without a site fan-out).
    pub components: u64,
    /// Pre-analysis structure-count estimate (not a bound) summed over the
    /// site family (0 when the pre-pass did not run).
    pub estimated_structures: u64,
    /// Average visits per subproblem.
    pub avg_visits_per_subproblem: f64,
    /// Per-subproblem engine statistics, in deterministic site order.
    pub subproblem_rows: Vec<SubproblemStats>,
    /// Verification-wide metrics (phase timings/counters merged across
    /// subproblems in site order).
    pub metrics: RunMetrics,
    /// Reported errors (per-line), or `None` when the run exceeded its
    /// budget (the paper's `-`).
    pub reported: Option<usize>,
    /// Whether every subproblem reached a fixpoint within budget. Serialized
    /// explicitly so downstream tooling can tell a budget-exhausted row
    /// (`reported = None`, `complete = false`) from a clean verification
    /// with zero errors.
    pub complete: bool,
    /// Ground truth.
    pub actual: usize,
}

impl ModeRow {
    /// Formats the reported-error cell (`-` for budget-exceeded runs).
    pub fn reported_cell(&self) -> String {
        match self.reported {
            Some(n) => n.to_string(),
            None => "-".to_owned(),
        }
    }
}

/// Budget used for Table 3 runs: generous enough for every separation mode,
/// small enough that the two deliberately explosive vanilla rows
/// (`KernelBench3`, `SQLExecutor`) hit it, mirroring the paper's
/// non-terminating vanilla runs.
///
/// The static pre-analysis is on: pruning is observation-equivalent (see
/// `crates/core/tests/pruning.rs`), so the `reported` column is unaffected,
/// and the `pruned` column shows how many subproblems it discharged.
pub fn table3_config() -> EngineConfig {
    EngineConfig {
        max_visits: 400_000,
        max_structures: 120_000,
        preanalysis: true,
        ..EngineConfig::default()
    }
}

/// Builds the `hetsep-core` mode for a benchmark's Table 3 mode.
///
/// # Errors
///
/// Fails when the benchmark lacks the strategy the mode needs.
pub fn core_mode(bench: &Benchmark, mode: TableMode) -> Result<Mode, VerifyError> {
    let parse = |src: &str| {
        parse_strategy(src).map_err(|e| VerifyError::Strategy(e.to_string()))
    };
    Ok(match mode {
        TableMode::Vanilla => Mode::Vanilla,
        TableMode::Single => Mode::separation(parse(bench.single_strategy)?),
        TableMode::Sim => Mode::simultaneous(parse(bench.single_strategy)?),
        TableMode::Multi => {
            let src = bench.multi_strategy.ok_or_else(|| {
                VerifyError::Strategy(format!("{} has no multi strategy", bench.name))
            })?;
            Mode::separation(parse(src)?)
        }
        TableMode::Inc => {
            let src = bench.incremental_strategy.ok_or_else(|| {
                VerifyError::Strategy(format!("{} has no incremental strategy", bench.name))
            })?;
            Mode::incremental(parse(src)?)
        }
    })
}

/// Runs one benchmark under one mode.
///
/// # Errors
///
/// Propagates translation/strategy failures; budget exhaustion is reported
/// in the row (`reported = None`), not as an error.
pub fn run_mode(
    bench: &Benchmark,
    mode: TableMode,
    config: &EngineConfig,
) -> Result<ModeRow, VerifyError> {
    let program = bench.program();
    let spec = bench.spec();
    let core = core_mode(bench, mode)?;
    let label = core.kind().as_str();
    let report = Verifier::new(&program, &spec)
        .mode(core)
        .config(config.clone())
        .run()?;
    // `complete` is mode-aware: for incremental verification the deciding
    // stage's completeness is what matters.
    let finished = report.complete;
    Ok(ModeRow {
        benchmark: bench.name,
        mode: label,
        space: report.max_space,
        time: report.total_wall,
        elapsed: report.elapsed_wall,
        visits: report.total_visits,
        peak_nodes: report.peak_nodes,
        subproblems: report.subproblems.len(),
        pruned: report
            .subproblems
            .iter()
            .filter(|s| s.outcome == AnalysisOutcome::Pruned)
            .count(),
        components: report.preanalysis.map_or(0, |p| p.components),
        estimated_structures: report.preanalysis.map_or(0, |p| p.estimated_structures),
        avg_visits_per_subproblem: report.avg_visits_per_subproblem(),
        subproblem_rows: report.subproblems.clone(),
        metrics: report.metrics.clone(),
        reported: finished.then_some(report.errors.len()),
        complete: finished,
        actual: bench.actual_errors,
    })
}

/// Runs every mode of one benchmark.
///
/// # Errors
///
/// See [`run_mode`].
pub fn run_benchmark(
    bench: &Benchmark,
    config: &EngineConfig,
) -> Result<Vec<ModeRow>, VerifyError> {
    bench
        .modes
        .iter()
        .map(|&m| run_mode(bench, m, config))
        .collect()
}

/// Renders rows as machine-readable JSON for downstream tooling
/// (`BENCH_table3.json`): one record per (benchmark, mode) with aggregate
/// measurements plus one nested record per subproblem. With
/// `include_metrics`, each row and subproblem also carries its per-phase
/// timings (`count`/`ms` per phase) and counters, so perf PRs can claim
/// "focus got 2× faster" instead of "visits went down".
///
/// Hand-rolled serialization: every emitted value is a number, a boolean, a
/// `null`, or one of the fixed benchmark/mode/phase/counter identifiers (no
/// characters needing escapes), and the workspace builds offline without
/// serde.
pub fn rows_to_json(rows: &[ModeRow], threads: usize, include_metrics: bool) -> String {
    use std::fmt::Write as _;
    fn ms(d: Duration) -> f64 {
        d.as_secs_f64() * 1e3
    }
    fn metrics_json(out: &mut String, m: &RunMetrics) {
        let _ = write!(out, ", \"phases\": {{");
        for (ix, phase) in Phase::ALL.iter().enumerate() {
            let s = m.phases.get(*phase);
            let _ = write!(
                out,
                "{}\"{}\": {{\"count\": {}, \"ms\": {:.3}}}",
                if ix == 0 { "" } else { ", " },
                phase.label(),
                s.count,
                s.nanos as f64 / 1e6,
            );
        }
        let _ = write!(out, "}}, \"counters\": {{");
        for (ix, counter) in Counter::ALL.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {}",
                if ix == 0 { "" } else { ", " },
                counter.label(),
                m.counters.get(*counter),
            );
        }
        let _ = write!(out, "}}");
    }
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"threads\": {threads},");
    out.push_str("  \"rows\": [\n");
    for (ix, r) in rows.iter().enumerate() {
        let reported = r
            .reported
            .map_or_else(|| "null".to_owned(), |n| n.to_string());
        let _ = write!(
            out,
            "    {{\"benchmark\": \"{}\", \"mode\": \"{}\", \"space\": {}, \
             \"visits\": {}, \"peak_nodes\": {}, \"wall_ms\": {:.3}, \
             \"elapsed_ms\": {:.3}, \"reported\": {}, \"complete\": {}, \
             \"actual\": {}, \"pruned\": {}, \"components\": {}, \
             \"estimated_structures\": {}, \"cache_hits\": {}, \
             \"cache_misses\": {}, \"cache_evictions\": {}",
            r.benchmark,
            r.mode,
            r.space,
            r.visits,
            r.peak_nodes,
            ms(r.time),
            ms(r.elapsed),
            reported,
            r.complete,
            r.actual,
            r.pruned,
            r.components,
            r.estimated_structures,
            r.metrics.counters.get(Counter::TransferCacheHits),
            r.metrics.counters.get(Counter::TransferCacheMisses),
            r.metrics.counters.get(Counter::TransferCacheEvictions),
        );
        if include_metrics {
            metrics_json(&mut out, &r.metrics);
        }
        let _ = write!(out, ", \"subproblems\": [");
        for (six, s) in r.subproblem_rows.iter().enumerate() {
            let site = s.site.map_or_else(|| "null".to_owned(), |n| n.to_string());
            let _ = write!(
                out,
                "{}{{\"site\": {}, \"visits\": {}, \"structures\": {}, \
                 \"peak_nodes\": {}, \"wall_ms\": {:.3}",
                if six == 0 { "" } else { ", " },
                site,
                s.stats.visits,
                s.stats.structures,
                s.stats.peak_nodes,
                ms(s.stats.wall),
            );
            if include_metrics {
                metrics_json(&mut out, &s.stats.metrics);
            }
            let _ = write!(out, "}}");
        }
        let _ = writeln!(out, "]}}{}", if ix + 1 == rows.len() { "" } else { "," });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders rows in the paper's Table 3 layout.
pub fn format_rows(rows: &[ModeRow], line_count: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (ix, r) in rows.iter().enumerate() {
        let name = if ix == 0 { r.benchmark } else { "" };
        let lines = if ix == 0 {
            line_count.to_string()
        } else {
            String::new()
        };
        writeln!(
            out,
            "{name:<18} {mode:<8} {lines:>5} {space:>9} {time:>9.2?} {visits:>10} {rep:>4} {act:>4} {pruned:>6} {comps:>5} {est:>12}{marker}",
            mode = r.mode,
            space = r.space,
            time = r.time,
            visits = r.visits,
            rep = r.reported_cell(),
            act = r.actual,
            pruned = r.pruned,
            comps = r.components,
            est = r.estimated_structures,
            marker = if r.complete { "" } else { " (incomplete)" },
        )
        .unwrap();
    }
    out
}

/// Renders a verification-wide phase/counter breakdown as an aligned text
/// block (used by `hetsep verify --metrics` and `table3 --metrics`).
pub fn format_metrics(metrics: &RunMetrics) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{:<22} {:>12} {:>12}", "phase", "count", "ms");
    for phase in Phase::ALL {
        let s = metrics.phases.get(phase);
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>12.3}",
            phase.label(),
            s.count,
            s.nanos as f64 / 1e6
        );
    }
    let _ = writeln!(out, "{:<22} {:>12}", "counter", "value");
    for counter in Counter::ALL {
        let _ = writeln!(
            out,
            "{:<22} {:>12}",
            counter.label(),
            metrics.counters.get(counter)
        );
    }
    out
}
