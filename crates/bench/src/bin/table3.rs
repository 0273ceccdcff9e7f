//! Regenerates the paper's Table 3: analysis results and cost for the
//! benchmark programs, per verification mode.
//!
//! Usage: `table3 [--threads N] [--json PATH] [--metrics] [--trace PATH]
//! [--no-preanalysis] [benchmark-name …]` (default:
//! all benchmarks, auto thread count, JSON written to `BENCH_table3.json`
//! in the working directory).
//!
//! `--threads` controls the parallel subproblem scheduler (0 = auto:
//! `HETSEP_THREADS`, then available parallelism); results are identical
//! across thread counts for runs that finish within budget.
//!
//! `--metrics` enables per-phase wall-clock sampling, adds a per-phase
//! `phases`/`counters` breakdown to every JSON row and subproblem, and
//! prints a suite-wide breakdown to stderr. `--trace PATH` writes every
//! row's per-subproblem metrics as NDJSON to `PATH`, in row order. Both
//! are observation-only: the `visits`/`reported` columns are byte-identical
//! with and without them.
//!
//! `--no-preanalysis` disables the static pruning pre-pass that
//! `table3_config` turns on. Pruning is observation-equivalent, so only the
//! `pruned` column (and the effort of pruned subproblems) changes.
//!
//! `--help` prints the usage line and exits 0. An unknown flag or benchmark
//! name, or a flag missing its value, prints the usage to stderr and exits 2.

use hetsep::harness::{
    format_metrics, format_rows, rows_to_json, run_benchmark, table3_config, ModeRow,
};
use hetsep::suite;
use hetsep::{write_trace, RunMetrics};

const USAGE: &str = "usage: table3 [--threads N] [--json PATH] [--metrics] [--trace PATH] \
[--no-preanalysis] [benchmark-name ...]";

/// Reports a command-line error with the usage line and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("table3: {msg}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut threads: usize = 0;
    let mut json_path = String::from("BENCH_table3.json");
    let mut metrics = false;
    let mut no_preanalysis = false;
    let mut trace_path: Option<String> = None;
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" => {
                println!("{USAGE}");
                return;
            }
            "--threads" => {
                let v = args.next().unwrap_or_else(|| usage_error("--threads needs a value"));
                threads = v.parse().unwrap_or_else(|_| usage_error("--threads needs an integer"));
            }
            "--json" => {
                json_path = args.next().unwrap_or_else(|| usage_error("--json needs a path"));
            }
            "--metrics" => metrics = true,
            "--no-preanalysis" => no_preanalysis = true,
            "--trace" => {
                trace_path = Some(args.next().unwrap_or_else(|| usage_error("--trace needs a path")));
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag `{flag}`")),
            _ => names.push(arg),
        }
    }
    let benches: Vec<suite::Benchmark> = if names.is_empty() {
        suite::all()
    } else {
        names
            .iter()
            .map(|n| {
                suite::by_name(n).unwrap_or_else(|| {
                    let known: Vec<&str> = suite::all().iter().map(|b| b.name).collect();
                    usage_error(&format!("unknown benchmark `{n}` (known: {})", known.join(", ")))
                })
            })
            .collect()
    };
    println!(
        "{:<18} {:<8} {:>5} {:>9} {:>9} {:>10} {:>4} {:>4} {:>6} {:>5} {:>12}",
        "Program", "Mode", "Lines", "Space", "Time", "Visits", "Rep", "Act", "Pruned", "Comps",
        "EstStructs"
    );
    println!("{}", "-".repeat(101));
    let mut config = table3_config();
    config.parallel.threads = threads;
    config.phase_timings = metrics;
    if no_preanalysis {
        config.preanalysis = false;
    }
    let mut trace = trace_path.as_ref().map(|path| {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| panic!("could not create {path}: {e}"));
        std::io::BufWriter::new(file)
    });
    let mut all_rows: Vec<ModeRow> = Vec::new();
    for bench in &benches {
        match run_benchmark(bench, &config) {
            Ok(rows) => {
                print!("{}", format_rows(&rows));
                all_rows.extend(rows);
            }
            Err(e) => println!("{:<18} failed: {e}", bench.name),
        }
        println!();
    }
    if let (Some(out), Some(path)) = (&mut trace, &trace_path) {
        match all_rows
            .iter()
            .try_for_each(|r| write_trace(&r.subproblem_rows, out))
        {
            Ok(()) => println!("trace written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    if metrics {
        let mut suite_metrics = RunMetrics::default();
        for r in &all_rows {
            suite_metrics.merge(&r.metrics);
        }
        eprint!("{}", format_metrics(&suite_metrics));
    }
    let effective = config.parallel.effective_threads();
    let json = rows_to_json(&all_rows, effective, metrics);
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("wrote {json_path} ({} rows, {effective} threads)", all_rows.len()),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
}
