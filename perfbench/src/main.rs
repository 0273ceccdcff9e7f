//! `perfbench` — the hetsep benchmark.
//!
//! ```text
//! perfbench run --workload <suite|corpus-cold|serve-edit> --seed N --seconds S
//!               --trace <0|1> [--daemon PATH] [--out DIR] [--reference DIR]
//! perfbench reference [--dir DIR]
//! ```
//!
//! `run` measures one workload for about `S` seconds and prints, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A human-readable summary goes to
//! standard error. The exit code is 0 when every verdict matched its
//! reference, 1 when one did not, 2 when the run could not start.
//! `reference` regenerates the committed reference verdict files.
//! See README.md.

mod corpus;
mod layers;
mod reference;
mod serve;
mod stats;
mod suite;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use stats::{geomean, median, percentile};

/// Every end-to-end metric, in output order: (name, unit, better).
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_geomean_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Parsed `run` arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub daemon: Option<PathBuf>,
    /// Where traced runs write their span file and scratch files.
    pub out: PathBuf,
    pub reference: PathBuf,
}

/// A scratch file of this run under `--out`.
pub fn scratch_file(args: &Args, name: &str) -> PathBuf {
    args.out
        .join(format!("{}-seed{}-{name}", args.workload, args.seed))
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose result was checked (rows, jobs, requests).
    pub attempted: u64,
    /// Descriptions of the operations that failed their check.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Lines for the human-readable summary.
    pub notes: Vec<String>,
    /// The span file, for traced runs.
    pub spans: Option<String>,
}

/// The raw measurements every workload reduces to its end-to-end metrics.
pub struct Measured {
    /// Durations of the repeated set-ups, in seconds.
    pub setups_s: Vec<f64>,
    /// Durations of the workload's fixed work units, in seconds.
    pub units_s: Vec<f64>,
    /// Operations completed in those units.
    pub ops: usize,
    /// Per-operation latencies, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Median over the units of each unit's tail latency, in milliseconds:
    /// its p99 where a unit has at least 1000 operations, its slowest
    /// operation otherwise (see README.md).
    pub tail_ms: f64,
    /// Peak resident set of the verifying process, in MB.
    pub rss_mb: f64,
}

impl Measured {
    /// Reduces the measurements to [`END_TO_END`], in order.
    ///
    /// # Errors
    ///
    /// Nothing measured, or a metric that is not a positive number.
    pub fn end_to_end(&self) -> Result<Vec<Metric>, String> {
        if self.units_s.is_empty() || self.setups_s.is_empty() {
            return Err("no work unit completed".into());
        }
        let values = [
            median(&self.setups_s),
            median(&self.units_s),
            self.ops as f64 / self.units_s.iter().sum::<f64>(),
            geomean(&self.latencies_ms),
            self.tail_ms,
            self.rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), value)| {
                if value.is_finite() && value > 0.0 {
                    Ok(Metric { name, value, unit })
                } else {
                    Err(format!("{name} is {value}"))
                }
            })
            .collect()
    }
}

impl Measured {
    /// A summary line: unit walls, sample count, p50 and p99 where the
    /// sample allows them. `units` names the work units, plural.
    pub fn describe(&self, units: &str, op: &str) -> String {
        let pct = |p: f64| {
            percentile(&self.latencies_ms, p)
                .map_or_else(|_| "n/a".to_owned(), |v| format!("{v:.3} ms"))
        };
        let walls: Vec<String> = self.units_s.iter().map(|u| format!("{u:.3}")).collect();
        format!(
            "{} {units} [{} s]; op = {op}; {} samples, p50 {}, p99 {}",
            self.units_s.len(),
            walls.join(", "),
            self.latencies_ms.len(),
            pct(50.0),
            pct(99.0),
        )
    }
}

/// Whether a time-boxed loop should start another unit: always the first,
/// then only while one more unit of median length still fits.
pub fn another_unit(start: Instant, seconds: f64, units_s: &[f64]) -> bool {
    units_s.is_empty() || start.elapsed().as_secs_f64() + median(units_s) <= seconds
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
///
/// # Errors
///
/// The process's status file cannot be read or lacks the field.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        daemon: None,
        out: PathBuf::from("perfbench/out"),
        reference: Path::new(env!("CARGO_MANIFEST_DIR")).join("reference"),
    };
    let mut seen_seed = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => {
                out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                seen_seed = true;
            }
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--daemon" => out.daemon = Some(value()?.into()),
            "--out" => out.out = value()?.into(),
            "--reference" => out.reference = value()?.into(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["suite", "corpus-cold", "serve-edit"].contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be suite, corpus-cold or serve-edit, not `{}`",
            out.workload
        ));
    }
    if !(seen_seed && out.seconds.is_finite() && out.seconds > 0.0) {
        return Err("--seed and a positive --seconds are required".into());
    }
    Ok(out)
}

/// Renders the result line.
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failures.len(),
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "suite" => suite::run(args),
        "corpus-cold" => corpus::run(args),
        _ => serve::run(args),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run") => {}
        Some("reference") => return regenerate_references(&argv[1..]),
        _ => {
            eprintln!("usage: perfbench run --workload W --seed N --seconds S --trace 0|1 | perfbench reference");
            return ExitCode::from(2);
        }
    }
    let args = match parse_args(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench {} seed={} trace={}: {} checked, {} failed (failed_frac {})",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failures.len(),
        stats::ratio(outcome.failures.len() as f64, outcome.attempted as f64),
    );
    for f in outcome.failures.iter().take(10) {
        eprintln!("  FAILED {f}");
    }
    for n in &outcome.notes {
        eprintln!("  {n}");
    }
    for m in &outcome.metrics {
        eprintln!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if let Some(spans) = &outcome.spans {
        let path = scratch_file(&args, "spans.ndjson");
        match std::fs::write(&path, spans) {
            Ok(()) => eprintln!("  spans written to {}", path.display()),
            Err(e) => eprintln!("  spans not written: {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&outcome));
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn regenerate_references(argv: &[String]) -> ExitCode {
    let dir = match argv {
        [] => Path::new(env!("CARGO_MANIFEST_DIR")).join("reference"),
        [flag, dir] if flag == "--dir" => PathBuf::from(dir),
        _ => {
            eprintln!("usage: perfbench reference [--dir DIR]");
            return ExitCode::from(2);
        }
    };
    for pool in [reference::CORPUS_POOL, reference::SERVE_POOL] {
        let start = Instant::now();
        let path = dir.join(pool.file);
        if let Err(e) = std::fs::write(&path, pool.render_reference()) {
            eprintln!("{}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("wrote {} in {:.1?}", path.display(), start.elapsed());
    }
    // The corpus pool's first 50 jobs are the CI corpus smoke gate's.
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../scripts/corpus_quick.golden");
    let pool = match reference::CORPUS_POOL.load(&dir) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let line = reference::summary_line(&pool.jobs, &pool.expected, 50);
    match std::fs::read_to_string(&golden) {
        Ok(g) if g.trim() == line => eprintln!("first 50 jobs match {}", golden.display()),
        Ok(g) => {
            eprintln!("first 50 jobs: {line}\n{}: {}", golden.display(), g.trim());
            return ExitCode::from(1);
        }
        Err(e) => eprintln!("not cross-checked: {}: {e}", golden.display()),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[(&str, &str, &str)]) -> Vec<String> {
        list.iter()
            .map(|(n, u, b)| format!("{n}|{u}|{b}"))
            .collect()
    }

    /// BENCHMARK.json must list exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = hetsep::ir::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let f = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_owned();
                    format!("{}|{}|{}", f("name"), f("unit"), f("better"))
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), names(END_TO_END));
        assert_eq!(listed("per_layer"), names(layers::PER_LAYER));
    }

    #[test]
    fn end_to_end_reduction() {
        let mut m = Measured {
            setups_s: vec![0.2, 0.1, 0.3],
            units_s: vec![1.0, 3.0],
            ops: 40,
            latencies_ms: vec![1.0, 100.0],
            tail_ms: 75.0,
            rss_mb: 12.0,
        };
        let metrics = m.end_to_end().unwrap();
        let names: Vec<&str> = metrics.iter().map(|x| x.name).collect();
        let listed: Vec<&str> = END_TO_END.iter().map(|x| x.0).collect();
        assert_eq!(names, listed);
        let get = |n: &str| metrics.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("setup_s"), 0.2);
        assert_eq!(get("wall_s"), 2.0);
        assert_eq!(get("ops_per_s"), 10.0);
        assert!((get("op_geomean_ms") - 10.0).abs() < 1e-9);
        assert_eq!(get("op_tail_ms"), 75.0);
        m.rss_mb = 0.0;
        assert!(m.end_to_end().is_err(), "a metric must never be 0");
        m.rss_mb = 12.0;
        m.units_s.clear();
        assert!(m.end_to_end().is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 3,
            failures: vec!["x".into()],
            metrics: vec![Metric {
                name: "wall_s",
                value: 1.25,
                unit: "s",
            }],
            ..Outcome::default()
        };
        let doc = hetsep::ir::json::parse(&result_json(&outcome)).unwrap();
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(1));
        let wall = doc.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(wall.get("unit").and_then(|v| v.as_str()), Some("s"));
    }

    #[test]
    fn flags_are_checked() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let ok = parse_args(&s(&[
            "--workload",
            "suite",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]));
        assert!(ok.is_ok_and(|a| a.trace && a.seed == 3));
        assert!(parse_args(&s(&[
            "--workload",
            "nope",
            "--seed",
            "3",
            "--seconds",
            "10"
        ]))
        .is_err());
        assert!(parse_args(&s(&["--workload", "suite", "--seconds", "10"])).is_err());
        assert!(parse_args(&s(&[
            "--workload",
            "suite",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
    }
}
