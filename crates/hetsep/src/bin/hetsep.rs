//! `hetsep` — command-line front end of the verifier.
//!
//! Subcommands (see `hetsep <command> --help` for each command's flags,
//! rendered from the same table the parser enforces — `hetsep::options`):
//!
//! ```text
//! hetsep verify   <program>   verify a program against its specification
//! hetsep lint     <program>   run the static pre-verification lints
//! hetsep baseline <program>   run the ESP-style baseline comparator
//! hetsep check    <program>   parse and semantically check a program
//! hetsep heap     <program>   show the abstract heaps reaching a line
//! hetsep corpus               batch a generated corpus over the scheduler
//! hetsep serve                run the verification daemon
//! ```
//!
//! `<program>` is a client-language source file; the specification defaults
//! to the built-in spec named by the program's `uses` clause, and may be
//! overridden with an Easl source file. Without `--strategy`, `verify` runs
//! in vanilla mode; `--mode` labels are the workspace-wide mode names
//! (`vanilla`, `single`/`sep`, `multi`, `sim`, `inc`, or `auto` to infer
//! from strategy presence).
//!
//! `lint` runs the static pre-verification layer: semantic checks (`E0xx`)
//! plus program lints (`W10x`), strategy lints (`W11x` when `--strategy` is
//! given) and spec lints (`W12x` — only when `--spec` is given explicitly;
//! the built-in specifications are a trusted standard library). `--suite`
//! lints every bundled Table 3 benchmark program instead of a file.
//!
//! `corpus` generates a seed-determined corpus of verification jobs (see
//! `hetsep::suite::corpus`) and batches them over a worker pool with the
//! cross-job transfer cache. `--cache <path>` persists the cache across
//! invocations (loaded when the file exists, saved on exit): a warm second
//! run replays transfers instead of recomputing them, with byte-identical
//! verdicts. `--json <path>` writes per-job outcome rows; the one-line
//! verdict summary on stdout is schedule-independent (the CI smoke gate
//! diffs it against a golden).
//!
//! `serve` reads NDJSON requests on stdin and streams NDJSON responses on
//! stdout (one object per line; `docs/PROTOCOL.md` specifies the wire
//! format). State lives in an owned workspace keyed by content
//! fingerprint, so repeat verifies replay from the shared transfer store
//! with byte-identical verdicts — `hetsep serve` and one-shot
//! `hetsep verify` funnel into the same engine entry point. `--socket
//! <path>` serves a unix socket instead; `--cache <path>` persists the
//! store across restarts, sharing the format with `corpus --cache`.
//!
//! Observability: `--metrics` enables per-phase wall-clock sampling and
//! prints a phase/counter breakdown to stderr; `--trace <path>` writes the
//! report's per-subproblem metrics as NDJSON (one JSON object per line) to
//! `<path>`.
//! Both are observation-only — verification results are unchanged, as is
//! `--preanalysis` (the sound subproblem pruning pre-pass).
//!
//! Exit code: 0 verified/clean, 1 errors reported (or warnings under
//! `--deny warnings`), 2 usage or translation failure.

use std::process::ExitCode;

use hetsep::core::engine::EngineConfig;
use hetsep::core::{write_trace, Mode, ModeKind, Verifier};
use hetsep::harness::format_metrics;
use hetsep::options::{self, Options, Parsed};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err(options::usage());
    };
    if matches!(command.as_str(), "--help" | "-h" | "help") {
        println!("{}", options::usage());
        return Ok(ExitCode::SUCCESS);
    }
    let Some(cmd) = options::find_command(command) else {
        return Err(format!("unknown command `{command}`\n{}", options::usage()));
    };
    let o = match options::parse(cmd, rest)? {
        Parsed::Help => {
            println!("{}", options::help(cmd));
            return Ok(ExitCode::SUCCESS);
        }
        Parsed::Run(o) => o,
    };
    match cmd.name {
        "verify" => cmd_verify(&o),
        "lint" => cmd_lint(&o),
        "baseline" => cmd_baseline(&o),
        "check" => cmd_check(&o),
        "heap" => cmd_heap(&o),
        "corpus" => cmd_corpus(&o),
        "serve" => {
            hetsep::serve::run_serve(&o)?;
            Ok(ExitCode::SUCCESS)
        }
        other => unreachable!("command table lists `{other}` but run() does not"),
    }
}

fn load_program(path: &str) -> Result<hetsep::ir::Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    hetsep::ir::parse_program(&src).map_err(|e| format!("{path}: {e}"))
}

fn load_spec(program: &hetsep::ir::Program, o: &Options) -> Result<hetsep::easl::Spec, String> {
    match &o.spec_path {
        Some(path) => {
            let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            hetsep::easl::parse_spec(&src).map_err(|e| format!("{path}: {e}"))
        }
        None => hetsep::easl::builtin::by_name(&program.uses).ok_or_else(|| {
            format!(
                "program uses `{}`, which is not a built-in spec; pass --spec <file>",
                program.uses
            )
        }),
    }
}

fn load_strategy(o: &Options) -> Result<Option<hetsep::strategy::Strategy>, String> {
    match &o.strategy_path {
        None => Ok(None),
        Some(path) => {
            let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            hetsep::strategy::parse_strategy(&src)
                .map(Some)
                .map_err(|e| format!("{path}: {e}"))
        }
    }
}

/// Resolves `--mode` (a [`ModeKind`] label, or `auto`) and `--no-hetero`
/// against the loaded strategy.
fn resolve_mode(o: &Options, strategy: Option<hetsep::strategy::Strategy>) -> Result<Mode, String> {
    let kind = match (o.mode.as_str(), &strategy) {
        ("auto", None) => ModeKind::Vanilla,
        ("auto", Some(_)) => ModeKind::Single,
        (label, _) => label.parse::<ModeKind>()?,
    };
    let mut mode = Mode::from_kind(kind, strategy).map_err(|e| e.to_string())?;
    if !o.heterogeneous {
        match &mut mode {
            Mode::Separation { heterogeneous, .. } | Mode::Incremental { heterogeneous, .. } => {
                *heterogeneous = false
            }
            Mode::Vanilla => {}
        }
    }
    Ok(mode)
}

fn cmd_verify(o: &Options) -> Result<ExitCode, String> {
    let program = load_program(&o.program_path)?;
    let spec = load_spec(&program, o)?;
    let strategy = load_strategy(o)?;
    let mode = resolve_mode(o, strategy)?;
    let config = EngineConfig {
        max_visits: o.max_visits,
        phase_timings: o.metrics,
        preanalysis: o.preanalysis,
        ..EngineConfig::default()
    };
    // The trace file is created before the run, so an unwritable path fails
    // fast; the trace itself is rendered from the finished report.
    let trace = match &o.trace_path {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            Some((path, std::io::BufWriter::new(file)))
        }
        None => None,
    };
    let report = Verifier::new(&program, &spec)
        .mode(mode.clone())
        .config(config)
        .run()
        .map_err(|e| e.to_string())?;
    if let Some((path, mut out)) = trace {
        write_trace(&report.subproblems, &mut out).map_err(|e| format!("{path}: {e}"))?;
        if !o.quiet {
            eprintln!("trace written to {path}");
        }
    }
    for e in &report.errors {
        println!("{}:{}", o.program_path, e);
    }
    if o.metrics {
        eprint!("{}", format_metrics(&report.metrics));
    }
    if !o.quiet {
        eprintln!(
            "mode {}: {} subproblem(s), peak {} structures, {} visits, {:?}{}",
            mode,
            report.subproblems.len(),
            report.max_space,
            report.total_visits,
            report.total_wall,
            if report.complete { "" } else { " (budget exceeded)" }
        );
    }
    Ok(if report.verified() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Lints one source (a file's contents or a suite program) and returns its
/// diagnostics. Parse failures surface as `E000` (or `E023`, nesting too
/// deep) diagnostics rather than aborting, so `--format json` consumers
/// always get a well-formed stream.
fn lint_source(src: &str, o: &Options) -> Result<Vec<hetsep::ir::Diagnostic>, String> {
    use hetsep::ir::Diagnostic;
    let program = match hetsep::ir::parse_program(src) {
        Ok(p) => p,
        Err(e) => return Ok(vec![Diagnostic::error(e.code, e.message, e.line)]),
    };
    // The spec to judge strategies against: an explicit --spec file, else
    // the trusted built-in named by the program's `uses` clause.
    let explicit_spec = o.spec_path.is_some();
    let spec = match &o.spec_path {
        Some(path) => {
            let spec_src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            match hetsep::easl::parse_spec(&spec_src) {
                Ok(s) => Some(s),
                Err(e) => return Ok(vec![Diagnostic::error("E000", format!("{path}: {e}"), 0)]),
            }
        }
        None => hetsep::easl::builtin::by_name(&program.uses),
    };
    let strategy = match &o.strategy_path {
        None => None,
        Some(path) => {
            let s_src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            match hetsep::strategy::parse_strategy(&s_src) {
                Ok(s) => Some(s),
                Err(e) => return Ok(vec![Diagnostic::error("E000", format!("{path}: {e}"), 0)]),
            }
        }
    };
    if strategy.is_some() && spec.is_none() {
        return Err(format!(
            "program uses `{}`, which is not a built-in spec; pass --spec <file>",
            program.uses
        ));
    }
    let mut diags =
        hetsep::analysis::lint_all(&program, Some(src), spec.as_ref(), strategy.as_ref());
    if !explicit_spec {
        // The built-ins model more methods than any one program calls;
        // spec lints only make sense for user-supplied specifications.
        diags.retain(|d| !d.code.starts_with("W12"));
    }
    Ok(diags)
}

fn cmd_lint(o: &Options) -> Result<ExitCode, String> {
    use hetsep::ir::Severity;
    // (label, source, diagnostics) per linted program.
    let mut results: Vec<(String, String)> = Vec::new();
    if o.suite {
        for bench in hetsep::suite::all() {
            results.push((bench.name.to_owned(), bench.source));
        }
    } else {
        let path = &o.program_path;
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        results.push((path.clone(), src));
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for (label, src) in &results {
        let diags = lint_source(src, o)?;
        for d in &diags {
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
            }
            if o.format == "json" {
                println!("{}", d.to_json());
            } else {
                println!("{label}: {}", d.render(Some(src)));
            }
        }
    }
    if !o.quiet && o.format == "text" {
        eprintln!(
            "{} program(s) linted: {errors} error(s), {warnings} warning(s)",
            results.len()
        );
    }
    Ok(if errors > 0 || (o.deny_warnings && warnings > 0) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_baseline(o: &Options) -> Result<ExitCode, String> {
    let program = load_program(&o.program_path)?;
    let spec = load_spec(&program, o)?;
    let report = hetsep::baseline::verify(&program, &spec).map_err(|e| e.to_string())?;
    for e in &report.errors {
        println!("{}:{}", o.program_path, e);
    }
    if !o.quiet {
        eprintln!(
            "baseline: {} site(s), {} iterations",
            report.sites, report.iterations
        );
    }
    Ok(if report.verified() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_check(o: &Options) -> Result<ExitCode, String> {
    let program = load_program(&o.program_path)?;
    let errors = hetsep::ir::check::check_program(&program);
    for e in &errors {
        println!("{}:{}", o.program_path, e);
    }
    // Also make sure the CFG builds (catches recursion etc.).
    if errors.is_empty() {
        hetsep::ir::cfg::Cfg::build(&program, "main").map_err(|e| e.to_string())?;
        if !o.quiet {
            eprintln!("ok");
        }
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(1))
    }
}

fn cmd_corpus(o: &Options) -> Result<ExitCode, String> {
    use hetsep::core::{CacheFile, SummaryStore};
    use hetsep::corpus::{corpus_engine_config, corpus_jobs};
    use hetsep::sched::{run_batch, BatchConfig};
    use hetsep::suite::corpus::CorpusConfig;

    let jobs = corpus_jobs(&CorpusConfig {
        jobs: o.jobs,
        seed: o.seed,
    });
    let mut cache = match &o.cache_path {
        Some(path) if std::path::Path::new(path).exists() => {
            let cache = CacheFile::load(std::path::Path::new(path))?;
            if !o.quiet {
                eprintln!("cache loaded from {path}: {}", cache.transfers.sizes());
            }
            cache
        }
        _ => CacheFile::new(),
    };
    let config = BatchConfig {
        workers: o.workers.max(1),
        engine: corpus_engine_config(),
    };
    let result = run_batch(
        &jobs,
        &config,
        &mut cache.transfers,
        &mut SummaryStore::new(),
    );
    if let Some(path) = &o.json_path {
        let mut out = String::from("[\n");
        for (ix, outcome) in result.outcomes.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&outcome.json());
            out.push_str(if ix + 1 == result.outcomes.len() { "\n" } else { ",\n" });
        }
        out.push_str("]\n");
        std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))?;
        if !o.quiet {
            eprintln!("per-job rows written to {path}");
        }
    }
    if let Some(path) = &o.cache_path {
        cache
            .save(std::path::Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
        if !o.quiet {
            eprintln!("cache saved to {path}: {}", cache.transfers.sizes());
        }
    }
    // The schedule-independent verdict summary: the CI smoke gate diffs
    // this line against a golden.
    println!("{}", result.summary_line());
    if !o.quiet {
        eprintln!(
            "{} jobs in {:.2?} ({:.1} jobs/s, workers={}, absorb {:.2?}): latency \
             p50 {:.2?} p95 {:.2?} p99 {:.2?}; cache misses={} shared_hits={} \
             shared_misses={}; store: {}",
            result.outcomes.len(),
            result.wall,
            result.jobs_per_sec,
            config.workers,
            result.absorb,
            result.p50,
            result.p95,
            result.p99,
            result.total(|j| j.cache_misses),
            result.total(|j| j.shared_hits),
            result.total(|j| j.shared_misses),
            cache.transfers.sizes(),
        );
    }
    Ok(if result.count("failed") == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_heap(o: &Options) -> Result<ExitCode, String> {
    let line = o.line.ok_or("heap needs --line N")?;
    let program = load_program(&o.program_path)?;
    let spec = load_spec(&program, o)?;
    let strategy = load_strategy(o)?;
    let mut options = hetsep::core::translate::TranslateOptions::default();
    if let Some(s) = strategy {
        options.stage = Some(s.stages[0].clone());
        options.heterogeneous = o.heterogeneous;
    }
    let inst =
        hetsep::core::translate::translate(&program, &spec, &options).map_err(|e| e.to_string())?;
    let table = &inst.vocab.table;
    let states =
        hetsep::core::concrete::states_at_line(&inst, line, &EngineConfig::default());
    if states.is_empty() {
        eprintln!("no states reach line {line} (within budget)");
        return Ok(ExitCode::from(1));
    }
    for (ix, s) in states.iter().enumerate() {
        if o.dot {
            println!(
                "{}",
                hetsep::tvl::display::to_dot(s, table, &format!("state{ix}"))
            );
        } else {
            println!("{}", hetsep::tvl::display::to_text(s, table));
        }
    }
    Ok(ExitCode::SUCCESS)
}
