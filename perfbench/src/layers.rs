//! Per-layer measurement from outside the crates.
//!
//! Nothing here reaches inside a crate: every number is a span around a call
//! into a layer's public function, or a `RunMetrics` counter that call
//! returned. Besides each workload's own traced pass, a traced run walks the
//! workload's distinct inputs through the lower layers one by one (parse,
//! CFG lowering, translate, both preanalysis generations, lints and, where
//! the workload's own pass cannot see the engine, `Verifier::run`), and
//! drives a sample of them through an in-process `Session` the way
//! `hetsep serve` does. README.md maps every metric to its source.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use hetsep::core::{
    map_ordered, AnalysisOutcome, CacheFile, Counter, EngineConfig, Mode, ModeKind, Phase, Session,
    SharedSummarySession, SharedTransferSession, SummaryStore, TransferStore, TranslateOptions,
    VerificationReport, Verifier,
};
use hetsep::ir::{Request, Response};

use crate::stats::{median, ratio};
use crate::trace::{SpanId, SpanTotals, Tracer};
use crate::Metric;

/// Every per-layer metric, in output order: (name, unit, better).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("core.engine.ms", "ms", "lower"),
    ("core.engine.us_per_visit", "us", "lower"),
    ("core.engine.visits", "count", "lower"),
    ("core.engine.space", "count", "lower"),
    ("core.engine.focus_ms", "ms", "lower"),
    ("core.engine.coerce_ms", "ms", "lower"),
    ("core.engine.update_ms", "ms", "lower"),
    ("core.engine.canon_ms", "ms", "lower"),
    ("core.engine.merge_ms", "ms", "lower"),
    ("core.engine.intern_hit_ratio", "ratio", "higher"),
    ("core.transfer_cache.hit_ratio", "ratio", "higher"),
    ("ir.parse_ms", "ms", "lower"),
    ("ir.lower_ms", "ms", "lower"),
    ("ir.cfg_nodes", "count", "lower"),
    ("core.translate_ms", "ms", "lower"),
    ("baseline.preanalysis_ms", "ms", "lower"),
    ("analysis.flow_ms", "ms", "lower"),
    ("analysis.prune_ratio", "ratio", "higher"),
    ("analysis.estimate_ratio", "ratio", "higher"),
    ("analysis.lint_ms", "ms", "lower"),
    ("core.verify_self_ms", "ms", "lower"),
    ("sched.busy_frac", "ratio", "higher"),
    ("sched.tail_ms", "ms", "lower"),
    ("core.jobcache.shared_hit_ratio", "ratio", "higher"),
    ("core.summary.hit_ratio", "ratio", "higher"),
    ("core.summary.shared_hits", "count", "higher"),
    ("core.jobcache.entries", "count", "lower"),
    ("core.jobcache.bytes", "bytes", "lower"),
    ("core.jobcache.save_ms", "ms", "lower"),
    ("core.jobcache.load_ms", "ms", "lower"),
    ("ir.protocol_us", "us", "lower"),
    ("core.session.verify_p50_ms", "ms", "lower"),
    ("core.session.load_p50_ms", "ms", "lower"),
    ("core.session.lint_p50_ms", "ms", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
];

/// Per-layer values of one traced run, keyed by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Renders every [`PER_LAYER`] metric in order.
    ///
    /// # Errors
    ///
    /// A metric the workload did not set, or one that is not finite.
    pub fn render(&self) -> Result<Vec<Metric>, String> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| match self.0.get(name) {
                Some(&value) if value.is_finite() => Ok(Metric { name, value, unit }),
                Some(value) => Err(format!("per-layer metric {name} is {value}")),
                None => Err(format!("per-layer metric {name} was not measured")),
            })
            .collect()
    }
}

/// Cache counters of a workload's own pass (reports, job outcomes or
/// responses), in one vocabulary.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheCounts {
    pub transfer_hits: u64,
    pub transfer_misses: u64,
    pub shared_hits: u64,
    pub shared_misses: u64,
    pub call_evaluations: u64,
    pub summary_hits: u64,
    pub shared_summary_hits: u64,
}

impl std::ops::AddAssign for CacheCounts {
    fn add_assign(&mut self, o: CacheCounts) {
        self.transfer_hits += o.transfer_hits;
        self.transfer_misses += o.transfer_misses;
        self.shared_hits += o.shared_hits;
        self.shared_misses += o.shared_misses;
        self.call_evaluations += o.call_evaluations;
        self.summary_hits += o.summary_hits;
        self.shared_summary_hits += o.shared_summary_hits;
    }
}

impl CacheCounts {
    pub fn of_report(r: &VerificationReport) -> CacheCounts {
        let c = |counter| r.metrics.counters.get(counter);
        CacheCounts {
            transfer_hits: c(Counter::TransferCacheHits),
            transfer_misses: c(Counter::TransferCacheMisses),
            shared_hits: c(Counter::SharedCacheHits),
            shared_misses: c(Counter::SharedCacheMisses),
            call_evaluations: c(Counter::CallEvaluations),
            summary_hits: c(Counter::SummaryHits),
            shared_summary_hits: c(Counter::SharedSummaryHits),
        }
    }

    pub fn fill(&self, v: &mut Values) {
        let r = |a: u64, b: u64| ratio(a as f64, (a + b) as f64);
        v.set(
            "core.transfer_cache.hit_ratio",
            r(self.transfer_hits, self.transfer_misses),
        );
        v.set(
            "core.jobcache.shared_hit_ratio",
            r(self.shared_hits, self.shared_misses),
        );
        v.set(
            "core.summary.hit_ratio",
            ratio(self.summary_hits as f64, self.call_evaluations as f64),
        );
        v.set("core.summary.shared_hits", self.shared_summary_hits as f64);
    }
}

/// Engine-side aggregate over `Verifier::run` reports.
#[derive(Debug, Default)]
pub struct EngineAgg {
    engine: Duration,
    verify_self: Duration,
    visits: u64,
    space: u64,
    phases: [u64; Phase::ALL.len()],
    intern_hits: u64,
    intern_misses: u64,
    subproblems: u64,
    pruned: u64,
    estimated_on_run: u64,
    measured_on_run: u64,
}

impl EngineAgg {
    /// Adds one report. `elapsed` is the `Verifier::run` call's duration and
    /// `threads` the site-pool width it ran with.
    ///
    /// Verify self time is `elapsed − Σ engine wall / t`, `t` the number of
    /// subproblems that could run at once: exact at one thread, and at more
    /// an upper bound that includes the site pool's idle time.
    pub fn add(&mut self, r: &VerificationReport, elapsed: Duration, threads: usize) {
        let run: Vec<_> = r
            .subproblems
            .iter()
            .filter(|s| s.outcome != AnalysisOutcome::Pruned)
            .collect();
        let engine: Duration = run.iter().map(|s| s.stats.wall).sum();
        let t = threads.min(run.len()).max(1) as u32;
        self.engine += engine;
        self.verify_self += elapsed.saturating_sub(engine / t);
        self.visits += r.total_visits;
        self.space += r.max_space as u64;
        for (slot, phase) in self.phases.iter_mut().zip(Phase::ALL) {
            *slot += r.metrics.phases.get(phase).nanos;
        }
        self.intern_hits += r.metrics.counters.get(Counter::InternHits);
        self.intern_misses += r.metrics.counters.get(Counter::InternMisses);
        self.subproblems += r.subproblems.len() as u64;
        self.pruned += r.metrics.counters.get(Counter::SubproblemsPruned);
        for s in &run {
            self.estimated_on_run += s
                .stats
                .metrics
                .counters
                .get(Counter::PreanalysisEstimatedStructures);
            self.measured_on_run += s.stats.structures as u64;
        }
    }

    /// Summed engine wall time of the run subproblems.
    pub fn engine(&self) -> Duration {
        self.engine
    }

    pub fn fill(&self, v: &mut Values) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        v.set("core.engine.ms", ms(self.engine));
        v.set(
            "core.engine.us_per_visit",
            ratio(ms(self.engine) * 1e3, self.visits as f64),
        );
        v.set("core.engine.visits", self.visits as f64);
        v.set("core.engine.space", self.space as f64);
        for (phase, nanos) in Phase::ALL.iter().zip(self.phases) {
            let name = match phase.label() {
                "focus" => "core.engine.focus_ms",
                "coerce" => "core.engine.coerce_ms",
                "update" => "core.engine.update_ms",
                "canon" => "core.engine.canon_ms",
                "merge" => "core.engine.merge_ms",
                // A phase added to the engine is not a metric until the
                // benchmark names it.
                _ => continue,
            };
            v.set(name, nanos as f64 / 1e6);
        }
        v.set(
            "core.engine.intern_hit_ratio",
            ratio(
                self.intern_hits as f64,
                (self.intern_hits + self.intern_misses) as f64,
            ),
        );
        v.set(
            "analysis.prune_ratio",
            ratio(self.pruned as f64, self.subproblems as f64),
        );
        v.set(
            "analysis.estimate_ratio",
            ratio(self.estimated_on_run as f64, self.measured_on_run as f64),
        );
        v.set("core.verify_self_ms", ms(self.verify_self));
    }
}

/// One distinct input of a workload: a program and how it is verified.
#[derive(Debug, Clone)]
pub struct Item {
    pub key: String,
    pub source: String,
    pub strategy: Option<String>,
    pub kind: ModeKind,
}

/// How [`walk`] verifies each item, when it does.
pub struct WalkVerify<'a> {
    pub config: &'a EngineConfig,
    /// Probe empty cross-job stores, as a cold corpus job does.
    pub cold_stores: bool,
}

/// What a walk measured besides its spans.
#[derive(Default)]
pub struct Walk {
    pub engine: EngineAgg,
    pub cfg_nodes: u64,
    /// `Verifier::run` duration per item, in item order (empty without
    /// verification).
    pub verify_ms: Vec<f64>,
}

/// Walks `items` through the lower layers on `workers` threads, one span
/// per layer call under one `walk.item` span per item.
///
/// # Errors
///
/// An item that fails to parse, lower or verify.
pub fn walk(
    tracer: &Tracer,
    parent: Option<SpanId>,
    items: &[Item],
    verify: Option<WalkVerify<'_>>,
    workers: usize,
) -> Result<Walk, String> {
    let empty_transfers = TransferStore::new();
    let empty_summaries = SummaryStore::new();
    let cancel = AtomicBool::new(false);
    let slots = map_ordered(items, workers, &cancel, |_, item, _| {
        tracer.span(
            "walk.item",
            parent,
            || item.key.clone(),
            |p| {
                walk_item(
                    tracer,
                    p,
                    item,
                    verify.as_ref(),
                    &empty_transfers,
                    &empty_summaries,
                )
            },
        )
    });
    let mut out = Walk::default();
    for slot in slots {
        let (nodes, verified) = slot.expect("the walk never cancels")?;
        out.cfg_nodes += nodes;
        if let (Some((report, elapsed)), Some(v)) = (verified, &verify) {
            out.engine
                .add(&report, elapsed, v.config.parallel.effective_threads());
            out.verify_ms.push(elapsed.as_secs_f64() * 1e3);
        }
    }
    Ok(out)
}

type Verified = Option<(VerificationReport, Duration)>;

fn walk_item(
    tracer: &Tracer,
    p: Option<SpanId>,
    item: &Item,
    verify: Option<&WalkVerify<'_>>,
    empty_transfers: &TransferStore,
    empty_summaries: &SummaryStore,
) -> Result<(u64, Verified), String> {
    let key = || item.key.clone();
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", item.key);
    let program = tracer
        .span("ir.parse", p, key, |_| {
            hetsep::ir::parse_program(&item.source)
        })
        .map_err(|e| err(&e))?;
    let spec = hetsep::easl::builtin::by_name(&program.uses)
        .ok_or_else(|| err(&format!("unknown spec {}", program.uses)))?;
    let strategy = match &item.strategy {
        Some(src) => Some(hetsep::strategy::parse_strategy(src).map_err(|e| err(&e))?),
        None => None,
    };
    let cfg = tracer
        .span("ir.lower", p, key, |_| {
            hetsep::ir::Cfg::build(&program, "main")
        })
        .map_err(|e| err(&e))?;
    tracer
        .span("core.translate", p, key, |_| {
            hetsep::core::translate(&program, &spec, &TranslateOptions::default())
        })
        .map_err(|e| err(&e))?;
    // Either generation may decline a program; the engine then prunes
    // nothing, so a decline is a result here, not a failure.
    tracer.span("baseline.preanalysis", p, key, |_| {
        std::hint::black_box(hetsep::baseline::verify_with_suspects(&program, &spec).is_ok())
    });
    tracer.span("analysis.flow", p, key, |_| {
        let verdicts = hetsep::analysis::points_to_flow::analyze_flow(&cfg, &spec).ok();
        std::hint::black_box(
            verdicts.map(|v| hetsep::analysis::heap_components::summarize(&cfg, &spec, &v)),
        );
    });
    tracer.span("analysis.lint", p, key, |_| {
        std::hint::black_box(hetsep::analysis::lint_all(
            &program,
            Some(&item.source),
            Some(&spec),
            strategy.as_ref(),
        ));
    });
    let verified = match verify {
        None => None,
        Some(v) => {
            let mode = Mode::from_kind(item.kind, strategy.clone()).map_err(|e| err(&e))?;
            let transfers = SharedTransferSession::new(empty_transfers);
            let summaries = SharedSummarySession::new(empty_summaries);
            let start = Instant::now();
            let report = tracer.span("core.verify", p, key, |_| {
                let mut verifier = Verifier::new(&program, &spec)
                    .mode(mode)
                    .config(v.config.clone())
                    .phase_timings(true);
                if v.cold_stores {
                    verifier = verifier
                        .shared_cache(&transfers)
                        .shared_summaries(&summaries);
                }
                verifier.run()
            });
            let elapsed = start.elapsed();
            Some((report.map_err(|e| err(&e))?, elapsed))
        }
    };
    Ok((cfg.node_count() as u64, verified))
}

/// Sends one request line through `session` the way `hetsep serve` does —
/// `Request::parse`, `Session::handle`, `Response::to_json` — with a span
/// around each call. `key` names the request (`<op> <id>`). Returns the
/// response and its wire line.
pub fn handle(
    tracer: &Tracer,
    session: &mut Session,
    line: &str,
    parent: Option<SpanId>,
    key: &str,
) -> (Response, String) {
    let k = || key.to_owned();
    let request = tracer.span("ir.protocol", parent, k, |_| Request::parse(line));
    let response = match request {
        Ok(request) => tracer.span("core.session", parent, k, |_| session.handle(&request)),
        Err(message) => Response::error("invalid", message),
    };
    let wire = tracer.span("ir.protocol", parent, k, |_| response.to_json());
    (response, wire)
}

/// Load, lint and verify requests for `items` through a fresh in-process
/// session under `config`: the session and protocol layers' view of a
/// workload that does not reach them itself.
///
/// # Errors
///
/// Any `ok:false` response.
pub fn session_sample(
    tracer: &Tracer,
    parent: Option<SpanId>,
    items: &[&Item],
    config: EngineConfig,
) -> Result<(), String> {
    let mut session = Session::with_config(config);
    let mut strategies: Vec<&str> = Vec::new();
    for (ix, item) in items.iter().enumerate() {
        let strategy = match &item.strategy {
            None => None,
            Some(src) => Some(match strategies.iter().position(|s| s == src) {
                Some(k) => format!("s{k}"),
                None => {
                    strategies.push(src);
                    let name = format!("s{}", strategies.len() - 1);
                    let line = Request::LoadStrategy {
                        name: name.clone(),
                        source: src.clone(),
                    }
                    .to_json();
                    expect_ok(handle(
                        tracer,
                        &mut session,
                        &line,
                        parent,
                        &format!("load_strategy {ix}"),
                    ))?;
                    name
                }
            }),
        };
        let name = format!("p{ix}");
        let requests = [
            Request::LoadProgram {
                name: name.clone(),
                source: item.source.clone(),
            },
            Request::Lint {
                program: name.clone(),
                spec: None,
                strategy: strategy.clone(),
            },
            Request::Verify {
                program: name.clone(),
                spec: None,
                strategy,
                mode: Some(item.kind.as_str().to_owned()),
            },
        ];
        for r in requests {
            let key = format!("{} {ix}", r.op());
            expect_ok(handle(tracer, &mut session, &r.to_json(), parent, &key))?;
        }
    }
    Ok(())
}

fn expect_ok((response, _): (Response, String)) -> Result<(), String> {
    match response {
        Response::Error { op, message } => Err(format!("{op}: {message}")),
        _ => Ok(()),
    }
}

/// Protocol and session metrics from the spans [`handle`] recorded.
pub fn fill_session(v: &mut Values, spans: &SpanTotals) {
    let requests = spans.count("core.session");
    v.set(
        "ir.protocol_us",
        ratio(spans.self_ms("ir.protocol") * 1e3, requests as f64),
    );
    for (op, name) in [
        ("verify", "core.session.verify_p50_ms"),
        ("load_program", "core.session.load_p50_ms"),
        ("lint", "core.session.lint_p50_ms"),
    ] {
        v.set(
            name,
            median(&spans.durations_ms("core.session", &format!("{op} "))),
        );
    }
}

/// Layer times of the walk's spans, and its CFG size.
pub fn fill_walk(v: &mut Values, spans: &SpanTotals, walk: &Walk) {
    for (span, name) in [
        ("ir.parse", "ir.parse_ms"),
        ("ir.lower", "ir.lower_ms"),
        ("core.translate", "core.translate_ms"),
        ("baseline.preanalysis", "baseline.preanalysis_ms"),
        ("analysis.flow", "analysis.flow_ms"),
        ("analysis.lint", "analysis.lint_ms"),
    ] {
        v.set(name, spans.self_ms(span));
    }
    v.set("ir.cfg_nodes", walk.cfg_nodes as f64);
}

/// Round-trips a workload's cross-job stores through the on-disk
/// `CacheFile` container at `path` (removed afterwards), with a span per
/// call, and records the store size metrics.
///
/// # Errors
///
/// I/O failures, or a container that does not load back.
pub fn cache_round_trip(
    tracer: &Tracer,
    v: &mut Values,
    transfers: TransferStore,
    summaries: SummaryStore,
    path: &Path,
) -> Result<(), String> {
    let entries = transfers.entry_count() + summaries.entry_count();
    let cache = CacheFile {
        transfers,
        summaries,
    };
    let bytes = tracer.span("core.jobcache.to_bytes", None, String::new, |_| {
        cache.to_bytes().len()
    });
    tracer
        .span("core.jobcache.save", None, String::new, |_| {
            cache.save(path)
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let loaded = tracer.span("core.jobcache.load", None, String::new, |_| {
        CacheFile::load(path)
    });
    let _ = std::fs::remove_file(path);
    let loaded = loaded?;
    if loaded.transfers.entry_count() + loaded.summaries.entry_count() != entries {
        return Err("cache container did not round-trip".into());
    }
    v.set("core.jobcache.entries", entries as f64);
    v.set("core.jobcache.bytes", bytes as f64);
    Ok(())
}

/// Save and load times of [`cache_round_trip`]'s spans.
pub fn fill_cache_times(v: &mut Values, spans: &SpanTotals) {
    v.set("core.jobcache.save_ms", spans.self_ms("core.jobcache.save"));
    v.set("core.jobcache.load_ms", spans.self_ms("core.jobcache.load"));
}

/// The tracing overhead: the same fixed work traced and untraced.
pub fn fill_overhead(v: &mut Values, untraced_s: f64, traced_s: f64) {
    v.set("trace.untraced_wall_s", untraced_s);
    v.set("trace.traced_wall_s", traced_s);
    v.set("trace.overhead_s", traced_s - untraced_s);
}
