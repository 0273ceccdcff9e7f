//! # hetsep-sched
//!
//! Corpus-scale verification: an outer work-queue scheduler that batches
//! whole verification **jobs** — (program, spec, strategy, mode) quadruples
//! — across a worker pool, with cross-job caches that persist between jobs,
//! batches, and (serialized to disk) processes.
//!
//! The inner scheduler (`hetsep-core`'s `run_sites`) parallelizes the
//! subproblems *of one job*; this crate parallelizes *jobs of a corpus*,
//! reusing the same deterministic fan-out helper
//! ([`hetsep_core::for_each_ordered`]) and the same discipline: results
//! are delivered in job order regardless of worker count or completion
//! order.
//!
//! Transfers persist across jobs in the cross-run [`TransferStore`] of
//! [`hetsep_core::jobcache`], keyed by *content* — the vocabulary, the
//! action rendering, and the word-encoded input structure — with every
//! structure stored once in a hash-consed pool, so a repeat corpus — or a
//! corpus of near-duplicate clients — replays instead of recomputing,
//! call regions included.
//!
//! # Determinism contract
//!
//! [`run_batch`] freezes the store before the batch: every job probes that
//! immutable snapshot and records what it computed into private deltas.
//! Deltas are absorbed **in job order**, during the batch: as soon as
//! every earlier job has finished, a job's deltas go into a batch-level
//! store that started empty, on whichever worker delivers them, and are
//! dropped. After the batch that store folds into the snapshot
//! ([`TransferStore::merge`]), which gives the ids and bytes absorbing
//! every delta into the snapshot in job order would. A batch therefore
//! holds only the deltas of jobs that finished ahead of an earlier one
//! still running, not every job's until the end. Consequently each job's
//! outcome (verdict, errors, visits, every cache counter) is a pure
//! function of (job, engine config, snapshot) — not of the worker count,
//! the schedule, or sibling jobs — and [`JobOutcome::stable_json`] is
//! byte-identical across schedules. Jobs run with one engine thread each
//! (the outer pool is the parallelism), which also makes the post-batch
//! store — and hence its serialized bytes — schedule-independent.

use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use hetsep_core::jobcache::Delta;
use hetsep_core::{
    for_each_ordered, Counter, EngineConfig, Mode, ModeKind, SharedTransferSession, SummaryStore,
    TransferStore, Verifier,
};
// The workspace's one string-escaping rule, shared with diagnostics and the
// serve protocol.
use hetsep_ir::json::string as json_string;

/// One verification job of a corpus.
///
/// `mode` uses the workspace-wide [`ModeKind`] naming scheme directly (no
/// scheduler-private mode enum): [`ModeKind::Single`] and
/// [`ModeKind::Multi`] both schedule as non-simultaneous separation — which
/// of the two a job *reports* as is resolved from the strategy's `choose`
/// clauses by [`Mode::kind`], exactly as every other surface does.
#[derive(Debug, Clone)]
pub struct Job {
    /// Stable job name (unique within a corpus; keys the per-job JSON).
    pub name: String,
    /// Client program source; the spec is resolved from its `uses` clause.
    pub program: String,
    /// Strategy source for non-vanilla modes.
    pub strategy: Option<String>,
    /// Analysis mode family.
    pub mode: ModeKind,
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Worker threads of the outer pool. Jobs always run with **one**
    /// engine thread each — the corpus is the parallelism — so per-job
    /// results and the merged store are identical for every worker count.
    pub workers: usize,
    /// Engine configuration applied to every job (`parallel.threads` is
    /// forced to 1, see above).
    pub engine: EngineConfig,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            workers: 1,
            engine: EngineConfig::default(),
        }
    }
}

/// The outcome of one job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job name (copied from the [`Job`]).
    pub name: String,
    /// Mode label.
    pub mode: &'static str,
    /// `"verified"`, `"errors"`, `"incomplete"`, or `"failed"` (the job
    /// could not run: parse/strategy/translation failure).
    pub verdict: &'static str,
    /// Reported (deduplicated) property errors.
    pub reported: usize,
    /// Whether every run completed within budget.
    pub complete: bool,
    /// Total action applications.
    pub visits: u64,
    /// Max structures stored by any single run.
    pub space: usize,
    /// Largest universe encountered.
    pub peak_nodes: usize,
    /// Subproblems run (including pruned).
    pub subproblems: usize,
    /// Per-run transfer-cache hits.
    pub cache_hits: u64,
    /// Per-run transfer-cache misses (computed transfers).
    pub cache_misses: u64,
    /// Cross-job shared-store hits (replays of another job's transfer).
    pub shared_hits: u64,
    /// Cross-job shared-store probes that missed.
    pub shared_misses: u64,
    /// Call-region evaluations: structures popped at a region-entry node.
    pub call_evaluations: u64,
    /// Always 0. Kept, with `shared_summary_hits`, only so that the
    /// `perfbench/` harness, which reads both, keeps compiling.
    #[doc(hidden)]
    pub summary_hits: u64,
    /// Always 0; see `summary_hits`.
    #[doc(hidden)]
    pub shared_summary_hits: u64,
    /// Failure message when `verdict == "failed"`.
    pub failure: Option<String>,
    /// Wall-clock latency of this job (excluded from the stable JSON).
    pub wall: Duration,
}

impl JobOutcome {
    /// The schedule-independent JSON row of this job: everything except
    /// wall-clock. Byte-identical across worker counts, job-order shuffles,
    /// and (given the same snapshot) repeat runs.
    pub fn stable_json(&self) -> String {
        let mut s = format!(
            "{{\"name\": {}, \"mode\": \"{}\", \"verdict\": \"{}\", \
             \"reported\": {}, \"complete\": {}, \"visits\": {}, \
             \"space\": {}, \"peak_nodes\": {}, \"subproblems\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \
             \"shared_hits\": {}, \"shared_misses\": {}, \
             \"call_evaluations\": {}",
            json_string(&self.name),
            self.mode,
            self.verdict,
            self.reported,
            self.complete,
            self.visits,
            self.space,
            self.peak_nodes,
            self.subproblems,
            self.cache_hits,
            self.cache_misses,
            self.shared_hits,
            self.shared_misses,
            self.call_evaluations,
        );
        if let Some(f) = &self.failure {
            s.push_str(&format!(", \"failure\": {}", json_string(f)));
        }
        s.push('}');
        s
    }

    /// [`JobOutcome::stable_json`] plus the measured per-job latency.
    pub fn json(&self) -> String {
        let mut s = self.stable_json();
        s.truncate(s.len() - 1);
        s.push_str(&format!(
            ", \"wall_ms\": {:.3}}}",
            self.wall.as_secs_f64() * 1e3
        ));
        s
    }
}

/// Corpus-level throughput and latency metrics of one batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-job outcomes, in job (input) order.
    pub outcomes: Vec<JobOutcome>,
    /// Wall-clock time of the whole batch, absorbing the jobs' deltas and
    /// the final merge into the stores included.
    pub wall: Duration,
    /// Time spent growing the stores: absorbing each job's deltas (summed
    /// over the workers that delivered them) plus the final merge.
    pub absorb: Duration,
    /// Jobs completed per second of batch wall-clock.
    pub jobs_per_sec: f64,
    /// Median per-job latency (nearest-rank).
    pub p50: Duration,
    /// 95th-percentile per-job latency (nearest-rank).
    pub p95: Duration,
    /// 99th-percentile per-job latency (nearest-rank).
    pub p99: Duration,
}

impl BatchResult {
    /// Jobs with the given verdict.
    pub fn count(&self, verdict: &str) -> usize {
        self.outcomes.iter().filter(|o| o.verdict == verdict).count()
    }

    /// Sum of a per-job counter over the batch.
    pub fn total(&self, get: impl Fn(&JobOutcome) -> u64) -> u64 {
        self.outcomes.iter().map(get).sum()
    }

    /// The schedule-independent one-line verdict summary (the CI corpus
    /// smoke gate diffs this against a golden).
    pub fn summary_line(&self) -> String {
        format!(
            "jobs={} verified={} errors={} incomplete={} failed={} reported={}",
            self.outcomes.len(),
            self.count("verified"),
            self.count("errors"),
            self.count("incomplete"),
            self.count("failed"),
            self.total(|o| o.reported as u64),
        )
    }
}

/// Runs one job against a frozen store snapshot, returning its outcome and
/// the transfers it computed.
fn run_job(job: &Job, engine: &EngineConfig, snapshot: &TransferStore) -> (JobOutcome, Vec<Delta>) {
    let start = Instant::now();
    let fail = |msg: String, start: Instant| JobOutcome {
        name: job.name.clone(),
        mode: job.mode.as_str(),
        verdict: "failed",
        reported: 0,
        complete: false,
        visits: 0,
        space: 0,
        peak_nodes: 0,
        subproblems: 0,
        cache_hits: 0,
        cache_misses: 0,
        shared_hits: 0,
        shared_misses: 0,
        call_evaluations: 0,
        summary_hits: 0,
        shared_summary_hits: 0,
        failure: Some(msg),
        wall: start.elapsed(),
    };

    let program = match hetsep_ir::parse_program(&job.program) {
        Ok(p) => p,
        Err(e) => return (fail(format!("parse: {e}"), start), Vec::new()),
    };
    let Some(spec) = hetsep_easl::builtin::by_name(&program.uses) else {
        return (fail(format!("unknown spec: {}", program.uses), start), Vec::new());
    };
    let strategy = if job.mode.needs_strategy() {
        let Some(src) = &job.strategy else {
            return (fail("mode requires a strategy".into(), start), Vec::new());
        };
        match hetsep_strategy::parse_strategy(src) {
            Ok(s) => Some(s),
            Err(e) => return (fail(format!("strategy: {e}"), start), Vec::new()),
        }
    } else {
        None
    };
    let mode = match Mode::from_kind(job.mode, strategy) {
        Ok(m) => m,
        Err(e) => return (fail(e.to_string(), start), Vec::new()),
    };
    // The label a job reports under is resolved from the strategy (`single`
    // vs. `multi`), not echoed from the request.
    let mode_label = mode.kind().as_str();

    let session = SharedTransferSession::new(snapshot);
    let report = Verifier::new(&program, &spec)
        .mode(mode)
        .config(engine.clone())
        .shared_cache(&session)
        .run();
    match report {
        Ok(report) => {
            let c = |counter| report.metrics.counters.get(counter);
            let outcome = JobOutcome {
                name: job.name.clone(),
                mode: mode_label,
                verdict: report.verdict(),
                reported: report.errors.len(),
                complete: report.complete,
                visits: report.total_visits,
                space: report.max_space,
                peak_nodes: report.peak_nodes,
                subproblems: report.subproblems.len(),
                cache_hits: c(Counter::TransferCacheHits),
                cache_misses: c(Counter::TransferCacheMisses),
                shared_hits: c(Counter::SharedCacheHits),
                shared_misses: c(Counter::SharedCacheMisses),
                call_evaluations: c(Counter::CallEvaluations),
                summary_hits: 0,
                shared_summary_hits: 0,
                failure: None,
                wall: start.elapsed(),
            };
            (outcome, session.into_deltas())
        }
        Err(e) => (fail(e.to_string(), start), Vec::new()),
    }
}

/// Runs a batch of jobs over the worker pool, probing and then growing the
/// persistent `store` (see the module docs for the snapshot + ordered
/// deltas determinism contract). `_summaries` is ignored: it stays only so
/// that the `perfbench/` harness, which passes it, keeps compiling.
pub fn run_batch(
    jobs: &[Job],
    config: &BatchConfig,
    store: &mut TransferStore,
    _summaries: &mut SummaryStore,
) -> BatchResult {
    let mut engine = config.engine.clone();
    // One subproblem thread per job: the outer pool is the parallelism, and
    // a fixed thread count keeps per-job results and delta order
    // independent of the outer schedule.
    engine.parallel.threads = 1;

    let snapshot = std::mem::take(store);
    let start = Instant::now();
    let cancel = AtomicBool::new(false);
    let mut batch = TransferStore::new();
    let mut outcomes = Vec::with_capacity(jobs.len());
    let mut absorb = Duration::ZERO;
    for_each_ordered(
        jobs,
        config.workers,
        &cancel,
        |_, job, _| run_job(job, &engine, &snapshot),
        |_, r| {
            // The flag is never raised, so every job runs.
            let (outcome, deltas) = r.expect("job scheduler never cancels");
            let at = Instant::now();
            batch.absorb(deltas);
            absorb += at.elapsed();
            outcomes.push(outcome);
        },
    );
    let at = Instant::now();
    *store = snapshot;
    store.merge(batch);
    absorb += at.elapsed();
    let wall = start.elapsed();

    let mut latencies: Vec<Duration> = outcomes.iter().map(|o| o.wall).collect();
    latencies.sort_unstable();
    let pct = |p: f64| -> Duration {
        if latencies.is_empty() {
            return Duration::ZERO;
        }
        let rank = ((p / 100.0 * latencies.len() as f64).ceil() as usize).max(1);
        latencies[rank - 1]
    };
    let jobs_per_sec = if wall.as_secs_f64() > 0.0 {
        outcomes.len() as f64 / wall.as_secs_f64()
    } else {
        0.0
    };
    BatchResult {
        outcomes,
        wall,
        absorb,
        jobs_per_sec,
        p50: pct(50.0),
        p95: pct(95.0),
        p99: pct(99.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = "program P uses IOStreams; void main() {\n\
        InputStream f = new InputStream();\n\
        f.read();\n\
        f.close();\n\
    }";

    const BUGGY: &str = "program P uses IOStreams; void main() {\n\
        InputStream f = new InputStream();\n\
        f.close();\n\
        f.read();\n\
    }";

    fn jobs() -> Vec<Job> {
        vec![
            Job {
                name: "ok".into(),
                program: OK.into(),
                strategy: None,
                mode: ModeKind::Vanilla,
            },
            Job {
                name: "buggy".into(),
                program: BUGGY.into(),
                strategy: None,
                mode: ModeKind::Vanilla,
            },
            Job {
                name: "broken".into(),
                program: "program P uses Nope; void main() { }".into(),
                strategy: None,
                mode: ModeKind::Vanilla,
            },
        ]
    }

    #[test]
    fn batch_reports_verdicts_in_job_order() {
        let mut store = TransferStore::new();
        let result = run_batch(
            &jobs(),
            &BatchConfig::default(),
            &mut store,
            &mut SummaryStore::new(),
        );
        let verdicts: Vec<&str> = result.outcomes.iter().map(|o| o.verdict).collect();
        assert_eq!(verdicts, ["verified", "errors", "failed"]);
        assert_eq!(
            result.summary_line(),
            format!(
                "jobs=3 verified=1 errors=1 incomplete=0 failed=1 reported={}",
                result.total(|o| o.reported as u64)
            )
        );
        assert!(!store.is_empty(), "computed transfers are recorded");
    }

    #[test]
    fn warm_store_replays_instead_of_recomputing() {
        let mut store = TransferStore::new();
        let cold = run_batch(
            &jobs(),
            &BatchConfig::default(),
            &mut store,
            &mut SummaryStore::new(),
        );
        let entries = store.entry_count();
        let warm = run_batch(
            &jobs(),
            &BatchConfig::default(),
            &mut store,
            &mut SummaryStore::new(),
        );
        assert!(entries > 0);
        assert_eq!(
            store.entry_count(),
            entries,
            "a repeat corpus adds no entries"
        );
        assert!(warm.total(|o| o.shared_hits) > 0);
        assert!(warm.total(|o| o.cache_misses) < cold.total(|o| o.cache_misses));
        for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
            assert_eq!(c.verdict, w.verdict);
            assert_eq!(c.reported, w.reported);
            assert_eq!(c.visits, w.visits);
        }
    }

    #[test]
    fn worker_count_does_not_change_stable_json() {
        let jobs = jobs();
        let run = |workers: usize| {
            let mut store = TransferStore::new();
            let cfg = BatchConfig {
                workers,
                ..BatchConfig::default()
            };
            run_batch(&jobs, &cfg, &mut store, &mut SummaryStore::new())
        };
        let one = run(1);
        let four = run(4);
        for (a, b) in one.outcomes.iter().zip(&four.outcomes) {
            assert_eq!(a.stable_json(), b.stable_json());
        }
    }
}
