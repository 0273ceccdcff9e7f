//! Verification modes: the drivers of Table 3.
//!
//! * `vanilla` — homogeneous TVLA-style verification, no separation;
//! * `single`/`multi` (simultaneous) — separation instrumentation active,
//!   all subproblems explored in one run;
//! * non-simultaneous separation — one engine run per allocation site of the
//!   first `choose some` class, reducing the peak memory footprint (the
//!   paper's default measurement mode);
//! * `inc` — incremental strategies: stages tried in order, later stages
//!   restricted to the allocation sites that failed earlier ones.
//!
//! Non-simultaneous separation subproblems are independent engine runs, so
//! they are fanned out across a scoped worker pool (see
//! [`crate::engine::ParallelConfig`]). Each worker owns its engine state and
//! interner; results are merged in allocation-site order, and budget
//! exhaustion cancels only later sites (see `run_sites`), so reports are
//! identical to a serial run.
//! Incremental stages stay sequential by design: each stage's site set
//! depends on the previous stage's failing sites.
//!
//! A verification has a *prepare* half — every translation, the pruning
//! preanalysis, each instance's `engine::InstancePlan` — and an *execute* half,
//! the engine runs and the report. Only execute reads the shared stores.
//! `Prepared` memoizes the prepare half, so a caller that keeps it (the
//! [`crate::workspace::Workspace`], per program) re-verifies by running
//! only the engine; [`Verifier::run`] uses a fresh one.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::{self, Write};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use hetsep_easl::ast::Spec;
use hetsep_ir::Program;
use hetsep_strategy::ast::{ChoiceMode, Strategy};
use hetsep_tvl::telemetry::{event_to_json, Counter, Event, Phase, RunMetrics};

use crate::engine::{
    run_planned, AnalysisOutcome, EngineConfig, InstancePlan, RunResult, RunStats, Sessions,
};
use crate::jobcache::SharedTransferSession;
use crate::summary::SharedSummarySession;
use crate::report::{dedup_reports, ErrorReport, VerifyError};
use crate::translate::{translate, AnalysisInstance, TranslateOptions};
use crate::vocab::SiteId;

/// The mode *family* of a verification, detached from any strategy value.
///
/// This is the one naming scheme for modes across the workspace: Table 3
/// row labels, `BENCH_table3.json`, corpus job rows, CLI `--mode` values,
/// and the `hetsep serve` protocol all go through [`ModeKind`]'s
/// [`fmt::Display`]/[`FromStr`] impls. [`Mode::kind`] projects a full
/// [`Mode`] (which carries its strategy) onto its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModeKind {
    /// No separation (Table 3's `vanilla` rows).
    Vanilla,
    /// Non-simultaneous separation, one `choose some` clause (`single`).
    Single,
    /// Non-simultaneous separation, several `choose some` clauses
    /// (`multi`).
    Multi,
    /// Simultaneous separation (`sim`).
    Sim,
    /// Incremental multi-stage strategy (`inc`).
    Inc,
}

impl ModeKind {
    /// Every kind, in Table 3 row order.
    pub const ALL: [ModeKind; 5] = [
        ModeKind::Vanilla,
        ModeKind::Single,
        ModeKind::Multi,
        ModeKind::Sim,
        ModeKind::Inc,
    ];

    /// The stable lower-case label (`vanilla`, `single`, `multi`, `sim`,
    /// `inc`) — exactly the strings Table 3 and every JSON row use.
    pub fn as_str(self) -> &'static str {
        match self {
            ModeKind::Vanilla => "vanilla",
            ModeKind::Single => "single",
            ModeKind::Multi => "multi",
            ModeKind::Sim => "sim",
            ModeKind::Inc => "inc",
        }
    }

    /// Whether this kind needs a separation strategy to run.
    pub fn needs_strategy(self) -> bool {
        self != ModeKind::Vanilla
    }
}

impl fmt::Display for ModeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ModeKind {
    type Err = String;

    /// Parses a mode label. Accepts the canonical labels plus `sep` as an
    /// alias for `single` (the CLI's historical name for non-simultaneous
    /// separation; single vs. multi is decided by the strategy's `choose`
    /// clauses anyway — see [`Mode::kind`]).
    fn from_str(s: &str) -> Result<ModeKind, String> {
        match s {
            "vanilla" => Ok(ModeKind::Vanilla),
            "single" | "sep" => Ok(ModeKind::Single),
            "multi" => Ok(ModeKind::Multi),
            "sim" => Ok(ModeKind::Sim),
            "inc" => Ok(ModeKind::Inc),
            other => Err(format!(
                "unknown mode `{other}` (expected vanilla, single/sep, multi, sim, or inc)"
            )),
        }
    }
}

/// How to verify.
#[derive(Debug, Clone)]
pub enum Mode {
    /// No separation: the homogeneous baseline of Table 3's `vanilla` rows.
    Vanilla,
    /// One strategy stage.
    Separation {
        /// The strategy (only its first stage is used).
        strategy: Strategy,
        /// `true` = one engine run exploring all subproblems at once
        /// (Table 3's `sim` rows); `false` = one run per allocation site of
        /// the first `choose some` class (the non-simultaneous default).
        simultaneous: bool,
        /// Use heterogeneous abstraction (the paper's default; `false` only
        /// for ablation).
        heterogeneous: bool,
    },
    /// Incremental strategy: try stages until one verifies.
    Incremental {
        /// The multi-stage strategy.
        strategy: Strategy,
        /// Use heterogeneous abstraction.
        heterogeneous: bool,
    },
}

impl Mode {
    /// Separation with the paper's defaults (non-simultaneous,
    /// heterogeneous).
    pub fn separation(strategy: Strategy) -> Mode {
        Mode::Separation {
            strategy,
            simultaneous: false,
            heterogeneous: true,
        }
    }

    /// Simultaneous separation (`sim` rows).
    pub fn simultaneous(strategy: Strategy) -> Mode {
        Mode::Separation {
            strategy,
            simultaneous: true,
            heterogeneous: true,
        }
    }

    /// Incremental verification with heterogeneous abstraction.
    pub fn incremental(strategy: Strategy) -> Mode {
        Mode::Incremental {
            strategy,
            heterogeneous: true,
        }
    }

    /// Builds a mode from its kind and an optional strategy, with the
    /// paper's defaults (heterogeneous abstraction on). [`ModeKind::Single`]
    /// and [`ModeKind::Multi`] both map to non-simultaneous separation —
    /// which of the two a run *reports* as is recomputed from the strategy's
    /// `choose` clauses by [`Mode::kind`], so a mislabeled request cannot
    /// smuggle a wrong row label into output.
    ///
    /// # Errors
    ///
    /// Every kind except [`ModeKind::Vanilla`] requires a strategy.
    pub fn from_kind(kind: ModeKind, strategy: Option<Strategy>) -> Result<Mode, VerifyError> {
        match (kind, strategy) {
            (ModeKind::Vanilla, _) => Ok(Mode::Vanilla),
            (ModeKind::Single | ModeKind::Multi, Some(s)) => Ok(Mode::separation(s)),
            (ModeKind::Sim, Some(s)) => Ok(Mode::simultaneous(s)),
            (ModeKind::Inc, Some(s)) => Ok(Mode::incremental(s)),
            (kind, None) => Err(VerifyError::Strategy(format!(
                "mode `{kind}` requires a strategy"
            ))),
        }
    }

    /// The kind of this mode, as reported in Table 3 output: `vanilla`,
    /// `sim`, `single` (non-simultaneous separation with one `choose`),
    /// `multi` (more than one `choose`), or `inc`.
    pub fn kind(&self) -> ModeKind {
        match self {
            Mode::Vanilla => ModeKind::Vanilla,
            Mode::Separation {
                simultaneous: true, ..
            } => ModeKind::Sim,
            Mode::Separation { strategy, .. } => {
                // Single vs. multiple choice is about how many `choose some`
                // clauses the stage has (`choose all` clauses ride along with
                // the chosen object and do not multiply subproblem families).
                let somes = strategy.stages.first().map(|s| {
                    s.choices
                        .iter()
                        .filter(|c| c.mode == ChoiceMode::Some)
                        .count()
                });
                match somes {
                    Some(n) if n > 1 => ModeKind::Multi,
                    _ => ModeKind::Single,
                }
            }
            Mode::Incremental { .. } => ModeKind::Inc,
        }
    }

}

impl fmt::Display for Mode {
    /// Writes the Table 3 row label of this mode (see [`Mode::kind`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.kind().as_str())
    }
}

/// What the pruning pre-pass concluded about one non-simultaneous
/// separation family (see [`EngineConfig::preanalysis`]): the may-share
/// partition size and the predicted structure cost — the static
/// cost-model surface an auto-strategy planner would build on. How many
/// sites it pruned is the family's `subproblems_pruned` counter.
///
/// Per-site figures are carried by the `Preanalysis*` counters in each
/// subproblem's [`RunStats::metrics`]; this summary is their
/// verification-wide aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreanalysisSummary {
    /// May-share heap components found by the flow-sensitive analysis.
    pub components: u64,
    /// Sum over the family's sites of the structure-count estimate of each
    /// site's may-share component (saturating). An estimate, not a bound:
    /// measured peaks exceed it (see `DESIGN.md` §15.2).
    pub estimated_structures: u64,
}

/// Statistics of one subproblem run.
#[derive(Debug, Clone)]
pub struct SubproblemStats {
    /// The allocation site this subproblem was restricted to, if any.
    pub site: Option<SiteId>,
    /// Engine statistics.
    pub stats: RunStats,
    /// Number of (per-line) errors this subproblem reported.
    pub errors: usize,
    /// Completion status.
    pub outcome: AnalysisOutcome,
}

/// The result of a verification.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// Deduplicated error reports.
    pub errors: Vec<ErrorReport>,
    /// Whether every run completed within budget.
    pub complete: bool,
    /// Max structures stored by any single run (the paper's "space" — the
    /// maximal footprint of analyzing one set of subproblems).
    pub max_space: usize,
    /// Total action applications across all runs (deterministic time proxy).
    pub total_visits: u64,
    /// Accumulated wall-clock time across all runs (the paper's "time").
    /// With parallel scheduling this is CPU-like time; see
    /// [`VerificationReport::elapsed_wall`] for real elapsed time.
    pub total_wall: Duration,
    /// Real elapsed wall-clock time of the whole verification, including
    /// translation and scheduling. Under parallel scheduling this is smaller
    /// than [`VerificationReport::total_wall`].
    pub elapsed_wall: Duration,
    /// Largest universe encountered.
    pub peak_nodes: usize,
    /// Per-subproblem statistics.
    pub subproblems: Vec<SubproblemStats>,
    /// Number of incremental stages executed (1 for other modes).
    pub stages_run: usize,
    /// Verification-wide metrics: per-phase timings/counts and counters
    /// merged across subproblems in deterministic site order (per-run
    /// metrics stay available under each subproblem's
    /// [`RunStats::metrics`]).
    pub metrics: RunMetrics,
    /// What the pruning pre-pass proved and predicted. `Some` only when
    /// [`EngineConfig::preanalysis`] ran, i.e. on a non-simultaneous
    /// separation family with pruning enabled.
    pub preanalysis: Option<PreanalysisSummary>,
}

impl VerificationReport {
    /// Whether the program was proven correct.
    pub fn verified(&self) -> bool {
        self.errors.is_empty() && self.complete
    }

    /// The one-word verdict every surface reports: `errors` when any error
    /// was reported, else `verified` when every run completed within
    /// budget, else `incomplete`.
    pub fn verdict(&self) -> &'static str {
        if !self.errors.is_empty() {
            "errors"
        } else if self.complete {
            "verified"
        } else {
            "incomplete"
        }
    }

    /// Average visits per subproblem (the paper's on-demand argument: this
    /// is much smaller than a vanilla run even when the total is not).
    pub fn avg_visits_per_subproblem(&self) -> f64 {
        if self.subproblems.is_empty() {
            0.0
        } else {
            self.total_visits as f64 / self.subproblems.len() as f64
        }
    }

    fn empty() -> VerificationReport {
        VerificationReport {
            errors: Vec::new(),
            complete: true,
            max_space: 0,
            total_visits: 0,
            total_wall: Duration::ZERO,
            elapsed_wall: Duration::ZERO,
            peak_nodes: 0,
            subproblems: Vec::new(),
            stages_run: 0,
            metrics: RunMetrics::default(),
            preanalysis: None,
        }
    }

    /// Records a subproblem the pre-analysis proved safe without running
    /// it: zero work, zero errors, and — crucially — no effect on
    /// `complete`, since the pre-pass proof stands in for the fixpoint.
    /// The family-wide component count and the site's cost estimate land in
    /// the row's own counters, which the report and its trace both read.
    fn absorb_pruned(&mut self, site: SiteId, pre: &Preanalysis) {
        let mut stats = RunStats::default();
        stats.metrics.counters.add(Counter::SubproblemsPruned, 1);
        pre.stamp_row(site, &mut stats.metrics);
        self.metrics.merge(&stats.metrics);
        self.subproblems.push(SubproblemStats {
            site: Some(site),
            stats,
            errors: 0,
            outcome: AnalysisOutcome::Pruned,
        });
    }

    fn absorb(&mut self, site: Option<SiteId>, result: crate::engine::RunResult) {
        self.complete &= result.outcome == AnalysisOutcome::Complete;
        self.max_space = self.max_space.max(result.stats.structures);
        self.total_visits += result.stats.visits;
        self.total_wall += result.stats.wall;
        self.peak_nodes = self.peak_nodes.max(result.stats.peak_nodes);
        self.metrics.merge(&result.stats.metrics);
        self.subproblems.push(SubproblemStats {
            site,
            stats: result.stats.clone(),
            errors: result.errors.len(),
            outcome: result.outcome,
        });
        self.errors.extend(result.errors);
    }

    fn finish(mut self) -> VerificationReport {
        self.errors = dedup_reports(std::mem::take(&mut self.errors));
        self
    }
}

/// Result of the pruning pre-pass over one site family: the sites the
/// flow-sensitive points-to × typestate product analysis proved safe (each
/// outside every may-share component that contains a suspect), plus its
/// cost model.
struct Preanalysis {
    /// Sites proved safe; pruning them is sound.
    safe: HashSet<SiteId>,
    /// May-share components over the whole program (0 when the analysis
    /// declined).
    components: u64,
    /// Structure-count estimate of each site's may-share component.
    estimates: HashMap<SiteId, u64>,
}

impl Preanalysis {
    /// Runs the analysis once. It may decline (e.g. an unmodelled library
    /// member) and then proves nothing safe; the run loop covers every
    /// site.
    fn run(program: &Program, spec: &Spec, sites: &[SiteId]) -> Preanalysis {
        let mut safe = HashSet::new();
        let mut components = 0;
        let mut estimates = HashMap::new();
        let verdicts = hetsep_ir::Cfg::build(program, "main")
            .ok()
            .and_then(|cfg| {
                let v = hetsep_analysis::points_to_flow::analyze_flow(&cfg, spec).ok()?;
                Some(hetsep_analysis::heap_components::summarize(&cfg, spec, &v))
            });
        if let Some(summary) = verdicts {
            components = summary.component_count() as u64;
            for &s in sites {
                estimates.insert(s, summary.estimate(s));
                // Guard on component membership: a site the flow analysis
                // never discovered must not be presumed safe.
                if summary.component_of(s).is_some() && !summary.suspects_closed().contains(&s) {
                    safe.insert(s);
                }
            }
        }
        Preanalysis {
            safe,
            components,
            estimates,
        }
    }

    /// Stamps the family-wide component count and the site's structure
    /// estimate onto one subproblem row's metrics (pruned or run alike),
    /// keeping the per-row counters the single source of truth.
    fn stamp_row(&self, site: SiteId, metrics: &mut RunMetrics) {
        metrics
            .counters
            .raise(Counter::PreanalysisComponents, self.components);
        metrics.counters.add(
            Counter::PreanalysisEstimatedStructures,
            self.estimates.get(&site).copied().unwrap_or(0),
        );
    }

    /// Verification-wide aggregate for the report surface.
    fn summary(&self) -> PreanalysisSummary {
        PreanalysisSummary {
            components: self.components,
            estimated_structures: self
                .estimates
                .values()
                .fold(0u64, |a, &b| a.saturating_add(b)),
        }
    }
}

/// Translate options restricting `choice_ix` to the single site `site`.
fn site_options(base: &TranslateOptions, choice_ix: usize, site: SiteId) -> TranslateOptions {
    let mut options = base.clone();
    options.site_constraints = HashMap::from([(choice_ix, HashSet::from([site]))]);
    options
}

/// A translated instance with its [`InstancePlan`]: everything an engine
/// run reads that does not depend on the stores.
struct PreparedInstance {
    instance: AnalysisInstance,
    plan: InstancePlan,
}

impl PreparedInstance {
    fn translate(
        program: &Program,
        spec: &Spec,
        options: &TranslateOptions,
    ) -> Result<PreparedInstance, VerifyError> {
        let instance = translate(program, spec, options)?;
        let plan = InstancePlan::new(&instance);
        Ok(PreparedInstance { instance, plan })
    }

    fn run(
        &self,
        config: &EngineConfig,
        cancel: Option<&AtomicBool>,
        sessions: Sessions<'_>,
    ) -> RunResult {
        run_planned(&self.instance, &self.plan, config, cancel, sessions)
    }
}

/// A non-simultaneous family as its preparation left it: the family's
/// allocation sites, the pruning preanalysis (when configured), the sites
/// left to run, and one lazily translated instance per site to run.
struct Family {
    choice_ix: usize,
    sites: Vec<SiteId>,
    pre: Option<Preanalysis>,
    to_run: Vec<SiteId>,
    /// One slot per `to_run` site, translated by the run that first reaches
    /// it, so a site past the cancellation watermark is never translated.
    instances: Vec<OnceLock<Result<PreparedInstance, VerifyError>>>,
}

/// The prepare half of one verification: every translation and the pruning
/// preanalysis of one (program, spec, mode), built on first use and kept
/// for re-runs.
///
/// None of it depends on what the stores hold — only the engine runs do —
/// so a re-verification of unchanged artifacts over a kept `Prepared` runs
/// only the engine and reports exactly what a fresh one-shot run over the
/// same store snapshot reports. [`Verifier::run`] prepares into a fresh,
/// throw-away `Prepared`; the [`crate::workspace::Workspace`] keeps one per
/// program. A `Prepared` serves the one (program, spec, mode, config) it
/// was first used with.
#[derive(Default)]
pub(crate) struct Prepared {
    /// The vanilla or simultaneous instance, or the probe of a
    /// non-simultaneous family (all three translate the mode's base
    /// options).
    base: Option<Result<PreparedInstance, VerifyError>>,
    /// The non-simultaneous family.
    family: Option<Family>,
    /// Incremental stage instances by stage index and the sorted failing
    /// sites of the stage before.
    stages: HashMap<(usize, Vec<SiteId>), Result<PreparedInstance, VerifyError>>,
}

impl Prepared {
    /// The instance of `options`, translated on first use.
    fn base(
        &mut self,
        program: &Program,
        spec: &Spec,
        options: &TranslateOptions,
    ) -> Result<&PreparedInstance, VerifyError> {
        self.base
            .get_or_insert_with(|| PreparedInstance::translate(program, spec, options))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The site family of the choice at `choice_ix`, a `choose some` of
    /// `class`, with its pruning preanalysis when `prune`.
    fn family(
        &mut self,
        program: &Program,
        spec: &Spec,
        class: &str,
        choice_ix: usize,
        prune: bool,
    ) -> &Family {
        if self.family.is_none() {
            let probe = match &self.base {
                Some(Ok(p)) => &p.instance,
                _ => unreachable!("the family is prepared after its probe"),
            };
            let sites: Vec<SiteId> = probe.sites_of(class).to_vec();
            // Pruning pre-pass: the preanalysis runs once and every site
            // it proves safe is skipped. If it declines, the run loop
            // covers every site.
            let pre = prune.then(|| Preanalysis::run(program, spec, &sites));
            let to_run: Vec<SiteId> = sites
                .iter()
                .copied()
                .filter(|s| !pre.as_ref().is_some_and(|p| p.safe.contains(s)))
                .collect();
            let instances = to_run.iter().map(|_| OnceLock::new()).collect();
            let family = Family {
                choice_ix,
                sites,
                pre,
                to_run,
                instances,
            };
            self.family = Some(family);
        }
        self.family.as_ref().expect("just prepared")
    }

    /// The instance of incremental stage `ix` given the previous stage's
    /// failing sites.
    fn stage(
        &mut self,
        program: &Program,
        spec: &Spec,
        ix: usize,
        options: &TranslateOptions,
    ) -> Result<&PreparedInstance, VerifyError> {
        let mut failing: Vec<SiteId> = options.failing_sites.iter().copied().collect();
        failing.sort_unstable();
        self.stages
            .entry((ix, failing))
            .or_insert_with(|| PreparedInstance::translate(program, spec, options))
            .as_ref()
            .map_err(Clone::clone)
    }
}

/// Runs one subproblem per site of `family.to_run`, on a scoped worker pool
/// when more than one thread is configured.
///
/// Results come back in site order regardless of completion order, so
/// downstream merging is deterministic. Cancellation is deterministic too:
/// a cancellation *watermark* holds the lowest slot index whose subproblem
/// exhausted its budget or failed to translate. Only slots after the
/// watermark are cancelled — they are not started, in-flight ones abort at
/// their next poll — and their results and metrics are dropped. Slots
/// before it run to completion. The surviving prefix is exactly what a
/// serial run produces, whatever the thread count or timing.
fn run_sites(
    program: &Program,
    spec: &Spec,
    base: &TranslateOptions,
    family: &Family,
    config: &EngineConfig,
    sessions: Sessions<'_>,
) -> Result<Vec<(SiteId, RunResult)>, VerifyError> {
    let sites = &family.to_run;
    let threads = config.parallel.effective_threads().clamp(1, sites.len().max(1));
    // Relaxed throughout: the watermark and flags publish no data (results
    // are read after the pool joins), and a stale read only lets a slot
    // past the watermark start a run whose result is dropped anyway.
    let watermark = AtomicUsize::new(usize::MAX);
    // One flag per slot, raised once the watermark drops below the slot.
    let cancelled: Vec<AtomicBool> = sites.iter().map(|_| AtomicBool::new(false)).collect();
    let lower_watermark = |ix: usize| {
        if watermark.fetch_min(ix, Ordering::Relaxed) > ix {
            for flag in &cancelled[ix + 1..] {
                flag.store(true, Ordering::Relaxed);
            }
        }
    };
    // `map_ordered`'s own flag stops claims; it stays down so that every
    // slot below the watermark is claimed, and later slots return `None`
    // without starting.
    let never = AtomicBool::new(false);
    let slots = crate::parallel::map_ordered(sites, threads, &never, |ix, &site, _| {
        if watermark.load(Ordering::Relaxed) < ix {
            return None;
        }
        let prepared = family.instances[ix].get_or_init(|| {
            let options = site_options(base, family.choice_ix, site);
            PreparedInstance::translate(program, spec, &options)
        });
        let result = match prepared {
            Ok(p) => Ok(p.run(config, Some(&cancelled[ix]), sessions)),
            Err(e) => Err(e.clone()),
        };
        match &result {
            Ok(r) if r.outcome != AnalysisOutcome::BudgetExceeded => {}
            _ => lower_watermark(ix),
        }
        Some(result)
    });
    let last = watermark.into_inner();
    let mut out = Vec::with_capacity(sites.len());
    for (ix, slot) in slots.into_iter().enumerate().take(last.saturating_add(1)) {
        let result = slot
            .flatten()
            .expect("every slot up to the watermark runs")?;
        out.push((sites[ix], result));
    }
    Ok(out)
}

/// Builder-style front door of the verification engine.
///
/// Collects the program, specification, [`Mode`] and [`EngineConfig`], then
/// [`Verifier::run`]s. The report carries the observability data: merged
/// [`VerificationReport::metrics`] and one [`SubproblemStats`] row per
/// subproblem, which [`write_trace`] renders as NDJSON:
///
/// ```
/// use hetsep_core::{write_trace, Verifier, Mode, EngineConfig};
///
/// let program = hetsep_ir::parse_program(
///     "program P uses IOStreams; void main() {\n\
///        InputStream f = new InputStream();\n\
///        f.read();\n\
///        f.close();\n\
///      }",
/// )
/// .unwrap();
/// let spec = hetsep_easl::builtin::iostreams();
/// let report = Verifier::new(&program, &spec)
///     .mode(Mode::Vanilla)
///     .config(EngineConfig::default())
///     .run()
///     .unwrap();
/// assert!(report.verified());
/// assert_eq!(report.subproblems.len(), 1);
/// let mut trace = Vec::new();
/// write_trace(&report.subproblems, &mut trace).unwrap();
/// assert!(trace.starts_with(b"{\"event\":\"subproblem_start\",\"subproblem\":0,"));
/// ```
///
/// Defaults: [`Mode::Vanilla`], `EngineConfig::default()`.
#[must_use = "a Verifier does nothing until .run()"]
pub struct Verifier<'a> {
    program: &'a Program,
    spec: &'a Spec,
    mode: Mode,
    config: EngineConfig,
    sessions: Sessions<'a>,
}

impl<'a> Verifier<'a> {
    /// Starts a verification of `program` against `spec` (vanilla mode,
    /// default engine configuration).
    pub fn new(program: &'a Program, spec: &'a Spec) -> Verifier<'a> {
        Verifier {
            program,
            spec,
            mode: Mode::Vanilla,
            config: EngineConfig::default(),
            sessions: Sessions::default(),
        }
    }

    /// Sets the verification [`Mode`].
    pub fn mode(mut self, mode: Mode) -> Verifier<'a> {
        self.mode = mode;
        self
    }

    /// Sets the [`EngineConfig`].
    pub fn config(mut self, config: EngineConfig) -> Verifier<'a> {
        self.config = config;
        self
    }

    /// Enables wall-clock sampling of per-phase durations (see
    /// [`EngineConfig::phase_timings`]); counts are collected regardless.
    pub fn phase_timings(mut self, on: bool) -> Verifier<'a> {
        self.config.phase_timings = on;
        self
    }

    /// Enables the static pruning pre-pass (see
    /// [`EngineConfig::preanalysis`]): before fanning out non-simultaneous
    /// separation subproblems, the flow-sensitive points-to × typestate
    /// product analysis with may-share closure runs once, and allocation
    /// sites it proves safe are skipped, recorded as
    /// [`AnalysisOutcome::Pruned`] with the `subproblems_pruned` counter;
    /// the aggregate lands in [`VerificationReport::preanalysis`]. The
    /// proof is sound, so verdicts and reported errors are identical with
    /// pruning on or off. Off by default.
    pub fn with_preanalysis(mut self, on: bool) -> Verifier<'a> {
        self.config.preanalysis = on;
        self
    }

    /// Enables or disables the exact transfer-function cache (see
    /// [`EngineConfig::transfer_cache`]). Hits replay the memoized interned
    /// post-structures of the focus → coerce → update → canon pipeline, so
    /// verdicts, error sets and `visits`/`space` statistics are byte-identical
    /// with the cache on or off — only wall-clock time changes. On by
    /// default.
    pub fn with_transfer_cache(mut self, on: bool) -> Verifier<'a> {
        self.config.transfer_cache = on;
        self
    }

    /// Attaches a cross-job shared transfer session (see
    /// [`crate::jobcache`]): per-run-cache misses probe the session's store
    /// snapshot by content key, and computed transfers are recorded into the
    /// session's delta for future jobs. Observation-equivalent — verdicts,
    /// reported errors and visit/space statistics are identical with or
    /// without a session; only the shared-cache counters and wall-clock
    /// change. Requires the transfer cache (on by default) to have any
    /// effect.
    pub fn shared_cache(mut self, session: &'a SharedTransferSession<'a>) -> Verifier<'a> {
        self.sessions.transfers = Some(session);
        self
    }

    /// Enables or disables per-procedure summary memoization (see
    /// [`EngineConfig::summaries`]). The nested region drain is a pure
    /// function of its `(region content, input structure)` key, so verdicts,
    /// error sets and `visits`/`space` statistics are byte-identical with
    /// summaries on or off — only the summary counters and wall-clock time
    /// change. On by default.
    pub fn with_summaries(mut self, on: bool) -> Verifier<'a> {
        self.config.summaries = on;
        self
    }

    /// Attaches a cross-job shared summary session (see [`crate::summary`]):
    /// in-run summary-memo misses probe the session's store snapshot by
    /// region content, and computed region summaries are recorded into the
    /// session's delta for future jobs. Observation-equivalent, like
    /// [`Verifier::shared_cache`] one level up. Requires summaries (on by
    /// default) to have any effect.
    pub fn shared_summaries(mut self, session: &'a SharedSummarySession<'a>) -> Verifier<'a> {
        self.sessions.summaries = Some(session);
        self
    }

    /// Runs the verification.
    ///
    /// # Errors
    ///
    /// Propagates translation failures; property violations are *results*
    /// (see [`VerificationReport::errors`]), not errors.
    pub fn run(self) -> Result<VerificationReport, VerifyError> {
        self.run_prepared(&mut Prepared::default())
    }

    /// Runs the verification over `prepared`, which holds (or receives) the
    /// translations and pruning of this verifier's program, spec, mode and
    /// configuration.
    pub(crate) fn run_prepared(
        self,
        prepared: &mut Prepared,
    ) -> Result<VerificationReport, VerifyError> {
        let Verifier {
            program,
            spec,
            mode,
            config,
            sessions,
        } = self;
        let start = Instant::now();
        let mut report = verify_inner(program, spec, &mode, &config, sessions, prepared)?;
        report.elapsed_wall = start.elapsed();
        Ok(report)
    }
}

/// Verifies `program` against `spec` under `mode`.
///
/// A thin wrapper over [`Verifier`] kept for backward compatibility; new
/// code should prefer the builder, which also attaches cross-run stores:
///
/// ```ignore
/// Verifier::new(&program, &spec).mode(mode).config(cfg).run()
/// ```
///
/// # Errors
///
/// Propagates translation failures; property violations are *results*
/// (see [`VerificationReport::errors`]), not errors.
pub fn verify(
    program: &Program,
    spec: &Spec,
    mode: &Mode,
    config: &EngineConfig,
) -> Result<VerificationReport, VerifyError> {
    Verifier::new(program, spec)
        .mode(mode.clone())
        .config(config.clone())
        .run()
}

/// Renders per-subproblem rows (a report's [`VerificationReport::subproblems`]
/// or a Table 3 row's) as the NDJSON trace and flushes `out`.
///
/// Each subproblem yields, in slice order: its start, one line per phase
/// applied and per non-zero counter, one per CFG location holding
/// structures, a budget-exhausted and/or cancelled line when those counters
/// are set, and its finish. Every line is an [`Event`] rendered by
/// [`event_to_json`]. Subproblem indices count from 0 in each call. The rows
/// are merged in site order whatever the thread counts, so with phase
/// timings off the bytes are schedule-independent.
///
/// # Errors
///
/// Propagates the first write or flush error of `out`.
pub fn write_trace(subproblems: &[SubproblemStats], out: &mut impl Write) -> io::Result<()> {
    let mut line = |event: Event| writeln!(out, "{}", event_to_json(&event));
    for (index, sub) in subproblems.iter().enumerate() {
        let m = &sub.stats.metrics;
        line(Event::SubproblemStart {
            index,
            site: sub.site,
        })?;
        for phase in Phase::ALL {
            let s = m.phases.get(phase);
            if s.count > 0 || s.nanos > 0 {
                line(Event::PhaseSample {
                    index,
                    phase,
                    count: s.count,
                    nanos: s.nanos,
                })?;
            }
        }
        for counter in Counter::ALL {
            let value = m.counters.get(counter);
            if value > 0 {
                line(Event::CounterSample {
                    index,
                    counter,
                    value,
                })?;
            }
        }
        for (location, &structures) in m.per_location.iter().enumerate() {
            if structures > 0 {
                line(Event::LocationStructures {
                    index,
                    location,
                    structures: structures as usize,
                })?;
            }
        }
        if m.counters.get(Counter::BudgetExhausted) > 0 {
            line(Event::BudgetExhausted {
                index,
                visits: sub.stats.visits,
            })?;
        }
        if m.counters.get(Counter::Cancelled) > 0 {
            line(Event::Cancelled {
                index,
                visits: sub.stats.visits,
            })?;
        }
        line(Event::SubproblemFinish {
            index,
            site: sub.site,
            visits: sub.stats.visits,
            structures: sub.stats.structures,
            errors: sub.errors,
            complete: sub.outcome != AnalysisOutcome::BudgetExceeded,
        })?;
    }
    out.flush()
}

/// The one engine entry point behind every public verification surface. Its
/// only caller is [`Verifier::run_prepared`]; the [`verify`] wrapper and the
/// owned [`crate::workspace::Workspace`] API both run a [`Verifier`], which
/// is what makes the one-shot and daemon paths byte-identical by
/// construction. Translation and pruning come from `prepared` (built there
/// on first use); only the engine runs happen here every time.
fn verify_inner(
    program: &Program,
    spec: &Spec,
    mode: &Mode,
    config: &EngineConfig,
    sessions: Sessions<'_>,
    prepared: &mut Prepared,
) -> Result<VerificationReport, VerifyError> {
    match mode {
        Mode::Vanilla => {
            let inst = prepared.base(program, spec, &TranslateOptions::default())?;
            let mut report = VerificationReport::empty();
            report.stages_run = 1;
            report.absorb(None, inst.run(config, None, sessions));
            Ok(report.finish())
        }
        Mode::Separation {
            strategy,
            simultaneous,
            heterogeneous,
        } => {
            let stage = strategy
                .stages
                .first()
                .ok_or_else(|| VerifyError::Strategy("strategy has no stages".into()))?;
            let base = TranslateOptions {
                stage: Some(stage.clone()),
                heterogeneous: *heterogeneous,
                ..TranslateOptions::default()
            };
            let mut report = VerificationReport::empty();
            report.stages_run = 1;
            // The simultaneous instance, or the probe of a non-simultaneous
            // family: one run per allocation site of the first `choose
            // some` class.
            let probe = prepared.base(program, spec, &base)?;
            let first_some = stage
                .choices
                .iter()
                .position(|c| c.mode == ChoiceMode::Some);
            let choice_ix = match first_some {
                Some(ix) if !*simultaneous => ix,
                _ => {
                    report.absorb(None, probe.run(config, None, sessions));
                    return Ok(report.finish());
                }
            };
            let class = &stage.choices[choice_ix].class;
            if probe.instance.sites_of(class).is_empty() {
                // Nothing of the chosen class is ever allocated: a single
                // (cheap) run covers the empty family.
                report.absorb(None, probe.run(config, None, sessions));
            }
            let family = prepared.family(program, spec, class, choice_ix, config.preanalysis);
            let mut results = run_sites(program, spec, &base, family, config, sessions)?
                .into_iter()
                .peekable();
            let pre = family.pre.as_ref();
            // Merge in original site order so reports are identical to an
            // unpruned run (pruned entries interleave).
            for &site in &family.sites {
                if let Some(pre) = pre.filter(|p| p.safe.contains(&site)) {
                    report.absorb_pruned(site, pre);
                } else if results.peek().is_some_and(|&(s, _)| s == site) {
                    let (_, mut result) = results.next().expect("peeked");
                    if let Some(pre) = pre {
                        pre.stamp_row(site, &mut result.stats.metrics);
                    }
                    report.absorb(Some(site), result);
                }
                // else: past the cancellation watermark — an earlier site
                // exhausted its budget, so the report is already
                // incomplete.
            }
            report.preanalysis = pre.map(Preanalysis::summary);
            Ok(report.finish())
        }
        Mode::Incremental {
            strategy,
            heterogeneous,
        } => {
            let mut report = VerificationReport::empty();
            let mut failing: HashSet<SiteId> = HashSet::new();
            let mut last_errors: Vec<ErrorReport> = Vec::new();
            let mut last_stage_complete = false;
            for (ix, stage) in strategy.stages.iter().enumerate() {
                let options = TranslateOptions {
                    stage: Some(stage.clone()),
                    heterogeneous: *heterogeneous,
                    failing_sites: failing,
                    ..TranslateOptions::default()
                };
                let result = prepared
                    .stage(program, spec, ix, &options)?
                    .run(config, None, sessions);
                report.stages_run = ix + 1;
                let stage_errors = result.errors.clone();
                last_stage_complete = result.outcome == AnalysisOutcome::Complete;
                failing = result.failing_sites.clone();
                report.absorb(None, result);
                last_errors = stage_errors;
                if last_errors.is_empty() && last_stage_complete {
                    break;
                }
            }
            // The deciding stage's verdict stands: earlier stages' failures
            // may have been refuted with more context, and an earlier
            // incomplete stage does not taint a later complete one.
            report.errors = last_errors;
            report.complete = last_stage_complete;
            Ok(report.finish())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsep_strategy::builtin::{parse_builtin, IOSTREAM_SINGLE, JDBC_INCREMENTAL, JDBC_MULTI, JDBC_SINGLE};

    const JDBC_BUGGY: &str = r#"
program P uses JDBC;
void main() {
    ConnectionManager cm = new ConnectionManager();
    Connection con = cm.getConnection();
    Statement st = cm.createStatement(con);
    ResultSet rs1 = st.executeQuery("a");
    ResultSet rs2 = st.executeQuery("b");
    while (rs1.next()) {
    }
}
"#;

    const JDBC_OK: &str = r#"
program P uses JDBC;
void main() {
    ConnectionManager cm = new ConnectionManager();
    Connection con = cm.getConnection();
    Statement st = cm.createStatement(con);
    ResultSet rs1 = st.executeQuery("a");
    while (rs1.next()) {
    }
    ResultSet rs2 = st.executeQuery("b");
    while (rs2.next()) {
    }
    con.close();
}
"#;

    fn program(src: &str) -> Program {
        hetsep_ir::parse_program(src).unwrap()
    }

    #[test]
    fn vanilla_finds_the_bug() {
        let r = verify(
            &program(JDBC_BUGGY),
            &hetsep_easl::builtin::jdbc(),
            &Mode::Vanilla,
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(r.errors.len(), 1);
        assert!(!r.verified());
    }

    #[test]
    fn single_choice_sim_finds_the_bug() {
        let strategy = parse_builtin(JDBC_SINGLE);
        let r = verify(
            &program(JDBC_BUGGY),
            &hetsep_easl::builtin::jdbc(),
            &Mode::simultaneous(strategy),
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(r.errors.len(), 1, "{:?}", r.errors);
    }

    #[test]
    fn single_choice_nonsim_finds_the_bug() {
        let strategy = parse_builtin(JDBC_SINGLE);
        let r = verify(
            &program(JDBC_BUGGY),
            &hetsep_easl::builtin::jdbc(),
            &Mode::separation(strategy),
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(r.errors.len(), 1, "{:?}", r.errors);
        // One subproblem per Connection allocation site.
        assert_eq!(r.subproblems.len(), 1);
    }

    #[test]
    fn multi_choice_finds_the_bug() {
        let strategy = parse_builtin(JDBC_MULTI);
        let r = verify(
            &program(JDBC_BUGGY),
            &hetsep_easl::builtin::jdbc(),
            &Mode::simultaneous(strategy),
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(r.errors.len(), 1, "{:?}", r.errors);
    }

    #[test]
    fn correct_program_verifies_in_all_modes() {
        let spec = hetsep_easl::builtin::jdbc();
        let p = program(JDBC_OK);
        for mode in [
            Mode::Vanilla,
            Mode::simultaneous(parse_builtin(JDBC_SINGLE)),
            Mode::separation(parse_builtin(JDBC_SINGLE)),
            Mode::simultaneous(parse_builtin(JDBC_MULTI)),
            Mode::incremental(parse_builtin(JDBC_INCREMENTAL)),
        ] {
            let r = verify(&p, &spec, &mode, &EngineConfig::default()).unwrap();
            assert!(r.verified(), "mode {mode} reported {:?}", r.errors);
        }
    }

    #[test]
    fn incremental_finds_real_bug_in_later_stage() {
        let strategy = parse_builtin(JDBC_INCREMENTAL);
        let r = verify(
            &program(JDBC_BUGGY),
            &hetsep_easl::builtin::jdbc(),
            &Mode::incremental(strategy),
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(r.errors.len(), 1, "{:?}", r.errors);
        assert!(r.stages_run >= 1);
    }

    #[test]
    fn one_naming_scheme_from_mode_to_table3() {
        assert_eq!(Mode::Vanilla.kind(), ModeKind::Vanilla);
        assert_eq!(Mode::Vanilla.to_string(), "vanilla");
        assert_eq!(
            Mode::separation(parse_builtin(JDBC_SINGLE)).to_string(),
            "single"
        );
        assert_eq!(
            Mode::separation(parse_builtin(JDBC_MULTI)).to_string(),
            "multi"
        );
        assert_eq!(
            Mode::simultaneous(parse_builtin(JDBC_SINGLE)).to_string(),
            "sim"
        );
        assert_eq!(
            Mode::incremental(parse_builtin(JDBC_INCREMENTAL)).to_string(),
            "inc"
        );
    }

    #[test]
    fn mode_kind_round_trips_through_strings() {
        for kind in ModeKind::ALL {
            assert_eq!(kind.as_str().parse::<ModeKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert_eq!("sep".parse::<ModeKind>().unwrap(), ModeKind::Single);
        assert!("bogus".parse::<ModeKind>().is_err());
    }

    #[test]
    fn from_kind_requires_a_strategy_for_separation() {
        assert!(matches!(
            Mode::from_kind(ModeKind::Vanilla, None),
            Ok(Mode::Vanilla)
        ));
        assert!(Mode::from_kind(ModeKind::Sim, None).is_err());
        // A `multi` request with a single-choice strategy reports as
        // `single`: the strategy decides, not the request label.
        let m = Mode::from_kind(ModeKind::Multi, Some(parse_builtin(JDBC_SINGLE))).unwrap();
        assert_eq!(m.kind(), ModeKind::Single);
    }

    #[test]
    fn sink_receives_per_subproblem_events_in_site_order() {
        /// The unsigned integer after `"key":` in one flat trace line.
        fn field(line: &str, key: &str) -> Option<u64> {
            let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        }

        let src = "program P uses IOStreams; void main() {\n\
                   InputStream a = new InputStream();\n\
                   InputStream b = new InputStream();\n\
                   a.close();\n\
                   a.read();\n\
                   b.close();\n}";
        let program = program(src);
        let spec = hetsep_easl::builtin::iostreams();
        let mode = Mode::separation(parse_builtin(IOSTREAM_SINGLE));
        let report = Verifier::new(&program, &spec).mode(mode).run().unwrap();
        assert_eq!(report.subproblems.len(), 2);
        let mut bytes = Vec::new();
        write_trace(&report.subproblems, &mut bytes).unwrap();
        let trace = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = trace.lines().collect();

        // Starts and finishes pair up per subproblem, sites in merge order.
        let kind = |line: &str, event: &str| line.starts_with(&format!("{{\"event\":\"{event}\""));
        let starts: Vec<&str> = lines
            .iter()
            .copied()
            .filter(|l| kind(l, "subproblem_start"))
            .collect();
        let expected: Vec<String> = report
            .subproblems
            .iter()
            .enumerate()
            .map(|(ix, s)| {
                format!(
                    "{{\"event\":\"subproblem_start\",\"subproblem\":{ix},\"site\":{}}}",
                    s.site.expect("separation rows carry a site")
                )
            })
            .collect();
        assert_eq!(starts, expected);
        assert!(kind(lines[0], "subproblem_start"));
        assert!(kind(lines[lines.len() - 1], "subproblem_finish"));
        for event in ["phase", "counter", "location_structures"] {
            assert!(lines.iter().any(|l| kind(l, event)), "no {event} line");
        }

        // The trace's per-subproblem lines add back up to the report's
        // merged totals.
        let mut totals = RunMetrics::default();
        for line in &lines {
            if kind(line, "phase") {
                let phase = Phase::ALL
                    .into_iter()
                    .find(|p| line.contains(&format!("\"phase\":\"{}\"", p.label())))
                    .unwrap();
                let count = field(line, "count").unwrap();
                totals
                    .phases
                    .add(phase, count, field(line, "nanos").unwrap());
            } else if kind(line, "counter") {
                let counter = Counter::ALL
                    .into_iter()
                    .find(|c| line.contains(&format!("\"counter\":\"{}\"", c.label())))
                    .unwrap();
                let mut one = crate::Counters::default();
                one.add(counter, field(line, "value").unwrap());
                totals.counters.merge(&one);
            }
        }
        assert_eq!(totals.phases, report.metrics.phases);
        assert_eq!(totals.counters, report.metrics.counters);
        let visits: u64 = lines
            .iter()
            .filter(|l| kind(l, "subproblem_finish"))
            .map(|l| field(l, "visits").unwrap())
            .sum();
        assert_eq!(visits, report.total_visits);
    }

    #[test]
    fn report_metrics_aggregate_subproblem_metrics() {
        let strategy = parse_builtin(JDBC_SINGLE);
        let r = verify(
            &program(JDBC_OK),
            &hetsep_easl::builtin::jdbc(),
            &Mode::separation(strategy),
            &EngineConfig::default(),
        )
        .unwrap();
        let summed: u64 = r
            .subproblems
            .iter()
            .map(|s| s.stats.metrics.phases.get(Phase::Focus).count)
            .sum();
        assert_eq!(r.metrics.phases.get(Phase::Focus).count, summed);
        assert!(r.metrics.counters.get(Counter::InternMisses) > 0);
        assert!(
            r.metrics.per_location.is_empty(),
            "location counts are per-run, not aggregated"
        );
    }

    #[test]
    fn iostream_separation_verifies_two_streams() {
        let src = "program P uses IOStreams; void main() {\n\
                   InputStream a = new InputStream();\n\
                   InputStream b = new InputStream();\n\
                   a.read();\n\
                   b.read();\n\
                   a.close();\n\
                   b.read();\n\
                   b.close();\n}";
        let strategy = parse_builtin(IOSTREAM_SINGLE);
        let r = verify(
            &program(src),
            &hetsep_easl::builtin::iostreams(),
            &Mode::separation(strategy),
            &EngineConfig::default(),
        )
        .unwrap();
        assert!(r.verified(), "{:?}", r.errors);
        assert_eq!(r.subproblems.len(), 2, "one per stream allocation site");
    }

    #[test]
    fn separation_still_catches_stream_error() {
        let src = "program P uses IOStreams; void main() {\n\
                   InputStream a = new InputStream();\n\
                   InputStream b = new InputStream();\n\
                   a.close();\n\
                   a.read();\n\
                   b.close();\n}";
        let strategy = parse_builtin(IOSTREAM_SINGLE);
        let r = verify(
            &program(src),
            &hetsep_easl::builtin::iostreams(),
            &Mode::separation(strategy),
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].line, 5);
    }
}
