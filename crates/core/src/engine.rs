//! The abstract-interpretation engine.
//!
//! A chaotic-iteration worklist over the CFG: each program location holds a
//! set of canonically-abstracted 3-valued structures; applying an edge's
//! action (focus → coerce → assume → checks → update) to a structure yields
//! post-structures that are blurred and added to the successor location's
//! set — the location domain is the plain powerset of canonical structures.
//! `requires` violations are collected as error reports; for incremental
//! strategies, the allocation sites of the chosen objects in violating
//! states are recorded as *failing sites*.
//!
//! Structures are hash-consed through a per-run [`StructureInterner`]:
//! location sets and the worklist store compact [`StructureId`]s
//! instead of cloned [`Structure`]s, and map probes hash a 4-byte id rather
//! than a full predicate interpretation. The worklist is prioritized by
//! reverse postorder of the CFG so loop bodies stabilize before their exits
//! are re-examined, which cuts revisits on nested-loop benchmarks.
//!
//! Structures use the bit-packed two-plane layout of [`hetsep_tvl`]: the hot
//! per-visit kernels (blur's bulk node materialization via
//! `Structure::add_nodes`, equality/fingerprint probes in the interner, and
//! the failing-site scan below) all run on whole `u64` words, 64 truth
//! values at a time.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use hetsep_ir::cfg::Cfg;
use hetsep_tvl::action::apply_planned;
use hetsep_tvl::canon::{blur_by, blur_post, Names};
use hetsep_tvl::coerce::CoercePlan;
use hetsep_tvl::focus::DEFAULT_FOCUS_LIMIT;
use hetsep_tvl::intern::{StructureId, StructureInterner};
use hetsep_tvl::kleene::Kleene;
use hetsep_tvl::pred::PredTable;
use hetsep_tvl::structure::Structure;
use hetsep_tvl::telemetry::{Counter, Phase, RunMetrics};

use crate::jobcache::{
    action_content, context_content, RunScope, SharedTransferSession, TransferMemo,
};
use crate::report::{dedup_reports, ErrorReport};
use crate::translate::AnalysisInstance;
use crate::vocab::SiteId;

/// How often (in action applications) a run polls its cancellation flag.
const CANCEL_CHECK_INTERVAL: u64 = 64;

/// Parallel-scheduling knobs: how many independent subproblems the
/// mode-level drivers (see [`crate::modes::verify`]) run concurrently. One
/// engine run is always serial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelConfig {
    /// Worker threads for per-site subproblem scheduling. `0` means auto:
    /// the `HETSEP_THREADS` environment variable if set to a positive
    /// integer, else the machine's available parallelism, else 1.
    pub threads: usize,
    /// Ignored: nothing reads it. Kept only so that the `perfbench/`
    /// harness, which builds `ParallelConfig { threads, intra_threads: 1 }`,
    /// keeps compiling.
    #[doc(hidden)]
    pub intra_threads: usize,
}

impl ParallelConfig {
    /// Resolves the configured thread count to a concrete positive number.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        std::env::var("HETSEP_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
            .unwrap_or(1)
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Focus expansion budget per action application.
    pub focus_limit: usize,
    /// Abort with [`AnalysisOutcome::BudgetExceeded`] after this many action
    /// applications (the paper's `-` rows: vanilla runs that do not finish).
    pub max_visits: u64,
    /// Abort when this many structures are stored across all locations.
    pub max_structures: usize,
    /// Subproblem scheduling (used by mode drivers, not by `run` itself).
    pub parallel: ParallelConfig,
    /// Sample wall-clock durations per engine phase (focus, coerce, update,
    /// canonical abstraction, location-set insertion) into
    /// [`RunStats::metrics`]. Off by default: phase *counts* and counters
    /// are always collected (integer increments), but duration sampling
    /// reads the clock twice per phase application. Observation-only either
    /// way — exploration order and results never depend on this flag.
    pub phase_timings: bool,
    /// Run the flow-sensitive points-to × typestate preanalysis before
    /// fanning out non-simultaneous separation subproblems, and skip the
    /// allocation sites it proves safe (recorded as
    /// [`AnalysisOutcome::Pruned`], with the `subproblems_pruned` counter;
    /// the aggregate lands in [`crate::VerificationReport::preanalysis`]).
    /// Sound: pruning never changes the verdict or the reported errors,
    /// only which subproblems run. Off by default.
    pub preanalysis: bool,
    /// Probe and record the cross-run transfer store when the run is given
    /// a session (see [`run_shared`] and [`crate::jobcache`]). A store hit
    /// replays the exact canonical posts, violations and peak universe of
    /// the focus → coerce → update → canon pipeline, so verdicts, error sets
    /// and `visits`/`structures` statistics are byte-identical with the
    /// store on or off; only wall-clock time and the work counters change.
    /// A run without a session computes every transfer and keeps no map of
    /// its own. On by default; `hetsep serve --no-transfer-cache` clears it.
    pub transfer_cache: bool,
    /// Ignored: nothing reads it. Kept only so that the `perfbench/`
    /// harness, which sets it, keeps compiling.
    #[doc(hidden)]
    pub summaries: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            focus_limit: DEFAULT_FOCUS_LIMIT,
            max_visits: 2_000_000,
            max_structures: 400_000,
            parallel: ParallelConfig::default(),
            phase_timings: false,
            preanalysis: false,
            transfer_cache: true,
            summaries: false,
        }
    }
}

/// Whether a run explored the full state space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisOutcome {
    /// Fixpoint reached.
    Complete,
    /// The visit or structure budget was exhausted; results are partial
    /// (sound for errors found, inconclusive for verification).
    BudgetExceeded,
    /// The subproblem never ran: the static pre-analysis proved its site's
    /// checks safe under the flow-sensitive preanalysis (see
    /// [`EngineConfig::preanalysis`]). Equivalent to `Complete` with zero
    /// errors for verdict purposes.
    Pruned,
}

/// Statistics of one engine run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Action applications performed.
    pub visits: u64,
    /// Structures stored across all locations when the run ended. Location
    /// sets only grow, so this is also the peak.
    pub structures: usize,
    /// Distinct structures materialized by the run's interner — a proxy for
    /// arena memory.
    pub distinct_structures: usize,
    /// Largest universe size among visited structures.
    pub peak_nodes: usize,
    /// Wall-clock duration, including the teardown of the run's interner
    /// and location sets.
    pub wall: Duration,
    /// CFG locations.
    pub locations: usize,
    /// Per-phase timings/counts, scalar counters, and per-location structure
    /// counts collected by this run (see [`hetsep_tvl::telemetry`]).
    pub metrics: RunMetrics,
}

/// The result of one engine run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Deduplicated (per line) violation reports.
    pub errors: Vec<ErrorReport>,
    /// Allocation sites of chosen objects in violating states.
    pub failing_sites: HashSet<SiteId>,
    /// Run statistics.
    pub stats: RunStats,
    /// Completion status.
    pub outcome: AnalysisOutcome,
}

impl RunResult {
    /// Whether the run proves the program correct: complete and error-free.
    pub fn verified(&self) -> bool {
        self.errors.is_empty() && self.outcome == AnalysisOutcome::Complete
    }
}

/// The transfer pipeline of one action application: focus → coerce → update
/// (inside [`apply_planned`]) plus canonical abstraction of every
/// post-structure. Pure in `(action, s)` given the fixed table/plan/limit,
/// which is what makes the shared store's replays exact. Returns blurred
/// posts in emission order, each with its settled bit, and the store's
/// payload: `(label, definite?)` violation pairs and the largest unblurred
/// post universe.
///
/// `settled` is the interner's bit for `s`; it only lets steps that would
/// return their input be skipped ([`blur_post`], DESIGN §12.5).
fn compute_transfer(
    action: &hetsep_tvl::action::Action,
    s: &Structure,
    settled: bool,
    table: &PredTable,
    plan: &TransferPlan,
    focus_limit: usize,
    metrics: &mut RunMetrics,
) -> (Vec<(Structure, bool)>, TransferMemo) {
    let out = apply_planned(action, s, settled, table, &plan.coerce, focus_limit, metrics);
    let violations = out
        .violations
        .iter()
        .map(|v| (v.label.clone(), v.value == Kleene::False))
        .collect();
    let mut peak_post_nodes = 0usize;
    let mut posts = Vec::with_capacity(out.results.len());
    for post in out.results {
        peak_post_nodes = peak_post_nodes.max(post.node_count());
        posts.push(metrics.time(Phase::Canon, || {
            blur_post(s, settled, post, table, &plan.names)
        }));
    }
    let peak_post_nodes = u32::try_from(peak_post_nodes).unwrap_or(u32::MAX);
    (posts, TransferMemo { violations, peak_post_nodes })
}

/// The parts of the transfer pipeline that depend only on the vocabulary,
/// compiled once per run instead of inside every action application.
struct TransferPlan {
    /// The coerce constraint set.
    coerce: CoercePlan,
    /// The canonical-name columns of canonical abstraction, with the slots
    /// they read for the settled check.
    names: Names,
}

/// Reverse-postorder rank of every CFG node (entry = 0). Nodes unreachable
/// from the entry get the largest rank; ties in the worklist are broken by
/// insertion order, so their relative processing order is still
/// deterministic.
fn rpo_ranks(cfg: &Cfg) -> Vec<u32> {
    let n = cfg.node_count();
    let mut visited = vec![false; n];
    let mut post_ix = vec![0usize; n];
    let mut counter = 0usize;
    let mut stack: Vec<(usize, usize)> = vec![(cfg.entry(), 0)];
    visited[cfg.entry()] = true;
    while let Some((node, child)) = stack.pop() {
        let succs = cfg.out_edges(node);
        if child < succs.len() {
            stack.push((node, child + 1));
            let next = cfg.edges()[succs[child]].to;
            if !visited[next] {
                visited[next] = true;
                stack.push((next, 0));
            }
        } else {
            post_ix[node] = counter;
            counter += 1;
        }
    }
    let mut ranks = vec![n as u32; n];
    for v in 0..n {
        if visited[v] {
            ranks[v] = (counter - 1 - post_ix[v]) as u32;
        }
    }
    ranks
}

/// Runs the worklist analysis on a translated instance.
pub fn run(instance: &AnalysisInstance, config: &EngineConfig) -> RunResult {
    run_shared(instance, config, None, None)
}

/// The worklist state of one run.
struct Frontier {
    /// Location sets, indexed by node. Members are interned ids, so set
    /// membership is exact structure equality (the interner resolves
    /// fingerprint collisions with full comparisons) while hashing only 4
    /// bytes.
    states: Vec<HashSet<StructureId>>,
    /// Min-heap on (rpo rank, insertion sequence, node, structure): lower-
    /// ranked locations first, FIFO among equal ranks — a deterministic
    /// priority worklist.
    worklist: BinaryHeap<Reverse<(u32, u64, usize, StructureId)>>,
    /// Next insertion sequence number.
    seq: u64,
}

impl Frontier {
    /// Queues `id` at `node` with the next sequence number, counting the push
    /// and the worklist depth.
    fn push(&mut self, rank: u32, node: usize, id: StructureId, metrics: &mut RunMetrics) {
        self.worklist.push(Reverse((rank, self.seq, node, id)));
        self.seq += 1;
        metrics.counters.add(Counter::WorklistPushes, 1);
        metrics
            .counters
            .raise(Counter::WorklistPeakDepth, self.worklist.len() as u64);
    }
}

/// The immutable context of one engine run.
struct EngineCtx<'a> {
    instance: &'a AnalysisInstance,
    config: &'a EngineConfig,
    cancel: Option<&'a AtomicBool>,
    /// What the run derives from its instance alone.
    prep: &'a InstancePlan,
}

/// The mutable state of one engine run.
struct EngineSt<'s> {
    metrics: RunMetrics,
    interner: StructureInterner,
    /// This run's scope of the cross-run transfer store, if it has one.
    scope: Option<RunScope<'s>>,
    visits: u64,
    /// Structures stored across all location sets. Sets only grow, so this
    /// is also the run's peak.
    stored: usize,
    peak_nodes: u32,
    /// `(line, label)` → definite?
    errors: HashMap<(u32, String), bool>,
    failing_sites: HashSet<SiteId>,
    outcome: AnalysisOutcome,
}

impl EngineSt<'_> {
    /// Whether the cross-run cancellation flag is raised; records the stop
    /// if it is.
    fn cancelled(&mut self, cancel: Option<&AtomicBool>) -> bool {
        if cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
            self.outcome = AnalysisOutcome::BudgetExceeded;
            self.metrics.counters.add(Counter::Cancelled, 1);
            return true;
        }
        false
    }

    fn note_violation(&mut self, line: u32, label: &str, definite: bool) {
        self.errors
            .entry((line, label.to_string()))
            .and_modify(|d| *d |= definite)
            .or_insert(definite);
    }
}

/// Records in `failing_sites` the allocation sites of the chosen objects of
/// a violating pre-state (paper §4.2: allocation-site based identification
/// of failed individuals).
///
/// A site fails iff some individual is possibly `chosen` *and* possibly
/// carries the site's predicate; with bit-packed structures that is one
/// word-parallel maybe-mask intersection per site
/// ([`Structure::maybe_overlap`]) instead of a node × site probe loop.
fn note_failing_structure(
    failing_sites: &mut HashSet<SiteId>,
    instance: &AnalysisInstance,
    s: &Structure,
) {
    let table = &instance.vocab.table;
    let Some(chosen) = instance.vocab.chosen else {
        return;
    };
    for (&site, &pred) in &instance.vocab.site_preds {
        if s.maybe_overlap(table, chosen, pred) {
            failing_sites.insert(site);
        }
    }
}

/// Runs the worklist analysis with an optional cross-run cancellation flag
/// and an optional cross-job shared transfer session.
///
/// Used by the parallel subproblem scheduler: every run polls `cancel`
/// periodically and aborts with [`AnalysisOutcome::BudgetExceeded`] when it
/// is raised, and a run that exhausts its own budget raises it.
///
/// A transfer is resolved by the session's store snapshot by *content* key,
/// else by a computation that is recorded into the session's delta for
/// future jobs; a run without a session computes every transfer. The
/// session is used only when `config.transfer_cache` is on; a shared hit
/// replays the stored posts/violations/peak exactly and counts
/// [`Counter::SharedCacheHits`] instead of a computed transfer
/// ([`Counter::TransferCacheMisses`]). Results are observation-equivalent
/// with and without a session; only cache counters and wall-clock differ.
pub fn run_shared(
    instance: &AnalysisInstance,
    config: &EngineConfig,
    cancel: Option<&AtomicBool>,
    shared: Option<&SharedTransferSession<'_>>,
) -> RunResult {
    run_planned(instance, &InstancePlan::new(instance), config, cancel, shared)
}

/// What an engine run derives from its instance alone, built once per
/// instance: the worklist ranks, the transfer plan, the content-deduped
/// action ids and the call-region entry nodes. A prepared verification
/// (see `modes::Prepared`) keeps it beside its instance, so a re-run of an
/// unchanged instance starts at the worklist.
pub(crate) struct InstancePlan {
    /// Reverse-postorder worklist rank per CFG node.
    rpo: Vec<u32>,
    transfer: TransferPlan,
    /// Content-deduped action id per `(edge, action index)`: structurally
    /// equal actions on different edges (skip edges, `assume(?)` branch
    /// pairs, repeated statements) share one id, hence one shared-store
    /// key.
    action_ids: Vec<Vec<u32>>,
    /// `(edge, action index)` of each distinct action's first occurrence.
    distinct_actions: Vec<(usize, usize)>,
    /// The distinct actions' content strings (shared transfer-store keys),
    /// rendered on first use: only runs with a transfer session read them.
    action_contents: OnceLock<Arc<[String]>>,
    /// Per CFG node, whether it is a call region's entry: a pop there counts
    /// one [`Counter::CallEvaluations`].
    region_entry: Vec<bool>,
    /// The shared store's context string ([`context_content`]) and the
    /// focus limit it was rendered for, on first use.
    context: OnceLock<(usize, Arc<str>)>,
}

impl InstancePlan {
    pub(crate) fn new(instance: &AnalysisInstance) -> InstancePlan {
        let table = &instance.vocab.table;
        let cfg = &instance.cfg;
        // A linear scan per action: action counts are CFG-sized (tens).
        let mut action_ids: Vec<Vec<u32>> = Vec::with_capacity(instance.actions.len());
        let mut distinct_actions: Vec<(usize, usize)> = Vec::new();
        for (edge, edge_actions) in instance.actions.iter().enumerate() {
            let ids = edge_actions
                .iter()
                .enumerate()
                .map(|(ix, a)| {
                    let same = |&(e, i): &(usize, usize)| instance.actions[e][i] == *a;
                    match distinct_actions.iter().position(same) {
                        Some(id) => id as u32,
                        None => {
                            distinct_actions.push((edge, ix));
                            (distinct_actions.len() - 1) as u32
                        }
                    }
                })
                .collect();
            action_ids.push(ids);
        }
        let mut region_entry = vec![false; cfg.node_count()];
        for region in cfg.regions() {
            region_entry[region.entry.index()] = true;
        }
        InstancePlan {
            rpo: rpo_ranks(cfg),
            transfer: TransferPlan {
                coerce: CoercePlan::new(table),
                names: Names::new(table),
            },
            action_ids,
            distinct_actions,
            action_contents: OnceLock::new(),
            region_entry,
            context: OnceLock::new(),
        }
    }

    fn action_contents(&self, instance: &AnalysisInstance) -> Arc<[String]> {
        let contents = self.action_contents.get_or_init(|| {
            self.distinct_actions
                .iter()
                .map(|&(e, i)| action_content(&instance.actions[e][i]))
                .collect()
        });
        Arc::clone(contents)
    }

    fn context(&self, table: &PredTable, focus_limit: usize) -> Arc<str> {
        let render = || Arc::from(context_content(table, focus_limit));
        match self.context.get_or_init(|| (focus_limit, render())) {
            (limit, context) if *limit == focus_limit => Arc::clone(context),
            _ => render(),
        }
    }
}

/// [`run_shared`] over an instance whose [`InstancePlan`] is already built.
pub(crate) fn run_planned(
    instance: &AnalysisInstance,
    prep: &InstancePlan,
    config: &EngineConfig,
    cancel: Option<&AtomicBool>,
    shared: Option<&SharedTransferSession<'_>>,
) -> RunResult {
    let start = Instant::now();
    let table = &instance.vocab.table;
    let cfg = &instance.cfg;
    let n_nodes = cfg.node_count();

    let mut metrics = RunMetrics::new(config.phase_timings);
    let mut interner = StructureInterner::new();

    let scope = shared.filter(|_| config.transfer_cache).map(|s| {
        let context = prep.context(table, config.focus_limit);
        s.run_scope(context, prep.action_contents(instance))
    });

    let ctx = EngineCtx {
        instance,
        config,
        cancel,
        prep,
    };

    // `blur` output is already canonical — nodes are emitted in ascending
    // canonical-name order and names are unique per node (verified by the
    // `canonical_key_is_identity_on_blurred` property test) — so blurred
    // structures are interned directly without a re-keying pass.
    let init = metrics.time(Phase::Canon, || {
        blur_by(&Structure::new(table), table, ctx.prep.transfer.names.columns()).0
    });
    let init_id = interner.intern(init);
    let mut fr = Frontier {
        states: vec![HashSet::new(); n_nodes],
        worklist: BinaryHeap::new(),
        seq: 0,
    };
    metrics.time(Phase::Merge, || fr.states[cfg.entry()].insert(init_id));
    fr.push(ctx.prep.rpo[cfg.entry()], cfg.entry(), init_id, &mut metrics);

    let mut st = EngineSt {
        metrics,
        interner,
        scope,
        visits: 0,
        stored: 1,
        peak_nodes: 0,
        errors: HashMap::new(),
        failing_sites: HashSet::new(),
        outcome: AnalysisOutcome::Complete,
    };

    drain(&ctx, &mut st, &mut fr);

    if let Some(scope) = st.scope.take() {
        scope.finish();
    }

    let EngineSt {
        mut metrics,
        interner,
        visits,
        stored,
        peak_nodes,
        errors,
        failing_sites,
        outcome,
        ..
    } = st;
    metrics.counters.add(Counter::InternHits, interner.hits());
    metrics.counters.add(Counter::InternMisses, interner.misses());
    metrics.per_location = fr
        .states
        .iter()
        .map(|m| u32::try_from(m.len()).unwrap_or(u32::MAX))
        .collect();
    let distinct_structures = interner.len();
    // The run's interner and location sets are torn down before the clock
    // stops, so `wall` covers the whole run.
    drop((interner, fr));
    let reports = errors
        .into_iter()
        .map(|((line, label), definite)| ErrorReport {
            line,
            label,
            definite,
        })
        .collect();

    RunResult {
        errors: dedup_reports(reports),
        failing_sites,
        stats: RunStats {
            visits,
            structures: stored,
            distinct_structures,
            peak_nodes: peak_nodes as usize,
            wall: start.elapsed(),
            locations: n_nodes,
            metrics,
        },
        outcome,
    }
}

/// Drains the frontier to fixpoint, or until a budget runs out or the run
/// is cancelled (the outcome and counter are then recorded on `st`). Each
/// pop takes the highest-priority worklist entry and applies every action
/// of the node's out-edges to its structure. Call regions are spliced into
/// the CFG, so their nodes are drained like any other: procedures are
/// inlined, as in the paper.
fn drain(ctx: &EngineCtx<'_>, st: &mut EngineSt<'_>, fr: &mut Frontier) {
    let instance = ctx.instance;
    let config = ctx.config;
    let cfg = &instance.cfg;
    let table = &instance.vocab.table;
    while let Some(Reverse((_, _, node, sid))) = fr.worklist.pop() {
        // Poll the cross-run flag at every pop: a single expensive
        // focus/coerce expansion must not delay a budget-triggered cancel.
        // Further polls run every `CANCEL_CHECK_INTERVAL` applications below.
        if st.cancelled(ctx.cancel) {
            return;
        }
        if ctx.prep.region_entry[node] {
            st.metrics.counters.add(Counter::CallEvaluations, 1);
        }
        let settled = st.interner.is_settled(sid);
        for &edge_ix in cfg.out_edges(node) {
            let edge = &cfg.edges()[edge_ix];
            for (action_ix, action) in instance.actions[edge_ix].iter().enumerate() {
                st.visits += 1;
                if st.visits > config.max_visits || st.stored > config.max_structures {
                    st.outcome = AnalysisOutcome::BudgetExceeded;
                    st.metrics.counters.add(Counter::BudgetExhausted, 1);
                    if let Some(flag) = ctx.cancel {
                        flag.store(true, Ordering::Relaxed);
                    }
                    return;
                }
                if st.visits.is_multiple_of(CANCEL_CHECK_INTERVAL) && st.cancelled(ctx.cancel) {
                    return;
                }
                // The transfer function is a pure function of the (interned)
                // pre-structure and the action, so its output — canonical
                // post ids, violations, peak universe size — replays exactly
                // from the shared store. `fresh` marks a computed transfer,
                // recorded into the store once it is applied.
                let key = ctx.prep.action_ids[edge_ix][action_ix];
                let hit = st
                    .scope
                    .as_mut()
                    .and_then(|scope| scope.probe(key, sid, &st.interner, table));
                let (posts, memo, fresh): (Vec<StructureId>, _, _) = match hit {
                    // A shared hit replaces the computation, so only
                    // `SharedCacheHits` advances and a warm corpus run
                    // reports strictly fewer computed transfers than a cold
                    // one.
                    Some((outputs, memo)) => {
                        st.metrics.counters.add(Counter::SharedCacheHits, 1);
                        let posts = outputs.into_iter().map(|s| st.interner.intern(s));
                        (posts.collect(), memo, false)
                    }
                    None => {
                        if st.scope.is_some() {
                            st.metrics.counters.add(Counter::SharedCacheMisses, 1);
                        }
                        st.metrics.counters.add(Counter::TransferCacheMisses, 1);
                        let (blurred, memo) = compute_transfer(
                            action,
                            st.interner.resolve(sid),
                            settled,
                            table,
                            &ctx.prep.transfer,
                            config.focus_limit,
                            &mut st.metrics,
                        );
                        let posts = blurred
                            .into_iter()
                            .map(|(p, settled)| {
                                let id = st.interner.intern(p);
                                if settled {
                                    st.interner.settle(id);
                                }
                                id
                            })
                            .collect();
                        (posts, memo, true)
                    }
                };
                if !memo.violations.is_empty() {
                    for (label, definite) in &memo.violations {
                        st.note_violation(edge.line, label, *definite);
                    }
                    note_failing_structure(
                        &mut st.failing_sites,
                        instance,
                        st.interner.resolve(sid),
                    );
                }
                st.peak_nodes = st.peak_nodes.max(memo.peak_post_nodes);
                for &post in &posts {
                    commit_post(ctx, st, fr, edge.to, post);
                }
                if let Some(scope) = st.scope.as_mut().filter(|_| fresh) {
                    scope.record(key, sid, &posts, memo, &st.interner);
                }
            }
        }
    }
}

/// Commits one post-structure at node `to`: adds it to the node's location
/// set and pushes it onto the worklist if it is new.
fn commit_post(
    ctx: &EngineCtx<'_>,
    st: &mut EngineSt<'_>,
    fr: &mut Frontier,
    to: usize,
    id: StructureId,
) {
    if st.metrics.time(Phase::Merge, || fr.states[to].insert(id)) {
        st.stored += 1;
        fr.push(ctx.prep.rpo[to], to, id, &mut st.metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::{translate, TranslateOptions};

    fn run_src(src: &str) -> RunResult {
        let program = hetsep_ir::parse_program(src).unwrap();
        let spec = hetsep_easl::builtin::by_name(&program.uses).unwrap();
        let inst = translate(&program, &spec, &TranslateOptions::default()).unwrap();
        run(&inst, &EngineConfig::default())
    }

    #[test]
    fn straightline_correct_program_verifies() {
        let r = run_src(
            "program P uses IOStreams; void main() {\n\
             InputStream f = new InputStream();\n\
             f.read();\n\
             f.close();\n}",
        );
        assert!(r.verified(), "{:?}", r.errors);
        assert!(r.stats.visits > 0);
    }

    #[test]
    fn read_after_close_detected() {
        let r = run_src(
            "program P uses IOStreams; void main() {\n\
             InputStream f = new InputStream();\n\
             f.close();\n\
             f.read();\n}",
        );
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].line, 4);
        assert!(r.errors[0].definite);
    }

    #[test]
    fn branch_sensitive_close() {
        // close() in one branch only: the read after the join is a possible
        // error.
        let r = run_src(
            "program P uses IOStreams; void main() {\n\
             InputStream f = new InputStream();\n\
             if (?) {\n\
             f.close();\n\
             }\n\
             f.read();\n}",
        );
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].line, 6);
    }

    #[test]
    fn loop_with_fresh_streams_verifies() {
        // The Fig. 3 pattern (with InputStream): our integrated analysis
        // verifies it even without separation, thanks to materialization.
        let r = run_src(
            "program P uses IOStreams; void main() {\n\
             while (?) {\n\
             InputStream f = new InputStream();\n\
             f.read();\n\
             f.close();\n\
             }\n}",
        );
        assert!(r.verified(), "{:?}", r.errors);
    }

    #[test]
    fn aliasing_through_assignment_tracked() {
        let r = run_src(
            "program P uses IOStreams; void main() {\n\
             InputStream a = new InputStream();\n\
             InputStream b = a;\n\
             b.close();\n\
             a.read();\n}",
        );
        assert_eq!(r.errors.len(), 1, "close through alias must be seen");
        assert_eq!(r.errors[0].line, 5);
    }

    #[test]
    fn heap_roundtrip_through_holder() {
        let r = run_src(
            "program P uses IOStreams;\n\
             class Holder { InputStream s; }\n\
             void main() {\n\
             Holder h = new Holder();\n\
             InputStream f = new InputStream();\n\
             h.s = f;\n\
             f = null;\n\
             InputStream g = h.s;\n\
             g.read();\n\
             g.close();\n}",
        );
        assert!(r.verified(), "{:?}", r.errors);
    }

    #[test]
    fn jdbc_implicit_close_error_found() {
        // The essence of Fig. 1: two executeQuery calls on one Statement,
        // then next() on the first ResultSet.
        let r = run_src(
            "program P uses JDBC; void main() {\n\
             ConnectionManager cm = new ConnectionManager();\n\
             Connection con = cm.getConnection();\n\
             Statement st = cm.createStatement(con);\n\
             ResultSet rs1 = st.executeQuery(\"a\");\n\
             ResultSet rs2 = st.executeQuery(\"b\");\n\
             while (rs1.next()) {\n\
             }\n}",
        );
        assert_eq!(r.errors.len(), 1, "{:?}", r.errors);
        assert_eq!(r.errors[0].line, 7);
    }

    #[test]
    fn jdbc_correct_usage_verifies() {
        let r = run_src(
            "program P uses JDBC; void main() {\n\
             ConnectionManager cm = new ConnectionManager();\n\
             Connection con = cm.getConnection();\n\
             Statement st = cm.createStatement(con);\n\
             ResultSet rs1 = st.executeQuery(\"a\");\n\
             while (rs1.next()) {\n\
             }\n\
             ResultSet rs2 = st.executeQuery(\"b\");\n\
             while (rs2.next()) {\n\
             }\n\
             con.close();\n}",
        );
        assert!(r.verified(), "{:?}", r.errors);
    }

    #[test]
    fn metrics_collection_is_observation_only() {
        let src = "program P uses IOStreams; void main() {\n\
                   InputStream f = new InputStream();\n\
                   if (?) {\n\
                   f.close();\n\
                   }\n\
                   f.read();\n}";
        let program = hetsep_ir::parse_program(src).unwrap();
        let spec = hetsep_easl::builtin::iostreams();
        let inst = translate(&program, &spec, &TranslateOptions::default()).unwrap();
        let plain = run(&inst, &EngineConfig::default());
        let timed = run(
            &inst,
            &EngineConfig {
                phase_timings: true,
                ..EngineConfig::default()
            },
        );
        // Identical results and identical *counts* either way; only the
        // sampled durations may differ.
        assert_eq!(plain.errors, timed.errors);
        assert_eq!(plain.stats.visits, timed.stats.visits);
        assert_eq!(plain.stats.structures, timed.stats.structures);
        assert_eq!(
            plain.stats.metrics.counters, timed.stats.metrics.counters,
            "counters must not depend on the timing flag"
        );
        for phase in hetsep_tvl::telemetry::Phase::ALL {
            assert_eq!(
                plain.stats.metrics.phases.get(phase).count,
                timed.stats.metrics.phases.get(phase).count,
                "phase {phase} count must not depend on the timing flag"
            );
            assert_eq!(plain.stats.metrics.phases.get(phase).nanos, 0);
        }

        let m = &plain.stats.metrics;
        use hetsep_tvl::telemetry::{Counter, Phase};
        // Without a shared store every application computes its transfer,
        // and focus runs exactly once per computation.
        assert_eq!(
            m.phases.get(Phase::Focus).count,
            m.counters.get(Counter::TransferCacheMisses)
        );
        assert_eq!(
            m.counters.get(Counter::TransferCacheMisses),
            plain.stats.visits,
            "every application computes its transfer"
        );
        assert!(m.phases.get(Phase::Canon).count > 0);
        assert!(m.counters.get(Counter::PostStructures) > 0);
        assert!(m.counters.get(Counter::WorklistPushes) > 0);
        assert!(m.counters.get(Counter::WorklistPeakDepth) > 0);
        assert_eq!(
            m.counters.get(Counter::InternMisses),
            plain.stats.distinct_structures as u64,
            "every interner miss materializes one distinct structure"
        );
        assert_eq!(m.per_location.len(), plain.stats.locations);
        assert_eq!(
            m.counters.get(Counter::BudgetExhausted) + m.counters.get(Counter::Cancelled),
            0
        );
    }

    #[test]
    fn preset_cancel_flag_stops_run_before_any_structure() {
        // The flag is polled at the top of every worklist visit: a flag that
        // is already raised when the run starts must stop it before a single
        // action is applied or a post-structure produced.
        let program = hetsep_ir::parse_program(
            "program P uses IOStreams; void main() {\n\
             InputStream f = new InputStream();\n\
             f.read();\n\
             f.close();\n}",
        )
        .unwrap();
        let spec = hetsep_easl::builtin::iostreams();
        let inst = translate(&program, &spec, &TranslateOptions::default()).unwrap();
        let flag = AtomicBool::new(true);
        let r = run_shared(&inst, &EngineConfig::default(), Some(&flag), None);
        assert_eq!(r.outcome, AnalysisOutcome::BudgetExceeded);
        assert_eq!(r.stats.visits, 0, "no action may be applied");
        use hetsep_tvl::telemetry::Counter;
        assert_eq!(
            r.stats
                .metrics
                .counters
                .get(Counter::PostStructures),
            0,
            "no structure may be produced"
        );
        assert_eq!(r.stats.metrics.counters.get(Counter::Cancelled), 1);
        assert!(r.errors.is_empty());
    }

    #[test]
    fn budget_exhaustion_reported() {
        let program = hetsep_ir::parse_program(
            "program P uses IOStreams; void main() {\n\
             while (?) {\n\
             InputStream f = new InputStream();\n\
             f.read();\n\
             f.close();\n\
             }\n}",
        )
        .unwrap();
        let spec = hetsep_easl::builtin::iostreams();
        let inst = translate(&program, &spec, &TranslateOptions::default()).unwrap();
        let r = run(
            &inst,
            &EngineConfig {
                max_visits: 3,
                ..EngineConfig::default()
            },
        );
        assert_eq!(r.outcome, AnalysisOutcome::BudgetExceeded);
        assert!(!r.verified());
        assert_eq!(
            r.stats
                .metrics
                .counters
                .get(hetsep_tvl::telemetry::Counter::BudgetExhausted),
            1
        );
    }
}
