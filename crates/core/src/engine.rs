//! The abstract-interpretation engine.
//!
//! A chaotic-iteration worklist over the CFG: each program location holds a
//! set of canonically-abstracted 3-valued structures; applying an edge's
//! action (focus → coerce → assume → checks → update) to a structure yields
//! post-structures that are blurred and joined into the successor location.
//! `requires` violations are collected as error reports; for incremental
//! strategies, the allocation sites of the chosen objects in violating
//! states are recorded as *failing sites*.
//!
//! Structures are hash-consed through a per-run [`StructureInterner`]:
//! location sets, merge maps and the worklist store compact [`StructureId`]s
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
use std::borrow::Borrow;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hetsep_ir::cfg::Cfg;
use hetsep_tvl::action::apply_planned;
use hetsep_tvl::canon::{blur, canonical_key};
use hetsep_tvl::coerce::CoercePlan;
use hetsep_tvl::focus::DEFAULT_FOCUS_LIMIT;
use hetsep_tvl::intern::{StructureId, StructureInterner};
use hetsep_tvl::kleene::Kleene;
use hetsep_tvl::pred::{Arity, PredTable};
use hetsep_tvl::structure::Structure;
use hetsep_tvl::telemetry::{Counter, Phase, RunMetrics};

use crate::jobcache::{action_content, Memo, RunScope, SharedTransferSession, TransferMemo};
use crate::parallel::map_ordered;
use crate::report::{dedup_reports, ErrorReport};
use crate::summary::{region_content, SharedSummarySession, SummaryMemo};
use crate::translate::AnalysisInstance;
use crate::vocab::SiteId;

/// How often (in action applications) a run polls its cancellation flag.
const CANCEL_CHECK_INTERVAL: u64 = 64;

/// How structures arriving at one program location are merged (paper §5,
/// "Structure Merging").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StructureMerge {
    /// Keep every isomorphism class (TVLA's default powerset).
    #[default]
    Powerset,
    /// Merge structures agreeing on all nullary predicates.
    NullaryJoin,
    /// Heterogeneous merging `≈_relevant`: merge structures whose relevant
    /// substructures are isomorphic (falls back to powerset in vanilla mode,
    /// where no relevance predicate exists).
    RelevantIso,
}

/// Parallel-scheduling knobs. `threads` controls how many independent
/// subproblems the mode-level drivers (see [`crate::modes::verify`]) run
/// concurrently; `intra_threads` controls the worker pool *inside* one
/// engine run, which fans the transfer pipeline out over same-priority
/// worklist batches (results are byte-identical whatever the count — see
/// [`run_shared`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelConfig {
    /// Worker threads for per-site subproblem scheduling. `0` means auto:
    /// the `HETSEP_THREADS` environment variable if set to a positive
    /// integer, else the machine's available parallelism, else 1.
    pub threads: usize,
    /// Worker threads for intra-subproblem transfer fan-out. `0` means
    /// auto: the `HETSEP_INTRA_THREADS` environment variable if set to a
    /// positive integer, else 1 (off — the engine stays single-threaded by
    /// default, since the mode drivers already saturate cores with
    /// subproblem-level parallelism).
    pub intra_threads: usize,
}

impl ParallelConfig {
    /// Resolves the configured thread count to a concrete positive number.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        if let Some(n) = env_threads("HETSEP_THREADS") {
            return n;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Resolves the intra-subproblem worker count. Unlike
    /// [`ParallelConfig::effective_threads`] the auto default is 1, not the
    /// machine width: intra-run fan-out only pays off when subproblem-level
    /// parallelism leaves cores idle, so it is strictly opt-in (explicit
    /// config or `HETSEP_INTRA_THREADS`).
    pub fn effective_intra_threads(&self) -> usize {
        if self.intra_threads > 0 {
            return self.intra_threads;
        }
        env_threads("HETSEP_INTRA_THREADS").unwrap_or(1)
    }
}

/// Parses a positive thread count from an environment variable.
fn env_threads(var: &str) -> Option<usize> {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
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
    /// Structure-merging policy at program locations.
    pub merge: StructureMerge,
    /// Subproblem scheduling (used by mode drivers, not by `run` itself).
    pub parallel: ParallelConfig,
    /// Sample wall-clock durations per engine phase (focus, coerce, update,
    /// canonical abstraction, merge) into [`RunStats::metrics`]. Off by
    /// default: phase *counts* and counters are always collected (integer
    /// increments), but duration sampling reads the clock twice per phase
    /// application. Observation-only either way — exploration order and
    /// results never depend on this flag.
    pub phase_timings: bool,
    /// Run the flow-sensitive points-to × typestate preanalysis before
    /// fanning out non-simultaneous separation subproblems, and skip the
    /// allocation sites it proves safe (recorded as
    /// [`AnalysisOutcome::Pruned`]). Sound: pruning never changes the
    /// verdict or the reported errors, only which subproblems run. Off by
    /// default; enable via [`crate::Verifier::with_preanalysis`].
    pub preanalysis: bool,
    /// Memoize the transfer function: per run, a map from `(action,
    /// input structure id)` to the interned canonical post-structure ids and
    /// check violations of the full focus → coerce → update → canon
    /// pipeline. Because structures are hash-consed (id equality ⇔ structure
    /// equality) and the pipeline is deterministic, cache hits are exact:
    /// verdicts, error sets and `visits`/`structures` statistics are
    /// byte-identical with the cache on or off — only wall-clock time and
    /// the per-phase work counters change. The cache is per-run (each
    /// separation subproblem owns its interner, so ids are not shared across
    /// threads). On by default; disable via
    /// [`crate::Verifier::with_transfer_cache`] or `--no-transfer-cache`.
    pub transfer_cache: bool,
    /// Entry budget for the transfer cache. The cache holds two generations
    /// of at most `capacity / 2` entries each; when the young generation
    /// fills, the old generation is discarded (counted in
    /// [`Counter::TransferCacheEvictions`]) and the young one ages into its
    /// place. Probes that hit the old generation promote the entry back into
    /// the young one, so the warm working set survives rotation. Eviction is
    /// sound (the cache is exact, so losing entries only costs time).
    pub transfer_cache_capacity: usize,
    /// Memoize per-procedure summaries: the engine always evaluates a
    /// spliced call region as a nested subproblem of its entry structure
    /// (see the region drain in [`run_shared`]); with this flag on, the
    /// result — exit structures, violations, failing sites, and exact
    /// visit/peak accounting — is memoized per `(region content, interned
    /// input structure)` and replayed on repeat evaluations, so a library
    /// procedure called from N sites (or re-entered each loop iteration with
    /// a stable abstraction) is drained once per calling context instead of
    /// once per arrival. The nested drain is a pure function of its key, so
    /// verdicts, errors, `visits`, and `structures` are byte-identical with
    /// summaries on or off — only the `summary_*`/`call_evaluations`
    /// counters and wall-clock differ. Applies under the powerset merge
    /// policy (every mode driver's policy); other policies drain flat. On by
    /// default; disable via `--no-summaries`.
    pub summaries: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            focus_limit: DEFAULT_FOCUS_LIMIT,
            max_visits: 2_000_000,
            max_structures: 400_000,
            merge: StructureMerge::Powerset,
            parallel: ParallelConfig::default(),
            phase_timings: false,
            preanalysis: false,
            transfer_cache: true,
            transfer_cache_capacity: 1 << 20,
            summaries: true,
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
    /// Peak number of structures stored across all locations at any point
    /// during the run. Tracked explicitly at every insertion: merging
    /// policies replace stored representatives rather than only adding, so
    /// "location sets only grow" does not hold in general and the final
    /// count is not a reliable peak.
    pub structures: usize,
    /// Distinct structures materialized by the run's interner (canonical
    /// forms plus merge-key substructures) — a proxy for arena memory.
    pub distinct_structures: usize,
    /// Largest universe size among visited structures.
    pub peak_nodes: usize,
    /// Wall-clock duration.
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

/// The key under which a structure is merged at a location.
///
/// Structure-valued variants hold interned ids, not structures: interning
/// guarantees id equality ⇔ structure equality (fingerprint collisions are
/// resolved inside the interner with full comparisons), so keying on the id
/// is exact while hashing only 4 bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum MergeKey {
    Whole(StructureId),
    Nullary(Vec<Kleene>),
    Relevant(StructureId),
}

/// Key of one memoized evaluation at either memo level: (content-deduped
/// action or call-region id, interned input structure id).
type MemoKey = (u32, StructureId);

/// One memoized evaluation, at either level: the interned canonical output
/// ids (transfer posts in pipeline emission order, or region exits in
/// first-arrival order) and the shared store's own payload for the level
/// ([`TransferMemo`] or [`SummaryMemo`]). In-run memos hold exactly what the
/// cross-run store persists, so a store hit, an in-run hit and a fresh
/// computation are applied by the same code.
type Memoized<M> = (Vec<StructureId>, M);

/// The in-run side of one memo level (see [`MemoLevel`]).
trait InRunMemo<M> {
    /// What a hit hands to the apply step.
    type Entry: Borrow<Memoized<M>>;
    /// Probes the memo for `key`.
    fn hit(&mut self, key: &MemoKey, metrics: &mut RunMetrics) -> Option<Self::Entry>;
    /// Stores a shared hit or a fresh computation under `key`.
    fn seed(&mut self, key: MemoKey, entry: Self::Entry, metrics: &mut RunMetrics);
}

/// The per-run transfer cache with generational eviction.
///
/// Entries live in a *young* and an *old* generation of at most `cap`
/// entries each (`cap` = half the configured capacity). Inserts go into the
/// young generation; when it fills, the old generation is discarded — its
/// entry count feeds [`Counter::TransferCacheEvictions`] — and young becomes
/// old. A probe that hits the old generation promotes the entry back into
/// the young one, so anything re-referenced within one generation's worth of
/// inserts is never evicted: the warm working set survives rotation instead
/// of being dumped wholesale.
struct TransferCache {
    /// Entry budget per generation.
    cap: usize,
    /// The young generation: receives inserts and promotions.
    young: HashMap<MemoKey, Memoized<TransferMemo>>,
    /// The old generation: read-only until discarded by the next rotation.
    old: HashMap<MemoKey, Memoized<TransferMemo>>,
}

impl TransferCache {
    /// Read-only membership probe (no promotion) — used by the speculative
    /// classification pass, which must not perturb eviction order.
    fn contains(&self, key: &MemoKey) -> bool {
        self.young.contains_key(key) || self.old.contains_key(key)
    }

    /// Evicts when the young generation is at capacity: discards the old
    /// generation (counted in [`Counter::TransferCacheEvictions`]) and ages
    /// the young one into its place.
    fn rotate_if_full(&mut self, metrics: &mut RunMetrics) {
        if self.young.len() < self.cap {
            return;
        }
        metrics
            .counters
            .add(Counter::TransferCacheEvictions, self.old.len() as u64);
        self.old = std::mem::take(&mut self.young);
    }
}

impl InRunMemo<TransferMemo> for TransferCache {
    type Entry = Memoized<TransferMemo>;

    /// An old-generation hit is promoted into the young generation (rotating
    /// first if it is full). Hits are cloned out: applying one needs the run
    /// state mutably.
    fn hit(&mut self, key: &MemoKey, metrics: &mut RunMetrics) -> Option<Self::Entry> {
        if let Some(entry) = self.young.get(key) {
            return Some(entry.clone());
        }
        let entry = self.old.remove(key)?;
        self.rotate_if_full(metrics);
        Some(self.young.entry(*key).or_insert(entry).clone())
    }

    fn seed(&mut self, key: MemoKey, entry: Self::Entry, metrics: &mut RunMetrics) {
        self.rotate_if_full(metrics);
        self.young.insert(key, entry);
    }
}

/// The in-run summary memo: entries are shared, so a replay is a pointer
/// copy.
impl<M> InRunMemo<M> for HashMap<MemoKey, Rc<Memoized<M>>> {
    type Entry = Rc<Memoized<M>>;

    fn hit(&mut self, key: &MemoKey, _: &mut RunMetrics) -> Option<Self::Entry> {
        self.get(key).cloned()
    }

    fn seed(&mut self, key: MemoKey, entry: Self::Entry, _: &mut RunMetrics) {
        self.insert(key, entry);
    }
}

/// What one [`MemoLevel::lookup`] found.
enum Lookup<E, M> {
    /// An in-run memo hit.
    Memo(E),
    /// A shared-store hit, outputs interned; the caller seeds the in-run memo
    /// with it through [`MemoLevel::remember`] once it is applied.
    Shared(Memoized<M>),
    /// A miss at both layers, carrying the encoded input when a shared store
    /// was probed, so [`MemoLevel::remember`] records without re-encoding.
    Miss(Option<Vec<u64>>),
}

/// One memo level: the in-run memo in front of the run's scope of the
/// cross-run store (see [`crate::jobcache`]). Transfers and call regions
/// are two instances of it, with one lookup and one remember step; each
/// level maps the [`Lookup`] outcome onto its own counters.
///
/// The shared layer sits strictly behind the in-run memo: it is only
/// consulted (and populated) when that misses, so the added cost is bounded
/// by one content probe per distinct key per run.
struct MemoLevel<'s, C, M> {
    memo: C,
    scope: Option<RunScope<'s, M>>,
}

impl<C: InRunMemo<M>, M: Memo> MemoLevel<'_, C, M> {
    /// Probes the in-run memo, then the shared store. Stored outputs are the
    /// exact canonical structures of the original computation, so interning
    /// them replays the cold run's id assignment.
    fn lookup(
        &mut self,
        key: MemoKey,
        interner: &mut StructureInterner,
        table: &PredTable,
        metrics: &mut RunMetrics,
    ) -> Lookup<C::Entry, M> {
        if let Some(entry) = self.memo.hit(&key, metrics) {
            return Lookup::Memo(entry);
        }
        let Some(scope) = &self.scope else {
            return Lookup::Miss(None);
        };
        let input = interner.resolve(key.1).to_words();
        match scope.probe(key.0, &input, table) {
            Some((outputs, memo)) => {
                let outputs = outputs.into_iter().map(|s| interner.intern(s)).collect();
                Lookup::Shared((outputs, memo))
            }
            None => Lookup::Miss(Some(input)),
        }
    }

    /// Seeds the in-run memo with a shared hit or a fresh computation, and
    /// records the latter (`input` is its [`Lookup::Miss`] payload) into the
    /// shared store for future runs.
    fn remember(
        &mut self,
        key: MemoKey,
        entry: C::Entry,
        input: Option<Vec<u64>>,
        interner: &StructureInterner,
        metrics: &mut RunMetrics,
    ) {
        if let (Some(scope), Some(input)) = (self.scope.as_mut(), input) {
            let (outputs, memo) = entry.borrow();
            let outputs = outputs
                .iter()
                .map(|&id| interner.resolve(id).to_words())
                .collect();
            scope.record(key.0, input, outputs, memo.clone());
        }
        self.memo.seed(key, entry, metrics);
    }
}

/// One precomputed transfer application, produced by the intra-subproblem
/// fan-out (phase 2 of the batched worklist loop): blurred canonical posts —
/// *not* yet interned, id assignment stays serial — the memo payload, and
/// the metrics of exactly the work done, merged into the run's metrics only
/// if the result is consumed.
struct ComputedTransfer {
    posts: Vec<Structure>,
    memo: TransferMemo,
    metrics: RunMetrics,
}

/// Minimum predicted-miss count for which a batch fans its transfers out
/// over the intra-subproblem worker pool: below this, thread-scope setup
/// costs more than the pipeline work it would parallelize.
const INTRA_FANOUT_MIN: usize = 4;

/// The transfer pipeline of one action application: focus → coerce → update
/// (inside [`apply_planned`]) plus canonical abstraction of every
/// post-structure. Pure in `(action, s)` given the fixed table/plan/limit —
/// the worklist loop and the speculative fan-out both funnel through this
/// function, so a precomputed result is bit-for-bit what the inline path
/// would have produced. Returns blurred posts in emission order and the memo
/// payload: `(label, definite?)` violation pairs and the largest unblurred
/// post universe.
fn compute_transfer(
    action: &hetsep_tvl::action::Action,
    s: &Structure,
    table: &PredTable,
    plan: &CoercePlan,
    focus_limit: usize,
    metrics: &mut RunMetrics,
) -> (Vec<Structure>, TransferMemo) {
    let out = apply_planned(action, s, table, plan, focus_limit, metrics);
    let violations = out
        .violations
        .iter()
        .map(|v| (v.label.clone(), v.value == Kleene::False))
        .collect();
    let mut peak_post_nodes = 0usize;
    let mut posts = Vec::with_capacity(out.results.len());
    for post in out.results {
        peak_post_nodes = peak_post_nodes.max(post.node_count());
        posts.push(metrics.time(Phase::Canon, || blur(&post, table)));
    }
    let peak_post_nodes = u32::try_from(peak_post_nodes).unwrap_or(u32::MAX);
    (posts, TransferMemo { violations, peak_post_nodes })
}

/// Computes the merge key of the (already interned) structure `id`.
fn merge_key(
    interner: &mut StructureInterner,
    id: StructureId,
    instance: &AnalysisInstance,
    policy: StructureMerge,
) -> MergeKey {
    let table = &instance.vocab.table;
    match (policy, instance.vocab.relevant) {
        (StructureMerge::Powerset, _) | (StructureMerge::RelevantIso, None) => MergeKey::Whole(id),
        (StructureMerge::NullaryJoin, _) => {
            let s = interner.resolve(id);
            MergeKey::Nullary(
                table
                    .iter_arity(Arity::Nullary)
                    .map(|p| s.nullary(table, p))
                    .collect(),
            )
        }
        (StructureMerge::RelevantIso, Some(rel)) => {
            let s = interner.resolve(id);
            let (sub, _) = s.retain_nodes(table, |u| s.unary(table, rel, u) == Kleene::True);
            let sub = canonical_key(&sub, table).into_structure();
            MergeKey::Relevant(interner.intern(sub))
        }
    }
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
    run_shared(instance, config, None, Sessions::default())
}

/// A structural stop signal: the visit/structure budget was exhausted or the
/// cross-run cancellation flag was raised. Unwinds every nested region drain
/// back to [`run_shared`]; the outcome and counter were already recorded on
/// [`EngineSt`] at the raise site.
struct Stop;

/// Mirror of one in-flight region evaluation: while its nested drain runs,
/// every violation, failing site, live-count high-water mark and peak
/// universe raised anywhere below it — including replayed inner summaries —
/// is recorded here as well as on the run totals, in the shape of the
/// [`SummaryMemo`] the finished evaluation becomes, so the summary replays
/// nested effects exactly. Recorders stack: an inner region's contribution
/// flows into every enclosing recorder.
#[derive(Default)]
struct Recorder {
    /// The run's live structure count when the region was entered;
    /// `peak_extra` is measured above this base.
    live_base: usize,
    peak_extra: u32,
    peak_nodes: u32,
    /// `(line, label)` → definite?, OR-joined like the run's error map.
    violations: HashMap<(u32, String), bool>,
    /// Table predicate ids of the failing allocation sites.
    failing_preds: HashSet<u32>,
}

/// Exit collector of one nested region drain: arrivals at the region's exit
/// node are gathered (deduplicated, in arrival order) instead of merged into
/// a location set, so the caller commits them — once, against the caller's
/// own state for the exit node — whether the summary was computed or
/// replayed.
struct RegionSink {
    /// Global node index of the region's entry: batches there are drained
    /// edge by edge, not intercepted as a nested evaluation.
    entry: usize,
    /// Global node index of the region's exit.
    exit: usize,
    exits: Vec<StructureId>,
    seen: HashSet<StructureId>,
}

/// The worklist state of one drain — the global run's, or one nested region
/// evaluation's.
struct Frontier {
    /// Merge-keyed location sets, indexed by `node - base`: the global run
    /// holds every node (`base` 0), a region evaluation its own node range.
    states: Vec<HashMap<MergeKey, StructureId>>,
    /// Min-heap on (rpo rank, insertion sequence, node, structure): lower-
    /// ranked locations first, FIFO among equal ranks — a deterministic
    /// priority worklist.
    worklist: BinaryHeap<Reverse<(u32, u64, usize, StructureId)>>,
    /// Next insertion sequence number.
    seq: u64,
    base: usize,
    /// The region being drained; `None` for the global drain.
    sink: Option<RegionSink>,
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

/// The immutable context of one engine run, shared by the global drain and
/// every nested region drain.
struct EngineCtx<'a> {
    instance: &'a AnalysisInstance,
    config: &'a EngineConfig,
    cancel: Option<&'a AtomicBool>,
    /// Reverse-postorder worklist rank per CFG node.
    rpo: Vec<u32>,
    plan: CoercePlan,
    /// Content-deduped action id per `(edge, action index)` (transfer-cache
    /// keys; see the dedup scan in [`run_shared`]).
    action_ids: Vec<Vec<u32>>,
    intra_workers: usize,
    /// Fallback cancellation flag for the intra-batch fan-out when the
    /// caller supplied none (`map_ordered` always polls a flag).
    local_cancel: AtomicBool,
    /// Region index by global entry-node index; empty when the run drains
    /// flat (non-powerset merge policy or a region-free CFG).
    region_by_entry: HashMap<usize, usize>,
    /// Content id per region — an index into the run's distinct-content
    /// list, so splices of one procedure with identical instrumentation
    /// share summaries.
    region_contents: Vec<u32>,
    /// Table predicate id → allocation site, for replaying the failing
    /// sites of a summary.
    site_of_pred: HashMap<u32, SiteId>,
}

/// The mutable state of one engine run, threaded through the global drain
/// and every nested region drain (which share the interner, both memo
/// levels and all counters with their caller).
struct EngineSt<'s> {
    metrics: RunMetrics,
    interner: StructureInterner,
    /// Transfer level: the per-run transfer cache in front of the shared
    /// transfer store.
    transfers: MemoLevel<'s, TransferCache, TransferMemo>,
    /// Call-region level: the in-run summary memo in front of the shared
    /// summary store.
    regions: MemoLevel<'s, HashMap<MemoKey, Rc<Memoized<SummaryMemo>>>, SummaryMemo>,
    /// Precomputed speculative transfers (phase 2 of the global drain).
    speculative: HashMap<MemoKey, ComputedTransfer>,
    visits: u64,
    /// Structures currently stored across all live location sets (the
    /// global ones plus any in-flight nested drains').
    live: usize,
    peak_structures: usize,
    peak_nodes: u32,
    /// `(line, label)` → definite?
    errors: HashMap<(u32, String), bool>,
    failing_sites: HashSet<SiteId>,
    /// One recorder per in-flight region evaluation, innermost last.
    recorders: Vec<Recorder>,
    outcome: AnalysisOutcome,
}

impl EngineSt<'_> {
    /// Stops the run if the cross-run cancellation flag is raised.
    fn poll_cancel(&mut self, cancel: Option<&AtomicBool>) -> Result<(), Stop> {
        if cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
            self.outcome = AnalysisOutcome::BudgetExceeded;
            self.metrics.counters.add(Counter::Cancelled, 1);
            return Err(Stop);
        }
        Ok(())
    }

    /// Raises the live-structure high-water marks of the run and of every
    /// enclosing region recorder to `live`.
    fn raise_live_peak(&mut self, live: usize) {
        self.peak_structures = self.peak_structures.max(live);
        for r in &mut self.recorders {
            let extra = u32::try_from(live - r.live_base).unwrap_or(u32::MAX);
            r.peak_extra = r.peak_extra.max(extra);
        }
    }

    fn raise_peak_nodes(&mut self, n: u32) {
        self.peak_nodes = self.peak_nodes.max(n);
        for r in &mut self.recorders {
            r.peak_nodes = r.peak_nodes.max(n);
        }
    }

    fn note_violation(&mut self, line: u32, label: &str, definite: bool) {
        let recorded = self.recorders.iter_mut().map(|r| &mut r.violations);
        for map in std::iter::once(&mut self.errors).chain(recorded) {
            map.entry((line, label.to_string()))
                .and_modify(|d| *d |= definite)
                .or_insert(definite);
        }
    }

    fn note_failing_site(&mut self, site: SiteId, pred: u32) {
        self.failing_sites.insert(site);
        for r in &mut self.recorders {
            r.failing_preds.insert(pred);
        }
    }

    /// Records the allocation sites of the chosen objects of a violating
    /// pre-state (paper §4.2: allocation-site based identification of failed
    /// individuals).
    ///
    /// A site fails iff some individual is possibly `chosen` *and* possibly
    /// carries the site's predicate; with bit-packed structures that is one
    /// word-parallel maybe-mask intersection per site
    /// ([`Structure::maybe_overlap`]) instead of a node × site probe loop.
    fn note_failing_structure(&mut self, instance: &AnalysisInstance, s: &Structure) {
        let table = &instance.vocab.table;
        let Some(chosen) = instance.vocab.chosen else {
            return;
        };
        for (&site, &pred) in &instance.vocab.site_preds {
            if s.maybe_overlap(table, chosen, pred) {
                self.note_failing_site(site, pred.index() as u32);
            }
        }
    }

    /// Whether replaying `summary` is guaranteed not to mask a budget abort:
    /// replay is all-or-nothing, so it is only taken when even the summary's
    /// full visit count and peak live footprint stay within budget. On a
    /// refusal the region is recomputed inline, which aborts at exactly the
    /// application where the recorded drain would have.
    fn replay_fits(&self, summary: &SummaryMemo, config: &EngineConfig) -> bool {
        self.visits + summary.visits <= config.max_visits
            && self.live + summary.peak_extra as usize <= config.max_structures
    }

    /// Replays a memoized region evaluation: visits, peaks, violations and
    /// failing sites advance exactly as the recorded nested drain advanced
    /// them. Replayed applications count as transfer-cache hits — re-draining
    /// the region would find every one of its transfers in the per-run cache
    /// — keeping `hits + misses == visits` intact.
    fn replay(&mut self, ctx: &EngineCtx<'_>, summary: &SummaryMemo) {
        self.visits += summary.visits;
        if ctx.config.transfer_cache {
            self.metrics
                .counters
                .add(Counter::TransferCacheHits, summary.visits);
        }
        self.raise_live_peak(self.live + summary.peak_extra as usize);
        self.raise_peak_nodes(summary.peak_nodes);
        for (line, label, definite) in &summary.violations {
            self.note_violation(*line, label, *definite);
        }
        for &pred in &summary.failing_preds {
            if let Some(&site) = ctx.site_of_pred.get(&pred) {
                self.note_failing_site(site, pred);
            }
        }
    }
}

/// The cross-run shared sessions one engine run probes and records into
/// (see [`crate::jobcache`]). The default is none: a self-contained run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sessions<'s> {
    /// Shared transfer store session.
    pub transfers: Option<&'s SharedTransferSession<'s>>,
    /// Shared call-region summary store session.
    pub summaries: Option<&'s SharedSummarySession<'s>>,
}

/// Runs the worklist analysis with an optional cross-run cancellation flag
/// and optional cross-job shared transfer and summary sessions.
///
/// Used by the parallel subproblem scheduler: every run polls `cancel`
/// periodically and aborts with [`AnalysisOutcome::BudgetExceeded`] when it
/// is raised, and a run that exhausts its own budget raises it.
///
/// Both memo levels resolve an evaluation the same way: the in-run memo,
/// then the session's store snapshot by *content* key, else a computation
/// that is recorded into the session's delta for future jobs. The transfer
/// session is used only when
/// `config.transfer_cache` is on; a shared transfer hit replays the memoized
/// posts/violations/peak exactly and counts [`Counter::SharedCacheHits`]
/// instead of a transfer-cache miss. The summary session does the same one
/// level up, for whole call-region evaluations (see
/// [`EngineConfig::summaries`]), counting [`Counter::SharedSummaryHits`].
/// Results are observation-equivalent with and without sessions; only cache
/// counters and wall-clock differ.
pub fn run_shared(
    instance: &AnalysisInstance,
    config: &EngineConfig,
    cancel: Option<&AtomicBool>,
    sessions: Sessions<'_>,
) -> RunResult {
    let start = Instant::now();
    let table = &instance.vocab.table;
    let cfg = &instance.cfg;
    let n_nodes = cfg.node_count();

    let mut metrics = RunMetrics::new(config.phase_timings);
    let mut interner = StructureInterner::new();

    // Content-keyed action ids for transfer-cache keys: `action_ids[e][i]`
    // identifies action `i` of edge `e` by *content*, so structurally equal
    // actions on different edges (skip edges, `assume(?)` branch pairs,
    // repeated statements) share cache entries. The worklist itself never
    // re-applies one edge's action to the same structure — location sets
    // dedup on interned ids — so all cache hits come from this cross-edge
    // sharing. Deduplication is a linear scan per action: action counts are
    // CFG-sized (tens), and it runs once per analysis.
    let mut action_ids: Vec<Vec<u32>> = Vec::with_capacity(instance.actions.len());
    let mut uniq_actions: Vec<&hetsep_tvl::action::Action> = Vec::new();
    for edge_actions in &instance.actions {
        let ids = edge_actions
            .iter()
            .map(|a| match uniq_actions.iter().position(|u| *u == a) {
                Some(ix) => ix as u32,
                None => {
                    uniq_actions.push(a);
                    (uniq_actions.len() - 1) as u32
                }
            })
            .collect();
        action_ids.push(ids);
    }

    // Region-structured evaluation applies under the powerset policy only:
    // the joining merge policies fold arrivals at every location, so a
    // region's behavior is not a function of single entry structures there
    // and the CFG drains flat, exactly as a region-free graph does.
    let use_regions = config.merge == StructureMerge::Powerset && !cfg.regions().is_empty();
    let mut region_by_entry: HashMap<usize, usize> = HashMap::new();
    let mut region_contents: Vec<u32> = Vec::new();
    let mut distinct_contents: Vec<String> = Vec::new();
    if use_regions {
        let mut content_ix: HashMap<String, u32> = HashMap::new();
        for (ix, region) in cfg.regions().iter().enumerate() {
            region_by_entry.insert(region.entry.index(), ix);
            let content = region_content(region, cfg, &instance.actions);
            let id = *content_ix.entry(content.clone()).or_insert_with(|| {
                distinct_contents.push(content);
                (distinct_contents.len() - 1) as u32
            });
            region_contents.push(id);
        }
    }

    let transfers = MemoLevel {
        memo: TransferCache {
            cap: (config.transfer_cache_capacity / 2).max(1),
            young: HashMap::new(),
            old: HashMap::new(),
        },
        scope: sessions.transfers.filter(|_| config.transfer_cache).map(|s| {
            let contents = uniq_actions.iter().map(|a| action_content(a)).collect();
            s.run_scope(table, config.focus_limit, contents)
        }),
    };
    let regions = MemoLevel {
        memo: HashMap::new(),
        scope: sessions
            .summaries
            .filter(|_| use_regions && config.summaries)
            .map(|s| s.run_scope(table, config.focus_limit, distinct_contents)),
    };

    let ctx = EngineCtx {
        instance,
        config,
        cancel,
        rpo: rpo_ranks(cfg),
        // The coerce constraint set depends only on the vocabulary: compile
        // it once instead of re-deriving it inside every action application.
        plan: CoercePlan::new(table),
        action_ids,
        intra_workers: config.parallel.effective_intra_threads(),
        local_cancel: AtomicBool::new(false),
        region_by_entry,
        region_contents,
        site_of_pred: instance
            .vocab
            .site_preds
            .iter()
            .map(|(&site, &pred)| (pred.index() as u32, site))
            .collect(),
    };

    // `blur` output is already canonical — nodes are emitted in ascending
    // canonical-name order and names are unique per node (verified by the
    // `canonical_key_is_identity_on_blurred` property test) — so blurred
    // structures are interned directly without a re-keying pass.
    let init = metrics.time(Phase::Canon, || blur(&Structure::new(table), table));
    let init_id = interner.intern(init);
    let init_key = metrics.time(Phase::Merge, || {
        merge_key(&mut interner, init_id, instance, config.merge)
    });
    let mut fr = Frontier {
        states: vec![HashMap::new(); n_nodes],
        worklist: BinaryHeap::new(),
        seq: 0,
        base: 0,
        sink: None,
    };
    fr.states[cfg.entry()].insert(init_key, init_id);
    fr.push(ctx.rpo[cfg.entry()], cfg.entry(), init_id, &mut metrics);

    let mut st = EngineSt {
        metrics,
        interner,
        transfers,
        regions,
        speculative: HashMap::new(),
        visits: 0,
        live: 1,
        peak_structures: 1,
        peak_nodes: 0,
        errors: HashMap::new(),
        failing_sites: HashSet::new(),
        recorders: Vec::new(),
        outcome: AnalysisOutcome::Complete,
    };

    // A `Stop` already recorded its outcome and counter on `st`.
    let _ = drain(&ctx, &mut st, &mut fr);

    if let Some(scope) = st.transfers.scope.take() {
        scope.finish();
    }
    if let Some(scope) = st.regions.scope.take() {
        scope.finish();
    }

    let reports: Vec<ErrorReport> = st
        .errors
        .into_iter()
        .map(|((line, label), definite)| ErrorReport {
            line,
            label,
            definite,
        })
        .collect();

    st.metrics.counters.add(Counter::InternHits, st.interner.hits());
    st.metrics
        .counters
        .add(Counter::InternMisses, st.interner.misses());
    st.metrics.per_location = fr
        .states
        .iter()
        .map(|m| u32::try_from(m.len()).unwrap_or(u32::MAX))
        .collect();

    RunResult {
        errors: dedup_reports(reports),
        failing_sites: st.failing_sites,
        stats: RunStats {
            visits: st.visits,
            structures: st.peak_structures,
            distinct_structures: st.interner.len(),
            peak_nodes: st.peak_nodes as usize,
            wall: start.elapsed(),
            locations: n_nodes,
            metrics: st.metrics,
        },
        outcome: st.outcome,
    }
}

/// Drains one frontier to fixpoint — the batched core loop shared by the
/// global run and every nested region evaluation.
///
/// A region evaluation's frontier carries a [`RegionSink`]: arrivals at its
/// exit node are collected instead of committed, and batches at its own
/// entry are processed normally. A batch at any *other* region entry is
/// intercepted and evaluated as a nested subproblem via [`eval_region`].
/// The intra-subproblem fan-out (phases 1–2) runs in the global drain only —
/// nested drains are short and stay serial.
fn drain(ctx: &EngineCtx<'_>, st: &mut EngineSt<'_>, fr: &mut Frontier) -> Result<(), Stop> {
    let instance = ctx.instance;
    let config = ctx.config;
    let cfg = &instance.cfg;
    let table = &instance.vocab.table;
    let own_entry = fr.sink.as_ref().map(|sink| sink.entry);
    // Each iteration drains one *batch*: every queued entry of the
    // highest-priority (rank, node) pair. Entries of one node sit
    // contiguously at the top of the heap — reachable nodes have unique
    // ranks, and among unreachable nodes (which share the sentinel rank)
    // draining stops at the first entry for a different node. Entries keep
    // their insertion sequence: a back-edge push from an earlier batch
    // member can outrank the remaining members, in which case phase 3
    // requeues them (original sequence and all) so the commit order replays
    // the serial pop order exactly.
    'outer: while let Some(&Reverse((rank, _, node, _))) = fr.worklist.peek() {
        let mut batch: Vec<(u64, StructureId)> = Vec::new();
        while let Some(&Reverse((r, s, n, sid))) = fr.worklist.peek() {
            if r != rank || n != node {
                break;
            }
            fr.worklist.pop();
            batch.push((s, sid));
        }
        // Poll the cross-run flag at the top of every batch (the batched
        // equivalent of the former per-visit top poll): a single expensive
        // focus/coerce expansion must not delay a budget-triggered cancel by
        // a whole batch. Further polls run every `CANCEL_CHECK_INTERVAL`
        // applications below.
        st.poll_cancel(ctx.cancel)?;
        // A batch at another region's entry is not applied edge by edge:
        // each arrival is evaluated as a nested subproblem of that region
        // (computed or replayed — see `eval_region`) and its exit structures
        // are committed at the region's exit node. The exit's rank exceeds
        // the entry's (the exit is a DFS descendant of the entry), so these
        // commits never outrank the batch being drained.
        if own_entry != Some(node) {
            if let Some(&region_ix) = ctx.region_by_entry.get(&node) {
                let exit = cfg.regions()[region_ix].exit.index();
                for &(_, sid) in &batch {
                    let summary = eval_region(ctx, st, region_ix, sid)?;
                    for &xid in &summary.0 {
                        commit_post(ctx, st, fr, exit, xid);
                    }
                }
                continue 'outer;
            }
        }
        // Exploitable-width telemetry, counted from the drained batch size
        // *before* any worker configuration is consulted: the values — and
        // with them every emitted trace — are identical whatever
        // `intra_threads` is set to.
        if batch.len() >= 2 {
            st.metrics.counters.add(Counter::IntraBatches, 1);
            st.metrics
                .counters
                .add(Counter::IntraBatchItems, batch.len() as u64);
        }

        // Phase 1 (speculative, strictly read-only): predict which
        // applications of this batch miss every cache and will therefore
        // compute the transfer pipeline. Probes must not perturb observable
        // state — `TransferCache::contains` skips promotion, the shared
        // scope is a snapshot — and keys already claimed by an earlier
        // application of this batch are tracked in `pending` (the first
        // application inserts the entry the later ones will hit).
        // Enumeration stops at the visit budget: the loop below breaks
        // there, so later applications must not be precomputed.
        //
        // Phase 2: fan the predicted misses over the worker pool
        // (`map_ordered`, input-order results) and stash the results in the
        // `speculative` memo. The transfer is a pure function of the
        // (action, interned pre-structure) key, so memoized results stay
        // valid across batch requeues — a member pushed back by a
        // higher-priority back-edge entry reclaims its precompute when it is
        // drained again instead of recomputing. Mispredictions and
        // cancelled-before-start slots fall back to inline computation in
        // phase 3 — speculation can only waste work, never change a result,
        // because both sides run `compute_transfer` on identical inputs and
        // the metrics of unconsumed results are discarded.
        // Cheap width precheck: a batch that cannot reach the fan-out
        // threshold even if every application misses skips classification
        // outright — small batches must not pay probe or clone overhead.
        let apps_per_structure: usize = cfg
            .out_edges(node)
            .iter()
            .map(|&e| instance.actions[e].len())
            .sum();
        if fr.sink.is_none()
            && ctx.intra_workers > 1
            && st.live <= config.max_structures
            && batch.len() * apps_per_structure >= INTRA_FANOUT_MIN
        {
            // (action, action id, pre-structure id) of every predicted miss.
            // Structures are cloned only after the threshold check below —
            // classification itself never allocates per application.
            let mut job_metas: Vec<(&hetsep_tvl::action::Action, MemoKey)> = Vec::new();
            let mut pending: HashSet<MemoKey> = HashSet::new();
            let mut spec_visits = st.visits;
            'classify: for &(_, sid) in &batch {
                let mut words: Option<Vec<u64>> = None;
                for &edge_ix in cfg.out_edges(node) {
                    for (action_ix, action) in instance.actions[edge_ix].iter().enumerate() {
                        spec_visits += 1;
                        if spec_visits > config.max_visits {
                            break 'classify;
                        }
                        let key = (ctx.action_ids[edge_ix][action_ix], sid);
                        let predicted_hit = st.speculative.contains_key(&key)
                            || pending.contains(&key)
                            || (config.transfer_cache
                                && (st.transfers.memo.contains(&key)
                                    || st.transfers.scope.as_ref().is_some_and(|scope| {
                                        let w = words.get_or_insert_with(|| {
                                            st.interner.resolve(sid).to_words()
                                        });
                                        scope.contains(key.0, w)
                                    })));
                        if !predicted_hit {
                            pending.insert(key);
                            job_metas.push((action, key));
                        }
                    }
                }
            }
            if job_metas.len() >= INTRA_FANOUT_MIN {
                let jobs: Vec<(&hetsep_tvl::action::Action, Structure)> = job_metas
                    .iter()
                    .map(|&(action, (_, sid))| (action, st.interner.resolve(sid).clone()))
                    .collect();
                let flag = ctx.cancel.unwrap_or(&ctx.local_cancel);
                let timed = config.phase_timings;
                let plan = &ctx.plan;
                let computed = map_ordered(&jobs, ctx.intra_workers, flag, |_, job, _| {
                    let mut local = RunMetrics::new(timed);
                    let (posts, memo) =
                        compute_transfer(job.0, &job.1, table, plan, config.focus_limit, &mut local);
                    ComputedTransfer {
                        posts,
                        memo,
                        metrics: local,
                    }
                });
                for ((_, key), result) in job_metas.into_iter().zip(computed) {
                    if let Some(c) = result {
                        st.speculative.insert(key, c);
                    }
                }
            }
        }

        // Phase 3: the serial worklist body, application by application in
        // the exact pre-batching order — every counter bump, budget check,
        // cache probe and downstream merge/push runs here, on one thread.
        for (batch_ix, &(entry_seq, sid)) in batch.iter().enumerate() {
            // A back-edge push from an earlier member of this batch can
            // carry a higher priority than the remaining members; serial
            // processing would pop it first. Requeue the rest of the batch
            // with their original sequence numbers — restoring the exact
            // heap state — and drain again. Precomputed transfers for
            // requeued members stay in the `speculative` memo and are
            // reclaimed on the next drain.
            if batch_ix > 0 {
                if let Some(&Reverse((r, sq, _, _))) = fr.worklist.peek() {
                    if (r, sq) < (rank, entry_seq) {
                        for &(q, d) in &batch[batch_ix..] {
                            fr.worklist.push(Reverse((rank, q, node, d)));
                        }
                        continue 'outer;
                    }
                }
            }
            let s = st.interner.resolve(sid).clone();
            for &edge_ix in cfg.out_edges(node) {
                let edge = &cfg.edges()[edge_ix];
                for (action_ix, action) in instance.actions[edge_ix].iter().enumerate() {
                    st.visits += 1;
                    if st.visits > config.max_visits || st.live > config.max_structures {
                        st.outcome = AnalysisOutcome::BudgetExceeded;
                        st.metrics.counters.add(Counter::BudgetExhausted, 1);
                        if let Some(flag) = ctx.cancel {
                            flag.store(true, Ordering::Relaxed);
                        }
                        return Err(Stop);
                    }
                    if st.visits.is_multiple_of(CANCEL_CHECK_INTERVAL) {
                        st.poll_cancel(ctx.cancel)?;
                    }
                    // The transfer function is a pure function of the
                    // (interned) pre-structure and the action, so its output
                    // — canonical post ids, violations, peak universe size —
                    // replays exactly from either memo layer. Resolve one
                    // entry, then apply it once, whichever layer produced it.
                    let key = (ctx.action_ids[edge_ix][action_ix], sid);
                    // Claim any precomputed transfer for this application up
                    // front: if the caches hit after all (a misprediction),
                    // the speculative result is simply dropped, exactly like
                    // the inline computation it replaced would never have
                    // run.
                    let precomp = st.speculative.remove(&key);
                    let found = if config.transfer_cache {
                        st.transfers
                            .lookup(key, &mut st.interner, table, &mut st.metrics)
                    } else {
                        Lookup::Miss(None)
                    };
                    // `fresh` is `Some(input)` when the entry is not yet in
                    // the per-run cache: `remember` seeds it after the apply
                    // step, recording computed ones into the shared store.
                    let (entry, fresh) = match found {
                        Lookup::Memo(entry) => {
                            st.metrics.counters.add(Counter::TransferCacheHits, 1);
                            (entry, None)
                        }
                        // A shared hit replaces — not joins — the local
                        // miss: the pipeline is skipped, so only
                        // `SharedCacheHits` advances and a warm corpus run
                        // reports strictly fewer transfer-cache misses than
                        // a cold one.
                        Lookup::Shared(entry) => {
                            st.metrics.counters.add(Counter::SharedCacheHits, 1);
                            (entry, Some(None))
                        }
                        Lookup::Miss(input) => {
                            if input.is_some() {
                                st.metrics.counters.add(Counter::SharedCacheMisses, 1);
                            }
                            if config.transfer_cache {
                                st.metrics.counters.add(Counter::TransferCacheMisses, 1);
                            }
                            // Consume the precomputed transfer if phase 2
                            // produced one for this application; otherwise
                            // (speculation off, below the fan-out threshold,
                            // cancelled before start) compute inline. Both
                            // sides are `compute_transfer` on identical
                            // inputs, so the merged-in metrics and the
                            // results are byte-identical either way.
                            let (blurred, memo) = match precomp {
                                Some(c) => {
                                    st.metrics.merge(&c.metrics);
                                    (c.posts, c.memo)
                                }
                                None => compute_transfer(
                                    action,
                                    &s,
                                    table,
                                    &ctx.plan,
                                    config.focus_limit,
                                    &mut st.metrics,
                                ),
                            };
                            let posts =
                                blurred.into_iter().map(|p| st.interner.intern(p)).collect();
                            ((posts, memo), config.transfer_cache.then_some(input))
                        }
                    };
                    let (posts, memo) = &entry;
                    if !memo.violations.is_empty() {
                        for (label, definite) in &memo.violations {
                            st.note_violation(edge.line, label, *definite);
                        }
                        st.note_failing_structure(instance, &s);
                    }
                    st.raise_peak_nodes(memo.peak_post_nodes);
                    for &keyed_id in posts {
                        commit_post(ctx, st, fr, edge.to, keyed_id);
                    }
                    if let Some(input) = fresh {
                        st.transfers
                            .remember(key, entry, input, &st.interner, &mut st.metrics);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Commits one post-structure at node `to` of the frontier: merge-keys it,
/// joins or inserts per the merge policy, and pushes changed representatives
/// onto the worklist. Arrivals at a region sink's exit node are collected
/// instead (deduplicated, arrival order) — the region's caller commits them
/// against its own states.
fn commit_post(
    ctx: &EngineCtx<'_>,
    st: &mut EngineSt<'_>,
    fr: &mut Frontier,
    to: usize,
    keyed_id: StructureId,
) {
    if let Some(sink) = fr.sink.as_mut().filter(|sink| sink.exit == to) {
        if sink.seen.insert(keyed_id) {
            sink.exits.push(keyed_id);
        }
        return;
    }
    let key = {
        let EngineSt {
            metrics, interner, ..
        } = &mut *st;
        metrics.time(Phase::Merge, || {
            merge_key(interner, keyed_id, ctx.instance, ctx.config.merge)
        })
    };
    let slot = to - fr.base;
    match fr.states[slot].get(&key) {
        None => {
            st.live += 1;
            st.raise_live_peak(st.live);
            fr.states[slot].insert(key, keyed_id);
            fr.push(ctx.rpo[to], to, keyed_id, &mut st.metrics);
        }
        Some(&existing) if existing == keyed_id => {}
        Some(&existing) => {
            // Join into the existing representative. The raw union may
            // violate uniqueness/functionality constraints across the merged
            // states; weaken those conflicts to 1/2 so coerce does not
            // discard the join.
            st.metrics.counters.add(Counter::MergeJoins, 1);
            let table = &ctx.instance.vocab.table;
            let merged = {
                let EngineSt {
                    metrics, interner, ..
                } = &mut *st;
                metrics.time(Phase::Merge, || {
                    let ex = interner.resolve(existing);
                    let ky = interner.resolve(keyed_id);
                    blur(
                        &hetsep_tvl::merge::weaken_union_conflicts(&ex.union(ky), table),
                        table,
                    )
                })
            };
            let merged_id = st.interner.intern(merged);
            if merged_id != existing {
                fr.states[slot].insert(key, merged_id);
                fr.push(ctx.rpo[to], to, merged_id, &mut st.metrics);
            }
        }
    }
}

/// Evaluates a call region for one entry structure: the region memo level
/// over [`compute_region`]. With summaries off the region is recomputed
/// every time — same nested drain, no memo — so results cannot depend on
/// the flag.
///
/// Counter discipline: every evaluation counts [`Counter::CallEvaluations`]
/// and exactly one of [`Counter::SummaryHits`] (replayed) or
/// [`Counter::SummaryMisses`] (computed, or a memo/shared hit refused by the
/// budget guard). A shared-store hit additionally counts
/// [`Counter::SharedSummaryHits`], whether or not it is replayable.
fn eval_region(
    ctx: &EngineCtx<'_>,
    st: &mut EngineSt<'_>,
    region_ix: usize,
    input: StructureId,
) -> Result<Rc<Memoized<SummaryMemo>>, Stop> {
    if !ctx.config.summaries {
        return compute_region(ctx, st, region_ix, input).map(Rc::new);
    }
    st.metrics.counters.add(Counter::CallEvaluations, 1);
    let key = (ctx.region_contents[region_ix], input);
    let table = &ctx.instance.vocab.table;
    let summary = match st.regions.lookup(key, &mut st.interner, table, &mut st.metrics) {
        Lookup::Memo(summary) => summary,
        Lookup::Shared(summary) => {
            st.metrics.counters.add(Counter::SharedSummaryHits, 1);
            let summary = Rc::new(summary);
            st.regions
                .remember(key, summary.clone(), None, &st.interner, &mut st.metrics);
            summary
        }
        Lookup::Miss(input_words) => {
            st.metrics.counters.add(Counter::SummaryMisses, 1);
            let summary = Rc::new(compute_region(ctx, st, region_ix, input)?);
            st.regions
                .remember(key, summary.clone(), input_words, &st.interner, &mut st.metrics);
            return Ok(summary);
        }
    };
    if st.replay_fits(&summary.1, ctx.config) {
        st.metrics.counters.add(Counter::SummaryHits, 1);
        st.replay(ctx, &summary.1);
        return Ok(summary);
    }
    st.metrics.counters.add(Counter::SummaryMisses, 1);
    compute_region(ctx, st, region_ix, input).map(Rc::new)
}

/// Runs a call region as a nested subproblem of one entry structure:
/// region-local states and worklist, drained by the same batched loop as
/// the global run (sharing the interner, caches and counters through `st`).
/// Region-local structures are discarded when the drain finishes — only the
/// exit structures escape, committed by the caller — so `N` spliced copies
/// of a procedure cost one body's peak footprint at a time, not `N`.
fn compute_region(
    ctx: &EngineCtx<'_>,
    st: &mut EngineSt<'_>,
    region_ix: usize,
    input: StructureId,
) -> Result<Memoized<SummaryMemo>, Stop> {
    let region = &ctx.instance.cfg.regions()[region_ix];
    let entry = region.entry.index();
    let base = region.nodes().start;
    let live_base = st.live;
    let visits_base = st.visits;
    st.recorders.push(Recorder {
        live_base,
        ..Recorder::default()
    });
    // Region drains only run under the powerset policy, so the entry seed's
    // merge key is its own id — no timed merge-key pass — and the seed is
    // neither counted against the live total (it is already stored at the
    // caller's entry-node state) nor as a worklist push.
    let mut states = vec![HashMap::new(); region.nodes().len()];
    states[entry - base].insert(MergeKey::Whole(input), input);
    let mut fr = Frontier {
        states,
        worklist: BinaryHeap::from([Reverse((ctx.rpo[entry], 0, entry, input))]),
        seq: 1,
        base,
        sink: Some(RegionSink {
            entry,
            exit: region.exit.index(),
            exits: Vec::new(),
            seen: HashSet::new(),
        }),
    };
    drain(ctx, st, &mut fr)?;
    let rec = st.recorders.pop().expect("recorder pushed above");
    st.live = live_base;
    let mut violations: Vec<(u32, String, bool)> = rec
        .violations
        .into_iter()
        .map(|((line, label), definite)| (line, label, definite))
        .collect();
    violations.sort();
    let mut failing_preds: Vec<u32> = rec.failing_preds.into_iter().collect();
    failing_preds.sort_unstable();
    Ok((
        fr.sink.expect("region frontier has a sink").exits,
        SummaryMemo {
            violations,
            failing_preds,
            visits: st.visits - visits_base,
            peak_extra: rec.peak_extra,
            peak_nodes: rec.peak_nodes,
        },
    ))
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
        // The transfer cache (on by default) skips the focus phase on hits:
        // focus runs exactly once per cache miss, and every application is
        // either a hit or a miss.
        assert_eq!(
            m.phases.get(Phase::Focus).count,
            m.counters.get(Counter::TransferCacheMisses)
        );
        assert_eq!(
            m.counters.get(Counter::TransferCacheHits)
                + m.counters.get(Counter::TransferCacheMisses),
            plain.stats.visits,
            "every application is answered by the cache or computed"
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
        let r = run_shared(&inst, &EngineConfig::default(), Some(&flag), Sessions::default());
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
