//! Engine observability: phase timings, counters, and typed events.
//!
//! The verification engine reports *what* it concluded through
//! `RunResult`/`VerificationReport`; this module is the seam through which it
//! reports *where the effort went*. Two layers:
//!
//! 1. **[`RunMetrics`]** — a per-run accumulator of per-phase invocation
//!    counts and (optionally) wall-clock nanoseconds, plus scalar
//!    [`Counter`]s and per-location structure counts. Each engine run (and
//!    therefore each worker thread of the parallel subproblem scheduler)
//!    owns its accumulator exclusively, so collection is lock-free; the mode
//!    drivers merge accumulators deterministically in allocation-site order.
//! 2. **[`Event`]** — the NDJSON trace line vocabulary: subproblem
//!    start/finish with site ids, per-phase samples, counter samples,
//!    per-location structure counts, budget exhaustion and cancellation.
//!    [`event_to_json`] renders one line; `hetsep-core`'s `write_trace`
//!    renders a finished report's per-subproblem metrics as a whole trace.
//!
//! Instrumentation is **observation-only**: no metrics level may change
//! which structures the engine explores, in which order, or what it
//! reports. Phase *counts* are always collected (plain integer increments);
//! phase *durations* are only sampled when a run is created with
//! `RunMetrics::new(true)` (two `Instant` reads per phase application), so
//! the default configuration never touches the clock in the hot loop.

use std::fmt;
use std::time::{Duration, Instant};

/// The engine phases broken out by the observability layer (the cost
/// centers of the TVLA-style analysis loop).
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Materialization: `focus_all` over an action's focus specs.
    Focus,
    /// Constraint sharpening: `coerce` on focused variants and post-states.
    Coerce,
    /// Action update: allocation + core + derived predicate updates.
    Update,
    /// Canonical abstraction: `blur` + `canonical_key` of post-states.
    Canon,
    /// Location-set insertion: adding an interned post-structure to its
    /// target location's set. Labelled `merge`, the name traces, goldens
    /// and perfbench's `core.engine.merge_ms` report it under.
    Merge,
}

impl Phase {
    /// Every phase, in fixed reporting order.
    pub const ALL: [Phase; 5] = [
        Phase::Focus,
        Phase::Coerce,
        Phase::Update,
        Phase::Canon,
        Phase::Merge,
    ];

    /// Stable lower-case label used in traces and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Focus => "focus",
            Phase::Coerce => "coerce",
            Phase::Update => "update",
            Phase::Canon => "canon",
            Phase::Merge => "merge",
        }
    }

    /// Position in [`Phase::ALL`] (the declaration order).
    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Scalar counters collected alongside phase timings.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Interner probes answered from the arena (structure already known).
    InternHits,
    /// Interner probes that materialized a new arena entry.
    InternMisses,
    /// Structures pushed onto the engine worklist.
    WorklistPushes,
    /// Peak worklist depth (merged across runs by `max`, not `+`).
    WorklistPeakDepth,
    /// Structure variants produced by focus (materialization fan-out).
    FocusVariants,
    /// Focused variants discarded as infeasible by coerce.
    CoerceInfeasible,
    /// Post-states produced by action application.
    PostStructures,
    /// Runs that exhausted their own visit/structure budget.
    BudgetExhausted,
    /// Runs aborted by a cancellation flag raised outside the run. A
    /// separation subproblem cancelled because an earlier site exhausted its
    /// budget is dropped from the report with its metrics (see the
    /// cancellation watermark in `hetsep-core`).
    Cancelled,
    /// Subproblems skipped entirely because the static pre-analysis proved
    /// their requires-checks safe.
    SubproblemsPruned,
    /// Action applications that computed the focus → coerce → update →
    /// canon pipeline: every application that reached the transfer step
    /// and was not answered by the shared store (a run that aborts
    /// mid-visit loses at most one).
    TransferCacheMisses,
    /// Action applications answered from a *cross-job* shared transfer store
    /// (a persisted corpus cache; see `hetsep-core`'s `jobcache` module).
    /// Counted instead of — not in addition to — `TransferCacheMisses`, so a
    /// warm corpus run reports strictly fewer misses than a cold one.
    SharedCacheHits,
    /// Shared-store probes that found no entry and fell through to the
    /// transfer pipeline (the computed result is recorded for future jobs).
    SharedCacheMisses,
    /// May-share heap components found by the flow-sensitive preanalysis
    /// (a verification-wide figure stamped on every separation subproblem,
    /// so it merges by `max`, not `+`).
    PreanalysisComponents,
    /// Structure-count estimate for the subproblem's may-share component
    /// (sums across rows to the predicted cost of the family). An estimate,
    /// not a bound: measured peaks exceed it (see `DESIGN.md` §15.2).
    PreanalysisEstimatedStructures,
    /// Call-region evaluations: structures popped from the worklist at a
    /// spliced procedure's entry node (each distinct structure once per
    /// entry, since location sets deduplicate).
    CallEvaluations,
    /// Never incremented and not in [`Counter::REPORTED`]: procedure
    /// summaries are gone. Kept, with `SharedSummaryHits`, only so that
    /// the `perfbench/` harness, which reads both, keeps compiling.
    #[doc(hidden)]
    SummaryHits,
    /// Never incremented; see `SummaryHits`.
    #[doc(hidden)]
    SharedSummaryHits,
    /// Never incremented and not in [`Counter::REPORTED`]: the per-run
    /// transfer memo is gone. Kept only so that the `perfbench/` harness,
    /// which reads it, keeps compiling.
    #[doc(hidden)]
    TransferCacheHits,
}

impl Counter {
    /// Every counter, in fixed reporting order.
    pub const ALL: [Counter; 19] = [
        Counter::InternHits,
        Counter::InternMisses,
        Counter::WorklistPushes,
        Counter::WorklistPeakDepth,
        Counter::FocusVariants,
        Counter::CoerceInfeasible,
        Counter::PostStructures,
        Counter::BudgetExhausted,
        Counter::Cancelled,
        Counter::SubproblemsPruned,
        Counter::TransferCacheMisses,
        Counter::SharedCacheHits,
        Counter::SharedCacheMisses,
        Counter::PreanalysisComponents,
        Counter::PreanalysisEstimatedStructures,
        Counter::CallEvaluations,
        Counter::SummaryHits,
        Counter::SharedSummaryHits,
        Counter::TransferCacheHits,
    ];

    /// Every counter the engine increments, in reporting order: all of
    /// [`Counter::ALL`] but the three hidden stand-ins at its end. Traces,
    /// JSON rows and metric tables list these.
    pub const REPORTED: &'static [Counter] = Counter::ALL.split_at(Counter::ALL.len() - 3).0;

    /// Stable snake_case label used in traces and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Counter::InternHits => "intern_hits",
            Counter::InternMisses => "intern_misses",
            Counter::WorklistPushes => "worklist_pushes",
            Counter::WorklistPeakDepth => "worklist_peak_depth",
            Counter::FocusVariants => "focus_variants",
            Counter::CoerceInfeasible => "coerce_infeasible",
            Counter::PostStructures => "post_structures",
            Counter::BudgetExhausted => "budget_exhausted",
            Counter::Cancelled => "cancelled",
            Counter::SubproblemsPruned => "subproblems_pruned",
            Counter::TransferCacheMisses => "transfer_cache_misses",
            Counter::SharedCacheHits => "shared_cache_hits",
            Counter::SharedCacheMisses => "shared_cache_misses",
            Counter::PreanalysisComponents => "preanalysis_components",
            Counter::PreanalysisEstimatedStructures => "preanalysis_estimated_structures",
            Counter::CallEvaluations => "call_evaluations",
            Counter::SummaryHits => "summary_hits",
            Counter::SharedSummaryHits => "shared_summary_hits",
            Counter::TransferCacheHits => "transfer_cache_hits",
        }
    }

    /// Whether merging two runs' values takes the maximum instead of the
    /// sum (true for high-water marks like the worklist depth).
    pub fn merges_by_max(self) -> bool {
        matches!(
            self,
            Counter::WorklistPeakDepth | Counter::PreanalysisComponents
        )
    }

    /// Position in [`Counter::ALL`]: the variants are declared in that
    /// order, so the discriminant is the index.
    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Invocation count and accumulated wall time of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Number of phase applications.
    pub count: u64,
    /// Accumulated wall-clock nanoseconds (0 unless timing was enabled).
    pub nanos: u64,
}

/// Per-phase invocation counts and durations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    stats: [PhaseStats; Phase::ALL.len()],
}

impl PhaseTimings {
    /// Adds `count` applications totalling `nanos` to `phase`.
    pub fn add(&mut self, phase: Phase, count: u64, nanos: u64) {
        let s = &mut self.stats[phase.index()];
        s.count += count;
        s.nanos += nanos;
    }

    /// The stats of one phase.
    pub fn get(&self, phase: Phase) -> PhaseStats {
        self.stats[phase.index()]
    }

    /// Accumulated duration of one phase.
    pub fn duration(&self, phase: Phase) -> Duration {
        Duration::from_nanos(self.get(phase).nanos)
    }

    /// Sums another run's timings into this one.
    pub fn merge(&mut self, other: &PhaseTimings) {
        for p in Phase::ALL {
            let o = other.get(p);
            self.add(p, o.count, o.nanos);
        }
    }
}

/// Scalar counter values, indexable by [`Counter`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    values: [u64; Counter::ALL.len()],
}

impl Counters {
    /// Adds `v` to `counter`.
    pub fn add(&mut self, counter: Counter, v: u64) {
        self.values[counter.index()] += v;
    }

    /// Raises `counter` to at least `v` (for high-water marks).
    pub fn raise(&mut self, counter: Counter, v: u64) {
        let slot = &mut self.values[counter.index()];
        *slot = (*slot).max(v);
    }

    /// Current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter.index()]
    }

    /// Merges another run's counters: sums, except high-water marks which
    /// take the maximum (see [`Counter::merges_by_max`]).
    pub fn merge(&mut self, other: &Counters) {
        for c in Counter::ALL {
            if c.merges_by_max() {
                self.raise(c, other.get(c));
            } else {
                self.add(c, other.get(c));
            }
        }
    }
}

/// The metrics accumulated by one engine run (one subproblem, one worker).
///
/// Counts are always collected; durations only when constructed with
/// `RunMetrics::new(true)`. Aggregates across runs are formed with
/// [`RunMetrics::merge`], which is applied in deterministic allocation-site
/// order by the mode drivers — so a parallel verification produces exactly
/// the metrics of a serial one (modulo wall-clock nanoseconds).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Per-phase invocation counts and durations.
    pub phases: PhaseTimings,
    /// Scalar counters.
    pub counters: Counters,
    /// Structures stored per CFG location at the end of the run (empty in
    /// merged aggregates: location indices are not comparable across runs).
    pub per_location: Vec<u32>,
    timed: bool,
}

impl RunMetrics {
    /// Creates an accumulator; `timed` enables wall-clock phase sampling.
    pub fn new(timed: bool) -> RunMetrics {
        RunMetrics {
            timed,
            ..RunMetrics::default()
        }
    }

    /// An accumulator that counts but never reads the clock.
    pub fn disabled() -> RunMetrics {
        RunMetrics::default()
    }

    /// Whether wall-clock phase sampling is enabled.
    pub fn timed(&self) -> bool {
        self.timed
    }

    /// Runs `f` as one application of `phase`, sampling its duration when
    /// timing is enabled.
    #[inline]
    pub fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        if self.timed {
            let t0 = Instant::now();
            let r = f();
            self.phases
                .add(phase, 1, u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            r
        } else {
            self.phases.add(phase, 1, 0);
            f()
        }
    }

    /// Merges another run's metrics (phase sums, counter sums/maxima).
    /// `per_location` is intentionally left untouched: location indices are
    /// only meaningful within one run.
    pub fn merge(&mut self, other: &RunMetrics) {
        self.phases.merge(&other.phases);
        self.counters.merge(&other.counters);
        self.timed |= other.timed;
    }
}

/// One line of the NDJSON trace.
///
/// Events are rendered from a finished report's per-subproblem metrics, in
/// deterministic site order, so a trace is a reproducible record of a
/// verification, not a live wire format (wall-clock nanoseconds excepted).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A subproblem (one engine run) begins. `site` is the allocation site
    /// the run was restricted to, if any.
    SubproblemStart {
        /// Zero-based subproblem index, in deterministic site order.
        index: usize,
        /// Restricting allocation site (`None` for whole-program runs).
        site: Option<usize>,
    },
    /// One phase's accumulated count/duration within a subproblem.
    PhaseSample {
        /// Subproblem index.
        index: usize,
        /// The phase.
        phase: Phase,
        /// Applications of the phase.
        count: u64,
        /// Accumulated nanoseconds (0 when timing was disabled).
        nanos: u64,
    },
    /// One counter's value within a subproblem.
    CounterSample {
        /// Subproblem index.
        index: usize,
        /// The counter.
        counter: Counter,
        /// Its value.
        value: u64,
    },
    /// Structures stored at one CFG location at the end of a subproblem.
    LocationStructures {
        /// Subproblem index.
        index: usize,
        /// CFG node index.
        location: usize,
        /// Structures stored there.
        structures: usize,
    },
    /// The subproblem exhausted its own visit/structure budget.
    BudgetExhausted {
        /// Subproblem index.
        index: usize,
        /// Action applications performed before giving up.
        visits: u64,
    },
    /// The subproblem was aborted by a sibling's cancellation flag.
    Cancelled {
        /// Subproblem index.
        index: usize,
        /// Action applications performed before aborting.
        visits: u64,
    },
    /// A subproblem finished (its summary row).
    SubproblemFinish {
        /// Subproblem index.
        index: usize,
        /// Restricting allocation site (`None` for whole-program runs).
        site: Option<usize>,
        /// Action applications performed.
        visits: u64,
        /// Peak structures stored.
        structures: usize,
        /// Per-line errors reported.
        errors: usize,
        /// Whether the run reached a fixpoint within budget.
        complete: bool,
    },
}

/// Renders one event as its NDJSON line (without the trailing newline).
///
/// The schema is pinned by a golden-file test
/// (`crates/tvl/tests/trace_schema.rs`); extend it additively — downstream
/// tooling greps these lines. All emitted strings are fixed identifiers
/// ([`Phase::label`], [`Counter::label`]), so no JSON escaping is needed.
pub fn event_to_json(event: &Event) -> String {
    fn opt(site: Option<usize>) -> String {
        site.map_or_else(|| "null".to_owned(), |s| s.to_string())
    }
    match event {
        Event::SubproblemStart { index, site } => format!(
            "{{\"event\":\"subproblem_start\",\"subproblem\":{index},\"site\":{}}}",
            opt(*site)
        ),
        Event::PhaseSample {
            index,
            phase,
            count,
            nanos,
        } => format!(
            "{{\"event\":\"phase\",\"subproblem\":{index},\"phase\":\"{}\",\
             \"count\":{count},\"nanos\":{nanos}}}",
            phase.label()
        ),
        Event::CounterSample {
            index,
            counter,
            value,
        } => format!(
            "{{\"event\":\"counter\",\"subproblem\":{index},\"counter\":\"{}\",\
             \"value\":{value}}}",
            counter.label()
        ),
        Event::LocationStructures {
            index,
            location,
            structures,
        } => format!(
            "{{\"event\":\"location_structures\",\"subproblem\":{index},\
             \"location\":{location},\"structures\":{structures}}}"
        ),
        Event::BudgetExhausted { index, visits } => format!(
            "{{\"event\":\"budget_exhausted\",\"subproblem\":{index},\"visits\":{visits}}}"
        ),
        Event::Cancelled { index, visits } => {
            format!("{{\"event\":\"cancelled\",\"subproblem\":{index},\"visits\":{visits}}}")
        }
        Event::SubproblemFinish {
            index,
            site,
            visits,
            structures,
            errors,
            complete,
        } => format!(
            "{{\"event\":\"subproblem_finish\",\"subproblem\":{index},\"site\":{},\
             \"visits\":{visits},\"structures\":{structures},\"errors\":{errors},\
             \"complete\":{complete}}}",
            opt(*site)
        ),
        // Forward compatibility: unknown events serialize to a marker line
        // instead of breaking the stream.
        #[allow(unreachable_patterns)]
        _ => "{\"event\":\"unknown\"}".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_timings_add_and_merge() {
        let mut a = PhaseTimings::default();
        a.add(Phase::Focus, 3, 300);
        a.add(Phase::Canon, 1, 50);
        let mut b = PhaseTimings::default();
        b.add(Phase::Focus, 2, 100);
        a.merge(&b);
        assert_eq!(a.get(Phase::Focus), PhaseStats { count: 5, nanos: 400 });
        assert_eq!(a.get(Phase::Canon), PhaseStats { count: 1, nanos: 50 });
        assert_eq!(a.get(Phase::Merge), PhaseStats::default());
    }

    #[test]
    fn counters_merge_sums_except_peaks() {
        let mut a = Counters::default();
        a.add(Counter::InternHits, 10);
        a.raise(Counter::WorklistPeakDepth, 7);
        let mut b = Counters::default();
        b.add(Counter::InternHits, 5);
        b.raise(Counter::WorklistPeakDepth, 3);
        a.merge(&b);
        assert_eq!(a.get(Counter::InternHits), 15, "sums");
        assert_eq!(a.get(Counter::WorklistPeakDepth), 7, "max, not sum");
    }

    #[test]
    fn untimed_metrics_count_but_never_sample() {
        let mut m = RunMetrics::disabled();
        assert!(!m.timed());
        let v = m.time(Phase::Update, || 42);
        assert_eq!(v, 42);
        assert_eq!(m.phases.get(Phase::Update), PhaseStats { count: 1, nanos: 0 });
    }

    #[test]
    fn timed_metrics_sample_durations() {
        let mut m = RunMetrics::new(true);
        m.time(Phase::Focus, || std::thread::sleep(Duration::from_millis(2)));
        let s = m.phases.get(Phase::Focus);
        assert_eq!(s.count, 1);
        assert!(s.nanos >= 1_000_000, "slept 2ms, sampled {}ns", s.nanos);
    }

    #[test]
    fn run_metrics_merge_is_order_independent() {
        let mk = |hits: u64, depth: u64, focus: u64| {
            let mut m = RunMetrics::disabled();
            m.counters.add(Counter::InternHits, hits);
            m.counters.raise(Counter::WorklistPeakDepth, depth);
            m.phases.add(Phase::Focus, focus, 0);
            m
        };
        let (a, b, c) = (mk(1, 9, 2), mk(10, 4, 3), mk(100, 6, 5));
        let mut left = RunMetrics::disabled();
        for m in [&a, &b, &c] {
            left.merge(m);
        }
        let mut right = RunMetrics::disabled();
        for m in [&c, &a, &b] {
            right.merge(m);
        }
        assert_eq!(left, right);
        assert_eq!(left.counters.get(Counter::InternHits), 111);
        assert_eq!(left.counters.get(Counter::WorklistPeakDepth), 9);
        assert_eq!(left.phases.get(Phase::Focus).count, 10);
    }

    #[test]
    fn labels_are_stable_identifiers() {
        for p in Phase::ALL {
            assert!(p.label().chars().all(|c| c.is_ascii_lowercase()));
        }
        for c in Counter::ALL {
            assert!(c
                .label()
                .chars()
                .all(|ch| ch.is_ascii_lowercase() || ch == '_'));
        }
    }

    #[test]
    fn registry_order_is_the_index() {
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{c}");
        }
        assert_eq!(
            Counter::ALL[Counter::REPORTED.len()..],
            [Counter::SummaryHits, Counter::SharedSummaryHits, Counter::TransferCacheHits],
            "only the hidden stand-ins go unreported"
        );
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i, "{p}");
        }
    }
}
