//! The owned workspace API: artifacts registered once, verified many times.
//!
//! [`Verifier`] is a borrow-based one-shot builder: the caller owns the
//! program and spec, runs once, and throws the borrow away. A long-lived
//! client — the `hetsep serve` daemon, an editor integration, a REPL —
//! inverts that ownership: artifacts arrive over a wire, outlive any one
//! verification, and repeat verbatim. [`Workspace`] is the owned layer for
//! that shape:
//!
//! * **Artifacts are registered once, keyed by content fingerprint.**
//!   [`Workspace::add_program`] (and the spec/strategy twins) fingerprints
//!   the source text and — following the interner discipline used
//!   everywhere else in the workspace — compares the *full content* on a
//!   fingerprint match before reusing the stored artifact. Re-registering
//!   identical content is a lookup, not a re-parse; a fingerprint collision
//!   costs one string comparison, never a wrong artifact.
//! * **The cross-run stores are workspace-mounted.** Every
//!   [`Workspace::verify`] probes [`SharedTransferSession`] and
//!   [`SharedSummarySession`] snapshots of the transfer and summary stores
//!   and absorbs the run's computed entries back afterwards, so an
//!   unchanged (program, spec, strategy, mode) quadruple replays its
//!   transfers and procedure summaries from earlier requests instead of
//!   recomputing them — observation-equivalent by the [`crate::jobcache`]
//!   contract (verdicts, errors and visit counts identical; only the
//!   shared-cache counters and wall-clock change).
//! * **Verification is the one-shot API.** [`Workspace::verify`] is a
//!   short-lived [`Verifier`] over the registered artifacts with the
//!   mounted stores attached, so the daemon and the CLI share one front
//!   door and one engine entry point: their verdicts are byte-identical by
//!   construction, not by testing alone.

use std::collections::HashMap;

use hetsep_easl::ast::Spec;
use hetsep_ir::diag::Diagnostic;
use hetsep_ir::Program;
use hetsep_strategy::ast::Strategy;

use crate::engine::EngineConfig;
use crate::jobcache::{SharedTransferSession, TransferStore};
use crate::modes::{Mode, ModeKind, VerificationReport, Verifier};
use crate::summary::{SharedSummarySession, SummaryStore};
use crate::report::VerifyError;

/// FNV-1a 64-bit content fingerprint, rendered as 16 hex digits on the
/// wire. Fast and stable across processes; never trusted alone — every
/// fingerprint lookup re-compares the full content (see [`Workspace`]).
pub fn fingerprint(content: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in content.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Handle to a registered program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProgramId(u32);

/// Handle to a registered specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpecId(u32);

/// Handle to a registered separation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrategyId(u32);

/// The result of registering an artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registered<Id> {
    /// Handle for future requests.
    pub id: Id,
    /// Content fingerprint (see [`fingerprint`]).
    pub fingerprint: u64,
    /// `true` when identical content was already registered (no re-parse
    /// happened).
    pub reused: bool,
}

/// One stored artifact: the content it was registered under plus the parsed
/// value (the fingerprint lives in the index).
struct Entry<T> {
    content: String,
    value: T,
}

/// A content-addressed artifact registry (fingerprint index, full-content
/// confirmation).
struct ArtifactSet<T> {
    items: Vec<Entry<T>>,
    index: HashMap<u64, Vec<u32>>,
}

impl<T> Default for ArtifactSet<T> {
    fn default() -> ArtifactSet<T> {
        ArtifactSet {
            items: Vec::new(),
            index: HashMap::new(),
        }
    }
}

impl<T> ArtifactSet<T> {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn get(&self, ix: u32) -> &Entry<T> {
        &self.items[ix as usize]
    }

    /// Registers `content`, parsing with `build` only when the exact
    /// content is new. Returns `(index, fingerprint, reused)`.
    fn insert_with<E>(
        &mut self,
        content: &str,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<(u32, u64, bool), E> {
        let fp = fingerprint(content);
        if let Some(candidates) = self.index.get(&fp) {
            for &ix in candidates {
                if self.items[ix as usize].content == content {
                    return Ok((ix, fp, true));
                }
            }
        }
        let value = build()?;
        let ix = u32::try_from(self.items.len()).expect("artifact overflow");
        self.items.push(Entry {
            content: content.to_owned(),
            value,
        });
        self.index.entry(fp).or_default().push(ix);
        Ok((ix, fp, false))
    }
}

/// One verification request against registered artifacts.
///
/// `kind` is the *requested* mode family; the resolved family a run reports
/// under ([`VerifyOutput::kind`]) is recomputed from the strategy's `choose`
/// clauses by [`Mode::kind`], so a mislabeled request cannot change what the
/// engine does or how the result is labeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyRequest {
    /// The program to verify.
    pub program: ProgramId,
    /// The specification to verify against.
    pub spec: SpecId,
    /// Strategy for non-vanilla modes.
    pub strategy: Option<StrategyId>,
    /// Requested mode family.
    pub kind: ModeKind,
}

/// The result of [`Workspace::verify`]: the full report plus the resolved
/// mode family it ran under.
#[derive(Debug, Clone)]
pub struct VerifyOutput {
    /// The verification report (same type the one-shot API returns).
    pub report: VerificationReport,
    /// Resolved mode family (`single` vs. `multi` decided by the strategy).
    pub kind: ModeKind,
}

/// An owned, long-lived verification workspace: content-addressed artifact
/// registries plus mounted cross-request [`TransferStore`] and
/// [`SummaryStore`].
///
/// ```
/// use hetsep_core::{ModeKind, VerifyRequest, Workspace};
///
/// let mut ws = Workspace::new();
/// let program = ws
///     .add_program(
///         "program P uses IOStreams; void main() {\n\
///            InputStream f = new InputStream();\n\
///            f.read();\n\
///            f.close();\n\
///          }",
///     )
///     .unwrap();
/// let spec = ws.add_builtin_spec("IOStreams").unwrap();
/// let out = ws
///     .verify(&VerifyRequest {
///         program: program.id,
///         spec: spec.id,
///         strategy: None,
///         kind: ModeKind::Vanilla,
///     })
///     .unwrap();
/// assert!(out.report.verified());
/// // Registering identical content is a lookup, not a re-parse.
/// assert!(ws.add_builtin_spec("IOStreams").unwrap().reused);
/// ```
#[derive(Default)]
pub struct Workspace {
    programs: ArtifactSet<Program>,
    specs: ArtifactSet<Spec>,
    strategies: ArtifactSet<Strategy>,
    store: TransferStore,
    summaries: SummaryStore,
    config: EngineConfig,
    /// Memoized lint batches per artifact triple. Artifacts are
    /// content-addressed and immutable, so a key hit is exact — the cache
    /// stores the *unfiltered* batch and presentation policies (e.g. the
    /// daemon's built-in `W12x` filter) apply on top.
    lint_cache: HashMap<(ProgramId, Option<SpecId>, Option<StrategyId>), Vec<Diagnostic>>,
    lint_cache_hits: u64,
}

impl Workspace {
    /// Creates an empty workspace with the default [`EngineConfig`].
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Creates an empty workspace running every verification under
    /// `config` (`parallel.threads` is respected; for deterministic store
    /// bytes across request orders, keep it at 1 as the schedulers do).
    pub fn with_config(config: EngineConfig) -> Workspace {
        Workspace {
            config,
            ..Workspace::default()
        }
    }

    /// The engine configuration every verification runs under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Registers a client program by source text.
    ///
    /// # Errors
    ///
    /// Parse failures ([`VerifyError::Parse`]); nothing is registered then.
    pub fn add_program(&mut self, source: &str) -> Result<Registered<ProgramId>, VerifyError> {
        let (ix, fingerprint, reused) = self.programs.insert_with(source, || {
            hetsep_ir::parse_program(source).map_err(|e| VerifyError::Parse(e.to_string()))
        })?;
        Ok(Registered {
            id: ProgramId(ix),
            fingerprint,
            reused,
        })
    }

    /// Registers a specification by Easl source text.
    ///
    /// # Errors
    ///
    /// Parse failures ([`VerifyError::Parse`]).
    pub fn add_spec(&mut self, source: &str) -> Result<Registered<SpecId>, VerifyError> {
        let (ix, fingerprint, reused) = self.specs.insert_with(source, || {
            hetsep_easl::parse_spec(source).map_err(|e| VerifyError::Parse(e.to_string()))
        })?;
        Ok(Registered {
            id: SpecId(ix),
            fingerprint,
            reused,
        })
    }

    /// Registers a built-in specification by name (`JDBC`, `IOStreams`,
    /// ...). Content-keyed as `builtin:<name>`, so it never collides with a
    /// source-text spec.
    ///
    /// # Errors
    ///
    /// Unknown built-in names ([`VerifyError::Parse`]).
    pub fn add_builtin_spec(&mut self, name: &str) -> Result<Registered<SpecId>, VerifyError> {
        let content = format!("builtin:{name}");
        let (ix, fingerprint, reused) = self.specs.insert_with(&content, || {
            hetsep_easl::builtin::by_name(name)
                .ok_or_else(|| VerifyError::Parse(format!("unknown built-in spec `{name}`")))
        })?;
        Ok(Registered {
            id: SpecId(ix),
            fingerprint,
            reused,
        })
    }

    /// Registers a separation strategy by source text.
    ///
    /// # Errors
    ///
    /// Parse failures ([`VerifyError::Parse`]).
    pub fn add_strategy(&mut self, source: &str) -> Result<Registered<StrategyId>, VerifyError> {
        let (ix, fingerprint, reused) = self.strategies.insert_with(source, || {
            hetsep_strategy::parse_strategy(source).map_err(|e| VerifyError::Parse(e.to_string()))
        })?;
        Ok(Registered {
            id: StrategyId(ix),
            fingerprint,
            reused,
        })
    }

    /// The parsed program behind a handle.
    pub fn program(&self, id: ProgramId) -> &Program {
        &self.programs.get(id.0).value
    }

    /// The source text a program was registered with.
    pub fn program_source(&self, id: ProgramId) -> &str {
        &self.programs.get(id.0).content
    }

    /// The parsed specification behind a handle.
    pub fn spec(&self, id: SpecId) -> &Spec {
        &self.specs.get(id.0).value
    }

    /// The parsed strategy behind a handle.
    pub fn strategy(&self, id: StrategyId) -> &Strategy {
        &self.strategies.get(id.0).value
    }

    /// Number of distinct programs registered (by content).
    pub fn program_count(&self) -> usize {
        self.programs.len()
    }

    /// Number of distinct specifications registered.
    pub fn spec_count(&self) -> usize {
        self.specs.len()
    }

    /// Number of distinct strategies registered.
    pub fn strategy_count(&self) -> usize {
        self.strategies.len()
    }

    /// The mounted cross-request transfer store (e.g. to persist as the
    /// transfer section of a [`crate::CacheFile`]).
    pub fn store(&self) -> &TransferStore {
        &self.store
    }

    /// Mounts a transfer store (e.g. loaded with [`crate::CacheFile::load`]),
    /// replacing the current one. Verdicts never depend on the mounted
    /// store — only the shared-cache counters and wall-clock do.
    pub fn mount_store(&mut self, store: TransferStore) {
        self.store = store;
    }

    /// The mounted cross-request summary store (see [`crate::summary`]) —
    /// whole call-region evaluations memoized across requests, one level
    /// above the per-transfer store.
    pub fn summary_store(&self) -> &SummaryStore {
        &self.summaries
    }

    /// Mounts a summary store, replacing the current one. Like
    /// [`Workspace::mount_store`], verdicts never depend on it — only the
    /// summary counters and wall-clock do.
    pub fn mount_summary_store(&mut self, store: SummaryStore) {
        self.summaries = store;
    }

    /// Lints a registered artifact triple through `hetsep-analysis`'s
    /// `lint_all`, memoizing the full diagnostic batch: registered
    /// artifacts never change, so a repeated triple is a lookup, not a
    /// re-analysis. Cache hits are counted (see
    /// [`Workspace::lint_cache_hits`]) and surface in the daemon's
    /// `status` response.
    pub fn lint(
        &mut self,
        program: ProgramId,
        spec: Option<SpecId>,
        strategy: Option<StrategyId>,
    ) -> &[Diagnostic] {
        let key = (program, spec, strategy);
        if self.lint_cache.contains_key(&key) {
            self.lint_cache_hits += 1;
        } else {
            let diagnostics = hetsep_analysis::lint_all(
                self.program(program),
                Some(self.program_source(program)),
                spec.map(|id| self.spec(id)),
                strategy.map(|id| self.strategy(id)),
            );
            self.lint_cache.insert(key, diagnostics);
        }
        &self.lint_cache[&key]
    }

    /// Lint requests answered from the memoized cache so far.
    pub fn lint_cache_hits(&self) -> u64 {
        self.lint_cache_hits
    }

    /// Verifies a registered program.
    ///
    /// Runs a one-shot [`Verifier`] — reports are byte-identical to a fresh
    /// one-shot run of the same artifacts — with the workspace stores
    /// mounted: the run probes read-only snapshots and its computed
    /// transfers and summaries are absorbed back afterwards, so repeat and
    /// overlapping requests replay instead of recomputing (visible as
    /// `shared_cache_hits` and `shared_summary_hits` in the report metrics).
    ///
    /// # Errors
    ///
    /// A non-vanilla `kind` without a strategy ([`VerifyError::Strategy`]);
    /// translation failures, as in the one-shot API.
    pub fn verify(&mut self, request: &VerifyRequest) -> Result<VerifyOutput, VerifyError> {
        let strategy = request.strategy.map(|id| self.strategy(id).clone());
        let mode = Mode::from_kind(request.kind, strategy)?;
        let kind = mode.kind();
        let program = self.program(request.program);
        let spec = self.spec(request.spec);
        let session = SharedTransferSession::new(&self.store);
        let summary_session = SharedSummarySession::new(&self.summaries);
        let report = Verifier::new(program, spec)
            .mode(mode)
            .config(self.config.clone())
            .shared_cache(&session)
            .shared_summaries(&summary_session)
            .run()?;
        self.store.absorb(session.into_deltas());
        self.summaries.absorb(summary_session.into_deltas());
        Ok(VerifyOutput { report, kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsep_tvl::telemetry::Counter;

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

    #[test]
    fn identical_content_is_registered_once() {
        let mut ws = Workspace::new();
        let a = ws.add_program(OK).unwrap();
        let b = ws.add_program(OK).unwrap();
        assert!(!a.reused);
        assert!(b.reused);
        assert_eq!(a.id, b.id);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(ws.program_count(), 1);
        let c = ws.add_program(BUGGY).unwrap();
        assert!(!c.reused);
        assert_eq!(ws.program_count(), 2);
    }

    #[test]
    fn parse_failures_register_nothing() {
        let mut ws = Workspace::new();
        assert!(matches!(
            ws.add_program("program"),
            Err(VerifyError::Parse(_))
        ));
        assert_eq!(ws.program_count(), 0);
        assert!(ws.add_builtin_spec("Nope").is_err());
        assert_eq!(ws.spec_count(), 0);
        assert!(ws.add_strategy("gibberish").is_err());
        assert_eq!(ws.strategy_count(), 0);
    }

    #[test]
    fn repeat_verify_replays_from_the_workspace_store() {
        let mut ws = Workspace::new();
        let program = ws.add_program(BUGGY).unwrap().id;
        let spec = ws.add_builtin_spec("IOStreams").unwrap().id;
        let request = VerifyRequest {
            program,
            spec,
            strategy: None,
            kind: ModeKind::Vanilla,
        };
        let cold = ws.verify(&request).unwrap();
        assert!(ws.store().entry_count() > 0, "transfers were absorbed");
        let warm = ws.verify(&request).unwrap();
        let c = |r: &VerifyOutput, counter| r.report.metrics.counters.get(counter);
        assert!(c(&warm, Counter::SharedCacheHits) > 0);
        assert!(
            c(&warm, Counter::TransferCacheMisses) < c(&cold, Counter::TransferCacheMisses),
            "warm run computes strictly fewer transfers"
        );
        // Observation equivalence: verdicts and work statistics identical.
        assert_eq!(warm.report.errors, cold.report.errors);
        assert_eq!(warm.report.total_visits, cold.report.total_visits);
        assert_eq!(warm.report.max_space, cold.report.max_space);
    }

    #[test]
    fn workspace_report_matches_one_shot_verifier() {
        let mut ws = Workspace::new();
        let program = ws.add_program(BUGGY).unwrap().id;
        let spec = ws.add_builtin_spec("IOStreams").unwrap().id;
        let out = ws
            .verify(&VerifyRequest {
                program,
                spec,
                strategy: None,
                kind: ModeKind::Vanilla,
            })
            .unwrap();
        let one_shot = crate::verify(
            &hetsep_ir::parse_program(BUGGY).unwrap(),
            &hetsep_easl::builtin::iostreams(),
            &Mode::Vanilla,
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(out.report.errors, one_shot.errors);
        assert_eq!(out.report.total_visits, one_shot.total_visits);
        assert_eq!(out.report.max_space, one_shot.max_space);
        assert_eq!(out.report.complete, one_shot.complete);
    }

    #[test]
    fn requested_kind_resolves_against_the_strategy() {
        let mut ws = Workspace::new();
        let program = ws.add_program(OK).unwrap().id;
        let spec = ws.add_builtin_spec("IOStreams").unwrap().id;
        let strategy = ws
            .add_strategy(hetsep_strategy::builtin::IOSTREAM_SINGLE)
            .unwrap()
            .id;
        // `multi` requested, single-choice strategy given: resolves (and
        // reports) as `single`.
        let out = ws
            .verify(&VerifyRequest {
                program,
                spec,
                strategy: Some(strategy),
                kind: ModeKind::Multi,
            })
            .unwrap();
        assert_eq!(out.kind, ModeKind::Single);
        assert!(out.report.verified());
        // A strategy-less non-vanilla request is a strategy error.
        assert!(matches!(
            ws.verify(&VerifyRequest {
                program,
                spec,
                strategy: None,
                kind: ModeKind::Sim,
            }),
            Err(VerifyError::Strategy(_))
        ));
    }
}
