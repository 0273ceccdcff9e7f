//! The daemon session: named artifacts over an owned [`Workspace`],
//! dispatching the `hetsep serve` wire protocol.
//!
//! The protocol types ([`Request`], [`Response`]) live in `hetsep-ir` and
//! are deliberately string-shaped; this module is where they meet the
//! engine. A [`Session`] maps client-chosen *names* onto the workspace's
//! content-addressed artifact handles (two names bound to identical content
//! share one parsed artifact), resolves mode labels through
//! [`ModeKind`]'s `FromStr`, and renders reports back into wire form.
//!
//! The transport is someone else's job: [`Session::handle_line`] is a pure
//! `&str → Response` step, so the daemon loop (`hetsep serve`), an in-process
//! test, and a future socket transport all drive the identical state machine.
//! Responses are wall-clock free (see [`VerifyOutcome`]), which is what lets
//! scripted sessions diff byte-identically in CI.

use std::collections::HashMap;

use hetsep_ir::diag::Severity;
use hetsep_ir::{Request, Response, StatusInfo, VerifyOutcome, WireError};
use hetsep_tvl::telemetry::Counter;

use crate::engine::EngineConfig;
use crate::modes::ModeKind;
use crate::workspace::{ProgramId, SpecId, StrategyId, VerifyRequest, Workspace};

/// How a named spec was registered — source-text specs get the `W12x` spec
/// lints, built-ins are a trusted standard library (mirroring the CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpecOrigin {
    Source,
    Builtin,
}

/// A long-lived verification session: an owned [`Workspace`] plus the
/// client-visible name bindings and request counters.
///
/// Names are bindings, not artifacts: re-loading a name with new content
/// re-points the binding (the workspace keeps both contents registered, so
/// flipping back replays without re-parsing — and with warm transfer
/// caches).
#[derive(Default)]
pub struct Session {
    workspace: Workspace,
    programs: HashMap<String, ProgramId>,
    specs: HashMap<String, (SpecId, SpecOrigin)>,
    strategies: HashMap<String, StrategyId>,
    requests: u64,
    verifies: u64,
}

impl Session {
    /// Creates a session over an empty workspace with the default
    /// [`EngineConfig`].
    pub fn new() -> Session {
        Session::default()
    }

    /// Creates a session whose verifications run under `config`.
    pub fn with_config(config: EngineConfig) -> Session {
        Session::with_workspace(Workspace::with_config(config))
    }

    /// Creates a session over an existing workspace (e.g. one with a
    /// persisted transfer store already mounted).
    pub fn with_workspace(workspace: Workspace) -> Session {
        Session {
            workspace,
            ..Session::default()
        }
    }

    /// The underlying workspace (e.g. to persist its transfer store).
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// Mutable access to the underlying workspace.
    pub fn workspace_mut(&mut self) -> &mut Workspace {
        &mut self.workspace
    }

    /// Handles one wire line: parse, dispatch, respond. Never fails — a
    /// malformed line yields an `ok:false` response with op `"invalid"`.
    pub fn handle_line(&mut self, line: &str) -> Response {
        match Request::parse(line) {
            Ok(request) => self.handle(&request),
            Err(message) => {
                self.requests += 1;
                Response::error("invalid", message)
            }
        }
    }

    /// Handles one parsed request.
    pub fn handle(&mut self, request: &Request) -> Response {
        self.requests += 1;
        match request {
            Request::LoadProgram { name, source } => self.load_program(name, source),
            Request::LoadSpec {
                name,
                source,
                builtin,
            } => self.load_spec(name, source.as_deref(), builtin.as_deref()),
            Request::LoadStrategy { name, source } => self.load_strategy(name, source),
            Request::Verify {
                program,
                spec,
                strategy,
                mode,
            } => self.verify(program, spec.as_deref(), strategy.as_deref(), mode.as_deref()),
            Request::Lint {
                program,
                spec,
                strategy,
            } => self.lint(program, spec.as_deref(), strategy.as_deref()),
            Request::Status => Response::Status(self.status()),
            Request::Shutdown => Response::Shutdown,
        }
    }

    fn load_program(&mut self, name: &str, source: &str) -> Response {
        match self.workspace.add_program(source) {
            Ok(reg) => {
                self.programs.insert(name.to_owned(), reg.id);
                loaded("load_program", name, reg.fingerprint, reg.reused)
            }
            Err(e) => Response::error("load_program", e.to_string()),
        }
    }

    fn load_spec(&mut self, name: &str, source: Option<&str>, builtin: Option<&str>) -> Response {
        let result = match (source, builtin) {
            (Some(src), None) => self
                .workspace
                .add_spec(src)
                .map(|reg| (reg, SpecOrigin::Source)),
            (None, Some(b)) => self
                .workspace
                .add_builtin_spec(b)
                .map(|reg| (reg, SpecOrigin::Builtin)),
            _ => {
                return Response::error(
                    "load_spec",
                    "load_spec needs exactly one of `source` and `builtin`",
                )
            }
        };
        match result {
            Ok((reg, origin)) => {
                self.specs.insert(name.to_owned(), (reg.id, origin));
                loaded("load_spec", name, reg.fingerprint, reg.reused)
            }
            Err(e) => Response::error("load_spec", e.to_string()),
        }
    }

    fn load_strategy(&mut self, name: &str, source: &str) -> Response {
        match self.workspace.add_strategy(source) {
            Ok(reg) => {
                self.strategies.insert(name.to_owned(), reg.id);
                loaded("load_strategy", name, reg.fingerprint, reg.reused)
            }
            Err(e) => Response::error("load_strategy", e.to_string()),
        }
    }

    /// Resolves a spec reference: a loaded name, or (absent) the built-in
    /// named by the program's `uses` clause. The error is the in-band
    /// message for the caller's error response.
    fn resolve_spec(
        &mut self,
        spec: Option<&str>,
        program: ProgramId,
    ) -> Result<(SpecId, SpecOrigin), String> {
        match spec {
            Some(name) => self
                .specs
                .get(name)
                .copied()
                .ok_or_else(|| format!("unknown spec `{name}`")),
            None => {
                let uses = self.workspace.program(program).uses.clone();
                self.workspace
                    .add_builtin_spec(&uses)
                    .map(|reg| (reg.id, SpecOrigin::Builtin))
                    .map_err(|_| {
                        format!(
                            "program uses `{uses}`, which is not a built-in spec; \
                             load a spec and name it"
                        )
                    })
            }
        }
    }

    fn verify(
        &mut self,
        program: &str,
        spec: Option<&str>,
        strategy: Option<&str>,
        mode: Option<&str>,
    ) -> Response {
        self.verifies += 1;
        let Some(&program_id) = self.programs.get(program) else {
            return Response::error("verify", format!("unknown program `{program}`"));
        };
        let (spec_id, _) = match self.resolve_spec(spec, program_id) {
            Ok(s) => s,
            Err(msg) => return Response::error("verify", msg),
        };
        let strategy_id = match strategy {
            None => None,
            Some(name) => match self.strategies.get(name) {
                Some(&id) => Some(id),
                None => {
                    return Response::error("verify", format!("unknown strategy `{name}`"));
                }
            },
        };
        let kind = match mode {
            Some(label) => match label.parse::<ModeKind>() {
                Ok(k) => k,
                Err(e) => return Response::error("verify", e),
            },
            None if strategy_id.is_some() => ModeKind::Single,
            None => ModeKind::Vanilla,
        };
        let request = VerifyRequest {
            program: program_id,
            spec: spec_id,
            strategy: strategy_id,
            kind,
        };
        match self.workspace.verify(&request) {
            Ok(out) => {
                let r = &out.report;
                let c = |counter| r.metrics.counters.get(counter);
                Response::Verify(VerifyOutcome {
                    program: program.to_owned(),
                    mode: out.kind.as_str().to_owned(),
                    verdict: r.verdict().to_owned(),
                    complete: r.complete,
                    visits: r.total_visits,
                    space: r.max_space as u64,
                    subproblems: r.subproblems.len() as u64,
                    pruned: c(Counter::SubproblemsPruned),
                    components: r.preanalysis.map_or(0, |p| p.components),
                    estimated_structures: r.preanalysis.map_or(0, |p| p.estimated_structures),
                    cache_hits: c(Counter::TransferCacheHits),
                    cache_misses: c(Counter::TransferCacheMisses),
                    shared_hits: c(Counter::SharedCacheHits),
                    shared_misses: c(Counter::SharedCacheMisses),
                    call_evaluations: c(Counter::CallEvaluations),
                    summary_hits: c(Counter::SummaryHits),
                    summary_misses: c(Counter::SummaryMisses),
                    shared_summary_hits: c(Counter::SharedSummaryHits),
                    errors: r
                        .errors
                        .iter()
                        .map(|e| WireError {
                            line: e.line,
                            label: e.label.clone(),
                            definite: e.definite,
                        })
                        .collect(),
                })
            }
            Err(e) => Response::error("verify", e.to_string()),
        }
    }

    fn lint(&mut self, program: &str, spec: Option<&str>, strategy: Option<&str>) -> Response {
        let Some(&program_id) = self.programs.get(program) else {
            return Response::error("lint", format!("unknown program `{program}`"));
        };
        // Strategy lints need a spec to judge against; a program whose
        // `uses` clause names no built-in can still be program-linted.
        let resolved_spec = match spec {
            Some(_) => match self.resolve_spec(spec, program_id) {
                Ok(s) => Some(s),
                Err(msg) => return Response::error("lint", msg),
            },
            None => self.resolve_spec(None, program_id).ok(),
        };
        let strategy_id = match strategy {
            None => None,
            Some(name) => match self.strategies.get(name) {
                Some(&id) => Some(id),
                None => {
                    return Response::error("lint", format!("unknown strategy `{name}`"));
                }
            },
        };
        if strategy_id.is_some() && resolved_spec.is_none() {
            let uses = &self.workspace.program(program_id).uses;
            return Response::error(
                "lint",
                format!(
                    "program uses `{uses}`, which is not a built-in spec; \
                     load a spec and name it"
                ),
            );
        }
        // The workspace memoizes the unfiltered batch per artifact triple
        // (repeat lints of registered — hence immutable — artifacts are
        // cache lookups, reported via `lint_cache_hits` in `status`).
        let diagnostics = self
            .workspace
            .lint(program_id, resolved_spec.map(|(id, _)| id), strategy_id)
            .to_vec();
        // Built-in specs are a trusted standard library: they model more
        // methods than any one program calls, so spec lints (`W12x`) only
        // make sense for source-text specs (mirrors the CLI's rule).
        let from_source = matches!(resolved_spec, Some((_, SpecOrigin::Source)));
        let diagnostics: Vec<_> = diagnostics
            .into_iter()
            .filter(|d| from_source || !d.code.starts_with("W12"))
            .collect();
        let errors = diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count() as u64;
        let warnings = diagnostics.len() as u64 - errors;
        Response::Lint {
            program: program.to_owned(),
            errors,
            warnings,
            diagnostics,
        }
    }

    fn status(&self) -> StatusInfo {
        StatusInfo {
            programs: self.workspace.program_count() as u64,
            specs: self.workspace.spec_count() as u64,
            strategies: self.workspace.strategy_count() as u64,
            requests: self.requests,
            verifies: self.verifies,
            lint_cache_hits: self.workspace.lint_cache_hits(),
            store_entries: self.workspace.store().entry_count() as u64,
            store_structures: self.workspace.store().structure_count() as u64,
            summary_entries: self.workspace.summary_store().entry_count() as u64,
        }
    }
}

/// Builds a `Loaded` response with the wire's 16-hex-digit fingerprint.
fn loaded(op: &'static str, name: &str, fingerprint: u64, reused: bool) -> Response {
    Response::Loaded {
        op,
        name: name.to_owned(),
        fingerprint: format!("{fingerprint:016x}"),
        reused,
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

    fn load(session: &mut Session, name: &str, source: &str) -> Response {
        session.handle(&Request::LoadProgram {
            name: name.into(),
            source: source.into(),
        })
    }

    fn verify(session: &mut Session, name: &str) -> VerifyOutcome {
        match session.handle(&Request::Verify {
            program: name.into(),
            spec: None,
            strategy: None,
            mode: None,
        }) {
            Response::Verify(o) => o,
            other => panic!("expected verify response, got {other:?}"),
        }
    }

    #[test]
    fn load_verify_reload_verify() {
        let mut session = Session::new();
        assert!(matches!(
            load(&mut session, "p", BUGGY),
            Response::Loaded { reused: false, .. }
        ));
        let cold = verify(&mut session, "p");
        assert_eq!(cold.verdict, "errors");
        assert_eq!(cold.errors.len(), 1);
        assert_eq!(cold.mode, "vanilla");

        // Re-binding the same name to fixed content re-verifies cleanly.
        load(&mut session, "p", OK);
        let fixed = verify(&mut session, "p");
        assert_eq!(fixed.verdict, "verified");
        assert!(fixed.errors.is_empty());

        // Flipping back to the original content reuses the artifact and
        // replays transfers from the workspace store.
        assert!(matches!(
            load(&mut session, "p", BUGGY),
            Response::Loaded { reused: true, .. }
        ));
        let warm = verify(&mut session, "p");
        assert_eq!(warm.verdict, cold.verdict);
        assert_eq!(warm.errors, cold.errors);
        assert_eq!(warm.visits, cold.visits);
        assert!(warm.shared_hits > 0);
        assert!(warm.cache_misses < cold.cache_misses);
    }

    #[test]
    fn unknown_names_and_modes_error_without_state_changes() {
        let mut session = Session::new();
        let r = session.handle(&Request::Verify {
            program: "nope".into(),
            spec: None,
            strategy: None,
            mode: None,
        });
        assert!(matches!(r, Response::Error { ref op, .. } if op == "verify"));
        load(&mut session, "p", OK);
        let r = session.handle(&Request::Verify {
            program: "p".into(),
            spec: None,
            strategy: None,
            mode: Some("warp".into()),
        });
        assert!(matches!(r, Response::Error { .. }));
        let r = session.handle(&Request::Verify {
            program: "p".into(),
            spec: None,
            strategy: None,
            mode: Some("sim".into()),
        });
        assert!(
            matches!(r, Response::Error { ref message, .. } if message.contains("strategy")),
            "non-vanilla mode without a strategy: {r:?}"
        );
    }

    #[test]
    fn status_counts_artifacts_by_content() {
        let mut session = Session::new();
        load(&mut session, "a", OK);
        load(&mut session, "b", OK); // same content, second name
        load(&mut session, "c", BUGGY);
        verify(&mut session, "a");
        let Response::Status(s) = session.handle(&Request::Status) else {
            panic!("expected status");
        };
        assert_eq!(s.programs, 2, "two names, two distinct contents");
        assert_eq!(s.specs, 1, "the builtin IOStreams spec, registered once");
        assert_eq!(s.verifies, 1);
        assert_eq!(s.requests, 5, "three loads, one verify, this status");
        assert!(s.store_entries > 0);
    }

    #[test]
    fn lint_reports_diagnostics_and_handles_malformed_lines() {
        let mut session = Session::new();
        let unused = "program P uses IOStreams; void main() {\n\
            InputStream f = new InputStream();\n\
            f.read();\n\
            f.close();\n\
            InputStream g = null;\n\
        }";
        load(&mut session, "p", unused);
        let r = session.handle(&Request::Lint {
            program: "p".into(),
            spec: None,
            strategy: None,
        });
        let Response::Lint {
            errors, warnings, ..
        } = r
        else {
            panic!("expected lint response, got {r:?}");
        };
        assert_eq!(errors, 0);
        assert!(warnings > 0, "unused stream should warn");

        let r = session.handle_line("this is not json");
        assert!(matches!(r, Response::Error { ref op, .. } if op == "invalid"));
        let r = session.handle_line("{\"op\":\"shutdown\"}");
        assert!(matches!(r, Response::Shutdown));
    }
}
