//! The `hetsep serve` wire protocol: newline-delimited JSON requests and
//! responses.
//!
//! One JSON object per line in each direction. Requests carry an `"op"`
//! discriminator; responses always carry `"ok"` (success flag) and echo the
//! `"op"` they answer. The full protocol — operations, fields, and error
//! behavior — is documented in `docs/PROTOCOL.md`; the golden round-trip
//! test (`crates/ir/tests/protocol_roundtrip.rs`) pins the byte-level
//! format the same way the NDJSON trace schema test pins telemetry.
//!
//! The types here are deliberately *wire-shaped*: artifact references are
//! client-chosen names (strings), modes are mode labels, and verification
//! errors are flat `(line, label, definite)` records. Resolution against
//! the live workspace — names to artifacts, labels to [`Mode`]s, builtin
//! spec lookup — happens in `hetsep-core`'s `Session`, which keeps this
//! crate at the bottom of the dependency DAG.
//!
//! Serialization is hand-rolled over [`crate::json`] (the workspace builds
//! offline, without serde); parsing goes through the same module's
//! [`crate::json::parse`], so clients and tests can consume responses with
//! the identical primitives the daemon emits them with.
//!
//! [`Mode`]: ../../hetsep_core/enum.Mode.html

use std::fmt::Write as _;

use crate::diag::Diagnostic;
use crate::json::{self, JsonValue};

/// One client request (client → daemon, one per line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Register (or replace) a program under a client-chosen name.
    LoadProgram {
        /// Name future requests refer to the program by.
        name: String,
        /// Client-language source text.
        source: String,
    },
    /// Register a specification: either Easl `source` or a `builtin` spec
    /// name (`JDBC`, `IOStreams`, ...). Exactly one must be given.
    LoadSpec {
        /// Name future requests refer to the spec by.
        name: String,
        /// Easl source text.
        source: Option<String>,
        /// Built-in specification name.
        builtin: Option<String>,
    },
    /// Register a separation strategy under a client-chosen name.
    LoadStrategy {
        /// Name future requests refer to the strategy by.
        name: String,
        /// Strategy-language source text.
        source: String,
    },
    /// Verify a loaded program.
    Verify {
        /// Name of a loaded program.
        program: String,
        /// Name of a loaded spec; defaults to the built-in named by the
        /// program's `uses` clause.
        spec: Option<String>,
        /// Name of a loaded strategy (required by non-vanilla modes).
        strategy: Option<String>,
        /// Mode label (`vanilla`, `single`/`sep`, `multi`, `sim`, `inc`);
        /// defaults to `vanilla` without a strategy, `single` with one.
        mode: Option<String>,
    },
    /// Run the static pre-verification lints on a loaded program.
    Lint {
        /// Name of a loaded program.
        program: String,
        /// Name of a loaded spec (enables spec lints `W12x`).
        spec: Option<String>,
        /// Name of a loaded strategy (enables strategy lints `W11x`).
        strategy: Option<String>,
    },
    /// Report workspace statistics.
    Status,
    /// Flush state and exit the daemon loop.
    Shutdown,
}

impl Request {
    /// The operation label this request serializes with (and responses
    /// echo).
    pub fn op(&self) -> &'static str {
        match self {
            Request::LoadProgram { .. } => "load_program",
            Request::LoadSpec { .. } => "load_spec",
            Request::LoadStrategy { .. } => "load_strategy",
            Request::Verify { .. } => "verify",
            Request::Lint { .. } => "lint",
            Request::Status => "status",
            Request::Shutdown => "shutdown",
        }
    }

    /// Serializes the request as its wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"op\":{}", json::string(self.op()));
        let mut field = |key: &str, value: &str| {
            let _ = write!(out, ",\"{key}\":{}", json::string(value));
        };
        match self {
            Request::LoadProgram { name, source } => {
                field("name", name);
                field("source", source);
            }
            Request::LoadSpec {
                name,
                source,
                builtin,
            } => {
                field("name", name);
                if let Some(s) = source {
                    field("source", s);
                }
                if let Some(b) = builtin {
                    field("builtin", b);
                }
            }
            Request::LoadStrategy { name, source } => {
                field("name", name);
                field("source", source);
            }
            Request::Verify {
                program,
                spec,
                strategy,
                mode,
            } => {
                field("program", program);
                if let Some(s) = spec {
                    field("spec", s);
                }
                if let Some(s) = strategy {
                    field("strategy", s);
                }
                if let Some(m) = mode {
                    field("mode", m);
                }
            }
            Request::Lint {
                program,
                spec,
                strategy,
            } => {
                field("program", program);
                if let Some(s) = spec {
                    field("spec", s);
                }
                if let Some(s) = strategy {
                    field("strategy", s);
                }
            }
            Request::Status | Request::Shutdown => {}
        }
        out.push('}');
        out
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing/unknown `"op"`, missing required fields,
    /// or wrong field types all yield a message suitable for an error
    /// response.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = json::parse(line)?;
        if !matches!(v, JsonValue::Object(_)) {
            return Err("request must be a JSON object".into());
        }
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .ok_or_else(|| format!("missing field `{key}`"))?
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("field `{key}` must be a string"))
        };
        let opt_field = |key: &str| -> Result<Option<String>, String> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(value) => value
                    .as_str()
                    .map(|s| Some(s.to_owned()))
                    .ok_or_else(|| format!("field `{key}` must be a string")),
            }
        };
        let op = str_field("op")?;
        match op.as_str() {
            "load_program" => Ok(Request::LoadProgram {
                name: str_field("name")?,
                source: str_field("source")?,
            }),
            "load_spec" => {
                let req = Request::LoadSpec {
                    name: str_field("name")?,
                    source: opt_field("source")?,
                    builtin: opt_field("builtin")?,
                };
                if let Request::LoadSpec {
                    source, builtin, ..
                } = &req
                {
                    if source.is_some() == builtin.is_some() {
                        return Err(
                            "load_spec needs exactly one of `source` and `builtin`".into()
                        );
                    }
                }
                Ok(req)
            }
            "load_strategy" => Ok(Request::LoadStrategy {
                name: str_field("name")?,
                source: str_field("source")?,
            }),
            "verify" => Ok(Request::Verify {
                program: str_field("program")?,
                spec: opt_field("spec")?,
                strategy: opt_field("strategy")?,
                mode: opt_field("mode")?,
            }),
            "lint" => Ok(Request::Lint {
                program: str_field("program")?,
                spec: opt_field("spec")?,
                strategy: opt_field("strategy")?,
            }),
            "status" => Ok(Request::Status),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// One reported property violation on the wire (mirrors
/// `hetsep-core`'s `ErrorReport`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// 1-based source line of the violating operation.
    pub line: u32,
    /// Human-readable description of the violated `requires`.
    pub label: String,
    /// Definite (`error`) vs. possible (`possible error`).
    pub definite: bool,
}

/// The payload of a successful `verify` response.
///
/// Deliberately wall-clock free: every field is deterministic for a given
/// (program, spec, strategy, mode, store snapshot), so scripted sessions
/// diff byte-identically (the CI serve smoke gate relies on this).
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyOutcome {
    /// Echo of the request's program name.
    pub program: String,
    /// Resolved mode label (`vanilla`, `single`, `multi`, `sim`, `inc`).
    pub mode: String,
    /// `"verified"`, `"errors"`, or `"incomplete"`.
    pub verdict: String,
    /// Whether every run completed within budget.
    pub complete: bool,
    /// Total action applications.
    pub visits: u64,
    /// Peak structures stored by a single run.
    pub space: u64,
    /// Subproblems analyzed (including pruned).
    pub subproblems: u64,
    /// Subproblems the preanalysis pre-pass proved safe and skipped.
    pub pruned: u64,
    /// May-share heap components the preanalysis found (0 when the
    /// pre-pass did not run).
    pub components: u64,
    /// Preanalysis structure-count estimate (not a bound), summed over the
    /// site family (0 when the pre-pass did not run).
    pub estimated_structures: u64,
    /// Per-run transfer-cache hits.
    pub cache_hits: u64,
    /// Per-run transfer-cache misses (computed transfers).
    pub cache_misses: u64,
    /// Workspace-store hits (transfers replayed from previous requests).
    pub shared_hits: u64,
    /// Workspace-store probes that missed.
    pub shared_misses: u64,
    /// Call-region evaluations: structures popped at a region-entry node.
    pub call_evaluations: u64,
    /// Deduplicated per-line violation reports.
    pub errors: Vec<WireError>,
}

/// Workspace statistics reported by `status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatusInfo {
    /// Distinct programs registered (by content).
    pub programs: u64,
    /// Distinct specifications registered.
    pub specs: u64,
    /// Distinct strategies registered.
    pub strategies: u64,
    /// Requests handled so far (including this one).
    pub requests: u64,
    /// Verify requests handled so far.
    pub verifies: u64,
    /// Lint requests answered from the workspace lint cache.
    pub lint_cache_hits: u64,
    /// Memoized transfers in the workspace store.
    pub store_entries: u64,
    /// Distinct structures in the workspace store's pool.
    pub store_structures: u64,
    /// Programs holding a prepared verification (translations and pruning
    /// kept for a repeat of their latest verify request).
    pub prepared: u64,
    /// Verify requests that reused their program's prepared verification.
    pub prepared_hits: u64,
    /// Encoded size in bytes of the workspace store: the size of the cache
    /// file it would save to.
    pub store_bytes: u64,
}

/// One daemon response (daemon → client, one per line).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// An artifact was registered: its content fingerprint (16 hex digits)
    /// and whether that exact content was already known.
    Loaded {
        /// The `load_*` op answered.
        op: &'static str,
        /// Echo of the request's artifact name.
        name: String,
        /// Content fingerprint of the artifact source.
        fingerprint: String,
        /// `true` when identical content was already registered.
        reused: bool,
    },
    /// A completed verification.
    Verify(VerifyOutcome),
    /// Lint results; diagnostics serialize via [`Diagnostic::to_json`] —
    /// the workspace's single JSON rendering of a diagnostic.
    Lint {
        /// Echo of the request's program name.
        program: String,
        /// `E0xx` diagnostics in the batch.
        errors: u64,
        /// `W1xx` diagnostics in the batch.
        warnings: u64,
        /// The diagnostics, sorted for presentation.
        diagnostics: Vec<Diagnostic>,
    },
    /// Workspace statistics.
    Status(StatusInfo),
    /// Acknowledges shutdown; the daemon exits after writing this line.
    Shutdown,
    /// The request failed; `op` echoes the failing operation (`"invalid"`
    /// when the request line could not be parsed at all).
    Error {
        /// The op that failed.
        op: String,
        /// What went wrong.
        message: String,
    },
}

impl Response {
    /// Serializes the response as its wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Response::Loaded {
                op,
                name,
                fingerprint,
                reused,
            } => format!(
                "{{\"ok\":true,\"op\":{},\"name\":{},\"fingerprint\":{},\"reused\":{reused}}}",
                json::string(op),
                json::string(name),
                json::string(fingerprint),
            ),
            Response::Verify(o) => {
                let mut out = format!(
                    "{{\"ok\":true,\"op\":\"verify\",\"program\":{},\"mode\":{},\
                     \"verdict\":{},\"complete\":{},\"visits\":{},\"space\":{},\
                     \"subproblems\":{},\"pruned\":{},\"components\":{},\
                     \"estimated_structures\":{},\"cache_hits\":{},\"cache_misses\":{},\
                     \"shared_hits\":{},\"shared_misses\":{},\
                     \"call_evaluations\":{},\"errors\":[",
                    json::string(&o.program),
                    json::string(&o.mode),
                    json::string(&o.verdict),
                    o.complete,
                    o.visits,
                    o.space,
                    o.subproblems,
                    o.pruned,
                    o.components,
                    o.estimated_structures,
                    o.cache_hits,
                    o.cache_misses,
                    o.shared_hits,
                    o.shared_misses,
                    o.call_evaluations,
                );
                for (ix, e) in o.errors.iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}{{\"line\":{},\"label\":{},\"definite\":{}}}",
                        if ix == 0 { "" } else { "," },
                        e.line,
                        json::string(&e.label),
                        e.definite,
                    );
                }
                out.push_str("]}");
                out
            }
            Response::Lint {
                program,
                errors,
                warnings,
                diagnostics,
            } => {
                let mut out = format!(
                    "{{\"ok\":true,\"op\":\"lint\",\"program\":{},\"errors\":{errors},\
                     \"warnings\":{warnings},\"diagnostics\":[",
                    json::string(program),
                );
                for (ix, d) in diagnostics.iter().enumerate() {
                    if ix > 0 {
                        out.push(',');
                    }
                    out.push_str(&d.to_json());
                }
                out.push_str("]}");
                out
            }
            Response::Status(s) => format!(
                "{{\"ok\":true,\"op\":\"status\",\"programs\":{},\"specs\":{},\
                 \"strategies\":{},\"requests\":{},\"verifies\":{},\
                 \"lint_cache_hits\":{},\"store_entries\":{},\"store_structures\":{},\
                 \"prepared\":{},\"prepared_hits\":{},\
                 \"store_bytes\":{}}}",
                s.programs,
                s.specs,
                s.strategies,
                s.requests,
                s.verifies,
                s.lint_cache_hits,
                s.store_entries,
                s.store_structures,
                s.prepared,
                s.prepared_hits,
                s.store_bytes,
            ),
            Response::Shutdown => "{\"ok\":true,\"op\":\"shutdown\"}".to_owned(),
            Response::Error { op, message } => format!(
                "{{\"ok\":false,\"op\":{},\"error\":{}}}",
                json::string(op),
                json::string(message),
            ),
        }
    }

    /// Convenience constructor for error responses.
    pub fn error(op: impl Into<String>, message: impl Into<String>) -> Response {
        Response::Error {
            op: op.into(),
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parse_rejects_malformed_input() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("[1,2]").is_err());
        assert!(Request::parse("{\"op\":\"nope\"}").is_err());
        assert!(Request::parse("{\"op\":\"verify\"}").is_err());
        assert!(Request::parse("{\"op\":\"load_program\",\"name\":\"a\"}").is_err());
        assert!(Request::parse("{\"op\":\"load_spec\",\"name\":\"a\"}").is_err());
        assert!(Request::parse(
            "{\"op\":\"load_spec\",\"name\":\"a\",\"source\":\"x\",\"builtin\":\"JDBC\"}"
        )
        .is_err());
        assert!(Request::parse("{\"op\":\"verify\",\"program\":7}").is_err());
    }

    #[test]
    fn null_optional_fields_read_as_absent() {
        let r = Request::parse(
            "{\"op\":\"verify\",\"program\":\"p\",\"spec\":null,\"mode\":null}",
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Verify {
                program: "p".into(),
                spec: None,
                strategy: None,
                mode: None,
            }
        );
    }

    #[test]
    fn error_response_escapes_messages() {
        let r = Response::error("verify", "unknown program `a \"b\"`");
        assert_eq!(
            r.to_json(),
            "{\"ok\":false,\"op\":\"verify\",\"error\":\"unknown program `a \\\"b\\\"`\"}"
        );
    }
}
