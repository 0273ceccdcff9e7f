//! Golden byte-level pins for the `hetsep serve` wire protocol.
//!
//! Every request and response shape is pinned to its exact wire bytes, the
//! way the telemetry schema test pins the NDJSON trace format: the protocol
//! is a public surface (documented in `docs/PROTOCOL.md`, diffed against a
//! golden transcript by CI), so an accidental key rename, reorder, or
//! whitespace change must fail a test, not a downstream client.
//!
//! Requests additionally round-trip: `parse(to_json(r)) == r`, and parsing
//! is tolerant of key order and unknown keys (clients may extend lines).

use hetsep_ir::json::{self, JsonValue};
use hetsep_ir::{Diagnostic, Request, Response, StatusInfo, VerifyOutcome, WireError};

/// Every request shape, paired with its exact wire line.
fn request_goldens() -> Vec<(Request, &'static str)> {
    vec![
        (
            Request::LoadProgram {
                name: "p".into(),
                source: "program P uses IOStreams;\nvoid main() {}".into(),
            },
            "{\"op\":\"load_program\",\"name\":\"p\",\
             \"source\":\"program P uses IOStreams;\\nvoid main() {}\"}",
        ),
        (
            Request::LoadSpec {
                name: "io".into(),
                source: None,
                builtin: Some("IOStreams".into()),
            },
            "{\"op\":\"load_spec\",\"name\":\"io\",\"builtin\":\"IOStreams\"}",
        ),
        (
            Request::LoadSpec {
                name: "s".into(),
                source: Some("component C {}".into()),
                builtin: None,
            },
            "{\"op\":\"load_spec\",\"name\":\"s\",\"source\":\"component C {}\"}",
        ),
        (
            Request::LoadStrategy {
                name: "st".into(),
                source: "stage { choose some InputStream; }".into(),
            },
            "{\"op\":\"load_strategy\",\"name\":\"st\",\
             \"source\":\"stage { choose some InputStream; }\"}",
        ),
        (
            Request::Verify {
                program: "p".into(),
                spec: Some("io".into()),
                strategy: Some("st".into()),
                mode: Some("single".into()),
            },
            "{\"op\":\"verify\",\"program\":\"p\",\"spec\":\"io\",\
             \"strategy\":\"st\",\"mode\":\"single\"}",
        ),
        (
            Request::Verify {
                program: "p".into(),
                spec: None,
                strategy: None,
                mode: None,
            },
            "{\"op\":\"verify\",\"program\":\"p\"}",
        ),
        (
            Request::Lint {
                program: "p".into(),
                spec: None,
                strategy: Some("st".into()),
            },
            "{\"op\":\"lint\",\"program\":\"p\",\"strategy\":\"st\"}",
        ),
        (Request::Status, "{\"op\":\"status\"}"),
        (Request::Shutdown, "{\"op\":\"shutdown\"}"),
    ]
}

/// Every response shape, paired with its exact wire line.
fn response_goldens() -> Vec<(Response, &'static str)> {
    vec![
        (
            Response::Loaded {
                op: "load_program",
                name: "p".into(),
                fingerprint: "81c97decb3262a5c".into(),
                reused: false,
            },
            "{\"ok\":true,\"op\":\"load_program\",\"name\":\"p\",\
             \"fingerprint\":\"81c97decb3262a5c\",\"reused\":false}",
        ),
        (
            Response::Verify(VerifyOutcome {
                program: "p".into(),
                mode: "single".into(),
                verdict: "errors".into(),
                complete: true,
                visits: 421,
                space: 17,
                subproblems: 2,
                pruned: 1,
                components: 2,
                estimated_structures: 96,
                cache_hits: 10,
                cache_misses: 32,
                shared_hits: 0,
                shared_misses: 32,
                call_evaluations: 6,
                summary_hits: 4,
                summary_misses: 2,
                shared_summary_hits: 1,
                errors: vec![WireError {
                    line: 9,
                    label: "read requires open".into(),
                    definite: false,
                }],
            }),
            "{\"ok\":true,\"op\":\"verify\",\"program\":\"p\",\"mode\":\"single\",\
             \"verdict\":\"errors\",\"complete\":true,\"visits\":421,\"space\":17,\
             \"subproblems\":2,\"pruned\":1,\"components\":2,\
             \"estimated_structures\":96,\"cache_hits\":10,\"cache_misses\":32,\
             \"shared_hits\":0,\"shared_misses\":32,\
             \"call_evaluations\":6,\"summary_hits\":4,\
             \"summary_misses\":2,\"shared_summary_hits\":1,\
             \"errors\":[{\"line\":9,\"label\":\"read requires open\",\
             \"definite\":false}]}",
        ),
        (
            Response::Lint {
                program: "p".into(),
                errors: 0,
                warnings: 1,
                diagnostics: vec![Diagnostic::warning(
                    "W104",
                    "variable `g` is never used",
                    3,
                )],
            },
            "{\"ok\":true,\"op\":\"lint\",\"program\":\"p\",\"errors\":0,\
             \"warnings\":1,\"diagnostics\":[{\"diag\":\"W104\",\
             \"severity\":\"warning\",\"line\":3,\"col\":0,\
             \"message\":\"variable `g` is never used\"}]}",
        ),
        (
            Response::Status(StatusInfo {
                programs: 2,
                specs: 1,
                strategies: 1,
                requests: 9,
                verifies: 3,
                lint_cache_hits: 1,
                store_entries: 120,
                store_structures: 48,
                summary_entries: 7,
                prepared: 2,
                prepared_hits: 1,
                store_bytes: 4096,
            }),
            "{\"ok\":true,\"op\":\"status\",\"programs\":2,\"specs\":1,\
             \"strategies\":1,\"requests\":9,\"verifies\":3,\
             \"lint_cache_hits\":1,\"store_entries\":120,\"store_structures\":48,\
             \"summary_entries\":7,\"prepared\":2,\"prepared_hits\":1,\
             \"store_bytes\":4096}",
        ),
        (Response::Shutdown, "{\"ok\":true,\"op\":\"shutdown\"}"),
        (
            Response::error("verify", "unknown program `q`"),
            "{\"ok\":false,\"op\":\"verify\",\"error\":\"unknown program `q`\"}",
        ),
    ]
}

#[test]
fn request_wire_bytes_are_pinned() {
    for (req, golden) in request_goldens() {
        assert_eq!(req.to_json(), golden, "wire drift for op `{}`", req.op());
    }
}

#[test]
fn requests_round_trip_through_their_wire_lines() {
    for (req, golden) in request_goldens() {
        let parsed = Request::parse(golden).unwrap_or_else(|e| {
            panic!("golden for `{}` does not parse: {e}", req.op())
        });
        assert_eq!(parsed, req, "round trip drift for op `{}`", req.op());
        // And through the serializer too, not just the literal.
        assert_eq!(Request::parse(&req.to_json()).unwrap(), req);
    }
}

#[test]
fn request_parsing_tolerates_key_order_and_unknown_keys() {
    let r = Request::parse(
        "{\"source\":\"void main() {}\",\"future_field\":42,\
         \"name\":\"p\",\"op\":\"load_program\"}",
    )
    .unwrap();
    assert_eq!(
        r,
        Request::LoadProgram {
            name: "p".into(),
            source: "void main() {}".into(),
        }
    );
}

#[test]
fn response_wire_bytes_are_pinned() {
    for (resp, golden) in response_goldens() {
        assert_eq!(resp.to_json(), golden, "wire drift in {resp:?}");
    }
}

#[test]
fn response_lines_are_valid_single_line_json() {
    for (resp, _) in response_goldens() {
        let line = resp.to_json();
        assert!(!line.contains('\n'), "NDJSON lines must be single-line");
        let v = json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        // Every response carries the `ok` flag and echoes an op.
        assert!(matches!(v.get("ok"), Some(JsonValue::Bool(_))), "{line}");
        assert!(v.get("op").and_then(JsonValue::as_str).is_some(), "{line}");
    }
}

#[test]
fn newline_heavy_sources_survive_the_wire() {
    let source = "line1\n\tline2 \"quoted\"\r\nline3\\end".to_owned();
    let req = Request::LoadProgram {
        name: "tricky".into(),
        source: source.clone(),
    };
    let line = req.to_json();
    assert!(!line.contains('\n'), "escaping must keep the frame one line");
    match Request::parse(&line).unwrap() {
        Request::LoadProgram { source: s, .. } => assert_eq!(s, source),
        other => panic!("wrong shape: {other:?}"),
    }
}
