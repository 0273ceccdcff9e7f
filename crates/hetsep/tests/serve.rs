//! End-to-end test of the `hetsep serve` daemon against the real binary.
//!
//! Drives a scripted NDJSON session through the daemon's stdin — load a
//! buggy program, verify it cold, re-verify it warm, load an edited
//! (fixed) version under the same name, re-verify, shut down — and pins
//! the load-bearing invariant of the owned-session redesign:
//!
//! * **byte-identical verdicts**: the daemon's verify responses report
//!   exactly the error lines the one-shot `hetsep verify` CLI prints for
//!   the same sources (and identical visits/space/verdict between cold and
//!   warm runs of the same triple);
//! * **warm replay**: the unchanged re-verify hits the workspace-mounted
//!   shared store (`shared_hits > 0`) and computes strictly fewer
//!   transfers (`cache_misses` drops).

use std::io::Write as _;
use std::process::{Command, Stdio};

use hetsep::ir::json::{self, JsonValue};

/// Leaks a `read()` after `close()` — one possible-error report.
const BUGGY: &str = "program Session uses IOStreams;\n\
                     void main() {\n\
                     InputStream f = new InputStream();\n\
                     f.read();\n\
                     f.close();\n\
                     f.read();\n\
                     }\n";

/// The edit: the trailing `read()` is gone, the program verifies.
const FIXED: &str = "program Session uses IOStreams;\n\
                     void main() {\n\
                     InputStream f = new InputStream();\n\
                     f.read();\n\
                     f.close();\n\
                     }\n";

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hetsep"))
}

/// Runs the one-shot CLI on a source file; returns (exit code, stdout
/// error lines with the `{path}:` prefix stripped).
fn one_shot_verify(dir: &std::path::Path, name: &str, source: &str) -> (i32, Vec<String>) {
    let path = dir.join(name);
    std::fs::write(&path, source).unwrap();
    let out = bin()
        .args(["verify", path.to_str().unwrap(), "--quiet"])
        .output()
        .unwrap();
    let prefix = format!("{}:", path.display());
    let lines = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| {
            l.strip_prefix(&prefix)
                .unwrap_or_else(|| panic!("unprefixed error line `{l}`"))
                .to_owned()
        })
        .collect();
    (out.status.code().unwrap(), lines)
}

/// Renders a daemon verify response's errors the way the one-shot CLI
/// prints an `ErrorReport` (sans path prefix).
fn cli_style_errors(verify: &JsonValue) -> Vec<String> {
    verify
        .get("errors")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|e| {
            let line = e.get("line").and_then(JsonValue::as_u64).unwrap();
            let label = e.get("label").and_then(JsonValue::as_str).unwrap();
            let kind = if e.get("definite").and_then(JsonValue::as_bool).unwrap() {
                "error"
            } else {
                "possible error"
            };
            format!("line {line}: {kind}: {label}")
        })
        .collect()
}

fn num(v: &JsonValue, key: &str) -> u64 {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("missing numeric `{key}` in {v:?}"))
}

fn text<'j>(v: &'j JsonValue, key: &str) -> &'j str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}` in {v:?}"))
}

#[test]
fn scripted_session_matches_one_shot_cli_and_replays_warm() {
    let dir = std::env::temp_dir().join(format!("hetsep-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // The ground truth: one-shot CLI runs over the same two sources.
    let (buggy_code, buggy_errors) = one_shot_verify(&dir, "buggy.hsp", BUGGY);
    let (fixed_code, fixed_errors) = one_shot_verify(&dir, "fixed.hsp", FIXED);
    assert_eq!(buggy_code, 1, "the buggy program must report errors");
    assert_eq!(fixed_code, 0, "the fixed program must verify");
    assert!(!buggy_errors.is_empty());
    assert!(fixed_errors.is_empty());

    // The same work as a scripted daemon session: load → verify →
    // re-verify (warm) → edit (rebind the name) → re-verify → shutdown.
    let load = |source: &str| {
        hetsep::ir::Request::LoadProgram {
            name: "p".into(),
            source: source.into(),
        }
        .to_json()
    };
    let verify = hetsep::ir::Request::Verify {
        program: "p".into(),
        spec: None,
        strategy: None,
        mode: None,
    }
    .to_json();
    let script = [
        load(BUGGY),
        verify.clone(),
        verify.clone(),
        load(FIXED),
        verify.clone(),
        "{\"op\":\"status\"}".into(),
        "{\"op\":\"shutdown\"}".into(),
    ]
    .join("\n");

    let mut child = bin()
        .args(["serve", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap(); // dropping stdin closes the pipe
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve exited with {:?}", out.status);

    let stdout = String::from_utf8(out.stdout).unwrap();
    let responses: Vec<JsonValue> = stdout
        .lines()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("{l}: {e}")))
        .collect();
    assert_eq!(responses.len(), 7, "one response per request:\n{stdout}");
    for r in &responses {
        assert_eq!(r.get("ok").and_then(JsonValue::as_bool), Some(true), "{r:?}");
    }

    // Artifact registration: the edit re-registers under the same name with
    // a different fingerprint (nothing reused — the content is new).
    assert_eq!(text(&responses[0], "op"), "load_program");
    assert_eq!(responses[0].get("reused").and_then(JsonValue::as_bool), Some(false));
    let fp_buggy = text(&responses[0], "fingerprint").to_owned();
    let fp_fixed = text(&responses[3], "fingerprint").to_owned();
    assert_eq!(fp_buggy.len(), 16);
    assert_ne!(fp_buggy, fp_fixed, "edited content must re-fingerprint");

    let (cold, warm, edited) = (&responses[1], &responses[2], &responses[4]);

    // Byte-identical verdicts vs. the one-shot CLI, on both program
    // versions.
    assert_eq!(text(cold, "verdict"), "errors");
    assert_eq!(cli_style_errors(cold), buggy_errors);
    assert_eq!(text(edited, "verdict"), "verified");
    assert_eq!(cli_style_errors(edited), fixed_errors);

    // Warm replay of the unchanged triple: identical observable results...
    assert_eq!(text(warm, "verdict"), text(cold, "verdict"));
    assert_eq!(cli_style_errors(warm), buggy_errors);
    for key in ["visits", "space", "subproblems"] {
        assert_eq!(num(warm, key), num(cold, key), "`{key}` drifted warm");
    }
    // ...but strictly fewer transfers computed, with the store supplying
    // the difference.
    assert!(
        num(warm, "shared_hits") > 0,
        "warm run must replay from the workspace store: {warm:?}"
    );
    assert!(
        num(warm, "cache_misses") < num(cold, "cache_misses"),
        "warm run must compute strictly fewer transfers (cold {} vs warm {})",
        num(cold, "cache_misses"),
        num(warm, "cache_misses"),
    );

    // Status reflects the whole session: 2 distinct programs, 3 verifies,
    // and a populated store.
    let status = &responses[5];
    assert_eq!(num(status, "programs"), 2);
    assert_eq!(num(status, "verifies"), 3);
    assert_eq!(num(status, "requests"), 6);
    assert!(num(status, "store_entries") > 0);
    assert_eq!(text(&responses[6], "op"), "shutdown");

    std::fs::remove_dir_all(&dir).ok();
}

/// `--cache` persists the store across daemon restarts: a second daemon
/// run of the same triple starts warm.
#[test]
fn cache_flag_carries_warmth_across_restarts() {
    let dir = std::env::temp_dir().join(format!("hetsep-serve-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("store.bin");

    let script = [
        hetsep::ir::Request::LoadProgram {
            name: "p".into(),
            source: FIXED.into(),
        }
        .to_json(),
        hetsep::ir::Request::Verify {
            program: "p".into(),
            spec: None,
            strategy: None,
            mode: None,
        }
        .to_json(),
        "{\"op\":\"shutdown\"}".into(),
    ]
    .join("\n");

    let run = || {
        let mut child = bin()
            .args(["serve", "--quiet", "--cache", cache.to_str().unwrap()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        child
            .stdin
            .take()
            .unwrap()
            .write_all(script.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let verify = stdout.lines().nth(1).unwrap();
        json::parse(verify).unwrap()
    };

    let cold = run();
    assert!(cache.exists(), "--cache must persist the store on shutdown");
    let warm = run();

    assert_eq!(text(&cold, "verdict"), "verified");
    assert_eq!(text(&warm, "verdict"), "verified");
    assert_eq!(num(&warm, "visits"), num(&cold, "visits"));
    assert!(num(&warm, "shared_hits") > 0, "restart must start warm: {warm:?}");
    assert!(num(&warm, "cache_misses") < num(&cold, "cache_misses"));

    std::fs::remove_dir_all(&dir).ok();
}

/// Pipes `lines` into `hetsep serve --quiet`; returns the exit status and
/// the parsed response lines.
fn serve_lines(lines: &[String]) -> (std::process::ExitStatus, Vec<JsonValue>) {
    let mut child = bin()
        .args(["serve", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(lines.join("\n").as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let responses = stdout
        .lines()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("{l}: {e}")))
        .collect();
    (out.status, responses)
}

/// A request line nested far past the JSON parser's depth limit is answered
/// in-band as an invalid line; the daemon keeps serving and exits cleanly.
#[test]
fn deeply_nested_json_line_is_invalid_not_fatal() {
    let (status, responses) = serve_lines(&[
        "[".repeat(200_000),
        "{\"op\":\"status\"}".into(),
        "{\"op\":\"shutdown\"}".into(),
    ]);
    assert!(status.success(), "serve exited with {status:?}");
    assert_eq!(responses.len(), 3);
    assert_eq!(text(&responses[0], "op"), "invalid");
    assert_eq!(responses[0].get("ok").and_then(JsonValue::as_bool), Some(false));
    assert!(text(&responses[0], "error").contains("nesting deeper than"));
    assert_eq!(text(&responses[1], "op"), "status");
    assert_eq!(num(&responses[1], "requests"), 2);
    assert_eq!(text(&responses[2], "op"), "shutdown");
}

/// A program nested past the parser's block limit is refused with `E023`
/// in the `load_program` response instead of overflowing the stack.
#[test]
fn deeply_nested_program_load_reports_e023() {
    let source = format!(
        "program P uses IOStreams;\nvoid main() {{\n{}{}",
        "if (?) {\n".repeat(20_000),
        "}\n".repeat(20_001)
    );
    let load = hetsep::ir::Request::LoadProgram {
        name: "deep".into(),
        source,
    }
    .to_json();
    let (status, responses) = serve_lines(&[load, "{\"op\":\"shutdown\"}".into()]);
    assert!(status.success(), "serve exited with {status:?}");
    assert_eq!(responses.len(), 2);
    assert_eq!(text(&responses[0], "op"), "load_program");
    assert_eq!(responses[0].get("ok").and_then(JsonValue::as_bool), Some(false));
    assert!(text(&responses[0], "error").contains("E023"), "{:?}", responses[0]);
    assert_eq!(text(&responses[1], "op"), "shutdown");
}

/// Easl sources nested past the spec parser's limit — blocks, `!`s and `&&`
/// chains — are refused in the `load_spec` response, and the daemon keeps
/// serving instead of overflowing its stack.
#[test]
fn deeply_nested_spec_loads_are_refused_in_band() {
    let spec = |body: String| {
        let source = format!("spec S;\nclass A {{\nA b;\nboolean x;\nA() {{ }}\nvoid m() {{\n{body}\n}}\n}}\n");
        hetsep::ir::Request::LoadSpec { name: "deep".into(), source: Some(source), builtin: None }
            .to_json()
    };
    let (status, responses) = serve_lines(&[
        spec(format!("{}{}", "if (this.b != null) {\n".repeat(20_000), "}\n".repeat(20_000))),
        spec(format!("requires {}this.x;", "!".repeat(100_000))),
        spec(format!("requires {};", vec!["this.b"; 50_000].join(" && "))),
        spec("requires !this.x && this.b != null;".into()),
        "{\"op\":\"shutdown\"}".into(),
    ]);
    assert!(status.success(), "serve exited with {status:?}");
    assert_eq!(responses.len(), 5);
    for refused in &responses[..3] {
        assert_eq!(text(refused, "op"), "load_spec");
        assert_eq!(refused.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert!(text(refused, "error").contains("nesting too deep"), "{refused:?}");
    }
    assert_eq!(responses[3].get("ok").and_then(JsonValue::as_bool), Some(true), "{:?}", responses[3]);
    assert_eq!(text(&responses[4], "op"), "shutdown");
}
