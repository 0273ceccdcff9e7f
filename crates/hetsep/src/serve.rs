//! `hetsep serve` — the verification daemon.
//!
//! The daemon reads NDJSON requests (one JSON object per line; see
//! `docs/PROTOCOL.md`) and writes one NDJSON response per request, flushed
//! after every line so pipe-driven clients can run request/response in
//! lock-step. Transport is stdin/stdout by default; `--socket <path>` binds
//! a unix socket instead and serves one connection at a time.
//!
//! All state lives in a [`Session`] over an owned [`Workspace`]: artifacts
//! are registered once,
//! keyed by content fingerprint, and every verify replays from the
//! workspace-mounted shared transfer store. Verdicts are byte-identical to
//! the one-shot `hetsep verify` path — both funnel into the same engine
//! entry point — only the cache counters (and wall-clock, which the
//! protocol deliberately omits) differ between a cold and a warm run.
//!
//! `--cache <path>` persists the transfer store across daemon restarts,
//! sharing the on-disk cache file format with `hetsep corpus --cache`.

use std::io::{self, BufRead, Write};

use hetsep_core::engine::EngineConfig;
use hetsep_core::{CacheFile, Session, Workspace};
use hetsep_ir::Response;

use crate::options::Options;

/// Serves one NDJSON connection: reads requests line by line from `input`,
/// writes one response line per request to `output` (flushing after each),
/// and stops at end-of-input or after answering a `shutdown` request.
///
/// Blank lines are skipped without a response, so interactive sessions can
/// be visually separated. Returns `true` when the stream ended with an
/// explicit `shutdown`, `false` on plain end-of-input.
///
/// # Errors
///
/// Only transport failures surface as `Err`; malformed requests are
/// answered in-band with an `{"ok":false,...}` response.
pub fn serve_stream(
    input: impl BufRead,
    mut output: impl Write,
    session: &mut Session,
) -> io::Result<bool> {
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let response = session.handle_line(&line);
        let done = matches!(response, Response::Shutdown);
        output.write_all(response.to_json().as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
        if done {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Builds the daemon's session from the CLI options: engine budget from the
/// flags, transfer store preloaded from `--cache` when the file exists.
fn build_session(o: &Options) -> Result<Session, String> {
    let config = EngineConfig {
        max_visits: o.max_visits,
        preanalysis: o.preanalysis,
        transfer_cache: o.transfer_cache,
        ..EngineConfig::default()
    };
    let mut workspace = Workspace::with_config(config);
    if let Some(path) = &o.cache_path {
        if std::path::Path::new(path).exists() {
            let cache = CacheFile::load(std::path::Path::new(path))?;
            if !o.quiet {
                eprintln!("cache loaded from {path}: {}", cache.transfers.sizes());
            }
            workspace.mount_store(cache.transfers);
        }
    }
    Ok(Session::with_workspace(workspace))
}

/// Saves the session's transfer store back to `--cache`, if given,
/// serializing it where it lives.
fn save_cache(o: &Options, session: &Session) -> Result<(), String> {
    if let Some(path) = &o.cache_path {
        let store = session.workspace().store();
        store
            .save(std::path::Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
        if !o.quiet {
            eprintln!("cache saved to {path}: {}", store.sizes());
        }
    }
    Ok(())
}

/// Runs the daemon on stdin/stdout, or on `--socket <path>` when given.
///
/// # Errors
///
/// Setup failures (cache load/save, socket bind) and transport errors.
pub fn run_serve(o: &Options) -> Result<(), String> {
    let mut session = build_session(o)?;
    match &o.socket_path {
        None => {
            let stdin = io::stdin();
            let stdout = io::stdout();
            serve_stream(stdin.lock(), stdout.lock(), &mut session)
                .map_err(|e| format!("serve: {e}"))?;
        }
        Some(path) => serve_socket(path, &mut session, o.quiet)?,
    }
    save_cache(o, &session)
}

/// Removes the daemon's socket file when dropped, so *every* exit path of
/// [`serve_socket`] — clean shutdown, transport errors bubbling out of the
/// accept loop through `?`, panics — unbinds the filesystem name. Without
/// this, an error return leaked a stale socket file that a later daemon
/// start had to clobber manually.
#[cfg(unix)]
struct SocketFileGuard {
    path: std::path::PathBuf,
}

#[cfg(unix)]
impl Drop for SocketFileGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Serves connections sequentially on a unix socket until a client sends
/// `shutdown`. The workspace (and its warm transfer store) persists across
/// connections — a client can reconnect and replay from earlier work.
#[cfg(unix)]
fn serve_socket(path: &str, session: &mut Session, quiet: bool) -> Result<(), String> {
    use std::os::unix::net::UnixListener;
    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| format!("{path}: {e}"))?;
    // From here on the socket file exists; the guard removes it however the
    // accept loop exits.
    let _guard = SocketFileGuard { path: path.into() };
    if !quiet {
        eprintln!("serving on {path}");
    }
    serve_accept_loop(&listener, path, session)
}

/// The accept loop of [`serve_socket`], separated from socket-file lifetime
/// management: any transport error propagates as `Err` and the caller's
/// [`SocketFileGuard`] still cleans up.
#[cfg(unix)]
fn serve_accept_loop(
    listener: &std::os::unix::net::UnixListener,
    path: &str,
    session: &mut Session,
) -> Result<(), String> {
    for stream in listener.incoming() {
        let stream = stream.map_err(|e| format!("{path}: {e}"))?;
        let reader = io::BufReader::new(
            stream.try_clone().map_err(|e| format!("{path}: {e}"))?,
        );
        let shutdown =
            serve_stream(reader, &stream, session).map_err(|e| format!("{path}: {e}"))?;
        if shutdown {
            break;
        }
    }
    Ok(())
}

#[cfg(not(unix))]
fn serve_socket(_path: &str, _session: &mut Session, _quiet: bool) -> Result<(), String> {
    Err("--socket requires a unix platform; use stdin/stdout".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(s: &str) -> String {
        s.to_owned()
    }

    /// One in-process end-to-end pass over the stream loop: load, verify,
    /// shutdown — exercising framing (one response line per request, blank
    /// lines skipped, shutdown terminates).
    #[test]
    fn stream_frames_one_response_per_request() {
        let program = "program P uses IOStreams; void main() {\n\
                       InputStream f = new InputStream();\n\
                       f.read();\n\
                       f.close();\n\
                       }";
        let input = [
            req(&hetsep_ir::Request::LoadProgram {
                name: "p".into(),
                source: program.into(),
            }
            .to_json()),
            String::new(), // blank line: skipped, no response
            req(&hetsep_ir::Request::Verify {
                program: "p".into(),
                spec: None,
                strategy: None,
                mode: None,
            }
            .to_json()),
            req(&hetsep_ir::Request::Shutdown.to_json()),
            req("{\"op\":\"status\"}"), // after shutdown: never read
        ]
        .join("\n");
        let mut out = Vec::new();
        let mut session = Session::new();
        let shutdown = serve_stream(input.as_bytes(), &mut out, &mut session).unwrap();
        assert!(shutdown);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3, "load + verify + shutdown, nothing more");
        assert!(lines[0].contains("\"op\":\"load_program\""), "{}", lines[0]);
        assert!(lines[1].contains("\"verdict\":\"verified\""), "{}", lines[1]);
        assert!(lines[2].contains("\"op\":\"shutdown\""), "{}", lines[2]);
    }

    /// An accept error must not leak the socket file: the RAII guard removes
    /// it on the error path, so a post-error daemon restart can bind the
    /// same path without clobbering anything.
    #[cfg(unix)]
    #[test]
    fn accept_error_still_removes_socket_file() {
        use std::os::unix::net::UnixListener;
        let dir = std::env::temp_dir().join(format!(
            "hetsep-serve-err-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("daemon.sock");
        let path_str = path.to_str().unwrap().to_owned();

        let listener = UnixListener::bind(&path).unwrap();
        let guard = SocketFileGuard { path: path.clone() };
        // A non-blocking listener makes `accept` fail deterministically with
        // `WouldBlock` — the same `?` path any transport error takes.
        listener.set_nonblocking(true).unwrap();
        let mut session = Session::new();
        let err = serve_accept_loop(&listener, &path_str, &mut session);
        assert!(err.is_err(), "WouldBlock must surface as a transport error");
        assert!(path.exists(), "file still bound while the guard lives");
        drop(guard);
        assert!(!path.exists(), "guard must remove the socket file");

        // The restart contract: after the failed run, a plain bind on the
        // same path succeeds with no stale file in the way.
        let relisten = UnixListener::bind(&path);
        assert!(relisten.is_ok(), "post-error restart must bind: {relisten:?}");
        drop(relisten);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    /// End-to-end over a real unix socket: a client session ending in
    /// `shutdown` terminates `serve_socket`, and the socket file is gone
    /// afterwards (clean path through the same guard).
    #[cfg(unix)]
    #[test]
    fn socket_clean_shutdown_removes_socket_file() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;
        let dir = std::env::temp_dir().join(format!(
            "hetsep-serve-ok-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("daemon.sock");
        let path_str = path.to_str().unwrap().to_owned();

        let server = std::thread::spawn({
            let path_str = path_str.clone();
            move || {
                let mut session = Session::new();
                serve_socket(&path_str, &mut session, true)
            }
        });
        // Wait for the daemon to bind, then drive one request/response pair.
        let mut stream = None;
        for _ in 0..200 {
            match UnixStream::connect(&path) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        }
        let stream = stream.expect("daemon never bound its socket");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        (&stream)
            .write_all(hetsep_ir::Request::Shutdown.to_json().as_bytes())
            .unwrap();
        (&stream).write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"op\":\"shutdown\""), "{line}");
        server.join().unwrap().unwrap();
        assert!(
            !path.exists(),
            "clean shutdown must remove the socket file"
        );
        let _ = std::fs::remove_dir(&dir);
    }

    /// Malformed input is answered in-band, not treated as a transport
    /// error, and the loop keeps serving.
    #[test]
    fn malformed_lines_get_error_responses() {
        let input = "not json\n{\"op\":\"status\"}\n";
        let mut out = Vec::new();
        let mut session = Session::new();
        let shutdown = serve_stream(input.as_bytes(), &mut out, &mut session).unwrap();
        assert!(!shutdown, "stream ended without shutdown");
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"ok\":false"), "{}", lines[0]);
        assert!(lines[1].contains("\"requests\":2"), "{}", lines[1]);
    }
}
