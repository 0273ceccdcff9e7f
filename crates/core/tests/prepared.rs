//! Prepared verifications are invisible in every response.
//!
//! The workspace keeps each program's translations and pruning
//! preanalysis for a repeat of its latest verify request, so a re-verify
//! runs only the engine. This file drives a daemon `Session` through
//! every mode family — re-verifies, edits, flips back to earlier content,
//! a re-mounted store — and checks each verify response byte for byte
//! against a fresh one-shot `Verifier` run over a snapshot of the same
//! stores. It also pins the lifetime rule: names bound to the same content
//! share one prepared entry, and the entry goes when its last name is
//! re-pointed.

use hetsep_core::{
    CacheFile, EngineConfig, Mode, ModeKind, ParallelConfig, Session, SharedSummarySession,
    SharedTransferSession, Verifier, VerifyOutput,
};
use hetsep_ir::{Request, Response, StatusInfo};
use hetsep_strategy::builtin::{IOSTREAM_SINGLE, JDBC_INCREMENTAL, JDBC_MULTI, JDBC_SINGLE};

/// Two streams, the second read after close; `f` alone would verify.
const STREAMS: &str = "program Streams uses IOStreams;\n\
    void drain(InputStream s) {\ns.read();\n}\n\
    void main() {\n\
    InputStream f = new InputStream();\ndrain(f);\nf.close();\n\
    InputStream g = new InputStream();\ndrain(g);\ng.close();\ng.read();\n}\n";

/// [`STREAMS`] with the bug fixed.
const STREAMS_FIXED: &str = "program Streams uses IOStreams;\n\
    void drain(InputStream s) {\ns.read();\n}\n\
    void main() {\n\
    InputStream f = new InputStream();\ndrain(f);\nf.close();\n\
    InputStream g = new InputStream();\ndrain(g);\ng.close();\n}\n";

/// A result set read after its statement moved on.
const JDBC: &str = "program Jdbc uses JDBC;\n\
    void main() {\n\
    ConnectionManager cm = new ConnectionManager();\n\
    Connection con = cm.getConnection();\n\
    Statement st = cm.createStatement(con);\n\
    ResultSet rs1 = st.executeQuery(\"a\");\n\
    ResultSet rs2 = st.executeQuery(\"b\");\n\
    while (rs1.next()) {\n}\n\
    con.close();\n}\n";

/// A loaded strategy: `(name, source)`.
type Loaded = Option<(&'static str, &'static str)>;

fn config(threads: usize) -> EngineConfig {
    EngineConfig {
        preanalysis: true,
        parallel: ParallelConfig {
            threads,
            intra_threads: 1,
        },
        ..EngineConfig::default()
    }
}

fn ok(response: Response) {
    assert!(
        !matches!(response, Response::Error { .. }),
        "unexpected error: {}",
        response.to_json()
    );
}

fn load(session: &mut Session, name: &str, source: &str) {
    ok(session.handle(&Request::LoadProgram {
        name: name.into(),
        source: source.into(),
    }));
}

fn status(session: &mut Session) -> StatusInfo {
    match session.handle(&Request::Status) {
        Response::Status(s) => s,
        other => panic!("expected status, got {}", other.to_json()),
    }
}

/// Verifies `program` through the session and checks the response against
/// a one-shot run over a snapshot of the session's stores taken just
/// before.
fn verify_matches_one_shot(
    session: &mut Session,
    program: &str,
    source: &str,
    strategy: Loaded,
    kind: ModeKind,
) {
    let ws = session.workspace();
    let transfers = ws.store().clone();
    let summaries = ws.summary_store().clone();
    let config = ws.config().clone();

    let response = session.handle(&Request::Verify {
        program: program.into(),
        spec: None,
        strategy: strategy.map(|(name, _)| name.into()),
        mode: Some(kind.as_str().into()),
    });

    let parsed = hetsep_ir::parse_program(source).unwrap();
    let spec = hetsep_easl::builtin::by_name(&parsed.uses).unwrap();
    let strategy = strategy.map(|(_, src)| hetsep_strategy::parse_strategy(src).unwrap());
    let mode = Mode::from_kind(kind, strategy).unwrap();
    let transfer_session = SharedTransferSession::new(&transfers);
    let summary_session = SharedSummarySession::new(&summaries);
    let kind = mode.kind();
    let report = Verifier::new(&parsed, &spec)
        .mode(mode)
        .config(config)
        .shared_cache(&transfer_session)
        .shared_summaries(&summary_session)
        .run()
        .unwrap();
    let expected = Response::Verify(VerifyOutput { report, kind }.to_wire(program));
    assert_eq!(response.to_json(), expected.to_json(), "{program} {kind}");
}

#[test]
fn session_verifies_equal_one_shot_runs_over_the_same_stores() {
    for threads in [1, 2] {
        let mut session = Session::with_config(config(threads));
        let strategies = [
            ("single", IOSTREAM_SINGLE),
            ("jdbc-single", JDBC_SINGLE),
            ("multi", JDBC_MULTI),
            ("inc", JDBC_INCREMENTAL),
        ];
        for (name, source) in strategies {
            ok(session.handle(&Request::LoadStrategy {
                name: name.into(),
                source: source.into(),
            }));
        }
        let io_single = Some(("single", IOSTREAM_SINGLE));
        load(&mut session, "io", STREAMS);
        load(&mut session, "jdbc", JDBC);

        // Every mode family, cold, then the whole round again warm (the
        // second round reuses each program's prepared verification only
        // where the request repeats, since each program keeps its latest).
        let script: [(&str, &str, Loaded, ModeKind); 6] = [
            ("io", STREAMS, None, ModeKind::Vanilla),
            ("io", STREAMS, io_single, ModeKind::Sim),
            ("io", STREAMS, io_single, ModeKind::Single),
            ("jdbc", JDBC, Some(("jdbc-single", JDBC_SINGLE)), ModeKind::Single),
            ("jdbc", JDBC, Some(("multi", JDBC_MULTI)), ModeKind::Multi),
            ("jdbc", JDBC, Some(("inc", JDBC_INCREMENTAL)), ModeKind::Inc),
        ];
        for _ in 0..2 {
            for (program, source, strategy, kind) in script {
                verify_matches_one_shot(&mut session, program, source, strategy, kind);
                verify_matches_one_shot(&mut session, program, source, strategy, kind);
            }
        }
        let hits = status(&mut session).prepared_hits;
        assert_eq!(hits, 12, "every immediate repeat reuses its preparation");

        // Edit, then flip back to the first content.
        load(&mut session, "io", STREAMS_FIXED);
        verify_matches_one_shot(&mut session, "io", STREAMS_FIXED, io_single, ModeKind::Single);
        load(&mut session, "io", STREAMS);
        verify_matches_one_shot(&mut session, "io", STREAMS, io_single, ModeKind::Single);
        verify_matches_one_shot(&mut session, "io", STREAMS, io_single, ModeKind::Single);

        // A re-mounted store (a round trip through the cache file format,
        // then an empty one) changes the counters, never the preparation's
        // validity.
        let ws = session.workspace();
        let cache = CacheFile {
            transfers: ws.store().clone(),
            summaries: ws.summary_store().clone(),
        };
        let cache = CacheFile::from_bytes(&cache.to_bytes()).unwrap();
        session.workspace_mut().mount_store(cache.transfers);
        session.workspace_mut().mount_summary_store(cache.summaries);
        verify_matches_one_shot(&mut session, "io", STREAMS, io_single, ModeKind::Single);
        session.workspace_mut().mount_store(Default::default());
        session.workspace_mut().mount_summary_store(Default::default());
        verify_matches_one_shot(&mut session, "io", STREAMS, io_single, ModeKind::Single);
        let inc = Some(("inc", JDBC_INCREMENTAL));
        verify_matches_one_shot(&mut session, "jdbc", JDBC, inc, ModeKind::Inc);
    }
}

#[test]
fn prepared_entries_follow_the_live_bindings() {
    let mut session = Session::with_config(config(1));
    let verify = |session: &mut Session, name: &str| {
        ok(session.handle(&Request::Verify {
            program: name.into(),
            spec: None,
            strategy: None,
            mode: None,
        }))
    };
    load(&mut session, "a", STREAMS);
    load(&mut session, "b", STREAMS);
    verify(&mut session, "a");
    verify(&mut session, "b");
    let s = status(&mut session);
    assert_eq!((s.prepared, s.prepared_hits), (1, 1), "one content, one entry");

    // Re-pointing one of two names keeps the shared entry.
    load(&mut session, "a", STREAMS_FIXED);
    assert_eq!(status(&mut session).prepared, 1);
    verify(&mut session, "a");
    assert_eq!(status(&mut session).prepared, 2);

    // Re-pointing the last name bound to a program drops its entry, and
    // re-loading identical content keeps it.
    load(&mut session, "b", JDBC);
    assert_eq!(status(&mut session).prepared, 1);
    load(&mut session, "a", STREAMS_FIXED);
    assert_eq!(status(&mut session).prepared, 1);
    verify(&mut session, "a");
    let s = status(&mut session);
    assert_eq!((s.prepared, s.prepared_hits), (1, 2));

    // A different request for the same program replaces its entry.
    ok(session.handle(&Request::LoadStrategy {
        name: "single".into(),
        source: IOSTREAM_SINGLE.into(),
    }));
    ok(session.handle(&Request::Verify {
        program: "a".into(),
        spec: None,
        strategy: Some("single".into()),
        mode: None,
    }));
    let s = status(&mut session);
    assert_eq!((s.prepared, s.prepared_hits), (1, 2));
}
