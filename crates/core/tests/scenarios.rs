//! Scenario tests for the verification engine: aliasing, heap round trips,
//! branch sensitivity, multi-component independence, choice semantics, and
//! mode interactions.

use hetsep_core::{verify, EngineConfig, Mode};
use hetsep_strategy::builtin as strategies;
use hetsep_strategy::parse_strategy;

fn run(src: &str, mode: Mode) -> hetsep_core::VerificationReport {
    let program = hetsep_ir::parse_program(src).unwrap();
    let spec = hetsep_easl::builtin::by_name(&program.uses).unwrap();
    verify(&program, &spec, &mode, &EngineConfig::default()).unwrap()
}

fn sep(strategy: &str) -> Mode {
    Mode::separation(parse_strategy(strategy).unwrap())
}

fn sim(strategy: &str) -> Mode {
    Mode::simultaneous(parse_strategy(strategy).unwrap())
}

// ------------------------------------------------------------- aliasing --

#[test]
fn alias_via_heap_roundtrip_detected() {
    // Close through a heap-stored alias; read through the original variable.
    let r = run(
        "program P uses IOStreams;\n\
         class Box { InputStream s; }\n\
         void main() {\n\
         InputStream f = new InputStream();\n\
         Box b = new Box();\n\
         b.s = f;\n\
         InputStream g = b.s;\n\
         g.close();\n\
         f.read();\n}",
        Mode::Vanilla,
    );
    assert_eq!(r.errors.len(), 1);
    assert_eq!(r.errors[0].line, 9);
}

#[test]
fn overwritten_field_breaks_alias() {
    // b.s is redirected to a fresh stream before the close: f stays open.
    let r = run(
        "program P uses IOStreams;\n\
         class Box { InputStream s; }\n\
         void main() {\n\
         InputStream f = new InputStream();\n\
         Box b = new Box();\n\
         b.s = f;\n\
         InputStream h = new InputStream();\n\
         b.s = h;\n\
         InputStream g = b.s;\n\
         g.close();\n\
         f.read();\n\
         f.close();\n}",
        Mode::Vanilla,
    );
    assert!(r.verified(), "{:?}", r.errors);
}

#[test]
fn chain_of_two_boxes() {
    let r = run(
        "program P uses IOStreams;\n\
         class Box { Box inner; InputStream s; }\n\
         void main() {\n\
         Box outer = new Box();\n\
         Box innerBox = new Box();\n\
         outer.inner = innerBox;\n\
         InputStream f = new InputStream();\n\
         innerBox.s = f;\n\
         Box m = outer.inner;\n\
         InputStream g = m.s;\n\
         g.read();\n\
         g.close();\n}",
        Mode::Vanilla,
    );
    assert!(r.verified(), "{:?}", r.errors);
}

#[test]
fn separation_sees_heap_alias_too() {
    let r = run(
        "program P uses IOStreams;\n\
         class Box { InputStream s; }\n\
         void main() {\n\
         InputStream f = new InputStream();\n\
         Box b = new Box();\n\
         b.s = f;\n\
         InputStream g = b.s;\n\
         g.close();\n\
         f.read();\n}",
        sim(strategies::IOSTREAM_SINGLE),
    );
    assert_eq!(r.errors.len(), 1);
}

// ----------------------------------------------------- branch sensitivity --

#[test]
fn boolean_correlation_tracked() {
    // closed1 records whether the stream was closed; the read is guarded.
    let r = run(
        "program P uses IOStreams; void main() {\n\
         InputStream f = new InputStream();\n\
         boolean closed1 = false;\n\
         if (?) {\n\
         f.close();\n\
         closed1 = true;\n\
         }\n\
         if (!closed1) {\n\
         f.read();\n\
         }\n}",
        Mode::Vanilla,
    );
    assert!(r.verified(), "{:?}", r.errors);
}

#[test]
fn boolean_correlation_violation_detected() {
    // Same flag but the guard is wrong.
    let r = run(
        "program P uses IOStreams; void main() {\n\
         InputStream f = new InputStream();\n\
         boolean closed1 = false;\n\
         if (?) {\n\
         f.close();\n\
         closed1 = true;\n\
         }\n\
         if (closed1) {\n\
         f.read();\n\
         }\n}",
        Mode::Vanilla,
    );
    assert_eq!(r.errors.len(), 1);
    assert_eq!(r.errors[0].line, 9);
}

#[test]
fn ref_equality_branch_prunes() {
    let r = run(
        "program P uses IOStreams; void main() {\n\
         InputStream a = new InputStream();\n\
         InputStream b = new InputStream();\n\
         InputStream c = a;\n\
         if (c == a) {\n\
         a.read();\n\
         } else {\n\
         b.close();\n\
         b.read();\n\
         }\n}",
        Mode::Vanilla,
    );
    // The else branch is infeasible (c == a always), so no error.
    assert!(r.verified(), "{:?}", r.errors);
}

#[test]
fn null_check_branch_prunes() {
    let r = run(
        "program P uses IOStreams; void main() {\n\
         InputStream a = new InputStream();\n\
         InputStream b = null;\n\
         if (b == null) {\n\
         a.read();\n\
         } else {\n\
         a.close();\n\
         a.read();\n\
         }\n\
         a.close();\n}",
        Mode::Vanilla,
    );
    assert!(r.verified(), "{:?}", r.errors);
}

// -------------------------------------------------- component independence --

#[test]
fn closing_one_statement_spares_the_other() {
    let r = run(
        "program P uses JDBC; void main() {\n\
         ConnectionManager cm = new ConnectionManager();\n\
         Connection con = cm.getConnection();\n\
         Statement st1 = cm.createStatement(con);\n\
         Statement st2 = cm.createStatement(con);\n\
         ResultSet rs2 = st2.executeQuery(\"q\");\n\
         st1.close();\n\
         while (rs2.next()) {\n\
         }\n}",
        sep(strategies::JDBC_SINGLE),
    );
    assert!(r.verified(), "{:?}", r.errors);
}

#[test]
fn closing_owner_statement_kills_its_result_set() {
    let r = run(
        "program P uses JDBC; void main() {\n\
         ConnectionManager cm = new ConnectionManager();\n\
         Connection con = cm.getConnection();\n\
         Statement st = cm.createStatement(con);\n\
         ResultSet rs = st.executeQuery(\"q\");\n\
         st.close();\n\
         while (rs.next()) {\n\
         }\n}",
        sep(strategies::JDBC_SINGLE),
    );
    assert_eq!(r.errors.len(), 1);
    assert_eq!(r.errors[0].line, 7);
}

#[test]
fn iterators_of_different_collections_independent() {
    let r = run(
        "program P uses CMP; void main() {\n\
         Collection c1 = new Collection();\n\
         Collection c2 = new Collection();\n\
         Iterator it1 = c1.iterator();\n\
         Iterator it2 = c2.iterator();\n\
         Element x = new Element();\n\
         c1.add(x);\n\
         while (it2.hasNext()) {\n\
         Element e = it2.next();\n\
         }\n}",
        sep(strategies::CMP_SINGLE),
    );
    assert!(r.verified(), "modifying c1 must not invalidate c2's iterator: {:?}", r.errors);
}

#[test]
fn two_errors_in_two_components_both_found() {
    let r = run(
        "program P uses IOStreams; void main() {\n\
         InputStream a = new InputStream();\n\
         InputStream b = new InputStream();\n\
         a.close();\n\
         a.read();\n\
         b.close();\n\
         b.read();\n}",
        sep(strategies::IOSTREAM_SINGLE),
    );
    let mut lines: Vec<u32> = r.errors.iter().map(|e| e.line).collect();
    lines.sort_unstable();
    assert_eq!(lines, vec![5, 7]);
    assert_eq!(r.subproblems.len(), 2);
}

// ------------------------------------------------------- choice semantics --

#[test]
fn some_choice_explores_every_candidate() {
    // Only the SECOND stream has the bug; `choose some` must still find it
    // (the non-deterministic choice covers every object).
    let r = run(
        "program P uses IOStreams; void main() {\n\
         InputStream a = new InputStream();\n\
         a.read();\n\
         InputStream b = new InputStream();\n\
         b.close();\n\
         b.read();\n\
         a.close();\n}",
        sim(strategies::IOSTREAM_SINGLE),
    );
    assert_eq!(r.errors.len(), 1);
    assert_eq!(r.errors[0].line, 6);
}

#[test]
fn conditioned_choice_tracks_ownership() {
    // Multi strategy: ResultSet chosen only if its Statement was chosen;
    // the error is still found.
    let r = run(
        "program P uses JDBC; void main() {\n\
         ConnectionManager cm = new ConnectionManager();\n\
         Connection con = cm.getConnection();\n\
         Statement st = cm.createStatement(con);\n\
         ResultSet rs1 = st.executeQuery(\"a\");\n\
         ResultSet rs2 = st.executeQuery(\"b\");\n\
         while (rs1.next()) {\n\
         }\n}",
        sim(strategies::JDBC_MULTI),
    );
    assert_eq!(r.errors.len(), 1);
    assert_eq!(r.errors[0].line, 7);
}

#[test]
fn strategy_on_unallocated_class_verifies_vacuously() {
    let r = run(
        "program P uses IOStreams; void main() {\n\
         InputStream a = new InputStream();\n\
         a.read();\n\
         a.close();\n}",
        sep(strategies::FILE_SINGLE), // chooses File; none allocated
    );
    assert!(r.verified());
}

// ----------------------------------------------------------- loops & heap --

#[test]
fn stream_reused_across_loop_iterations() {
    let r = run(
        "program P uses IOStreams; void main() {\n\
         InputStream f = new InputStream();\n\
         while (?) {\n\
         f.read();\n\
         }\n\
         f.close();\n}",
        sim(strategies::IOSTREAM_SINGLE),
    );
    assert!(r.verified(), "{:?}", r.errors);
}

#[test]
fn close_inside_loop_then_read_after() {
    let r = run(
        "program P uses IOStreams; void main() {\n\
         InputStream f = new InputStream();\n\
         while (?) {\n\
         f.close();\n\
         }\n\
         f.read();\n}",
        Mode::Vanilla,
    );
    assert_eq!(r.errors.len(), 1);
    assert_eq!(r.errors[0].line, 6);
}

#[test]
fn fresh_stream_per_iteration_stored_in_field() {
    let r = run(
        "program P uses IOStreams;\n\
         class Box { InputStream s; }\n\
         void main() {\n\
         Box b = new Box();\n\
         while (?) {\n\
         InputStream f = new InputStream();\n\
         b.s = f;\n\
         InputStream g = b.s;\n\
         g.read();\n\
         g.close();\n\
         }\n}",
        sim(strategies::IOSTREAM_SINGLE),
    );
    assert!(r.verified(), "{:?}", r.errors);
}

// ------------------------------------------------------------- procedures --

#[test]
fn error_inside_inlined_procedure_attributed() {
    let r = run(
        "program P uses IOStreams;\n\
         void closeAndRead(InputStream s) {\n\
         s.close();\n\
         s.read();\n\
         }\n\
         void main() {\n\
         InputStream f = new InputStream();\n\
         closeAndRead(f);\n}",
        Mode::Vanilla,
    );
    assert_eq!(r.errors.len(), 1);
    assert_eq!(r.errors[0].line, 4, "attributed to the procedure body line");
}

#[test]
fn procedure_returning_fresh_stream() {
    let r = run(
        "program P uses IOStreams;\n\
         InputStream open() {\n\
         InputStream s = new InputStream();\n\
         return s;\n\
         }\n\
         void main() {\n\
         InputStream a = open();\n\
         InputStream b = open();\n\
         a.read();\n\
         b.read();\n\
         a.close();\n\
         b.close();\n}",
        sep(strategies::IOSTREAM_SINGLE),
    );
    assert!(r.verified(), "{:?}", r.errors);
    // Both allocations share one syntactic site (the inlined body), so the
    // non-simultaneous scheduler creates subproblems per *call-site clone*.
    assert_eq!(r.subproblems.len(), 2);
}

// -------------------------------------------------------------- budgets --

#[test]
fn budget_exhaustion_is_not_verification() {
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
    let config = EngineConfig {
        max_visits: 5,
        ..EngineConfig::default()
    };
    let r = verify(&program, &spec, &Mode::Vanilla, &config).unwrap();
    assert!(!r.complete);
    assert!(!r.verified());
    assert!(r.errors.is_empty(), "no spurious errors from truncation");
}

// ------------------------------------------------------ merge policies --

#[test]
fn close_on_one_branch_then_read_reports_one_error() {
    let program = hetsep_ir::parse_program(
        "program P uses IOStreams; void main() {\n\
         InputStream f = new InputStream();\n\
         if (?) {\n\
         f.close();\n\
         }\n\
         f.read();\n}",
    )
    .unwrap();
    let spec = hetsep_easl::builtin::iostreams();
    let r = verify(&program, &spec, &Mode::Vanilla, &EngineConfig::default()).unwrap();
    assert_eq!(r.errors.len(), 1);
}

// -------------------------------------------------------------- sockets --

#[test]
fn socket_send_before_connect_detected() {
    let r = run(
        "program P uses Sockets; void main() {\n\
         Socket s = new Socket();\n\
         s.send();\n}",
        Mode::Vanilla,
    );
    assert_eq!(r.errors.len(), 1);
    assert_eq!(r.errors[0].line, 3);
}

#[test]
fn socket_lifecycle_verifies() {
    let r = run(
        "program P uses Sockets; void main() {\n\
         Socket s = new Socket();\n\
         s.connect();\n\
         s.send();\n\
         s.receive();\n\
         s.close();\n}",
        Mode::Vanilla,
    );
    assert!(r.verified(), "{:?}", r.errors);
}

#[test]
fn accepted_socket_is_already_connected() {
    let strategy = parse_strategy("strategy S { choose some s : Socket(); }").unwrap();
    let r = run(
        "program P uses Sockets; void main() {\n\
         Listener l = new Listener();\n\
         Socket a = l.accept();\n\
         a.send();\n\
         a.connect();\n\
         a.close();\n}",
        Mode::simultaneous(strategy),
    );
    // send() is fine (accept() connects); the second connect() violates.
    assert_eq!(r.errors.len(), 1, "{:?}", r.errors);
    assert_eq!(r.errors[0].line, 5);
}

#[test]
fn double_connect_after_close_detected() {
    let r = run(
        "program P uses Sockets; void main() {\n\
         Socket s = new Socket();\n\
         s.connect();\n\
         s.close();\n\
         s.receive();\n}",
        Mode::Vanilla,
    );
    assert_eq!(r.errors.len(), 1);
    assert_eq!(r.errors[0].line, 5);
}
