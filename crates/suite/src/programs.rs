//! The Table 3 benchmark definitions.

use hetsep_strategy::builtin as strategies;

use crate::generators::{
    db_program, jdbc_client, kernel, shared_lib as gen_shared_lib,
    sql_executor as gen_sql_executor, JdbcWorkload, KernelWorkload, SharedLibWorkload,
    SqlExecutorWorkload,
};
use crate::{Benchmark, TableMode};

/// `ISPath`: a simple correct program manipulating input streams across
/// branches (paper: 71 lines, 0 errors, verified by every mode).
pub fn is_path() -> Benchmark {
    let source = r#"program ISPath uses IOStreams;

void consume(InputStream s) {
    while (?) {
        s.read();
    }
}

void main() {
    InputStream config = new InputStream();
    config.read();
    InputStream data = new InputStream();
    if (?) {
        consume(data);
    } else {
        data.read();
        data.read();
    }
    InputStream aux = new InputStream();
    boolean wantAux = ?;
    if (wantAux) {
        aux.read();
    }
    aux.close();
    if (?) {
        InputStream extra = new InputStream();
        extra.read();
        extra.close();
    }
    config.read();
    consume(config);
    data.close();
    config.close();
}
"#
    .to_owned();
    Benchmark {
        name: "ISPath",
        description: "inp. streams / IOStreams",
        source,
        single_strategy: strategies::IOSTREAM_SINGLE,
        multi_strategy: None,
        incremental_strategy: None,
        modes: vec![TableMode::Vanilla, TableMode::Single, TableMode::Sim],
        actual_errors: 0,
        expected_reported: vec![Some(0), Some(0), Some(0)],
    }
}

/// The holder list shared by the `InputStream5` family: streams stored in
/// heap "holder" objects at arbitrary depth (a linked list built in a loop).
fn holder_list_program(traversal: &str) -> String {
    format!(
        r#"program InputStreams uses IOStreams;

class Holder {{
    InputStream s;
    Holder next;
}}

void main() {{
    Holder head = null;
    while (?) {{
        Holder h = new Holder();
        InputStream f = new InputStream();
        h.s = f;
        h.next = head;
        head = h;
    }}
    Holder cur = head;
    while (cur != null) {{
        InputStream g = cur.s;
{traversal}
        cur = cur.next;
    }}
}}
"#
    )
}

/// `InputStream5`: correct read-then-close traversal. The vanilla analysis
/// cannot tell visited (closed) holders from unvisited (open) ones and
/// reports a false alarm; transitive relevance separates the heap paths
/// reaching the chosen stream and verifies (paper: vanilla 1 rep. err.,
/// single/sim 0, actual 0).
pub fn input_stream5() -> Benchmark {
    Benchmark {
        name: "InputStream5",
        description: "inp. streams holders / IOStreams",
        source: holder_list_program("        g.read();\n        g.close();"),
        single_strategy: strategies::IOSTREAM_SINGLE,
        multi_strategy: None,
        incremental_strategy: None,
        modes: vec![TableMode::Vanilla, TableMode::Single, TableMode::Sim],
        actual_errors: 0,
        expected_reported: vec![Some(1), Some(0), Some(0)],
    }
}

/// `InputStream5b`: the erroneous variant — close before read (paper: one
/// real error found by every mode).
pub fn input_stream5b() -> Benchmark {
    Benchmark {
        name: "InputStream5b",
        description: "inp. streams holders err / IOStreams",
        source: holder_list_program("        g.close();\n        g.read();"),
        single_strategy: strategies::IOSTREAM_SINGLE,
        multi_strategy: None,
        incremental_strategy: None,
        modes: vec![TableMode::Vanilla, TableMode::Single, TableMode::Sim],
        actual_errors: 1,
        expected_reported: vec![Some(1), Some(1), Some(1)],
    }
}

/// `InputStream6`: a correct variation whose doubly-linked holders make
/// *every* holder reach every stream — transitive relevance can no longer
/// separate visited from unvisited paths, so the false alarm persists in
/// every mode (paper: 1 reported everywhere, 0 actual).
pub fn input_stream6() -> Benchmark {
    let source = r#"program InputStream6 uses IOStreams;

class Holder {
    InputStream s;
    Holder next;
    Holder prev;
}

void main() {
    Holder head = null;
    while (?) {
        Holder h = new Holder();
        InputStream f = new InputStream();
        h.s = f;
        h.next = head;
        if (head != null) {
            head.prev = h;
        }
        head = h;
    }
    Holder cur = head;
    while (cur != null) {
        InputStream g = cur.s;
        g.read();
        g.close();
        cur = cur.next;
    }
}
"#
    .to_owned();
    Benchmark {
        name: "InputStream6",
        description: "inp. streams holders / IOStreams",
        source,
        single_strategy: strategies::IOSTREAM_SINGLE,
        multi_strategy: None,
        incremental_strategy: None,
        modes: vec![TableMode::Vanilla, TableMode::Single, TableMode::Sim],
        actual_errors: 0,
        expected_reported: vec![Some(1), Some(1), Some(1)],
    }
}

/// `HandleReuse`: a correct program that reuses one stream variable for
/// several back-to-back lifetimes. Every mode verifies it, but the
/// benchmark discriminates the ESP-style baseline from the flow-sensitive
/// preanalysis: flow-insensitive points-to conflates all the allocation
/// sites flowing through the reused variable (so the baseline proves
/// nothing safe), while the flow-sensitive analysis keeps the lifetimes
/// apart and prunes every subproblem.
pub fn handle_reuse() -> Benchmark {
    let source = r#"program HandleReuse uses IOStreams;

void drain(InputStream s) {
    s.read();
    s.read();
}

void main() {
    InputStream log = new InputStream();
    log.read();
    log.close();
    log = new InputStream();
    drain(log);
    log.close();
    InputStream data = new InputStream();
    if (?) {
        data.read();
    } else {
        drain(data);
    }
    data.close();
    data = new InputStream();
    data.read();
    data.close();
}
"#
    .to_owned();
    Benchmark {
        name: "HandleReuse",
        description: "reused stream handles / IOStreams",
        source,
        single_strategy: strategies::IOSTREAM_SINGLE,
        multi_strategy: None,
        incremental_strategy: None,
        modes: vec![TableMode::Vanilla, TableMode::Single, TableMode::Sim],
        actual_errors: 0,
        expected_reported: vec![Some(0), Some(0), Some(0)],
    }
}

/// `JDBCExample`: the extended running example — seven overlapping
/// connections, one of which contains the Fig. 1 defect (a ResultSet used
/// after being implicitly closed by a second `executeQuery`).
pub fn jdbc_example() -> Benchmark {
    Benchmark {
        name: "JDBCExample",
        description: "extended example / JDBC",
        source: jdbc_client(
            "JdbcExample",
            &JdbcWorkload {
                connections: 7,
                queries_per_connection: 2,
                buggy_connection: Some(2),
                interleaved: true,
                ..JdbcWorkload::default()
            },
        ),
        single_strategy: strategies::JDBC_SINGLE,
        multi_strategy: Some(strategies::JDBC_MULTI),
        incremental_strategy: Some(strategies::JDBC_INCREMENTAL),
        modes: vec![
            TableMode::Vanilla,
            TableMode::Single,
            TableMode::Multi,
            TableMode::Inc,
        ],
        actual_errors: 1,
        expected_reported: vec![Some(1), Some(1), Some(1), Some(1)],
    }
}

/// `JDBCExampleFixed`: the corrected variant (0 errors in every mode).
pub fn jdbc_example_fixed() -> Benchmark {
    Benchmark {
        name: "JDBCExampleFixed",
        description: "extended example fixed / JDBC",
        source: jdbc_client(
            "JdbcExampleFixed",
            &JdbcWorkload {
                connections: 7,
                queries_per_connection: 2,
                buggy_connection: None,
                interleaved: true,
                ..JdbcWorkload::default()
            },
        ),
        single_strategy: strategies::JDBC_SINGLE,
        multi_strategy: Some(strategies::JDBC_MULTI),
        incremental_strategy: Some(strategies::JDBC_INCREMENTAL),
        modes: vec![
            TableMode::Vanilla,
            TableMode::Single,
            TableMode::Multi,
            TableMode::Inc,
        ],
        actual_errors: 0,
        expected_reported: vec![Some(0), Some(0), Some(0), Some(0)],
    }
}

/// `db`: the SpecJVM98 memory-resident database analog (stream-driven table
/// scans; correct).
pub fn db() -> Benchmark {
    Benchmark {
        name: "db",
        description: "SpecJVM98 db / IOStreams",
        source: db_program(4),
        single_strategy: strategies::IOSTREAM_SINGLE,
        multi_strategy: None,
        incremental_strategy: None,
        modes: vec![TableMode::Vanilla, TableMode::Single, TableMode::Sim],
        actual_errors: 0,
        expected_reported: vec![Some(0), Some(0), Some(0)],
    }
}

/// `KernelBench1`: the collections/iterators kernel with one concurrent
/// modification bug.
pub fn kernel_bench1() -> Benchmark {
    Benchmark {
        name: "KernelBench1",
        description: "Collections benchmark / CMP",
        source: kernel(
            "KernelBench1",
            &KernelWorkload {
                collections: 2,
                buggy_collection: Some(1),
                interleaved: false,
            },
        ),
        single_strategy: strategies::CMP_SINGLE,
        multi_strategy: Some(strategies::CMP_MULTI),
        incremental_strategy: Some(strategies::CMP_INCREMENTAL),
        modes: vec![
            TableMode::Vanilla,
            TableMode::Single,
            TableMode::Sim,
            TableMode::Multi,
            TableMode::Inc,
        ],
        actual_errors: 1,
        expected_reported: vec![Some(1), Some(1), Some(1), Some(1), Some(1)],
    }
}

/// `KernelBench3`: the larger kernel — interleaved mutation phases make the
/// vanilla state space a product over collections; vanilla does not finish
/// within budget (the paper's `-` row).
pub fn kernel_bench3() -> Benchmark {
    Benchmark {
        name: "KernelBench3",
        description: "Collections benchmark / CMP",
        source: kernel(
            "KernelBench3",
            &KernelWorkload {
                collections: 7,
                buggy_collection: Some(2),
                interleaved: true,
            },
        ),
        single_strategy: strategies::CMP_SINGLE,
        multi_strategy: Some(strategies::CMP_MULTI),
        incremental_strategy: Some(strategies::CMP_INCREMENTAL),
        modes: vec![
            TableMode::Vanilla,
            TableMode::Single,
            TableMode::Sim,
            TableMode::Multi,
            TableMode::Inc,
        ],
        actual_errors: 1,
        expected_reported: vec![None, Some(1), Some(1), Some(1), Some(1)],
    }
}

/// `SQLExecutor`: the open-source JDBC-framework analog — large, correct,
/// with overlapping connection lifetimes; vanilla does not finish, the
/// separation modes verify it.
pub fn sql_executor() -> Benchmark {
    Benchmark {
        name: "SQLExecutor",
        description: "JDBC framework / JDBC",
        source: gen_sql_executor(&SqlExecutorWorkload {
            executors: 12,
            queries: 3,
        }),
        single_strategy: strategies::JDBC_SINGLE,
        multi_strategy: Some(strategies::JDBC_MULTI),
        incremental_strategy: Some(strategies::JDBC_INCREMENTAL),
        modes: vec![
            TableMode::Vanilla,
            TableMode::Single,
            TableMode::Multi,
            TableMode::Inc,
        ],
        actual_errors: 0,
        expected_reported: vec![None, Some(0), Some(0), Some(0)],
    }
}

/// `SharedLib`: one library procedure called from many sites across many
/// client streams — the summary-cache stress shape. Correct usage
/// throughout; every mode verifies.
pub fn shared_lib() -> Benchmark {
    Benchmark {
        name: "SharedLib",
        description: "shared library clients / IOStreams",
        source: gen_shared_lib(
            "SharedLib",
            &SharedLibWorkload {
                clients: 3,
                calls_per_client: 4,
                lib_reads: 3,
                loop_wrapped: false,
                buggy_client: None,
            },
        ),
        single_strategy: strategies::IOSTREAM_SINGLE,
        multi_strategy: None,
        incremental_strategy: None,
        modes: vec![TableMode::Vanilla, TableMode::Single, TableMode::Sim],
        actual_errors: 0,
        expected_reported: vec![Some(0), Some(0), Some(0)],
    }
}

/// `SharedLibLoop`: the loop-wrapped erroneous variant — library calls
/// under non-deterministic repetition, plus one client passed to the
/// library *after* it is closed. Both `read()` lines of the shared body
/// fail for that client, so every mode reports the two per-line errors.
pub fn shared_lib_loop() -> Benchmark {
    Benchmark {
        name: "SharedLibLoop",
        description: "shared library loop err / IOStreams",
        source: gen_shared_lib(
            "SharedLibLoop",
            &SharedLibWorkload {
                clients: 2,
                calls_per_client: 2,
                lib_reads: 2,
                loop_wrapped: true,
                buggy_client: Some(1),
            },
        ),
        single_strategy: strategies::IOSTREAM_SINGLE,
        multi_strategy: None,
        incremental_strategy: None,
        modes: vec![TableMode::Vanilla, TableMode::Single, TableMode::Sim],
        actual_errors: 2,
        expected_reported: vec![Some(2), Some(2), Some(2)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_counts_roughly_match_paper_scale() {
        assert!(is_path().line_count() >= 30);
        assert!(jdbc_example().line_count() >= 40);
        assert!(sql_executor().line_count() >= 40);
    }

    #[test]
    fn buggy_and_fixed_differ_only_in_bug() {
        let buggy = jdbc_example();
        let fixed = jdbc_example_fixed();
        assert!(buggy.source.contains("stale2"));
        assert!(!fixed.source.contains("stale2"));
    }

    #[test]
    fn input_stream_family_shares_shape() {
        let a = input_stream5();
        let b = input_stream5b();
        assert!(a.source.contains("g.read();\n        g.close();"));
        assert!(b.source.contains("g.close();\n        g.read();"));
    }
}
