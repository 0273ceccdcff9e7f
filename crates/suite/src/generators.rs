//! Scalable workload generators.
//!
//! The large benchmarks of Table 3 (`db`, `KernelBench3`, `SQLExecutor`,
//! the extended `JDBCExample`) are generated: the generators control the
//! number of independent component families, the interleaving of their
//! lifetimes (which drives the vanilla state-space product), and the
//! presence of usage bugs. The ablation benches reuse them with swept
//! parameters.

use std::fmt::Write as _;

use hetsep_prng::XorShift;

/// Parameters for JDBC client generation.
#[derive(Debug, Clone)]
pub struct JdbcWorkload {
    /// Number of connections.
    pub connections: usize,
    /// Result sets executed per connection's statement.
    pub queries_per_connection: usize,
    /// Index of the connection with the Fig. 1 bug (use a stale ResultSet
    /// after a second `executeQuery`), if any.
    pub buggy_connection: Option<usize>,
    /// Interleave connection lifetimes with non-deterministic early closes —
    /// this makes the vanilla state space the *product* of the per-connection
    /// state spaces.
    pub interleaved: bool,
    /// Seed for the deterministic interleaving shuffle.
    pub seed: u64,
}

impl Default for JdbcWorkload {
    fn default() -> JdbcWorkload {
        JdbcWorkload {
            connections: 5,
            queries_per_connection: 2,
            buggy_connection: None,
            interleaved: false,
            seed: 7,
        }
    }
}

/// Generates a JDBC client program.
pub fn jdbc_client(name: &str, w: &JdbcWorkload) -> String {
    let mut out = String::new();
    writeln!(out, "program {name} uses JDBC;").unwrap();
    writeln!(out).unwrap();
    writeln!(out, "void main() {{").unwrap();
    writeln!(out, "    ConnectionManager cm = new ConnectionManager();").unwrap();
    if w.interleaved {
        // Phase 1: open everything; phase 2: operate in shuffled order with
        // non-deterministic early statement closes; phase 3: close.
        for i in 0..w.connections {
            writeln!(out, "    Connection con{i} = cm.getConnection();").unwrap();
            writeln!(out, "    Statement st{i} = cm.createStatement(con{i});").unwrap();
        }
        let mut order: Vec<usize> = (0..w.connections).collect();
        XorShift::new(w.seed).shuffle(&mut order);
        for &i in &order {
            if w.buggy_connection == Some(i) {
                // The Fig. 1 defect inside an overlapping lifetime.
                writeln!(out, "    ResultSet stale{i} = st{i}.executeQuery(\"bal\");").unwrap();
                writeln!(out, "    ResultSet fresh{i} = st{i}.executeQuery(\"max\");").unwrap();
                writeln!(out, "    if (fresh{i}.next()) {{").unwrap();
                writeln!(out, "    }}").unwrap();
                writeln!(out, "    while (stale{i}.next()) {{").unwrap();
                writeln!(out, "    }}").unwrap();
                continue;
            }
            writeln!(out, "    if (?) {{").unwrap();
            writeln!(out, "        st{i}.close();").unwrap();
            writeln!(out, "    }} else {{").unwrap();
            for q in 0..w.queries_per_connection {
                writeln!(out, "        ResultSet rs{i}_{q} = st{i}.executeQuery(\"q{q}\");").unwrap();
                writeln!(out, "        while (rs{i}_{q}.next()) {{").unwrap();
                writeln!(out, "        }}").unwrap();
            }
            writeln!(out, "    }}").unwrap();
        }
        for &i in &order {
            writeln!(out, "    con{i}.close();").unwrap();
        }
    } else {
        for i in 0..w.connections {
            writeln!(out, "    Connection con{i} = cm.getConnection();").unwrap();
            writeln!(out, "    Statement st{i} = cm.createStatement(con{i});").unwrap();
            if w.buggy_connection == Some(i) {
                // The Fig. 1 defect: the second executeQuery implicitly
                // closes stale{i}, which is then advanced.
                writeln!(out, "    ResultSet stale{i} = st{i}.executeQuery(\"bal\");").unwrap();
                writeln!(out, "    ResultSet fresh{i} = st{i}.executeQuery(\"max\");").unwrap();
                writeln!(out, "    if (fresh{i}.next()) {{").unwrap();
                writeln!(out, "    }}").unwrap();
                writeln!(out, "    while (stale{i}.next()) {{").unwrap();
                writeln!(out, "    }}").unwrap();
            } else {
                for q in 0..w.queries_per_connection {
                    writeln!(out, "    ResultSet rs{i}_{q} = st{i}.executeQuery(\"q{q}\");").unwrap();
                    writeln!(out, "    while (rs{i}_{q}.next()) {{").unwrap();
                    writeln!(out, "    }}").unwrap();
                }
            }
            writeln!(out, "    con{i}.close();").unwrap();
        }
    }
    writeln!(out, "}}").unwrap();
    out
}

/// Generates the SpecJVM98 `db` analog: a memory-resident database whose
/// operations (scan, lookup, write-back) are driven by input/output streams
/// opened per phase. Correct usage throughout.
pub fn db_program(tables: usize) -> String {
    let mut out = String::new();
    writeln!(out, "program Db uses IOStreams;").unwrap();
    writeln!(out).unwrap();
    // Helper procedures mirror the db benchmark's phase structure.
    writeln!(out, "void scan(InputStream in) {{").unwrap();
    writeln!(out, "    while (?) {{").unwrap();
    writeln!(out, "        in.read();").unwrap();
    writeln!(out, "    }}").unwrap();
    writeln!(out, "}}").unwrap();
    writeln!(out).unwrap();
    writeln!(out, "void writeBack(OutputStream outs) {{").unwrap();
    writeln!(out, "    while (?) {{").unwrap();
    writeln!(out, "        outs.write();").unwrap();
    writeln!(out, "    }}").unwrap();
    writeln!(out, "}}").unwrap();
    writeln!(out).unwrap();
    writeln!(out, "void main() {{").unwrap();
    // The index stream lives across all table scans.
    writeln!(out, "    InputStream index = new InputStream();").unwrap();
    writeln!(out, "    index.read();").unwrap();
    for t in 0..tables {
        writeln!(out, "    InputStream tab{t} = new InputStream();").unwrap();
        writeln!(out, "    scan(tab{t});").unwrap();
        writeln!(out, "    if (?) {{").unwrap();
        writeln!(out, "        OutputStream log{t} = new OutputStream();").unwrap();
        writeln!(out, "        writeBack(log{t});").unwrap();
        writeln!(out, "        log{t}.close();").unwrap();
        writeln!(out, "    }}").unwrap();
        writeln!(out, "    index.read();").unwrap();
        writeln!(out, "    tab{t}.close();").unwrap();
    }
    writeln!(out, "    index.close();").unwrap();
    writeln!(out, "}}").unwrap();
    out
}

/// Parameters for the collections/iterators kernels.
#[derive(Debug, Clone)]
pub struct KernelWorkload {
    /// Number of independent collections.
    pub collections: usize,
    /// Index of the collection whose iterator is advanced after a
    /// structural modification (the concurrent-modification bug), if any.
    pub buggy_collection: Option<usize>,
    /// Interleave the collections' mutation phases non-deterministically.
    pub interleaved: bool,
}

/// Generates a collections/iterators kernel (the CMP benchmarks of
/// Ramalingam et al. used by Table 3's `KernelBench` rows).
pub fn kernel(name: &str, w: &KernelWorkload) -> String {
    let mut out = String::new();
    writeln!(out, "program {name} uses CMP;").unwrap();
    writeln!(out).unwrap();
    writeln!(out, "void main() {{").unwrap();
    for i in 0..w.collections {
        writeln!(out, "    Collection c{i} = new Collection();").unwrap();
        writeln!(out, "    Element x{i} = new Element();").unwrap();
        writeln!(out, "    c{i}.add(x{i});").unwrap();
    }
    for i in 0..w.collections {
        writeln!(out, "    Iterator it{i} = c{i}.iterator();").unwrap();
    }
    if w.interleaved {
        // Non-deterministic mutation phase: each collection may be
        // structurally modified, invalidating its iterator; correct code
        // re-acquires the iterator afterwards.
        for i in 0..w.collections {
            writeln!(out, "    if (?) {{").unwrap();
            writeln!(out, "        Element y{i} = new Element();").unwrap();
            writeln!(out, "        c{i}.add(y{i});").unwrap();
            writeln!(out, "        Iterator fresh{i} = c{i}.iterator();").unwrap();
            writeln!(out, "        it{i} = fresh{i};").unwrap();
            writeln!(out, "    }}").unwrap();
        }
    }
    for i in 0..w.collections {
        writeln!(out, "    while (it{i}.hasNext()) {{").unwrap();
        writeln!(out, "        Element e{i} = it{i}.next();").unwrap();
        writeln!(out, "    }}").unwrap();
        if w.buggy_collection == Some(i) {
            // Advance after a modification without re-acquiring: the bug
            // (one erroneous program location).
            writeln!(out, "    Element z{i} = new Element();").unwrap();
            writeln!(out, "    c{i}.add(z{i});").unwrap();
            writeln!(out, "    Element late{i} = it{i}.next();").unwrap();
        }
    }
    writeln!(out, "}}").unwrap();
    out
}

/// Parameters for the SQLExecutor-analog generator.
#[derive(Debug, Clone)]
pub struct SqlExecutorWorkload {
    /// Number of executor helpers (each owns a connection).
    pub executors: usize,
    /// Queries per executor.
    pub queries: usize,
}

/// Generates the SQLExecutor analog: a JDBC framework with helper
/// procedures (`runQuery`, `withConnection`) and many call sites, all using
/// JDBC correctly — the benchmark where vanilla verification does not
/// finish but incremental verification succeeds.
pub fn sql_executor(w: &SqlExecutorWorkload) -> String {
    let mut out = String::new();
    writeln!(out, "program SqlExecutor uses JDBC;").unwrap();
    writeln!(out).unwrap();
    writeln!(out, "void runQuery(Statement st) {{").unwrap();
    writeln!(out, "    ResultSet rs = st.executeQuery(\"framework\");").unwrap();
    writeln!(out, "    while (rs.next()) {{").unwrap();
    writeln!(out, "    }}").unwrap();
    writeln!(out, "}}").unwrap();
    writeln!(out).unwrap();
    writeln!(out, "Statement openStatement(ConnectionManager cm, Connection con) {{").unwrap();
    writeln!(out, "    Statement st = cm.createStatement(con);").unwrap();
    writeln!(out, "    return st;").unwrap();
    writeln!(out, "}}").unwrap();
    writeln!(out).unwrap();
    writeln!(out, "void main() {{").unwrap();
    writeln!(out, "    ConnectionManager cm = new ConnectionManager();").unwrap();
    for i in 0..w.executors {
        writeln!(out, "    Connection con{i} = cm.getConnection();").unwrap();
        writeln!(out, "    Statement st{i} = openStatement(cm, con{i});").unwrap();
    }
    // Overlapping non-deterministic usage: the framework may or may not run
    // each query batch, and statements may be retired early.
    for i in 0..w.executors {
        writeln!(out, "    if (?) {{").unwrap();
        for _ in 0..w.queries {
            writeln!(out, "        runQuery(st{i});").unwrap();
        }
        writeln!(out, "    }} else {{").unwrap();
        writeln!(out, "        st{i}.close();").unwrap();
        writeln!(out, "    }}").unwrap();
    }
    for i in 0..w.executors {
        writeln!(out, "    con{i}.close();").unwrap();
    }
    writeln!(out, "}}").unwrap();
    out
}

/// Parameters for the shared-library clients.
#[derive(Debug, Clone)]
pub struct SharedLibWorkload {
    /// Number of independent client streams.
    pub clients: usize,
    /// Library call sites per client.
    pub calls_per_client: usize,
    /// `read()`s in the library procedure body.
    pub lib_reads: usize,
    /// Wrap each client's call run in a non-deterministic loop.
    pub loop_wrapped: bool,
    /// Index of the client closed *before* its last library call (a
    /// read-after-close inside the shared library body), if any.
    pub buggy_client: Option<usize>,
}

/// Generates a shared-library client: one library procedure (`process`)
/// called from `clients × calls_per_client` sites, every site passing a
/// different stream through the *same* callee body.
///
/// This is the call-region stress shape: every site splices the library
/// body, and a transfer in it that the run (or, warm, the shared transfer
/// store) has already computed replays instead of recomputing.
pub fn shared_lib(name: &str, w: &SharedLibWorkload) -> String {
    let mut out = String::new();
    writeln!(out, "program {name} uses IOStreams;").unwrap();
    writeln!(out).unwrap();
    writeln!(out, "void process(InputStream s) {{").unwrap();
    for _ in 0..w.lib_reads {
        writeln!(out, "    s.read();").unwrap();
    }
    writeln!(out, "}}").unwrap();
    writeln!(out).unwrap();
    writeln!(out, "void main() {{").unwrap();
    for i in 0..w.clients {
        writeln!(out, "    InputStream c{i} = new InputStream();").unwrap();
        let buggy = w.buggy_client == Some(i);
        let calls = if buggy {
            w.calls_per_client.saturating_sub(1)
        } else {
            w.calls_per_client
        };
        if w.loop_wrapped {
            writeln!(out, "    while (?) {{").unwrap();
            for _ in 0..calls {
                writeln!(out, "        process(c{i});").unwrap();
            }
            writeln!(out, "    }}").unwrap();
        } else {
            for _ in 0..calls {
                writeln!(out, "    process(c{i});").unwrap();
            }
        }
        writeln!(out, "    c{i}.close();").unwrap();
        if buggy {
            // The bug lives *inside* the shared body: the stream is already
            // closed when the library reads it.
            writeln!(out, "    process(c{i});").unwrap();
        }
    }
    writeln!(out, "}}").unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jdbc_client_parses_and_scales() {
        for n in [1, 3, 5] {
            let src = jdbc_client(
                "G",
                &JdbcWorkload {
                    connections: n,
                    ..JdbcWorkload::default()
                },
            );
            let p = hetsep_ir::parse_program(&src).unwrap();
            assert!(hetsep_ir::check::check_program(&p).is_empty());
        }
    }

    #[test]
    fn buggy_marker_changes_program() {
        let clean = jdbc_client("G", &JdbcWorkload::default());
        let buggy = jdbc_client(
            "G",
            &JdbcWorkload {
                buggy_connection: Some(2),
                ..JdbcWorkload::default()
            },
        );
        assert_ne!(clean, buggy);
        assert!(buggy.contains("stale2"));
    }

    #[test]
    fn interleaved_is_deterministic_per_seed() {
        let w = JdbcWorkload {
            interleaved: true,
            ..JdbcWorkload::default()
        };
        assert_eq!(jdbc_client("G", &w), jdbc_client("G", &w));
        let other = JdbcWorkload { seed: 99, ..w };
        // Different seed may shuffle differently (not guaranteed, but for
        // these seeds it does).
        assert_ne!(jdbc_client("G", &other), jdbc_client("G", &w));
    }

    #[test]
    fn db_and_kernels_parse() {
        for src in [
            db_program(3),
            kernel(
                "K1",
                &KernelWorkload {
                    collections: 1,
                    buggy_collection: Some(0),
                    interleaved: false,
                },
            ),
            kernel(
                "K3",
                &KernelWorkload {
                    collections: 4,
                    buggy_collection: Some(1),
                    interleaved: true,
                },
            ),
            sql_executor(&SqlExecutorWorkload {
                executors: 4,
                queries: 2,
            }),
            shared_lib(
                "SL",
                &SharedLibWorkload {
                    clients: 3,
                    calls_per_client: 4,
                    lib_reads: 3,
                    loop_wrapped: false,
                    buggy_client: None,
                },
            ),
            shared_lib(
                "SLL",
                &SharedLibWorkload {
                    clients: 2,
                    calls_per_client: 2,
                    lib_reads: 2,
                    loop_wrapped: true,
                    buggy_client: Some(1),
                },
            ),
        ] {
            let p = hetsep_ir::parse_program(&src).unwrap();
            assert!(
                hetsep_ir::check::check_program(&p).is_empty(),
                "{src}"
            );
        }
    }
}
