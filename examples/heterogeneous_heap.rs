//! Heterogeneous abstraction visualized (paper Figs. 5 and 7): the concrete
//! heap of the JDBC example at the point before the second query, and the
//! abstract configuration in which the chosen connection's component is
//! tracked precisely while everything else collapses into coarse summaries.
//!
//! ```sh
//! cargo run -p hetsep --example heterogeneous_heap
//! ```

use hetsep::core::concrete::states_at_line;
use hetsep::core::engine::EngineConfig;
use hetsep::core::translate::{translate, TranslateOptions};
use hetsep::core::{Mode, Phase, Verifier};
use hetsep::strategy::parse_strategy;
use hetsep::tvl::canon::{blur, canonical_key};
use hetsep::tvl::display::to_text;

const PROGRAM: &str = r#"program TwoConnections uses JDBC;

void main() {
    ConnectionManager cm = new ConnectionManager();
    Connection con1 = cm.getConnection();
    Statement stmt1 = cm.createStatement(con1);
    ResultSet rs1 = stmt1.executeQuery("balances");
    Connection con2 = cm.getConnection();
    Statement stmt2 = cm.createStatement(con2);
    ResultSet rs2 = stmt2.executeQuery("balances");
    while (rs2.next()) {
    }
    con1.close();
    con2.close();
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = hetsep::ir::parse_program(PROGRAM)?;
    let spec = hetsep::easl::builtin::jdbc();

    // Panel (a) — the concrete configuration at the `while` (paper Fig. 5):
    // both connections' components fully materialized.
    let vanilla = translate(&program, &spec, &TranslateOptions::default())?;
    let concrete = states_at_line(&vanilla, 11, &EngineConfig::default());
    println!("== concrete configuration(s) at line 11 (cf. paper Fig. 5) ==\n");
    for s in &concrete {
        println!("{}", to_text(&s.clone(), &vanilla.vocab.table));
    }

    // Panel (b) — the heterogeneous abstract configuration (paper Fig. 7):
    // the subproblem for con2 keeps its component precise; con1's component
    // collapses.
    let strategy = parse_strategy(hetsep::strategy::builtin::JDBC_SINGLE)?;
    let options = TranslateOptions {
        stage: Some(strategy.stages[0].clone()),
        heterogeneous: true,
        ..TranslateOptions::default()
    };
    let inst = translate(&program, &spec, &options)?;
    let table = &inst.vocab.table;
    let states = states_at_line(&inst, 11, &EngineConfig::default());
    println!(
        "== heterogeneous abstract configurations at line 11 (cf. paper Fig. 7) ==\n\
         (showing blurred states of the subproblem where con2's component is chosen)\n"
    );
    let mut shown = 0;
    for s in &states {
        let blurred = canonical_key(&blur(s, table), table).into_structure();
        let text = to_text(&blurred, table);
        // Show configurations where the second connection is the chosen one.
        if text.contains("chosen[c]") && text.contains("con2") {
            println!("{text}");
            shown += 1;
            if shown >= 2 {
                break;
            }
        }
    }
    println!(
        "note: individuals of con1's component carry no chosen/relevant marks\n\
         and collapse into per-type summaries (the paper's `…=1/2` blob)."
    );

    // Where does the engine spend its effort verifying this heap? Run the
    // per-connection separation mode with per-phase wall-clock sampling
    // (observation-only: results are unchanged) and read the report's
    // merged metrics.
    let report = Verifier::new(&program, &spec)
        .mode(Mode::separation(strategy))
        .phase_timings(true)
        .run()?;
    println!(
        "\n== engine effort (per-connection separation, {} subproblem(s)) ==\n",
        report.subproblems.len()
    );
    for phase in Phase::ALL {
        let s = report.metrics.phases.get(phase);
        println!(
            "  {:<7} {:>7} applications  {:>8.3} ms",
            phase.label(),
            s.count,
            s.nanos as f64 / 1e6
        );
    }
    Ok(())
}
