//! Quickstart: parse a client program, verify it against a built-in Easl
//! specification, and print the result.
//!
//! ```sh
//! cargo run -p hetsep --example quickstart
//! ```

use hetsep::core::{Mode, Phase, Verifier};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small client of the IO-streams library: the second read happens
    // after the stream was closed on one branch.
    let source = r#"
program Quickstart uses IOStreams;

void main() {
    InputStream log = new InputStream();
    log.read();
    if (?) {
        log.close();
    }
    log.read();
    log.close();
}
"#;
    let program = hetsep::ir::parse_program(source)?;
    println!("program `{}` uses spec `{}`", program.name, program.uses);

    // The library's abstract semantics and usage rules, written in Easl
    // (paper Fig. 4 style). Print the relevant class for illustration.
    let spec = hetsep::easl::builtin::iostreams();
    let stream = spec.class("InputStream").expect("spec class");
    println!(
        "InputStream spec: {} fields, {} methods (read requires !closed)",
        stream.fields.len(),
        stream.methods.len()
    );

    // Verify without separation first. The `Verifier` builder is the front
    // door; `Mode::Vanilla` and the default config are its defaults.
    let report = Verifier::new(&program, &spec).run()?;
    println!("\nvanilla verification:");
    for e in &report.errors {
        println!("  {e}");
    }
    println!(
        "  explored {} abstract structures in {:?}",
        report.max_space, report.total_wall
    );

    // And with a per-stream separation strategy, watching the engine
    // through the report's merged metrics.
    let strategy =
        hetsep::strategy::parse_strategy(hetsep::strategy::builtin::IOSTREAM_SINGLE)?;
    println!("\nstrategy:\n{}", hetsep::strategy::builtin::IOSTREAM_SINGLE.trim());
    let report = Verifier::new(&program, &spec)
        .mode(Mode::separation(strategy))
        .run()?;
    println!("separation verification ({} subproblems):", report.subproblems.len());
    for e in &report.errors {
        println!("  {e}");
    }
    println!(
        "  peak structures per subproblem {}, avg visits per subproblem {:.0}",
        report.max_space,
        report.avg_visits_per_subproblem()
    );
    println!(
        "  report metrics: {} subproblems, {} visits, {} focus applications",
        report.subproblems.len(),
        report.total_visits,
        report.metrics.phases.get(Phase::Focus).count
    );
    Ok(())
}
