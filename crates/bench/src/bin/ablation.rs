//! Ablation study over the design choices DESIGN.md calls out:
//!
//! * heterogeneous abstraction on/off (separation with homogeneous A),
//! * transitive relevance on/off (paper §4.3),
//!
//! measured on a scaled JDBC workload and the InputStream5 holder program.
//! Every variant stores location sets as the plain powerset of canonical
//! structures; the paper's §5 structure merging is not implemented (see
//! DESIGN.md §3). `scripts/ci.sh` diffs the output against
//! `scripts/ablation_quick.golden`.
//!
//! ```sh
//! cargo run -p hetsep-bench --bin ablation --release
//! ```

use hetsep::core::engine::{run, EngineConfig};
use hetsep::core::translate::{translate, TranslateOptions};
use hetsep::strategy::parse_strategy;
use hetsep::suite;
use hetsep::suite::generators::{jdbc_client, JdbcWorkload};

struct Variant {
    name: &'static str,
    heterogeneous: bool,
    transitive: bool,
}

const VARIANTS: &[Variant] = &[
    Variant {
        name: "full (hetero + transitive, powerset)",
        heterogeneous: true,
        transitive: true,
    },
    Variant {
        name: "no heterogeneous abstraction",
        heterogeneous: false,
        transitive: true,
    },
    Variant {
        name: "no transitive relevance",
        heterogeneous: true,
        transitive: false,
    },
];

fn run_variant(
    source: &str,
    strategy_src: &str,
    v: &Variant,
) -> Result<(usize, u64, usize, bool), Box<dyn std::error::Error>> {
    let program = hetsep::ir::parse_program(source)?;
    let spec = hetsep::easl::builtin::by_name(&program.uses).expect("builtin spec");
    let strategy = parse_strategy(strategy_src)?;
    let options = TranslateOptions {
        stage: Some(strategy.stages[0].clone()),
        heterogeneous: v.heterogeneous,
        no_transitive_relevance: !v.transitive,
        ..TranslateOptions::default()
    };
    let inst = translate(&program, &spec, &options)?;
    let config = EngineConfig {
        // Tight caps: a truncated run still shows the space shape.
        max_visits: 30_000,
        max_structures: 20_000,
        ..EngineConfig::default()
    };
    let result = run(&inst, &config);
    Ok((
        result.stats.structures,
        result.stats.visits,
        result.errors.len(),
        result.outcome == hetsep::core::engine::AnalysisOutcome::Complete,
    ))
}

fn table(title: &str, source: &str, strategy_src: &str) {
    println!("== {title} ==");
    println!(
        "{:<38} {:>10} {:>10} {:>8} {:>9}",
        "variant", "structures", "visits", "errors", "complete"
    );
    for v in VARIANTS {
        match run_variant(source, strategy_src, v) {
            Ok((structures, visits, errors, complete)) => println!(
                "{:<38} {:>10} {:>10} {:>8} {:>9}",
                v.name, structures, visits, errors, complete
            ),
            Err(e) => println!("{:<38} failed: {e}", v.name),
        }
    }
    println!();
}

fn main() {
    let jdbc = jdbc_client(
        "Ablate",
        &JdbcWorkload {
            connections: 4,
            queries_per_connection: 2,
            buggy_connection: None,
            interleaved: true,
            seed: 11,
        },
    );
    table(
        "scaled JDBC workload (4 overlapping connections, correct)",
        &jdbc,
        hetsep::strategy::builtin::JDBC_SINGLE,
    );

    let is5 = suite::by_name("InputStream5").unwrap();
    table(
        "InputStream5 (holder list; correct — errors column shows false alarms)",
        &is5.source,
        is5.single_strategy,
    );
}
