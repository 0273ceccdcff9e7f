//! Integration tests asserting the qualitative *shape* of the paper's
//! Table 3 — who reports what, and who wins on space — on the shipped
//! benchmarks.
//!
//! The fast tests run the light benchmarks; `full_table3` replays every row
//! (several minutes) and is `#[ignore]`d by default:
//! `cargo test -p hetsep --test table3_shape -- --ignored` runs it.

use hetsep::harness::{run_benchmark, run_mode, table3_config};
use hetsep::suite::{self, TableMode};

fn assert_expectations(name: &str) {
    let bench = suite::by_name(name).unwrap();
    let config = table3_config();
    let rows = run_benchmark(&bench, &config).unwrap();
    for (row, expected) in rows.iter().zip(&bench.expected_reported) {
        assert_eq!(
            row.reported, *expected,
            "{name}/{}: reported {:?}, expected {:?}",
            row.mode, row.reported, expected
        );
        assert_eq!(
            row.complete,
            row.reported.is_some(),
            "{name}/{}: `complete` must mirror whether a count was reported",
            row.mode
        );
    }
}

#[test]
fn ispath_all_modes_verify() {
    assert_expectations("ISPath");
}

#[test]
fn input_stream5_vanilla_false_alarm_removed_by_separation() {
    let bench = suite::by_name("InputStream5").unwrap();
    let config = table3_config();
    let vanilla = run_mode(&bench, TableMode::Vanilla, &config).unwrap();
    assert_eq!(vanilla.reported, Some(1), "vanilla must report a false alarm");
    let single = run_mode(&bench, TableMode::Single, &config).unwrap();
    assert_eq!(single.reported, Some(0), "separation must verify");
}

#[test]
fn input_stream5b_error_found_everywhere() {
    assert_expectations("InputStream5b");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive; run under --release")]
fn input_stream6_false_alarm_persists() {
    assert_expectations("InputStream6");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive; run under --release")]
fn jdbc_example_error_found_everywhere() {
    assert_expectations("JDBCExample");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive; run under --release")]
fn jdbc_example_fixed_verifies_everywhere() {
    assert_expectations("JDBCExampleFixed");
}

#[test]
fn db_verifies_everywhere() {
    assert_expectations("db");
}

#[test]
fn kernel_bench1_error_found_everywhere() {
    assert_expectations("KernelBench1");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive; run under --release")]
fn jdbc_example_separation_space_beats_vanilla() {
    let bench = suite::by_name("JDBCExample").unwrap();
    let config = table3_config();
    let vanilla = run_mode(&bench, TableMode::Vanilla, &config).unwrap();
    let single = run_mode(&bench, TableMode::Single, &config).unwrap();
    assert!(
        single.space < vanilla.space,
        "single-mode peak space ({}) must be below vanilla ({})",
        single.space,
        vanilla.space
    );
    // The paper's on-demand claim: the average cost of one subproblem is
    // far below the vanilla run.
    assert!(
        single.avg_visits_per_subproblem < vanilla.visits as f64,
        "avg per-subproblem visits ({}) must be below vanilla total ({})",
        single.avg_visits_per_subproblem,
        vanilla.visits
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive; run under --release")]
fn kernel_bench3_vanilla_explodes_separation_finishes() {
    let bench = suite::by_name("KernelBench3").unwrap();
    let config = table3_config();
    let vanilla = run_mode(&bench, TableMode::Vanilla, &config).unwrap();
    assert_eq!(vanilla.reported, None, "vanilla must exceed budget (the `-` row)");
    let single = run_mode(&bench, TableMode::Single, &config).unwrap();
    assert_eq!(single.reported, Some(1), "separation finds the real error");
    assert!(single.space * 10 < vanilla.space);
}

#[test]
#[ignore = "runs every Table 3 row; several minutes"]
fn full_table3() {
    for bench in suite::all() {
        let config = table3_config();
        let rows = run_benchmark(&bench, &config).unwrap();
        for (row, expected) in rows.iter().zip(&bench.expected_reported) {
            assert_eq!(
                row.reported, *expected,
                "{}/{}: reported {:?}, expected {:?}",
                bench.name, row.mode, row.reported, expected
            );
        }
    }
}
