//! Soundness of the static pruning pre-pass.
//!
//! Pruning (`EngineConfig::preanalysis` / `Verifier::with_preanalysis`)
//! must be *observation-equivalent*: for every suite benchmark and every
//! Table 3 mode, the verdict, the reported-error set, and the completeness
//! flag are byte-identical with pruning on and off. The only permitted
//! differences are which subproblems actually ran (`AnalysisOutcome::Pruned`
//! rows with zero stats) and, consequently, the effort totals.
//!
//! The pre-pass runs the flow-sensitive preanalysis alone. The ESP-style
//! baseline (`hetsep-baseline`) used to be pruned alongside it; the
//! containment tests below pin that dropping it loses nothing — every site
//! the baseline proves safe is still pruned.

use hetsep_core::vocab::SiteId;
use hetsep_core::{
    translate, AnalysisOutcome, Counter, EngineConfig, Mode, TranslateOptions, VerificationReport,
    Verifier, VerifyError,
};
use hetsep_easl::ast::Spec;
use hetsep_ir::Program;
use hetsep_strategy::ast::ChoiceMode;
use hetsep_strategy::parse_strategy;
use hetsep_suite::corpus::{generate, CorpusConfig};
use hetsep_suite::{Benchmark, TableMode};

/// The Table 3 budget (mirrors `hetsep::harness::table3_config`, which the
/// core crate cannot depend on).
fn budget() -> EngineConfig {
    EngineConfig {
        max_visits: 400_000,
        max_structures: 120_000,
        ..EngineConfig::default()
    }
}

fn core_mode(bench: &Benchmark, mode: TableMode) -> Result<Mode, VerifyError> {
    let parse =
        |src: &str| parse_strategy(src).map_err(|e| VerifyError::Strategy(e.to_string()));
    Ok(match mode {
        TableMode::Vanilla => Mode::Vanilla,
        TableMode::Single => Mode::separation(parse(bench.single_strategy)?),
        TableMode::Sim => Mode::simultaneous(parse(bench.single_strategy)?),
        TableMode::Multi => Mode::separation(parse(bench.multi_strategy.unwrap())?),
        TableMode::Inc => Mode::incremental(parse(bench.incremental_strategy.unwrap())?),
    })
}

fn run(bench: &Benchmark, mode: &Mode, preanalysis: bool) -> VerificationReport {
    let program = bench.program();
    let spec = bench.spec();
    Verifier::new(&program, &spec)
        .mode(mode.clone())
        .config(budget())
        .with_preanalysis(preanalysis)
        .run()
        .unwrap()
}

fn pruned_count(r: &VerificationReport) -> usize {
    r.subproblems
        .iter()
        .filter(|s| s.outcome == AnalysisOutcome::Pruned)
        .count()
}

/// The heart of the satellite: pruning never changes what is reported.
fn assert_equivalent(name: &str, mode_label: &str, off: &VerificationReport, on: &VerificationReport) {
    assert_eq!(
        format!("{:?}", off.errors),
        format!("{:?}", on.errors),
        "{name}/{mode_label}: error reports differ with pruning"
    );
    assert_eq!(
        off.verified(),
        on.verified(),
        "{name}/{mode_label}: verdict differs with pruning"
    );
    assert_eq!(
        off.complete, on.complete,
        "{name}/{mode_label}: complete flag differs with pruning"
    );
    assert_eq!(
        off.subproblems.len(),
        on.subproblems.len(),
        "{name}/{mode_label}: pruned rows must still appear as subproblems"
    );
    assert_eq!(pruned_count(off), 0, "{name}/{mode_label}: pruning leaked into the off run");
    // The counter and the outcome rows agree.
    assert_eq!(
        on.metrics.counters.get(Counter::SubproblemsPruned) as usize,
        pruned_count(on),
        "{name}/{mode_label}: subproblems_pruned counter out of sync"
    );
    // The preanalysis summary surfaces only on the pruned run.
    assert!(
        off.preanalysis.is_none(),
        "{name}/{mode_label}: summary leaked into the unpruned run"
    );
    // Unpruned subproblems keep identical stats, in the same positions.
    for (o, n) in off.subproblems.iter().zip(&on.subproblems) {
        assert_eq!(o.site, n.site, "{name}/{mode_label}: site order changed");
        if n.outcome == AnalysisOutcome::Pruned {
            assert_eq!(n.errors, 0, "{name}/{mode_label}: pruned row reported errors");
            assert_eq!(n.stats.visits, 0, "{name}/{mode_label}: pruned row did work");
        } else {
            assert_eq!(
                o.stats.visits, n.stats.visits,
                "{name}/{mode_label}: unpruned subproblem's work changed"
            );
            assert_eq!(o.errors, n.errors, "{name}/{mode_label}: per-site errors changed");
        }
    }
}

/// The allocation sites a non-simultaneous separation mode fans out over:
/// those of its first stage's first `choose some` class (empty for every
/// other mode).
fn family(program: &Program, spec: &Spec, mode: &Mode) -> Vec<SiteId> {
    let Mode::Separation {
        strategy,
        simultaneous: false,
        heterogeneous,
    } = mode
    else {
        return Vec::new();
    };
    let stage = &strategy.stages[0];
    let Some(choice) = stage.choices.iter().find(|c| c.mode == ChoiceMode::Some) else {
        return Vec::new();
    };
    let options = TranslateOptions {
        stage: Some(stage.clone()),
        heterogeneous: *heterogeneous,
        ..TranslateOptions::default()
    };
    translate(program, spec, &options)
        .unwrap()
        .sites_of(&choice.class)
        .to_vec()
}

/// Asserts that every site of `mode`'s family that the ESP-style baseline
/// proves safe is a `Pruned` subproblem of the preanalysis run, and returns
/// `(baseline-safe sites, pruned subproblems)`.
///
/// Pruning is decided before any subproblem runs and pruned rows are
/// recorded whatever the runs do, so a one-visit budget keeps the check
/// cheap without changing which sites are pruned.
fn baseline_safe_sites_are_pruned(
    name: &str,
    program: &Program,
    spec: &Spec,
    mode: &Mode,
) -> (usize, usize) {
    let Ok(baseline) = hetsep_baseline::verify_with_suspects(program, spec) else {
        return (0, 0);
    };
    let report = Verifier::new(program, spec)
        .mode(mode.clone())
        .config(EngineConfig {
            max_visits: 1,
            ..budget()
        })
        .with_preanalysis(true)
        .run()
        .unwrap();
    let mut safe = 0;
    for site in family(program, spec, mode) {
        if !baseline.proved_safe(site) {
            continue;
        }
        safe += 1;
        assert!(
            report
                .subproblems
                .iter()
                .any(|s| s.site == Some(site) && s.outcome == AnalysisOutcome::Pruned),
            "{name}: the baseline proves site {site} safe but the preanalysis kept it"
        );
    }
    (safe, pruned_count(&report))
}

/// Runs the containment check over the first `jobs` seed-42 corpus jobs
/// (every job with a strategy, as non-simultaneous separation over it) and
/// returns the summed `(baseline-safe, pruned)` counts.
fn corpus_containment(jobs: usize) -> (usize, usize) {
    let mut totals = (0, 0);
    for job in generate(&CorpusConfig { jobs, seed: 42 }) {
        let Some(strategy) = job.strategy else {
            continue;
        };
        let program = hetsep_ir::parse_program(&job.program).unwrap();
        let spec = hetsep_easl::builtin::by_name(&program.uses).unwrap();
        let mode = Mode::separation(parse_strategy(strategy).unwrap());
        let (safe, pruned) = baseline_safe_sites_are_pruned(&job.name, &program, &spec, &mode);
        totals.0 += safe;
        totals.1 += pruned;
    }
    totals
}

/// Every site the ESP-style baseline proves safe is also pruned by the
/// flow-sensitive preanalysis, on the suite's separation rows and a corpus
/// sample — so pruning with the preanalysis alone loses nothing.
#[test]
fn baseline_safe_sites_are_pruned_on_suite_and_corpus_sample() {
    let (mut safe, mut pruned) = (0, 0);
    for bench in hetsep_suite::all() {
        let program = bench.program();
        let spec = bench.spec();
        for &table_mode in &bench.modes {
            if !matches!(table_mode, TableMode::Single | TableMode::Multi) {
                continue;
            }
            let mode = core_mode(&bench, table_mode).unwrap();
            let name = format!("{}/{}", bench.name, table_mode.label());
            let (s, p) = baseline_safe_sites_are_pruned(&name, &program, &spec, &mode);
            safe += s;
            pruned += p;
        }
    }
    let (s, p) = corpus_containment(50);
    assert!(
        s > 0,
        "the corpus sample should exercise baseline-safe sites"
    );
    safe += s;
    pruned += p;
    assert!(
        pruned > safe,
        "the preanalysis ({pruned}) should out-prune the baseline ({safe})"
    );
}

/// The containment check over the whole 2000-job seed-42 corpus pool.
/// Release builds only.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn baseline_safe_sites_are_pruned_on_the_corpus_pool() {
    let (safe, pruned) = corpus_containment(2000);
    assert!(
        safe > 0 && pruned > safe,
        "baseline {safe}, preanalysis {pruned}"
    );
}

/// Small hand-written programs covering the interesting pruning shapes:
/// all-safe (everything pruned), mixed (one suspect, one safe), heap-linked
/// components, and baseline false alarms (nothing pruned, engine verifies).
#[test]
fn pruning_is_observation_equivalent_on_scenarios() {
    let cases: &[(&str, &str, &str)] = &[
        (
            "all_safe",
            "program P uses IOStreams; void main() {\n\
             InputStream a = new InputStream();\n\
             InputStream b = new InputStream();\n\
             a.read();\n\
             a.close();\n\
             b.read();\n\
             b.close();\n}",
            hetsep_strategy::builtin::IOSTREAM_SINGLE,
        ),
        (
            "one_suspect_one_safe",
            "program P uses IOStreams; void main() {\n\
             InputStream a = new InputStream();\n\
             InputStream b = new InputStream();\n\
             a.close();\n\
             a.read();\n\
             b.read();\n\
             b.close();\n}",
            hetsep_strategy::builtin::IOSTREAM_SINGLE,
        ),
        (
            "loop_site_stays_suspect",
            "program P uses IOStreams; void main() {\n\
             while (?) {\n\
             File f = new File();\n\
             f.read();\n\
             f.close();\n\
             }\n}",
            hetsep_strategy::builtin::IOSTREAM_SINGLE,
        ),
        (
            "reassigned_handle",
            "program P uses IOStreams; void main() {\n\
             InputStream f = new InputStream();\n\
             f.read();\n\
             f.close();\n\
             f = new InputStream();\n\
             f.read();\n\
             f.close();\n}",
            hetsep_strategy::builtin::IOSTREAM_SINGLE,
        ),
        (
            "heap_linked_component",
            "program P uses JDBC; void main() {\n\
             ConnectionManager cm = new ConnectionManager();\n\
             Connection con = cm.getConnection();\n\
             Statement st = cm.createStatement(con);\n\
             ResultSet rs1 = st.executeQuery(\"a\");\n\
             ResultSet rs2 = st.executeQuery(\"b\");\n\
             while (rs1.next()) {\n\
             }\n}",
            hetsep_strategy::builtin::JDBC_SINGLE,
        ),
    ];
    for (name, src, strategy) in cases {
        let bench = Benchmark {
            name,
            description: "",
            source: (*src).to_owned(),
            single_strategy: strategy,
            multi_strategy: None,
            incremental_strategy: None,
            modes: vec![TableMode::Single],
            actual_errors: 0,
            expected_reported: vec![None],
        };
        let mode = core_mode(&bench, TableMode::Single).unwrap();
        let off = run(&bench, &mode, false);
        let on = run(&bench, &mode, true);
        assert_equivalent(name, "single", &off, &on);
    }
    // Spot-check the shapes actually exercise pruning both ways.
    let bench = Benchmark {
        name: "all_safe",
        description: "",
        source: cases[0].1.to_owned(),
        single_strategy: cases[0].2,
        multi_strategy: None,
        incremental_strategy: None,
        modes: vec![TableMode::Single],
        actual_errors: 0,
        expected_reported: vec![None],
    };
    let mode = core_mode(&bench, TableMode::Single).unwrap();
    let on = run(&bench, &mode, true);
    assert_eq!(pruned_count(&on), 2, "clean program: every site pruned");
    assert!(on.verified());
}

/// The preanalysis prunes what the ESP-style baseline cannot: the
/// reassigned handle's two allocation sites both flow into `f`, which
/// defeats the flow-insensitive baseline on one of them, but not the
/// flow-sensitive analysis, which keeps the lifetimes apart and prunes both
/// subproblems.
#[test]
fn flow_generation_prunes_what_the_baseline_cannot() {
    let bench = Benchmark {
        name: "reassigned_handle",
        description: "",
        source: "program P uses IOStreams; void main() {\n\
                 InputStream f = new InputStream();\n\
                 f.read();\n\
                 f.close();\n\
                 f = new InputStream();\n\
                 f.read();\n\
                 f.close();\n}"
            .to_owned(),
        single_strategy: hetsep_strategy::builtin::IOSTREAM_SINGLE,
        multi_strategy: None,
        incremental_strategy: None,
        modes: vec![TableMode::Single],
        actual_errors: 0,
        expected_reported: vec![None],
    };
    let mode = core_mode(&bench, TableMode::Single).unwrap();
    let (program, spec) = (bench.program(), bench.spec());
    let (baseline_safe, _) = baseline_safe_sites_are_pruned(bench.name, &program, &spec, &mode);
    let on = run(&bench, &mode, true);
    assert_eq!(pruned_count(&on), 2, "both sites pruned");
    assert!(
        baseline_safe < 2,
        "the baseline should keep a suspect ({baseline_safe} safe)"
    );
    assert!(on.verified());
}

/// Every suite benchmark × every Table 3 mode. Expensive (the full table
/// twice) — release builds only, like the Table 3 shape tests.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn pruning_is_observation_equivalent_on_the_suite() {
    let mut total_pruned = 0usize;
    for bench in hetsep_suite::all() {
        for &table_mode in &bench.modes {
            let mode = core_mode(&bench, table_mode).unwrap();
            let off = run(&bench, &mode, false);
            let on = run(&bench, &mode, true);
            assert_equivalent(bench.name, table_mode.label(), &off, &on);
            total_pruned += pruned_count(&on);
        }
    }
    assert!(
        total_pruned > 0,
        "the pre-pass should prune at least one subproblem somewhere in the suite"
    );
}
