//! Corpus drivers: bridge the suite's generated jobs to the scheduler.
//!
//! [`hetsep_suite::corpus`] mints deterministic streams of client programs;
//! [`hetsep_sched`] batches verification jobs over a worker pool with
//! persistent cross-job caches. This module converts between the two
//! vocabularies ([`TableMode`] → [`ModeKind`]) and fixes the engine budget
//! corpus runs use, so the CLI (`hetsep corpus`), the `corpus` bench bin,
//! and the CI smoke gate all measure the same thing.

use hetsep_core::{EngineConfig, ModeKind};
use hetsep_sched::Job;
use hetsep_suite::corpus::{generate, CorpusConfig, CorpusJob};
use hetsep_suite::TableMode;

/// Maps a Table 3 mode onto the workspace-wide mode family.
///
/// `Single` and `Multi` both schedule as plain (non-simultaneous)
/// separation — the label a job reports under is resolved from its
/// strategy's `choose` clauses, like every other surface.
pub fn job_mode(mode: TableMode) -> ModeKind {
    match mode {
        TableMode::Vanilla => ModeKind::Vanilla,
        TableMode::Single => ModeKind::Single,
        TableMode::Multi => ModeKind::Multi,
        TableMode::Sim => ModeKind::Sim,
        TableMode::Inc => ModeKind::Inc,
    }
}

/// Converts one generated corpus job into a scheduler job.
pub fn to_job(j: &CorpusJob) -> Job {
    Job {
        name: j.name.clone(),
        program: j.program.clone(),
        strategy: j.strategy.map(str::to_owned),
        mode: job_mode(j.mode),
    }
}

/// Generates the scheduler job list for a corpus configuration.
pub fn corpus_jobs(config: &CorpusConfig) -> Vec<Job> {
    generate(config).iter().map(to_job).collect()
}

/// Engine budget for corpus runs: the Table 3 budget shape, scaled down —
/// corpus programs are smaller than the explosive benchmark rows, and a
/// per-job ceiling keeps a thousand-job batch's worst case bounded. The
/// cross-job transfer store is on and so is the pre-analysis, mirroring
/// [`crate::harness::table3_config`].
pub fn corpus_engine_config() -> EngineConfig {
    EngineConfig {
        max_visits: 200_000,
        max_structures: 60_000,
        preanalysis: true,
        ..EngineConfig::default()
    }
}
