//! Reference verdicts for the generated corpora, and the check every corpus
//! job and serve response is held to.
//!
//! The workloads draw their programs from two fixed pools minted by
//! `hetsep_suite::corpus` (see [`Pool`]). Each pool's verdicts were produced
//! once through the one-shot `Verifier` with the transfer cache, summaries
//! and preanalysis off at one thread, and are committed under
//! `perfbench/reference/`. Regenerate them with
//! `perfbench reference --dir perfbench/reference`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use hetsep::core::{EngineConfig, Mode, ParallelConfig, Verifier};
use hetsep::sched::Job;
use hetsep::suite::corpus::{generate, CorpusConfig};

/// A fixed pool of generated jobs with committed reference verdicts.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    pub file: &'static str,
    pub jobs: usize,
    pub seed: u64,
}

/// The pool corpus-cold draws its batch from. Its first 50 jobs are the CI
/// corpus smoke gate's jobs (`scripts/corpus_quick.golden`).
pub const CORPUS_POOL: Pool = Pool {
    file: "corpus-seed42.tsv",
    jobs: 2000,
    seed: 42,
};

/// The pool serve-edit loads programs and edits from: a different seed
/// stream than [`CORPUS_POOL`].
pub const SERVE_POOL: Pool = Pool {
    file: "serve-seed4242.tsv",
    jobs: 600,
    seed: 4242,
};

/// One job's expected outcome, and its visit count under the corpus
/// configuration with preanalysis on (the workloads' deterministic cost
/// proxy when they draw from a pool).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub verdict: String,
    pub reported: usize,
    pub visits: u64,
}

/// Generated jobs with their family labels.
pub type Jobs = Vec<(Job, &'static str)>;

/// A pool's generated jobs and its reference.
pub struct PoolJobs {
    pub jobs: Jobs,
    pub expected: HashMap<String, Expected>,
}

impl Pool {
    /// Generates the pool's jobs and loads its reference from `dir`.
    ///
    /// # Errors
    ///
    /// A missing or malformed reference file, or one that does not list
    /// every job of the pool.
    pub fn load(&self, dir: &Path) -> Result<PoolJobs, String> {
        let path = dir.join(self.file);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let expected = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let jobs = self.generate();
        if let Some((job, _)) = jobs.iter().find(|(j, _)| !expected.contains_key(&j.name)) {
            return Err(format!(
                "{}: no reference for job {}",
                path.display(),
                job.name
            ));
        }
        Ok(PoolJobs { jobs, expected })
    }

    fn generate(&self) -> Jobs {
        generate(&CorpusConfig {
            jobs: self.jobs,
            seed: self.seed,
        })
        .iter()
        .map(|j| (hetsep::corpus::to_job(j), j.family))
        .collect()
    }

    /// Verifies every job of the pool through the one-shot path and renders
    /// the reference file.
    pub fn render_reference(&self) -> String {
        let mut out = format!(
            "# reference verdicts: hetsep_suite::corpus jobs={} seed={}; one-shot Verifier, \
             corpus budget, transfer cache, summaries and preanalysis off, 1 thread\n\
             # visits: the same job under corpus_engine_config() (preanalysis on), 1 thread\n\
             # name\tverdict\treported\tvisits\n",
            self.jobs, self.seed
        );
        for (job, _) in self.generate() {
            let e = reference_verdict(&job);
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}",
                job.name, e.verdict, e.reported, e.visits
            );
        }
        out
    }
}

/// The one-shot reference verdict of one job (`failed` when it cannot run).
pub fn reference_verdict(job: &Job) -> Expected {
    let failed = Expected {
        verdict: "failed".into(),
        reported: 0,
        visits: 0,
    };
    let Ok(program) = hetsep::ir::parse_program(&job.program) else {
        return failed;
    };
    let Some(spec) = hetsep::easl::builtin::by_name(&program.uses) else {
        return failed;
    };
    let strategy = job
        .strategy
        .as_deref()
        .map(|s| hetsep::strategy::parse_strategy(s).expect("built-in strategies parse"));
    let Ok(mode) = Mode::from_kind(job.mode, strategy) else {
        return failed;
    };
    let one_thread = EngineConfig {
        parallel: ParallelConfig {
            threads: 1,
            intra_threads: 1,
        },
        ..hetsep::corpus::corpus_engine_config()
    };
    let plain = EngineConfig {
        transfer_cache: false,
        summaries: false,
        preanalysis: false,
        ..one_thread.clone()
    };
    let run = |config| {
        Verifier::new(&program, &spec)
            .mode(mode.clone())
            .config(config)
            .run()
    };
    match (run(plain), run(one_thread)) {
        (Ok(r), Ok(cost)) => Expected {
            verdict: verdict(r.errors.len(), r.complete).into(),
            reported: r.errors.len(),
            visits: cost.total_visits,
        },
        _ => failed,
    }
}

/// The verdict label every surface uses.
pub fn verdict(errors: usize, complete: bool) -> &'static str {
    if errors > 0 {
        "errors"
    } else if complete {
        "verified"
    } else {
        "incomplete"
    }
}

/// Parses a reference file (`name<TAB>verdict<TAB>reported<TAB>visits`,
/// `#` comments).
pub fn parse(text: &str) -> Result<HashMap<String, Expected>, String> {
    let mut out = HashMap::new();
    for (ix, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let [name, verdict, reported, visits] = fields[..] else {
            return Err(format!("line {}: expected 4 tab-separated fields", ix + 1));
        };
        let number = |field: &str, what: &str| {
            field
                .parse::<u64>()
                .map_err(|e| format!("line {}: {what}: {e}", ix + 1))
        };
        out.insert(
            name.to_owned(),
            Expected {
                verdict: verdict.to_owned(),
                reported: number(reported, "reported")? as usize,
                visits: number(visits, "visits")?,
            },
        );
    }
    Ok(out)
}

/// Checks one outcome against its reference.
///
/// # Errors
///
/// A description of the mismatch (a missing reference is a mismatch too).
pub fn check(
    expected: &HashMap<String, Expected>,
    name: &str,
    verdict: &str,
    reported: usize,
) -> Result<(), String> {
    match expected.get(name) {
        Some(e) if e.verdict == verdict && e.reported == reported => Ok(()),
        Some(e) => Err(format!(
            "{name}: got {verdict}/{reported}, reference {}/{}",
            e.verdict, e.reported
        )),
        None => Err(format!("{name}: no reference verdict")),
    }
}

/// The corpus smoke-gate summary line over the first `n` reference entries
/// of `jobs` (the format of `scripts/corpus_quick.golden`).
pub fn summary_line(
    jobs: &[(Job, &'static str)],
    expected: &HashMap<String, Expected>,
    n: usize,
) -> String {
    let first: Vec<&Expected> = jobs
        .iter()
        .take(n)
        .map(|(j, _)| &expected[&j.name])
        .collect();
    let count = |v: &str| first.iter().filter(|e| e.verdict == v).count();
    format!(
        "jobs={} verified={} errors={} incomplete={} failed={} reported={}",
        first.len(),
        count("verified"),
        count("errors"),
        count("incomplete"),
        count("failed"),
        first.iter().map(|e| e.reported).sum::<usize>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const REF: &str = "# comment\njdbc00000\tverified\t0\t10\nkernel00001\terrors\t2\t30\n";

    #[test]
    fn reference_round_trips_and_matches() {
        let r = parse(REF).unwrap();
        assert_eq!(r.len(), 2);
        assert!(check(&r, "jdbc00000", "verified", 0).is_ok());
        assert!(check(&r, "kernel00001", "errors", 2).is_ok());
    }

    #[test]
    fn flipped_verdict_is_caught() {
        let r = parse(REF).unwrap();
        assert!(check(&r, "jdbc00000", "errors", 0).is_err());
        assert!(check(&r, "kernel00001", "verified", 0).is_err());
        // Same verdict, different error count.
        assert!(check(&r, "kernel00001", "errors", 1).is_err());
        assert!(check(&r, "nope", "verified", 0).is_err());
    }

    #[test]
    fn malformed_reference_is_refused() {
        assert!(parse("a\tverified\t0\n").is_err());
        assert!(parse("a\tverified\tx\t1\n").is_err());
        assert!(parse("a\tverified\t0\t-1\n").is_err());
    }

    #[test]
    fn committed_references_cover_their_pools() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference");
        for pool in [CORPUS_POOL, SERVE_POOL] {
            let loaded = pool.load(&dir).unwrap();
            assert_eq!(loaded.expected.len(), pool.jobs, "{}", pool.file);
        }
    }

    /// The corpus pool's first 50 jobs are the CI smoke gate's corpus, so
    /// the reference must reproduce its golden summary.
    #[test]
    fn corpus_reference_agrees_with_the_smoke_gate_golden() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let golden = std::fs::read_to_string(root.join("../scripts/corpus_quick.golden")).unwrap();
        let pool = CORPUS_POOL.load(&root.join("reference")).unwrap();
        assert_eq!(summary_line(&pool.jobs, &pool.expected, 50), golden.trim());
    }
}
