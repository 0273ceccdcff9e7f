//! Corpus-scale scheduler invariants, end-to-end over generated corpora:
//!
//! * **Schedule independence** — per-job results are byte-identical
//!   regardless of worker count and job submission order, and the merged
//!   store serializes to identical bytes for every worker count.
//! * **Cache observation equivalence** — a warm batch over a *persisted*
//!   (saved + reloaded) store reports identical verdicts, error counts, and
//!   visit counts, with strictly fewer transfer-cache misses.

use hetsep::corpus::{corpus_engine_config, corpus_jobs};
use hetsep::suite::corpus::CorpusConfig;
use hetsep_core::CacheFile;
use hetsep_prng::XorShift;
use hetsep_sched::{run_batch, BatchConfig, BatchResult, Job};

fn corpus(jobs: usize) -> Vec<Job> {
    corpus_jobs(&CorpusConfig { jobs, seed: 42 })
}

fn batch(jobs: &[Job], workers: usize, cache: &mut CacheFile) -> BatchResult {
    let cfg = BatchConfig {
        workers,
        engine: corpus_engine_config(),
    };
    run_batch(jobs, &cfg, &mut cache.transfers, &mut cache.summaries)
}

#[test]
fn results_are_independent_of_worker_count_and_job_order() {
    let jobs = corpus(24);

    let mut store_one = CacheFile::new();
    let one = batch(&jobs, 1, &mut store_one);
    let mut store_four = CacheFile::new();
    let four = batch(&jobs, 4, &mut store_four);

    for (a, b) in one.outcomes.iter().zip(&four.outcomes) {
        assert_eq!(a.stable_json(), b.stable_json(), "{}", a.name);
    }
    // Same job order ⇒ the merged stores are byte-identical too.
    assert_eq!(store_one.to_bytes(), store_four.to_bytes());

    // A shuffled submission order changes neither any job's outcome row.
    let mut shuffled = jobs.clone();
    XorShift::new(7).shuffle(&mut shuffled);
    let mut store_shuffled = CacheFile::new();
    let mixed = batch(&shuffled, 4, &mut store_shuffled);
    for (job, outcome) in shuffled.iter().zip(&mixed.outcomes) {
        let reference = one
            .outcomes
            .iter()
            .find(|o| o.name == job.name)
            .expect("job present in reference run");
        assert_eq!(reference.stable_json(), outcome.stable_json(), "{}", job.name);
    }
    assert_eq!(one.summary_line(), mixed.summary_line());
}

#[test]
fn persisted_cache_is_observation_equivalent() {
    let jobs = corpus(30);
    let dir = std::env::temp_dir().join("hetsep_corpus_sched_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("transfer.cache");

    let mut store = CacheFile::new();
    let cold = batch(&jobs, 4, &mut store);
    store.save(&path).unwrap();
    let entries = store.transfers.entry_count();
    assert!(entries > 0);

    let mut reloaded = CacheFile::load(&path).unwrap();
    assert_eq!(reloaded.transfers.entry_count(), entries);
    let warm = batch(&jobs, 4, &mut reloaded);
    std::fs::remove_file(&path).unwrap();

    // Observation equivalence: the cache changes how fast answers arrive,
    // never which answers arrive.
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(c.verdict, w.verdict, "{}", c.name);
        assert_eq!(c.reported, w.reported, "{}", c.name);
        assert_eq!(c.complete, w.complete, "{}", c.name);
        assert_eq!(c.visits, w.visits, "{}", c.name);
        assert_eq!(c.space, w.space, "{}", c.name);
    }
    assert_eq!(cold.summary_line(), warm.summary_line());

    // The warm run replays instead of recomputing: strictly fewer misses,
    // and the repeat corpus is a fixed point of the store.
    assert!(warm.total(|o| o.shared_hits) > 0);
    assert!(warm.total(|o| o.cache_misses) < cold.total(|o| o.cache_misses));
    assert_eq!(reloaded.transfers.entry_count(), entries, "no new entries on repeat");
}

/// FNV-1a, 64-bit: a dependency-free fingerprint for pinning bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn cache_file_bytes_are_pinned() {
    // The on-disk format is part of the contract: a fixed seed-42 slice
    // run at one worker must serialize to exactly these bytes. The slice
    // exercises both sections: its generated clients call helper
    // procedures, so call regions are summarized.
    let jobs = corpus(12);
    let mut cache = CacheFile::new();
    batch(&jobs, 1, &mut cache);
    assert!(cache.transfers.entry_count() > 0);
    assert!(cache.summaries.entry_count() > 0);
    let bytes = cache.to_bytes();
    assert_eq!(bytes.len(), 1_490_010);
    assert_eq!(fnv1a64(&bytes), 0x9b49_3cd7_d7b8_4f98);
}
