//! `corpus-cold`: a seeded batch of 1000 generated jobs through
//! `hetsep_sched::run_batch` on two workers, every batch starting from empty
//! transfer and summary stores, under `corpus_engine_config()`.
//!
//! The batch is a seeded, cost-stratified draw (see [`draw`]) from the
//! committed [`CORPUS_POOL`], so every job has a reference verdict; a job
//! whose verdict or error count differs from it fails.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use hetsep::core::{EngineConfig, ParallelConfig, SummaryStore, TransferStore};
use hetsep::sched::{run_batch, BatchConfig, BatchResult, Job};
use hetsep_prng::XorShift;

use crate::layers::{self, CacheCounts, Item, Values, WalkVerify};
use crate::reference::{self, Expected, Jobs, CORPUS_POOL};
use crate::stats::{median, percentile};
use crate::trace::{SpanTotals, Tracer};
use crate::{another_unit, peak_rss_mb, Args, Measured, Outcome};

const JOBS: usize = 1000;
const WORKERS: usize = 2;
const WARMUP_JOBS: usize = 100;
const SETUPS: usize = 5;
/// Jobs driven through an in-process session in the traced run.
const SESSION_SAMPLE: usize = 24;

fn batch_config() -> BatchConfig {
    BatchConfig {
        workers: WORKERS,
        engine: hetsep::corpus::corpus_engine_config(),
    }
}

/// A seeded draw of `n` jobs from a pool, stratified by kind and cost.
///
/// Only jobs whose reference verdict is clean (verified or errors) take
/// part: incomplete or failed jobs would measure budget exhaustion, not
/// verification. Each (family, mode) group gets its share of the `n` jobs
/// (largest remainder); within a group, jobs are sorted by reference visits
/// and cut into strata of neighbours, and the seed picks one job from each.
/// So every draw has the same mix and about the same cost, while its jobs
/// differ. Returns the draw and the jobs left over, each in seeded order.
pub fn draw(
    jobs: Jobs,
    expected: &HashMap<String, Expected>,
    rng: &mut XorShift,
    n: usize,
) -> (Jobs, Jobs) {
    let mut groups: BTreeMap<(&'static str, &'static str), Jobs> = BTreeMap::new();
    for (job, family) in jobs {
        if matches!(expected[&job.name].verdict.as_str(), "verified" | "errors") {
            groups
                .entry((family, job.mode.as_str()))
                .or_default()
                .push((job, family));
        }
    }
    let total: usize = groups.values().map(Vec::len).sum();
    let n = n.min(total);
    // Largest-remainder shares of `n`, ties to the larger group.
    let mut shares: Vec<(usize, usize)> = groups
        .values()
        .map(|g| (g.len() * n / total.max(1), g.len() * n % total.max(1)))
        .collect();
    let mut left = n - shares.iter().map(|s| s.0).sum::<usize>();
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by_key(|&ix| std::cmp::Reverse(shares[ix].1));
    for ix in order {
        if left == 0 {
            break;
        }
        shares[ix].0 += 1;
        left -= 1;
    }
    let (mut drawn, mut rest) = (Vec::with_capacity(n), Vec::new());
    for (mut group, (k, _)) in groups.into_values().zip(shares) {
        group.sort_by_key(|(j, _)| (expected[&j.name].visits, j.name.clone()));
        let len = group.len();
        let picked: Vec<usize> = (0..k)
            .map(|s| {
                let (lo, hi) = (s * len / k, (s + 1) * len / k);
                lo + rng.gen_range(hi - lo)
            })
            .collect();
        for (ix, job) in group.into_iter().enumerate() {
            if picked.binary_search(&ix).is_ok() {
                drawn.push(job);
            } else {
                rest.push(job);
            }
        }
    }
    rng.shuffle(&mut drawn);
    rng.shuffle(&mut rest);
    (drawn, rest)
}

struct Input {
    jobs: Vec<Job>,
    expected: HashMap<String, Expected>,
}

/// Draws the batch and warms the scheduler on a slice of it with throwaway
/// stores.
fn setup(args: &Args) -> Result<Input, String> {
    let pool = CORPUS_POOL.load(&args.reference)?;
    let mut rng = XorShift::new(args.seed);
    let jobs: Vec<Job> = draw(pool.jobs, &pool.expected, &mut rng, JOBS)
        .0
        .into_iter()
        .map(|(j, _)| j)
        .collect();
    // Every k-th job by reference cost: a warm-up that costs the same
    // whatever the seed drew.
    let mut by_cost: Vec<&Job> = jobs.iter().collect();
    by_cost.sort_by_key(|j| (pool.expected[&j.name].visits, &j.name));
    let step = (jobs.len() / WARMUP_JOBS).max(1);
    let warm: Vec<Job> = by_cost.into_iter().step_by(step).cloned().collect();
    run_batch(
        &warm,
        &batch_config(),
        &mut TransferStore::new(),
        &mut SummaryStore::new(),
    );
    Ok(Input {
        jobs,
        expected: pool.expected,
    })
}

/// One cold batch; checks every outcome against the reference.
fn batch(
    input: &Input,
    outcome: &mut Outcome,
    store: &mut TransferStore,
    summaries: &mut SummaryStore,
) -> BatchResult {
    let result = run_batch(&input.jobs, &batch_config(), store, summaries);
    for o in &result.outcomes {
        outcome.attempted += 1;
        if let Err(e) = reference::check(&input.expected, &o.name, o.verdict, o.reported) {
            outcome.failures.push(e);
        }
    }
    result
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setups_s = Vec::new();
    let mut input = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let start = Instant::now();
        input = Some(setup(args)?);
        setups_s.push(start.elapsed().as_secs_f64());
    }
    let mut input = input.expect("set up at least once");
    if args.trace {
        return traced(args, &input, outcome);
    }
    // Each batch runs the same jobs in a fresh seeded order, so which heavy
    // jobs meet on the two workers, and which one finishes last, averages
    // out over a run instead of being fixed by the seed.
    let mut order = XorShift::new(args.seed ^ 0x0bad_5eed);

    let start = Instant::now();
    let mut units_s = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut ops = 0;
    let mut tails_ms = Vec::new();
    // Read after the first batch: later batches repeat its work.
    let mut rss_mb = 0.0;
    while another_unit(start, args.seconds, &units_s) {
        order.shuffle(&mut input.jobs);
        let result = batch(
            &input,
            &mut outcome,
            &mut TransferStore::new(),
            &mut SummaryStore::new(),
        );
        units_s.push(result.wall.as_secs_f64());
        ops += result.outcomes.len();
        let batch_ms: Vec<f64> = result
            .outcomes
            .iter()
            .map(|o| o.wall.as_secs_f64() * 1e3)
            .collect();
        tails_ms.push(percentile(&batch_ms, 99.0)?);
        latencies_ms.extend(batch_ms);
        if rss_mb == 0.0 {
            rss_mb = peak_rss_mb("self")?;
        }
    }
    let measured = Measured {
        setups_s,
        units_s,
        ops,
        tail_ms: median(&tails_ms),
        latencies_ms,
        rss_mb,
    };
    outcome.notes.push(measured.describe(
        "cold batches",
        &format!("one of {JOBS} jobs on {WORKERS} workers"),
    ));
    outcome.metrics = measured.end_to_end()?;
    Ok(outcome)
}

/// One untraced batch, the same batch inside a `sched.run_batch` span, a
/// round trip of its stores through the cache container, the layer walk
/// over every job (cold stores, two workers) and a session sample of the
/// cheapest jobs.
fn traced(args: &Args, input: &Input, mut outcome: Outcome) -> Result<Outcome, String> {
    let untraced = batch(
        input,
        &mut outcome,
        &mut TransferStore::new(),
        &mut SummaryStore::new(),
    )
    .wall;

    let tracer = Tracer::new(true);
    let mut store = TransferStore::new();
    let mut summaries = SummaryStore::new();
    let result = tracer.span(
        "sched.run_batch",
        None,
        || format!("seed {}", args.seed),
        |_| batch(input, &mut outcome, &mut store, &mut summaries),
    );
    let mut v = Values::default();
    layers::cache_round_trip(
        &tracer,
        &mut v,
        store,
        summaries,
        &crate::scratch_file(args, "cache.bin"),
    )?;

    let mut caches = CacheCounts::default();
    let mut busy = Duration::ZERO;
    for o in &result.outcomes {
        caches += CacheCounts {
            transfer_hits: o.cache_hits,
            transfer_misses: o.cache_misses,
            shared_hits: o.shared_hits,
            shared_misses: o.shared_misses,
            call_evaluations: o.call_evaluations,
            summary_hits: o.summary_hits,
            shared_summary_hits: o.shared_summary_hits,
        };
        busy += o.wall;
    }

    let items: Vec<Item> = input
        .jobs
        .iter()
        .map(|j| Item {
            key: j.name.clone(),
            source: j.program.clone(),
            strategy: j.strategy.clone(),
            kind: j.mode,
        })
        .collect();
    // A job's engine runs at one thread, as `run_batch` runs it.
    let config = EngineConfig {
        parallel: ParallelConfig {
            threads: 1,
            intra_threads: 1,
        },
        ..batch_config().engine
    };
    let walk = layers::walk(
        &tracer,
        None,
        &items,
        Some(WalkVerify {
            config: &config,
            cold_stores: true,
        }),
        WORKERS,
    )?;
    let mut cheapest: Vec<usize> = (0..items.len()).collect();
    cheapest.sort_by(|&a, &b| walk.verify_ms[a].total_cmp(&walk.verify_ms[b]));
    let sample: Vec<&Item> = cheapest
        .iter()
        .take(SESSION_SAMPLE)
        .map(|&ix| &items[ix])
        .collect();
    layers::session_sample(&tracer, None, &sample, config)?;

    let spans = SpanTotals::new(tracer.spans());
    walk.engine.fill(&mut v);
    caches.fill(&mut v);
    layers::fill_walk(&mut v, &spans, &walk);
    layers::fill_session(&mut v, &spans);
    layers::fill_cache_times(&mut v, &spans);
    let wall = result.wall.as_secs_f64();
    v.set(
        "sched.busy_frac",
        busy.as_secs_f64() / (WORKERS as f64 * wall),
    );
    v.set(
        "sched.tail_ms",
        (wall - busy.as_secs_f64() / WORKERS as f64) * 1e3,
    );
    layers::fill_overhead(&mut v, untraced.as_secs_f64(), wall);
    outcome.metrics = v.render()?;
    outcome.spans = Some(spans.to_ndjson());
    Ok(outcome)
}
