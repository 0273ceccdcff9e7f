//! `serve-edit`: one closed-loop client driving `hetsep serve --preanalysis`
//! over its stdin/stdout pipe.
//!
//! Set-up starts the daemon, loads the built-in strategies and a seeded pool
//! of 32 programs from the committed [`SERVE_POOL`] (a different seed stream
//! than corpus-cold), and verifies each once. The timed mix, drawn from the
//! seed: about 70% re-verify of an unchanged program, 20% edits (a
//! `load_program` with a fresh program of the same family, then `verify`)
//! and 10% `lint`. The client sends a request only after the previous
//! response arrived; latency runs from send to response line. Every
//! response must be `ok`, every verdict and error count must match the
//! reference, and every lint must report no errors.
//!
//! The daemon runs with `HETSEP_THREADS=1` and `HETSEP_INTRA_THREADS=1` set
//! on its environment here, so the host's values cannot leak in.

use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use hetsep::core::{EngineConfig, ParallelConfig, Session, Workspace};
use hetsep::ir::json::{self, JsonValue};
use hetsep::ir::Request;
use hetsep::sched::Job;
use hetsep_prng::XorShift;

use crate::corpus::draw;
use crate::layers::{self, CacheCounts, Item, Values, WalkVerify};
use crate::reference::{Expected, Jobs, SERVE_POOL};
use crate::stats::{median, percentile};
use crate::trace::{SpanTotals, Tracer};
use crate::{another_unit, peak_rss_mb, Args, Measured, Outcome};

/// Programs loaded at set-up.
const POOL: usize = 32;
/// Daemons set up (one after another) to time set-up; the last one serves.
const SETUPS: usize = 5;
/// Requests per timed unit.
const BLOCK: usize = 1000;
/// Blocks in the timed stream. The stores grow with every request, so later
/// blocks are not repeats of earlier ones: every run times the same fixed
/// stream (cut short only when `--seconds` runs out) and reads the daemon's
/// peak RSS at its end.
const BLOCKS: usize = 12;

/// The engine configuration of `hetsep serve --preanalysis` at one thread.
fn serve_config() -> EngineConfig {
    EngineConfig {
        preanalysis: true,
        parallel: ParallelConfig {
            threads: 1,
            intra_threads: 1,
        },
        ..EngineConfig::default()
    }
}

/// The serve pool and its reference, in the seeded order: the first
/// [`POOL`] programs are loaded at set-up, the rest are edit material.
struct Programs {
    jobs: Jobs,
    expected: HashMap<String, Expected>,
    strategies: Vec<String>,
}

impl Programs {
    fn load(args: &Args) -> Result<Programs, String> {
        let pool = SERVE_POOL.load(&args.reference)?;
        // A stream of its own: the slot draw must not shift with the seed's
        // use elsewhere.
        let mut rng = XorShift::new(args.seed ^ 0x5e57_ed17);
        let (mut jobs, rest) = draw(pool.jobs, &pool.expected, &mut rng, POOL);
        jobs.extend(rest);
        let strategies: BTreeSet<String> = jobs
            .iter()
            .filter_map(|(j, _)| j.strategy.clone())
            .collect();
        Ok(Programs {
            jobs,
            expected: pool.expected,
            strategies: strategies.into_iter().collect(),
        })
    }

    fn strategy_name(&self, job: &Job) -> Option<String> {
        let src = job.strategy.as_ref()?;
        let ix = self.strategies.iter().position(|s| s == src)?;
        Some(format!("s{ix}"))
    }

    fn item(&self, ix: usize) -> Item {
        let job = &self.jobs[ix].0;
        Item {
            key: job.name.clone(),
            source: job.program.clone(),
            strategy: job.strategy.clone(),
            kind: job.mode,
        }
    }
}

/// What a response must say.
#[derive(Debug, Clone, Copy)]
enum Check {
    Ok,
    Verdict(usize),
    Lint,
}

/// One request of the stream.
struct Op {
    key: String,
    line: String,
    check: Check,
}

/// The seeded request stream over the slots `p0..p31`.
struct Stream<'a> {
    programs: &'a Programs,
    rng: XorShift,
    slots: Vec<usize>,
    fresh: HashMap<&'static str, (Vec<usize>, usize)>,
    next_id: u64,
    used: BTreeSet<usize>,
}

impl<'a> Stream<'a> {
    fn new(programs: &'a Programs, seed: u64) -> Stream<'a> {
        let slots: Vec<usize> = (0..POOL.min(programs.jobs.len())).collect();
        let mut fresh: HashMap<&'static str, (Vec<usize>, usize)> = HashMap::new();
        for ix in slots.len()..programs.jobs.len() {
            fresh.entry(programs.jobs[ix].1).or_default().0.push(ix);
        }
        Stream {
            programs,
            rng: XorShift::new(seed),
            used: slots.iter().copied().collect(),
            slots,
            fresh,
            next_id: 0,
        }
    }

    fn op(&mut self, request: Request, check: Check) -> Op {
        self.next_id += 1;
        Op {
            key: format!("{} {}", request.op(), self.next_id),
            line: request.to_json(),
            check,
        }
    }

    fn verify(&mut self, slot: usize) -> Op {
        let ix = self.slots[slot];
        let job = &self.programs.jobs[ix].0;
        let request = Request::Verify {
            program: format!("p{slot}"),
            spec: None,
            strategy: self.programs.strategy_name(job),
            mode: Some(job.mode.as_str().to_owned()),
        };
        self.op(request, Check::Verdict(ix))
    }

    fn load(&mut self, slot: usize) -> Op {
        let job = &self.programs.jobs[self.slots[slot]].0;
        let request = Request::LoadProgram {
            name: format!("p{slot}"),
            source: job.program.clone(),
        };
        self.op(request, Check::Ok)
    }

    /// Loads the strategies, then every slot's program, verifying each once.
    fn setup(&mut self) -> Vec<Op> {
        let mut ops = Vec::new();
        for (k, src) in self.programs.strategies.iter().enumerate() {
            let request = Request::LoadStrategy {
                name: format!("s{k}"),
                source: src.clone(),
            };
            ops.push(self.op(request, Check::Ok));
        }
        for slot in 0..self.slots.len() {
            ops.push(self.load(slot));
            ops.push(self.verify(slot));
        }
        ops
    }

    /// The next step of the mix: one request, or two for an edit.
    fn step(&mut self) -> Vec<Op> {
        let slot = self.rng.gen_range(self.slots.len());
        let roll = self.rng.gen_range(100);
        if roll < 70 {
            return vec![self.verify(slot)];
        }
        if roll < 90 {
            let family = self.programs.jobs[self.slots[slot]].1;
            if let Some((queue, cursor)) = self.fresh.get_mut(family) {
                self.slots[slot] = queue[*cursor % queue.len()];
                *cursor += 1;
                self.used.insert(self.slots[slot]);
                return vec![self.load(slot), self.verify(slot)];
            }
            return vec![self.verify(slot)];
        }
        let job = &self.programs.jobs[self.slots[slot]].0;
        let request = Request::Lint {
            program: format!("p{slot}"),
            spec: None,
            strategy: self.programs.strategy_name(job),
        };
        vec![self.op(request, Check::Lint)]
    }

    /// At least [`BLOCK`] requests (an edit is never split).
    fn block(&mut self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(BLOCK + 1);
        while ops.len() < BLOCK {
            ops.extend(self.step());
        }
        ops
    }
}

/// Checks one response line; returns the verify counters it carried.
fn check(programs: &Programs, op: &Op, line: &str) -> Result<Option<CacheCounts>, String> {
    let fail = |why: String| Err(format!("{}: {why}", op.key));
    let v = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return fail(format!("unparsable response: {e}")),
    };
    if v.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        return fail(format!("not ok: {line}"));
    }
    let num = |k: &str| v.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    match op.check {
        Check::Ok => Ok(None),
        Check::Lint => {
            if num("errors") == 0 {
                Ok(None)
            } else {
                fail(format!("lint reported {} errors", num("errors")))
            }
        }
        Check::Verdict(ix) => {
            let name = &programs.jobs[ix].0.name;
            let verdict = v.get("verdict").and_then(JsonValue::as_str).unwrap_or("");
            let reported = v
                .get("errors")
                .and_then(JsonValue::as_array)
                .map_or(0, <[_]>::len);
            if let Err(e) = crate::reference::check(&programs.expected, name, verdict, reported) {
                return fail(e);
            }
            Ok(Some(CacheCounts {
                transfer_hits: num("cache_hits"),
                transfer_misses: num("cache_misses"),
                shared_hits: num("shared_hits"),
                shared_misses: num("shared_misses"),
                call_evaluations: num("call_evaluations"),
                summary_hits: num("summary_hits"),
                shared_summary_hits: num("shared_summary_hits"),
            }))
        }
    }
}

/// A `hetsep serve` child process on a pipe. Dropping it kills the daemon
/// and waits for it; [`Daemon::shutdown`] ends it cleanly.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(path: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(path)
            .args(["serve", "--quiet", "--preanalysis"])
            .env("HETSEP_THREADS", "1")
            .env("HETSEP_INTRA_THREADS", "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Daemon {
            child,
            stdin,
            stdout,
        })
    }

    fn send(&mut self, line: &str) -> Result<String, String> {
        let io = |e: std::io::Error| format!("daemon pipe: {e}");
        self.stdin.write_all(line.as_bytes()).map_err(io)?;
        self.stdin.write_all(b"\n").map_err(io)?;
        self.stdin.flush().map_err(io)?;
        let mut response = String::new();
        if self.stdout.read_line(&mut response).map_err(io)? == 0 {
            return Err("daemon closed its output".into());
        }
        Ok(response)
    }

    fn shutdown(mut self) -> Result<(), String> {
        self.send(&Request::Shutdown.to_json())?;
        let status = self.child.wait().map_err(|e| format!("daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Sends `ops` to the daemon, checking each response; returns per-request
/// latencies in milliseconds.
fn drive(
    daemon: &mut Daemon,
    programs: &Programs,
    ops: &[Op],
    outcome: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let mut latencies = Vec::with_capacity(ops.len());
    for op in ops {
        let start = Instant::now();
        let response = daemon.send(&op.line)?;
        latencies.push(start.elapsed().as_secs_f64() * 1e3);
        outcome.attempted += 1;
        if let Err(e) = check(programs, op, &response) {
            outcome.failures.push(e);
        }
    }
    Ok(latencies)
}

/// Starts a daemon and runs the set-up requests; any failure is fatal.
fn start_daemon(args: &Args, programs: &Programs) -> Result<Daemon, String> {
    let path = args
        .daemon
        .as_deref()
        .ok_or("serve-edit needs --daemon <path to the hetsep binary>")?;
    let mut daemon = Daemon::spawn(path)?;
    let mut setup = Outcome::default();
    drive(
        &mut daemon,
        programs,
        &Stream::new(programs, args.seed).setup(),
        &mut setup,
    )?;
    match setup.failures.first() {
        Some(f) => Err(format!("set-up: {f}")),
        None => Ok(daemon),
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let programs = Programs::load(args)?;
    if args.trace {
        return traced(args, &programs);
    }
    let mut setups_s = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUPS {
        if let Some(previous) = daemon.take() {
            Daemon::shutdown(previous)?;
        }
        let start = Instant::now();
        daemon = Some(start_daemon(args, &programs)?);
        setups_s.push(start.elapsed().as_secs_f64());
    }
    let mut daemon = daemon.expect("set up at least once");

    let mut outcome = Outcome::default();
    let mut stream = Stream::new(&programs, args.seed);
    stream.setup();
    let start = Instant::now();
    let mut units_s = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut tails_ms = Vec::new();
    while units_s.len() < BLOCKS && another_unit(start, args.seconds, &units_s) {
        let ops = stream.block();
        let block_start = Instant::now();
        let block_ms = drive(&mut daemon, &programs, &ops, &mut outcome)?;
        units_s.push(block_start.elapsed().as_secs_f64());
        tails_ms.push(percentile(&block_ms, 99.0)?);
        latencies_ms.extend(block_ms);
    }
    let rss_mb = peak_rss_mb(&daemon.child.id().to_string())?;
    daemon.shutdown()?;
    let measured = Measured {
        setups_s,
        ops: latencies_ms.len(),
        units_s,
        tail_ms: median(&tails_ms),
        latencies_ms,
        rss_mb,
    };
    outcome
        .notes
        .push(measured.describe("blocks", "one request, closed loop, 1 client"));
    outcome.metrics = measured.end_to_end()?;
    Ok(outcome)
}

/// One block against the daemon, then the same stream through an
/// in-process `Session` with spans around `Request::parse`,
/// `Session::handle` and `Response::to_json`, then a round trip of the
/// session's stores and the layer walk over every program the stream used.
fn traced(args: &Args, programs: &Programs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut daemon = start_daemon(args, programs)?;
    let mut stream = Stream::new(programs, args.seed);
    stream.setup();
    let ops = stream.block();
    let start = Instant::now();
    drive(&mut daemon, programs, &ops, &mut outcome)?;
    let untraced = start.elapsed();
    daemon.shutdown()?;

    let mut session = Session::with_workspace(Workspace::with_config(serve_config()));
    let quiet = Tracer::new(false);
    let mut stream = Stream::new(programs, args.seed);
    for op in stream.setup() {
        let (_, wire) = layers::handle(&quiet, &mut session, &op.line, None, &op.key);
        check(programs, &op, &wire).map_err(|e| format!("set-up: {e}"))?;
    }
    let tracer = Tracer::new(true);
    let mut caches = CacheCounts::default();
    let ops = stream.block();
    let start = Instant::now();
    for op in &ops {
        let wire = tracer.span(
            "serve.request",
            None,
            || op.key.clone(),
            |p| layers::handle(&tracer, &mut session, &op.line, p, &op.key).1,
        );
        outcome.attempted += 1;
        match check(programs, op, &wire) {
            Ok(counts) => caches += counts.unwrap_or_default(),
            Err(e) => outcome.failures.push(e),
        }
    }
    let traced = start.elapsed();

    let mut v = Values::default();
    let ws = session.workspace();
    layers::cache_round_trip(
        &tracer,
        &mut v,
        ws.store().clone(),
        ws.summary_store().clone(),
        &crate::scratch_file(args, "cache.bin"),
    )?;
    let items: Vec<Item> = stream.used.iter().map(|&ix| programs.item(ix)).collect();
    let walk = layers::walk(
        &tracer,
        None,
        &items,
        Some(WalkVerify {
            config: &serve_config(),
            cold_stores: false,
        }),
        1,
    )?;

    let spans = SpanTotals::new(tracer.spans());
    walk.engine.fill(&mut v);
    caches.fill(&mut v);
    layers::fill_walk(&mut v, &spans, &walk);
    layers::fill_session(&mut v, &spans);
    layers::fill_cache_times(&mut v, &spans);
    // One server thread: busy is the time inside `Session::handle`.
    let handled = Duration::from_secs_f64(spans.self_ms("core.session") / 1e3);
    v.set(
        "sched.busy_frac",
        handled.as_secs_f64() / traced.as_secs_f64(),
    );
    v.set(
        "sched.tail_ms",
        (traced - handled.min(traced)).as_secs_f64() * 1e3,
    );
    layers::fill_overhead(&mut v, untraced.as_secs_f64(), traced.as_secs_f64());
    outcome.notes.push(format!(
        "traced block of {} requests in-process; walk over {} programs",
        ops.len(),
        items.len()
    ));
    outcome.metrics = v.render()?;
    outcome.spans = Some(spans.to_ndjson());
    Ok(outcome)
}
