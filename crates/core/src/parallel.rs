//! Deterministic ordered fan-out over a scoped worker pool.
//!
//! Both schedulers in the workspace — the inner subproblem scheduler
//! (`modes::run_sites`, one run per allocation site) and the outer corpus
//! job scheduler (`hetsep-sched`, one run per verification job) — need the
//! same shape of parallelism: N independent work items, a bounded worker
//! pool, and results that come back **in input order** regardless of which
//! worker finished which item when. [`map_ordered`] is that shared helper.
//!
//! The discipline is:
//!
//! * workers claim items by atomically incrementing a shared cursor, so the
//!   set of items each worker runs is schedule-dependent — but every result
//!   is delivered under its *input index*, in input order, so what the
//!   caller sees is not;
//! * a shared cancellation flag stops new claims on every path (including
//!   the single-worker fast path); items never started are reported as
//!   `None`, letting callers distinguish "cancelled before start" from a
//!   produced result;
//! * the worker body itself decides whether to raise the flag (budget
//!   exhaustion, hard errors) — the helper only observes it.
//!
//! [`for_each_ordered`] hands each result to an in-order *sink* as soon as
//! every earlier item has been delivered, so a caller that folds results
//! (the corpus scheduler absorbing each job's store deltas) holds only
//! those still waiting on an earlier item. [`map_ordered`] is the sink that
//! collects into a vector.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `work` over `items` on `workers` scoped threads, returning results
/// in input order.
///
/// `work` receives the item's input index, the item, and the shared cancel
/// flag (to poll and/or raise). `None` entries mark items never started
/// because the flag was raised first. With `workers <= 1` the items run
/// serially on the calling thread — same claims discipline, no thread spawn.
pub fn map_ordered<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    cancel: &AtomicBool,
    work: impl Fn(usize, &T, &AtomicBool) -> R + Sync,
) -> Vec<Option<R>> {
    let mut out = Vec::with_capacity(items.len());
    for_each_ordered(items, workers, cancel, work, |_, r| out.push(r));
    out
}

/// Runs `work` over `items` on `workers` scoped threads, handing every
/// result to `sink` exactly once, in input order, as soon as all earlier
/// items have been handed over.
///
/// `work` and the cancel flag behave as in [`map_ordered`]; `sink` receives
/// the input index and the result (`None` for an item never started). The
/// sink runs on whichever worker finds the next result ready, one call at a
/// time; the other workers deposit their results and go on claiming items,
/// never waiting for the sink. Depositing a result and deciding whether to
/// deliver happen under one lock, so a ready result is never left behind
/// when a delivering worker stops. With `workers <= 1` everything runs on
/// the calling thread.
pub fn for_each_ordered<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    cancel: &AtomicBool,
    work: impl Fn(usize, &T, &AtomicBool) -> R + Sync,
    mut sink: impl FnMut(usize, Option<R>) + Send,
) {
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        for (ix, item) in items.iter().enumerate() {
            let result = (!cancel.load(Ordering::Relaxed)).then(|| work(ix, item, cancel));
            sink(ix, result);
        }
        return;
    }

    let next = AtomicUsize::new(0);
    let pending = Mutex::new(Pending {
        slots: items.iter().map(|_| None).collect(),
        delivered: 0,
        delivering: false,
    });
    let sink = Mutex::new(sink);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let ix = next.fetch_add(1, Ordering::Relaxed);
                if ix >= items.len() || cancel.load(Ordering::Relaxed) {
                    break;
                }
                let result = work(ix, &items[ix], cancel);
                deposit(&pending, &sink, ix, result);
            });
        }
    });
    // Only a raised flag leaves anything undelivered: items never started,
    // and results that finished behind one.
    let mut pending = pending
        .into_inner()
        .expect("no worker panics holding the results");
    let mut sink = sink.into_inner().expect("the sink does not panic");
    for ix in pending.delivered..items.len() {
        sink(ix, pending.slots[ix].take());
    }
}

/// Results finished but not yet delivered, and who is delivering.
struct Pending<R> {
    slots: Vec<Option<R>>,
    /// Items `0..delivered` have been handed to the sink.
    delivered: usize,
    /// Whether a worker is handing results to the sink.
    delivering: bool,
}

/// Deposits item `ix`'s result; unless another worker is delivering,
/// delivers the ready run of results that follows the delivered prefix.
fn deposit<R, S: FnMut(usize, Option<R>)>(
    pending: &Mutex<Pending<R>>,
    sink: &Mutex<S>,
    ix: usize,
    result: R,
) {
    let mut state = pending
        .lock()
        .expect("no worker panics holding the results");
    state.slots[ix] = Some(result);
    if state.delivering {
        return;
    }
    state.delivering = true;
    loop {
        let at = state.delivered;
        let Some(result) = state.slots.get_mut(at).and_then(Option::take) else {
            state.delivering = false;
            return;
        };
        state.delivered += 1;
        drop(state);
        // Uncontended: only the delivering worker takes it.
        (sink.lock().expect("the sink does not panic"))(at, Some(result));
        state = pending
            .lock()
            .expect("no worker panics holding the results");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..64).collect();
        for workers in [1, 4] {
            let cancel = AtomicBool::new(false);
            let out = map_ordered(&items, workers, &cancel, |ix, &item, _| {
                assert_eq!(ix, item);
                item * 10
            });
            let got: Vec<usize> = out.into_iter().map(Option::unwrap).collect();
            let want: Vec<usize> = items.iter().map(|i| i * 10).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn cancellation_stops_new_claims() {
        let items: Vec<usize> = (0..256).collect();
        for workers in [1, 4] {
            let cancel = AtomicBool::new(false);
            let out = map_ordered(&items, workers, &cancel, |ix, _, flag| {
                if ix == 3 {
                    flag.store(true, Ordering::Relaxed);
                }
                ix
            });
            assert!(
                out.iter().any(Option::is_none),
                "workers={workers}: some items must never start"
            );
            // Every produced result sits in its own slot.
            for (ix, r) in out.iter().enumerate() {
                if let Some(v) = r {
                    assert_eq!(*v, ix);
                }
            }
        }
    }

    #[test]
    fn sink_sees_every_index_once_in_order() {
        // Uneven costs: every third item spins much longer than the rest.
        // With more than one worker, item 0 also finishes only after every
        // other item has, so all later results wait for it.
        let items: Vec<usize> = (0..48).collect();
        for workers in [1, 2, 4] {
            let cancel = AtomicBool::new(false);
            let finished = AtomicUsize::new(0);
            let mut seen = Vec::new();
            for_each_ordered(
                &items,
                workers,
                &cancel,
                |ix, &item, _| {
                    if ix == 0 && workers > 1 {
                        while finished.load(Ordering::SeqCst) < items.len() - 1 {
                            std::thread::yield_now();
                        }
                    }
                    let spins = if ix % 3 == 0 { 200_000 } else { 1_000 };
                    let out = (0..spins).fold(item, |acc, i| std::hint::black_box(acc ^ i) ^ i);
                    finished.fetch_add(1, Ordering::SeqCst);
                    out
                },
                |ix, r| seen.push((ix, r)),
            );
            let want: Vec<(usize, Option<usize>)> = items.iter().map(|&i| (i, Some(i))).collect();
            assert_eq!(seen, want, "workers={workers}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let cancel = AtomicBool::new(false);
        let out: Vec<Option<u32>> = map_ordered(&[], 4, &cancel, |_, _: &u32, _| unreachable!());
        assert!(out.is_empty());
    }
}
