//! In-memory spans recorded around calls into each layer's public functions.
//!
//! A span has a name, a start, an end, its parent span and the id of the row,
//! job or request it belongs to. Spans stay in memory while the run measures
//! and are written out as NDJSON when it ends. A span's *self time* is its
//! duration minus the part of its interval that its children cover; children
//! may nest or overlap (spans opened on different worker threads under one
//! parent), so covered time is the length of the union of their intervals.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub key: String,
    pub parent: Option<SpanId>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder. A disabled tracer records nothing, so untraced runs pay
/// one branch per would-be span.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so it
    /// can parent further spans. Returns `f`'s result.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        key: impl FnOnce() -> String,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self
                .spans
                .lock()
                .expect("span lock poisoned by a panicking worker");
            spans.push(Span {
                name,
                key: key(),
                parent,
                start: self.now(),
                end: 0,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now();
        self.spans
            .lock()
            .expect("span lock poisoned by a panicking worker")[id]
            .end = end;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span lock poisoned by a panicking worker")
            .clone()
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span list.
pub struct SpanTotals {
    spans: Vec<Span>,
    self_ns: Vec<u64>,
}

impl SpanTotals {
    pub fn new(spans: Vec<Span>) -> SpanTotals {
        let self_ns = self_times(&spans);
        SpanTotals { spans, self_ns }
    }

    /// Total self time of the spans named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1e6)
            .sum()
    }

    /// Durations of the spans named `name` whose key starts with `prefix`,
    /// in milliseconds.
    pub fn durations_ms(&self, name: &str, prefix: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.key.starts_with(prefix))
            .map(|s| s.duration() as f64 / 1e6)
            .collect()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The span file: one JSON object per line, in recording order.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (ix, (s, self_ns)) in self.spans.iter().zip(&self.self_ns).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{ix},\"name\":\"{}\",\"key\":{},\"parent\":{parent},\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.name,
                hetsep::ir::json::string(&s.key),
                s.start as f64 / 1e3,
                s.end as f64 / 1e3,
                *self_ns as f64 / 1e3,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name: "t",
            key: String::new(),
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,30) ⊃ a1 [12,20); root ⊃ b [50,60).
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(1), 12, 20),
            span(Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 8, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two workers under one parent: [10,40) and [20,50) cover [10,50).
        // A third child [45,55) extends it to 55; a fourth lies inside.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 20, 50),
            span(Some(0), 45, 55),
            span(Some(0), 21, 22),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 45);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child that outlives its parent covers only the shared part.
        let spans = vec![
            span(None, 10, 20),
            span(Some(0), 15, 40),
            span(Some(0), 0, 12),
        ];
        assert_eq!(self_times(&spans)[0], 10 - 5 - 2);
    }

    #[test]
    fn tracer_records_parents_and_disabled_records_nothing() {
        let t = Tracer::new(true);
        t.span(
            "outer",
            None,
            || "job1".into(),
            |id| {
                t.span("inner", id, String::new, |_| ());
            },
        );
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].key, "job1");
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let totals = SpanTotals::new(spans);
        assert_eq!(totals.count("inner"), 1);
        assert_eq!(totals.to_ndjson().lines().count(), 2);

        let off = Tracer::new(false);
        off.span("outer", None, || "x".into(), |id| assert!(id.is_none()));
        assert!(off.spans().is_empty());
    }
}
