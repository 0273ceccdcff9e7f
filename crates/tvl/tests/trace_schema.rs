//! Golden-file test for the NDJSON trace schema.
//!
//! The trace line format is a *format contract* consumed by external tooling
//! (`--trace` output), so its serialization is pinned against a committed
//! golden file. The events here are hand-constructed — never produced by a
//! live run — so wall-clock jitter cannot touch the golden bytes. If this
//! test fails because the schema deliberately changed, regenerate
//! `golden_trace.ndjson` and call the change out in the PR.

use hetsep_tvl::telemetry::{event_to_json, Counter, Event, Phase};

const GOLDEN: &str = include_str!("golden_trace.ndjson");

fn fixed_events() -> Vec<Event> {
    vec![
        Event::SubproblemStart {
            index: 0,
            site: Some(3),
        },
        Event::PhaseSample {
            index: 0,
            phase: Phase::Focus,
            count: 12,
            nanos: 3400,
        },
        Event::CounterSample {
            index: 0,
            counter: Counter::InternHits,
            value: 7,
        },
        Event::CounterSample {
            index: 0,
            counter: Counter::TransferCacheHits,
            value: 42,
        },
        Event::CounterSample {
            index: 0,
            counter: Counter::TransferCacheMisses,
            value: 11,
        },
        Event::CounterSample {
            index: 0,
            counter: Counter::TransferCacheEvictions,
            value: 0,
        },
        Event::CounterSample {
            index: 0,
            counter: Counter::PreanalysisComponents,
            value: 2,
        },
        Event::CounterSample {
            index: 0,
            counter: Counter::PreanalysisEstimatedStructures,
            value: 96,
        },
        Event::CounterSample {
            index: 0,
            counter: Counter::IntraBatches,
            value: 5,
        },
        Event::CounterSample {
            index: 0,
            counter: Counter::IntraBatchItems,
            value: 17,
        },
        Event::CounterSample {
            index: 0,
            counter: Counter::CallEvaluations,
            value: 9,
        },
        Event::CounterSample {
            index: 0,
            counter: Counter::SummaryHits,
            value: 6,
        },
        Event::CounterSample {
            index: 0,
            counter: Counter::SummaryMisses,
            value: 3,
        },
        Event::CounterSample {
            index: 0,
            counter: Counter::SharedSummaryHits,
            value: 2,
        },
        Event::LocationStructures {
            index: 0,
            location: 5,
            structures: 9,
        },
        Event::BudgetExhausted {
            index: 0,
            visits: 400_000,
        },
        Event::Cancelled {
            index: 0,
            visits: 123,
        },
        Event::SubproblemFinish {
            index: 0,
            site: Some(3),
            visits: 250,
            structures: 40,
            errors: 1,
            complete: true,
        },
        Event::SubproblemStart {
            index: 1,
            site: None,
        },
        Event::SubproblemFinish {
            index: 1,
            site: None,
            visits: 10,
            structures: 4,
            errors: 0,
            complete: false,
        },
    ]
}

#[test]
fn trace_writer_matches_golden_file() {
    // `hetsep-core`'s `write_trace` renders every line through
    // `event_to_json`, one event per line.
    let got: String = fixed_events()
        .iter()
        .map(|event| event_to_json(event) + "\n")
        .collect();
    assert_eq!(
        got, GOLDEN,
        "NDJSON trace schema drifted from tests/golden_trace.ndjson"
    );
}

#[test]
fn every_line_is_a_flat_json_object() {
    // No serde in the workspace, so hold the line with structural checks:
    // one object per line, no nesting, keys and string values are bare
    // identifiers (nothing ever needs escaping).
    for event in fixed_events() {
        let line = event_to_json(&event);
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(!line.contains('\n'), "one event per line: {line}");
        assert!(!line.contains('\\'), "no escapes needed: {line}");
        let inner = &line[1..line.len() - 1];
        assert!(
            !inner.contains('{') && !inner.contains('}'),
            "flat object: {line}"
        );
        assert!(
            line.contains("\"event\":\""),
            "every event is self-describing: {line}"
        );
    }
}
