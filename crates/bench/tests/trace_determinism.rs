//! Pins the trace artifact `IMCF_TRACE=1` attaches beside
//! `<name>.telemetry.json`: two captures of the same planning run are
//! **byte-identical**, and the file is a loadable Chrome-trace envelope.
//!
//! Trace ids derive from `(seed, hour, index)` and timestamps are the
//! per-trace virtual clock, so no wall-clock value can leak into the
//! artifact.

use imcf_bench::harness::{capture_trace_json, DatasetBundle};
use imcf_sim::building::DatasetKind;

#[test]
fn trace_artifact_is_byte_identical_from_run_to_run() {
    let bundle = DatasetBundle::build(DatasetKind::Flat, 0);
    let first = capture_trace_json(&bundle, 48);
    let second = capture_trace_json(&bundle, 48);
    assert_eq!(first, second, "trace JSON must not change between runs");

    // The artifact is a loadable Chrome-trace envelope.
    let value: serde_json::Value =
        serde_json::from_str(&first).expect("trace artifact is valid JSON");
    let events = value
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents envelope");
    assert!(!events.is_empty());
    for event in events {
        let obj = event.as_object().expect("event is an object");
        for field in ["name", "ph", "ts", "pid", "tid"] {
            assert!(
                obj.iter().any(|(k, _)| k == field),
                "event missing `{field}`: {event:?}"
            );
        }
    }
    // One trace per planned slot, each with its span and decision point.
    for name in ["planner.plan_slot", "planner.decision"] {
        let count = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
            .count();
        assert_eq!(count, 48, "`{name}` events");
    }
}
