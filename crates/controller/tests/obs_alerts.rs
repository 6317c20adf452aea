//! Acceptance: a chaos soak at ≥10% command-fault rate fires at least
//! one breaker alert through the imcf-obs plane; the alert's firing edge
//! reaches the outcome and its flight-recorder dump lands on disk.

use imcf_chaos::FaultPlan;
use imcf_controller::soak::{run_soak, SoakConfig};
use imcf_telemetry::trace;

#[test]
fn fault_storm_fires_breaker_alert_with_trace_event_and_dump() {
    let dir = tempfile::tempdir().expect("tempdir");
    let recorder = trace::recorder();
    let was_enabled = recorder.is_enabled();
    recorder.set_enabled(true);
    recorder.set_dump_dir(Some(dir.path().to_path_buf()));

    let config = SoakConfig {
        seed: 13,
        ticks: 48,
        zones: 2,
        // Well above the 10% acceptance floor so breakers trip for sure.
        plan: FaultPlan::commands(13, 0.5),
        ..SoakConfig::default()
    };
    let out = run_soak(&config, None);

    recorder.set_dump_dir(None);
    recorder.set_enabled(was_enabled);

    assert!(
        out.breaker_opens > 0,
        "fault storm must trip breakers: {out:?}"
    );
    assert!(
        out.alerts_fired >= 1,
        "a breaker alert must fire during the storm: {out:?}"
    );
    assert!(out.alert_transitions >= out.alerts_fired);

    // The firing edge, taken by the obs plane over the soak's mirror
    // registry and surfaced in the outcome.
    assert!(
        out.alert_events
            .iter()
            .any(|e| e == "alert.firing(breaker.open.storm)"),
        "alert edges: {:?}",
        out.alert_events
    );

    // The firing transition triggered the flight recorder: a dump file
    // named after the alert, holding a valid Chrome-trace envelope.
    let dump = std::fs::read_dir(dir.path())
        .expect("dump dir readable")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains("alert") && n.contains("breaker.open.storm"))
        })
        .expect("alert firing wrote a flight-recorder dump");
    let text = std::fs::read_to_string(&dump).expect("dump readable");
    let value: serde_json::Value = serde_json::from_str(&text).expect("dump is valid JSON");
    assert!(
        value
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .is_some(),
        "dump carries a Chrome-trace envelope"
    );
}

#[test]
fn soak_alert_counters_are_deterministic() {
    let config = SoakConfig {
        seed: 29,
        ticks: 72,
        zones: 2,
        plan: FaultPlan::commands(29, 0.3),
        ..SoakConfig::default()
    };
    let a = run_soak(&config, None);
    let b = run_soak(&config, None);
    let json_a = serde_json::to_string(&a).expect("serializes");
    let json_b = serde_json::to_string(&b).expect("serializes");
    assert_eq!(json_a, json_b, "soak outcome must stay byte-identical");
    assert!(a.alerts_fired >= 1, "{a:?}");
}

#[test]
fn disabling_obs_capacity_turns_the_plane_off() {
    let config = SoakConfig {
        seed: 29,
        ticks: 24,
        zones: 1,
        plan: FaultPlan::commands(29, 0.5),
        obs_capacity: 0,
        ..SoakConfig::default()
    };
    let out = run_soak(&config, None);
    assert_eq!(out.alerts_fired, 0);
    assert_eq!(out.alert_transitions, 0);
    assert!(out.alert_events.is_empty());
}
