//! Acceptance scenario for the telemetry edge: drive a small planning
//! scenario through the controller, then scrape `GET /rest/metrics` and
//! check the hot-path metrics are present in both exposition formats.

use imcf_controller::api::Router;
use imcf_controller::controller::{ControllerConfig, LocalController};
use imcf_core::calendar::PaperCalendar;
use imcf_core::candidate::{CandidateRule, PlanningSlot};
use imcf_rules::meta_rule::RuleId;
use imcf_sim::meter::EnergyMeter;
use parking_lot::Mutex;
use std::sync::Arc;

#[test]
fn metrics_endpoint_reports_scenario_counters() {
    let mut c = LocalController::new(ControllerConfig::default(), PaperCalendar::january_start());
    c.provision_zone("den").unwrap();

    // One adopted rule (fits the budget) exercises the planner and the
    // firewall egress path; one over-budget tick exercises the DROP path.
    let affordable = PlanningSlot::new(
        0,
        vec![CandidateRule::convenience(RuleId(0), 22.0, 15.0, 0.4).in_zone("den")],
        1.0,
    );
    let summary = c.tick_with_errors(&affordable).0;
    assert_eq!(summary.delivered, 1);

    let router = Router::new(
        c.registry(),
        c.firewall(),
        Arc::new(Mutex::new(EnergyMeter::new(PaperCalendar::january_start()))),
    );
    // A first request registers `api.requests` before the scrape.
    assert_eq!(router.handle("GET", "/rest/items", "").status, 200);

    let resp = router.handle("GET", "/rest/metrics", "");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.content_type, "text/plain; version=0.0.4",
        "Prometheus scrapers negotiate text exposition 0.0.4"
    );
    assert!(!resp.body.is_empty());
    for needle in [
        "firewall.verdicts",
        "planner.slot_micros",
        "scheduler.tick_micros",
        "api.requests",
    ] {
        assert!(
            resp.body.contains(needle),
            "metrics output missing `{needle}`:\n{}",
            resp.body
        );
    }
    // Prometheus shape: sanitized sample lines next to the dotted HELP.
    assert!(resp.body.contains("# TYPE planner_slot_micros histogram"));
    assert!(resp.body.contains("firewall_verdicts{verdict=\"accept\"}"));

    // The JSON variant parses and carries the same metric names.
    let json = router.handle("GET", "/rest/metrics?format=json", "");
    assert_eq!(json.status, 200);
    assert_eq!(json.content_type, "application/json");
    let value: serde_json::Value = serde_json::from_str(&json.body).expect("valid JSON snapshot");
    let metrics = value
        .get("metrics")
        .and_then(|v| v.as_array())
        .expect("metrics array");
    let names: Vec<&str> = metrics
        .iter()
        .filter_map(|m| m.get("name").and_then(|n| n.as_str()))
        .collect();
    for needle in [
        "firewall.verdicts",
        "planner.slot_micros",
        "scheduler.tick_micros",
        "api.requests",
    ] {
        assert!(
            names.contains(&needle),
            "JSON snapshot missing `{needle}`: {names:?}"
        );
    }
    // The scenario's one tick timed itself into its histogram once.
    let tick = metrics
        .iter()
        .find(|m| m.get("name").and_then(|n| n.as_str()) == Some("scheduler.tick_micros"))
        .expect("tick histogram");
    assert!(
        matches!(tick.get("count"), Some(serde_json::Value::Number(n)) if n.as_f64() as u64 == 1),
        "tick histogram: {tick:?}"
    );

    // Exposition-stability contract: every metric the driven scenario
    // actually emitted is registered in the central catalog
    // (`imcf_telemetry::catalog`). A name showing up here but not there is
    // an uncataloged emission — the runtime counterpart of lint rule
    // IMCF-L004.
    for name in &names {
        assert!(
            imcf_telemetry::catalog::is_cataloged(name),
            "scenario emitted uncataloged metric `{name}` — add it to \
             crates/telemetry/src/catalog.rs"
        );
    }
}
