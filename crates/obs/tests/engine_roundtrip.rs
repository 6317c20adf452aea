//! End-to-end engine behaviour: sampling, range queries, alert
//! transitions and crash-safe persistence.

use imcf_obs::alert::Transition;
use imcf_obs::{
    handle_query, AlertExpr, AlertRule, Cmp, ObsConfig, ObsEngine, QueryError, Severity,
};
use imcf_telemetry::Registry;
use serde_json::Value;

/// Numeric field accessor (the compat `Value` has no `as_f64`).
fn num(v: &Value, key: &str) -> Option<f64> {
    match v.get(key) {
        Some(Value::Number(n)) => Some(n.as_f64()),
        _ => None,
    }
}

fn tiny_config() -> ObsConfig {
    ObsConfig {
        interval_ticks: 1,
        capacity: 64,
        downsample_every: 4,
        coarse_capacity: 16,
        persist_every: 4,
        retention_windows: 2,
    }
}

fn breaker_rule() -> AlertRule {
    AlertRule {
        name: "breaker.open.storm".to_string(),
        expr: AlertExpr::Increase("breaker.open".to_string(), 10),
        cmp: Cmp::Gt,
        threshold: 0.0,
        for_ticks: 0,
        severity: Severity::Critical,
    }
}

#[test]
fn sampler_builds_series_and_queries_answer() {
    let registry = Registry::new();
    let mut engine = ObsEngine::in_memory(tiny_config(), vec![]).expect("valid rules");
    let work = registry.counter("journal.deduped");
    let level = registry.gauge("breaker.open_now");
    let lat = registry.histogram_with_buckets("planner.slot_micros", &[], &[10.0, 100.0, 1000.0]);
    for tick in 1..=20u64 {
        work.add(2);
        level.set((tick % 3) as f64);
        lat.observe(50.0);
        lat.observe(500.0);
        engine.observe(tick, &registry);
    }

    // Counter: 2 per tick.
    let body = handle_query(&engine, "series=journal.deduped&fn=increase&window=10")
        .expect("counter query");
    let v: Value = serde_json::from_str(&body).expect("valid JSON");
    assert_eq!(num(&v, "value"), Some(20.0));
    let body =
        handle_query(&engine, "series=journal.deduped&fn=rate&window=10").expect("rate query");
    let v: Value = serde_json::from_str(&body).expect("valid JSON");
    assert_eq!(num(&v, "value"), Some(2.0));

    // Gauge: last level.
    let body = handle_query(&engine, "series=breaker.open_now&fn=value").expect("gauge query");
    let v: Value = serde_json::from_str(&body).expect("valid JSON");
    assert_eq!(num(&v, "value"), Some(2.0));

    // Histogram: quantile_over_time from per-bucket increases. Samples
    // alternate 50µs / 500µs, so the median interpolates inside the
    // (10, 100] bucket and p99 inside (100, 1000].
    let body = handle_query(
        &engine,
        "series=planner.slot_micros&fn=quantile&q=0.5&window=10",
    )
    .expect("quantile query");
    let v: Value = serde_json::from_str(&body).expect("valid JSON");
    let p50 = num(&v, "value").expect("value field");
    assert!(p50 > 10.0 && p50 <= 100.0, "p50 {p50} out of bucket");
    let body = handle_query(
        &engine,
        "series=planner.slot_micros&fn=quantile&q=0.99&window=10",
    )
    .expect("quantile query");
    let v: Value = serde_json::from_str(&body).expect("valid JSON");
    let p99 = num(&v, "value").expect("value field");
    assert!(p99 > 100.0 && p99 <= 1000.0, "p99 {p99} out of bucket");

    // Histogram shorthand: rate on the bare name uses :count.
    let body = handle_query(&engine, "series=planner.slot_micros&fn=rate&window=10")
        .expect("count shorthand");
    let v: Value = serde_json::from_str(&body).expect("valid JSON");
    assert_eq!(num(&v, "value"), Some(2.0));

    // Discovery: no series parameter lists keys.
    let body = handle_query(&engine, "").expect("listing");
    let v: Value = serde_json::from_str(&body).expect("valid JSON");
    let names = v.get("series").and_then(|x| x.as_array()).expect("series");
    assert!(names
        .iter()
        .any(|n| n.as_str() == Some("planner.slot_micros:count")));

    // Errors are typed.
    assert!(matches!(
        handle_query(&engine, "series=no.such&fn=value"),
        Err(QueryError::UnknownSeries(_))
    ));
    assert!(matches!(
        handle_query(&engine, "series=breaker.open_now&fn=rate"),
        Err(QueryError::BadRequest(_))
    ));
}

#[test]
fn alert_fires_reports_its_edges_and_resolves() {
    let registry = Registry::new();
    let mut engine = ObsEngine::in_memory(tiny_config(), vec![breaker_rule()]).expect("rules");
    let breaker = registry.counter("breaker.open");
    for tick in 1..=5u64 {
        engine.observe(tick, &registry);
    }
    assert_eq!(engine.firing_count(), 0);

    breaker.add(3);
    engine.observe(6, &registry);
    assert_eq!(engine.firing_count(), 1);
    let rows = engine.alert_rows();
    assert_eq!(rows[0].state, "firing");
    assert_eq!(rows[0].since, Some(6));
    assert!(rows[0].value.unwrap_or(0.0) > 0.0);

    // The firing transition is the engine's latest edge, and left the
    // registry-side alert metrics in the sampled registry.
    let edges: Vec<(&str, Transition)> = engine.edges().collect();
    assert_eq!(edges, [("breaker.open.storm", Transition::ToFiring)]);
    let text = registry.prometheus_text();
    assert!(text.contains("alerts_firing 1"));
    assert!(text.contains("alerts_transitions{alert=\"breaker.open.storm\",to=\"firing\"} 1"));

    // The alerts endpoint reports it too.
    let body = engine.alerts_json();
    let v: Value = serde_json::from_str(&body).expect("valid JSON");
    assert_eq!(num(&v, "firing"), Some(1.0));

    // Window slides past the burst -> resolved. Each observe clears the
    // previous edges, so collect them as they come.
    let mut later = Vec::new();
    for tick in 7..=40u64 {
        engine.observe(tick, &registry);
        later.extend(engine.edges().map(|(rule, edge)| (rule.to_string(), edge)));
    }
    assert_eq!(engine.firing_count(), 0);
    assert!(later.contains(&("breaker.open.storm".to_string(), Transition::ToResolved)));
    assert!(registry.prometheus_text().contains("alerts_firing 0"));
}

#[test]
fn persistence_restores_series_and_alert_state_without_double_counting() {
    let dir = tempfile::tempdir().expect("tempdir");
    let registry = Registry::new();
    let work = registry.counter("journal.deduped");
    {
        let mut engine =
            ObsEngine::open(dir.path(), tiny_config(), vec![breaker_rule()]).expect("open");
        for tick in 1..=12u64 {
            work.add(1);
            engine.observe(tick, &registry);
        }
        engine.flush();
        let stats = engine.stats();
        assert!(stats.windows_persisted > 0, "windows persisted: {stats:?}");
    }

    // Reopen: the counter total must carry across the restart even though
    // the registry (same process here) kept its cumulative value — the
    // restored `last_raw` prevents re-counting history.
    let mut engine =
        ObsEngine::open(dir.path(), tiny_config(), vec![breaker_rule()]).expect("reopen");
    assert_eq!(engine.value("journal.deduped").expect("restored"), 12.0);
    assert_eq!(engine.stats().samples, 12);
    work.add(1);
    engine.observe(13, &registry);
    assert_eq!(engine.value("journal.deduped").expect("sampled"), 13.0);

    // Retention bounds the window count per series.
    engine.flush();
    let stats = engine.stats();
    assert!(
        stats.windows_deleted > 0
            || stats.windows_persisted <= 2 * engine.series_names().len() as u64,
        "retention must bound windows: {stats:?}"
    );
}

#[test]
fn sampling_interval_skips_off_ticks() {
    let registry = Registry::new();
    let mut config = tiny_config();
    config.interval_ticks = 5;
    let mut engine = ObsEngine::in_memory(config, vec![]).expect("rules");
    let c = registry.counter("journal.deduped");
    let mut taken = 0;
    for tick in 1..=20u64 {
        c.inc();
        if engine.observe(tick, &registry) {
            taken += 1;
        }
    }
    assert_eq!(taken, 4, "every 5th tick samples");
    assert_eq!(engine.stats().samples, 4);
}
