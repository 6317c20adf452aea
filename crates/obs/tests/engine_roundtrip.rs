//! End-to-end engine behaviour: sampling, range queries, alert
//! transitions and crash-safe persistence.

use imcf_obs::alert::Transition;
use imcf_obs::engine::ObsState;
use imcf_obs::{
    handle_query, AlertExpr, AlertRule, Cmp, ObsConfig, ObsEngine, QueryError, SeriesWindow,
    Severity,
};
use imcf_store::Table;
use imcf_telemetry::Registry;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Numeric field accessor (the compat `Value` has no `as_f64`).
fn num(v: &Value, key: &str) -> Option<f64> {
    match v.get(key) {
        Some(Value::Number(n)) => Some(n.as_f64()),
        _ => None,
    }
}

fn tiny_config() -> ObsConfig {
    ObsConfig { capacity: 64 }
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

/// Runs a persisted engine in `dir` for 12 ticks, one `journal.deduped`
/// per tick and a breaker opening at tick 6 that fires the storm alert,
/// flushing after every fourth tick.
fn persist_twelve_ticks(dir: &Path, registry: &Registry) {
    let work = registry.counter("journal.deduped");
    let breaker = registry.counter("breaker.open");
    let mut engine = ObsEngine::open(dir, tiny_config(), vec![breaker_rule()]).expect("open");
    for tick in 1..=12u64 {
        work.add(1);
        if tick == 6 {
            breaker.add(1);
        }
        engine.observe(tick, registry);
        if tick % 4 == 0 {
            engine.flush();
        }
    }
    let stats = engine.stats();
    assert!(stats.windows_persisted > 0, "windows persisted: {stats:?}");
    assert_eq!(stats.windows_deleted, 0, "persistence only appends");
}

/// What a reopened engine must hold after [`persist_twelve_ticks`].
fn assert_restored(engine: &ObsEngine) {
    assert_eq!(engine.value("journal.deduped").expect("restored"), 12.0);
    assert_eq!(engine.stats().samples, 12);
    assert_eq!(engine.last_tick(), Some(12));
    let rows = engine.alert_rows();
    assert_eq!((rows[0].state.as_str(), rows[0].since), ("firing", Some(6)));
}

#[test]
fn persistence_restores_series_and_alert_state_without_double_counting() {
    let dir = tempfile::tempdir().expect("tempdir");
    let registry = Registry::new();
    persist_twelve_ticks(dir.path(), &registry);

    // Reopen: the counter total must carry across the restart even though
    // the registry (same process here) kept its cumulative value — the
    // restored `last_raw` prevents re-counting history.
    let mut engine =
        ObsEngine::open(dir.path(), tiny_config(), vec![breaker_rule()]).expect("reopen");
    assert_restored(&engine);
    registry.counter("journal.deduped").add(1);
    engine.observe(13, &registry);
    assert_eq!(engine.value("journal.deduped").expect("sampled"), 13.0);
}

/// Older engines kept at most a few windows per series by deleting the
/// oldest, and updated one state row in place. A store written that way
/// (here copied with [`Table`] from an append-only one, deleting all but
/// the two newest windows of each series) reopens to the same engine.
#[test]
fn a_store_with_window_deletes_and_an_updated_state_row_reopens_the_same() {
    let registry = Registry::new();
    let appended = tempfile::tempdir().expect("tempdir");
    persist_twelve_ticks(appended.path(), &registry);

    let rewritten = tempfile::tempdir().expect("tempdir");
    {
        let windows: Table<SeriesWindow> = Table::open(appended.path(), "tsdb").expect("tsdb");
        let mut old: Table<SeriesWindow> = Table::open(rewritten.path(), "tsdb").expect("tsdb");
        let mut kept: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        let mut deleted = 0;
        for (_, window) in windows.scan() {
            let id = old.insert(window.clone()).expect("insert");
            let ids = kept.entry(window.series.clone()).or_default();
            ids.push(id);
            if ids.len() > 2 {
                old.delete(ids.remove(0)).expect("delete");
                deleted += 1;
            }
        }
        assert!(deleted > 0, "three passes leave a window to delete");
        old.sync().expect("sync");

        let states: Table<ObsState> = Table::open(appended.path(), "tsdb_meta").expect("meta");
        assert_eq!(states.len(), 3, "one state row per pass");
        let mut old: Table<ObsState> = Table::open(rewritten.path(), "tsdb_meta").expect("meta");
        let mut state_id = None;
        for (_, state) in states.scan() {
            match state_id {
                None => state_id = Some(old.insert(state.clone()).expect("insert")),
                Some(id) => old.update(id, state.clone()).expect("update"),
            }
        }
        assert_eq!(old.len(), 1);
        old.sync().expect("sync");
    }

    let open = |dir: &Path| ObsEngine::open(dir, tiny_config(), vec![breaker_rule()]);
    let appended = open(appended.path()).expect("reopen appended");
    let rewritten = open(rewritten.path()).expect("reopen rewritten");
    assert_restored(&rewritten);
    assert_eq!(appended.series_names(), rewritten.series_names());
    for series in appended.series_names() {
        assert_eq!(
            appended.points(&series),
            rewritten.points(&series),
            "{series}"
        );
    }
}
