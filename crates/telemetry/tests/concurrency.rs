//! Concurrency and exposition-format tests over the public API.

use imcf_telemetry::Registry;
use std::thread;

const THREADS: u64 = 8;
const OPS: u64 = 10_000;

#[test]
fn concurrent_counter_updates_sum_correctly() {
    let registry = Registry::new();
    let counter = registry.counter("test.hits");
    let gauge = registry.gauge("test.level");
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let counter = counter.clone();
            let gauge = gauge.clone();
            thread::spawn(move || {
                for _ in 0..OPS {
                    counter.inc();
                    gauge.add(1.0);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.get(), THREADS * OPS);
    assert_eq!(gauge.get(), (THREADS * OPS) as f64);
}

#[test]
fn concurrent_histogram_observations_sum_correctly() {
    let registry = Registry::new();
    let histogram = registry.histogram_with_buckets("test.latency", &[], &[10.0, 100.0, 1000.0]);
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let histogram = histogram.clone();
            thread::spawn(move || {
                for v in 1..=1000u64 {
                    histogram.observe(v as f64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(histogram.count(), THREADS * 1000);
    // Sum of 1..=1000 is 500_500 per thread.
    assert_eq!(histogram.sum(), (THREADS * 500_500) as f64);
}

#[test]
fn concurrent_registration_converges_on_one_handle() {
    let registry = std::sync::Arc::new(Registry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let registry = std::sync::Arc::clone(&registry);
            thread::spawn(move || {
                // Every thread re-resolves the handle per op: identity must
                // be shared, not duplicated per caller.
                for _ in 0..100 {
                    registry
                        .counter_with("test.shared", &[("side", "both")])
                        .inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        registry
            .counter_with("test.shared", &[("side", "both")])
            .get(),
        THREADS * 100
    );
}

/// Every Prometheus line is either a comment or `name[{labels}] value`
/// with a numeric value — the grammar scrapers rely on.
#[test]
fn prometheus_output_parses_line_by_line() {
    let registry = Registry::new();
    registry.counter("app.starts").inc();
    registry
        .counter_with("firewall.verdicts", &[("verdict", "drop")])
        .add(3);
    registry.gauge("breaker.open_now").set(2.5);
    let h = registry.histogram("planner.slot_micros");
    h.observe(12.0);
    h.observe(80_000.0);

    let text = registry.prometheus_text();
    assert!(!text.is_empty());
    for line in text.lines() {
        if line.starts_with('#') {
            let mut parts = line.split_whitespace();
            assert_eq!(parts.next(), Some("#"));
            assert!(matches!(parts.next(), Some("HELP") | Some("TYPE")));
            assert!(parts.next().is_some(), "comment names a metric: `{line}`");
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "`{value}` is not numeric in `{line}`"
        );
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "`{name}` is outside the Prometheus charset"
        );
    }
}
