//! Exporters: Prometheus text exposition and a JSON snapshot.

use crate::registry::{locked, Metric, MetricKey, Registry};
use serde::Serialize;
use serde_json::Value;

/// One metric flattened for JSON export. Counter/gauge fill `value`;
/// histograms fill `count`, `sum`, `buckets` (upper bound → cumulative
/// count) and `overflow` (observations above the last bound, i.e. the
/// +Inf bucket, which JSON cannot express as a number).
#[derive(Debug, Clone, Serialize)]
pub struct MetricSnapshot {
    /// Dotted metric name.
    pub name: String,
    /// `counter`, `gauge` or `histogram`.
    pub kind: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// Counter or gauge value.
    pub value: Option<f64>,
    /// Histogram observation count.
    pub count: Option<u64>,
    /// Histogram observation sum.
    pub sum: Option<f64>,
    /// Histogram cumulative bucket counts by upper bound.
    pub buckets: Option<Vec<(f64, u64)>>,
    /// Histogram observations above the last bound.
    pub overflow: Option<u64>,
    /// Histogram median estimate (shared `quantile_from_buckets` path).
    pub p50: Option<f64>,
    /// Histogram 99th percentile estimate.
    pub p99: Option<f64>,
    /// Histogram 99.9th percentile estimate.
    pub p999: Option<f64>,
}

/// Rewrites a dotted metric name into the Prometheus charset.
fn prometheus_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Escapes a label value per the exposition format: backslash first (so
/// the other escapes aren't double-escaped), then quote and newline.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn prometheus_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn snapshot_one(key: &MetricKey, metric: &Metric) -> MetricSnapshot {
    let mut snap = MetricSnapshot {
        name: key.name.clone(),
        kind: String::new(),
        labels: key.labels.clone(),
        value: None,
        count: None,
        sum: None,
        buckets: None,
        overflow: None,
        p50: None,
        p99: None,
        p999: None,
    };
    match metric {
        Metric::Counter(c) => {
            snap.kind = "counter".to_string();
            snap.value = Some(c.get() as f64);
        }
        Metric::Gauge(g) => {
            snap.kind = "gauge".to_string();
            snap.value = Some(g.get());
        }
        Metric::Histogram(h) => {
            snap.kind = "histogram".to_string();
            snap.count = Some(h.count());
            snap.sum = Some(h.sum());
            let summary = h.summary();
            snap.p50 = Some(summary.p50);
            snap.p99 = Some(summary.p99);
            snap.p999 = Some(summary.p999);
            let core = &h.0;
            let mut cumulative = 0u64;
            let mut buckets = Vec::with_capacity(core.bounds.len());
            for (i, &bound) in core.bounds.iter().enumerate() {
                cumulative += core.counts[i].load(std::sync::atomic::Ordering::Relaxed);
                buckets.push((bound, cumulative));
            }
            snap.overflow =
                Some(core.counts[core.bounds.len()].load(std::sync::atomic::Ordering::Relaxed));
            snap.buckets = Some(buckets);
        }
    }
    snap
}

impl Registry {
    /// Every registered metric, flattened, sorted by name then labels.
    pub fn metric_snapshots(&self) -> Vec<MetricSnapshot> {
        let map = locked(&self.metrics);
        map.iter().map(|(k, m)| snapshot_one(k, m)).collect()
    }

    /// Renders the registry in the Prometheus text exposition format.
    /// `# HELP` lines carry the original dotted name.
    pub fn prometheus_text(&self) -> String {
        let map = locked(&self.metrics);
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for (key, metric) in map.iter() {
            let san = prometheus_name(&key.name);
            if last_name != Some(key.name.as_str()) {
                let kind = match metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# HELP {san} {}\n", key.name));
                out.push_str(&format!("# TYPE {san} {kind}\n"));
                last_name = Some(key.name.as_str());
            }
            match metric {
                Metric::Counter(c) => {
                    let labels = prometheus_labels(&key.labels, None);
                    out.push_str(&format!("{san}{labels} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    let labels = prometheus_labels(&key.labels, None);
                    out.push_str(&format!("{san}{labels} {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    let core = &h.0;
                    let mut cumulative = 0u64;
                    for (i, &bound) in core.bounds.iter().enumerate() {
                        cumulative += core.counts[i].load(std::sync::atomic::Ordering::Relaxed);
                        let labels =
                            prometheus_labels(&key.labels, Some(("le", &format!("{bound}"))));
                        out.push_str(&format!("{san}_bucket{labels} {cumulative}\n"));
                    }
                    let inf = prometheus_labels(&key.labels, Some(("le", "+Inf")));
                    out.push_str(&format!("{san}_bucket{inf} {}\n", h.count()));
                    let labels = prometheus_labels(&key.labels, None);
                    out.push_str(&format!("{san}_sum{labels} {}\n", h.sum()));
                    out.push_str(&format!("{san}_count{labels} {}\n", h.count()));
                }
            }
        }
        out
    }

    /// A full JSON snapshot: `{"metrics": [...]}`.
    pub fn json_snapshot(&self) -> Value {
        let metrics = self.metric_snapshots();
        Value::Object(vec![(
            "metrics".to_string(),
            serde_json::to_value(&metrics),
        )])
    }

    /// [`Registry::json_snapshot`] rendered as a JSON string, for callers
    /// that write the snapshot to a file or wire without depending on
    /// `serde_json` themselves.
    pub fn json_snapshot_string(&self) -> String {
        // Snapshot values are finite by construction; if serialization
        // still fails, an empty object beats panicking inside an exporter.
        serde_json::to_string(&self.json_snapshot()).unwrap_or_else(|_| String::from("{}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_counter_and_labels() {
        let r = Registry::new();
        r.counter_with("firewall.verdicts", &[("verdict", "drop")])
            .add(3);
        let text = r.prometheus_text();
        assert!(text.contains("# HELP firewall_verdicts firewall.verdicts"));
        assert!(text.contains("# TYPE firewall_verdicts counter"));
        assert!(text.contains("firewall_verdicts{verdict=\"drop\"} 3"));
    }

    #[test]
    fn prometheus_label_values_escape_backslash_quote_and_newline() {
        let r = Registry::new();
        r.counter_with("esc", &[("rule", "a\\b\"c\nd")]).inc();
        let text = r.prometheus_text();
        assert!(
            text.contains(r#"esc{rule="a\\b\"c\nd"} 1"#),
            "escaping must cover backslash, quote and newline: {text}"
        );
        // The sample must survive as a single exposition line — a raw
        // newline in the value would split it.
        assert!(
            text.lines().any(|l| l == r#"esc{rule="a\\b\"c\nd"} 1"#),
            "escaped value must stay on one line: {text}"
        );
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        let r = Registry::new();
        let h = r.histogram_with_buckets("lat", &[], &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        let text = r.prometheus_text();
        assert!(text.contains("lat_bucket{le=\"1\"} 1"));
        assert!(text.contains("lat_bucket{le=\"10\"} 2"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_count 3"));
    }

    #[test]
    fn json_snapshot_shape() {
        let r = Registry::new();
        r.counter("c").inc();
        let snap = r.json_snapshot();
        let metrics = snap.get("metrics").and_then(|v| v.as_array()).unwrap();
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].get("name").and_then(|v| v.as_str()), Some("c"));
        assert!(
            snap.get("events").is_none(),
            "the snapshot carries metrics only"
        );
    }
}
