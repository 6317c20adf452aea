//! The central metrics catalog: every dotted metric name the workspace
//! emits, with its kind and meaning.
//!
//! The catalog is the contract behind `/rest/metrics`: dashboards and
//! alerting key on these names, so a rename or an ad-hoc addition is an
//! exposition-format break. `imcf-lint` rule IMCF-L004 enforces the
//! contract statically — any `counter*`/`gauge*`/`histogram*` call site
//! whose dotted name literal is missing here fails the lint — and the
//! tests in this module plus the driven-scenario test in
//! `crates/controller/tests/metrics_endpoint.rs` enforce it dynamically.
//!
//! To add a metric: add its [`MetricDef`] row here (keep the list sorted by
//! name), then use the name at the call site.

/// The kind of a cataloged metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

/// One cataloged metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The dotted name used at call sites and in the JSON exposition.
    pub name: &'static str,
    pub kind: MetricKind,
    /// Label keys the metric may carry (empty for unlabelled metrics).
    pub labels: &'static [&'static str],
    /// What the metric means, for `/rest/metrics` consumers.
    pub help: &'static str,
}

/// Every metric the workspace emits, sorted by name.
pub const METRICS: &[MetricDef] = &[
    MetricDef {
        name: "actuation.gave_up",
        kind: MetricKind::Counter,
        labels: &[],
        help: "commands that exhausted their retry budget undelivered",
    },
    MetricDef {
        name: "actuation.retries",
        kind: MetricKind::Counter,
        labels: &[],
        help: "actuation retry attempts beyond first tries",
    },
    MetricDef {
        name: "alerts.firing",
        kind: MetricKind::Gauge,
        labels: &[],
        help: "alert rules currently in the firing state",
    },
    MetricDef {
        name: "alerts.transitions",
        kind: MetricKind::Counter,
        labels: &["alert", "to"],
        help: "alert state-machine transitions by rule and target state",
    },
    MetricDef {
        name: "amortization.recomputes",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Amortization Plan budget recomputations",
    },
    MetricDef {
        name: "api.requests",
        kind: MetricKind::Counter,
        labels: &["status"],
        help: "REST API requests by response status class (2xx/4xx/5xx)",
    },
    MetricDef {
        name: "breaker.open",
        kind: MetricKind::Counter,
        labels: &[],
        help: "circuit-breaker transitions to open (device quarantined)",
    },
    MetricDef {
        name: "breaker.open_now",
        kind: MetricKind::Gauge,
        labels: &[],
        help: "circuit breakers currently open",
    },
    MetricDef {
        name: "chaos.faults_injected",
        kind: MetricKind::Counter,
        labels: &["kind"],
        help: "faults injected by the chaos plane, by kind",
    },
    MetricDef {
        name: "controller.checkpoints",
        kind: MetricKind::Counter,
        labels: &[],
        help: "controller state checkpoints made durable",
    },
    MetricDef {
        name: "controller.restore_micros",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "controller restore time (checkpoint load + journal replay), µs",
    },
    MetricDef {
        name: "controller.watchdog_trips",
        kind: MetricKind::Counter,
        labels: &[],
        help: "tick watchdog expiries (stuck tick detected, flight dump requested)",
    },
    MetricDef {
        name: "firewall.rule_hits",
        kind: MetricKind::Counter,
        labels: &["rule"],
        help: "firewall chain rule matches by rule comment",
    },
    MetricDef {
        name: "firewall.verdicts",
        kind: MetricKind::Counter,
        labels: &["verdict"],
        help: "firewall egress verdicts (accept/drop)",
    },
    MetricDef {
        name: "journal.deduped",
        kind: MetricKind::Counter,
        labels: &[],
        help: "journaled commands skipped on replay (already acknowledged)",
    },
    MetricDef {
        name: "lint.files",
        kind: MetricKind::Gauge,
        labels: &[],
        help: "source files scanned by the last imcf-lint workspace pass",
    },
    MetricDef {
        name: "lint.pass_micros",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "full imcf-lint workspace pass wall time, µs",
    },
    MetricDef {
        name: "loadgen.request_micros",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "closed-loop load generator end-to-end request latency, µs",
    },
    MetricDef {
        name: "net.connections",
        kind: MetricKind::Gauge,
        labels: &[],
        help: "TCP connections currently held by imcf-net (queued or in service)",
    },
    MetricDef {
        name: "net.rejected",
        kind: MetricKind::Counter,
        labels: &["reason"],
        help: "requests refused at the network edge (saturated, rate_limited)",
    },
    MetricDef {
        name: "net.request_micros",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "server-side request handling time inside imcf-net (router dispatch), µs",
    },
    MetricDef {
        name: "net.requests",
        kind: MetricKind::Counter,
        labels: &["status"],
        help: "HTTP requests answered by imcf-net, by status class",
    },
    MetricDef {
        name: "net.timeouts",
        kind: MetricKind::Counter,
        labels: &["kind"],
        help: "socket timeouts observed by imcf-net (read, write, idle keep-alive)",
    },
    MetricDef {
        name: "obs.evictions",
        kind: MetricKind::Counter,
        labels: &[],
        help: "raw time-series points evicted from imcf-obs ring buffers",
    },
    MetricDef {
        name: "obs.samples",
        kind: MetricKind::Counter,
        labels: &[],
        help: "registry sampling passes completed by the imcf-obs sampler",
    },
    MetricDef {
        name: "obs.series",
        kind: MetricKind::Gauge,
        labels: &[],
        help: "live time series retained by the imcf-obs engine",
    },
    MetricDef {
        name: "optimizer.iterations",
        kind: MetricKind::Counter,
        labels: &["optimizer"],
        help: "optimizer iterations by algorithm",
    },
    MetricDef {
        name: "planner.slot_micros",
        kind: MetricKind::Histogram,
        labels: &["optimizer"],
        help: "per-slot Energy Planner optimization time, µs",
    },
    MetricDef {
        name: "planner.slots_planned",
        kind: MetricKind::Counter,
        labels: &[],
        help: "planning slots processed by the Energy Planner",
    },
    MetricDef {
        name: "pool.tasks",
        kind: MetricKind::Counter,
        labels: &[],
        help: "work items submitted to imcf-pool map_indexed (unit independent of worker count)",
    },
    MetricDef {
        name: "pool.workers",
        kind: MetricKind::Gauge,
        labels: &[],
        help: "worker threads of the most recent threaded imcf-pool map_indexed",
    },
    MetricDef {
        name: "recorder.dumps",
        kind: MetricKind::Counter,
        labels: &["trigger"],
        help: "flight-recorder anomaly dump triggers, by trigger reason",
    },
    MetricDef {
        name: "recorder.traces",
        kind: MetricKind::Gauge,
        labels: &[],
        help: "trace trees retained in the flight-recorder ring",
    },
    MetricDef {
        name: "rules.conflicts",
        kind: MetricKind::Counter,
        labels: &[],
        help: "rule conflicts detected by the conflict analyzer",
    },
    MetricDef {
        name: "rules.evaluations",
        kind: MetricKind::Counter,
        labels: &[],
        help: "rule engine trigger evaluations",
    },
    MetricDef {
        name: "scheduler.tick_micros",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "controller orchestration tick time, µs",
    },
    MetricDef {
        name: "store.compactions",
        kind: MetricKind::Counter,
        labels: &[],
        help: "table compactions completed (snapshot published, log truncated)",
    },
    MetricDef {
        name: "store.recovery_micros",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "table open time (snapshot load + segment replay), µs",
    },
    MetricDef {
        name: "store.segments",
        kind: MetricKind::Gauge,
        labels: &["table"],
        help: "WAL segment files backing a table after open",
    },
    MetricDef {
        name: "trace.completed",
        kind: MetricKind::Counter,
        labels: &[],
        help: "trace trees completed and handed to the flight recorder",
    },
    MetricDef {
        name: "trace.spans",
        kind: MetricKind::Counter,
        labels: &[],
        help: "spans recorded across all traces",
    },
];

/// Is a dotted metric name in the catalog?
pub fn is_cataloged(name: &str) -> bool {
    lookup(name).is_some()
}

/// Finds a metric's definition by name.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn catalog_is_sorted_and_unique() {
        for pair in METRICS.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "catalog must be sorted, unique by name: `{}` then `{}`",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn names_are_dotted_and_prometheus_safe() {
        for m in METRICS {
            assert!(m.name.contains('.'), "`{}` is not dotted", m.name);
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "`{}` has characters outside [a-z0-9._]",
                m.name
            );
            assert!(!m.help.is_empty());
        }
    }

    /// Drives a registry through every cataloged metric the way the real
    /// call sites do, then asserts both exporters emit only cataloged
    /// names. This is the exposition-stability contract in miniature; the
    /// full driven-scenario version lives in
    /// `crates/controller/tests/metrics_endpoint.rs`.
    #[test]
    fn exporters_emit_only_cataloged_names() {
        let r = Registry::new();
        for m in METRICS {
            let labels: Vec<(&str, &str)> = m.labels.iter().map(|k| (*k, "x")).collect();
            match m.kind {
                MetricKind::Counter => r.counter_with(m.name, &labels).inc(),
                MetricKind::Gauge => r.gauge_with(m.name, &labels).set(1.0),
                MetricKind::Histogram => r.histogram_with(m.name, &labels).observe(1.0),
            }
        }
        for snap in r.metric_snapshots() {
            assert!(
                is_cataloged(&snap.name),
                "exporter emitted uncataloged `{}`",
                snap.name
            );
            let def = lookup(&snap.name).unwrap();
            let kind = match def.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
                MetricKind::Histogram => "histogram",
            };
            assert_eq!(snap.kind, kind, "kind drift for `{}`", snap.name);
        }
        // The Prometheus exposition carries the dotted name in HELP lines;
        // every HELP line must reference a cataloged name.
        let text = r.prometheus_text();
        for line in text.lines().filter(|l| l.starts_with("# HELP ")) {
            let dotted = line.rsplit(' ').next().unwrap();
            assert!(is_cataloged(dotted), "HELP line for uncataloged `{dotted}`");
        }
    }
}
