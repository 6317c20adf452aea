//! The closed-loop load generator: K concurrent keep-alive connections ×
//! M requests each over a route mix, with latency quantiles taken from an
//! `imcf-telemetry` histogram.
//!
//! Closed-loop means each connection has exactly one request outstanding:
//! the next request is sent only after the previous response is fully
//! read, so measured latency is honest end-to-end time under the offered
//! concurrency (no coordinated-omission games with an open-loop arrival
//! process we could not sustain anyway).

use crate::client::Connection;
use imcf_telemetry::{Registry, Stopwatch};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// Latency histogram buckets, µs: 10 µs to 30 s, roughly geometric. Finer
/// than the telemetry default because p999 lives in the tail.
const LATENCY_BUCKETS_MICROS: [f64; 20] = [
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    250_000.0,
    500_000.0,
    1_000_000.0,
    2_500_000.0,
    5_000_000.0,
    10_000_000.0,
    30_000_000.0,
];

/// One route in the mix.
#[derive(Debug, Clone)]
pub struct RouteSpec {
    /// Mix name (`items`, `metrics`, ...).
    pub name: &'static str,
    /// HTTP method.
    pub method: &'static str,
    /// Request target.
    pub target: String,
    /// Request body (empty for GETs).
    pub body: Vec<u8>,
}

/// Builds the route mix from a comma-separated list of route names.
/// `zone` parameterizes the item routes (`<zone>_SetPoint`).
pub fn route_mix(names: &str, zone: &str) -> Result<Vec<RouteSpec>, String> {
    let mut mix = Vec::new();
    for name in names.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        let spec = match name {
            "items" => RouteSpec {
                name: "items",
                method: "GET",
                target: String::from("/rest/items"),
                body: Vec::new(),
            },
            "item" => RouteSpec {
                name: "item",
                method: "GET",
                target: format!("/rest/items/{zone}_SetPoint"),
                body: Vec::new(),
            },
            "post" => RouteSpec {
                name: "post",
                method: "POST",
                target: format!("/rest/items/{zone}_SetPoint"),
                body: b"21.5".to_vec(),
            },
            "things" => RouteSpec {
                name: "things",
                method: "GET",
                target: String::from("/rest/things"),
                body: Vec::new(),
            },
            "firewall" => RouteSpec {
                name: "firewall",
                method: "GET",
                target: String::from("/rest/firewall"),
                body: Vec::new(),
            },
            "meter" => RouteSpec {
                name: "meter",
                method: "GET",
                target: String::from("/rest/meter"),
                body: Vec::new(),
            },
            "breakers" => RouteSpec {
                name: "breakers",
                method: "GET",
                target: String::from("/rest/breakers"),
                body: Vec::new(),
            },
            "metrics" => RouteSpec {
                name: "metrics",
                method: "GET",
                target: String::from("/rest/metrics"),
                body: Vec::new(),
            },
            "traces" => RouteSpec {
                name: "traces",
                method: "GET",
                target: String::from("/rest/traces"),
                body: Vec::new(),
            },
            other => {
                return Err(format!(
                    "unknown route `{other}` (items|item|post|things|firewall|meter|breakers|metrics|traces)"
                ))
            }
        };
        mix.push(spec);
    }
    if mix.is_empty() {
        return Err(String::from("route mix is empty"));
    }
    Ok(mix)
}

/// Load-run configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Concurrent connections (closed-loop workers).
    pub connections: usize,
    /// Requests each connection issues.
    pub requests_per_conn: u64,
    /// The route mix, cycled per worker with a per-worker offset.
    pub mix: Vec<RouteSpec>,
    /// Client-side socket timeout.
    pub timeout: Duration,
}

/// The machine-readable outcome of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Concurrent connections.
    pub connections: usize,
    /// Requests attempted (connections × requests each).
    pub attempted: u64,
    /// Responses fully received.
    pub completed: u64,
    /// Responses by status class.
    pub by_class: BTreeMap<&'static str, u64>,
    /// Responses by exact status.
    pub by_status: BTreeMap<u16, u64>,
    /// Requests that died on a socket error (no response).
    pub io_errors: u64,
    /// Reconnections performed (server closed or refused).
    pub reconnects: u64,
    /// Wall-clock of the whole run, seconds.
    pub wall_secs: f64,
    /// Completed requests per wall-clock second.
    pub rps: f64,
    /// Latency quantiles in µs from the telemetry histogram.
    pub p50_micros: f64,
    /// 99th percentile latency, µs.
    pub p99_micros: f64,
    /// 99.9th percentile latency, µs.
    pub p999_micros: f64,
    /// Mean latency, µs.
    pub mean_micros: f64,
}

impl LoadReport {
    /// Responses in a class (`"2xx"`, ...).
    pub fn class(&self, class: &str) -> u64 {
        self.by_class.get(class).copied().unwrap_or(0)
    }

    /// The JSON document written under `target/experiments`.
    pub fn to_json(&self) -> serde_json::Value {
        let by_status = serde_json::Value::Object(
            self.by_status
                .iter()
                .map(|(status, count)| (status.to_string(), serde_json::to_value(count)))
                .collect(),
        );
        let by_class = serde_json::Value::Object(
            self.by_class
                .iter()
                .map(|(class, count)| (class.to_string(), serde_json::to_value(count)))
                .collect(),
        );
        let latency_micros = serde_json::json!({
            "p50": self.p50_micros,
            "p99": self.p99_micros,
            "p999": self.p999_micros,
            "mean": self.mean_micros,
        });
        serde_json::json!({
            "connections": self.connections,
            "attempted": self.attempted,
            "completed": self.completed,
            "by_class": by_class,
            "by_status": by_status,
            "io_errors": self.io_errors,
            "reconnects": self.reconnects,
            "wall_secs": self.wall_secs,
            "rps": self.rps,
            "latency_micros": latency_micros,
        })
    }
}

#[derive(Default)]
struct WorkerTally {
    by_status: BTreeMap<u16, u64>,
    completed: u64,
    io_errors: u64,
    reconnects: u64,
}

/// Runs the closed loop and reports.
pub fn run(config: &LoadConfig) -> Result<LoadReport, String> {
    if config.connections == 0 || config.requests_per_conn == 0 || config.mix.is_empty() {
        return Err(String::from(
            "loadgen needs at least one connection, one request, and one route",
        ));
    }
    // A private registry isolates the measurement from the process-global
    // metrics (several runs in one process must not share tails).
    let registry = Registry::new();
    let latency =
        registry.histogram_with_buckets("loadgen.request_micros", &[], &LATENCY_BUCKETS_MICROS);
    let tallies: Mutex<Vec<WorkerTally>> = Mutex::new(Vec::new());

    let wall = Stopwatch::start();
    std::thread::scope(|scope| {
        for worker in 0..config.connections {
            let latency = latency.clone();
            let tallies = &tallies;
            scope.spawn(move || {
                let tally = run_worker(config, worker, &latency);
                match tallies.lock() {
                    Ok(mut all) => all.push(tally),
                    Err(poisoned) => poisoned.into_inner().push(tally),
                }
            });
        }
    });
    let wall_secs = wall.elapsed().as_secs_f64();

    let tallies = match tallies.into_inner() {
        Ok(all) => all,
        Err(poisoned) => poisoned.into_inner(),
    };
    let mut by_status: BTreeMap<u16, u64> = BTreeMap::new();
    let (mut completed, mut io_errors, mut reconnects) = (0u64, 0u64, 0u64);
    for tally in &tallies {
        completed += tally.completed;
        io_errors += tally.io_errors;
        reconnects += tally.reconnects;
        for (status, count) in &tally.by_status {
            *by_status.entry(*status).or_insert(0) += count;
        }
    }
    let mut by_class: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (status, count) in &by_status {
        *by_class
            .entry(imcf_controller::api::status_class(*status))
            .or_insert(0) += count;
    }

    let digest = latency.summary();
    Ok(LoadReport {
        connections: config.connections,
        attempted: config.connections as u64 * config.requests_per_conn,
        completed,
        by_class,
        by_status,
        io_errors,
        reconnects,
        wall_secs,
        rps: if wall_secs > 0.0 {
            completed as f64 / wall_secs
        } else {
            0.0
        },
        p50_micros: digest.p50,
        p99_micros: digest.p99,
        p999_micros: digest.p999,
        mean_micros: digest.mean,
    })
}

fn run_worker(
    config: &LoadConfig,
    worker: usize,
    latency: &imcf_telemetry::Histogram,
) -> WorkerTally {
    let mut tally = WorkerTally::default();
    let mut connection: Option<Connection> = None;
    for i in 0..config.requests_per_conn {
        let route = &config.mix[(worker + i as usize) % config.mix.len()];
        let sw = Stopwatch::start();
        let conn = match &mut connection {
            Some(c) => c,
            None => match Connection::open(&config.addr, config.timeout) {
                Ok(c) => {
                    if i > 0 {
                        tally.reconnects += 1;
                    }
                    connection.insert(c)
                }
                Err(_) => {
                    tally.io_errors += 1;
                    continue;
                }
            },
        };
        match conn.round_trip(route.method, &route.target, &route.body) {
            Ok(response) => {
                latency.observe(sw.elapsed_micros() as f64);
                tally.completed += 1;
                *tally.by_status.entry(response.status).or_insert(0) += 1;
                if response.closing {
                    connection = None;
                }
            }
            Err(_) => {
                tally.io_errors += 1;
                connection = None;
            }
        }
    }
    tally
}
