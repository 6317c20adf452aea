//! The ops-surface subcommands: `imcf top` (a live terminal dashboard
//! over `/rest/query` + `/rest/alerts`) and `imcf doctor` (a one-shot
//! JSON debug bundle with CI-friendly assertions).

use crate::args::Kind::{Flag, Int, Text};
use crate::args::{opt, Command, Parsed};
use imcf_net::client::Connection;
use serde_json::Value;
use std::time::Duration;

/// Eight-level unicode sparkline over the point values.
fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::from("(no points)");
    }
    let max = values.iter().cloned().fold(0.0_f64, f64::max);
    values
        .iter()
        .map(|v| {
            if max <= 0.0 {
                BARS[0]
            } else {
                let idx = ((v / max) * 7.0).round() as usize;
                BARS[idx.min(7)]
            }
        })
        .collect()
}

fn get_json(conn: &mut Connection, target: &str) -> Result<Value, String> {
    let response = conn
        .round_trip("GET", target, b"")
        .map_err(|e| format!("GET {target} failed: {e}"))?;
    if response.status != 200 {
        return Err(format!(
            "GET {target} returned {}: {}",
            response.status,
            response.body_text()
        ));
    }
    serde_json::from_str(&response.body_text())
        .map_err(|e| format!("GET {target} returned invalid JSON: {e}"))
}

/// The series names a `/rest/query` listing holds.
fn series_names(listing: &Value) -> Vec<String> {
    let rows = listing.get("series").and_then(|v| v.as_array());
    let names = rows.into_iter().flatten().filter_map(|v| v.as_str());
    names.map(str::to_string).collect()
}

fn num(value: &Value) -> Option<f64> {
    match value {
        Value::Number(n) => Some(n.as_f64()),
        _ => None,
    }
}

fn percent_encode(series: &str) -> String {
    let mut out = String::with_capacity(series.len());
    for b in series.bytes() {
        match b {
            b'{' => out.push_str("%7B"),
            b'}' => out.push_str("%7D"),
            b'=' => out.push_str("%3D"),
            b',' => out.push_str("%2C"),
            b'+' => out.push_str("%2B"),
            b'&' => out.push_str("%26"),
            b'%' => out.push_str("%25"),
            other => out.push(other as char),
        }
    }
    out
}

/// One dashboard frame rendered as text.
fn render_frame(conn: &mut Connection, limit: usize) -> Result<String, String> {
    let alerts = get_json(conn, "/rest/alerts")?;
    let listing = get_json(conn, "/rest/query")?;

    let tick = alerts.get("tick").and_then(num).unwrap_or(0.0) as u64;
    let firing = alerts.get("firing").and_then(num).unwrap_or(0.0) as u64;
    let series_names = series_names(&listing);

    let mut out = String::new();
    out.push_str(&format!(
        "imcf top — tick {tick} — {} series retained — {firing} alert(s) firing\n\n",
        series_names.len()
    ));

    out.push_str("ALERTS\n");
    out.push_str(&format!(
        "  {:<28} {:<8} {:<8} {:>12} {:>6}  EXPR\n",
        "NAME", "SEVERITY", "STATE", "VALUE", "FIRED"
    ));
    if let Some(rows) = alerts.get("alerts").and_then(|v| v.as_array()) {
        for row in rows {
            let name = row.get("name").and_then(|v| v.as_str()).unwrap_or("?");
            let severity = row.get("severity").and_then(|v| v.as_str()).unwrap_or("?");
            let state = row.get("state").and_then(|v| v.as_str()).unwrap_or("?");
            let value = row
                .get("value")
                .and_then(num)
                .map(|v| format!("{v:.3}"))
                .unwrap_or_else(|| String::from("-"));
            let fired = row.get("fired_count").and_then(num).unwrap_or(0.0) as u64;
            let expr = row.get("expr").and_then(|v| v.as_str()).unwrap_or("?");
            let cmp = row.get("cmp").and_then(|v| v.as_str()).unwrap_or("?");
            let threshold = row.get("threshold").and_then(num).unwrap_or(0.0);
            out.push_str(&format!(
                "  {name:<28} {severity:<8} {state:<8} {value:>12} {fired:>6}  {expr} {cmp} {threshold}\n"
            ));
        }
    }

    out.push_str(&format!("\nSERIES (showing {limit} of sorted set)\n"));
    out.push_str(&format!(
        "  {:<44} {:>12}  LAST {} SAMPLES\n",
        "NAME", "VALUE", "·"
    ));
    for name in series_names.iter().take(limit) {
        let encoded = percent_encode(name);
        let points = get_json(conn, &format!("/rest/query?series={encoded}&fn=points"))?;
        let values: Vec<f64> = points
            .get("points")
            .and_then(|v| v.as_array())
            .map(|rows| {
                rows.iter()
                    .filter_map(|p| p.as_array().and_then(|pair| pair.get(1)).and_then(num))
                    .collect()
            })
            .unwrap_or_default();
        let value = get_json(conn, &format!("/rest/query?series={encoded}"))?
            .get("value")
            .and_then(num)
            .unwrap_or(0.0);
        let tail: Vec<f64> = values.iter().rev().take(32).rev().cloned().collect();
        out.push_str(&format!(
            "  {name:<44} {value:>12.3}  {}\n",
            sparkline(&tail)
        ));
    }
    Ok(out)
}

/// A connection to the `imcf serve` at `--addr`, as `top` and `doctor`
/// open it.
fn connect(parsed: &Parsed) -> Result<Connection, String> {
    let addr = parsed.text("addr");
    let timeout = Duration::from_millis(parsed.get("timeout-ms"));
    Connection::open(addr, timeout).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

pub const TOP: Command = Command {
    usage: "top",
    about: "live dashboard of retained series and alerts; --iterations 0 runs until killed",
    options: &[&[
        opt("addr", Text("host:port")),
        opt("refresh-ms", Int(50, u64::MAX)).default("1000"),
        opt("iterations", Int(0, u64::MAX)).default("0"),
        opt("limit", Int(1, u64::MAX)).default("16"),
        opt("timeout-ms", Int(1, u64::MAX)).default("5000"),
        opt("plain", Flag).default("false"),
    ]],
};

/// `imcf top` — periodically redraw a dashboard of retained series and
/// alert states from a running `imcf serve`.
pub fn top(parsed: &Parsed) -> Result<(), String> {
    let refresh = Duration::from_millis(parsed.get("refresh-ms"));
    let iterations: u64 = parsed.get("iterations");
    let limit = parsed.get("limit");
    let plain = parsed.flag("plain");

    let mut conn = connect(parsed)?;
    let mut frame_no: u64 = 0;
    loop {
        let frame = render_frame(&mut conn, limit)?;
        if !plain {
            // ANSI clear-screen + home keeps the dashboard in place.
            print!("\x1b[2J\x1b[H");
        }
        print!("{frame}");
        frame_no += 1;
        if iterations > 0 && frame_no >= iterations {
            break;
        }
        std::thread::sleep(refresh);
    }
    Ok(())
}

pub const DOCTOR: Command = Command {
    usage: "doctor",
    about: "one-shot JSON bundle of health, metrics, series, alerts and traces",
    options: &[&[
        opt("addr", Text("host:port")),
        opt("timeout-ms", Int(1, u64::MAX)).default("5000"),
        opt("out", Text("path")).unset("doctor.json in $IMCF_OUT or target/experiments"),
        opt("require-series", Text("a,b,...")).unset("no series is required"),
        opt("require-alert", Text("name")).unset("no alert is required"),
    ]],
};

/// `imcf doctor` — pull every observability surface from a running
/// server into one JSON bundle, run health assertions, and write the
/// bundle to disk for CI artifacts / offline debugging.
pub fn doctor(parsed: &Parsed) -> Result<(), String> {
    let addr = parsed.text("addr");
    let mut conn = connect(parsed)?;
    let healthz = get_json(&mut conn, "/rest/healthz")?;
    let readyz = conn
        .round_trip("GET", "/rest/readyz", b"")
        .map_err(|e| format!("GET /rest/readyz failed: {e}"))?;
    let metrics = get_json(&mut conn, "/rest/metrics?format=json")?;
    let listing = get_json(&mut conn, "/rest/query")?;
    let alerts = get_json(&mut conn, "/rest/alerts")?;
    let traces = get_json(&mut conn, "/rest/traces")?;

    let series_names = series_names(&listing);

    let bundle = Value::Object(vec![
        ("addr".to_string(), serde_json::to_value(&addr)),
        ("healthz".to_string(), healthz.clone()),
        (
            "readyz_status".to_string(),
            serde_json::to_value(&readyz.status),
        ),
        ("metrics".to_string(), metrics),
        ("series".to_string(), listing),
        ("alerts".to_string(), alerts.clone()),
        ("traces".to_string(), traces),
    ]);

    let out_path = crate::write_report(parsed.maybe_text("out"), "doctor.json", &bundle)?;

    let tick = alerts.get("tick").and_then(num).unwrap_or(0.0) as u64;
    let firing = alerts.get("firing").and_then(num).unwrap_or(0.0) as u64;
    println!(
        "doctor: {} — tick {tick}, {} series retained, {firing} alert(s) firing",
        addr,
        series_names.len()
    );
    println!(
        "  healthz: {}",
        if healthz.get("status").and_then(|v| v.as_str()) == Some("ok") {
            "ok"
        } else {
            "NOT OK"
        }
    );
    println!("  readyz:  {}", readyz.status);
    println!("  bundle:  {}", out_path.display());

    let mut failures = Vec::new();
    if healthz.get("status").and_then(|v| v.as_str()) != Some("ok") {
        failures.push(String::from("healthz did not report status=ok"));
    }
    if let Some(required) = parsed.maybe_text("require-series") {
        for name in required.split(',').filter(|s| !s.is_empty()) {
            if !series_names.iter().any(|s| s == name) {
                failures.push(format!("required series `{name}` is not retained"));
            }
        }
    }
    if let Some(alert_name) = parsed.maybe_text("require-alert") {
        let firing_named = alerts
            .get("alerts")
            .and_then(|v| v.as_array())
            .map(|rows| {
                rows.iter().any(|row| {
                    row.get("name").and_then(|v| v.as_str()) == Some(alert_name)
                        && row.get("state").and_then(|v| v.as_str()) == Some("firing")
                })
            })
            .unwrap_or(false);
        if !firing_named {
            failures.push(format!("required alert `{alert_name}` is not firing"));
        }
    }
    if failures.is_empty() {
        println!("  checks:  all passed");
        Ok(())
    } else {
        for failure in &failures {
            eprintln!("  check failed: {failure}");
        }
        Err(format!("{} doctor check(s) failed", failures.len()))
    }
}
