//! The network-plane subcommands: `imcf serve` and `imcf loadgen`.

use crate::args::ArgSpec;
use imcf_controller::api::Router;
use imcf_controller::controller::{ControllerConfig, LocalController};
use imcf_controller::zone_names;
use imcf_core::calendar::PaperCalendar;
use imcf_net::limiter::RateLimit;
use imcf_net::loadgen::{self, LoadConfig};
use imcf_net::server::NetConfig;
use imcf_obs::{default_rules, ObsConfig, ObsEngine};
use imcf_sim::meter::EnergyMeter;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `imcf serve` — run the HTTP/1.1 network plane over a demo home.
///
/// Provisions a [`LocalController`] with `--zones` zones (HVAC + light
/// each), fronts its REST router with the `imcf-net` threaded server, and
/// serves until `--duration-secs` elapses (0 = until stdin reaches EOF or
/// a line saying `quit`), then shuts down gracefully, draining in-flight
/// requests.
///
/// An in-process [`ObsEngine`] samples the global telemetry registry
/// every `--tick-ms` milliseconds (one sampler tick each), which powers
/// `GET /rest/query`, `GET /rest/alerts`, `imcf top` and `imcf doctor`.
/// `--demo-alert true` bumps `breaker.open` each tick so the
/// `breaker.open.storm` rule fires — used by the CI smoke run to assert
/// the alerting path end to end.
pub fn serve(argv: &[String]) -> Result<(), String> {
    let spec = ArgSpec {
        options: &[
            "port",
            "zones",
            "duration-secs",
            "max-conns",
            "read-timeout-ms",
            "write-timeout-ms",
            "max-requests-per-conn",
            "burst",
            "refill-per-sec",
            "tick-ms",
            "demo-alert",
        ],
        min_positional: 0,
        max_positional: 0,
    };
    let parsed = spec.parse(argv)?;
    let port = parsed.get_u64("port", 0)?;
    let zones = parsed.get_u64("zones", 2)?.max(1) as usize;
    let duration_secs = parsed.get_u64("duration-secs", 0)?;
    let max_conns = parsed.get_u64("max-conns", 16)?.max(1) as usize;
    let read_timeout = Duration::from_millis(parsed.get_u64("read-timeout-ms", 5000)?.max(1));
    let write_timeout = Duration::from_millis(parsed.get_u64("write-timeout-ms", 5000)?.max(1));
    let max_requests_per_conn = parsed.get_u64("max-requests-per-conn", 1000)?.max(1) as u32;
    let burst = parsed.get_u64("burst", 0)?;
    let refill_per_sec = parsed.get_f64("refill-per-sec", 10.0)?;
    // A negative rate drains the bucket by itself, so it is no rate.
    if refill_per_sec < 0.0 {
        return Err(format!(
            "`--refill-per-sec` expects a non-negative rate, found `{refill_per_sec}`"
        ));
    }
    let tick_ms = parsed.get_u64("tick-ms", 200)?.max(1);
    let demo_alert = matches!(parsed.get("demo-alert"), Some("1") | Some("true"));
    let rate_limit = (burst > 0).then_some(RateLimit {
        burst: burst.min(u64::from(u32::MAX)) as u32,
        refill_per_sec,
    });

    let controller = LocalController::with_zones(
        ControllerConfig::default(),
        PaperCalendar::january_start(),
        &zone_names(zones),
    )
    .map_err(|e| format!("cannot provision the demo home: {e}"))?;
    let engine = ObsEngine::in_memory(ObsConfig::default(), default_rules())
        .map_err(|e| format!("invalid alert rules: {e}"))?;
    let obs = Arc::new(Mutex::new(engine));
    let router = Router::new(
        controller.registry(),
        controller.firewall(),
        Arc::new(Mutex::new(EnergyMeter::new(PaperCalendar::january_start()))),
    )
    .with_breakers(controller.breakers(), controller.chaos_clock())
    .with_obs(obs.clone());
    let readiness = router.readiness();

    // The sampler thread: one obs tick per `--tick-ms`, reading whatever
    // the server threads have recorded into the global telemetry
    // registry (request counters, handling-latency histogram, ...).
    let sampling = Arc::new(AtomicBool::new(true));
    let sampler = {
        let obs = obs.clone();
        let sampling = sampling.clone();
        std::thread::spawn(move || {
            let mut tick: u64 = 0;
            while sampling.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(tick_ms));
                tick += 1;
                if demo_alert {
                    imcf_telemetry::global().counter("breaker.open").add(1);
                }
                obs.lock().observe(tick, imcf_telemetry::global());
            }
        })
    };

    let config = NetConfig {
        addr: format!("127.0.0.1:{port}"),
        max_connections: max_conns,
        read_timeout,
        write_timeout,
        max_requests_per_conn,
        rate_limit,
        ..NetConfig::default()
    };
    let handle = imcf_net::serve(config, Arc::new(router))
        .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;
    println!(
        "imcf-net: serving {zones} zone(s) on {} (max-conns {max_conns}, keep-alive cap {max_requests_per_conn}{})",
        handle.addr(),
        match rate_limit {
            Some(l) => format!(", edge bucket {}+{}/s", l.burst, l.refill_per_sec),
            None => String::from(", no edge rate limit"),
        }
    );
    println!(
        "imcf-obs: sampling telemetry every {tick_ms} ms{} — query with `imcf top --addr {}`",
        if demo_alert {
            " (demo alert storm on)"
        } else {
            ""
        },
        handle.addr()
    );

    if duration_secs > 0 {
        std::thread::sleep(Duration::from_secs(duration_secs));
    } else {
        println!("imcf-net: reading stdin — EOF or `quit` shuts down");
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::stdin().read_line(&mut line) {
                Ok(0) => break,
                Ok(_) if line.trim() == "quit" => break,
                Ok(_) => {}
                Err(_) => break,
            }
        }
    }
    // Flip readiness before the drain: load balancers probing
    // `/rest/readyz` see 503 and stop routing here while in-flight
    // requests (and liveness probes) still complete.
    readiness.store(false, std::sync::atomic::Ordering::SeqCst);
    println!("imcf-net: shutting down (readyz=503, draining in-flight requests)");
    sampling.store(false, Ordering::SeqCst);
    handle.shutdown();
    let _ = sampler.join();
    Ok(())
}

/// `imcf loadgen` — drive a running `imcf serve` with a closed loop and
/// report sustained RPS plus p50/p99/p999 latency.
pub fn loadgen(argv: &[String]) -> Result<(), String> {
    let spec = ArgSpec {
        options: &[
            "addr",
            "connections",
            "requests",
            "mix",
            "zone",
            "timeout-ms",
            "out",
            "strict",
        ],
        min_positional: 0,
        max_positional: 0,
    };
    let parsed = spec.parse(argv)?;
    let addr = parsed
        .get("addr")
        .ok_or("--addr <host:port> is required (the address `imcf serve` printed)")?
        .to_string();
    let connections = parsed.get_u64("connections", 4)?.max(1) as usize;
    let requests_per_conn = parsed.get_u64("requests", 100)?.max(1);
    let mix_names = parsed
        .get("mix")
        .unwrap_or("items,item,post,firewall,metrics");
    let zone = parsed.get("zone").unwrap_or("zone0");
    let timeout = Duration::from_millis(parsed.get_u64("timeout-ms", 10_000)?.max(1));
    let strict = matches!(parsed.get("strict"), Some("1") | Some("true"));

    let config = LoadConfig {
        addr,
        connections,
        requests_per_conn,
        mix: loadgen::route_mix(mix_names, zone)?,
        timeout,
    };
    let report = loadgen::run(&config)?;

    println!(
        "loadgen: {} conn × {} req against {} ({} routes: {})",
        report.connections,
        requests_per_conn,
        config.addr,
        config.mix.len(),
        mix_names
    );
    println!(
        "  completed {}/{} ({} reconnects, {} io errors) in {:.2} s — {:.0} req/s",
        report.completed,
        report.attempted,
        report.reconnects,
        report.io_errors,
        report.wall_secs,
        report.rps
    );
    println!(
        "  status classes: 2xx={} 3xx={} 4xx={} 5xx={}",
        report.class("2xx"),
        report.class("3xx"),
        report.class("4xx"),
        report.class("5xx")
    );
    println!(
        "  latency µs: p50={:.0} p99={:.0} p999={:.0} mean={:.0}",
        report.p50_micros, report.p99_micros, report.p999_micros, report.mean_micros
    );

    let out_path = match parsed.get("out") {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let dir =
                std::env::var("IMCF_OUT").unwrap_or_else(|_| String::from("target/experiments"));
            std::path::PathBuf::from(dir).join("loadgen.json")
        }
    };
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    }
    let json = serde_json::to_string_pretty(&report.to_json()).map_err(|e| e.to_string())?;
    std::fs::write(&out_path, json)
        .map_err(|e| format!("cannot write report to `{}`: {e}", out_path.display()))?;
    println!("  report: {}", out_path.display());

    if strict {
        if report.class("2xx") == 0 {
            return Err(String::from("strict check failed: zero 2xx responses"));
        }
        if report.class("5xx") > 0 {
            return Err(format!(
                "strict check failed: {} 5xx responses",
                report.class("5xx")
            ));
        }
    }
    Ok(())
}
