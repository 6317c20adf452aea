//! The network-plane subcommands: `imcf serve` and `imcf loadgen`.

use crate::args::Kind::{Flag, Float, Int, Text};
use crate::args::{opt, Command, Parsed, THREADS, U32};
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

pub const SERVE: Command = Command {
    usage: "serve",
    about: "serve the HTTP/1.1 network plane over a demo home (port 0 = ephemeral)",
    options: &[&[
        opt("port", Int(0, 65_535)).default("0"),
        opt("zones", Int(1, u64::MAX)).default("2"),
        opt("duration-secs", Int(0, u64::MAX)).default("0"),
        opt("max-conns", Int(1, THREADS)).default("16"),
        opt("read-timeout-ms", Int(1, u64::MAX)).default("5000"),
        opt("write-timeout-ms", Int(1, u64::MAX)).default("5000"),
        opt("max-requests-per-conn", Int(1, U32)).default("1000"),
        opt("burst", Int(0, U32)).default("0"),
        opt("refill-per-sec", Float(0.0, f64::INFINITY)).default("10"),
        opt("tick-ms", Int(1, u64::MAX)).default("200"),
        opt("demo-alert", Flag).default("false"),
    ]],
};

/// `imcf serve` — run the HTTP/1.1 network plane over a demo home.
///
/// Provisions a [`LocalController`] with `--zones` zones (HVAC + light
/// each), fronts its REST router with the `imcf-net` threaded server, and
/// serves until `--duration-secs` elapses (0 = until stdin reaches EOF or
/// a line saying `quit`), then shuts down gracefully, draining in-flight
/// requests. A `--burst` of 0 leaves the edge without a rate limit.
///
/// An in-process [`ObsEngine`] samples the global telemetry registry
/// every `--tick-ms` milliseconds (one sampler tick each), which powers
/// `GET /rest/query`, `GET /rest/alerts`, `imcf top` and `imcf doctor`.
/// `--demo-alert true` bumps `breaker.open` each tick so the
/// `breaker.open.storm` rule fires — used by the CI smoke run to assert
/// the alerting path end to end.
pub fn serve(parsed: &Parsed) -> Result<(), String> {
    let port: u16 = parsed.get("port");
    let zones: usize = parsed.get("zones");
    let duration_secs = parsed.get("duration-secs");
    let max_conns: usize = parsed.get("max-conns");
    let max_requests_per_conn: u32 = parsed.get("max-requests-per-conn");
    let burst = parsed.get("burst");
    let tick_ms = parsed.get("tick-ms");
    let demo_alert = parsed.flag("demo-alert");
    let rate_limit = (burst > 0).then_some(RateLimit {
        burst,
        refill_per_sec: parsed.get("refill-per-sec"),
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
        read_timeout: Duration::from_millis(parsed.get("read-timeout-ms")),
        write_timeout: Duration::from_millis(parsed.get("write-timeout-ms")),
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

pub const LOADGEN: Command = Command {
    usage: "loadgen",
    about: "closed-loop load run against `imcf serve`; reports RPS and p50/p99/p999 as JSON",
    options: &[&[
        opt("addr", Text("host:port")),
        opt("connections", Int(1, THREADS)).default("4"),
        opt("requests", Int(1, u64::MAX)).default("100"),
        opt("mix", Text("route,...")).default("items,item,post,firewall,metrics"),
        opt("zone", Text("zone")).default("zone0"),
        opt("timeout-ms", Int(1, u64::MAX)).default("10000"),
        opt("out", Text("path")).unset("loadgen.json in $IMCF_OUT or target/experiments"),
        opt("strict", Flag).default("false"),
    ]],
};

/// `imcf loadgen` — drive a running `imcf serve` with a closed loop and
/// report sustained RPS plus p50/p99/p999 latency. `--strict true` fails
/// the run on zero 2xx or any 5xx responses.
pub fn loadgen(parsed: &Parsed) -> Result<(), String> {
    let requests_per_conn = parsed.get("requests");
    let mix_names = parsed.text("mix");
    let config = LoadConfig {
        addr: parsed.text("addr").to_string(),
        connections: parsed.get("connections"),
        requests_per_conn,
        mix: loadgen::route_mix(mix_names, parsed.text("zone"))?,
        timeout: Duration::from_millis(parsed.get("timeout-ms")),
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

    let out_path =
        crate::write_report(parsed.maybe_text("out"), "loadgen.json", &report.to_json())?;
    println!("  report: {}", out_path.display());

    if parsed.flag("strict") {
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
