//! `imcf` — the command-line interface to the IoT Meta-Control Firewall.
//!
//! ```text
//! imcf validate <mrt-file>                      check a rule table for conflicts
//! imcf plan <mrt-file> [options]                plan a horizon under the table's budget
//! imcf simulate --dataset <flat|house|dorms>    run the paper's datasets end to end
//! imcf ecp --dataset <flat|house|dorms>         print a derived consumption profile
//! imcf workflow <wf-file> [env options]         dry-run a procedural workflow
//! ```
//!
//! Argument handling is deliberately dependency-free: `--key value` pairs
//! and positional file names, parsed by [`args::ArgSpec`].

mod args;
mod commands;
mod crash_commands;
mod net_commands;
mod obs_commands;

use std::process::ExitCode;

const USAGE: &str = "\
imcf — the IoT Meta-Control Firewall

USAGE:
  imcf validate <mrt-file>
  imcf plan <mrt-file> [--days N] [--climate mediterranean|continental]
                       [--seed N] [--k N] [--tau N] [--savings PCT]
                       [--jobs N]  (parallel slot planning; implies strict
                                    per-slot budgets — no carry-over)
  imcf simulate --dataset <flat|house|dorms> [--months N] [--seed N]
  imcf ecp --dataset <flat|house|dorms> [--seed N]
  imcf workflow <wf-file> [--temperature C] [--light L] [--hour H] [--month M]
  imcf schedule <loads-file> [--horizon H] [--headroom KWH]
  imcf chaos [--rate R] [--store-rate R] [--ticks N] [--seed N] [--zones N]
             [--outage-rate R] [--journal DIR]  (fault-injection soak run)
             [--trace PATH]  (record causal traces; write Chrome-trace JSON)
  imcf chaos --crash [--kills K] [--ticks N] [--seed N] [--zones N]
             [--checkpoint-every N] [--rate R] [--max-occurrence M]
             [--dir DIR] [--report PATH]
             (kill-at-crashpoint soak: K child kills + restarts must keep
              actuation exactly-once and recovery byte-identical)
  imcf trace explain <command-id> --input <trace.json>
             (render the causal chain behind a command in plain text)
  imcf serve [--port N] [--zones Z] [--duration-secs S] [--max-conns C]
             [--read-timeout-ms MS] [--write-timeout-ms MS]
             [--max-requests-per-conn R] [--burst B] [--refill-per-sec T]
             (HTTP/1.1 network plane over a demo home; port 0 = ephemeral)
  imcf loadgen --addr HOST:PORT [--connections K] [--requests M]
             [--mix items,post,metrics,...] [--zone Z] [--timeout-ms MS]
             [--out PATH] [--strict true]
             (closed-loop load run; writes a JSON report with RPS + p50/p99/p999)
  imcf top --addr HOST:PORT [--refresh-ms MS] [--iterations N] [--limit K]
             [--timeout-ms MS] [--plain true]
             (live dashboard: retained series sparklines + alert table;
              iterations 0 = refresh until interrupted)
  imcf doctor --addr HOST:PORT [--out PATH] [--timeout-ms MS]
             [--require-series a,b,...] [--require-alert NAME]
             (one-shot JSON debug bundle: health, metrics, series, alerts,
              traces; --require-* flags turn missing data into exit 1)

GLOBAL OPTIONS:
  --telemetry <path>    dump a JSON telemetry snapshot to <path> on exit

Run `imcf <command> --help` for details.";

fn main() -> ExitCode {
    // Piping output into `head` closes stdout early; exit quietly (the
    // shell convention is status 141) instead of panicking.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let broken_pipe = info
            .payload()
            .downcast_ref::<String>()
            .map(|m| m.contains("Broken pipe"))
            .unwrap_or(false);
        if broken_pipe {
            std::process::exit(141);
        }
        default_hook(info);
    }));

    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let telemetry_path = match extract_telemetry_flag(&mut argv) {
        Ok(path) => path,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let Some(command) = argv.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &argv[1..];
    let result = match command.as_str() {
        "validate" => commands::validate(rest),
        "plan" => commands::plan(rest),
        "simulate" => commands::simulate(rest),
        "ecp" => commands::ecp(rest),
        "workflow" => commands::workflow(rest),
        "schedule" => commands::schedule(rest),
        "chaos" => commands::chaos(rest),
        // Hidden: the crash soak's child incarnation (`chaos --crash`
        // respawns itself through this entry point).
        "chaos-child" => crash_commands::crash_child(rest),
        "trace" => commands::trace(rest),
        "serve" => net_commands::serve(rest),
        "loadgen" => net_commands::loadgen(rest),
        "top" => obs_commands::top(rest),
        "doctor" => obs_commands::doctor(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &telemetry_path {
        if let Err(e) = dump_telemetry(path) {
            eprintln!("error: cannot write telemetry snapshot to `{path}`: {e}");
            return ExitCode::FAILURE;
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Removes the global `--telemetry <path>` flag from argv (it may appear
/// anywhere) and returns the path, if given.
fn extract_telemetry_flag(argv: &mut Vec<String>) -> Result<Option<String>, String> {
    let Some(i) = argv.iter().position(|a| a == "--telemetry") else {
        return Ok(None);
    };
    if i + 1 >= argv.len() {
        return Err("option `--telemetry` needs a value".to_string());
    }
    let path = argv.remove(i + 1);
    argv.remove(i);
    Ok(Some(path))
}

/// Writes the global registry's JSON snapshot (`{"metrics": [...]}`).
fn dump_telemetry(path: &str) -> std::io::Result<()> {
    std::fs::write(path, imcf_telemetry::global().json_snapshot_string())
}
