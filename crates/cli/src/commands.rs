//! The CLI subcommands.

use crate::args::Kind::{Choice, Float, FloatBelow, Int, Text};
use crate::args::{opt, Command, Opt, Parsed, THREADS, U32};
use imcf_core::amortization::{AmortizationPlan, ApKind};
use imcf_core::calendar::{PaperCalendar, HOURS_PER_MONTH};
use imcf_core::candidate::PlanningSlot;
use imcf_core::ecp::Ecp;
use imcf_core::init::InitStrategy;
use imcf_core::planner::{EnergyPlanner, PlannerConfig};
use imcf_rules::conflict;
use imcf_rules::env::EnvSnapshot;
use imcf_rules::mrt::Mrt;
use imcf_rules::parse::parse_mrt;
use imcf_rules::workflow_parse::parse_workflow;
use imcf_sim::building::{Dataset, DatasetKind};
use imcf_sim::slots::{candidate, mr_ecp, HourTables, Pricing, SlotBuilder};
use imcf_traces::generator::{ClimateModel, TraceGenerator};
use imcf_traces::series::Trace;

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn load_mrt(path: &str) -> Result<Mrt, String> {
    parse_mrt(&read_file(path)?).map_err(|e| format!("{path}: {e}"))
}

/// `--dataset`: one of the paper's three datasets.
const DATASET: &[Opt] = &[opt("dataset", Choice(&["flat", "house", "dorms"]))];

/// The `--dataset` a command was given.
fn dataset_kind(parsed: &Parsed) -> DatasetKind {
    match parsed.text("dataset") {
        "flat" => DatasetKind::Flat,
        "house" => DatasetKind::House,
        _ => DatasetKind::Dorms,
    }
}

pub const VALIDATE: Command = Command {
    usage: "validate <mrt-file>",
    about: "parse a rule table and check it for conflicts",
    options: &[],
};

/// `imcf validate <mrt-file>` — parse and conflict-check a rule table.
pub fn validate(parsed: &Parsed) -> Result<(), String> {
    let path = parsed.positional(0);
    let mrt = load_mrt(path)?;
    println!(
        "{path}: {} rules ({} convenience, {} necessity, {} budget rows)",
        mrt.len(),
        mrt.droppable_rules().count(),
        mrt.necessity_rules().count(),
        mrt.budget_rules().count(),
    );
    // Worst-case pricing for the feasibility check: the flat's devices
    // holding each setpoint against a 15 °C gap.
    let pricing = Pricing::flat();
    let conflicts = conflict::analyze(&mrt, |rule| {
        let v = rule.action.desired_value();
        pricing.kwh(&rule.action, v - 15.0, 0.0)
    });
    if conflicts.is_empty() {
        println!("no conflicts detected");
        return Ok(());
    }
    for c in &conflicts {
        println!("[{:?}] {c}", c.severity());
    }
    if conflicts
        .iter()
        .any(|c| c.severity() == conflict::Severity::Error)
    {
        return Err("table has unsatisfiable constraints".to_string());
    }
    Ok(())
}

/// One slot per hour of the one-zone `trace`, whose zone runs `mrt` priced
/// on the flat's devices, under an EAF plan of `budget_kwh`.
fn build_slots(mrt: &Mrt, trace: &Trace, budget_kwh: f64, savings: f64) -> Vec<PlanningSlot> {
    let pricing = Pricing::flat();
    let tables = [HourTables::compile(mrt)];
    let horizon = trace.horizon_hours();
    let ecp = mr_ecp(trace, &tables, &pricing);
    let plan = AmortizationPlan::new(ApKind::Eaf, ecp, budget_kwh, horizon, trace.calendar)
        .with_savings(savings);
    (0..horizon)
        .map(|h| {
            let hour_of_day = trace.calendar.hour_of_day(h);
            let mut candidates = Vec::new();
            for (zone, table) in trace.zones.iter().zip(&tables) {
                let (temp, light) = (zone.temperature.at(h), zone.light.at(h));
                candidates.extend(
                    table
                        .at(hour_of_day)
                        .iter()
                        .filter_map(|rule| candidate(rule, &zone.zone, temp, light, &pricing)),
                );
            }
            PlanningSlot::new(h, candidates, plan.hourly_budget(h))
        })
        .collect()
}

pub const PLAN: Command = Command {
    usage: "plan <mrt-file>",
    about: "plan a horizon under the table's budget row",
    options: &[&[
        opt("days", Int(1, u64::MAX)).unset("the budget row's horizon, at most 31"),
        opt("climate", Choice(&["mediterranean", "continental"])).default("mediterranean"),
        opt("seed", Int(0, u64::MAX)).default("0"),
        opt("k", Int(1, u64::MAX)).default("2"),
        opt("tau", Int(0, U32)).default("100"),
        opt("savings", FloatBelow(0.0, 100.0)).default("0"),
        opt("jobs", Int(1, THREADS)).unset("one planner that carries unspent budget over"),
    ]],
};

/// `imcf plan <mrt-file>` — plan a horizon under the table's budget row.
pub fn plan(parsed: &Parsed) -> Result<(), String> {
    let path = parsed.positional(0);
    let mrt = load_mrt(path)?;
    let (budget, budget_horizon) = mrt
        .tightest_budget()
        .ok_or("the table has no `Set kWh Limit` row to plan against")?;

    let budget_days = (budget_horizon / 24).clamp(1, 31);
    let days = parsed.maybe("days").unwrap_or(budget_days);
    let horizon = days.saturating_mul(24).min(budget_horizon);
    let seed = parsed.get("seed");
    let savings = parsed.get::<f64>("savings") / 100.0;

    let calendar = PaperCalendar::january_start();
    let generator = TraceGenerator {
        climate: match parsed.text("climate") {
            "mediterranean" => ClimateModel::mediterranean(),
            _ => ClimateModel::continental(),
        },
        calendar,
        horizon_hours: horizon,
        seed,
    };
    let trace = Trace::new(calendar, vec![generator.generate_zone("home")]);

    // Budget share proportional to the planned horizon.
    let budget_share = budget * horizon as f64 / budget_horizon as f64;
    let slots = build_slots(&mrt, &trace, budget_share, savings);

    let planner = EnergyPlanner::from_config(PlannerConfig {
        k: parsed.get("k"),
        tau_max: parsed.get("tau"),
        init: InitStrategy::AllOnes,
        seed,
    });
    // `--jobs` selects the deterministic parallel path, which plans each
    // slot independently and therefore cannot bank unspent budget between
    // hours — equivalent to `without_carry_over()`. Without the flag the
    // legacy sequential planner (with carry-over) runs unchanged.
    let report = match parsed.maybe("jobs") {
        Some(n) => {
            println!(
                "note: --jobs plans slots independently (strict per-slot budgets, no carry-over)"
            );
            planner.without_carry_over().plan_slots_parallel(slots, n)
        }
        None => planner.plan(slots),
    };
    println!(
        "planned {horizon} hour(s) ({:.1} day(s)) under a {budget_share:.1} kWh share of the {budget:.0} kWh budget",
        horizon as f64 / 24.0
    );
    println!("  F_CE : {:.2} %", report.fce_percent());
    println!("  F_E  : {:.1} kWh", report.fe_kwh());
    println!("  F_T  : {:.3} s", report.ft_seconds());
    println!(
        "  rules: {} instances, {} dropped",
        report.instances, report.dropped_instances
    );
    let table = report.owners.table();
    if table.len() > 1 || table.first().map(|(o, _)| !o.is_empty()).unwrap_or(false) {
        println!("  per-owner convenience error:");
        for (owner, fce) in table {
            let name = if owner.is_empty() {
                "(household)"
            } else {
                &owner
            };
            println!("    {name:<12} {fce:.3} %");
        }
    }
    Ok(())
}

pub const SIMULATE: Command = Command {
    usage: "simulate",
    about: "run the paper's datasets end to end: NR, IFTTT, EP and MR",
    options: &[
        DATASET,
        &[
            opt("months", Int(1, 36)).default("36"),
            opt("seed", Int(0, u64::MAX)).default("0"),
        ],
    ],
};

/// `imcf simulate --dataset <kind>` — run the paper's datasets.
pub fn simulate(parsed: &Parsed) -> Result<(), String> {
    let kind = dataset_kind(parsed);
    let months: u64 = parsed.get("months");
    let seed = parsed.get("seed");

    let dataset = Dataset::build(kind, seed);
    let ecp = dataset.derive_mr_ecp();
    let plan = AmortizationPlan::new(
        ApKind::Eaf,
        ecp,
        dataset.budget_kwh,
        dataset.horizon_hours,
        dataset.calendar(),
    );
    let builder = SlotBuilder::new(&dataset, &plan);
    let horizon = months * HOURS_PER_MONTH;

    println!(
        "{} — {} zones, {} rules, budget {:.0} kWh, {} month(s)",
        kind.label(),
        dataset.trace.zone_count(),
        dataset.total_rules(),
        dataset.budget_kwh,
        months
    );
    let nr = imcf_core::baselines::run_nr(builder.range(0..horizon));
    let ifttt = imcf_core::baselines::run_ifttt(builder.range(0..horizon));
    let ep = EnergyPlanner::from_config(PlannerConfig {
        seed,
        ..Default::default()
    })
    .plan(builder.range(0..horizon));
    let mr = imcf_core::baselines::run_mr(builder.range(0..horizon));
    println!(
        "{:<6} {:>10} {:>14} {:>10}",
        "method", "F_CE (%)", "F_E (kWh)", "F_T (s)"
    );
    for (name, r) in [("NR", &nr), ("IFTTT", &ifttt), ("EP", &ep), ("MR", &mr)] {
        println!(
            "{:<6} {:>10.2} {:>14.1} {:>10.3}",
            name,
            r.fce_percent(),
            r.fe_kwh(),
            r.ft_seconds()
        );
    }
    Ok(())
}

pub const ECP: Command = Command {
    usage: "ecp",
    about: "print a dataset's derived energy consumption profile",
    options: &[DATASET, &[opt("seed", Int(0, u64::MAX)).default("0")]],
};

/// `imcf ecp --dataset <kind>` — print the derived consumption profile.
pub fn ecp(parsed: &Parsed) -> Result<(), String> {
    let kind = dataset_kind(parsed);
    let seed: u64 = parsed.get("seed");
    let dataset = Dataset::build(kind, seed);
    let derived: Ecp = dataset.derive_mr_ecp();
    println!("derived ECP for {} (seed {seed}):", kind.label());
    println!("{:<6} {:>12} {:>12}", "month", "kWh/month", "kWh/hour");
    for m in 1..=12u32 {
        println!(
            "{:<6} {:>12.2} {:>12.3}",
            m,
            derived.month_kwh(m),
            derived.hourly_kwh(m)
        );
    }
    println!("{:<6} {:>12.2}", "total", derived.total_kwh());
    Ok(())
}

pub const WORKFLOW: Command = Command {
    usage: "workflow <wf-file>",
    about: "dry-run a procedural workflow against one environment",
    options: &[&[
        opt("temperature", Float(f64::NEG_INFINITY, f64::INFINITY)).default("15"),
        opt("light", Float(f64::NEG_INFINITY, f64::INFINITY)).default("0"),
        opt("hour", Int(0, 23)).default("0"),
        opt("month", Int(1, 12)).default("1"),
    ]],
};

/// `imcf workflow <wf-file>` — parse and dry-run a workflow program.
pub fn workflow(parsed: &Parsed) -> Result<(), String> {
    let path = parsed.positional(0);
    let wf = parse_workflow(&read_file(path)?).map_err(|e| format!("{path}: {e}"))?;

    let env = EnvSnapshot::neutral()
        .with_month(parsed.get("month"))
        .with_hour(parsed.get("hour"))
        .with_temperature(parsed.get("temperature"))
        .with_light(parsed.get("light"));
    let outcome = wf.run(&env).map_err(|e| format!("workflow failed: {e}"))?;
    println!(
        "workflow `{}` against T={}°C, light={}, {:02}:00:",
        wf.name, env.temperature, env.light_level, env.hour
    );
    if outcome.actions.is_empty() {
        println!("  (no actuations)");
    }
    for a in &outcome.actions {
        println!("  actuate: {a}");
    }
    println!("  waited {} simulated minutes", outcome.waited_minutes);
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::tests::imcf;
    use std::io::Write;

    fn write_temp(content: &str, ext: &str) -> (tempfile::TempDir, String) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join(format!("input.{ext}"));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(content.as_bytes()).unwrap();
        (dir, path.to_string_lossy().into_owned())
    }

    const GOOD_MRT: &str = "\
Night Heat | 01:00 - 07:00 | Set Temperature | 25 | owner=father
Morning Lights | 04:00 - 09:00 | Set Light | 40 | owner=mother
Budget | for 1 month | Set kWh Limit | 400
";

    #[test]
    fn validate_accepts_clean_table() {
        let (_dir, path) = write_temp(GOOD_MRT, "mrt");
        imcf(&["validate", &path]).unwrap();
    }

    #[test]
    fn validate_fails_on_infeasible_budget() {
        let text = "\
Freezer | 00:00 - 24:00 | Set Temperature | 4 | necessity
Budget | for 1 month | Set kWh Limit | 1
";
        let (_dir, path) = write_temp(text, "mrt");
        let err = imcf(&["validate", &path]).unwrap_err();
        assert!(err.contains("unsatisfiable"));
    }

    #[test]
    fn validate_rejects_bad_file() {
        let (_dir, path) = write_temp("not a rule table\n", "mrt");
        assert!(imcf(&["validate", &path]).is_err());
        assert!(imcf(&["validate", "/nonexistent/file.mrt"]).is_err());
    }

    #[test]
    fn plan_runs_a_week() {
        let (_dir, path) = write_temp(GOOD_MRT, "mrt");
        imcf(&["plan", &path, "--days", "7", "--seed", "3", "--tau", "40"]).unwrap();
    }

    #[test]
    fn plan_requires_budget_row() {
        let (_dir, path) = write_temp("A | 01:00 - 02:00 | Set Light | 10\n", "mrt");
        let err = imcf(&["plan", &path]).unwrap_err();
        assert!(err.contains("no `Set kWh Limit`"));
    }

    #[test]
    fn plan_validates_savings_range() {
        let (_dir, path) = write_temp(GOOD_MRT, "mrt");
        let err = imcf(&["plan", &path, "--savings", "150"]).unwrap_err();
        assert_eq!(
            err,
            "`--savings` expects a finite number in 0..100, found `150`"
        );
    }

    #[test]
    fn simulate_needs_known_dataset() {
        let err = imcf(&["simulate", "--dataset", "castle"]).unwrap_err();
        assert_eq!(
            err,
            "`--dataset` expects one of flat|house|dorms, found `castle`"
        );
        let err = imcf(&["simulate"]).unwrap_err();
        assert_eq!(
            err,
            "option `--dataset` is required: one of flat|house|dorms"
        );
    }

    #[test]
    fn simulate_flat_one_month() {
        imcf(&["simulate", "--dataset", "flat", "--months", "1"]).unwrap();
    }

    #[test]
    fn ecp_prints_profile() {
        imcf(&["ecp", "--dataset", "flat"]).unwrap();
    }

    #[test]
    fn workflow_dry_runs() {
        let wf =
            "workflow \"w\"\n  if env.temperature < 18\n    actuate temperature 21\n  end\nend\n";
        let (_dir, path) = write_temp(wf, "wf");
        imcf(&["workflow", &path, "--temperature", "12"]).unwrap();
        imcf(&["workflow", &path, "--temperature", "25"]).unwrap();
    }

    #[test]
    fn workflow_reports_parse_errors() {
        let (_dir, path) = write_temp("workflow \"w\"\n  bogus\nend\n", "wf");
        let err = imcf(&["workflow", &path]).unwrap_err();
        assert!(err.contains("line 2"));
    }
}

pub const SCHEDULE: Command = Command {
    usage: "schedule <loads-file>",
    about: "place deferrable loads into the cheapest hours with headroom",
    options: &[&[
        opt("horizon", Int(1, 8_784)).default("48"),
        opt("headroom", Float(0.0, f64::INFINITY)).default("4"),
    ]],
};

/// `imcf schedule <loads-file>` — place deferrable loads into green hours.
///
/// Load file format (one load per line):
/// ```text
/// # name | kWh per hour | duration hours | release..deadline
/// EV charge | 3.7 | 3 | 0..30
/// dishwasher | 1.1 | 1 | 8..22
/// ```
pub fn schedule(parsed: &Parsed) -> Result<(), String> {
    use imcf_core::deferrable::{schedule_loads, DeferrableLoad, ScheduleContext};

    let path = parsed.positional(0);
    let horizon: u64 = parsed.get("horizon");
    let headroom: f64 = parsed.get("headroom");

    let mut loads = Vec::new();
    for (idx, raw) in read_file(path)?.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('|').map(str::trim).collect();
        if fields.len() != 4 {
            return Err(format!(
                "{path}:{}: expected `name | kwh/h | hours | release..deadline`",
                idx + 1
            ));
        }
        let kwh = fields[1]
            .parse::<f64>()
            .ok()
            .filter(|kwh| kwh.is_finite() && *kwh >= 0.0)
            .ok_or_else(|| format!("{path}:{}: bad kWh `{}`", idx + 1, fields[1]))?;
        let hours: u64 = fields[2]
            .parse()
            .map_err(|_| format!("{path}:{}: bad duration `{}`", idx + 1, fields[2]))?;
        let (a, b) = fields[3]
            .split_once("..")
            .ok_or_else(|| format!("{path}:{}: bad window `{}`", idx + 1, fields[3]))?;
        let release: u64 = a
            .parse()
            .map_err(|_| format!("{path}:{}: bad release `{a}`", idx + 1))?;
        let deadline: u64 = b
            .parse()
            .map_err(|_| format!("{path}:{}: bad deadline `{b}`", idx + 1))?;
        if hours == 0 || release.checked_add(hours).is_none_or(|end| end > deadline) {
            return Err(format!(
                "{path}:{}: window {release}..{deadline} cannot fit {hours} h",
                idx + 1
            ));
        }
        loads.push(DeferrableLoad::new(
            fields[0], kwh, hours, release, deadline,
        ));
    }
    if loads.is_empty() {
        return Err("no loads in file".to_string());
    }

    // Night-cheap CO₂ cost curve, uniform headroom.
    let cost: Vec<f64> = (0..horizon)
        .map(|h| match h % 24 {
            0..=5 => 0.15,
            18..=21 => 0.9,
            _ => 0.45,
        })
        .collect();
    let mut ctx = ScheduleContext {
        headroom_kwh: vec![headroom; horizon as usize],
        cost_per_kwh: cost,
    };
    let placements = schedule_loads(&mut ctx, &loads).map_err(|e| e.to_string())?;
    println!(
        "{:<24} {:>8} {:>8} {:>10}",
        "load", "start", "hours", "cost"
    );
    for (load, p) in loads.iter().zip(&placements) {
        println!(
            "{:<24} {:>5}:00 {:>8} {:>10.2}",
            p.name,
            p.start % 24,
            load.duration_hours,
            p.cost
        );
    }
    Ok(())
}

#[cfg(test)]
mod schedule_tests {
    use crate::tests::imcf;
    use std::io::Write;

    fn write_temp(content: &str) -> (tempfile::TempDir, String) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("loads.txt");
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(content.as_bytes()).unwrap();
        (dir, path.to_string_lossy().into_owned())
    }

    #[test]
    fn schedules_a_load_file() {
        let (_d, path) =
            write_temp("# loads\nEV | 3.0 | 3 | 0..30\ndishwasher | 1.1 | 1 | 8..22\n");
        imcf(&["schedule", &path]).unwrap();
    }

    #[test]
    fn rejects_malformed_rows() {
        for (rows, wanted) in [
            ("just nonsense\n", "expected"),
            ("EV | 3.0 | 9 | 0..5\n", "cannot fit"),
            ("# only comments\n", "no loads"),
            ("ev | NaN | 3 | 0..24\n", ":1: bad kWh `NaN`"),
            ("# loads\nev | -5 | 3 | 0..24\n", ":2: bad kWh `-5`"),
            (
                "ev | 2 | 18446744073709551615 | 1..24\n",
                ":1: window 1..24 cannot fit 18446744073709551615 h",
            ),
        ] {
            let (_d, path) = write_temp(rows);
            let err = imcf(&["schedule", &path]).unwrap_err();
            assert!(err.contains(wanted), "{rows}: {err}");
        }
    }

    #[test]
    fn infeasible_headroom_reports() {
        let (_d, path) = write_temp("EV | 9.0 | 2 | 0..10\n");
        let err = imcf(&["schedule", &path, "--headroom", "1.0"]).unwrap_err();
        assert!(err.contains("EV"));
    }
}

pub const CHAOS: Command = Command {
    usage: "chaos",
    about: "run one seeded fault-injection soak and print its outcome as JSON",
    options: &[&[
        opt("rate", Float(0.0, 1.0)).default("0.1"),
        opt("store-rate", Float(0.0, 1.0)).unset("half of --rate"),
        opt("ticks", Int(1, u64::MAX)).default("168"),
        opt("seed", Int(0, u64::MAX)).default("0"),
        opt("zones", Int(1, u64::MAX)).default("2"),
        opt("outage-rate", Float(0.0, f64::INFINITY)).default("0"),
        opt("journal", Text("dir")).unset("the command journal is not kept"),
        opt("trace", Text("path")).unset("no causal traces are recorded"),
    ]],
};

/// `imcf chaos` — run a deterministic fault-injection soak and print the
/// outcome as JSON. The same engine backs the `chaos_soak` bench; this
/// entry point runs a single cell so operators can probe survivability
/// at a chosen fault rate (and optionally keep the command journal in a
/// fresh directory to inspect the torn-tail recovery path). The outcome
/// is printed either way; the command fails when it carries an error,
/// such as a journal directory that cannot be opened or already holds a
/// journal. `imcf chaos --crash` is the kill-at-crashpoint soak instead
/// (see `crash_commands`).
pub fn chaos(parsed: &Parsed) -> Result<(), String> {
    let rate: f64 = parsed.get("rate");
    let seed = parsed.get("seed");
    let journal = parsed.maybe_text("journal").map(std::path::PathBuf::from);
    let trace_path = parsed.maybe_text("trace").map(std::path::PathBuf::from);

    // Arm the flight recorder before the soak so every tick's causal
    // record is captured; the panic hook dumps mid-flight traces even if
    // the run dies.
    if trace_path.is_some() {
        imcf_telemetry::trace::recorder().set_enabled(true);
        imcf_telemetry::trace::install_panic_hook();
    }

    let store_rate = parsed.maybe("store-rate").unwrap_or(rate / 2.0);
    let config = imcf_controller::SoakConfig {
        seed,
        ticks: parsed.get("ticks"),
        zones: parsed.get("zones"),
        plan: imcf_chaos::FaultPlan::commands(seed, rate).with_store_faults(store_rate),
        outage_rate_per_week: parsed.get("outage-rate"),
        ..imcf_controller::SoakConfig::default()
    };
    let outcome = imcf_controller::run_soak(&config, journal.as_deref());
    let json = serde_json::to_string_pretty(&outcome).map_err(|e| e.to_string())?;
    println!("{json}");

    if let Some(path) = &trace_path {
        let recorder = imcf_telemetry::trace::recorder();
        std::fs::write(path, recorder.chrome_trace_json())
            .map_err(|e| format!("cannot write trace to `{}`: {e}", path.display()))?;
        eprintln!(
            "trace: wrote {} retained trace tree(s) to {} \
             (load in Perfetto, or run `imcf trace explain <thing-uid> --input {}`)",
            recorder.summaries().len(),
            path.display(),
            path.display()
        );
    }
    outcome.error.map_or(Ok(()), Err)
}

/// One parsed Chrome-trace event, borrowed from the JSON document.
struct TraceEvent<'a> {
    name: &'a str,
    ph: &'a str,
    ts: f64,
    trace: &'a str,
    span: Option<&'a str>,
    parent: Option<&'a str>,
    attrs: Vec<(&'a str, &'a str)>,
}

fn parse_trace_events(doc: &serde_json::Value) -> Result<Vec<TraceEvent<'_>>, String> {
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("not a Chrome-trace file: no `traceEvents` array")?;
    let mut out = Vec::with_capacity(events.len());
    for event in events {
        let field = |key: &str| event.get(key).and_then(|v| v.as_str());
        let Some(args) = event.get("args") else {
            continue;
        };
        let arg = |key: &str| args.get(key).and_then(|v| v.as_str());
        let (Some(name), Some(ph), Some(trace)) = (field("name"), field("ph"), arg("trace")) else {
            continue;
        };
        let ts = match event.get("ts") {
            Some(serde_json::Value::Number(n)) => n.as_f64(),
            _ => 0.0,
        };
        let attrs = args
            .as_object()
            .map(|fields| {
                fields
                    .iter()
                    .filter(|(k, _)| !matches!(k.as_str(), "trace" | "span" | "parent"))
                    .filter_map(|(k, v)| v.as_str().map(|s| (k.as_str(), s)))
                    .collect()
            })
            .unwrap_or_default();
        out.push(TraceEvent {
            name,
            ph,
            ts,
            trace,
            span: arg("span"),
            parent: arg("parent"),
            attrs,
        });
    }
    Ok(out)
}

fn render_attrs(attrs: &[(&str, &str)]) -> String {
    attrs
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

pub const TRACE_EXPLAIN: Command = Command {
    usage: "trace explain <command-id>",
    about: "render the causal chain behind a command (a thing UID such as imcf:hvac:zone0)",
    options: &[&[opt("input", Text("trace.json"))]],
};

/// `imcf trace explain <command-id> --input <trace.json>`: finds every
/// event referencing the command (a thing UID like `imcf:hvac:zone0`, or
/// any attribute value) in a Chrome-trace JSON file (`imcf chaos --trace
/// <path>`, a flight-recorder dump, or `GET /rest/traces?id=<trace>`) and
/// prints its causal chain — root span down to the referencing event — in
/// plain text.
pub fn trace_explain(parsed: &Parsed) -> Result<(), String> {
    let needle = parsed.positional(0);
    let input = parsed.text("input");
    let text = read_file(input)?;
    let doc: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{input}: invalid JSON: {e}"))?;
    let events = parse_trace_events(&doc)?;

    let matches: Vec<&TraceEvent<'_>> = events
        .iter()
        .filter(|e| e.attrs.iter().any(|(_, v)| v.contains(needle)))
        .collect();
    if matches.is_empty() {
        return Err(format!(
            "no events referencing `{needle}` in `{input}` \
             ({} events scanned)",
            events.len()
        ));
    }

    println!(
        "{} event(s) referencing `{needle}` in `{input}`:\n",
        matches.len()
    );
    for hit in matches {
        // The causal chain: walk parent links from the referencing event
        // (or its enclosing span) up to the trace root, then print
        // root-first.
        let spans_of_trace = |span: Option<&str>| -> Option<&TraceEvent<'_>> {
            let id = span?;
            events
                .iter()
                .find(|e| e.trace == hit.trace && e.ph == "X" && e.span == Some(id))
        };
        let mut chain: Vec<&TraceEvent<'_>> = Vec::new();
        let mut cursor = hit.span;
        let mut hops = 0;
        while let Some(span_event) = spans_of_trace(cursor) {
            // A malformed file could cycle; spans nest at most as deep as
            // the event count.
            hops += 1;
            if hops > events.len() {
                break;
            }
            chain.push(span_event);
            cursor = span_event.parent;
        }
        chain.reverse();

        let label = chain
            .first()
            .and_then(|root| root.attrs.iter().find(|(k, _)| *k == "label"))
            .map(|(_, v)| *v)
            .unwrap_or("?");
        println!("trace {} ({label}):", hit.trace);
        let mut depth = 0;
        for span_event in &chain {
            let is_hit = span_event.span == hit.span && hit.ph == "X";
            println!(
                "  {:indent$}{}{} [t{}] {}{}",
                "",
                if depth == 0 { "" } else { "\u{2514} " },
                span_event.name,
                span_event.ts,
                render_attrs(&span_event.attrs),
                if is_hit { "   <== match" } else { "" },
                indent = depth * 2
            );
            depth += 1;
        }
        if hit.ph != "X" {
            println!(
                "  {:indent$}* {} [t{}] {}   <== match",
                "",
                hit.name,
                hit.ts,
                render_attrs(&hit.attrs),
                indent = depth * 2
            );
        }
        println!();
    }
    Ok(())
}

#[cfg(test)]
mod chaos_tests {
    use crate::tests::imcf;

    #[test]
    fn runs_a_default_soak() {
        imcf(&["chaos", "--ticks", "24", "--zones", "1"]).unwrap();
    }

    #[test]
    fn rejects_out_of_range_rates() {
        assert_eq!(
            imcf(&["chaos", "--rate", "1.5"]).unwrap_err(),
            "`--rate` expects a finite number in 0..=1, found `1.5`"
        );
        assert_eq!(
            imcf(&["chaos", "--ticks", "0"]).unwrap_err(),
            "`--ticks` expects an integer >= 1, found `0`"
        );
    }

    /// End-to-end: `chaos --trace` writes a Chrome-trace file that
    /// `trace explain` can render a causal chain from.
    #[test]
    fn chaos_trace_round_trips_through_explain() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("chaos.trace.json");
        let path_str = path.to_str().unwrap().to_string();
        imcf(&[
            "chaos", "--ticks", "12", "--zones", "1", "--rate", "1.0", "--trace", &path_str,
        ])
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("traceEvents"), "Chrome-trace envelope");
        assert!(
            text.contains("imcf:hvac:zone0"),
            "names the device:\n{text}"
        );

        imcf(&["trace", "explain", "imcf:hvac:zone0", "--input", &path_str]).unwrap();

        let err = imcf(&["trace", "explain", "no:such:thing", "--input", &path_str]).unwrap_err();
        assert!(err.contains("no events referencing"), "err: {err}");
    }

    #[test]
    fn trace_usage_errors() {
        assert!(imcf(&["trace"])
            .unwrap_err()
            .starts_with("unknown command `trace`"));
        assert!(imcf(&["trace", "frobnicate"])
            .unwrap_err()
            .contains("imcf trace explain <command-id>"));
        assert_eq!(
            imcf(&["trace", "explain"]).unwrap_err(),
            "usage: imcf trace explain <command-id> (found 0 positional args)"
        );
        assert_eq!(
            imcf(&["trace", "explain", "imcf:hvac:zone0"]).unwrap_err(),
            "option `--input` is required: <trace.json>"
        );
    }

    #[test]
    fn writes_a_journal_when_asked() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("chaos");
        imcf(&[
            "chaos",
            "--ticks",
            "24",
            "--zones",
            "1",
            "--rate",
            "0.2",
            "--journal",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let segments = imcf_store::segment::segment_files(&path, "command_journal").unwrap();
        assert!(!segments.is_empty());
        let audit = imcf_controller::audit_journal(&path).unwrap();
        assert!(audit.rows > 0, "{audit:?}");
        assert!(!audit.delivered_ids.is_empty(), "{audit:?}");
        assert_eq!(audit.duplicate_deliveries, 0, "{audit:?}");
    }
}
