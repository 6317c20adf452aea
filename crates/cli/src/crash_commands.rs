//! `imcf chaos --crash` — the kill-at-crashpoint soak.
//!
//! The parent process runs the recoverable controller workload in a child
//! process (`imcf chaos-child`, a hidden subcommand), arms one seeded
//! crashpoint per cycle through the `IMCF_CRASHPOINT` environment
//! variable, and lets the child die mid-write. After every kill it
//! restarts the child on the same store directory and audits the command
//! journal; after every completed run it compares the recovered final
//! state against an uncrashed in-process reference at the same seed.
//!
//! Invariants asserted across the whole soak (the run fails otherwise):
//!
//! * **No double actuation** — the journal never holds two delivered
//!   records for one command id, no matter where the kill landed.
//! * **No lost ack** — a command id seen as delivered in any audit is
//!   still delivered in every later audit of the same run.
//! * **Byte-identical recovery** — a run that was killed and restored any
//!   number of times ends in a [`StateDigest`] that serializes to the
//!   same bytes as an uncrashed run at the same seed.
//!
//! [`StateDigest`]: imcf_controller::StateDigest

use crate::args::Kind::{Float, Int, Text};
use crate::args::{opt, Command, Opt, Parsed};
use imcf_chaos::crashpoint::{self, Crashpoint};
use imcf_chaos::FaultPlan;
use imcf_controller::{
    audit_journal, open_or_restore, run_complete, run_recoverable, state_digest, zone_names,
    RecoveryConfig, StateDigest,
};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Stdio;

/// The workload options the crash parent passes to every child: one
/// declaration, so that the two read the same defaults and domains.
const WORKLOAD: &[Opt] = &[
    opt("ticks", Int(1, u64::MAX)).default("72"),
    opt("zones", Int(1, u64::MAX)).default("2"),
    opt("checkpoint-every", Int(0, u64::MAX)).default("8"),
    opt("rate", Float(0.0, 1.0)).default("0.2"),
    opt("seed", Int(0, u64::MAX)).default("1"),
];

pub const CRASH: Command = Command {
    usage: "chaos --crash",
    about: "K kills at seeded crashpoints: actuation stays exactly-once, recovery byte-identical",
    options: &[
        WORKLOAD,
        &[
            opt("kills", Int(1, u64::MAX)).default("50"),
            opt("max-occurrence", Int(1, u64::MAX)).default("12"),
            opt("dir", Text("dir")).unset("a fresh directory in the system temp dir"),
            opt("report", Text("path")).unset("crash_soak.json in $IMCF_OUT or target/experiments"),
        ],
    ],
};

pub const CHILD: Command = Command {
    usage: "chaos-child",
    about: "one child incarnation of `chaos --crash`, on the store in --dir",
    options: &[WORKLOAD, &[opt("dir", Text("dir"))]],
};

/// The recoverable-run config for one run seed, from the [`WORKLOAD`]
/// options. Parent and child build their configs through this single
/// constructor so the reference run, the restored runs, and the digest
/// checks all describe the same workload.
fn recovery_config(seed: u64, parsed: &Parsed) -> RecoveryConfig {
    RecoveryConfig {
        seed,
        ticks: parsed.get("ticks"),
        zones: parsed.get("zones"),
        checkpoint_every: parsed.get("checkpoint-every"),
        plan: FaultPlan::commands(seed, parsed.get("rate")),
        ..RecoveryConfig::default()
    }
}

/// The seed of the `index`-th run in a soak (runs after the first start
/// fresh once the previous run completed). Golden-ratio stride keeps the
/// derived seeds well separated while staying pure in `(base, index)`.
fn run_seed(base: u64, index: u64) -> u64 {
    base.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Serialized digest bytes — the comparison unit for "byte-identical".
fn digest_bytes(digest: &StateDigest) -> Result<String, String> {
    serde_json::to_string(digest).map_err(|e| format!("cannot serialize digest: {e}"))
}

/// The final-state digest of the (completed) store in `dir`, computed by
/// restoring from the terminal checkpoint and replaying the journal —
/// i.e. through the same recovery machinery the soak is testing.
fn digest_of_store(config: &RecoveryConfig, dir: &Path) -> Result<StateDigest, String> {
    let opened = open_or_restore(config, dir)
        .map_err(|e| format!("cannot reopen completed store `{}`: {e}", dir.display()))?;
    Ok(state_digest(
        &opened.controller,
        &zone_names(config.zones),
        config.ticks,
    ))
}

/// Runs the workload uncrashed, in-process, in a scratch directory, and
/// returns its digest — the byte-exact reference for a crashed run at the
/// same seed.
fn reference_digest(config: &RecoveryConfig, scratch: &Path) -> Result<StateDigest, String> {
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch)
        .map_err(|e| format!("cannot create reference dir `{}`: {e}", scratch.display()))?;
    let outcome = run_recoverable(config, scratch)
        .map_err(|e| format!("uncrashed reference run failed: {e}"))?;
    let _ = std::fs::remove_dir_all(scratch);
    Ok(outcome.digest)
}

fn wipe_and_create(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create soak dir `{}`: {e}", dir.display()))
}

/// The JSON invariant report `imcf chaos --crash` writes.
#[derive(Debug, Serialize)]
struct CrashSoakReport {
    seed: u64,
    ticks: u64,
    zones: usize,
    checkpoint_every: u64,
    fault_rate: f64,
    max_occurrence: u64,
    /// Kill/restart cycles asked for and observed.
    kills_target: u64,
    kills: u64,
    /// Child spawns (kills + runs that outran their armed crashpoint).
    spawns: u64,
    /// Workload runs driven to their terminal checkpoint and verified.
    runs_completed: u64,
    /// Kills per crashpoint site.
    site_kills: BTreeMap<String, u64>,
    /// Invariant counters — all must be zero for the soak to pass.
    duplicate_deliveries: u64,
    lost_acks: u64,
    digest_mismatches: u64,
    /// Children that exited cleanly without a terminal checkpoint (a
    /// workload bug if ever nonzero).
    clean_exits_without_completion: u64,
    pass: bool,
}

/// Per-run audit state: every command id acknowledged so far must stay
/// delivered in every later audit of the same run.
#[derive(Default)]
struct RunLedger {
    acked: BTreeSet<u64>,
}

impl RunLedger {
    /// Folds one journal audit in; returns acks lost since the last one.
    fn observe(&mut self, delivered_ids: &[u64]) -> u64 {
        let now: BTreeSet<u64> = delivered_ids.iter().copied().collect();
        let lost = self.acked.difference(&now).count() as u64;
        self.acked = now;
        lost
    }
}

/// `imcf chaos --crash` — see the module docs.
pub fn crash_soak(parsed: &Parsed) -> Result<(), String> {
    let kills_target: u64 = parsed.get("kills");
    let seed: u64 = parsed.get("seed");
    let max_occurrence: u64 = parsed.get("max-occurrence");
    let rate: f64 = parsed.get("rate");
    let workload = recovery_config(seed, parsed);
    let fresh = std::env::temp_dir().join(format!("imcf-crash-soak-{}", std::process::id()));
    let workdir = parsed.maybe_text("dir").map_or(fresh, PathBuf::from);
    let scratch = workdir.join("reference");
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate the imcf binary to respawn: {e}"))?;

    println!(
        "crash soak: {kills_target} kill(s) over {} tick × {} zone runs \
         (seed {seed}, checkpoint every {}, fault rate {}, dir {})",
        workload.ticks,
        workload.zones,
        workload.checkpoint_every,
        rate,
        workdir.display()
    );
    wipe_and_create(&workdir)?;

    let mut report = CrashSoakReport {
        seed,
        ticks: workload.ticks,
        zones: workload.zones,
        checkpoint_every: workload.checkpoint_every,
        fault_rate: rate,
        max_occurrence,
        kills_target,
        kills: 0,
        spawns: 0,
        runs_completed: 0,
        site_kills: BTreeMap::new(),
        duplicate_deliveries: 0,
        lost_acks: 0,
        digest_mismatches: 0,
        clean_exits_without_completion: 0,
        pass: false,
    };
    let mut ledger = RunLedger::default();
    let mut run_index = 0u64;
    let mut cycle = 0u64;
    // A picked crashpoint whose occurrence the run never reaches cannot
    // kill, so some cycles complete the run instead. Well before this
    // bound the soak has either met its kill target or demonstrated that
    // nothing ever dies (also worth failing loudly on).
    let max_cycles = kills_target.saturating_mul(40).saturating_add(200);

    while report.kills < kills_target {
        cycle += 1;
        if cycle > max_cycles {
            return Err(format!(
                "crash soak stalled: {cycle} cycles produced only {} of {kills_target} kills",
                report.kills
            ));
        }
        let seed_now = run_seed(seed, run_index);
        let point = crashpoint::pick(seed, cycle, max_occurrence);
        let status = spawn_child(&exe, &workdir, seed_now, parsed, Some(&point))?;
        report.spawns += 1;

        let completed = run_complete(&workdir, workload.ticks)
            .map_err(|e| format!("cannot inspect soak store: {e}"))?;
        if !status.success() {
            // The armed crashpoint fired: audit the half-written store
            // exactly as the next incarnation will see it.
            report.kills += 1;
            *report.site_kills.entry(point.site.clone()).or_insert(0) += 1;
            check_journal(&workdir, &mut ledger, &mut report)?;
        } else if !completed {
            report.clean_exits_without_completion += 1;
        }
        if completed {
            finish_run(
                &workdir,
                &scratch,
                seed_now,
                parsed,
                &mut ledger,
                &mut report,
            )?;
            run_index += 1;
            wipe_and_create(&workdir)?;
        }
    }

    // The kill target is met mid-run: drive the final, many-times-killed
    // run to completion in-process (no crashpoint armed in the parent)
    // and hold it to the same digest invariant.
    if !run_complete(&workdir, workload.ticks)
        .map_err(|e| format!("cannot inspect soak store: {e}"))?
    {
        let seed_now = run_seed(seed, run_index);
        run_recoverable(&recovery_config(seed_now, parsed), &workdir)
            .map_err(|e| format!("final resume failed: {e}"))?;
        finish_run(
            &workdir,
            &scratch,
            seed_now,
            parsed,
            &mut ledger,
            &mut report,
        )?;
    }
    let _ = std::fs::remove_dir_all(&workdir);

    report.pass = report.kills >= kills_target
        && report.runs_completed > 0
        && report.duplicate_deliveries == 0
        && report.lost_acks == 0
        && report.digest_mismatches == 0
        && report.clean_exits_without_completion == 0;

    println!(
        "crash soak: {} kills over {} spawns, {} run(s) completed and verified",
        report.kills, report.spawns, report.runs_completed
    );
    for (site, kills) in &report.site_kills {
        println!("  {site}: {kills} kill(s)");
    }
    println!(
        "  invariants: duplicate deliveries {}, lost acks {}, digest mismatches {} — {}",
        report.duplicate_deliveries,
        report.lost_acks,
        report.digest_mismatches,
        if report.pass { "PASS" } else { "FAIL" }
    );

    let out_path = crate::write_report(parsed.maybe_text("report"), "crash_soak.json", &report)?;
    println!("  report: {}", out_path.display());

    if report.pass {
        Ok(())
    } else {
        Err(String::from(
            "crash soak failed: an exactly-once or determinism invariant was violated \
             (see the report JSON)",
        ))
    }
}

/// Spawns one child incarnation on `dir`, optionally with a crashpoint
/// armed, and waits for it. The child gets every [`WORKLOAD`] option as
/// the parent read it, with the run's own seed.
fn spawn_child(
    exe: &Path,
    dir: &Path,
    seed: u64,
    parsed: &Parsed,
    point: Option<&Crashpoint>,
) -> Result<std::process::ExitStatus, String> {
    let mut command = std::process::Command::new(exe);
    command.arg("chaos-child");
    for opt in WORKLOAD.iter().filter(|opt| opt.name != "seed") {
        command.args([format!("--{}", opt.name), parsed.text(opt.name).to_string()]);
    }
    command
        .args(["--seed".into(), seed.to_string()])
        .args(["--dir".into(), dir.display().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        // The parent's environment must not leak an armed crashpoint into
        // cycles that want the child to run free.
        .env_remove(crashpoint::CRASHPOINT_ENV);
    if let Some(point) = point {
        command.env(crashpoint::CRASHPOINT_ENV, point.env_value());
    }
    command
        .status()
        .map_err(|e| format!("cannot spawn `{} chaos-child`: {e}", exe.display()))
}

/// Audits the journal in `dir` and folds the exactly-once counters into
/// the report.
fn check_journal(
    dir: &Path,
    ledger: &mut RunLedger,
    report: &mut CrashSoakReport,
) -> Result<(), String> {
    let audit = audit_journal(dir).map_err(|e| format!("journal audit failed: {e}"))?;
    report.duplicate_deliveries += audit.duplicate_deliveries;
    report.lost_acks += ledger.observe(&audit.delivered_ids);
    Ok(())
}

/// A run reached its terminal checkpoint: audit it one last time, compare
/// its recovered digest against the uncrashed reference, and reset the
/// per-run ledger for the next run.
fn finish_run(
    dir: &Path,
    scratch: &Path,
    seed: u64,
    parsed: &Parsed,
    ledger: &mut RunLedger,
    report: &mut CrashSoakReport,
) -> Result<(), String> {
    check_journal(dir, ledger, report)?;
    let config = recovery_config(seed, parsed);
    let recovered = digest_bytes(&digest_of_store(&config, dir)?)?;
    let reference = digest_bytes(&reference_digest(&config, scratch)?)?;
    if recovered != reference {
        report.digest_mismatches += 1;
        eprintln!(
            "digest mismatch at seed {seed}:\n  crashed run: {recovered}\n  reference:   {reference}"
        );
    }
    report.runs_completed += 1;
    *ledger = RunLedger::default();
    Ok(())
}

/// `imcf chaos-child` — the hidden child mode of the crash soak: arm the
/// crashpoint named by `IMCF_CRASHPOINT` (if any), then run (or resume)
/// the recoverable workload on `--dir`. Prints the outcome JSON when it
/// survives to the terminal checkpoint.
pub fn crash_child(parsed: &Parsed) -> Result<(), String> {
    let armed = crashpoint::arm_from_env();
    let config = recovery_config(parsed.get("seed"), parsed);
    let outcome = run_recoverable(&config, Path::new(parsed.text("dir")))
        .map_err(|e| format!("recoverable run failed: {e}"))?;
    // Reaching this line means the armed occurrence was never hit (or no
    // crashpoint was armed): report the completed run.
    let _ = armed;
    let json = serde_json::to_string(&outcome).map_err(|e| e.to_string())?;
    println!("{json}");
    Ok(())
}
