//! End-to-end tests driving the compiled `imcf` binary.

use imcf_controller::SoakOutcome;
use std::io::Write;
use std::process::{Command, Stdio};

fn imcf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_imcf"))
}

fn write_temp(content: &str, name: &str) -> (tempfile::TempDir, String) {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    (dir, path.to_string_lossy().into_owned())
}

const MRT: &str = "\
Night Heat | 01:00 - 07:00 | Set Temperature | 25 | owner=father
Morning Lights | 04:00 - 09:00 | Set Light | 40 | owner=mother
Budget | for 1 month | Set kWh Limit | 400
";

#[test]
fn help_prints_usage() {
    let out = imcf().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("imcf validate"));
    assert!(text.contains("imcf plan"));
}

#[test]
fn no_args_fails_with_usage() {
    let out = imcf().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = imcf().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn validate_clean_table() {
    let (_dir, path) = write_temp(MRT, "family.mrt");
    let out = imcf().args(["validate", &path]).output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("3 rules"));
    assert!(text.contains("no conflicts"));
}

#[test]
fn validate_infeasible_table_exits_nonzero() {
    let (_dir, path) = write_temp(
        "Freezer | 00:00 - 24:00 | Set Temperature | 4 | necessity\nBudget | for 1 month | Set kWh Limit | 1\n",
        "bad.mrt",
    );
    let out = imcf().args(["validate", &path]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unsatisfiable"));
}

#[test]
fn plan_a_short_horizon() {
    let (_dir, path) = write_temp(MRT, "family.mrt");
    let out = imcf()
        .args(["plan", &path, "--days", "3", "--tau", "40", "--seed", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("F_CE"));
    assert!(text.contains("father"));
    assert!(text.contains("mother"));
}

#[test]
fn plan_reports_the_horizon_it_planned() {
    // The table's budget row covers one week, which caps `--days 30`: the
    // report names the week it planned, not the days asked for.
    let table = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/family.mrt");
    let out = imcf()
        .args(["plan", table, "--days", "30"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("planned 168 hour(s) (7.0 day(s))"), "{text}");
    assert!(text.contains("rules: 280 instances"), "{text}");
}

#[test]
fn plan_rejects_a_table_with_a_non_finite_or_negative_value() {
    // A NaN or negative limit would reach the amortization plan's assert,
    // and a NaN setpoint would plan to `F_CE : NaN %`; each must be a
    // parse error.
    let lights = "Lights | 04:00 - 09:00 | Set Light | 40";
    let budget = "Budget | for 1 week | Set kWh Limit | 100";
    for (table, needle) in [
        (
            format!("{lights}\nBudget | for 1 week | Set kWh Limit | NaN\n"),
            "line 2: invalid value `NaN`: expected a finite number",
        ),
        (
            format!("{lights}\nBudget | for 1 week | Set kWh Limit | -5\n"),
            "line 2: a kWh limit cannot be negative",
        ),
        (
            format!("{lights}\nHeat | 01:00 - 07:00 | Set Temperature | NaN\n{budget}\n"),
            "line 2: invalid value `NaN`: expected a finite number",
        ),
    ] {
        let (_dir, path) = write_temp(&table, "bad.mrt");
        let out = imcf()
            .args(["plan", &path, "--days", "1"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{table}{stderr}");
        assert!(stderr.contains(needle), "{table}{stderr}");
    }
}

/// The planner banks unspent budget from slot to slot, so there is one
/// sequential path and no worker count to pick.
#[test]
fn plan_has_no_jobs_option() {
    let (_dir, path) = write_temp(MRT, "family.mrt");
    let args = ["plan", &path, "--days", "1", "--jobs", "2"];
    assert_refused(&args, "unknown option `--jobs` (see --help)");
}

/// Runs `imcf <args>` and asserts a usage error (exit 1, not a panic's
/// 101) naming `flag` and the values it takes.
fn assert_range_error(args: &[&str], flag: &str, wanted: &str) {
    assert_refused(args, &format!("`--{flag}` expects an integer {wanted}"));
}

/// Runs `imcf <args>` and asserts exit 1 with `message` on stderr.
fn assert_refused(args: &[&str], message: &str) {
    let out = imcf().args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
}

#[test]
fn every_command_help_exits_zero_and_lists_its_options() {
    for (command, option) in [
        ("validate", None),
        ("plan", Some("--savings")),
        ("simulate", Some("--months")),
        ("ecp", Some("--dataset")),
        ("workflow", Some("--hour")),
        ("schedule", Some("--horizon")),
        ("chaos", Some("--outage-rate")),
        ("chaos --crash", Some("--kills")),
        ("chaos-child", Some("--dir")),
        ("trace explain", Some("--input")),
        ("serve", Some("--tick-ms")),
        ("loadgen", Some("--strict")),
        ("top", Some("--refresh-ms")),
        ("doctor", Some("--require-alert")),
    ] {
        let out = imcf()
            .args(command.split(' '))
            .arg("--help")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{command}: {out:?}");
        assert!(stdout.contains(&format!("imcf {command}")), "{stdout}");
        if let Some(option) = option {
            assert!(stdout.contains(option), "{command}: {stdout}");
        }
    }
    let out = imcf().arg("--help").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--demo-alert"), "{stdout}");
    assert!(stdout.contains("--telemetry"), "{stdout}");
    assert!(!stdout.contains("chaos-child"), "{stdout}");
}

#[test]
fn simulate_refuses_months_outside_1_to_36() {
    for bad in ["0", "37"] {
        let args = ["simulate", "--dataset", "flat", "--months", bad];
        assert_range_error(&args, "months", "in 1..=36");
    }
}

#[test]
fn plan_refuses_a_tau_beyond_32_bits_before_reading_the_table() {
    // At 2^32 the old `as u32` planned with τ_max = 0.
    let args = ["plan", "/nonexistent/table.mrt", "--tau", "4294967296"];
    assert_range_error(&args, "tau", "in 0..=4294967295, found `4294967296`");
}

#[test]
fn chaos_refuses_a_negative_outage_rate() {
    assert_refused(
        &["chaos", "--outage-rate", "-1"],
        "`--outage-rate` expects a finite number >= 0, found `-1`",
    );
}

/// Runs `imcf chaos` into `journal` and returns its exit code, the
/// outcome it printed and its stderr.
fn chaos_into(journal: &std::path::Path) -> (Option<i32>, SoakOutcome, String) {
    let out = imcf()
        .args(["chaos", "--ticks", "12", "--zones", "1", "--journal"])
        .arg(journal)
        .output()
        .unwrap();
    let outcome = serde_json::from_slice(&out.stdout).expect("the outcome is printed as JSON");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), outcome, stderr)
}

#[test]
fn chaos_exits_1_when_its_journal_cannot_open() {
    let dir = tempfile::tempdir().unwrap();
    let file = dir.path().join("occupied");
    std::fs::write(&file, b"not a directory").unwrap();
    let (code, outcome, stderr) = chaos_into(&file.join("journal"));
    assert_eq!(code, Some(1), "{outcome:?}");
    assert_eq!(outcome.ticks, 0, "{outcome:?}");
    let error = outcome.error.unwrap_or_default();
    assert!(error.contains("cannot open the command journal"), "{error}");
    assert!(stderr.contains(&error), "{stderr}");
}

#[test]
fn chaos_refuses_a_directory_that_already_holds_a_journal() {
    let dir = tempfile::tempdir().unwrap();
    let journal = dir.path().join("journal");
    let (code, first, _) = chaos_into(&journal);
    assert_eq!(code, Some(0), "{first:?}");
    assert_eq!(first.error, None, "{first:?}");
    assert!(first.journal_rows > 0, "{first:?}");

    let (code, again, stderr) = chaos_into(&journal);
    assert_eq!(code, Some(1), "{again:?}");
    assert_eq!(again.ticks, 0, "{again:?}");
    assert!(
        stderr.contains("already holds a command journal"),
        "{stderr}"
    );
}

#[test]
fn flags_take_only_true_false_1_or_0() {
    // `--strict yes` used to read as false and drop the check silently.
    let args = ["loadgen", "--addr", "127.0.0.1:9", "--strict", "yes"];
    assert_refused(
        &args,
        "`--strict` expects one of true|false|1|0, found `yes`",
    );
}

#[test]
fn plan_rejects_zero_days() {
    let (_dir, path) = write_temp(MRT, "family.mrt");
    assert_range_error(&["plan", &path, "--days", "0"], "days", ">= 1");
}

#[test]
fn plan_rejects_zero_k() {
    let (_dir, path) = write_temp(MRT, "family.mrt");
    assert_range_error(&["plan", &path, "--days", "1", "--k", "0"], "k", ">= 1");
}

const WORKFLOW: &str =
    "workflow \"w\"\n  if env.temperature < 18\n    actuate temperature 21\n  end\nend\n";

#[test]
fn workflow_rejects_a_month_outside_1_to_12() {
    let (_dir, path) = write_temp(WORKFLOW, "w.wf");
    for bad in ["0", "13"] {
        assert_range_error(&["workflow", &path, "--month", bad], "month", "in 1..=12");
    }
}

#[test]
fn workflow_rejects_an_hour_outside_0_to_23() {
    let (_dir, path) = write_temp(WORKFLOW, "w.wf");
    for bad in ["24", "99"] {
        assert_range_error(&["workflow", &path, "--hour", bad], "hour", "in 0..=23");
    }
    let last = imcf()
        .args(["workflow", &path, "--hour", "23", "--month", "12"])
        .output()
        .unwrap();
    assert!(last.status.success(), "{last:?}");
}

#[test]
fn workflow_dry_run() {
    let (_dir, path) = write_temp(
        "workflow \"w\"\n  if env.temperature < 18\n    actuate temperature 21\n  end\nend\n",
        "w.wf",
    );
    let cold = imcf()
        .args(["workflow", &path, "--temperature", "10"])
        .output()
        .unwrap();
    assert!(cold.status.success());
    assert!(String::from_utf8_lossy(&cold.stdout).contains("Set Temperature 21"));
    let warm = imcf()
        .args(["workflow", &path, "--temperature", "25"])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&warm.stdout).contains("no actuations"));
}

#[test]
fn workflow_rejects_a_temperature_that_is_not_finite() {
    let (_dir, path) = write_temp(
        "workflow \"w\"\n  if env.temperature < 18\n    actuate temperature 21\n  end\nend\n",
        "w.wf",
    );
    for bad in ["NaN", "inf"] {
        let out = imcf()
            .args(["workflow", &path, "--temperature", bad])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`{bad}`: {stderr}");
        assert!(
            stderr.contains("`--temperature` expects a finite number"),
            "`{bad}`: {stderr}"
        );
    }
}

#[test]
fn schedule_rejects_a_headroom_that_is_not_finite() {
    let (_dir, path) = write_temp("EV | 3.0 | 3 | 0..30\n", "loads.txt");
    let out = imcf()
        .args(["schedule", &path, "--headroom", "NaN"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("`--headroom` expects a finite number"),
        "{stderr}"
    );
}

#[test]
fn schedule_places_loads() {
    let (_dir, path) = write_temp("EV | 3.0 | 3 | 0..30\n", "loads.txt");
    let out = imcf().args(["schedule", &path]).output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("EV"));
}

#[test]
fn ecp_flat_profile() {
    let out = imcf().args(["ecp", "--dataset", "flat"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("kWh/month"));
    assert!(text.contains("total"));
}

#[test]
fn serve_rejects_a_refill_rate_that_is_not_finite_and_non_negative() {
    // NaN and inf leave the edge bucket always full; -1 drains it by
    // itself. Each must be a usage error before the server binds. (A
    // server that did start would read EOF on stdin and exit cleanly.)
    for bad in ["NaN", "inf", "-1"] {
        let out = imcf()
            .args(["serve", "--port", "0", "--burst", "2"])
            .args(["--refill-per-sec", bad])
            .stdin(Stdio::null())
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`{bad}`: {stdout}{stderr}");
        let wanted = format!("`--refill-per-sec` expects a finite number >= 0, found `{bad}`");
        assert!(stderr.contains(&wanted), "stderr: {stderr}");
        assert!(
            !stdout.contains("serving"),
            "bound before rejecting: {stdout}"
        );
    }
}
