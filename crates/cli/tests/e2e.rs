//! End-to-end tests driving the compiled `imcf` binary.

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
fn plan_with_jobs_is_deterministic_across_worker_counts() {
    let (_dir, path) = write_temp(MRT, "family.mrt");
    let run = |jobs: &str| {
        let out = imcf()
            .args([
                "plan", &path, "--days", "3", "--tau", "40", "--seed", "1", "--jobs", jobs,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(text.contains("no carry-over"));
        // Strip the wall-clock F_T line; everything else must match.
        text.lines()
            .filter(|l| !l.contains("F_T"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(run("1"), run("4"));
}

#[test]
fn plan_rejects_zero_jobs() {
    let (_dir, path) = write_temp(MRT, "family.mrt");
    let out = imcf()
        .args(["plan", &path, "--days", "1", "--jobs", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs must be at least 1"));
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
        assert!(!out.status.success(), "`{bad}` was accepted: {stdout}");
        assert!(stderr.contains("--refill-per-sec"), "stderr: {stderr}");
        assert!(
            !stdout.contains("serving"),
            "bound before rejecting: {stdout}"
        );
    }
}
