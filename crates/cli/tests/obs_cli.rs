//! End-to-end: `imcf serve` with the obs sampler on, driven by
//! `imcf doctor` and `imcf top` over the wire.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

fn imcf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_imcf"))
}

/// Spawns `imcf serve --port 0` and scrapes the ephemeral address off
/// its first stdout line. Returns the child plus the `host:port`.
fn spawn_serve(extra: &[&str]) -> (Child, BufReader<std::process::ChildStdout>, String) {
    let mut child = imcf()
        .args(["serve", "--port", "0", "--zones", "1", "--tick-ms", "20"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("serve spawns");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("serve prints its address");
    let addr = line
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("address in serve banner")
        .to_string();
    (child, reader, addr)
}

fn shutdown(mut child: Child) {
    if let Some(stdin) = child.stdin.as_mut() {
        let _ = stdin.write_all(b"quit\n");
    }
    let _ = child.wait();
}

#[test]
fn doctor_bundles_the_obs_surfaces_and_asserts_on_them() {
    let (child, _reader, addr) = spawn_serve(&["--demo-alert", "true"]);
    // Let the 20 ms sampler take enough ticks for the demo breaker storm
    // to build series and fire the breaker.open.storm rule.
    std::thread::sleep(std::time::Duration::from_millis(600));

    let dir = tempfile::tempdir().expect("tempdir");
    let bundle_path = dir.path().join("doctor.json");
    let out = imcf()
        .args([
            "doctor",
            "--addr",
            &addr,
            "--out",
            bundle_path.to_str().expect("utf8 path"),
            "--require-series",
            "breaker.open",
            "--require-alert",
            "breaker.open.storm",
        ])
        .output()
        .expect("doctor runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "doctor failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(stdout.contains("checks:  all passed"), "stdout: {stdout}");

    let bundle: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&bundle_path).expect("bundle written"))
            .expect("bundle is valid JSON");
    assert_eq!(
        bundle
            .get("healthz")
            .and_then(|v| v.get("status"))
            .and_then(|v| v.as_str()),
        Some("ok")
    );
    for key in ["metrics", "series", "alerts", "traces"] {
        assert!(bundle.get(key).is_some(), "bundle carries `{key}`");
    }

    // A missing requirement must flip the exit code for CI use.
    let out = imcf()
        .args([
            "doctor",
            "--addr",
            &addr,
            "--out",
            bundle_path.to_str().expect("utf8 path"),
            "--require-series",
            "no.such.series",
        ])
        .output()
        .expect("doctor runs");
    assert!(!out.status.success(), "missing series must fail the check");

    shutdown(child);
}

#[test]
fn loadgen_drives_serve_and_writes_its_report() {
    let (child, _reader, addr) = spawn_serve(&[]);
    let dir = tempfile::tempdir().expect("tempdir");
    let report = dir.path().join("loadgen.json");
    let out = imcf()
        .args(["loadgen", "--addr", &addr, "--connections", "1"])
        .args(["--requests", "5", "--mix", "items", "--strict", "true"])
        .args(["--out", report.to_str().expect("utf8 path")])
        .output()
        .expect("loadgen runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{out:?}");
    assert!(stdout.contains("1 conn × 5 req"), "stdout: {stdout}");
    assert!(report.exists(), "report written");

    shutdown(child);
}

#[test]
fn top_renders_one_dashboard_frame() {
    let (child, _reader, addr) = spawn_serve(&[]);
    std::thread::sleep(std::time::Duration::from_millis(300));

    let out = imcf()
        .args([
            "top",
            "--addr",
            &addr,
            "--iterations",
            "1",
            "--plain",
            "true",
        ])
        .output()
        .expect("top runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "top failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(stdout.contains("imcf top — tick"), "stdout: {stdout}");
    assert!(stdout.contains("ALERTS"), "stdout: {stdout}");
    assert!(stdout.contains("breaker.open.storm"), "stdout: {stdout}");
    assert!(stdout.contains("SERIES"), "stdout: {stdout}");

    shutdown(child);
}
