//! Storage engine v2 benchmark: write throughput and recovery time.
//!
//! Three write configurations over the same row shape:
//!
//! 1. `single+sync` — one writer, fsync after every insert: the seed
//!    engine's durability pattern and the baseline;
//! 2. `multi+direct` — N writers, each fsyncing its own inserts through
//!    [`imcf_store::SharedTable::sync_direct`] (no batching);
//! 3. `multi+group` — N writers through group commit
//!    ([`imcf_store::SharedTable::sync`]): concurrent callers share one
//!    fsync, which is where the multi-writer speedup comes from.
//!
//! The recovery sweep builds tables with growing un-snapshotted WAL tails,
//! reopens each and times the open (snapshot load + segment replay), then
//! repeats with the same history *compacted* — recovery cost must track
//! the replay tail, not total history.
//!
//! `--smoke` shrinks every dimension for the CI smoke step. Results land
//! in `target/experiments/store_bench.json` via the shared harness.

use imcf_bench::harness::write_artifacts;
use imcf_store::{Log, SegmentConfig, Table};
use imcf_telemetry::Stopwatch;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Row {
    zone: String,
    wh: u64,
}

fn row(i: usize) -> Row {
    Row {
        zone: format!("zone-{:03}", i % 8),
        wh: 100 + i as u64,
    }
}

/// One write-throughput measurement.
#[derive(Debug, Serialize)]
struct WriteResult {
    config: String,
    writers: usize,
    rows: usize,
    micros: u64,
    ops_per_sec: f64,
}

/// One recovery measurement.
#[derive(Debug, Serialize)]
struct RecoveryResult {
    history_rows: usize,
    tail_rows: usize,
    compacted: bool,
    open_micros: u64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    smoke: bool,
    writes: Vec<WriteResult>,
    recovery: Vec<RecoveryResult>,
    group_commit_speedup: f64,
}

fn die(msg: &str) -> ! {
    eprintln!("store_bench: {msg}");
    std::process::exit(1);
}

/// A scratch directory under `target/` (no tempfile in bin deps); wiped
/// before use so reruns start clean.
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from("target/store_bench_scratch").join(tag);
    if dir.exists() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    dir
}

/// A small segment threshold keeps sealing on the measured path.
fn segments() -> SegmentConfig {
    SegmentConfig::with_segment_bytes(64 * 1024)
}

fn open_table(dir: &Path) -> Table<Row> {
    match Table::open_with(dir, "rows", segments()) {
        Ok(t) => t,
        Err(e) => die(&format!("open {}: {e}", dir.display())),
    }
}

/// The row-less log group commit writes through.
fn open_log(dir: &Path) -> Log<Row> {
    match Log::open_with(dir, "rows", segments(), |_| {}) {
        Ok(log) => log,
        Err(e) => die(&format!("open {}: {e}", dir.display())),
    }
}

/// One writer, fsync per insert — the seed engine's durability pattern.
fn single_writer_sync(rows: usize) -> WriteResult {
    let dir = scratch("single");
    let mut t = open_table(&dir);
    let clock = Stopwatch::start();
    for i in 0..rows {
        if let Err(e) = t.insert(row(i)) {
            die(&format!("insert: {e}"));
        }
        if let Err(e) = t.sync() {
            die(&format!("sync: {e}"));
        }
    }
    let micros = clock.elapsed_micros();
    WriteResult {
        config: "single+sync".into(),
        writers: 1,
        rows,
        micros,
        ops_per_sec: ops_per_sec(rows, micros),
    }
}

/// N writers, each acknowledging every row; `group` picks the commit path.
fn multi_writer(writers: usize, per_writer: usize, group: bool) -> WriteResult {
    let tag = if group { "group" } else { "direct" };
    let dir = scratch(tag);
    let shared = open_log(&dir).into_shared();
    let clock = Stopwatch::start();
    std::thread::scope(|s| {
        for w in 0..writers {
            let shared = shared.clone();
            s.spawn(move || {
                for i in 0..per_writer {
                    if let Err(e) = shared.insert(row(w * per_writer + i)) {
                        die(&format!("insert: {e}"));
                    }
                    let ack = if group {
                        shared.sync()
                    } else {
                        shared.sync_direct()
                    };
                    if let Err(e) = ack {
                        die(&format!("sync: {e}"));
                    }
                }
            });
        }
    });
    let micros = clock.elapsed_micros();
    let rows = writers * per_writer;
    if shared.len() != rows {
        die(&format!("lost rows: {} of {rows}", shared.len()));
    }
    WriteResult {
        config: format!("multi+{tag}"),
        writers,
        rows,
        micros,
        ops_per_sec: ops_per_sec(rows, micros),
    }
}

fn ops_per_sec(rows: usize, micros: u64) -> f64 {
    rows as f64 / (micros.max(1) as f64 / 1_000_000.0)
}

/// Runs a configuration `reps` times and keeps the median-throughput run
/// (disk-bound measurements are noisy; the median is stable).
fn median_of(reps: usize, run: impl Fn() -> WriteResult) -> WriteResult {
    let mut results: Vec<WriteResult> = (0..reps.max(1)).map(|_| run()).collect();
    results.sort_by(|a, b| {
        a.ops_per_sec
            .partial_cmp(&b.ops_per_sec)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    results.swap_remove(results.len() / 2)
}

/// Builds a table with `history` rows, optionally compacted so only
/// `tail` rows remain in the log, then times a reopen.
fn recovery_case(history: usize, tail: usize, compacted: bool) -> RecoveryResult {
    let dir = scratch(&format!("rec-{history}-{tail}-{compacted}"));
    {
        let mut t = open_table(&dir);
        let head = history - tail;
        for i in 0..head {
            if let Err(e) = t.insert(row(i)) {
                die(&format!("insert: {e}"));
            }
        }
        if compacted {
            if let Err(e) = t.compact(4) {
                die(&format!("compact: {e}"));
            }
        }
        for i in head..history {
            if let Err(e) = t.insert(row(i)) {
                die(&format!("insert: {e}"));
            }
        }
        if let Err(e) = t.sync() {
            die(&format!("sync: {e}"));
        }
    }
    let clock = Stopwatch::start();
    let t = open_table(&dir);
    let open_micros = clock.elapsed_micros();
    if t.len() != history {
        die(&format!("recovery lost rows: {} of {history}", t.len()));
    }
    RecoveryResult {
        history_rows: history,
        tail_rows: if compacted { tail } else { history },
        compacted,
        open_micros,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (writers, per_writer, single_rows) = if smoke { (8, 8, 64) } else { (64, 32, 2048) };
    let recovery_tails: &[usize] = if smoke {
        &[64, 256]
    } else {
        &[256, 1024, 4096]
    };

    println!(
        "=== store_bench: segmented group-commit WAL ({} mode) ===\n",
        if smoke { "smoke" } else { "full" }
    );

    let reps = if smoke { 1 } else { 3 };
    let single = median_of(reps, || single_writer_sync(single_rows));
    let direct = median_of(reps, || multi_writer(writers, per_writer, false));
    let group = median_of(reps, || multi_writer(writers, per_writer, true));
    let speedup = group.ops_per_sec / single.ops_per_sec.max(f64::MIN_POSITIVE);

    println!("| config        | writers | rows | ops/sec | vs single+sync |");
    println!("|---------------|---------|------|---------|----------------|");
    for r in [&single, &direct, &group] {
        println!(
            "| {:<13} | {:>7} | {:>4} | {:>7.0} | {:>13.2}x |",
            r.config,
            r.writers,
            r.rows,
            r.ops_per_sec,
            r.ops_per_sec / single.ops_per_sec.max(f64::MIN_POSITIVE)
        );
    }
    println!();

    let mut recovery = Vec::new();
    println!("| history rows | log tail | compacted | open (ms) |");
    println!("|--------------|----------|-----------|-----------|");
    let largest = *recovery_tails.last().unwrap_or(&256);
    for &tail in recovery_tails {
        let r = recovery_case(tail, tail, false);
        println!(
            "| {:>12} | {:>8} | {:>9} | {:>9.2} |",
            r.history_rows,
            r.tail_rows,
            "no",
            r.open_micros as f64 / 1000.0
        );
        recovery.push(r);
    }
    // Same largest history, compacted down to each smaller tail: at fixed
    // history the open time must track the tail, not the full log.
    for &tail in recovery_tails.iter().filter(|t| **t < largest) {
        let r = recovery_case(largest, tail, true);
        println!(
            "| {:>12} | {:>8} | {:>9} | {:>9.2} |",
            r.history_rows,
            r.tail_rows,
            "yes",
            r.open_micros as f64 / 1000.0
        );
        recovery.push(r);
    }
    println!();

    println!("group-commit speedup over single-writer fsync-per-insert: {speedup:.2}x");
    if !smoke && speedup < 10.0 {
        println!("warning: expected >= 10x group-commit speedup, measured {speedup:.2}x");
    }

    let report = BenchReport {
        smoke,
        writes: vec![single, direct, group],
        recovery,
        group_commit_speedup: speedup,
    };
    if let Err(e) = write_artifacts("store_bench", &report) {
        eprintln!("warning: could not write artifacts: {e}");
    }
    let _ = std::fs::remove_dir_all("target/store_bench_scratch");
}
