//! Storage engine benchmark: acknowledged write rate and recovery time.
//!
//! Every production log (`command_journal`, `checkpoint`, `tsdb`,
//! `tsdb_meta`) has one writer on one thread, so the write measurement is
//! that writer: one row-less [`Log`], an fsync after every insert, which is
//! the acknowledgement point. The number is one writer's acknowledged
//! inserts per second, bound by the disk's fsync latency.
//!
//! The recovery sweep builds tables with growing un-snapshotted WAL tails,
//! reopens each and times the open (snapshot load + segment replay), then
//! repeats with the same history compacted by [`Table::snapshot`] —
//! recovery cost must track the replay tail, not total history.
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

/// One writer's acknowledged-insert measurement.
#[derive(Debug, Serialize)]
struct WriteResult {
    rows: usize,
    micros: u64,
    acked_inserts_per_sec: f64,
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
    write: WriteResult,
    recovery: Vec<RecoveryResult>,
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

/// One writer, fsync per insert: every row is acknowledged before the
/// next is written.
fn acked_inserts(rows: usize) -> WriteResult {
    let dir = scratch("write");
    let mut log: Log<Row> = match Log::open_with(&dir, "rows", segments(), |_| {}) {
        Ok(log) => log,
        Err(e) => die(&format!("open {}: {e}", dir.display())),
    };
    let clock = Stopwatch::start();
    for i in 0..rows {
        if let Err(e) = log.insert(&row(i)) {
            die(&format!("insert: {e}"));
        }
        if let Err(e) = log.sync() {
            die(&format!("sync: {e}"));
        }
    }
    let micros = clock.elapsed_micros();
    WriteResult {
        rows,
        micros,
        acked_inserts_per_sec: rows as f64 / (micros.max(1) as f64 / 1_000_000.0),
    }
}

/// Runs the write measurement `reps` times and keeps the median-throughput
/// run (disk-bound measurements are noisy; the median is stable).
fn median_of(reps: usize, run: impl Fn() -> WriteResult) -> WriteResult {
    let mut results: Vec<WriteResult> = (0..reps.max(1)).map(|_| run()).collect();
    results.sort_by(|a, b| a.acked_inserts_per_sec.total_cmp(&b.acked_inserts_per_sec));
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
            if let Err(e) = t.snapshot() {
                die(&format!("snapshot: {e}"));
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
    let rows = if smoke { 64 } else { 2048 };
    let recovery_tails: &[usize] = if smoke {
        &[64, 256]
    } else {
        &[256, 1024, 4096]
    };

    println!(
        "=== store_bench: segmented WAL, one writer per log ({} mode) ===\n",
        if smoke { "smoke" } else { "full" }
    );

    let write = median_of(if smoke { 1 } else { 3 }, || acked_inserts(rows));
    println!("| writers | fsyncs | rows | acknowledged inserts/sec |");
    println!("|---------|--------|------|--------------------------|");
    println!(
        "| {:>7} | {:>6} | {:>4} | {:>24.0} |",
        1, write.rows, write.rows, write.acked_inserts_per_sec
    );
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

    let report = BenchReport {
        smoke,
        write,
        recovery,
    };
    if let Err(e) = write_artifacts("store_bench", &report) {
        eprintln!("warning: could not write artifacts: {e}");
    }
    let _ = std::fs::remove_dir_all("target/store_bench_scratch");
}
