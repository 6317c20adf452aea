//! The obs bench: sampler overhead per tick and query latency against
//! the retained-point count (extension beyond the paper's evaluation).
//!
//! Two parts:
//!
//! 1. A deterministic sweep over ring capacities × seeds, fanned out over
//!    `--jobs N` workers. Every cell drives an in-memory [`ObsEngine`]
//!    with a synthetic metric stream and answers a fixed query set; the
//!    JSON artifact is **byte-identical for every worker count** (pinned
//!    by `tests/obs_determinism.rs`).
//! 2. Wall-clock measurements — sampler cost per tick, query latency per
//!    capacity, and end-to-end soak overhead with the obs plane on vs
//!    off. These go to stdout only, never into the JSON.
//!
//! [`ObsEngine`]: imcf_obs::ObsEngine

use imcf_bench::harness::{jobs, repetitions, write_artifacts};
use imcf_bench::obs::{cell_engine, obs_cells, obs_sweep, synthetic_tick, ObsCell};
use imcf_chaos::FaultPlan;
use imcf_controller::soak::{run_soak, SoakConfig};
use imcf_telemetry::Registry;
use std::time::Instant;

const CAPACITIES: [usize; 3] = [64, 256, 1024];
const TICKS: u64 = 2048;

/// Wall time of one closure call, in microseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e6)
}

fn sampler_cost_micros(capacity: usize) -> f64 {
    let registry = Registry::new();
    let mut engine = cell_engine(ObsCell {
        capacity,
        ticks: TICKS,
        seed: 0,
    });
    // Pre-populate the registry so the measured loop samples a steady
    // series set rather than paying one-time registration.
    synthetic_tick(&registry, 0, 0);
    let (_, total) = timed(|| {
        for tick in 1..=TICKS {
            synthetic_tick(&registry, 0, tick);
            engine.observe(tick, &registry);
        }
    });
    total / TICKS as f64
}

fn query_cost_micros(capacity: usize) -> (f64, f64) {
    let mut engine = cell_engine(ObsCell {
        capacity,
        ticks: TICKS,
        seed: 0,
    });
    let registry = Registry::new();
    for tick in 1..=TICKS {
        synthetic_tick(&registry, 0, tick);
        engine.observe(tick, &registry);
    }
    const REPS: u64 = 2000;
    let (_, increase_total) = timed(|| {
        for _ in 0..REPS {
            let _ = engine.increase("journal.deduped", 60);
        }
    });
    let (_, quantile_total) = timed(|| {
        for _ in 0..REPS {
            let _ = engine.quantile_over_time("planner.slot_micros", 0.99, 120, TICKS);
        }
    });
    (increase_total / REPS as f64, quantile_total / REPS as f64)
}

const SOAK_TICKS: u64 = 480;

fn soak_config(obs_capacity: usize) -> SoakConfig {
    SoakConfig {
        seed: 17,
        ticks: SOAK_TICKS,
        zones: 2,
        plan: FaultPlan::commands(17, 0.1),
        obs_capacity,
        ..SoakConfig::default()
    }
}

// Wall-clock sections (sampler/query/soak overhead) are the point of this
// bench; timings go to stdout only and never into the deterministic JSON
// artifact, which tests/obs_determinism.rs pins. imcf-lint: allow(L008)
fn main() {
    let reps = repetitions().min(5);
    let jobs = jobs();
    imcf_telemetry::global().reset();
    println!(
        "=== obs_bench: sampler overhead + query latency (reps = {reps}, jobs = {jobs}) ===\n"
    );

    let cells = obs_cells(&CAPACITIES, TICKS, reps);
    let rows = obs_sweep(jobs, cells);

    println!(
        "{:>8} | {:>5} | {:>7} | {:>6} | {:>9} | {:>6} | {:>12} | {:>10} | {:>10}",
        "capacity",
        "ticks",
        "samples",
        "series",
        "evictions",
        "fired",
        "increase[60]",
        "rate[60]",
        "p99[120]"
    );
    for row in &rows {
        if row.seed != 0 {
            continue; // one representative line per capacity; all seeds land in the JSON
        }
        println!(
            "{:>8} | {:>5} | {:>7} | {:>6} | {:>9} | {:>6} | {:>12.1} | {:>10.3} | {:>10.1}",
            row.capacity,
            row.ticks,
            row.samples,
            row.series,
            row.evictions,
            row.alerts_fired,
            row.journal_increase_60,
            row.journal_rate_60,
            row.slot_p99_120,
        );
    }

    println!("\n--- wall-clock (stdout only, excluded from the JSON artifact) ---");
    for capacity in CAPACITIES {
        let per_tick = sampler_cost_micros(capacity);
        let (increase, quantile) = query_cost_micros(capacity);
        println!(
            "capacity {capacity:>5}: sampler {per_tick:>7.2} µs/tick, increase[60] {increase:>7.2} µs/query, p99[120] {quantile:>7.2} µs/query"
        );
    }

    // End-to-end overhead: the chaos soak with the obs plane attached at
    // the default capacity vs detached, identical fault schedule. The soak
    // keeps no journal: a journaled tick fsyncs the command journal, and
    // that fsync would hide the sampler's share of the tick.
    let run = |capacity: usize| run_soak(&soak_config(capacity), None);
    let _warmup = run(0);
    // Best of 25 per configuration, alternating: a soak tick is ~16 µs, so
    // the delta is small against scheduler noise. Take each
    // configuration's floor, and alternate so drift hits both alike.
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..25 {
        off = off.min(timed(|| run(0)).1);
        on = on.min(timed(|| run(256)).1);
    }
    let on_out = run(256);
    let overhead = if off > 0.0 {
        (on - off) / off * 100.0
    } else {
        0.0
    };
    println!(
        "soak {SOAK_TICKS} ticks × 2 zones @10% faults: obs off {:.0} µs, on {:.0} µs — overhead {:.1}% ({} alert transitions)",
        off, on, overhead, on_out.alert_transitions
    );

    if let Err(e) = write_artifacts("obs_bench", &rows) {
        eprintln!("warning: could not write artifacts: {e}");
    }
}
