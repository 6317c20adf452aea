//! Shared sweep logic for the `obs_bench` binary and the obs determinism
//! test.
//!
//! Each cell drives an in-memory [`ObsEngine`] over a synthetic telemetry
//! registry for a fixed number of virtual-clock ticks, then answers a
//! fixed query set. Cells are pure functions of `(capacity, ticks, seed)`
//! and fan out over `imcf_pool::map_indexed`, so the result JSON is
//! byte-identical for every worker count — the same contract the chaos
//! and planner sweeps pin. Wall-clock timings never enter the JSON; the
//! binary prints them to stdout only.

use imcf_obs::{default_rules, ObsConfig, ObsEngine};
use imcf_telemetry::trace::splitmix64;
use imcf_telemetry::Registry;
use serde::{Deserialize, Serialize};

/// One sweep cell: ring capacity × tick count × drive seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsCell {
    /// Per-series raw ring capacity.
    pub capacity: usize,
    /// Virtual-clock ticks to drive.
    pub ticks: u64,
    /// Seed for the synthetic metric stream.
    pub seed: u64,
}

/// One sweep row: the cell plus everything deterministic the engine
/// reported — sampler counters, alert outcomes and query answers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsRow {
    pub capacity: usize,
    pub ticks: u64,
    pub seed: u64,
    pub samples: u64,
    pub series: u64,
    pub evictions: u64,
    pub alert_transitions: u64,
    pub alerts_fired: u64,
    pub journal_value: f64,
    pub journal_increase_60: f64,
    pub journal_rate_60: f64,
    pub slot_p99_120: f64,
}

/// One deterministic tick of synthetic telemetry: a journal counter with
/// a seed-derived burst pattern, a breaker gauge, and a latency histogram
/// — the metric kinds the real soak produces, without the soak cost.
pub fn synthetic_tick(registry: &Registry, seed: u64, tick: u64) {
    let roll = splitmix64(seed ^ tick.wrapping_mul(0x2545_f491_4f6c_dd1d));
    registry.counter("journal.deduped").add(roll % 4);
    registry
        .gauge("breaker.open_now")
        .set(((tick / 7) % 3) as f64);
    let latency = 50.0 + (roll % 1000) as f64;
    registry.histogram("planner.slot_micros").observe(latency);
    registry
        .histogram("planner.slot_micros")
        .observe(latency * 3.0);
}

/// Builds the engine a cell uses: in-memory (so nothing persists), alert
/// rules on, raw ring sized by the cell.
pub fn cell_engine(cell: ObsCell) -> ObsEngine {
    let config = ObsConfig {
        capacity: cell.capacity,
    };
    ObsEngine::in_memory(config, default_rules())
        .unwrap_or_else(|e| panic!("default rules must validate: {e}"))
}

/// Runs one cell to completion and answers the fixed query set.
pub fn run_cell(cell: ObsCell) -> ObsRow {
    let registry = Registry::new();
    let mut engine = cell_engine(cell);
    for tick in 1..=cell.ticks {
        synthetic_tick(&registry, cell.seed, tick);
        engine.observe(tick, &registry);
    }
    let stats = engine.stats();
    ObsRow {
        capacity: cell.capacity,
        ticks: cell.ticks,
        seed: cell.seed,
        samples: stats.samples,
        series: stats.series,
        evictions: stats.evictions,
        alert_transitions: stats.alert_transitions,
        alerts_fired: stats.alerts_fired,
        journal_value: engine.value("journal.deduped").unwrap_or(f64::NAN),
        journal_increase_60: engine.increase("journal.deduped", 60).unwrap_or(f64::NAN),
        journal_rate_60: engine.rate("journal.deduped", 60).unwrap_or(f64::NAN),
        slot_p99_120: engine
            .quantile_over_time("planner.slot_micros", 0.99, 120, cell.ticks)
            .unwrap_or(f64::NAN),
    }
}

/// The sweep grid: every capacity × seeds `0..reps`, fixed tick count.
pub fn obs_cells(capacities: &[usize], ticks: u64, reps: u64) -> Vec<ObsCell> {
    capacities
        .iter()
        .flat_map(|&capacity| {
            (0..reps).map(move |seed| ObsCell {
                capacity,
                ticks,
                seed,
            })
        })
        .collect()
}

/// Runs the sweep over `jobs` workers; rows come back in cell order.
pub fn obs_sweep(jobs: usize, cells: Vec<ObsCell>) -> Vec<ObsRow> {
    imcf_pool::map_indexed(jobs, cells, |_, cell| run_cell(cell))
}

/// Serializes sweep rows to pretty JSON — the byte string the determinism
/// contract compares across worker counts.
pub fn sweep_json(rows: &[ObsRow]) -> String {
    serde_json::to_string_pretty(rows).unwrap_or_else(|e| panic!("serialize failed: {e}"))
}
