//! Proves the parallel evaluation contract end to end: a small
//! fig6-style grid (baselines via `run_grid` + an EP sweep via
//! `ep_sweep`) produces **byte-identical** result JSON at `--jobs 1`
//! and `--jobs 4`.
//!
//! Only the deterministic fields (F_CE, F_E) are serialized — F_T is
//! wall-clock and excluded from the contract by design.

use imcf_bench::harness::{build_bundles, ep_sweep, run_grid, GridCell, Method, SweepPoint};
use imcf_core::amortization::ApKind;
use imcf_core::planner::PlannerConfig;
use imcf_sim::building::DatasetKind;

/// Runs the grid at the given worker count and serializes the
/// deterministic fields to a JSON string.
fn grid_json(jobs: usize) -> String {
    let kinds = [DatasetKind::Flat];
    let bundles = build_bundles(&kinds, 0, jobs);

    let cells = vec![
        GridCell {
            bundle: 0,
            method: Method::Nr,
        },
        GridCell {
            bundle: 0,
            method: Method::Ifttt,
        },
        GridCell {
            bundle: 0,
            method: Method::Mr,
        },
    ];
    let baselines = run_grid(jobs, &bundles, cells);

    let points = vec![
        SweepPoint {
            bundle: 0,
            config: PlannerConfig::default(),
            ap: ApKind::Eaf,
            savings: 0.0,
        },
        SweepPoint {
            bundle: 0,
            config: PlannerConfig::default(),
            ap: ApKind::Eaf,
            savings: 0.2,
        },
    ];
    let summaries = ep_sweep(jobs, &bundles, points, 3);

    let mut rows = Vec::new();
    for m in &baselines {
        rows.push(serde_json::json!({
            "fce_percent": m.fce_percent,
            "fe_kwh": m.fe_kwh,
        }));
    }
    for s in &summaries {
        rows.push(serde_json::json!({
            "fce_percent_mean": s.fce.mean(),
            "fce_percent_std": s.fce.std(),
            "fe_kwh_mean": s.fe.mean(),
            "fe_kwh_std": s.fe.std(),
        }));
    }
    serde_json::to_string_pretty(&rows).unwrap_or_else(|e| panic!("serialize failed: {e}"))
}

#[test]
fn jobs_1_and_jobs_4_produce_byte_identical_result_json() {
    let sequential = grid_json(1);
    let parallel = grid_json(4);
    assert!(
        sequential.len() > 100,
        "grid produced suspiciously little output:\n{sequential}"
    );
    assert_eq!(
        sequential, parallel,
        "parallel grid diverged from sequential"
    );
}

#[test]
fn repeated_parallel_runs_are_stable() {
    assert_eq!(grid_json(4), grid_json(4));
}

/// `ep_sweep` with zero repetitions must still return one (empty) summary
/// per point — callers index `summaries[point]`.
#[test]
fn ep_sweep_zero_reps_yields_one_summary_per_point() {
    let bundles = build_bundles(&[DatasetKind::Flat], 0, 1);
    let points = vec![
        SweepPoint {
            bundle: 0,
            config: PlannerConfig::default(),
            ap: ApKind::Eaf,
            savings: 0.0,
        },
        SweepPoint {
            bundle: 0,
            config: PlannerConfig::default(),
            ap: ApKind::Eaf,
            savings: 0.2,
        },
    ];
    let summaries = ep_sweep(1, &bundles, points, 0);
    assert_eq!(summaries.len(), 2);
    assert!(summaries.iter().all(|s| s.fce.count() == 0));
}
