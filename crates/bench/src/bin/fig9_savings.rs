//! Regenerates **Fig. 9** (Energy Conservation Study): F_CE and F_E of the
//! Energy Planner as the configured savings percentage grows from 5 % to
//! 40 %, on all three datasets. The study is inspired by the SAVES
//! inter-dormitory competition (8 % target savings).
//!
//! The full (dataset × savings × seed) grid fans out over `--jobs N`
//! workers (default: all cores); results are
//! byte-identical for every worker count.
//!
//! Expected shape (paper): increasing savings tightens the amortized budget
//! proportionally, trading a steady F_E decrease for a modest (1–3 point)
//! F_CE increase.

use imcf_bench::harness::{
    build_bundles, ep_sweep, jobs, repetitions, write_artifacts, SweepPoint,
};
use imcf_core::amortization::ApKind;
use imcf_core::planner::PlannerConfig;
use imcf_sim::building::DatasetKind;

const SAVINGS_PCT: [f64; 6] = [0.0, 5.0, 10.0, 20.0, 30.0, 40.0];

fn main() {
    let reps = repetitions();
    let jobs = jobs();
    imcf_telemetry::global().reset();
    let kinds = DatasetKind::all();
    println!("=== Fig. 9: Energy Conservation Study (EP reps = {reps}, jobs = {jobs}) ===\n");
    let bundles = build_bundles(&kinds, 0, jobs);
    let points: Vec<SweepPoint> = (0..kinds.len())
        .flat_map(|bundle| {
            SAVINGS_PCT.into_iter().map(move |savings_pct| SweepPoint {
                bundle,
                config: PlannerConfig::default(),
                ap: ApKind::Eaf,
                savings: savings_pct / 100.0,
            })
        })
        .collect();
    let summaries = ep_sweep(jobs, &bundles, points, reps);

    let mut results = Vec::new();
    for (d, kind) in kinds.into_iter().enumerate() {
        println!(
            "--- {} (base budget {:.0} kWh) ---",
            kind.label(),
            bundles[d].dataset.budget_kwh
        );
        println!(
            "{:<10} | {:>16} | {:>22}",
            "savings", "F_CE (%)", "F_E (kWh)"
        );
        for (i, savings_pct) in SAVINGS_PCT.into_iter().enumerate() {
            let s = &summaries[d * SAVINGS_PCT.len() + i];
            println!(
                "{:<10} | {:>16} | {:>22}",
                format!("{savings_pct:.0} %"),
                s.fce.format(2),
                s.fe.format(1)
            );
            results.push(serde_json::json!({
                "dataset": kind.label(),
                "savings_percent": savings_pct,
                "reps": reps,
                "fce_percent_mean": s.fce.mean(),
                "fce_percent_std": s.fce.std(),
                "fe_kwh_mean": s.fe.mean(),
                "fe_kwh_std": s.fe.std(),
            }));
        }
        println!();
    }
    match write_artifacts("fig9_savings", &results) {
        Ok(()) => println!(
            "artifacts: {}/fig9_savings{{.json,.telemetry.json}}",
            imcf_bench::harness::artifact_dir().display()
        ),
        Err(e) => eprintln!("warning: could not write artifacts: {e}"),
    }
    if imcf_bench::harness::trace_artifact_requested() {
        match imcf_bench::harness::write_trace_artifact("fig9_savings", &bundles[0]) {
            Ok(path) => println!("trace artifact: {}", path.display()),
            Err(e) => eprintln!("warning: could not write trace artifact: {e}"),
        }
    }
}
