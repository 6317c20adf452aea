//! Regenerates **Fig. 6** (Performance Evaluation): Convenience Error
//! (F_CE), Energy Consumption (F_E) and CPU time (F_T) for the four
//! methods — NR, IFTTT, EP, MR — over the flat, house and dorms datasets.
//!
//! EP repeats `IMCF_REPS` times (default 10, as in the paper) with seeds
//! 0..reps and reports mean ± stdev; the baselines are deterministic.
//!
//! Every (dataset × method × seed) cell is independent, so the grid fans
//! out over `--jobs N` workers (default: all cores);
//! results and artifacts are byte-identical for every worker count
//! (wall-clock F_T aside).
//!
//! Expected shape (paper): F_CE ordering MR (0 %) < EP (2–4 %) < IFTTT
//! (26–39 %) < NR (≈62 %); F_E ordering NR (0) < EP (≤ budget) <
//! IFTTT ≈ MR; F_T ordering NR ≈ MR ≪ EP.

use imcf_bench::harness::{
    build_bundles, ep_sweep, jobs, repetitions, run_grid, write_artifacts, GridCell, Method,
    SweepPoint,
};
use imcf_core::amortization::ApKind;
use imcf_core::planner::PlannerConfig;
use imcf_sim::building::DatasetKind;

fn main() {
    let reps = repetitions();
    let jobs = jobs();
    imcf_telemetry::global().reset();
    let kinds = DatasetKind::all();
    println!("=== Fig. 6: Performance Evaluation (EP reps = {reps}, jobs = {jobs}) ===\n");
    let bundles = build_bundles(&kinds, 0, jobs);

    // Baseline cells (NR, IFTTT, MR per dataset) and EP sweep points (one
    // per dataset, `reps` seeds each) all run concurrently.
    let baseline_cells: Vec<GridCell> = (0..kinds.len())
        .flat_map(|bundle| {
            [Method::Nr, Method::Ifttt, Method::Mr]
                .into_iter()
                .map(move |method| GridCell { bundle, method })
        })
        .collect();
    let baselines = run_grid(jobs, &bundles, baseline_cells);
    let ep_points: Vec<SweepPoint> = (0..kinds.len())
        .map(|bundle| SweepPoint {
            bundle,
            config: PlannerConfig::default(),
            ap: ApKind::Eaf,
            savings: 0.0,
        })
        .collect();
    let ep_summaries = ep_sweep(jobs, &bundles, ep_points, reps);

    let mut results = Vec::new();
    for (d, kind) in kinds.into_iter().enumerate() {
        let bundle = &bundles[d];
        let [nr, ifttt, mr] = [
            &baselines[3 * d],
            &baselines[3 * d + 1],
            &baselines[3 * d + 2],
        ];
        let ep = &ep_summaries[d];
        println!(
            "--- {} (budget {:.0} kWh over 3 years, {} rules) ---",
            kind.label(),
            bundle.dataset.budget_kwh,
            bundle.dataset.total_rules()
        );
        println!(
            "{:<6} | {:>16} | {:>22} | {:>16}",
            "method", "F_CE (%)", "F_E (kWh)", "F_T (s)"
        );
        for (label, m) in [("NR", nr), ("IFTTT", ifttt)] {
            println!(
                "{:<6} | {:>16.2} | {:>22.1} | {:>16.3}",
                label, m.fce_percent, m.fe_kwh, m.ft_seconds
            );
            results.push(serde_json::json!({
                "dataset": kind.label(),
                "method": label,
                "fce_percent": m.fce_percent,
                "fe_kwh": m.fe_kwh,
                "ft_seconds": m.ft_seconds,
            }));
        }
        println!(
            "{:<6} | {:>16} | {:>22} | {:>16}",
            "EP",
            ep.fce.format(2),
            ep.fe.format(1),
            ep.ft.format(3)
        );
        results.push(serde_json::json!({
            "dataset": kind.label(),
            "method": "EP",
            "reps": reps,
            "fce_percent_mean": ep.fce.mean(),
            "fce_percent_std": ep.fce.std(),
            "fe_kwh_mean": ep.fe.mean(),
            "fe_kwh_std": ep.fe.std(),
            "ft_seconds_mean": ep.ft.mean(),
            "ft_seconds_std": ep.ft.std(),
        }));
        println!(
            "{:<6} | {:>16.2} | {:>22.1} | {:>16.3}",
            "MR", mr.fce_percent, mr.fe_kwh, mr.ft_seconds
        );
        results.push(serde_json::json!({
            "dataset": kind.label(),
            "method": "MR",
            "fce_percent": mr.fce_percent,
            "fe_kwh": mr.fe_kwh,
            "ft_seconds": mr.ft_seconds,
        }));
        println!(
            "EP vs MR energy gap: {:.0} kWh; EP budget utilization: {:.1} %\n",
            mr.fe_kwh - ep.fe.mean(),
            100.0 * ep.fe.mean() / bundle.dataset.budget_kwh
        );
    }
    match write_artifacts("fig6_performance", &results) {
        Ok(()) => println!(
            "artifacts: {}/fig6_performance{{.json,.telemetry.json}}",
            imcf_bench::harness::artifact_dir().display()
        ),
        Err(e) => eprintln!("warning: could not write artifacts: {e}"),
    }
    if imcf_bench::harness::trace_artifact_requested() {
        match imcf_bench::harness::write_trace_artifact("fig6_performance", &bundles[0]) {
            Ok(path) => println!("trace artifact: {}", path.display()),
            Err(e) => eprintln!("warning: could not write trace artifact: {e}"),
        }
    }
}
