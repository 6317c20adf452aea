//! Regenerates **Fig. 7** (k-opt Evaluation): F_CE and F_E of the Energy
//! Planner as the number of rule modifications per iteration `k` varies
//! from 1 to 4, on all three datasets.
//!
//! The full (dataset × k × seed) grid fans out over `--jobs N` workers
//! (default: all cores); results are byte-identical for
//! every worker count.
//!
//! Expected shape (paper): F_CE decreases as k grows (bigger jumps explore
//! the space more effectively) while F_E stays approximately level.

use imcf_bench::harness::{build_bundles, ep_sweep, jobs, repetitions, SweepPoint};
use imcf_core::amortization::ApKind;
use imcf_core::planner::PlannerConfig;
use imcf_sim::building::DatasetKind;

const KS: [usize; 4] = [1, 2, 3, 4];

fn main() {
    let reps = repetitions();
    let jobs = jobs();
    imcf_telemetry::global().reset();
    let kinds = DatasetKind::all();
    println!("=== Fig. 7: k-opt Evaluation (EP reps = {reps}, jobs = {jobs}) ===\n");
    let bundles = build_bundles(&kinds, 0, jobs);
    let points: Vec<SweepPoint> = (0..kinds.len())
        .flat_map(|bundle| {
            KS.into_iter().map(move |k| SweepPoint {
                bundle,
                config: PlannerConfig {
                    k,
                    ..Default::default()
                },
                ap: ApKind::Eaf,
                savings: 0.0,
            })
        })
        .collect();
    let summaries = ep_sweep(jobs, &bundles, points, reps);

    for (d, kind) in kinds.into_iter().enumerate() {
        println!("--- {} ---", kind.label());
        println!("{:<4} | {:>16} | {:>22}", "k", "F_CE (%)", "F_E (kWh)");
        for (i, k) in KS.into_iter().enumerate() {
            let s = &summaries[d * KS.len() + i];
            println!(
                "{:<4} | {:>16} | {:>22}",
                k,
                s.fce.format(2),
                s.fe.format(1)
            );
        }
        println!();
    }
}
