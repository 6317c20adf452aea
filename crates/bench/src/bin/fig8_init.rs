//! Regenerates **Fig. 8** (Initialization Evaluation): F_CE and F_E of the
//! Energy Planner under the three initialization strategies — all-1s
//! (all rules activated), uniform random, all-0s (all deactivated) — on
//! all three datasets.
//!
//! The full (dataset × strategy × seed) grid fans out over `--jobs N`
//! workers (default: all cores); results are
//! byte-identical for every worker count.
//!
//! Expected shape (paper): moving all-1s → random → all-0s increases F_CE
//! and decreases F_E: a deactivated start needs more iterations to climb
//! toward the optimum, so bounded-τ searches end at lower-energy,
//! higher-error plans.

use imcf_bench::harness::{build_bundles, ep_sweep, jobs, repetitions, SweepPoint};
use imcf_core::amortization::ApKind;
use imcf_core::init::InitStrategy;
use imcf_core::planner::PlannerConfig;
use imcf_sim::building::DatasetKind;

const INITS: [InitStrategy; 3] = [
    InitStrategy::AllOnes,
    InitStrategy::Random,
    InitStrategy::AllZeros,
];

fn main() {
    let reps = repetitions();
    let jobs = jobs();
    imcf_telemetry::global().reset();
    let kinds = DatasetKind::all();
    println!("=== Fig. 8: Initialization Evaluation (EP reps = {reps}, jobs = {jobs}) ===\n");
    let bundles = build_bundles(&kinds, 0, jobs);
    let points: Vec<SweepPoint> = (0..kinds.len())
        .flat_map(|bundle| {
            INITS.into_iter().map(move |init| SweepPoint {
                bundle,
                config: PlannerConfig {
                    init,
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
        println!("{:<8} | {:>16} | {:>22}", "init", "F_CE (%)", "F_E (kWh)");
        for (i, init) in INITS.into_iter().enumerate() {
            let s = &summaries[d * INITS.len() + i];
            println!(
                "{:<8} | {:>16} | {:>22}",
                init.label(),
                s.fce.format(2),
                s.fe.format(1)
            );
        }
        println!();
    }
}
