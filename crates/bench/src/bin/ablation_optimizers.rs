//! Ablation (extension): the paper notes "any heuristic or meta-heuristic
//! approach can be utilized in the EP optimization step". This experiment
//! compares the paper's hill climbing against simulated annealing and —
//! on slots small enough to enumerate — the exhaustive oracle, measuring
//! how close each heuristic gets to the per-slot optimum.
//!
//! Each (dataset × optimizer) cell is an independent full planning run, so
//! the six cells fan out over `--jobs N` workers (default: all cores);
//! results are byte-identical for every worker count.

use imcf_bench::harness::{build_bundles, jobs};
use imcf_core::amortization::ApKind;
use imcf_core::init::InitStrategy;
use imcf_core::optimizer::{ExhaustiveOracle, HillClimbing, SimulatedAnnealing};
use imcf_core::planner::{EnergyPlanner, PlanReport};
use imcf_sim::building::DatasetKind;
use imcf_sim::slots::SlotBuilder;

const OPTIMIZERS: [&str; 3] = ["hill-climbing", "simulated-annealing", "exhaustive-oracle"];

fn main() {
    let jobs = jobs();
    imcf_telemetry::global().reset();
    println!("=== Ablation: optimizer choice (flat & house, jobs = {jobs}) ===\n");
    let kinds = [DatasetKind::Flat, DatasetKind::House];
    let bundles = build_bundles(&kinds, 0, jobs);

    let cells: Vec<(usize, usize)> = (0..kinds.len())
        .flat_map(|d| (0..OPTIMIZERS.len()).map(move |o| (d, o)))
        .collect();
    let reports: Vec<PlanReport> = imcf_pool::map_indexed(jobs, cells, |_, (d, o)| {
        let bundle = &bundles[d];
        let plan = bundle.plan(ApKind::Eaf, 0.0);
        let builder = SlotBuilder::new(&bundle.dataset, &plan);
        match o {
            0 => EnergyPlanner::with_optimizer(HillClimbing::new(2, 100), InitStrategy::AllOnes, 0)
                .plan(builder.iter()),
            1 => EnergyPlanner::with_optimizer(
                SimulatedAnnealing::new(2, 100, 0.5, 0.95),
                InitStrategy::AllOnes,
                0,
            )
            .plan(builder.iter()),
            // The oracle enumerates 2^droppable per slot — flat and house
            // slots stay well under the 20-component limit.
            _ => EnergyPlanner::with_optimizer(ExhaustiveOracle, InitStrategy::AllOnes, 0)
                .plan(builder.iter()),
        }
    });

    for (d, kind) in kinds.into_iter().enumerate() {
        println!("--- {} ---", kind.label());
        println!(
            "{:<20} | {:>10} | {:>14} | {:>10}",
            "optimizer", "F_CE (%)", "F_E (kWh)", "F_T (s)"
        );
        for (o, name) in OPTIMIZERS.into_iter().enumerate() {
            let r = &reports[d * OPTIMIZERS.len() + o];
            println!(
                "{:<20} | {:>10.3} | {:>14.1} | {:>10.3}",
                name,
                r.fce_percent(),
                r.fe_kwh(),
                r.ft_seconds()
            );
        }
        println!();
    }
}
