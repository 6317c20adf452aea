//! Ablation (extension): how the Amortization Plan formula shapes the
//! outcome. Runs the Energy Planner under LAF (uniform), BLAF (paper's
//! balloon, literal Eq. 4), the budget-conserving balloon variant, and EAF
//! (ECP-shaped) on the flat dataset, with and without budget carry-over.
//!
//! The eight (formula × carry-over) cells are independent planning runs
//! and fan out over `--jobs N` workers (default: all
//! cores); results are byte-identical for every worker count.
//!
//! The design point this documents: with strict per-hour caps (no
//! carry-over) only EAF's seasonal shaping keeps peak winter rule-hours
//! affordable; with carry-over the formulas converge because the reserve
//! smooths intra-day peaks. This is the DESIGN.md §5 rationale for the
//! default EAF + carry-over configuration.

use imcf_bench::harness::{build_bundles, jobs};
use imcf_core::amortization::ApKind;
use imcf_core::init::InitStrategy;
use imcf_core::optimizer::HillClimbing;
use imcf_core::planner::{EnergyPlanner, PlanReport};
use imcf_sim::building::DatasetKind;
use imcf_sim::slots::SlotBuilder;

fn main() {
    let jobs = jobs();
    imcf_telemetry::global().reset();
    println!("=== Ablation: amortization formula × carry-over (flat, jobs = {jobs}) ===\n");
    let bundles = build_bundles(&[DatasetKind::Flat], 0, jobs);
    let bundle = &bundles[0];
    let formulas: Vec<(&str, ApKind)> = vec![
        ("LAF", ApKind::Laf),
        ("BLAF (Eq.4)", ApKind::blaf_april_to_october(0.3)),
        (
            "BLAF conserving",
            ApKind::BlafConserving {
                pi: 0.3,
                balloon_months: (4..=10).collect(),
            },
        ),
        ("EAF", ApKind::Eaf),
    ];

    let cells: Vec<(ApKind, bool)> = formulas
        .iter()
        .flat_map(|(_, ap)| [(ap.clone(), true), (ap.clone(), false)])
        .collect();
    let reports: Vec<PlanReport> = imcf_pool::map_indexed(jobs, cells, |_, (ap, carry)| {
        let plan = bundle.plan(ap, 0.0);
        let builder = SlotBuilder::new(&bundle.dataset, &plan);
        let planner =
            EnergyPlanner::with_optimizer(HillClimbing::new(2, 100), InitStrategy::AllOnes, 0);
        let planner = if carry {
            planner
        } else {
            planner.without_carry_over()
        };
        planner.plan(builder.iter())
    });

    println!(
        "{:<16} | {:>10} | {:>12} || {:>10} | {:>12}",
        "formula", "F_CE (%)", "F_E (kWh)", "F_CE (%)", "F_E (kWh)"
    );
    println!(
        "{:<16} | {:^25} || {:^25}",
        "", "with carry-over", "strict hourly caps"
    );
    for (f, (name, _)) in formulas.iter().enumerate() {
        let rc = &reports[2 * f];
        let rs = &reports[2 * f + 1];
        println!(
            "{:<16} | {:>10.3} | {:>12.1} || {:>10.3} | {:>12.1}",
            name,
            rc.fce_percent(),
            rc.fe_kwh(),
            rs.fce_percent(),
            rs.fe_kwh()
        );
    }
}
