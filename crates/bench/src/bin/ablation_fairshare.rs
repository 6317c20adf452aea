//! Ablation (extension): joint planning vs fair-share multi-planning on
//! the prototype family's workload (the Table V setting, extended to the
//! paper's future-work question of "multiple energy planners with
//! conflicting interests").
//!
//! The joint EP optimizes the household aggregate and may concentrate
//! drops on one resident; the fair-share planner gives every resident a
//! budget entitlement and redistributes leftovers, bounding the spread
//! between the best- and worst-served resident.

use imcf_controller::prototype::{family_week, PrototypeConfig};
use imcf_core::fairshare::{FairSharePlanner, ShareRule};
use imcf_core::planner::{EnergyPlanner, PlannerConfig};

fn main() {
    println!("=== Ablation: joint EP vs fair-share multi-planning (family week) ===\n");
    for tightness in [1.0, 0.5, 0.3] {
        // The prototype's week, with the weekly limit scaled.
        let slots = family_week(&PrototypeConfig {
            weekly_budget_kwh: 165.0 * tightness,
            ..PrototypeConfig::default()
        });
        println!(
            "--- budget factor {tightness} ({:.0} kWh for the week) ---",
            165.0 * tightness
        );

        let joint = EnergyPlanner::from_config(PlannerConfig::default()).plan(slots.clone());
        let joint_rows = joint.owners.table();
        let joint_spread = joint_rows
            .iter()
            .map(|(_, f)| *f)
            .fold(f64::NEG_INFINITY, f64::max)
            - joint_rows
                .iter()
                .map(|(_, f)| *f)
                .fold(f64::INFINITY, f64::min);

        let fair =
            FairSharePlanner::new(PlannerConfig::default(), ShareRule::Equal).plan(slots.clone());
        let prop =
            FairSharePlanner::new(PlannerConfig::default(), ShareRule::Proportional).plan(slots);

        println!(
            "{:<22} | {:>10} | {:>12} | {:>14}",
            "planner", "F_CE (%)", "F_E (kWh)", "owner spread"
        );
        println!(
            "{:<22} | {:>10.3} | {:>12.2} | {:>13.3}pp",
            "joint EP",
            joint.fce_percent(),
            joint.fe_kwh(),
            joint_spread
        );
        println!(
            "{:<22} | {:>10.3} | {:>12.2} | {:>13.3}pp",
            "fair-share (equal)",
            fair.fce_percent(),
            fair.energy_kwh,
            fair.fce_spread()
        );
        println!(
            "{:<22} | {:>10.3} | {:>12.2} | {:>13.3}pp",
            "fair-share (prop.)",
            prop.fce_percent(),
            prop.energy_kwh,
            prop.fce_spread()
        );
        println!("per-resident F_CE (fair-share equal):");
        for (owner, fce) in fair.owners.table() {
            println!(
                "  {:<10} {fce:.3} %",
                if owner.is_empty() {
                    "(household)"
                } else {
                    &owner
                }
            );
        }
        println!();
    }
}
