//! Closed-loop control: the planner drives a *live* thermal environment
//! where actuation has consequences — a heated room stays warm into the
//! next hour, so the counterfactual twin (what the room would have been
//! without IMCF) steadily diverges from the controlled room.
//!
//! A three-zone home runs for three January days under a tight daily
//! budget; we print one line per day plus the firewall's verdict counters.
//!
//! Run with: `cargo run --release --example closed_loop`

use imcf::core::calendar::PaperCalendar;
use imcf::core::candidate::PlanningSlot;
use imcf::core::{EnergyPlanner, PlannerConfig};
use imcf::rules::mrt::Mrt;
use imcf::sim::engine::{Actuations, LiveSimulation, LiveZone};
use imcf::sim::slots::{candidate, HourTables, Pricing};
use imcf::sim::weather::WeatherApi;
use imcf::traces::generator::ClimateModel;

fn main() {
    let calendar = PaperCalendar::january_start();
    let zones = ["living", "bedroom", "study"];
    let mut sim = LiveSimulation::new(
        zones
            .iter()
            .map(|z| LiveZone::flat_calibrated(z, 14.0))
            .collect(),
        WeatherApi::new(ClimateModel::mediterranean(), calendar, 11),
        calendar,
    );

    // Every zone runs the paper's Table II preferences.
    let mrt = Mrt::flat_table2(11_000.0);
    let tables = HourTables::compile(&mrt);
    let pricing = Pricing::flat();

    // A deliberately tight allowance: 0.9 kWh per hour for the whole home.
    let hourly_budget = 0.9;
    let planner = EnergyPlanner::from_config(PlannerConfig::default());
    let mut rng = planner.rng();

    let mut daily_energy = 0.0;
    let mut daily_comfort_gap = 0.0;
    let mut reserve = 0.0f64;
    println!(
        "{:<6} {:>12} {:>22}",
        "day", "energy kWh", "mean room-vs-twin (°C)"
    );
    for h in 0..72u64 {
        let hour_of_day = calendar.hour_of_day(h);

        // Build the slot from the live ambients.
        let mut candidates = Vec::new();
        for zone in &zones {
            let (ambient_c, ambient_light) = sim.ambient_preview(zone).expect("zone exists");
            candidates.extend(
                tables
                    .at(hour_of_day)
                    .iter()
                    .filter_map(|rule| candidate(rule, zone, ambient_c, ambient_light, &pricing)),
            );
        }
        let slot = PlanningSlot::new(h, candidates, hourly_budget + reserve);
        let (bits, spent) = planner.plan_slot(&slot, &mut rng);
        reserve = (slot.budget_kwh - spent).max(0.0);

        // Apply the adopted candidates to the live environment.
        let mut actuations = Actuations::new();
        for (c, adopted) in slot.candidates.iter().zip(bits.iter()) {
            if adopted {
                actuations.insert((c.zone.clone(), c.device_class), c.desired);
            }
        }
        let report = sim.step(&actuations);
        daily_energy += report.energy_kwh;
        daily_comfort_gap += report
            .zones
            .iter()
            .map(|z| z.indoor_c - z.ambient_c)
            .sum::<f64>()
            / zones.len() as f64;

        if hour_of_day == 23 {
            let day = h / 24 + 1;
            println!(
                "{:<6} {:>12.2} {:>22.2}",
                day,
                daily_energy,
                daily_comfort_gap / 24.0
            );
            daily_energy = 0.0;
            daily_comfort_gap = 0.0;
        }
    }
    println!(
        "\n3-day total: {:.1} kWh metered (allowance {:.1} kWh); the warm gap is comfort IMCF bought",
        sim.meter().total_kwh(),
        72.0 * hourly_budget
    );
}
