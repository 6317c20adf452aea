//! Ablation (extension): forecast-shaped hourly budgets vs monthly EAF.
//!
//! `ablation_amortization` showed that strict per-hour caps collapse every
//! monthly formula (a cold night's preheat never fits the mean hourly
//! allowance). Two remedies exist: carry-over (the runtime fix — bank
//! unspent budget) and *lookahead* (the planning fix — shape each hour's
//! allowance like the forecast demand). This experiment quantifies both on
//! the flat dataset: a seasonal-naive demand forecast trained on the first
//! year shapes the budget for the remaining horizon.
//!
//! The forecast-training probe is a shared sequential prefix; the four
//! (plan × carry-over) evaluation cells then fan out over `--jobs N`
//! workers (default: all cores); results are
//! byte-identical for every worker count.

use imcf_bench::harness::{build_bundles, jobs};
use imcf_core::amortization::ApKind;
use imcf_core::calendar::HOURS_PER_YEAR;
use imcf_core::forecast::HourlyProfile;
use imcf_core::init::InitStrategy;
use imcf_core::optimizer::HillClimbing;
use imcf_core::planner::{EnergyPlanner, PlanReport};
use imcf_sim::building::DatasetKind;
use imcf_sim::slots::SlotBuilder;

fn main() {
    let jobs = jobs();
    imcf_telemetry::global().reset();
    println!("=== Ablation: forecast-shaped hourly budgets (flat, jobs = {jobs}) ===\n");
    let bundles = build_bundles(&[DatasetKind::Flat], 0, jobs);
    let bundle = &bundles[0];
    let dataset = &bundle.dataset;

    // Train the demand forecaster on year one's MR needs (what the rules
    // would cost if all executed).
    let probe_plan = bundle.plan(ApKind::Eaf, 0.0);
    let probe = SlotBuilder::new(dataset, &probe_plan);
    let training: Vec<f64> = (0..HOURS_PER_YEAR)
        .map(|h| probe.slot_at(h).max_energy())
        .collect();
    // Weekly seasonality (24 × 7) captures both diurnal and day-to-day
    // variation in the training year.
    let profile = HourlyProfile::seasonal_naive(&training, 24 * 7, dataset.horizon_hours as usize);
    let forecast_plan = profile.into_plan(
        bundle.ecp.clone(),
        dataset.budget_kwh,
        dataset.horizon_hours,
        dataset.calendar(),
    );
    let eaf_plan = bundle.plan(ApKind::Eaf, 0.0);

    let names = ["EAF (monthly)", "forecast (hour-of-week)"];
    let cells: Vec<(usize, bool)> = (0..names.len())
        .flat_map(|p| [(p, true), (p, false)])
        .collect();
    let reports: Vec<(usize, bool, PlanReport)> =
        imcf_pool::map_indexed(jobs, cells, |_, (p, carry)| {
            let plan = if p == 0 { &eaf_plan } else { &forecast_plan };
            let builder = SlotBuilder::new(dataset, plan);
            let planner =
                EnergyPlanner::with_optimizer(HillClimbing::new(2, 100), InitStrategy::AllOnes, 0);
            let planner = if carry {
                planner
            } else {
                planner.without_carry_over()
            };
            (p, carry, planner.plan(builder.iter()))
        });

    println!(
        "{:<28} | {:>10} | {:>12} | {:>14}",
        "budget shaping", "F_CE (%)", "F_E (kWh)", "carry-over"
    );
    for (p, carry, r) in &reports {
        println!(
            "{:<28} | {:>10.3} | {:>12.1} | {:>14}",
            names[*p],
            r.fce_percent(),
            r.fe_kwh(),
            if *carry { "yes" } else { "no (strict)" }
        );
    }
    println!("\nReading: under strict caps, forecast shaping recovers energy throughput");
    println!("(≈2.5× the monthly formula) but not convenience — rules are all-or-nothing");
    println!("per hour, so any colder-than-forecast night still busts its cap and drops");
    println!("whole rules. Carry-over absorbs exactly those anomalies, which is why it,");
    println!("not sharper shaping, is the default (DESIGN.md §5).");
}
