//! The week-long prototype deployment (paper §III-F, Tables IV and V).
//!
//! The paper deployed IMCF for a three-person family for one week: each
//! resident entered ~3 meta-rules, one set a weekly energy limit of
//! 165 kWh, and environmental parameters came from the open weather API.
//! This module reproduces that deployment end-to-end in simulation:
//!
//! * weather from [`imcf_sim::weather::WeatherApi`] (the API substitute),
//! * a live thermal twin providing the unactuated ambient temperature,
//!   both folded into the week's slots by [`family_week`] (which the
//!   fair-share ablation reuses with the limit scaled),
//! * the full [`LocalController`] loop — planning, firewall enforcement,
//!   actuation, metering — ticked once per hour for 168 hours by a
//!   [`Deployment`],
//! * per-resident convenience attribution for the Table V breakdown.

use crate::controller::{ControllerConfig, ControllerError, LocalController};
use crate::deployment::Deployment;
use imcf_core::amortization::{AmortizationPlan, ApKind};
use imcf_core::calendar::PaperCalendar;
use imcf_core::candidate::PlanningSlot;
use imcf_core::ecp::Ecp;
use imcf_rules::action::Action;
use imcf_rules::meta_rule::MetaRule;
use imcf_rules::mrt::Mrt;
use imcf_rules::window::TimeWindow;
use imcf_sim::illuminance::RoomLight;
use imcf_sim::slots::{candidate, HourTables, Pricing};
use imcf_sim::thermal::RoomThermalModel;
use imcf_sim::weather::WeatherApi;
use imcf_telemetry::Stopwatch;
use serde::{Deserialize, Serialize};

/// Hours in the prototype deployment (one week).
pub const WEEK_HOURS: u64 = 7 * 24;

/// Prototype configuration. The planner runs with its default
/// parameters, seed 0 included.
#[derive(Debug, Clone, Copy)]
pub struct PrototypeConfig {
    /// Weather seed (the planner seed stays 0).
    pub seed: u64,
    /// The weekly energy limit one resident configured (paper: 165 kWh).
    pub weekly_budget_kwh: f64,
    /// 1-based month the week falls in (January default: winter loads).
    pub month: u32,
}

impl Default for PrototypeConfig {
    fn default() -> Self {
        PrototypeConfig {
            seed: 0,
            weekly_budget_kwh: 165.0,
            month: 1,
        }
    }
}

/// The prototype run's outcome (Tables IV and V).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrototypeOutcome {
    /// Energy consumed over the week, kWh (Table IV's F_E).
    pub fe_kwh: f64,
    /// Aggregate convenience error, percent (Table IV's F_CE).
    pub fce_percent: f64,
    /// Per-resident convenience error, percent (Table V).
    pub per_resident: Vec<(String, f64)>,
    /// Wall-clock planning+orchestration time, seconds.
    pub ft_seconds: f64,
    /// Ticks executed.
    pub ticks: u64,
    /// Commands delivered to devices.
    pub delivered: u64,
    /// Commands blocked by the firewall.
    pub blocked: u64,
}

/// The family's Meta-Rule Table: three residents × three rules plus the
/// weekly budget row (the paper: "each individual resident entered
/// approximately three different meta-rules … one of them set the weekly
/// energy consumption limit to 165 kWh").
pub fn family_mrt(weekly_budget_kwh: f64) -> Mrt {
    use Action::{SetLight as Light, SetTemperature as Temp};
    // (owner, rule, window start hour, window end hour, action)
    let rules = [
        ("father", "Evening comfort", 17, 23, Temp(24.0)),
        ("father", "Night temperature", 23, 8, Temp(21.5)),
        ("father", "Desk light", 18, 23, Light(50.0)),
        ("mother", "Morning warmth", 6, 10, Temp(23.5)),
        ("mother", "Day warmth", 10, 14, Temp(22.5)),
        ("mother", "Morning light", 6, 9, Light(40.0)),
        ("daughter", "Study light", 16, 20, Light(60.0)),
        ("daughter", "Afternoon warmth", 14, 17, Temp(23.5)),
        ("daughter", "Night lamp", 21, 23, Light(20.0)),
    ];
    let mut mrt = Mrt::new();
    for (owner, rule, from, to, action) in rules {
        let window = TimeWindow::hours(from, to);
        mrt.push(MetaRule::convenience(0, rule, window, action).owned_by(owner));
    }
    // The household budget row.
    mrt.push(MetaRule::budget(
        0,
        "Weekly limit",
        weekly_budget_kwh,
        WEEK_HOURS,
    ));
    mrt
}

/// The household's one zone.
const HOME: &str = "home";

/// The family's week of planning slots: the family MRT priced on the
/// flat's devices against a free-running thermal twin and the room's
/// perceived daylight, under a LAF plan of the weekly limit (a week has no
/// seasonal structure to shape against, so the limit spreads linearly).
pub fn family_week(config: &PrototypeConfig) -> Vec<PlanningSlot> {
    let calendar = PaperCalendar::starting_in(config.month);
    let weather = WeatherApi::new(
        imcf_traces::generator::ClimateModel::mediterranean(),
        calendar,
        config.seed,
    );
    let mrt = family_mrt(config.weekly_budget_kwh);
    let tables = HourTables::compile(&mrt);
    let pricing = Pricing::flat();
    let plan = AmortizationPlan::new(
        ApKind::Laf,
        Ecp::new(vec![config.weekly_budget_kwh]),
        config.weekly_budget_kwh,
        WEEK_HOURS,
        calendar,
    );
    // The free-running thermal twin provides the unactuated ambient.
    let mut twin = RoomThermalModel::flat(18.0);
    let room_light = RoomLight::typical();
    (0..WEEK_HOURS)
        .map(|h| {
            let sample = weather.sample(h);
            twin.step_free(sample.outdoor_c);
            let ambient_light = room_light.perceived(sample.daylight);
            let candidates = tables
                .at(calendar.hour_of_day(h))
                .iter()
                .filter_map(|rule| candidate(rule, HOME, twin.indoor_c, ambient_light, &pricing))
                .collect();
            PlanningSlot::new(h, candidates, plan.hourly_budget(h))
        })
        .collect()
}

/// Runs the week-long prototype deployment. Fails only if the household's
/// zone cannot be provisioned.
pub fn run_prototype(config: PrototypeConfig) -> Result<PrototypeOutcome, ControllerError> {
    let calendar = PaperCalendar::starting_in(config.month);
    let zones = [String::from(HOME)];
    let controller = LocalController::with_zones(ControllerConfig::default(), calendar, &zones)?;
    let mut deployment = Deployment::new(controller);

    let start = Stopwatch::start();
    let week = family_week(&config);
    let out = deployment.run(0..WEEK_HOURS, &zones, |h| week[h as usize].clone())?;

    Ok(PrototypeOutcome {
        fe_kwh: out.energy_kwh,
        fce_percent: out.fce_percent,
        per_resident: deployment.owners.table(),
        ft_seconds: start.elapsed().as_secs_f64(),
        ticks: out.ticks,
        delivered: out.delivered,
        blocked: out.blocked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_mrt_shape() {
        let mrt = family_mrt(165.0);
        assert_eq!(mrt.len(), 10);
        assert_eq!(mrt.droppable_rules().count(), 9);
        let (limit, horizon) = mrt.tightest_budget().unwrap();
        assert_eq!(limit, 165.0);
        assert_eq!(horizon, WEEK_HOURS);
        for owner in ["father", "mother", "daughter"] {
            assert_eq!(mrt.rules().iter().filter(|r| r.owner == owner).count(), 3);
        }
    }

    #[test]
    fn prototype_stays_under_the_weekly_limit() {
        let out = run_prototype(PrototypeConfig::default()).unwrap();
        assert!(out.fe_kwh <= 165.0 + 1e-6, "fe = {}", out.fe_kwh);
        assert!(out.fe_kwh > 20.0, "suspiciously low energy: {}", out.fe_kwh);
        assert_eq!(out.ticks, WEEK_HOURS);
        assert!(out.delivered > 0);
    }

    #[test]
    fn prototype_convenience_error_is_low() {
        let out = run_prototype(PrototypeConfig::default()).unwrap();
        assert!(out.fce_percent < 15.0, "fce = {}", out.fce_percent);
        assert_eq!(out.per_resident.len(), 3);
        for (owner, fce) in &out.per_resident {
            assert!(*fce < 20.0, "{owner}: {fce}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run_prototype(PrototypeConfig::default()).unwrap();
        let b = run_prototype(PrototypeConfig::default()).unwrap();
        assert_eq!(a.fe_kwh, b.fe_kwh);
        assert_eq!(a.fce_percent, b.fce_percent);
    }

    #[test]
    fn summer_week_costs_less_than_winter_week() {
        let winter = run_prototype(PrototypeConfig {
            month: 1,
            ..Default::default()
        })
        .unwrap();
        let summer = run_prototype(PrototypeConfig {
            month: 7,
            ..Default::default()
        })
        .unwrap();
        assert!(
            summer.fe_kwh < winter.fe_kwh,
            "summer {} vs winter {}",
            summer.fe_kwh,
            winter.fe_kwh
        );
    }
}
