//! Deriving an Energy Consumption Profile from a trace.
//!
//! The paper's ECP (Table I) is the historical monthly consumption of the
//! residence. Given a trace and a per-hour consumption estimator (typically
//! the MRT schedule priced through the device energy models), this module
//! aggregates consumption into the 12-month January-first profile the
//! Amortization Plan consumes, averaging across the years the trace spans.

use crate::series::{Trace, ZoneTrace};
use imcf_core::calendar::PaperDateTime;
use imcf_core::ecp::Ecp;

/// Derives a 12-month ECP from a trace.
///
/// `hourly_kwh(zone_index, zone, hour_index, at)` estimates the consumption
/// of `trace.zones[zone_index]` during one hour, `at` being that hour on the
/// trace's calendar (e.g. the cost of executing the MRT rules active then).
/// Months observed multiple times (multi-year traces) are averaged; months
/// never observed get the overall monthly mean so the profile stays
/// total-safe.
pub fn derive_ecp<F>(trace: &Trace, hourly_kwh: F) -> Ecp
where
    F: Fn(usize, &ZoneTrace, u64, PaperDateTime) -> f64,
{
    let mut sums = [0.0f64; 12];
    let mut hours_seen = [0u64; 12];
    let horizon = trace.horizon_hours();
    // Hour-major, zones in order: this summation order fixes the profile's
    // bits, which callers pin (imcf-sim's `dataset_golden` test). Each hour
    // is decomposed once, for all zones. Its month's sum stays in a local
    // across them: added in place, every add waited on the previous store.
    for h in 0..horizon {
        let at = trace.calendar.decompose(h);
        let month = at.month as usize - 1;
        hours_seen[month] += 1;
        let mut sum = sums[month];
        for (i, z) in trace.zones.iter().enumerate() {
            sum += hourly_kwh(i, z, h, at);
        }
        sums[month] = sum;
    }
    // Convert to a per-month figure: observed total divided by the number of
    // times the month was observed (hours / 744).
    let mut monthly = [0.0f64; 12];
    let mut observed_total = 0.0;
    let mut observed_count = 0u32;
    for m in 0..12 {
        if hours_seen[m] > 0 {
            let occurrences = hours_seen[m] as f64 / imcf_core::calendar::HOURS_PER_MONTH as f64;
            monthly[m] = sums[m] / occurrences;
            observed_total += monthly[m];
            observed_count += 1;
        }
    }
    // Fill unobserved months with the mean of observed ones.
    let fill = if observed_count > 0 {
        observed_total / observed_count as f64
    } else {
        0.0
    };
    for m in 0..12 {
        if hours_seen[m] == 0 {
            monthly[m] = fill;
        }
    }
    Ecp::new(monthly.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{ClimateModel, TraceGenerator};
    use crate::series::{HourlySeries, ZoneTrace};
    use imcf_core::calendar::{PaperCalendar, HOURS_PER_MONTH, HOURS_PER_YEAR};

    #[test]
    fn constant_cost_yields_uniform_profile() {
        let g = TraceGenerator {
            climate: ClimateModel::mediterranean(),
            calendar: PaperCalendar::january_start(),
            horizon_hours: HOURS_PER_YEAR,
            seed: 0,
        };
        let trace = g.generate(&["flat"]);
        let ecp = derive_ecp(&trace, |_, _, _, _| 0.5);
        for m in 1..=12 {
            assert!((ecp.month_kwh(m) - 0.5 * HOURS_PER_MONTH as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn gap_cost_is_winter_heavy() {
        let g = TraceGenerator {
            climate: ClimateModel::mediterranean(),
            calendar: PaperCalendar::january_start(),
            horizon_hours: HOURS_PER_YEAR,
            seed: 1,
        };
        let trace = g.generate(&["flat"]);
        // Heating toward 23°C: cost proportional to the deficiency.
        let ecp = derive_ecp(&trace, |_, z, h, _| {
            (23.0 - z.temperature.at(h)).max(0.0) * 0.05
        });
        assert!(
            ecp.month_kwh(1) > 2.0 * ecp.month_kwh(7),
            "jan {} vs jul {}",
            ecp.month_kwh(1),
            ecp.month_kwh(7)
        );
    }

    #[test]
    fn multi_year_months_average() {
        // Two years of constant cost still yields one month's worth.
        let g = TraceGenerator {
            climate: ClimateModel::mediterranean(),
            calendar: PaperCalendar::january_start(),
            horizon_hours: 2 * HOURS_PER_YEAR,
            seed: 0,
        };
        let trace = g.generate(&["flat"]);
        let ecp = derive_ecp(&trace, |_, _, _, _| 1.0);
        assert!((ecp.month_kwh(3) - HOURS_PER_MONTH as f64).abs() < 1e-6);
    }

    #[test]
    fn unobserved_months_get_the_mean() {
        // A trace covering only January.
        let zone = ZoneTrace {
            zone: "flat".into(),
            temperature: HourlySeries::new(vec![10.0; HOURS_PER_MONTH as usize]),
            light: HourlySeries::new(vec![0.0; HOURS_PER_MONTH as usize]),
            door_open: HourlySeries::new(vec![0.0; HOURS_PER_MONTH as usize]),
        };
        let trace = Trace::new(PaperCalendar::january_start(), vec![zone]);
        let ecp = derive_ecp(&trace, |_, _, _, _| 1.0);
        let jan = ecp.month_kwh(1);
        assert!((jan - HOURS_PER_MONTH as f64).abs() < 1e-6);
        // Every other month inherits January's figure (the mean of one).
        for m in 2..=12 {
            assert!((ecp.month_kwh(m) - jan).abs() < 1e-6);
        }
    }

    #[test]
    fn multi_zone_costs_add() {
        let g = TraceGenerator {
            climate: ClimateModel::mediterranean(),
            calendar: PaperCalendar::january_start(),
            horizon_hours: HOURS_PER_MONTH,
            seed: 0,
        };
        let one = derive_ecp(&g.generate(&["a"]), |_, _, _, _| 1.0);
        let two = derive_ecp(&g.generate(&["a", "b"]), |_, _, _, _| 1.0);
        assert!((two.month_kwh(1) - 2.0 * one.month_kwh(1)).abs() < 1e-6);
    }
}
