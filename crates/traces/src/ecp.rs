//! Deriving an Energy Consumption Profile from a trace.
//!
//! The paper's ECP (Table I) is the historical monthly consumption of the
//! residence. Given a trace and a per-hour consumption estimator (typically
//! the MRT schedule priced through the device energy models), this module
//! aggregates consumption into the 12-month January-first profile the
//! Amortization Plan consumes, averaging across the years the trace spans.

use crate::series::{Trace, ZoneTrace};
use imcf_core::calendar::{PaperDateTime, HOURS_PER_MONTH};
use imcf_core::ecp::Ecp;
use std::ops::Range;

/// Derives a 12-month ECP from a trace.
///
/// `hourly_kwh(zone_index, zone, hour_index, at)` estimates the consumption
/// of `trace.zones[zone_index]` during one hour, `at` being that hour on the
/// trace's calendar (e.g. the cost of executing the MRT rules active then).
/// Months observed multiple times (multi-year traces) are averaged; months
/// never observed get the overall monthly mean so the profile stays
/// total-safe. The months are summed on the available cores.
pub fn derive_ecp<F>(trace: &Trace, hourly_kwh: F) -> Ecp
where
    F: Fn(usize, &ZoneTrace, u64, PaperDateTime) -> f64 + Sync,
{
    derive_ecp_on(imcf_pool::available_jobs(), trace, hourly_kwh)
}

/// [`derive_ecp`] with its month sums on `jobs` workers.
fn derive_ecp_on<F>(jobs: usize, trace: &Trace, hourly_kwh: F) -> Ecp
where
    F: Fn(usize, &ZoneTrace, u64, PaperDateTime) -> f64 + Sync,
{
    let horizon = trace.horizon_hours();
    // Hour 0 starts a month and every month is HOURS_PER_MONTH hours, so
    // the hours of each month of the year are runs of whole months of the
    // horizon, the last one cut short where the horizon ends.
    let mut runs: [Vec<Range<u64>>; 12] = Default::default();
    for start in (0..horizon).step_by(HOURS_PER_MONTH as usize) {
        let at = trace.calendar.decompose(start);
        debug_assert_eq!((at.day, at.hour), (1, 0), "months start at hour 0");
        runs[at.month as usize - 1].push(start..(start + HOURS_PER_MONTH).min(horizon));
    }
    // One addition chain per observed month: from 0.0, its hours in
    // increasing order, each decomposed once for all zones, and each
    // hour's zones in order. Those are the additions an hour-major loop
    // makes into that month's sum, so the profile's bits, which callers
    // pin (imcf-sim's `dataset_golden` test), do not depend on `jobs`. One
    // zone, or one observed month, stays inline: too little to pay for
    // threads.
    let jobs = if trace.zones.len() > 1 { jobs } else { 1 };
    let observed: Vec<_> = runs
        .iter()
        .enumerate()
        .filter(|(_, month_runs)| !month_runs.is_empty())
        .collect();
    let chains = imcf_pool::map_indexed(jobs, observed, |_, (month, runs)| {
        (month, month_sum(trace, runs, &hourly_kwh))
    });
    let mut sums = [0.0f64; 12];
    for (month, sum) in chains {
        sums[month] = sum;
    }
    let hours_seen = runs.map(|month_runs| {
        month_runs
            .iter()
            .map(|run| run.end - run.start)
            .sum::<u64>()
    });
    // Convert to a per-month figure: observed total divided by the number of
    // times the month was observed (hours / 744).
    let mut monthly = [0.0f64; 12];
    let mut observed_total = 0.0;
    let mut observed_count = 0u32;
    for m in 0..12 {
        if hours_seen[m] > 0 {
            let occurrences = hours_seen[m] as f64 / HOURS_PER_MONTH as f64;
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

/// One month's addition chain over its `runs` of hours. A function of its
/// own rather than the body of `map_indexed`'s closure: compiled as that
/// body, the same loop pinned to one core of an x86-64 host ran the dorms
/// MR-ECP about 15 % slower than the hour-major loop; as a function it
/// runs as fast.
fn month_sum<F>(trace: &Trace, runs: &[Range<u64>], hourly_kwh: &F) -> f64
where
    F: Fn(usize, &ZoneTrace, u64, PaperDateTime) -> f64,
{
    let mut sum = 0.0f64;
    for run in runs {
        for h in run.clone() {
            let at = trace.calendar.decompose(h);
            for (i, z) in trace.zones.iter().enumerate() {
                sum += hourly_kwh(i, z, h, at);
            }
        }
    }
    sum
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

    /// `derive_ecp` as an hour-major loop: each hour decomposed, its zones
    /// summed in order into its month's running sum, then averaged and
    /// filled the same way.
    fn hour_major<F>(trace: &Trace, hourly_kwh: F) -> Ecp
    where
        F: Fn(usize, &ZoneTrace, u64, PaperDateTime) -> f64,
    {
        let mut sums = [0.0f64; 12];
        let mut hours_seen = [0u64; 12];
        for h in 0..trace.horizon_hours() {
            let at = trace.calendar.decompose(h);
            let month = at.month as usize - 1;
            hours_seen[month] += 1;
            let mut sum = sums[month];
            for (i, z) in trace.zones.iter().enumerate() {
                sum += hourly_kwh(i, z, h, at);
            }
            sums[month] = sum;
        }
        let mut monthly = [0.0f64; 12];
        let mut observed_total = 0.0;
        let mut observed_count = 0u32;
        for m in 0..12 {
            if hours_seen[m] > 0 {
                monthly[m] = sums[m] / (hours_seen[m] as f64 / HOURS_PER_MONTH as f64);
                observed_total += monthly[m];
                observed_count += 1;
            }
        }
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

    /// Inline and on worker threads, whatever cores the machine has, every
    /// month has the hour-major loop's bits. The cost reads every field
    /// of the zone index, the hour and its decomposition, and weights the
    /// zones unequally, so an hour, a zone or an addition out of order
    /// moves some month's last bits.
    #[test]
    fn the_month_chains_keep_the_hour_major_bits_on_any_worker_count() {
        let cost = |i: usize, z: &ZoneTrace, h: u64, at: PaperDateTime| {
            z.temperature.at(h) * (1.0 + 0.37 * i as f64)
                + z.light.at(h) * 1e-3
                + f64::from(at.month) * 1e-4
                + at.year as f64 * 1e-5
                + f64::from(at.day) * 1e-6
                + f64::from(at.hour) * 1e-7
        };
        let zones = ["z0", "z1", "z2", "z3", "z4"];
        // (first month, hours, zones): whole years, horizons ending
        // mid-month, horizons shorter than a year (unobserved months take
        // the mean), one observed month, one zone, and empty traces.
        let cases: [(u32, u64, &[&str]); 8] = [
            (1, HOURS_PER_YEAR, &zones),
            (10, HOURS_PER_YEAR + 300, &zones),
            (1, 2 * HOURS_PER_YEAR + 1_000, &zones),
            (10, 3 * HOURS_PER_MONTH + 100, &zones),
            (1, 500, &zones),
            (10, HOURS_PER_YEAR + HOURS_PER_MONTH, &zones[..1]),
            (10, 0, &zones),
            (1, HOURS_PER_YEAR, &[]),
        ];
        for (start_month, hours, names) in cases {
            let g = TraceGenerator {
                climate: ClimateModel::mediterranean(),
                calendar: PaperCalendar::starting_in(start_month),
                horizon_hours: hours,
                seed: hours,
            };
            let trace = g.generate(names);
            let want = hour_major(&trace, cost);
            for jobs in [1, 4] {
                let got = derive_ecp_on(jobs, &trace, cost);
                for m in 1..=12 {
                    let (got, want) = (got.month_kwh(m), want.month_kwh(m));
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "month {m} of {hours} hours from month {start_month} over \
                         {} zones at jobs = {jobs}: {got} vs {want}",
                        names.len()
                    );
                }
            }
        }
    }
}
