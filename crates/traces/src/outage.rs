//! Sensor-outage injection (failure testing).
//!
//! Real deployments lose sensors: batteries die, Wi-Fi drops, a reading
//! goes stale for hours. The paper's controller keeps planning through such
//! gaps using the last value it saw. This module injects that failure mode
//! into hourly traces — deterministic, seeded outages during which a series
//! *freezes* at its last pre-outage value — so robustness tests can measure
//! how stale ambients degrade the planner.

use crate::series::{HourlySeries, Trace, ZoneTrace};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One sensor outage window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Outage {
    /// First affected hour.
    pub start: u64,
    /// Length in hours.
    pub hours: u64,
}

impl Outage {
    /// Whether an hour falls inside the outage.
    pub fn covers(&self, hour: u64) -> bool {
        hour >= self.start && hour < self.start + self.hours
    }
}

/// A deterministic outage schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutagePlan {
    outages: Vec<Outage>,
}

impl OutagePlan {
    /// Creates a plan from explicit windows (overlaps are fine).
    pub fn from_windows(outages: Vec<Outage>) -> Self {
        OutagePlan { outages }
    }

    /// Samples a plan: expected `rate_per_week` outages, each lasting
    /// 1..=`max_hours` hours, over `horizon_hours`. Deterministic per seed.
    pub fn sample(horizon_hours: u64, rate_per_week: f64, max_hours: u64, seed: u64) -> Self {
        assert!(max_hours >= 1, "outages last at least one hour");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let p_per_hour = (rate_per_week / (7.0 * 24.0)).clamp(0.0, 1.0);
        let mut outages = Vec::new();
        let mut h = 0;
        while h < horizon_hours {
            if rng.gen_bool(p_per_hour) {
                let len = rng.gen_range(1..=max_hours).min(horizon_hours - h);
                outages.push(Outage {
                    start: h,
                    hours: len,
                });
                h += len;
            } else {
                h += 1;
            }
        }
        OutagePlan { outages }
    }

    /// The outage windows.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// Total hours under outage (overlaps counted once).
    pub fn total_hours(&self, horizon: u64) -> u64 {
        (0..horizon).filter(|h| self.covers(*h)).count() as u64
    }

    /// Whether any outage covers the hour.
    pub fn covers(&self, hour: u64) -> bool {
        self.outages.iter().any(|o| o.covers(hour))
    }

    /// Applies the plan to a series: values inside outages freeze at the
    /// last healthy reading (or `fallback` when the outage starts at hour
    /// 0).
    pub fn apply_to_series(&self, series: &HourlySeries, fallback: f64) -> HourlySeries {
        let mut out = Vec::with_capacity(series.len());
        let mut last_good = fallback;
        for (h, v) in series.iter().enumerate() {
            if self.covers(h as u64) {
                out.push(last_good);
            } else {
                last_good = v;
                out.push(v);
            }
        }
        HourlySeries::new(out)
    }

    /// Applies the plan to every series of a zone.
    pub fn apply_to_zone(&self, zone: &ZoneTrace) -> ZoneTrace {
        ZoneTrace {
            zone: zone.zone.clone(),
            temperature: self.apply_to_series(&zone.temperature, 18.0),
            light: self.apply_to_series(&zone.light, 0.0),
            door_open: self.apply_to_series(&zone.door_open, 0.0),
        }
    }

    /// Applies the plan to every zone of a trace.
    pub fn apply_to_trace(&self, trace: &Trace) -> Trace {
        Trace::new(
            trace.calendar,
            trace.zones.iter().map(|z| self.apply_to_zone(z)).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{ClimateModel, TraceGenerator};
    use imcf_core::calendar::PaperCalendar;

    fn series() -> HourlySeries {
        HourlySeries::new((0..10).map(|h| h as f64).collect())
    }

    #[test]
    fn freeze_holds_last_good_value() {
        let plan = OutagePlan::from_windows(vec![Outage { start: 3, hours: 4 }]);
        let out = plan.apply_to_series(&series(), -1.0);
        assert_eq!(
            out.iter().collect::<Vec<_>>(),
            [0.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 7.0, 8.0, 9.0]
        );
    }

    #[test]
    fn outage_at_start_uses_fallback() {
        let plan = OutagePlan::from_windows(vec![Outage { start: 0, hours: 2 }]);
        let out = plan.apply_to_series(&series(), -1.0);
        assert_eq!(out.iter().take(3).collect::<Vec<_>>(), [-1.0, -1.0, 2.0]);
    }

    #[test]
    fn coverage_accounting() {
        let plan = OutagePlan::from_windows(vec![
            Outage { start: 2, hours: 3 },
            Outage { start: 4, hours: 2 }, // overlaps the first
        ]);
        assert_eq!(plan.total_hours(10), 4); // hours 2,3,4,5
        assert!(plan.covers(4));
        assert!(!plan.covers(6));
    }

    #[test]
    fn sampled_plans_are_deterministic_and_rate_plausible() {
        let horizon = 8 * 7 * 24; // 8 weeks
        let a = OutagePlan::sample(horizon, 2.0, 6, 7);
        let b = OutagePlan::sample(horizon, 2.0, 6, 7);
        assert_eq!(a, b);
        // Expected ≈16 outages over 8 weeks; allow a wide band.
        let n = a.outages().len();
        assert!((4..=40).contains(&n), "sampled {n} outages");
        for o in a.outages() {
            assert!(o.hours >= 1 && o.hours <= 6);
            assert!(o.start + o.hours <= horizon);
        }
    }

    #[test]
    fn zero_rate_means_no_outages() {
        let plan = OutagePlan::sample(1000, 0.0, 4, 1);
        assert!(plan.outages().is_empty());
    }

    #[test]
    fn zone_and_trace_application() {
        let g = TraceGenerator {
            climate: ClimateModel::mediterranean(),
            calendar: PaperCalendar::january_start(),
            horizon_hours: 48,
            seed: 3,
        };
        let trace = g.generate(&["a", "b"]);
        let plan = OutagePlan::from_windows(vec![Outage {
            start: 10,
            hours: 5,
        }]);
        let broken = plan.apply_to_trace(&trace);
        assert_eq!(broken.zone_count(), 2);
        let a = broken.zone("a").unwrap();
        let orig = trace.zone("a").unwrap();
        // Frozen inside the outage…
        for h in 10..15 {
            assert_eq!(a.temperature.at(h), orig.temperature.at(9));
        }
        // …healthy outside it.
        assert_eq!(a.temperature.at(20), orig.temperature.at(20));
    }
}
