//! The climate-driven trace synthesizer.
//!
//! Replaces the CASAS apartment traces with a calibrated stochastic model
//! (DESIGN.md §1). Each zone's series are produced from:
//!
//! * a **seasonal outdoor temperature** (per-month means for a
//!   Mediterranean climate, matching the Cyprus deployment of the paper's
//!   prototype),
//! * a **diurnal swing** (coldest pre-dawn, warmest mid-afternoon),
//! * **AR(1) weather noise** (persistent day-to-day anomalies),
//! * **thermal moderation** mapping outdoor to *indoor unactuated*
//!   temperature (buildings are milder than the street),
//! * a **daylight curve** with month-dependent day length and per-day cloud
//!   attenuation, and
//! * sparse **door-opening events** during waking hours.
//!
//! Everything is deterministic under `(seed, zone)`.

use crate::reading::{SensorKind, SensorReading};
use crate::series::{HourlySeries, Trace, ZoneTrace};
use imcf_core::calendar::{PaperCalendar, HOURS_PER_DAY};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The climate parameters driving trace synthesis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClimateModel {
    /// Mean outdoor temperature per month (January first), °C.
    pub monthly_mean_c: [f64; 12],
    /// Half-amplitude of the diurnal outdoor swing, °C.
    pub diurnal_amp_c: f64,
    /// AR(1) persistence of the daily anomaly, in [0, 1).
    pub anomaly_persistence: f64,
    /// Standard deviation of the daily anomaly innovations, °C.
    pub anomaly_std_c: f64,
    /// Mixing factor: indoor = mix·outdoor + (1 − mix)·indoor_base.
    pub indoor_mix: f64,
    /// The building's thermal anchor, °C.
    pub indoor_base_c: f64,
    /// Peak indoor daylight level on a clear day, 0–100.
    pub peak_daylight: f64,
    /// Mean day length per month, hours (January first).
    pub day_length_h: [f64; 12],
    /// Expected door openings per day.
    pub door_openings_per_day: f64,
}

impl ClimateModel {
    /// A Mediterranean climate (Cyprus-like), the calibration used by the
    /// benchmark datasets.
    pub fn mediterranean() -> Self {
        ClimateModel {
            monthly_mean_c: [
                10.0, 10.5, 13.0, 17.0, 21.5, 26.0, 29.0, 29.0, 26.0, 21.5, 16.0, 12.0,
            ],
            diurnal_amp_c: 4.5,
            anomaly_persistence: 0.7,
            anomaly_std_c: 1.6,
            indoor_mix: 0.72,
            indoor_base_c: 16.0,
            peak_daylight: 75.0,
            day_length_h: [
                9.8, 10.8, 12.0, 13.2, 14.2, 14.6, 14.4, 13.5, 12.4, 11.2, 10.2, 9.5,
            ],
            door_openings_per_day: 6.0,
        }
    }

    /// A colder continental climate (for sensitivity experiments).
    pub fn continental() -> Self {
        ClimateModel {
            monthly_mean_c: [
                -2.0, 0.0, 5.0, 11.0, 16.0, 20.0, 23.0, 22.0, 17.0, 11.0, 4.0, -1.0,
            ],
            ..Self::mediterranean()
        }
    }

    /// Outdoor temperature at `(month, hour_of_day)` before the day's
    /// anomaly is added.
    fn outdoor_c(&self, month: u32, hour_of_day: u32) -> f64 {
        let mean = self.monthly_mean_c[(month as usize - 1) % 12];
        // Coldest around 05:00, warmest around 15:00.
        let phase = (hour_of_day as f64 - 15.0) / 24.0 * std::f64::consts::TAU;
        mean + self.diurnal_amp_c * phase.cos()
    }

    /// Indoor unactuated temperature from outdoor.
    fn indoor_c(&self, outdoor: f64) -> f64 {
        self.indoor_mix * outdoor + (1.0 - self.indoor_mix) * self.indoor_base_c
    }

    /// Indoor daylight level at `(month, hour_of_day)` on a clear day,
    /// before the cloud factor; `None` after dark.
    fn daylight(&self, month: u32, hour_of_day: u32) -> Option<f64> {
        let day_len = self.day_length_h[(month as usize - 1) % 12];
        let sunrise = 12.5 - day_len / 2.0;
        let sunset = 12.5 + day_len / 2.0;
        let h = hour_of_day as f64 + 0.5;
        if h < sunrise || h > sunset {
            return None;
        }
        let x = (h - sunrise) / day_len * std::f64::consts::PI;
        Some(self.peak_daylight * x.sin())
    }

    /// [`Self::outdoor_c`] and [`Self::daylight`] for every
    /// `(month, hour_of_day)`, January first: the part of each hour that
    /// does not depend on the day's weather.
    fn hour_table(&self) -> [[(f64, Option<f64>); 24]; 12] {
        std::array::from_fn(|m| {
            std::array::from_fn(|h| {
                let (month, hour) = (m as u32 + 1, h as u32);
                (self.outdoor_c(month, hour), self.daylight(month, hour))
            })
        })
    }
}

/// Deterministic trace synthesizer.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    /// Climate parameters.
    pub climate: ClimateModel,
    /// Calendar anchoring hour 0.
    pub calendar: PaperCalendar,
    /// Horizon length in hours.
    pub horizon_hours: u64,
    /// Master seed; zone seeds derive from it.
    pub seed: u64,
}

impl TraceGenerator {
    /// A generator over the paper's 39-month horizon (October 2013 →
    /// December 2016) under the Mediterranean calibration.
    pub fn casas_like(seed: u64) -> Self {
        TraceGenerator {
            climate: ClimateModel::mediterranean(),
            calendar: PaperCalendar::starting_in(10),
            horizon_hours: 39 * imcf_core::calendar::HOURS_PER_MONTH,
            seed,
        }
    }

    fn zone_rng(&self, zone: &str) -> ChaCha8Rng {
        // Mix the zone name into the master seed deterministically.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in zone.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        ChaCha8Rng::seed_from_u64(h)
    }

    /// Generates the hourly series for one zone.
    pub fn generate_zone(&self, zone: &str) -> ZoneTrace {
        self.zone_trace(zone, &self.climate.hour_table())
    }

    /// [`Self::generate_zone`] over `hours`, this climate's
    /// [`ClimateModel::hour_table`], which a multi-zone trace builds once.
    ///
    /// The loop steps by day. Months are whole days and the horizon starts
    /// at midnight, so each day decomposes once, draws its weather, and
    /// reads one month's row of the hour table; the last day is partial
    /// when the horizon ends mid-day. The draws keep one order, which fixes
    /// the series' bits: the day's anomaly and clouds at midnight, then each
    /// hour's temperature noise and, in waking hours, its door draws.
    fn zone_trace(&self, zone: &str, hours: &[[(f64, Option<f64>); 24]; 12]) -> ZoneTrace {
        let mut rng = self.zone_rng(zone);
        let n = self.horizon_hours as usize;
        let mut temperature = Vec::with_capacity(n);
        let mut light = Vec::with_capacity(n);
        let mut door = Vec::with_capacity(n);

        let mut anomaly = 0.0f64;
        // Small fixed per-zone offsets make replicated zones distinct.
        let zone_temp_offset: f64 = rng.gen_range(-0.8..0.8);
        let zone_light_factor: f64 = rng.gen_range(0.85..1.0);
        let door_p = (self.climate.door_openings_per_day / 16.0).clamp(0.0, 1.0);

        for day_start in (0..self.horizon_hours).step_by(HOURS_PER_DAY as usize) {
            let dt = self.calendar.decompose(day_start);
            debug_assert_eq!(dt.hour, 0, "days start at midnight");
            // New day: evolve the weather anomaly and redraw clouds.
            let innovation: f64 = rng.gen_range(-1.0..1.0) * self.climate.anomaly_std_c * 1.7;
            anomaly = self.climate.anomaly_persistence * anomaly + innovation;
            let cloud = rng.gen_range(0.35..1.0f64);
            let day_hours = (self.horizon_hours - day_start).min(HOURS_PER_DAY) as usize;
            let row = &hours[dt.month as usize - 1][..day_hours];
            for (hour, &(outdoor, clear_daylight)) in row.iter().enumerate() {
                let indoor = self.climate.indoor_c(outdoor + anomaly) + zone_temp_offset;
                temperature.push(indoor + rng.gen_range(-0.2..0.2));
                let daylight = clear_daylight.map_or(0.0, |l| (l * cloud).clamp(0.0, 100.0));
                light.push(daylight * zone_light_factor);
                // Door openings cluster in waking hours (07:00–23:00).
                let open_frac = if (7..23).contains(&hour) && rng.gen_bool(door_p) {
                    rng.gen_range(0.02..0.15)
                } else {
                    0.0
                };
                door.push(open_frac);
            }
        }

        ZoneTrace {
            zone: zone.to_string(),
            temperature: HourlySeries::new(temperature),
            light: HourlySeries::new(light),
            door_open: HourlySeries::new(door),
        }
    }

    /// Generates a multi-zone trace.
    pub fn generate(&self, zones: &[&str]) -> Trace {
        let hours = self.climate.hour_table();
        Trace::new(
            self.calendar,
            zones.iter().map(|z| self.zone_trace(z, &hours)).collect(),
        )
    }

    /// Materializes raw per-interval readings for one zone (the CSV-level
    /// view of the dataset). `interval_s` controls the cadence; the paper's
    /// traces are second-scale, tests use coarser intervals.
    pub fn raw_readings(&self, zone: &str, interval_s: u64) -> Vec<SensorReading> {
        assert!(interval_s > 0, "interval must be positive");
        let series = self.generate_zone(zone);
        let mut rng = self.zone_rng(&format!("{zone}/raw"));
        let mut out = Vec::new();
        let horizon_s = self.horizon_hours * 3600;
        let mut t = 0u64;
        while t < horizon_s {
            let h = (t / 3600).min(self.horizon_hours - 1);
            out.push(SensorReading::new(
                t,
                zone,
                SensorKind::Temperature,
                series.temperature.at(h) + rng.gen_range(-0.1..0.1),
            ));
            out.push(SensorReading::new(
                t,
                zone,
                SensorKind::Light,
                (series.light.at(h) + rng.gen_range(-1.0..1.0)).clamp(0.0, 100.0),
            ));
            if series.door_open.at(h) > 0.0 && rng.gen_bool(0.2) {
                out.push(SensorReading::new(t, zone, SensorKind::Door, 1.0));
            }
            t += interval_s;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_generator() -> TraceGenerator {
        TraceGenerator {
            climate: ClimateModel::mediterranean(),
            calendar: PaperCalendar::january_start(),
            horizon_hours: imcf_core::calendar::HOURS_PER_YEAR,
            seed: 1,
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g = small_generator();
        let a = g.generate_zone("flat");
        let b = g.generate_zone("flat");
        assert_eq!(a, b);
        let c = TraceGenerator {
            seed: 2,
            ..small_generator()
        }
        .generate_zone("flat");
        assert_ne!(a, c);
    }

    #[test]
    fn zones_are_distinct_but_correlated_in_structure() {
        let g = small_generator();
        let a = g.generate_zone("bedroom");
        let b = g.generate_zone("kitchen");
        assert_ne!(a.temperature, b.temperature);
        // Same seasonal structure: January colder than July in both.
        for z in [&a, &b] {
            let jan = z.temperature.values()[..744].iter().sum::<f64>() / 744.0;
            let jul_start = 6 * 744;
            let jul = z.temperature.values()[jul_start..jul_start + 744]
                .iter()
                .sum::<f64>()
                / 744.0;
            assert!(
                jul > jan + 5.0,
                "summer should be much warmer ({jan:.1} vs {jul:.1})"
            );
        }
    }

    #[test]
    fn winter_nights_are_cold_and_dark() {
        let g = small_generator();
        let z = g.generate_zone("flat");
        // 03:00 on January 2nd.
        let h = 24 + 3;
        assert!(z.temperature.at(h) < 16.0, "t = {}", z.temperature.at(h));
        assert_eq!(z.light.at(h), 0.0);
    }

    #[test]
    fn summer_midday_is_warm_and_bright() {
        let g = small_generator();
        let z = g.generate_zone("flat");
        // 13:00 on July 10th.
        let h = (6 * 31 + 9) * HOURS_PER_DAY + 13;
        assert!(z.temperature.at(h) > 21.0, "t = {}", z.temperature.at(h));
        assert!(z.light.at(h) > 15.0, "light = {}", z.light.at(h));
    }

    #[test]
    fn daylight_respects_day_length() {
        let c = ClimateModel::mediterranean();
        let table = c.hour_table();
        // Midnight dark in any month.
        for month in 1..=12 {
            assert_eq!(c.daylight(month, 0), None);
        }
        // Noon bright on a clear June day.
        assert!(c.daylight(6, 12).is_some_and(|l| l > 60.0));
        // June has more daylight hours than December.
        let lit = |m: usize| table[m].iter().filter(|(_, l)| l.is_some()).count();
        assert!(lit(5) > lit(11), "june {} vs december {}", lit(5), lit(11));
    }

    #[test]
    fn door_fractions_bounded_and_nocturnal_doors_closed() {
        let g = small_generator();
        let z = g.generate_zone("flat");
        for (h, v) in z.door_open.values().iter().enumerate() {
            assert!((0.0..=1.0).contains(v));
            let hour_of_day = h % 24;
            if !(7..23).contains(&hour_of_day) {
                assert_eq!(*v, 0.0, "door open at hour {hour_of_day}");
            }
        }
    }

    #[test]
    fn raw_readings_cover_horizon() {
        let g = TraceGenerator {
            horizon_hours: 24,
            ..small_generator()
        };
        let rows = g.raw_readings("flat", 600);
        // 24 h × 6 samples/h × 2 sensors (+ occasional door rows).
        assert!(rows.len() >= 24 * 6 * 2);
        assert!(rows.iter().all(|r| r.timestamp_s < 24 * 3600));
        assert!(rows.iter().any(|r| r.sensor == SensorKind::Temperature));
        assert!(rows.iter().any(|r| r.sensor == SensorKind::Light));
    }

    #[test]
    fn casas_like_span() {
        let g = TraceGenerator::casas_like(0);
        assert_eq!(g.horizon_hours, 39 * 744);
        assert_eq!(g.calendar.month_of(0), 10); // starts in October
    }

    #[test]
    fn generate_multi_zone() {
        let g = small_generator();
        let t = g.generate(&["a", "b", "c"]);
        assert_eq!(t.zone_count(), 3);
        assert_eq!(t.horizon_hours(), g.horizon_hours);
    }
}
