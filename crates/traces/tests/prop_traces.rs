//! Property-based tests for trace handling: CSV round trips, resampling
//! bounds, replication invariants and generator determinism.

use imcf_core::calendar::PaperCalendar;
use imcf_traces::csvio::{read_csv, write_csv};
use imcf_traces::generator::{ClimateModel, TraceGenerator};
use imcf_traces::reading::{SensorKind, SensorReading};
use imcf_traces::replicate::{replicate, ReplicationSpec};
use imcf_traces::series::HourlySeries;
use proptest::prelude::*;

fn arb_reading() -> impl Strategy<Value = SensorReading> {
    (
        0u64..(100 * 3600),
        "[a-z]{1,8}",
        prop_oneof![
            Just(SensorKind::Temperature),
            Just(SensorKind::Light),
            Just(SensorKind::Door)
        ],
        -50.0f64..150.0,
    )
        .prop_map(|(t, z, s, v)| SensorReading::new(t, &z, s, (v * 100.0).round() / 100.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSV round trip for arbitrary readings.
    #[test]
    fn csv_roundtrip(readings in proptest::collection::vec(arb_reading(), 0..50)) {
        let mut buf = Vec::new();
        write_csv(&mut buf, &readings).unwrap();
        let back = read_csv(&buf[..]).unwrap();
        prop_assert_eq!(back, readings);
    }

    /// Hourly resampling stays within the min/max of its inputs per hour.
    #[test]
    fn resampling_bounded_by_inputs(values in proptest::collection::vec(0.0f64..100.0, 1..60)) {
        let readings: Vec<SensorReading> = values
            .iter()
            .enumerate()
            .map(|(i, v)| SensorReading::new(i as u64 * 60, "z", SensorKind::Light, *v))
            .collect();
        let series = HourlySeries::from_readings(readings.iter(), 1, 0.0);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(series.at(0) >= min - 1e-9 && series.at(0) <= max + 1e-9);
    }

    /// Replication produces the requested zone count and never pushes light
    /// outside 0–100, for any seed and replica count.
    #[test]
    fn replication_invariants(seed in 0u64..500, replicas in 1usize..8) {
        let g = TraceGenerator {
            climate: ClimateModel::mediterranean(),
            calendar: PaperCalendar::january_start(),
            horizon_hours: 48,
            seed,
        };
        let source = g.generate(&["src"]);
        let spec = ReplicationSpec { replicas, ..ReplicationSpec::house() };
        let out = replicate(&source, spec, seed);
        prop_assert_eq!(out.zone_count(), replicas);
        for z in &out.zones {
            prop_assert_eq!(z.horizon_hours(), 48);
            for h in 0..48 {
                let l = z.light.at(h);
                prop_assert!((0.0..=100.0).contains(&l));
            }
        }
    }

    /// The generator is a pure function of (seed, zone, horizon): equal
    /// inputs agree, and longer horizons extend shorter ones in all three
    /// series, whether the shorter one ends at midnight or mid-day and
    /// whichever month it starts in.
    #[test]
    fn generator_prefix_stability(seed in 0u64..200) {
        for start_month in [1, 10] {
            let make = |hours: u64| TraceGenerator {
                climate: ClimateModel::mediterranean(),
                calendar: PaperCalendar::starting_in(start_month),
                horizon_hours: hours,
                seed,
            };
            let long = make(72).generate_zone("z");
            for hours in [1u64, 7, 23, 25, 47] {
                let short = make(hours).generate_zone("z");
                prop_assert_eq!(short.horizon_hours(), hours);
                let series = [
                    (&short.temperature, &long.temperature),
                    (&short.light, &long.light),
                    (&short.door_open, &long.door_open),
                ];
                for (short, long) in series {
                    let short: Vec<u64> = short.iter().map(f64::to_bits).collect();
                    let long: Vec<u64> = long.iter().take(hours as usize).map(f64::to_bits).collect();
                    prop_assert_eq!(short, long);
                }
            }
        }
    }

    /// Generated physical values stay in sane bands.
    #[test]
    fn generated_values_in_band(seed in 0u64..100) {
        let g = TraceGenerator {
            climate: ClimateModel::mediterranean(),
            calendar: PaperCalendar::january_start(),
            horizon_hours: 24 * 14,
            seed,
        };
        let z = g.generate_zone("band");
        for h in 0..z.horizon_hours() {
            let t = z.temperature.at(h);
            prop_assert!((-10.0..=45.0).contains(&t), "temperature {t} out of band");
            let l = z.light.at(h);
            prop_assert!((0.0..=100.0).contains(&l));
            let d = z.door_open.at(h);
            prop_assert!((0.0..=1.0).contains(&d));
        }
    }
}
