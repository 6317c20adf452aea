//! Property-based tests for the RAW engine: time-window algebra, rule-table
//! parsing round trips, and predicate evaluation totality.

use imcf_rules::action::Action;
use imcf_rules::env::{EnvSnapshot, Season, Weather};
use imcf_rules::meta_rule::MetaRule;
use imcf_rules::mrt::Mrt;
use imcf_rules::parse::{format_mrt, parse_mrt};
use imcf_rules::predicate::{Cmp, Predicate};
use imcf_rules::window::{TimeWindow, MINUTES_PER_DAY};
use proptest::prelude::*;

fn arb_window() -> impl Strategy<Value = TimeWindow> {
    (0u32..24, 0u32..60, 0u32..24, 0u32..60)
        .prop_map(|(sh, sm, eh, em)| TimeWindow::hm((sh, sm), (eh, em)))
}

/// The oracle for `contains_hour`: a scan of the hour's 60 minutes.
fn any_minute_in_hour(w: &TimeWindow, hour: u32) -> bool {
    (0..60).any(|m| w.contains_minute(hour * 60 + m))
}

/// Every window whose bounds lie on an hour boundary, one minute either
/// side of it, or half past (24:00 included), checked for all 24 hours
/// against the minute scan. The set holds wrapping, empty and 24:00
/// windows, which `arb_window` never draws.
#[test]
fn window_hour_projection_near_hour_boundaries() {
    // 60h − 1 appears as 60(h − 1) + 59, which keeps the arithmetic unsigned.
    let bounds: Vec<u32> = (0..=24u32)
        .flat_map(|h| [60 * h, 60 * h + 1, 60 * h + 30, 60 * h + 59])
        .filter(|m| *m <= MINUTES_PER_DAY)
        .collect();
    assert_eq!(bounds.len(), 97);
    let (mut wrapping, mut empty, mut to_midnight) = (0, 0, 0);
    for &start in &bounds {
        for &end in &bounds {
            let w = TimeWindow::hm((start / 60, start % 60), (end / 60, end % 60));
            wrapping += usize::from(w.wraps());
            empty += usize::from(w.duration_minutes() == 0);
            to_midnight += usize::from(end == MINUTES_PER_DAY);
            for hour in 0..24 {
                assert_eq!(
                    w.contains_hour(hour),
                    any_minute_in_hour(&w, hour),
                    "{w} at hour {hour}"
                );
            }
        }
    }
    assert!(wrapping > 0 && empty > 0 && to_midnight > 0);
}

fn arb_env() -> impl Strategy<Value = EnvSnapshot> {
    (
        1u32..=12,
        0u32..24,
        -20.0f64..45.0,
        0.0f64..100.0,
        prop_oneof![
            Just(Weather::Sunny),
            Just(Weather::Cloudy),
            Just(Weather::Rainy)
        ],
        any::<bool>(),
    )
        .prop_map(|(month, hour, t, l, w, door)| {
            EnvSnapshot::neutral()
                .with_month(month)
                .with_hour(hour)
                .with_temperature(t)
                .with_light(l)
                .with_weather(w)
                .with_door_open(door)
        })
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    let leaf = prop_oneof![
        Just(Predicate::True),
        (1u32..=12).prop_map(|m| Predicate::SeasonIs(Season::from_month(m))),
        prop_oneof![
            Just(Weather::Sunny),
            Just(Weather::Cloudy),
            Just(Weather::Rainy)
        ]
        .prop_map(Predicate::WeatherIs),
        (-20.0f64..45.0).prop_map(|v| Predicate::Temperature(Cmp::Gt, v)),
        (0.0f64..100.0).prop_map(|v| Predicate::LightLevel(Cmp::Lt, v)),
        any::<bool>().prop_map(Predicate::DoorOpen),
        (0u32..24, 0u32..24).prop_map(|(a, b)| Predicate::HourIn(a, b)),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|p| p.negate()),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Window membership over all minutes equals the declared duration.
    #[test]
    fn window_duration_equals_membership_count(w in arb_window()) {
        let count = (0..MINUTES_PER_DAY).filter(|m| w.contains_minute(*m)).count() as u32;
        prop_assert_eq!(count, w.duration_minutes());
    }

    /// Shifting preserves duration and shifting back restores membership.
    #[test]
    fn window_shift_roundtrip(w in arb_window(), delta in -3000i32..3000) {
        let shifted = w.shifted(delta);
        prop_assert_eq!(shifted.duration_minutes(), w.duration_minutes());
        let back = shifted.shifted(-delta);
        for m in (0..MINUTES_PER_DAY).step_by(7) {
            prop_assert_eq!(back.contains_minute(m), w.contains_minute(m));
        }
    }

    /// Overlap is symmetric and reflexive for non-empty windows.
    #[test]
    fn window_overlap_symmetric(a in arb_window(), b in arb_window()) {
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        if a.duration_minutes() > 0 {
            prop_assert!(a.overlaps(&a));
        }
    }

    /// `contains_hour` is the hour-level projection of minute membership.
    #[test]
    fn window_hour_projection(w in arb_window(), hour in 0u32..24) {
        prop_assert_eq!(w.contains_hour(hour), any_minute_in_hour(&w, hour));
    }

    /// Predicate evaluation is total and negation involutive.
    #[test]
    fn predicate_total_and_negation(p in arb_predicate(), env in arb_env()) {
        let v = p.eval(&env);
        prop_assert_eq!(p.clone().negate().eval(&env), !v);
        prop_assert_eq!(p.clone().negate().negate().eval(&env), v);
        // Depth is finite and display never panics.
        prop_assert!(p.depth() >= 1);
        let _ = p.to_string();
    }

    /// De Morgan holds under evaluation.
    #[test]
    fn predicate_de_morgan(a in arb_predicate(), b in arb_predicate(), env in arb_env()) {
        let lhs = a.clone().and(b.clone()).negate().eval(&env);
        let rhs = a.negate().or(b.negate()).eval(&env);
        prop_assert_eq!(lhs, rhs);
    }

    /// MRT text round trip: any table assembled from hour-aligned windows
    /// and clean values survives format → parse.
    #[test]
    fn mrt_text_roundtrip(
        specs in proptest::collection::vec(
            (0u32..24, 1u32..24, 10.0f64..30.0, any::<bool>(), 0u32..4),
            1..8,
        ),
        budget in 10.0f64..100000.0,
    ) {
        let mut mrt = Mrt::new();
        for (start, len, value, is_light, prio) in specs {
            let end = (start + len).min(24);
            if end <= start {
                continue;
            }
            let window = TimeWindow::hours(start, end);
            let action = if is_light {
                Action::SetLight(value.round())
            } else {
                Action::SetTemperature(value.round())
            };
            mrt.push(MetaRule::convenience(0, "rule", window, action).with_priority(prio.max(1)));
        }
        mrt.push(MetaRule::budget(0, "budget", budget.round(), 3 * 8928));
        let text = format_mrt(&mrt);
        let parsed = parse_mrt(&text).unwrap();
        prop_assert_eq!(parsed.len(), mrt.len());
        for (a, b) in mrt.rules().iter().zip(parsed.rules()) {
            prop_assert_eq!(&a.window, &b.window);
            prop_assert_eq!(&a.action, &b.action);
            prop_assert_eq!(a.priority, b.priority);
        }
    }

    /// Scaled variations keep setpoints inside physical bounds and keep the
    /// requested zone count, for any seed.
    #[test]
    fn scaled_variation_invariants(zones in 1usize..8, seed in 0u64..1000) {
        let base = Mrt::flat_table2(11000.0);
        let scaled = base.scaled_variation(zones, 99.0, seed);
        prop_assert_eq!(scaled.len(), zones * 6 + 1);
        for r in scaled.actuation_rules() {
            match r.action {
                Action::SetTemperature(v) => prop_assert!((16.0..=28.0).contains(&v)),
                Action::SetLight(v) => prop_assert!((0.0..=100.0).contains(&v)),
                Action::SetKwhLimit(_) => prop_assert!(false, "budget row among actuation rules"),
            }
        }
    }
}
