//! End-to-end pipeline tests spanning every crate: trace synthesis → CSV →
//! resampling → dataset → controller orchestration → persistence →
//! recovery.

use imcf::controller::{ControllerConfig, LocalController, TickSummary};
use imcf::core::calendar::PaperCalendar;
use imcf::core::{AmortizationPlan, ApKind};
use imcf::sim::{Dataset, DatasetKind, SlotBuilder};
use imcf::store::Store;
use imcf::traces::csvio::{read_csv, write_csv};
use imcf::traces::generator::{ClimateModel, TraceGenerator};
use imcf::traces::series::Trace;

#[test]
fn raw_trace_csv_round_trip_preserves_hourly_series() {
    let generator = TraceGenerator {
        climate: ClimateModel::mediterranean(),
        calendar: PaperCalendar::january_start(),
        horizon_hours: 72,
        seed: 11,
    };
    let readings = generator.raw_readings("flat", 300);

    // Through CSV and back.
    let mut buf = Vec::new();
    write_csv(&mut buf, &readings).unwrap();
    let back = read_csv(&buf[..]).unwrap();
    assert_eq!(readings, back);

    // Resampled hourly series track the generator's direct series within
    // the raw-read jitter.
    let direct = generator.generate_zone("flat");
    let resampled = Trace::from_readings(PaperCalendar::january_start(), &back, 72);
    let zone = resampled.zone("flat").unwrap();
    for h in 0..72 {
        let d = direct.temperature.at(h);
        let r = zone.temperature.at(h);
        assert!(
            (d - r).abs() < 0.5,
            "hour {h}: direct {d:.2} vs resampled {r:.2}"
        );
    }
}

#[test]
fn controller_over_dataset_slots_with_persistence_and_recovery() {
    let dataset = Dataset::build(DatasetKind::House, 1);
    let ecp = dataset.derive_mr_ecp();
    let plan = AmortizationPlan::new(
        ApKind::Eaf,
        ecp,
        dataset.budget_kwh,
        dataset.horizon_hours,
        dataset.calendar(),
    );
    let builder = SlotBuilder::new(&dataset, &plan);

    let zones: Vec<String> = dataset.trace.zones.iter().map(|z| z.zone.clone()).collect();
    let mut controller =
        LocalController::with_zones(ControllerConfig::default(), dataset.calendar(), &zones)
            .unwrap();

    let dir = tempfile::tempdir().unwrap();
    let total_energy;
    {
        let store = Store::open(dir.path()).unwrap();
        let mut ticks = store.table::<TickSummary>("ticks").unwrap();
        for slot in builder.range(0..48) {
            let summary = controller.tick_with_errors(&slot).0;
            assert_eq!(summary.adopted.len() + summary.dropped.len(), slot.len());
            ticks.insert(summary).unwrap();
        }
        ticks.sync().unwrap();
        assert_eq!(ticks.len(), 48);
        total_energy = controller.meter().total_kwh();
        assert!(total_energy > 0.0);
    }

    // Reopen the store: the tick log replays from the WAL.
    let store = Store::open(dir.path()).unwrap();
    let ticks = store.table::<TickSummary>("ticks").unwrap();
    assert_eq!(ticks.len(), 48);
    let replayed_energy: f64 = ticks.scan().map(|(_, t)| t.energy_kwh).sum();
    assert!((replayed_energy - total_energy).abs() < 1e-9);
}

#[test]
fn controller_reserve_carries_budget_across_ticks() {
    let dataset = Dataset::build(DatasetKind::Flat, 2);
    let ecp = dataset.derive_mr_ecp();
    let plan = AmortizationPlan::new(
        ApKind::Eaf,
        ecp,
        dataset.budget_kwh,
        dataset.horizon_hours,
        dataset.calendar(),
    );
    let builder = SlotBuilder::new(&dataset, &plan);

    let mut controller = LocalController::with_zones(
        ControllerConfig::default(),
        dataset.calendar(),
        &["zone000".to_string()],
    )
    .unwrap();

    // Hour 0 of the trace is midnight: no rules are active, so the whole
    // allowance banks into the reserve.
    let empty = builder.slot_at(0);
    assert!(empty.is_empty());
    let before = controller.reserve_kwh();
    controller.tick_with_errors(&empty);
    assert!(controller.reserve_kwh() > before);
}

#[test]
fn firewall_blocks_manual_overrides_of_dropped_zones() {
    use imcf::core::candidate::{CandidateRule, PlanningSlot};
    use imcf::devices::channel::ChannelUid;
    use imcf::devices::command::{Command, CommandOutcome, CommandPayload};
    use imcf::devices::thing::ThingUid;
    use imcf::rules::meta_rule::RuleId;

    let mut controller = LocalController::with_zones(
        ControllerConfig::default(),
        PaperCalendar::january_start(),
        &["den".to_string()],
    )
    .unwrap();
    // A zero-budget slot forces the plan to drop the den's HVAC rule.
    let slot = PlanningSlot::new(
        0,
        vec![CandidateRule::convenience(RuleId(0), 24.0, 10.0, 0.9).in_zone("den")],
        0.0,
    );
    let summary = controller.tick_with_errors(&slot).0;
    assert_eq!(summary.dropped.len(), 1);

    // A user trying to bypass the plan through the registry is stopped by
    // the same chain — the "meta-control firewall" behaviour of the paper.
    let cmd = Command::binding(
        ChannelUid::new(ThingUid::new("imcf", "hvac", "den"), "settemp"),
        CommandPayload::SetTemperature {
            celsius: 30.0,
            cooling: false,
        },
    );
    assert_eq!(
        controller.registry().dispatch(&cmd).unwrap(),
        CommandOutcome::Blocked
    );
}

#[test]
fn mrt_text_config_drives_the_pipeline() {
    use imcf::rules::parse::parse_mrt;

    // A user-authored MRT file…
    let text = "\
Night Heat | 01:00 - 07:00 | Set Temperature | 25 | owner=father
Morning Lights | 04:00 - 09:00 | Set Light | 40 | owner=mother
Budget | for 3 years | Set kWh Limit | 11000
";
    let mrt = parse_mrt(text).unwrap();

    // …replaces the dataset's built-in MRT.
    let mut dataset = Dataset::build(DatasetKind::Flat, 0);
    dataset.zone_mrts = vec![mrt];
    let ecp = dataset.derive_mr_ecp();
    let plan = AmortizationPlan::new(
        ApKind::Eaf,
        ecp,
        dataset.budget_kwh,
        dataset.horizon_hours,
        dataset.calendar(),
    );
    let builder = SlotBuilder::new(&dataset, &plan);
    let slot = builder.slot_at(5); // 05:00: both rules active
    assert_eq!(slot.len(), 2);
    let owners: Vec<&str> = slot.candidates.iter().map(|c| c.owner.as_str()).collect();
    assert_eq!(owners, vec!["father", "mother"]);
}
