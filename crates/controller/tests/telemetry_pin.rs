//! Every metric a fixed faulted controller run exports, pinned.
//!
//! A 16-zone home runs 48 ticks under a seeded command-fault plan strong
//! enough to produce deliveries, retries, give-ups and a breaker
//! quarantine, on a budget tight enough that plans drop rules. After each
//! tick a manual setpoint goes to every zone's HVAC through the registry,
//! the REST write path, so both firewall verdicts are hit. Every counter
//! and gauge is pinned by name, labels and value, and every histogram by
//! its sample count: histogram sums are wall-clock time and stay out.
//!
//! The metrics live in the process-global registry, so this test is a
//! binary of its own: nothing else registers or counts in its process.

use imcf_chaos::FaultPlan;
use imcf_controller::{zone_names, ControllerConfig, LocalController, ZoneSlots};
use imcf_core::calendar::PaperCalendar;
use imcf_core::planner::PlannerConfig;
use imcf_devices::channel::ChannelUid;
use imcf_devices::command::{Command, CommandPayload};
use imcf_devices::thing::ThingUid;

const SEED: u64 = 20;
const ZONES: usize = 16;
const TICKS: u64 = 48;
const FAULT_RATE: f64 = 0.3;
const WEEKLY_BUDGET_KWH: f64 = 40.0;

/// One line per metric: `name{k=v,...} value` for counters and gauges,
/// `name{k=v,...} count=n` for histograms.
fn exported() -> Vec<String> {
    imcf_telemetry::global()
        .metric_snapshots()
        .into_iter()
        .map(|m| {
            let labels: Vec<String> = m.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let value = match m.kind.as_str() {
                "histogram" => format!("count={}", m.count.unwrap_or(0)),
                _ => format!("{}", m.value.unwrap_or(f64::NAN)),
            };
            format!("{} {}{{{}}} {value}", m.kind, m.name, labels.join(","))
        })
        .collect()
}

#[test]
fn a_faulted_run_exports_the_pinned_metrics() {
    let zones = zone_names(ZONES);
    let mut controller = LocalController::with_zones(
        ControllerConfig {
            planner: PlannerConfig {
                seed: SEED,
                ..PlannerConfig::default()
            },
            ..ControllerConfig::default()
        },
        PaperCalendar::january_start(),
        &zones,
    )
    .unwrap();
    controller.attach_chaos(FaultPlan::commands(SEED, FAULT_RATE));
    let mut slots = ZoneSlots::new(SEED, &zones, WEEKLY_BUDGET_KWH, None);
    let registry = controller.registry();
    let (mut delivered, mut retried, mut failed, mut quarantined, mut dropped) = (0, 0, 0, 0, 0);
    for hour in 0..TICKS {
        let (summary, _) = controller.tick_with_errors(&slots.slot(hour));
        delivered += summary.delivered;
        retried += summary.retried;
        failed += summary.failed;
        quarantined += summary.quarantined;
        dropped += summary.dropped.len();
        for zone in &zones {
            let setpoint = Command::binding(
                ChannelUid::new(ThingUid::new("imcf", "hvac", zone), "settemp"),
                CommandPayload::SetTemperature {
                    celsius: 21.0,
                    cooling: false,
                },
            );
            registry.dispatch(&setpoint).unwrap();
        }
    }
    // The run exercises every path the metrics count.
    assert!(delivered > 0 && retried > 0 && failed > 0 && quarantined > 0 && dropped > 0);
    assert!(
        registry.counters().1 > 0,
        "no manual command met a DROP rule"
    );

    let got = exported();
    let want: Vec<String> = PINNED.lines().map(str::to_string).collect();
    assert_eq!(got, want, "exported metrics moved:\n{}", got.join("\n"));
}

const PINNED: &str = "\
counter actuation.gave_up{} 30
counter actuation.retries{} 267
counter breaker.open{} 2
gauge breaker.open_now{} 0
counter chaos.faults_injected{kind=cmd_delay} 57
counter chaos.faults_injected{kind=cmd_drop} 120
counter chaos.faults_injected{kind=cmd_stuck} 216
counter firewall.rule_hits{rule=imcf: adopted hvac rules in zone0,verdict=accept} 33
counter firewall.rule_hits{rule=imcf: adopted hvac rules in zone1,verdict=accept} 42
counter firewall.rule_hits{rule=imcf: adopted hvac rules in zone10,verdict=accept} 43
counter firewall.rule_hits{rule=imcf: adopted hvac rules in zone11,verdict=accept} 41
counter firewall.rule_hits{rule=imcf: adopted hvac rules in zone12,verdict=accept} 43
counter firewall.rule_hits{rule=imcf: adopted hvac rules in zone13,verdict=accept} 45
counter firewall.rule_hits{rule=imcf: adopted hvac rules in zone14,verdict=accept} 37
counter firewall.rule_hits{rule=imcf: adopted hvac rules in zone15,verdict=accept} 32
counter firewall.rule_hits{rule=imcf: adopted hvac rules in zone2,verdict=accept} 33
counter firewall.rule_hits{rule=imcf: adopted hvac rules in zone3,verdict=accept} 40
counter firewall.rule_hits{rule=imcf: adopted hvac rules in zone4,verdict=accept} 39
counter firewall.rule_hits{rule=imcf: adopted hvac rules in zone5,verdict=accept} 46
counter firewall.rule_hits{rule=imcf: adopted hvac rules in zone6,verdict=accept} 40
counter firewall.rule_hits{rule=imcf: adopted hvac rules in zone7,verdict=accept} 45
counter firewall.rule_hits{rule=imcf: adopted hvac rules in zone8,verdict=accept} 36
counter firewall.rule_hits{rule=imcf: adopted hvac rules in zone9,verdict=accept} 44
counter firewall.rule_hits{rule=imcf: adopted light rules in zone0,verdict=accept} 26
counter firewall.rule_hits{rule=imcf: adopted light rules in zone1,verdict=accept} 20
counter firewall.rule_hits{rule=imcf: adopted light rules in zone10,verdict=accept} 22
counter firewall.rule_hits{rule=imcf: adopted light rules in zone11,verdict=accept} 16
counter firewall.rule_hits{rule=imcf: adopted light rules in zone12,verdict=accept} 27
counter firewall.rule_hits{rule=imcf: adopted light rules in zone13,verdict=accept} 22
counter firewall.rule_hits{rule=imcf: adopted light rules in zone14,verdict=accept} 19
counter firewall.rule_hits{rule=imcf: adopted light rules in zone15,verdict=accept} 22
counter firewall.rule_hits{rule=imcf: adopted light rules in zone2,verdict=accept} 19
counter firewall.rule_hits{rule=imcf: adopted light rules in zone3,verdict=accept} 19
counter firewall.rule_hits{rule=imcf: adopted light rules in zone4,verdict=accept} 25
counter firewall.rule_hits{rule=imcf: adopted light rules in zone5,verdict=accept} 24
counter firewall.rule_hits{rule=imcf: adopted light rules in zone6,verdict=accept} 21
counter firewall.rule_hits{rule=imcf: adopted light rules in zone7,verdict=accept} 22
counter firewall.rule_hits{rule=imcf: adopted light rules in zone8,verdict=accept} 21
counter firewall.rule_hits{rule=imcf: adopted light rules in zone9,verdict=accept} 22
counter firewall.rule_hits{rule=imcf: breaker quarantined hvac rules in zone12,verdict=drop} 3
counter firewall.rule_hits{rule=imcf: plan dropped hvac rules in zone0,verdict=drop} 33
counter firewall.rule_hits{rule=imcf: plan dropped hvac rules in zone1,verdict=drop} 33
counter firewall.rule_hits{rule=imcf: plan dropped hvac rules in zone10,verdict=drop} 32
counter firewall.rule_hits{rule=imcf: plan dropped hvac rules in zone11,verdict=drop} 32
counter firewall.rule_hits{rule=imcf: plan dropped hvac rules in zone12,verdict=drop} 30
counter firewall.rule_hits{rule=imcf: plan dropped hvac rules in zone13,verdict=drop} 32
counter firewall.rule_hits{rule=imcf: plan dropped hvac rules in zone14,verdict=drop} 33
counter firewall.rule_hits{rule=imcf: plan dropped hvac rules in zone15,verdict=drop} 33
counter firewall.rule_hits{rule=imcf: plan dropped hvac rules in zone2,verdict=drop} 34
counter firewall.rule_hits{rule=imcf: plan dropped hvac rules in zone3,verdict=drop} 34
counter firewall.rule_hits{rule=imcf: plan dropped hvac rules in zone4,verdict=drop} 32
counter firewall.rule_hits{rule=imcf: plan dropped hvac rules in zone5,verdict=drop} 32
counter firewall.rule_hits{rule=imcf: plan dropped hvac rules in zone6,verdict=drop} 33
counter firewall.rule_hits{rule=imcf: plan dropped hvac rules in zone7,verdict=drop} 32
counter firewall.rule_hits{rule=imcf: plan dropped hvac rules in zone8,verdict=drop} 32
counter firewall.rule_hits{rule=imcf: plan dropped hvac rules in zone9,verdict=drop} 32
counter firewall.verdicts{verdict=accept} 986
counter firewall.verdicts{verdict=drop} 522
counter optimizer.iterations{optimizer=hill-climbing} 4800
histogram planner.slot_micros{optimizer=hill-climbing} count=48
counter planner.slots_planned{} 48
histogram scheduler.tick_micros{} count=48";
