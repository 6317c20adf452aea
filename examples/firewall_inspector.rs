//! Drive the full Local Controller for one simulated day and watch the
//! meta-control firewall work: plans become ACCEPT/DROP chains, adopted
//! rules actuate devices, and everything is observable on the event bus
//! and persisted through the embedded store.
//!
//! Run with: `cargo run --release --example firewall_inspector`

use imcf::controller::{ControllerConfig, Event, LocalController};
use imcf::core::calendar::PaperCalendar;
use imcf::core::{AmortizationPlan, ApKind};
use imcf::sim::{Dataset, DatasetKind, SlotBuilder};
use imcf::store::Store;

fn main() {
    // A two-zone home on the flat's device calibration, deliberately given
    // a tight budget so the firewall has something to do.
    let dataset = Dataset::build(DatasetKind::House, 3);
    let ecp = dataset.derive_mr_ecp();
    let plan = AmortizationPlan::new(
        ApKind::Eaf,
        ecp,
        dataset.budget_kwh,
        dataset.horizon_hours,
        dataset.calendar(),
    )
    .with_savings(0.30); // push the budget down to force drops
    let builder = SlotBuilder::new(&dataset, &plan);

    let zones: Vec<String> = dataset.trace.zones.iter().map(|z| z.zone.clone()).collect();
    let mut controller = LocalController::with_zones(
        ControllerConfig::default(),
        PaperCalendar::starting_in(10),
        &zones,
    )
    .unwrap();
    let events = controller.bus().subscribe();

    // Persist tick summaries like the paper's MariaDB layer would. Start
    // from a clean slate: a `ticks` table left by an older build may use
    // a previous TickSummary schema.
    let dir = std::env::temp_dir().join("imcf-firewall-inspector");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("store opens");
    let mut ticks = store
        .table::<imcf::controller::TickSummary>("ticks")
        .expect("table opens");

    // Pick a January day (the trace starts in October).
    let day_start = 3 * imcf::core::calendar::HOURS_PER_MONTH + 10 * 24;
    println!("=== one winter day through the controller ===\n");
    for slot in builder.range(day_start..day_start + 24) {
        let hour = slot.hour_index % 24;
        let summary = controller.tick_with_errors(&slot).0;
        ticks.insert(summary.clone()).expect("tick persists");
        if !slot.is_empty() {
            println!(
                "{hour:02}:00  candidates {}  adopted {}  dropped {}  energy {:.2} kWh  (delivered {}, blocked {})",
                slot.len(),
                summary.adopted.len(),
                summary.dropped.len(),
                summary.energy_kwh,
                summary.delivered,
                summary.blocked
            );
            if !summary.dropped.is_empty() {
                let fw = controller.firewall();
                let script = fw.lock().render_script();
                for line in script.lines().filter(|l| l.contains("DROP")) {
                    println!("        {line}");
                }
            }
        }
    }
    ticks.snapshot().expect("snapshot persists");

    let delivered = events
        .try_iter()
        .filter(|e| matches!(e, Event::CommandDelivered { .. }))
        .count();
    println!("\nevent bus saw {delivered} delivered commands");
    println!(
        "day total: {:.2} kWh metered",
        controller.meter().total_kwh()
    );
    println!(
        "tick log persisted to {} ({} rows)",
        dir.display(),
        ticks.len()
    );
}
