//! Golden pin of the datasets' bits at seed 0.
//!
//! FNV-1a-64 over the little-endian bytes of `f64::to_bits` of every trace
//! value (zones in order; temperature, then light, then door-open), then of
//! the MR ECP's twelve months. Any change to trace synthesis, the window
//! algebra or the ECP accumulation that moves a single bit fails here,
//! whereas `deterministic_under_seed` only compares two builds of the same
//! code.
//!
//! The slot-stream pins hash what the planner reads of the `SlotBuilder`'s
//! slots under EAF: each slot's hour and budget, and each candidate's rule
//! id, zone, class, owner, necessity, desired and ambient values, `exec_kwh`
//! and IFTTT counterpart. They sample every 7th hour of the full horizon;
//! 7 is coprime to 24, so every hour of day of every month is covered.

use imcf_core::amortization::{AmortizationPlan, ApKind};
use imcf_sim::building::{Dataset, DatasetKind};
use imcf_sim::slots::SlotBuilder;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn fnv1a(hash: u64, value: f64) -> u64 {
    fnv_bytes(hash, &value.to_bits().to_le_bytes())
}

/// Length-prefixed, so adjacent strings cannot trade bytes.
fn fnv_str(hash: u64, s: &str) -> u64 {
    fnv_bytes(
        fnv_bytes(hash, &(s.len() as u64).to_le_bytes()),
        s.as_bytes(),
    )
}

fn dataset_hash(kind: DatasetKind) -> String {
    let dataset = Dataset::build(kind, 0);
    let mut hash = FNV_OFFSET;
    for zone in &dataset.trace.zones {
        for series in [&zone.temperature, &zone.light, &zone.door_open] {
            hash = series.iter().fold(hash, fnv1a);
        }
    }
    let ecp = dataset.derive_mr_ecp();
    hash = (1..=12).fold(hash, |h, month| fnv1a(h, ecp.month_kwh(month)));
    format!("{hash:016x}")
}

fn slot_stream_hash(kind: DatasetKind) -> String {
    let dataset = Dataset::build(kind, 0);
    let plan = AmortizationPlan::new(
        ApKind::Eaf,
        dataset.derive_mr_ecp(),
        dataset.budget_kwh,
        dataset.horizon_hours,
        dataset.calendar(),
    );
    let builder = SlotBuilder::new(&dataset, &plan);
    let mut hash = FNV_OFFSET;
    for hour in (0..dataset.horizon_hours).step_by(7) {
        let slot = builder.slot_at(hour);
        hash = fnv_bytes(hash, &slot.hour_index.to_le_bytes());
        hash = fnv1a(hash, slot.budget_kwh);
        hash = fnv_bytes(hash, &(slot.candidates.len() as u64).to_le_bytes());
        for c in &slot.candidates {
            hash = fnv_bytes(hash, &c.rule_id.0.to_le_bytes());
            hash = fnv_str(hash, &c.zone);
            hash = fnv_bytes(hash, &[c.device_class as u8, u8::from(c.necessity)]);
            hash = fnv_str(hash, &c.owner);
            hash = [c.desired, c.ambient, c.exec_kwh]
                .into_iter()
                .fold(hash, fnv1a);
            hash = match c.ifttt_value {
                None => fnv_bytes(hash, &[0]),
                Some(v) => fnv1a(fnv_bytes(hash, &[1]), v),
            };
            hash = fnv1a(hash, c.ifttt_kwh);
        }
    }
    format!("{hash:016x}")
}

#[test]
fn flat_bits_are_pinned() {
    assert_eq!(dataset_hash(DatasetKind::Flat), "94553f096342b241");
}

#[test]
fn house_bits_are_pinned() {
    assert_eq!(dataset_hash(DatasetKind::House), "453200020a2f1d10");
}

#[test]
fn dorms_bits_are_pinned() {
    assert_eq!(dataset_hash(DatasetKind::Dorms), "6e804e951e01c27c");
}

#[test]
fn flat_slot_stream_is_pinned() {
    assert_eq!(slot_stream_hash(DatasetKind::Flat), "7f443c2503098c39");
}

#[test]
fn house_slot_stream_is_pinned() {
    assert_eq!(slot_stream_hash(DatasetKind::House), "22d543169c0a6707");
}

#[test]
fn dorms_slot_stream_is_pinned() {
    assert_eq!(slot_stream_hash(DatasetKind::Dorms), "e5023dbcf0a5976b");
}
