//! Golden pin of the datasets' bits at seed 0.
//!
//! FNV-1a-64 over the little-endian bytes of `f64::to_bits` of every trace
//! value (zones in order; temperature, then light, then door-open), then of
//! the MR ECP's twelve months. Any change to trace synthesis, the window
//! algebra or the ECP accumulation that moves a single bit fails here,
//! whereas `deterministic_under_seed` only compares two builds of the same
//! code.

use imcf_sim::building::{Dataset, DatasetKind};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a(mut hash: u64, value: f64) -> u64 {
    for byte in value.to_bits().to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn dataset_hash(kind: DatasetKind) -> String {
    let dataset = Dataset::build(kind, 0);
    let mut hash = FNV_OFFSET;
    for zone in &dataset.trace.zones {
        for series in [&zone.temperature, &zone.light, &zone.door_open] {
            hash = series.values().iter().fold(hash, |h, &v| fnv1a(h, v));
        }
    }
    let ecp = dataset.derive_mr_ecp();
    hash = (1..=12).fold(hash, |h, month| fnv1a(h, ecp.month_kwh(month)));
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
