//! Golden pins of every deployment driver's output bytes.
//!
//! Each pin is FNV-1a-64 over the bytes of `serde_json::to_string` of an
//! outcome: a soak outcome, a recoverable run's final-state digest, or a
//! prototype week with its wall-clock `ft_seconds` zeroed. The drivers
//! share one tick loop, so a change to that loop — the order counters
//! accumulate in, which workload feeds which run, when a checkpoint is
//! written — moves a pin here even where the drivers' own tests only
//! compare two runs of the same code.
//!
//! The store's bytes are pinned the same way: the `command_journal` and
//! `checkpoint` log segments a recoverable run or a journaled soak leaves
//! on disk.

use imcf_chaos::FaultPlan;
use imcf_controller::prototype::{run_prototype, PrototypeConfig};
use imcf_controller::{run_recoverable, run_soak, RecoveryConfig, SoakConfig};
use serde::Serialize;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn pin(value: &impl Serialize) -> String {
    let json = serde_json::to_string(value).unwrap();
    let hash = json.bytes().fold(FNV_OFFSET, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
    });
    format!("{hash:016x}")
}

#[test]
fn soak_with_command_and_store_faults_is_pinned() {
    let config = SoakConfig {
        seed: 1,
        ticks: 120,
        zones: 2,
        plan: FaultPlan::commands(1, 0.2).with_store_faults(0.1),
        ..SoakConfig::default()
    };
    assert_eq!(pin(&run_soak(&config, None)), "9188224b4f7d6d62");
}

#[test]
fn soak_with_sensor_outages_is_pinned() {
    let config = SoakConfig {
        seed: 11,
        ticks: 168,
        zones: 3,
        plan: FaultPlan::commands(11, 0.10).with_store_faults(0.05),
        outage_rate_per_week: 2.0,
        ..SoakConfig::default()
    };
    assert_eq!(pin(&run_soak(&config, None)), "004413b7bc6f01cc");
}

#[test]
fn soak_with_and_without_the_obs_plane_is_pinned() {
    let config = SoakConfig {
        seed: 29,
        ticks: 72,
        zones: 2,
        plan: FaultPlan::commands(29, 0.3),
        ..SoakConfig::default()
    };
    assert_eq!(pin(&run_soak(&config, None)), "43d48a705bdaeca9");
    let dark = SoakConfig {
        obs_capacity: 0,
        ..config
    };
    assert_eq!(pin(&run_soak(&dark, None)), "3c5c90bc0e858158");
}

#[test]
fn journaled_soak_with_a_torn_tail_is_pinned() {
    let dir = tempfile::tempdir().unwrap();
    let config = SoakConfig {
        seed: 0,
        ticks: 120,
        zones: 3,
        plan: FaultPlan::commands(0, 0.10).with_store_faults(0.6),
        ..SoakConfig::default()
    };
    let out = run_soak(&config, Some(dir.path()));
    assert!(out.torn_reopen, "{out:?}");
    assert_eq!(out.journal_rows, 297);
    assert_eq!(out.storage_errors, 529);
    assert_eq!(pin(&out), "14697d34390d4664");
}

fn faulty_recovery(ticks: u64) -> RecoveryConfig {
    RecoveryConfig {
        seed: 7,
        ticks,
        zones: 2,
        checkpoint_every: 5,
        plan: FaultPlan::commands(7, 0.35),
        ..RecoveryConfig::default()
    }
}

#[test]
fn uncrashed_recoverable_digest_is_pinned() {
    let dir = tempfile::tempdir().unwrap();
    let out = run_recoverable(&faulty_recovery(40), dir.path()).unwrap();
    assert_eq!(out.resumed_from, None);
    assert_eq!(pin(&out.digest), "659c11da1e60702a");
}

#[test]
fn resumed_recoverable_digest_is_pinned() {
    let dir = tempfile::tempdir().unwrap();
    run_recoverable(&faulty_recovery(17), dir.path()).unwrap();
    let out = run_recoverable(&faulty_recovery(40), dir.path()).unwrap();
    assert_eq!(out.resumed_from, Some(17));
    assert_eq!(out.replayed_commands, 65);
    assert_eq!(out.checkpoints_written, 5);
    assert_eq!(pin(&out.digest), "659c11da1e60702a");
}

fn prototype_pin(month: u32) -> String {
    let mut out = run_prototype(PrototypeConfig {
        month,
        ..PrototypeConfig::default()
    })
    .unwrap();
    out.ft_seconds = 0.0;
    pin(&out)
}

#[test]
fn winter_prototype_week_is_pinned() {
    assert_eq!(prototype_pin(1), "bdb5f9af6cbab30d");
}

#[test]
fn summer_prototype_week_is_pinned() {
    assert_eq!(prototype_pin(7), "9bd90b3845bfc6a7");
}

/// FNV-1a-64 over every log segment of `table` in `dir`, in sequence
/// order, each file's name hashed before its bytes.
fn files_pin(dir: &std::path::Path, table: &str) -> String {
    let files = imcf_store::segment::segment_files(dir, table).unwrap();
    assert!(
        !files.is_empty(),
        "no `{table}` segments in {}",
        dir.display()
    );
    let mut hash = FNV_OFFSET;
    for (_, path) in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let bytes = std::fs::read(&path).unwrap();
        for byte in name.bytes().chain(bytes) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    format!("{hash:016x}")
}

#[test]
fn recoverable_journal_and_checkpoint_bytes_are_pinned() {
    let dir = tempfile::tempdir().unwrap();
    run_recoverable(&faulty_recovery(40), dir.path()).unwrap();
    assert_eq!(files_pin(dir.path(), "command_journal"), "0e89453b788dfcb2");
    assert_eq!(files_pin(dir.path(), "checkpoint"), "e0178db262e5eee7");

    // A resumed run reopens both tables and appends after the replay; its
    // journal is byte-identical to the uncrashed run's.
    let dir = tempfile::tempdir().unwrap();
    run_recoverable(&faulty_recovery(17), dir.path()).unwrap();
    run_recoverable(&faulty_recovery(40), dir.path()).unwrap();
    assert_eq!(files_pin(dir.path(), "command_journal"), "0e89453b788dfcb2");
    assert_eq!(files_pin(dir.path(), "checkpoint"), "b0e2d94be33424f5");
}

#[test]
fn journaled_soak_bytes_are_pinned() {
    let dir = tempfile::tempdir().unwrap();
    let config = SoakConfig {
        seed: 3,
        ticks: 96,
        zones: 2,
        plan: FaultPlan::commands(3, 0.2),
        ..SoakConfig::default()
    };
    let out = run_soak(&config, Some(dir.path()));
    assert_eq!(out.journal_rows, 470);
    assert_eq!(files_pin(dir.path(), "command_journal"), "4bbaadef688c5d09");

    // Store faults and a torn tail: the reopen keeps the valid prefix.
    let dir = tempfile::tempdir().unwrap();
    let config = SoakConfig {
        seed: 0,
        ticks: 120,
        zones: 3,
        plan: FaultPlan::commands(0, 0.10).with_store_faults(0.6),
        ..SoakConfig::default()
    };
    let out = run_soak(&config, Some(dir.path()));
    assert!(out.torn_reopen, "{out:?}");
    assert_eq!(files_pin(dir.path(), "command_journal"), "7a138dc6687e7e00");
}
