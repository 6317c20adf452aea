//! Survivability contract for the resilient actuation pipeline: a long
//! soak at a 10 % command-fault rate with store faults and a journal on
//! disk must keep ticking — no panics, breakers open *and* recover
//! through the half-open probe, and the command journal reopens cleanly
//! even after a torn WAL tail. Journaling and bus stalls are pure
//! attachments: neither changes what the controller decides.

use imcf_chaos::FaultPlan;
use imcf_controller::{audit_journal, run_soak, SoakConfig, SoakOutcome};

fn survivability_config(seed: u64) -> SoakConfig {
    SoakConfig {
        seed,
        ticks: 120,
        zones: 3,
        plan: FaultPlan::commands(seed, 0.10).with_store_faults(0.05),
        ..SoakConfig::default()
    }
}

#[test]
fn soak_survives_100_plus_ticks_at_ten_percent_faults() {
    let dir = tempfile::tempdir().unwrap();
    let outcome = run_soak(&survivability_config(7), Some(dir.path()));

    assert!(outcome.ticks >= 100, "soak stopped early: {outcome:?}");
    assert!(
        outcome.instances > 0 && outcome.delivered > 0,
        "controller stopped planning under faults: {outcome:?}"
    );
    assert!(
        outcome.faults_injected > 0,
        "a 10% plan injected nothing: {outcome:?}"
    );
    assert!(
        outcome.retried > 0,
        "retry layer never engaged: {outcome:?}"
    );
    // Injected faults are either healed by retry or counted as failures —
    // the pipeline never loses track of a command.
    assert!(
        outcome.failed <= outcome.faults_injected,
        "more failures than injected faults: {outcome:?}"
    );
}

#[test]
fn breakers_open_and_recover_through_half_open_probe() {
    // Sustained faults on a narrow device set: breakers must trip, and
    // because the plan is probabilistic (not stuck at 100 %), at least
    // one half-open probe must succeed by the end of the run.
    let mut opened = 0u64;
    let mut recovered = 0u64;
    for seed in 0..6 {
        let config = SoakConfig {
            seed,
            ticks: 150,
            zones: 2,
            plan: FaultPlan::commands(seed, 0.35),
            ..SoakConfig::default()
        };
        let outcome = run_soak(&config, None);
        opened += outcome.breaker_opens;
        recovered += outcome.breakers_recovered;
    }
    assert!(opened > 0, "no breaker ever opened at a 35% fault rate");
    assert!(
        recovered > 0,
        "no breaker ever recovered through half-open ({opened} opens)"
    );
}

#[test]
fn journal_reopens_cleanly_after_faulted_run_with_torn_tail() {
    // The torn-tail draw fires at a quarter of the store-fault rate, so
    // scan a few seeds at a high store rate until one run actually tears.
    let (dir, outcome) = (0..32)
        .find_map(|seed| {
            let dir = tempfile::tempdir().unwrap();
            let config = SoakConfig {
                seed,
                ticks: 120,
                zones: 3,
                plan: FaultPlan::commands(seed, 0.10).with_store_faults(0.6),
                ..SoakConfig::default()
            };
            let outcome = run_soak(&config, Some(dir.path()));
            outcome.torn_reopen.then_some((dir, outcome))
        })
        .expect("no seed in 0..32 tore the WAL tail at a 60% store rate");

    // The soak already audited the journal once after truncation; audit
    // it again here to prove the recovery is stable, not a one-shot
    // salvage.
    let audit = audit_journal(dir.path()).expect("post-soak reopen failed");
    assert_eq!(
        audit.rows, outcome.journal_rows,
        "journal row count changed across reopen"
    );
    // Storage faults were injected, so some appends failed — but every
    // surviving row must round-trip, and none may double a delivery.
    assert!(
        outcome.storage_errors > 0,
        "no WAL faults fired: {outcome:?}"
    );
    assert_eq!(audit.duplicate_deliveries, 0, "{audit:?}");
    assert!(audit.sealed_ticks <= outcome.ticks, "{audit:?}");
    assert!(
        audit.delivered_ids.len() as u64 <= outcome.delivered,
        "{audit:?}"
    );
}

/// `out` with the three fields only a journal moves reset.
fn journal_fields_reset(out: &SoakOutcome) -> SoakOutcome {
    SoakOutcome {
        journal_rows: 0,
        storage_errors: 0,
        torn_reopen: false,
        ..out.clone()
    }
}

#[test]
fn a_journaled_soak_decides_what_an_unjournaled_one_does() {
    for seed in [0, 7, 11] {
        for store_rate in [0.0, 0.05, 0.3, 0.6] {
            let config = SoakConfig {
                seed,
                ticks: 120,
                zones: 3,
                plan: FaultPlan::commands(seed, 0.10).with_store_faults(store_rate),
                ..SoakConfig::default()
            };
            let dir = tempfile::tempdir().unwrap();
            let journaled = run_soak(&config, Some(dir.path()));
            let bare = run_soak(&config, None);
            let case = format!("seed {seed}, store rate {store_rate}");
            assert_eq!(journaled.error, None, "{case}");
            assert!(journaled.journal_rows > 0, "{case}: {journaled:?}");
            assert_eq!(
                journal_fields_reset(&journaled),
                journal_fields_reset(&bare),
                "{case}"
            );
            if store_rate > 0.0 {
                continue;
            }
            assert_eq!(journaled.storage_errors, 0, "{case}");
            assert!(!journaled.torn_reopen, "{case}");
            let audit = audit_journal(dir.path()).unwrap();
            assert_eq!(audit.rows, journaled.journal_rows, "{case}");
            assert_eq!(audit.duplicate_deliveries, 0, "{case}");
            assert_eq!(audit.sealed_ticks, journaled.ticks, "{case}");
            assert_eq!(
                audit.delivered_ids.len() as u64,
                journaled.delivered,
                "{case}"
            );
        }
    }
}

#[test]
fn a_second_soak_into_a_journaled_directory_is_refused() {
    let dir = tempfile::tempdir().unwrap();
    let config = SoakConfig {
        ticks: 24,
        zones: 1,
        plan: FaultPlan::commands(0, 0.10),
        ..SoakConfig::default()
    };
    let first = run_soak(&config, Some(dir.path()));
    assert_eq!(first.error, None, "{first:?}");

    let again = run_soak(&config, Some(dir.path()));
    assert_eq!(again.ticks, 0, "{again:?}");
    assert_eq!(again.delivered, 0, "{again:?}");
    let error = again.error.as_deref().unwrap_or_default();
    assert!(
        error.contains("already holds a command journal"),
        "{again:?}"
    );
    // The refused run left the first run's journal as it found it.
    assert_eq!(audit_journal(dir.path()).unwrap().rows, first.journal_rows);
}

#[test]
fn composed_outage_and_fault_scenario_keeps_fce_bounded() {
    // Satellite 4: sensor outages (frozen readings) composed with command
    // and store faults. The degraded-mode planner keeps convenience error
    // within a bounded delta of the fault-free baseline instead of
    // collapsing.
    let baseline = run_soak(
        &SoakConfig {
            seed: 11,
            ticks: 168,
            zones: 3,
            ..SoakConfig::default()
        },
        None,
    );
    let composed = run_soak(
        &SoakConfig {
            seed: 11,
            ticks: 168,
            zones: 3,
            plan: FaultPlan::commands(11, 0.10).with_store_faults(0.05),
            outage_rate_per_week: 2.0,
            ..SoakConfig::default()
        },
        None,
    );

    assert!(
        composed.faults_injected > 0,
        "composed scenario injected nothing: {composed:?}"
    );
    assert!(
        composed.ticks == baseline.ticks,
        "composed soak stopped early"
    );
    let delta = composed.fce_percent - baseline.fce_percent;
    assert!(
        delta >= -1e-9,
        "faults cannot improve convenience: {delta:.3}"
    );
    assert!(
        delta < 30.0,
        "composed degradation unbounded: baseline {:.2}% vs composed {:.2}%",
        baseline.fce_percent,
        composed.fce_percent
    );
    // Determinism of the composed scenario itself.
    let again = run_soak(
        &SoakConfig {
            seed: 11,
            ticks: 168,
            zones: 3,
            plan: FaultPlan::commands(11, 0.10).with_store_faults(0.05),
            outage_rate_per_week: 2.0,
            ..SoakConfig::default()
        },
        None,
    );
    assert_eq!(again, composed, "composed scenario is nondeterministic");
}
