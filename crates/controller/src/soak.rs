//! The chaos soak harness: a controller deployment ticked for days under
//! an [`imcf_chaos::FaultPlan`].
//!
//! The soak drives a [`Deployment`] with the plan's device-command faults
//! injected through the registry and, when configured, sensor freezes
//! through an [`imcf_traces::outage::OutagePlan`]; then it reports what
//! survived.
//! Given a directory, it also attaches the exactly-once command journal
//! (the one journal `imcf chaos --crash` audits), fails its WAL
//! operations per the plan's store rate, tears its tail per the plan and
//! audits the reopened journal. Everything is sim-time deterministic: the
//! same [`SoakConfig`] produces a byte-identical [`SoakOutcome`]
//! regardless of process, thread count or query order, which is what lets
//! the `chaos_soak` bench sweep fault rates under `imcf-pool` and still
//! compare results exactly.

use crate::controller::{ControllerConfig, LocalController};
use crate::deployment::{zone_names, Deployment, ZoneSlots};
use crate::recovery::{audit_journal, CommandJournal, JOURNAL_TABLE};
use imcf_chaos::FaultPlan;
use imcf_core::calendar::PaperCalendar;
use imcf_store::segment::segment_files;
use imcf_traces::outage::OutagePlan;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Soak scenario configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoakConfig {
    /// Run seed: weather and sensor outages (the fault plan carries its
    /// own seed, expected to match). The planner seed stays 0.
    pub seed: u64,
    /// Ticks (hours) to run.
    pub ticks: u64,
    /// Zones provisioned (`zone0`, `zone1`, …), two devices each.
    pub zones: usize,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Expected sensor outages per week (0 disables the outage plan).
    pub outage_rate_per_week: f64,
    /// Weekly energy budget per zone, kWh.
    pub weekly_budget_kwh: f64,
    /// Raw points retained per obs series (0 disables the observability
    /// plane — no sampling, no alert evaluation).
    pub obs_capacity: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 0,
            ticks: 168,
            zones: 3,
            plan: FaultPlan::disabled(0),
            outage_rate_per_week: 0.0,
            weekly_budget_kwh: 165.0,
            obs_capacity: 256,
        }
    }
}

/// What a deployment run survived: the record every [`Deployment`] run
/// accumulates. Plain data, no wall-clock fields — byte identical for
/// identical configs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SoakOutcome {
    /// The run seed.
    pub seed: u64,
    /// Ticks executed.
    pub ticks: u64,
    /// Candidate rule instances planned.
    pub instances: u64,
    /// Commands delivered.
    pub delivered: u64,
    /// Commands blocked (firewall, offline, unprovisioned).
    pub blocked: u64,
    /// Commands that exhausted their retry budget.
    pub failed: u64,
    /// Retry attempts beyond first tries.
    pub retried: u64,
    /// Candidates excluded pre-plan by open breakers.
    pub quarantined: u64,
    /// Command faults the registry injector surfaced (includes faults
    /// healed by a later retry).
    pub faults_injected: u64,
    /// Circuit-breaker open transitions.
    pub breaker_opens: u64,
    /// Breakers that opened at least once and ended the run closed (the
    /// half-open probe succeeded).
    pub breakers_recovered: u64,
    /// Command-journal operations (appends, seals, fsyncs) that failed
    /// with a storage error.
    pub storage_errors: u64,
    /// Command-journal rows (commands and tick seals) readable after the
    /// final (possibly torn) reopen; 0 without a journal.
    pub journal_rows: u64,
    /// Whether the final reopen was handed a torn WAL tail.
    pub torn_reopen: bool,
    /// Alert rules that reached the firing state at least once (counts
    /// firing transitions, from the obs plane's stock rule set).
    pub alerts_fired: u64,
    /// Total alert state-machine transitions over the run.
    pub alert_transitions: u64,
    /// Every firing and resolved alert edge the obs plane took, in order,
    /// rendered `alert.<to>(<rule>)` — e.g. `alert.firing(breaker.open.storm)`.
    pub alert_events: Vec<String>,
    /// Energy delivered over the run, kWh.
    pub energy_kwh: f64,
    /// Aggregate convenience error, percent (prototype-style attribution:
    /// adopted rules cost nothing, dropped/quarantined/failed slots cost
    /// their ambient deficiency).
    pub fce_percent: f64,
    /// A soak-level failure (e.g. the journal directory could not be
    /// opened or already holds a journal, or the final reopen failed).
    /// `None` on a clean run; when set, the counters describe however much
    /// of the run completed.
    pub error: Option<String>,
}

/// Runs a soak scenario. With `journal_dir`, the controller journals
/// every command and tick seal to the exactly-once command journal in that
/// directory, with the plan's store faults hooked into its log; at the end
/// the journal's tail is torn per the plan and the journal is audited
/// from disk. A directory that already holds a command journal is
/// refused: the run would dedup every command against the earlier one.
pub fn run_soak(config: &SoakConfig, journal_dir: Option<&Path>) -> SoakOutcome {
    // A soak-level failure (a zone clash, an unusable journal directory)
    // is an operator error, not a survivability finding: report it in the
    // outcome instead of panicking.
    let refuse = |error: String| SoakOutcome {
        seed: config.seed,
        error: Some(error),
        ..SoakOutcome::default()
    };
    let zones = zone_names(config.zones);
    let mut controller = match LocalController::with_zones(
        ControllerConfig::default(),
        PaperCalendar::january_start(),
        &zones,
    ) {
        Ok(controller) => controller,
        Err(e) => return refuse(e.to_string()),
    };
    if let Some(dir) = journal_dir {
        if segment_files(dir, JOURNAL_TABLE).is_ok_and(|files| !files.is_empty()) {
            return refuse(format!(
                "`{}` already holds a command journal; a soak journals into a fresh directory",
                dir.display()
            ));
        }
        match CommandJournal::open(dir, &controller.registry()) {
            Ok((mut journal, _)) => {
                journal.inject_store_faults(&config.plan);
                controller.attach_journal(journal);
            }
            Err(e) => {
                return refuse(format!(
                    "cannot open the command journal in `{}`: {e}",
                    dir.display()
                ))
            }
        }
    }
    controller.attach_chaos(config.plan.clone());
    let mut deployment = Deployment::new(controller);
    if config.obs_capacity > 0 {
        deployment = deployment.with_obs(config.obs_capacity);
    }

    let outage = (config.outage_rate_per_week > 0.0)
        .then(|| OutagePlan::sample(config.ticks, config.outage_rate_per_week, 6, config.seed));
    let mut slots = ZoneSlots::new(config.seed, &zones, config.weekly_budget_kwh, outage);
    let mut out = match deployment.run(0..config.ticks, &zones, |h| slots.slot(h)) {
        Ok(out) => out,
        Err(e) => return refuse(e.to_string()),
    };
    out.seed = config.seed;

    // Close the journal, tear its WAL tail per the plan and prove a clean
    // reopen.
    drop(deployment);
    if let Some(dir) = journal_dir {
        // Tear the *highest-seq* segment — that is the active tail;
        // earlier (sealed) segments are never written again.
        let tail = segment_files(dir, JOURNAL_TABLE)
            .ok()
            .and_then(|files| files.into_iter().next_back());
        if let (Some(bytes), Some((_, wal_path))) = (config.plan.torn_tail_bytes(0), tail) {
            let torn = std::fs::OpenOptions::new()
                .write(true)
                .open(&wal_path)
                .and_then(|file| file.set_len(file.metadata()?.len().saturating_sub(bytes)));
            if torn.is_ok() {
                out.torn_reopen = true;
                // Recovering from a torn WAL tail is an anomaly worth a
                // flight dump: the causal record of the final ticks
                // survives alongside the journal.
                imcf_telemetry::trace::recorder().trigger("wal_recovery");
            }
        }
        // The whole point of the WAL is that a torn tail reopens cleanly;
        // if it does not, that is a store bug the outcome must surface —
        // still not worth killing the process that holds the counters.
        match audit_journal(dir) {
            Ok(audit) => out.journal_rows = audit.rows,
            Err(e) => {
                out.error = Some(format!(
                    "journal failed to reopen after {} run: {e}",
                    if out.torn_reopen {
                        "a torn-tail"
                    } else {
                        "the"
                    }
                ));
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_soak_is_clean_and_deterministic() {
        let config = SoakConfig {
            ticks: 48,
            zones: 2,
            ..SoakConfig::default()
        };
        let a = run_soak(&config, None);
        let b = run_soak(&config, None);
        assert_eq!(a, b);
        assert_eq!(a.failed, 0);
        assert_eq!(a.retried, 0);
        assert_eq!(a.quarantined, 0);
        assert_eq!(a.faults_injected, 0);
        assert_eq!(a.storage_errors, 0);
        assert!(a.delivered > 0);
    }

    #[test]
    fn faulty_soak_injects_retries_and_survives() {
        let config = SoakConfig {
            seed: 7,
            ticks: 120,
            zones: 2,
            plan: FaultPlan::commands(7, 0.2),
            ..SoakConfig::default()
        };
        let out = run_soak(&config, None);
        assert!(out.faults_injected > 0, "{out:?}");
        assert!(out.retried > 0, "{out:?}");
        assert!(out.delivered > 0, "{out:?}");
        // Byte-identical reproduction.
        let json_a = serde_json::to_string(&out).unwrap();
        let json_b = serde_json::to_string(&run_soak(&config, None)).unwrap();
        assert_eq!(json_a, json_b);
    }

    #[test]
    fn fault_rate_monotonically_degrades_convenience() {
        let base = SoakConfig {
            seed: 3,
            ticks: 96,
            zones: 2,
            ..SoakConfig::default()
        };
        let clean = run_soak(&base, None);
        let noisy = run_soak(
            &SoakConfig {
                plan: FaultPlan::commands(3, 0.4),
                ..base.clone()
            },
            None,
        );
        assert!(
            noisy.fce_percent >= clean.fce_percent,
            "clean {} vs noisy {}",
            clean.fce_percent,
            noisy.fce_percent
        );
        assert!(noisy.failed > 0 || noisy.retried > 0);
    }

    /// Acceptance: a breaker opening mid-soak triggers the flight
    /// recorder, and the dump on disk is a complete, Perfetto-loadable
    /// trace tree naming the quarantined device.
    #[test]
    fn breaker_open_dumps_flight_recorder_trace() {
        use imcf_telemetry::trace;

        let dir = tempfile::tempdir().unwrap();
        let recorder = trace::recorder();
        let was_enabled = recorder.is_enabled();
        recorder.set_enabled(true);
        recorder.set_dump_dir(Some(dir.path().to_path_buf()));

        let config = SoakConfig {
            seed: 2,
            ticks: 12,
            zones: 1,
            plan: FaultPlan::commands(2, 1.0),
            ..SoakConfig::default()
        };
        let out = run_soak(&config, None);

        recorder.set_dump_dir(None);
        recorder.set_enabled(was_enabled);

        assert!(
            out.breaker_opens > 0,
            "always-fault plan must trip: {out:?}"
        );
        let dump = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.contains("breaker_open"))
            })
            .expect("breaker_open trigger wrote a dump file");

        let text = std::fs::read_to_string(&dump).unwrap();
        let value: serde_json::Value = serde_json::from_str(&text).expect("dump is valid JSON");
        let events = value
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("Chrome-trace envelope");
        assert!(!events.is_empty(), "dump carries at least one event");
        assert!(
            text.contains("imcf:hvac:zone0") || text.contains("imcf:light:zone0"),
            "dump names the quarantined device:\n{text}"
        );
        assert!(text.contains("breaker.open"), "open transition recorded");
    }

    #[test]
    fn uncreatable_journal_dir_reports_instead_of_panicking() {
        let dir = tempfile::tempdir().unwrap();
        let in_the_way = dir.path().join("not-a-dir");
        std::fs::write(&in_the_way, b"occupied").unwrap();

        let config = SoakConfig {
            ticks: 4,
            zones: 1,
            ..SoakConfig::default()
        };
        // The requested journal dir sits *under a file*: uncreatable.
        let out = run_soak(&config, Some(&in_the_way.join("journal")));
        let error = out.error.as_deref().expect("outcome must carry the error");
        assert!(error.contains("command journal"), "{error}");
        assert_eq!(out.ticks, 0, "the run must not start without its journal");
        assert_eq!(out.delivered, 0);
        assert_eq!(out.seed, config.seed, "the outcome still names its run");
    }

    #[test]
    fn outage_and_faults_compose() {
        let config = SoakConfig {
            seed: 11,
            ticks: 96,
            zones: 2,
            plan: FaultPlan::commands(11, 0.15),
            outage_rate_per_week: 3.0,
            ..SoakConfig::default()
        };
        let out = run_soak(&config, None);
        assert_eq!(out.ticks, 96);
        assert!(out.delivered > 0);
    }
}
