//! Crash recovery: checkpoint/restore plus an exactly-once command journal.
//!
//! The durability model has two tables in one store directory:
//!
//! * **`checkpoint`** — versioned [`ControllerCheckpoint`] records appended
//!   through a [`SharedTable`] every N ticks, each fsynced directly. A
//!   checkpoint is
//!   the *full* control state (planner RNG mid-stream, energy meter,
//!   breaker banks and cooldowns, carry-over reserve, virtual chaos
//!   clock), so a restored controller plans byte-identically to one that
//!   never crashed.
//! * **`command_journal`** — one [`CommandRecord`] per actuation attempt
//!   outcome, keyed by a deterministic command id derived from
//!   `(planner seed, tick, per-tick command index)` — the same derivation
//!   as trace identity — plus one [`TickSummary`] seal per completed tick.
//!   The journal's per-tick fsync (in
//!   [`CommandJournal::seal_tick`]) is the acknowledgement point.
//!
//! Together they give **exactly-once actuation across crashes**:
//!
//! * A command acknowledged before the crash re-derives the same id on
//!   re-execution, hits the journal's delivered set, and is *skipped* —
//!   no double actuation. Its effect on the device twin was already
//!   rebuilt by [`CommandJournal::open`] at restore time, and the skip
//!   path redoes the in-memory bookkeeping (meter, breaker, reserve) the
//!   crash wiped out.
//! * A command that was in flight (journaled but not yet synced, or never
//!   journaled) is re-executed from the restored control state, which
//!   replays the original decision deterministically — no lost command.
//!
//! Restores re-execute at most `checkpoint_interval` ticks of work (the
//! journal tail); [`run_recoverable`] is the harnessable unit the
//! `imcf chaos --crash` soak kills and restarts.

use crate::controller::{
    ControllerCheckpoint, ControllerConfig, ControllerError, LocalController, TickSummary,
};
use crate::deployment::{zone_names, Deployment, ZoneSlots};
use imcf_chaos::{BreakerBank, FaultPlan};
use imcf_core::calendar::PaperCalendar;
use imcf_core::planner::PlannerConfig;
use imcf_devices::command::Command;
use imcf_devices::registry::DeviceRegistry;
use imcf_store::{Change, Log, SharedTable};
use imcf_telemetry::Stopwatch;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Store-directory table holding [`ControllerCheckpoint`] rows.
pub const CHECKPOINT_TABLE: &str = "checkpoint";
/// Store-directory table holding the exactly-once command journal.
pub const JOURNAL_TABLE: &str = "command_journal";

/// One journaled record: either a command attempt outcome or a tick seal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// A completed tick's summary — the journal's acknowledgement marker
    /// (sealed ticks were fully journaled before their fsync).
    Tick(TickSummary),
    /// One command's final outcome for this incarnation.
    Command(CommandRecord),
}

/// The journal row for one command.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommandRecord {
    /// Deterministic id: `TraceId::derive(seed, tick, index)` — identical
    /// across incarnations, which is what makes dedup sound.
    pub command_id: u64,
    /// The tick that issued the command.
    pub hour_index: u64,
    /// The full command, replayable into a registry.
    pub command: Command,
    /// The rendered wire form on delivery; `None` for a command that
    /// exhausted its retries.
    pub wire: Option<String>,
    /// Delivery attempts made (first try included).
    pub attempts: u32,
    /// The final failure reason for undelivered commands.
    pub reason: Option<String>,
}

/// The exactly-once command journal: an append-only WAL-backed [`Log`]
/// plus the in-memory dedup indexes rebuilt from it on open. It holds no
/// rows and no wire strings: a record is folded into the id indexes as it
/// is replayed or appended.
pub struct CommandJournal {
    log: Log<JournalRecord>,
    /// Delivered command ids (the dedup set).
    delivered: BTreeSet<u64>,
    /// Ids journaled as permanently failed and never delivered: disjoint
    /// from `delivered`, so each journaled id is held once. Duplicate
    /// appends are suppressed against both sets.
    failed: BTreeSet<u64>,
    /// Hour indexes already sealed with a [`JournalRecord::Tick`] row.
    sealed: BTreeSet<u64>,
    /// Commands skipped (not re-actuated) because the journal already
    /// acknowledged them — this incarnation only.
    deduped: u64,
}

impl CommandJournal {
    /// Opens (or creates) the journal in `dir` and reads it once: each
    /// surviving record rebuilds the dedup indexes, and each delivered
    /// command is replayed into `registry`'s device twins without
    /// re-actuating (egress filters and fault injectors are bypassed).
    /// Returns the journal and the number of commands replayed.
    pub fn open(
        dir: &Path,
        registry: &DeviceRegistry,
    ) -> Result<(CommandJournal, u64), ControllerError> {
        let mut delivered = BTreeSet::new();
        let mut failed = BTreeSet::new();
        let mut sealed = BTreeSet::new();
        let mut replayed = 0;
        let log = Log::open(dir, JOURNAL_TABLE, |change| match change {
            Change::Put(_, JournalRecord::Tick(summary)) => {
                sealed.insert(summary.hour_index);
            }
            Change::Put(_, JournalRecord::Command(cmd)) => {
                if cmd.wire.is_some() {
                    if registry.apply_replayed(&cmd.command).is_ok() {
                        replayed += 1;
                    }
                    // A delivered row wins over a failed row for its id.
                    failed.remove(&cmd.command_id);
                    delivered.insert(cmd.command_id);
                } else if !delivered.contains(&cmd.command_id) {
                    failed.insert(cmd.command_id);
                }
            }
            // The journal only appends.
            Change::Delete(_) => {}
        })?;
        let journal = CommandJournal {
            log,
            delivered,
            failed,
            sealed,
            deduped: 0,
        };
        Ok((journal, replayed))
    }

    /// Fails the journal's WAL operations as `plan`'s store faults say,
    /// through [`FaultPlan::wal_fault_hook`].
    pub fn inject_store_faults(&mut self, plan: &FaultPlan) {
        self.log.set_wal_fault_hook(plan.wal_fault_hook());
    }

    /// Count of distinct delivered command ids.
    pub fn delivered_count(&self) -> u64 {
        self.delivered.len() as u64
    }

    /// Count of distinct command ids journaled as permanently failed.
    pub fn failed_count(&self) -> u64 {
        self.failed.len() as u64
    }

    /// Count of sealed (fully journaled + fsynced) ticks.
    pub fn sealed_ticks(&self) -> u64 {
        self.sealed.len() as u64
    }

    /// Commands this incarnation skipped because a previous incarnation
    /// already delivered them.
    pub fn deduped(&self) -> u64 {
        self.deduped
    }

    /// Whether the journal acknowledges `command_id` as delivered.
    pub(crate) fn is_delivered(&self, command_id: u64) -> bool {
        self.delivered.contains(&command_id)
    }

    pub(crate) fn note_deduped(&mut self) {
        self.deduped += 1;
    }

    /// Whether `command_id` has a row already, delivered or failed.
    fn is_journaled(&self, command_id: u64) -> bool {
        self.delivered.contains(&command_id) || self.failed.contains(&command_id)
    }

    pub(crate) fn record_delivered(
        &mut self,
        command_id: u64,
        hour_index: u64,
        command: &Command,
        wire: &str,
        attempts: u32,
    ) -> Result<(), ControllerError> {
        // An id already journaled by a previous incarnation (an append
        // that survived the crash without its fsync) must not be
        // journaled twice.
        if self.is_journaled(command_id) {
            return Ok(());
        }
        self.delivered.insert(command_id);
        self.log.insert(&JournalRecord::Command(CommandRecord {
            command_id,
            hour_index,
            command: command.clone(),
            wire: Some(wire.to_string()),
            attempts,
            reason: None,
        }))?;
        Ok(())
    }

    pub(crate) fn record_failed(
        &mut self,
        command_id: u64,
        hour_index: u64,
        command: &Command,
        attempts: u32,
        reason: &str,
    ) -> Result<(), ControllerError> {
        if self.is_journaled(command_id) {
            return Ok(());
        }
        self.failed.insert(command_id);
        self.log.insert(&JournalRecord::Command(CommandRecord {
            command_id,
            hour_index,
            command: command.clone(),
            wire: None,
            attempts,
            reason: Some(reason.to_string()),
        }))?;
        Ok(())
    }

    /// Seals a tick: journals its summary (once) and fsyncs the log. The
    /// sync is the acknowledgement point for every command of the tick —
    /// a crash before it re-executes them, a crash after it dedups them.
    pub(crate) fn seal_tick(&mut self, summary: &TickSummary) -> Result<(), ControllerError> {
        if self.sealed.insert(summary.hour_index) {
            self.log.insert(&JournalRecord::Tick(summary.clone()))?;
        }
        imcf_chaos::crashpoint::reached("journal.pre_sync");
        self.log.sync()?;
        imcf_chaos::crashpoint::reached("journal.post_sync");
        Ok(())
    }
}

/// A read-only audit of the on-disk journal — the crash soak's invariant
/// source. Read fresh from disk (recovering any torn tail the same way a
/// restarting controller would), folding each record as it is replayed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalAudit {
    /// Journal rows readable.
    pub rows: u64,
    /// Distinct delivered command ids, sorted.
    pub delivered_ids: Vec<u64>,
    /// Delivered rows beyond the first per command id — a double
    /// actuation; must be zero.
    pub duplicate_deliveries: u64,
    /// Sealed tick count.
    pub sealed_ticks: u64,
}

/// Audits the journal in `dir` without mutating controller state.
pub fn audit_journal(dir: &Path) -> Result<JournalAudit, ControllerError> {
    let mut rows = 0;
    let mut ids = BTreeSet::new();
    let mut duplicate_deliveries = 0;
    let mut sealed_ticks = 0;
    // The journal only appends, so every replayed row is one more row.
    Log::<JournalRecord>::open(dir, JOURNAL_TABLE, |change| match change {
        Change::Put(_, record) => {
            rows += 1;
            match record {
                JournalRecord::Tick(_) => sealed_ticks += 1,
                JournalRecord::Command(cmd) => {
                    if cmd.wire.is_some() && !ids.insert(cmd.command_id) {
                        duplicate_deliveries += 1;
                    }
                }
            }
        }
        Change::Delete(_) => {}
    })?;
    Ok(JournalAudit {
        rows,
        delivered_ids: ids.into_iter().collect(),
        duplicate_deliveries,
        sealed_ticks,
    })
}

/// Configuration of a recoverable controller run (the crash soak's unit
/// of work). The workload is the soak workload minus sensor outages:
/// pure in `(seed, tick)`, so an uncrashed run at the same seed is the
/// byte-exact reference for a crashed-and-restored one. The run starts in
/// January, with the default retry policy and breaker tuning, and each
/// tick runs under a 30 s stuck-tick watchdog.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Run seed: weather, and the planner, which command and trace ids
    /// derive from.
    pub seed: u64,
    /// Ticks (hours) to run in total.
    pub ticks: u64,
    /// Zones provisioned (`zone0`, `zone1`, …), two devices each.
    pub zones: usize,
    /// Checkpoint every N completed ticks (0 = only the terminal
    /// checkpoint).
    pub checkpoint_every: u64,
    /// Device fault schedule (exercises the failed-command journal path).
    pub plan: FaultPlan,
    /// Weekly energy budget per zone, kWh.
    pub weekly_budget_kwh: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            seed: 0,
            ticks: 72,
            zones: 2,
            checkpoint_every: 8,
            plan: FaultPlan::disabled(0),
            weekly_budget_kwh: 165.0,
        }
    }
}

/// A canonical fingerprint of the full post-run state. Two runs at the
/// same config are equivalent iff their digests serialize byte-identically
/// — the crash soak's strongest invariant. Deliberately excludes
/// wall-clock measurements and registry *attempt* counters (a crashed run
/// legitimately re-attempts blocked/failed dispatches).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateDigest {
    /// One past the last executed tick.
    pub next_tick: u64,
    /// The carry-over budget reserve, kWh.
    pub reserve_kwh: f64,
    /// Total metered energy, kWh.
    pub energy_kwh: f64,
    /// A probe draw from a clone of the planner RNG — fingerprints the
    /// RNG stream position without advancing it.
    pub rng_probe: u64,
    /// Final device item states, rendered, by item name.
    pub item_states: BTreeMap<String, String>,
    /// The full circuit-breaker bank (states, cooldowns, counters).
    pub breakers: BreakerBank,
    /// Distinct delivered command ids in the journal.
    pub journal_delivered: u64,
    /// Distinct permanently-failed command ids in the journal.
    pub journal_failed: u64,
    /// Sealed ticks in the journal.
    pub journal_ticks: u64,
}

/// Computes the [`StateDigest`] of a controller (journal attached) after
/// it has executed ticks `0..ticks`.
pub fn state_digest(controller: &LocalController, zones: &[String], ticks: u64) -> StateDigest {
    let registry = controller.registry();
    let mut item_states = BTreeMap::new();
    for zone in zones {
        for item in [format!("{zone}_SetPoint"), format!("{zone}_Light")] {
            if let Some(found) = registry.item(&item) {
                item_states.insert(item, format!("{:?}", found.state));
            }
        }
    }
    StateDigest {
        next_tick: ticks,
        reserve_kwh: controller.reserve_kwh(),
        energy_kwh: controller.meter().total_kwh(),
        rng_probe: controller.rng_probe(),
        item_states,
        breakers: controller.breakers().lock().clone(),
        journal_delivered: controller.journal().map_or(0, |j| j.delivered_count()),
        journal_failed: controller.journal().map_or(0, |j| j.failed_count()),
        journal_ticks: controller.journal().map_or(0, |j| j.sealed_ticks()),
    }
}

/// What [`open_or_restore`] hands back: a controller positioned at
/// `start_tick`, its device twins rebuilt from the journal it has attached.
pub struct OpenedController {
    /// The controller, restored from the latest checkpoint when one
    /// existed, fresh otherwise.
    pub controller: LocalController,
    /// The first tick to execute.
    pub start_tick: u64,
    /// `Some(start_tick)` when restored from a checkpoint.
    pub resumed_from: Option<u64>,
    /// Delivered journal commands replayed into the device twins.
    pub replayed_commands: u64,
    /// Wall time of the open/restore (checkpoint load + journal replay),
    /// microseconds.
    pub restore_micros: u64,
    /// The checkpoint log, for subsequent writes.
    pub checkpoints: SharedTable<ControllerCheckpoint>,
}

/// Opens the store in `dir` and either restores the controller from the
/// latest durable checkpoint or builds a fresh one from `config`. Either
/// way the journal is opened, its delivered half replayed into the
/// device twins, and the journal attached for exactly-once dedup.
pub fn open_or_restore(
    config: &RecoveryConfig,
    dir: &Path,
) -> Result<OpenedController, ControllerError> {
    let stopwatch = Stopwatch::start();
    let (log, latest) = open_checkpoints(dir)?;
    let checkpoints = SharedTable::new(log);

    let (mut controller, start_tick, resumed_from) = match latest {
        Some(cp) => {
            let start = cp.next_tick;
            (LocalController::restore(&cp)?, start, Some(start))
        }
        None => {
            let planner = PlannerConfig {
                seed: config.seed,
                ..PlannerConfig::default()
            };
            let fresh = LocalController::with_zones(
                ControllerConfig {
                    planner,
                    ..ControllerConfig::default()
                },
                PaperCalendar::january_start(),
                &zone_names(config.zones),
            )?;
            (fresh, 0, None)
        }
    };

    let (journal, replayed_commands) = CommandJournal::open(dir, &controller.registry())?;
    controller.attach_journal(journal);

    let restore_micros = stopwatch.elapsed_micros();
    imcf_telemetry::global()
        .histogram("controller.restore_micros")
        .observe(restore_micros as f64);

    Ok(OpenedController {
        controller,
        start_tick,
        resumed_from,
        replayed_commands,
        restore_micros,
        checkpoints,
    })
}

/// The outcome of one (possibly resumed) recoverable run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryOutcome {
    /// The run seed.
    pub seed: u64,
    /// Total ticks the run covers.
    pub ticks: u64,
    /// Zones provisioned.
    pub zones: usize,
    /// `Some(tick)` when this incarnation resumed from a checkpoint.
    pub resumed_from: Option<u64>,
    /// Delivered journal commands replayed into twins at restore.
    pub replayed_commands: u64,
    /// Commands skipped (not re-actuated) by journal dedup.
    pub deduped: u64,
    /// Checkpoints made durable by this incarnation.
    pub checkpoints_written: u64,
    /// Open/restore wall time, microseconds (not part of the digest).
    pub restore_micros: u64,
    /// Journal/checkpoint writes that failed with a storage error.
    pub storage_errors: u64,
    /// Watchdog trips observed (stuck ticks).
    pub watchdog_trips: u64,
    /// The canonical final-state fingerprint.
    pub digest: StateDigest,
}

/// Runs (or resumes) the recoverable workload to `config.ticks`,
/// checkpointing every `config.checkpoint_every` ticks. Kill this at any
/// instruction and a re-invocation on the same `dir` finishes the run
/// with the exactly-once guarantees documented at module level.
///
/// Fails with [`ControllerError::Rewind`] when `dir` is already
/// checkpointed past `config.ticks`, leaving the store as it was.
pub fn run_recoverable(
    config: &RecoveryConfig,
    dir: &Path,
) -> Result<RecoveryOutcome, ControllerError> {
    let opened = open_or_restore(config, dir)?;
    let zones = zone_names(config.zones);
    let mut slots = ZoneSlots::new(config.seed, &zones, config.weekly_budget_kwh, None);
    // The twins are pure in (seed, tick): re-stepping them to the resume
    // point is the deterministic alternative to checkpointing them.
    for h in 0..opened.start_tick {
        slots.slot(h);
    }
    opened.controller.attach_chaos(config.plan.clone());
    let mut deployment = Deployment::new(opened.controller)
        .with_checkpoints(opened.checkpoints, config.checkpoint_every);
    let out = deployment.run(opened.start_tick..config.ticks, &zones, |h| slots.slot(h))?;

    let controller = &deployment.controller;
    Ok(RecoveryOutcome {
        seed: config.seed,
        ticks: config.ticks,
        zones: config.zones,
        resumed_from: opened.resumed_from,
        replayed_commands: opened.replayed_commands,
        deduped: controller.journal().map_or(0, |j| j.deduped()),
        checkpoints_written: deployment.checkpoints_written,
        restore_micros: opened.restore_micros,
        storage_errors: out.storage_errors,
        watchdog_trips: deployment.watchdog_trips(),
        digest: state_digest(controller, &zones, config.ticks),
    })
}

/// Has a completed run (terminal checkpoint at `ticks`) been recorded in
/// `dir`? The crash soak's parent uses this to detect child completion
/// independently of exit codes.
pub fn run_complete(dir: &Path, ticks: u64) -> Result<bool, ControllerError> {
    let (_, latest) = open_checkpoints(dir)?;
    Ok(latest.is_some_and(|cp| cp.next_tick >= ticks))
}

/// Opens the checkpoint log, keeping only the latest checkpoint as it
/// replays: the one with the highest row id, since checkpoints are only
/// appended. A latest checkpoint that was later deleted restores nothing
/// (a fresh start, which the journal's dedup makes exact) rather than an
/// older one, whose row the fold no longer holds.
fn open_checkpoints(
    dir: &Path,
) -> Result<(Log<ControllerCheckpoint>, Option<ControllerCheckpoint>), ControllerError> {
    // The highest row id seen, and its checkpoint unless it was deleted.
    let mut latest: Option<(u64, Option<ControllerCheckpoint>)> = None;
    let log = Log::open(dir, CHECKPOINT_TABLE, |change| match change {
        Change::Put(id, checkpoint) => {
            if latest.as_ref().is_none_or(|(at, _)| id >= *at) {
                latest = Some((id, Some(checkpoint)));
            }
        }
        Change::Delete(id) => {
            if let Some((at, checkpoint)) = &mut latest {
                if *at == id {
                    *checkpoint = None;
                }
            }
        }
    })?;
    Ok((log, latest.and_then(|(_, checkpoint)| checkpoint)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(seed: u64) -> RecoveryConfig {
        RecoveryConfig {
            seed,
            ticks: 48,
            zones: 2,
            checkpoint_every: 7,
            ..RecoveryConfig::default()
        }
    }

    #[test]
    fn uncrashed_runs_are_byte_deterministic() {
        let a_dir = tempfile::tempdir().unwrap();
        let b_dir = tempfile::tempdir().unwrap();
        let a = run_recoverable(&config(5), a_dir.path()).unwrap();
        let b = run_recoverable(&config(5), b_dir.path()).unwrap();
        assert_eq!(
            serde_json::to_string(&a.digest).unwrap(),
            serde_json::to_string(&b.digest).unwrap()
        );
        assert_eq!(a.deduped, 0);
        assert!(a.resumed_from.is_none());
        assert!(a.digest.journal_delivered > 0);
        assert_eq!(a.digest.journal_ticks, 48);
    }

    #[test]
    fn resumed_run_matches_uncrashed_digest() {
        // Reference: one uninterrupted run.
        let ref_dir = tempfile::tempdir().unwrap();
        let reference = run_recoverable(&config(9), ref_dir.path()).unwrap();

        // Interrupted: run half the ticks, "crash" (drop everything), then
        // resume to the full horizon in a second incarnation.
        let dir = tempfile::tempdir().unwrap();
        let half = RecoveryConfig {
            ticks: 23,
            ..config(9)
        };
        let first = run_recoverable(&half, dir.path()).unwrap();
        assert_eq!(first.digest.next_tick, 23);

        let resumed = run_recoverable(&config(9), dir.path()).unwrap();
        assert_eq!(resumed.resumed_from, Some(23));
        assert!(resumed.replayed_commands > 0, "twins rebuilt from journal");
        assert_eq!(
            serde_json::to_string(&resumed.digest).unwrap(),
            serde_json::to_string(&reference.digest).unwrap(),
            "resumed state must be byte-identical to the uncrashed run"
        );
    }

    #[test]
    fn reexecuted_ticks_dedup_instead_of_double_actuating() {
        // Simulate losing the post-checkpoint work: complete a run, then
        // delete the checkpoints (but keep the journal) so the next
        // incarnation re-executes everything. Every delivered command must
        // dedup — zero new actuations — and the digest must still match.
        let dir = tempfile::tempdir().unwrap();
        let cfg = config(3);
        let first = run_recoverable(&cfg, dir.path()).unwrap();
        let delivered_before = first.digest.journal_delivered;
        assert!(delivered_before > 0);

        let table: imcf_store::Table<ControllerCheckpoint> =
            imcf_store::Table::open(dir.path(), CHECKPOINT_TABLE).unwrap();
        let ids: Vec<u64> = table.scan().map(|(id, _)| id).collect();
        let mut table = table;
        for id in ids {
            table.delete(id).unwrap();
        }
        table.sync().unwrap();
        drop(table);

        let second = run_recoverable(&cfg, dir.path()).unwrap();
        assert!(second.resumed_from.is_none(), "no checkpoint survives");
        assert_eq!(
            second.deduped, delivered_before,
            "every delivered command must be skipped, not re-actuated"
        );
        assert_eq!(second.digest.journal_delivered, delivered_before);
        let audit = audit_journal(dir.path()).unwrap();
        assert_eq!(audit.duplicate_deliveries, 0);
        assert_eq!(
            serde_json::to_string(&second.digest).unwrap(),
            serde_json::to_string(&first.digest).unwrap()
        );
    }

    #[test]
    fn each_journaled_id_sits_in_one_set_and_a_delivered_row_wins() {
        use imcf_devices::channel::ChannelUid;
        use imcf_devices::command::CommandPayload;

        let dir = tempfile::tempdir().unwrap();
        let registry = DeviceRegistry::new();
        let channel = ChannelUid::parse("imcf:hvac:den:power").unwrap();
        let command = Command::binding(channel, CommandPayload::Power(true));
        let row = |command_id, wire: Option<&str>| {
            JournalRecord::Command(CommandRecord {
                command_id,
                hour_index: 0,
                command: command.clone(),
                wire: wire.map(str::to_string),
                attempts: 1,
                reason: wire.is_none().then(|| "gave up".to_string()),
            })
        };
        // Rows the journal would refuse to write: id 1 fails and is then
        // delivered, id 2 is delivered and then fails. Id 3 only fails.
        let mut log = Log::open(dir.path(), JOURNAL_TABLE, |_| {}).unwrap();
        for (id, wire) in [
            (1, None),
            (1, Some("on")),
            (2, Some("on")),
            (2, None),
            (3, None),
        ] {
            log.insert(&row(id, wire)).unwrap();
        }
        drop(log);

        let (mut journal, _) = CommandJournal::open(dir.path(), &registry).unwrap();
        assert_eq!((journal.delivered_count(), journal.failed_count()), (2, 1));
        assert!(journal.is_delivered(1) && journal.is_delivered(2) && !journal.is_delivered(3));
        // An id in either set gets no second row.
        journal.record_delivered(3, 1, &command, "on", 1).unwrap();
        journal.record_failed(1, 1, &command, 3, "gave up").unwrap();
        // A new id lands in one set, and then the other refuses it.
        journal.record_failed(4, 1, &command, 3, "gave up").unwrap();
        journal.record_delivered(4, 1, &command, "on", 1).unwrap();
        journal.record_delivered(5, 1, &command, "on", 1).unwrap();
        journal.record_failed(5, 1, &command, 3, "gave up").unwrap();
        assert_eq!((journal.delivered_count(), journal.failed_count()), (3, 2));
        drop(journal);
        assert_eq!(audit_journal(dir.path()).unwrap().rows, 7);
    }

    #[test]
    fn faulty_workload_journals_failures_and_still_resumes_exactly() {
        let faulty = |ticks| RecoveryConfig {
            seed: 7,
            ticks,
            zones: 2,
            checkpoint_every: 5,
            plan: FaultPlan::commands(7, 0.35),
            ..RecoveryConfig::default()
        };
        let ref_dir = tempfile::tempdir().unwrap();
        let reference = run_recoverable(&faulty(40), ref_dir.path()).unwrap();
        assert!(
            reference.digest.journal_failed > 0,
            "fault plan must produce journaled failures: {reference:?}"
        );

        let dir = tempfile::tempdir().unwrap();
        run_recoverable(&faulty(17), dir.path()).unwrap();
        let resumed = run_recoverable(&faulty(40), dir.path()).unwrap();
        assert_eq!(
            serde_json::to_string(&resumed.digest).unwrap(),
            serde_json::to_string(&reference.digest).unwrap()
        );
    }

    #[test]
    fn a_shorter_resume_is_refused_instead_of_rewinding_the_store() {
        let faulty = |ticks| RecoveryConfig {
            ticks,
            plan: FaultPlan::commands(9, 0.2),
            ..config(9)
        };
        let ref_dir = tempfile::tempdir().unwrap();
        let reference = run_recoverable(&faulty(48), ref_dir.path()).unwrap();

        let dir = tempfile::tempdir().unwrap();
        run_recoverable(&faulty(48), dir.path()).unwrap();
        // The store is checkpointed at 48: a 23-tick run has nothing to
        // execute and must not write a terminal checkpoint at 23.
        let refused = run_recoverable(&faulty(23), dir.path())
            .map(|out| out.digest.next_tick)
            .unwrap_err()
            .to_string();
        assert!(
            refused.contains("48") && refused.contains("23"),
            "{refused}"
        );
        assert!(run_complete(dir.path(), 48).unwrap());

        let again = run_recoverable(&faulty(48), dir.path()).unwrap();
        assert_eq!(again.resumed_from, Some(48));
        assert_eq!(
            serde_json::to_string(&again.digest).unwrap(),
            serde_json::to_string(&reference.digest).unwrap()
        );
    }

    #[test]
    fn audit_sees_acked_ids_monotonically() {
        let dir = tempfile::tempdir().unwrap();
        run_recoverable(
            &RecoveryConfig {
                ticks: 10,
                ..config(1)
            },
            dir.path(),
        )
        .unwrap();
        let early = audit_journal(dir.path()).unwrap();
        run_recoverable(&config(1), dir.path()).unwrap();
        let late = audit_journal(dir.path()).unwrap();
        let late_ids: BTreeSet<u64> = late.delivered_ids.iter().copied().collect();
        for id in &early.delivered_ids {
            assert!(late_ids.contains(id), "acked id {id} lost after resume");
        }
        assert_eq!(late.duplicate_deliveries, 0);
    }

    #[test]
    fn run_complete_tracks_terminal_checkpoint() {
        let dir = tempfile::tempdir().unwrap();
        assert!(!run_complete(dir.path(), 10).unwrap());
        run_recoverable(
            &RecoveryConfig {
                ticks: 10,
                ..config(2)
            },
            dir.path(),
        )
        .unwrap();
        assert!(run_complete(dir.path(), 10).unwrap());
        assert!(!run_complete(dir.path(), 11).unwrap());
    }
}
