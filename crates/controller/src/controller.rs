//! The IMCF orchestration loop.
//!
//! [`LocalController`] is the paper's LC + IMCF component: it owns the
//! device registry, the firewall chain, the energy meter and the Energy
//! Planner. Each tick (one planning slot) it:
//!
//! 1. runs the EP over the slot's candidates,
//! 2. translates the plan into firewall state — ACCEPT rules for adopted
//!    (zone, device-class) pairs, DROP rules for dropped ones — mirroring
//!    the paper's `iptables` enforcement,
//! 3. issues the adopted rules' actuation commands through the registry
//!    (which consults the firewall on egress), and
//! 4. meters the consumed energy and reports the tick: its
//!    [`TickSummary`], its errors and, when attached, the command
//!    journal's records.
//!
//! ## Resilient actuation
//!
//! Real actuators drop commands, wedge, and flap. The actuation path
//! therefore runs through three layers of resilience (all sim-time
//! deterministic, see `imcf-chaos`):
//!
//! * a [`RetryPolicy`] retries failed deliveries with exponential,
//!   seeded-jitter backoff measured in *virtual ticks* (the fault plan is
//!   re-consulted at the backed-off coordinate, so a transient drop heals
//!   and a wedged actuator keeps failing);
//! * a per-device [`CircuitBreaker`](imcf_chaos::CircuitBreaker)
//!   quarantines devices that keep failing: their candidates are removed
//!   from the slot *before* planning (the plan re-allocates the freed
//!   budget to healthy devices) and the breaker half-opens after a
//!   cooldown to probe recovery;
//! * energy that was planned but never delivered (a command that failed
//!   every attempt) is re-attributed to the carry-over reserve, so the
//!   budget is never charged for actuations that did not happen.
//!
//! A quarantined or failed device keeps its last-known item state — the
//! registry only mutates state on delivery.

use crate::firewall::{Chain, FirewallRule, Match, Verdict};
use crate::recovery::CommandJournal;
use imcf_chaos::{BreakerBank, BreakerConfig, BreakerSnapshot, FaultPlan, RetryPolicy};
use imcf_core::calendar::PaperCalendar;
use imcf_core::candidate::PlanningSlot;
use imcf_core::planner::{EnergyPlanner, PlannerConfig};
use imcf_devices::channel::ChannelUid;
use imcf_devices::command::{Command, CommandOutcome, CommandPayload};
use imcf_devices::item::{Item, ItemKind};
use imcf_devices::registry::{DeviceRegistry, RegistryError};
use imcf_devices::thing::{Thing, ThingKind, ThingUid};
use imcf_rules::action::DeviceClass;
use imcf_rules::meta_rule::RuleId;
use imcf_sim::meter::EnergyMeter;
use imcf_telemetry::{trace, Counter, Histogram, Stopwatch};
use parking_lot::Mutex;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Controller configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ControllerConfig {
    /// Energy Planner parameters.
    pub planner: PlannerConfig,
    /// Actuation retry policy (default: 3 attempts, jittered backoff).
    pub retry: RetryPolicy,
    /// Per-device circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

/// Errors from controller operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControllerError {
    /// Provisioning a zone collided with already-registered things or
    /// items (the zone was provisioned twice, or an item name clashes).
    Provision {
        /// The zone being provisioned.
        zone: String,
        /// The underlying registry rejection.
        source: RegistryError,
    },
    /// A command exhausted its retry budget without being delivered.
    Actuation {
        /// UID of the thing the command targeted.
        thing: String,
        /// Delivery attempts made (first try included).
        attempts: u32,
        /// The final failure reason (e.g. `cmd_drop`, `cmd_stuck`).
        source: String,
    },
    /// The persistence layer failed (WAL write/fsync error).
    Storage {
        /// The underlying storage failure, rendered.
        source: String,
    },
    /// A run was asked to end before the tick its store is already
    /// checkpointed at; finishing it would rewind the store.
    Rewind {
        /// The tick the store's latest checkpoint resumes at.
        checkpointed: u64,
        /// The tick the run was asked to end at.
        ticks: u64,
    },
}

impl std::fmt::Display for ControllerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerError::Provision { zone, source } => {
                write!(f, "provisioning zone `{zone}`: {source}")
            }
            ControllerError::Actuation {
                thing,
                attempts,
                source,
            } => {
                write!(
                    f,
                    "actuating `{thing}`: {source} after {attempts} attempt(s)"
                )
            }
            ControllerError::Storage { source } => write!(f, "storage: {source}"),
            ControllerError::Rewind {
                checkpointed,
                ticks,
            } => write!(
                f,
                "the store is checkpointed at tick {checkpointed}, past the \
                 {ticks} ticks asked for; refusing to rewind it"
            ),
        }
    }
}

impl std::error::Error for ControllerError {}

impl From<imcf_store::table::TableError> for ControllerError {
    fn from(e: imcf_store::table::TableError) -> Self {
        ControllerError::Storage {
            source: e.to_string(),
        }
    }
}

/// The thing UID that actuates a `(zone, class)` candidate, or `None` for
/// classes without an actuator (meters). The one place these UIDs are
/// spelled out for matching against breakers and actuation errors.
pub fn thing_uid(zone: &str, class: DeviceClass) -> Option<String> {
    match class {
        DeviceClass::Hvac => Some(format!("imcf:hvac:{zone}")),
        DeviceClass::Light => Some(format!("imcf:light:{zone}")),
        DeviceClass::Meter => None,
    }
}

/// Each zone's actuator UIDs, `[HVAC, light]` as [`thing_uid`] spells
/// them, formatted the first time a tick asks for the zone: provisioning
/// does not pay for them, and later ticks borrow them.
#[derive(Default)]
struct ZoneUids(BTreeMap<String, [String; 2]>);

impl ZoneUids {
    /// The UID of `zone`'s `class` actuator; `None` for meters.
    fn get(&mut self, zone: &str, class: DeviceClass) -> Option<&str> {
        let index = match class {
            DeviceClass::Hvac => 0,
            DeviceClass::Light => 1,
            DeviceClass::Meter => return None,
        };
        if !self.0.contains_key(zone) {
            let uid = |class| thing_uid(zone, class).unwrap_or_default();
            let uids = [uid(DeviceClass::Hvac), uid(DeviceClass::Light)];
            self.0.insert(zone.to_string(), uids);
        }
        self.0.get(zone).map(|uids| uids[index].as_str())
    }
}

/// The outcome of one orchestration tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TickSummary {
    /// The slot's hour index.
    pub hour_index: u64,
    /// Rules adopted by the plan.
    pub adopted: Vec<RuleId>,
    /// Rules dropped by the plan.
    pub dropped: Vec<RuleId>,
    /// Energy consumed this tick, kWh.
    pub energy_kwh: f64,
    /// Commands delivered to devices.
    pub delivered: u64,
    /// Commands blocked by the firewall.
    pub blocked: u64,
    /// Commands that exhausted their retry budget.
    pub failed: u64,
    /// Retry attempts made beyond first tries.
    pub retried: u64,
    /// Candidates excluded pre-plan because their device's breaker was open.
    pub quarantined: u64,
}

/// The Local Controller with the IMCF extension.
pub struct LocalController {
    registry: DeviceRegistry,
    firewall: Arc<Mutex<Chain>>,
    planner: EnergyPlanner,
    rng: ChaCha8Rng,
    meter: EnergyMeter,
    next_host: u8,
    /// Unspent budget carried across ticks (the planner-side amortization
    /// reserve; see `imcf_core::planner::EnergyPlanner`).
    reserve_kwh: f64,
    retry: RetryPolicy,
    breakers: Arc<Mutex<BreakerBank>>,
    /// The *virtual* tick the fault plane sees. Advanced past the real
    /// hour index by retry backoff so a re-attempt re-draws the fault
    /// plan at a later coordinate (sim-time passing, not wall clock).
    chaos_tick: Arc<AtomicU64>,
    /// Seed for per-tick trace-id derivation (the planner seed, so trace
    /// identity follows the same reproducibility contract as planning).
    trace_seed: u64,
    /// The planner configuration the controller was built from, retained
    /// verbatim so a checkpoint is self-contained (the planner itself does
    /// not expose its config).
    planner_config: PlannerConfig,
    /// Optional exactly-once command journal (see [`crate::recovery`]).
    /// When attached, every actuation is recorded under a deterministic
    /// command id before the tick is acknowledged, and already-delivered
    /// ids are skipped (not re-actuated) on post-crash re-execution.
    journal: Option<CommandJournal>,
    uids: ZoneUids,
}

/// Version tag for [`ControllerCheckpoint`]; bump on layout change so a
/// restore from an incompatible checkpoint fails loudly instead of
/// misinterpreting bytes.
pub const CHECKPOINT_VERSION: u32 = 1;

/// The full serializable control state of a [`LocalController`], written
/// to the `checkpoint` table by the recovery layer and restored with
/// [`LocalController::restore`].
///
/// The checkpoint is *self-contained*: it carries the planner and retry
/// configuration plus the provisioned zones, so restoring needs no
/// external configuration — only this record. Device twin state is NOT
/// checkpointed; it is rebuilt by replaying the delivered half of the
/// command journal as it is opened (see [`CommandJournal::open`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerCheckpoint {
    /// Layout version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The first tick the restored controller should execute (one past
    /// the last tick fully covered by this checkpoint).
    pub next_tick: u64,
    /// Planner configuration (includes the seed: trace/command identity).
    pub planner: PlannerConfig,
    /// Actuation retry policy.
    pub retry: RetryPolicy,
    /// Zones provisioned at checkpoint time, in provisioning order (host
    /// address assignment depends on the order).
    pub zones: Vec<String>,
    /// The carry-over budget reserve, kWh.
    pub reserve_kwh: f64,
    /// Next host address octet for zone provisioning.
    pub next_host: u8,
    /// The planner RNG, mid-stream — restoring it is what makes resumed
    /// planning byte-deterministic with the uncrashed run.
    pub rng: ChaCha8Rng,
    /// The cumulative energy meter (carries its calendar).
    pub meter: EnergyMeter,
    /// Per-device circuit breakers, including open/half-open cooldowns.
    pub breakers: BreakerBank,
    /// The virtual fault-plane clock.
    pub chaos_tick: u64,
}

impl LocalController {
    /// Creates a controller with an empty device inventory.
    pub fn new(config: ControllerConfig, calendar: PaperCalendar) -> Self {
        let registry = DeviceRegistry::new();
        let firewall = Arc::new(Mutex::new(Chain::new(Verdict::Accept)));
        // Wire the firewall into the registry's egress path.
        let chain = Arc::clone(&firewall);
        registry.set_egress_filter(move |thing, cmd| {
            chain.lock().evaluate(thing, cmd) == Verdict::Accept
        });
        let planner = EnergyPlanner::from_config(config.planner);
        let rng = planner.rng();
        LocalController {
            registry,
            firewall,
            planner,
            rng,
            meter: EnergyMeter::new(calendar),
            next_host: 2,
            reserve_kwh: 0.0,
            retry: config.retry,
            breakers: Arc::new(Mutex::new(BreakerBank::new(config.breaker))),
            chaos_tick: Arc::new(AtomicU64::new(0)),
            trace_seed: config.planner.seed,
            planner_config: config.planner,
            journal: None,
            uids: ZoneUids::default(),
        }
    }

    /// Creates a controller and provisions `zones` in order (host
    /// addresses follow the order). Fails with
    /// [`ControllerError::Provision`] when two zones collide.
    pub fn with_zones(
        config: ControllerConfig,
        calendar: PaperCalendar,
        zones: &[String],
    ) -> Result<LocalController, ControllerError> {
        let mut controller = LocalController::new(config, calendar);
        for zone in zones {
            controller.provision_zone(zone)?;
        }
        Ok(controller)
    }

    /// Serializes the full control state as of `next_tick` (the first tick
    /// a restored controller should run). `zones` is the provisioning
    /// order, needed to rebuild the device inventory on restore.
    pub fn checkpoint(&self, next_tick: u64, zones: &[String]) -> ControllerCheckpoint {
        ControllerCheckpoint {
            version: CHECKPOINT_VERSION,
            next_tick,
            planner: self.planner_config,
            retry: self.retry,
            zones: zones.to_vec(),
            reserve_kwh: self.reserve_kwh,
            next_host: self.next_host,
            rng: self.rng.clone(),
            meter: self.meter.clone(),
            breakers: self.breakers.lock().clone(),
            chaos_tick: self.chaos_tick.load(Ordering::SeqCst),
        }
    }

    /// Reconstructs a controller from a checkpoint: re-provisions the
    /// zones, then overwrites every piece of control state (RNG, meter,
    /// breakers, reserve, virtual clock) with the checkpointed values.
    ///
    /// Device twin state is NOT restored here — replay the command
    /// journal's delivered records into [`registry`](Self::registry)
    /// afterwards (the recovery layer's
    /// [`open_or_restore`](crate::recovery::open_or_restore) does both).
    pub fn restore(checkpoint: &ControllerCheckpoint) -> Result<LocalController, ControllerError> {
        if checkpoint.version != CHECKPOINT_VERSION {
            return Err(ControllerError::Storage {
                source: format!(
                    "checkpoint version {} unsupported (expected {CHECKPOINT_VERSION})",
                    checkpoint.version
                ),
            });
        }
        let mut controller = LocalController::with_zones(
            ControllerConfig {
                planner: checkpoint.planner,
                retry: checkpoint.retry,
                // The breaker bank below carries its own config; the value
                // here only seeds the pre-restore empty bank.
                breaker: BreakerConfig::default(),
            },
            PaperCalendar::january_start(),
            &checkpoint.zones,
        )?;
        controller.next_host = checkpoint.next_host;
        controller.rng = checkpoint.rng.clone();
        // The meter embeds its calendar, so the placeholder above is
        // replaced wholesale.
        controller.meter = checkpoint.meter.clone();
        controller.reserve_kwh = checkpoint.reserve_kwh;
        *controller.breakers.lock() = checkpoint.breakers.clone();
        controller
            .chaos_tick
            .store(checkpoint.chaos_tick, Ordering::SeqCst);
        Ok(controller)
    }

    /// Attaches an exactly-once command journal: subsequent ticks record
    /// every actuation under a deterministic command id and skip ids the
    /// journal already acknowledges as delivered.
    pub fn attach_journal(&mut self, journal: CommandJournal) {
        self.journal = Some(journal);
    }

    /// The attached command journal, if any.
    pub fn journal(&self) -> Option<&CommandJournal> {
        self.journal.as_ref()
    }

    /// A probe draw from a clone of the planner RNG (the RNG itself is
    /// not advanced). Two controllers with byte-identical control state
    /// produce the same probe — the digest's RNG fingerprint.
    pub fn rng_probe(&self) -> u64 {
        use rand::RngCore;
        self.rng.clone().next_u64()
    }

    /// Installs `plan` as the registry's fault injector. Command faults are
    /// drawn at the controller's current *virtual* tick (advanced by retry
    /// backoff), keyed by the target thing's UID. Each injection is counted
    /// under `chaos.faults_injected`.
    pub fn attach_chaos(&self, plan: FaultPlan) {
        let tick = Arc::clone(&self.chaos_tick);
        self.registry.set_fault_injector(move |thing, _cmd| {
            let t = tick.load(Ordering::SeqCst);
            let reason = plan.fault_reason(t, &thing.uid.to_string())?;
            imcf_chaos::record_injection(reason);
            Some(reason.to_string())
        });
    }

    /// Removes any installed fault injector.
    pub fn detach_chaos(&self) {
        self.registry.clear_fault_injector();
    }

    /// Shared handle to the per-device circuit breakers (for the REST
    /// surface).
    pub fn breakers(&self) -> Arc<Mutex<BreakerBank>> {
        Arc::clone(&self.breakers)
    }

    /// Shared handle to the virtual chaos clock (for the REST surface).
    pub fn chaos_clock(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.chaos_tick)
    }

    /// Point-in-time breaker views at the controller's current tick.
    pub fn breaker_snapshots(&self) -> Vec<BreakerSnapshot> {
        let tick = self.chaos_tick.load(Ordering::SeqCst);
        self.breakers.lock().snapshots(tick)
    }

    /// Aggregate breaker counters (lifetime opens, currently open) — the
    /// allocation-free counterpart of [`LocalController::breaker_snapshots`]
    /// for per-tick sampling loops.
    pub fn breaker_totals(&self) -> (u64, u64) {
        let tick = self.chaos_tick.load(Ordering::SeqCst);
        self.breakers.lock().totals(tick)
    }

    /// The device registry (shared handle).
    pub fn registry(&self) -> DeviceRegistry {
        self.registry.clone()
    }

    /// The firewall chain (shared handle).
    pub fn firewall(&self) -> Arc<Mutex<Chain>> {
        Arc::clone(&self.firewall)
    }

    /// The cumulative energy meter.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Provisions a zone: registers one HVAC unit and one dimmable light
    /// with their items, assigning sequential host addresses.
    ///
    /// Fails with [`ControllerError::Provision`] when the zone's things or
    /// items collide with already-registered inventory (e.g. the zone was
    /// provisioned twice). A failed provisioning may leave the zone
    /// partially registered; re-provisioning the same zone is not a
    /// supported recovery — pick a fresh zone name.
    pub fn provision_zone(&mut self, zone: &str) -> Result<(), ControllerError> {
        let provision = |e: RegistryError| ControllerError::Provision {
            zone: zone.to_string(),
            source: e,
        };
        let hvac_host = format!("192.168.0.{}", self.next_host);
        let light_host = format!("192.168.0.{}", self.next_host + 1);
        self.next_host = self.next_host.wrapping_add(2);

        let hvac_uid = ThingUid::new("imcf", "hvac", zone);
        let light_uid = ThingUid::new("imcf", "light", zone);
        self.registry
            .add_thing(Thing::new(
                hvac_uid.clone(),
                &format!("{zone} HVAC"),
                ThingKind::HvacUnit,
                &hvac_host,
                zone,
            ))
            .map_err(provision)?;
        self.registry
            .add_thing(Thing::new(
                light_uid.clone(),
                &format!("{zone} light"),
                ThingKind::DimmableLight,
                &light_host,
                zone,
            ))
            .map_err(provision)?;
        self.registry
            .add_item(
                Item::new(&format!("{zone}_SetPoint"), ItemKind::Number)
                    .linked_to(ChannelUid::new(hvac_uid, "settemp")),
            )
            .map_err(provision)?;
        self.registry
            .add_item(
                Item::new(&format!("{zone}_Light"), ItemKind::Dimmer)
                    .linked_to(ChannelUid::new(light_uid, "brightness")),
            )
            .map_err(provision)?;
        Ok(())
    }

    fn command_for(
        &self,
        zone: &str,
        class: DeviceClass,
        desired: f64,
        ambient: f64,
    ) -> Option<Command> {
        match class {
            DeviceClass::Hvac => Some(Command::binding(
                ChannelUid::new(ThingUid::new("imcf", "hvac", zone), "settemp"),
                CommandPayload::SetTemperature {
                    celsius: desired,
                    cooling: desired < ambient,
                },
            )),
            DeviceClass::Light => Some(Command::binding(
                ChannelUid::new(ThingUid::new("imcf", "light", zone), "brightness"),
                CommandPayload::SetLevel(desired),
            )),
            DeviceClass::Meter => None,
        }
    }

    /// The current carry-over reserve, kWh.
    pub fn reserve_kwh(&self) -> f64 {
        self.reserve_kwh
    }

    /// Runs one orchestration tick over a planning slot.
    ///
    /// Returns the tick summary plus the errors the tick surfaced: one
    /// [`ControllerError::Actuation`] per command that exhausted its retry
    /// budget and one [`ControllerError::Storage`] per failed journal
    /// write. The summary's `failed`/`retried`/`quarantined` counters
    /// aggregate the same information.
    pub fn tick_with_errors(&mut self, slot: &PlanningSlot) -> (TickSummary, Vec<ControllerError>) {
        // A registry lookup allocates its key, so each handle is fetched
        // once.
        static TICK_MICROS: OnceLock<Histogram> = OnceLock::new();
        static DEDUPED: OnceLock<Counter> = OnceLock::new();
        static RETRIES: OnceLock<Counter> = OnceLock::new();
        static GAVE_UP: OnceLock<Counter> = OnceLock::new();
        let counter = |cell: &'static OnceLock<Counter>, name| {
            cell.get_or_init(|| imcf_telemetry::global().counter(name))
        };
        let watch = Stopwatch::start();
        let hour = slot.hour_index;
        // Arm a per-tick trace when the flight recorder is enabled. The id
        // is derived, not drawn: the same (seed, hour) names the same
        // trace in every run.
        let tick_trace = trace::begin(trace::TraceId::derive(self.trace_seed, hour, 0), || {
            format!("tick/{hour}")
        });
        self.chaos_tick.store(hour, Ordering::SeqCst);
        imcf_chaos::crashpoint::reached("controller.tick.pre_plan");

        // 0. Quarantine: candidates whose device breaker is open are left
        //    out of the slot *before* planning, so the EP re-allocates their
        //    budget to healthy devices. Their state is whatever the last
        //    delivered command left behind. The pair lists borrow their
        //    zones from the slots, which outlive them.
        let mut candidates = Vec::with_capacity(slot.candidates.len());
        let mut quarantined_rules = Vec::new();
        let mut quarantined_pairs = Vec::new();
        {
            let mut bank = self.breakers.lock();
            for candidate in &slot.candidates {
                match self.uids.get(&candidate.zone, candidate.device_class) {
                    Some(uid) if !bank.allows(uid, hour) => {
                        if trace::active() {
                            trace::point(
                                "breaker.quarantine",
                                &[
                                    ("thing", uid),
                                    ("rule", &candidate.rule_id.to_string()),
                                    ("zone", &candidate.zone),
                                ],
                            );
                        }
                        quarantined_rules.push(candidate.rule_id);
                        quarantined_pairs.push((candidate.zone.as_str(), candidate.device_class));
                    }
                    _ => candidates.push(candidate.clone()),
                }
            }
            bank.open_now(hour);
        }
        let quarantined = quarantined_rules.len() as u64;
        let slot = &PlanningSlot {
            hour_index: hour,
            candidates,
            budget_kwh: slot.budget_kwh + self.reserve_kwh,
        };

        // 1. Plan, letting the slot draw on the carry-over reserve.
        let (bits, spent) = self.planner.plan_slot(slot, &mut self.rng);

        // 2. Translate the plan into firewall state. ACCEPT rules go first
        //    (first match wins), then DROPs for dropped and quarantined
        //    pairs, each list in (zone, class) order.
        let mut adopted_pairs = Vec::with_capacity(slot.len());
        let mut dropped_pairs = Vec::with_capacity(slot.len() + quarantined_pairs.len());
        let mut adopted = Vec::new();
        let mut dropped = Vec::new();
        for (candidate, keep) in slot.candidates.iter().zip(bits.iter()) {
            let pair = (candidate.zone.as_str(), candidate.device_class);
            if keep {
                adopted_pairs.push(pair);
                adopted.push(candidate.rule_id);
            } else {
                dropped_pairs.push(pair);
                dropped.push(candidate.rule_id);
            }
        }
        dropped.extend(quarantined_rules.iter().copied());
        dropped_pairs.extend_from_slice(&quarantined_pairs);
        for pairs in [
            &mut adopted_pairs,
            &mut dropped_pairs,
            &mut quarantined_pairs,
        ] {
            pairs.sort_unstable();
            pairs.dedup();
        }
        {
            let program_span = trace::span("firewall.program");
            let mut chain = self.firewall.lock();
            chain.flush();
            for &(zone, class) in &adopted_pairs {
                chain.append(FirewallRule {
                    matcher: Match::ZoneClass(zone.to_string(), class),
                    verdict: Verdict::Accept,
                    comment: format!("imcf: adopted {class} rules in {zone}"),
                });
            }
            for &pair in &dropped_pairs {
                if adopted_pairs.binary_search(&pair).is_ok() {
                    continue;
                }
                let (zone, class) = pair;
                let why = if quarantined_pairs.binary_search(&pair).is_ok() {
                    "breaker quarantined"
                } else {
                    "plan dropped"
                };
                if trace::active() {
                    trace::point(
                        "firewall.drop_rule",
                        &[
                            ("thing", self.uids.get(zone, class).unwrap_or(zone)),
                            ("zone", zone),
                            ("class", &class.to_string()),
                            ("why", why),
                        ],
                    );
                }
                chain.append(FirewallRule {
                    matcher: Match::ZoneClass(zone.to_string(), class),
                    verdict: Verdict::Drop,
                    comment: format!("imcf: {why} {class} rules in {zone}"),
                });
            }
            if trace::active() {
                program_span.attr("accepts", &adopted_pairs.len().to_string());
                program_span.attr("drops", &dropped_pairs.len().to_string());
            }
        }
        if quarantined > 0 {
            // Quarantine DROPs are anomalies: ask the flight recorder for
            // a dump (no-op while the recorder is disabled).
            trace::recorder().trigger("quarantine_drop");
        }

        // 3. Actuate adopted rules; meter energy. A `Failed` outcome is
        //    retried under the policy — each retry advances the virtual
        //    chaos clock by the backoff, so the fault plan is re-drawn at a
        //    later sim-time coordinate. Exhausted commands feed the
        //    device's breaker and their planned energy is re-attributed to
        //    the carry-over reserve (it was never consumed).
        let mut energy = 0.0;
        let mut delivered = 0;
        let mut blocked = 0;
        let mut failed = 0;
        let mut retried = 0;
        let mut undelivered_kwh = 0.0;
        let mut errors = Vec::new();
        // Deterministic per-tick command index: event 0 is the tick trace
        // itself, so command ids start at 1. The id is a pure function of
        // (seed, hour, index) — the same command has the same id in every
        // incarnation of this controller, which is what makes post-crash
        // journal dedup sound.
        let mut command_index: u64 = 0;
        for (candidate, keep) in slot.candidates.iter().zip(bits.iter()) {
            if !keep {
                continue;
            }
            let class = candidate.device_class;
            let Some(cmd) =
                self.command_for(&candidate.zone, class, candidate.desired, candidate.ambient)
            else {
                continue;
            };
            let uid = self
                .uids
                .get(&candidate.zone, class)
                .unwrap_or(&candidate.zone);
            command_index += 1;
            let command_id = trace::TraceId::derive(self.trace_seed, hour, command_index).0;
            self.chaos_tick.store(hour, Ordering::SeqCst);

            // Exactly-once replay: a command the journal already
            // acknowledges as delivered was actuated by a previous
            // incarnation of this controller. Skip the dispatch (the twin
            // already holds its effect, rebuilt at restore) but redo the
            // in-memory bookkeeping the crash wiped out, so the resumed
            // run's meter/breaker/reserve state matches the uncrashed one.
            if self
                .journal
                .as_ref()
                .is_some_and(|journal| journal.is_delivered(command_id))
            {
                delivered += 1;
                energy += candidate.exec_kwh;
                self.meter
                    .record(hour, &candidate.zone, class, candidate.exec_kwh);
                self.breakers.lock().record_success(uid);
                counter(&DEDUPED, "journal.deduped").inc();
                if let Some(journal) = self.journal.as_mut() {
                    journal.note_deduped();
                }
                if trace::active() {
                    trace::point("actuation.replayed", &[("thing", uid)]);
                }
                continue;
            }

            let actuate_span = trace::span("actuate");
            if trace::active() {
                actuate_span.attr("thing", uid);
                actuate_span.attr("rule", &candidate.rule_id.to_string());
            }
            let mut attempt: u32 = 1;
            loop {
                match self.registry.dispatch(&cmd) {
                    Ok(CommandOutcome::Delivered(wire)) => {
                        delivered += 1;
                        energy += candidate.exec_kwh;
                        self.meter
                            .record(hour, &candidate.zone, class, candidate.exec_kwh);
                        self.breakers.lock().record_success(uid);
                        if trace::active() {
                            trace::point(
                                "actuation.delivered",
                                &[("thing", uid), ("attempt", &attempt.to_string())],
                            );
                        }
                        if let Some(journal) = self.journal.as_mut() {
                            if let Err(e) =
                                journal.record_delivered(command_id, hour, &cmd, &wire, attempt)
                            {
                                errors.push(e);
                            }
                        }
                        break;
                    }
                    Ok(CommandOutcome::Blocked) => {
                        blocked += 1;
                        if trace::active() {
                            trace::point("actuation.blocked", &[("thing", uid)]);
                        }
                        break;
                    }
                    Ok(CommandOutcome::Offline) | Err(_) => {
                        blocked += 1;
                        break;
                    }
                    Ok(CommandOutcome::Failed { reason }) => {
                        if self.retry.should_retry(attempt) {
                            retried += 1;
                            counter(&RETRIES, "actuation.retries").inc();
                            let backoff = self.retry.backoff_ticks(attempt, uid);
                            if trace::active() {
                                trace::point(
                                    "actuation.retry",
                                    &[
                                        ("thing", uid),
                                        ("attempt", &attempt.to_string()),
                                        ("backoff_ticks", &backoff.to_string()),
                                        ("reason", &reason),
                                    ],
                                );
                            }
                            self.chaos_tick.fetch_add(backoff, Ordering::SeqCst);
                            attempt += 1;
                        } else {
                            failed += 1;
                            counter(&GAVE_UP, "actuation.gave_up").inc();
                            if trace::active() {
                                trace::point(
                                    "actuation.gave_up",
                                    &[
                                        ("thing", uid),
                                        ("attempts", &attempt.to_string()),
                                        ("reason", &reason),
                                    ],
                                );
                            }
                            self.breakers.lock().record_failure(uid, hour);
                            undelivered_kwh += candidate.exec_kwh;
                            if let Some(journal) = self.journal.as_mut() {
                                if let Err(e) =
                                    journal.record_failed(command_id, hour, &cmd, attempt, &reason)
                                {
                                    errors.push(e);
                                }
                            }
                            errors.push(ControllerError::Actuation {
                                thing: uid.to_string(),
                                attempts: attempt,
                                source: reason,
                            });
                            break;
                        }
                    }
                }
            }
        }
        self.chaos_tick.store(hour, Ordering::SeqCst);
        // Re-attribute the energy of commands that never landed: the plan
        // charged it, no device consumed it, so it rejoins the reserve.
        self.reserve_kwh = (slot.budget_kwh - spent).max(0.0) + undelivered_kwh;

        let summary = TickSummary {
            hour_index: hour,
            adopted,
            dropped,
            energy_kwh: energy,
            delivered,
            blocked,
            failed,
            retried,
            quarantined,
        };
        imcf_chaos::crashpoint::reached("controller.tick.post_dispatch");
        // Acknowledge the tick: the journal's durability point. Commands
        // recorded above are only *acknowledged* once this sync returns —
        // a crash before it re-executes them, a crash after it dedups them.
        if let Some(journal) = self.journal.as_mut() {
            if let Err(e) = journal.seal_tick(&summary) {
                errors.push(e);
            }
        }
        // The tick's time includes handing its trace to the recorder.
        drop(tick_trace);
        TICK_MICROS
            .get_or_init(|| imcf_telemetry::global().histogram("scheduler.tick_micros"))
            .observe(watch.elapsed_micros() as f64);
        (summary, errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imcf_core::candidate::CandidateRule;

    fn controller_with_zone(zone: &str) -> LocalController {
        let mut c =
            LocalController::new(ControllerConfig::default(), PaperCalendar::january_start());
        c.provision_zone(zone).unwrap();
        c
    }

    fn hvac_candidate(zone: &str, desired: f64, ambient: f64, kwh: f64) -> CandidateRule {
        CandidateRule::convenience(RuleId(0), desired, ambient, kwh).in_zone(zone)
    }

    #[test]
    fn adopted_rules_actuate_and_meter() {
        let mut c = controller_with_zone("living");
        let slot = PlanningSlot::new(0, vec![hvac_candidate("living", 22.0, 15.0, 0.6)], 1.0);
        let summary = c.tick_with_errors(&slot).0;
        assert_eq!(summary.adopted.len(), 1);
        assert_eq!(summary.delivered, 1);
        assert_eq!(summary.blocked, 0);
        assert!((summary.energy_kwh - 0.6).abs() < 1e-12);
        assert!((c.meter().zone_kwh("living") - 0.6).abs() < 1e-12);
        // The item reflects the actuation.
        let item = c.registry().item("living_SetPoint").unwrap();
        assert_eq!(item.state, imcf_devices::item::ItemState::Decimal(22.0));
    }

    #[test]
    fn over_budget_rules_are_dropped_and_zone_blocked() {
        let mut c = controller_with_zone("living");
        // Budget 0: the plan must drop the rule and install a DROP rule.
        let slot = PlanningSlot::new(3, vec![hvac_candidate("living", 22.0, 15.0, 0.6)], 0.0);
        let summary = c.tick_with_errors(&slot).0;
        assert_eq!(summary.adopted.len(), 0);
        assert_eq!(summary.dropped.len(), 1);
        assert_eq!(summary.energy_kwh, 0.0);
        // The firewall now carries a DROP for the zone.
        let fw = c.firewall();
        let script = fw.lock().render_script();
        assert!(script.contains("--zone living"), "script: {script}");
        assert!(script.contains("DROP"));
        // A manual command to the zone is blocked (the iptables effect).
        let cmd = Command::binding(
            ChannelUid::new(ThingUid::new("imcf", "hvac", "living"), "settemp"),
            CommandPayload::SetTemperature {
                celsius: 30.0,
                cooling: false,
            },
        );
        assert_eq!(
            c.registry().dispatch(&cmd).unwrap(),
            CommandOutcome::Blocked
        );
    }

    #[test]
    fn mixed_plan_keeps_cheap_rules() {
        let mut c = controller_with_zone("a");
        c.provision_zone("b").unwrap();
        let slot = PlanningSlot::new(
            0,
            vec![
                hvac_candidate("a", 25.0, 15.0, 0.9),
                hvac_candidate("b", 22.0, 20.0, 0.2),
            ],
            0.5,
        );
        let summary = c.tick_with_errors(&slot).0;
        assert_eq!(summary.adopted.len() + summary.dropped.len(), 2);
        assert!(summary.energy_kwh <= 0.5 + 1e-9);
        // The cheap rule in zone b must survive (dropping it gains nothing).
        assert!(summary.adopted.contains(&RuleId(0)) || summary.dropped.len() < 2);
    }

    #[test]
    fn light_candidates_route_to_light_things() {
        let mut c = controller_with_zone("z");
        // Desired 60 light with dark ambient, tiny cost.
        let candidate = CandidateRule::convenience(RuleId(1), 60.0, 0.0, 0.05)
            .in_zone("z")
            .for_class(DeviceClass::Light);
        let slot = PlanningSlot::new(0, vec![candidate], 1.0);
        let summary = c.tick_with_errors(&slot).0;
        assert_eq!(summary.delivered, 1);
        let item = c.registry().item("z_Light").unwrap();
        assert_eq!(item.state, imcf_devices::item::ItemState::Percent(60.0));
    }

    #[test]
    fn unprovisioned_zone_commands_fail_gracefully() {
        let mut c = controller_with_zone("z");
        let slot = PlanningSlot::new(0, vec![hvac_candidate("ghost", 22.0, 15.0, 0.1)], 1.0);
        let summary = c.tick_with_errors(&slot).0;
        assert_eq!(summary.delivered, 0);
        assert_eq!(summary.blocked, 1);
    }

    #[test]
    fn faulted_commands_retry_then_give_up_with_energy_reattributed() {
        use imcf_chaos::FaultPlan;

        let mut c = controller_with_zone("living");
        // Rate 1.0: every dispatch faults, so all 3 attempts burn out.
        c.attach_chaos(FaultPlan::commands(5, 1.0));
        let slot = PlanningSlot::new(0, vec![hvac_candidate("living", 22.0, 15.0, 0.6)], 1.0);
        let (summary, errors) = c.tick_with_errors(&slot);
        assert_eq!(summary.adopted.len(), 1, "plan still adopts the rule");
        assert_eq!(summary.delivered, 0);
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.retried, 2, "two retries after the first try");
        assert_eq!(errors.len(), 1);
        assert!(matches!(
            &errors[0],
            ControllerError::Actuation { thing, attempts: 3, .. }
                if thing == "imcf:hvac:living"
        ));
        // The undelivered 0.6 kWh rejoins the reserve: nothing was consumed.
        assert!(
            (c.reserve_kwh() - 1.0).abs() < 1e-9,
            "reserve = {}",
            c.reserve_kwh()
        );
        assert!((c.meter().total_kwh()).abs() < 1e-12);
        // Item state is untouched: last-known state survives the fault.
        let item = c.registry().item("living_SetPoint").unwrap();
        assert_eq!(item.state, imcf_devices::item::ItemState::Undefined);
    }

    #[test]
    fn breaker_quarantines_flapping_device_then_recovers_half_open() {
        use imcf_chaos::{BreakerState, FaultPlan};

        let mut c = controller_with_zone("living");
        c.attach_chaos(FaultPlan::commands(9, 1.0));
        // Three consecutive failing ticks trip the default breaker.
        for h in 0..3 {
            let slot = PlanningSlot::new(h, vec![hvac_candidate("living", 22.0, 15.0, 0.1)], 1.0);
            let (summary, _) = c.tick_with_errors(&slot);
            assert_eq!(summary.failed, 1, "hour {h}");
        }
        // Open breaker: the candidate is quarantined before planning and
        // the zone is firewalled off.
        let slot = PlanningSlot::new(3, vec![hvac_candidate("living", 22.0, 15.0, 0.1)], 1.0);
        let (summary, errors) = c.tick_with_errors(&slot);
        assert_eq!(summary.quarantined, 1);
        assert!(summary.adopted.is_empty());
        assert_eq!(summary.failed, 0, "no dispatch while quarantined");
        assert!(errors.is_empty());
        assert!(c
            .firewall()
            .lock()
            .render_script()
            .contains("breaker quarantined"));
        let snaps = c.breaker_snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].state, BreakerState::Open);
        assert_eq!(snaps[0].times_opened, 1);

        // The fault clears; after the cooldown the half-open probe lands
        // and the breaker closes again.
        c.detach_chaos();
        let slot = PlanningSlot::new(6, vec![hvac_candidate("living", 22.0, 15.0, 0.1)], 1.0);
        let (summary, _) = c.tick_with_errors(&slot);
        assert_eq!(summary.quarantined, 0, "cooldown elapsed: probe admitted");
        assert_eq!(summary.delivered, 1);
        let snaps = c.breaker_snapshots();
        assert_eq!(snaps[0].state, BreakerState::Closed);
        assert_eq!(snaps[0].times_opened, 1);
    }

    #[test]
    fn transient_faults_heal_through_retry() {
        use imcf_chaos::FaultPlan;

        // A moderate fault rate over many ticks: some first tries fail but
        // a later retry (at a backed-off virtual tick) succeeds, so
        // retried > 0 while failed stays below the injected fault count.
        let mut c = controller_with_zone("living");
        c.attach_chaos(FaultPlan::commands(3, 0.4));
        let mut retried = 0;
        let mut failed = 0;
        let mut delivered = 0;
        for h in 0..60 {
            let slot = PlanningSlot::new(h, vec![hvac_candidate("living", 22.0, 15.0, 0.1)], 1.0);
            let (summary, _) = c.tick_with_errors(&slot);
            retried += summary.retried;
            failed += summary.failed;
            delivered += summary.delivered;
        }
        let injected = c.registry().failed_count();
        assert!(retried > 0, "some faults should trigger retries");
        assert!(delivered > 0, "some commands should land");
        assert!(
            failed < injected,
            "retries must heal some faults: failed={failed} injected={injected}"
        );
    }

    #[test]
    fn journal_surfaces_wal_faults_as_storage_errors() {
        use imcf_chaos::FaultPlan;

        let dir = tempfile::tempdir().unwrap();
        let mut table: imcf_store::Table<TickSummary> =
            imcf_store::Table::open(dir.path(), "journal").unwrap();
        table.set_wal_fault_hook(
            FaultPlan::disabled(1)
                .with_store_faults(1.0)
                .wal_fault_hook(),
        );
        let summary = TickSummary {
            hour_index: 0,
            adopted: vec![],
            dropped: vec![],
            energy_kwh: 0.0,
            delivered: 0,
            blocked: 0,
            failed: 0,
            retried: 0,
            quarantined: 0,
        };
        let err = ControllerError::from(table.insert(summary.clone()).unwrap_err());
        assert!(matches!(err, ControllerError::Storage { .. }));
        assert!(err.to_string().contains("storage"));
        // The index never saw the failed insert.
        assert_eq!(table.len(), 0);
        // Clearing the hook restores service.
        table.clear_wal_fault_hook();
        assert!(table.insert(summary).is_ok());
        assert_eq!(table.len(), 1);
    }
}
