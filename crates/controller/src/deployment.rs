//! The deployment driver: the one loop that ticks a [`LocalController`].
//!
//! The paper's Local Controller runs a single loop (Fig. 3): cron fires
//! the EP, the plan becomes firewall rules, and the adopted rules actuate.
//! A [`Deployment`] is that loop over a slot source, plus the attachments
//! a run opts into: checkpoints under the stuck-tick watchdog, and the obs
//! sampler. The command journal and the chaos plan are the controller's
//! own attachments ([`LocalController::attach_journal`],
//! [`LocalController::attach_chaos`]). Each run accumulates a
//! [`SoakOutcome`]; the soak, the recoverable run and the prototype week
//! are projections of it.

use crate::controller::{thing_uid, ControllerCheckpoint, ControllerError, LocalController};
use crate::soak::SoakOutcome;
use crate::supervisor::TickWatchdog;
use imcf_chaos::BreakerState;
use imcf_core::attribution::OwnerStats;
use imcf_core::calendar::PaperCalendar;
use imcf_core::candidate::{CandidateRule, PlanningSlot};
use imcf_core::objective::convenience_error_fraction;
use imcf_devices::energy::{DeviceEnergyModel, HvacModel, LightModel};
use imcf_obs::alert::Transition;
use imcf_rules::action::DeviceClass;
use imcf_rules::meta_rule::RuleId;
use imcf_sim::illuminance::RoomLight;
use imcf_sim::thermal::RoomThermalModel;
use imcf_sim::weather::WeatherApi;
use imcf_store::SharedTable;
use imcf_telemetry::{Counter, Gauge, Registry};
use imcf_traces::outage::OutagePlan;
use std::collections::BTreeSet;
use std::ops::Range;
use std::time::Duration;

/// How long a checkpointed tick may run before the watchdog reports it.
const WATCHDOG_TIMEOUT: Duration = Duration::from_secs(30);

/// Zone names as the drivers provision them: `zone0`, `zone1`, ….
pub fn zone_names(zones: usize) -> Vec<String> {
    (0..zones).map(|z| format!("zone{z}")).collect()
}

/// The seeded home workload: weather from January, one free-running
/// thermal twin per zone, and two candidates per zone and hour (HVAC to
/// 22 °C, light to 50). Pure in `(seed, hour)` when asked for consecutive
/// hours from 0. Sensor outage windows freeze the *readings* at their last
/// healthy value while the twins keep evolving underneath.
pub struct ZoneSlots {
    weather: WeatherApi,
    zones: Vec<String>,
    twins: Vec<RoomThermalModel>,
    hourly_budget_kwh: f64,
    outage: Option<OutagePlan>,
    /// The last healthy temperature reading per zone.
    temps: Vec<f64>,
    /// The last healthy perceived-light reading.
    light: f64,
}

impl ZoneSlots {
    /// The workload for `zones` under a per-zone weekly budget.
    pub fn new(
        seed: u64,
        zones: &[String],
        weekly_budget_kwh: f64,
        outage: Option<OutagePlan>,
    ) -> ZoneSlots {
        let weather = WeatherApi::new(
            imcf_traces::generator::ClimateModel::mediterranean(),
            PaperCalendar::january_start(),
            seed,
        );
        ZoneSlots {
            weather,
            zones: zones.to_vec(),
            twins: zones.iter().map(|_| RoomThermalModel::flat(18.0)).collect(),
            hourly_budget_kwh: weekly_budget_kwh * zones.len() as f64 / (7.0 * 24.0),
            outage,
            temps: vec![18.0; zones.len()],
            light: 0.0,
        }
    }

    /// The slot for `hour`; call with consecutive hours from 0.
    pub fn slot(&mut self, hour: u64) -> PlanningSlot {
        let sample = self.weather.sample(hour);
        let healthy = !self.outage.as_ref().is_some_and(|o| o.covers(hour));
        for (twin, temp) in self.twins.iter_mut().zip(&mut self.temps) {
            twin.step_free(sample.outdoor_c);
            if healthy {
                *temp = twin.indoor_c;
            }
        }
        if healthy {
            self.light = RoomLight::typical().perceived(sample.daylight);
        }
        let (hvac, lamp) = (HvacModel::split_unit_flat(), LightModel::led_array());
        let mut candidates = Vec::with_capacity(2 * self.zones.len());
        for (zi, (zone, &temp)) in self.zones.iter().zip(&self.temps).enumerate() {
            candidates.push(
                CandidateRule::convenience(
                    RuleId((zi * 2) as u32),
                    22.0,
                    temp,
                    hvac.hourly_kwh(22.0, temp),
                )
                .in_zone(zone),
            );
            candidates.push(
                CandidateRule::convenience(
                    RuleId((zi * 2 + 1) as u32),
                    50.0,
                    self.light,
                    lamp.hourly_kwh(50.0, self.light),
                )
                .in_zone(zone)
                .for_class(DeviceClass::Light),
            );
        }
        PlanningSlot::new(hour, candidates, self.hourly_budget_kwh)
    }
}

/// The obs plane over a *private* mirror registry fed from tick summaries
/// and breaker totals (virtual-clock state only): the global registry is
/// shared across concurrently running deployments, which would break the
/// byte-identical outcome. The handles are hoisted out of the tick loop
/// because registry lookups allocate a key per call, and the obs tick path
/// is held to a ≤5 %-of-tick overhead budget (`obs_bench`).
struct ObsSampler {
    engine: imcf_obs::ObsEngine,
    mirror: Registry,
    breaker_open: Counter,
    breaker_open_now: Gauge,
    retries: Counter,
    gave_up: Counter,
    breaker_opens_seen: u64,
    /// Every firing and resolved alert edge so far, rendered
    /// `alert.<to>(<rule>)`.
    alert_events: Vec<String>,
}

/// A controller and the attachments its run opts into.
pub struct Deployment {
    /// The controller every tick runs through.
    pub controller: LocalController,
    /// The checkpoint table, the interval, and the watchdog.
    checkpoints: Option<(SharedTable<ControllerCheckpoint>, u64, TickWatchdog)>,
    obs: Option<ObsSampler>,
    /// Convenience error per rule owner over the ticks run so far.
    pub owners: OwnerStats,
    /// Checkpoints made durable so far, terminal ones included.
    pub checkpoints_written: u64,
}

impl Deployment {
    /// A deployment with no attachments.
    pub fn new(controller: LocalController) -> Deployment {
        Deployment {
            controller,
            checkpoints: None,
            obs: None,
            owners: OwnerStats::default(),
            checkpoints_written: 0,
        }
    }

    /// Checkpoints to `table` every `every` ticks (0: never mid-run) and
    /// after the last tick, with each tick under a 30 s stuck-tick watchdog.
    pub fn with_checkpoints(
        mut self,
        table: SharedTable<ControllerCheckpoint>,
        every: u64,
    ) -> Deployment {
        self.checkpoints = Some((table, every, TickWatchdog::start(WATCHDOG_TIMEOUT)));
        self
    }

    /// Samples the obs plane every tick, keeping `capacity` raw points per
    /// series. The stock rules validate against the catalog by
    /// construction (pinned by imcf-obs tests); should that fail, the
    /// plane stays off rather than failing the run.
    pub fn with_obs(mut self, capacity: usize) -> Deployment {
        let config = imcf_obs::ObsConfig { capacity };
        let mirror = Registry::new();
        self.obs = imcf_obs::ObsEngine::in_memory(config, imcf_obs::default_rules())
            .ok()
            .map(|engine| ObsSampler {
                engine,
                breaker_open: mirror.counter("breaker.open"),
                breaker_open_now: mirror.gauge("breaker.open_now"),
                retries: mirror.counter("actuation.retries"),
                gave_up: mirror.counter("actuation.gave_up"),
                mirror,
                breaker_opens_seen: 0,
                alert_events: Vec::new(),
            });
        self
    }

    /// Stuck ticks the watchdog reported (0 without checkpoints).
    pub fn watchdog_trips(&self) -> u64 {
        self.checkpoints.as_ref().map_or(0, |(.., w)| w.trips())
    }

    /// Ticks the hours in `ticks`, planning `slot(hour)` each hour, and
    /// returns what the run survived. `zones` is the provisioning order the
    /// checkpoints record.
    ///
    /// Fails when a checkpoint cannot be made durable, and refuses a range
    /// that ends before it starts: its terminal checkpoint would rewind a
    /// store already checkpointed at `ticks.start`.
    pub fn run(
        &mut self,
        ticks: Range<u64>,
        zones: &[String],
        mut slot: impl FnMut(u64) -> PlanningSlot,
    ) -> Result<SoakOutcome, ControllerError> {
        if ticks.start > ticks.end {
            return Err(ControllerError::Rewind {
                checkpointed: ticks.start,
                ticks: ticks.end,
            });
        }
        let mut out = SoakOutcome {
            ticks: ticks.end,
            ..SoakOutcome::default()
        };
        let mut ce_sum = 0.0;
        for h in ticks.clone() {
            let _watchdog = self.checkpoints.as_ref().map(|(.., w)| w.guard(h));
            let slot = slot(h);
            let (summary, errors) = self.controller.tick_with_errors(&slot);
            out.delivered += summary.delivered;
            out.blocked += summary.blocked;
            out.failed += summary.failed;
            out.retried += summary.retried;
            out.quarantined += summary.quarantined;

            // Convenience attribution over the *original* slot: a
            // candidate the device never honoured (dropped, quarantined or
            // failed) costs its ambient deficiency.
            let mut failed_things = BTreeSet::new();
            for error in &errors {
                match error {
                    ControllerError::Actuation { thing, .. } => {
                        failed_things.insert(thing.as_str());
                    }
                    ControllerError::Storage { .. } => out.storage_errors += 1,
                    _ => {}
                }
            }
            for candidate in &slot.candidates {
                let failed = thing_uid(&candidate.zone, candidate.device_class)
                    .is_some_and(|uid| failed_things.contains(uid.as_str()));
                let ce = if summary.adopted.contains(&candidate.rule_id) && !failed {
                    0.0
                } else {
                    convenience_error_fraction(candidate.desired, candidate.ambient)
                };
                ce_sum += ce;
                self.owners.record(&candidate.owner, ce);
            }
            out.instances += slot.candidates.len() as u64;

            if let Some(obs) = self.obs.as_mut() {
                let (opens_total, open_now) = self.controller.breaker_totals();
                let newly_opened = opens_total.saturating_sub(obs.breaker_opens_seen);
                obs.breaker_opens_seen = opens_total;
                if newly_opened > 0 {
                    obs.breaker_open.add(newly_opened);
                }
                obs.breaker_open_now.set(open_now as f64);
                obs.retries.add(summary.retried);
                obs.gave_up.add(summary.failed);
                obs.engine.observe(h, &obs.mirror);
                obs.alert_events.extend(
                    obs.engine
                        .edges()
                        .filter(|(_, edge)| *edge != Transition::ToPending)
                        .map(|(rule, edge)| format!("alert.{}({rule})", edge.label())),
                );
            }
            if let Some((table, every, _)) = &self.checkpoints {
                if *every > 0 && (h + 1) % every == 0 && h + 1 < ticks.end {
                    write_checkpoint(table, self.controller.checkpoint(h + 1, zones))?;
                    self.checkpoints_written += 1;
                }
            }
        }
        if let Some((table, ..)) = &self.checkpoints {
            // Terminal checkpoint: marks the run complete.
            write_checkpoint(table, self.controller.checkpoint(ticks.end, zones))?;
            self.checkpoints_written += 1;
        }

        if let Some(obs) = &self.obs {
            let stats = obs.engine.stats();
            out.alerts_fired = stats.alerts_fired;
            out.alert_transitions = stats.alert_transitions;
            out.alert_events = obs.alert_events.clone();
        }
        out.faults_injected = self.controller.registry().failed_count();
        for snap in self.controller.breaker_snapshots() {
            out.breaker_opens += snap.times_opened;
            if snap.times_opened > 0 && snap.state == BreakerState::Closed {
                out.breakers_recovered += 1;
            }
        }
        out.energy_kwh = self.controller.meter().total_kwh();
        out.fce_percent = if out.instances == 0 {
            0.0
        } else {
            100.0 * ce_sum / out.instances as f64
        };
        Ok(out)
    }
}

/// Makes a checkpoint durable (one append, one fsync), with crashpoints
/// bracketing the durability point.
fn write_checkpoint(
    checkpoints: &SharedTable<ControllerCheckpoint>,
    checkpoint: ControllerCheckpoint,
) -> Result<(), ControllerError> {
    checkpoints.insert(checkpoint)?;
    imcf_chaos::crashpoint::reached("checkpoint.pre_sync");
    checkpoints.sync()?;
    imcf_chaos::crashpoint::reached("checkpoint.post_sync");
    imcf_telemetry::global()
        .counter("controller.checkpoints")
        .inc();
    Ok(())
}
