//! The meta-rule compiler and the slot builder.
//!
//! Every IMCF front end turns each active meta-rule into one rule instance
//! per slot, carrying its desired value Ω (paper Eq. 1) and execution
//! energy `e_j` (Eq. 2). This module holds the only copy of that step:
//!
//! * [`HourTables`] compiles one MRT once into its 24 hour-of-day rule
//!   lists;
//! * [`Pricing`] is the one action pricer, the device models behind `e_j`;
//! * [`candidate`] is the one translation of a rule plus the hour's ambient
//!   values into a [`CandidateRule`];
//! * [`mr_ecp`] is the one MR (execute-everything) ECP derivation, which
//!   prices every (zone, hour) from the tables compiled once more through
//!   the pricer.
//!
//! For every hour of a dataset's horizon, [`SlotBuilder`] materializes the
//! [`PlanningSlot`] the Energy Planner (and the baselines) consume: one
//! candidate per active meta-rule across all zones, priced against the
//! zone's ambient trace values, plus the hourly budget from the
//! Amortization Plan. IFTTT counterpart values are resolved per zone from
//! the dataset's Table III rule set.
//!
//! Slots are produced lazily — a dorms-scale horizon holds millions of
//! candidate instances and is streamed, never collected.

use crate::building::Dataset;
use imcf_core::amortization::AmortizationPlan;
use imcf_core::candidate::{CandidateRule, PlanningSlot};
use imcf_core::ecp::Ecp;
use imcf_devices::energy::{DeviceEnergyModel, HvacModel, LightModel};
use imcf_rules::action::{Action, DeviceClass};
use imcf_rules::env::{EnvSnapshot, Season, Weather};
use imcf_rules::meta_rule::{MetaRule, RuleClass};
use imcf_rules::mrt::Mrt;
use imcf_traces::series::Trace;

/// One MRT compiled into its 24 hour-of-day rule lists, in table order.
#[derive(Debug)]
pub struct HourTables<'a> {
    by_hour: [Vec<&'a MetaRule>; 24],
}

impl<'a> HourTables<'a> {
    /// Compiles `mrt`: hour `h`'s list holds the actuation rules active
    /// at `h`.
    pub fn compile(mrt: &'a Mrt) -> Self {
        HourTables {
            by_hour: std::array::from_fn(|h| mrt.active_at_hour(h as u32)),
        }
    }

    /// The rules active at `hour_of_day` (taken modulo 24, as windows do).
    pub fn at(&self, hour_of_day: u32) -> &[&'a MetaRule] {
        &self.by_hour[(hour_of_day % 24) as usize]
    }
}

/// The one action pricer: the device models behind `e_j` (paper Eq. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pricing {
    /// The HVAC unit every zone's thermostat drives.
    pub hvac: HvacModel,
    /// The zone lighting.
    pub light: LightModel,
}

impl Pricing {
    /// The flat's 2.5 kW split unit and 100 W LED array.
    pub fn flat() -> Self {
        Pricing {
            hvac: HvacModel::split_unit_flat(),
            light: LightModel::led_array(),
        }
    }

    /// kWh to execute `action` for one hour while the zone's ambient values
    /// are `ambient_temp` / `ambient_light`. A budget row costs nothing.
    pub fn kwh(&self, action: &Action, ambient_temp: f64, ambient_light: f64) -> f64 {
        match action {
            Action::SetTemperature(v) => self.hvac.hourly_kwh(*v, ambient_temp),
            Action::SetLight(v) => self.light.hourly_kwh(*v, ambient_light),
            Action::SetKwhLimit(_) => 0.0,
        }
    }
}

/// Translates one active meta-rule of `zone` into this hour's rule
/// instance: its desired value against the ambient the rule's device class
/// sees, priced by `pricing`, with no IFTTT counterpart. `None` for budget
/// rows, which constrain the planner instead of actuating.
pub fn candidate(
    rule: &MetaRule,
    zone: &str,
    ambient_temp: f64,
    ambient_light: f64,
    pricing: &Pricing,
) -> Option<CandidateRule> {
    let device_class = rule.action.device_class();
    let ambient = match device_class {
        DeviceClass::Hvac => ambient_temp,
        DeviceClass::Light => ambient_light,
        DeviceClass::Meter => return None,
    };
    Some(CandidateRule {
        rule_id: rule.id,
        zone: zone.to_string(),
        device_class,
        owner: rule.owner.clone(),
        necessity: rule.class == RuleClass::Necessity,
        desired: rule.action.desired_value(),
        ambient,
        exec_kwh: pricing.kwh(&rule.action, ambient_temp, ambient_light),
        ifttt_value: None,
        ifttt_kwh: 0.0,
    })
}

/// One active rule's share of an hour's MR cost, compiled once.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Term {
    /// An HVAC setpoint, priced against the hour's temperature.
    Hvac(f64),
    /// The kWh of a rule whose cost reads no ambient value: a lamp's (the
    /// light model ignores daylight) or a budget row's (nothing).
    Fixed(f64),
}

impl Term {
    /// `action`'s term under `pricing`. A fixed cost is priced at NaN
    /// ambient values, so a device model that read them would poison the
    /// profile instead of shifting it.
    fn compile(action: &Action, pricing: &Pricing) -> Term {
        match *action {
            Action::SetTemperature(setpoint) => Term::Hvac(setpoint),
            Action::SetLight(_) | Action::SetKwhLimit(_) => {
                Term::Fixed(pricing.kwh(action, f64::NAN, f64::NAN))
            }
        }
    }

    /// The term's kWh while the zone's temperature is `temp`: the value
    /// [`Pricing::kwh`] gives its action at that temperature.
    fn kwh(self, hvac: &HvacModel, temp: f64) -> f64 {
        match self {
            Term::Hvac(setpoint) => hvac.hourly_kwh(setpoint, temp),
            Term::Fixed(kwh) => kwh,
        }
    }
}

/// Every zone's [`HourTables`] compiled once through a [`Pricing`] for
/// [`mr_ecp`]: each (zone, hour of day) holds its active rules' terms in
/// table order, so pricing a pair follows no rule and reads only the
/// zone's temperature.
struct EcpProgram {
    hvac: HvacModel,
    /// Tables compiled.
    zones: usize,
    /// Every (zone, hour of day)'s terms, hour-major.
    terms: Vec<Term>,
    /// The terms of pair `hour * zones + zone` are
    /// `terms[starts[pair]..starts[pair + 1]]`.
    starts: Vec<usize>,
}

impl EcpProgram {
    fn compile(tables: &[HourTables<'_>], pricing: &Pricing) -> Self {
        let mut terms = Vec::new();
        let mut starts = vec![0];
        for hour in 0..24 {
            for table in tables {
                let rules = table.at(hour).iter();
                terms.extend(rules.map(|rule| Term::compile(&rule.action, pricing)));
                starts.push(terms.len());
            }
        }
        EcpProgram {
            hvac: pricing.hvac,
            zones: tables.len(),
            terms,
            starts,
        }
    }

    /// The MR kWh of `zone` at `hour_of_day` while its temperature is
    /// `temp`: the rules' terms summed in table order by `Iterator::sum`,
    /// as pricing each rule through [`Pricing::kwh`] and summing would.
    fn kwh(&self, zone: usize, hour_of_day: u32, temp: f64) -> f64 {
        let pair = (hour_of_day % 24) as usize * self.zones + zone;
        self.terms[self.starts[pair]..self.starts[pair + 1]]
            .iter()
            .map(|term| term.kwh(&self.hvac, temp))
            .sum()
    }
}

/// The Energy Consumption Profile of executing every active rule (the MR
/// schedule) over `trace`, priced by `pricing` — the simulated equivalent
/// of the sub-metered history behind Table I. `tables[i]` is the compiled
/// MRT of `trace.zones[i]`; a zone without one consumes nothing.
pub fn mr_ecp(trace: &Trace, tables: &[HourTables<'_>], pricing: &Pricing) -> Ecp {
    let program = EcpProgram::compile(tables, pricing);
    imcf_traces::ecp::derive_ecp(trace, |i, zone, h, at| {
        if i < program.zones {
            program.kwh(i, at.hour, zone.temperature.at(h))
        } else {
            0.0
        }
    })
}

/// Builds planning slots for a dataset under an amortization plan.
pub struct SlotBuilder<'a> {
    dataset: &'a Dataset,
    plan: &'a AmortizationPlan,
    /// `tables[i]` is the compiled `dataset.zone_mrts[i]`.
    tables: Vec<HourTables<'a>>,
}

impl<'a> SlotBuilder<'a> {
    /// Creates a builder, compiling every zone's MRT.
    pub fn new(dataset: &'a Dataset, plan: &'a AmortizationPlan) -> Self {
        let tables = dataset.zone_mrts.iter().map(HourTables::compile).collect();
        SlotBuilder {
            dataset,
            plan,
            tables,
        }
    }

    /// Builds the slot for one hour.
    ///
    /// The hour decomposes once for every zone, and each zone's ambient
    /// values are read once, for both its IFTTT snapshot (the engine's view
    /// of the world) and its candidates.
    pub fn slot_at(&self, hour_index: u64) -> PlanningSlot {
        let trace = &self.dataset.trace;
        let at = trace.calendar.decompose(hour_index);
        // Classify the day's sky condition from the noon reading: a bright
        // noon implies a clear day (the trigger-action platform's weather
        // feed reports sky condition, not instantaneous indoor light).
        let day_start = hour_index - u64::from(at.hour);
        let noon = (day_start + 12).min(self.dataset.horizon_hours - 1);
        let season = Season::from_month(at.month);
        let pricing = &self.dataset.pricing;
        // Room for every active rule: only budget rows make no candidate.
        let capacity = self.tables.iter().map(|t| t.at(at.hour).len()).sum();
        let mut candidates = Vec::with_capacity(capacity);
        for (zone, table) in trace.zones.iter().zip(&self.tables) {
            let active = table.at(at.hour);
            if active.is_empty() {
                continue;
            }
            let ambient_temp = zone.temperature.at(hour_index);
            let ambient_light = zone.light.at(hour_index);
            let weather = if zone.light.at(noon) > 33.0 {
                Weather::Sunny
            } else {
                Weather::Cloudy
            };
            let env = EnvSnapshot {
                month: at.month,
                hour: at.hour,
                minute: 0,
                season,
                weather,
                temperature: ambient_temp,
                light_level: ambient_light,
                door_open: zone.door_open.at(hour_index) > 0.05,
            };
            let ifttt_actions = self.dataset.ifttt.resolve(&env);
            for rule in active {
                let Some(mut c) = candidate(rule, &zone.zone, ambient_temp, ambient_light, pricing)
                else {
                    continue;
                };
                if let Some(action) = ifttt_actions.get(&c.device_class) {
                    let v = action.desired_value();
                    // The perceived output of an IFTTT lamp actuation
                    // includes daylight (lamps add to ambient).
                    c.ifttt_value = Some(match action.device_class() {
                        DeviceClass::Light => (v + ambient_light).min(100.0),
                        _ => v,
                    });
                    c.ifttt_kwh = pricing.kwh(action, ambient_temp, ambient_light);
                }
                candidates.push(c);
            }
        }
        PlanningSlot::new(hour_index, candidates, self.plan.hourly_budget(hour_index))
    }

    /// Streams every slot of the horizon.
    pub fn iter(&self) -> impl Iterator<Item = PlanningSlot> + '_ {
        (0..self.dataset.horizon_hours).map(move |h| self.slot_at(h))
    }

    /// Streams a sub-range of the horizon (used by tests and the live
    /// controller loop).
    pub fn range(&self, hours: std::ops::Range<u64>) -> impl Iterator<Item = PlanningSlot> + '_ {
        hours.map(move |h| self.slot_at(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::building::DatasetKind;
    use imcf_core::amortization::ApKind;
    use imcf_core::calendar::HOURS_PER_DAY;
    use imcf_rules::meta_rule::RuleId;
    use imcf_rules::window::TimeWindow;

    fn flat_setup() -> (Dataset, AmortizationPlan) {
        let d = Dataset::build(DatasetKind::Flat, 0);
        let ecp = d.derive_mr_ecp();
        let plan = AmortizationPlan::new(
            ApKind::Eaf,
            ecp,
            d.budget_kwh,
            d.horizon_hours,
            d.calendar(),
        );
        (d, plan)
    }

    #[test]
    fn active_candidates_follow_table2_windows() {
        let (d, plan) = flat_setup();
        let b = SlotBuilder::new(&d, &plan);
        // 05:00 — Night Heat + Morning Lights.
        let slot = b.slot_at(5);
        assert_eq!(slot.len(), 2);
        // 12:00 — Day Heat + Midday Lights.
        assert_eq!(b.slot_at(12).len(), 2);
        // 00:00 — nothing.
        assert_eq!(b.slot_at(0).len(), 0);
        // 20:00 — Afternoon Preheat + Cosmetic Lights.
        assert_eq!(b.slot_at(20).len(), 2);
    }

    #[test]
    fn candidate_pricing_reflects_ambient() {
        let (d, plan) = flat_setup();
        let b = SlotBuilder::new(&d, &plan);
        // Hour 0 of the horizon is October; deep winter is ~3 months in.
        let winter_night = (3 * 31 + 10) as u64 * HOURS_PER_DAY + 5;
        let summer_night = (9 * 31 + 10) as u64 * HOURS_PER_DAY + 5;
        let winter_slot = b.slot_at(winter_night);
        let summer_slot = b.slot_at(summer_night);
        let winter_hvac = winter_slot
            .candidates
            .iter()
            .find(|c| c.desired == 25.0)
            .unwrap();
        let summer_hvac = summer_slot
            .candidates
            .iter()
            .find(|c| c.desired == 25.0)
            .unwrap();
        assert!(winter_hvac.exec_kwh > summer_hvac.exec_kwh);
        assert!(winter_hvac.ambient < summer_hvac.ambient);
    }

    #[test]
    fn hour_tables_list_the_active_rules_in_table_order() {
        let d = Dataset::build(DatasetKind::House, 3);
        for mrt in &d.zone_mrts {
            let tables = HourTables::compile(mrt);
            for hour in 0..48 {
                let expected: Vec<RuleId> = mrt.active_at_hour(hour).iter().map(|r| r.id).collect();
                let got: Vec<RuleId> = tables.at(hour).iter().map(|r| r.id).collect();
                assert_eq!(got, expected, "hour {hour}");
            }
        }
    }

    #[test]
    fn pricing_follows_the_device_models() {
        let pricing = Dataset::build(DatasetKind::Flat, 0).pricing;
        let cold = pricing.kwh(&Action::SetTemperature(25.0), 10.0, 0.0);
        let mild = pricing.kwh(&Action::SetTemperature(25.0), 22.0, 0.0);
        assert!(cold > mild);
        assert!(pricing.kwh(&Action::SetLight(40.0), 0.0, 0.0) > 0.0);
        assert_eq!(pricing.kwh(&Action::SetKwhLimit(100.0), 0.0, 0.0), 0.0);
    }

    #[test]
    fn the_compiled_ecp_program_prices_as_pricing_does() {
        let actions = [
            Action::SetTemperature(16.0),
            Action::SetTemperature(22.5),
            Action::SetTemperature(28.0),
            Action::SetLight(0.0),
            Action::SetLight(40.0),
            Action::SetLight(100.0),
            Action::SetKwhLimit(480_000.0),
        ];
        // −10 to 40 °C in quarter degrees.
        let temps = (-40..=160).map(|quarter| f64::from(quarter) / 4.0);
        let house = Dataset::build(DatasetKind::House, 3);
        let tables: Vec<HourTables> = house.zone_mrts.iter().map(HourTables::compile).collect();
        for kind in DatasetKind::all() {
            let pricing = Pricing {
                hvac: HvacModel::split_unit_flat().scaled(kind.hvac_scale()),
                light: LightModel::led_array(),
            };
            let program = EcpProgram::compile(&tables, &pricing);
            assert_eq!(program.zones, tables.len());
            for temp in temps.clone() {
                for light in [0.0, 50.0, 100.0] {
                    for action in &actions {
                        let term = Term::compile(action, &pricing).kwh(&pricing.hvac, temp);
                        let want = pricing.kwh(action, temp, light);
                        assert_eq!(
                            term.to_bits(),
                            want.to_bits(),
                            "{action:?} at {temp} °C, light {light}"
                        );
                    }
                    for (zone, table) in tables.iter().enumerate() {
                        for hour in 0..24 {
                            let want: f64 = table
                                .at(hour)
                                .iter()
                                .map(|rule| pricing.kwh(&rule.action, temp, light))
                                .sum();
                            assert_eq!(
                                program.kwh(zone, hour, temp).to_bits(),
                                want.to_bits(),
                                "zone {zone} at {hour}:00, {temp} °C, light {light}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn candidate_reads_the_ambient_of_its_device_class() {
        let pricing = Pricing::flat();
        let window = TimeWindow::hours(1, 7);
        let heat =
            MetaRule::necessity(4, "Heat", window, Action::SetTemperature(22.0)).owned_by("father");
        let c = candidate(&heat, "den", 12.0, 30.0, &pricing).unwrap();
        assert_eq!(
            (c.rule_id, c.zone.as_str(), c.owner.as_str()),
            (RuleId(4), "den", "father")
        );
        assert_eq!((c.device_class, c.necessity), (DeviceClass::Hvac, true));
        assert_eq!((c.desired, c.ambient), (22.0, 12.0));
        assert_eq!(c.exec_kwh, pricing.hvac.hourly_kwh(22.0, 12.0));
        assert_eq!((c.ifttt_value, c.ifttt_kwh), (None, 0.0));

        let lamp = MetaRule::convenience(5, "Lamp", window, Action::SetLight(40.0));
        let c = candidate(&lamp, "den", 12.0, 30.0, &pricing).unwrap();
        assert_eq!((c.device_class, c.necessity), (DeviceClass::Light, false));
        assert_eq!((c.desired, c.ambient), (40.0, 30.0));
        assert_eq!(c.exec_kwh, pricing.light.hourly_kwh(40.0, 30.0));

        let budget = MetaRule::budget(6, "Limit", 100.0, 24);
        assert_eq!(candidate(&budget, "den", 12.0, 30.0, &pricing), None);
    }

    #[test]
    fn budgets_come_from_the_plan() {
        let (d, plan) = flat_setup();
        let b = SlotBuilder::new(&d, &plan);
        let s = b.slot_at(100);
        assert!((s.budget_kwh - plan.hourly_budget(100)).abs() < 1e-12);
    }

    #[test]
    fn ifttt_counterparts_present_when_triggers_fire() {
        let (d, plan) = flat_setup();
        let b = SlotBuilder::new(&d, &plan);
        // Every slot with HVAC candidates should have an IFTTT temperature
        // counterpart: Table III has season rules covering every season.
        let mut covered = 0;
        let mut total = 0;
        for h in (0..d.horizon_hours).step_by(97) {
            for c in &b.slot_at(h).candidates {
                if c.desired >= 20.0 && c.desired <= 26.0 {
                    total += 1;
                    if c.ifttt_value.is_some() {
                        covered += 1;
                    }
                }
            }
        }
        assert!(total > 0);
        assert!(covered * 10 >= total * 9, "ifttt covered {covered}/{total}");
    }

    #[test]
    fn dorms_slots_span_zones() {
        let d = Dataset::build(DatasetKind::Dorms, 0);
        let ecp = d.derive_mr_ecp();
        let plan = AmortizationPlan::new(
            ApKind::Eaf,
            ecp,
            d.budget_kwh,
            d.horizon_hours,
            d.calendar(),
        );
        let b = SlotBuilder::new(&d, &plan);
        let slot = b.slot_at(5);
        // 100 zones × ~2 active rules (windows jittered, so roughly).
        assert!(slot.len() > 120, "len = {}", slot.len());
        assert!(slot.len() <= 100 * 6);
    }

    #[test]
    fn range_streams_the_requested_hours() {
        let (d, plan) = flat_setup();
        let b = SlotBuilder::new(&d, &plan);
        let hours: Vec<u64> = b.range(10..15).map(|s| s.hour_index).collect();
        assert_eq!(hours, vec![10, 11, 12, 13, 14]);
    }
}
