//! The closed-loop live simulation engine.
//!
//! Trace-driven experiments replay recorded ambients; *live* runs need the
//! environment to respond to actuation: a heated room stays warm into the
//! next hour, a lamp adds to the perceived light. [`LiveSimulation`] owns
//! one [`LiveZone`] per room, each with
//!
//! * an *actual* thermal state that integrates HVAC actuation, and
//! * a free-running *counterfactual twin* providing the unactuated ambient
//!   the convenience objective compares against (what the room would have
//!   been had the rule been dropped),
//!
//! plus the weather process, an energy meter and an hour counter. Each
//! [`LiveSimulation::step`] applies the hour's actuation decisions and
//! returns the observations a controller needs to build the next slot.

use crate::illuminance::RoomLight;
use crate::meter::EnergyMeter;
use crate::thermal::RoomThermalModel;
use crate::weather::WeatherApi;
use imcf_core::calendar::PaperCalendar;
use imcf_devices::energy::{DeviceEnergyModel, HvacModel, LightModel};
use imcf_rules::action::DeviceClass;
use std::collections::BTreeMap;

/// One room in the live simulation.
#[derive(Debug, Clone)]
pub struct LiveZone {
    /// Zone name.
    pub name: String,
    /// The actual room (responds to actuation).
    pub room: RoomThermalModel,
    /// The counterfactual twin (never actuated).
    pub twin: RoomThermalModel,
    /// The room's light composition.
    pub light: RoomLight,
    /// The zone's HVAC electrical model.
    pub hvac: HvacModel,
    /// The zone's lamp electrical model.
    pub lamp: LightModel,
    /// Current lamp level.
    lamp_level: f64,
}

impl LiveZone {
    /// Creates a zone with flat-calibrated devices at an initial indoor
    /// temperature.
    pub fn flat_calibrated(name: &str, initial_c: f64) -> Self {
        LiveZone {
            name: name.to_string(),
            room: RoomThermalModel::flat(initial_c),
            twin: RoomThermalModel::flat(initial_c),
            light: RoomLight::typical(),
            hvac: HvacModel::split_unit_flat(),
            lamp: LightModel::led_array(),
            lamp_level: 0.0,
        }
    }
}

/// One hour's actuation decisions: `(zone, device class) → target value`.
pub type Actuations = BTreeMap<(String, DeviceClass), f64>;

/// Observations for one zone after a step.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneObservation {
    /// Zone name.
    pub zone: String,
    /// Actual indoor temperature after the step, °C.
    pub indoor_c: f64,
    /// Counterfactual (unactuated) indoor temperature, °C.
    pub ambient_c: f64,
    /// Perceived light level (daylight + lamp).
    pub perceived_light: f64,
    /// Daylight-only light level (the light ambient).
    pub ambient_light: f64,
    /// Electrical energy this zone consumed this hour, kWh.
    pub energy_kwh: f64,
}

/// The outcome of one simulation step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// The hour index that was simulated.
    pub hour_index: u64,
    /// Per-zone observations, in zone order.
    pub zones: Vec<ZoneObservation>,
    /// Total electrical energy this hour, kWh.
    pub energy_kwh: f64,
}

/// The live environment simulation.
pub struct LiveSimulation {
    zones: Vec<LiveZone>,
    weather: WeatherApi,
    calendar: PaperCalendar,
    meter: EnergyMeter,
    hour: u64,
}

impl LiveSimulation {
    /// Creates a simulation.
    pub fn new(zones: Vec<LiveZone>, weather: WeatherApi, calendar: PaperCalendar) -> Self {
        LiveSimulation {
            zones,
            weather,
            calendar,
            meter: EnergyMeter::new(calendar),
            hour: 0,
        }
    }

    /// The current hour index (the next hour to be simulated).
    pub fn hour_index(&self) -> u64 {
        self.hour
    }

    /// The cumulative meter.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// The calendar in use.
    pub fn calendar(&self) -> PaperCalendar {
        self.calendar
    }

    /// Pre-step view of a zone's ambient (what a planner should use to
    /// build candidates for the *upcoming* hour): the twin's temperature
    /// after this hour's weather, and the daylight level.
    pub fn ambient_preview(&self, zone: &str) -> Option<(f64, f64)> {
        let sample = self.weather.sample(self.hour);
        let z = self.zones.iter().find(|z| z.name == zone)?;
        // Preview the twin's drift without committing it.
        let mut twin = z.twin;
        twin.step_free(self.weather.sample(self.hour).outdoor_c);
        let daylight = z.light.perceived(sample.daylight);
        Some((twin.indoor_c, daylight))
    }

    /// Advances one hour, applying the given actuations.
    pub fn step(&mut self, actuations: &Actuations) -> StepReport {
        let sample = self.weather.sample(self.hour);
        let mut observations = Vec::with_capacity(self.zones.len());
        let mut total = 0.0;
        for zone in &mut self.zones {
            // The twin always free-runs.
            zone.twin.step_free(sample.outdoor_c);

            let mut energy = 0.0;
            // HVAC.
            if let Some(setpoint) = actuations.get(&(zone.name.clone(), DeviceClass::Hvac)) {
                let pre = zone.room.indoor_c;
                zone.room.step_controlled(sample.outdoor_c, *setpoint);
                energy += zone.hvac.hourly_kwh(*setpoint, pre);
                self.meter.record(
                    self.hour,
                    &zone.name,
                    DeviceClass::Hvac,
                    zone.hvac.hourly_kwh(*setpoint, pre),
                );
            } else {
                zone.room.step_free(sample.outdoor_c);
            }
            // Lights.
            if let Some(level) = actuations.get(&(zone.name.clone(), DeviceClass::Light)) {
                zone.lamp_level = level.clamp(0.0, 100.0);
            } else {
                zone.lamp_level = 0.0;
            }
            if zone.lamp_level > 0.0 {
                let kwh = zone.lamp.hourly_kwh(zone.lamp_level, 0.0);
                energy += kwh;
                self.meter
                    .record(self.hour, &zone.name, DeviceClass::Light, kwh);
            }

            let mut light_state = zone.light;
            light_state.set_lamp(zone.lamp_level);
            observations.push(ZoneObservation {
                zone: zone.name.clone(),
                indoor_c: zone.room.indoor_c,
                ambient_c: zone.twin.indoor_c,
                perceived_light: light_state.perceived(sample.daylight),
                ambient_light: zone.light.perceived(sample.daylight),
                energy_kwh: energy,
            });
            total += energy;
        }
        let report = StepReport {
            hour_index: self.hour,
            zones: observations,
            energy_kwh: total,
        };
        self.hour += 1;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imcf_traces::generator::ClimateModel;

    fn winter_sim(zones: Vec<LiveZone>) -> LiveSimulation {
        let calendar = PaperCalendar::january_start();
        LiveSimulation::new(
            zones,
            WeatherApi::new(ClimateModel::mediterranean(), calendar, 0),
            calendar,
        )
    }

    fn actuate(zone: &str, class: DeviceClass, value: f64) -> Actuations {
        let mut a = Actuations::new();
        a.insert((zone.to_string(), class), value);
        a
    }

    #[test]
    fn heated_room_diverges_from_twin() {
        let mut sim = winter_sim(vec![LiveZone::flat_calibrated("den", 16.0)]);
        let mut last = None;
        for _ in 0..12 {
            last = Some(sim.step(&actuate("den", DeviceClass::Hvac, 22.0)));
        }
        let obs = &last.unwrap().zones[0];
        assert!(
            obs.indoor_c > obs.ambient_c + 3.0,
            "room {:.1} vs twin {:.1}",
            obs.indoor_c,
            obs.ambient_c
        );
        assert!((obs.indoor_c - 22.0).abs() < 1.0);
        assert!(sim.meter().total_kwh() > 0.0);
    }

    #[test]
    fn unactuated_room_tracks_twin() {
        let mut sim = winter_sim(vec![LiveZone::flat_calibrated("den", 16.0)]);
        for _ in 0..12 {
            sim.step(&Actuations::new());
        }
        let report = sim.step(&Actuations::new());
        let obs = &report.zones[0];
        assert!((obs.indoor_c - obs.ambient_c).abs() < 1e-9);
        assert_eq!(sim.meter().total_kwh(), 0.0);
    }

    #[test]
    fn lamp_raises_perceived_light_and_meters() {
        let mut sim = winter_sim(vec![LiveZone::flat_calibrated("den", 18.0)]);
        // 02:00 in January: dark outside.
        sim.step(&Actuations::new());
        let lit = sim.step(&actuate("den", DeviceClass::Light, 40.0));
        let obs = &lit.zones[0];
        assert_eq!(obs.ambient_light, 0.0);
        assert_eq!(obs.perceived_light, 40.0);
        assert!((obs.energy_kwh - 0.04).abs() < 1e-12);
        // Lamp resets when not commanded.
        let dark = sim.step(&Actuations::new());
        assert_eq!(dark.zones[0].perceived_light, 0.0);
    }

    #[test]
    fn ambient_preview_matches_next_step_twin() {
        let mut sim = winter_sim(vec![LiveZone::flat_calibrated("den", 16.0)]);
        let (preview_c, _light) = sim.ambient_preview("den").unwrap();
        let report = sim.step(&Actuations::new());
        assert!((report.zones[0].ambient_c - preview_c).abs() < 1e-9);
        assert!(sim.ambient_preview("ghost").is_none());
    }

    #[test]
    fn multi_zone_independence() {
        let mut sim = winter_sim(vec![
            LiveZone::flat_calibrated("warm", 16.0),
            LiveZone::flat_calibrated("cold", 16.0),
        ]);
        for _ in 0..8 {
            sim.step(&actuate("warm", DeviceClass::Hvac, 23.0));
        }
        let report = sim.step(&actuate("warm", DeviceClass::Hvac, 23.0));
        let warm = report.zones.iter().find(|z| z.zone == "warm").unwrap();
        let cold = report.zones.iter().find(|z| z.zone == "cold").unwrap();
        assert!(warm.indoor_c > cold.indoor_c + 3.0);
        assert!(sim.meter().zone_kwh("warm") > 0.0);
        assert_eq!(sim.meter().zone_kwh("cold"), 0.0);
    }

    #[test]
    fn hour_advances() {
        let mut sim = winter_sim(vec![LiveZone::flat_calibrated("z", 16.0)]);
        assert_eq!(sim.hour_index(), 0);
        sim.step(&Actuations::new());
        sim.step(&Actuations::new());
        assert_eq!(sim.hour_index(), 2);
    }
}
