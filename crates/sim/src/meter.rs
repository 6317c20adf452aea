//! Energy metering with monthly rollups.
//!
//! The paper's flat has sub-meters feeding the ECP; [`EnergyMeter`] plays
//! that role in simulation: per-zone, per-device-class accumulation with a
//! monthly rollup that can be exported as an [`imcf_core::Ecp`].

use imcf_core::calendar::PaperCalendar;
use imcf_core::ecp::Ecp;
use imcf_rules::action::DeviceClass;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A cumulative energy meter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeter {
    calendar: PaperCalendar,
    total_kwh: f64,
    per_zone: BTreeMap<String, f64>,
    per_class: BTreeMap<DeviceClass, f64>,
    per_month: [f64; 12],
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new(calendar: PaperCalendar) -> Self {
        EnergyMeter {
            calendar,
            total_kwh: 0.0,
            per_zone: BTreeMap::new(),
            per_class: BTreeMap::new(),
            per_month: [0.0; 12],
        }
    }

    /// Records a consumption event. The zone key is allocated only the
    /// first time a zone is seen.
    pub fn record(&mut self, hour_index: u64, zone: &str, class: DeviceClass, kwh: f64) {
        debug_assert!(kwh >= 0.0, "negative consumption");
        self.total_kwh += kwh;
        if !self.per_zone.contains_key(zone) {
            self.per_zone.insert(zone.to_string(), 0.0);
        }
        if let Some(zone_kwh) = self.per_zone.get_mut(zone) {
            *zone_kwh += kwh;
        }
        *self.per_class.entry(class).or_insert(0.0) += kwh;
        let month = self.calendar.month_of(hour_index) as usize - 1;
        self.per_month[month] += kwh;
    }

    /// Total consumption, kWh.
    pub fn total_kwh(&self) -> f64 {
        self.total_kwh
    }

    /// Consumption of one zone, kWh.
    pub fn zone_kwh(&self, zone: &str) -> f64 {
        self.per_zone.get(zone).copied().unwrap_or(0.0)
    }

    /// Consumption of one device class, kWh.
    pub fn class_kwh(&self, class: DeviceClass) -> f64 {
        self.per_class.get(&class).copied().unwrap_or(0.0)
    }

    /// Monthly totals (January first).
    pub fn monthly(&self) -> &[f64; 12] {
        &self.per_month
    }

    /// Exports the monthly rollup as an ECP.
    pub fn to_ecp(&self) -> Ecp {
        Ecp::new(self.per_month.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imcf_core::calendar::HOURS_PER_MONTH;

    #[test]
    fn accumulates_by_zone_class_and_month() {
        let mut m = EnergyMeter::new(PaperCalendar::january_start());
        m.record(0, "bedroom", DeviceClass::Hvac, 0.5);
        m.record(1, "bedroom", DeviceClass::Light, 0.04);
        m.record(HOURS_PER_MONTH, "kitchen", DeviceClass::Hvac, 0.3);
        assert!((m.total_kwh() - 0.84).abs() < 1e-12);
        assert!((m.zone_kwh("bedroom") - 0.54).abs() < 1e-12);
        assert!((m.class_kwh(DeviceClass::Hvac) - 0.8).abs() < 1e-12);
        assert!((m.monthly()[0] - 0.54).abs() < 1e-12);
        assert!((m.monthly()[1] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn unknown_lookups_are_zero() {
        let m = EnergyMeter::new(PaperCalendar::january_start());
        assert_eq!(m.zone_kwh("nope"), 0.0);
        assert_eq!(m.class_kwh(DeviceClass::Meter), 0.0);
    }

    #[test]
    fn exports_ecp() {
        let mut m = EnergyMeter::new(PaperCalendar::january_start());
        for h in 0..(2 * HOURS_PER_MONTH) {
            m.record(h, "z", DeviceClass::Hvac, 0.1);
        }
        let ecp = m.to_ecp();
        assert!((ecp.month_kwh(1) - 74.4).abs() < 1e-9);
        assert!((ecp.month_kwh(2) - 74.4).abs() < 1e-9);
        assert_eq!(ecp.month_kwh(3), 0.0);
    }

    #[test]
    fn calendar_start_month_respected() {
        let mut m = EnergyMeter::new(PaperCalendar::starting_in(10));
        m.record(0, "z", DeviceClass::Hvac, 1.0);
        assert_eq!(m.monthly()[9], 1.0); // October
    }
}
