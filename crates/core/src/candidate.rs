//! Planning slots and candidate rules.
//!
//! The Energy Planner runs once per time slot (hourly in the evaluation).
//! For each slot, the substrate (simulator + device models) materializes one
//! [`CandidateRule`] per meta-rule active in that slot, carrying everything
//! Eqs. (1)–(2) need:
//!
//! * `desired` — the rule's target value Ω;
//! * `ambient` — the value the controlled variable takes if the rule is
//!   dropped (what the room would be without actuation);
//! * `exec_kwh` — the device energy `e_j` to execute the rule this slot;
//! * `ifttt_*` — what the IFTTT baseline would do for this device in this
//!   slot (used by the IFTTT comparison method only).
//!
//! Keeping candidates free of device/simulator types lets `imcf-core` stay a
//! pure algorithm crate: any substrate that can produce slots can be
//! planned.

use imcf_rules::action::DeviceClass;
use imcf_rules::meta_rule::RuleId;
use serde::{Deserialize, Serialize};

/// One meta-rule instance active in a planning slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateRule {
    /// The meta-rule this instance came from.
    pub rule_id: RuleId,
    /// The zone (room/apartment) the rule actuates (empty = unspecified).
    pub zone: String,
    /// The device class the rule actuates.
    pub device_class: DeviceClass,
    /// Owning resident (empty = household), for Table V attribution.
    pub owner: String,
    /// True for necessity rules, which the planner must keep active.
    pub necessity: bool,
    /// Desired output value Ω (paper Eq. 1).
    pub desired: f64,
    /// The value the controlled variable takes when the rule is dropped.
    pub ambient: f64,
    /// Energy `e_j` in kWh to execute the rule for this slot (paper Eq. 2).
    pub exec_kwh: f64,
    /// The setpoint the IFTTT baseline applies to this device class in this
    /// slot, if any of its trigger-action rules fire.
    pub ifttt_value: Option<f64>,
    /// Energy in kWh of the IFTTT actuation (0 when `ifttt_value` is None).
    pub ifttt_kwh: f64,
}

impl CandidateRule {
    /// Creates a droppable convenience candidate with no IFTTT counterpart.
    pub fn convenience(rule_id: RuleId, desired: f64, ambient: f64, exec_kwh: f64) -> Self {
        CandidateRule {
            rule_id,
            zone: String::new(),
            device_class: DeviceClass::Hvac,
            owner: String::new(),
            necessity: false,
            desired,
            ambient,
            exec_kwh,
            ifttt_value: None,
            ifttt_kwh: 0.0,
        }
    }

    /// Sets the IFTTT counterpart (builder style).
    pub fn with_ifttt(mut self, value: f64, kwh: f64) -> Self {
        self.ifttt_value = Some(value);
        self.ifttt_kwh = kwh;
        self
    }

    /// Sets the owner (builder style).
    pub fn owned_by(mut self, owner: &str) -> Self {
        self.owner = owner.to_string();
        self
    }

    /// Sets the zone (builder style).
    pub fn in_zone(mut self, zone: &str) -> Self {
        self.zone = zone.to_string();
        self
    }

    /// Sets the device class (builder style).
    pub fn for_class(mut self, class: DeviceClass) -> Self {
        self.device_class = class;
        self
    }

    /// Marks the candidate as a necessity rule (builder style).
    pub fn as_necessity(mut self) -> Self {
        self.necessity = true;
        self
    }
}

/// One planning slot: the candidates active at a given hour plus the slot's
/// energy budget constraint from the Amortization Plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanningSlot {
    /// Flat hour index within the horizon.
    pub hour_index: u64,
    /// Candidates active this slot (may be empty at night, say).
    pub candidates: Vec<CandidateRule>,
    /// The budget constraint `E_p` for this slot, kWh.
    pub budget_kwh: f64,
}

impl PlanningSlot {
    /// Creates a slot.
    pub fn new(hour_index: u64, candidates: Vec<CandidateRule>, budget_kwh: f64) -> Self {
        PlanningSlot {
            hour_index,
            candidates,
            budget_kwh,
        }
    }

    /// Number of candidates, N for this slot.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True when no rules are active this slot.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Indices of droppable (non-necessity) candidates.
    pub fn droppable_indices(&self) -> Vec<usize> {
        self.candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.necessity)
            .map(|(i, _)| i)
            .collect()
    }

    /// Energy consumed when every candidate executes (the MR baseline's
    /// slot energy).
    pub fn max_energy(&self) -> f64 {
        self.candidates.iter().map(|c| c.exec_kwh).sum()
    }

    /// Energy of the necessity candidates alone (the floor any plan pays).
    pub fn necessity_energy(&self) -> f64 {
        self.candidates
            .iter()
            .filter(|c| c.necessity)
            .map(|c| c.exec_kwh)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot() -> PlanningSlot {
        PlanningSlot::new(
            5,
            vec![
                CandidateRule::convenience(RuleId(0), 25.0, 16.0, 0.6),
                CandidateRule::convenience(RuleId(1), 40.0, 0.0, 0.04).owned_by("mother"),
                CandidateRule::convenience(RuleId(2), 22.0, 18.0, 0.3).as_necessity(),
            ],
            0.7,
        )
    }

    #[test]
    fn slot_accessors() {
        let s = slot();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.droppable_indices(), vec![0, 1]);
        assert!((s.max_energy() - 0.94).abs() < 1e-12);
        assert!((s.necessity_energy() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn builders() {
        let c = CandidateRule::convenience(RuleId(7), 30.0, 10.0, 0.1)
            .with_ifttt(22.0, 0.08)
            .owned_by("father")
            .as_necessity();
        assert_eq!(c.ifttt_value, Some(22.0));
        assert_eq!(c.ifttt_kwh, 0.08);
        assert_eq!(c.owner, "father");
        assert!(c.necessity);
    }

    #[test]
    fn empty_slot() {
        let s = PlanningSlot::new(0, vec![], 0.5);
        assert!(s.is_empty());
        assert_eq!(s.max_energy(), 0.0);
        assert_eq!(s.necessity_energy(), 0.0);
        assert!(s.droppable_indices().is_empty());
    }
}
