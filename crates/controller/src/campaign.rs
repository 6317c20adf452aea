//! The campaign runner: a long-lived controller deployment.
//!
//! Wires together everything a real installation runs continuously: the
//! crontab-style [`Scheduler`] decides *when* the EP re-plans (the paper
//! runs it "every few minutes" via cron; hourly at our granularity) and
//! when the persistence layer compacts, the [`LocalController`] executes
//! plans, and a [`crate::config::ConfigStore`]-loaded MRT drives the slot
//! construction. Between planning points the *last plan holds* — exactly
//! how a cron-triggered planner behaves between invocations.

use crate::controller::{ControllerConfig, ControllerError, LocalController, TickSummary};
use crate::scheduler::{CronSpec, Scheduler};
use imcf_core::calendar::PaperCalendar;
use imcf_core::candidate::PlanningSlot;
use serde::{Deserialize, Serialize};

/// Campaign configuration.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Controller (planner) parameters.
    pub controller: ControllerConfig,
    /// How often the EP re-plans.
    pub replan: CronSpec,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            controller: ControllerConfig::default(),
            replan: CronSpec::Hourly,
        }
    }
}

/// Summary of a campaign run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Hours simulated.
    pub hours: u64,
    /// Planning invocations (scheduler-triggered).
    pub plans: u64,
    /// Hours that reused the previous plan.
    pub held: u64,
    /// Total energy metered, kWh.
    pub energy_kwh: f64,
    /// Commands delivered / blocked.
    pub delivered: u64,
    /// Commands blocked.
    pub blocked: u64,
}

/// A running campaign.
pub struct Campaign {
    controller: LocalController,
    scheduler: Scheduler,
    calendar: PaperCalendar,
    last_summary: Option<TickSummary>,
    report: CampaignReport,
}

impl Campaign {
    /// Creates a campaign; `zones` are provisioned on the controller.
    ///
    /// Fails when two zones collide (e.g. a duplicate name in `zones`).
    pub fn new(
        config: CampaignConfig,
        calendar: PaperCalendar,
        zones: &[&str],
    ) -> Result<Self, ControllerError> {
        let mut controller = LocalController::new(config.controller, calendar);
        for z in zones {
            controller.provision_zone(z)?;
        }
        let mut scheduler = Scheduler::new();
        scheduler.register("imcf-ep", config.replan);
        Ok(Campaign {
            controller,
            scheduler,
            calendar,
            last_summary: None,
            report: CampaignReport {
                hours: 0,
                plans: 0,
                held: 0,
                energy_kwh: 0.0,
                delivered: 0,
                blocked: 0,
            },
        })
    }

    /// The controller (for registry/firewall/bus access).
    pub fn controller(&mut self) -> &mut LocalController {
        &mut self.controller
    }

    /// Advances one hour with the given slot. When the scheduler says the
    /// EP is due, the slot is re-planned; otherwise the previous plan's
    /// rule set is held (its energy is re-metered against the new slot's
    /// candidate costs).
    pub fn step(&mut self, slot: &PlanningSlot) -> &CampaignReport {
        let due = !self
            .scheduler
            .due(slot.hour_index, self.calendar)
            .is_empty();
        match (&self.last_summary, due) {
            // Hold the previous plan: re-price its adopted rules against
            // this hour's candidates.
            (Some(held), false) => {
                let energy: f64 = slot
                    .candidates
                    .iter()
                    .filter(|c| held.adopted.contains(&c.rule_id))
                    .map(|c| c.exec_kwh)
                    .sum();
                self.report.held += 1;
                self.report.energy_kwh += energy;
            }
            _ => {
                let summary = self.controller.tick_with_errors(slot).0;
                self.report.plans += 1;
                self.report.energy_kwh += summary.energy_kwh;
                self.report.delivered += summary.delivered;
                self.report.blocked += summary.blocked;
                self.last_summary = Some(summary);
            }
        }
        self.report.hours += 1;
        &self.report
    }

    /// The accumulated report.
    pub fn report(&self) -> &CampaignReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imcf_core::candidate::CandidateRule;
    use imcf_rules::meta_rule::RuleId;

    fn slot(hour: u64, kwh: f64) -> PlanningSlot {
        PlanningSlot::new(
            hour,
            vec![CandidateRule::convenience(RuleId(0), 22.0, 15.0, kwh).in_zone("den")],
            1.0,
        )
    }

    #[test]
    fn hourly_replan_plans_every_step() {
        let mut c = Campaign::new(
            CampaignConfig::default(),
            PaperCalendar::january_start(),
            &["den"],
        )
        .unwrap();
        for h in 0..12 {
            c.step(&slot(h, 0.3));
        }
        let r = c.report();
        assert_eq!(r.hours, 12);
        assert_eq!(r.plans, 12);
        assert_eq!(r.held, 0);
        assert!((r.energy_kwh - 12.0 * 0.3).abs() < 1e-9);
    }

    #[test]
    fn sparse_replan_holds_the_plan_between_points() {
        let config = CampaignConfig {
            replan: CronSpec::EveryHours(6),
            ..Default::default()
        };
        let mut c = Campaign::new(config, PaperCalendar::january_start(), &["den"]).unwrap();
        for h in 0..12 {
            c.step(&slot(h, 0.3));
        }
        let r = c.report();
        assert_eq!(r.plans, 2); // hours 0 and 6
        assert_eq!(r.held, 10);
        // Held hours still meter the adopted rule's energy.
        assert!((r.energy_kwh - 12.0 * 0.3).abs() < 1e-9);
    }

    #[test]
    fn held_plan_tracks_changing_costs() {
        let config = CampaignConfig {
            replan: CronSpec::EveryHours(24),
            ..Default::default()
        };
        let mut c = Campaign::new(config, PaperCalendar::january_start(), &["den"]).unwrap();
        c.step(&slot(0, 0.2));
        c.step(&slot(1, 0.5)); // same rule, pricier hour
        let r = c.report();
        assert_eq!(r.plans, 1);
        assert!((r.energy_kwh - 0.7).abs() < 1e-9);
    }

    #[test]
    fn first_step_always_plans() {
        let config = CampaignConfig {
            replan: CronSpec::DailyAt(12),
            ..Default::default()
        };
        let mut c = Campaign::new(config, PaperCalendar::january_start(), &["den"]).unwrap();
        // Hour 0 is not 12:00, but the campaign cannot hold a nonexistent
        // plan: the first step plans unconditionally.
        c.step(&slot(0, 0.3));
        assert_eq!(c.report().plans, 1);
    }
}
