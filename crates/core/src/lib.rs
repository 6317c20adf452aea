//! # imcf-core — the IoT Meta-Control Firewall core algorithms
//!
//! This crate implements the primary contribution of the IMCF paper
//! (ICDE 2021): the **Energy Planner (EP)**, a hill-climbing search over
//! binary rule-activation vectors that maximizes user convenience subject to
//! an energy budget, together with the **Amortization Plan (AP)** that
//! derives per-period budgets from an Energy Consumption Profile.
//!
//! Structure:
//!
//! * [`calendar`] — the paper's time conventions (12 × 31 × 24-hour years);
//! * [`ecp`] — Energy Consumption Profiles (paper Table I);
//! * [`amortization`] — the AP subroutine: LAF, BLAF and EAF formulas
//!   (paper Eqs. 3–5);
//! * [`candidate`] — per-slot planning instances the EP optimizes over;
//! * [`objective`] — the convenience-error and energy objectives
//!   (paper Eqs. 1–2);
//! * [`solution`] — binary rule-activation vectors;
//! * [`init`] — the three initialization strategies of the paper's Fig. 8;
//! * [`neighborhood`] — k-opt neighbourhood moves (paper Fig. 7);
//! * [`optimizer`] — hill climbing (the paper's EP), plus simulated
//!   annealing and an exhaustive oracle for ablations;
//! * [`planner`] — the per-slot planning loop (paper Algorithm 1);
//! * [`baselines`] — the NR, MR and IFTTT comparison methods;
//! * [`attribution`] — per-resident convenience accounting (paper Table V);
//! * [`fairshare`] — multiple planners with conflicting interests (paper
//!   future work §V): per-owner budget entitlements with leftover
//!   redistribution;
//! * [`deferrable`] — shiftable-workload scheduling (paper future work
//!   §V): EV charges and white goods placed into cheap/green hours;
//! * [`forecast`] — demand forecasting for hourly-granular budget shaping
//!   (extension);
//! * [`co2`] — CO₂-equivalent accounting (paper future work);
//! * [`metrics`] — experiment metric aggregation (mean ± stdev over
//!   repetitions, as the paper reports).
//!
//! # Example: plan one slot under a budget
//!
//! ```
//! use imcf_core::candidate::{CandidateRule, PlanningSlot};
//! use imcf_core::{EnergyPlanner, PlannerConfig};
//! use imcf_rules::meta_rule::RuleId;
//!
//! // Two rules want 0.8 kWh total; the hour's allowance is 0.6 kWh.
//! let slot = PlanningSlot::new(
//!     0,
//!     vec![
//!         CandidateRule::convenience(RuleId(0), 25.0, 15.0, 0.5), // night heat
//!         CandidateRule::convenience(RuleId(1), 40.0, 0.0, 0.3),  // lights
//!     ],
//!     0.6,
//! );
//! let planner = EnergyPlanner::from_config(PlannerConfig::default());
//! let report = planner.plan(vec![slot]);
//! assert!(report.fe_kwh() <= 0.6);          // the budget holds
//! assert!(report.dropped_instances >= 1);    // something had to give
//! ```

pub mod amortization;
pub mod attribution;
pub mod baselines;
pub mod calendar;
pub mod candidate;
pub mod co2;
pub mod deferrable;
pub mod ecp;
pub mod fairshare;
pub mod forecast;
pub mod init;
pub mod metrics;
pub mod neighborhood;
pub mod objective;
pub mod optimizer;
pub mod planner;
pub mod solution;

pub use amortization::{AmortizationPlan, ApKind};
pub use calendar::{
    PaperCalendar, HOURS_PER_DAY, HOURS_PER_MONTH, HOURS_PER_YEAR, MONTHS_PER_YEAR,
};
pub use candidate::{CandidateRule, PlanningSlot};
pub use ecp::Ecp;
pub use init::InitStrategy;
pub use metrics::{MeanStd, RunMetrics};
pub use objective::{convenience_error_fraction, evaluate, SlotObjective};
pub use optimizer::{ExhaustiveOracle, HillClimbing, Optimizer, SimulatedAnnealing};
pub use planner::{EnergyPlanner, PlanReport, PlannerConfig};
pub use solution::Solution;
