//! The Energy Planner driver (paper Algorithm 1).
//!
//! [`EnergyPlanner`] strings the pieces together: for every planning slot it
//! draws an initial solution, runs the configured [`Optimizer`], and folds
//! the per-slot objectives into a [`PlanReport`] carrying the paper's three
//! metrics — Convenience Error (F_CE), Energy Consumption (F_E) and CPU
//! time (F_T) — plus per-owner attribution for the Table V analysis.

use crate::attribution::OwnerStats;
use crate::candidate::PlanningSlot;
use crate::init::InitStrategy;
use crate::objective::convenience_error_fraction;
use crate::optimizer::{HillClimbing, Optimizer};
use crate::solution::Solution;
use imcf_telemetry::{trace, Counter, Histogram, Stopwatch};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use std::time::Duration;

/// Configuration of the Energy Planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// k-opt components flipped per move (paper Fig. 7 sweeps this).
    pub k: usize,
    /// Iteration budget τ_max per slot.
    pub tau_max: u32,
    /// Initialization strategy (paper Fig. 8 sweeps this).
    pub init: InitStrategy,
    /// RNG seed; experiments repeat over seeds and report mean ± stdev.
    pub seed: u64,
}

impl Default for PlannerConfig {
    /// The defaults used in the evaluation: k = 2, τ_max = 100, all-1s.
    fn default() -> Self {
        PlannerConfig {
            k: 2,
            tau_max: 100,
            init: InitStrategy::AllOnes,
            seed: 0,
        }
    }
}

/// The aggregated outcome of planning a horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanReport {
    /// Total energy consumed, kWh (the paper's F_E).
    pub energy_kwh: f64,
    /// Sum of normalized convenience-error fractions over all rule
    /// instances.
    pub ce_sum: f64,
    /// Number of (rule, slot) instances evaluated.
    pub instances: u64,
    /// Number of slots planned.
    pub slots: u64,
    /// Number of rule instances dropped (s_i = 0).
    pub dropped_instances: u64,
    /// Wall-clock planning time (the paper's F_T).
    pub planning_time: Duration,
    /// Per-owner convenience statistics (paper Table V).
    pub owners: OwnerStats,
}

impl PlanReport {
    fn empty() -> Self {
        PlanReport {
            energy_kwh: 0.0,
            ce_sum: 0.0,
            instances: 0,
            slots: 0,
            dropped_instances: 0,
            planning_time: Duration::ZERO,
            owners: OwnerStats::default(),
        }
    }

    /// The Convenience Error F_CE as a percentage: the mean normalized error
    /// over all rule instances × 100.
    pub fn fce_percent(&self) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            100.0 * self.ce_sum / self.instances as f64
        }
    }

    /// The Energy Consumption F_E in kWh.
    pub fn fe_kwh(&self) -> f64 {
        self.energy_kwh
    }

    /// The CPU time F_T in seconds.
    pub fn ft_seconds(&self) -> f64 {
        self.planning_time.as_secs_f64()
    }

    /// Folds a slot outcome into the report. `bits` is the chosen solution
    /// for the slot's candidates.
    pub fn absorb_slot(&mut self, slot: &PlanningSlot, bits: &Solution, energy_kwh: f64) {
        self.slots += 1;
        self.energy_kwh += energy_kwh;
        for (candidate, adopted) in slot.candidates.iter().zip(bits.iter()) {
            self.instances += 1;
            let ce = if adopted {
                0.0
            } else {
                self.dropped_instances += 1;
                convenience_error_fraction(candidate.desired, candidate.ambient)
            };
            self.ce_sum += ce;
            self.owners.record(&candidate.owner, ce);
        }
    }
}

/// The Energy Planner: plans a horizon slot by slot.
///
/// By default the planner *carries over* unspent budget: the Amortization
/// Plan hands each slot its allowance `E_p`, and whatever a slot leaves
/// unspent is banked into a reserve that future slots may draw on. This is
/// the temporal side of the paper's amortization story (the net-metering
/// balloon: "energy excess on a sunny day can be used at later stages") and
/// is what lets peak rule-hours (a cold night's preheat) fit under a budget
/// whose hourly mean is below their cost. Disable with
/// [`EnergyPlanner::without_carry_over`] to enforce strict per-slot caps.
#[derive(Debug, Clone)]
pub struct EnergyPlanner<O: Optimizer = HillClimbing> {
    optimizer: O,
    init: InitStrategy,
    seed: u64,
    carry_over: bool,
    /// `planner.slot_micros{optimizer}` and `planner.slots_planned`,
    /// fetched on first use: the live loop plans one slot per tick.
    slot_metrics: OnceLock<(Histogram, Counter)>,
}

impl EnergyPlanner<HillClimbing> {
    /// Builds the paper's hill-climbing planner from a config.
    pub fn from_config(config: PlannerConfig) -> Self {
        EnergyPlanner {
            optimizer: HillClimbing::new(config.k, config.tau_max),
            init: config.init,
            seed: config.seed,
            carry_over: true,
            slot_metrics: OnceLock::new(),
        }
    }
}

impl<O: Optimizer> EnergyPlanner<O> {
    /// Builds a planner around an arbitrary optimizer.
    pub fn with_optimizer(optimizer: O, init: InitStrategy, seed: u64) -> Self {
        EnergyPlanner {
            optimizer,
            init,
            seed,
            carry_over: true,
            slot_metrics: OnceLock::new(),
        }
    }

    /// Disables budget carry-over: each slot must fit its own `E_p`.
    pub fn without_carry_over(mut self) -> Self {
        self.carry_over = false;
        self
    }

    /// The optimizer's name.
    pub fn optimizer_name(&self) -> &'static str {
        self.optimizer.name()
    }

    fn slot_metrics(&self) -> &(Histogram, Counter) {
        self.slot_metrics.get_or_init(|| {
            let telemetry = imcf_telemetry::global();
            (
                telemetry.histogram_with(
                    "planner.slot_micros",
                    &[("optimizer", self.optimizer_name())],
                ),
                telemetry.counter("planner.slots_planned"),
            )
        })
    }

    /// Plans every slot of a horizon through [`Self::plan_slot`], one RNG
    /// threaded through in slot order, returning the aggregated report.
    /// With carry-over, the budget a slot leaves unspent is banked for the
    /// next: Algorithm 1's sequential dependency.
    pub fn plan<I>(&self, slots: I) -> PlanReport
    where
        I: IntoIterator<Item = PlanningSlot>,
    {
        let mut rng = self.rng();
        let mut report = PlanReport::empty();
        let mut reserve = 0.0f64;
        let start = Stopwatch::start();
        for mut slot in slots {
            if self.carry_over {
                slot.budget_kwh += reserve;
            }
            let (bits, energy_kwh) = self.plan_slot(&slot, &mut rng);
            if self.carry_over {
                reserve = (slot.budget_kwh - energy_kwh).max(0.0);
            }
            report.absorb_slot(&slot, &bits, energy_kwh);
        }
        report.planning_time = start.elapsed();
        report
    }

    /// Plans a single slot: the body [`Self::plan`] runs for every slot and
    /// the live controller loop runs once per tick. Draws the initial
    /// solution, then optimizes, from `rng`; the per-slot cost beyond that
    /// is two clock reads and a few relaxed atomic ops.
    pub fn plan_slot(&self, slot: &PlanningSlot, rng: &mut ChaCha8Rng) -> (Solution, f64) {
        let (slot_micros, slots_planned) = self.slot_metrics();
        let tspan = trace::span("planner.plan_slot");
        let init = self.init.generate(slot.len(), rng);
        let slot_start = Stopwatch::start();
        let (bits, obj) = self.optimizer.optimize(slot, init, rng);
        slot_micros.observe(slot_start.elapsed_micros() as f64);
        slots_planned.inc();
        if trace::active() {
            tspan.attr("optimizer", self.optimizer_name());
            record_slot_decision(slot, &bits, obj.energy_kwh);
        }
        (bits, obj.energy_kwh)
    }

    /// A seeded RNG matching this planner's seed, for [`Self::plan_slot`]
    /// call sites.
    pub fn rng(&self) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(self.seed)
    }
}

/// Records the EP/AP amortization decision for one slot as a trace point:
/// how many candidates were adopted vs dropped against which allowance.
/// Call only under `trace::active()` — the attribute strings allocate.
fn record_slot_decision(slot: &PlanningSlot, bits: &Solution, energy_kwh: f64) {
    let adopted = bits.count_ones();
    trace::point(
        "planner.decision",
        &[
            ("hour", &slot.hour_index.to_string()),
            ("adopted", &adopted.to_string()),
            ("dropped", &(slot.len().saturating_sub(adopted)).to_string()),
            ("energy_kwh", &format!("{energy_kwh:.6}")),
            ("budget_kwh", &format!("{:.6}", slot.budget_kwh)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::CandidateRule;
    use imcf_rules::meta_rule::RuleId;

    /// 24 synthetic hourly slots: two rules, enough budget for one.
    fn day_slots() -> Vec<PlanningSlot> {
        (0..24u64)
            .map(|h| {
                PlanningSlot::new(
                    h,
                    vec![
                        CandidateRule::convenience(RuleId(0), 25.0, 20.0, 0.5),
                        CandidateRule::convenience(RuleId(1), 40.0, 10.0, 0.3).owned_by("mother"),
                    ],
                    0.6,
                )
            })
            .collect()
    }

    #[test]
    fn planner_respects_cumulative_budget() {
        let planner = EnergyPlanner::from_config(PlannerConfig::default());
        let report = planner.plan(day_slots());
        assert_eq!(report.slots, 24);
        assert_eq!(report.instances, 48);
        // With carry-over the binding constraint is cumulative: the total
        // can never exceed the sum of per-slot allowances.
        assert!(report.energy_kwh <= 0.6 * 24.0 + 1e-9);
        // 0.8 kWh of demand against 0.6 kWh/slot of allowance forces drops.
        assert!(
            report.dropped_instances >= 6,
            "dropped {}",
            report.dropped_instances
        );
        assert!(report.fce_percent() > 0.0);
    }

    #[test]
    fn strict_caps_without_carry_over() {
        let planner = EnergyPlanner::from_config(PlannerConfig::default()).without_carry_over();
        let report = planner.plan(day_slots());
        // Every slot must fit 0.6 kWh on its own: one rule per slot drops.
        assert!(
            report.dropped_instances >= 24,
            "dropped {}",
            report.dropped_instances
        );
        assert!(report.energy_kwh <= 0.6 * 24.0 + 1e-9);
        // Carry-over strictly dominates strict caps on convenience.
        let carry = EnergyPlanner::from_config(PlannerConfig::default()).plan(day_slots());
        assert!(carry.fce_percent() <= report.fce_percent() + 1e-9);
    }

    #[test]
    fn generous_budget_yields_zero_error() {
        let slots: Vec<_> = day_slots()
            .into_iter()
            .map(|mut s| {
                s.budget_kwh = 10.0;
                s
            })
            .collect();
        let planner = EnergyPlanner::from_config(PlannerConfig::default());
        let report = planner.plan(slots);
        assert_eq!(report.fce_percent(), 0.0);
        assert!((report.energy_kwh - 24.0 * 0.8).abs() < 1e-9);
        assert_eq!(report.dropped_instances, 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let planner = EnergyPlanner::from_config(PlannerConfig {
            seed: 7,
            ..Default::default()
        });
        let a = planner.plan(day_slots());
        let b = planner.plan(day_slots());
        assert_eq!(a.energy_kwh, b.energy_kwh);
        assert_eq!(a.ce_sum, b.ce_sum);
    }

    #[test]
    fn different_seeds_may_differ_but_stay_feasible() {
        let r1 = EnergyPlanner::from_config(PlannerConfig {
            seed: 1,
            ..Default::default()
        })
        .plan(day_slots());
        let r2 = EnergyPlanner::from_config(PlannerConfig {
            seed: 2,
            ..Default::default()
        })
        .plan(day_slots());
        for r in [&r1, &r2] {
            assert!(r.energy_kwh <= 0.6 * 24.0 + 1e-9);
        }
    }

    /// Batch and live planning share one per-slot body: a horizon planned
    /// at once equals the same slots fed one by one to `plan_slot`.
    #[test]
    fn plan_is_plan_slot_in_slot_order() {
        let planner = EnergyPlanner::from_config(PlannerConfig {
            seed: 7,
            init: InitStrategy::Random,
            ..Default::default()
        })
        .without_carry_over();
        let mut batch = planner.plan(day_slots());
        batch.planning_time = Duration::ZERO;
        let mut rng = planner.rng();
        let mut live = PlanReport::empty();
        for slot in day_slots() {
            let (bits, energy_kwh) = planner.plan_slot(&slot, &mut rng);
            live.absorb_slot(&slot, &bits, energy_kwh);
        }
        assert_eq!(batch, live);
    }

    #[test]
    fn owner_attribution_flows_through() {
        let planner = EnergyPlanner::from_config(PlannerConfig::default());
        let report = planner.plan(day_slots());
        let owners = report.owners.owners();
        assert!(owners.contains(&"mother".to_string()));
        // Household rules attribute to the empty owner.
        assert!(owners.contains(&String::new()));
    }

    #[test]
    fn fce_is_a_percentage() {
        let planner = EnergyPlanner::from_config(PlannerConfig::default());
        let report = planner.plan(day_slots());
        assert!((0.0..=100.0).contains(&report.fce_percent()));
    }

    #[test]
    fn empty_horizon() {
        let planner = EnergyPlanner::from_config(PlannerConfig::default());
        let report = planner.plan(Vec::<PlanningSlot>::new());
        assert_eq!(report.slots, 0);
        assert_eq!(report.fce_percent(), 0.0);
        assert_eq!(report.fe_kwh(), 0.0);
    }
}
