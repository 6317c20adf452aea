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

    /// Plans every slot of a horizon, returning the aggregated report.
    pub fn plan<I>(&self, slots: I) -> PlanReport
    where
        I: IntoIterator<Item = PlanningSlot>,
    {
        // The per-slot cost is two clock reads and a few relaxed atomic
        // ops.
        let (slot_micros, slots_planned) = self.slot_metrics();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut report = PlanReport::empty();
        let mut reserve = 0.0f64;
        let start = Stopwatch::start();
        for mut slot in slots {
            if self.carry_over {
                slot.budget_kwh += reserve;
            }
            let init = self.init.generate(slot.len(), &mut rng);
            let slot_start = Stopwatch::start();
            let (bits, obj) = self.optimizer.optimize(&slot, init, &mut rng);
            slot_micros.observe(slot_start.elapsed_micros() as f64);
            slots_planned.inc();
            if self.carry_over {
                reserve = (slot.budget_kwh - obj.energy_kwh).max(0.0);
            }
            report.absorb_slot(&slot, &bits, obj.energy_kwh);
        }
        report.planning_time = start.elapsed();
        report
    }

    /// Plans a horizon of **independent** slots, fanning the per-slot
    /// optimization out over `jobs` pool workers.
    ///
    /// Determinism contract: the resulting [`PlanReport`] is byte-equal
    /// for every `jobs` value (timing fields aside — `planning_time` is
    /// wall-clock and excluded from the contract). Two mechanisms make
    /// that true:
    ///
    /// * every slot draws from its **own** RNG, seeded with
    ///   `imcf_pool::derive_seed(self.seed, slot_index)` — the stream a
    ///   slot consumes depends only on which slot it is, never on which
    ///   worker ran it or when;
    /// * slot outcomes are collected **by index** and folded into the
    ///   report in slot order, so floating-point accumulation order is
    ///   fixed.
    ///
    /// Note the RNG derivation differs from [`EnergyPlanner::plan`], which
    /// threads a single sequential RNG through the horizon (slot *n*'s
    /// stream there depends on how much entropy slots `0..n` consumed);
    /// `plan_slots_parallel(slots, 1)` is the sequential twin of this
    /// path, not of `plan`.
    ///
    /// # Panics
    /// Panics when budget carry-over is enabled: the reserve banked by
    /// slot *n* feeds slot *n + 1*, so a carry-over horizon is inherently
    /// sequential. Call [`EnergyPlanner::without_carry_over`] first.
    pub fn plan_slots_parallel(&self, slots: Vec<PlanningSlot>, jobs: usize) -> PlanReport
    where
        O: Sync,
    {
        assert!(
            !self.carry_over,
            "plan_slots_parallel requires without_carry_over(): \
             budget carry-over couples consecutive slots sequentially"
        );
        let (slot_micros, slots_planned) = self.slot_metrics();
        let start = Stopwatch::start();
        let outcomes = imcf_pool::map_indexed(jobs, slots, |index, slot| {
            // Trace identity mirrors the seed derivation: a function of
            // the slot's position only, so the trace a worker emits for
            // slot `index` is byte-identical at every `--jobs N`.
            let trace_guard = trace::begin(
                trace::TraceId::derive(self.seed, slot.hour_index, index as u64),
                || format!("plan/{}", slot.hour_index),
            );
            let mut rng =
                ChaCha8Rng::seed_from_u64(imcf_pool::derive_seed(self.seed, index as u64));
            let init = self.init.generate(slot.len(), &mut rng);
            let tspan = trace::span("planner.plan_slot");
            let slot_start = Stopwatch::start();
            let (bits, obj) = self.optimizer.optimize(&slot, init, &mut rng);
            slot_micros.observe(slot_start.elapsed_micros() as f64);
            slots_planned.inc();
            if trace::active() {
                tspan.attr("optimizer", self.optimizer_name());
                record_slot_decision(&slot, &bits, obj.energy_kwh);
            }
            drop(tspan);
            drop(trace_guard);
            (slot, bits, obj.energy_kwh)
        });
        let mut report = PlanReport::empty();
        for (slot, bits, energy_kwh) in &outcomes {
            report.absorb_slot(slot, bits, *energy_kwh);
        }
        report.planning_time = start.elapsed();
        report
    }

    /// Plans a single slot (used by the live controller loop).
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

    /// The parallel path's determinism contract: every `jobs` value yields
    /// a byte-equal report (wall-clock planning_time aside).
    #[test]
    fn parallel_plan_is_byte_equal_across_job_counts() {
        let planner = EnergyPlanner::from_config(PlannerConfig {
            seed: 7,
            init: InitStrategy::Random, // exercise the per-slot RNG
            ..Default::default()
        })
        .without_carry_over();
        let mut baseline = planner.plan_slots_parallel(day_slots(), 1);
        baseline.planning_time = Duration::ZERO;
        for jobs in [2, 4, 7] {
            let mut report = planner.plan_slots_parallel(day_slots(), jobs);
            report.planning_time = Duration::ZERO;
            assert_eq!(baseline, report, "jobs = {jobs}");
        }
    }

    #[test]
    fn parallel_plan_respects_strict_caps() {
        let planner = EnergyPlanner::from_config(PlannerConfig::default()).without_carry_over();
        let report = planner.plan_slots_parallel(day_slots(), 4);
        assert_eq!(report.slots, 24);
        assert_eq!(report.instances, 48);
        assert!(report.energy_kwh <= 0.6 * 24.0 + 1e-9);
        // Same tightness as the sequential strict-cap path: one rule per
        // slot must drop.
        assert!(
            report.dropped_instances >= 24,
            "dropped {}",
            report.dropped_instances
        );
    }

    #[test]
    fn parallel_plan_handles_empty_horizon() {
        let planner = EnergyPlanner::from_config(PlannerConfig::default()).without_carry_over();
        let report = planner.plan_slots_parallel(Vec::new(), 4);
        assert_eq!(report.slots, 0);
        assert_eq!(report.fe_kwh(), 0.0);
    }

    #[test]
    #[should_panic(expected = "without_carry_over")]
    fn parallel_plan_rejects_carry_over() {
        EnergyPlanner::from_config(PlannerConfig::default()).plan_slots_parallel(day_slots(), 2);
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

    /// Satellite contract: the trace a parallel run emits for slot *i* is
    /// identified — and laid out — the same at every worker count.
    #[test]
    fn parallel_slot_traces_are_identical_across_worker_counts() {
        let recorder = trace::recorder();
        recorder.set_enabled(true);
        let planner = EnergyPlanner::from_config(PlannerConfig::default()).without_carry_over();
        let ids: Vec<trace::TraceId> = day_slots()
            .iter()
            .enumerate()
            .map(|(i, s)| trace::TraceId::derive(0, s.hour_index, i as u64))
            .collect();
        planner.plan_slots_parallel(day_slots(), 1);
        let sequential = recorder.chrome_trace_json_for(&ids);
        planner.plan_slots_parallel(day_slots(), 4);
        let parallel = recorder.chrome_trace_json_for(&ids);
        assert!(
            sequential.contains("planner.decision"),
            "slot traces must carry the amortization decision: {sequential}"
        );
        assert_eq!(
            sequential, parallel,
            "per-slot traces must not depend on the worker count"
        );
    }
}
