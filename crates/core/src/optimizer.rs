//! Slot optimizers: the paper's hill-climbing EP plus ablation alternatives.
//!
//! The paper adopts hill climbing because it needs no learning history and
//! no target function (§II-B), but notes that "any heuristic or
//! meta-heuristic approach can be utilized in the EP optimization step". We
//! implement three interchangeable optimizers behind the [`Optimizer`]
//! trait:
//!
//! * [`HillClimbing`] — Algorithm 1's EP routine, faithful to the paper's
//!   acceptance rule `(F_E(s) ≤ E_p) && (F_CE(s) < F_CE(s*))`;
//! * [`SimulatedAnnealing`] — the stochastic alternative the related-work
//!   section mentions;
//! * [`ExhaustiveOracle`] — exact enumeration for small slots, used by the
//!   ablation bench to measure how close the heuristics get to optimal.
//!
//! All optimizers pin necessity rules on and guarantee a *feasible* result
//! whenever one exists: if the search never finds a feasible solution the
//! necessity-only fallback is returned (dropping every droppable rule),
//! which degenerates to the paper's NR behaviour under a zero budget
//! (Lemma 1's worst case).

use crate::candidate::PlanningSlot;
use crate::neighborhood::KOpt;
use crate::objective::{evaluate, evaluate_with_flips, SlotObjective};
use crate::solution::Solution;
use imcf_telemetry::Counter;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Cached handle for `optimizer.iterations{optimizer=...}` — one relaxed
/// atomic add per `optimize` call, no registry lookup in the hot path.
/// Safe to cache in a static because [`imcf_telemetry::Registry::reset`]
/// keeps metric identities.
fn iteration_counter(
    cell: &'static OnceLock<Counter>,
    optimizer: &'static str,
) -> &'static Counter {
    cell.get_or_init(|| {
        imcf_telemetry::global().counter_with("optimizer.iterations", &[("optimizer", optimizer)])
    })
}

/// A slot optimizer.
pub trait Optimizer {
    /// Optimizes the slot starting from `init`, returning the chosen
    /// solution and its objective. Necessity components of `init` are
    /// forced on before the search starts.
    fn optimize<R: Rng + ?Sized>(
        &self,
        slot: &PlanningSlot,
        init: Solution,
        rng: &mut R,
    ) -> (Solution, SlotObjective);

    /// Short name for experiment output.
    fn name(&self) -> &'static str;
}

fn necessity_indices(slot: &PlanningSlot) -> Vec<usize> {
    slot.candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| c.necessity)
        .map(|(i, _)| i)
        .collect()
}

/// The necessity-only fallback: droppable rules off, necessity rules on.
fn fallback(slot: &PlanningSlot) -> Solution {
    let mut s = Solution::all_zeros(slot.len());
    s.force_on(&necessity_indices(slot));
    s
}

/// Whether objective `a` beats `b` under the paper's ordering:
/// feasibility first, then convenience error, then energy as a
/// deterministic tiebreaker.
fn better(budget: f64, a: &SlotObjective, b: &SlotObjective) -> bool {
    let fa = a.feasible(budget);
    let fb = b.feasible(budget);
    match (fa, fb) {
        (true, false) => true,
        (false, true) => false,
        _ => a.ce_sum < b.ce_sum || (a.ce_sum == b.ce_sum && a.energy_kwh < b.energy_kwh),
    }
}

/// The paper's EP routine: iterative k-opt hill climbing (Algorithm 1,
/// lines 7–18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HillClimbing {
    /// Components flipped per move (the paper's `k`).
    pub kopt: KOpt,
    /// Iteration budget τ_max.
    pub tau_max: u32,
}

impl HillClimbing {
    /// Creates a hill climber with the given `k` and iteration budget.
    pub fn new(k: usize, tau_max: u32) -> Self {
        HillClimbing {
            kopt: KOpt::new(k),
            tau_max,
        }
    }
}

impl Default for HillClimbing {
    /// The defaults used throughout the evaluation: k = 2, τ_max = 100.
    fn default() -> Self {
        HillClimbing::new(2, 100)
    }
}

impl Optimizer for HillClimbing {
    fn optimize<R: Rng + ?Sized>(
        &self,
        slot: &PlanningSlot,
        mut init: Solution,
        rng: &mut R,
    ) -> (Solution, SlotObjective) {
        init.force_on(&necessity_indices(slot));
        let mutable = slot.droppable_indices();
        let obj = evaluate(slot, &init);
        let mut best = (init, obj);
        let mut flipped = Vec::with_capacity(self.kopt.k);
        let mut tau = 0;
        while tau < self.tau_max {
            self.kopt.draw(&mutable, rng, &mut flipped);
            // Incremental O(k) evaluation relative to the current best.
            let obj = evaluate_with_flips(slot, &best.0, best.1, &flipped);
            // The move is made in place and undone on rejection.
            KOpt::apply(&mut best.0, &flipped);
            debug_assert!(
                (obj.energy_kwh - evaluate(slot, &best.0).energy_kwh).abs() < 1e-6,
                "delta evaluation diverged"
            );
            if better(slot.budget_kwh, &obj, &best.1) && obj.feasible(slot.budget_kwh) {
                best.1 = obj;
            } else {
                KOpt::apply(&mut best.0, &flipped);
            }
            tau += 1;
        }
        static ITERATIONS: OnceLock<Counter> = OnceLock::new();
        iteration_counter(&ITERATIONS, "hill-climbing").add(tau as u64);
        if !best.1.feasible(slot.budget_kwh) {
            let fb = fallback(slot);
            let obj = evaluate(slot, &fb);
            return (fb, obj);
        }
        best
    }

    fn name(&self) -> &'static str {
        "hill-climbing"
    }
}

/// Simulated annealing over the same neighbourhood: accepts uphill moves in
/// convenience error with probability `exp(−Δ/T)` under geometric cooling,
/// tracking and returning the best feasible solution seen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulatedAnnealing {
    /// Components flipped per move.
    pub kopt: KOpt,
    /// Iteration budget.
    pub tau_max: u32,
    /// Initial temperature (in convenience-error units).
    pub initial_temperature: f64,
    /// Geometric cooling factor per iteration, in (0, 1).
    pub cooling: f64,
}

impl SimulatedAnnealing {
    /// Creates an annealer.
    ///
    /// # Panics
    /// Panics when `cooling` is outside `(0, 1)` or the temperature is not
    /// positive.
    pub fn new(k: usize, tau_max: u32, initial_temperature: f64, cooling: f64) -> Self {
        assert!(initial_temperature > 0.0, "temperature must be positive");
        assert!(
            (0.0..1.0).contains(&cooling) && cooling > 0.0,
            "cooling must be in (0, 1)"
        );
        SimulatedAnnealing {
            kopt: KOpt::new(k),
            tau_max,
            initial_temperature,
            cooling,
        }
    }
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing::new(2, 100, 0.5, 0.95)
    }
}

impl Optimizer for SimulatedAnnealing {
    fn optimize<R: Rng + ?Sized>(
        &self,
        slot: &PlanningSlot,
        mut init: Solution,
        rng: &mut R,
    ) -> (Solution, SlotObjective) {
        init.force_on(&necessity_indices(slot));
        let mutable = slot.droppable_indices();
        let obj = evaluate(slot, &init);
        let mut current = (init, obj);
        let mut best = current.clone();
        let mut flipped = Vec::with_capacity(self.kopt.k);
        let mut temperature = self.initial_temperature;
        for _ in 0..self.tau_max {
            self.kopt.draw(&mutable, rng, &mut flipped);
            let obj = evaluate_with_flips(slot, &current.0, current.1, &flipped);
            // The move is made in place and undone on rejection.
            KOpt::apply(&mut current.0, &flipped);
            let accept = obj.feasible(slot.budget_kwh) && {
                let delta = obj.ce_sum - current.1.ce_sum;
                delta < 0.0
                    || !current.1.feasible(slot.budget_kwh)
                    || rng.gen::<f64>() < (-delta / temperature).exp()
            };
            if accept {
                current.1 = obj;
                if better(slot.budget_kwh, &current.1, &best.1) {
                    best = current.clone();
                }
            } else {
                KOpt::apply(&mut current.0, &flipped);
            }
            temperature *= self.cooling;
        }
        static ITERATIONS: OnceLock<Counter> = OnceLock::new();
        iteration_counter(&ITERATIONS, "simulated-annealing").add(self.tau_max as u64);
        if !best.1.feasible(slot.budget_kwh) {
            let fb = fallback(slot);
            let obj = evaluate(slot, &fb);
            return (fb, obj);
        }
        best
    }

    fn name(&self) -> &'static str {
        "simulated-annealing"
    }
}

/// Maximum droppable components the oracle will enumerate (2^20 ≈ 1M
/// evaluations).
pub const ORACLE_MAX_COMPONENTS: usize = 20;

/// Exact enumeration of every droppable subset: the optimal slot plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExhaustiveOracle;

impl Optimizer for ExhaustiveOracle {
    /// # Panics
    /// Panics when the slot has more than [`ORACLE_MAX_COMPONENTS`]
    /// droppable candidates.
    fn optimize<R: Rng + ?Sized>(
        &self,
        slot: &PlanningSlot,
        _init: Solution,
        _rng: &mut R,
    ) -> (Solution, SlotObjective) {
        let mutable = slot.droppable_indices();
        assert!(
            mutable.len() <= ORACLE_MAX_COMPONENTS,
            "oracle limited to {ORACLE_MAX_COMPONENTS} droppable components, slot has {}",
            mutable.len()
        );
        let base = fallback(slot);
        let mut best = (base.clone(), evaluate(slot, &base));
        for mask in 0u64..(1u64 << mutable.len()) {
            let mut s = base.clone();
            for (bit, &idx) in mutable.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    s.set(idx, true);
                }
            }
            let obj = evaluate(slot, &s);
            if obj.feasible(slot.budget_kwh) && better(slot.budget_kwh, &obj, &best.1) {
                best = (s, obj);
            }
        }
        static ITERATIONS: OnceLock<Counter> = OnceLock::new();
        iteration_counter(&ITERATIONS, "exhaustive-oracle").add(1u64 << mutable.len());
        best
    }

    fn name(&self) -> &'static str {
        "exhaustive-oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::CandidateRule;
    use imcf_rules::meta_rule::RuleId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A slot where executing everything busts the budget: 3 rules costing
    /// 0.5/0.3/0.04 kWh under a 0.6 kWh cap. Dropping the 0.5 kWh rule
    /// (error 0.4) is worse than dropping the 0.3 kWh rule (error 0.18) —
    /// the optimum keeps rules 0 and 2.
    fn tight_slot() -> PlanningSlot {
        PlanningSlot::new(
            0,
            vec![
                CandidateRule::convenience(RuleId(0), 25.0, 15.0, 0.5),
                CandidateRule::convenience(RuleId(1), 22.0, 18.0, 0.3),
                CandidateRule::convenience(RuleId(2), 40.0, 0.0, 0.04),
            ],
            0.6,
        )
    }

    #[test]
    fn oracle_finds_the_optimum() {
        let slot = tight_slot();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let (s, obj) = ExhaustiveOracle.optimize(&slot, Solution::all_ones(3), &mut rng);
        assert_eq!(s.bits(), &[true, false, true]);
        assert!(obj.feasible(slot.budget_kwh));
        assert!((obj.ce_sum - 4.0 / 22.0).abs() < 1e-12);
    }

    #[test]
    fn hill_climbing_is_always_feasible() {
        let slot = tight_slot();
        for seed in 0..20 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let hc = HillClimbing::new(2, 50);
            let (_, obj) = hc.optimize(&slot, Solution::all_ones(3), &mut rng);
            assert!(obj.feasible(slot.budget_kwh), "seed {seed}");
        }
    }

    #[test]
    fn hill_climbing_matches_oracle_on_tiny_slots() {
        let slot = tight_slot();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let oracle = ExhaustiveOracle
            .optimize(&slot, Solution::all_ones(3), &mut rng)
            .1;
        let mut found_optimal = false;
        for seed in 0..10 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let hc = HillClimbing::new(2, 200);
            let (_, obj) = hc.optimize(&slot, Solution::all_ones(3), &mut rng);
            if (obj.ce_sum - oracle.ce_sum).abs() < 1e-12 {
                found_optimal = true;
            }
        }
        assert!(
            found_optimal,
            "hill climbing never reached the oracle optimum"
        );
    }

    #[test]
    fn generous_budget_keeps_everything() {
        let mut slot = tight_slot();
        slot.budget_kwh = 10.0;
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let (s, obj) = HillClimbing::default().optimize(&slot, Solution::all_ones(3), &mut rng);
        assert_eq!(s.count_ones(), 3);
        assert_eq!(obj.ce_sum, 0.0);
    }

    #[test]
    fn zero_budget_degenerates_to_nr() {
        // Lemma 1's worst case: budget 0 → NR behaviour.
        let mut slot = tight_slot();
        slot.budget_kwh = 0.0;
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let (s, obj) = HillClimbing::default().optimize(&slot, Solution::all_ones(3), &mut rng);
        assert_eq!(s.count_ones(), 0);
        assert_eq!(obj.energy_kwh, 0.0);
    }

    #[test]
    fn necessity_rules_survive_every_optimizer() {
        let mut slot = tight_slot();
        slot.candidates[1] = slot.candidates[1].clone().as_necessity();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let hc = HillClimbing::default().optimize(&slot, Solution::all_zeros(3), &mut rng);
        assert!(hc.0.get(1), "hill climbing dropped a necessity rule");
        let sa = SimulatedAnnealing::default().optimize(&slot, Solution::all_zeros(3), &mut rng);
        assert!(sa.0.get(1), "annealing dropped a necessity rule");
        let or = ExhaustiveOracle.optimize(&slot, Solution::all_zeros(3), &mut rng);
        assert!(or.0.get(1), "oracle dropped a necessity rule");
    }

    #[test]
    fn annealing_is_feasible_and_reasonable() {
        let slot = tight_slot();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let (_, obj) =
            SimulatedAnnealing::default().optimize(&slot, Solution::all_ones(3), &mut rng);
        assert!(obj.feasible(slot.budget_kwh));
        // At minimum it should beat dropping everything (ce_sum 1.58).
        assert!(obj.ce_sum < 1.0);
    }

    #[test]
    fn empty_slot_is_trivially_planned() {
        let slot = PlanningSlot::new(0, vec![], 0.5);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let (s, obj) = HillClimbing::default().optimize(&slot, Solution::all_zeros(0), &mut rng);
        assert!(s.is_empty());
        assert_eq!(obj.energy_kwh, 0.0);
    }

    #[test]
    fn larger_k_not_worse_on_average() {
        // Average CE over seeds with k=4 should not be (meaningfully) worse
        // than with k=1 on a slot with room to improve — the Fig. 7 trend.
        let slot = PlanningSlot::new(
            0,
            (0..12)
                .map(|i| {
                    CandidateRule::convenience(
                        RuleId(i),
                        25.0,
                        15.0 + (i % 5) as f64,
                        0.2 + (i % 3) as f64 * 0.1,
                    )
                })
                .collect(),
            1.2,
        );
        let mean_ce = |k: usize| -> f64 {
            let mut total = 0.0;
            for seed in 0..30 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let hc = HillClimbing::new(k, 60);
                total += hc
                    .optimize(&slot, Solution::all_ones(12), &mut rng)
                    .1
                    .ce_sum;
            }
            total / 30.0
        };
        let ce1 = mean_ce(1);
        let ce4 = mean_ce(4);
        assert!(ce4 <= ce1 * 1.10, "k=4 ({ce4}) much worse than k=1 ({ce1})");
    }

    #[test]
    #[should_panic(expected = "oracle limited")]
    fn oracle_rejects_huge_slots() {
        let slot = PlanningSlot::new(
            0,
            (0..21)
                .map(|i| CandidateRule::convenience(RuleId(i), 1.0, 0.0, 0.1))
                .collect(),
            1.0,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        ExhaustiveOracle.optimize(&slot, Solution::all_zeros(21), &mut rng);
    }
}
