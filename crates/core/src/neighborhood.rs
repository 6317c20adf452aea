//! k-opt neighbourhood moves (paper §II-B, "Optimization").
//!
//! The paper describes "neighborhoods that involve changing *up to* k
//! components of the solution, which is often referred to as k-opt".
//! [`KOpt`] implements that move over the *droppable* components only —
//! necessity rules are pinned on and never flipped — by drawing a move size
//! `j` uniformly from `1..=k` and then flipping `j` distinct uniformly
//! random components. Including the smaller move sizes keeps every solution
//! reachable (flipping exactly k would partition the hypercube by parity
//! for even k).

use crate::solution::Solution;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The k-opt move generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KOpt {
    /// Number of components flipped per move (clamped to the number of
    /// mutable components at application time).
    pub k: usize,
}

impl KOpt {
    /// Creates a k-opt move generator.
    ///
    /// # Panics
    /// Panics when `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        KOpt { k }
    }

    /// Draws a move: `j ∈ 1..=k` distinct components among `mutable`
    /// (indices of droppable candidates), written to `flipped` in draw
    /// order. `flipped` is cleared first, and stays empty when nothing may
    /// move; it is the caller's buffer, reused move after move, so a
    /// move allocates nothing once it has grown to `k`.
    ///
    /// The `j` positions are sampled without replacement by Floyd's
    /// algorithm in O(j) — the optimizer draws τ_max moves per slot, so
    /// an O(N) shuffle here would dominate dorms-scale planning. It makes
    /// the same draws as `rand::seq::index::sample(rng, mutable.len(), j)`.
    pub fn draw<R: Rng + ?Sized>(&self, mutable: &[usize], rng: &mut R, flipped: &mut Vec<usize>) {
        flipped.clear();
        if mutable.is_empty() {
            return;
        }
        let k = self.k.min(mutable.len());
        let j = rng.gen_range(1..=k);
        let n = mutable.len();
        // `mutable` holds distinct indices, so testing the mapped index is
        // testing the sampled position.
        for position in (n - j)..n {
            let drawn = mutable[rng.gen_range(0..=position)];
            flipped.push(if flipped.contains(&drawn) {
                mutable[position]
            } else {
                drawn
            });
        }
    }

    /// Applies a drawn move to `solution` in place. Applying the same move
    /// again undoes it.
    pub fn apply(solution: &mut Solution, flipped: &[usize]) {
        for &i in flipped {
            solution.flip(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The neighbour one drawn move reaches from `current`, and the move.
    fn neighbour(
        kopt: KOpt,
        current: &Solution,
        mutable: &[usize],
        rng: &mut ChaCha8Rng,
    ) -> (Solution, Vec<usize>) {
        let mut flipped = Vec::new();
        kopt.draw(mutable, rng, &mut flipped);
        let mut next = current.clone();
        KOpt::apply(&mut next, &flipped);
        (next, flipped)
    }

    #[test]
    fn flips_between_one_and_k_distinct_components() {
        let kopt = KOpt::new(3);
        let current = Solution::all_zeros(6);
        let mutable: Vec<usize> = (0..6).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut sizes_seen = [false; 4];
        for _ in 0..200 {
            let (next, flipped) = neighbour(kopt, &current, &mutable, &mut rng);
            assert!((1..=3).contains(&flipped.len()));
            assert_eq!(current.hamming(&next), flipped.len());
            let mut sorted = flipped.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), flipped.len(), "indices must be distinct");
            sizes_seen[flipped.len()] = true;
        }
        // Every move size 1..=3 occurs.
        assert!(sizes_seen[1] && sizes_seen[2] && sizes_seen[3]);
    }

    #[test]
    fn draws_what_index_sampling_draws() {
        // The move is `j` then Floyd's sample of `j` positions, mapped
        // through `mutable`: the stream the allocating sampler consumed.
        let kopt = KOpt::new(4);
        let mutable = vec![1, 3, 4, 7, 8, 11];
        let mut ours = ChaCha8Rng::seed_from_u64(17);
        let mut theirs = ChaCha8Rng::seed_from_u64(17);
        let mut flipped = Vec::new();
        for _ in 0..500 {
            kopt.draw(&mutable, &mut ours, &mut flipped);
            let j = theirs.gen_range(1..=4usize);
            let expected: Vec<usize> = rand::seq::index::sample(&mut theirs, mutable.len(), j)
                .into_iter()
                .map(|position| mutable[position])
                .collect();
            assert_eq!(flipped, expected);
        }
    }

    #[test]
    fn applying_a_move_twice_undoes_it() {
        let kopt = KOpt::new(3);
        let start = Solution::from_bits(vec![true, false, true, false, false]);
        let mutable: Vec<usize> = (0..5).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut flipped = Vec::new();
        let mut s = start.clone();
        for _ in 0..50 {
            kopt.draw(&mutable, &mut rng, &mut flipped);
            KOpt::apply(&mut s, &flipped);
            assert_eq!(s.hamming(&start), flipped.len());
            KOpt::apply(&mut s, &flipped);
            assert_eq!(s, start);
        }
    }

    #[test]
    fn respects_mutable_mask() {
        let kopt = KOpt::new(4);
        let current = Solution::all_ones(6);
        // Only components 2 and 5 may move (the rest are necessity rules).
        let mutable = vec![2, 5];
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..20 {
            let (next, flipped) = neighbour(kopt, &current, &mutable, &mut rng);
            assert!(flipped.iter().all(|i| mutable.contains(i)));
            for i in [0, 1, 3, 4] {
                assert!(next.get(i), "pinned component {i} moved");
            }
        }
    }

    #[test]
    fn k_clamped_to_mutable_count() {
        let kopt = KOpt::new(10);
        let current = Solution::all_zeros(3);
        let mutable = vec![0, 1, 2];
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..50 {
            let (next, flipped) = neighbour(kopt, &current, &mutable, &mut rng);
            assert!(flipped.len() <= 3);
            assert_eq!(next.count_ones(), flipped.len());
        }
    }

    #[test]
    fn no_mutable_components_is_a_noop() {
        let kopt = KOpt::new(2);
        let current = Solution::all_ones(4);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let probe = rng.clone().next_u64();
        let (next, flipped) = neighbour(kopt, &current, &[], &mut rng);
        assert_eq!(next, current);
        assert!(flipped.is_empty());
        assert_eq!(rng.next_u64(), probe, "nothing drawn");
    }

    #[test]
    fn moves_cover_the_neighbourhood() {
        // Over many draws, a 1-opt on 4 mutable components should flip each
        // component at least once.
        let kopt = KOpt::new(1);
        let current = Solution::all_zeros(4);
        let mutable: Vec<usize> = (0..4).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let (_, flipped) = neighbour(kopt, &current, &mutable, &mut rng);
            seen[flipped[0]] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        KOpt::new(0);
    }
}
