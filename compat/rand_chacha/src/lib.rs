//! In-tree stand-in for `rand_chacha`: a genuine ChaCha8 keystream RNG.
//!
//! The block function is the standard ChaCha quarter-round network with 8
//! rounds; `seed_from_u64` expands the seed with SplitMix64 into the key
//! words. Streams are deterministic per seed but are not bit-identical to
//! the upstream crate (nothing in this workspace depends on the exact
//! upstream stream, only on per-seed determinism).

use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

const CHACHA_ROUNDS: usize = 8;

/// A ChaCha8 random number generator.
///
/// The full generator state (input block, current output block, word
/// cursor) serializes with serde, so a checkpointed RNG resumes its
/// stream exactly where the original left off — the property the
/// controller's crash-recovery layer depends on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaCha8Rng {
    /// Input block: constants, key, counter, nonce.
    state: [u32; 16],
    /// Current output block.
    block: [u32; 16],
    /// Next word to emit from `block`; 16 means "refill".
    word: usize,
}

#[inline(always)]
fn quarter_round(mut a: u32, mut b: u32, mut c: u32, mut d: u32) -> (u32, u32, u32, u32) {
    a = a.wrapping_add(b);
    d = (d ^ a).rotate_left(16);
    c = c.wrapping_add(d);
    b = (b ^ c).rotate_left(12);
    a = a.wrapping_add(b);
    d = (d ^ a).rotate_left(8);
    c = c.wrapping_add(d);
    b = (b ^ c).rotate_left(7);
    (a, b, c, d)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl ChaCha8Rng {
    /// Computes the block at the current counter and advances it. The
    /// rounds run on sixteen local words, which the compiler can keep in
    /// registers: `self` is read once for the input and written once for
    /// the output.
    fn refill(&mut self) {
        let s = self.state;
        let (mut x0, mut x1, mut x2, mut x3) = (s[0], s[1], s[2], s[3]);
        let (mut x4, mut x5, mut x6, mut x7) = (s[4], s[5], s[6], s[7]);
        let (mut x8, mut x9, mut x10, mut x11) = (s[8], s[9], s[10], s[11]);
        let (mut x12, mut x13, mut x14, mut x15) = (s[12], s[13], s[14], s[15]);
        for _ in 0..CHACHA_ROUNDS / 2 {
            // Column round.
            (x0, x4, x8, x12) = quarter_round(x0, x4, x8, x12);
            (x1, x5, x9, x13) = quarter_round(x1, x5, x9, x13);
            (x2, x6, x10, x14) = quarter_round(x2, x6, x10, x14);
            (x3, x7, x11, x15) = quarter_round(x3, x7, x11, x15);
            // Diagonal round.
            (x0, x5, x10, x15) = quarter_round(x0, x5, x10, x15);
            (x1, x6, x11, x12) = quarter_round(x1, x6, x11, x12);
            (x2, x7, x8, x13) = quarter_round(x2, x7, x8, x13);
            (x3, x4, x9, x14) = quarter_round(x3, x4, x9, x14);
        }
        let working = [
            x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15,
        ];
        for ((out, w), inp) in self.block.iter_mut().zip(working).zip(s) {
            *out = w.wrapping_add(inp);
        }
        self.word = 0;
        // 64-bit block counter in words 12/13.
        let (lo, carry) = self.state[12].overflowing_add(1);
        self.state[12] = lo;
        if carry {
            self.state[13] = self.state[13].wrapping_add(1);
        }
    }
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut state = [0u32; 16];
        // "expand 32-byte k" constants.
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646E;
        state[2] = 0x7962_2D32;
        state[3] = 0x6B20_6574;
        for i in 0..4 {
            let w = splitmix64(&mut sm);
            state[4 + 2 * i] = w as u32;
            state[5 + 2 * i] = (w >> 32) as u32;
        }
        // Counter and nonce start at zero.
        ChaCha8Rng {
            state,
            block: [0; 16],
            word: 16,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.word >= 16 {
            self.refill();
        }
        let w = self.block[self.word];
        self.word += 1;
        w
    }

    fn next_u64(&mut self) -> u64 {
        if self.word >= 16 {
            self.refill();
        }
        // Both words in this block: read them at once. At word 15 the low
        // word ends this block and the high word starts the next.
        let (lo, hi) = if self.word < 15 {
            let pair = (self.block[self.word], self.block[self.word + 1]);
            self.word += 2;
            pair
        } else {
            (self.next_u32(), self.next_u32())
        };
        (u64::from(hi) << 32) | u64::from(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        let mut c = ChaCha8Rng::seed_from_u64(8);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn clone_resumes_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..5 {
            a.next_u32();
        }
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn serde_round_trip_resumes_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..7 {
            a.next_u32();
        }
        let value = serde::Serialize::to_value(&a);
        let mut b = <ChaCha8Rng as serde::Deserialize>::from_value(&value).unwrap();
        assert_eq!(a, b);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys, "restored RNG must continue the same stream");
    }

    #[test]
    fn rough_uniformity() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut ones = 0u32;
        for _ in 0..1000 {
            ones += rng.next_u64().count_ones();
        }
        // 64k bits, expect ~32k set; allow wide slack.
        assert!((30_000..34_000).contains(&ones), "bit bias: {ones}");
    }
}
