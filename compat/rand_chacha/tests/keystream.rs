//! Golden pin of the ChaCha8 keystream.
//!
//! Every checkpoint that serializes a `ChaCha8Rng`, and every dataset whose
//! traces it draws, depends on the exact words this generator emits, not
//! only on their being the same for the same seed. These cases pin the
//! first 40 words of four seeds, drawn through a fixed mix of `next_u32`
//! and `next_u64` calls in which one `next_u64` starts at word 15, the last
//! word of the first block, and another at word 31, the last of the second,
//! so each of those calls spans two blocks. A serde round trip taken at
//! word 15 must resume the same stream.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

#[derive(Clone, Copy)]
enum Draw {
    /// One `next_u32`: one word.
    U32,
    /// One `next_u64`: two words, the low one first.
    U64,
}

use Draw::{U32, U64};

/// The calls that draw the 40 pinned words.
const MIX: [Draw; 25] = [
    U32, U64, U64, U32, U64, U32, U64, U64, U32, U32, // words 0..15
    U64, U64, U32, // words 15..20
    U64, U32, U32, U64, U64, U32, U64, U64, U32, U64, U64, U64, // words 20..40
];

/// The draws of `MIX` that take words `0..15`.
const BEFORE_WORD_15: usize = 10;

fn words(draw: Draw) -> usize {
    match draw {
        U32 => 1,
        U64 => 2,
    }
}

/// The words `mix` draws from `rng`, each `next_u64` split low word first.
fn draw(rng: &mut ChaCha8Rng, mix: &[Draw]) -> Vec<u32> {
    let mut out = Vec::new();
    for &d in mix {
        match d {
            U32 => out.push(rng.next_u32()),
            U64 => {
                let v = rng.next_u64();
                out.extend([v as u32, (v >> 32) as u32]);
            }
        }
    }
    out
}

const SEEDS: [u64; 4] = [0, 1, 7, u64::MAX];

#[rustfmt::skip]
const GOLDEN: [[u32; 40]; 4] = [
    [
        0x2d8ee5e8, 0xbf94d133, 0xa6da5a01, 0x3a738775, 0xc143ee06, 0x3d46ff10, 0xe9f6424f, 0x17c6ab23,
        0x2fb6898b, 0x5ce2479b, 0x86bff662, 0x0ae8099f, 0xc72f90bd, 0x5f2f09fd, 0x28e5a01f, 0x95d53efa,
        0x94efaf48, 0x1131e62b, 0x17d7a4e4, 0x9eec7e55, 0xcd4c18d1, 0xe553e127, 0x3505e613, 0xb9d551f1,
        0xd28d82a2, 0x0a1ffcc2, 0xf64a441d, 0xfc9216ba, 0x4b017931, 0xb3c61fd5, 0x23eb502b, 0xe857b19d,
        0x1bfcd6d6, 0x5a512cb9, 0x44766985, 0x029e3799, 0x3c8b61fe, 0xca6410bd, 0xbfdc08ce, 0xa2c1439d,
    ],
    [
        0x48a8b558, 0xef72eaf4, 0x599a55b3, 0x8a33ba97, 0xe248f1ee, 0x0c40074e, 0x5b660e10, 0xdbb16098,
        0x22a8ce78, 0x72858f91, 0x6ec9d0a6, 0x1a915dfc, 0xb6823c71, 0xf28532b6, 0xc2831367, 0x42bd7361,
        0x5a625dcb, 0x7f116bb1, 0xa2be493e, 0x5ba35ac4, 0xcd12893d, 0x523a2de0, 0x3e6f9097, 0x8089abf0,
        0xb4ff0ba3, 0x54ea731b, 0xfb3bd3ae, 0x8c4fb67a, 0xdbb02d18, 0x8c65dc52, 0xb7d8eaea, 0xffa639a3,
        0x775614fb, 0xad4ed273, 0x538b0497, 0x44631cf0, 0x3b929907, 0x8839aafc, 0x2fda71a1, 0xd8b5a1a6,
    ],
    [
        0x50825212, 0x6686d7a0, 0x9db41d41, 0xc63a5f92, 0xe54acaef, 0x81e77dd0, 0x2451b109, 0x112b2c0d,
        0x4fdc0bfc, 0x88c087ca, 0xc12642c0, 0x3e15afb0, 0x351f857a, 0xa752b476, 0x72ae3ab2, 0xbdb51629,
        0x5330b601, 0x48742709, 0x1c891403, 0x7ea52bd1, 0xf9f007b6, 0x23fed27a, 0x0f26f865, 0x1d70a621,
        0x559b7d6b, 0xa798974c, 0x39097ade, 0xe9beef81, 0xda107685, 0x77d9767e, 0x993b6e50, 0x848d006f,
        0x6200700e, 0x18b0a164, 0xd441d01e, 0x2a568f1a, 0x5abe029a, 0x6dd68f26, 0xed8952f6, 0x2f654643,
    ],
    [
        0x60ef8644, 0x167fca9c, 0xf2f83696, 0xf792fa24, 0xdbcbe0b1, 0x71e8f282, 0x9492a6e7, 0xebaa0dca,
        0xff25b8bb, 0x438b9759, 0x5dd8c0cf, 0x3d92cea8, 0x2f5b3043, 0xe533584b, 0xe79afbc9, 0x62a4544f,
        0x3c8465a9, 0x3691a39c, 0x8277c5fc, 0x0b89def3, 0xe9acb0a3, 0x61938162, 0xe7495616, 0x874658cb,
        0x133857ef, 0xc6735925, 0x76eb6256, 0x74fbf0a0, 0x8fcdd7f3, 0x626f49c1, 0xe21e2c38, 0x8324ecf5,
        0x1a6419fe, 0x4183f3b7, 0x632d4591, 0xbcecc670, 0xcdcb6c3e, 0xeccfbd68, 0x9ac553a6, 0x2da4bf48,
    ],
];

#[test]
fn the_mix_spans_each_block_boundary_with_one_next_u64() {
    let mut at = 0;
    let mut spanning = Vec::new();
    for &d in &MIX {
        if words(d) == 2 && (at + 1) % 16 == 0 {
            spanning.push(at);
        }
        at += words(d);
    }
    assert_eq!(at, 40);
    assert_eq!(spanning, [15, 31]);
    let prefix: usize = MIX[..BEFORE_WORD_15].iter().map(|&d| words(d)).sum();
    assert_eq!(prefix, 15);
}

#[test]
fn keystream_words_are_pinned() {
    for (seed, golden) in SEEDS.into_iter().zip(&GOLDEN) {
        let got = draw(&mut ChaCha8Rng::seed_from_u64(seed), &MIX);
        assert_eq!(got, golden, "seed {seed}");
    }
}

#[test]
fn a_serde_round_trip_at_word_15_resumes_the_stream() {
    for (seed, golden) in SEEDS.into_iter().zip(&GOLDEN) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let head = draw(&mut rng, &MIX[..BEFORE_WORD_15]);
        assert_eq!(head, golden[..15], "seed {seed}");

        let value = rng.to_value();
        let fields: Vec<&str> = value
            .as_object()
            .expect("a ChaCha8Rng serializes as an object")
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(fields, ["state", "block", "word"], "seed {seed}");
        let block: [u32; 16] = golden[..16].try_into().unwrap();
        assert_eq!(value.get("block"), Some(&block.to_value()), "seed {seed}");
        assert_eq!(value.get("word"), Some(&15usize.to_value()), "seed {seed}");

        let mut restored = ChaCha8Rng::from_value(&value).unwrap();
        assert_eq!(restored, rng, "seed {seed}");
        let tail = draw(&mut restored, &MIX[BEFORE_WORD_15..]);
        assert_eq!(tail, golden[15..], "seed {seed}");
    }
}
