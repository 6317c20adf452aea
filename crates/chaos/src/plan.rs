//! The seeded fault schedule.
//!
//! A [`FaultPlan`] is configuration plus a seed; the concrete faults are
//! *derived*, never stored. Each query (`command_fault`, `store_fault`,
//! `torn_tail_bytes`) seeds its own ChaCha8 stream from
//! `seed ⊕ splitmix64(domain ⊕ coordinates)`, so:
//!
//! * the same `(plan, coordinates)` always yields the same fault — across
//!   processes, worker counts and query orders;
//! * distinct coordinates draw from statistically independent streams;
//! * serializing and deserializing the plan preserves every future
//!   decision exactly (the struct is plain data).

use imcf_store::WalOp;
use imcf_telemetry::trace::splitmix64;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fault injected on one device command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommandFault {
    /// The command is silently lost in flight.
    Drop,
    /// The command is lost now but would succeed once the link recovers
    /// `ticks` ticks later (the retry path models the redelivery).
    Delay {
        /// Ticks until the link recovers.
        ticks: u64,
    },
    /// The actuator wedges: this and every further command to the device
    /// is ignored for `ticks` ticks.
    Stuck {
        /// Ticks the actuator stays wedged.
        ticks: u64,
    },
}

impl CommandFault {
    /// Stable kind name, used as the `kind` telemetry label.
    pub fn kind(&self) -> &'static str {
        match self {
            CommandFault::Drop => "cmd_drop",
            CommandFault::Delay { .. } => "cmd_delay",
            CommandFault::Stuck { .. } => "cmd_stuck",
        }
    }
}

/// A fault injected on one store operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoreFault {
    /// The WAL write fails with an I/O error.
    WriteError,
    /// The fsync fails with an I/O error.
    SyncError,
    /// The segment seal fails with an I/O error.
    SealError,
    /// Compaction fails before writing the snapshot.
    CompactError,
    /// The log truncation fails with an I/O error.
    TruncateError,
}

impl StoreFault {
    /// Stable kind name, used as the `kind` telemetry label.
    pub fn kind(&self) -> &'static str {
        match self {
            StoreFault::WriteError => "wal_write",
            StoreFault::SyncError => "wal_sync",
            StoreFault::SealError => "wal_seal",
            StoreFault::CompactError => "wal_compact",
            StoreFault::TruncateError => "wal_truncate",
        }
    }
}

/// Domain salts keep the decision streams of unrelated fault families
/// statistically independent even at identical coordinates.
const DOMAIN_COMMAND: u64 = 0x00C0_FFEE_0001;
const DOMAIN_STORE: u64 = 0x00C0_FFEE_0002;
const DOMAIN_TORN: u64 = 0x00C0_FFEE_0003;

/// Upper bound on [`CommandFault::Delay`] recovery, ticks.
const DELAY_MAX_TICKS: u64 = 2;
/// How long a [`CommandFault::Stuck`] actuator stays wedged, ticks.
const STUCK_TICKS: u64 = 3;

/// A deterministic, seeded fault schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The run seed all decision streams derive from.
    pub seed: u64,
    /// Probability that any one device command draws a fault.
    pub command_rate: f64,
    /// Probability that any one WAL operation (append, fsync, seal,
    /// compaction, truncation) fails; a store reopen finds a torn tail at
    /// a quarter of it.
    pub store_rate: f64,
}

impl FaultPlan {
    /// A plan that never injects anything (all rates zero).
    pub fn disabled(seed: u64) -> Self {
        FaultPlan {
            seed,
            command_rate: 0.0,
            store_rate: 0.0,
        }
    }

    /// A plan injecting command faults at `rate` (a delay lasts at most 2
    /// ticks, a wedged actuator 3).
    pub fn commands(seed: u64, rate: f64) -> Self {
        FaultPlan {
            command_rate: rate.clamp(0.0, 1.0),
            ..Self::disabled(seed)
        }
    }

    /// Adds store faults (every WAL operation at `rate`, torn tail at
    /// `rate/4`).
    pub fn with_store_faults(mut self, rate: f64) -> Self {
        self.store_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// True when no fault family has a positive rate.
    pub fn is_disabled(&self) -> bool {
        self.command_rate <= 0.0 && self.store_rate <= 0.0
    }

    /// The ChaCha8 stream for one decision coordinate.
    fn stream(&self, domain: u64, a: u64, b: u64) -> ChaCha8Rng {
        // Mix the coordinates through splitmix64 so adjacent ticks /
        // similar keys land in unrelated streams, then fold in the run
        // seed — the same derivation shape as `imcf_pool::derive_seed`.
        let mixed = splitmix64(domain ^ splitmix64(a) ^ splitmix64(b.wrapping_add(0x9E37)));
        ChaCha8Rng::seed_from_u64(self.seed ^ mixed)
    }

    /// The fault (if any) hitting a command sent to `target` at `tick`.
    ///
    /// `target` is any stable device key — the controller uses the thing's
    /// host address. Pure in `(self, tick, target)`.
    pub fn command_fault(&self, tick: u64, target: &str) -> Option<CommandFault> {
        if self.command_rate <= 0.0 {
            return None;
        }
        let mut rng = self.stream(DOMAIN_COMMAND, tick, fnv1a(target));
        if !rng.gen_bool(self.command_rate.clamp(0.0, 1.0)) {
            return None;
        }
        // Split the fault mass: half drops, a quarter delays, a quarter
        // wedges the actuator.
        let kind = rng.gen_range(0..4u32);
        Some(match kind {
            0 | 1 => CommandFault::Drop,
            2 => CommandFault::Delay {
                ticks: rng.gen_range(1..=DELAY_MAX_TICKS),
            },
            _ => CommandFault::Stuck { ticks: STUCK_TICKS },
        })
    }

    /// The effective failure reason for a command to `target` at `tick`,
    /// including *stuck windows*: a [`CommandFault::Stuck`] drawn at an
    /// earlier tick wedges the actuator for its whole duration, failing
    /// every command in the window. Pure in `(self, tick, target)` — the
    /// scan looks back at most as many draws as a wedge lasts.
    pub fn fault_reason(&self, tick: u64, target: &str) -> Option<&'static str> {
        for back in 1..=STUCK_TICKS {
            if back > tick {
                break;
            }
            if let Some(CommandFault::Stuck { ticks }) = self.command_fault(tick - back, target) {
                if back < ticks {
                    return Some("cmd_stuck");
                }
            }
        }
        self.command_fault(tick, target).map(|f| f.kind())
    }

    /// The fault (if any) hitting the `op_index`-th WAL operation of a
    /// log. Pure in `(self, op, op_index)`; each operation kind draws from
    /// its own salted stream.
    pub fn store_fault(&self, op: WalOp, op_index: u64) -> Option<StoreFault> {
        if self.store_rate <= 0.0 {
            return None;
        }
        let (fault, salt) = match op {
            WalOp::Append => (StoreFault::WriteError, 0),
            WalOp::Sync => (StoreFault::SyncError, 1),
            WalOp::Seal => (StoreFault::SealError, 2),
            WalOp::Compact => (StoreFault::CompactError, 3),
            WalOp::Truncate => (StoreFault::TruncateError, 4),
        };
        let mut rng = self.stream(DOMAIN_STORE, op_index, salt);
        rng.gen_bool(self.store_rate.clamp(0.0, 1.0))
            .then_some(fault)
    }

    /// The WAL fault hook that injects this plan's store faults into one
    /// log (install it with `Log::set_wal_fault_hook` or a table's): the
    /// hook numbers the operations it is consulted about and fails the
    /// `i`-th when [`store_fault`](Self::store_fault) draws a fault for
    /// it, counting each injection under `chaos.faults_injected`.
    pub fn wal_fault_hook(&self) -> impl Fn(WalOp) -> Option<io::Error> + Send + Sync + 'static {
        let plan = self.clone();
        let op_index = AtomicU64::new(0);
        move |op| {
            let i = op_index.fetch_add(1, Ordering::SeqCst);
            plan.store_fault(op, i).map(|fault| {
                crate::record_injection(fault.kind());
                io::Error::other(fault.kind())
            })
        }
    }

    /// Bytes to chop off the WAL tail at the `reopen_index`-th reopen (the
    /// crash-mid-write simulation), or `None` for a clean reopen. A reopen
    /// tears at a quarter of the store-fault rate.
    pub fn torn_tail_bytes(&self, reopen_index: u64) -> Option<u64> {
        if self.store_rate <= 0.0 {
            return None;
        }
        let mut rng = self.stream(DOMAIN_TORN, reopen_index, 0);
        rng.gen_bool((self.store_rate / 4.0).clamp(0.0, 1.0))
            .then(|| rng.gen_range(1..=6u64))
    }
}

/// FNV-1a over a device key, folding strings into decision coordinates.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const WAL_OPS: [WalOp; 5] = [
        WalOp::Append,
        WalOp::Sync,
        WalOp::Seal,
        WalOp::Compact,
        WalOp::Truncate,
    ];

    fn plan(rate: f64) -> FaultPlan {
        FaultPlan::commands(7, rate).with_store_faults(rate)
    }

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let p = plan(0.3);
        // Query twice in different orders; answers must match.
        let forward: Vec<_> = (0..200)
            .map(|t| p.command_fault(t, "192.168.0.2"))
            .collect();
        let backward: Vec<_> = (0..200)
            .rev()
            .map(|t| p.command_fault(t, "192.168.0.2"))
            .collect();
        let rev: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, rev);
        // And a cloned plan agrees everywhere.
        let q = p.clone();
        for t in 0..200 {
            assert_eq!(
                p.command_fault(t, "host-a"),
                q.command_fault(t, "host-a"),
                "tick {t}"
            );
        }
    }

    #[test]
    fn rate_is_roughly_honoured() {
        let p = plan(0.25);
        let n = (0..4000)
            .filter(|t| p.command_fault(*t, "h").is_some())
            .count();
        // Expect ≈1000; allow a wide band.
        assert!((700..=1300).contains(&n), "injected {n}/4000");
    }

    #[test]
    fn zero_rates_never_inject() {
        let p = FaultPlan::disabled(3);
        assert!(p.is_disabled());
        for t in 0..500 {
            assert_eq!(p.command_fault(t, "x"), None);
            for op in WAL_OPS {
                assert_eq!(p.store_fault(op, t), None);
            }
            assert_eq!(p.torn_tail_bytes(t), None);
        }
    }

    #[test]
    fn targets_draw_independent_streams() {
        let p = plan(0.5);
        let a: Vec<_> = (0..64).map(|t| p.command_fault(t, "a").is_some()).collect();
        let b: Vec<_> = (0..64).map(|t| p.command_fault(t, "b").is_some()).collect();
        assert_ne!(a, b, "distinct targets should not share a fault stream");
    }

    #[test]
    fn serde_round_trip_preserves_decisions() {
        let p = plan(0.4);
        let json = serde_json::to_string(&p).unwrap();
        let q: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(p, q);
        for t in 0..100 {
            assert_eq!(p.command_fault(t, "h"), q.command_fault(t, "h"));
            assert_eq!(p.torn_tail_bytes(t), q.torn_tail_bytes(t));
        }
    }

    #[test]
    fn fault_shapes_are_bounded() {
        let p = FaultPlan::commands(11, 1.0);
        let mut saw = [false; 3];
        for t in 0..200 {
            match p.command_fault(t, "h") {
                Some(CommandFault::Drop) => saw[0] = true,
                Some(CommandFault::Delay { ticks }) => {
                    assert!((1..=2).contains(&ticks));
                    saw[1] = true;
                }
                Some(CommandFault::Stuck { ticks }) => {
                    assert_eq!(ticks, 3);
                    saw[2] = true;
                }
                None => panic!("rate 1.0 must always fault"),
            }
        }
        assert!(saw.iter().all(|s| *s), "all fault kinds drawn: {saw:?}");
    }

    #[test]
    fn store_and_torn_faults_fire_at_full_rate() {
        let p = FaultPlan::disabled(0).with_store_faults(1.0);
        let faults = WAL_OPS.map(|op| p.store_fault(op, 0));
        assert_eq!(
            faults,
            [
                StoreFault::WriteError,
                StoreFault::SyncError,
                StoreFault::SealError,
                StoreFault::CompactError,
                StoreFault::TruncateError,
            ]
            .map(Some)
        );
        let n = (0..400).filter(|i| p.torn_tail_bytes(*i).is_some()).count();
        assert!((50..=150).contains(&n), "torn on {n}/400 reopens");
        for i in 0..400 {
            if let Some(bytes) = p.torn_tail_bytes(i) {
                assert!((1..=6).contains(&bytes));
            }
        }
    }

    #[test]
    fn the_wal_hook_fails_exactly_the_operations_store_fault_draws() {
        let p = FaultPlan::disabled(5).with_store_faults(0.4);
        let hook = p.wal_fault_hook();
        for i in 0..200u64 {
            let op = WAL_OPS[(i % 5) as usize];
            let expected = p.store_fault(op, i).map(|fault| fault.kind().to_string());
            assert_eq!(hook(op).map(|e| e.to_string()), expected, "op {i}");
        }
        let quiet = FaultPlan::commands(5, 1.0).wal_fault_hook();
        assert!(WAL_OPS.into_iter().all(|op| quiet(op).is_none()));
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(CommandFault::Drop.kind(), "cmd_drop");
        assert_eq!(CommandFault::Delay { ticks: 1 }.kind(), "cmd_delay");
        assert_eq!(CommandFault::Stuck { ticks: 1 }.kind(), "cmd_stuck");
        assert_eq!(StoreFault::WriteError.kind(), "wal_write");
        assert_eq!(StoreFault::SyncError.kind(), "wal_sync");
        assert_eq!(StoreFault::SealError.kind(), "wal_seal");
        assert_eq!(StoreFault::CompactError.kind(), "wal_compact");
        assert_eq!(StoreFault::TruncateError.kind(), "wal_truncate");
    }
}
