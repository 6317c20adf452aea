//! Per-device circuit breaker: closed → open → half-open.
//!
//! The breaker sees every actuation outcome for its device. Consecutive
//! failures trip it **open** (the device is quarantined; the planner
//! drops its candidates). After a cooldown measured in ticks the breaker
//! turns **half-open** and admits exactly one probe command: success
//! closes it, failure re-opens it with a fresh cooldown.
//!
//! All clocks are scheduler ticks — there is no wall-clock state, so the
//! machine is deterministic and serializable mid-flight.

use imcf_telemetry::{Counter, Gauge};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Breaker tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Ticks the breaker stays open before probing (half-open).
    pub cooldown_ticks: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_ticks: 4,
        }
    }
}

/// The breaker state machine's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Traffic flows; failures are being counted.
    Closed,
    /// Device quarantined until the cooldown elapses.
    Open,
    /// One probe command is admitted to test recovery.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name for exposition.
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// One device's circuit breaker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    /// Tick at which an open breaker may go half-open.
    reopen_at: u64,
    /// Lifetime open transitions.
    times_opened: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            reopen_at: 0,
            times_opened: 0,
        }
    }

    /// Current position, advancing open → half-open if the cooldown has
    /// elapsed by `tick`.
    pub fn state_at(&mut self, tick: u64) -> BreakerState {
        if self.state == BreakerState::Open && tick >= self.reopen_at {
            self.state = BreakerState::HalfOpen;
        }
        self.state
    }

    /// True when a command may be sent at `tick` (closed, or the one
    /// half-open probe).
    pub fn allows(&mut self, tick: u64) -> bool {
        self.state_at(tick) != BreakerState::Open
    }

    /// Records a successful actuation.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
    }

    /// Records a failed actuation at `tick`. Returns `true` when this
    /// failure *transitioned* the breaker to open (for telemetry — each
    /// open is counted once).
    pub fn record_failure(&mut self, tick: u64) -> bool {
        match self.state_at(tick) {
            BreakerState::HalfOpen => {
                // Failed probe: straight back to open.
                self.open_at(tick);
                true
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.open_at(tick);
                    true
                } else {
                    false
                }
            }
            BreakerState::Open => false,
        }
    }

    fn open_at(&mut self, tick: u64) {
        self.state = BreakerState::Open;
        self.consecutive_failures = 0;
        self.reopen_at = tick + self.config.cooldown_ticks.max(1);
        self.times_opened += 1;
        static OPENS: OnceLock<Counter> = OnceLock::new();
        OPENS
            .get_or_init(|| imcf_telemetry::global().counter("breaker.open"))
            .inc();
        if imcf_telemetry::trace::active() {
            imcf_telemetry::trace::point(
                "breaker.open",
                &[
                    ("tick", &tick.to_string()),
                    ("reopen_at", &self.reopen_at.to_string()),
                ],
            );
        }
        // A device entering quarantine is an anomaly worth a flight dump.
        imcf_telemetry::trace::recorder().trigger("breaker_open");
    }

    /// Lifetime count of closed/half-open → open transitions.
    pub fn times_opened(&self) -> u64 {
        self.times_opened
    }
}

/// Point-in-time view of one breaker, for the REST surface.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerSnapshot {
    /// Thing UID the breaker guards.
    pub thing: String,
    /// Position at snapshot time.
    pub state: BreakerState,
    /// Failures counted toward the next trip.
    pub consecutive_failures: u32,
    /// Lifetime open transitions.
    pub times_opened: u64,
}

/// All breakers for one controller, keyed by thing UID.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerBank {
    config: BreakerConfig,
    breakers: BTreeMap<String, CircuitBreaker>,
}

impl BreakerBank {
    /// An empty bank creating breakers with `config`.
    pub fn new(config: BreakerConfig) -> Self {
        BreakerBank {
            config,
            breakers: BTreeMap::new(),
        }
    }

    /// Runs `f` on the breaker for `thing`, created closed on first sight.
    /// The key is allocated only then: a known device costs one lookup.
    fn with_breaker<T>(&mut self, thing: &str, f: impl FnOnce(&mut CircuitBreaker) -> T) -> T {
        if let Some(breaker) = self.breakers.get_mut(thing) {
            return f(breaker);
        }
        let mut breaker = CircuitBreaker::new(self.config);
        let out = f(&mut breaker);
        self.breakers.insert(thing.to_string(), breaker);
        out
    }

    /// True when `thing` may receive a command at `tick`.
    pub fn allows(&mut self, thing: &str, tick: u64) -> bool {
        self.with_breaker(thing, |b| b.allows(tick))
    }

    /// Records a successful actuation of `thing`.
    pub fn record_success(&mut self, thing: &str) {
        self.with_breaker(thing, CircuitBreaker::record_success);
    }

    /// Records a failed actuation of `thing` at `tick`; `true` when it
    /// tripped the breaker open (see [`CircuitBreaker::record_failure`]).
    pub fn record_failure(&mut self, thing: &str, tick: u64) -> bool {
        self.with_breaker(thing, |b| b.record_failure(tick))
    }

    /// Number of breakers currently open at `tick` (also pushed to the
    /// `breaker.open_now` gauge).
    pub fn open_now(&mut self, tick: u64) -> usize {
        static OPEN_NOW: OnceLock<Gauge> = OnceLock::new();
        let open = self
            .breakers
            .values_mut()
            .map(|b| b.state_at(tick))
            .filter(|s| *s == BreakerState::Open)
            .count();
        OPEN_NOW
            .get_or_init(|| imcf_telemetry::global().gauge("breaker.open_now"))
            .set(open as f64);
        open
    }

    /// Snapshots of every breaker, ordered by thing UID.
    pub fn snapshots(&mut self, tick: u64) -> Vec<BreakerSnapshot> {
        let mut out = Vec::with_capacity(self.breakers.len());
        for (thing, b) in self.breakers.iter_mut() {
            let state = b.state_at(tick);
            out.push(BreakerSnapshot {
                thing: thing.clone(),
                state,
                consecutive_failures: b.consecutive_failures,
                times_opened: b.times_opened,
            });
        }
        out
    }

    /// Aggregate counters without allocation: lifetime open transitions
    /// summed over every breaker, plus how many are open at `tick` — the
    /// per-tick sampling counterpart of [`BreakerBank::snapshots`].
    pub fn totals(&mut self, tick: u64) -> (u64, u64) {
        let mut opens = 0u64;
        let mut open_now = 0u64;
        for b in self.breakers.values_mut() {
            if b.state_at(tick) == BreakerState::Open {
                open_now += 1;
            }
            opens += b.times_opened();
        }
        (opens, open_now)
    }

    /// Number of devices with a breaker.
    pub fn len(&self) -> usize {
        self.breakers.len()
    }

    /// True when no device has failed (or succeeded) yet.
    pub fn is_empty(&self) -> bool {
        self.breakers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_ticks: 4,
        });
        assert!(!b.record_failure(0));
        assert!(!b.record_failure(1));
        assert_eq!(b.state_at(1), BreakerState::Closed);
        assert!(b.record_failure(2), "third consecutive failure trips");
        assert_eq!(b.state_at(2), BreakerState::Open);
        assert!(!b.allows(3));
        assert_eq!(b.times_opened(), 1);
    }

    #[test]
    fn success_resets_the_failure_run() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        b.record_failure(0);
        b.record_failure(1);
        b.record_success();
        assert!(!b.record_failure(2), "run restarted after success");
        assert_eq!(b.state_at(2), BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_closes_on_success() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_ticks: 4,
        });
        assert!(b.record_failure(10));
        assert!(!b.allows(13), "still cooling down");
        assert!(b.allows(14), "cooldown elapsed: half-open probe admitted");
        assert_eq!(b.state_at(14), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state_at(14), BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_ticks: 4,
        });
        assert!(b.record_failure(0));
        assert!(b.allows(4));
        assert!(b.record_failure(4), "failed probe re-opens");
        assert_eq!(b.state_at(4), BreakerState::Open);
        assert!(!b.allows(7));
        assert!(b.allows(8));
        assert_eq!(b.times_opened(), 2);
    }

    #[test]
    fn bank_tracks_devices_independently() {
        let mut bank = BreakerBank::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_ticks: 3,
        });
        bank.record_failure("imcf:hvac:kitchen", 0);
        bank.record_failure("imcf:hvac:kitchen", 1);
        bank.record_failure("imcf:light:porch", 1);
        assert!(!bank.allows("imcf:hvac:kitchen", 2));
        assert!(bank.allows("imcf:light:porch", 2));
        assert_eq!(bank.open_now(2), 1);
        let snaps = bank.snapshots(2);
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].thing, "imcf:hvac:kitchen");
        assert_eq!(snaps[0].state, BreakerState::Open);
        assert_eq!(snaps[1].state, BreakerState::Closed);
    }

    #[test]
    fn snapshots_round_trip_through_serde() {
        let mut bank = BreakerBank::new(BreakerConfig::default());
        bank.record_failure("imcf:hvac:hall", 0);
        let snaps = bank.snapshots(1);
        let json = serde_json::to_string(&snaps).unwrap();
        let back: Vec<BreakerSnapshot> = serde_json::from_str(&json).unwrap();
        assert_eq!(snaps, back);
    }
}
