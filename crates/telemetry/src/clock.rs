//! Wall-clock measurement: the crate's one timing primitive.
//!
//! A [`Stopwatch`] times a scope; the call site observes
//! [`Stopwatch::elapsed_micros`] into a cataloged histogram (the
//! controller's `scheduler.tick_micros`, the planner's
//! `planner.slot_micros`), returns the `Duration` to its caller (the
//! Energy Planner reports per-run planning time `F_T` in its
//! `PlanReport`), or both.
//!
//! Centralizing ambient time here is deliberate: imcf-lint rule IMCF-L002
//! forbids direct `Instant::now()` / `SystemTime::now()` in `crates/sim`,
//! `crates/traces` and `crates/core`, so every wall-clock read in the
//! deterministic core flows through this crate's stopwatches and is
//! visible to the telemetry layer. Simulated time inside the planner
//! stays injected; only measurement of the planner itself touches the real
//! clock.

use std::time::{Duration, Instant};

/// A started wall-clock timer.
///
/// ```
/// use imcf_telemetry::Stopwatch;
///
/// let sw = Stopwatch::start();
/// // ... measured work ...
/// let took = sw.elapsed();
/// assert!(took >= std::time::Duration::ZERO);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Elapsed wall time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed wall time in whole microseconds (the unit the metric
    /// histograms use).
    pub fn elapsed_micros(&self) -> u64 {
        self.elapsed().as_micros() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        std::hint::black_box((0..100).sum::<u64>());
        let b = sw.elapsed();
        assert!(b >= a);
        assert!(sw.elapsed_micros() >= a.as_micros() as u64);
    }
}
