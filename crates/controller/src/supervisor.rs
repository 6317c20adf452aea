//! The tick watchdog: stuck-tick detection for the supervision surface.
//!
//! A deterministic controller tick should complete in microseconds; a
//! tick that holds its watchdog guard past the timeout is wedged (a stuck
//! device binding, a livelocked lock, an fsync that never returns). The
//! watchdog runs one background thread per instance, observes arm/disarm
//! transitions through a condvar, and on expiry:
//!
//! * increments the `controller.watchdog_trips` counter (the supervision
//!   plane's alert signal), and
//! * asks the flight recorder for an anomaly dump
//!   (`watchdog_stuck_tick`), so the causal trace of the wedged tick
//!   survives for post-mortem.
//!
//! The watchdog never kills the tick — detection is its job; the process
//! supervisor (or the crash soak's parent) owns the kill decision.

use imcf_telemetry::Stopwatch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Poison-tolerant lock (a panicking tick must not wedge the watchdog).
fn lock(m: &Mutex<WatchdogState>) -> MutexGuard<'_, WatchdogState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct WatchdogState {
    /// The armed tick and when it armed, `None` between ticks.
    armed: Option<(u64, Stopwatch)>,
    /// The armed tick already tripped (one trip per tick).
    tripped: bool,
    shutdown: bool,
}

struct WatchdogShared {
    state: Mutex<WatchdogState>,
    changed: Condvar,
    timeout: Duration,
    trips: AtomicU64,
}

/// A running tick watchdog. Arm it for the duration of each tick with
/// [`guard`](TickWatchdog::guard); dropping the watchdog stops the
/// background thread.
pub struct TickWatchdog {
    shared: Arc<WatchdogShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Arms the watchdog while alive; disarms on drop.
pub struct WatchdogGuard<'a> {
    shared: &'a WatchdogShared,
}

impl Drop for WatchdogGuard<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        state.armed = None;
        state.tripped = false;
        self.shared.changed.notify_all();
    }
}

impl TickWatchdog {
    /// Starts the watchdog thread with the given stuck-tick timeout.
    pub fn start(timeout: Duration) -> TickWatchdog {
        let shared = Arc::new(WatchdogShared {
            state: Mutex::new(WatchdogState {
                armed: None,
                tripped: false,
                shutdown: false,
            }),
            changed: Condvar::new(),
            timeout,
            trips: AtomicU64::new(0),
        });
        let observer = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("imcf-watchdog".into())
            .spawn(move || watch(&observer))
            .ok();
        TickWatchdog { shared, thread }
    }

    /// Arms the watchdog for tick `tick`. Hold the guard for the tick's
    /// duration; if it lives past the timeout, the watchdog trips once.
    pub fn guard(&self, tick: u64) -> WatchdogGuard<'_> {
        let mut state = lock(&self.shared.state);
        state.armed = Some((tick, Stopwatch::start()));
        state.tripped = false;
        self.shared.changed.notify_all();
        WatchdogGuard {
            shared: &self.shared,
        }
    }

    /// Trips observed since start.
    pub fn trips(&self) -> u64 {
        self.shared.trips.load(Ordering::SeqCst)
    }
}

impl Drop for TickWatchdog {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
            self.shared.changed.notify_all();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn watch(shared: &WatchdogShared) {
    let mut state = lock(&shared.state);
    loop {
        if state.shutdown {
            return;
        }
        match state.armed {
            Some((tick, since)) if !state.tripped => {
                let elapsed = since.elapsed();
                if elapsed >= shared.timeout {
                    state.tripped = true;
                    shared.trips.fetch_add(1, Ordering::SeqCst);
                    imcf_telemetry::global()
                        .counter("controller.watchdog_trips")
                        .inc();
                    // The wedged tick's causal record, while it is still
                    // wedged — the dump names the tick via the trace tree.
                    imcf_telemetry::trace::recorder().trigger("watchdog_stuck_tick");
                    let _ = tick;
                } else {
                    let (next, _) = shared
                        .changed
                        .wait_timeout(state, shared.timeout - elapsed)
                        .unwrap_or_else(|e| e.into_inner());
                    state = next;
                }
            }
            // Disarmed (or already tripped): sleep until the next arm /
            // disarm / shutdown transition.
            _ => {
                state = shared
                    .changed
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn stuck_tick_trips_once_and_healthy_ticks_do_not() {
        let watchdog = TickWatchdog::start(Duration::from_millis(20));
        // Healthy ticks: guard dropped well inside the timeout.
        for tick in 0..5 {
            let _guard = watchdog.guard(tick);
        }
        assert_eq!(watchdog.trips(), 0);

        // A wedged tick: hold the guard past the timeout.
        {
            let _guard = watchdog.guard(99);
            let deadline = Instant::now() + Duration::from_secs(5);
            while watchdog.trips() == 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(watchdog.trips(), 1, "stuck tick must trip");
            // Still wedged: no second trip for the same tick.
            std::thread::sleep(Duration::from_millis(60));
            assert_eq!(watchdog.trips(), 1);
        }

        // Recovery: later healthy ticks stay clean.
        let _guard = watchdog.guard(100);
        drop(_guard);
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(watchdog.trips(), 1);
    }
}
