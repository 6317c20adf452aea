//! Named crashpoints: seeded, kill-the-process fault injection.
//!
//! The [`FaultPlan`](crate::FaultPlan) injects *recoverable* faults inside
//! a live process; a crashpoint kills the process outright at a named site
//! in the controller/store/commit paths, simulating power loss at the most
//! inconvenient instruction. The crash-recovery harness runs the
//! controller in a child process, arms one crashpoint per cycle (via the
//! `IMCF_CRASHPOINT` environment variable), and asserts the recovery
//! invariants after restart.
//!
//! The *choice* of crashpoint is deterministic: [`pick`] seeds a ChaCha8
//! stream from `(seed, cycle)` under its own domain salt — the same
//! derivation idiom as the fault plan — so a crash soak at a given seed
//! kills at the same sites in the same order on every run.
//!
//! Instrumented code calls [`reached`] at each site; the call is a cheap
//! atomic load unless a crashpoint is armed. When the armed site's
//! occurrence counter hits the armed count, the process aborts (no
//! unwinding, no destructors — the closest safe approximation of
//! `SIGKILL` mid-write).

use imcf_telemetry::trace::splitmix64;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Domain salt for crashpoint selection (the fault-plan domains end at
/// `…0004`; crashpoints are the fifth family).
const DOMAIN_CRASH: u64 = 0x00C0_FFEE_0005;

/// Environment variable the child process reads to arm a crashpoint:
/// `<site>:<occurrence>` (1-based; the Nth time the site is reached, the
/// process aborts).
pub const CRASHPOINT_ENV: &str = "IMCF_CRASHPOINT";

/// The catalog of named crashpoint sites, in controller / journal /
/// checkpoint order. Adding a site here makes it eligible for seeded
/// selection.
pub const CRASH_SITES: &[&str] = &[
    // Controller tick path.
    "controller.tick.pre_plan",
    "controller.tick.post_dispatch",
    // Command-journal path (between append and the durability point, and
    // right after it — the torn-tail and the just-acknowledged cases).
    "journal.pre_sync",
    "journal.post_sync",
    // Checkpoint path (around its fsync, the durability point).
    "checkpoint.pre_sync",
    "checkpoint.post_sync",
];

/// One armed crashpoint: a site and the 1-based occurrence that fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crashpoint {
    /// The site name (one of [`CRASH_SITES`]).
    pub site: String,
    /// The occurrence of the site that aborts the process (1 = first).
    pub occurrence: u64,
}

impl Crashpoint {
    /// Renders the `IMCF_CRASHPOINT` environment value for this point.
    pub fn env_value(&self) -> String {
        format!("{}:{}", self.site, self.occurrence)
    }

    /// Parses an `IMCF_CRASHPOINT` value (`site:occurrence`).
    pub fn parse(value: &str) -> Option<Crashpoint> {
        let (site, occurrence) = value.rsplit_once(':')?;
        let occurrence: u64 = occurrence.parse().ok()?;
        (!site.is_empty() && occurrence > 0).then(|| Crashpoint {
            site: site.to_string(),
            occurrence,
        })
    }
}

/// Deterministically picks the crashpoint for `(seed, cycle)`: a site from
/// [`CRASH_SITES`] and an occurrence in `1..=max_occurrence`. Pure in its
/// inputs — the crash soak's kill schedule is reproducible per seed.
pub fn pick(seed: u64, cycle: u64, max_occurrence: u64) -> Crashpoint {
    let mixed = splitmix64(DOMAIN_CRASH ^ splitmix64(cycle));
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ mixed);
    let site = CRASH_SITES[rng.gen_range(0..CRASH_SITES.len() as u64) as usize];
    Crashpoint {
        site: site.to_string(),
        occurrence: rng.gen_range(1..=max_occurrence.max(1)),
    }
}

/// Armed state: site, target occurrence, occurrences seen so far.
static ARMED: Mutex<Option<(Crashpoint, u64)>> = Mutex::new(None);
/// Fast-path flag so un-armed processes pay one relaxed load per site.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Poison-tolerant lock (an abort mid-`reached` cannot poison anyone, but
/// a panicking test thread must not wedge the others).
fn armed() -> std::sync::MutexGuard<'static, Option<(Crashpoint, u64)>> {
    ARMED.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arms `point`: the `point.occurrence`-th call to
/// [`reached`]`(point.site)` aborts the process.
pub fn arm(point: Crashpoint) {
    *armed() = Some((point, 0));
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Arms the crashpoint named by the `IMCF_CRASHPOINT` environment
/// variable, if present and well-formed. Returns the armed point.
pub fn arm_from_env() -> Option<Crashpoint> {
    let value = std::env::var(CRASHPOINT_ENV).ok()?;
    let point = Crashpoint::parse(&value)?;
    arm(point.clone());
    Some(point)
}

/// Disarms any armed crashpoint.
pub fn disarm() {
    ACTIVE.store(false, Ordering::SeqCst);
    *armed() = None;
}

/// Would this call fire the armed crashpoint? Counts the occurrence as a
/// side effect. Split from [`reached`] so tests can exercise the counting
/// without dying.
fn check(site: &str) -> bool {
    let mut guard = armed();
    match guard.as_mut() {
        Some((point, seen)) if point.site == site => {
            *seen += 1;
            *seen >= point.occurrence
        }
        _ => false,
    }
}

/// Marks execution reaching the named site. Aborts the process when the
/// armed crashpoint's occurrence count is met; a no-op (one atomic load)
/// otherwise.
pub fn reached(site: &str) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    if check(site) {
        // Dying is the point: no unwinding, no flushes, no destructors.
        std::process::abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_is_deterministic_and_seed_sensitive() {
        let a: Vec<Crashpoint> = (0..32).map(|c| pick(7, c, 6)).collect();
        let b: Vec<Crashpoint> = (0..32).map(|c| pick(7, c, 6)).collect();
        let c: Vec<Crashpoint> = (0..32).map(|c| pick(8, c, 6)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c, "distinct seeds must pick distinct schedules");
        for p in &a {
            assert!(CRASH_SITES.contains(&p.site.as_str()));
            assert!((1..=6).contains(&p.occurrence));
        }
        // Over enough cycles the whole catalog is exercised.
        let sites: std::collections::BTreeSet<String> =
            (0..256).map(|c| pick(7, c, 6).site).collect();
        assert_eq!(sites.len(), CRASH_SITES.len(), "all sites reachable");
    }

    #[test]
    fn env_value_round_trips() {
        let p = pick(3, 0, 4);
        let parsed = Crashpoint::parse(&p.env_value()).unwrap();
        assert_eq!(p, parsed);
        assert_eq!(Crashpoint::parse("no-colon"), None);
        assert_eq!(Crashpoint::parse("site:0"), None);
        assert_eq!(Crashpoint::parse(":3"), None);
        assert_eq!(Crashpoint::parse("site:x"), None);
    }

    #[test]
    fn counting_fires_on_the_armed_occurrence_only() {
        disarm();
        // Unarmed: nothing counts, nothing fires.
        assert!(!check("journal.pre_sync"));
        arm(Crashpoint {
            site: "journal.pre_sync".into(),
            occurrence: 3,
        });
        assert!(!check("checkpoint.pre_sync"), "other sites do not count");
        assert!(!check("journal.pre_sync"));
        assert!(!check("journal.pre_sync"));
        assert!(check("journal.pre_sync"), "third occurrence fires");
        disarm();
        assert!(!check("journal.pre_sync"));
        // reached() after disarm is the production fast path: must return.
        reached("journal.pre_sync");
    }
}
