//! # imcf-chaos — the deterministic fault-injection plane
//!
//! Sensor outages already have a seeded injector
//! (`imcf_traces::outage::OutagePlan`); this crate covers the other two
//! legs of the failure triangle — **actuation** and **storage** — plus the
//! resilience primitives that let the Local Controller survive them.
//!
//! * [`FaultPlan`] — a seeded, serde round-trippable schedule of injected
//!   faults, set by three knobs: the seed, a device-command fault rate
//!   (drop / delay / stuck actuator) and one store-fault rate (every WAL
//!   operation, and a torn tail on reopen at a quarter of it). Every
//!   decision is a pure function of `(seed, coordinates)`: a ChaCha8
//!   stream is derived per query, so the answer does not depend on query
//!   order, thread interleaving or worker count — the same determinism
//!   contract as `imcf-pool`.
//! * [`RetryPolicy`] — bounded attempts with deterministic sim-time
//!   exponential backoff and seeded jitter (ticks, not wall clock).
//! * [`CircuitBreaker`] — the classic closed → open → half-open state
//!   machine, per device, quarantining flapping actuators.
//! * [`crashpoint`] — named kill-the-process sites with seeded selection,
//!   the substrate of the crash-recovery soak (`imcf chaos --crash`).
//!
//! Fault *decisions* live here, and so does the one store-fault hook:
//! [`FaultPlan::wal_fault_hook`] maps each `imcf_store::WalOp` to its
//! fault and is what every store-fault site installs on its log. The
//! injection points themselves (`DeviceRegistry::set_fault_injector`,
//! `Log::set_wal_fault_hook`) take plain closures, so `imcf-devices` and
//! `imcf-store` stay free of chaos types; this crate depends on
//! `imcf-store`, never the other way round.
//!
//! Telemetry: injections are counted under `chaos.faults_injected` (by
//! `kind` label) and breaker open transitions under `breaker.open`, both
//! registered in the `imcf-telemetry` catalog.

mod breaker;
pub mod crashpoint;
mod plan;
mod retry;

pub use breaker::{BreakerBank, BreakerConfig, BreakerSnapshot, BreakerState, CircuitBreaker};
pub use crashpoint::Crashpoint;
pub use plan::{CommandFault, FaultPlan, StoreFault};
pub use retry::RetryPolicy;

use imcf_telemetry::Counter;
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Records one injected fault in the global telemetry registry.
///
/// Central so every injection site (registry hook, WAL hook, scenario
/// drivers) counts through the same cataloged metric. Each kind's handle
/// is fetched once; an injection runs under the device registry's lock.
pub fn record_injection(kind: &'static str) {
    static HANDLES: Mutex<BTreeMap<&str, Counter>> = Mutex::new(BTreeMap::new());
    let mut handles = HANDLES.lock().unwrap_or_else(PoisonError::into_inner);
    handles
        .entry(kind)
        .or_insert_with(|| {
            imcf_telemetry::global().counter_with("chaos.faults_injected", &[("kind", kind)])
        })
        .inc();
}
