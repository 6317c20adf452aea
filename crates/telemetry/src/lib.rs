//! Observability for the IMCF stack: a lock-free metrics registry with two
//! exporters, wall-clock stopwatches and deterministic causal tracing.
//!
//! # Design
//!
//! Two primitives record what the running system does, and they do not
//! overlap:
//!
//! * **Wall time.** A [`Stopwatch`] observed into a cataloged
//!   [`Histogram`] answers "how long did it take?".
//! * **Causality.** [`trace::begin`], [`trace::span`] and [`trace::point`],
//!   retained by the [`trace::FlightRecorder`], answer "why did it
//!   happen?" on a virtual clock.
//!
//! Metric **handles** ([`Counter`], [`Gauge`], [`Histogram`]) are cheap
//! `Arc`s over atomics: updating one is a handful of atomic instructions
//! with no locking, so hot paths may update on every call. **Registration**
//! (name + label lookup) takes a short mutex and should be done once per
//! site where rates matter — handles stay valid for the life of the
//! registry, including across [`Registry::reset`], which zeroes values but
//! keeps identities.
//!
//! Names are dotted (`planner.slot_micros`), optionally with label pairs
//! (`firewall.verdicts{verdict="drop"}`). The Prometheus exporter rewrites
//! dots to underscores and carries the dotted name in the `# HELP` line.
//!
//! # Example
//!
//! ```
//! use imcf_telemetry::{global, Stopwatch};
//!
//! let verdicts = global().counter_with("firewall.verdicts", &[("verdict", "accept")]);
//! verdicts.inc();
//! let watch = Stopwatch::start();
//! // ... timed work ...
//! global()
//!     .histogram("scheduler.tick_micros")
//!     .observe(watch.elapsed_micros() as f64);
//! assert!(global().prometheus_text().contains("firewall_verdicts"));
//! ```

pub mod catalog;
mod clock;
mod export;
mod registry;
pub mod trace;

pub use clock::Stopwatch;
pub use export::MetricSnapshot;
pub use registry::{
    global, quantile_from_buckets, Counter, Gauge, Histogram, HistogramSummary, MetricView,
    Registry, DEFAULT_BUCKETS,
};
