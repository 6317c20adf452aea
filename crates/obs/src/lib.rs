//! # imcf-obs — the observability plane
//!
//! The reproduction's point-in-time signals (metric registry, causal
//! traces, flight recorder) answer "what is happening *now*"; this crate
//! adds **history** and **judgement**: an in-process time-series engine
//! sampling the registry on the controller's virtual clock, and a
//! deterministic alert rule engine on top of it. The paper's
//! meta-control loop (monitor → decide → actuate) needs exactly this
//! monitoring feedback to close at fleet scale.
//!
//! Pieces:
//!
//! * [`series::SeriesRing`] — bounded delta-encoded history per series,
//!   with eviction-driven downsampling into a coarse ring;
//! * [`engine::ObsEngine`] — samples a [`imcf_telemetry::Registry`] each
//!   virtual tick, expands histograms into `:count`/`:sum`/`:le:<bound>`
//!   sub-series, serves range queries (`value`, `rate`, `increase`,
//!   `points`, `quantile_over_time`) and appends windows to the store's
//!   `tsdb` table, restoring each series from its newest window;
//! * [`alert`] — declarative threshold / burn-rate rules with a
//!   pending → firing → resolved state machine, validated against the
//!   telemetry catalog at load;
//! * [`query`] — the `GET /rest/query` parameter surface.
//!
//! Everything runs on the virtual clock and iterates `BTreeMap`s, so a
//! given tick sequence yields byte-identical series, alert transitions
//! and query responses regardless of worker count — the property the
//! `obs_bench` determinism test pins.

pub mod alert;
pub mod engine;
pub mod query;
pub mod series;

pub use alert::{
    default_rules, validate_rules, AlertError, AlertExpr, AlertRule, AlertState, Cmp, Severity,
};
pub use engine::{
    AlertRow, ObsConfig, ObsEngine, ObsOpenError, ObsStats, QueryError, SeriesWindow,
};
pub use query::{handle_query, parse_query, percent_decode, run_query, QueryFn, QueryParams};
pub use series::{Point, SeriesKind, SeriesRing};
