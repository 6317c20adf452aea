//! # imcf-traces — sensor trace synthesis and handling
//!
//! The paper's evaluation is trace-driven: ~5.67 M temperature/light/door
//! readings recorded in a real apartment (CASAS, WSU) between October 2013
//! and December 2016, replicated ×4 for the *house* dataset and onto 50
//! apartments for the *dorms* dataset. The real traces are not
//! redistributable, so this crate provides the calibrated synthetic
//! equivalent (see DESIGN.md §1):
//!
//! * [`reading`] — raw timestamped sensor readings (the CSV row model);
//! * [`series`] — hourly-resampled per-zone series the planner consumes;
//! * [`generator`] — the climate-driven synthesizer (seasonal + diurnal +
//!   AR(1) noise), deterministic under a seed;
//! * [`csvio`] — CSV persistence of raw readings;
//! * [`replicate`] — the paper's dataset-scaling idea as a transform
//!   (shifted, offset and scaled replica zones of one source zone). The
//!   datasets do not use it: `imcf_sim`'s `Dataset::build` synthesizes
//!   every zone of the flat, house and dorms with [`TraceGenerator`];
//! * [`outage`] — seeded sensor-outage injection for robustness testing;
//! * [`stats`] — summary statistics over traces;
//! * [`ecp`] — deriving an Energy Consumption Profile from a trace.

pub mod csvio;
pub mod ecp;
pub mod generator;
pub mod outage;
pub mod reading;
pub mod replicate;
pub mod series;
pub mod stats;

pub use generator::{ClimateModel, TraceGenerator};
pub use reading::{SensorKind, SensorReading};
pub use series::{HourlySeries, Trace, ZoneTrace};
