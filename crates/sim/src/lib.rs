//! # imcf-sim — the smart-space environment simulator
//!
//! The paper evaluates IMCF by feeding real traces into a simulator; this
//! crate is that simulator:
//!
//! * [`weather`] — a deterministic weather process standing in for the
//!   "open weather API" the prototype queries (paper §III-F);
//! * [`thermal`] — a first-order RC room model for live (non-trace) runs;
//! * [`illuminance`] — indoor light composition (daylight + lamp);
//! * [`building`] — the three canonical datasets (Flat / House / Dorms)
//!   with their zone traces, per-zone MRTs, budgets and device calibration;
//! * [`engine`] — the closed-loop live simulation (rooms responding to
//!   actuation, with counterfactual twins);
//! * [`grid`] — a grid carbon-intensity process (duck curve) for
//!   environmentally-aware load shifting;
//! * [`meter`] — energy metering with monthly rollups;
//! * [`slots`] — the meta-rule compiler every front end shares:
//!   [`slots::HourTables`] (one MRT compiled into 24 hour-of-day rule
//!   lists), [`slots::Pricing`] (the one action pricer),
//!   [`slots::candidate`] (the one rule → [`imcf_core::CandidateRule`]
//!   translation) and [`slots::mr_ecp`] (the one MR ECP derivation); and
//!   the slot builder joining traces, rules, device models and the
//!   amortization plan into the [`imcf_core::PlanningSlot`]s the Energy
//!   Planner consumes.

pub mod building;
pub mod engine;
pub mod grid;
pub mod illuminance;
pub mod meter;
pub mod slots;
pub mod thermal;
pub mod weather;

pub use building::{Dataset, DatasetKind};
pub use engine::{LiveSimulation, LiveZone};
pub use meter::EnergyMeter;
pub use slots::SlotBuilder;
pub use thermal::RoomThermalModel;
pub use weather::{WeatherApi, WeatherSample};
