//! The three canonical datasets of the evaluation (paper §III-A).
//!
//! A [`Dataset`] bundles everything one experiment run needs: the zone
//! traces, the per-zone Meta-Rule Tables ("uniformly random variations" of
//! Table II for the scaled datasets), the calibrated device models, the
//! three-year energy budget and the IFTTT configuration.
//!
//! Calibration (DESIGN.md §5): device scales are chosen so the greedy MR
//! baseline lands near the paper's consumption figures — flat ≈ 14.5 MWh
//! over three years, house ≈ ×2.2, dorms ≈ ×38 — which puts the paper's
//! budgets (11 000 / 25 500 / 480 000 kWh) at the same relative tightness
//! as in the original evaluation.

use crate::slots::{mr_ecp, HourTables, Pricing};
use imcf_core::calendar::{PaperCalendar, HOURS_PER_YEAR};
use imcf_core::ecp::Ecp;
use imcf_devices::energy::{HvacModel, LightModel};
use imcf_rules::ifttt::IftttTable;
use imcf_rules::mrt::Mrt;
use imcf_traces::generator::TraceGenerator;
use imcf_traces::series::Trace;

/// Which of the paper's datasets to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// One-bedroom flat, 1 split unit, ≈50 m².
    Flat,
    /// Residential house, 4 split units, ≈200 m².
    House,
    /// 50 dorm apartments × 2 rooms, ≈2000 m².
    Dorms,
}

impl DatasetKind {
    /// The paper's three-year budget for this dataset (Table II).
    pub fn budget_kwh(&self) -> f64 {
        match self {
            DatasetKind::Flat => 11_000.0,
            DatasetKind::House => 25_500.0,
            DatasetKind::Dorms => 480_000.0,
        }
    }

    /// Number of HVAC zones.
    pub fn zones(&self) -> usize {
        match self {
            DatasetKind::Flat => 1,
            DatasetKind::House => 4,
            DatasetKind::Dorms => 100, // 50 apartments × 2 rooms
        }
    }

    /// Per-zone HVAC scaling relative to the flat's split unit.
    pub fn hvac_scale(&self) -> f64 {
        match self {
            DatasetKind::Flat => 1.0,
            DatasetKind::House => 0.45, // shared walls, better envelope
            DatasetKind::Dorms => 0.27, // 10 m² rooms
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            DatasetKind::Flat => "flat",
            DatasetKind::House => "house",
            DatasetKind::Dorms => "dorms",
        }
    }

    /// All three datasets in paper order.
    pub fn all() -> [DatasetKind; 3] {
        [DatasetKind::Flat, DatasetKind::House, DatasetKind::Dorms]
    }
}

/// A fully-materialized experiment dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which dataset this is.
    pub kind: DatasetKind,
    /// Hourly zone traces (one per zone, aligned with `zone_mrts`).
    pub trace: Trace,
    /// Per-zone Meta-Rule Tables.
    pub zone_mrts: Vec<Mrt>,
    /// The calibrated device models shared by the dataset's zones.
    pub pricing: Pricing,
    /// Three-year energy budget, kWh.
    pub budget_kwh: f64,
    /// The IFTTT configuration (paper Table III).
    pub ifttt: IftttTable,
    /// Horizon length, hours.
    pub horizon_hours: u64,
}

impl Dataset {
    /// Builds a dataset deterministically from a seed. The horizon is the
    /// paper's three evaluation years, starting in October like the CASAS
    /// traces.
    pub fn build(kind: DatasetKind, seed: u64) -> Dataset {
        let horizon_hours = 3 * HOURS_PER_YEAR;
        let calendar = PaperCalendar::starting_in(10);
        let generator = TraceGenerator {
            climate: imcf_traces::generator::ClimateModel::mediterranean(),
            calendar,
            horizon_hours,
            seed,
        };
        let zone_names: Vec<String> = (0..kind.zones()).map(|i| format!("zone{i:03}")).collect();
        let zone_refs: Vec<&str> = zone_names.iter().map(String::as_str).collect();
        let trace = generator.generate(&zone_refs);

        let base = Mrt::flat_table2(kind.budget_kwh());
        let zone_mrts: Vec<Mrt> = (0..kind.zones())
            .map(|i| {
                if kind == DatasetKind::Flat {
                    base.clone()
                } else {
                    // "Uniformly random variations of the same table".
                    base.scaled_variation(1, kind.budget_kwh(), seed ^ (i as u64 + 1))
                }
            })
            .collect();

        Dataset {
            kind,
            trace,
            zone_mrts,
            pricing: Pricing {
                hvac: HvacModel::split_unit_flat().scaled(kind.hvac_scale()),
                light: LightModel::led_array(),
            },
            budget_kwh: kind.budget_kwh(),
            ifttt: IftttTable::flat_table3(),
            horizon_hours,
        }
    }

    /// The calendar anchoring the dataset's hour 0.
    pub fn calendar(&self) -> PaperCalendar {
        self.trace.calendar
    }

    /// Total number of meta-rules across zones (N = |MRT|).
    pub fn total_rules(&self) -> usize {
        self.zone_mrts.iter().map(|m| m.len()).sum()
    }

    /// Derives the dataset's Energy Consumption Profile by pricing the MR
    /// (execute-everything) schedule through the device models — the
    /// simulated equivalent of the sub-metered history behind Table I.
    pub fn derive_mr_ecp(&self) -> Ecp {
        // `zone_mrts[i]` is the table of `trace.zones[i]`.
        let tables: Vec<HourTables> = self.zone_mrts.iter().map(HourTables::compile).collect();
        mr_ecp(&self.trace, &tables, &self.pricing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_dataset_shape() {
        let d = Dataset::build(DatasetKind::Flat, 0);
        assert_eq!(d.trace.zone_count(), 1);
        assert_eq!(d.zone_mrts.len(), 1);
        assert_eq!(d.total_rules(), 7);
        assert_eq!(d.horizon_hours, 26_784);
        assert_eq!(d.budget_kwh, 11_000.0);
        assert_eq!(d.calendar().month_of(0), 10);
    }

    #[test]
    fn house_and_dorms_scale() {
        let house = Dataset::build(DatasetKind::House, 0);
        assert_eq!(house.trace.zone_count(), 4);
        assert_eq!(house.total_rules(), 4 * 7);
        let dorms = Dataset::build(DatasetKind::Dorms, 0);
        assert_eq!(dorms.trace.zone_count(), 100);
        assert_eq!(dorms.total_rules(), 100 * 7);
        assert!(dorms.pricing.hvac.kwh_per_degree < house.pricing.hvac.kwh_per_degree);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Dataset::build(DatasetKind::House, 5);
        let b = Dataset::build(DatasetKind::House, 5);
        assert_eq!(a.zone_mrts, b.zone_mrts);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn scaled_mrts_are_variations_not_copies() {
        let d = Dataset::build(DatasetKind::House, 1);
        assert_ne!(d.zone_mrts[0], d.zone_mrts[1]);
    }

    #[test]
    fn derived_ecp_is_winter_heavy_and_plausible() {
        let d = Dataset::build(DatasetKind::Flat, 0);
        let ecp = d.derive_mr_ecp();
        // Winter months dominate summer months.
        assert!(
            ecp.month_kwh(1) > ecp.month_kwh(7),
            "jan {} jul {}",
            ecp.month_kwh(1),
            ecp.month_kwh(7)
        );
        // Yearly total within the calibration band around the paper's MR
        // flat figure (≈14.5 MWh / 3 years ≈ 4.8 MWh / year).
        let yearly = ecp.total_kwh();
        assert!(
            (3_500.0..=6_500.0).contains(&yearly),
            "yearly MR estimate {yearly:.0} kWh out of band"
        );
    }
}
