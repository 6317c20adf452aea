//! Persistent controller configuration.
//!
//! The paper's prototype stores user configurations — resident profiles and
//! their meta-rules, "approximately 65 bytes / user" — in the MariaDB
//! persistency layer (§III-F). [`ConfigStore`] is the equivalent over
//! `imcf-store`: resident profiles and the household MRT live in WAL-backed
//! tables, survive restarts, and are conflict-checked on load so a corrupt
//! or contradictory configuration is caught before the planner runs it.

use imcf_rules::conflict::{self, Conflict, Severity};
use imcf_rules::meta_rule::MetaRule;
use imcf_rules::mrt::Mrt;
use imcf_store::store::Store;
use imcf_store::table::Table;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// A resident profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Resident {
    /// Unique resident name (rule `owner` values reference it).
    pub name: String,
    /// Personal weekly energy preference, kWh (informational; the household
    /// budget row governs the planner).
    pub weekly_kwh_preference: Option<f64>,
}

/// Errors from configuration loading/saving.
#[derive(Debug)]
pub enum ConfigError {
    /// Underlying storage failure.
    Store(imcf_store::store::StoreError),
    /// A rule references an unknown resident.
    UnknownOwner {
        /// The offending rule's description.
        rule: String,
        /// The unknown owner name.
        owner: String,
    },
    /// The MRT has error-severity conflicts.
    Infeasible(Vec<Conflict>),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Store(e) => write!(f, "storage: {e}"),
            ConfigError::UnknownOwner { rule, owner } => {
                write!(f, "rule `{rule}` owned by unknown resident `{owner}`")
            }
            ConfigError::Infeasible(conflicts) => {
                write!(f, "configuration infeasible: ")?;
                for c in conflicts {
                    write!(f, "{c}; ")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<imcf_store::store::StoreError> for ConfigError {
    fn from(e: imcf_store::store::StoreError) -> Self {
        ConfigError::Store(e)
    }
}

impl From<imcf_store::table::TableError> for ConfigError {
    fn from(e: imcf_store::table::TableError) -> Self {
        ConfigError::Store(imcf_store::store::StoreError::Table(e))
    }
}

/// The persistent configuration: residents plus the household MRT.
pub struct ConfigStore {
    residents: Table<Resident>,
    rules: Table<MetaRule>,
}

impl ConfigStore {
    /// Opens (or initializes) the configuration under `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<ConfigStore, ConfigError> {
        let store = Store::open(dir).map_err(|e| {
            ConfigError::Store(imcf_store::store::StoreError::Table(
                imcf_store::table::TableError::Io(e),
            ))
        })?;
        Ok(ConfigStore {
            residents: store.table("residents")?,
            rules: store.table("mrt")?,
        })
    }

    /// Registers a resident (idempotent on name).
    pub fn add_resident(&mut self, resident: Resident) -> Result<(), ConfigError> {
        let existing: Option<u64> = self
            .residents
            .scan()
            .find(|(_, r)| r.name == resident.name)
            .map(|(id, _)| id);
        match existing {
            Some(id) => self.residents.update(id, resident)?,
            None => {
                self.residents.insert(resident)?;
            }
        }
        Ok(())
    }

    /// All residents, sorted by name.
    pub fn residents(&self) -> Vec<Resident> {
        let mut out: Vec<Resident> = self.residents.scan().map(|(_, r)| r.clone()).collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Appends a meta-rule. Rules owned by unregistered residents are
    /// rejected (household rules with an empty owner are always fine).
    pub fn add_rule(&mut self, rule: MetaRule) -> Result<(), ConfigError> {
        if !rule.owner.is_empty() && !self.residents.scan().any(|(_, r)| r.name == rule.owner) {
            return Err(ConfigError::UnknownOwner {
                rule: rule.description.clone(),
                owner: rule.owner.clone(),
            });
        }
        self.rules.insert(rule)?;
        Ok(())
    }

    /// Loads the MRT, conflict-checking it. `worst_case_hourly_kwh` prices
    /// the budget-feasibility analysis. Warning-severity conflicts are
    /// returned alongside the table; error-severity conflicts fail the
    /// load.
    pub fn load_mrt<F>(&self, worst_case_hourly_kwh: F) -> Result<(Mrt, Vec<Conflict>), ConfigError>
    where
        F: Fn(&MetaRule) -> f64,
    {
        let mrt: Mrt = self.rules.scan().map(|(_, r)| r.clone()).collect();
        let conflicts = conflict::analyze(&mrt, worst_case_hourly_kwh);
        let errors: Vec<Conflict> = conflicts
            .iter()
            .filter(|c| c.severity() == Severity::Error)
            .cloned()
            .collect();
        if !errors.is_empty() {
            return Err(ConfigError::Infeasible(errors));
        }
        Ok((mrt, conflicts))
    }

    /// Deletes every rule owned by `owner` (a resident moving out). Returns
    /// the number removed.
    pub fn remove_rules_of(&mut self, owner: &str) -> Result<usize, ConfigError> {
        let ids: Vec<u64> = self
            .rules
            .scan()
            .filter(|(_, r)| r.owner == owner)
            .map(|(id, _)| id)
            .collect();
        for id in &ids {
            self.rules.delete(*id)?;
        }
        Ok(ids.len())
    }

    /// Compacts both tables (snapshot + WAL truncation).
    pub fn compact(&mut self) -> Result<(), ConfigError> {
        self.residents.snapshot()?;
        self.rules.snapshot()?;
        Ok(())
    }

    /// Approximate configuration footprint in bytes (the paper quotes
    /// ~65 bytes per user).
    pub fn footprint_bytes(&self) -> u64 {
        self.residents.log().wal_bytes() + self.rules.log().wal_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imcf_rules::action::Action;
    use imcf_rules::window::TimeWindow;

    fn resident(name: &str) -> Resident {
        Resident {
            name: name.to_string(),
            weekly_kwh_preference: Some(165.0),
        }
    }

    fn rule(desc: &str, owner: &str) -> MetaRule {
        MetaRule::convenience(
            0,
            desc,
            TimeWindow::hours(1, 7),
            Action::SetTemperature(22.0),
        )
        .owned_by(owner)
    }

    #[test]
    fn residents_round_trip_and_dedupe() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = ConfigStore::open(dir.path()).unwrap();
        cfg.add_resident(resident("father")).unwrap();
        cfg.add_resident(resident("mother")).unwrap();
        cfg.add_resident(Resident {
            name: "father".into(),
            weekly_kwh_preference: Some(100.0),
        })
        .unwrap();
        let rs = cfg.residents();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].weekly_kwh_preference, Some(100.0)); // updated in place
    }

    #[test]
    fn rules_require_known_owners() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = ConfigStore::open(dir.path()).unwrap();
        cfg.add_resident(resident("father")).unwrap();
        cfg.add_rule(rule("Night Heat", "father")).unwrap();
        cfg.add_rule(rule("Hall Light", "")).unwrap(); // household rule
        let err = cfg.add_rule(rule("Ghost rule", "stranger")).unwrap_err();
        assert!(matches!(err, ConfigError::UnknownOwner { .. }));
    }

    #[test]
    fn configuration_survives_reopen() {
        let dir = tempfile::tempdir().unwrap();
        {
            let mut cfg = ConfigStore::open(dir.path()).unwrap();
            cfg.add_resident(resident("father")).unwrap();
            cfg.add_rule(rule("Night Heat", "father")).unwrap();
            cfg.compact().unwrap();
            cfg.add_rule(MetaRule::budget(0, "Budget", 400.0, 744))
                .unwrap();
        }
        let cfg = ConfigStore::open(dir.path()).unwrap();
        assert_eq!(cfg.residents().len(), 1);
        let (mrt, warnings) = cfg.load_mrt(|_| 0.1).unwrap();
        assert_eq!(mrt.len(), 2);
        assert!(warnings.is_empty());
    }

    #[test]
    fn infeasible_configuration_fails_load() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = ConfigStore::open(dir.path()).unwrap();
        cfg.add_rule(MetaRule::necessity(
            0,
            "Freezer",
            TimeWindow::all_day(),
            Action::SetTemperature(4.0),
        ))
        .unwrap();
        cfg.add_rule(MetaRule::budget(0, "Tiny", 1.0, 8928))
            .unwrap();
        let err = cfg.load_mrt(|_| 1.0).unwrap_err();
        assert!(matches!(err, ConfigError::Infeasible(_)));
        assert!(err.to_string().contains("infeasible"));
    }

    #[test]
    fn warning_conflicts_are_surfaced_not_fatal() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = ConfigStore::open(dir.path()).unwrap();
        cfg.add_rule(rule("A", "")).unwrap();
        let mut overlapping = rule("B", "");
        overlapping.action = Action::SetTemperature(25.0);
        cfg.add_rule(overlapping).unwrap();
        let (mrt, warnings) = cfg.load_mrt(|_| 0.1).unwrap();
        assert_eq!(mrt.len(), 2);
        assert_eq!(warnings.len(), 1);
    }

    #[test]
    fn moving_out_removes_rules() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = ConfigStore::open(dir.path()).unwrap();
        cfg.add_resident(resident("father")).unwrap();
        cfg.add_resident(resident("lodger")).unwrap();
        cfg.add_rule(rule("A", "father")).unwrap();
        cfg.add_rule(rule("B", "lodger")).unwrap();
        cfg.add_rule(rule("C", "lodger")).unwrap();
        assert_eq!(cfg.remove_rules_of("lodger").unwrap(), 2);
        let (mrt, _) = cfg.load_mrt(|_| 0.1).unwrap();
        assert_eq!(mrt.len(), 1);
    }

    #[test]
    fn footprint_is_small() {
        // The paper quotes ~65 bytes/user; our JSON rows are bigger but the
        // same order of magnitude.
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = ConfigStore::open(dir.path()).unwrap();
        for name in ["father", "mother", "daughter"] {
            cfg.add_resident(resident(name)).unwrap();
        }
        let bytes = cfg.footprint_bytes();
        assert!(bytes > 0 && bytes < 4096, "footprint {bytes} bytes");
    }
}
