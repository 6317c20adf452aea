//! The store: a directory of named tables.
//!
//! [`Store`] is the unit the Local Controller opens at boot — one directory
//! holding the MRT configuration table, resident profiles and recorded
//! readings, the same inventory the paper keeps in MariaDB.

use crate::table::{Table, TableError};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::path::{Path, PathBuf};

/// Errors from store-level operations.
#[derive(Debug)]
pub enum StoreError {
    /// The table name contains path separators or is empty.
    InvalidTableName(String),
    /// An underlying table failure.
    Table(TableError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::InvalidTableName(n) => write!(f, "invalid table name `{n}`"),
            StoreError::Table(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<TableError> for StoreError {
    fn from(e: TableError) -> Self {
        StoreError::Table(e)
    }
}

/// A directory of named, independently-persisted tables.
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Opens (or creates) a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Store> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(Store { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Opens a typed table by name.
    pub fn table<T>(&self, name: &str) -> Result<Table<T>, StoreError>
    where
        T: Serialize + DeserializeOwned,
    {
        if name.is_empty() || name.contains(['/', '\\', '.']) {
            return Err(StoreError::InvalidTableName(name.to_string()));
        }
        Ok(Table::open(&self.dir, name)?)
    }

    /// Lists the table names present on disk — those with a snapshot, a
    /// WAL segment (`<name>.wal.<seq>`), or a legacy single-file WAL.
    /// Transient `.snap.tmp` files (compaction scratch) are not tables.
    pub fn table_names(&self) -> std::io::Result<Vec<String>> {
        let mut names = std::collections::BTreeSet::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tmp") {
                continue;
            }
            if let Some(stem) = name
                .strip_suffix(".snap")
                .or_else(|| name.strip_suffix(".wal"))
            {
                names.insert(stem.to_string());
                continue;
            }
            // Segment files: `<stem>.wal.<digits>`.
            if let Some((stem, seq)) = name.rsplit_once(".wal.") {
                if !seq.is_empty() && seq.bytes().all(|b| b.is_ascii_digit()) {
                    names.insert(stem.to_string());
                }
            }
        }
        Ok(names.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Reading {
        sensor: String,
        value: f64,
    }

    #[test]
    fn open_creates_directory() {
        let dir = tempfile::tempdir().unwrap();
        let root = dir.path().join("nested/store");
        let store = Store::open(&root).unwrap();
        assert!(root.is_dir());
        assert_eq!(store.dir(), root);
    }

    #[test]
    fn tables_by_name() {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::open(dir.path()).unwrap();
        let mut readings: Table<Reading> = store.table("readings").unwrap();
        readings
            .insert(Reading {
                sensor: "temp".into(),
                value: 21.0,
            })
            .unwrap();
        let names = store.table_names().unwrap();
        assert_eq!(names, vec!["readings".to_string()]);
    }

    #[test]
    fn invalid_names_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::open(dir.path()).unwrap();
        for bad in ["", "a/b", "a.b", "c\\d"] {
            assert!(matches!(
                store.table::<Reading>(bad),
                Err(StoreError::InvalidTableName(_))
            ));
        }
    }

    #[test]
    fn table_names_ignore_snap_tmp_and_accept_segments() {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::open(dir.path()).unwrap();
        let mut t: Table<Reading> = store.table("readings").unwrap();
        t.insert(Reading {
            sensor: "temp".into(),
            value: 21.0,
        })
        .unwrap();
        // A crash mid-compaction can leave a temp snapshot behind; it is
        // scratch, not a table.
        std::fs::write(dir.path().join("readings.snap.tmp"), b"{").unwrap();
        std::fs::write(dir.path().join("ghost.snap.tmp"), b"{").unwrap();
        // Segment files map back to their table name.
        assert!(dir.path().join("readings.wal.1").exists());
        let names = store.table_names().unwrap();
        assert_eq!(names, vec!["readings".to_string()]);
    }

    #[test]
    fn snapshot_appears_in_names() {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::open(dir.path()).unwrap();
        let mut t: Table<Reading> = store.table("snapped").unwrap();
        t.insert(Reading {
            sensor: "x".into(),
            value: 1.0,
        })
        .unwrap();
        t.snapshot().unwrap();
        assert!(store
            .table_names()
            .unwrap()
            .contains(&"snapped".to_string()));
    }
}
