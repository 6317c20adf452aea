//! Typed tables over the segmented WAL.
//!
//! A [`Table<T>`] stores rows of any `Serialize + DeserializeOwned` type,
//! keyed by a `u64` row id the table assigns. It is a [`Log<T>`] plus the
//! rows: every mutation is logged before the in-memory index changes, and
//! a compaction persists the whole index as a snapshot and drops the log
//! segments. The on-disk layout is the log's (see [`crate::log`]).
//!
//! Compaction durability order (each step is a barrier for the next):
//! temp snapshot written **and fsynced**, renamed over the live snapshot,
//! parent directory fsynced, and only then the log truncated — so a crash
//! at any point leaves either the old snapshot + full log or the new
//! snapshot (+ a replayable, idempotent log suffix), never a hole.

use crate::log::{snapshot_path, Change, Log};
use crate::segment::SegmentConfig;
use crate::wal::WalOp;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

pub use crate::log::TableError;

/// A persistent, WAL-backed table of typed rows.
pub struct Table<T> {
    log: Log<T>,
    snap_path: PathBuf,
    rows: BTreeMap<u64, T>,
}

impl<T: Serialize + DeserializeOwned> Table<T> {
    /// Opens (or creates) the table `name` in `dir` with the default
    /// segment configuration.
    pub fn open(dir: impl AsRef<Path>, name: &str) -> Result<Table<T>, TableError> {
        Self::open_with(dir, name, SegmentConfig::default())
    }

    /// Opens (or creates) the table `name` in `dir`, loading the snapshot
    /// and replaying the WAL segments in sequence order.
    pub fn open_with(
        dir: impl AsRef<Path>,
        name: &str,
        config: SegmentConfig,
    ) -> Result<Table<T>, TableError> {
        let mut rows = BTreeMap::new();
        let log = Log::open_with(&dir, name, config, |change| match change {
            Change::Put(id, row) => {
                rows.insert(id, row);
            }
            Change::Delete(id) => {
                rows.remove(&id);
            }
        })?;
        Ok(Table {
            log,
            snap_path: snapshot_path(dir.as_ref(), name),
            rows,
        })
    }

    /// Inserts a row and returns its id.
    pub fn insert(&mut self, row: T) -> Result<u64, TableError> {
        let id = self.log.insert(&row)?;
        self.rows.insert(id, row);
        Ok(id)
    }

    /// Replaces the row at `id`.
    pub fn update(&mut self, id: u64, row: T) -> Result<(), TableError> {
        self.log.update(id, &row)?;
        self.rows.insert(id, row);
        Ok(())
    }

    /// Deletes the row at `id`.
    pub fn delete(&mut self, id: u64) -> Result<(), TableError> {
        self.log.delete(id)?;
        self.rows.remove(&id);
        Ok(())
    }

    /// Fetches a row by id.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.rows.get(&id)
    }

    /// Iterates over `(id, row)` pairs in id order.
    pub fn scan(&self) -> impl Iterator<Item = (u64, &T)> {
        self.rows.iter().map(|(id, row)| (*id, row))
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The log under the rows: its size, segments and position.
    pub fn log(&self) -> &Log<T> {
        &self.log
    }

    /// Forces the WAL to disk.
    pub fn sync(&mut self) -> Result<(), TableError> {
        self.log.sync()
    }

    /// Persists the full state as a snapshot and truncates the log
    /// (sequential compaction; [`Table::compact`] is the parallel form).
    pub fn snapshot(&mut self) -> Result<(), TableError> {
        self.log.check_fault(WalOp::Compact)?;
        let mut parts = Vec::with_capacity(self.rows.len());
        for (id, row) in &self.rows {
            parts.push(encode_pair(*id, row)?);
        }
        let bytes = assemble_snapshot(self.log.next_id(), &parts);
        self.finish_compaction(bytes)
    }

    /// Writes the snapshot durably (fsync before and after the rename),
    /// then truncates the log — the crash-safe publication order.
    fn finish_compaction(&mut self, bytes: Vec<u8>) -> Result<(), TableError> {
        let tmp = self.snap_path.with_extension("snap.tmp");
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            // The snapshot's bytes must hit disk before the rename makes
            // them the authority — a rename can survive a crash that the
            // unflushed data does not.
            file.sync_all()?;
        }
        std::fs::rename(&tmp, &self.snap_path)?;
        if let Some(parent) = self.snap_path.parent() {
            // Persist the rename (a directory-entry change) before the
            // log it supersedes is destroyed.
            std::fs::File::open(parent)?.sync_all()?;
        }
        self.log.truncate_all()?;
        imcf_telemetry::global().counter("store.compactions").inc();
        Ok(())
    }

    /// Installs a fault hook on the underlying log (see
    /// [`Log::set_wal_fault_hook`]); the in-memory index is not mutated
    /// when the log write fails.
    pub fn set_wal_fault_hook<F>(&mut self, hook: F)
    where
        F: Fn(WalOp) -> Option<io::Error> + Send + Sync + 'static,
    {
        self.log.set_wal_fault_hook(hook);
    }

    /// Removes the WAL fault hook.
    pub fn clear_wal_fault_hook(&mut self) {
        self.log.clear_wal_fault_hook();
    }
}

impl<T: Serialize + DeserializeOwned + Send + Sync> Table<T> {
    /// Compacts the table: rewrites the live rows into a fresh snapshot —
    /// row encoding fanned out over `jobs` `imcf-pool` workers — and drops
    /// the log segments. The snapshot bytes are byte-identical for any
    /// `jobs` value: workers encode disjoint rows and the parts are
    /// concatenated in id order.
    pub fn compact(&mut self, jobs: usize) -> Result<(), TableError> {
        self.log.check_fault(WalOp::Compact)?;
        let pairs: Vec<(u64, &T)> = self.rows.iter().map(|(id, row)| (*id, row)).collect();
        let encoded = imcf_pool::map_indexed(jobs, pairs, |_, (id, row)| {
            encode_pair(id, row).map_err(|e| e.to_string())
        });
        let mut parts = Vec::with_capacity(encoded.len());
        for part in encoded {
            parts.push(part.map_err(io::Error::other)?);
        }
        let bytes = assemble_snapshot(self.log.next_id(), &parts);
        self.finish_compaction(bytes)
    }
}

/// Encodes one `id: row` snapshot entry as JSON object-member bytes.
fn encode_pair<T: Serialize>(id: u64, row: &T) -> Result<Vec<u8>, TableError> {
    let mut out = format!("\"{id}\":").into_bytes();
    out.extend_from_slice(&serde_json::to_vec(row)?);
    Ok(out)
}

/// Assembles the snapshot document from pre-encoded `id: row` members.
/// The layout matches what `serde_json` produces for a
/// [`crate::log::Snapshot`], so
/// snapshots written by any engine version parse identically.
fn assemble_snapshot(next_id: u64, parts: &[Vec<u8>]) -> Vec<u8> {
    let body: usize = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(body + parts.len() + 32);
    out.extend_from_slice(format!("{{\"next_id\":{next_id},\"rows\":{{").as_bytes());
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(part);
    }
    out.extend_from_slice(b"}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::Snapshot;
    use crate::segment::segment_path;
    use serde::Deserialize;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Pref {
        user: String,
        kwh_limit: f64,
    }

    fn pref(user: &str, kwh: f64) -> Pref {
        Pref {
            user: user.into(),
            kwh_limit: kwh,
        }
    }

    #[test]
    fn insert_get_scan() {
        let dir = tempfile::tempdir().unwrap();
        let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        let a = t.insert(pref("father", 165.0)).unwrap();
        let b = t.insert(pref("mother", 165.0)).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.get(a).unwrap().user, "father");
        assert_eq!(t.len(), 2);
        let users: Vec<&str> = t.scan().map(|(_, r)| r.user.as_str()).collect();
        assert_eq!(users, vec!["father", "mother"]);
    }

    #[test]
    fn update_and_delete() {
        let dir = tempfile::tempdir().unwrap();
        let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        let id = t.insert(pref("daughter", 100.0)).unwrap();
        t.update(id, pref("daughter", 120.0)).unwrap();
        assert_eq!(t.get(id).unwrap().kwh_limit, 120.0);
        t.delete(id).unwrap();
        assert!(t.get(id).is_none());
        assert!(t.is_empty());
        assert!(matches!(
            t.update(id, pref("x", 1.0)),
            Err(TableError::NoSuchRow(_))
        ));
        assert!(matches!(t.delete(id), Err(TableError::NoSuchRow(_))));
    }

    #[test]
    fn reopen_replays_wal() {
        let dir = tempfile::tempdir().unwrap();
        {
            let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
            t.insert(pref("father", 165.0)).unwrap();
            let id = t.insert(pref("mother", 165.0)).unwrap();
            t.update(id, pref("mother", 150.0)).unwrap();
            t.sync().unwrap();
        }
        let t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        assert_eq!(t.len(), 2);
        let mother = t.scan().find(|(_, r)| r.user == "mother").unwrap().1;
        assert_eq!(mother.kwh_limit, 150.0);
    }

    #[test]
    fn snapshot_compacts_and_survives_reopen() {
        let dir = tempfile::tempdir().unwrap();
        {
            let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
            for i in 0..10 {
                t.insert(pref(&format!("u{i}"), i as f64)).unwrap();
            }
            assert!(t.log().wal_bytes() > 0);
            t.snapshot().unwrap();
            assert_eq!(t.log().wal_bytes(), 0);
            // Post-snapshot mutations land in the fresh WAL.
            t.insert(pref("late", 9.0)).unwrap();
        }
        let t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        assert_eq!(t.len(), 11);
        assert!(t.scan().any(|(_, r)| r.user == "late"));
    }

    #[test]
    fn parallel_compaction_is_byte_identical_to_sequential() {
        let dir = tempfile::tempdir().unwrap();
        let mut snaps: Vec<Vec<u8>> = Vec::new();
        for jobs in [1usize, 4] {
            let sub = dir.path().join(format!("jobs{jobs}"));
            let mut t: Table<Pref> = Table::open(&sub, "prefs").unwrap();
            for i in 0..64 {
                t.insert(pref(&format!("user-{i}"), i as f64 * 0.5))
                    .unwrap();
            }
            t.compact(jobs).unwrap();
            snaps.push(std::fs::read(sub.join("prefs.snap")).unwrap());
        }
        assert_eq!(
            snaps[0], snaps[1],
            "snapshot bytes must not depend on --jobs"
        );
        // And the hand-assembled document round-trips through serde.
        let parsed: Snapshot<Pref> = serde_json::from_slice(&snaps[0]).unwrap();
        assert_eq!(parsed.rows.len(), 64);
        assert_eq!(parsed.next_id, 64);
    }

    #[test]
    fn ids_not_reused_after_reopen() {
        let dir = tempfile::tempdir().unwrap();
        let first;
        {
            let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
            first = t.insert(pref("a", 1.0)).unwrap();
        }
        let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        let second = t.insert(pref("b", 2.0)).unwrap();
        assert!(second > first);
    }

    #[test]
    fn torn_wal_tail_loses_only_last_op() {
        let dir = tempfile::tempdir().unwrap();
        {
            let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
            t.insert(pref("keep", 1.0)).unwrap();
            t.insert(pref("lose", 2.0)).unwrap();
            t.sync().unwrap();
        }
        let wal_path = segment_path(dir.path(), "prefs", 1);
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap();
        f.set_len(len - 2).unwrap();

        let t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.scan().next().unwrap().1.user, "keep");
    }

    #[test]
    fn injected_wal_fault_leaves_index_consistent() {
        let dir = tempfile::tempdir().unwrap();
        let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        let id = t.insert(pref("stable", 1.0)).unwrap();
        t.set_wal_fault_hook(|op| {
            matches!(op, WalOp::Append).then(|| io::Error::other("injected: wal_write"))
        });
        assert!(matches!(
            t.insert(pref("ghost", 2.0)),
            Err(TableError::Io(_))
        ));
        assert!(matches!(
            t.update(id, pref("stable", 9.0)),
            Err(TableError::Io(_))
        ));
        assert!(matches!(t.delete(id), Err(TableError::Io(_))));
        // The failed ops never touched the in-memory index.
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(id).unwrap().kwh_limit, 1.0);
        // Sync-only faults: appends work again, sync fails.
        t.set_wal_fault_hook(|op| {
            matches!(op, WalOp::Sync).then(|| io::Error::other("injected: wal_sync"))
        });
        t.insert(pref("landed", 3.0)).unwrap();
        assert!(matches!(t.sync(), Err(TableError::Io(_))));
        t.clear_wal_fault_hook();
        t.sync().unwrap();
        // Everything that reported success is durable across reopen.
        drop(t);
        let t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn injected_truncate_fault_aborts_compaction_without_data_loss() {
        let dir = tempfile::tempdir().unwrap();
        let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        for i in 0..5 {
            t.insert(pref(&format!("u{i}"), i as f64)).unwrap();
        }
        t.sync().unwrap();
        t.set_wal_fault_hook(|op| {
            matches!(op, WalOp::Truncate).then(|| io::Error::other("injected: wal_truncate"))
        });
        // The snapshot is published but the log truncation fails: the
        // compaction reports the error and every row stays recoverable
        // (replaying the untruncated log over the snapshot is idempotent).
        assert!(matches!(t.snapshot(), Err(TableError::Io(_))));
        assert!(
            t.log().wal_bytes() > 0,
            "log must survive the failed truncate"
        );
        drop(t);
        let t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        assert_eq!(t.len(), 5);
        for i in 0..5u64 {
            assert_eq!(t.get(i).unwrap().user, format!("u{i}"));
        }
    }

    #[test]
    fn injected_compact_fault_blocks_snapshot_before_any_write() {
        let dir = tempfile::tempdir().unwrap();
        let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        t.insert(pref("solo", 1.0)).unwrap();
        t.set_wal_fault_hook(|op| {
            matches!(op, WalOp::Compact).then(|| io::Error::other("injected: wal_compact"))
        });
        assert!(matches!(t.snapshot(), Err(TableError::Io(_))));
        assert!(matches!(t.compact(2), Err(TableError::Io(_))));
        // Nothing was published and the log is untouched.
        assert!(!dir.path().join("prefs.snap").exists());
        assert!(t.log().wal_bytes() > 0);
    }

    #[test]
    fn undecodable_record_truncates_log_so_no_later_append_is_lost() {
        let dir = tempfile::tempdir().unwrap();
        {
            let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
            t.insert(pref("keep", 1.0)).unwrap();
            t.sync().unwrap();
        }
        // Plant a CRC-valid record that is not a decodable Op<T> — the
        // shape of a version-mismatched write.
        {
            let mut wal = crate::wal::Wal::open(segment_path(dir.path(), "prefs", 1)).unwrap();
            wal.append(b"{\"not\":\"an op\"}").unwrap();
            wal.sync().unwrap();
        }
        // Replay stops at the undecodable record AND the log is truncated
        // there, so the next append lands where replay will find it.
        let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        assert_eq!(t.len(), 1);
        let id = t.insert(pref("after-break", 2.0)).unwrap();
        t.sync().unwrap();
        drop(t);
        // Before the fix, this append sat beyond the undecodable record
        // and silently vanished on every subsequent open.
        let t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(id).unwrap().user, "after-break");
    }

    #[test]
    fn orphan_snap_tmp_is_cleaned_on_open() {
        let dir = tempfile::tempdir().unwrap();
        {
            let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
            t.insert(pref("real", 1.0)).unwrap();
            t.snapshot().unwrap();
        }
        // A crash mid-compaction leaves a temp snapshot behind.
        let orphan = dir.path().join("prefs.snap.tmp");
        std::fs::write(&orphan, b"{\"half\":\"written").unwrap();
        let t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        assert_eq!(t.len(), 1);
        assert!(!orphan.exists(), "orphan temp snapshot must be removed");
    }

    #[test]
    fn distinct_tables_are_isolated() {
        let dir = tempfile::tempdir().unwrap();
        let mut a: Table<Pref> = Table::open(dir.path(), "a").unwrap();
        let mut b: Table<Pref> = Table::open(dir.path(), "b").unwrap();
        a.insert(pref("only-in-a", 1.0)).unwrap();
        b.insert(pref("only-in-b", 2.0)).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(a.scan().next().unwrap().1.user, "only-in-a");
    }
}
