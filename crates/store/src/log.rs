//! Typed, row-less logs over the segmented WAL.
//!
//! A [`Log<T>`] is the layer every typed table is built on. It encodes each
//! mutation of a `T` row as one JSON operation record, appends it to the
//! table's [`SegmentedLog`], assigns row ids, and at open replays the
//! snapshot and the log segments through a visitor. It keeps no rows —
//! only the next row id and the set of live ids — so a caller that only
//! appends, or that folds the history into a summary as it replays, holds
//! O(live ids) in memory instead of O(history). [`crate::table::Table`]
//! adds the rows (an in-memory index plus snapshots) and
//! [`crate::commit::SharedTable`] adds group commit; both sit on this log.
//!
//! On-disk layout for a table named `readings` in directory `dir`:
//!
//! ```text
//! dir/readings.snap      — JSON snapshot: { next_id, rows: { id -> row } }
//! dir/readings.wal.<seq> — redo-log segments since the snapshot; the
//!                          highest sequence number is the active tail
//! ```

use crate::segment::{SegmentConfig, SegmentedLog};
use crate::wal::WalOp;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::marker::PhantomData;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

/// A logged mutation, as replay decodes it. Appends assemble the same
/// bytes by hand in [`op_record`].
#[derive(Debug, Serialize, Deserialize)]
enum Op<T> {
    Insert { id: u64, row: T },
    Update { id: u64, row: T },
    Delete { id: u64 },
}

/// The snapshot document a compaction writes.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct Snapshot<T> {
    pub(crate) next_id: u64,
    pub(crate) rows: BTreeMap<u64, T>,
}

/// Errors from table operations.
#[derive(Debug)]
pub enum TableError {
    /// An I/O failure from the log or snapshot files.
    Io(io::Error),
    /// A serialization failure.
    Codec(serde_json::Error),
    /// The row id does not exist.
    NoSuchRow(u64),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::Io(e) => write!(f, "i/o error: {e}"),
            TableError::Codec(e) => write!(f, "codec error: {e}"),
            TableError::NoSuchRow(id) => write!(f, "no such row {id}"),
        }
    }
}

impl std::error::Error for TableError {}

impl From<io::Error> for TableError {
    fn from(e: io::Error) -> Self {
        TableError::Io(e)
    }
}

impl From<serde_json::Error> for TableError {
    fn from(e: serde_json::Error) -> Self {
        TableError::Codec(e)
    }
}

/// One row change, handed to the open visitor in log order.
#[derive(Debug, Clone, PartialEq)]
pub enum Change<T> {
    /// Row `id` now holds this value: a snapshot row, an insert or an
    /// update.
    Put(u64, T),
    /// Row `id` was deleted.
    Delete(u64),
}

/// The snapshot path of table `name` in `dir`.
pub(crate) fn snapshot_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.snap"))
}

/// A persistent, WAL-backed log of typed rows that holds no rows.
pub struct Log<T> {
    name: String,
    segments: SegmentedLog,
    next_id: u64,
    live: BTreeSet<u64>,
    rows: PhantomData<fn() -> T>,
}

impl<T: Serialize + DeserializeOwned> Log<T> {
    /// Opens (or creates) the log of table `name` in `dir` with the
    /// default segment configuration; see [`Log::open_with`].
    pub fn open(
        dir: impl AsRef<Path>,
        name: &str,
        visit: impl FnMut(Change<T>),
    ) -> Result<Log<T>, TableError> {
        Self::open_with(dir, name, SegmentConfig::default(), visit)
    }

    /// Opens (or creates) the log of table `name` in `dir`, handing every
    /// snapshot row and then every logged change to `visit`, in order, one
    /// at a time. A CRC-valid record that fails to decode (a version
    /// mismatch) ends the replay and the log: later appends must not land
    /// beyond records that are never replayed.
    pub fn open_with(
        dir: impl AsRef<Path>,
        name: &str,
        config: SegmentConfig,
        mut visit: impl FnMut(Change<T>),
    ) -> Result<Log<T>, TableError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let snap_path = snapshot_path(dir, name);

        // A `.snap.tmp` left behind by a crash mid-compaction is garbage:
        // the rename never happened, so the live snapshot is still the
        // authority. Remove the orphan so it cannot accumulate.
        match std::fs::remove_file(snap_path.with_extension("snap.tmp")) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }

        let mut next_id = 0;
        let mut live = BTreeSet::new();
        match std::fs::read(&snap_path) {
            Ok(bytes) => {
                let snap: Snapshot<T> = serde_json::from_slice(&bytes)?;
                next_id = snap.next_id;
                for (id, row) in snap.rows {
                    live.insert(id);
                    visit(Change::Put(id, row));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }

        let recovery = imcf_telemetry::Stopwatch::start();
        let segments = SegmentedLog::open(dir, name, config, |payload| {
            let Ok(op) = serde_json::from_slice::<Op<T>>(payload) else {
                return ControlFlow::Break(());
            };
            match op {
                Op::Insert { id, row } | Op::Update { id, row } => {
                    next_id = next_id.max(id.saturating_add(1));
                    live.insert(id);
                    visit(Change::Put(id, row));
                }
                Op::Delete { id } => {
                    live.remove(&id);
                    visit(Change::Delete(id));
                }
            }
            ControlFlow::Continue(())
        })?;
        imcf_telemetry::global()
            .histogram("store.recovery_micros")
            .observe(recovery.elapsed_micros() as f64);
        let log = Log {
            name: name.to_string(),
            segments,
            next_id,
            live,
            rows: PhantomData,
        };
        log.update_segment_gauge();
        Ok(log)
    }

    /// Appends a row and returns its id.
    pub fn insert(&mut self, row: &T) -> Result<u64, TableError> {
        self.insert_encoded(&serde_json::to_vec(row)?)
    }

    /// Insert with the row JSON already encoded — [`crate::commit`] uses
    /// this to keep serialization outside its lock.
    pub(crate) fn insert_encoded(&mut self, row_json: &[u8]) -> Result<u64, TableError> {
        let id = self.next_id;
        self.segments
            .append(&op_record("Insert", id, Some(row_json)))?;
        self.live.insert(id);
        self.next_id = id.saturating_add(1);
        Ok(id)
    }

    /// Replaces the row at `id`.
    pub fn update(&mut self, id: u64, row: &T) -> Result<(), TableError> {
        if !self.live.contains(&id) {
            return Err(TableError::NoSuchRow(id));
        }
        let row_json = serde_json::to_vec(row)?;
        self.segments
            .append(&op_record("Update", id, Some(&row_json)))?;
        Ok(())
    }

    /// Deletes the row at `id`.
    pub fn delete(&mut self, id: u64) -> Result<(), TableError> {
        if !self.live.contains(&id) {
            return Err(TableError::NoSuchRow(id));
        }
        self.segments.append(&op_record("Delete", id, None))?;
        self.live.remove(&id);
        Ok(())
    }
}

impl<T> Log<T> {
    /// True when row `id` is live.
    pub fn contains(&self, id: u64) -> bool {
        self.live.contains(&id)
    }

    /// The highest live row id — the latest row of an append-only table.
    pub fn last_id(&self) -> Option<u64> {
        self.live.last().copied()
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when the log has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The id the next insert receives.
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Forces the WAL to disk.
    pub fn sync(&mut self) -> Result<(), TableError> {
        self.segments.sync()?;
        Ok(())
    }

    /// Snapshot of the current log position plus a file handle that, once
    /// `sync_data`-ed, makes everything up to that position durable. The
    /// group commit leader calls this under the log lock, then fsyncs the
    /// handle with the lock released so writers keep appending.
    pub(crate) fn sync_prepare(&mut self) -> Result<(u64, std::fs::File), TableError> {
        let goal = self.segments.lsn();
        let file = self.segments.sync_handle()?;
        Ok((goal, file))
    }

    /// Consults the fault hook about `op` (no-op without a hook).
    pub(crate) fn check_fault(&self, op: WalOp) -> io::Result<()> {
        self.segments.check_fault(op)
    }

    /// Drops every record once a snapshot has made them redundant.
    pub(crate) fn truncate_all(&mut self) -> io::Result<()> {
        self.segments.truncate_all()?;
        self.update_segment_gauge();
        Ok(())
    }

    fn update_segment_gauge(&self) {
        imcf_telemetry::global()
            .gauge_with("store.segments", &[("table", &self.name)])
            .set(self.segments.segment_count() as f64);
    }

    /// Bytes currently in the WAL segments (useful for compaction
    /// policies).
    pub fn wal_bytes(&self) -> u64 {
        self.segments.tail_bytes()
    }

    /// Number of on-disk log segments (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.segments.segment_count()
    }

    /// Number of sealed (read-only) segments awaiting compaction.
    pub fn sealed_count(&self) -> usize {
        self.segments.sealed_count()
    }

    /// Monotonic log position (bytes ever appended); group commit compares
    /// these positions to decide which callers an fsync satisfied.
    pub fn wal_lsn(&self) -> u64 {
        self.segments.lsn()
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Installs a fault hook on the underlying log (see
    /// [`crate::wal::Wal::set_fault_hook`]). Injected errors surface from
    /// every mutation, `sync`, and a table's `snapshot` / `compact` as
    /// [`TableError::Io`]; no live id changes when the log write fails.
    pub fn set_wal_fault_hook<F>(&mut self, hook: F)
    where
        F: Fn(WalOp) -> Option<io::Error> + Send + Sync + 'static,
    {
        self.segments.set_fault_hook(hook);
    }

    /// Removes the WAL fault hook.
    pub fn clear_wal_fault_hook(&mut self) {
        self.segments.clear_fault_hook();
    }
}

/// The record of one [`Op`], byte for byte what `serde_json` encodes it
/// to, assembled around the already-encoded row.
fn op_record(variant: &str, id: u64, row_json: Option<&[u8]>) -> Vec<u8> {
    let row_len = row_json.map_or(0, <[u8]>::len);
    let mut out = Vec::with_capacity(row_len + 40);
    out.extend_from_slice(b"{\"");
    out.extend_from_slice(variant.as_bytes());
    out.extend_from_slice(b"\":{\"id\":");
    out.extend_from_slice(id.to_string().as_bytes());
    if let Some(row_json) = row_json {
        out.extend_from_slice(b",\"row\":");
        out.extend_from_slice(row_json);
    }
    out.extend_from_slice(b"}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Reading {
        sensor: String,
        value: f64,
    }

    fn reading(value: f64) -> Reading {
        Reading {
            sensor: "temp".into(),
            value,
        }
    }

    #[test]
    fn op_records_match_the_serde_encoding() {
        let row = reading(21.5);
        let row_json = serde_json::to_vec(&row).unwrap();
        let ops = [
            (
                op_record("Insert", 7, Some(&row_json)),
                Op::Insert {
                    id: 7,
                    row: row.clone(),
                },
            ),
            (
                op_record("Update", 8, Some(&row_json)),
                Op::Update { id: 8, row },
            ),
            (op_record("Delete", 9, None), Op::Delete { id: 9 }),
        ];
        for (hand, op) in ops {
            assert_eq!(hand, serde_json::to_vec(&op).unwrap());
        }
    }

    #[test]
    fn replay_hands_every_change_to_the_visitor_in_order() {
        let dir = tempfile::tempdir().unwrap();
        {
            let mut log: Log<Reading> = Log::open(dir.path(), "r", |_| {}).unwrap();
            let a = log.insert(&reading(1.0)).unwrap();
            let b = log.insert(&reading(2.0)).unwrap();
            log.update(a, &reading(3.0)).unwrap();
            log.delete(b).unwrap();
            assert!(matches!(log.delete(b), Err(TableError::NoSuchRow(_))));
            assert!(matches!(
                log.update(b, &reading(0.0)),
                Err(TableError::NoSuchRow(_))
            ));
            log.sync().unwrap();
        }
        let mut changes = Vec::new();
        let mut log: Log<Reading> = Log::open(dir.path(), "r", |c| changes.push(c)).unwrap();
        assert_eq!(
            changes,
            vec![
                Change::Put(0, reading(1.0)),
                Change::Put(1, reading(2.0)),
                Change::Put(0, reading(3.0)),
                Change::Delete(1),
            ]
        );
        assert_eq!((log.len(), log.last_id()), (1, Some(0)));
        assert!(log.contains(0) && !log.contains(1));
        assert_eq!(log.insert(&reading(4.0)).unwrap(), 2, "ids are not reused");
    }
}
