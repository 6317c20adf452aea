//! Cross-segment crash recovery at the table level.
//!
//! The single-file corruption suite (`tests/corruption.rs`) pins the
//! within-segment torn-tail contract; these tests extend it across segment
//! boundaries: a tear in segment `k` is the crash point, so replay keeps
//! the valid prefix of segments `1..=k` and every segment after `k` —
//! debris of an interrupted roll — is ignored *and removed*. After
//! recovery the table must stay usable: new appends land where the next
//! replay will find them.

use serde::{Deserialize, Serialize};
use std::fs::OpenOptions;
use std::ops::ControlFlow;
use std::path::Path;
use tempfile::tempdir;

use imcf_store::segment::{segment_files, SegmentConfig};
use imcf_store::table::Table;
use imcf_store::{Change, Log, Wal, WalOp};

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Row {
    tag: String,
}

fn row(i: usize) -> Row {
    Row {
        tag: format!("row-{i:04}"),
    }
}

/// Opens the table with a 256-byte seal threshold so a few dozen rows
/// spread across several segments.
fn open_small(dir: &Path) -> Table<Row> {
    Table::open_with(dir, "rows", SegmentConfig::with_segment_bytes(256)).unwrap()
}

/// Builds a multi-segment table of `n` rows (no snapshot: everything lives
/// in the log), returning the sorted segment file list.
fn populate(dir: &Path, n: usize) -> Vec<(u64, std::path::PathBuf)> {
    let mut t = open_small(dir);
    for i in 0..n {
        t.insert(row(i)).unwrap();
    }
    t.sync().unwrap();
    let files = segment_files(dir, "rows").unwrap();
    assert!(
        files.len() >= 3,
        "need several segments to test boundaries, got {}",
        files.len()
    );
    files
}

/// Asserts the surviving rows are an insertion-order prefix (ids `0..len`)
/// strictly shorter than `total` — the torn-tail contract: a prefix, never
/// a subset with holes.
fn assert_prefix(t: &Table<Row>, total: usize) -> usize {
    let len = t.len();
    assert!(
        len < total,
        "the tear must lose at least the damaged record"
    );
    assert!(len > 0, "rows before the tear must survive");
    for i in 0..len {
        assert_eq!(
            t.get(i as u64),
            Some(&row(i)),
            "row {i} of the surviving prefix"
        );
    }
    assert_eq!(t.get(len as u64), None);
    len
}

#[test]
fn tear_in_sealed_segment_discards_every_later_segment() {
    let dir = tempdir().unwrap();
    let files = populate(dir.path(), 40);
    // Tear the tail of a middle (sealed) segment mid-record.
    let (cut_seq, cut_path) = files[files.len() / 2].clone();
    let len = std::fs::metadata(&cut_path).unwrap().len();
    let f = OpenOptions::new().write(true).open(&cut_path).unwrap();
    f.set_len(len - 3).unwrap();

    let t = open_small(dir.path());
    let survived = assert_prefix(&t, 40);
    // Rows from segments before the cut are all there.
    let before_cut: usize = files
        .iter()
        .filter(|(seq, _)| *seq < cut_seq)
        .map(|(_, p)| std::fs::metadata(p).map(|m| m.len() as usize).unwrap_or(0))
        .sum();
    assert!(before_cut > 0);
    // And no segment beyond the crash point remains on disk.
    drop(t);
    let after = segment_files(dir.path(), "rows").unwrap();
    let max_seq = after.iter().map(|(s, _)| *s).max().unwrap();
    assert!(
        max_seq <= cut_seq,
        "segments after the torn one must be removed (max {max_seq}, cut {cut_seq})"
    );
    assert!(survived < 40);
}

#[test]
fn crc_damage_mid_segment_stops_replay_at_the_damage() {
    let dir = tempdir().unwrap();
    let files = populate(dir.path(), 40);
    // Flip a byte in the middle of a middle segment: the CRC check fails
    // there, ending the valid prefix inside the file.
    let (cut_seq, cut_path) = files[files.len() / 2].clone();
    let mut data = std::fs::read(&cut_path).unwrap();
    let mid = data.len() / 2;
    data[mid] ^= 0x20;
    std::fs::write(&cut_path, &data).unwrap();

    let t = open_small(dir.path());
    assert_prefix(&t, 40);
    drop(t);
    let after = segment_files(dir.path(), "rows").unwrap();
    assert!(after.iter().all(|(s, _)| *s <= cut_seq));
}

#[test]
fn tear_in_active_segment_loses_only_the_active_tail() {
    let dir = tempdir().unwrap();
    let files = populate(dir.path(), 40);
    let (active_seq, active_path) = files[files.len() - 1].clone();
    // Chop the active segment mid-record; sealed segments are untouched.
    let len = std::fs::metadata(&active_path).unwrap().len();
    let f = OpenOptions::new().write(true).open(&active_path).unwrap();
    f.set_len(len.saturating_sub(3)).unwrap();

    let t = open_small(dir.path());
    let survived = assert_prefix(&t, 40);
    // Everything sealed replays: the loss is confined to the active tail.
    let sealed_bytes: u64 = files
        .iter()
        .filter(|(seq, _)| *seq < active_seq)
        .map(|(_, p)| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .sum();
    // Each framed record here is ≥ 8 header bytes, so a conservative lower
    // bound on the sealed-row count is bytes / (largest frame we write).
    assert!(
        survived as u64 >= sealed_bytes / 64,
        "sealed rows must survive an active-tail tear"
    );
}

#[test]
fn recovery_after_cross_segment_tear_accepts_new_appends() {
    let dir = tempdir().unwrap();
    let files = populate(dir.path(), 40);
    let (_, cut_path) = files[files.len() / 2].clone();
    let len = std::fs::metadata(&cut_path).unwrap().len();
    let f = OpenOptions::new().write(true).open(&cut_path).unwrap();
    f.set_len(len - 3).unwrap();

    let survived;
    {
        let mut t = open_small(dir.path());
        survived = assert_prefix(&t, 40);
        // The recovered table keeps working: the new row lands where the
        // next replay will find it (debris overwritten, not appended-past).
        let id = t.insert(Row {
            tag: "fresh".into(),
        });
        assert_eq!(id.unwrap(), survived as u64);
        t.sync().unwrap();
    }
    let t = open_small(dir.path());
    assert_eq!(t.len(), survived + 1);
    assert_eq!(
        t.get(survived as u64),
        Some(&Row {
            tag: "fresh".into()
        })
    );
}

#[test]
fn clean_reopen_of_multi_segment_log_replays_everything() {
    let dir = tempdir().unwrap();
    let files = populate(dir.path(), 40);
    let t = open_small(dir.path());
    assert_eq!(t.len(), 40);
    for i in 0..40 {
        assert_eq!(t.get(i as u64), Some(&row(i)));
    }
    assert_eq!(t.log().segment_count(), files.len());
    assert_eq!(t.log().sealed_count(), files.len() - 1);
}

/// The compaction crash window: the fresh snapshot is published (temp
/// file fsynced, renamed over the live snapshot, rename persisted) but
/// the process dies before any log segment is removed. Disk then holds
/// the new snapshot *and* the complete stale log — and replaying that
/// log over the snapshot must be idempotent: reopen yields exactly the
/// pre-crash rows, and the table keeps allocating non-colliding ids.
#[test]
fn crash_between_snapshot_publish_and_segment_removal_loses_nothing() {
    let dir = tempdir().unwrap();
    let files_before = populate(dir.path(), 40);
    {
        let mut t = open_small(dir.path());
        // Kill the compaction at the crash point: the truncation fault
        // fires after `finish_compaction` has made the snapshot durable,
        // before the first segment is unlinked. Dropping the table
        // without clearing the hook or retrying models the process
        // dying right there.
        t.set_wal_fault_hook(|op| {
            matches!(op, WalOp::Truncate).then(|| std::io::Error::other("injected: power loss"))
        });
        let err = t.compact(4).expect_err("compaction must surface the crash");
        assert!(err.to_string().contains("power loss"), "{err}");
    }

    // The crash left both halves on disk: the published snapshot and
    // every stale segment.
    assert!(
        dir.path().join("rows.snap").exists(),
        "snapshot publication precedes segment removal"
    );
    let files_after = segment_files(dir.path(), "rows").unwrap();
    assert_eq!(
        files_after.len(),
        files_before.len(),
        "no segment may vanish before the crash point"
    );

    // Reopen: snapshot + idempotent replay of the stale log = the exact
    // pre-crash rows, once each.
    let mut t = open_small(dir.path());
    assert_eq!(t.len(), 40);
    for i in 0..40 {
        assert_eq!(t.get(i as u64), Some(&row(i)), "row {i} after recovery");
    }
    // The recovered table continues cleanly: the next id does not
    // collide with replayed rows, and a later reopen still sees it.
    let id = t.insert(row(40)).unwrap();
    assert_eq!(id, 40);
    t.sync().unwrap();
    drop(t);
    let t = open_small(dir.path());
    assert_eq!(t.len(), 41);
    assert_eq!(t.get(40), Some(&row(40)));
}

#[test]
fn compaction_collapses_segments_and_preserves_state() {
    let dir = tempdir().unwrap();
    populate(dir.path(), 40);
    {
        let mut t = open_small(dir.path());
        assert!(t.log().sealed_count() > 0);
        t.compact(4).unwrap();
        assert_eq!(t.log().wal_bytes(), 0);
        assert_eq!(
            t.log().sealed_count(),
            0,
            "compaction drops sealed segments"
        );
    }
    // Only the (empty) active segment remains on disk.
    let files = segment_files(dir.path(), "rows").unwrap();
    assert_eq!(files.len(), 1);
    let t = open_small(dir.path());
    assert_eq!(t.len(), 40);
    for i in 0..40 {
        assert_eq!(t.get(i as u64), Some(&row(i)));
    }
}

/// Appends a CRC-valid record that is no decodable operation — the shape
/// of a version-mismatched write — to a sealed segment in the middle of a
/// 40-row log. Returns that segment's sequence number and the rows the
/// segments up to it hold, which is what replay must stop after.
fn plant_undecodable_in_sealed_segment(dir: &Path) -> (u64, usize) {
    let files = populate(dir, 40);
    let (cut_seq, cut_path) = files[files.len() / 2].clone();
    let rows_through_cut: usize = files
        .iter()
        .filter(|(seq, _)| *seq <= cut_seq)
        .map(|(_, path)| {
            let mut count = 0;
            Wal::open(path)
                .unwrap()
                .replay(|_| {
                    count += 1;
                    ControlFlow::Continue(())
                })
                .unwrap();
            count
        })
        .sum();
    assert!(
        rows_through_cut < 40,
        "the cut segment must not be the last"
    );
    let mut wal = Wal::open(&cut_path).unwrap();
    wal.append(b"{\"not\":\"an op\"}").unwrap();
    wal.sync().unwrap();
    (cut_seq, rows_through_cut)
}

/// The highest segment sequence number left on disk.
fn last_seq(dir: &Path) -> u64 {
    segment_files(dir, "rows").unwrap().last().unwrap().0
}

#[test]
fn undecodable_record_in_a_sealed_segment_ends_the_table_there() {
    let dir = tempdir().unwrap();
    let (cut_seq, survivors) = plant_undecodable_in_sealed_segment(dir.path());
    {
        let mut t = open_small(dir.path());
        assert_eq!(t.len(), survivors, "replay stops at the planted record");
        assert_prefix(&t, 40);
        assert_eq!(last_seq(dir.path()), cut_seq, "later segments removed");
        let id = t.insert(row(999)).unwrap();
        assert_eq!(id, survivors as u64);
        t.sync().unwrap();
    }
    let t = open_small(dir.path());
    assert_eq!(t.len(), survivors + 1, "the append after reopen survives");
    assert_eq!(t.get(survivors as u64), Some(&row(999)));
}

#[test]
fn undecodable_record_in_a_sealed_segment_ends_the_row_less_log_there() {
    let dir = tempdir().unwrap();
    let (cut_seq, survivors) = plant_undecodable_in_sealed_segment(dir.path());
    let open = |seen: &mut Vec<u64>| {
        Log::<Row>::open_with(
            dir.path(),
            "rows",
            SegmentConfig::with_segment_bytes(256),
            |change| {
                if let Change::Put(id, _) = change {
                    seen.push(id);
                }
            },
        )
        .unwrap()
    };
    let mut seen = Vec::new();
    {
        let mut log = open(&mut seen);
        let prefix: Vec<u64> = (0..survivors as u64).collect();
        assert_eq!(seen, prefix, "replay stops at the planted record");
        assert_eq!(log.len(), survivors);
        assert_eq!(last_seq(dir.path()), cut_seq, "later segments removed");
        assert_eq!(log.insert(&row(999)).unwrap(), survivors as u64);
        log.sync().unwrap();
    }
    seen.clear();
    let log = open(&mut seen);
    assert_eq!(log.len(), survivors + 1, "the append after reopen survives");
    assert_eq!(seen.last(), Some(&(survivors as u64)));
}
