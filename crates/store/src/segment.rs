//! Segmented write-ahead logs.
//!
//! A [`SegmentedLog`] spreads one table's redo log across numbered files
//! `<table>.wal.<seq>` with monotonically increasing sequence numbers. The
//! highest-numbered segment is *active* (appends go there); lower segments
//! are *sealed* — fsynced at the moment they rolled, never written again.
//! A segment seals when the active file reaches the configured threshold,
//! so replay cost and compaction granularity are bounded by segment size,
//! not total history.
//!
//! Recovery discipline across segments extends the single-file torn-tail
//! rule: segments replay in sequence order, and the first segment whose
//! valid record prefix is shorter than its physical length marks the crash
//! point — every later segment is debris of an interrupted roll and is
//! removed, exactly as bytes after a torn record are discarded within one
//! file. The seed's single-file layout `<table>.wal` is migrated on open
//! by renaming it to segment 1.
//!
//! Open replays the records through a visitor one segment at a time, and
//! within a segment one record at a time, so replay memory is one record
//! however long the history. The visitor may refuse a record (one that
//! does not decode): the log then ends right before it, and every later
//! segment is removed, so no later append can land beyond records that
//! will never replay.

use crate::wal::{Wal, WalFaultHook, WalOp};
use std::io;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default segment-size threshold: the active segment seals once it holds
/// at least this many bytes.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// Tuning knobs for the segmented log.
#[derive(Debug, Clone, Copy)]
pub struct SegmentConfig {
    /// Seal the active segment once it reaches this many bytes.
    pub segment_bytes: u64,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }
}

impl SegmentConfig {
    /// A config with the given seal threshold (floored at one byte so a
    /// zero threshold cannot seal empty segments forever).
    pub fn with_segment_bytes(segment_bytes: u64) -> Self {
        SegmentConfig {
            segment_bytes: segment_bytes.max(1),
        }
    }
}

/// A sealed (read-only) segment.
#[derive(Debug, Clone)]
struct SealedSegment {
    path: PathBuf,
    bytes: u64,
}

/// The path of segment `seq` of table `name` in `dir`.
pub fn segment_path(dir: &Path, name: &str, seq: u64) -> PathBuf {
    dir.join(format!("{name}.wal.{seq}"))
}

/// Lists the on-disk segments of table `name`, sorted by sequence number.
pub fn segment_files(dir: &Path, name: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let prefix = format!("{name}.wal.");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let fname = entry.file_name();
        let fname = fname.to_string_lossy();
        if let Some(tail) = fname.strip_prefix(prefix.as_str()) {
            if !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()) {
                if let Ok(seq) = tail.parse::<u64>() {
                    out.push((seq, entry.path()));
                }
            }
        }
    }
    out.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// A write-ahead log split across sealed segments plus one active tail.
pub struct SegmentedLog {
    dir: PathBuf,
    name: String,
    config: SegmentConfig,
    sealed: Vec<SealedSegment>,
    sealed_bytes: u64,
    active: Wal,
    active_seq: u64,
    /// Bytes retired by past compactions; keeps [`SegmentedLog::lsn`]
    /// monotonic across truncation so group commit can compare positions.
    base: u64,
    faults: Option<Arc<WalFaultHook>>,
}

impl SegmentedLog {
    /// Opens (or creates) the segmented log for table `name` in `dir`,
    /// migrating a legacy single-file `<name>.wal` to segment 1, applying
    /// the cross-segment torn-tail discipline, and handing every record to
    /// `visit` in sequence order. A record `visit` breaks at ends the log:
    /// its segment is truncated right before it and every later segment is
    /// removed.
    pub fn open(
        dir: &Path,
        name: &str,
        config: SegmentConfig,
        mut visit: impl FnMut(&[u8]) -> ControlFlow<()>,
    ) -> io::Result<SegmentedLog> {
        let legacy = dir.join(format!("{name}.wal"));
        let mut segs = segment_files(dir, name)?;
        if segs.is_empty() && legacy.is_file() {
            let first = segment_path(dir, name, 1);
            std::fs::rename(&legacy, &first)?;
            segs.push((1, first));
        }
        if segs.is_empty() {
            let active = Wal::open(segment_path(dir, name, 1))?;
            return Ok(SegmentedLog {
                dir: dir.to_path_buf(),
                name: name.to_string(),
                config,
                sealed: Vec::new(),
                sealed_bytes: 0,
                active,
                active_seq: 1,
                base: 0,
                faults: None,
            });
        }

        let mut wals = Vec::with_capacity(segs.len());
        for (_, path) in &segs {
            wals.push(Wal::open(path)?);
        }
        // The first segment whose valid prefix is shorter than its
        // physical length is the crash point: every later segment is the
        // debris of an interrupted roll and must not replay (appends after
        // the tear would otherwise land beyond never-replayed records).
        let mut cut = wals.iter().position(Wal::has_torn_tail);
        let mut refused = None;
        for (i, wal) in wals.iter_mut().enumerate() {
            if cut.is_some_and(|cut| i > cut) {
                break;
            }
            if let Some(start) = wal.replay(&mut visit)? {
                cut = Some(i);
                refused = Some(start);
                break;
            }
        }
        if let Some(cut) = cut {
            for (_, path) in segs.drain(cut.saturating_add(1)..) {
                std::fs::remove_file(path)?;
            }
            wals.truncate(cut.saturating_add(1));
        }
        // Truncate only once the later segments are gone: a crash in
        // between leaves the refused record in place, so the next open
        // stops at it again instead of replaying what lies beyond.
        if let (Some(start), Some(wal)) = (refused, wals.last_mut()) {
            wal.truncate_to(start)?;
        }

        let active = wals
            .pop()
            .ok_or_else(|| io::Error::other("no segments after recovery"))?;
        let (active_seq, _) = segs[segs.len() - 1];
        let sealed: Vec<SealedSegment> = segs[..segs.len() - 1]
            .iter()
            .zip(wals.iter())
            .map(|((_, path), wal)| SealedSegment {
                path: path.clone(),
                bytes: wal.len_bytes(),
            })
            .collect();
        let sealed_bytes = sealed.iter().map(|s| s.bytes).sum();
        Ok(SegmentedLog {
            dir: dir.to_path_buf(),
            name: name.to_string(),
            config,
            sealed,
            sealed_bytes,
            active,
            active_seq,
            base: 0,
            faults: None,
        })
    }

    /// Installs a fault hook consulted before every append, sync, seal,
    /// compact and truncate on any segment.
    pub fn set_fault_hook<F>(&mut self, hook: F)
    where
        F: Fn(WalOp) -> Option<io::Error> + Send + Sync + 'static,
    {
        let hook: Arc<WalFaultHook> = Arc::new(hook);
        self.faults = Some(Arc::clone(&hook));
        self.active.set_fault_hook_shared(Some(hook));
    }

    /// Removes the fault hook.
    pub fn clear_fault_hook(&mut self) {
        self.faults = None;
        self.active.set_fault_hook_shared(None);
    }

    /// Consults the fault hook about `op` (no-op without a hook).
    pub fn check_fault(&self, op: WalOp) -> io::Result<()> {
        if let Some(hook) = &self.faults {
            if let Some(err) = hook(op) {
                return Err(err);
            }
        }
        Ok(())
    }

    /// Appends one record, sealing the active segment first when it has
    /// reached the size threshold. Seal-before-append keeps failure atomic:
    /// an injected seal fault leaves the log exactly as it was.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.active.len_bytes() >= self.config.segment_bytes && self.active.len_bytes() > 0 {
            self.seal()?;
        }
        self.active.append(payload)
    }

    /// Seals the active segment (fsync, then roll to the next sequence
    /// number). The sealed file is never written again.
    fn seal(&mut self) -> io::Result<()> {
        self.check_fault(WalOp::Seal)?;
        // A torn tail inherited at open must not survive into a sealed
        // (read-only) file, where no append would ever truncate it.
        self.active.discard_debris()?;
        self.active.sync()?;
        let next_seq = self
            .active_seq
            .checked_add(1)
            .ok_or_else(|| io::Error::other("segment sequence overflow"))?;
        let mut next = Wal::open(segment_path(&self.dir, &self.name, next_seq))?;
        next.set_fault_hook_shared(self.faults.clone());
        let old = std::mem::replace(&mut self.active, next);
        self.sealed_bytes = self.sealed_bytes.saturating_add(old.len_bytes());
        self.sealed.push(SealedSegment {
            path: old.path().to_path_buf(),
            bytes: old.len_bytes(),
        });
        self.active_seq = next_seq;
        Ok(())
    }

    /// Forces an fsync of the active segment (sealed segments were synced
    /// when they rolled).
    pub fn sync(&mut self) -> io::Result<()> {
        self.active.sync()
    }

    /// A duplicated handle to the active segment, for fsyncing outside the
    /// owner's lock. Consults the fault hook as a [`WalOp::Sync`]. Bytes
    /// up to the current [`SegmentedLog::lsn`] are covered: sealed
    /// segments were fsynced when they rolled, and every active-segment
    /// append is visible through the clone.
    pub(crate) fn sync_handle(&self) -> io::Result<std::fs::File> {
        self.check_fault(WalOp::Sync)?;
        self.active.file_clone()
    }

    /// Drops every record in the log: truncates the active segment and
    /// removes the sealed ones (the durability point after a compaction
    /// has persisted a snapshot). The log position stays monotonic.
    pub fn truncate_all(&mut self) -> io::Result<()> {
        let new_base = self.lsn();
        self.active.truncate()?;
        self.base = new_base;
        for s in self.sealed.drain(..) {
            std::fs::remove_file(&s.path)?;
        }
        self.sealed_bytes = 0;
        Ok(())
    }

    /// Monotonic log position: bytes ever appended (never decreases, even
    /// across compaction). Group commit compares these positions.
    pub fn lsn(&self) -> u64 {
        self.base
            .saturating_add(self.sealed_bytes)
            .saturating_add(self.active.len_bytes())
    }

    /// Bytes currently in the log (sealed segments + active tail).
    pub fn tail_bytes(&self) -> u64 {
        self.sealed_bytes.saturating_add(self.active.len_bytes())
    }

    /// Number of on-disk segments (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len().saturating_add(1)
    }

    /// Number of sealed (read-only) segments — compaction's reclaimable set.
    pub fn sealed_count(&self) -> usize {
        self.sealed.len()
    }

    /// Path of the active segment (the one appends go to).
    pub fn active_path(&self) -> &Path {
        self.active.path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 64-byte threshold: a handful of records per segment.
    fn config() -> SegmentConfig {
        SegmentConfig::with_segment_bytes(64)
    }

    fn tiny(dir: &Path) -> SegmentedLog {
        SegmentedLog::open(dir, "t", config(), |_| ControlFlow::Continue(())).unwrap()
    }

    fn replay(dir: &Path) -> Vec<Vec<u8>> {
        let mut records = Vec::new();
        SegmentedLog::open(dir, "t", config(), |payload| {
            records.push(payload.to_vec());
            ControlFlow::Continue(())
        })
        .unwrap();
        records
    }

    #[test]
    fn appends_roll_into_numbered_segments() {
        let t = tempfile::tempdir().unwrap();
        let mut log = tiny(t.path());
        for i in 0..20u32 {
            log.append(format!("record-{i:04}").as_bytes()).unwrap();
        }
        assert!(log.segment_count() > 1, "64-byte threshold must roll");
        let files = segment_files(t.path(), "t").unwrap();
        assert_eq!(files.len(), log.segment_count());
        let seqs: Vec<u64> = files.iter().map(|(s, _)| *s).collect();
        let expect: Vec<u64> = (1..=seqs.len() as u64).collect();
        assert_eq!(seqs, expect, "sequence numbers are contiguous from 1");
        drop(log);
        let records = replay(t.path());
        assert_eq!(records.len(), 20);
        assert_eq!(records[7], b"record-0007".to_vec());
    }

    #[test]
    fn legacy_single_file_wal_migrates_to_segment_one() {
        let t = tempfile::tempdir().unwrap();
        {
            let mut wal = Wal::open(t.path().join("t.wal")).unwrap();
            wal.append(b"old-world").unwrap();
            wal.sync().unwrap();
        }
        let records = replay(t.path());
        assert_eq!(records, vec![b"old-world".to_vec()]);
        assert!(!t.path().join("t.wal").exists());
        assert!(t.path().join("t.wal.1").exists());
    }

    #[test]
    fn lsn_is_monotonic_across_truncate_all() {
        let t = tempfile::tempdir().unwrap();
        let mut log = tiny(t.path());
        for _ in 0..12 {
            log.append(b"0123456789abcdef").unwrap();
        }
        let before = log.lsn();
        assert!(before > 0);
        log.truncate_all().unwrap();
        assert_eq!(log.lsn(), before, "truncation must not rewind the lsn");
        assert_eq!(log.tail_bytes(), 0);
        assert_eq!(log.segment_count(), 1);
        log.append(b"more").unwrap();
        assert!(log.lsn() > before);
    }

    #[test]
    fn seal_fault_leaves_log_unchanged() {
        let t = tempfile::tempdir().unwrap();
        let mut log = tiny(t.path());
        // 3 × 28 framed bytes = 84 > 64: the NEXT append must seal first.
        for _ in 0..3 {
            log.append(b"0123456789abcdefghij").unwrap();
        }
        let segments = log.segment_count();
        let lsn = log.lsn();
        log.set_fault_hook(|op| {
            matches!(op, WalOp::Seal).then(|| io::Error::other("injected: wal_seal"))
        });
        // The active segment is over threshold, so this append must seal
        // first — and the injected seal fault must fail it atomically.
        assert!(log.append(b"never-lands").is_err());
        assert_eq!(log.segment_count(), segments);
        assert_eq!(log.lsn(), lsn);
        log.clear_fault_hook();
        log.append(b"lands").unwrap();
        assert_eq!(log.segment_count(), segments + 1);
    }
}
