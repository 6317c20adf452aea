//! The append-only write-ahead log.
//!
//! Record framing on disk:
//!
//! ```text
//! ┌───────────┬───────────┬──────────────┐
//! │ len: u32  │ crc: u32  │ payload[len] │   (little-endian header)
//! └───────────┴───────────┴──────────────┘
//! ```
//!
//! Appends are buffered and flushed per record; [`Wal::sync`] forces an
//! fsync for durability points. Reading tolerates a *torn tail*: a record
//! whose header or payload is incomplete, or whose CRC mismatches, ends the
//! replay — everything before it is intact, everything after it is treated
//! as the debris of an interrupted write and truncated on the next append.

use crate::crc32::crc32;
use bytes::{BufMut, BytesMut};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

/// Maximum payload size accepted per record (16 MiB) — a guard against
/// reading garbage lengths from a corrupt header.
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

const HEADER_LEN: usize = 8;

/// Fault hook consulted before each append / sync: `Some(err)` fails the
/// operation with that error before any bytes reach the file. Installed by
/// the chaos plane; the WAL knows nothing about fault *schedules*.
pub type WalFaultHook = dyn Fn(WalOp) -> Option<io::Error> + Send + Sync;

/// The WAL operation a fault hook is being consulted about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// A record append.
    Append,
    /// An fsync durability point.
    Sync,
    /// Sealing the active segment and rolling to the next sequence number.
    Seal,
    /// A compaction pass (snapshot rewrite + segment drop).
    Compact,
    /// Truncating a log file (the durability point after compaction).
    Truncate,
}

/// An append-only CRC-checked log file.
pub struct Wal {
    path: PathBuf,
    file: File,
    /// Byte offset of the end of the last valid record.
    valid_len: u64,
    /// Bytes physically in the file, including any torn-tail debris. Kept
    /// current so appends never need a `metadata()` syscall: debris can
    /// only exist at open time (a crash mid-write), never appear later.
    physical_len: u64,
    faults: Option<std::sync::Arc<WalFaultHook>>,
}

impl Wal {
    /// Opens (or creates) the log at `path` and scans it to find the valid
    /// prefix.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let physical_len = file.metadata()?.len();
        let (valid_len, _) = read_records(&mut file, physical_len, |_| ControlFlow::Continue(()))?;
        Ok(Wal {
            path,
            file,
            valid_len,
            physical_len,
            faults: None,
        })
    }

    /// Installs a fault hook consulted before every append and sync.
    pub fn set_fault_hook<F>(&mut self, hook: F)
    where
        F: Fn(WalOp) -> Option<io::Error> + Send + Sync + 'static,
    {
        self.faults = Some(std::sync::Arc::new(hook));
    }

    /// Installs an already-shared fault hook (used by the segmented log to
    /// hand every segment the same hook instance).
    pub fn set_fault_hook_shared(&mut self, hook: Option<std::sync::Arc<WalFaultHook>>) {
        self.faults = hook;
    }

    /// Removes the fault hook.
    pub fn clear_fault_hook(&mut self) {
        self.faults = None;
    }

    fn injected_fault(&self, op: WalOp) -> Option<io::Error> {
        self.faults.as_ref().and_then(|hook| hook(op))
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Byte length of the valid record prefix.
    pub fn len_bytes(&self) -> u64 {
        self.valid_len
    }

    /// Bytes physically on disk, including torn-tail debris.
    pub fn physical_bytes(&self) -> u64 {
        self.physical_len
    }

    /// True when the file carries bytes beyond the valid prefix — the
    /// debris of an interrupted write.
    pub fn has_torn_tail(&self) -> bool {
        self.physical_len != self.valid_len
    }

    /// Appends one record. If a torn tail is present from a previous crash,
    /// it is truncated first.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        assert!(
            payload.len() as u64 <= MAX_RECORD_LEN as u64,
            "record too large"
        );
        if let Some(err) = self.injected_fault(WalOp::Append) {
            return Err(err);
        }
        // Torn-tail debris only exists at open time; `physical_len` tracks
        // the file length so no per-append `metadata()` syscall is needed.
        if self.physical_len != self.valid_len {
            self.file.set_len(self.valid_len)?;
            self.physical_len = self.valid_len;
        }
        let mut buf = BytesMut::with_capacity(HEADER_LEN + payload.len());
        buf.put_u32_le(payload.len() as u32);
        buf.put_u32_le(crc32(payload));
        buf.put_slice(payload);
        // The file is opened in append mode: every write lands at EOF,
        // which equals `valid_len` once the debris (if any) is truncated
        // above — no per-append seek syscall needed.
        self.file.write_all(&buf)?;
        self.valid_len += buf.len() as u64;
        self.physical_len = self.valid_len;
        Ok(())
    }

    /// Forces an fsync of the log file.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some(err) = self.injected_fault(WalOp::Sync) {
            return Err(err);
        }
        self.file.sync_data()
    }

    /// A duplicated handle to the log file. Appends write through to the
    /// kernel (no userspace buffering), so `sync_data` on the clone makes
    /// every record appended so far durable — this is what lets a group
    /// commit leader fsync *outside* the table lock while writers keep
    /// appending.
    pub(crate) fn file_clone(&self) -> io::Result<File> {
        self.file.try_clone()
    }

    /// Streams every valid record to `visit`, in file order, through one
    /// buffered reader and one reused payload buffer: replay memory is one
    /// record, not the file. When `visit` breaks, returns the byte offset
    /// at which that record starts — the truncation point that drops it
    /// and everything after it.
    pub fn replay(
        &mut self,
        visit: impl FnMut(&[u8]) -> ControlFlow<()>,
    ) -> io::Result<Option<u64>> {
        let (_, broke_at) = read_records(&mut self.file, self.valid_len, visit)?;
        Ok(broke_at)
    }

    /// Physically drops any torn-tail debris beyond the valid prefix,
    /// without consulting the fault hook (debris removal is not a logged
    /// operation — it re-establishes the invariant appends rely on).
    pub(crate) fn discard_debris(&mut self) -> io::Result<()> {
        if self.physical_len != self.valid_len {
            self.file.set_len(self.valid_len)?;
            self.physical_len = self.valid_len;
        }
        Ok(())
    }

    /// Truncates the log to empty (used after snapshotting). Routed
    /// through the fault hook as [`WalOp::Truncate`] so compaction faults
    /// are injectable.
    pub fn truncate(&mut self) -> io::Result<()> {
        self.truncate_to(0)
    }

    /// Truncates the log to `offset` bytes — a record boundary established
    /// by a prior scan — and fsyncs. Consults the fault hook first.
    pub fn truncate_to(&mut self, offset: u64) -> io::Result<()> {
        if let Some(err) = self.injected_fault(WalOp::Truncate) {
            return Err(err);
        }
        self.file.set_len(offset)?;
        self.valid_len = offset;
        self.physical_len = offset;
        self.file.sync_data()
    }
}

/// Reads the records in the first `limit` bytes of `file` and hands each
/// CRC-valid payload to `visit`, stopping at the first torn or corrupt
/// one. Returns the offset at which the last record read ends and, when
/// `visit` broke, the offset at which the record it broke at starts.
fn read_records(
    file: &mut File,
    limit: u64,
    mut visit: impl FnMut(&[u8]) -> ControlFlow<()>,
) -> io::Result<(u64, Option<u64>)> {
    file.seek(SeekFrom::Start(0))?;
    let mut reader = io::BufReader::new(file.take(limit));
    let mut payload = Vec::new();
    let mut offset = 0u64;
    loop {
        let mut header = [0u8; HEADER_LEN];
        match reader.read_exact(&mut header) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e),
        }
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len > MAX_RECORD_LEN {
            break;
        }
        payload.resize(len as usize, 0);
        match reader.read_exact(&mut payload) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e),
        }
        if crc32(&payload) != crc {
            break;
        }
        if visit(&payload).is_break() {
            return Ok((offset, Some(offset)));
        }
        offset += (HEADER_LEN + payload.len()) as u64;
    }
    Ok((offset, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Wal {
        /// Every valid record, collected.
        fn read_all(&mut self) -> io::Result<Vec<Vec<u8>>> {
            let mut records = Vec::new();
            self.replay(|payload| {
                records.push(payload.to_vec());
                ControlFlow::Continue(())
            })?;
            Ok(records)
        }
    }

    fn temp_wal() -> (tempfile::TempDir, Wal) {
        let dir = tempfile::tempdir().unwrap();
        let wal = Wal::open(dir.path().join("test.wal")).unwrap();
        (dir, wal)
    }

    #[test]
    fn append_and_read_round_trip() {
        let (_dir, mut wal) = temp_wal();
        wal.append(b"alpha").unwrap();
        wal.append(b"").unwrap();
        wal.append(b"gamma-delta").unwrap();
        let records = wal.read_all().unwrap();
        assert_eq!(
            records,
            vec![b"alpha".to_vec(), b"".to_vec(), b"gamma-delta".to_vec()]
        );
    }

    #[test]
    fn reopen_preserves_records() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("reopen.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"one").unwrap();
            wal.append(b"two").unwrap();
            wal.sync().unwrap();
        }
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.read_all().unwrap().len(), 2);
        wal.append(b"three").unwrap();
        assert_eq!(wal.read_all().unwrap().len(), 3);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("torn.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"intact-record").unwrap();
            wal.append(b"to-be-torn").unwrap();
            wal.sync().unwrap();
        }
        // Tear the last record: chop 3 bytes off the file.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();

        let mut wal = Wal::open(&path).unwrap();
        let records = wal.read_all().unwrap();
        assert_eq!(records, vec![b"intact-record".to_vec()]);
        // Appending after recovery truncates the debris and stays readable.
        wal.append(b"fresh").unwrap();
        let records = wal.read_all().unwrap();
        assert_eq!(records, vec![b"intact-record".to_vec(), b"fresh".to_vec()]);
    }

    #[test]
    fn corrupt_crc_ends_replay() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("corrupt.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"good").unwrap();
            wal.append(b"evil").unwrap();
            wal.sync().unwrap();
        }
        // Flip a payload byte in the second record.
        let mut data = std::fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();

        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.read_all().unwrap(), vec![b"good".to_vec()]);
    }

    #[test]
    fn garbage_length_header_is_contained() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("garbage.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"fine").unwrap();
        }
        // Append a header claiming a huge record.
        let mut data = std::fs::read(&path).unwrap();
        data.extend_from_slice(&u32::MAX.to_le_bytes());
        data.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &data).unwrap();

        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.read_all().unwrap(), vec![b"fine".to_vec()]);
    }

    #[test]
    fn truncate_empties_log() {
        let (_dir, mut wal) = temp_wal();
        wal.append(b"x").unwrap();
        wal.truncate().unwrap();
        assert_eq!(wal.len_bytes(), 0);
        assert!(wal.read_all().unwrap().is_empty());
        wal.append(b"y").unwrap();
        assert_eq!(wal.read_all().unwrap(), vec![b"y".to_vec()]);
    }

    #[test]
    fn fault_hook_fails_append_and_sync_then_recovers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let (_dir, mut wal) = temp_wal();
        wal.append(b"before").unwrap();
        let arm = Arc::new(AtomicBool::new(true));
        let armed = arm.clone();
        wal.set_fault_hook(move |op| {
            armed.load(Ordering::SeqCst).then(|| {
                io::Error::other(match op {
                    WalOp::Append => "injected: wal_write",
                    WalOp::Sync => "injected: wal_sync",
                    WalOp::Seal => "injected: wal_seal",
                    WalOp::Compact => "injected: wal_compact",
                    WalOp::Truncate => "injected: wal_truncate",
                })
            })
        });
        assert!(wal.append(b"lost").is_err());
        assert!(wal.sync().is_err());
        // The failed append wrote nothing.
        assert_eq!(wal.read_all().unwrap(), vec![b"before".to_vec()]);
        // Disarm: the log keeps working.
        arm.store(false, Ordering::SeqCst);
        wal.append(b"after").unwrap();
        wal.sync().unwrap();
        assert_eq!(
            wal.read_all().unwrap(),
            vec![b"before".to_vec(), b"after".to_vec()]
        );
        wal.clear_fault_hook();
        wal.append(b"clean").unwrap();
        assert_eq!(wal.read_all().unwrap().len(), 3);
    }

    #[test]
    fn empty_log_reads_empty() {
        let (_dir, mut wal) = temp_wal();
        assert!(wal.read_all().unwrap().is_empty());
        assert_eq!(wal.len_bytes(), 0);
    }
}
