//! Group commit: batching concurrent durability requests into one fsync.
//!
//! [`SharedTable`] wraps a row-less [`Log`] for multi-writer use. Appends
//! serialize on the log lock (cheap buffered writes); durability goes
//! through a [`CommitQueue`]-style protocol: each `sync()` caller records
//! the log position it needs durable, and the first caller to find no
//! fsync in flight becomes the *leader* — it re-reads the log position
//! under the log lock (picking up every append that raced in) and issues
//! **one** fsync for the whole batch. Callers whose position that fsync
//! covered return without ever touching the disk; the rest elect the next
//! leader. Under N concurrent writers this amortizes the dominant cost
//! (the fsync) across the batch, which is where the multi-writer
//! throughput of the storage engine comes from.
//!
//! Error semantics: a failed leader fsync fails the leader's own `sync()`
//! with the real error, and fails the waiters of that round with a
//! `group commit leader failed` error — acknowledged positions never move
//! forward on a failed fsync.

use crate::log::{Log, TableError};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Poison-tolerant lock (a panicked writer must not wedge the store).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The group-commit ledger.
struct CommitState {
    /// Highest log position any caller has asked to make durable.
    requested_lsn: u64,
    /// Highest log position known durable.
    durable_lsn: u64,
    /// True while a leader's fsync is in flight.
    syncing: bool,
    /// Sync requests enrolled since the last leader claimed a batch.
    pending: u64,
    /// Bumped when a leader fsync fails; waiters of that round bail out.
    failed_rounds: u64,
}

struct Shared<T> {
    log: Mutex<Log<T>>,
    state: Mutex<CommitState>,
    batch_done: Condvar,
    /// Cache of the log position, refreshed after every mutation, so
    /// `sync()` reads its durability target without touching the log lock
    /// (which would contend with concurrent appends).
    lsn: AtomicU64,
}

/// A multi-writer handle over a [`Log`] with group-commit durability.
pub struct SharedTable<T> {
    inner: Arc<Shared<T>>,
}

impl<T> Clone for SharedTable<T> {
    fn clone(&self) -> Self {
        SharedTable {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Serialize + DeserializeOwned> SharedTable<T> {
    /// Wraps a log for shared multi-writer use.
    pub fn new(log: Log<T>) -> Self {
        let lsn = log.wal_lsn();
        SharedTable {
            inner: Arc::new(Shared {
                log: Mutex::new(log),
                state: Mutex::new(CommitState {
                    requested_lsn: 0,
                    durable_lsn: 0,
                    syncing: false,
                    pending: 0,
                    failed_rounds: 0,
                }),
                batch_done: Condvar::new(),
                lsn: AtomicU64::new(lsn),
            }),
        }
    }

    /// Runs `f` with exclusive access to the wrapped log (fault hooks,
    /// live ids — anything the plain [`Log`] API offers).
    pub fn with<R>(&self, f: impl FnOnce(&mut Log<T>) -> R) -> R {
        let mut log = lock(&self.inner.log);
        let out = f(&mut log);
        // `f` may have appended; refresh the cache.
        self.inner.lsn.store(log.wal_lsn(), Ordering::Release);
        out
    }

    /// Inserts a row and returns its id (logged, not yet durable — call
    /// [`SharedTable::sync`] for the durability point).
    pub fn insert(&self, row: T) -> Result<u64, TableError> {
        // Encode outside the log lock: under N writers the lock guards
        // only id assignment plus the (buffered) log write.
        let row_json = serde_json::to_vec(&row)?;
        let mut log = lock(&self.inner.log);
        // The append IS the serialization point: id assignment and log
        // order must agree, so it runs under the log lock by design.
        // The slow operation (fsync) happens outside the lock in sync().
        // imcf-lint: allow(L007)
        let id = log.insert_encoded(&row_json)?;
        self.inner.lsn.store(log.wal_lsn(), Ordering::Release);
        Ok(id)
    }

    /// Replaces the row at `id`.
    pub fn update(&self, id: u64, row: T) -> Result<(), TableError> {
        let mut log = lock(&self.inner.log);
        log.update(id, &row)?;
        self.inner.lsn.store(log.wal_lsn(), Ordering::Release);
        Ok(())
    }

    /// Deletes the row at `id`.
    pub fn delete(&self, id: u64) -> Result<(), TableError> {
        let mut log = lock(&self.inner.log);
        log.delete(id)?;
        self.inner.lsn.store(log.wal_lsn(), Ordering::Release);
        Ok(())
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        lock(&self.inner.log).len()
    }

    /// True when the log has no live rows.
    pub fn is_empty(&self) -> bool {
        lock(&self.inner.log).is_empty()
    }

    /// Makes everything appended so far durable, batching with every other
    /// concurrent `sync()` caller into as few fsyncs as possible.
    pub fn sync(&self) -> Result<(), TableError> {
        // The cached position is ≥ this caller's own last mutation (the
        // cache is refreshed before the mutation's lock is released), so
        // reaching it durably acknowledges everything the caller wrote.
        let target = self.inner.lsn.load(Ordering::Acquire);
        let mut st = lock(&self.inner.state);
        if st.durable_lsn >= target {
            return Ok(());
        }
        st.requested_lsn = st.requested_lsn.max(target);
        st.pending = st.pending.saturating_add(1);
        loop {
            if st.durable_lsn >= target {
                return Ok(());
            }
            if !st.syncing {
                // Become the leader for everything enrolled so far.
                st.syncing = true;
                let batch = st.pending.max(1);
                st.pending = 0;
                drop(st);
                // Re-read the position under the log lock (the fsync
                // also covers appends that landed while we queued), but
                // run the fsync itself on a duplicated file handle with
                // the lock RELEASED — writers keep appending during the
                // disk wait, which is what lets the next batch grow.
                let prep = {
                    let mut log = lock(&self.inner.log);
                    log.sync_prepare()
                };
                let (goal, result) = match prep {
                    Ok((goal, file)) => (goal, file.sync_data().map_err(TableError::from)),
                    Err(e) => (0, Err(e)),
                };
                imcf_telemetry::global()
                    .histogram("store.group_commit_batch")
                    .observe(batch as f64);
                st = lock(&self.inner.state);
                st.syncing = false;
                match result {
                    Ok(()) => {
                        st.durable_lsn = st.durable_lsn.max(goal);
                        self.inner.batch_done.notify_all();
                        if st.durable_lsn >= target {
                            return Ok(());
                        }
                    }
                    Err(e) => {
                        st.failed_rounds = st.failed_rounds.wrapping_add(1);
                        self.inner.batch_done.notify_all();
                        return Err(e);
                    }
                }
            } else {
                let round = st.failed_rounds;
                st = self
                    .inner
                    .batch_done
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
                if st.failed_rounds != round && st.durable_lsn < target {
                    return Err(TableError::Io(io::Error::other(
                        "group commit leader failed",
                    )));
                }
            }
        }
    }

    /// Immediate fsync bypassing the group-commit queue — the per-caller
    /// durability baseline the benchmarks compare against.
    pub fn sync_direct(&self) -> Result<(), TableError> {
        lock(&self.inner.log).sync()
    }
}

impl<T: Serialize + DeserializeOwned> Log<T> {
    /// Converts this log into a multi-writer group-commit handle.
    pub fn into_shared(self) -> SharedTable<T> {
        SharedTable::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use serde::Deserialize;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Row {
        tag: String,
    }

    fn row(tag: &str) -> Row {
        Row { tag: tag.into() }
    }

    #[test]
    fn shared_insert_sync_reopen() {
        let dir = tempfile::tempdir().unwrap();
        {
            let log: Log<Row> = Log::open(dir.path(), "rows", |_| {}).unwrap();
            let shared = log.into_shared();
            shared.insert(row("a")).unwrap();
            shared.insert(row("b")).unwrap();
            shared.sync().unwrap();
            assert_eq!(shared.len(), 2);
            assert!(!shared.is_empty());
        }
        let t: Table<Row> = Table::open(dir.path(), "rows").unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn sync_is_idempotent_when_already_durable() {
        let dir = tempfile::tempdir().unwrap();
        let shared = Log::<Row>::open(dir.path(), "rows", |_| {})
            .unwrap()
            .into_shared();
        shared.insert(row("x")).unwrap();
        shared.sync().unwrap();
        // No new appends: the second sync must return on the fast path.
        shared.sync().unwrap();
        shared.sync_direct().unwrap();
    }

    #[test]
    fn failed_leader_fsync_fails_the_caller_and_acknowledges_nothing() {
        use crate::wal::WalOp;
        let dir = tempfile::tempdir().unwrap();
        let shared = Log::<Row>::open(dir.path(), "rows", |_| {})
            .unwrap()
            .into_shared();
        shared.insert(row("x")).unwrap();
        shared.with(|t| {
            t.set_wal_fault_hook(|op| {
                matches!(op, WalOp::Sync).then(|| io::Error::other("injected: wal_sync"))
            })
        });
        assert!(matches!(shared.sync(), Err(TableError::Io(_))));
        shared.with(Log::clear_wal_fault_hook);
        shared.sync().unwrap();
    }

    #[test]
    fn concurrent_writers_all_acknowledged_rows_survive_reopen() {
        const WRITERS: usize = 8;
        const PER_WRITER: usize = 25;
        let dir = tempfile::tempdir().unwrap();
        {
            let shared = Log::<Row>::open(dir.path(), "rows", |_| {})
                .unwrap()
                .into_shared();
            std::thread::scope(|s| {
                for w in 0..WRITERS {
                    let shared = shared.clone();
                    s.spawn(move || {
                        for i in 0..PER_WRITER {
                            shared.insert(row(&format!("w{w}-{i}"))).unwrap();
                            // Every row is individually acknowledged.
                            shared.sync().unwrap();
                        }
                    });
                }
            });
            assert_eq!(shared.len(), WRITERS * PER_WRITER);
        }
        let t: Table<Row> = Table::open(dir.path(), "rows").unwrap();
        assert_eq!(t.len(), WRITERS * PER_WRITER, "acknowledged rows lost");
    }
}
