//! Replay memory is one record, not the history.
//!
//! A counting global allocator tracks the live heap and its high-water
//! mark, so each case measures what reopening (or appending to) a log
//! costs in memory. This binary holds nothing else: the counters are
//! process-wide, and the cases take turns through one lock.

use serde::{Deserialize, Serialize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use imcf_store::{Log, Table};

/// Forwards to the system allocator, counting live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` and `layout` describe a live
        // block from this allocator and that `new_size` is valid for it.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            // Count the new block before releasing the old one: a moving
            // realloc holds both for a moment.
            grew(new_size);
            shrank(layout.size());
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The cases share the process-wide counters, so they run one at a time.
static TURN: Mutex<()> = Mutex::new(());

/// Live heap now, after resetting the peak to it.
fn baseline() -> usize {
    let live = LIVE.load(Ordering::SeqCst);
    PEAK.store(live, Ordering::SeqCst);
    live
}

const MIB: usize = 1 << 20;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Window {
    series: String,
    points: String,
}

fn window(i: usize, bytes: usize) -> Window {
    Window {
        series: format!("series-{}", i % 16),
        points: "p".repeat(bytes),
    }
}

/// The `tsdb` retention pattern: each window is inserted and later
/// deleted, so the log holds far more bytes than its (empty) live set.
#[test]
fn reopening_a_long_log_holds_one_record_not_the_history() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tempfile::tempdir().unwrap();
    {
        let mut log: Log<Window> = Log::open(dir.path(), "tsdb", |_| {}).unwrap();
        while log.wal_bytes() < (32 * MIB) as u64 {
            let id = log.insert(&window(0, 16 * 1024)).unwrap();
            log.delete(id).unwrap();
        }
        assert!(log.segment_count() >= 32, "default 1 MiB segments");
        log.sync().unwrap();
    }

    let before = baseline();
    let table: Table<Window> = Table::open(dir.path(), "tsdb").unwrap();
    let peak = PEAK.load(Ordering::SeqCst) - before;
    assert!(table.is_empty());
    assert!(
        peak <= 4 * MIB,
        "reopening a {} MiB log peaked at {:.1} MiB of live heap",
        table.log().wal_bytes() / MIB as u64,
        peak as f64 / MIB as f64
    );
}

/// A row-less log keeps ids, not rows: appending grows the heap by the
/// live-id set only.
#[test]
fn appending_to_a_row_less_log_grows_the_heap_by_ids_not_rows() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const ROWS: usize = 2_000;
    const ROW_BYTES: usize = 4 * 1024;
    let dir = tempfile::tempdir().unwrap();
    let mut log: Log<Window> = Log::open(dir.path(), "journal", |_| {}).unwrap();
    let row = window(1, ROW_BYTES);

    let before = baseline();
    for _ in 0..ROWS {
        log.insert(&row).unwrap();
    }
    let grown = LIVE.load(Ordering::SeqCst).saturating_sub(before);
    assert_eq!(log.len(), ROWS);
    assert!(
        grown <= ROWS * 64,
        "{ROWS} appended rows of {ROW_BYTES} B grew the live heap by {grown} B"
    );
}
