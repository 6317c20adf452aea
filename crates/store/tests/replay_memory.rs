//! Replay memory is one record, not the history.
//!
//! A counting global allocator tracks the live heap and its high-water
//! mark, so each case measures what reopening (or appending to) a log
//! costs in memory. This binary holds nothing else: the counters are
//! process-wide, and the cases take turns through one lock.

use serde::{Deserialize, Serialize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use imcf_store::{Change, Log};

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

/// The `tsdb` pattern: windows are only appended, and a reopen keeps the
/// newest window of each series, so the log holds far more bytes than the
/// fold does.
#[test]
fn reopening_a_long_log_holds_one_record_not_the_history() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tempfile::tempdir().unwrap();
    {
        let mut log: Log<Window> = Log::open(dir.path(), "tsdb", |_| {}).unwrap();
        let mut i = 0;
        while log.wal_bytes() < (32 * MIB) as u64 {
            log.insert(&window(i, 16 * 1024)).unwrap();
            i += 1;
        }
        assert!(log.segment_count() >= 32, "default 1 MiB segments");
        log.sync().unwrap();
    }

    let before = baseline();
    let mut newest: BTreeMap<String, Window> = BTreeMap::new();
    let log = Log::<Window>::open(dir.path(), "tsdb", |change| {
        if let Change::Put(_, row) = change {
            newest.insert(row.series.clone(), row);
        }
    })
    .unwrap();
    let peak = PEAK.load(Ordering::SeqCst) - before;
    assert_eq!(newest.len(), 16);
    assert!(
        peak <= 4 * MIB,
        "reopening a {} MiB log peaked at {:.1} MiB of live heap",
        log.wal_bytes() / MIB as u64,
        peak as f64 / MIB as f64
    );
}

/// A row-less log keeps no per-row state: appending leaves the heap where
/// it was, however many rows go in. Only each sealed segment's path stays
/// behind (2,000 rows of 4 KiB fill eight 1 MiB segments).
#[test]
fn appending_to_a_row_less_log_does_not_grow_the_heap_with_rows() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const ROWS: usize = 2_000;
    const ROW_BYTES: usize = 4 * 1024;
    const GROWTH_BYTES: usize = 4 * 1024;
    let dir = tempfile::tempdir().unwrap();
    let mut log: Log<Window> = Log::open(dir.path(), "journal", |_| {}).unwrap();
    let row = window(1, ROW_BYTES);

    let before = baseline();
    for _ in 0..ROWS {
        log.insert(&row).unwrap();
    }
    let grown = LIVE.load(Ordering::SeqCst).saturating_sub(before);
    assert!(log.sealed_count() >= 7, "the appends must seal segments");
    assert!(
        grown <= GROWTH_BYTES,
        "{ROWS} appended rows of {ROW_BYTES} B grew the live heap by {grown} B"
    );
}
