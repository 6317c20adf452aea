//! What the dorms dataset holds in memory.
//!
//! A counting global allocator tracks the live heap of the whole process.
//! `Dataset::build` synthesizes the zones on worker threads when the
//! machine has more than one core, so the bytes the dataset keeps are
//! allocated on threads other than the caller's, and a count of the
//! caller's thread alone would miss nearly all of them. The binary holds
//! one case, so between the two readings only the build and its workers
//! run; the test harness's main thread waits for the case. What the build
//! leaves live is the dataset: the trace of 100 zones over 26,784 hours,
//! the zone tables and the models.
//!
//! The trace dominates. Stored densely, its three series take 24 B per
//! zone-hour. Stored by structure, temperature stays dense (8 B: each hour
//! carries its own noise draw), light keeps one cloud draw per day over a
//! shared clear-sky table, and the door keeps only its non-zero hours (a
//! quarter of them) behind a 24-bit mask per day. Any series stored densely
//! again adds 8 B per zone-hour and fails the bound.
//!
//! CI also runs it in release (`cargo test --release -p imcf-sim --test
//! dataset_memory`), the build the benchmark measures.

use imcf_sim::building::{Dataset, DatasetKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Forwards to the system allocator, counting the process's live bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

fn count(bytes: isize) {
    LIVE.fetch_add(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only adds to an atomic
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` and `layout` describe a live
        // block from this allocator and that `new_size` is valid for it.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The dorms dataset measures 10.7 B per zone-hour, of which the dense
/// temperature is 8 B; stored densely, the trace alone took 24 B.
const BYTES_PER_ZONE_HOUR: f64 = 12.0;

/// The dense temperature alone: a count below it missed the bytes of some
/// thread.
const TEMPERATURE_BYTES_PER_ZONE_HOUR: f64 = 8.0;

#[test]
fn the_dorms_dataset_holds_at_most_12_bytes_per_zone_hour() {
    let before = LIVE.load(Ordering::SeqCst);
    let dataset = Dataset::build(DatasetKind::Dorms, 0);
    let held = LIVE.load(Ordering::SeqCst) - before;
    let zone_hours = dataset.trace.zone_count() as f64 * dataset.horizon_hours as f64;
    let per_zone_hour = held as f64 / zone_hours;
    eprintln!("dorms dataset: {held} B live, {per_zone_hour:.2} B per zone-hour");
    assert!(
        per_zone_hour >= TEMPERATURE_BYTES_PER_ZONE_HOUR,
        "counted {held} B, {per_zone_hour:.2} B per zone-hour, less than the \
         temperature's {TEMPERATURE_BYTES_PER_ZONE_HOUR} B: the count missed a thread"
    );
    assert!(
        per_zone_hour <= BYTES_PER_ZONE_HOUR,
        "the dorms dataset holds {held} B, {per_zone_hour:.2} B per zone-hour \
         (bound {BYTES_PER_ZONE_HOUR} B)"
    );
}
