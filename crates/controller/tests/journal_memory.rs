//! The command journal's memory is its ids, not its history.
//!
//! A counting global allocator tracks the live heap, so the case measures
//! what a reopened [`CommandJournal`] keeps: its dedup indexes and its
//! log's live-id set, but no delivered command's wire string. This binary
//! holds nothing else: the counter is process-wide.

use imcf_controller::{
    run_recoverable, zone_names, CommandJournal, ControllerConfig, LocalController, RecoveryConfig,
};
use imcf_core::calendar::PaperCalendar;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator, counting live bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches an
// atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` and `layout` describe a live
        // block from this allocator and that `new_size` is valid for it.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_add(new_size, Ordering::SeqCst);
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live heap bytes a reopened journal may hold per delivered command. Its
/// id sets hold about 42 B per command of this run (11,385 delivered),
/// with each journaled id in one set; a journal that also kept every
/// delivered id in a second set of all journaled ids would hold about
/// 57 B, and one that also kept each delivered command's wire string about
/// 123 B.
const BYTES_PER_DELIVERED: f64 = 60.0;

#[test]
fn a_reopened_journal_holds_ids_not_wire_strings() {
    let dir = tempfile::tempdir().unwrap();
    let config = RecoveryConfig {
        seed: 3,
        ticks: 2_000,
        zones: 3,
        checkpoint_every: 0,
        ..RecoveryConfig::default()
    };
    let run = run_recoverable(&config, dir.path()).unwrap();

    // The registry the journal replays into is built before the count, so
    // only the journal's own heap is measured.
    let controller = LocalController::with_zones(
        ControllerConfig::default(),
        PaperCalendar::january_start(),
        &zone_names(config.zones),
    )
    .unwrap();
    let registry = controller.registry();
    let before = LIVE.load(Ordering::SeqCst);
    let (journal, replayed) = CommandJournal::open(dir.path(), &registry).unwrap();
    let held = LIVE.load(Ordering::SeqCst).saturating_sub(before);

    let delivered = journal.delivered_count();
    assert_eq!(delivered, run.digest.journal_delivered);
    assert_eq!(replayed, delivered);
    let per_command = held as f64 / delivered as f64;
    assert!(
        per_command <= BYTES_PER_DELIVERED,
        "a journal of {delivered} delivered commands holds {held} B, \
         {per_command:.1} B per command"
    );
}
