//! The allocation budget of the command path.
//!
//! A counting global allocator counts every heap allocation (a `realloc`
//! counts as one) made on the calling thread, so the cases may run side
//! by side. One steady-state tick — after a warm-up, with no journal and
//! the flight recorder off, its slot built outside the count — must stay
//! within its budget at 16 and 100 zones, and provisioning must not
//! allocate more than it did before the tick's caches existed: they are
//! all built lazily, by the first ticks.
//!
//! CI runs it in release (`cargo test --release -p imcf-controller --test
//! tick_allocations`), the build the benchmark measures: a debug build
//! also takes the `debug_assert!` paths.

use imcf_controller::{zone_names, ControllerConfig, LocalController, ZoneSlots};
use imcf_core::calendar::PaperCalendar;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting allocations per thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn counted() {
    // `try_with`: a thread being torn down still frees and allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches a
// const-initialized thread-local cell and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        // SAFETY: the caller guarantees `ptr` and `layout` describe a live
        // block from this allocator and that `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// What one steady tick allocated before metric handles were fetched once,
/// dispatch was indexed, keys were borrowed and k-opt moved in place.
const BEFORE_16_ZONES: u64 = 1_563;
const BEFORE_100_ZONES: u64 = 8_569;
/// What provisioning 16 and 100 zones allocated before.
const BEFORE_PROVISION_16: u64 = 657;
const BEFORE_PROVISION_100: u64 = 4_072;

const SEED: u64 = 1;
const WEEKLY_BUDGET_KWH: f64 = 165.0;
const WARM_UP_TICKS: u64 = 48;
const COUNTED_TICKS: u64 = 24;

fn provision(zones: &[String]) -> LocalController {
    LocalController::with_zones(
        ControllerConfig::default(),
        PaperCalendar::january_start(),
        zones,
    )
    .unwrap()
}

/// The most allocations any of the counted ticks made after the warm-up.
fn steady_tick_allocations(zones: usize) -> u64 {
    let zones = zone_names(zones);
    let mut controller = provision(&zones);
    let mut slots = ZoneSlots::new(SEED, &zones, WEEKLY_BUDGET_KWH, None);
    for hour in 0..WARM_UP_TICKS {
        controller.tick_with_errors(&slots.slot(hour));
    }
    let mut worst = 0;
    for hour in WARM_UP_TICKS..WARM_UP_TICKS + COUNTED_TICKS {
        let slot = slots.slot(hour);
        let (n, (summary, errors)) = allocations(|| controller.tick_with_errors(&slot));
        assert!(errors.is_empty() && summary.delivered > 0, "hour {hour}");
        worst = worst.max(n);
    }
    worst
}

/// Allocations of provisioning `zones` zones into a new controller, after
/// one throwaway provisioning has warmed every process-wide static.
fn provisioning_allocations(zones: usize) -> u64 {
    let zones = zone_names(zones);
    drop(provision(&zones));
    allocations(|| provision(&zones)).0
}

#[test]
fn a_steady_16_zone_tick_allocates_at_most_a_third_of_before() {
    let n = steady_tick_allocations(16);
    assert!(
        n <= BEFORE_16_ZONES / 3,
        "16 zones: {n} allocations per steady tick, budget {}",
        BEFORE_16_ZONES / 3
    );
}

#[test]
fn a_steady_100_zone_tick_allocates_at_most_a_third_of_before() {
    let n = steady_tick_allocations(100);
    assert!(
        n <= BEFORE_100_ZONES / 3,
        "100 zones: {n} allocations per steady tick, budget {}",
        BEFORE_100_ZONES / 3
    );
}

#[test]
fn provisioning_allocates_no_more_than_before() {
    for (zones, before) in [(16, BEFORE_PROVISION_16), (100, BEFORE_PROVISION_100)] {
        let n = provisioning_allocations(zones);
        assert!(
            n <= before,
            "provisioning {zones} zones: {n} allocations, {before} before"
        );
    }
}
