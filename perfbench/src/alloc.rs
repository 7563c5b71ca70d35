//! A counting global allocator: every allocation and reallocation made by
//! the process bumps a global counter and a per-thread counter.
//!
//! The counts double as a progress clock. A pass of a workload makes the
//! same allocations in the same order on its calling thread every time, so
//! "the k-th allocation since the pass began" marks the same point of the
//! work in every pass. [`mark_every`] stamps the time at every n-th one,
//! which cuts a pass into segments of equal work without instrumenting the
//! program.
//!
//! The binary installs [`CountingAlloc`] as its `#[global_allocator]`; the
//! library only reads the counters, so they stay at zero wherever the
//! allocator is not installed (the library's unit tests).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Most marks one [`mark_every`] period keeps; later ones are dropped.
pub const MAX_MARKS: usize = 4096;

static TOTAL: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    // `const` initialisation and `Drop`-free types: reading them never
    // allocates or registers a destructor, so the allocator may touch them.
    static LOCAL: Cell<u64> = const { Cell::new(0) };
    static MARK_EVERY: Cell<u64> = const { Cell::new(0) };
    static MARK_NEXT: Cell<u64> = const { Cell::new(u64::MAX) };
    static MARK_LEN: Cell<usize> = const { Cell::new(0) };
    static MARKS: [Cell<u64>; MAX_MARKS] = const { [const { Cell::new(0) }; MAX_MARKS] };
}

/// The system allocator plus allocation counting.
pub struct CountingAlloc;

fn count() {
    // A statistic that publishes no other data.
    TOTAL.fetch_add(1, Ordering::Relaxed);
    let _ = LOCAL.try_with(|c| {
        let n = c.get() + 1;
        c.set(n);
        if MARK_NEXT.try_with(Cell::get) == Ok(n) {
            stamp(n);
        }
    });
}

/// Records the time of this thread's `n`-th allocation and schedules the
/// next mark. Allocates nothing.
fn stamp(n: u64) {
    let every = MARK_EVERY.with(Cell::get);
    MARK_NEXT.with(|next| next.set(n + every));
    let Some(epoch) = EPOCH.get() else { return };
    let ns = epoch.elapsed().as_nanos() as u64;
    MARK_LEN.with(|len| {
        let i = len.get();
        if i < MAX_MARKS {
            MARKS.with(|m| m[i].set(ns));
            len.set(i + 1);
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches only
// an atomic, const-initialised thread-locals, an initialised `OnceLock`
// and the monotonic clock, none of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations (including reallocations) made by every thread so far.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread so far.
pub fn this_thread() -> u64 {
    LOCAL.with(Cell::get)
}

/// From now on, stamps the time at every `every`-th allocation the calling
/// thread makes, forgetting earlier stamps; 0 stops stamping.
pub fn mark_every(every: u64) {
    EPOCH.get_or_init(Instant::now);
    MARK_LEN.with(|len| len.set(0));
    MARK_EVERY.with(|e| e.set(every));
    let next = if every == 0 { u64::MAX } else { this_thread() + every };
    MARK_NEXT.with(|n| n.set(next));
}

/// Stops stamping and returns the calling thread's stamps since the last
/// [`mark_every`], in order.
pub fn take_marks() -> Vec<Instant> {
    let len = MARK_LEN.with(Cell::get);
    mark_every(0);
    let epoch = *EPOCH.get_or_init(Instant::now);
    MARKS.with(|m| m[..len].iter().map(|c| epoch + Duration::from_nanos(c.get())).collect())
}
