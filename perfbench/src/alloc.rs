//! Counting global allocator: a process-wide total (every thread, so the
//! checkpoint flusher's allocations count too) and a per-thread count
//! that lets the layer-span recorder charge main-thread allocations to
//! the span that is open when they happen.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    TOTAL.fetch_add(1, Ordering::Relaxed);
    // `try_with` fails only while the thread is being torn down; those
    // allocations still reach the process total.
    let _ = LOCAL.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // Overridden so zeroed allocations keep `System`'s calloc path; the
    // default would allocate and then zero by hand.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations (including reallocations) made by every thread so far.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Heap allocations made by the calling thread so far.
pub fn local() -> u64 {
    LOCAL.with(Cell::get)
}
