//! Deterministic allocation gate for the blame pass. A counting global
//! allocator measures `critical_paths` on synthetic causal traces:
//!
//! - the allocation count grows linearly with the job count;
//! - no single allocation exceeds a fixed multiple of the trace's size,
//!   so nothing is sized by an id read from the trace;
//! - ids at the top of their ranges cost nothing extra.

use canary_cluster::{NodeId, StorageTier};
use canary_metrics::critical_paths;
use canary_platform::{FnId, JobId, RecoveryTarget, SpanId, Trace, TraceEvent, TraceKind};
use canary_sim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Per thread, so tests running in parallel do not see each other's
// allocations.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Events per synthetic job.
const PER_JOB: usize = 8;

/// Allocations the doubling of a handful of vectors may add when the
/// trace doubles.
const GROWTH_SLACK: u64 = 32;

/// Largest single allocation allowed, in units of `events.len() * 16`
/// bytes (one index row per event).
const LARGEST_PER_ROW: usize = 4;

fn ev(us: u64, span: u64, parent: u64, kind: TraceKind) -> TraceEvent {
    let mut e = TraceEvent::new(SimTime::from_micros(us), kind);
    e.span = SpanId(span);
    e.parent = SpanId(parent);
    e
}

/// `n` jobs of one function each: arrival, submission, a checkpointed
/// attempt that fails, a planned recovery, and a completing second
/// attempt. `top` draws every job, function and span id from the top of
/// its range instead of the bottom.
fn synthetic(n: usize, top: bool) -> Trace {
    let mut events = Vec::with_capacity(n * PER_JOB);
    for j in 0..n {
        let k = j as u64;
        let (job, f, root) = if top {
            (
                JobId(u32::MAX - j as u32),
                FnId(u64::MAX - k),
                u64::MAX - (k + 1) * PER_JOB as u64,
            )
        } else {
            (JobId(j as u32), FnId(k), 1 + k * PER_JOB as u64)
        };
        let t = k * 1_000;
        let start = |attempt| TraceKind::AttemptStarted {
            fn_id: f,
            attempt,
            node: NodeId(0),
            warm: false,
        };
        events.extend([
            ev(t, root, 0, TraceKind::JobArrived { job }),
            ev(t + 10, root + 1, root, TraceKind::JobSubmitted { job }),
            ev(t + 20, root + 2, root, start(1)),
            ev(
                t + 30,
                root + 3,
                root + 2,
                TraceKind::CheckpointWritten {
                    fn_id: f,
                    state: 0,
                    bytes: 64,
                    tier: StorageTier::Ramdisk,
                    cost: SimDuration::from_micros(3),
                },
            ),
            ev(
                t + 40,
                root + 4,
                root + 2,
                TraceKind::AttemptFailed {
                    fn_id: f,
                    attempt: 1,
                    node: NodeId(0),
                },
            ),
            ev(
                t + 50,
                root + 5,
                root,
                TraceKind::RecoveryPlanned {
                    fn_id: f,
                    target: RecoveryTarget::FreshContainer,
                    detect: SimDuration::from_micros(2),
                    restore: SimDuration::from_micros(4),
                },
            ),
            ev(t + 60, root + 6, root, start(2)),
            ev(
                t + 90,
                root + 7,
                root + 6,
                TraceKind::FunctionCompleted { fn_id: f },
            ),
        ]);
    }
    Trace { events }
}

/// `(allocations, largest single allocation in bytes)` made by this
/// thread while computing every critical path of `trace`.
fn blame_allocs(trace: &Trace) -> (u64, usize) {
    let before = ALLOCS.with(Cell::get);
    LARGEST.with(|c| c.set(0));
    let paths = critical_paths(trace);
    let made = ALLOCS.with(Cell::get) - before;
    let largest = LARGEST.with(Cell::get);
    assert_eq!(paths.len() * PER_JOB, trace.events.len());
    drop(paths);
    (made, largest)
}

#[test]
fn blame_allocations_are_linear_in_jobs() {
    let n = 500;
    let (a_n, _) = blame_allocs(&synthetic(n, false));
    let (a_2n, _) = blame_allocs(&synthetic(2 * n, false));
    assert!(
        a_2n <= 2 * a_n + GROWTH_SLACK,
        "{n} jobs: {a_n} allocations, {} jobs: {a_2n}",
        2 * n
    );
}

#[test]
fn no_blame_allocation_outgrows_the_trace() {
    for n in [1, 50, 1_000] {
        for top in [false, true] {
            let trace = synthetic(n, top);
            let (_, largest) = blame_allocs(&trace);
            let bound = LARGEST_PER_ROW * trace.events.len() * 16;
            assert!(
                largest <= bound,
                "{n} jobs (top ids: {top}): largest allocation {largest} B > {bound} B"
            );
        }
    }
}

#[test]
fn top_of_range_ids_cost_nothing_extra() {
    for n in [1, 300] {
        let (small, small_largest) = blame_allocs(&synthetic(n, false));
        let (top, top_largest) = blame_allocs(&synthetic(n, true));
        assert!(top <= small, "{n} jobs: {top} allocations vs {small}");
        assert!(
            top_largest <= small_largest,
            "{n} jobs: {top_largest} B vs {small_largest} B"
        );
    }
}
