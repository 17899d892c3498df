//! Deterministic allocation gate for WAL compaction and restart. A
//! counting global allocator measures a durable replica group:
//!
//! - one compaction makes the same, small number of allocations whether
//!   the store holds N entries or 2N: capturing the snapshot image is a
//!   flat copy of refcounted handles into one buffer, with no per-entry
//!   or per-node allocation and no sort;
//! - restoring a member (donor resync, or a controller restart from the
//!   snapshot) makes at most a small constant number of allocations per
//!   entry: each shard is rebuilt in bulk from its sorted run.

use bytes::Bytes;
use canary_kvstore::{ReplicatedKv, StoreConfig, WalConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Per thread, so tests running in parallel do not see each other's
// allocations.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

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

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Entries of the smaller store; the larger one holds twice as many.
const N: usize = 4_000;

/// Members of the replica group.
const MEMBERS: usize = 3;

/// Allocations one compaction may make: the image buffer, its shard
/// ends, the liveness bitmap and the shared handle around them.
const COMPACTION_ALLOCS: u64 = 8;

/// Allocations per entry per member a restore may make. A bulk build
/// packs about 11 entries per B-tree leaf, plus one run buffer per shard.
const RESTORE_ALLOCS_PER_ENTRY: f64 = 0.15;

/// A durable group holding `n` entries, plus the entries' handles.
fn filled(n: usize) -> (ReplicatedKv, Vec<(Bytes, Bytes)>) {
    let group = ReplicatedKv::durable(
        MEMBERS,
        StoreConfig::default(),
        WalConfig { snapshot_every: 64 },
    );
    let entries: Vec<(Bytes, Bytes)> = (0..n)
        .map(|i| {
            (
                Bytes::from(format!("fn/{i:08}/ckpt").into_bytes()),
                Bytes::from(vec![i as u8; 48]),
            )
        })
        .collect();
    for (k, v) in &entries {
        group.put_shared(k.clone(), v.clone()).unwrap();
    }
    (group, entries)
}

fn snapshots(group: &ReplicatedKv) -> u64 {
    group.wal().unwrap().stats().snapshots_installed
}

/// Overwrite existing keys with the handles they already hold (no store
/// allocation) until the WAL installs one more snapshot. Returns the
/// number of puts.
fn run_one_compaction(group: &ReplicatedKv, entries: &[(Bytes, Bytes)]) -> usize {
    let start = snapshots(group);
    let mut puts = 0;
    for (k, v) in entries.iter().cycle() {
        group.put_shared(k.clone(), v.clone()).unwrap();
        puts += 1;
        if snapshots(group) > start {
            return puts;
        }
    }
    unreachable!("cycle never ends")
}

/// Allocations of one full compaction cycle in steady state: the log
/// buffer has already grown to a cycle's length, so what is left is the
/// compaction itself.
fn compaction_allocs(n: usize) -> u64 {
    let (group, entries) = filled(n);
    run_one_compaction(&group, &entries);
    run_one_compaction(&group, &entries);
    let mut puts = 0;
    let allocs = allocs_during(|| puts = run_one_compaction(&group, &entries));
    assert_eq!(
        puts,
        (n / 4).max(64),
        "one cycle is the size-scaled compaction threshold"
    );
    allocs
}

#[test]
fn compaction_allocations_do_not_grow_with_the_store() {
    let small = compaction_allocs(N);
    let large = compaction_allocs(2 * N);
    assert!(
        small <= COMPACTION_ALLOCS,
        "one compaction of {N} entries made {small} allocations (bound {COMPACTION_ALLOCS})"
    );
    assert_eq!(
        small,
        large,
        "compaction allocations moved with the store size: {small} at {N} entries, {large} at {}",
        2 * N
    );
}

fn assert_per_entry(what: &str, allocs: u64, entries: usize) {
    let per_entry = allocs as f64 / entries as f64;
    assert!(
        per_entry <= RESTORE_ALLOCS_PER_ENTRY,
        "{what}: {allocs} allocations for {entries} member entries = {per_entry:.3} per entry \
         (bound {RESTORE_ALLOCS_PER_ENTRY})"
    );
}

#[test]
fn donor_resync_allocates_a_small_constant_per_entry() {
    for n in [N, 2 * N] {
        let (group, entries) = filled(n);
        // Start a fresh compaction cycle so the two membership records
        // cannot trigger one inside the measured window.
        run_one_compaction(&group, &entries);
        group.fail_node(2).unwrap();
        let allocs = allocs_during(|| group.recover_node(2).unwrap());
        assert!(group.replicas_consistent());
        assert_per_entry("recover_node", allocs, n);
    }
}

#[test]
fn restart_from_snapshot_allocates_a_small_constant_per_entry() {
    for n in [N, 2 * N] {
        let (group, entries) = filled(n);
        // Right after a compaction the log is empty, so the restart is
        // the snapshot load alone.
        run_one_compaction(&group, &entries);
        assert_eq!(group.wal().unwrap().stats().log_bytes, 0);
        let mut recovery = None;
        let allocs = allocs_during(|| recovery = Some(group.crash_and_recover(false).unwrap()));
        let recovery = recovery.unwrap();
        assert_eq!(recovery.snapshot_entries, n as u64);
        assert_eq!(recovery.replayed_records, 0);
        assert_eq!(group.len(), n);
        assert!(group.replicas_consistent());
        assert_per_entry("crash_and_recover", allocs, n * MEMBERS);
    }
}
