//! Sharded concurrent key-value store.
//!
//! The single-node building block of the replicated store: a hash-sharded
//! ordered map from byte keys to byte values with a per-entry size limit,
//! mirroring how Canary uses Apache Ignite — application states keyed by
//! function ID, values capped by the database entry limit (Algorithm 1's
//! `db_limit`).
//!
//! Keys are raw bytes ([`Bytes`]), not strings: the metadata fast path
//! stores fixed-size typed keys (table tag + big-endian ids) that never
//! touch the heap on lookup, while string callers keep working through
//! the `AsRef<[u8]>` API. Each shard is an ordered map, so prefix and
//! range queries walk only the matching keys ([`KvStore::keys_in_range`])
//! instead of scanning the whole table — the old full scan survives as
//! [`KvStore::keys_with_prefix_scan`], the equivalence oracle.

use crate::error::KvError;
use bytes::Bytes;
use parking_lot::RwLock;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::ops::Bound;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of lock shards (power of two recommended).
    pub shards: usize,
    /// Per-entry value size limit in bytes; `u64::MAX` disables the check.
    pub entry_limit: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: 16,
            entry_limit: 8 * 1024 * 1024,
        }
    }
}

/// Smallest byte string strictly greater than every key starting with
/// `prefix`, or `None` when no such bound exists (prefix is empty or all
/// `0xFF`): increment the last non-`0xFF` byte and truncate after it.
pub(crate) fn prefix_upper_bound(prefix: &[u8]) -> Option<Vec<u8>> {
    let cut = prefix.iter().rposition(|&b| b != 0xFF)?;
    let mut hi = prefix[..=cut].to_vec();
    hi[cut] += 1;
    Some(hi)
}

/// Shard of `key` in a store of `shards` shards. FNV-1a keeps the choice
/// deterministic across runs and platforms.
fn shard_of(key: &[u8], shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// A flat copy of a store's entries in the store's own shard layout:
/// shard 0's entries, then shard 1's, and so on, each shard's run in key
/// order. Capturing one ([`KvStore::image`]) costs two allocations and no
/// sort, because every shard is already an ordered map;
/// [`StoreImage::sorted`] merges the runs into global key order for the
/// callers that need it.
#[derive(Debug)]
pub(crate) struct StoreImage {
    entries: Vec<(Bytes, Bytes)>,
    /// `ends[s]` is one past the index of shard `s`'s last entry.
    ends: Vec<usize>,
    /// Sum of key and value lengths over `entries`.
    payload_bytes: usize,
}

impl StoreImage {
    /// Stable partition of `entries` by shard index for a store of
    /// `shards` shards: each run keeps the entries' input order. Such an
    /// image (decoded from bytes, say) may have unsorted runs and repeated
    /// keys; [`KvStore::load`] treats both exactly as a sequence of puts
    /// would.
    pub(crate) fn partition(
        entries: impl IntoIterator<Item = (Bytes, Bytes)>,
        shards: usize,
    ) -> Self {
        let mut tagged: Vec<(usize, (Bytes, Bytes))> = entries
            .into_iter()
            .map(|e| (shard_of(&e.0, shards), e))
            .collect();
        tagged.sort_by_key(|t| t.0);
        let mut ends = vec![0usize; shards];
        for (shard, _) in &tagged {
            ends[*shard] += 1;
        }
        let mut total = 0;
        for end in &mut ends {
            total += *end;
            *end = total;
        }
        let entries: Vec<(Bytes, Bytes)> = tagged.into_iter().map(|(_, e)| e).collect();
        let payload_bytes = entries.iter().map(|(k, v)| k.len() + v.len()).sum();
        StoreImage {
            entries,
            ends,
            payload_bytes,
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of shard runs.
    pub(crate) fn shard_count(&self) -> usize {
        self.ends.len()
    }

    /// Sum of key and value lengths over every entry.
    pub(crate) fn payload_bytes(&self) -> usize {
        self.payload_bytes
    }

    /// Index range of shard `shard`'s run.
    fn bounds(&self, shard: usize) -> (usize, usize) {
        let start = if shard == 0 { 0 } else { self.ends[shard - 1] };
        (start, self.ends[shard])
    }

    /// Shard `shard`'s run.
    fn run(&self, shard: usize) -> &[(Bytes, Bytes)] {
        let (start, end) = self.bounds(shard);
        &self.entries[start..end]
    }

    /// Every entry in global key order: a k-way merge of the shard runs,
    /// O(n log shards). Needs sorted runs, as every image
    /// [`KvStore::image`] captures has.
    pub(crate) fn sorted(&self) -> impl Iterator<Item = &(Bytes, Bytes)> + '_ {
        // Heap items: (next key of a run, its index, the run's end).
        let mut heap: BinaryHeap<Reverse<(&[u8], usize, usize)>> =
            BinaryHeap::with_capacity(self.ends.len());
        for shard in 0..self.ends.len() {
            let (start, end) = self.bounds(shard);
            if start < end {
                heap.push(Reverse((&self.entries[start].0[..], start, end)));
            }
        }
        std::iter::from_fn(move || {
            let Reverse((_, at, end)) = heap.pop()?;
            if at + 1 < end {
                heap.push(Reverse((&self.entries[at + 1].0[..], at + 1, end)));
            }
            Some(&self.entries[at])
        })
    }
}

/// A sharded `Bytes -> Bytes` ordered map safe for concurrent use.
#[derive(Debug)]
pub struct KvStore {
    shards: Vec<RwLock<BTreeMap<Bytes, Bytes>>>,
    config: StoreConfig,
    /// Live entry count across all shards, maintained on every mutation
    /// so [`KvStore::len`] is one atomic load instead of a lock-and-sum
    /// over every shard. The WAL compaction gate calls `len` on every
    /// logged op — at that call rate the O(shards) walk dominated the
    /// whole write path.
    count: AtomicUsize,
}

impl KvStore {
    /// Create a store with the given configuration.
    pub fn new(config: StoreConfig) -> Self {
        assert!(config.shards > 0, "need at least one shard");
        let shards = (0..config.shards)
            .map(|_| RwLock::new(BTreeMap::new()))
            .collect();
        KvStore {
            shards,
            config,
            count: AtomicUsize::new(0),
        }
    }

    /// Store with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(StoreConfig::default())
    }

    /// The configured per-entry limit.
    pub fn entry_limit(&self) -> u64 {
        self.config.entry_limit
    }

    /// Number of lock shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_index(&self, key: &[u8]) -> usize {
        shard_of(key, self.shards.len())
    }

    fn shard_for(&self, key: &[u8]) -> &RwLock<BTreeMap<Bytes, Bytes>> {
        &self.shards[self.shard_index(key)]
    }

    /// Insert or replace `key`. Fails with [`KvError::EntryTooLarge`] if
    /// the value exceeds the entry limit (the caller then spills the data
    /// to a storage tier and stores a location record instead).
    pub fn put(&self, key: impl AsRef<[u8]>, value: Bytes) -> Result<(), KvError> {
        let key = key.as_ref();
        self.put_shared(Bytes::copy_from_slice(key), value)
    }

    /// Insert or replace using an already-owned key handle. The refcounted
    /// key is stored as-is, so a replica group can fan one key allocation
    /// out to every member instead of re-allocating per copy.
    pub fn put_shared(&self, key: Bytes, value: Bytes) -> Result<(), KvError> {
        if value.len() as u64 > self.config.entry_limit {
            return Err(KvError::EntryTooLarge {
                size: value.len() as u64,
                limit: self.config.entry_limit,
            });
        }
        let mut guard = self.shard_for(&key).write();
        if guard.insert(key, value).is_none() {
            self.count.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Group-commit write batch: insert every entry, taking each shard's
    /// write lock **once per batch** instead of once per entry. Entries
    /// land in slice order (last write to a key wins, exactly as the
    /// equivalent sequence of [`KvStore::put_shared`] calls), and the
    /// whole batch is validated against the entry limit up front — a
    /// batch containing an oversized value fails atomically, storing
    /// nothing. Key and value handles are refcount-shared, never copied.
    pub fn put_batch(&self, entries: &[(Bytes, Bytes)]) -> Result<(), KvError> {
        for (_, value) in entries {
            if value.len() as u64 > self.config.entry_limit {
                return Err(KvError::EntryTooLarge {
                    size: value.len() as u64,
                    limit: self.config.entry_limit,
                });
            }
        }
        // Small batches (the hot path: one checkpoint's payload + row)
        // group entries by shard with a stack bitmask; larger batches walk
        // the shard list instead. Both take each shard lock exactly once.
        if entries.len() <= 64 {
            let mut done = 0u64;
            for i in 0..entries.len() {
                if done & (1 << i) != 0 {
                    continue;
                }
                let shard = self.shard_index(&entries[i].0);
                let mut guard = self.shards[shard].write();
                for (j, (key, value)) in entries.iter().enumerate().skip(i) {
                    if done & (1 << j) == 0 && self.shard_index(key) == shard {
                        if guard.insert(key.clone(), value.clone()).is_none() {
                            self.count.fetch_add(1, Ordering::Relaxed);
                        }
                        done |= 1 << j;
                    }
                }
            }
        } else {
            for (shard, lock) in self.shards.iter().enumerate() {
                let mut guard = None;
                for (key, value) in entries {
                    if self.shard_index(key) == shard {
                        let inserted = guard
                            .get_or_insert_with(|| lock.write())
                            .insert(key.clone(), value.clone())
                            .is_none();
                        if inserted {
                            self.count.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Fetch the value under `key`. The lookup borrows the caller's bytes
    /// — no key allocation.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Result<Bytes, KvError> {
        let key = key.as_ref();
        self.shard_for(key)
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| KvError::NotFound {
                key: String::from_utf8_lossy(key).into_owned(),
            })
    }

    /// Remove `key`, returning its value if present.
    pub fn remove(&self, key: impl AsRef<[u8]>) -> Option<Bytes> {
        let key = key.as_ref();
        let removed = self.shard_for(key).write().remove(key);
        if removed.is_some() {
            self.count.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// True when `key` is present.
    pub fn contains(&self, key: impl AsRef<[u8]>) -> bool {
        let key = key.as_ref();
        self.shard_for(key).read().contains_key(key)
    }

    /// Number of entries across all shards (one atomic load).
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored value bytes.
    pub fn total_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().values().map(|v| v.len() as u64).sum::<u64>())
            .sum()
    }

    /// All keys in `[lo, hi)`, ascending. Each shard contributes an
    /// ordered range walk (only matching keys are touched); the per-shard
    /// results are merged with one final sort over the matches.
    pub fn keys_in_range(&self, lo: &[u8], hi: Option<&[u8]>) -> Vec<Bytes> {
        let upper = match hi {
            Some(h) => Bound::Excluded(h),
            None => Bound::Unbounded,
        };
        let mut keys: Vec<Bytes> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .range::<[u8], _>((Bound::Included(lo), upper))
                    .map(|(k, _)| k.clone())
                    .collect::<Vec<_>>()
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// All keys starting with `prefix`, ascending — ordered range
    /// iteration, not a scan.
    pub fn keys_with_prefix(&self, prefix: impl AsRef<[u8]>) -> Vec<Bytes> {
        let prefix = prefix.as_ref();
        self.keys_in_range(prefix, prefix_upper_bound(prefix).as_deref())
    }

    /// Pre-range full-scan prefix query, retained as the equivalence
    /// oracle for [`KvStore::keys_with_prefix`]: walks every key in every
    /// shard and filters.
    pub fn keys_with_prefix_scan(&self, prefix: impl AsRef<[u8]>) -> Vec<Bytes> {
        let prefix = prefix.as_ref();
        let mut keys: Vec<Bytes> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .keys()
                    .filter(|k| k.as_ref().starts_with(prefix))
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Snapshot of every entry, in key order.
    pub fn snapshot(&self) -> Vec<(Bytes, Bytes)> {
        self.image().sorted().cloned().collect()
    }

    /// Copy every entry out in shard layout: one run per shard, each in
    /// key order, with refcounted key and value handles. One pass and two
    /// allocations, whatever the store holds.
    pub(crate) fn image(&self) -> StoreImage {
        let mut entries = Vec::with_capacity(self.len());
        let mut ends = Vec::with_capacity(self.shards.len());
        let mut payload_bytes = 0;
        for shard in &self.shards {
            let guard = shard.read();
            entries.extend(guard.iter().map(|(k, v)| {
                payload_bytes += k.len() + v.len();
                (k.clone(), v.clone())
            }));
            ends.push(entries.len());
        }
        StoreImage {
            entries,
            ends,
            payload_bytes,
        }
    }

    /// Put every entry of `image` (which must share this store's shard
    /// layout), shard by shard under one lock each. An empty shard is
    /// rebuilt in bulk with `BTreeMap::from_iter`: a stable sort that is
    /// one linear pass over an already sorted run, then a build of full
    /// nodes. A shard that holds entries takes the run one insert at a
    /// time. Either way the result is that of putting the run in order:
    /// the last occurrence of a key wins, and values over the entry limit
    /// are skipped.
    pub(crate) fn load(&self, image: &StoreImage) {
        assert_eq!(
            image.shard_count(),
            self.shards.len(),
            "image taken with another shard layout"
        );
        let limit = self.config.entry_limit;
        for (shard, lock) in self.shards.iter().enumerate() {
            // Sized up front: the filter hides the length from `collect`,
            // and `from_iter` reuses this buffer for its sort.
            let src = image.run(shard);
            let mut run = Vec::with_capacity(src.len());
            run.extend(src.iter().filter(|(_, v)| v.len() as u64 <= limit).cloned());
            let mut map = lock.write();
            let before = map.len();
            if before == 0 {
                *map = BTreeMap::from_iter(run);
            } else {
                map.extend(run);
            }
            self.count.fetch_add(map.len() - before, Ordering::Relaxed);
        }
    }

    /// True when `other` holds exactly the same entries. Compares shard
    /// by shard in place, so it copies and allocates nothing; stores with
    /// different shard counts never compare equal.
    pub(crate) fn same_contents(&self, other: &KvStore) -> bool {
        self.shards.len() == other.shards.len()
            && self
                .shards
                .iter()
                .zip(&other.shards)
                .all(|(a, b)| *a.read() == *b.read())
    }

    /// Remove every entry.
    pub fn clear(&self) {
        for s in &self.shards {
            let mut guard = s.write();
            self.count.fetch_sub(guard.len(), Ordering::Relaxed);
            guard.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn put_get_remove() {
        let store = KvStore::with_defaults();
        store.put("a", Bytes::from_static(b"1")).unwrap();
        assert_eq!(store.get("a").unwrap(), Bytes::from_static(b"1"));
        assert!(store.contains("a"));
        assert_eq!(store.remove("a").unwrap(), Bytes::from_static(b"1"));
        assert!(matches!(store.get("a"), Err(KvError::NotFound { .. })));
    }

    #[test]
    fn binary_keys_work() {
        let store = KvStore::with_defaults();
        let key = [0x04u8, 0, 0, 0, 0, 0, 0, 0, 7];
        store.put(key, Bytes::from_static(b"row")).unwrap();
        assert!(store.contains(key));
        assert_eq!(store.get(key).unwrap(), Bytes::from_static(b"row"));
    }

    #[test]
    fn entry_limit_enforced() {
        let store = KvStore::new(StoreConfig {
            shards: 4,
            entry_limit: 8,
        });
        assert!(store.put("ok", Bytes::from(vec![0u8; 8])).is_ok());
        let err = store.put("big", Bytes::from(vec![0u8; 9])).unwrap_err();
        assert_eq!(err, KvError::EntryTooLarge { size: 9, limit: 8 });
        assert!(!store.contains("big"));
    }

    #[test]
    fn overwrite_replaces() {
        let store = KvStore::with_defaults();
        store.put("k", Bytes::from_static(b"v1")).unwrap();
        store.put("k", Bytes::from_static(b"v2")).unwrap();
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"v2"));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn prefix_range_sorted() {
        let store = KvStore::with_defaults();
        for k in ["fn1/ckpt/2", "fn1/ckpt/1", "fn2/ckpt/1", "fn1/state"] {
            store.put(k, Bytes::new()).unwrap();
        }
        assert_eq!(
            store.keys_with_prefix("fn1/ckpt/"),
            vec![
                Bytes::from_static(b"fn1/ckpt/1"),
                Bytes::from_static(b"fn1/ckpt/2")
            ]
        );
        assert_eq!(
            store.keys_with_prefix("fn1/ckpt/"),
            store.keys_with_prefix_scan("fn1/ckpt/")
        );
    }

    #[test]
    fn empty_prefix_returns_every_key_in_order() {
        let store = KvStore::with_defaults();
        for k in ["b", "a", "c"] {
            store.put(k, Bytes::new()).unwrap();
        }
        let all = store.keys_with_prefix(b"");
        assert_eq!(
            all,
            vec![
                Bytes::from_static(b"a"),
                Bytes::from_static(b"b"),
                Bytes::from_static(b"c")
            ]
        );
        assert_eq!(all, store.keys_with_prefix_scan(b""));
    }

    #[test]
    fn prefix_at_key_space_boundaries() {
        let store = KvStore::with_defaults();
        // Keys at both extremes of the byte ordering.
        store.put([0x00u8], Bytes::new()).unwrap();
        store.put([0x00u8, 0x01], Bytes::new()).unwrap();
        store.put([0xFFu8], Bytes::new()).unwrap();
        store.put([0xFFu8, 0xFF], Bytes::new()).unwrap();
        store.put([0xFFu8, 0xFF, 0x07], Bytes::new()).unwrap();
        // An all-0xFF prefix has no finite upper bound: the range runs to
        // the end of the key space.
        assert_eq!(prefix_upper_bound(&[0xFF, 0xFF]), None);
        assert_eq!(store.keys_with_prefix([0x00u8]).len(), 2);
        assert_eq!(store.keys_with_prefix([0xFFu8]).len(), 3);
        assert_eq!(store.keys_with_prefix([0xFFu8, 0xFF]).len(), 2);
        for prefix in [&[0x00u8][..], &[0xFF][..], &[0xFF, 0xFF][..]] {
            assert_eq!(
                store.keys_with_prefix(prefix),
                store.keys_with_prefix_scan(prefix),
                "prefix {prefix:?}"
            );
        }
    }

    #[test]
    fn interleaved_table_prefixes_stay_separate() {
        let store = KvStore::with_defaults();
        // Two binary "tables" (tag byte + id) interleaved with a string
        // namespace, mimicking the metadata layout.
        for id in [3u8, 1, 2] {
            store.put([0x02, id], Bytes::new()).unwrap();
            store.put([0x03, id], Bytes::new()).unwrap();
        }
        store.put("payload/x", Bytes::new()).unwrap();
        let jobs = store.keys_with_prefix([0x02u8]);
        assert_eq!(jobs.len(), 3);
        assert!(jobs.windows(2).all(|w| w[0] < w[1]));
        assert!(jobs.iter().all(|k| k[0] == 0x02));
        assert_eq!(store.keys_with_prefix([0x03u8]).len(), 3);
        assert_eq!(store.keys_with_prefix("payload/").len(), 1);
        assert_eq!(
            store.keys_with_prefix([0x02u8]),
            store.keys_with_prefix_scan([0x02u8])
        );
    }

    #[test]
    fn accounting() {
        let store = KvStore::with_defaults();
        assert!(store.is_empty());
        store.put("a", Bytes::from(vec![0u8; 10])).unwrap();
        store.put("b", Bytes::from(vec![0u8; 20])).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.total_bytes(), 30);
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.total_bytes(), 0);
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let store = Arc::new(KvStore::with_defaults());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let key = format!("t{t}/k{i}");
                        store.put(&key, Bytes::from(vec![t as u8; 64])).unwrap();
                        assert_eq!(store.get(&key).unwrap().len(), 64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(store.len(), 8 * 500);
    }

    #[test]
    fn snapshot_is_complete_and_sorted() {
        let store = KvStore::with_defaults();
        for i in (0..50).rev() {
            store
                .put(format!("k{i:02}"), Bytes::from(vec![i as u8]))
                .unwrap();
        }
        let snap = store.snapshot();
        assert_eq!(snap.len(), 50);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn load_equals_putting_the_image_in_order() {
        let config = StoreConfig {
            shards: 4,
            entry_limit: 4,
        };
        // Unsorted, with repeated keys and one value over the limit.
        let entries: Vec<(Bytes, Bytes)> = [
            ("k3", "a"),
            ("k1", "a"),
            ("k3", "bb"),
            ("k2", "too-big"),
            ("k9", "a"),
            ("k1", "ccc"),
        ]
        .iter()
        .map(|(k, v)| {
            (
                Bytes::from_static(k.as_bytes()),
                Bytes::from_static(v.as_bytes()),
            )
        })
        .collect();
        let image = StoreImage::partition(entries.clone(), config.shards);
        // Into an empty store (bulk rebuild) and into one that already
        // holds keys in some shards (insert by insert).
        for seeded in [&[][..], &[("k1", "old"), ("k7", "x")][..]] {
            let loaded = KvStore::new(config.clone());
            let reference = KvStore::new(config.clone());
            for (k, v) in seeded {
                for store in [&loaded, &reference] {
                    store.put(k, Bytes::from_static(v.as_bytes())).unwrap();
                }
            }
            loaded.load(&image);
            for (k, v) in &entries {
                let _ = reference.put_shared(k.clone(), v.clone());
            }
            assert_eq!(loaded.snapshot(), reference.snapshot());
            assert_eq!(loaded.len(), reference.len());
            assert!(loaded.same_contents(&reference));
        }
    }

    #[test]
    fn put_shared_stores_the_exact_handle() {
        let store = KvStore::with_defaults();
        let value = Bytes::from(vec![7u8; 128]);
        store
            .put_shared(Bytes::from_static(b"k"), value.clone())
            .unwrap();
        // The stored value is the same refcounted buffer, not a copy.
        assert_eq!(store.get("k").unwrap().as_ptr(), value.as_ptr());
    }
}
