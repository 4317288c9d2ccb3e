//! Snapshot-scoped read cache: pages and metadata-tree leaves of *published*
//! versions.
//!
//! BlobSeer never mutates a published snapshot — a page or metadata leaf is
//! immutable the moment its version publishes, which makes every entry here
//! effectively content-addressed under `(blob, version, page)`. The cache
//! therefore needs **zero invalidation protocol**: entries can only become
//! cold, never wrong. The one rule that keeps this true is enforced by the
//! caller ([`crate::client::BlobClient`]): nothing belonging to an
//! unpublished / pending version is ever inserted or consulted — pending
//! trees can still be rewritten by a write-timeout force-complete.
//!
//! Two building blocks live here:
//!
//! * [`LruMap`] — a deterministic weight-bounded LRU (recency tracked by a
//!   monotone tick in a `BTreeMap`, so eviction order is a pure function of
//!   the access sequence — no hash-iteration order, no wall clock). Also
//!   reused to bound the client's descriptor/page-size caches.
//! * [`ReadCache`] — the sharded page + leaf cache proper, with
//!   [`FabricStats`](fabric::FabricStats)-style counters
//!   ([`ReadCacheStats`]) so benches can gate on deterministic currencies.
//!
//! Capacity is accounted in *logical* payload bytes (`Payload::len`), so
//! ghost payloads in simulation benches exercise the same eviction behavior
//! as real bytes in live mode.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use fabric::Payload;
use parking_lot::Mutex;

use crate::lock_ranks;
use crate::meta::{NodeKey, PageRef};
use crate::types::{BlobId, PageId, Version};

/// A deterministic, weight-bounded LRU map.
///
/// Recency is a monotone `u64` tick: every touch moves the key to the back
/// of a `BTreeMap<tick, key>` index, and eviction pops the smallest tick.
/// Given the same sequence of operations the same entries are evicted, on
/// every run — the property the chaos replay rail and bench baselines need.
#[derive(Debug)]
pub(crate) struct LruMap<K, V> {
    cap_weight: u64,
    used_weight: u64,
    tick: u64,
    evictions: u64,
    entries: HashMap<K, LruEntry<V>>,
    recency: BTreeMap<u64, K>,
}

#[derive(Debug)]
struct LruEntry<V> {
    value: V,
    weight: u64,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// An LRU holding at most `cap_weight` total weight. Zero capacity is a
    /// valid, always-empty map (inserts are dropped).
    pub(crate) fn new(cap_weight: u64) -> Self {
        LruMap {
            cap_weight,
            used_weight: 0,
            tick: 0,
            evictions: 0,
            entries: HashMap::new(),
            recency: BTreeMap::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn used_weight(&self) -> u64 {
        self.used_weight
    }

    pub(crate) fn cap_weight(&self) -> u64 {
        self.cap_weight
    }

    /// Entries evicted over the map's lifetime (not removals).
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        let tick = self.tick + 1;
        let entry = self.entries.get_mut(key)?;
        let old = entry.tick;
        entry.tick = tick;
        self.tick = tick;
        self.recency.remove(&old);
        self.recency.insert(tick, key.clone());
        self.entries.get(key).map(|e| &e.value)
    }

    /// Insert `key -> value` with the given weight, evicting
    /// least-recently-used entries until the new total fits. An entry
    /// heavier than the whole capacity is dropped rather than thrashing the
    /// map. Returns the number of entries evicted.
    pub(crate) fn insert(&mut self, key: K, value: V, weight: u64) -> u64 {
        if weight > self.cap_weight {
            // Still displace an existing (now stale-weight) entry under the
            // same key, so the map never lies about containment.
            self.remove(&key);
            return 0;
        }
        if let Some(old) = self.entries.remove(&key) {
            self.used_weight -= old.weight;
            self.recency.remove(&old.tick);
        }
        let mut evicted = 0;
        while self.used_weight + weight > self.cap_weight {
            let Some((&oldest, _)) = self.recency.iter().next() else {
                break;
            };
            if let Some(k) = self.recency.remove(&oldest) {
                if let Some(e) = self.entries.remove(&k) {
                    self.used_weight -= e.weight;
                    self.evictions += 1;
                    evicted += 1;
                }
            }
        }
        self.tick += 1;
        let tick = self.tick;
        self.recency.insert(tick, key.clone());
        self.entries.insert(
            key,
            LruEntry {
                value,
                weight,
                tick,
            },
        );
        self.used_weight += weight;
        evicted
    }

    /// Remove `key` (a removal, not an eviction).
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        let entry = self.entries.remove(key)?;
        self.used_weight -= entry.weight;
        self.recency.remove(&entry.tick);
        Some(entry.value)
    }
}

/// Counters of a [`ReadCache`], mirroring the `FabricStats` pattern: plain
/// numbers a deterministic run reproduces exactly, so benches self-diff them
/// against committed baselines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCacheStats {
    /// Page lookups answered from the cache.
    pub page_hits: u64,
    /// Page lookups that missed (and went to a provider).
    pub page_misses: u64,
    /// Metadata-leaf lookups answered from the cache.
    pub leaf_hits: u64,
    /// Metadata-leaf lookups that missed (and went to the DHT).
    pub leaf_misses: u64,
    /// Entries displaced by capacity pressure (pages + leaves).
    pub evictions: u64,
    /// Entries inserted (pages + leaves).
    pub insertions: u64,
    /// Logical bytes currently resident.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub resident_entries: u64,
}

impl ReadCacheStats {
    /// Page hit rate in `[0, 1]`; 0 when no page lookups happened.
    pub fn page_hit_rate(&self) -> f64 {
        let total = self.page_hits + self.page_misses;
        if total == 0 {
            0.0
        } else {
            self.page_hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CacheKey {
    /// A data page of a published version: `(blob, version, page)`.
    Page(BlobId, Version, PageId),
    /// A metadata-tree leaf. The [`NodeKey`] already scopes the entry to
    /// `(blob, owner version, page range)`, the tree's content address.
    Leaf(NodeKey),
}

#[derive(Debug, Clone)]
enum CacheVal {
    Page(Payload),
    Leaf(PageRef),
}

/// Fixed shard count: enough to keep reader threads in live mode off each
/// other's locks, few enough that the per-shard capacity still fits whole
/// paper-scale (64 MB) pages under the default budget.
const SHARDS: usize = 8;

/// Per-entry bookkeeping overhead charged against the byte budget, so a
/// million tiny leaves cannot hide from the cap.
const ENTRY_OVERHEAD: u64 = 64;

/// The client-side read cache: bounded, sharded, deterministic.
///
/// All locks rank `lock_ranks::READ_CACHE` — above every service lock, so
/// a cache probe can never participate in a cross-service lock cycle, and
/// the shim's `wire-while-locked` assertion keeps fabric traffic out of the
/// critical sections (lookups copy out and drop the guard before any fetch).
#[derive(Debug)]
pub struct ReadCache {
    shards: Vec<Mutex<LruMap<CacheKey, CacheVal>>>,
    page_hits: AtomicU64,
    page_misses: AtomicU64,
    leaf_hits: AtomicU64,
    leaf_misses: AtomicU64,
    insertions: AtomicU64,
}

impl ReadCache {
    /// A cache bounded to `cap_bytes` logical bytes (split evenly across
    /// shards). `cap_bytes == 0` disables caching entirely: every lookup
    /// misses, every insert is dropped.
    pub fn new(cap_bytes: u64) -> Self {
        let per_shard = cap_bytes / SHARDS as u64;
        ReadCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::with_rank(LruMap::new(per_shard), lock_ranks::READ_CACHE))
                .collect(),
            page_hits: AtomicU64::new(0),
            page_misses: AtomicU64::new(0),
            leaf_hits: AtomicU64::new(0),
            leaf_misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    /// A cache that never holds anything (used to compare cached vs uncached
    /// reads, and by deployments that opt out).
    pub(crate) fn disabled() -> Self {
        Self::new(0)
    }

    /// Shard selector for `key`. Call sites index `self.shards` with this
    /// modulo `SHARDS` directly, so the bound stands beside the
    /// `#[expect(clippy::indexing_slicing)]` that cites it.
    fn shard_mix(key: &CacheKey) -> u64 {
        match key {
            CacheKey::Page(_, _, id) => id.0 ^ id.1,
            CacheKey::Leaf(k) => k.blob.0 ^ k.version ^ k.page_lo ^ k.page_hi.rotate_left(17),
        }
    }

    /// Look up a full page of a published version. Returns a cheap clone of
    /// the payload (payloads are refcounted byte buffers / ghost lengths).
    pub fn get_page(&self, blob: BlobId, version: Version, id: PageId) -> Option<Payload> {
        let key = CacheKey::Page(blob, version, id);
        let hit = {
            #[expect(clippy::indexing_slicing, reason = "`% SHARDS` = `shards.len()`")]
            let mut shard = self.shards[Self::shard_mix(&key) as usize % SHARDS].lock();
            match shard.get(&key) {
                Some(CacheVal::Page(p)) => Some(p.clone()),
                _ => None,
            }
        };
        match hit {
            Some(p) => {
                self.page_hits.fetch_add(1, Ordering::Relaxed);
                Some(p)
            }
            None => {
                self.page_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a full page of a **published** version.
    pub fn put_page(&self, blob: BlobId, version: Version, id: PageId, payload: Payload) {
        let weight = payload.len() + ENTRY_OVERHEAD;
        let key = CacheKey::Page(blob, version, id);
        #[expect(clippy::indexing_slicing, reason = "`% SHARDS` = `shards.len()`")]
        let mut shard = self.shards[Self::shard_mix(&key) as usize % SHARDS].lock();
        if shard.cap_weight() == 0 {
            return;
        }
        shard.insert(key, CacheVal::Page(payload), weight);
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Look up the page ref under a metadata-tree leaf of a published
    /// version.
    pub(crate) fn get_leaf(&self, key: NodeKey) -> Option<PageRef> {
        let key = CacheKey::Leaf(key);
        let hit = {
            #[expect(clippy::indexing_slicing, reason = "`% SHARDS` = `shards.len()`")]
            let mut shard = self.shards[Self::shard_mix(&key) as usize % SHARDS].lock();
            match shard.get(&key) {
                Some(CacheVal::Leaf(page)) => Some(page.clone()),
                _ => None,
            }
        };
        match hit {
            Some(page) => {
                self.leaf_hits.fetch_add(1, Ordering::Relaxed);
                Some(page)
            }
            None => {
                self.leaf_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a metadata-tree leaf of a **published** version.
    pub(crate) fn put_leaf(&self, key: NodeKey, page: PageRef) {
        // A leaf's budget weight: bookkeeping plus a nominal per-replica
        // cost for the provider list it carries.
        let weight = ENTRY_OVERHEAD + 48 + 8 * page.providers.len() as u64;
        let key = CacheKey::Leaf(key);
        #[expect(clippy::indexing_slicing, reason = "`% SHARDS` = `shards.len()`")]
        let mut shard = self.shards[Self::shard_mix(&key) as usize % SHARDS].lock();
        if shard.cap_weight() == 0 {
            return;
        }
        shard.insert(key, CacheVal::Leaf(page), weight);
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counters. Resident figures sum over shards at call time.
    pub(crate) fn stats(&self) -> ReadCacheStats {
        let mut resident_bytes = 0;
        let mut resident_entries = 0;
        let mut evictions = 0;
        for shard in &self.shards {
            let s = shard.lock();
            resident_bytes += s.used_weight();
            resident_entries += s.len() as u64;
            evictions += s.evictions();
        }
        ReadCacheStats {
            page_hits: self.page_hits.load(Ordering::Relaxed),
            page_misses: self.page_misses.load(Ordering::Relaxed),
            leaf_hits: self.leaf_hits.load(Ordering::Relaxed),
            leaf_misses: self.leaf_misses.load(Ordering::Relaxed),
            evictions,
            insertions: self.insertions.load(Ordering::Relaxed),
            resident_bytes,
            resident_entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_in_recency_order() {
        let mut lru: LruMap<u32, &str> = LruMap::new(3);
        lru.insert(1, "a", 1);
        lru.insert(2, "b", 1);
        lru.insert(3, "c", 1);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(lru.get(&1), Some(&"a"));
        let evicted = lru.insert(4, "d", 1);
        assert_eq!(evicted, 1);
        assert!(lru.get(&2).is_none());
        assert!(lru.get(&1).is_some());
        assert!(lru.get(&3).is_some());
        assert!(lru.get(&4).is_some());
        assert_eq!(lru.evictions(), 1);
    }

    #[test]
    fn lru_weight_accounting_and_oversize() {
        let mut lru: LruMap<u32, ()> = LruMap::new(10);
        lru.insert(1, (), 4);
        lru.insert(2, (), 4);
        assert_eq!(lru.used_weight(), 8);
        // Re-inserting a key replaces its weight instead of double-counting.
        lru.insert(1, (), 2);
        assert_eq!(lru.used_weight(), 6);
        assert_eq!(lru.len(), 2);
        // Oversize entries are dropped and also displace the stale key.
        lru.insert(1, (), 100);
        assert!(lru.get(&1).is_none());
        assert_eq!(lru.used_weight(), 4);
        // A weight-7 insert must evict both residents (4 + 7 > 10).
        let evicted = lru.insert(3, (), 7);
        assert_eq!(evicted, 1);
        assert_eq!(lru.used_weight(), 7);
    }

    #[test]
    fn lru_zero_capacity_drops_everything() {
        let mut lru: LruMap<u32, ()> = LruMap::new(0);
        lru.insert(1, (), 0);
        // Zero-weight entries do fit a zero cap (0 + 0 <= 0)... but with the
        // ENTRY_OVERHEAD every real cache entry has weight > 0:
        let mut lru2: LruMap<u32, ()> = LruMap::new(0);
        lru2.insert(1, (), 1);
        assert_eq!(lru2.len(), 0);
    }

    #[test]
    fn cache_hits_misses_and_eviction_counters() {
        let cache = ReadCache::new(8 * 1024);
        let blob = BlobId(7);
        let id = PageId(1, 2);
        assert!(cache.get_page(blob, 3, id).is_none());
        cache.put_page(blob, 3, id, Payload::ghost(100));
        let got = cache.get_page(blob, 3, id).unwrap();
        assert_eq!(got.len(), 100);
        // Same page id under a different version is a distinct entry.
        assert!(cache.get_page(blob, 4, id).is_none());
        let s = cache.stats();
        assert_eq!(s.page_hits, 1);
        assert_eq!(s.page_misses, 2);
        assert_eq!(s.insertions, 1);
        assert_eq!(s.resident_entries, 1);
        assert_eq!(s.resident_bytes, 100 + ENTRY_OVERHEAD);
    }

    #[test]
    fn disabled_cache_never_holds() {
        let cache = ReadCache::disabled();
        cache.put_page(BlobId(1), 1, PageId(0, 0), Payload::ghost(10));
        assert!(cache.get_page(BlobId(1), 1, PageId(0, 0)).is_none());
        let s = cache.stats();
        assert_eq!(s.insertions, 0);
        assert_eq!(s.resident_entries, 0);
    }

    #[test]
    fn cache_capacity_bounds_resident_bytes() {
        // Tiny cache: every shard holds ~2 small pages.
        let cap = 8 * 256;
        let cache = ReadCache::new(cap);
        for i in 0..1000u64 {
            cache.put_page(BlobId(1), 1, PageId(i, i), Payload::ghost(64));
        }
        let s = cache.stats();
        assert!(s.resident_bytes <= cap, "{} > {cap}", s.resident_bytes);
        assert!(s.evictions > 0);
    }
}
