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
//! * [`ReadCache`] — the page + leaf cache proper: one [`LruMap`] over the
//!   whole byte budget behind one lock, with
//!   [`FabricStats`](fabric::FabricStats)-style counters
//!   ([`ReadCacheStats`]) so benches can gate on deterministic currencies.
//!
//! Capacity is accounted in *logical* payload bytes (`Payload::len`), so
//! ghost payloads in simulation benches exercise the same eviction behavior
//! as real bytes in live mode.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

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
    /// map. Returns whether the map kept the entry.
    pub(crate) fn insert(&mut self, key: K, value: V, weight: u64) -> bool {
        if weight > self.cap_weight {
            // Still displace an existing (now stale-weight) entry under the
            // same key, so the map never lies about containment.
            self.remove(&key);
            return false;
        }
        if let Some(old) = self.entries.remove(&key) {
            self.used_weight -= old.weight;
            self.recency.remove(&old.tick);
        }
        while self.used_weight + weight > self.cap_weight {
            let Some((&oldest, _)) = self.recency.iter().next() else {
                break;
            };
            if let Some(k) = self.recency.remove(&oldest) {
                if let Some(e) = self.entries.remove(&k) {
                    self.used_weight -= e.weight;
                    self.evictions += 1;
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
        true
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

/// Per-entry bookkeeping overhead charged against the byte budget, so a
/// million tiny leaves cannot hide from the cap.
const ENTRY_OVERHEAD: u64 = 64;

/// The client-side read cache: one bounded, deterministic LRU over the
/// whole byte budget.
///
/// One lock guards the map and its counters. It ranks
/// `lock_ranks::READ_CACHE` — above every service lock, so a cache probe
/// can never participate in a cross-service lock cycle, and the shim's
/// `wire-while-locked` assertion keeps fabric traffic out of the critical
/// section (lookups copy out and drop the guard before any fetch). One
/// lock is enough: a live fan-out runs on its caller's thread, the sim
/// runs one proc at a time, and each benchmark reader has a client of its
/// own; only BSFS shares one client between the tasks of a job.
#[derive(Debug)]
pub struct ReadCache {
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    lru: LruMap<CacheKey, CacheVal>,
    /// Lookup and insertion counts; `stats` reads the rest from `lru`.
    counts: ReadCacheStats,
}

impl ReadCache {
    /// A cache bounded to `cap_bytes` logical bytes. `cap_bytes == 0`
    /// disables caching entirely: every lookup misses, every insert is
    /// dropped.
    pub fn new(cap_bytes: u64) -> Self {
        let inner = Inner {
            lru: LruMap::new(cap_bytes),
            counts: ReadCacheStats::default(),
        };
        ReadCache {
            inner: Mutex::with_rank(inner, lock_ranks::READ_CACHE),
        }
    }

    /// Look up a full page of a published version. Returns a cheap clone of
    /// the payload (payloads are refcounted byte buffers / ghost lengths).
    pub fn get_page(&self, blob: BlobId, version: Version, id: PageId) -> Option<Payload> {
        let mut inner = self.inner.lock();
        let hit = match inner.lru.get(&CacheKey::Page(blob, version, id)) {
            Some(CacheVal::Page(p)) => Some(p.clone()),
            _ => None,
        };
        match hit {
            Some(_) => inner.counts.page_hits += 1,
            None => inner.counts.page_misses += 1,
        }
        hit
    }

    /// Insert a full page of a **published** version.
    pub fn put_page(&self, blob: BlobId, version: Version, id: PageId, payload: Payload) {
        let weight = payload.len() + ENTRY_OVERHEAD;
        self.insert(
            CacheKey::Page(blob, version, id),
            CacheVal::Page(payload),
            weight,
        );
    }

    /// Look up the page ref under a metadata-tree leaf of a published
    /// version.
    pub(crate) fn get_leaf(&self, key: NodeKey) -> Option<PageRef> {
        let mut inner = self.inner.lock();
        let hit = match inner.lru.get(&CacheKey::Leaf(key)) {
            Some(CacheVal::Leaf(page)) => Some(page.clone()),
            _ => None,
        };
        match hit {
            Some(_) => inner.counts.leaf_hits += 1,
            None => inner.counts.leaf_misses += 1,
        }
        hit
    }

    /// Insert a metadata-tree leaf of a **published** version.
    pub(crate) fn put_leaf(&self, key: NodeKey, page: PageRef) {
        // A leaf's budget weight: bookkeeping plus a nominal per-replica
        // cost for the provider list it carries.
        let weight = ENTRY_OVERHEAD + 48 + 8 * page.providers.len() as u64;
        self.insert(CacheKey::Leaf(key), CacheVal::Leaf(page), weight);
    }

    /// Insert one entry, counting it only if the map kept it.
    fn insert(&self, key: CacheKey, val: CacheVal, weight: u64) {
        let mut inner = self.inner.lock();
        if inner.lru.insert(key, val, weight) {
            inner.counts.insertions += 1;
        }
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> ReadCacheStats {
        let inner = self.inner.lock();
        ReadCacheStats {
            evictions: inner.lru.evictions(),
            resident_bytes: inner.lru.used_weight(),
            resident_entries: inner.lru.len() as u64,
            ..inner.counts
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
        assert!(lru.insert(4, "d", 1));
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
        assert!(!lru.insert(1, (), 100));
        assert!(lru.get(&1).is_none());
        assert_eq!(lru.used_weight(), 4);
        // A weight-7 insert must evict the one resident (4 + 7 > 10).
        assert!(lru.insert(3, (), 7));
        assert_eq!(lru.evictions(), 1);
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
        let cache = ReadCache::new(0);
        cache.put_page(BlobId(1), 1, PageId(0, 0), Payload::ghost(10));
        assert!(cache.get_page(BlobId(1), 1, PageId(0, 0)).is_none());
        let s = cache.stats();
        assert_eq!(s.insertions, 0);
        assert_eq!(s.resident_entries, 0);
    }

    #[test]
    fn a_page_over_the_budget_is_not_counted_as_inserted() {
        let cache = ReadCache::new(8 * 1024);
        cache.put_page(BlobId(1), 1, PageId(0, 0), Payload::ghost(8 * 1024));
        assert!(cache.get_page(BlobId(1), 1, PageId(0, 0)).is_none());
        let s = cache.stats();
        assert_eq!((s.insertions, s.resident_entries), (0, 0));
    }

    #[test]
    fn cache_capacity_bounds_resident_bytes() {
        // Tiny cache: room for 16 small pages.
        let cap = 8 * 256;
        let cache = ReadCache::new(cap);
        for i in 0..1000u64 {
            cache.put_page(BlobId(1), 1, PageId(i, i), Payload::ghost(64));
        }
        let s = cache.stats();
        assert!(s.resident_bytes <= cap, "{} > {cap}", s.resident_bytes);
        assert!(s.evictions > 0);
    }

    #[test]
    fn a_page_under_the_budget_is_cached_whole() {
        // 2 000 bytes is a quarter of the budget: it must be cached, not
        // measured against a slice of it.
        let cache = ReadCache::new(8 * 1024);
        cache.put_page(BlobId(1), 1, PageId(0, 0), Payload::ghost(2_000));
        assert_eq!(
            cache.get_page(BlobId(1), 1, PageId(0, 0)).map(|p| p.len()),
            Some(2_000)
        );
        assert_eq!(cache.stats().page_hits, 1);
    }

    #[test]
    fn recency_spans_the_whole_cache() {
        // Four pages of 2 048 budget bytes each fill the 8 KiB exactly.
        let cache = ReadCache::new(8 * 1024);
        let page = |i: u64| PageId(i, 3 * i + 1);
        let put = |i: u64| {
            cache.put_page(
                BlobId(2),
                1,
                page(i),
                Payload::ghost(2_048 - ENTRY_OVERHEAD),
            )
        };
        (0..4).for_each(put);
        assert_eq!(cache.stats().evictions, 0);
        // Touch the oldest, then make room for one more.
        assert!(cache.get_page(BlobId(2), 1, page(0)).is_some());
        put(4);
        let s = cache.stats();
        assert_eq!((s.evictions, s.resident_entries), (1, 4));
        assert!(cache.get_page(BlobId(2), 1, page(0)).is_some());
        assert!(cache.get_page(BlobId(2), 1, page(1)).is_none());
        for i in 2..5 {
            assert!(cache.get_page(BlobId(2), 1, page(i)).is_some(), "page {i}");
        }
    }
}
