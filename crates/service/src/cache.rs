//! Cross-query LRU result cache with epoch-versioned entries.
//!
//! Keys are *canonicalized* queries: start vertex, the canonical form of
//! every sequence position, and the engine configuration the result was
//! computed under. Since PR 2, complex
//! [`Requirement`](skysr_category::Requirement) positions canonicalize too
//! (sorted/deduplicated/flattened connectives, normalized exclusion
//! chains — see [`skysr_core::CanonicalPosition`]), so *every* valid query
//! is cacheable and structurally different spellings of one requirement
//! share a single entry.
//!
//! Values are `Arc<[SkylineRoute]>` *stamped with the weight
//! [`EpochId`] they were computed under*. Dynamic edge weights make a
//! skyline valid only for its epoch, so a lookup supplies the requester's
//! pinned epoch and an entry answers only when the stamps match:
//!
//! * an **older** entry is dropped on sight and counted in
//!   `invalidations` — *lazy invalidation*: no epoch publish ever scans
//!   the cache, stale entries die on first touch (or by ordinary LRU
//!   pressure);
//! * a **newer** entry (the requester pinned an epoch that has since been
//!   superseded) is not returned, but is left in place — and
//!   [`insert`](ResultCache::insert) refuses to overwrite a newer-epoch
//!   entry with an older result, so a slow straggler can never regress the
//!   cache.
//!
//! All reads go through one non-invalidating primitive —
//! [`probe`](ResultCache::probe) — which the `ReusePlanner` drives
//! (exact-hit, repair-source, prefix / ancestor / suffix seed probes are
//! all the same call); the planner performs lazy invalidation
//! deliberately ([`discard_older`](ResultCache::discard_older)) when a
//! stale entry has no repair path.
//!
//! The cache counts only what it alone can see: stored results
//! (`insertions`; inserting over an identical key refreshes the entry
//! without counting an eviction), capacity displacement (`evictions`) and
//! epoch-stale drops (`invalidations`), disjoint by construction. Whether
//! a request was *answered* from the cache is its response's
//! [`Served::CacheHit`](crate::Served::CacheHit) outcome, counted by the
//! `exact_hit` rung of the service metrics.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use skysr_category::CategoryId;
use skysr_core::bssr::BssrConfig;
use skysr_core::query::CanonicalPosition;
use skysr_core::query::SkySrQuery;
use skysr_core::route::SkylineRoute;
use skysr_graph::{EpochId, VertexId};

/// Canonical cache key for a SkySR query under one engine configuration.
///
/// Deliberately *epoch-free*: the epoch lives on the entry, not in the
/// key, so one logical query occupies one slot whose stamp advances with
/// traffic instead of leaking an entry per epoch.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryKey {
    start: VertexId,
    positions: Box<[CanonicalPosition]>,
    config: BssrConfig,
}

impl QueryKey {
    /// Canonicalizes `query`. Total: every syntactically valid query has a
    /// key (complex requirements are reduced to their canonical form).
    pub fn canonicalize(query: &SkySrQuery, config: BssrConfig) -> QueryKey {
        QueryKey {
            start: query.start,
            positions: query.canonical_positions().into_boxed_slice(),
            config,
        }
    }

    /// The key of this query's (k−1)-position prefix under the same start
    /// and configuration — the entry a warm start reuses. `None` for
    /// single-position queries.
    pub fn prefix(&self) -> Option<QueryKey> {
        (self.positions.len() >= 2).then(|| QueryKey {
            start: self.start,
            positions: self.positions[..self.positions.len() - 1].into(),
            config: self.config,
        })
    }

    /// The key of this query's ⟨c₂, …, c_k⟩ *suffix* under the same start
    /// and configuration — the entry suffix reuse prepends one leg to.
    /// `None` for single-position queries.
    pub fn suffix(&self) -> Option<QueryKey> {
        (self.positions.len() >= 2).then(|| QueryKey {
            start: self.start,
            positions: self.positions[1..].into(),
            config: self.config,
        })
    }

    /// The plain category at position `i`, if that position is (or
    /// canonicalizes to) one — the anchor for ancestor-category probes.
    pub fn position_category(&self, i: usize) -> Option<CategoryId> {
        match self.positions.get(i)? {
            CanonicalPosition::Category(c) => Some(*c),
            CanonicalPosition::Requirement(_) => None,
        }
    }

    /// This key with position `i` replaced by the plain category `c` —
    /// the key an ancestor-category variant of the query lives under.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn with_position_category(&self, i: usize, c: CategoryId) -> QueryKey {
        let mut positions = self.positions.clone();
        positions[i] = CanonicalPosition::Category(c);
        QueryKey { start: self.start, positions, config: self.config }
    }

    /// Number of sequence positions.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the key has no positions (never true for keys built by
    /// [`QueryKey::canonicalize`] from a valid query).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// One cached skyline: the routes plus the weight epoch they are valid
/// for.
#[derive(Clone, Debug)]
struct CacheEntry {
    epoch: EpochId,
    routes: Arc<[SkylineRoute]>,
}

// Placeholder left in freed slab slots (see `Lru::remove`): must not keep
// any skyline alive.
impl Default for CacheEntry {
    fn default() -> CacheEntry {
        CacheEntry { epoch: EpochId::BASE, routes: Vec::new().into() }
    }
}

/// Plain LRU map: `HashMap` for lookup plus an index-linked list for
/// recency order. All operations are O(1); no allocation after the node
/// slab reaches capacity.
struct Lru<K, V> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    /// Most recently used, or `NIL`.
    head: usize,
    /// Least recently used, or `NIL`.
    tail: usize,
    free: Vec<usize>,
    capacity: usize,
}

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl<K: Clone + Eq + std::hash::Hash, V: Default> Lru<K, V> {
    fn new(capacity: usize) -> Lru<K, V> {
        assert!(capacity > 0, "LRU capacity must be positive");
        Lru {
            map: HashMap::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            capacity,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.nodes[h].prev = i,
        }
        self.head = i;
    }

    /// Reads `key`'s value without touching recency order.
    fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&i| &self.nodes[i].value)
    }

    /// Slot index of `key`, if resident. The index stays valid until the
    /// entry is removed or evicted; index-based accessors below let a
    /// lookup hash the key once instead of once per operation (this all
    /// runs under the cache mutex every worker contends on).
    fn index_of(&self, key: &K) -> Option<usize> {
        self.map.get(key).copied()
    }

    /// The value stored in slot `i`.
    fn value(&self, i: usize) -> &V {
        &self.nodes[i].value
    }

    /// Marks slot `i` most recently used.
    fn promote_index(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Removes slot `i`'s entry. The freed slot's value is dropped
    /// immediately — an invalidated skyline must not stay heap-resident
    /// until some later insert happens to reuse the slot.
    fn remove_index(&mut self, i: usize) {
        self.map.remove(&self.nodes[i].key);
        self.unlink(i);
        self.nodes[i].value = V::default();
        self.free.push(i);
    }

    /// Inserts (or refreshes) `key`; returns `true` when an older entry
    /// was evicted to make room. Refreshing an identical key never
    /// evicts — the entry count does not grow.
    fn insert(&mut self, key: K, value: V) -> bool {
        if let Some(&i) = self.map.get(&key) {
            self.nodes[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return false;
        }
        let mut evicted = false;
        if self.map.len() == self.capacity {
            let lru = self.tail;
            self.unlink(lru);
            self.map.remove(&self.nodes[lru].key);
            self.free.push(lru);
            evicted = true;
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = Node { key: key.clone(), value, prev: NIL, next: NIL };
                i
            }
            None => {
                self.nodes.push(Node { key: key.clone(), value, prev: NIL, next: NIL });
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        evicted
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Counter values of a [`ResultCache`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Results stored (first-time inserts and refreshes).
    pub insertions: u64,
    /// Entries displaced by capacity pressure. Refreshing an existing key
    /// is not an eviction, and epoch-stale drops are counted separately as
    /// `invalidations`.
    pub evictions: u64,
    /// Entries dropped because their epoch was older than a requester's
    /// pinned epoch (lazy invalidation of stale skylines).
    pub invalidations: u64,
    /// Entries currently stored.
    pub len: u64,
}

/// Thread-safe LRU cache from canonicalized queries to epoch-stamped
/// shared skylines.
pub struct ResultCache {
    inner: Mutex<Lru<QueryKey, CacheEntry>>,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl ResultCache {
    /// Cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Lru::new(capacity)),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The unified non-invalidating read primitive the reuse planner
    /// drives.
    ///
    /// Returns the resident entry with whatever epoch stamp it carries,
    /// as long as that stamp is **not newer** than `epoch` (a requester
    /// must never observe a future epoch's skyline; an entry published
    /// after its pin simply does not exist for it). The caller decides
    /// what the stamp means: equal ⇒ exact hit; older ⇒ repair source,
    /// provably-untouched seed material, or lazy-invalidation candidate
    /// ([`discard_older`](ResultCache::discard_older)).
    ///
    /// A found entry is marked recently used: reuse as a seed or repair
    /// source is a use.
    pub fn probe(&self, key: &QueryKey, epoch: EpochId) -> Option<(EpochId, Arc<[SkylineRoute]>)> {
        let mut lru = self.inner.lock().expect("cache poisoned");
        let i = lru.index_of(key)?;
        let entry_epoch = lru.value(i).epoch;
        if entry_epoch > epoch {
            return None;
        }
        let routes = Arc::clone(&lru.value(i).routes);
        lru.promote_index(i);
        Some((entry_epoch, routes))
    }

    /// Lazy invalidation: removes `key`'s entry iff it is stamped strictly
    /// older than `epoch`, counting an invalidation. The planner calls
    /// this when a stale entry has no repair path (repair disabled, or the
    /// epoch pair's delta was compacted away); with repair on, stale
    /// entries are left in place as repair raw material instead.
    pub fn discard_older(&self, key: &QueryKey, epoch: EpochId) -> bool {
        let mut lru = self.inner.lock().expect("cache poisoned");
        let Some(i) = lru.index_of(key) else {
            return false;
        };
        if lru.value(i).epoch >= epoch {
            return false;
        }
        lru.remove_index(i);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Stores a skyline computed at `epoch`.
    ///
    /// Refused (silently) when the cache already holds a *newer*-epoch
    /// entry for the key: a leader that started before an update published
    /// must not clobber the post-update result — its flight was pinned to
    /// the older epoch and its answer is already stale for new traffic.
    pub fn insert(&self, key: QueryKey, epoch: EpochId, routes: Arc<[SkylineRoute]>) {
        let mut lru = self.inner.lock().expect("cache poisoned");
        if lru.peek(&key).is_some_and(|e| e.epoch > epoch) {
            return;
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if lru.insert(key, CacheEntry { epoch, routes }) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current counter values.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            len: self.inner.lock().expect("cache poisoned").len() as u64,
        }
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache").field("counters", &self.counters()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skysr_category::{CategoryId, Requirement};
    use skysr_core::bssr::QueuePolicy;
    use skysr_core::query::PositionSpec;
    use skysr_graph::Cost;

    const E0: EpochId = EpochId::BASE;
    const E1: EpochId = EpochId(1);
    const E2: EpochId = EpochId(2);

    fn routes(n: u32) -> Arc<[SkylineRoute]> {
        vec![SkylineRoute { pois: vec![VertexId(n)], length: Cost::new(n as f64), semantic: 0.0 }]
            .into()
    }

    fn key(start: u32) -> QueryKey {
        let q = SkySrQuery::new(VertexId(start), [CategoryId(0), CategoryId(1)]);
        QueryKey::canonicalize(&q, BssrConfig::default())
    }

    /// The planner's exact-hit lookup, reconstructed from the unified
    /// primitives: probe, lazily invalidate a stale entry (the no-repair
    /// policy).
    fn get(cache: &ResultCache, key: &QueryKey, epoch: EpochId) -> Option<Arc<[SkylineRoute]>> {
        let hit = cache.probe(key, epoch).filter(|&(e, _)| e == epoch);
        if hit.is_none() {
            cache.discard_older(key, epoch);
        }
        hit.map(|(_, r)| r)
    }

    /// The planner's same-epoch seed probe, with the no-repair lazy
    /// invalidation of stale seed entries.
    fn peek(cache: &ResultCache, key: &QueryKey, epoch: EpochId) -> Option<Arc<[SkylineRoute]>> {
        match cache.probe(key, epoch) {
            Some((e, r)) if e == epoch => Some(r),
            Some(_) => {
                cache.discard_older(key, epoch);
                None
            }
            None => None,
        }
    }

    #[test]
    fn requirement_queries_are_cacheable_and_spelling_insensitive() {
        let cfg = BssrConfig::default();
        let plain = SkySrQuery::new(VertexId(0), [CategoryId(0)]);
        let wrapped = SkySrQuery::with_positions(
            VertexId(0),
            [PositionSpec::Requirement(Requirement::any_of([CategoryId(0)]))],
        );
        // A requirement that reduces to one category shares the plain
        // query's entry.
        assert_eq!(QueryKey::canonicalize(&plain, cfg), QueryKey::canonicalize(&wrapped, cfg));
        // Branch order of a genuine disjunction is canonicalized away.
        let ab = SkySrQuery::with_positions(
            VertexId(0),
            [PositionSpec::Requirement(Requirement::any_of([CategoryId(0), CategoryId(1)]))],
        );
        let ba = SkySrQuery::with_positions(
            VertexId(0),
            [PositionSpec::Requirement(Requirement::any_of([CategoryId(1), CategoryId(0)]))],
        );
        assert_eq!(QueryKey::canonicalize(&ab, cfg), QueryKey::canonicalize(&ba, cfg));
        assert_ne!(QueryKey::canonicalize(&ab, cfg), QueryKey::canonicalize(&plain, cfg));
    }

    #[test]
    fn prefix_key_drops_the_last_position() {
        let cfg = BssrConfig::default();
        let q3 = SkySrQuery::new(VertexId(7), [CategoryId(0), CategoryId(1), CategoryId(2)]);
        let q2 = SkySrQuery::new(VertexId(7), [CategoryId(0), CategoryId(1)]);
        let q1 = SkySrQuery::new(VertexId(7), [CategoryId(0)]);
        let k3 = QueryKey::canonicalize(&q3, cfg);
        let k2 = k3.prefix().expect("3-position key has a prefix");
        assert_eq!(k2, QueryKey::canonicalize(&q2, cfg));
        let k1 = k2.prefix().expect("2-position key has a prefix");
        assert_eq!(k1, QueryKey::canonicalize(&q1, cfg));
        assert_eq!(k1.prefix(), None, "single-position keys have no prefix");
        assert_eq!((k3.len(), k2.len(), k1.len()), (3, 2, 1));
        assert!(!k3.is_empty());
    }

    #[test]
    fn config_distinguishes_keys() {
        let q = SkySrQuery::new(VertexId(0), [CategoryId(0)]);
        let a = QueryKey::canonicalize(&q, BssrConfig::default());
        let b = QueryKey::canonicalize(
            &q,
            BssrConfig { queue_policy: QueuePolicy::DistanceBased, ..BssrConfig::default() },
        );
        assert_ne!(a, b);
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = ResultCache::new(4);
        assert!(get(&cache, &key(1), E0).is_none());
        cache.insert(key(1), E0, routes(1));
        let hit = get(&cache, &key(1), E0).expect("hit");
        assert_eq!(hit[0].pois, vec![VertexId(1)]);
        let c = cache.counters();
        assert_eq!((c.insertions, c.evictions, c.len), (1, 0, 1));
        assert_eq!(c.invalidations, 0);
    }

    #[test]
    fn stale_entries_miss_and_are_invalidated() {
        let cache = ResultCache::new(4);
        cache.insert(key(1), E0, routes(1));
        // A requester pinned to a later epoch must not see the old skyline.
        assert!(get(&cache, &key(1), E1).is_none());
        let c = cache.counters();
        assert_eq!(c.invalidations, 1, "the stale entry was dropped");
        assert_eq!(c.len, 0);
        assert_eq!(c.evictions, 0, "invalidation is not an eviction");
        // Gone for everyone, including its own epoch.
        assert!(get(&cache, &key(1), E0).is_none());
        // Refill at the new epoch serves the new epoch.
        cache.insert(key(1), E1, routes(2));
        assert!(get(&cache, &key(1), E1).is_some());
    }

    #[test]
    fn newer_entries_miss_for_older_pins_but_survive() {
        let cache = ResultCache::new(4);
        cache.insert(key(1), E2, routes(2));
        // A straggler pinned to an older epoch cannot use it...
        assert!(get(&cache, &key(1), E1).is_none());
        let c = cache.counters();
        assert_eq!(c.invalidations, 0, "newer entries are not invalidated");
        assert_eq!(c.len, 1);
        // ...and cannot overwrite it with its older result.
        cache.insert(key(1), E1, routes(1));
        let r = get(&cache, &key(1), E2).expect("newer entry survives");
        assert_eq!(r[0].pois, vec![VertexId(2)]);
        // The refused insert was not counted.
        assert_eq!(cache.counters().insertions, 1);
    }

    #[test]
    fn seed_probes_do_not_count_lookups_and_respect_epochs() {
        let cache = ResultCache::new(4);
        assert!(peek(&cache, &key(1), E0).is_none());
        cache.insert(key(1), E0, routes(1));
        assert!(peek(&cache, &key(1), E0).is_some());
        // Same-epoch only: a prefix skyline from epoch 0 must not seed an
        // epoch-1 search.
        assert!(peek(&cache, &key(1), E1).is_none());
        // The stale probe's explicit discard lazily invalidated the entry.
        assert_eq!(cache.counters().invalidations, 1);
        // But a probe refreshes recency: after probing 1 in a full cache,
        // the other entry is the eviction victim.
        let cache = ResultCache::new(2);
        cache.insert(key(1), E0, routes(1));
        cache.insert(key(2), E0, routes(2));
        assert!(peek(&cache, &key(1), E0).is_some());
        cache.insert(key(3), E0, routes(3));
        assert!(peek(&cache, &key(2), E0).is_none(), "2 was evicted");
        assert!(peek(&cache, &key(1), E0).is_some());
    }

    #[test]
    fn probe_returns_stale_entries_without_invalidating() {
        // The repair-source path: a stale probe leaves the entry in place
        // (it is the flight's repair raw material).
        let cache = ResultCache::new(4);
        cache.insert(key(1), E0, routes(1));
        let (e, r) = cache.probe(&key(1), E1).expect("stale entry visible to a newer pin");
        assert_eq!(e, E0);
        assert_eq!(r[0].pois, vec![VertexId(1)]);
        let c = cache.counters();
        assert_eq!(c.invalidations, 0, "the entry was left for repair");
        assert_eq!(c.len, 1);
        // ...and promoting it refreshes the same slot.
        cache.insert(key(1), E1, routes(2));
        let (e, r) = cache.probe(&key(1), E1).expect("promoted entry answers its epoch");
        assert_eq!(e, E1);
        assert_eq!(r[0].pois, vec![VertexId(2)]);
        let c = cache.counters();
        assert_eq!((c.len, c.evictions), (1, 0));
        // Newer entries are invisible to older pins, and stay.
        assert!(cache.probe(&key(1), E0).is_none());
        assert_eq!(cache.counters().len, 1);
        // Absent keys miss.
        assert!(cache.probe(&key(9), E0).is_none());
    }

    #[test]
    fn discard_older_only_drops_strictly_older_entries() {
        let cache = ResultCache::new(4);
        cache.insert(key(1), E1, routes(1));
        assert!(!cache.discard_older(&key(1), E1), "same epoch is not stale");
        assert!(!cache.discard_older(&key(1), E0), "newer entries survive older pins");
        assert!(!cache.discard_older(&key(9), E2), "absent keys are a no-op");
        assert_eq!(cache.counters().invalidations, 0);
        assert!(cache.discard_older(&key(1), E2), "strictly older entries drop");
        let c = cache.counters();
        assert_eq!((c.invalidations, c.len, c.evictions), (1, 0, 0));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ResultCache::new(2);
        cache.insert(key(1), E0, routes(1));
        cache.insert(key(2), E0, routes(2));
        // Touch 1, making 2 the eviction victim.
        assert!(get(&cache, &key(1), E0).is_some());
        cache.insert(key(3), E0, routes(3));
        assert!(get(&cache, &key(2), E0).is_none(), "2 was evicted");
        assert!(get(&cache, &key(1), E0).is_some());
        assert!(get(&cache, &key(3), E0).is_some());
        assert_eq!(cache.counters().evictions, 1);
        assert_eq!(cache.counters().invalidations, 0);
    }

    #[test]
    fn reinsert_over_identical_key_counts_no_eviction() {
        // Regression guard for the CI perf artifacts: refreshing an entry
        // (e.g. two uncoalesced workers finishing the same query) must not
        // inflate the eviction counter, even at capacity.
        let cache = ResultCache::new(2);
        cache.insert(key(1), E0, routes(1));
        cache.insert(key(2), E0, routes(2));
        // At capacity: re-inserting both existing keys evicts nothing.
        cache.insert(key(1), E0, routes(10));
        cache.insert(key(2), E0, routes(20));
        let c = cache.counters();
        assert_eq!(c.evictions, 0);
        assert_eq!(c.insertions, 4, "refreshes still count as insertions");
        assert_eq!(c.len, 2);
        assert_eq!(get(&cache, &key(1), E0).unwrap()[0].length, Cost::new(10.0));
        // 1 was refreshed more recently... then got, so 2 is LRU now.
        cache.insert(key(3), E0, routes(3));
        assert_eq!(cache.counters().evictions, 1);
        assert!(get(&cache, &key(2), E0).is_none());
    }

    #[test]
    fn epoch_refresh_over_identical_key_keeps_one_slot() {
        // Advancing an entry's epoch in place must not grow the cache or
        // count an eviction — one logical query, one slot.
        let cache = ResultCache::new(2);
        cache.insert(key(1), E0, routes(1));
        cache.insert(key(1), E1, routes(11));
        cache.insert(key(1), E2, routes(12));
        let c = cache.counters();
        assert_eq!((c.len, c.evictions), (1, 0));
        let r = get(&cache, &key(1), E2).expect("latest stamp answers");
        assert_eq!(r[0].pois, vec![VertexId(12)]);
    }

    #[test]
    fn slab_reuse_after_many_evictions() {
        let cache = ResultCache::new(3);
        for i in 0..100 {
            cache.insert(key(i), E0, routes(i));
        }
        let c = cache.counters();
        assert_eq!(c.len, 3);
        assert_eq!(c.evictions, 97);
        assert_eq!(c.insertions, 100);
        for i in 97..100 {
            assert!(get(&cache, &key(i), E0).is_some(), "newest entries survive");
        }
    }

    #[test]
    fn slab_reuse_after_many_invalidations() {
        // Invalidation frees slots back to the slab; interleaved reuse at
        // successive epochs must stay consistent.
        let cache = ResultCache::new(3);
        for e in 0..50u64 {
            let epoch = EpochId(e);
            cache.insert(key(1), epoch, routes(1));
            cache.insert(key(2), epoch, routes(2));
            // Next epoch's lookups invalidate both.
            assert!(get(&cache, &key(1), EpochId(e + 1)).is_none());
            assert!(get(&cache, &key(2), EpochId(e + 1)).is_none());
        }
        let c = cache.counters();
        assert_eq!(c.invalidations, 100);
        assert_eq!(c.evictions, 0);
        assert_eq!(c.len, 0);
    }
}
