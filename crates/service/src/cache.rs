//! The service's two caches, both instances of one sharded LRU
//! ([`ShardedLru`]):
//!
//! * the **trace cache** ([`TraceCache`]): generalized (question-independent)
//!   traces keyed by database identity, plan fingerprint, and the
//!   substitution signature of the schema-alternative set;
//! * the **result memo** ([`ResultCache`]): the query result `⟦Q⟧_D` keyed by
//!   database identity and plan fingerprint, which question validation
//!   checks the why-not tuple against.
//!
//! The generalized trace is the expensive part of answering a why-not
//! question (it evaluates the whole plan in generalized form over the data);
//! the per-question consistency annotation is cheap. Caching the generalized
//! trace therefore amortizes repeated and batched questions against the same
//! plan and database — including questions with *different* why-not tuples,
//! since the cache key deliberately excludes the pushed-down NIPs (see
//! `nrab_provenance::trace_plan_generalized`). This mirrors how approximate
//! provenance summaries are reused across queries in related systems. The
//! result memo does the same for the query evaluation that validation needs,
//! so a trace-cache hit evaluates nothing.
//!
//! # Sharding
//!
//! A cache is split into [`ShardedLru::shards`] independent shards, each with
//! its own lock, LRU order, in-flight set, and entry/weight bounds; a key's
//! shard is chosen by hashing the whole key. Concurrent requests for
//! *different* keys therefore contend only when their keys happen to share a
//! shard, instead of serializing on one global mutex — the property the HTTP
//! front end (`whynot serve`) depends on once many connections hit the cache
//! at once. The per-key in-flight deduplication (one computation per key,
//! waiters reuse it) only ever involves one key, so it lives entirely inside
//! the key's shard.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex};

use nested_data::Bag;
use nrab_algebra::AlgebraResult;
use nrab_provenance::GeneralizedTrace;

/// Trace-cache key: where the data came from, which plan was traced, and
/// which attribute substitutions were applied.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Database identity (catalog name or inline-content fingerprint).
    pub db: String,
    /// Database version (0 for inline databases, which are identified by
    /// content fingerprint instead).
    pub db_version: u64,
    /// Fingerprint of the plan's canonical wire encoding.
    pub plan_fingerprint: u64,
    /// Substitution signature of the schema-alternative set, in order.
    pub substitutions: String,
}

/// Result-memo key: a trace key without the substitutions. Every trace key
/// has exactly one result key, so the memo never needs more entries than
/// the trace cache to cover the same working set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// Database identity (catalog name or inline-content fingerprint).
    pub db: String,
    /// Database version (0 for inline databases).
    pub db_version: u64,
    /// Fingerprint of the plan's canonical wire encoding.
    pub plan_fingerprint: u64,
}

/// The generalized-trace cache.
pub type TraceCache = ShardedLru<TraceKey, GeneralizedTrace>;

/// The query-result memo (`⟦Q⟧_D` per database version and plan).
pub type ResultCache = ShardedLru<ResultKey, Bag>;

/// The size measure a cache bounds its total weight by.
pub trait Weighted {
    /// The entry's weight.
    fn weight(&self) -> u64;
}

impl Weighted for GeneralizedTrace {
    /// Traced tuples across all operators.
    fn weight(&self) -> u64 {
        self.tuple_count() as u64
    }
}

impl Weighted for Bag {
    /// Distinct top-level tuples.
    fn weight(&self) -> u64 {
        self.distinct() as u64
    }
}

/// Aggregate cache counters, summed over all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a cached value.
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// Lookups that found the value *in flight* on another thread and waited
    /// for it instead of recomputing (they also count as hits once the value
    /// arrives).
    pub coalesced: u64,
    /// Entries currently cached (across all shards).
    pub entries: usize,
    /// Entries evicted because a shard was full (by count or by weight).
    pub evictions: u64,
    /// Total weight of the cached entries (see [`Weighted`]).
    pub weight: u64,
    /// The cache's total weight capacity (per-shard capacity × shards).
    pub weight_capacity: u64,
    /// Number of shards the cache is split into.
    pub shards: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache: `hits / (hits + misses)`.
    /// Well-defined before any lookup: zero lookups yield `0.0`, never
    /// `NaN` — the `stats` wire op and the load reports rely on this.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// Occupancy of one cache shard (the `shard_occupancy` array of the `stats`
/// wire op).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardOccupancy {
    /// Entries currently cached in this shard.
    pub entries: usize,
    /// Total weight of this shard's entries.
    pub weight: u64,
}

/// One cached value with its precomputed weight, so eviction accounting
/// never re-walks the value.
#[derive(Debug)]
struct Cached<V> {
    value: Arc<V>,
    weight: u64,
}

#[derive(Debug)]
struct ShardInner<K, V> {
    map: HashMap<K, Cached<V>>,
    /// Keys in least-recently-used order (front = coldest).
    order: VecDeque<K>,
    /// Keys currently being computed by some thread. Concurrent requests for
    /// an in-flight key wait on the shard's condvar instead of recomputing.
    inflight: HashSet<K>,
    /// Sum of the cached entries' weights.
    total_weight: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
}

impl<K, V> Default for ShardInner<K, V> {
    fn default() -> Self {
        ShardInner {
            map: HashMap::new(),
            order: VecDeque::new(),
            inflight: HashSet::new(),
            total_weight: 0,
            hits: 0,
            misses: 0,
            coalesced: 0,
            evictions: 0,
        }
    }
}

impl<K: Eq + Clone, V> ShardInner<K, V> {
    fn touch(&mut self, key: &K) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            self.order.remove(pos);
        }
        self.order.push_back(key.clone());
    }
}

/// One shard: an independently locked LRU map with its own in-flight set.
#[derive(Debug)]
struct Shard<K, V> {
    inner: Mutex<ShardInner<K, V>>,
    inflight_cv: Condvar,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard { inner: Mutex::new(ShardInner::default()), inflight_cv: Condvar::new() }
    }
}

/// A bounded, thread-safe, **sharded** LRU cache with per-key in-flight
/// deduplication: when two requests race on the same key, one computes the
/// value and the other waits for it — the expensive computation runs **once
/// per key**, which the concurrent-batch stress tests pin down.
///
/// Each shard is bounded two ways: by entry count *and* by total
/// [`Weighted::weight`]. Trace sizes span orders of magnitude — the paper's
/// worst cases grow with data size and alternative count — so an entry-count
/// bound alone would let a handful of giant traces occupy unbounded memory.
/// Whichever bound is exceeded evicts from the shard's cold end; the most
/// recently inserted entry is never evicted, so even an over-weight giant
/// stays cached until something newer lands in its shard. Eviction order is
/// per-shard LRU: entries compete for space only with the keys that hash to
/// the same shard. Evicted values are freed after the shard lock is
/// released, so freeing a large trace never blocks the shard's other keys.
#[derive(Debug)]
pub struct ShardedLru<K, V> {
    shards: Vec<Shard<K, V>>,
    shard_capacity: usize,
    shard_weight_capacity: u64,
}

/// Default number of cached entries (across all shards).
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// Default weight capacity: total weight across all cached entries.
pub const DEFAULT_CACHE_WEIGHT_CAPACITY: u64 = 4_000_000;

/// Default shard count. Shards multiply lock granularity, not memory: the
/// entry and weight capacities are divided across them.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

impl<K: Hash + Eq + Clone, V: Weighted> Default for ShardedLru<K, V> {
    fn default() -> Self {
        ShardedLru::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl<K: Hash + Eq + Clone, V: Weighted> ShardedLru<K, V> {
    /// Creates a cache holding at most `capacity` entries (minimum 1) with
    /// the default weight capacity and shard count.
    pub fn new(capacity: usize) -> Self {
        ShardedLru::with_weight_capacity(capacity, DEFAULT_CACHE_WEIGHT_CAPACITY)
    }

    /// Creates a cache bounded by both entry count and total weight, with
    /// the default shard count (never more shards than entries, so each
    /// shard can hold at least one entry).
    pub fn with_weight_capacity(capacity: usize, weight_capacity: u64) -> Self {
        let shards = DEFAULT_CACHE_SHARDS.min(capacity.max(1));
        ShardedLru::with_shards(capacity, weight_capacity, shards)
    }

    /// Creates a cache with an explicit shard count (minimum 1). The entry
    /// and weight capacities are split evenly across shards (rounded up, so
    /// every shard can hold at least one entry). A single shard reproduces
    /// the global-LRU semantics exactly.
    pub fn with_shards(capacity: usize, weight_capacity: u64, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity = capacity.max(1);
        ShardedLru {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            shard_capacity: capacity.div_ceil(shards),
            shard_weight_capacity: weight_capacity.div_ceil(shards as u64),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, key: &K) -> &Shard<K, V> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Returns the cached value for `key`, computing and inserting it with
    /// `compute` on a miss. The boolean is `true` on a hit (including hits
    /// obtained by waiting for another thread's in-flight computation).
    ///
    /// Failed computations are not cached, and a failure wakes any waiters so
    /// one of them takes over the computation.
    pub fn get_or_compute<C: Into<Arc<V>>>(
        &self,
        key: K,
        compute: impl FnOnce() -> AlgebraResult<C>,
    ) -> AlgebraResult<(Arc<V>, bool)> {
        let shard = self.shard_for(&key);
        {
            let mut inner = shard.inner.lock().expect("cache poisoned");
            let mut waited = false;
            loop {
                if let Some(cached) = inner.map.get(&key) {
                    let value = Arc::clone(&cached.value);
                    inner.hits += 1;
                    inner.touch(&key);
                    return Ok((value, true));
                }
                if inner.inflight.insert(key.clone()) {
                    // We own the computation now.
                    break;
                }
                // Someone else is computing this key: wait for them and
                // re-check. If they failed (or panicked), the in-flight
                // marker is gone and we take over on the next iteration.
                // Count the lookup as coalesced once, not once per wakeup
                // (the condvar is shared across the shard's keys, so
                // spurious wakeups are routine).
                if !waited {
                    inner.coalesced += 1;
                    waited = true;
                }
                inner = shard.inflight_cv.wait(inner).expect("cache poisoned");
            }
        }

        // Compute outside the lock: tracing can be slow. The guard removes
        // the in-flight marker and wakes waiters on *every* exit path —
        // success, error, and panic alike.
        let guard = InflightGuard { shard, key: &key };
        let value: Arc<V> = compute()?.into();

        let weight = value.weight();

        let mut inner = shard.inner.lock().expect("cache poisoned");
        inner.misses += 1;
        // The in-flight marker guarantees the key is absent from both the
        // map and the LRU order here, so a plain append is already the
        // most-recently-used position.
        inner.map.insert(key.clone(), Cached { value: Arc::clone(&value), weight });
        inner.order.push_back(key.clone());
        inner.total_weight += weight;
        // Evict from the cold end while either bound is exceeded, but never
        // the entry just inserted — an over-weight giant still gets cached
        // (it just stands alone).
        let mut evicted = Vec::new();
        while (inner.map.len() > self.shard_capacity
            || inner.total_weight > self.shard_weight_capacity)
            && inner.map.len() > 1
        {
            if let Some(coldest) = inner.order.pop_front() {
                if let Some(entry) = inner.map.remove(&coldest) {
                    inner.total_weight -= entry.weight;
                    evicted.push((coldest, entry));
                }
                inner.evictions += 1;
            }
        }
        drop(inner);
        drop(guard);
        // Free the evicted values (possibly the last handle on a large trace)
        // without holding the shard lock.
        drop(evicted);
        Ok((value, false))
    }

    /// Current counters, aggregated across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            weight_capacity: self.shard_weight_capacity * self.shards.len() as u64,
            shards: self.shards.len(),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            let inner = shard.inner.lock().expect("cache poisoned");
            stats.hits += inner.hits;
            stats.misses += inner.misses;
            stats.coalesced += inner.coalesced;
            stats.entries += inner.map.len();
            stats.evictions += inner.evictions;
            stats.weight += inner.total_weight;
        }
        stats
    }

    /// Per-shard occupancy (entries and weight), in shard order. The sums
    /// equal [`CacheStats::entries`] and [`CacheStats::weight`].
    pub fn shard_occupancy(&self) -> Vec<ShardOccupancy> {
        self.shards
            .iter()
            .map(|shard| {
                let inner = shard.inner.lock().expect("cache poisoned");
                ShardOccupancy { entries: inner.map.len(), weight: inner.total_weight }
            })
            .collect()
    }

    /// Drops all entries (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut inner = shard.inner.lock().expect("cache poisoned");
            let map = std::mem::take(&mut inner.map);
            inner.order.clear();
            inner.total_weight = 0;
            drop(inner);
            drop(map);
        }
    }

    /// Handles on every cached value, in no particular order.
    #[cfg(test)]
    pub(crate) fn values(&self) -> Vec<Arc<V>> {
        self.shards
            .iter()
            .flat_map(|shard| {
                let inner = shard.inner.lock().expect("cache poisoned");
                inner.map.values().map(|cached| Arc::clone(&cached.value)).collect::<Vec<_>>()
            })
            .collect()
    }
}

/// Removes the in-flight marker for a key and wakes the shard's waiters when
/// dropped, so a failing (or panicking) computation never strands the threads
/// waiting on it.
struct InflightGuard<'a, K: Hash + Eq, V> {
    shard: &'a Shard<K, V>,
    key: &'a K,
}

impl<K: Hash + Eq, V> Drop for InflightGuard<'_, K, V> {
    fn drop(&mut self) {
        let mut inner = self.shard.inner.lock().expect("cache poisoned");
        inner.inflight.remove(self.key);
        drop(inner);
        self.shard.inflight_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrab_provenance::trace_plan_generalized;
    use nrab_provenance::SchemaAlternative;

    use nested_data::{Bag, NestedType, TupleType, Value};
    use nrab_algebra::{Database, PlanBuilder};

    fn tiny_setup() -> (nrab_algebra::QueryPlan, Database, Vec<SchemaAlternative>) {
        let ty = TupleType::new([("x", NestedType::int())]).unwrap();
        let mut db = Database::new();
        db.add_relation("r", ty, Bag::from_values([Value::tuple([("x", Value::int(1))])]));
        let plan = PlanBuilder::table("r").build().unwrap();
        let sas = vec![SchemaAlternative::original(Default::default())];
        (plan, db, sas)
    }

    /// The compute function of a lookup that must hit.
    fn cached() -> AlgebraResult<GeneralizedTrace> {
        panic!("a cached key must not be recomputed")
    }

    fn key(n: u64) -> TraceKey {
        TraceKey {
            db: "db".into(),
            db_version: 1,
            plan_fingerprint: n,
            substitutions: String::new(),
        }
    }

    /// LRU-ordering tests use one shard so every key competes for the same
    /// space — the global-LRU semantics the pre-sharding cache had.
    fn single_shard(capacity: usize) -> TraceCache {
        TraceCache::with_shards(capacity, DEFAULT_CACHE_WEIGHT_CAPACITY, 1)
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let (plan, db, sas) = tiny_setup();
        let cache = TraceCache::new(4);
        let (_, hit) =
            cache.get_or_compute(key(1), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get_or_compute(key(1), cached).unwrap();
        assert!(hit);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let (plan, db, sas) = tiny_setup();
        let cache = single_shard(2);
        for n in 1..=2 {
            cache.get_or_compute(key(n), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        }
        // Touch key 1 so key 2 becomes the coldest.
        cache.get_or_compute(key(1), cached).unwrap();
        cache.get_or_compute(key(3), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        // Key 2 was evicted; key 1 survived.
        cache.get_or_compute(key(1), cached).unwrap();
        let (_, hit) =
            cache.get_or_compute(key(2), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        assert!(!hit);
    }

    #[test]
    fn failed_computations_are_not_cached() {
        let (plan, db, sas) = tiny_setup();
        let cache = TraceCache::new(2);
        let err = cache.get_or_compute(key(9), || {
            Err::<GeneralizedTrace, _>(nrab_algebra::AlgebraError::Eval("boom".into()))
        });
        assert!(err.is_err());
        assert_eq!(cache.stats().entries, 0);
        let (_, hit) =
            cache.get_or_compute(key(9), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        assert!(!hit);
    }

    #[test]
    fn concurrent_requests_compute_each_key_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let (plan, db, sas) = tiny_setup();
        let cache = TraceCache::new(8);
        let computes = AtomicUsize::new(0);
        const THREADS: u64 = 8;
        const KEYS: u64 = 4;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for n in 0..KEYS {
                        let (_, _) = cache
                            .get_or_compute(key(n), || {
                                computes.fetch_add(1, Ordering::SeqCst);
                                // Widen the race window so waiters really
                                // find the key in flight.
                                std::thread::sleep(std::time::Duration::from_millis(5));
                                trace_plan_generalized(&plan, &db, &sas)
                            })
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), KEYS as usize, "one computation per key");
        let stats = cache.stats();
        assert_eq!(stats.misses, KEYS);
        assert_eq!(stats.hits, THREADS * KEYS - KEYS);
        assert_eq!(stats.entries, KEYS as usize);
    }

    #[test]
    fn failed_inflight_computations_hand_over_to_a_waiter() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let (plan, db, sas) = tiny_setup();
        let cache = TraceCache::new(2);
        let attempts = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    // The first attempt fails; whoever takes over succeeds.
                    let result = cache.get_or_compute(key(77), || {
                        if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                            Err(nrab_algebra::AlgebraError::Eval("transient".into()))
                        } else {
                            trace_plan_generalized(&plan, &db, &sas)
                        }
                    });
                    // Only the failing owner sees the error; everyone else
                    // ends up with the recomputed value.
                    if let Err(e) = result {
                        assert!(e.to_string().contains("transient"));
                    }
                });
            }
        });
        // The error was not cached; the key is present from the successful
        // retry (at least two attempts happened: the failure and a success).
        assert!(attempts.load(Ordering::SeqCst) >= 2);
        let (_, hit) = cache.get_or_compute(key(77), cached).unwrap();
        assert!(hit);
    }

    #[test]
    fn weight_capacity_evicts_before_entry_capacity() {
        let (plan, db, sas) = tiny_setup();
        // Each tiny trace weighs 1 tuple; entry capacity is generous but the
        // weight capacity only fits two traces. One shard, so all three keys
        // compete for the same weight budget.
        let cache = TraceCache::with_shards(16, 2, 1);
        for n in 1..=3 {
            cache.get_or_compute(key(n), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.weight, 2);
        assert_eq!(stats.weight_capacity, 2);
        // The coldest entry (key 1) was the one evicted.
        let (_, hit) =
            cache.get_or_compute(key(1), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        assert!(!hit);
    }

    #[test]
    fn over_weight_entries_still_cache_alone() {
        let (plan, db, sas) = tiny_setup();
        // Weight capacity 0: every trace is over-weight on its own, yet the
        // newest one is always kept (never evict the just-inserted entry).
        let cache = TraceCache::with_shards(16, 0, 1);
        cache.get_or_compute(key(1), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        let (_, hit) = cache.get_or_compute(key(1), cached).unwrap();
        assert!(hit);
        cache.get_or_compute(key(2), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "the older over-weight entry was evicted");
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn clear_drops_entries() {
        let (plan, db, sas) = tiny_setup();
        let cache = TraceCache::default();
        cache.get_or_compute(key(1), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().weight, 0);
    }

    #[test]
    fn default_cache_is_sharded_and_capacities_split() {
        let cache = TraceCache::default();
        assert_eq!(cache.shards(), DEFAULT_CACHE_SHARDS);
        let stats = cache.stats();
        assert_eq!(stats.shards, DEFAULT_CACHE_SHARDS);
        assert_eq!(stats.weight_capacity, DEFAULT_CACHE_WEIGHT_CAPACITY);
        // Tiny caches never get more shards than entries.
        assert_eq!(TraceCache::new(2).shards(), 2);
        assert_eq!(TraceCache::new(1).shards(), 1);
        assert_eq!(TraceCache::with_shards(8, 100, 0).shards(), 1, "shard count clamps to 1");
    }

    #[test]
    fn shard_occupancy_sums_to_aggregate_stats() {
        let (plan, db, sas) = tiny_setup();
        let cache = TraceCache::with_shards(64, 1_000, 4);
        for n in 0..16 {
            cache.get_or_compute(key(n), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        }
        let stats = cache.stats();
        let occupancy = cache.shard_occupancy();
        assert_eq!(occupancy.len(), 4);
        assert_eq!(occupancy.iter().map(|s| s.entries).sum::<usize>(), stats.entries);
        assert_eq!(occupancy.iter().map(|s| s.weight).sum::<u64>(), stats.weight);
        assert_eq!(stats.entries, 16, "capacity 64 over 4 shards never evicts 16 spread keys");
        // The 16 keys spread over more than one shard (DefaultHasher mixes
        // the fingerprint well; with 4 shards the chance of all 16 landing
        // in one shard is 4^-15).
        assert!(occupancy.iter().filter(|s| s.entries > 0).count() > 1, "{occupancy:?}");
    }

    #[test]
    fn sharded_eviction_stays_within_per_shard_bounds() {
        let (plan, db, sas) = tiny_setup();
        // 4 entries over 4 shards: each shard holds at most 1 entry, so
        // colliding keys evict within their shard only.
        let cache = TraceCache::with_shards(4, 1_000, 4);
        for n in 0..32 {
            cache.get_or_compute(key(n), || trace_plan_generalized(&plan, &db, &sas)).unwrap();
        }
        let stats = cache.stats();
        assert!(stats.entries <= 4, "{stats:?}");
        for shard in cache.shard_occupancy() {
            assert!(shard.entries <= 1, "per-shard capacity exceeded: {shard:?}");
        }
        assert_eq!(stats.evictions, 32 - stats.entries as u64);
    }

    /// A value that records whether its shard's lock was free when it was
    /// dropped.
    struct Probe;

    static PROBED: std::sync::OnceLock<&'static ShardedLru<TraceKey, Probe>> =
        std::sync::OnceLock::new();
    static DROPPED_UNLOCKED: std::sync::atomic::AtomicUsize =
        std::sync::atomic::AtomicUsize::new(0);

    impl Weighted for Probe {
        fn weight(&self) -> u64 {
            1
        }
    }

    impl Drop for Probe {
        fn drop(&mut self) {
            let cache = PROBED.get().expect("probe cache installed");
            if cache.shards[0].inner.try_lock().is_ok() {
                DROPPED_UNLOCKED.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
    }

    #[test]
    fn evicted_values_are_freed_outside_the_shard_lock() {
        let cache: &'static ShardedLru<TraceKey, Probe> =
            Box::leak(Box::new(ShardedLru::with_shards(1, 100, 1)));
        PROBED.set(cache).ok().expect("installed once");
        // The returned handles are dropped at once, so the cache holds the
        // only one and eviction frees the value.
        cache.get_or_compute(key(1), || Ok(Probe)).unwrap();
        cache.get_or_compute(key(2), || Ok(Probe)).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(DROPPED_UNLOCKED.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn hit_rate_is_well_defined_with_zero_lookups() {
        let stats = CacheStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        assert!(stats.hit_rate().is_finite());
        let cache = TraceCache::default();
        assert_eq!(cache.stats().hit_rate(), 0.0, "fresh cache reports 0.0, not NaN");
    }
}
