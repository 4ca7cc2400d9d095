#![warn(missing_docs)]
//! **af-cache** — concurrent, memory-bounded memoization for the AnalogFold
//! workspace.
//!
//! Every relaxation and predict session rebuilds the same `C`-independent
//! GNN tensor prefix for a design, and af-serve replays identical
//! predict/guide requests under load. This crate is the shared answer: a
//! sharded LRU core with size-aware admission and a stable 128-bit content
//! hash for canonical keying.
//!
//! Design rules:
//!
//! - **Deterministic by construction.** The cache only ever returns a value
//!   that was previously inserted for the *exact same* key, and keys are
//!   exact (bit-level for floats). Memoizing a pure function through it is
//!   therefore bit-identical to calling the function — cache-on vs
//!   cache-off output equality is enforced in `tests/determinism.rs` at the
//!   workspace root.
//! - **Bounded.** Capacity is a hard ceiling in weight units (usually
//!   bytes, via [`Weigher`]); an entry that can never fit is rejected
//!   outright, and insertion evicts from the LRU tail until the new entry
//!   fits. The bound holds per shard so the global bound holds too.
//! - **Observable.** When an [`af_obs`] sink is installed, every cache
//!   emits `cache.hits` / `cache.misses` / `cache.evictions` /
//!   `cache.insertions` / `cache.rejected` counters, a
//!   `cache.bytes` gauge, and a `cache.lookup_us` latency histogram (plus
//!   the same set name-scoped under `cache.<name>.*`). With no sink the
//!   hot path costs one relaxed atomic load.
//! - **Zero dependencies** beyond `af-obs` (itself dependency-free), so any
//!   workspace layer can memoize without cycles.
//!
//! ```
//! use af_cache::{CacheBuilder, FnWeigher};
//!
//! let cache = CacheBuilder::new("doc").capacity_bytes(1 << 20).build_weighed(
//!     FnWeigher(|_k: &u64, v: &String| v.len() as u64 + 8),
//! );
//! cache.insert(1, "one".to_string());
//! assert_eq!(cache.get(&1), Some("one".to_string()));
//! assert_eq!(cache.get(&2), None);
//! let v = cache.get_or_insert_with(2, || "two".to_string());
//! assert_eq!(v, "two");
//! let reused = cache.get_or_insert_with(2, || unreachable!("memoized"));
//! assert_eq!(reused, "two");
//! assert_eq!(cache.stats().hits, 2); // the get(&1) and the memoized reuse
//! ```

mod hash;
pub mod ring;

pub use hash::{ContentHash, ContentHasher};
pub use ring::Ring;

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Computes the admission weight of an entry, in the unit the cache's
/// capacity is expressed in (bytes for size-aware caches, `1` for
/// count-bounded ones). Weights are sampled once at insertion; values must
/// not change weight while cached.
pub trait Weigher<K, V>: Send + Sync {
    /// The weight of `(key, value)`. Zero-weight entries are allowed and
    /// never evicted by size pressure alone (only by LRU order).
    fn weigh(&self, key: &K, value: &V) -> u64;
}

/// Every entry weighs 1: capacity bounds the entry *count*.
pub struct UnitWeigher;

impl<K, V> Weigher<K, V> for UnitWeigher {
    fn weigh(&self, _key: &K, _value: &V) -> u64 {
        1
    }
}

/// Adapts a closure into a [`Weigher`].
pub struct FnWeigher<F>(pub F);

impl<K, V, F: Fn(&K, &V) -> u64 + Send + Sync> Weigher<K, V> for FnWeigher<F> {
    fn weigh(&self, key: &K, value: &V) -> u64 {
        (self.0)(key, value)
    }
}

/// A point-in-time snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a live value.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Values admitted into the cache.
    pub insertions: u64,
    /// Entries removed to make room for newer ones.
    pub evictions: u64,
    /// Insertions refused because a single entry outweighed a whole shard.
    pub rejected: u64,
    /// Live entries right now.
    pub entries: u64,
    /// Total weight of live entries right now.
    pub bytes: u64,
}

impl CacheStats {
    /// Hits over total lookups; `0.0` before any lookup happened.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    weight: u64,
    prev: usize,
    next: usize,
}

struct Shard<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Option<Entry<K, V>>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    bytes: u64,
}

impl<K: Hash + Eq + Clone, V> Shard<K, V> {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let e = self.slots[idx].as_ref().expect("linked slot must be live");
            (e.prev, e.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p].as_mut().expect("live prev").next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].as_mut().expect("live next").prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        {
            let e = self.slots[idx].as_mut().expect("pushed slot must be live");
            e.prev = NIL;
            e.next = self.head;
        }
        if self.head != NIL {
            self.slots[self.head].as_mut().expect("live head").prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Unlinks and frees `idx`, returning its weight.
    fn remove(&mut self, idx: usize) -> u64 {
        self.unlink(idx);
        let entry = self.slots[idx].take().expect("removed slot must be live");
        self.map.remove(&entry.key);
        self.free.push(idx);
        self.bytes -= entry.weight;
        entry.weight
    }

    fn insert_front(&mut self, entry: Entry<K, V>) {
        let weight = entry.weight;
        let key = entry.key.clone();
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(entry);
                i
            }
            None => {
                self.slots.push(Some(entry));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        self.bytes += weight;
    }
}

/// Builds a [`Cache`]. Both knobs have sensible defaults: 16 MiB capacity
/// and a power-of-two shard count sized to available parallelism.
pub struct CacheBuilder {
    name: String,
    capacity: u64,
    shards: usize,
}

impl CacheBuilder {
    /// Starts a builder. `name` scopes this cache's obs metrics
    /// (`cache.<name>.hits` etc.).
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            capacity: 16 << 20,
            shards: 0,
        }
    }

    /// Total capacity in weight units (bytes for size-aware weighers).
    #[must_use]
    pub fn capacity_bytes(mut self, capacity: u64) -> Self {
        self.capacity = capacity;
        self
    }

    /// Total capacity in MiB — the unit exposed by `--cache-mb`. Sizes past
    /// `u64::MAX` bytes saturate rather than wrap.
    #[must_use]
    pub fn capacity_mb(self, mb: u64) -> Self {
        self.capacity_bytes(mb.saturating_mul(1 << 20))
    }

    /// Shard count; rounded up to a power of two, minimum 1. `0` (default)
    /// picks from available parallelism.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Builds a count-bounded cache: every entry weighs 1, so the capacity
    /// is an entry count.
    #[must_use]
    pub fn build<K: Hash + Eq + Clone, V: Clone>(self) -> Cache<K, V> {
        self.build_weighed(UnitWeigher)
    }

    /// Builds a cache with an explicit [`Weigher`] (size-aware admission).
    #[must_use]
    pub fn build_weighed<K: Hash + Eq + Clone, V: Clone>(
        self,
        weigher: impl Weigher<K, V> + 'static,
    ) -> Cache<K, V> {
        let requested = if self.shards == 0 {
            std::thread::available_parallelism().map_or(8, usize::from)
        } else {
            self.shards
        };
        let n_shards = requested.next_power_of_two().max(1);
        Cache {
            name: self.name,
            shards: (0..n_shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_mask: n_shards - 1,
            per_shard_capacity: (self.capacity / n_shards as u64).max(1),
            weigher: Box::new(weigher),
            bytes: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }
}

/// A thread-safe, memory-bounded, sharded LRU cache.
///
/// Values are returned by clone — cache cheap-to-clone values (`Arc` them
/// if large). See the crate docs for the determinism and bounding rules.
pub struct Cache<K, V> {
    name: String,
    shards: Vec<Mutex<Shard<K, V>>>,
    shard_mask: usize,
    per_shard_capacity: u64,
    weigher: Box<dyn Weigher<K, V>>,
    bytes: AtomicU64,
    entries: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    rejected: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> Cache<K, V> {
    fn shard_for(&self, key: &K) -> &Mutex<Shard<K, V>> {
        // DefaultHasher with default keys is deterministic within a process;
        // shard choice never affects observable results, only contention.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & self.shard_mask]
    }

    fn obs_counter(&self, metric: &str, delta: u64) {
        if af_obs::enabled() {
            af_obs::counter(&format!("cache.{metric}"), delta);
            af_obs::counter(&format!("cache.{}.{metric}", self.name), delta);
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        let timer = af_obs::enabled().then(Instant::now);
        let mut shard = self
            .shard_for(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let result = shard.map.get(key).copied().map(|idx| {
            shard.unlink(idx);
            shard.push_front(idx);
            shard.slots[idx]
                .as_ref()
                .expect("refreshed slot is live")
                .value
                .clone()
        });
        drop(shard);
        if result.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.obs_counter("hits", 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.obs_counter("misses", 1);
        }
        if let Some(t0) = timer {
            af_obs::hist("cache.lookup_us", t0.elapsed().as_secs_f64() * 1e6);
        }
        result
    }

    /// Inserts `key → value`, evicting LRU entries until it fits. An entry
    /// heavier than a whole shard's capacity is rejected (counted in
    /// [`CacheStats::rejected`]) — the cache never exceeds its bound to
    /// admit one value.
    pub fn insert(&self, key: K, value: V) {
        let weight = self.weigher.weigh(&key, &value);
        if weight > self.per_shard_capacity {
            // Even a rejected insert must not leave a stale mapping behind:
            // after any insert attempt the cache holds either the new value
            // or nothing for this key.
            let mut shard = self
                .shard_for(&key)
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(idx) = shard.map.get(&key).copied() {
                let freed = shard.remove(idx);
                self.entries.fetch_sub(1, Ordering::Relaxed);
                self.bytes.fetch_sub(freed, Ordering::Relaxed);
            }
            drop(shard);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            self.obs_counter("rejected", 1);
            return;
        }
        let mut evicted = 0u64;
        {
            // Global byte/entry accounting happens under the shard lock so
            // the totals can never transiently undercount a removal that
            // races an in-flight insert (which would wrap the unsigned
            // counters and break the capacity invariant observers rely on).
            let mut shard = self
                .shard_for(&key)
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let mut freed = 0u64;
            let mut removed = 0u64;
            if let Some(idx) = shard.map.get(&key).copied() {
                removed += 1;
                freed += shard.remove(idx);
            }
            while shard.bytes + weight > self.per_shard_capacity {
                let tail = shard.tail;
                if tail == NIL {
                    break;
                }
                freed += shard.remove(tail);
                evicted += 1;
                removed += 1;
            }
            shard.insert_front(Entry {
                key,
                value,
                weight,
                prev: NIL,
                next: NIL,
            });
            if removed > 0 {
                self.entries.fetch_sub(removed, Ordering::Relaxed);
            }
            self.entries.fetch_add(1, Ordering::Relaxed);
            if weight >= freed {
                self.bytes.fetch_add(weight - freed, Ordering::Relaxed);
            } else {
                self.bytes.fetch_sub(freed - weight, Ordering::Relaxed);
            }
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.obs_counter("insertions", 1);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            self.obs_counter("evictions", evicted);
        }
        if af_obs::enabled() {
            af_obs::gauge("cache.bytes", self.bytes.load(Ordering::Relaxed) as f64);
            af_obs::gauge(
                &format!("cache.{}.bytes", self.name),
                self.bytes.load(Ordering::Relaxed) as f64,
            );
        }
    }

    /// Memoizes `compute` under `key`: returns the cached value on a hit,
    /// otherwise computes, inserts, and returns it. `compute` runs
    /// *outside* the shard lock, so two threads racing on the same cold key
    /// may both compute; for pure functions (the only sound use) they
    /// produce identical values and the second insert is a no-op overwrite.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(&key) {
            return v;
        }
        let value = compute();
        self.insert(key, value.clone());
        value
    }

    /// Live entry count.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    /// `true` when no entries are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total live weight (bytes for size-aware weighers).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// The total capacity in weight units (per-shard capacity × shards).
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.per_shard_capacity * self.shards.len() as u64
    }

    /// The name this cache registers its obs metrics under.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Snapshots all counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_cache(capacity: u64) -> Cache<u64, u64> {
        CacheBuilder::new("test")
            .capacity_bytes(capacity)
            .shards(1)
            .build()
    }

    #[test]
    fn get_after_put_round_trips() {
        let c = count_cache(8);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&2), Some(20));
        assert_eq!(c.get(&3), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (2, 1, 2));
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = count_cache(2);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.get(&1), Some(1)); // refresh 1 → 2 is now LRU
        c.insert(3, 3);
        assert_eq!(c.get(&2), None, "LRU entry must be the one evicted");
        assert_eq!(c.get(&1), Some(1));
        assert_eq!(c.get(&3), Some(3));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn replacing_a_key_updates_in_place() {
        let c = count_cache(2);
        c.insert(1, 1);
        c.insert(1, 100);
        assert_eq!(c.get(&1), Some(100));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn weigher_bounds_bytes_and_rejects_oversize() {
        let c: Cache<u64, Vec<u8>> = CacheBuilder::new("weighed")
            .capacity_bytes(100)
            .shards(1)
            .build_weighed(FnWeigher(|_k: &u64, v: &Vec<u8>| v.len() as u64));
        c.insert(1, vec![0u8; 60]);
        c.insert(2, vec![0u8; 60]); // must evict 1 to fit
        assert!(c.bytes() <= 100);
        assert_eq!(c.get(&1), None);
        assert!(c.get(&2).is_some());
        c.insert(3, vec![0u8; 200]); // heavier than the whole cache
        assert_eq!(c.get(&3), None);
        assert_eq!(c.stats().rejected, 1);
        assert!(c.bytes() <= 100);
    }

    #[test]
    fn memoization_runs_compute_once_per_key() {
        let c = count_cache(8);
        let mut calls = 0;
        let v1 = c.get_or_insert_with(7, || {
            calls += 1;
            70
        });
        let v2 = c.get_or_insert_with(7, || {
            calls += 1;
            71
        });
        assert_eq!((v1, v2, calls), (70, 70, 1));
    }

    #[test]
    fn hit_ratio_reflects_traffic() {
        let c = count_cache(8);
        assert_eq!(c.stats().hit_ratio(), 0.0);
        c.insert(1, 1);
        let _ = c.get(&1);
        let _ = c.get(&2);
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_mb_saturates_instead_of_wrapping() {
        // 2^44 MiB is 2^64 bytes: a plain shift wraps to a zero-byte cache
        // that rejects every insert.
        let c: Cache<u64, u64> = CacheBuilder::new("huge")
            .capacity_mb(1 << 44)
            .shards(1)
            .build_weighed(FnWeigher(|_k: &u64, _v: &u64| 1 << 20));
        assert_eq!(c.capacity(), u64::MAX);
        c.insert(1, 1);
        assert_eq!(c.get(&1), Some(1));
        assert_eq!(c.stats().rejected, 0);
        let small: Cache<u64, u64> = CacheBuilder::new("small").capacity_mb(3).shards(1).build();
        assert_eq!(small.capacity(), 3 << 20);
    }

    #[test]
    fn sharded_cache_respects_global_capacity() {
        let c: Cache<u64, u64> = CacheBuilder::new("sharded")
            .capacity_bytes(64)
            .shards(4)
            .build();
        for k in 0..1000 {
            c.insert(k, k);
        }
        assert!(c.len() <= 64);
        assert!(c.bytes() <= 64);
    }
}
