//! Shared bounded containers.
//!
//! The workspace has two layers that memoize under a hard entry bound — the
//! serving layer's response cache and the storage layer's resident-tile
//! pager (plus the wire front-end's per-client routing cache, through the
//! serving re-export) — and they share one LRU implementation instead of a
//! copy each. It lives here, below all of them, so `sccg-serve` and
//! `sccg-store` can depend on it without depending on each other. Every
//! lookup is a `get` that marks its entry used; no caller probes the cache
//! without counting as a use.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A bounded map with least-recently-used eviction. Capacity `0` disables
/// caching entirely.
///
/// Recency is tracked with monotonic sequence numbers instead of reordering
/// a queue: every access stamps the entry with a fresh sequence and appends
/// `(seq, key)` to the order queue, leaving the old position behind as a
/// stale marker that eviction skips (its sequence no longer matches the
/// entry's). `get`/`insert` are O(1) amortized — the queue is compacted down
/// to live markers whenever stale ones outnumber the capacity — where a
/// scan-on-touch scheme walks the whole queue on every hit, exactly the path
/// the wire front-end and the tile pager make hot.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, Stamped<V>>,
    /// `(sequence, key)` markers from least- to most-recently stamped; an
    /// entry whose sequence differs from its map stamp is stale.
    order: VecDeque<(u64, K)>,
    next_seq: u64,
}

#[derive(Debug)]
struct Stamped<V> {
    value: V,
    seq: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
            next_seq: 0,
        }
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Stamps `key` as most recently used. The caller guarantees the key is
    /// in the map.
    fn touch(&mut self, key: &K) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.map.get_mut(key).expect("touched key is present").seq = seq;
        self.order.push_back((seq, key.clone()));
        self.compact();
    }

    /// Drops stale markers once they outnumber live entries by more than the
    /// capacity, bounding the queue at O(capacity) without per-access scans.
    fn compact(&mut self) {
        if self.order.len() <= 2 * self.capacity + 8 {
            return;
        }
        let map = &self.map;
        self.order
            .retain(|(seq, key)| map.get(key).is_some_and(|entry| entry.seq == *seq));
    }

    /// Returns a clone of the value under `key`, marking it most recently
    /// used.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let value = self.map.get(key)?.value.clone();
        self.touch(key);
        Some(value)
    }

    /// Inserts (or replaces) the value under `key` as the most recently used
    /// entry, evicting the least recently used entries beyond capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.map.insert(key.clone(), Stamped { value, seq });
        self.order.push_back((seq, key));
        while self.map.len() > self.capacity {
            let (seq, key) = self
                .order
                .pop_front()
                .expect("entries beyond capacity have markers");
            // Only a *live* marker (sequence still current) names the LRU
            // entry; stale markers were superseded by a later touch.
            if self.map.get(&key).is_some_and(|entry| entry.seq == seq) {
                self.map.remove(&key);
            }
        }
        self.compact();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut cache = LruCache::new(2);
        cache.insert(0, "a");
        cache.insert(1, "b");
        assert_eq!(cache.get(&0), Some("a")); // 0 becomes most recent
        cache.insert(2, "c"); // evicts 1
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.get(&0), Some("a"));
        assert_eq!(cache.get(&2), Some("c"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = LruCache::new(0);
        cache.insert(0, "a");
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.get(&0), None);
        assert_eq!(cache.capacity(), 0);
    }

    #[test]
    fn reinsert_updates_value_without_growth() {
        let mut cache = LruCache::new(2);
        cache.insert(0, "a");
        cache.insert(0, "b");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&0), Some("b"));
    }

    /// Many repeated hits must not let stale markers evict the wrong entry
    /// or grow the order queue without bound.
    #[test]
    fn repeated_hits_keep_recency_exact_and_queue_bounded() {
        let mut cache = LruCache::new(3);
        cache.insert(0, 0usize);
        cache.insert(1, 1);
        cache.insert(2, 2);
        for _ in 0..1000 {
            assert_eq!(cache.get(&0), Some(0));
            assert_eq!(cache.get(&1), Some(1));
        }
        // Queue stays O(capacity) despite 2000 touches.
        assert!(cache.order.len() <= 2 * 3 + 8, "order queue is bounded");
        cache.insert(3, 3); // evicts 2, the only untouched entry
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&0), Some(0));
        assert_eq!(cache.get(&1), Some(1));
        assert_eq!(cache.get(&3), Some(3));
    }

    /// Eviction order follows touches even when every marker in front is
    /// stale.
    #[test]
    fn eviction_skips_stale_markers() {
        let mut cache = LruCache::new(2);
        cache.insert(0, "a");
        cache.insert(1, "b");
        // Touch 0 repeatedly: its old markers go stale in place.
        for _ in 0..5 {
            cache.get(&0);
        }
        cache.insert(2, "c"); // must evict 1, not 0
        assert_eq!(cache.get(&0), Some("a"));
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.get(&2), Some("c"));
    }

    /// String keys work too — the wire front-end keys routing state by
    /// composite tuples, the pager by tile index; the cache is generic.
    #[test]
    fn composite_keys() {
        let mut cache: LruCache<(u64, u64), &str> = LruCache::new(2);
        cache.insert((1, 2), "x");
        cache.insert((1, 3), "y");
        assert_eq!(cache.get(&(1, 2)), Some("x"));
        cache.insert((2, 2), "z");
        assert_eq!(cache.get(&(1, 3)), None);
    }
}
