use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A bounded, content-keyed, single-computation cache.
///
/// Entries are keyed by full content: a cached value is never
/// invalidated in place, because a different value is a different key.
/// The store holds at most `capacity` keys and evicts the oldest first;
/// an evicted value stays alive for as long as callers hold its `Arc`.
/// When threads race on an uncached key, exactly one computes while the
/// rest block on the same cell and share its result.
pub struct ContentCache<K, V> {
    inner: Mutex<CacheInner<K, V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

struct CacheInner<K, V> {
    cells: HashMap<K, Arc<OnceLock<Arc<V>>>>,
    order: VecDeque<K>,
}

impl<K: Hash + Eq + Clone, V> ContentCache<K, V> {
    /// An empty cache holding at most `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        ContentCache {
            inner: Mutex::new(CacheInner {
                cells: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The value for `key`, computed with `compute` at most once per
    /// cached key no matter how many threads ask concurrently.
    ///
    /// # Panics
    ///
    /// Propagates a panic of `compute`; the key's cell stays empty, so the
    /// next call computes again.
    pub fn get_or_compute(&self, key: &K, compute: impl FnOnce() -> V) -> Arc<V> {
        let cell = {
            let mut inner = self.inner.lock().expect("content cache poisoned");
            match inner.cells.get(key) {
                Some(cell) => cell.clone(),
                None => {
                    if inner.order.len() >= self.capacity {
                        if let Some(evicted) = inner.order.pop_front() {
                            inner.cells.remove(&evicted);
                        }
                    }
                    let cell = Arc::new(OnceLock::new());
                    inner.cells.insert(key.clone(), cell.clone());
                    inner.order.push_back(key.clone());
                    cell
                }
            }
        };
        // The map lock is released before the (possibly expensive)
        // compute; racers on the same cell serialize on the OnceLock
        // instead, so one slow key never blocks lookups of other keys.
        let mut computed = false;
        let value = cell
            .get_or_init(|| {
                computed = true;
                self.misses.fetch_add(1, Ordering::Relaxed);
                Arc::new(compute())
            })
            .clone();
        if !computed {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// `(hits, misses)` so far. A miss is an actual computation; a hit is
    /// any call that reused an already-computed value (including calls
    /// that blocked while another thread computed it).
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    #[test]
    fn repeated_lookups_share_one_allocation() {
        let cache = ContentCache::new(4);
        let a = cache.get_or_compute(&"k".to_string(), || vec![1, 2, 3]);
        let b = cache.get_or_compute(&"k".to_string(), || unreachable!());
        assert!(Arc::ptr_eq(&a, &b), "an equal key must hit");
        cache.get_or_compute(&"other".to_string(), || vec![4]);
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn eviction_keeps_the_cache_bounded() {
        const CAPACITY: u64 = 8;
        let cache = ContentCache::new(CAPACITY as usize);
        for k in 0..CAPACITY + 4 {
            cache.get_or_compute(&k, || k);
        }
        // FIFO: the newest keys are kept, the oldest recomputes.
        cache.get_or_compute(&(CAPACITY + 3), || unreachable!());
        cache.get_or_compute(&0, || 0);
        assert_eq!(cache.stats(), (1, CAPACITY + 4 + 1));
    }

    #[test]
    fn eight_threads_hammering_one_key_compute_once() {
        let cache = ContentCache::new(4);
        let start = Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..50 {
                        assert_eq!(*cache.get_or_compute(&7u8, || vec![7u8; 64]), [7; 64]);
                    }
                });
            }
        });
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1, "single-computation semantics");
        assert_eq!(hits, 8 * 50 - 1);
    }

    #[test]
    fn eight_threads_over_disjoint_keys_do_not_poison_locks() {
        let cache = ContentCache::new(16);
        let start = Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let (cache, start) = (&cache, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..20 {
                        let k = (t + round) % 6;
                        assert_eq!(*cache.get_or_compute(&k, || k * 10), k * 10);
                    }
                });
            }
        });
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 6, "one computation per distinct key");
        assert_eq!(hits, 8 * 20 - 6);
    }

    #[test]
    fn a_panicking_computation_leaves_the_cache_usable() {
        let cache = ContentCache::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_compute(&1u8, || -> u8 { panic!("compute failed") })
        }));
        assert!(caught.is_err());
        assert_eq!(*cache.get_or_compute(&1u8, || 9), 9);
        assert_eq!(*cache.get_or_compute(&2u8, || 4), 4);
    }
}
