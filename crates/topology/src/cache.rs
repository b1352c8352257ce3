//! Process-wide shared per-device caches.
//!
//! The all-pairs-distance matrix (`Dphys`) is a pure function of a
//! [`CouplingGraph`], yet every mapper invocation used to recompute it —
//! `O(n²)` BFS work repeated thousands of times over a batch run. The
//! [`DistanceCache`] here computes each matrix once per distinct graph and
//! hands out `Arc` clones, with single-computation semantics under
//! concurrency: when several threads race on an uncached graph, exactly one
//! runs the BFS and the others block on the same cell and share its result.
//!
//! **Invalidation rule:** a [`CouplingGraph`] is immutable after
//! construction, so entries are keyed by the *full graph content* (name +
//! adjacency). A different graph — even one with the same name — is a
//! different key; nothing is ever invalidated in place. The cache is
//! bounded ([`CAPACITY`] entries) with FIFO eviction; an evicted entry's
//! matrix stays alive for as long as callers hold their `Arc`s.

use crate::graph::{CouplingGraph, DistanceMatrix};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Maximum number of distinct graphs kept. Only device-level graphs come
/// through here: the back-ends a process maps onto plus, under the
/// hierarchical mapper, one region quotient graph per device. Fragment
/// sub-routes compute their small region distances inline, because the
/// hier plan memo already deduplicates them and routing each plan miss
/// through this cache would evict the device matrices. The evaluation
/// roster has 7 back-ends, so 32 never evicts in practice while still
/// bounding memory for adversarial workloads.
const CAPACITY: usize = 32;

/// A bounded, content-keyed, single-computation cache: the one
/// implementation behind the hop-count distance cache, the
/// reliability-weighted distance cache and the name → device memo
/// ([`crate::backends::shared_by_name`]), so their locking, eviction and
/// counter semantics can never drift apart.
///
/// Entries are keyed by full content (the invalidation rule: nothing is
/// ever invalidated in place, a different value is a different key), the
/// store is FIFO-bounded, and when threads race on an uncached key
/// exactly one computes while the rest block on the same cell and share
/// its result.
pub(crate) struct ContentCache<K, V> {
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
    pub(crate) fn new(capacity: usize) -> Self {
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
    /// distinct key no matter how many threads ask concurrently.
    pub(crate) fn get_or_compute(&self, key: &K, compute: impl FnOnce() -> V) -> Arc<V> {
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

    /// (hits, misses) so far. A "miss" is an actual computation; a "hit"
    /// is any call that reused an already-computed value (including calls
    /// that blocked while another thread computed it).
    pub(crate) fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// The hop-count distance cache: a [`ContentCache`] keyed by full graph
/// content.
///
/// The global instance behind [`CouplingGraph::shared_distances`] is what
/// production code uses; tests construct private instances so their
/// hit/miss assertions cannot race with other tests.
pub(crate) struct DistanceCache {
    cache: ContentCache<CouplingGraph, DistanceMatrix>,
}

impl DistanceCache {
    pub(crate) fn new() -> Self {
        DistanceCache {
            cache: ContentCache::new(CAPACITY),
        }
    }

    /// The distance matrix of `graph`, computed at most once per distinct
    /// graph no matter how many threads ask concurrently.
    pub(crate) fn get(&self, graph: &CouplingGraph) -> Arc<DistanceMatrix> {
        self.cache.get_or_compute(graph, || graph.distances())
    }

    pub(crate) fn stats(&self) -> (u64, u64) {
        self.cache.stats()
    }
}

static GLOBAL: OnceLock<DistanceCache> = OnceLock::new();

/// The global cache consulted by [`CouplingGraph::shared_distances`].
pub(crate) fn global() -> &'static DistanceCache {
    GLOBAL.get_or_init(DistanceCache::new)
}

/// (hits, misses) of the global cache — the backing of
/// [`crate::shared_distance_stats`].
pub(crate) fn global_stats() -> (u64, u64) {
    global().stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends;

    #[test]
    fn cache_returns_same_matrix_as_direct_computation() {
        let cache = DistanceCache::new();
        let g = backends::line(9);
        assert_eq!(*cache.get(&g), g.distances());
        assert_eq!(cache.stats(), (0, 1));
    }

    #[test]
    fn repeated_lookups_share_one_allocation() {
        let cache = DistanceCache::new();
        let g = backends::ring(12);
        let a = cache.get(&g);
        let b = cache.get(&g.clone());
        assert!(Arc::ptr_eq(&a, &b), "clone of the same graph must hit");
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn distinct_graphs_get_distinct_entries() {
        let cache = DistanceCache::new();
        let a = cache.get(&backends::line(4));
        let b = cache.get(&backends::line(5));
        assert_ne!(a.n_qubits(), b.n_qubits());
        assert_eq!(cache.stats(), (0, 2));
    }

    #[test]
    fn same_name_different_adjacency_is_a_different_key() {
        // The invalidation rule: keys are full graph content, not names.
        let cache = DistanceCache::new();
        let a = CouplingGraph::new("dev", 3, &[(0, 1), (1, 2)]);
        let b = CouplingGraph::new("dev", 3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(cache.get(&a).get(0, 2), 2);
        assert_eq!(cache.get(&b).get(0, 2), 1);
        assert_eq!(cache.stats(), (0, 2));
    }

    #[test]
    fn eviction_keeps_the_cache_bounded() {
        let cache = DistanceCache::new();
        for n in 2..(2 + CAPACITY + 4) {
            cache.get(&backends::line(n));
        }
        // The oldest entry was evicted, so asking again recomputes.
        cache.get(&backends::line(2));
        let (_, misses) = cache.stats();
        assert_eq!(misses as usize, CAPACITY + 4 + 1);
    }

    #[test]
    fn eight_threads_hammering_one_graph_compute_once() {
        let cache = DistanceCache::new();
        let g = backends::king_grid(6, 6);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let d = cache.get(&g);
                        assert_eq!(d.n_qubits(), 36);
                    }
                });
            }
        });
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1, "single-computation semantics");
        assert_eq!(hits, 8 * 50 - 1);
    }

    #[test]
    fn eight_threads_over_disjoint_graphs_do_not_poison_locks() {
        let cache = DistanceCache::new();
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let cache = &cache;
                scope.spawn(move || {
                    for round in 0..20 {
                        let n = 3 + (t + round) % 6;
                        let d = cache.get(&backends::line(n));
                        assert_eq!(d.n_qubits(), n);
                    }
                });
            }
        });
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 6, "one computation per distinct graph");
        assert_eq!(hits, 8 * 20 - 6);
    }

    #[test]
    fn global_cache_is_shared_across_call_sites() {
        let g = backends::king_grid(2, 7);
        let a = g.shared_distances();
        let b = g.shared_distances();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, g.distances());
    }

    #[test]
    fn public_stats_observe_global_traffic() {
        // The global counters are shared with every concurrently running
        // test, so only monotonicity and attributable growth are asserted.
        let g = backends::king_grid(3, 5);
        let (h0, m0) = crate::shared_distance_stats();
        g.shared_distances();
        g.shared_distances();
        let (h1, m1) = crate::shared_distance_stats();
        assert!(h1 + m1 >= h0 + m0 + 2, "two lookups must be counted");
        assert!(h1 >= h0 && m1 >= m0, "counters never decrease");
    }
}
