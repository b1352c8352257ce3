//! The process-wide distance-matrix cache.
//!
//! The all-pairs-distance matrix (`Dphys`) is a pure function of a
//! [`CouplingGraph`], yet every mapper invocation used to recompute it —
//! `O(n²)` BFS work repeated thousands of times over a batch run.
//! [`CouplingGraph::shared_distances`] computes each matrix once per
//! distinct graph through one [`bounded::ContentCache`] and hands out
//! `Arc` clones.
//!
//! **Invalidation rule:** a [`CouplingGraph`] is immutable after
//! construction, so entries are keyed by the *full graph content* (name +
//! adjacency). A different graph — even one with the same name — is a
//! different key; nothing is ever invalidated in place.

use crate::graph::{CouplingGraph, DistanceMatrix};
use bounded::ContentCache;
use std::sync::OnceLock;

/// Maximum number of distinct graphs kept. Only device-level graphs come
/// through here: the back-ends a process maps onto plus, under the
/// hierarchical mapper, one region quotient graph per device. Fragment
/// sub-routes compute their small region distances inline, because the
/// hier plan memo already deduplicates them and routing each plan miss
/// through this cache would evict the device matrices. The evaluation
/// roster has 7 back-ends, so 32 never evicts in practice while still
/// bounding memory for adversarial workloads.
const CAPACITY: usize = 32;

/// The global cache consulted by [`CouplingGraph::shared_distances`];
/// tests construct private instances so their hit/miss assertions cannot
/// race with other tests.
pub(crate) fn global() -> &'static ContentCache<CouplingGraph, DistanceMatrix> {
    static GLOBAL: OnceLock<ContentCache<CouplingGraph, DistanceMatrix>> = OnceLock::new();
    GLOBAL.get_or_init(|| ContentCache::new(CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends;
    use std::sync::Arc;

    #[test]
    fn cache_returns_same_matrix_as_direct_computation() {
        let cache = ContentCache::new(CAPACITY);
        let g = backends::line(9);
        assert_eq!(*cache.get_or_compute(&g, || g.distances()), g.distances());
        assert_eq!(cache.stats(), (0, 1));
    }

    #[test]
    fn distinct_graphs_get_distinct_entries() {
        let cache = ContentCache::new(CAPACITY);
        let (a, b) = (backends::line(4), backends::line(5));
        let da = cache.get_or_compute(&a, || a.distances());
        let db = cache.get_or_compute(&b, || b.distances());
        assert_ne!(da.n_qubits(), db.n_qubits());
        assert_eq!(cache.stats(), (0, 2));
    }

    #[test]
    fn same_name_different_adjacency_is_a_different_key() {
        // The invalidation rule: keys are full graph content, not names.
        let cache = ContentCache::new(CAPACITY);
        let a = CouplingGraph::new("dev", 3, &[(0, 1), (1, 2)]);
        let b = CouplingGraph::new("dev", 3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(cache.get_or_compute(&a, || a.distances()).get(0, 2), 2);
        assert_eq!(cache.get_or_compute(&b, || b.distances()).get(0, 2), 1);
        assert_eq!(cache.stats(), (0, 2));
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
