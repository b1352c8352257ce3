//! Per-device noise models and reliability-weighted distances.
//!
//! The paper's conclusion names "qubit-state and error-aware mapping
//! heuristics" as future work; this module provides the substrate: a
//! [`NoiseModel`] with per-coupling two-qubit error rates and per-qubit
//! single-qubit/readout error rates, plus a reliability-weighted distance
//! matrix (Dijkstra over `-ln(1 - ε)` edge costs) that slots into the same
//! cost functions the hop-count matrix feeds.

use crate::graph::{CouplingGraph, DistanceMatrix};
use bounded::ContentCache;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Calibration data for a device: error rates per coupling and per qubit.
#[derive(Clone, Debug)]
pub struct NoiseModel {
    edge_error: HashMap<(u32, u32), f64>,
    qubit_error: Vec<f64>,
    default_edge_error: f64,
}

impl NoiseModel {
    /// A uniform model: every coupling has the same two-qubit error rate,
    /// every qubit the same single-qubit rate.
    ///
    /// # Panics
    ///
    /// Panics unless both rates lie in `[0, 1)`.
    pub fn uniform(graph: &CouplingGraph, edge_error: f64, qubit_error: f64) -> Self {
        assert!((0.0..1.0).contains(&edge_error), "edge error out of range");
        assert!(
            (0.0..1.0).contains(&qubit_error),
            "qubit error out of range"
        );
        NoiseModel {
            edge_error: HashMap::new(),
            qubit_error: vec![qubit_error; graph.n_qubits()],
            default_edge_error: edge_error,
        }
    }

    /// A synthetic calibration in the spirit of published IBM Eagle data:
    /// two-qubit errors spread log-uniformly around `median_2q`
    /// (0.25×–4×), single-qubit errors an order of magnitude lower.
    /// Deterministic per seed.
    pub fn synthetic(graph: &CouplingGraph, median_2q: f64, seed: u64) -> Self {
        let mut state = seed ^ 0x9E3779B97F4A7C15;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut edge_error = HashMap::new();
        for (a, b) in graph.edges() {
            // log-uniform in [median/4, median*4]
            let factor = 4f64.powf(2.0 * next() - 1.0);
            edge_error.insert((a, b), (median_2q * factor).min(0.5));
        }
        let qubit_error = (0..graph.n_qubits())
            .map(|_| (median_2q / 10.0) * 4f64.powf(2.0 * next() - 1.0))
            .collect();
        NoiseModel {
            edge_error,
            qubit_error,
            default_edge_error: median_2q,
        }
    }

    /// Overrides one coupling's error rate (both orientations).
    pub fn set_edge_error(&mut self, a: u32, b: u32, error: f64) {
        assert!((0.0..1.0).contains(&error));
        self.edge_error.insert((a.min(b), a.max(b)), error);
    }

    /// The two-qubit error rate of coupling `(a, b)`.
    pub fn edge_error(&self, a: u32, b: u32) -> f64 {
        self.edge_error
            .get(&(a.min(b), a.max(b)))
            .copied()
            .unwrap_or(self.default_edge_error)
    }

    /// The single-qubit error rate of qubit `q`.
    pub fn qubit_error(&self, q: u32) -> f64 {
        self.qubit_error.get(q as usize).copied().unwrap_or(0.0)
    }

    /// Negative log-fidelity of one two-qubit gate on `(a, b)` — the
    /// additive edge cost for reliability-shortest paths.
    pub fn edge_cost(&self, a: u32, b: u32) -> f64 {
        -(1.0 - self.edge_error(a, b)).ln()
    }

    /// Reliability-weighted all-pairs distances: Dijkstra over
    /// `-ln(1 - ε)` per coupling, scaled by `3` per hop (a SWAP costs
    /// three CX), quantized onto the integer [`DistanceMatrix`] grid so it
    /// drops into the same cost functions as hop counts.
    ///
    /// The quantization scale is chosen so the *cheapest* edge maps to
    /// roughly 1 unit, preserving relative path costs.
    pub fn weighted_distances(&self, graph: &CouplingGraph) -> DistanceMatrix {
        let n = graph.n_qubits();
        // Cheapest edge sets the unit.
        let min_cost = graph
            .edges()
            .iter()
            .map(|&(a, b)| self.edge_cost(a, b))
            .fold(f64::INFINITY, f64::min);
        let unit = if min_cost.is_finite() && min_cost > 0.0 {
            min_cost
        } else {
            1.0
        };
        let mut quantized = vec![DistanceMatrix::UNREACHABLE; n * n];
        for src in 0..n as u32 {
            // Dijkstra with a simple binary heap.
            let mut dist = vec![f64::INFINITY; n];
            dist[src as usize] = 0.0;
            let mut heap = std::collections::BinaryHeap::new();
            heap.push(std::cmp::Reverse((ordered(0.0), src)));
            while let Some(std::cmp::Reverse((d, p))) = heap.pop() {
                let d = d.0;
                if d > dist[p as usize] {
                    continue;
                }
                for &q in graph.neighbors(p) {
                    let nd = d + 3.0 * self.edge_cost(p, q);
                    if nd < dist[q as usize] {
                        dist[q as usize] = nd;
                        heap.push(std::cmp::Reverse((ordered(nd), q)));
                    }
                }
            }
            for dst in 0..n {
                if dist[dst].is_finite() {
                    let units = (dist[dst] / (3.0 * unit)).round() as u64;
                    quantized[src as usize * n + dst] = units.min(u64::from(u16::MAX - 1)) as u16;
                }
            }
        }
        DistanceMatrix::from_raw(n, quantized)
    }

    /// The shared, cached form of [`NoiseModel::weighted_distances`].
    ///
    /// Functionally identical, but the all-pairs Dijkstra runs at most
    /// once per distinct `(noise model, graph)` pair process-wide, through
    /// the same [`bounded::ContentCache`] as
    /// [`CouplingGraph::shared_distances`]. Entries are keyed by *full
    /// content*: graph name and adjacency, plus the model's canonical
    /// error-rate encoding. Hit/miss counters are surfaced through
    /// [`crate::weighted_distance_stats`].
    pub fn shared_weighted_distances(&self, graph: &CouplingGraph) -> Arc<DistanceMatrix> {
        cached_weighted(weighted_cache(), self, graph)
    }

    /// Canonical content encoding of this model, the cache-key component
    /// that makes two models with identical rates share an entry.
    fn content_key(&self) -> NoiseContent {
        let mut edges: Vec<(u32, u32, u64)> = self
            .edge_error
            .iter()
            .map(|(&(a, b), &e)| (a, b, e.to_bits()))
            .collect();
        edges.sort_unstable();
        NoiseContent {
            edges,
            qubits: self.qubit_error.iter().map(|e| e.to_bits()).collect(),
            default_bits: self.default_edge_error.to_bits(),
        }
    }

    /// Estimated success probability of a routed circuit: the product of
    /// per-gate fidelities (two-qubit gates and SWAPs use the coupling's
    /// rate, SWAPs three times; single-qubit gates use the qubit's rate).
    pub fn success_probability<'a, I>(&self, gates: I) -> f64
    where
        I: IntoIterator<Item = (&'a str, &'a [u32])>,
    {
        let mut log_fidelity = 0.0f64;
        for (kind, qubits) in gates {
            match qubits {
                [q] => log_fidelity += (1.0 - self.qubit_error(*q)).ln(),
                [a, b] => {
                    let per_gate = (1.0 - self.edge_error(*a, *b)).ln();
                    let reps = if kind == "swap" { 3.0 } else { 1.0 };
                    log_fidelity += reps * per_gate;
                }
                _ => {}
            }
        }
        log_fidelity.exp()
    }
}

/// Canonical, hashable encoding of a [`NoiseModel`]'s rates (f64s as bit
/// patterns, edge overrides sorted) — one half of the weighted-distance
/// cache key.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct NoiseContent {
    edges: Vec<(u32, u32, u64)>,
    qubits: Vec<u64>,
    default_bits: u64,
}

/// Maximum number of distinct `(graph, noise)` pairs kept. Noise-aware
/// runs use one calibration per device, so this never evicts in practice
/// while still bounding memory for adversarial workloads.
const WEIGHTED_CAPACITY: usize = 32;

/// Reliability-weighted distance matrices keyed by `(graph content,
/// noise content)`.
type WeightedCache = ContentCache<(CouplingGraph, NoiseContent), DistanceMatrix>;

fn cached_weighted(
    cache: &WeightedCache,
    noise: &NoiseModel,
    graph: &CouplingGraph,
) -> Arc<DistanceMatrix> {
    let key = (graph.clone(), noise.content_key());
    cache.get_or_compute(&key, || noise.weighted_distances(graph))
}

/// The global cache behind [`NoiseModel::shared_weighted_distances`].
pub(crate) fn weighted_cache() -> &'static WeightedCache {
    static GLOBAL: OnceLock<WeightedCache> = OnceLock::new();
    GLOBAL.get_or_init(|| ContentCache::new(WEIGHTED_CAPACITY))
}

/// Total-ordering wrapper for f64 heap keys (costs are never NaN).
fn ordered(x: f64) -> OrderedF64 {
    OrderedF64(x)
}

#[derive(PartialEq, PartialOrd)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("costs are never NaN")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends;

    #[test]
    fn uniform_model_reduces_to_hop_counts() {
        let g = backends::line(6);
        let noise = NoiseModel::uniform(&g, 0.01, 0.001);
        let weighted = noise.weighted_distances(&g);
        let hops = g.distances();
        for a in 0..6u32 {
            for b in 0..6u32 {
                assert_eq!(weighted.get(a, b), hops.get(a, b), "({a},{b})");
            }
        }
    }

    #[test]
    fn weighted_distances_route_around_bad_links() {
        // Ring of 6: direct edge (0,1) is terrible, going the long way
        // round (5 hops of good links) must win.
        let g = backends::ring(6);
        let mut noise = NoiseModel::uniform(&g, 0.001, 0.0001);
        noise.set_edge_error(0, 1, 0.4);
        let weighted = noise.weighted_distances(&g);
        // Unit = cheapest edge ≈ 0.001; bad edge ≈ 510 units; long way = 5.
        assert!(weighted.get(0, 1) <= 6, "{}", weighted.get(0, 1));
        assert!(weighted.get(0, 1) >= 5);
    }

    #[test]
    fn synthetic_model_is_deterministic_and_spread() {
        let g = backends::sherbrooke();
        let a = NoiseModel::synthetic(&g, 7e-3, 1);
        let b = NoiseModel::synthetic(&g, 7e-3, 1);
        let c = NoiseModel::synthetic(&g, 7e-3, 2);
        let edges = g.edges();
        let (e0, e1) = (edges[0], edges[17]);
        assert_eq!(a.edge_error(e0.0, e0.1), b.edge_error(e0.0, e0.1));
        assert_ne!(a.edge_error(e0.0, e0.1), c.edge_error(e0.0, e0.1));
        assert_ne!(a.edge_error(e0.0, e0.1), a.edge_error(e1.0, e1.1));
        // All within the advertised envelope.
        for (x, y) in edges {
            let e = a.edge_error(x, y);
            assert!((7e-3 / 4.1..=7e-3 * 4.1).contains(&e), "{e}");
        }
    }

    #[test]
    fn success_probability_multiplies_fidelities() {
        let g = backends::line(3);
        let noise = NoiseModel::uniform(&g, 0.01, 0.001);
        let gates: Vec<(&str, &[u32])> = vec![("h", &[0]), ("cx", &[0, 1]), ("swap", &[1, 2])];
        let p = noise.success_probability(gates);
        let expected = (1.0f64 - 0.001) * (1.0 - 0.01) * (1.0 - 0.01f64).powi(3);
        assert!((p - expected).abs() < 1e-12, "{p} vs {expected}");
    }

    #[test]
    fn weighted_cache_returns_same_matrix_as_direct_computation() {
        let cache = WeightedCache::new(WEIGHTED_CAPACITY);
        let g = backends::ring(9);
        let noise = NoiseModel::uniform(&g, 0.02, 0.001);
        let first = cached_weighted(&cache, &noise, &g);
        assert_eq!(*first, noise.weighted_distances(&g));
        assert_eq!(cache.stats(), (0, 1));
        // A clone of the same model on the same graph is a content hit.
        let again = cached_weighted(&cache, &noise.clone(), &g.clone());
        assert_eq!(cache.stats(), (1, 1));
        assert!(Arc::ptr_eq(&again, &first));
    }

    #[test]
    fn weighted_cache_keys_on_noise_content() {
        let cache = WeightedCache::new(WEIGHTED_CAPACITY);
        let g = backends::ring(6);
        let mut a = NoiseModel::uniform(&g, 0.01, 0.001);
        let b = a.clone();
        a.set_edge_error(0, 1, 0.3); // different content, same graph
        let da = cached_weighted(&cache, &a, &g);
        let db = cached_weighted(&cache, &b, &g);
        assert_eq!(cache.stats(), (0, 2), "distinct rates must not collide");
        assert_ne!(*da, *db);
    }

    #[test]
    fn public_weighted_stats_observe_global_traffic() {
        // Global counters are shared with concurrently running tests, so
        // only monotonicity and attributable growth are asserted.
        let g = backends::king_grid(2, 6);
        let noise = NoiseModel::synthetic(&g, 3e-3, 7);
        let (h0, m0) = crate::weighted_distance_stats();
        assert_eq!(
            *noise.shared_weighted_distances(&g),
            noise.weighted_distances(&g)
        );
        noise.shared_weighted_distances(&g);
        let (h1, m1) = crate::weighted_distance_stats();
        assert!(h1 + m1 >= h0 + m0 + 2, "two lookups must be counted");
        assert!(h1 >= h0 && m1 >= m0, "counters never decrease");
    }

    #[test]
    fn edge_cost_is_monotone_in_error() {
        let g = backends::line(3);
        let mut noise = NoiseModel::uniform(&g, 0.01, 0.001);
        let base = noise.edge_cost(0, 1);
        noise.set_edge_error(0, 1, 0.1);
        assert!(noise.edge_cost(0, 1) > base);
    }
}
