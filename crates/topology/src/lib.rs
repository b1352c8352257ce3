//! QPU coupling graphs and physical distance matrices.
//!
//! Models the hardware back-ends of the Qlosure evaluation:
//!
//! * [`backends::sherbrooke`] — IBM Sherbrooke, the 127-qubit heavy-hexagon
//!   Eagle lattice;
//! * [`backends::ankaa3`] — Rigetti Ankaa-3, an 82-qubit square lattice
//!   (7×12 tile with two qubits disabled, matching the paper's count);
//! * [`backends::sherbrooke_2x`] — the paper's synthetic 256-qubit back-end:
//!   two Sherbrooke topologies joined by two bridge qubits;
//! * [`backends::king_grid`] — the 9×9 / 16×16 eight-neighbour grids used
//!   to synthesize the custom QUEKO suites;
//! * generic generators (lines, rings, grids, Aspen- and Sycamore-like
//!   lattices) for tests and workload generation.
//!
//! [`CouplingGraph`] provides adjacency plus the all-pairs-shortest-path
//! [`DistanceMatrix`] (`Dphys` in the paper, §V-B.3).
//!
//! # Example
//!
//! ```
//! use topology::backends;
//!
//! let dev = backends::sherbrooke();
//! assert_eq!(dev.n_qubits(), 127);
//! assert!(dev.max_degree() <= 3); // heavy-hex property
//! let d = dev.distances();
//! assert_eq!(d.get(0, 1), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backends;
mod cache;
mod graph;
mod noise;

pub use graph::{CouplingGraph, DistanceMatrix};
pub use noise::NoiseModel;

/// `(hits, misses)` counters of the process-wide shared distance cache
/// behind [`CouplingGraph::shared_distances`].
///
/// A *miss* is an actual all-pairs BFS computation; a *hit* is any call
/// that reused an already-computed matrix (including calls that blocked
/// while another thread computed it). The counters are cumulative over the
/// process lifetime — long-lived consumers (the mapping service) report
/// deltas across requests to make cross-request amortization observable.
pub fn shared_distance_stats() -> (u64, u64) {
    cache::global().stats()
}

/// `(hits, misses)` counters of the process-wide shared reliability-
/// weighted distance cache behind [`NoiseModel::shared_weighted_distances`].
///
/// Same semantics as [`shared_distance_stats`]: a *miss* is an actual
/// all-pairs Dijkstra computation, a *hit* any call that reused one, and
/// the counters are cumulative over the process lifetime.
pub fn weighted_distance_stats() -> (u64, u64) {
    noise::weighted_cache().stats()
}
