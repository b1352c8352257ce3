//! # qlosure-hier — hierarchical partitioned mapping
//!
//! Flat mappers route the whole circuit against the whole device, so cost
//! grows with `n_qubits² × n_gates` and 1000+-qubit devices stop being
//! interactive. This crate decomposes the problem along both axes:
//!
//! 1. **Device coarsening** ([`coarsen`]): the coupling graph is
//!    partitioned into connected regions (lattice-aware seeds for
//!    `grid:`/`heavy-hex:` back-ends, greedy BFS growth elsewhere) and a
//!    quotient [`RegionMap::quotient`] region graph is derived, whose
//!    distance matrix flows through the shared per-device cache.
//! 2. **Circuit clustering** ([`cluster_qubits`]): logical qubits are
//!    grouped on their interaction graph, weighted by the `affine`
//!    transitive-dependence ω-mass.
//! 3. **Region placement** ([`place_clusters`]): clusters are assigned to
//!    regions by solving the mapping problem *on the region graph itself*
//!    — a recursive [`qlosure::MappingPipeline`] run — ranked by a
//!    noise-aware region score.
//! 4. **Memoized sub-routing** ([`HierRoutingPass`]): intra-region gate
//!    runs are routed by the flat pipeline on the region subgraph (its
//!    distances an inline BFS, since the memo already deduplicates them),
//!    their SWAP plans cached in a bounded memo keyed on the fragment's
//!    *canonical form* ([`canonicalize`]) so isomorphic fragments under
//!    any qubit labeling share one plan ([`plan_store_stats`]), with an
//!    optional disk tier ([`PlanStore`], attached via
//!    [`configure_plan_store`]) persisting plans across processes;
//!    cross-region gates are stitched with boundary SWAP chains.
//!
//! Everything ships as pass compositions per the workspace rule:
//! [`RegionAnalysisPass`] (analysis artifact), [`HierLayoutPass`],
//! [`HierRoutingPass`], composed into [`HierMapper`] which implements the
//! shared [`qlosure::Mapper`] interface.
//!
//! # Quickstart
//!
//! ```
//! use hier::HierMapper;
//! use qlosure::Mapper;
//! use circuit::Circuit;
//! use topology::backends;
//!
//! let device = backends::square_grid(8, 8);
//! let mut c = Circuit::new(64);
//! for q in 0..63 {
//!     c.cx(q, q + 1);
//! }
//! let result = HierMapper::default().map(&c, &device);
//! circuit::verify_routing(
//!     &c,
//!     &result.routed,
//!     &|a, b| device.is_adjacent(a, b),
//!     &result.initial_layout,
//! )
//! .unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canon;
mod cluster;
mod coarsen;
mod memo;
mod pass;
mod place;
mod store;

pub use canon::{canonicalize, Canonical};
pub use cluster::{cluster_index, cluster_qubits, Cluster, InteractionWeights};
pub use coarsen::{
    auto_budget, coarsen, structured_assignment, structured_seeds, Region, RegionMap,
};
pub use memo::{
    configure_plan_store, exact_fragment_hash, key_bytes, plan_store_stats, subroute_memo_stats,
    FragmentGate, FragmentKey, PlanStats, PlanTier, SubrouteMemo,
};
pub use pass::{
    auto_prefers_hier, HierConfig, HierLayoutPass, HierMapper, HierRoutingPass, RegionAnalysisPass,
    AUTO_THRESHOLD,
};
pub use place::{build_layout, place_clusters};
pub use store::{PlanStore, PlanStoreConfig, StoreWarning, STORE_VERSION};
