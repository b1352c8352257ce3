//! QRANE-style affine lifting and transitive-dependence analysis.
//!
//! This crate implements the paper's §III-C/§IV pipeline:
//!
//! 1. **Lifting** ([`lift_interactions`]): the two-qubit interaction trace
//!    of a circuit is grouped into *macro-gates* — runs whose time stamps
//!    and qubit operands follow affine progressions `a·i + b` (the QRANE
//!    representation: iteration domain, access relations, schedule);
//! 2. **Dependence relation** ([`dependence_map`]): all pairs of gate
//!    instances that share a qubit, `t₁ < t₂`, expressed as a Presburger
//!    relation on the 1-D time space (the paper's `Rdep` mapped onto the
//!    schedule);
//! 3. **Transitive closure + weights** ([`DependenceAnalysis`]): `R⁺` via
//!    [`presburger::Map::transitive_closure`] and the per-gate dependence
//!    weight `ω(g) = card{ h | (g,h) ∈ R⁺ }` (Eq. 1), with `card` provided
//!    by the exact point counter (the Barvinok substitute).
//!
//! [`WeightMode::Auto`] picks the engine by cost. Below
//! [`AFFINE_MIN_INTERACTIONS`] two-qubit interactions it skips lifting
//! and closure and computes ω by exact bitset reachability on the concrete
//! dependence DAG, which is cheaper there. At or above it, circuits that
//! lift well (compression ≥ 4, at most 256 statements, at most 512
//! dependence disjuncts) take the affine path; the rest take the graph
//! path. An affine result whose closure is inexact is a sound
//! over-approximation ([`WeightPath::AffineOverApproximate`]), not a
//! fallback. The graph path is the oracle the affine path is
//! cross-validated against in tests.
//!
//! In the mapping stack, [`DependenceAnalysis`] is the typed artifact the
//! `qlosure` crate's `DependenceWeightsPass` produces for the pass
//! pipeline; [`DependenceAnalysis::describe`] renders the one-line
//! summary used in per-pass reports.
//!
//! # Example
//!
//! ```
//! use affine::{DependenceAnalysis, WeightMode};
//! use circuit::Circuit;
//!
//! // A linear-nearest-neighbour sweep: perfectly affine.
//! let mut c = Circuit::new(8);
//! for i in 0..7 {
//!     c.cx(i, i + 1);
//! }
//! let analysis = DependenceAnalysis::new(&c, WeightMode::Affine);
//! // Gate i blocks all later gates in the chain.
//! assert_eq!(analysis.weight(0), 6);
//! assert_eq!(analysis.weight(6), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deps;
mod lift;
mod weights;

pub use deps::dependence_map;
pub use lift::{lift_interactions, AffineFn, Interaction, Lifting, MacroGate};
pub use weights::{DependenceAnalysis, WeightMode, WeightPath, AFFINE_MIN_INTERACTIONS};
