//! # Qlosure — dependence-driven qubit mapping with affine abstractions
//!
//! Reproduction of *Dependence-Driven, Scalable Quantum Circuit Mapping
//! with Affine Abstractions* (CGO 2026). Qlosure repairs the connectivity
//! of two-qubit gates on restricted coupling graphs by inserting SWAPs,
//! choosing each SWAP with a cost function driven by **transitive
//! dependence weights**: the number of downstream gates each look-ahead
//! gate transitively blocks, computed from a polyhedral (Presburger)
//! encoding of the circuit or, where that costs less, by exact graph
//! reachability (see the [`affine`] crate).
//!
//! The crate is organized as a **staged pass pipeline** (see the [`pass`]
//! module): every mapper — Qlosure here, the four baselines in the
//! `baselines` crate — is a [`MappingPipeline`] composition of
//! [`AnalysisPass`] → [`LayoutPass`] → [`RoutingPass`] → [`PostPass`]
//! stages over one shared incremental [`RoutingState`]. The crate exposes:
//!
//! * [`QlosureMapper`] — the paper's Algorithm 1 as the composition
//!   `weights → layout → qlosure-route`, configurable via
//!   [`QlosureConfig`] (including the §VI-E ablation variants);
//! * [`RoutingState`] — the incremental front-layer / decay / clock /
//!   candidate-SWAP state machine with one index-order walk over the
//!   gates left to route, shared by every routing pass;
//! * [`Mapper`] / [`MappingResult`] — the interface shared with the
//!   baseline mappers (`Mapper::map` stays a thin adapter over the
//!   pipeline; [`Mapper::pipeline`] exposes the composition for per-pass
//!   timing);
//! * [`route_qasm`] — the QASM-in/QASM-out endpoints of the pipeline.
//!
//! # Quickstart
//!
//! ```
//! use qlosure::{Mapper, QlosureMapper};
//! use circuit::Circuit;
//! use topology::backends;
//!
//! // A GHZ ladder on a line topology: every other CX needs routing.
//! let mut c = Circuit::new(5);
//! c.h(0);
//! for i in 0..4 {
//!     c.cx(0, i + 1);
//! }
//! let device = backends::line(5);
//! let result = QlosureMapper::default().map(&c, &device);
//! // The routed circuit is hardware-valid:
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

mod bits;
mod cost;
mod layout;
pub mod pass;
mod pipeline;
mod router;
mod state;

pub use cost::{CostVariant, OmegaScaling, ScoredGate, SwapCost};
pub use layout::Layout;
pub use pass::{
    run_mapper_timed, AnalysisPass, Artifacts, DependenceWeightsPass, FidelityPass,
    FixedLayoutPass, IdentityLayoutPass, LayoutPass, MappingPipeline, MetricsPass, PassContext,
    PassStage, PassTiming, PipelineOutcome, PostPass, RoutingPass, TimedMapRun, VerifyPass,
};
pub use pipeline::{route_qasm, PipelineError};
pub use router::{
    BidirectionalLayoutPass, InitialMapping, QlosureConfig, QlosureMapper, QlosureRoutingPass,
};
pub use state::{RoutingState, StateFingerprint};

use circuit::Circuit;
use topology::CouplingGraph;

/// The outcome of mapping a circuit onto a device.
#[derive(Clone, Debug, PartialEq)]
pub struct MappingResult {
    /// The routed circuit over *physical* qubits, SWAPs included.
    pub routed: Circuit,
    /// Initial layout: `initial_layout[logical] = physical`.
    pub initial_layout: Vec<u32>,
    /// Final layout after all SWAPs: `final_layout[logical] = physical`.
    pub final_layout: Vec<u32>,
    /// Number of SWAP gates inserted.
    pub swaps: usize,
}

impl MappingResult {
    /// Depth of the routed circuit (unit-gate model).
    pub fn depth(&self) -> usize {
        self.routed.depth()
    }

    /// Depth increase over the unrouted circuit, the Δ of the paper's
    /// Fig. 2.
    pub fn depth_delta(&self, original: &Circuit) -> isize {
        self.depth() as isize - original.depth() as isize
    }
}

/// A qubit mapper: routes a logical circuit onto a coupling graph.
///
/// Implemented by [`QlosureMapper`] and by every baseline in the
/// `baselines` crate, so the evaluation harness can drive them uniformly.
/// Built-in mappers are pass compositions: their [`Mapper::map`] is a thin
/// adapter over [`Mapper::pipeline`], which harnesses use to collect
/// per-pass timings.
pub trait Mapper {
    /// Short identifier used in result tables (e.g. `"qlosure"`).
    fn name(&self) -> &str;

    /// Routes `circuit` onto `device`.
    ///
    /// Implementations must return a [`MappingResult`] that passes
    /// [`circuit::verify_routing`] against the original circuit.
    fn map(&self, circuit: &Circuit, device: &CouplingGraph) -> MappingResult;

    /// The staged pass composition behind this mapper, when it is
    /// pipeline-based. Running the returned pipeline produces a result
    /// identical to [`Mapper::map`], plus per-pass timings. Opaque
    /// mappers (the default) return `None`.
    fn pipeline(&self) -> Option<MappingPipeline> {
        None
    }
}
