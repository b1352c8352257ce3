//! Cirq-style greedy time-sliced router, as a routing pass over the
//! shared [`RoutingState`].

use circuit::Circuit;
use qlosure::{
    Artifacts, IdentityLayoutPass, Mapper, MappingPipeline, MappingResult, RoutingPass,
    RoutingState,
};
use topology::CouplingGraph;

/// Configuration of the Cirq-style baseline.
#[derive(Clone, Debug)]
pub struct CirqConfig {
    /// How many upcoming two-qubit gates the greedy score peeks at.
    pub lookahead: usize,
    /// Weight of the look-ahead term relative to the active slice.
    pub lookahead_weight: f64,
    /// Swaps without progress before a forced shortest-path escape.
    pub stall_slack: usize,
}

impl Default for CirqConfig {
    fn default() -> Self {
        CirqConfig {
            lookahead: 8,
            lookahead_weight: 0.1,
            stall_slack: 16,
        }
    }
}

/// Greedy router in the spirit of Cirq's `route_circuit_greedily`: per
/// time slice, apply the swap that most decreases the summed qubit
/// distance of the active slice (with a light look-ahead), requiring
/// monotone progress and escaping along a shortest path when stuck.
///
/// A pass composition `identity → cirq-route` over the shared
/// [`RoutingState`].
#[derive(Clone, Debug, Default)]
pub struct CirqMapper {
    /// Knobs.
    pub config: CirqConfig,
}

impl CirqMapper {
    /// The pass composition this mapper runs.
    pub fn to_pipeline(&self) -> MappingPipeline {
        MappingPipeline::new(
            IdentityLayoutPass,
            CirqRoutingPass::new(self.config.clone()),
        )
    }
}

impl Mapper for CirqMapper {
    fn name(&self) -> &str {
        "cirq"
    }

    fn map(&self, circuit: &Circuit, device: &CouplingGraph) -> MappingResult {
        self.to_pipeline().map(circuit, device)
    }

    fn pipeline(&self) -> Option<MappingPipeline> {
        Some(self.to_pipeline())
    }
}

/// The Cirq greedy loop as a [`RoutingPass`].
#[derive(Clone, Debug, Default)]
pub struct CirqRoutingPass {
    config: CirqConfig,
}

impl CirqRoutingPass {
    /// A routing pass with explicit configuration.
    pub fn new(config: CirqConfig) -> Self {
        CirqRoutingPass { config }
    }
}

impl RoutingPass for CirqRoutingPass {
    fn name(&self) -> &'static str {
        "cirq"
    }

    fn run(&self, st: &mut RoutingState<'_>, _artifacts: &Artifacts) {
        let stall_limit = 2 * st.dist().diameter() as usize + self.config.stall_slack;
        let mut stall = 0usize;
        loop {
            if st.execute_ready() > 0 {
                stall = 0;
            }
            let slice = st.blocked_front();
            if slice.is_empty() {
                break;
            }
            let lookahead = st.lookahead(self.config.lookahead);
            let base = st.distance_sum(&slice)
                + self.config.lookahead_weight * st.distance_sum(&lookahead);
            let mut best: Option<(u32, u32)> = None;
            let mut best_score = base; // must strictly improve
            for (p1, p2) in st.swap_candidates() {
                let score = st.speculate_swap(p1, p2, |s| {
                    s.distance_sum(&slice)
                        + self.config.lookahead_weight * s.distance_sum(&lookahead)
                });
                if score < best_score - 1e-9 {
                    best_score = score;
                    best = Some((p1, p2));
                }
            }
            match best {
                Some((p1, p2)) if stall <= stall_limit => {
                    st.apply_swap(p1, p2);
                    stall += 1;
                }
                _ => {
                    // No strictly improving swap (local minimum) or too
                    // many swaps without executing: route the first
                    // blocked gate outright.
                    st.force_route(slice[0]);
                    stall = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::verify_routing;
    use topology::backends;

    fn check(c: &Circuit, device: &CouplingGraph) -> MappingResult {
        let r = CirqMapper::default().map(c, device);
        verify_routing(
            c,
            &r.routed,
            &|a, b| device.is_adjacent(a, b),
            &r.initial_layout,
        )
        .expect("cirq routing must verify");
        r
    }

    #[test]
    fn adjacent_gates_pass_through() {
        let device = backends::line(4);
        let mut c = Circuit::new(4);
        c.cx(0, 1);
        c.cx(2, 3);
        let r = check(&c, &device);
        assert_eq!(r.swaps, 0);
    }

    #[test]
    fn routes_crossing_pairs() {
        let device = backends::line(6);
        let mut c = Circuit::new(6);
        c.cx(0, 5);
        c.cx(1, 4);
        check(&c, &device);
    }

    #[test]
    fn random_circuit_verifies() {
        let device = backends::ring(10);
        let mut c = Circuit::new(10);
        let mut s = 23u64;
        for _ in 0..70 {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(12345);
            let a = ((s >> 33) % 10) as u32;
            let b = ((s >> 17) % 10) as u32;
            if a != b {
                c.cx(a, b);
            }
        }
        check(&c, &device);
    }

    #[test]
    fn local_minimum_escapes() {
        // A pattern where no single swap improves the sum: the router must
        // still terminate via the escape path.
        let device = backends::ring(6);
        let mut c = Circuit::new(6);
        c.cx(0, 3); // diametrically opposite on the ring
        let r = check(&c, &device);
        assert!(r.swaps >= 2);
    }
}
