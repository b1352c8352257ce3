//! tket-style LexiRoute baseline (Cowtan et al., TQC'19), as a routing
//! pass over the shared [`RoutingState`].

use circuit::Circuit;
use qlosure::{
    Artifacts, IdentityLayoutPass, Mapper, MappingPipeline, MappingResult, RoutingPass,
    RoutingState,
};
use topology::CouplingGraph;

/// Configuration of the tket-style baseline.
#[derive(Clone, Debug)]
pub struct TketConfig {
    /// Number of future slices entering the lexicographic comparison.
    pub depth_limit: usize,
    /// Upper bound on gates per look-ahead slice.
    pub slice_width: usize,
    /// Swaps without progress before a forced shortest-path escape.
    pub stall_slack: usize,
}

impl Default for TketConfig {
    fn default() -> Self {
        TketConfig {
            depth_limit: 4,
            slice_width: 16,
            stall_slack: 16,
        }
    }
}

/// LexiRoute-style router: every candidate swap is scored by the
/// lexicographically compared vector of sorted-descending qubit distances
/// over the current and next few time slices — tket's "bounded longest
/// distance" objective from the paper's Table I.
///
/// A pass composition `identity → tket-route` over the shared
/// [`RoutingState`].
#[derive(Clone, Debug, Default)]
pub struct TketMapper {
    /// Knobs.
    pub config: TketConfig,
}

impl TketMapper {
    /// The pass composition this mapper runs.
    pub fn to_pipeline(&self) -> MappingPipeline {
        MappingPipeline::new(
            IdentityLayoutPass,
            TketRoutingPass::new(self.config.clone()),
        )
    }
}

impl Mapper for TketMapper {
    fn name(&self) -> &str {
        "tket"
    }

    fn map(&self, circuit: &Circuit, device: &CouplingGraph) -> MappingResult {
        self.to_pipeline().map(circuit, device)
    }

    fn pipeline(&self) -> Option<MappingPipeline> {
        Some(self.to_pipeline())
    }
}

/// The LexiRoute loop as a [`RoutingPass`].
#[derive(Clone, Debug, Default)]
pub struct TketRoutingPass {
    config: TketConfig,
}

impl TketRoutingPass {
    /// A routing pass with explicit configuration.
    pub fn new(config: TketConfig) -> Self {
        TketRoutingPass { config }
    }

    /// The current slice plus up to `depth_limit - 1` future slices,
    /// grouped by dependence level.
    fn build_slices(&self, st: &RoutingState<'_>, front: &[u32]) -> Vec<Vec<u32>> {
        let mut slices: Vec<Vec<u32>> = vec![front.to_vec()];
        let budget = self.config.slice_width * (self.config.depth_limit - 1).max(1);
        let upcoming = st.lookahead(budget);
        // Group the upcoming gates by how many two-qubit predecessors they
        // have inside the window — a cheap dependence-level proxy that
        // matches slice order for slice-structured circuits.
        let mut level: std::collections::HashMap<u32, usize> =
            front.iter().map(|&g| (g, 0usize)).collect();
        for &g in &upcoming {
            let l = st
                .dag()
                .preds(g)
                .iter()
                .filter_map(|p| level.get(p))
                .max()
                .map_or(1, |&m| m + 1);
            level.insert(g, l);
            if l < self.config.depth_limit {
                if slices.len() <= l {
                    slices.resize(l + 1, Vec::new());
                }
                if slices[l].len() < self.config.slice_width {
                    slices[l].push(g);
                }
            }
        }
        slices
    }

    /// The lexicographic key: per slice, gate distances sorted descending,
    /// concatenated slice by slice (earlier slices dominate).
    fn lexi_key(&self, st: &RoutingState<'_>, slices: &[Vec<u32>]) -> Vec<u16> {
        let mut key = Vec::new();
        for slice in slices {
            let mut ds: Vec<u16> = slice
                .iter()
                .filter_map(|&g| st.circuit().gates()[g as usize].qubit_pair())
                .map(|(a, b)| st.dist().get(st.layout().phys(a), st.layout().phys(b)))
                .collect();
            ds.sort_unstable_by(|a, b| b.cmp(a));
            key.extend(ds);
            key.push(0); // slice separator keeps comparisons aligned
        }
        key
    }
}

impl RoutingPass for TketRoutingPass {
    fn name(&self) -> &'static str {
        "tket"
    }

    fn run(&self, st: &mut RoutingState<'_>, _artifacts: &Artifacts) {
        let stall_limit = 2 * st.dist().diameter() as usize + self.config.stall_slack;
        let mut stall = 0usize;
        loop {
            if st.execute_ready() > 0 {
                stall = 0;
            }
            let front = st.blocked_front();
            if front.is_empty() {
                break;
            }
            let slices = self.build_slices(st, &front);
            let mut best: Option<((u32, u32), Vec<u16>)> = None;
            for (p1, p2) in st.swap_candidates() {
                let key = st.speculate_swap(p1, p2, |s| self.lexi_key(s, &slices));
                match &best {
                    Some((_, k)) if key >= *k => {}
                    _ => best = Some(((p1, p2), key)),
                }
            }
            let baseline = self.lexi_key(st, &slices);
            match best {
                Some(((p1, p2), key)) if key < baseline && stall <= stall_limit => {
                    st.apply_swap(p1, p2);
                    stall += 1;
                }
                _ => {
                    st.force_route(front[0]);
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
        let r = TketMapper::default().map(c, device);
        verify_routing(
            c,
            &r.routed,
            &|a, b| device.is_adjacent(a, b),
            &r.initial_layout,
        )
        .expect("tket routing must verify");
        r
    }

    #[test]
    fn passes_through_adjacent_gates() {
        let device = backends::line(3);
        let mut c = Circuit::new(3);
        c.cx(0, 1);
        c.cx(1, 2);
        let r = check(&c, &device);
        assert_eq!(r.swaps, 0);
    }

    #[test]
    fn lexicographic_prefers_shrinking_worst_gate() {
        // Two blocked gates, one much farther: the router should attack
        // the worst-distance gate first.
        let device = backends::line(8);
        let mut c = Circuit::new(8);
        c.cx(0, 7); // distance 7 — the max
        c.cx(2, 4); // distance 2
        check(&c, &device);
    }

    #[test]
    fn random_circuit_verifies() {
        let device = backends::king_grid(3, 4);
        let mut c = Circuit::new(12);
        let mut s = 77u64;
        for _ in 0..90 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(99);
            let a = ((s >> 33) % 12) as u32;
            let b = ((s >> 17) % 12) as u32;
            if a != b {
                c.cx(a, b);
            }
        }
        check(&c, &device);
    }

    #[test]
    fn deep_dependent_chain() {
        let device = backends::ring(7);
        let mut c = Circuit::new(7);
        for i in 0..7u32 {
            c.cx(i, (i + 3) % 7);
        }
        check(&c, &device);
    }
}
