//! SABRE / LightSABRE baseline (Li, Ding & Xie, ASPLOS'19), as a routing
//! pass over the shared [`RoutingState`].

use circuit::Circuit;
use qlosure::{
    Artifacts, IdentityLayoutPass, Mapper, MappingPipeline, MappingResult, RoutingPass,
    RoutingState,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topology::CouplingGraph;

/// Configuration of the SABRE baseline.
#[derive(Clone, Debug)]
pub struct SabreConfig {
    /// Size of the extended (look-ahead) set; SABRE uses ~20.
    pub extended_set_size: usize,
    /// Weight of the extended set in the heuristic; SABRE uses 0.5.
    pub extended_set_weight: f64,
    /// Decay increment per swap (SABRE: 0.001).
    pub decay_delta: f64,
    /// Decay is reset every this many swap rounds (SABRE: 5).
    pub decay_reset_interval: usize,
    /// Tie-break seed.
    pub seed: u64,
    /// Swaps without progress before a forced shortest-path escape (the
    /// "release valve" LightSABRE added).
    pub stall_slack: usize,
}

impl Default for SabreConfig {
    fn default() -> Self {
        SabreConfig {
            extended_set_size: 20,
            extended_set_weight: 0.5,
            decay_delta: 0.001,
            decay_reset_interval: 5,
            seed: 0x5AB3E,
            stall_slack: 16,
        }
    }
}

/// The SABRE decay-heuristic router:
/// `H = max(δ) · (Σ_F D/|F| + W · Σ_E D/|E|)`.
///
/// A pass composition `identity → sabre-route` over the shared
/// [`RoutingState`] (the decay table lives in the state).
#[derive(Clone, Debug, Default)]
pub struct SabreMapper {
    /// Knobs; defaults match the published constants.
    pub config: SabreConfig,
}

impl SabreMapper {
    /// The pass composition this mapper runs.
    pub fn to_pipeline(&self) -> MappingPipeline {
        MappingPipeline::new(
            IdentityLayoutPass,
            SabreRoutingPass::new(self.config.clone()),
        )
    }
}

impl Mapper for SabreMapper {
    fn name(&self) -> &str {
        "sabre"
    }

    fn map(&self, circuit: &Circuit, device: &CouplingGraph) -> MappingResult {
        self.to_pipeline().map(circuit, device)
    }

    fn pipeline(&self) -> Option<MappingPipeline> {
        Some(self.to_pipeline())
    }
}

/// The SABRE routing loop as a [`RoutingPass`].
#[derive(Clone, Debug, Default)]
pub struct SabreRoutingPass {
    config: SabreConfig,
}

impl SabreRoutingPass {
    /// A routing pass with explicit configuration.
    pub fn new(config: SabreConfig) -> Self {
        SabreRoutingPass { config }
    }
}

impl RoutingPass for SabreRoutingPass {
    fn name(&self) -> &'static str {
        "sabre"
    }

    fn run(&self, st: &mut RoutingState<'_>, _artifacts: &Artifacts) {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let stall_limit = 3 * st.dist().diameter() as usize + self.config.stall_slack;
        let mut stall = 0usize;
        let mut rounds_since_reset = 0usize;
        loop {
            if st.execute_ready() > 0 {
                st.reset_decay();
                stall = 0;
                rounds_since_reset = 0;
            }
            let blocked = st.blocked_front();
            if blocked.is_empty() {
                break;
            }
            let extended = st.lookahead(self.config.extended_set_size);
            let candidates = st.swap_candidates();
            let mut best: Vec<(u32, u32)> = Vec::new();
            let mut best_score = f64::INFINITY;
            for &(p1, p2) in &candidates {
                let (h_front, h_ext) = st.speculate_swap(p1, p2, |s| {
                    let h_front = s.distance_sum(&blocked) / blocked.len() as f64;
                    let h_ext = if extended.is_empty() {
                        0.0
                    } else {
                        s.distance_sum(&extended) / extended.len() as f64
                    };
                    (h_front, h_ext)
                });
                let d = st.decay(p1).max(st.decay(p2));
                let score = d * (h_front + self.config.extended_set_weight * h_ext);
                if score < best_score - 1e-9 {
                    best_score = score;
                    best.clear();
                    best.push((p1, p2));
                } else if (score - best_score).abs() <= 1e-9 {
                    best.push((p1, p2));
                }
            }
            let (p1, p2) = best[rng.random_range(0..best.len())];
            st.apply_swap(p1, p2);
            st.bump_decay(p1, self.config.decay_delta);
            st.bump_decay(p2, self.config.decay_delta);
            stall += 1;
            rounds_since_reset += 1;
            if rounds_since_reset >= self.config.decay_reset_interval {
                st.reset_decay();
                rounds_since_reset = 0;
            }
            if stall > stall_limit {
                let g = blocked[0];
                st.force_route(g);
                st.reset_decay();
                stall = 0;
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
        let r = SabreMapper::default().map(c, device);
        verify_routing(
            c,
            &r.routed,
            &|a, b| device.is_adjacent(a, b),
            &r.initial_layout,
        )
        .expect("sabre routing must verify");
        r
    }

    #[test]
    fn trivial_circuit_no_swaps() {
        let device = backends::line(3);
        let mut c = Circuit::new(3);
        c.cx(0, 1);
        c.cx(1, 2);
        let r = check(&c, &device);
        assert_eq!(r.swaps, 0);
    }

    #[test]
    fn routes_distant_pairs() {
        let device = backends::line(6);
        let mut c = Circuit::new(6);
        c.cx(0, 5);
        c.cx(5, 0);
        c.cx(2, 4);
        let r = check(&c, &device);
        assert!(r.swaps >= 3);
    }

    #[test]
    fn random_circuit_on_grid() {
        let device = backends::square_grid(3, 3);
        let mut c = Circuit::new(9);
        let mut s = 5u64;
        for _ in 0..80 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((s >> 33) % 9) as u32;
            let b = ((s >> 17) % 9) as u32;
            if a != b {
                c.cx(a, b);
            } else {
                c.h(a);
            }
        }
        check(&c, &device);
    }

    #[test]
    fn deterministic_per_seed() {
        let device = backends::ring(8);
        let mut c = Circuit::new(8);
        for i in 0..8u32 {
            c.cx(i, (i + 3) % 8);
        }
        let r1 = SabreMapper::default().map(&c, &device);
        let r2 = SabreMapper::default().map(&c, &device);
        assert_eq!(r1.routed, r2.routed);
    }

    #[test]
    fn pipeline_form_matches_map_adapter() {
        let device = backends::ring(8);
        let mut c = Circuit::new(8);
        for i in 0..8u32 {
            c.cx(i, (i + 3) % 8);
        }
        let mapper = SabreMapper::default();
        let direct = mapper.map(&c, &device);
        let outcome = mapper.to_pipeline().run(&c, &device).unwrap();
        assert_eq!(outcome.result, direct);
        assert_eq!(outcome.timings.len(), 2); // identity, sabre
    }
}
