//! The hierarchical pass composition: `RegionAnalysisPass` →
//! `HierLayoutPass` → `HierRoutingPass`, composed into [`HierMapper`].
//!
//! Per the workspace pass-pipeline rule, the hierarchical mapper is not a
//! new hand-rolled routing loop: the region analysis is an
//! [`AnalysisPass`] producing a typed [`RegionMap`] artifact, the layout
//! stage is a [`LayoutPass`], and the routing stage drives the shared
//! incremental [`RoutingState`] exclusively through its public mutation
//! primitives (`execute_ready`, `apply_swap`, `force_route`). Intra-region
//! work is delegated to the *flat* Qlosure pipeline on the region
//! subgraph — recursively reusing [`MappingPipeline`] — and the resulting
//! SWAP plans are memoized content-keyed in [`crate::memo`].

use crate::canon::canonicalize;
use crate::cluster::{cluster_index, cluster_qubits, InteractionWeights};
use crate::coarsen::{auto_budget, coarsen, RegionMap};
use crate::memo::{self, exact_fragment_hash, FragmentGate, FragmentKey};
use crate::place::{build_layout, place_clusters};
use affine::DependenceAnalysis;
use circuit::{Circuit, Gate, GateKind};
use qlosure::{
    AnalysisPass, Artifacts, DependenceWeightsPass, IdentityLayoutPass, Layout, LayoutPass, Mapper,
    MappingPipeline, MappingResult, PassContext, QlosureConfig, QlosureRoutingPass, RoutingPass,
    RoutingState,
};
use std::sync::Arc;
use topology::NoiseModel;

/// Device size at which the `"auto"` service strategy switches from the
/// flat mapper to the hierarchical one: below this the flat router is
/// already fast and usually cheaper in SWAPs, above it the quadratic
/// candidate scans start to dominate.
pub const AUTO_THRESHOLD: usize = 512;

/// Whether the `"auto"` strategy picks the hierarchical mapper for a
/// device of `n_qubits` qubits.
pub fn auto_prefers_hier(n_qubits: usize) -> bool {
    n_qubits >= AUTO_THRESHOLD
}

/// Tuning knobs of the hierarchical mapper.
#[derive(Clone, Debug, Default)]
pub struct HierConfig {
    /// Region size budget; `None` picks [`auto_budget`] (√n clamped to
    /// [8, 128]).
    pub budget: Option<usize>,
    /// Optional calibration: region placement ranks regions by their
    /// noise-aware score instead of raw edge density.
    pub noise: Option<NoiseModel>,
    /// Configuration of the flat Qlosure router used for region placement
    /// and per-region sub-routing.
    pub subroute: QlosureConfig,
    /// Does nothing: the routing pass replays fragments on the calling
    /// thread alone, so no value changes the routing or its cost. Kept
    /// only because the `perfbench` benchmark still sets it; it goes
    /// when the benchmark next changes.
    pub threads: Option<usize>,
}

/// Analysis pass coarsening the device into a [`RegionMap`] artifact
/// (regions, quotient graph, noise scores) for the layout and routing
/// stages.
#[derive(Clone, Debug, Default)]
pub struct RegionAnalysisPass {
    config: HierConfig,
}

impl RegionAnalysisPass {
    /// An analysis pass with explicit configuration.
    pub fn new(config: HierConfig) -> Self {
        RegionAnalysisPass { config }
    }
}

impl AnalysisPass for RegionAnalysisPass {
    fn name(&self) -> &'static str {
        "regions"
    }

    fn run(&self, ctx: &PassContext<'_>, artifacts: &mut Artifacts) {
        let budget = self
            .config
            .budget
            .unwrap_or_else(|| auto_budget(ctx.device.n_qubits()));
        artifacts.insert(coarsen(ctx.device, budget, self.config.noise.as_ref()));
    }
}

/// Layout pass of the hierarchy: clusters the circuit's qubits on their
/// dependence-weighted interaction graph, places clusters onto regions by
/// mapping the cluster-interaction circuit over the quotient graph
/// (recursive [`MappingPipeline`]), and expands the result into a full
/// initial layout.
#[derive(Clone, Debug, Default)]
pub struct HierLayoutPass {
    config: HierConfig,
}

impl HierLayoutPass {
    /// A layout pass with explicit configuration.
    pub fn new(config: HierConfig) -> Self {
        HierLayoutPass { config }
    }
}

impl LayoutPass for HierLayoutPass {
    fn name(&self) -> &'static str {
        "hier-layout"
    }

    fn run(&self, ctx: &PassContext<'_>, artifacts: &Artifacts) -> Layout {
        let computed_rm;
        let rm = match artifacts.get::<RegionMap>() {
            Some(rm) => rm,
            None => {
                // Composed without a RegionAnalysisPass: compute locally
                // (same result, charged to this pass's timing).
                let budget = self
                    .config
                    .budget
                    .unwrap_or_else(|| auto_budget(ctx.device.n_qubits()));
                computed_rm = coarsen(ctx.device, budget, self.config.noise.as_ref());
                &computed_rm
            }
        };
        let computed_weights;
        let weights: &[u64] = match artifacts.get::<DependenceAnalysis>() {
            Some(analysis) => analysis.weights(),
            None => {
                computed_weights =
                    DependenceAnalysis::new(ctx.circuit, self.config.subroute.weight_mode);
                computed_weights.weights()
            }
        };
        let iw = InteractionWeights::new(ctx.circuit, weights);
        let capacities: Vec<usize> = rm
            .rank
            .iter()
            .map(|&r| rm.regions[r as usize].len())
            .collect();
        let clusters = cluster_qubits(&iw, &capacities);
        let cluster_of = cluster_index(&clusters, ctx.circuit.n_qubits());
        let placed = place_clusters(rm, &clusters, &iw, &cluster_of, &self.config);
        build_layout(
            rm,
            &clusters,
            &iw,
            &placed,
            ctx.circuit.n_qubits(),
            ctx.device.n_qubits(),
        )
    }
}

/// Routing pass of the hierarchy.
///
/// Drives the shared [`RoutingState`] fragment by fragment: the frontmost
/// blocked gate selects a region; the maximal program-order run of
/// pending gates living entirely inside that region becomes a *fragment*,
/// whose SWAP plan comes from the content-keyed memo (computing it on a
/// miss by running the flat pipeline on the canonical region subgraph);
/// the plan replays onto the real state with greedy ready-gate execution
/// in between. Cross-region gates are stitched with a boundary SWAP chain
/// along a device shortest path.
///
/// A plan miss computes its region's distances with a fresh BFS, not
/// through `shared_distances`: the memo already runs it once per
/// canonical key, and the shared cache stays reserved for device-level
/// graphs (the device and the region quotient graph).
#[derive(Clone, Debug, Default)]
pub struct HierRoutingPass {
    config: HierConfig,
}

impl HierRoutingPass {
    /// A routing pass with explicit configuration.
    pub fn new(config: HierConfig) -> Self {
        HierRoutingPass { config }
    }

    /// Builds the fragment's gate stream over region-local slots — the
    /// pre-canonical form that [`canonicalize`] turns into the memo key.
    fn local_fragment(
        &self,
        state: &RoutingState<'_>,
        rm: &RegionMap,
        fragment: &[u32],
    ) -> Vec<FragmentGate> {
        let gates = state.circuit().gates();
        let mut local_gates = Vec::with_capacity(fragment.len());
        for &g in fragment {
            let gate = &gates[g as usize];
            let local: Vec<u32> = gate
                .qubits
                .iter()
                .map(|&q| rm.local_of[state.layout().phys(q) as usize])
                .collect();
            local_gates.push((
                gate.kind.clone(),
                local,
                gate.params.iter().map(|p| p.to_bits()).collect(),
            ));
        }
        local_gates
    }
}

/// Routes a canonical fragment — reconstructing its circuit and region
/// device from the key alone — with the flat pipeline and extracts its
/// SWAP plan in canonical slots. The plan is a pure, deterministic
/// function of `(key, config)` and nothing else, which is what lets both
/// tiers of the store (memory, disk) share plans across threads,
/// processes and fragment labelings without breaking bit-for-bit
/// reproducibility.
fn canonical_plan(config: &QlosureConfig, key: &FragmentKey) -> Vec<(u32, u32)> {
    let device = topology::CouplingGraph::new("hier-canon", key.n_local as usize, &key.edges);
    // Inline BFS, not `shared_distances`: the plan memo already runs this
    // once per canonical key, and routing every plan miss through the
    // shared cache would evict the device and quotient matrices it holds.
    let dist = device.distances();
    let mut local_circuit = Circuit::with_capacity(key.n_local as usize, key.gates.len());
    for (kind, operands, params) in &key.gates {
        local_circuit.push(Gate {
            kind: kind.clone(),
            qubits: operands.clone(),
            params: params.iter().map(|&p| f64::from_bits(p)).collect(),
        });
    }
    let pipeline =
        MappingPipeline::new(IdentityLayoutPass, QlosureRoutingPass::new(config.clone()))
            .with_analysis(DependenceWeightsPass::new(config.weight_mode));
    match pipeline.run_with_distances(&local_circuit, &device, &dist) {
        Ok(outcome) => outcome
            .result
            .routed
            .gates()
            .iter()
            .filter(|g| g.kind == GateKind::Swap)
            .map(|g| (g.qubits[0], g.qubits[1]))
            .collect(),
        // Defensive: an unroutable fragment falls back to the
        // caller's forced-progress path.
        Err(_) => Vec::new(),
    }
}

impl RoutingPass for HierRoutingPass {
    fn name(&self) -> &'static str {
        "hier-route"
    }

    fn run(&self, state: &mut RoutingState<'_>, artifacts: &Artifacts) {
        let computed_rm;
        let rm = match artifacts.get::<RegionMap>() {
            Some(rm) => rm,
            None => {
                let budget = self
                    .config
                    .budget
                    .unwrap_or_else(|| auto_budget(state.device().n_qubits()));
                computed_rm = coarsen(state.device(), budget, self.config.noise.as_ref());
                &computed_rm
            }
        };
        let memo = memo::global();
        let subroute_fingerprint: Arc<str> = Arc::from(format!("{:?}", self.config.subroute));
        // One edge list per region for the whole run, shared by every
        // fragment canonicalization.
        let region_edges: Vec<Vec<(u32, u32)>> =
            rm.regions.iter().map(|r| r.device.edges()).collect();
        let n_gates = state.circuit().gates().len();
        // Epoch-stamped scratch: `front_stamp[g] == epoch` means g is in
        // the current front; `host_stamp[l] == epoch` means logical l is
        // hosted in the fragment's region.
        let mut front_stamp = vec![0u32; n_gates];
        let mut host_stamp = vec![0u32; state.circuit().n_qubits()];
        let mut epoch = 0u32;
        // Monotone scan cursor: the minimum unexecuted gate index only
        // ever grows.
        let mut cursor = 0usize;
        let mut fragment: Vec<u32> = Vec::new();
        loop {
            state.execute_ready();
            if state.is_done() {
                return;
            }
            epoch += 1;
            for &g in state.front() {
                front_stamp[g as usize] = epoch;
            }
            // After `execute_ready`, every front gate is a blocked
            // two-qubit gate; the frontmost one anchors this step.
            let g = *state.front().iter().min().expect("front non-empty");
            let (ra, rb) = {
                let (a, b) = state.circuit().gates()[g as usize]
                    .qubit_pair()
                    .expect("blocked gates are two-qubit");
                let (pa, pb) = (state.layout().phys(a), state.layout().phys(b));
                (rm.region_of(pa), rm.region_of(pb))
            };
            if ra != rb {
                // Boundary stitch: SWAP chain along a device shortest
                // path until the pair is adjacent; the top-of-loop
                // execute_ready then runs the gate.
                state.force_route(g);
                continue;
            }
            let region = &rm.regions[ra as usize];
            for &p in &region.qubits {
                if let Some(l) = state.layout().logical(p) {
                    host_stamp[l as usize] = epoch;
                }
            }
            // The minimum unexecuted gate index equals the minimum front
            // index, so the cursor lands exactly on g.
            while cursor < n_gates
                && state.in_degree(cursor as u32) == 0
                && front_stamp[cursor] != epoch
            {
                cursor += 1;
            }
            debug_assert_eq!(cursor as u32, g, "cursor must land on the anchor gate");
            // Fragment: maximal program-order run of pending gates whose
            // operands all live in the region; the first gate straddling
            // the boundary is a dependence barrier that ends the scan.
            fragment.clear();
            'scan: for i in cursor..n_gates {
                let executed = state.in_degree(i as u32) == 0 && front_stamp[i] != epoch;
                if executed {
                    continue;
                }
                let gate = &state.circuit().gates()[i];
                if gate.qubits.is_empty() {
                    continue;
                }
                let inside = gate
                    .qubits
                    .iter()
                    .filter(|&&q| host_stamp[q as usize] == epoch)
                    .count();
                if inside == gate.qubits.len() {
                    fragment.push(i as u32);
                } else if inside > 0 {
                    break 'scan;
                }
            }
            debug_assert!(fragment.contains(&g), "fragment must contain its anchor");
            // Per-fragment trace span: covers canonicalization, the plan
            // lookup (tier noted below) and the replay. Inert unless the
            // job installed a tracing context.
            let mut frag_span = trace::span("hier:fragment");
            frag_span.note("region", || ra.to_string());
            frag_span.note("gates", || fragment.len().to_string());
            let local_gates = self.local_fragment(state, rm, &fragment);
            let exact_hash = exact_fragment_hash(
                region.len() as u32,
                &region_edges[ra as usize],
                &local_gates,
                &subroute_fingerprint,
            );
            let canonical = canonicalize(
                region.len() as u32,
                &region_edges[ra as usize],
                &local_gates,
                subroute_fingerprint.clone(),
            );
            let (plan, tier) = memo.get_or_compute_tiered(canonical.key, exact_hash, |k| {
                canonical_plan(&self.config.subroute, k)
            });
            frag_span.note("plan_tier", || tier.as_str().to_string());
            frag_span.note("swaps", || plan.len().to_string());
            // Plan SWAPs are in canonical slots: pull each back through
            // the fragment's relabeling, then onto physical qubits.
            for &(c1, c2) in plan.iter() {
                let (l1, l2) = (
                    canonical.to_local[c1 as usize],
                    canonical.to_local[c2 as usize],
                );
                let (p1, p2) = (region.qubits[l1 as usize], region.qubits[l2 as usize]);
                state.apply_swap(p1, p2);
                state.execute_ready();
            }
            if plan.is_empty() {
                // Unroutable fragment (cannot happen for connected
                // regions, but termination must not depend on that):
                // force the anchor gate through directly.
                state.force_route(g);
            }
        }
    }
}

/// The hierarchical mapper: `weights → regions → hier-layout →
/// hier-route` as a [`MappingPipeline`], sharing the [`Mapper`] interface
/// with the flat mappers so engines, benches and the service drive it
/// uniformly.
#[derive(Clone, Debug, Default)]
pub struct HierMapper {
    /// Configuration; [`Default`] auto-sizes regions and uses the flat
    /// router's default tuning for placement and sub-routing.
    pub config: HierConfig,
}

impl HierMapper {
    /// A mapper with explicit configuration.
    pub fn with_config(config: HierConfig) -> Self {
        HierMapper { config }
    }

    /// A mapper with an explicit region-size budget.
    pub fn with_budget(budget: usize) -> Self {
        HierMapper {
            config: HierConfig {
                budget: Some(budget),
                ..HierConfig::default()
            },
        }
    }

    /// The pass composition this mapper runs.
    pub fn to_pipeline(&self) -> MappingPipeline {
        MappingPipeline::new(
            HierLayoutPass::new(self.config.clone()),
            HierRoutingPass::new(self.config.clone()),
        )
        .with_analysis(DependenceWeightsPass::new(self.config.subroute.weight_mode))
        .with_analysis(RegionAnalysisPass::new(self.config.clone()))
    }
}

impl Mapper for HierMapper {
    fn name(&self) -> &str {
        "hier"
    }

    fn map(&self, circuit: &Circuit, device: &topology::CouplingGraph) -> MappingResult {
        self.to_pipeline().map(circuit, device)
    }

    fn pipeline(&self) -> Option<MappingPipeline> {
        Some(self.to_pipeline())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::verify_routing;
    use topology::backends;

    fn verify(circuit: &Circuit, device: &topology::CouplingGraph, result: &MappingResult) {
        verify_routing(
            circuit,
            &result.routed,
            &|a, b| device.is_adjacent(a, b),
            &result.initial_layout,
        )
        .expect("hier routing must verify");
    }

    fn scrambled_circuit(n: usize, gates: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        for _ in 0..gates {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((s >> 33) as usize % n) as u32;
            let b = ((s >> 13) as usize % n) as u32;
            if a != b {
                c.cx(a, b);
            } else {
                c.h(a);
            }
        }
        c
    }

    #[test]
    fn pipeline_composition_reads_right() {
        assert_eq!(
            HierMapper::default().to_pipeline().describe(),
            "weights → regions → hier-layout → hier-route"
        );
    }

    #[test]
    fn routes_and_verifies_on_a_grid() {
        let device = backends::square_grid(6, 6);
        let c = scrambled_circuit(36, 120, 7);
        let r = HierMapper::with_budget(9).map(&c, &device);
        verify(&c, &device, &r);
        assert_eq!(
            r.routed
                .gates()
                .iter()
                .filter(|g| g.kind == GateKind::Swap)
                .count(),
            r.swaps
        );
    }

    #[test]
    fn single_region_replay_is_bit_for_bit_flat_routing() {
        // Budget swallowing the device: one region, one whole-circuit
        // fragment whose replayed plan must reproduce the flat router
        // exactly (same identity layout, same sub-router config). The
        // fragment is constructed *already in canonical form* — its
        // first-use slot order is the identity and every slot is used —
        // so the canonical circuit the sub-router actually routes is the
        // original circuit and the comparison stays bit-for-bit.
        // Device: a path visiting 0-2-4-5-3-1, so every fragment gate
        // below is non-adjacent (nothing executes before the fragment
        // forms, keeping the whole stream in the fragment).
        let device = topology::CouplingGraph::new(
            "scrambled-line6",
            6,
            &[(0, 2), (2, 4), (4, 5), (3, 5), (1, 3)],
        );
        let mut c = Circuit::new(6);
        c.cx(0, 1); // first-use 0, 1
        c.cx(2, 3); // first-use 2, 3
        c.cx(0, 4); // first-use 4
        c.cx(2, 5); // first-use 5
        c.cx(1, 4);
        c.cx(3, 5);
        let route_hier = |c: &Circuit| {
            MappingPipeline::new(
                IdentityLayoutPass,
                HierRoutingPass::new(HierConfig {
                    budget: Some(64),
                    ..HierConfig::default()
                }),
            )
            .map(c, &device)
        };
        let flat = qlosure::QlosureMapper::default().map(&c, &device);
        let hier = route_hier(&c);
        assert_eq!(flat, hier);
        assert!(flat.swaps > 0, "the comparison must exercise real SWAPs");
        // A two-qubit barrier inside the fragment must reach the
        // sub-router as a barrier (ordering only), not as a two-qubit
        // gate that needs SWAPs of its own. Its operands change the
        // first-use slot order, so SWAP operands may differ from the flat
        // routing; the SWAP count may not.
        let mut b = Circuit::new(6);
        b.cx(0, 1);
        b.cx(2, 3);
        b.barrier(&[0, 5]);
        b.cx(0, 4);
        b.cx(2, 5);
        b.cx(1, 4);
        b.cx(3, 5);
        let flat = qlosure::QlosureMapper::default().map(&b, &device);
        let hier = route_hier(&b);
        verify(&b, &device, &hier);
        assert_eq!(hier.swaps, flat.swaps, "the barrier must cost no SWAP");
    }

    #[test]
    fn relabeled_fragments_share_one_canonical_plan() {
        // The same structural fragment under two qubit labelings related
        // by a *device automorphism* (rotation of a 12-cycle) must share
        // one canonical plan: the second labeling is a canonical hit,
        // not a fresh sub-routing. The pass uses the process-wide memo
        // and tests run concurrently, so assert a monotone delta of the
        // canonical-hit counter across the second map call only.
        let edges: Vec<(u32, u32)> = (0..12u32).map(|i| (i, (i + 1) % 12)).collect();
        let device = topology::CouplingGraph::new("canon-cycle12", 12, &edges);
        let mut a = Circuit::new(12);
        let mut b = Circuit::new(12);
        for i in 0..6u32 {
            // Antipodal pairs (all blocked); b rotates every label by 3.
            a.cx(i, i + 6);
            b.cx((i + 3) % 12, (i + 9) % 12);
        }
        let config = HierConfig {
            budget: Some(64), // one region: the whole cycle
            ..HierConfig::default()
        };
        let route = |c: &Circuit| {
            MappingPipeline::new(IdentityLayoutPass, HierRoutingPass::new(config.clone()))
                .map(c, &device)
        };
        let ra = route(&a);
        verify(&a, &device, &ra);
        let between = memo::plan_store_stats();
        let rb = route(&b);
        verify(&b, &device, &rb);
        let after = memo::plan_store_stats();
        assert!(
            after.canonical_hits > between.canonical_hits,
            "the rotated circuit must hit canonically: {between:?} -> {after:?}"
        );
        // Same structure, same plan: SWAP counts agree exactly.
        assert_eq!(ra.swaps, rb.swaps);
    }

    #[test]
    fn cross_region_gates_are_stitched() {
        // Two line halves under an *identity* layout (bypassing the hier
        // layout pass): the boundary gate must be stitched with a SWAP
        // chain and still verify.
        let device = backends::line(8);
        let mut c = Circuit::new(8);
        c.cx(0, 7);
        let config = HierConfig {
            budget: Some(4),
            ..HierConfig::default()
        };
        let outcome = MappingPipeline::new(IdentityLayoutPass, HierRoutingPass::new(config))
            .run(&c, &device)
            .unwrap();
        verify(&c, &device, &outcome.result);
        assert!(outcome.result.swaps >= 1, "stitch must insert SWAPs");
        // The hier layout pass, by contrast, co-locates the pair.
        let placed = HierMapper::with_budget(4).map(&c, &device);
        verify(&c, &device, &placed);
        assert!(placed.swaps <= outcome.result.swaps);
    }

    #[test]
    fn deterministic_and_memo_warm_equals_cold() {
        let device = backends::square_grid(5, 5);
        let c = scrambled_circuit(25, 80, 99);
        let mapper = HierMapper::with_budget(9);
        let (h0, _) = memo::subroute_memo_stats();
        let cold = mapper.map(&c, &device);
        let warm = mapper.map(&c, &device);
        assert_eq!(cold, warm, "warm (memoized) run must be bit-for-bit cold");
        let (h1, _) = memo::subroute_memo_stats();
        assert!(h1 > h0, "the warm run must hit the fragment memo");
        verify(&c, &device, &cold);
    }

    #[test]
    fn noise_ranking_changes_no_correctness() {
        let device = backends::square_grid(4, 4);
        let noise = NoiseModel::synthetic(&device, 7e-3, 3);
        let c = scrambled_circuit(16, 60, 11);
        let mapper = HierMapper::with_config(HierConfig {
            budget: Some(4),
            noise: Some(noise),
            ..HierConfig::default()
        });
        let r = mapper.map(&c, &device);
        verify(&c, &device, &r);
    }

    #[test]
    fn passes_compose_without_region_analysis() {
        // Layout and routing fall back to local coarsening when the
        // analysis pass is missing — same result.
        let device = backends::square_grid(4, 4);
        let c = scrambled_circuit(16, 40, 5);
        let full = HierMapper::with_budget(4).map(&c, &device);
        let config = HierConfig {
            budget: Some(4),
            ..HierConfig::default()
        };
        let bare = MappingPipeline::new(
            HierLayoutPass::new(config.clone()),
            HierRoutingPass::new(config),
        )
        .map(&c, &device);
        assert_eq!(full, bare);
    }

    #[test]
    fn barriers_and_measures_survive_hier() {
        let device = backends::square_grid(3, 3);
        let mut c = Circuit::new(9);
        c.h(0);
        c.barrier(&[0, 1, 2]);
        c.cx(0, 8);
        c.measure_all();
        let r = HierMapper::with_budget(3).map(&c, &device);
        verify(&c, &device, &r);
        assert_eq!(
            r.routed
                .gates()
                .iter()
                .filter(|g| g.kind == GateKind::Measure)
                .count(),
            9
        );
    }

    #[test]
    fn auto_threshold_is_a_device_size_rule() {
        assert!(!auto_prefers_hier(127));
        assert!(auto_prefers_hier(AUTO_THRESHOLD));
        assert!(auto_prefers_hier(4096));
    }

    #[test]
    fn maps_smaller_circuit_onto_larger_device() {
        let device = backends::square_grid(6, 6);
        let c = scrambled_circuit(10, 30, 23);
        let r = HierMapper::default().map(&c, &device);
        verify(&c, &device, &r);
    }
}
