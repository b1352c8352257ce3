//! The Qlosure routing pass (paper Algorithm 1) and its pipeline
//! composition.
//!
//! Since the pass-pipeline refactor the mapper is no longer a monolithic
//! loop: [`QlosureMapper`] composes a [`MappingPipeline`] of
//! `DependenceWeightsPass → (identity | bidirectional) layout →
//! QlosureRoutingPass`, and the routing pass drives the shared incremental
//! [`RoutingState`]. The loop itself — ready-gate extraction, the layered
//! look-ahead window of §V-C, candidate scoring with Eq. (2) and the
//! decay/clock tie-breaking — reproduces the pre-refactor router
//! bit-for-bit (the golden-equivalence suite pins this).

use crate::cost::{CostVariant, OmegaScaling, ScoredGate, SwapCost};
use crate::layout::Layout;
use crate::pass::{
    Artifacts, DependenceWeightsPass, FixedLayoutPass, IdentityLayoutPass, LayoutPass,
    MappingPipeline, PassContext, RoutingPass,
};
use crate::state::RoutingState;
use crate::{Mapper, MappingResult};
use affine::{DependenceAnalysis, WeightMode};
use circuit::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use topology::{CouplingGraph, DistanceMatrix};

/// How the initial logical→physical assignment is chosen (§V-B.4, §VI-E).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InitialMapping {
    /// The trivial mapping `φ₀(qᵢ) = pᵢ` (used by all headline results).
    #[default]
    Identity,
    /// Forward/backward routing passes refine the assignment before the
    /// final forward run (ablation (d), after SABRE's bidirectional trick).
    Bidirectional {
        /// Number of refinement passes (2 = one forward + one backward).
        passes: usize,
    },
}

/// Tuning knobs of the Qlosure mapper.
#[derive(Clone, Debug)]
pub struct QlosureConfig {
    /// Cost-function variant (ablation axis).
    pub cost: CostVariant,
    /// Additive smoothing on ω (see [`SwapCost`]).
    pub omega_smoothing: u64,
    /// Compression applied to ω before it enters the cost (see
    /// [`OmegaScaling`]). Under `Linear` a gate's weight is the exact
    /// integer `ω + omega_smoothing`; `Sqrt` and `Log` weights are 16-bit
    /// fixed point, within `2⁻¹⁶` relative of the real-valued cost (see
    /// [`SwapCost`]).
    pub omega_scaling: OmegaScaling,
    /// Weight of look-ahead layers `ℓ >= 2` relative to the front layer
    /// (`1.0` = Eq. 2 verbatim; see [`SwapCost::with_scaling`]).
    pub future_weight: f64,
    /// How the ω weights are computed (affine closure vs. graph). The
    /// default, [`WeightMode::Auto`], chooses by cost: below
    /// [`affine::AFFINE_MIN_INTERACTIONS`] two-qubit interactions it takes
    /// the exact graph path without lifting; above it, circuits that lift
    /// well take the affine path.
    pub weight_mode: WeightMode,
    /// Initial mapping strategy.
    pub initial: InitialMapping,
    /// Decay increment per swap on the touched qubits (paper: 0.001).
    pub decay_delta: f64,
    /// The look-ahead constant `c` is `max_degree + lookahead_margin`
    /// (paper: `c` must exceed the device's maximum degree).
    pub lookahead_margin: usize,
    /// Seed for random tie-breaking (paper §V-E "breaking ties randomly").
    pub seed: u64,
    /// Forced-progress threshold: after `3·diameter + stall_slack` swaps
    /// without executing a gate, the highest-priority front gate is routed
    /// directly along a shortest path (guarantees termination).
    pub stall_slack: usize,
    /// Depth-awareness of the decay term: the effective decay of a
    /// physical qubit is `δ + busy_weight · clock(p)/clock_max`, penalizing
    /// swaps that extend the critical path (swaps on idle qubits schedule
    /// almost for free). `0.0` evaluates the paper's Eq. (2) verbatim; the
    /// default keeps sequential kernels (QFT-style hub columns) from
    /// serializing every SWAP behind the active gate.
    pub busy_weight: f64,
    /// Relative near-tie window for candidate selection: candidates whose
    /// score is within `best · (1 + tie_epsilon)` are considered tied, and
    /// the tie resolves toward the SWAP that finishes earliest on the
    /// evolving schedule (then randomly). `0.0` restores pure random ties.
    pub tie_epsilon: f64,
}

impl Default for QlosureConfig {
    fn default() -> Self {
        QlosureConfig {
            cost: CostVariant::DependencyWeighted,
            omega_smoothing: 1,
            omega_scaling: OmegaScaling::Linear,
            future_weight: 0.25,
            weight_mode: WeightMode::Auto,
            initial: InitialMapping::Identity,
            decay_delta: 0.001,
            lookahead_margin: 1,
            seed: 0xC105,
            stall_slack: 16,
            busy_weight: 0.05,
            tie_epsilon: 0.005,
        }
    }
}

/// The Qlosure qubit mapper (the paper's contribution), as a pipeline of
/// passes: ω-weights analysis, initial layout, dependence-driven routing.
#[derive(Clone, Debug, Default)]
pub struct QlosureMapper {
    /// Configuration; [`Default`] reproduces the paper's headline setup.
    pub config: QlosureConfig,
}

impl QlosureMapper {
    /// A mapper with explicit configuration.
    pub fn with_config(config: QlosureConfig) -> Self {
        QlosureMapper { config }
    }

    /// The pass composition this mapper runs: `weights → (identity |
    /// bidirectional) → qlosure`.
    pub fn to_pipeline(&self) -> MappingPipeline {
        let routing = QlosureRoutingPass::new(self.config.clone());
        let weights = DependenceWeightsPass::new(self.config.weight_mode);
        match self.config.initial {
            InitialMapping::Identity => {
                MappingPipeline::new(IdentityLayoutPass, routing).with_analysis(weights)
            }
            InitialMapping::Bidirectional { passes } => MappingPipeline::new(
                BidirectionalLayoutPass::new(self.config.clone(), passes),
                routing,
            )
            .with_analysis(weights),
        }
    }

    /// Routes with an explicit starting layout (used by the bidirectional
    /// initial-mapping passes and exposed for experimentation): the same
    /// pipeline with a [`FixedLayoutPass`] in the layout slot.
    pub fn map_from_layout(
        &self,
        circuit: &Circuit,
        device: &CouplingGraph,
        layout: Layout,
    ) -> MappingResult {
        MappingPipeline::new(
            FixedLayoutPass::new(layout),
            QlosureRoutingPass::new(self.config.clone()),
        )
        .with_analysis(DependenceWeightsPass::new(self.config.weight_mode))
        .map(circuit, device)
    }

    /// Error-aware routing (the paper's stated future-work direction):
    /// the hop-count matrix `Dphys` is replaced by reliability-weighted
    /// distances derived from a device [`topology::NoiseModel`], so the
    /// Eq. (2) cost steers SWAP chains around lossy couplings.
    pub fn map_noise_aware(
        &self,
        circuit: &Circuit,
        device: &CouplingGraph,
        noise: &topology::NoiseModel,
    ) -> MappingResult {
        let dist = noise.shared_weighted_distances(device);
        let pipeline = MappingPipeline::new(
            IdentityLayoutPass,
            QlosureRoutingPass::new(self.config.clone()),
        )
        .with_analysis(DependenceWeightsPass::new(self.config.weight_mode));
        match pipeline.run_with_distances(circuit, device, &dist) {
            Ok(outcome) => outcome.result,
            Err(e) => panic!("noise-aware mapping pipeline failed: {e}"),
        }
    }
}

impl Mapper for QlosureMapper {
    fn name(&self) -> &str {
        "qlosure"
    }

    fn map(&self, circuit: &Circuit, device: &CouplingGraph) -> MappingResult {
        self.to_pipeline().map(circuit, device)
    }

    fn pipeline(&self) -> Option<MappingPipeline> {
        Some(self.to_pipeline())
    }
}

/// The SABRE-style bidirectional initial-layout pass: each refinement pass
/// routes the circuit (alternating direction) and feeds its *final*
/// layout into the next pass; the last layout seeds the real forward run.
#[derive(Clone, Debug)]
pub struct BidirectionalLayoutPass {
    config: QlosureConfig,
    passes: usize,
}

impl BidirectionalLayoutPass {
    /// A bidirectional pass running `passes` refinement rounds with the
    /// given routing configuration.
    pub fn new(config: QlosureConfig, passes: usize) -> Self {
        BidirectionalLayoutPass { config, passes }
    }
}

impl LayoutPass for BidirectionalLayoutPass {
    fn name(&self) -> &'static str {
        "bidirectional"
    }

    fn run(&self, ctx: &PassContext<'_>, _artifacts: &Artifacts) -> Layout {
        let mut reversed = Circuit::new(ctx.circuit.n_qubits());
        for g in ctx.circuit.gates().iter().rev() {
            reversed.push(g.clone());
        }
        let mut layout = Layout::identity(ctx.circuit.n_qubits(), ctx.device.n_qubits());
        for pass in 0..self.passes {
            let dir = if pass % 2 == 0 {
                ctx.circuit
            } else {
                &reversed
            };
            // Each refinement round is a fresh analysis + routing run over
            // its direction's circuit, exactly like the final forward run.
            let analysis = DependenceAnalysis::new(dir, self.config.weight_mode);
            let mut rng = StdRng::seed_from_u64(self.config.seed);
            let mut state = RoutingState::new(dir, ctx.device, ctx.dist, layout);
            route_with(&mut state, analysis.weights(), &self.config, &mut rng);
            let result = state.into_result();
            layout = Layout::from_assignment(&result.final_layout, ctx.device.n_qubits());
        }
        layout
    }
}

/// The dependence-driven routing pass (the paper's Algorithm 1 loop).
///
/// Consumes the [`affine::DependenceAnalysis`] artifact when a
/// [`DependenceWeightsPass`] ran earlier in the pipeline; composed without
/// one, it computes the weights itself (same result, but the analysis is
/// then charged to the routing pass's timing).
#[derive(Clone, Debug, Default)]
pub struct QlosureRoutingPass {
    config: QlosureConfig,
}

impl QlosureRoutingPass {
    /// A routing pass with explicit configuration.
    pub fn new(config: QlosureConfig) -> Self {
        QlosureRoutingPass { config }
    }
}

impl RoutingPass for QlosureRoutingPass {
    fn name(&self) -> &'static str {
        "qlosure"
    }

    fn run(&self, state: &mut RoutingState<'_>, artifacts: &Artifacts) {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        match artifacts.get::<DependenceAnalysis>() {
            Some(analysis) => route_with(state, analysis.weights(), &self.config, &mut rng),
            None => {
                let analysis = DependenceAnalysis::new(state.circuit(), self.config.weight_mode);
                route_with(state, analysis.weights(), &self.config, &mut rng);
            }
        }
    }
}

/// The layered look-ahead window of §V-C, with its reusable scratch
/// buffers: the blocked front gates (layer 1) plus the topologically
/// earliest `k = c·nf` upcoming two-qubit gates, layered by dependence
/// distance from the front. `front_logicals` holds the sorted operands of
/// the front gates the walk *visited* — the look-ahead budget `k` can cut
/// the walk off before a high-index front gate pops, and those unvisited
/// gates contribute no SWAP candidates (faithful to the paper's §V-D
/// candidate rule, which draws candidates from the window).
///
/// The window is a pure function of the front layer (gate order, weights
/// and dependence structure are layout-independent), so it is cached on
/// [`RoutingState::front_version`]: consecutive SWAP steps with an
/// unchanged front reuse it outright, and a rebuild reuses the
/// epoch-stamped buffers instead of fresh `vec![false; n]` allocations.
///
/// On top of the window it carries the **step state** of the batched
/// scorer, in exact integers: each scored gate's weight, layer, physical
/// endpoints and distance, the per-layer sums `S_ℓ = Σ w · D` and the
/// front-layer distance sum under the current layout, and per physical
/// qubit the gates with an endpoint there. A candidate SWAP `(p1, p2)`
/// changes `S_ℓ` only through the gates on `p1` and `p2`, so
/// [`WindowScratch::score_candidate`] adds their deltas to a copy of the
/// sums and calls [`SwapCost::fold`], the fold [`SwapCost::score`] ends
/// in: the two agree bit for bit by construction. The chosen SWAP's
/// deltas are then folded into the step state by
/// [`WindowScratch::commit_swap`]; [`WindowScratch::begin_step`] refreshes
/// it in full only for a new window or after SWAPs it did not see.
#[cfg_attr(test, derive(Clone))]
pub(crate) struct WindowScratch {
    /// Scored gates, front first (rebuilt per front change).
    pub gates: Vec<ScoredGate>,
    /// Sorted, deduplicated logical operands of the *visited* front gates
    /// (the candidate base of §V-D).
    pub front_logicals: Vec<u32>,
    layer: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<Reverse<u32>>,
    /// `RoutingState::front_version` the window was built for (0 = never).
    built_for: u64,
    /// Per-directed-edge stamps for candidate dedup.
    edge_stamp: Vec<u64>,
    edge_epoch: u64,
    // --- step state ---
    /// `(built_for, RoutingState::swaps)` the step state describes.
    refreshed_for: (u64, usize),
    /// The window's gates the cost variant scores (all of them, or only
    /// layer 1 under [`CostVariant::DistanceOnly`]), in window order.
    active: Vec<ActiveGate>,
    /// Per layer: `|G_ℓ|` and `S_ℓ` under the current layout.
    sizes: Vec<u32>,
    base_sum: Vec<u64>,
    /// Front-layer distance sum under the current layout (the tie-break
    /// baseline).
    base_front_sum: u32,
    /// Per-candidate copy of `base_sum`.
    sum: Vec<u64>,
    /// Per physical qubit: indices into `active` of the gates with an
    /// endpoint there (`touch_dirty` lists slots that may be non-empty).
    touch: Vec<Vec<u32>>,
    touch_dirty: Vec<u32>,
}

/// One scored window gate in the step state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ActiveGate {
    /// Integer weight ([`SwapCost::gate_weight`]).
    w: u64,
    /// Layer index `ℓ − 1`.
    layer: u32,
    /// Physical endpoints and their distance under the current layout.
    ep: [u32; 2],
    d: u32,
}

impl WindowScratch {
    pub fn new(n_gates: usize, device: &CouplingGraph) -> Self {
        WindowScratch {
            gates: Vec::new(),
            front_logicals: Vec::new(),
            layer: vec![0; n_gates],
            stamp: vec![0; n_gates],
            epoch: 0,
            heap: BinaryHeap::new(),
            built_for: 0,
            edge_stamp: vec![0; device.n_directed_edges()],
            edge_epoch: 0,
            refreshed_for: (0, 0),
            active: Vec::new(),
            sizes: Vec::new(),
            base_sum: Vec::new(),
            base_front_sum: 0,
            sum: Vec::new(),
            touch: vec![Vec::new(); device.n_qubits()],
            touch_dirty: Vec::new(),
        }
    }

    /// Rebuilds the window for the current (blocked) front layer; a no-op
    /// while the front is unchanged since the last build.
    pub fn rebuild(&mut self, state: &mut RoutingState<'_>, weights: &[u64], c_const: usize) {
        if self.built_for == state.front_version() {
            return;
        }
        self.built_for = state.front_version();
        self.gates.clear();
        self.front_logicals.clear();
        self.heap.clear();
        self.epoch += 1;
        let epoch = self.epoch;
        // nf = number of distinct logical qubits in the blocked front; the
        // state caches the sorted operand list across swap steps.
        let nf = state.front_logicals().len();
        let k = c_const * nf.max(1);
        for &g in state.front() {
            self.stamp[g as usize] = epoch;
            self.layer[g as usize] = 0;
            self.heap.push(Reverse(g));
        }
        let circuit = state.circuit();
        let dag = state.dag();
        let mut collected = 0usize;
        while let Some(Reverse(g)) = self.heap.pop() {
            let gate = &circuit.gates()[g as usize];
            // Every walked gate is unexecuted (front gates and their
            // transitive successors), so front membership is exactly
            // "no unexecuted predecessors" — one bit test.
            let is_front = state.in_front(g);
            let l = if is_front {
                u32::from(gate.is_two_qubit())
            } else {
                // All unexecuted predecessors were popped earlier (smaller
                // topological index); executed or unvisited ones contribute
                // layer 0, which the epoch stamp encodes.
                let base = dag
                    .preds(g)
                    .iter()
                    .map(|&p| {
                        if self.stamp[p as usize] == epoch {
                            self.layer[p as usize]
                        } else {
                            0
                        }
                    })
                    .max()
                    .unwrap_or(0);
                base + u32::from(gate.is_two_qubit())
            };
            self.layer[g as usize] = l;
            if let Some((a, b)) = gate.qubit_pair() {
                self.gates.push(ScoredGate {
                    q1: a,
                    q2: b,
                    omega: weights.get(g as usize).copied().unwrap_or(0),
                    layer: l,
                });
                if is_front {
                    self.front_logicals.push(a);
                    self.front_logicals.push(b);
                } else {
                    collected += 1;
                    if collected >= k {
                        break;
                    }
                }
            }
            for &s in dag.succs(g) {
                if self.stamp[s as usize] != epoch {
                    self.stamp[s as usize] = epoch;
                    self.layer[s as usize] = 0;
                    self.heap.push(Reverse(s));
                }
            }
        }
        self.front_logicals.sort_unstable();
        self.front_logicals.dedup();
    }

    /// Candidate SWAPs of §V-D: every coupling-graph edge incident to a
    /// physical qubit hosting one of the window's front-layer logicals
    /// (deduplicated, first occurrence wins). Layout-dependent, so derived
    /// per step from the cached window — into the reusable `out` buffer,
    /// with O(1) per-edge epoch-stamped dedup instead of an O(k²) scan.
    pub fn swap_candidates(&mut self, state: &RoutingState<'_>, out: &mut Vec<(u32, u32)>) {
        out.clear();
        self.edge_epoch += 1;
        for &l in &self.front_logicals {
            let p1 = state.layout().phys(l);
            crate::state::push_incident_edges(
                state.device(),
                p1,
                self.edge_epoch,
                &mut self.edge_stamp,
                out,
            );
        }
    }

    /// Brings the step state up to the current layout: a no-op when it
    /// already describes this window after exactly `state.swaps()` SWAPs
    /// (every SWAP since went through [`WindowScratch::commit_swap`]);
    /// otherwise — a new window, or SWAPs applied behind its back such as
    /// [`RoutingState::force_route`]'s chain — one full scan of the window.
    pub fn begin_step(&mut self, state: &RoutingState<'_>, cost: &SwapCost) {
        let key = (self.built_for, state.swaps());
        if self.refreshed_for == key {
            return;
        }
        self.refreshed_for = key;
        let layout = state.layout();
        let dist = state.dist();
        let front_only = cost.variant() == CostVariant::DistanceOnly;
        for &p in &self.touch_dirty {
            self.touch[p as usize].clear();
        }
        self.touch_dirty.clear();
        self.active.clear();
        self.sizes.clear();
        self.base_sum.clear();
        self.base_front_sum = 0;
        for g in &self.gates {
            let layer = g.layer.max(1) as usize;
            if front_only && layer > 1 {
                continue;
            }
            if self.sizes.len() < layer {
                self.sizes.resize(layer, 0);
                self.base_sum.resize(layer, 0);
            }
            let ep = [layout.phys(g.q1), layout.phys(g.q2)];
            let d = u32::from(dist.get(ep[0], ep[1]));
            let w = cost.gate_weight(g.omega);
            self.sizes[layer - 1] += 1;
            self.base_sum[layer - 1] += w * u64::from(d);
            if layer == 1 {
                self.base_front_sum += d;
            }
            for e in ep {
                let slot = &mut self.touch[e as usize];
                if slot.is_empty() {
                    self.touch_dirty.push(e);
                }
                slot.push(self.active.len() as u32);
            }
            self.active.push(ActiveGate {
                w,
                layer: (layer - 1) as u32,
                ep,
                d,
            });
        }
    }

    /// The current-layout front-layer distance sum (tie-break baseline).
    pub fn base_front_sum(&self) -> u32 {
        self.base_front_sum
    }

    /// Scores candidate SWAP `(p1, p2)` against the step state: the value
    /// of [`SwapCost::score`] on the speculative layout, bit for bit, plus
    /// the front-layer distance sum after the SWAP (the tie-break's
    /// progress term). Only the gates on `p1` and `p2` are read.
    pub fn score_candidate(
        &mut self,
        cost: &SwapCost,
        dist: &DistanceMatrix,
        p1: u32,
        p2: u32,
        decay: f64,
    ) -> (f64, u32) {
        self.sum.clear();
        self.sum.extend_from_slice(&self.base_sum);
        let mut front = self.base_front_sum;
        add_swap_deltas(
            &self.touch,
            &mut self.active,
            dist,
            (p1, p2),
            &mut self.sum,
            &mut front,
            false,
        );
        (cost.fold(&self.sum, &self.sizes, decay), front)
    }

    /// Folds SWAP `(p1, p2)`, just applied to `state`, into the step
    /// state: the gates on `p1` and `p2` take their new endpoints and add
    /// their deltas to the layer and front sums, and the two touch lists
    /// trade places. Leaves exactly what a full refresh would build.
    pub fn commit_swap(&mut self, state: &RoutingState<'_>, p1: u32, p2: u32) {
        debug_assert_eq!(self.refreshed_for, (self.built_for, state.swaps() - 1));
        add_swap_deltas(
            &self.touch,
            &mut self.active,
            state.dist(),
            (p1, p2),
            &mut self.base_sum,
            &mut self.base_front_sum,
            true,
        );
        self.touch.swap(p1 as usize, p2 as usize);
        self.touch_dirty.extend([p1, p2]);
        self.refreshed_for.1 = state.swaps();
    }
}

/// Adds SWAP `(p1, p2)`'s exact deltas `w · (D' − D)` to the layer sums
/// `sum` and, for layer-1 gates, `D' − D` to the front sum, once per gate
/// with an endpoint on `p1` or `p2`. A gate on both sits in both touch
/// lists; it still has an endpoint on `p1` after the first list (moved or
/// not), which is how the second list skips it. With `commit`, each gate
/// also takes its new endpoints and distance.
fn add_swap_deltas(
    touch: &[Vec<u32>],
    active: &mut [ActiveGate],
    dist: &DistanceMatrix,
    (p1, p2): (u32, u32),
    sum: &mut [u64],
    front: &mut u32,
    commit: bool,
) {
    let on_p1 = touch[p1 as usize].iter().map(|&i| (i, true));
    let on_p2 = touch[p2 as usize].iter().map(|&i| (i, false));
    for (i, first) in on_p1.chain(on_p2) {
        let g = &mut active[i as usize];
        if !first && g.ep.contains(&p1) {
            continue;
        }
        let ep = g.ep.map(|e| {
            if e == p1 {
                p2
            } else if e == p2 {
                p1
            } else {
                e
            }
        });
        let d = u32::from(dist.get(ep[0], ep[1]));
        let l = g.layer as usize;
        sum[l] = sum[l] + g.w * u64::from(d) - g.w * u64::from(g.d);
        if l == 0 {
            *front = *front + d - g.d;
        }
        if commit {
            g.ep = ep;
            g.d = d;
        }
    }
}

/// The dependence-driven mapping loop over the incremental state.
pub(crate) fn route_with(
    state: &mut RoutingState<'_>,
    weights: &[u64],
    config: &QlosureConfig,
    rng: &mut StdRng,
) {
    let cost = SwapCost::with_scaling(
        config.cost,
        config.omega_smoothing,
        config.omega_scaling,
        config.future_weight,
    );
    let c_const = state.device().max_degree() + config.lookahead_margin.max(1);
    let stall_limit = 3 * state.dist().diameter() as usize + config.stall_slack;
    let mut stall = 0usize;
    let mut window = WindowScratch::new(state.dag().n_gates(), state.device());
    let mut candidates: Vec<(u32, u32)> = Vec::new();
    let mut scored: Vec<(f64, u32)> = Vec::new();
    let mut best: Vec<(u32, u32)> = Vec::new();
    loop {
        // EXTRACT_READY_GATES: everything in Lf executable under φ.
        if state.execute_ready().ran > 0 {
            state.reset_decay();
            stall = 0;
        }
        if state.is_done() {
            break;
        }
        // All front gates are blocked two-qubit gates: pick a SWAP.
        window.rebuild(state, weights, c_const);
        window.begin_step(state, &cost);
        window.swap_candidates(state, &mut candidates);
        debug_assert!(!candidates.is_empty(), "blocked front with no candidates");
        let clock_max = state.clock_max();
        let busy = |s: &RoutingState<'_>, p: u32| -> f64 {
            if clock_max == 0 {
                0.0
            } else {
                config.busy_weight * f64::from(s.clock(p)) / f64::from(clock_max)
            }
        };
        let dist = state.dist();
        scored.clear();
        let mut best_score = f64::INFINITY;
        for &(p1, p2) in &candidates {
            let d1 = state.decay(p1) + busy(state, p1);
            let d2 = state.decay(p2) + busy(state, p2);
            let decay = d1.max(d2);
            let (score, front) = window.score_candidate(&cost, dist, p1, p2, decay);
            best_score = best_score.min(score);
            scored.push((score, front));
        }
        // Near-ties resolve toward swaps that (a) strictly shrink the
        // front layer's total distance (guaranteed progress) and (b)
        // finish earliest on the schedule (idle qubits are almost free,
        // depth-wise), then randomly.
        let base_front = window.base_front_sum();
        let cutoff = best_score + best_score.abs() * config.tie_epsilon + 1e-9;
        best.clear();
        let mut best_key = (false, u32::MAX);
        for (i, &(p1, p2)) in candidates.iter().enumerate() {
            let (score, front) = scored[i];
            if score > cutoff {
                continue;
            }
            let progress = front < base_front;
            let done = state.swap_completion(p1, p2);
            let key = (progress, done);
            let better = match (key.0, best_key.0) {
                (true, false) => true,
                (false, true) => false,
                _ => done < best_key.1,
            };
            if better {
                best_key = key;
                best.clear();
                best.push((p1, p2));
            } else if key == best_key {
                best.push((p1, p2));
            }
        }
        let (p1, p2) = best[rng.random_range(0..best.len())];
        state.apply_swap(p1, p2);
        window.commit_swap(state, p1, p2);
        state.bump_decay(p1, config.decay_delta);
        state.bump_decay(p2, config.decay_delta);
        stall += 1;
        if stall > stall_limit {
            // Forced progress: route the heaviest front gate directly.
            let &g = state
                .front()
                .iter()
                .max_by_key(|&&g| weights.get(g as usize).copied().unwrap_or(0))
                .expect("front non-empty");
            state.force_route(g);
            state.reset_decay();
            stall = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::verify_routing;
    use topology::backends;

    fn verify(circuit: &Circuit, device: &CouplingGraph, result: &MappingResult) {
        verify_routing(
            circuit,
            &result.routed,
            &|a, b| device.is_adjacent(a, b),
            &result.initial_layout,
        )
        .expect("routing must verify");
    }

    #[test]
    fn already_routable_circuit_gets_no_swaps() {
        let device = backends::line(4);
        let mut c = Circuit::new(4);
        c.h(0);
        c.cx(0, 1);
        c.cx(1, 2);
        c.cx(2, 3);
        let r = QlosureMapper::default().map(&c, &device);
        assert_eq!(r.swaps, 0);
        assert_eq!(r.routed.qop_count(), 4);
        verify(&c, &device, &r);
    }

    #[test]
    fn distant_gate_gets_routed() {
        let device = backends::line(5);
        let mut c = Circuit::new(5);
        c.cx(0, 4);
        let r = QlosureMapper::default().map(&c, &device);
        assert!(
            r.swaps >= 3,
            "distance-4 pair needs >= 3 swaps, got {}",
            r.swaps
        );
        verify(&c, &device, &r);
    }

    #[test]
    fn ghz_on_ring() {
        let device = backends::ring(6);
        let mut c = Circuit::new(6);
        c.h(0);
        for i in 1..6 {
            c.cx(0, i);
        }
        let r = QlosureMapper::default().map(&c, &device);
        verify(&c, &device, &r);
    }

    #[test]
    fn respects_dependences_across_swaps() {
        let device = backends::line(6);
        let mut c = Circuit::new(6);
        c.cx(0, 5);
        c.cx(5, 0); // must still follow the first gate logically
        c.h(5);
        c.cx(0, 3);
        let r = QlosureMapper::default().map(&c, &device);
        verify(&c, &device, &r);
    }

    #[test]
    fn barriers_and_measures_survive() {
        let device = backends::line(4);
        let mut c = Circuit::new(4);
        c.h(0);
        c.barrier(&[0, 1]);
        c.cx(0, 3);
        c.measure_all();
        let r = QlosureMapper::default().map(&c, &device);
        verify(&c, &device, &r);
        assert_eq!(
            r.routed
                .gates()
                .iter()
                .filter(|g| g.kind == circuit::GateKind::Measure)
                .count(),
            4
        );
    }

    #[test]
    fn deterministic_under_same_seed() {
        let device = backends::king_grid(4, 4);
        let mut c = Circuit::new(16);
        let mut s = 7u64;
        for _ in 0..60 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = ((s >> 33) % 16) as u32;
            let b = ((s >> 13) % 16) as u32;
            if a != b {
                c.cx(a, b);
            }
        }
        let m = QlosureMapper::default();
        let r1 = m.map(&c, &device);
        let r2 = m.map(&c, &device);
        assert_eq!(r1.routed, r2.routed);
        assert_eq!(r1.swaps, r2.swaps);
    }

    #[test]
    fn bidirectional_initial_mapping_verifies_and_helps() {
        let device = backends::line(8);
        let mut c = Circuit::new(8);
        // Long-range pairs under identity; a smarter layout reduces swaps.
        for _ in 0..3 {
            c.cx(0, 7);
            c.cx(1, 6);
            c.cx(2, 5);
        }
        let identity = QlosureMapper::default().map(&c, &device);
        let bidi = QlosureMapper::with_config(QlosureConfig {
            initial: InitialMapping::Bidirectional { passes: 2 },
            ..QlosureConfig::default()
        })
        .map(&c, &device);
        verify(&c, &device, &identity);
        verify(&c, &device, &bidi);
        assert!(
            bidi.swaps <= identity.swaps,
            "bidirectional {} should not exceed identity {}",
            bidi.swaps,
            identity.swaps
        );
    }

    #[test]
    fn all_cost_variants_produce_valid_routings() {
        let device = backends::square_grid(3, 3);
        let mut c = Circuit::new(9);
        let mut s = 99u64;
        for _ in 0..40 {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let a = ((s >> 33) % 9) as u32;
            let b = ((s >> 13) % 9) as u32;
            if a != b {
                c.cx(a, b);
            }
        }
        for variant in [
            CostVariant::DistanceOnly,
            CostVariant::LayerAdjusted,
            CostVariant::DependencyWeighted,
        ] {
            let r = QlosureMapper::with_config(QlosureConfig {
                cost: variant,
                ..QlosureConfig::default()
            })
            .map(&c, &device);
            verify(&c, &device, &r);
        }
    }

    #[test]
    fn maps_onto_larger_device_than_circuit() {
        let device = backends::sherbrooke();
        let mut c = Circuit::new(10);
        for i in 0..9 {
            c.cx(i, i + 1);
        }
        c.cx(0, 9);
        let r = QlosureMapper::default().map(&c, &device);
        verify(&c, &device, &r);
    }

    #[test]
    fn noise_aware_routing_avoids_bad_links() {
        // Ring with one terrible coupling: the noise-aware router must
        // place its SWAPs on the healthy side of the ring.
        let device = backends::ring(8);
        let mut noise = topology::NoiseModel::uniform(&device, 0.002, 0.0002);
        noise.set_edge_error(0, 1, 0.35);
        let mut c = Circuit::new(8);
        for _ in 0..4 {
            c.cx(0, 4); // diametrically opposite; either direction works
            c.cx(4, 0);
        }
        let mapper = QlosureMapper::default();
        let aware = mapper.map_noise_aware(&c, &device, &noise);
        verify(&c, &device, &aware);
        let gates: Vec<(&str, &[u32])> = aware
            .routed
            .gates()
            .iter()
            .map(|g| (g.kind.name(), g.qubits.as_slice()))
            .collect();
        let p_aware = noise.success_probability(gates);
        let unaware = mapper.map(&c, &device);
        verify(&c, &device, &unaware);
        let gates: Vec<(&str, &[u32])> = unaware
            .routed
            .gates()
            .iter()
            .map(|g| (g.kind.name(), g.qubits.as_slice()))
            .collect();
        let p_unaware = noise.success_probability(gates);
        // The noise-aware route never uses the bad link for swaps.
        let bad_swaps = aware
            .routed
            .gates()
            .iter()
            .filter(|g| {
                g.kind == circuit::GateKind::Swap && g.qubits.contains(&0) && g.qubits.contains(&1)
            })
            .count();
        assert_eq!(bad_swaps, 0, "noise-aware route crossed the bad link");
        assert!(
            p_aware >= p_unaware * 0.99,
            "noise-aware {p_aware} should not be meaningfully worse than {p_unaware}"
        );
    }

    #[test]
    fn window_layers_increase_with_depth() {
        // chain: cx(0,2); cx(2,3); cx(3,1) — blocked front at distance.
        let device = backends::line(6);
        let mut c = Circuit::new(4);
        c.cx(0, 2); // blocked under identity on a line
        c.cx(2, 3);
        c.cx(3, 1);
        let dist = device.distances();
        let mut state = RoutingState::new(&c, &device, &dist, Layout::identity(4, 6));
        state.execute_ready();
        let weights = [3, 1, 0];
        let mut w = WindowScratch::new(state.dag().n_gates(), &device);
        w.rebuild(&mut state, &weights, 4);
        assert_eq!(w.gates[0].layer, 1);
        assert!(w.gates.iter().any(|g| g.layer == 2));
        assert!(w.gates.iter().any(|g| g.layer == 3));
    }

    /// A seeded random circuit of `n_gates` gates: mostly `cx`, with `h`
    /// in between so layers do not grow one per gate.
    fn random_circuit(n_qubits: u32, n_gates: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new(n_qubits as usize);
        let mut s = seed;
        for _ in 0..n_gates {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((s >> 33) % u64::from(n_qubits)) as u32;
            let b = ((s >> 13) % u64::from(n_qubits)) as u32;
            if (s >> 60) == 0 {
                c.h(a);
            } else if a != b {
                c.cx(a, b);
            }
        }
        c
    }

    /// The step state, for comparing an incremental one with a refresh.
    type StepState = (Vec<ActiveGate>, Vec<u32>, Vec<u64>, u32, Vec<Vec<u32>>);

    fn step_state(w: &WindowScratch) -> StepState {
        (
            w.active.clone(),
            w.sizes.clone(),
            w.base_sum.clone(),
            w.base_front_sum,
            w.touch.clone(),
        )
    }

    /// Routes `circuit` greedily through the batched scorer (lowest score
    /// wins; decay and the stall fallback as in `route_with`) and checks,
    /// at every step, each candidate's score against [`SwapCost::score`]
    /// on the speculatively swapped layout (by `to_bits`) and its front
    /// sum against a recount, and, after every committed SWAP, the step
    /// state against a full refresh. Every eighth SWAP skips
    /// `commit_swap`, as `force_route`'s chain does.
    fn check_batched_scorer(
        circuit: &Circuit,
        device: &CouplingGraph,
        dist: &DistanceMatrix,
        config: &QlosureConfig,
    ) {
        let analysis = DependenceAnalysis::new(circuit, WeightMode::Graph);
        let weights = analysis.weights();
        let cost = SwapCost::with_scaling(
            config.cost,
            config.omega_smoothing,
            config.omega_scaling,
            config.future_weight,
        );
        let c_const = device.max_degree() + config.lookahead_margin;
        let stall_limit = 3 * dist.diameter() as usize + config.stall_slack;
        let layout = Layout::identity(circuit.n_qubits(), device.n_qubits());
        let mut state = RoutingState::new(circuit, device, dist, layout);
        let mut window = WindowScratch::new(circuit.gates().len(), device);
        let mut candidates = Vec::new();
        let (mut stall, mut steps, mut bypassed, mut scored) = (0usize, 0usize, 0usize, 0usize);
        loop {
            if state.execute_ready().ran > 0 {
                state.reset_decay();
                stall = 0;
            }
            if state.is_done() {
                break;
            }
            window.rebuild(&mut state, weights, c_const);
            window.begin_step(&state, &cost);
            window.swap_candidates(&state, &mut candidates);
            let mut best = (f64::INFINITY, (0, 0));
            for &(p1, p2) in &candidates {
                let decay = state.decay(p1).max(state.decay(p2));
                let (score, front) = window.score_candidate(&cost, dist, p1, p2, decay);
                let (expect, recount) = state.speculate_swap(p1, p2, |s| {
                    let layout = s.layout();
                    let recount: u32 = window
                        .gates
                        .iter()
                        .filter(|g| g.layer <= 1)
                        .map(|g| u32::from(dist.get(layout.phys(g.q1), layout.phys(g.q2))))
                        .sum();
                    (cost.score(&window.gates, layout, dist, decay), recount)
                });
                assert_eq!(
                    score.to_bits(),
                    expect.to_bits(),
                    "{config:?}: swap ({p1}, {p2}) scored {score}, SwapCost::score {expect}"
                );
                assert_eq!(front, recount, "{config:?}: front sum after ({p1}, {p2})");
                scored += 1;
                if score < best.0 {
                    best = (score, (p1, p2));
                }
            }
            let (p1, p2) = best.1;
            state.apply_swap(p1, p2);
            steps += 1;
            // Every few steps the SWAP bypasses `commit_swap`, with the
            // window unchanged: the next `begin_step` must notice it.
            if steps % 8 == 0 {
                bypassed += 1;
            } else {
                window.commit_swap(&state, p1, p2);
                let mut fresh = window.clone();
                fresh.refreshed_for = (0, 0);
                fresh.begin_step(&state, &cost);
                assert_eq!(
                    step_state(&window),
                    step_state(&fresh),
                    "{config:?}: step state after ({p1}, {p2})"
                );
            }
            state.bump_decay(p1, config.decay_delta);
            state.bump_decay(p2, config.decay_delta);
            stall += 1;
            if stall > stall_limit {
                let g = state.front()[0];
                state.force_route(g);
                state.reset_decay();
                stall = 0;
            }
        }
        assert!(scored > 0, "{config:?}: no candidate was scored");
        assert!(bypassed > 0, "{config:?}: every SWAP was committed");
    }

    #[test]
    fn batched_scores_equal_swap_cost_score_and_commits_equal_refreshes() {
        let grid = backends::square_grid(4, 5);
        let aspen = backends::aspen16();
        let noisy = backends::square_grid(4, 4);
        let noise = topology::NoiseModel::synthetic(&noisy, 0.01, 11);
        // Routing reads distances only through the matrix, so any matrix
        // `DistanceMatrix::from_raw` accepts must score alike, including
        // an asymmetric one.
        let n = grid.n_qubits();
        let hops = grid.distances();
        let skewed = (0..n * n)
            .map(|i| {
                let (a, b) = ((i / n) as u32, (i % n) as u32);
                3 * hops.get(a, b) + u16::from(a > b)
            })
            .collect();
        let cases = [
            (&grid, hops.clone(), 18),
            (&grid, DistanceMatrix::from_raw(n, skewed), 18),
            (&aspen, aspen.distances(), 16),
            (
                &noisy,
                (*noise.shared_weighted_distances(&noisy)).clone(),
                16,
            ),
        ];
        for (device, dist, n_qubits) in &cases {
            for seed in 1..=2u64 {
                let circuit = random_circuit(*n_qubits, 90, seed);
                for cost in [
                    CostVariant::DistanceOnly,
                    CostVariant::LayerAdjusted,
                    CostVariant::DependencyWeighted,
                ] {
                    for omega_scaling in
                        [OmegaScaling::Linear, OmegaScaling::Sqrt, OmegaScaling::Log]
                    {
                        for omega_smoothing in [0, 1] {
                            let config = QlosureConfig {
                                cost,
                                omega_scaling,
                                omega_smoothing,
                                ..QlosureConfig::default()
                            };
                            check_batched_scorer(&circuit, device, dist, &config);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn routing_pass_without_weights_analysis_still_routes() {
        // Composed without a DependenceWeightsPass the routing pass
        // computes the weights itself — same result.
        let device = backends::line(5);
        let mut c = Circuit::new(5);
        c.cx(0, 4);
        c.cx(1, 3);
        let with_analysis = QlosureMapper::default().map(&c, &device);
        let without = MappingPipeline::new(
            IdentityLayoutPass,
            QlosureRoutingPass::new(QlosureConfig::default()),
        )
        .map(&c, &device);
        assert_eq!(with_analysis, without);
    }
}
