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
    /// [`OmegaScaling`]).
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
/// On top of the window it carries the **batched scoring** scratch: the
/// ω-weight and layer-discount factors of each scored gate are frozen at
/// rebuild time ([`WindowScratch::prepare`]), the gates' physical
/// endpoints and base contributions are refreshed once per SWAP step
/// ([`WindowScratch::begin_step`]), and each candidate is then scored by
/// [`WindowScratch::score_candidate`] without touching the layout — the
/// accumulation order and every float expression mirror
/// [`SwapCost::score`] exactly, so selection is bit-for-bit identical to
/// speculating the swap and rescoring the window from scratch.
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
    // --- batched-scoring scratch ---
    /// `front_version` the per-window factors were prepared for.
    prepared_for: u64,
    /// Whether the active arrays exclude non-front gates
    /// ([`CostVariant::DistanceOnly`]).
    front_only: bool,
    /// Per *active* gate (window order, minus the gates the cost variant
    /// ignores): ω weight factor, layer discount, layer index, and the
    /// current-layout physical endpoints + base contribution `(w·d)·disc`.
    factor_w: Vec<f64>,
    factor_disc: Vec<f64>,
    layer_ix: Vec<u32>,
    ep1: Vec<u32>,
    ep2: Vec<u32>,
    base_contrib: Vec<f64>,
    /// Per-layer gate counts `|G_ℓ|` (layout-independent).
    sizes: Vec<u32>,
    /// Indices into the active arrays of the `layer <= 1` gates (the
    /// front-sum tie-break set).
    front_ix: Vec<u32>,
    /// Current-layout front-layer distance sum (the tie-break baseline).
    base_front_sum: u32,
    /// Γ accumulation buffer reused across candidates.
    gamma: Vec<f64>,
    /// Per-directed-edge stamps for candidate dedup.
    edge_stamp: Vec<u64>,
    edge_epoch: u64,
    /// Per-layer Γ under the *current* layout (every contribution at its
    /// base value), refreshed once per step. A candidate's Γ differs only
    /// in the layers holding a gate incident to its endpoints.
    base_gamma: Vec<f64>,
    /// Active indices grouped by layer (CSR over `layer_start`), stable
    /// within each layer — so a per-layer re-fold visits that layer's
    /// gates in exactly the window order [`SwapCost::score`] uses.
    layer_list: Vec<u32>,
    layer_start: Vec<u32>,
    /// Per active gate: does it belong to the front tie-break set?
    front_flag: Vec<bool>,
    /// Layer-fill cursor reused across `prepare` calls.
    cursor: Vec<u32>,
    /// Per physical qubit: active indices with an endpoint there under
    /// the current layout (`touch_dirty` lists the non-empty slots).
    touch: Vec<Vec<u32>>,
    touch_dirty: Vec<u32>,
    /// Per-layer / per-gate stamps for candidate-local dirty marking.
    layer_mark: Vec<u32>,
    gate_mark: Vec<u32>,
    mark_epoch: u32,
    /// Dirty-layer worklist reused across candidates.
    dirty_layers: Vec<u32>,
    /// Layer-major mirrors of the per-gate arrays (permuted by
    /// `layer_list`), so dirty-layer re-folds read sequentially instead
    /// of gathering: factors mirrored per window, endpoints and base
    /// contributions per step.
    lm_w: Vec<f64>,
    lm_disc: Vec<f64>,
    lm_ep1: Vec<u32>,
    lm_ep2: Vec<u32>,
    lm_contrib: Vec<f64>,
    /// Per layer-major position: the base fold's accumulator value
    /// *before* adding that position's contribution. A dirty layer
    /// re-folds from its first affected position seeded with this prefix
    /// — the adds before it are unchanged, so the seed is bitwise the
    /// reference accumulator at that point.
    lm_prefix: Vec<f64>,
    /// Per active gate: its layer-major position (index into the `lm_*`
    /// mirrors).
    lm_pos: Vec<u32>,
    /// Per layer: minimum affected layer-major position for the current
    /// candidate (valid only while `layer_mark` holds the epoch).
    layer_min: Vec<u32>,
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
            prepared_for: 0,
            front_only: false,
            factor_w: Vec::new(),
            factor_disc: Vec::new(),
            layer_ix: Vec::new(),
            ep1: Vec::new(),
            ep2: Vec::new(),
            base_contrib: Vec::new(),
            sizes: Vec::new(),
            front_ix: Vec::new(),
            base_front_sum: 0,
            gamma: Vec::new(),
            edge_stamp: vec![0; device.n_directed_edges()],
            edge_epoch: 0,
            base_gamma: Vec::new(),
            layer_list: Vec::new(),
            layer_start: Vec::new(),
            front_flag: Vec::new(),
            cursor: Vec::new(),
            touch: vec![Vec::new(); device.n_qubits()],
            touch_dirty: Vec::new(),
            layer_mark: Vec::new(),
            gate_mark: Vec::new(),
            mark_epoch: 0,
            dirty_layers: Vec::new(),
            lm_w: Vec::new(),
            lm_disc: Vec::new(),
            lm_ep1: Vec::new(),
            lm_ep2: Vec::new(),
            lm_contrib: Vec::new(),
            lm_prefix: Vec::new(),
            lm_pos: Vec::new(),
            layer_min: Vec::new(),
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

    /// Freezes the layout-independent scoring factors of the current
    /// window: per active gate the ω weight `w` and layer discount (both
    /// functions of the cost variant only), the layer index, and the
    /// per-layer gate counts `|G_ℓ|`. A no-op while the window is
    /// unchanged. "Active" drops exactly the gates [`SwapCost::score`]
    /// skips (non-front layers under [`CostVariant::DistanceOnly`]), so
    /// the accumulation order over active gates equals its gate loop.
    pub fn prepare(&mut self, cost: &SwapCost) {
        if self.prepared_for == self.built_for {
            return;
        }
        self.prepared_for = self.built_for;
        self.front_only = cost.variant() == CostVariant::DistanceOnly;
        self.factor_w.clear();
        self.factor_disc.clear();
        self.layer_ix.clear();
        self.sizes.clear();
        self.front_ix.clear();
        self.front_flag.clear();
        for g in &self.gates {
            let layer = g.layer.max(1) as usize;
            if self.front_only && layer > 1 {
                continue;
            }
            if self.sizes.len() < layer {
                self.sizes.resize(layer, 0);
            }
            if g.layer <= 1 {
                self.front_ix.push(self.factor_w.len() as u32);
            }
            self.front_flag.push(g.layer <= 1);
            self.factor_w.push(cost.omega_factor(g.omega));
            self.factor_disc.push(cost.layer_discount(layer));
            self.layer_ix.push((layer - 1) as u32);
            self.sizes[layer - 1] += 1;
        }
        // Layer-major index lists (stable within a layer), so a dirty
        // layer can be re-folded in window order without scanning the
        // whole window.
        self.layer_start.clear();
        self.layer_start.push(0);
        let mut acc = 0u32;
        for &s in &self.sizes {
            acc += s;
            self.layer_start.push(acc);
        }
        self.cursor.clear();
        self.cursor
            .extend_from_slice(&self.layer_start[..self.sizes.len()]);
        self.layer_list.clear();
        self.layer_list.resize(self.layer_ix.len(), 0);
        self.lm_pos.clear();
        self.lm_pos.resize(self.layer_ix.len(), 0);
        for (i, &l) in self.layer_ix.iter().enumerate() {
            let c = &mut self.cursor[l as usize];
            self.layer_list[*c as usize] = i as u32;
            self.lm_pos[i] = *c;
            *c += 1;
        }
        self.lm_w.clear();
        self.lm_disc.clear();
        for &gi in &self.layer_list {
            self.lm_w.push(self.factor_w[gi as usize]);
            self.lm_disc.push(self.factor_disc[gi as usize]);
        }
    }

    /// Refreshes the layout-dependent scoring state for one SWAP step:
    /// each active gate's physical endpoints and base contribution
    /// `(w · d) · discount` under the *current* layout, plus the
    /// front-layer distance sum the progress tie-break compares against.
    /// Costs one window scan — the same as a single candidate scored the
    /// naive way — and makes every subsequent candidate score O(window)
    /// adds with no layout mutation.
    pub fn begin_step(&mut self, state: &RoutingState<'_>) {
        let layout = state.layout();
        let dist = state.dist();
        self.ep1.clear();
        self.ep2.clear();
        self.base_contrib.clear();
        for &p in &self.touch_dirty {
            self.touch[p as usize].clear();
        }
        self.touch_dirty.clear();
        let mut active = 0usize;
        for g in &self.gates {
            let layer = g.layer.max(1) as usize;
            if self.front_only && layer > 1 {
                continue;
            }
            let e1 = layout.phys(g.q1);
            let e2 = layout.phys(g.q2);
            let d = dist.get(e1, e2) as f64;
            self.ep1.push(e1);
            self.ep2.push(e2);
            self.base_contrib
                .push(self.factor_w[active] * d * self.factor_disc[active]);
            for e in [e1, e2] {
                let slot = &mut self.touch[e as usize];
                if slot.is_empty() {
                    self.touch_dirty.push(e);
                }
                slot.push(active as u32);
            }
            active += 1;
        }
        debug_assert_eq!(active, self.factor_w.len());
        self.base_front_sum = self
            .front_ix
            .iter()
            .map(|&i| u32::from(dist.get(self.ep1[i as usize], self.ep2[i as usize])))
            .sum();
        self.lm_ep1.clear();
        self.lm_ep2.clear();
        self.lm_contrib.clear();
        for &gi in &self.layer_list {
            self.lm_ep1.push(self.ep1[gi as usize]);
            self.lm_ep2.push(self.ep2[gi as usize]);
            self.lm_contrib.push(self.base_contrib[gi as usize]);
        }
        // Base Γ + prefix accumulators: each layer's base fold in window
        // order — bitwise the reference accumulation for any layer a
        // candidate leaves untouched, and a bitwise-exact restart seed
        // (`lm_prefix`) for every position of a layer it touches.
        self.base_gamma.clear();
        self.lm_prefix.clear();
        self.lm_prefix.resize(self.lm_contrib.len(), 0.0);
        for l in 0..self.sizes.len() {
            let lo = self.layer_start[l] as usize;
            let hi = self.layer_start[l + 1] as usize;
            let mut acc = 0.0f64;
            for k in lo..hi {
                self.lm_prefix[k] = acc;
                acc += self.lm_contrib[k];
            }
            self.base_gamma.push(acc);
        }
        self.layer_mark.clear();
        self.layer_mark.resize(self.sizes.len(), 0);
        self.layer_min.clear();
        self.layer_min.resize(self.sizes.len(), 0);
        self.gate_mark.clear();
        self.gate_mark.resize(self.base_contrib.len(), 0);
        self.mark_epoch = 0;
    }

    /// The current-layout front-layer distance sum (tie-break baseline).
    pub fn base_front_sum(&self) -> u32 {
        self.base_front_sum
    }

    /// Scores candidate SWAP `(p1, p2)` against the prepared window:
    /// bit-for-bit the value of [`SwapCost::score`] on the speculative
    /// layout, but computed by re-accumulating the cached per-gate
    /// contributions (recomputing only gates with an endpoint on `p1` or
    /// `p2`) instead of re-deriving `w`, `φ` and `D` for every gate.
    pub fn score_candidate(
        &mut self,
        cost: &SwapCost,
        dist: &DistanceMatrix,
        p1: u32,
        p2: u32,
        decay: f64,
    ) -> f64 {
        // Γ[ℓ] is an independent fold over layer ℓ's gates in window
        // order, so only layers holding a gate incident to p1/p2 can
        // differ from the per-step base — re-fold exactly those (in the
        // same within-layer order) and reuse `base_gamma` for the rest.
        self.gamma.clear();
        self.gamma.extend_from_slice(&self.base_gamma);
        self.mark_epoch += 1;
        let epoch = self.mark_epoch;
        self.dirty_layers.clear();
        for e in [p1, p2] {
            for i in 0..self.touch[e as usize].len() {
                let g = self.touch[e as usize][i] as usize;
                let l = self.layer_ix[g] as usize;
                let pos = self.lm_pos[g];
                if self.layer_mark[l] != epoch {
                    self.layer_mark[l] = epoch;
                    self.dirty_layers.push(l as u32);
                    self.layer_min[l] = pos;
                } else if pos < self.layer_min[l] {
                    self.layer_min[l] = pos;
                }
            }
        }
        for &l in &self.dirty_layers {
            let lo = self.layer_min[l as usize] as usize;
            let hi = self.layer_start[l as usize + 1] as usize;
            let mut acc = self.lm_prefix[lo];
            for k in lo..hi {
                let e1 = self.lm_ep1[k];
                let e2 = self.lm_ep2[k];
                let contrib = if e1 == p1 || e1 == p2 || e2 == p1 || e2 == p2 {
                    let f1 = if e1 == p1 {
                        p2
                    } else if e1 == p2 {
                        p1
                    } else {
                        e1
                    };
                    let f2 = if e2 == p1 {
                        p2
                    } else if e2 == p2 {
                        p1
                    } else {
                        e2
                    };
                    self.lm_w[k] * dist.get(f1, f2) as f64 * self.lm_disc[k]
                } else {
                    self.lm_contrib[k]
                };
                acc += contrib;
            }
            self.gamma[l as usize] = acc;
        }
        cost.combine(&self.gamma, &self.sizes, decay)
    }

    /// The front-layer distance sum under the speculative layout after
    /// SWAP `(p1, p2)` — the integer progress term of the tie-break.
    /// Integer addition is associative, so the sum is updated as an exact
    /// delta over the front gates incident to `p1`/`p2` instead of
    /// re-summing the whole front.
    pub fn front_sum_after(&mut self, dist: &DistanceMatrix, p1: u32, p2: u32) -> u32 {
        self.mark_epoch += 1;
        let epoch = self.mark_epoch;
        let mut sum = i64::from(self.base_front_sum);
        for e in [p1, p2] {
            for k in 0..self.touch[e as usize].len() {
                let i = self.touch[e as usize][k] as usize;
                if !self.front_flag[i] || self.gate_mark[i] == epoch {
                    continue;
                }
                self.gate_mark[i] = epoch;
                let e1 = self.ep1[i];
                let e2 = self.ep2[i];
                let f1 = if e1 == p1 {
                    p2
                } else if e1 == p2 {
                    p1
                } else {
                    e1
                };
                let f2 = if e2 == p1 {
                    p2
                } else if e2 == p2 {
                    p1
                } else {
                    e2
                };
                sum += i64::from(dist.get(f1, f2));
                sum -= i64::from(dist.get(e1, e2));
            }
        }
        sum as u32
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
    let mut scored: Vec<f64> = Vec::new();
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
        window.prepare(&cost);
        window.begin_step(state);
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
            let score = window.score_candidate(&cost, dist, p1, p2, decay);
            best_score = best_score.min(score);
            scored.push(score);
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
            if scored[i] > cutoff {
                continue;
            }
            let progress = window.front_sum_after(dist, p1, p2) < base_front;
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
