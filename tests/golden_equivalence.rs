//! Golden-equivalence suite for the pass-pipeline refactor.
//!
//! The `reference` module below is a **frozen copy of the pre-refactor
//! routing code**: the monolithic Qlosure loop (`router.rs` as of PR 2)
//! and the four baseline loops with their shared `RouterState`, rebuilt
//! verbatim on the public primitives (`Layout`, `ScoredGate`,
//! `DependenceGraph`, `DependenceAnalysis`, the vendored `rand`). Every
//! pipeline-composed mapper must reproduce these results **bit-for-bit**
//! — same routed gates, same layouts, same swap counts — across the
//! differential-test roster, both when called directly and through the
//! batch engine at 1 and 4 threads.
//!
//! The Eq. (2) cost is local too: `FloatCost` is the float fold
//! `SwapCost::score` evaluated before scoring moved to exact integer
//! layer sums, so this suite compares the router's scorer against the
//! old formula, not against itself.
//!
//! If a change to the pass pipeline or `RoutingState` alters any mapper's
//! output, this suite is the tripwire: either the change is a bug, or it
//! is an intentional algorithm change and the frozen reference must be
//! updated *in the same PR* with a note in CHANGES.md.

use circuit::Circuit;
use engine::{BatchEngine, MapJob};
use qlosure::Mapper;
use std::sync::Arc;
use topology::{backends, CouplingGraph};

/// The pre-refactor implementations, frozen.
mod reference {
    use affine::{DependenceAnalysis, WeightMode};
    use circuit::{Circuit, DependenceGraph, Gate};
    use qlosure::{CostVariant, Layout, MappingResult, OmegaScaling, ScoredGate};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    use topology::{CouplingGraph, DistanceMatrix};

    // ---------------- Qlosure (monolithic route loop) ----------------

    pub struct QlosureParams {
        pub cost: CostVariant,
        pub omega_smoothing: u64,
        pub omega_scaling: OmegaScaling,
        pub future_weight: f64,
        pub weight_mode: WeightMode,
        pub decay_delta: f64,
        pub lookahead_margin: usize,
        pub seed: u64,
        pub stall_slack: usize,
        pub busy_weight: f64,
        pub tie_epsilon: f64,
    }

    impl Default for QlosureParams {
        fn default() -> Self {
            QlosureParams {
                cost: CostVariant::DependencyWeighted,
                omega_smoothing: 1,
                omega_scaling: OmegaScaling::Linear,
                future_weight: 0.25,
                weight_mode: WeightMode::Auto,
                decay_delta: 0.001,
                lookahead_margin: 1,
                seed: 0xC105,
                stall_slack: 16,
                busy_weight: 0.05,
                tie_epsilon: 0.005,
            }
        }
    }

    pub fn qlosure(circuit: &Circuit, device: &CouplingGraph) -> MappingResult {
        let params = QlosureParams::default();
        let analysis = DependenceAnalysis::new(circuit, params.weight_mode);
        let mut rng = StdRng::seed_from_u64(params.seed);
        let layout = Layout::identity(circuit.n_qubits(), device.n_qubits());
        let dist = device.shared_distances();
        route(
            circuit,
            device,
            &dist,
            analysis.weights(),
            layout,
            &params,
            &mut rng,
        )
    }

    struct Window {
        gates: Vec<ScoredGate>,
        front_logicals: Vec<u32>,
    }

    /// Eq. (2) as the float fold `SwapCost::score` evaluated before it
    /// moved to exact integer layer sums: per layer, `Γ_ℓ` accumulates
    /// `(w · D) · (1/ℓ)` in window order with `w` the f64 ω factor, then
    /// the layers fold as `decay · Σ fw_ℓ · Γ_ℓ / |G_ℓ|`.
    struct FloatCost {
        variant: CostVariant,
        smoothing: u64,
        scaling: OmegaScaling,
        future_weight: f64,
    }

    impl FloatCost {
        fn omega_factor(&self, omega: u64) -> f64 {
            match self.variant {
                CostVariant::DistanceOnly | CostVariant::LayerAdjusted => 1.0,
                CostVariant::DependencyWeighted => {
                    let raw = (omega + self.smoothing) as f64;
                    match self.scaling {
                        OmegaScaling::Linear => raw,
                        OmegaScaling::Sqrt => raw.sqrt(),
                        OmegaScaling::Log => raw.ln_1p(),
                    }
                }
            }
        }

        fn layer_discount(&self, layer: usize) -> f64 {
            match self.variant {
                CostVariant::DistanceOnly => 1.0,
                _ => 1.0 / layer as f64,
            }
        }

        fn score(
            &self,
            gates: &[ScoredGate],
            layout: &Layout,
            dist: &DistanceMatrix,
            decay: f64,
        ) -> f64 {
            let mut gamma: Vec<f64> = Vec::new();
            let mut sizes: Vec<u32> = Vec::new();
            for g in gates {
                let layer = g.layer.max(1) as usize;
                if self.variant == CostVariant::DistanceOnly && layer > 1 {
                    continue;
                }
                if gamma.len() < layer {
                    gamma.resize(layer, 0.0);
                    sizes.resize(layer, 0);
                }
                let d = dist.get(layout.phys(g.q1), layout.phys(g.q2)) as f64;
                let w = self.omega_factor(g.omega);
                gamma[layer - 1] += w * d * self.layer_discount(layer);
                sizes[layer - 1] += 1;
            }
            let sum: f64 = gamma
                .iter()
                .zip(&sizes)
                .enumerate()
                .filter(|&(_, (_, &n))| n > 0)
                .map(|(i, (g, &n))| {
                    let w = if i == 0 { 1.0 } else { self.future_weight };
                    w * g / n as f64
                })
                .sum();
            decay * sum
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn route(
        circuit: &Circuit,
        device: &CouplingGraph,
        dist: &DistanceMatrix,
        weights: &[u64],
        mut layout: Layout,
        config: &QlosureParams,
        rng: &mut StdRng,
    ) -> MappingResult {
        let dag = DependenceGraph::new(circuit);
        let n_gates = circuit.gates().len();
        let mut indeg = dag.in_degrees();
        let mut front: Vec<u32> = dag.initial_front();
        let mut routed = Circuit::with_capacity(device.n_qubits(), n_gates + n_gates / 4);
        let initial_layout = layout.as_assignment().to_vec();
        let mut decay = vec![1.0f64; device.n_qubits()];
        let mut clock = vec![0u32; device.n_qubits()];
        let mut clock_max = 0u32;
        let cost = FloatCost {
            variant: config.cost,
            smoothing: config.omega_smoothing,
            scaling: config.omega_scaling,
            future_weight: config.future_weight,
        };
        let c_const = device.max_degree() + config.lookahead_margin.max(1);
        let stall_limit = 3 * dist.diameter() as usize + config.stall_slack;
        let mut stall = 0usize;
        let mut swaps = 0usize;

        let executable = |gate: &Gate, layout: &Layout| -> bool {
            match gate.qubit_pair() {
                Some((a, b)) => device.is_adjacent(layout.phys(a), layout.phys(b)),
                None => true,
            }
        };

        while !front.is_empty() {
            let mut ready: Vec<u32> = front
                .iter()
                .copied()
                .filter(|&g| executable(&circuit.gates()[g as usize], &layout))
                .collect();
            if !ready.is_empty() {
                ready.sort_unstable();
                for &g in &ready {
                    let gate = &circuit.gates()[g as usize];
                    emit_mapped(&mut routed, gate, &layout);
                    advance_clock(&mut clock, &mut clock_max, gate, &layout);
                }
                front.retain(|g| !ready.contains(g));
                for &g in &ready {
                    for &s in dag.succs(g) {
                        indeg[s as usize] -= 1;
                        if indeg[s as usize] == 0 {
                            front.push(s);
                        }
                    }
                }
                decay.fill(1.0);
                stall = 0;
                continue;
            }
            let window = build_window(circuit, &dag, &front, &indeg, weights, c_const);
            let candidates = swap_candidates(&window, &layout, device);
            let busy = |p: u32| -> f64 {
                if clock_max == 0 {
                    0.0
                } else {
                    config.busy_weight * f64::from(clock[p as usize]) / f64::from(clock_max)
                }
            };
            let mut scored: Vec<((u32, u32), f64)> = Vec::with_capacity(candidates.len());
            let mut best_score = f64::INFINITY;
            for &(p1, p2) in &candidates {
                layout.apply_swap(p1, p2);
                let d1 = decay[p1 as usize] + busy(p1);
                let d2 = decay[p2 as usize] + busy(p2);
                let score = cost.score(&window.gates, &layout, dist, d1.max(d2));
                layout.apply_swap(p1, p2); // undo
                best_score = best_score.min(score);
                scored.push(((p1, p2), score));
            }
            let front_sum = |layout: &Layout| -> u32 {
                window
                    .gates
                    .iter()
                    .filter(|g| g.layer <= 1)
                    .map(|g| u32::from(dist.get(layout.phys(g.q1), layout.phys(g.q2))))
                    .sum()
            };
            let base_front = front_sum(&layout);
            let cutoff = best_score + best_score.abs() * config.tie_epsilon + 1e-9;
            let mut best: Vec<(u32, u32)> = Vec::new();
            let mut best_key = (false, u32::MAX);
            for &((p1, p2), score) in &scored {
                if score > cutoff {
                    continue;
                }
                layout.apply_swap(p1, p2);
                let progress = front_sum(&layout) < base_front;
                layout.apply_swap(p1, p2);
                let done = clock[p1 as usize].max(clock[p2 as usize]) + 1;
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
            routed.swap(p1, p2);
            layout.apply_swap(p1, p2);
            let done = clock[p1 as usize].max(clock[p2 as usize]) + 1;
            clock[p1 as usize] = done;
            clock[p2 as usize] = done;
            clock_max = clock_max.max(done);
            decay[p1 as usize] += config.decay_delta;
            decay[p2 as usize] += config.decay_delta;
            swaps += 1;
            stall += 1;
            if stall > stall_limit {
                let &g = front
                    .iter()
                    .max_by_key(|&&g| weights.get(g as usize).copied().unwrap_or(0))
                    .expect("front non-empty");
                let (a, b) = circuit.gates()[g as usize]
                    .qubit_pair()
                    .expect("blocked gates are two-qubit");
                let (pa, pb) = (layout.phys(a), layout.phys(b));
                let path = device
                    .shortest_path(pa, pb)
                    .expect("device must be connected");
                for win in path.windows(2).take(path.len().saturating_sub(2)) {
                    routed.swap(win[0], win[1]);
                    layout.apply_swap(win[0], win[1]);
                    let done = clock[win[0] as usize].max(clock[win[1] as usize]) + 1;
                    clock[win[0] as usize] = done;
                    clock[win[1] as usize] = done;
                    clock_max = clock_max.max(done);
                    swaps += 1;
                }
                decay.fill(1.0);
                stall = 0;
            }
        }
        let final_layout = layout.as_assignment().to_vec();
        MappingResult {
            routed,
            initial_layout,
            final_layout,
            swaps,
        }
    }

    fn emit_mapped(routed: &mut Circuit, gate: &Gate, layout: &Layout) {
        let mapped = Gate {
            kind: gate.kind.clone(),
            qubits: gate.qubits.iter().map(|&q| layout.phys(q)).collect(),
            params: gate.params.clone(),
        };
        routed.push(mapped);
    }

    fn advance_clock(clock: &mut [u32], clock_max: &mut u32, gate: &Gate, layout: &Layout) {
        if gate.qubits.is_empty() {
            return;
        }
        let ready = gate
            .qubits
            .iter()
            .map(|&q| clock[layout.phys(q) as usize])
            .max()
            .expect("non-empty");
        let dur = u32::from(gate.is_scheduled());
        let done = ready + dur;
        for &q in &gate.qubits {
            clock[layout.phys(q) as usize] = done;
        }
        *clock_max = (*clock_max).max(done);
    }

    fn build_window(
        circuit: &Circuit,
        dag: &DependenceGraph,
        front: &[u32],
        indeg: &[u32],
        weights: &[u64],
        c_const: usize,
    ) -> Window {
        let mut gates: Vec<ScoredGate> = Vec::new();
        let mut front_logicals: Vec<u32> = Vec::new();
        let mut layer: Vec<u32> = vec![0; dag.n_gates()];
        let mut visited: Vec<bool> = vec![false; dag.n_gates()];
        let mut heap: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
        for &g in front {
            visited[g as usize] = true;
            heap.push(Reverse(g));
        }
        let nf = {
            let mut qs: Vec<u32> = front
                .iter()
                .filter_map(|&g| circuit.gates()[g as usize].qubit_pair())
                .flat_map(|(a, b)| [a, b])
                .collect();
            qs.sort_unstable();
            qs.dedup();
            qs.len()
        };
        let k = c_const * nf.max(1);
        let mut collected = 0usize;
        while let Some(Reverse(g)) = heap.pop() {
            let gate = &circuit.gates()[g as usize];
            let is_front = indeg[g as usize] == 0;
            let l = if is_front {
                u32::from(gate.is_two_qubit())
            } else {
                let base = dag
                    .preds(g)
                    .iter()
                    .map(|&p| layer[p as usize])
                    .max()
                    .unwrap_or(0);
                base + u32::from(gate.is_two_qubit())
            };
            layer[g as usize] = l;
            if let Some((a, b)) = gate.qubit_pair() {
                gates.push(ScoredGate {
                    q1: a,
                    q2: b,
                    omega: weights.get(g as usize).copied().unwrap_or(0),
                    layer: l,
                });
                if is_front {
                    front_logicals.push(a);
                    front_logicals.push(b);
                } else {
                    collected += 1;
                    if collected >= k {
                        break;
                    }
                }
            }
            for &s in dag.succs(g) {
                if !visited[s as usize] {
                    visited[s as usize] = true;
                    heap.push(Reverse(s));
                }
            }
        }
        front_logicals.sort_unstable();
        front_logicals.dedup();
        Window {
            gates,
            front_logicals,
        }
    }

    fn swap_candidates(
        window: &Window,
        layout: &Layout,
        device: &CouplingGraph,
    ) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = Vec::new();
        for &l in &window.front_logicals {
            let p1 = layout.phys(l);
            for &p2 in device.neighbors(p1) {
                let pair = (p1.min(p2), p1.max(p2));
                if !out.contains(&pair) {
                    out.push(pair);
                }
            }
        }
        out
    }

    // ---------------- shared RouterState of the old baselines ----------------

    struct RouterState<'a> {
        circuit: &'a Circuit,
        device: &'a CouplingGraph,
        dist: &'a DistanceMatrix,
        dag: DependenceGraph,
        indeg: Vec<u32>,
        front: Vec<u32>,
        layout: Layout,
        routed: Circuit,
        initial_layout: Vec<u32>,
        swaps: usize,
    }

    impl<'a> RouterState<'a> {
        fn new(
            circuit: &'a Circuit,
            device: &'a CouplingGraph,
            dist: &'a DistanceMatrix,
            layout: Layout,
        ) -> Self {
            let dag = DependenceGraph::new(circuit);
            let indeg = dag.in_degrees();
            let front = dag.initial_front();
            let initial_layout = layout.as_assignment().to_vec();
            RouterState {
                circuit,
                device,
                dist,
                dag,
                indeg,
                front,
                layout,
                routed: Circuit::with_capacity(device.n_qubits(), circuit.gates().len()),
                initial_layout,
                swaps: 0,
            }
        }

        fn executable(&self, g: u32) -> bool {
            match self.circuit.gates()[g as usize].qubit_pair() {
                Some((a, b)) => self
                    .device
                    .is_adjacent(self.layout.phys(a), self.layout.phys(b)),
                None => true,
            }
        }

        fn execute_ready(&mut self) -> usize {
            let mut ran = 0;
            loop {
                let mut ready: Vec<u32> = self
                    .front
                    .iter()
                    .copied()
                    .filter(|&g| self.executable(g))
                    .collect();
                if ready.is_empty() {
                    return ran;
                }
                ready.sort_unstable();
                for &g in &ready {
                    let gate = &self.circuit.gates()[g as usize];
                    let mapped = Gate {
                        kind: gate.kind.clone(),
                        qubits: gate.qubits.iter().map(|&q| self.layout.phys(q)).collect(),
                        params: gate.params.clone(),
                    };
                    self.routed.push(mapped);
                    ran += 1;
                }
                self.front.retain(|g| !ready.contains(g));
                for &g in &ready {
                    for &s in self.dag.succs(g) {
                        self.indeg[s as usize] -= 1;
                        if self.indeg[s as usize] == 0 {
                            self.front.push(s);
                        }
                    }
                }
            }
        }

        fn apply_swap(&mut self, p1: u32, p2: u32) {
            self.routed.swap(p1, p2);
            self.layout.apply_swap(p1, p2);
            self.swaps += 1;
        }

        fn blocked_front(&self) -> Vec<u32> {
            self.front
                .iter()
                .copied()
                .filter(|&g| self.circuit.gates()[g as usize].is_two_qubit())
                .collect()
        }

        fn front_physicals(&self) -> Vec<u32> {
            let mut out: Vec<u32> = self
                .blocked_front()
                .iter()
                .filter_map(|&g| self.circuit.gates()[g as usize].qubit_pair())
                .flat_map(|(a, b)| [self.layout.phys(a), self.layout.phys(b)])
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        }

        fn swap_candidates(&self) -> Vec<(u32, u32)> {
            let mut out: Vec<(u32, u32)> = Vec::new();
            for p1 in self.front_physicals() {
                for &p2 in self.device.neighbors(p1) {
                    let pair = (p1.min(p2), p1.max(p2));
                    if !out.contains(&pair) {
                        out.push(pair);
                    }
                }
            }
            out
        }

        fn distance_sum(&self, gates: &[u32]) -> f64 {
            gates
                .iter()
                .filter_map(|&g| self.circuit.gates()[g as usize].qubit_pair())
                .map(|(a, b)| self.dist.get(self.layout.phys(a), self.layout.phys(b)) as f64)
                .sum()
        }

        fn lookahead(&self, limit: usize) -> Vec<u32> {
            let mut out = Vec::with_capacity(limit);
            let mut visited = vec![false; self.dag.n_gates()];
            let mut heap: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
            for &g in &self.front {
                visited[g as usize] = true;
                heap.push(Reverse(g));
            }
            while let Some(Reverse(g)) = heap.pop() {
                let in_front = self.indeg[g as usize] == 0;
                if !in_front && self.circuit.gates()[g as usize].is_two_qubit() {
                    out.push(g);
                    if out.len() >= limit {
                        break;
                    }
                }
                for &s in self.dag.succs(g) {
                    if !visited[s as usize] {
                        visited[s as usize] = true;
                        heap.push(Reverse(s));
                    }
                }
            }
            out
        }

        fn force_route(&mut self, g: u32) {
            let (a, b) = self.circuit.gates()[g as usize]
                .qubit_pair()
                .expect("blocked gates are two-qubit");
            let (pa, pb) = (self.layout.phys(a), self.layout.phys(b));
            let path = self.device.shortest_path(pa, pb).expect("connected device");
            for win in path.windows(2).take(path.len().saturating_sub(2)) {
                self.apply_swap(win[0], win[1]);
            }
        }

        fn into_result(self) -> MappingResult {
            MappingResult {
                routed: self.routed,
                final_layout: self.layout.as_assignment().to_vec(),
                initial_layout: self.initial_layout,
                swaps: self.swaps,
            }
        }
    }

    // ---------------- SABRE ----------------

    pub fn sabre(circuit: &Circuit, device: &CouplingGraph) -> MappingResult {
        let cfg = baselines::SabreConfig::default();
        let dist = device.shared_distances();
        let layout = Layout::identity(circuit.n_qubits(), device.n_qubits());
        let mut st = RouterState::new(circuit, device, &dist, layout);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut decay = vec![1.0f64; device.n_qubits()];
        let stall_limit = 3 * dist.diameter() as usize + cfg.stall_slack;
        let mut stall = 0usize;
        let mut rounds_since_reset = 0usize;
        loop {
            if st.execute_ready() > 0 {
                decay.fill(1.0);
                stall = 0;
                rounds_since_reset = 0;
            }
            let blocked = st.blocked_front();
            if blocked.is_empty() {
                break;
            }
            let extended = st.lookahead(cfg.extended_set_size);
            let candidates = st.swap_candidates();
            let mut best: Vec<(u32, u32)> = Vec::new();
            let mut best_score = f64::INFINITY;
            for &(p1, p2) in &candidates {
                st.layout.apply_swap(p1, p2);
                let h_front = st.distance_sum(&blocked) / blocked.len() as f64;
                let h_ext = if extended.is_empty() {
                    0.0
                } else {
                    st.distance_sum(&extended) / extended.len() as f64
                };
                st.layout.apply_swap(p1, p2);
                let d = decay[p1 as usize].max(decay[p2 as usize]);
                let score = d * (h_front + cfg.extended_set_weight * h_ext);
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
            decay[p1 as usize] += cfg.decay_delta;
            decay[p2 as usize] += cfg.decay_delta;
            stall += 1;
            rounds_since_reset += 1;
            if rounds_since_reset >= cfg.decay_reset_interval {
                decay.fill(1.0);
                rounds_since_reset = 0;
            }
            if stall > stall_limit {
                let g = blocked[0];
                st.force_route(g);
                decay.fill(1.0);
                stall = 0;
            }
        }
        st.into_result()
    }

    // ---------------- Cirq greedy ----------------

    pub fn cirq(circuit: &Circuit, device: &CouplingGraph) -> MappingResult {
        let cfg = baselines::CirqConfig::default();
        let dist = device.shared_distances();
        let layout = Layout::identity(circuit.n_qubits(), device.n_qubits());
        let mut st = RouterState::new(circuit, device, &dist, layout);
        let stall_limit = 2 * dist.diameter() as usize + cfg.stall_slack;
        let mut stall = 0usize;
        loop {
            if st.execute_ready() > 0 {
                stall = 0;
            }
            let slice = st.blocked_front();
            if slice.is_empty() {
                break;
            }
            let lookahead = st.lookahead(cfg.lookahead);
            let base = st.distance_sum(&slice) + cfg.lookahead_weight * st.distance_sum(&lookahead);
            let mut best: Option<(u32, u32)> = None;
            let mut best_score = base;
            for (p1, p2) in st.swap_candidates() {
                st.layout.apply_swap(p1, p2);
                let score =
                    st.distance_sum(&slice) + cfg.lookahead_weight * st.distance_sum(&lookahead);
                st.layout.apply_swap(p1, p2);
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
                    st.force_route(slice[0]);
                    stall = 0;
                }
            }
        }
        st.into_result()
    }

    // ---------------- tket LexiRoute ----------------

    pub fn tket(circuit: &Circuit, device: &CouplingGraph) -> MappingResult {
        let cfg = baselines::TketConfig::default();
        let dist = device.shared_distances();
        let layout = Layout::identity(circuit.n_qubits(), device.n_qubits());
        let mut st = RouterState::new(circuit, device, &dist, layout);
        let stall_limit = 2 * dist.diameter() as usize + cfg.stall_slack;
        let mut stall = 0usize;
        let build_slices = |st: &RouterState<'_>, front: &[u32]| -> Vec<Vec<u32>> {
            let mut slices: Vec<Vec<u32>> = vec![front.to_vec()];
            let budget = cfg.slice_width * (cfg.depth_limit - 1).max(1);
            let upcoming = st.lookahead(budget);
            let mut level: HashMap<u32, usize> = front.iter().map(|&g| (g, 0usize)).collect();
            for &g in &upcoming {
                let l = st
                    .dag
                    .preds(g)
                    .iter()
                    .filter_map(|p| level.get(p))
                    .max()
                    .map_or(1, |&m| m + 1);
                level.insert(g, l);
                if l < cfg.depth_limit {
                    if slices.len() <= l {
                        slices.resize(l + 1, Vec::new());
                    }
                    if slices[l].len() < cfg.slice_width {
                        slices[l].push(g);
                    }
                }
            }
            slices
        };
        let lexi_key = |st: &RouterState<'_>, slices: &[Vec<u32>]| -> Vec<u16> {
            let mut key = Vec::new();
            for slice in slices {
                let mut ds: Vec<u16> = slice
                    .iter()
                    .filter_map(|&g| st.circuit.gates()[g as usize].qubit_pair())
                    .map(|(a, b)| st.dist.get(st.layout.phys(a), st.layout.phys(b)))
                    .collect();
                ds.sort_unstable_by(|a, b| b.cmp(a));
                key.extend(ds);
                key.push(0);
            }
            key
        };
        loop {
            if st.execute_ready() > 0 {
                stall = 0;
            }
            let front = st.blocked_front();
            if front.is_empty() {
                break;
            }
            let slices = build_slices(&st, &front);
            let mut best: Option<((u32, u32), Vec<u16>)> = None;
            for (p1, p2) in st.swap_candidates() {
                st.layout.apply_swap(p1, p2);
                let key = lexi_key(&st, &slices);
                st.layout.apply_swap(p1, p2);
                match &best {
                    Some((_, k)) if key >= *k => {}
                    _ => best = Some(((p1, p2), key)),
                }
            }
            let baseline = lexi_key(&st, &slices);
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
        st.into_result()
    }

    // ---------------- QMAP A* ----------------

    type AStarNode = (Vec<u32>, usize, (u32, u32), u32);

    pub fn qmap(circuit: &Circuit, device: &CouplingGraph) -> MappingResult {
        let cfg = baselines::QmapConfig::default();
        let dist = device.shared_distances();
        let layout = Layout::identity(circuit.n_qubits(), device.n_qubits());
        let mut st = RouterState::new(circuit, device, &dist, layout);
        loop {
            st.execute_ready();
            let layer = st.blocked_front();
            if layer.is_empty() {
                break;
            }
            let mut pairs: Vec<(u32, u32)> = layer
                .iter()
                .filter_map(|&g| st.circuit.gates()[g as usize].qubit_pair())
                .collect();
            pairs.sort_by_key(|&(a, b)| st.dist.get(st.layout.phys(a), st.layout.phys(b)));
            pairs.truncate(cfg.max_layer_pairs);
            match astar_swaps(&st, &pairs, &cfg) {
                Some(swaps) => {
                    for (p1, p2) in swaps {
                        st.apply_swap(p1, p2);
                    }
                }
                None => {
                    st.force_route(layer[0]);
                }
            }
        }
        st.into_result()
    }

    fn astar_swaps(
        st: &RouterState<'_>,
        pairs: &[(u32, u32)],
        config: &baselines::QmapConfig,
    ) -> Option<Vec<(u32, u32)>> {
        let max_expansions = config.max_expansions;
        let mut logicals: Vec<u32> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        logicals.sort_unstable();
        logicals.dedup();
        let slot_of: HashMap<u32, usize> =
            logicals.iter().enumerate().map(|(i, &l)| (l, i)).collect();
        let pair_slots: Vec<(usize, usize)> = pairs
            .iter()
            .map(|&(a, b)| (slot_of[&a], slot_of[&b]))
            .collect();
        let start: Vec<u32> = logicals.iter().map(|&l| st.layout.phys(l)).collect();
        let h = |pos: &[u32]| -> u32 {
            let raw: u32 = pair_slots
                .iter()
                .map(|&(i, j)| (st.dist.get(pos[i], pos[j]) as u32).saturating_sub(1))
                .sum();
            (raw as f64 * config.heuristic_weight) as u32
        };
        let goal = |pos: &[u32]| {
            pair_slots
                .iter()
                .all(|&(i, j)| st.device.is_adjacent(pos[i], pos[j]))
        };
        if goal(&start) {
            return Some(Vec::new());
        }
        let mut nodes: Vec<AStarNode> = vec![(start.clone(), usize::MAX, (0, 0), 0)];
        let mut best_g: HashMap<Vec<u32>, u32> = HashMap::from([(start.clone(), 0)]);
        let mut open: BinaryHeap<Reverse<(u32, u32, usize)>> = BinaryHeap::new();
        open.push(Reverse((h(&start), 0, 0)));
        let mut expansions = 0usize;
        while let Some(Reverse((_f, g, id))) = open.pop() {
            let (pos, _, _, node_g) = nodes[id].clone();
            if node_g != g {
                continue;
            }
            if goal(&pos) {
                let mut swaps = Vec::new();
                let mut cur = id;
                while nodes[cur].1 != usize::MAX {
                    swaps.push(nodes[cur].2);
                    cur = nodes[cur].1;
                }
                swaps.reverse();
                return Some(swaps);
            }
            expansions += 1;
            if expansions > max_expansions {
                return None;
            }
            let mut cand: Vec<(u32, u32)> = Vec::new();
            for &p in pos.iter() {
                for &q in st.device.neighbors(p) {
                    let pair = (p.min(q), p.max(q));
                    if !cand.contains(&pair) {
                        cand.push(pair);
                    }
                }
            }
            for (p1, p2) in cand {
                let mut next = pos.clone();
                for v in next.iter_mut() {
                    if *v == p1 {
                        *v = p2;
                    } else if *v == p2 {
                        *v = p1;
                    }
                }
                let ng = g + 1;
                if best_g.get(&next).is_none_or(|&old| ng < old) {
                    best_g.insert(next.clone(), ng);
                    let nh = h(&next);
                    let nid = nodes.len();
                    nodes.push((next, id, (p1, p2), ng));
                    open.push(Reverse((ng + nh, ng, nid)));
                }
            }
        }
        None
    }
}

/// The differential-suite roster: 2 depths × 2 seeds of QUEKO traffic for
/// a 16-qubit Aspen-style device.
fn queko_grid() -> Vec<(String, Circuit)> {
    let gen_device = backends::aspen16();
    let mut out = Vec::new();
    for depth in [30, 60] {
        for seed in 0..2u64 {
            let bench = queko::QuekoSpec::new(&gen_device, depth)
                .seed(seed)
                .generate();
            out.push((format!("queko16-d{depth}-s{seed}"), bench.circuit));
        }
    }
    out
}

fn devices() -> Vec<CouplingGraph> {
    vec![
        backends::sherbrooke(),
        backends::ankaa3(),
        backends::king_grid(5, 5),
    ]
}

type ReferenceFn = fn(&Circuit, &CouplingGraph) -> qlosure::MappingResult;

/// (name, frozen reference, pipeline-composed mapper) triples.
fn roster() -> Vec<(&'static str, ReferenceFn, Box<dyn Mapper + Send + Sync>)> {
    vec![
        (
            "qlosure",
            reference::qlosure as ReferenceFn,
            Box::new(qlosure::QlosureMapper::default()),
        ),
        (
            "sabre",
            reference::sabre as ReferenceFn,
            Box::new(baselines::SabreMapper::default()),
        ),
        (
            "qmap",
            reference::qmap as ReferenceFn,
            Box::new(baselines::QmapMapper::default()),
        ),
        (
            "cirq",
            reference::cirq as ReferenceFn,
            Box::new(baselines::CirqMapper::default()),
        ),
        (
            "tket",
            reference::tket as ReferenceFn,
            Box::new(baselines::TketMapper::default()),
        ),
    ]
}

#[test]
fn pipeline_mappers_match_the_frozen_reference_bit_for_bit() {
    for device in devices() {
        for (label, circuit) in queko_grid() {
            for (name, reference, mapper) in roster() {
                let expected = reference(&circuit, &device);
                let got = mapper.map(&circuit, &device);
                assert_eq!(
                    got,
                    expected,
                    "{name} diverged from the pre-refactor reference on {label}/{}",
                    device.name()
                );
                // The pipeline form is the same computation.
                let outcome = mapper
                    .pipeline()
                    .expect("all shipped mappers are pipeline-based")
                    .run(&circuit, &device)
                    .unwrap();
                assert_eq!(
                    outcome.result,
                    expected,
                    "{name} pipeline outcome diverged on {label}/{}",
                    device.name()
                );
            }
        }
    }
}

#[test]
fn engine_batches_match_the_frozen_reference_at_1_and_4_threads() {
    let device = Arc::new(backends::ankaa3());
    // Reference results, computed sequentially with the frozen code.
    let mut expected = Vec::new();
    let mut jobs = Vec::new();
    for (label, circuit) in queko_grid() {
        let circuit = Arc::new(circuit);
        for (name, reference, mapper) in roster() {
            expected.push(reference(&circuit, &device));
            jobs.push(MapJob {
                label: format!("{label}-{name}"),
                circuit: circuit.clone(),
                device: device.clone(),
                mapper: Arc::from(mapper),
            });
        }
    }
    for threads in [1usize, 4] {
        let report = BatchEngine::with_threads(threads).run_jobs(jobs.clone());
        assert_eq!(report.jobs.len(), expected.len());
        for (job, want) in report.jobs.iter().zip(&expected) {
            assert_eq!(
                job.result, *want,
                "{} diverged from the frozen reference at {threads} thread(s)",
                job.label
            );
        }
    }
}

#[test]
fn hier_shared_memo_matches_sequential_at_1_and_4_threads() {
    // Batch workers race on the process-wide hier plan memo: whichever
    // worker computes a plan first, the others reuse it. Replay always
    // looks plans up by their true key, and a plan is a pure function of
    // that key, so at every worker count the routed bytes must equal a
    // plain sequential run.
    let device = Arc::new(backends::square_grid(8, 8));
    let gen_device = backends::square_grid(8, 8);
    let mapper = hier::HierMapper::with_budget(16);
    let mut circuits = Vec::new();
    for depth in [20, 40] {
        for seed in 0..2u64 {
            let bench = queko::QuekoSpec::new(&gen_device, depth)
                .seed(seed)
                .generate();
            circuits.push((format!("queko64-d{depth}-s{seed}"), Arc::new(bench.circuit)));
        }
    }
    let expected: Vec<_> = circuits
        .iter()
        .map(|(_, c)| mapper.map(c, &device))
        .collect();
    for threads in [1usize, 4] {
        let jobs: Vec<MapJob> = circuits
            .iter()
            .map(|(label, circuit)| MapJob {
                label: label.clone(),
                circuit: circuit.clone(),
                device: device.clone(),
                mapper: Arc::new(mapper.clone()),
            })
            .collect();
        let report = BatchEngine::with_threads(threads).run_jobs(jobs);
        for (job, want) in report.jobs.iter().zip(&expected) {
            assert_eq!(
                job.result, *want,
                "hier {} diverged from the sequential routing at {threads} thread(s)",
                job.label
            );
        }
    }
}

#[test]
fn qlosure_matches_reference_on_lookahead_truncating_shapes() {
    // Regression for the §V-D candidate base: a long chain of repeated
    // cx(a, b) ahead of independent far pairs pushes the look-ahead
    // budget `k` under the chain length, so the window walk breaks
    // before popping the high-index front gates — their operands must
    // NOT contribute SWAP candidates (the pre-refactor behavior). The
    // QUEKO roster never exercises this shape; this seeded family does.
    let device = backends::ring(12);
    let mapper = qlosure::QlosureMapper::default();
    for seed in 0..400u64 {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = |m: u64| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) % m) as u32
        };
        let mut c = Circuit::new(12);
        let a = next(12);
        let mut b = next(12);
        if a == b {
            b = (b + 1) % 12;
        }
        let reps = 8 + next(21);
        for _ in 0..reps {
            c.cx(a, b);
        }
        for _ in 0..3 {
            let x = next(12);
            let y = next(12);
            if x != y && ![a, b].contains(&x) && ![a, b].contains(&y) {
                c.cx(x, y);
            }
        }
        let expected = reference::qlosure(&c, &device);
        let got = mapper.map(&c, &device);
        assert_eq!(got, expected, "seed {seed} diverged from the reference");
    }
}

#[test]
fn qlosure_matches_reference_on_the_queko54_smoke_workload() {
    // The smoke/bench workload (queko-bss-54qbt d100 on Sherbrooke) does
    // hit the look-ahead truncation path; pin it to the frozen reference.
    let gen_device = backends::sycamore54();
    let device = backends::sherbrooke();
    let bench = queko::QuekoSpec::new(&gen_device, 100).seed(0).generate();
    let expected = reference::qlosure(&bench.circuit, &device);
    let got = qlosure::QlosureMapper::default().map(&bench.circuit, &device);
    assert_eq!(got, expected);
}
