//! The shared incremental routing state ([`RoutingState`]).
//!
//! Every routing pass in the workspace — Qlosure and the four baseline
//! reimplementations — drives the same mutable state machine: a front
//! layer of dependence-ready gates, a logical↔physical [`Layout`], the
//! routed output circuit, per-physical-qubit decay and schedule-clock
//! tables, and the candidate-SWAP frontier. `RoutingState` maintains all
//! of it **incrementally**: executing a batch of ready gates or applying a
//! SWAP updates the affected entries in place, instead of recomputing the
//! front layer, candidate set or clocks from scratch every step.
//! [`RoutingState::speculate_swap`] scores a SWAP on the layout alone and
//! takes it back.
//!
//! # The walk over pending gates
//!
//! [`RoutingState::pending`] yields the unexecuted gates in index order.
//! Index order is a topological order, and every unexecuted gate outside
//! the front has an unexecuted predecessor with a smaller index, so this
//! is the order a topological walk from the front would take, and its
//! first gate is always a front gate. A gate is executed iff its
//! in-degree is 0 and it is not in the front; a cursor that only
//! [`RoutingState::execute_ready`] advances starts the walk at the first
//! unexecuted gate. The Qlosure look-ahead window (§V-C), the baselines'
//! [`RoutingState::lookahead`] and the hierarchical mapper's fragment scan
//! all read the routing state through this one walk.
//!
//! # Ready rechecks
//!
//! [`RoutingState::execute_ready`] tests only the gates on its `recheck`
//! list, not the whole front. The invariant: a front gate that is not on
//! the list was unexecutable when the last call ended, and none of its
//! qubits has moved since, so it is still unexecutable. A gate joins the
//! list when it enters the front, and [`RoutingState::apply_swap`] adds
//! the front gates of the two logical qubits it moves. It finds them in
//! `front_of`, which relies on each logical qubit having at most one front
//! gate: the [`DependenceGraph`] joins every two consecutive uses of a
//! qubit. [`RoutingState::speculate_swap`] restores the layout it changes,
//! so it adds nothing.

use crate::bits::BitVec;
use crate::layout::Layout;
use crate::MappingResult;
use circuit::{Circuit, DependenceGraph, Gate};
use topology::{CouplingGraph, DistanceMatrix};

/// `front_of`'s entry for a logical qubit with no two-qubit front gate.
const NO_GATE: u32 = u32::MAX;

/// A comparable snapshot of everything [`RoutingState`] mutates — used to
/// assert that speculation leaves the state exactly as it was. Floats are
/// captured as bit patterns so the comparison is exact, not approximate.
#[derive(Clone, Debug, PartialEq)]
pub struct StateFingerprint {
    front: Vec<u32>,
    indeg: Vec<u32>,
    assignment: Vec<u32>,
    routed: Vec<Gate>,
    swaps: usize,
    clock: Vec<u32>,
    clock_max: u32,
    decay_bits: Vec<u64>,
}

/// Mutable state of a swap-until-free routing loop, shared by every
/// routing pass in the workspace: front layer, layout, routed output,
/// decay/clock tables and the candidate-SWAP frontier, all maintained
/// incrementally.
pub struct RoutingState<'a> {
    circuit: &'a Circuit,
    device: &'a CouplingGraph,
    dist: &'a DistanceMatrix,
    dag: DependenceGraph,
    indeg: Vec<u32>,
    front: Vec<u32>,
    /// Bumped on every front-layer mutation; cache-invalidation signal for
    /// the candidate frontier and for pass-local look-ahead caches.
    front_version: u64,
    layout: Layout,
    routed: Circuit,
    initial_layout: Vec<u32>,
    swaps: usize,
    decay: Vec<f64>,
    clock: Vec<u32>,
    clock_max: u32,
    /// Front-membership bitset, kept in lockstep with `front`: bit `g` is
    /// set iff `g` is in the front layer.
    front_bits: BitVec,
    /// The smallest unexecuted gate index (`n_gates` once done), where
    /// [`RoutingState::pending`] starts.
    first_pending: u32,
    /// Each logical qubit's two-qubit front gate, or [`NO_GATE`].
    front_of: Vec<u32>,
    /// The front gates `execute_ready` must test (see the module docs).
    recheck: Vec<u32>,
    // --- reusable scratch (the incremental part) ---
    /// Ready-gate collection buffer for `execute_ready`.
    ready_buf: Vec<u32>,
    /// Per-gate marker bitset backing the O(front) retain in
    /// `execute_ready`.
    gate_mark: BitVec,
    /// Cached sorted-deduplicated logical operands of the two-qubit front
    /// gates; valid while `fl_version == front_version`.
    fl_cache: Vec<u32>,
    fl_version: u64,
    /// Per-directed-edge stamps for duplicate-free candidate enumeration
    /// (a canonical pair `(lo, hi)` stamps the `lo -> hi` entry).
    edge_stamp: Vec<u64>,
    edge_epoch: u64,
}

impl<'a> RoutingState<'a> {
    /// Fresh state over `circuit`, `device` and the device's distance
    /// matrix `dist`, starting from `layout`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit needs more qubits than the device offers.
    pub fn new(
        circuit: &'a Circuit,
        device: &'a CouplingGraph,
        dist: &'a DistanceMatrix,
        layout: Layout,
    ) -> Self {
        assert!(
            circuit.n_qubits() <= device.n_qubits(),
            "circuit does not fit the device"
        );
        let dag = DependenceGraph::new(circuit);
        let indeg = dag.in_degrees();
        let front = dag.initial_front();
        let initial_layout = layout.as_assignment().to_vec();
        let n_gates = circuit.gates().len();
        let mut front_bits = BitVec::new(n_gates);
        let mut front_of = vec![NO_GATE; initial_layout.len()];
        for &g in &front {
            front_bits.set(g as usize);
            if let Some((a, b)) = circuit.gates()[g as usize].qubit_pair() {
                front_of[a as usize] = g;
                front_of[b as usize] = g;
            }
        }
        let recheck = front.clone();
        RoutingState {
            circuit,
            device,
            dist,
            dag,
            indeg,
            front,
            front_version: 1,
            layout,
            routed: Circuit::with_capacity(device.n_qubits(), n_gates + n_gates / 4),
            initial_layout,
            swaps: 0,
            decay: vec![1.0; device.n_qubits()],
            clock: vec![0; device.n_qubits()],
            clock_max: 0,
            front_bits,
            first_pending: 0,
            front_of,
            recheck,
            ready_buf: Vec::new(),
            gate_mark: BitVec::new(n_gates),
            fl_cache: Vec::new(),
            fl_version: 0,
            edge_stamp: vec![0; device.n_directed_edges()],
            edge_epoch: 0,
        }
    }

    // --- read-only accessors ---

    /// The logical circuit being routed.
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// The target coupling graph.
    pub fn device(&self) -> &CouplingGraph {
        self.device
    }

    /// The distance matrix routing distances come from.
    pub fn dist(&self) -> &DistanceMatrix {
        self.dist
    }

    /// The dependence DAG of the circuit.
    pub fn dag(&self) -> &DependenceGraph {
        &self.dag
    }

    /// Remaining unexecuted-predecessor count of gate `g`.
    pub fn in_degree(&self, g: u32) -> u32 {
        self.indeg[g as usize]
    }

    /// The current logical↔physical layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The front layer (dependence-ready gates), in maintenance order.
    pub fn front(&self) -> &[u32] {
        &self.front
    }

    /// Monotone counter bumped on every front-layer mutation — compare
    /// against a remembered value to invalidate pass-local caches.
    pub fn front_version(&self) -> u64 {
        self.front_version
    }

    /// Whether gate `g` is in the front layer — a single bit test against
    /// the front-membership bitset, for hot-path walks that would
    /// otherwise scan the front vector or load in-degrees.
    pub fn in_front(&self, g: u32) -> bool {
        self.front_bits.get(g as usize)
    }

    /// Whether gate `g` has run: no unexecuted predecessor is left and it
    /// is not waiting in the front.
    pub(crate) fn executed(&self, g: u32) -> bool {
        self.indeg[g as usize] == 0 && !self.in_front(g)
    }

    /// The unexecuted gates in index order, which is topological order;
    /// the first is always a front gate (see the module docs).
    pub fn pending(&self) -> impl Iterator<Item = u32> + '_ {
        (self.first_pending..self.indeg.len() as u32).filter(move |&g| !self.executed(g))
    }

    /// Whether every gate has been routed.
    pub fn is_done(&self) -> bool {
        self.front.is_empty()
    }

    /// SWAPs inserted so far.
    pub fn swaps(&self) -> usize {
        self.swaps
    }

    /// Gates emitted into the routed circuit so far.
    pub fn routed_len(&self) -> usize {
        self.routed.gates().len()
    }

    /// Decay of physical qubit `p` (starts at 1.0).
    pub fn decay(&self, p: u32) -> f64 {
        self.decay[p as usize]
    }

    /// Schedule clock of physical qubit `p`.
    pub fn clock(&self, p: u32) -> u32 {
        self.clock[p as usize]
    }

    /// Maximum over all schedule clocks.
    pub fn clock_max(&self) -> u32 {
        self.clock_max
    }

    /// The cycle a SWAP on `(p1, p2)` would finish at, under the evolving
    /// schedule: one past the later of the two qubit clocks.
    pub fn swap_completion(&self, p1: u32, p2: u32) -> u32 {
        self.clock[p1 as usize].max(self.clock[p2 as usize]) + 1
    }

    /// Whether gate `g` is executable under the current layout.
    pub fn executable(&self, g: u32) -> bool {
        match self.circuit.gates()[g as usize].qubit_pair() {
            Some((a, b)) => self
                .device
                .is_adjacent(self.layout.phys(a), self.layout.phys(b)),
            None => true,
        }
    }

    /// The blocked two-qubit gates of the front layer.
    pub fn blocked_front(&self) -> Vec<u32> {
        self.front
            .iter()
            .copied()
            .filter(|&g| self.circuit.gates()[g as usize].is_two_qubit())
            .collect()
    }

    /// Sum of current physical distances of the given gates.
    pub fn distance_sum(&self, gates: &[u32]) -> f64 {
        gates
            .iter()
            .filter_map(|&g| self.circuit.gates()[g as usize].qubit_pair())
            .map(|(a, b)| self.dist.get(self.layout.phys(a), self.layout.phys(b)) as f64)
            .sum()
    }

    /// The next `limit` upcoming two-qubit gates beyond the front, in
    /// topological (program) order.
    pub fn lookahead(&self, limit: usize) -> Vec<u32> {
        self.pending()
            .filter(|&g| !self.in_front(g) && self.circuit.gates()[g as usize].is_two_qubit())
            .take(limit)
            .collect()
    }

    // --- candidate frontier (incrementally cached on the front layer) ---

    /// Sorted, deduplicated logical operands of the two-qubit front gates.
    /// Cached across SWAP steps — only a front-layer change recomputes it.
    pub fn front_logicals(&mut self) -> &[u32] {
        if self.fl_version != self.front_version {
            self.fl_cache.clear();
            for &g in &self.front {
                if let Some((a, b)) = self.circuit.gates()[g as usize].qubit_pair() {
                    self.fl_cache.push(a);
                    self.fl_cache.push(b);
                }
            }
            self.fl_cache.sort_unstable();
            self.fl_cache.dedup();
            self.fl_version = self.front_version;
        }
        &self.fl_cache
    }

    /// Sorted, deduplicated physical qubits hosting operands of blocked
    /// front gates.
    pub fn front_physicals(&mut self) -> Vec<u32> {
        self.front_logicals();
        let mut out: Vec<u32> = self.fl_cache.iter().map(|&l| self.layout.phys(l)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Candidate SWAP edges incident to the blocked front, enumerated in
    /// **sorted-physical-qubit** order (deduplicated, first occurrence
    /// wins) — the ordering the baseline mappers score in.
    pub fn swap_candidates(&mut self) -> Vec<(u32, u32)> {
        let physicals = self.front_physicals();
        self.edge_epoch += 1;
        let mut out: Vec<(u32, u32)> = Vec::new();
        for p1 in physicals {
            push_incident_edges(
                self.device,
                p1,
                self.edge_epoch,
                &mut self.edge_stamp,
                &mut out,
            );
        }
        out
    }

    // --- mutations ---

    /// Executes every currently executable front gate, **cascading**:
    /// freed successors that are themselves executable run in the same
    /// call. Ready gates execute in ascending index order per wave.
    /// Returns the number of gates executed.
    ///
    /// Only the gates on the recheck list are tested (see the module
    /// docs); the rest of the front is known to be blocked.
    pub fn execute_ready(&mut self) -> usize {
        let mut ran = 0;
        loop {
            let mut ready = std::mem::take(&mut self.ready_buf);
            ready.clear();
            ready.extend(self.recheck.iter().copied().filter(|&g| self.executable(g)));
            self.recheck.clear();
            if ready.is_empty() {
                self.ready_buf = ready;
                break;
            }
            ready.sort_unstable();
            ready.dedup();
            for &g in &ready {
                debug_assert!(self.in_front(g), "rechecked gate {g} is not in the front");
                let gate = &self.circuit.gates()[g as usize];
                self.emit_mapped(gate);
                self.advance_clock(g);
                if let Some((a, b)) = gate.qubit_pair() {
                    self.front_of[a as usize] = NO_GATE;
                    self.front_of[b as usize] = NO_GATE;
                }
                self.gate_mark.set(g as usize);
                self.front_bits.clear(g as usize);
            }
            ran += ready.len();
            let mark = &self.gate_mark;
            self.front.retain(|&g| !mark.get(g as usize));
            for &g in &ready {
                self.gate_mark.clear(g as usize);
                for &s in self.dag.succs(g) {
                    self.indeg[s as usize] -= 1;
                    if self.indeg[s as usize] == 0 {
                        self.front.push(s);
                        self.front_bits.set(s as usize);
                        if let Some((a, b)) = self.circuit.gates()[s as usize].qubit_pair() {
                            self.front_of[a as usize] = s;
                            self.front_of[b as usize] = s;
                        }
                        self.recheck.push(s);
                    }
                }
            }
            self.front_version += 1;
            self.ready_buf = ready;
        }
        let n_gates = self.indeg.len() as u32;
        while self.first_pending < n_gates && self.executed(self.first_pending) {
            self.first_pending += 1;
        }
        ran
    }

    /// Emits a SWAP on the coupled pair `(p1, p2)`: appends the gate,
    /// updates the layout, advances both schedule clocks to the swap's
    /// completion cycle and counts it. The front gates of the two moved
    /// logical qubits go on the recheck list.
    pub fn apply_swap(&mut self, p1: u32, p2: u32) {
        debug_assert!(self.device.is_adjacent(p1, p2), "swap on uncoupled pair");
        self.routed.swap(p1, p2);
        self.layout.apply_swap(p1, p2);
        for p in [p1, p2] {
            if let Some(l) = self.layout.logical(p) {
                let g = self.front_of[l as usize];
                if g != NO_GATE {
                    self.recheck.push(g);
                }
            }
        }
        let done = self.clock[p1 as usize].max(self.clock[p2 as usize]) + 1;
        self.clock[p1 as usize] = done;
        self.clock[p2 as usize] = done;
        self.clock_max = self.clock_max.max(done);
        self.swaps += 1;
    }

    /// Applies `(p1, p2)` to the **layout only**, evaluates `f` on the
    /// speculative state, and undoes the layout change — the cheap path
    /// for scoring a candidate SWAP without touching clocks or the routed
    /// circuit.
    pub fn speculate_swap<R>(&mut self, p1: u32, p2: u32, f: impl FnOnce(&Self) -> R) -> R {
        self.layout.apply_swap(p1, p2);
        let r = f(self);
        self.layout.apply_swap(p1, p2);
        r
    }

    /// Routes the front gate `g` directly along a shortest path (forced
    /// progress for heuristics that stall): the device's BFS path, which
    /// [`CouplingGraph::hop_path`] reads off a hop-count matrix.
    pub fn force_route(&mut self, g: u32) {
        let (a, b) = self.circuit.gates()[g as usize]
            .qubit_pair()
            .expect("blocked gates are two-qubit");
        let (pa, pb) = (self.layout.phys(a), self.layout.phys(b));
        let path = self
            .device
            .hop_path(self.dist, pa, pb)
            .expect("connected device");
        for win in path.windows(2).take(path.len().saturating_sub(2)) {
            self.apply_swap(win[0], win[1]);
        }
    }

    // --- decay table ---

    /// Resets every decay entry to 1.0.
    pub fn reset_decay(&mut self) {
        self.decay.fill(1.0);
    }

    /// Adds `delta` to the decay of physical qubit `p`.
    pub fn bump_decay(&mut self, p: u32, delta: f64) {
        self.decay[p as usize] += delta;
    }

    // --- finish / inspect ---

    /// Finishes the loop, producing the result.
    ///
    /// Debug builds assert that routing is complete.
    pub fn into_result(self) -> MappingResult {
        debug_assert!(self.front.is_empty(), "routing ended with pending gates");
        MappingResult {
            routed: self.routed,
            final_layout: self.layout.as_assignment().to_vec(),
            initial_layout: self.initial_layout,
            swaps: self.swaps,
        }
    }

    /// Exact snapshot of the mutable state, for checking that speculation
    /// leaves no trace.
    pub fn fingerprint(&self) -> StateFingerprint {
        StateFingerprint {
            front: self.front.clone(),
            indeg: self.indeg.clone(),
            assignment: self.layout.as_assignment().to_vec(),
            routed: self.routed.gates().to_vec(),
            swaps: self.swaps,
            clock: self.clock.clone(),
            clock_max: self.clock_max,
            decay_bits: self.decay.iter().map(|d| d.to_bits()).collect(),
        }
    }

    /// Emits `gate` with operands translated through the layout.
    fn emit_mapped(&mut self, gate: &Gate) {
        let mapped = Gate {
            kind: gate.kind.clone(),
            qubits: gate.qubits.iter().map(|&q| self.layout.phys(q)).collect(),
            params: gate.params.clone(),
        };
        self.routed.push(mapped);
    }

    /// Advances the schedule clocks for executed gate `g`.
    fn advance_clock(&mut self, g: u32) {
        let gate = &self.circuit.gates()[g as usize];
        if gate.qubits.is_empty() {
            return;
        }
        let ready = gate
            .qubits
            .iter()
            .map(|&q| self.clock[self.layout.phys(q) as usize])
            .max()
            .expect("non-empty");
        let dur = u32::from(gate.is_scheduled());
        let done = ready + dur;
        for &q in &gate.qubits {
            self.clock[self.layout.phys(q) as usize] = done;
        }
        self.clock_max = self.clock_max.max(done);
    }
}

/// Appends every coupling edge incident to `p1` as a canonical `(lo, hi)`
/// pair, skipping pairs already stamped with `epoch` — the O(1) dedup
/// behind the candidate frontiers. Each canonical pair stamps its
/// `lo -> hi` directed CSR entry, so one epoch bump starts a fresh set
/// without clearing the stamp table.
pub(crate) fn push_incident_edges(
    device: &CouplingGraph,
    p1: u32,
    epoch: u64,
    stamp: &mut [u64],
    out: &mut Vec<(u32, u32)>,
) {
    for &p2 in device.neighbors(p1) {
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let slot = device.edge_index(lo, hi).expect("coupled pair");
        if stamp[slot] != epoch {
            stamp[slot] = epoch;
            out.push((lo, hi));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::backends;

    #[test]
    fn execute_ready_cascades_through_single_qubit_gates() {
        let device = backends::line(3);
        let dist = device.distances();
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.h(1);
        c.cx(1, 2);
        let layout = Layout::identity(3, 3);
        let mut st = RoutingState::new(&c, &device, &dist, layout);
        assert_eq!(st.execute_ready(), 4);
        assert!(st.is_done());
        assert_eq!(st.routed_len(), 4);
    }

    #[test]
    fn blocked_front_and_candidates() {
        let device = backends::line(4);
        let dist = device.distances();
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let mut st = RoutingState::new(&c, &device, &dist, Layout::identity(4, 4));
        assert_eq!(st.execute_ready(), 0);
        assert_eq!(st.blocked_front(), vec![0]);
        assert_eq!(st.front_physicals(), vec![0, 3]);
        assert_eq!(st.front_logicals(), &[0, 3]);
        let cands = st.swap_candidates();
        assert!(cands.contains(&(0, 1)) && cands.contains(&(2, 3)));
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn force_route_unblocks() {
        let device = backends::line(5);
        let dist = device.distances();
        let mut c = Circuit::new(5);
        c.cx(0, 4);
        let mut st = RoutingState::new(&c, &device, &dist, Layout::identity(5, 5));
        st.execute_ready();
        st.force_route(0);
        assert_eq!(st.execute_ready(), 1);
        assert!(st.is_done());
        assert_eq!(st.swaps(), 3);
    }

    #[test]
    fn lookahead_respects_topological_order() {
        let device = backends::line(6);
        let dist = device.distances();
        let mut c = Circuit::new(6);
        c.cx(0, 5); // blocked
        c.cx(5, 1);
        c.cx(1, 2);
        c.cx(2, 3);
        let mut st = RoutingState::new(&c, &device, &dist, Layout::identity(6, 6));
        st.execute_ready();
        let la = st.lookahead(2);
        assert_eq!(la, vec![1, 2]);
    }

    #[test]
    fn pending_skips_executed_gates_and_starts_at_a_front_gate() {
        let device = backends::line(4);
        let dist = device.distances();
        let mut c = Circuit::new(4);
        c.h(0);
        c.cx(0, 3); // blocked
        c.h(1);
        c.cx(1, 2);
        c.cx(0, 2); // waits on gates 1 and 3
        let mut st = RoutingState::new(&c, &device, &dist, Layout::identity(4, 4));
        assert_eq!(st.pending().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(st.execute_ready(), 3);
        assert_eq!(st.pending().collect::<Vec<_>>(), vec![1, 4]);
        assert!(st.in_front(1) && !st.executed(1));
        assert!(st.executed(0) && st.executed(2) && st.executed(3));
        assert!(!st.executed(4) && !st.in_front(4));
        st.force_route(1);
        assert_eq!(st.execute_ready(), 2);
        assert_eq!(st.pending().next(), None);
        assert!(st.is_done());
    }

    #[test]
    fn a_swap_unblocks_a_gate_that_entered_the_front_calls_earlier() {
        let device = backends::line(8);
        let dist = device.distances();
        let mut c = Circuit::new(8);
        c.h(0);
        c.cx(0, 2); // enters the front when h(0) runs, blocked
        c.cx(4, 7); // blocked
        let mut st = RoutingState::new(&c, &device, &dist, Layout::identity(8, 8));
        assert_eq!(st.execute_ready(), 1);
        assert!(st.in_front(1) && st.in_front(2));
        // Swaps that move logical 7 next to logical 4 run cx(4, 7) ...
        st.apply_swap(5, 6);
        assert_eq!(st.execute_ready(), 0);
        st.apply_swap(6, 7);
        assert_eq!(st.execute_ready(), 0);
        st.apply_swap(5, 6);
        assert_eq!(st.execute_ready(), 1);
        assert!(st.in_front(1) && !st.in_front(2));
        // ... and the swap that brings logical 2 next to logical 0 runs
        // cx(0, 2), four calls after it entered the front.
        st.apply_swap(1, 2);
        assert_eq!(st.execute_ready(), 1);
        assert!(st.is_done());
    }

    #[test]
    fn speculate_swap_leaves_state_untouched() {
        let device = backends::line(4);
        let dist = device.distances();
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let mut st = RoutingState::new(&c, &device, &dist, Layout::identity(4, 4));
        st.execute_ready();
        let before = st.fingerprint();
        let d = st.speculate_swap(0, 1, |s| {
            s.dist().get(s.layout().phys(0), s.layout().phys(3))
        });
        assert_eq!(d, 2); // one hop closer under the speculative layout
        assert_eq!(st.fingerprint(), before);
    }

    #[test]
    fn front_logicals_cache_tracks_front_changes() {
        let device = backends::line(5);
        let dist = device.distances();
        let mut c = Circuit::new(5);
        c.cx(0, 4);
        c.cx(1, 2);
        let mut st = RoutingState::new(&c, &device, &dist, Layout::identity(5, 5));
        assert_eq!(st.front_logicals(), &[0, 1, 2, 4]);
        let v = st.front_version();
        st.execute_ready(); // runs cx(1,2); cx(0,4) stays blocked
        assert!(st.front_version() > v);
        assert_eq!(st.front_logicals(), &[0, 4]);
        // A swap does not invalidate the (logical) cache.
        let v = st.front_version();
        st.apply_swap(0, 1);
        assert_eq!(st.front_version(), v);
        assert_eq!(st.front_logicals(), &[0, 4]);
    }
}
