//! The per-gate dependence DAG and transitive-successor counts.

use crate::circuit::Circuit;
use crate::gate::Gate;

/// Memory budget for the reachability rows behind
/// [`DependenceGraph::transitive_successor_counts`]. Fixed, not
/// configurable: circuits submitted over the wire reach that path too.
const ROW_BUDGET_BYTES: usize = 64 << 20;

/// Widest column block, in gates: one 1 KiB row per gate.
const MAX_BLOCK_BITS: usize = 8192;

/// The column block for a circuit of `n` gates: the widest multiple of 64
/// gates, at most [`MAX_BLOCK_BITS`], whose `n` rows fit
/// [`ROW_BUDGET_BYTES`]. That is the full 8,192 up to 65,536 gates. It
/// never drops below one 64-bit word, so past about 8.4M gates the rows
/// take 8 bytes per gate.
fn block_bits(n: usize) -> usize {
    let fitting = ROW_BUDGET_BYTES * 8 / n.max(1);
    (fitting / 64 * 64).clamp(64, MAX_BLOCK_BITS)
}

/// The dependence graph of a circuit: one node per gate, one edge for each
/// pair of *consecutive* uses of a qubit (the covering relation of the
/// paper's `Rdep`; both have the same transitive closure, which is what the
/// ω weights are computed from).
///
/// Gate indices refer to positions in [`Circuit::gates`]; program order is
/// a topological order of this DAG by construction.
#[derive(Clone, Debug)]
pub struct DependenceGraph {
    /// Predecessors of gate `g`: `pred_list[pred_start[g]..pred_start[g + 1]]`.
    pred_start: Vec<u32>,
    pred_list: Vec<u32>,
    /// Successors of gate `g`, in increasing gate order, laid out the same
    /// way.
    succ_start: Vec<u32>,
    succ_list: Vec<u32>,
}

impl DependenceGraph {
    /// Builds the dependence DAG of `circuit`.
    ///
    /// Barriers participate as ordering nodes (they sequence their operand
    /// qubits) even though they are never routed.
    pub fn new(circuit: &Circuit) -> Self {
        Self::build(circuit.n_qubits(), circuit.gates())
    }

    /// Builds the dependence DAG of the two-qubit gates of `circuit` alone:
    /// node `t` is its `t`-th interaction (the order of
    /// [`Circuit::interactions`]), and every other gate is left out.
    pub fn of_interactions(circuit: &Circuit) -> Self {
        let gates = circuit.gates().iter().filter(|g| g.is_two_qubit());
        Self::build(circuit.n_qubits(), gates)
    }

    fn build<'a>(n_qubits: usize, gates: impl IntoIterator<Item = &'a Gate>) -> Self {
        let mut pred_start = vec![0u32];
        let mut pred_list: Vec<u32> = Vec::new();
        let mut last_use: Vec<Option<u32>> = vec![None; n_qubits];
        for (i, gate) in gates.into_iter().enumerate() {
            let first = pred_list.len();
            for &q in &gate.qubits {
                if let Some(prev) = last_use[q as usize] {
                    if !pred_list[first..].contains(&prev) {
                        pred_list.push(prev);
                    }
                }
                last_use[q as usize] = Some(i as u32);
            }
            pred_start.push(pred_list.len() as u32);
        }
        let n = pred_start.len() - 1;
        // Transpose: count each gate's successors, then fill them in gate
        // order.
        let mut succ_start = vec![0u32; n + 1];
        for &p in &pred_list {
            succ_start[p as usize + 1] += 1;
        }
        for g in 0..n {
            succ_start[g + 1] += succ_start[g];
        }
        let mut next = succ_start.clone();
        let mut succ_list = vec![0u32; pred_list.len()];
        for g in 0..n {
            for &p in &pred_list[pred_start[g] as usize..pred_start[g + 1] as usize] {
                succ_list[next[p as usize] as usize] = g as u32;
                next[p as usize] += 1;
            }
        }
        DependenceGraph {
            pred_start,
            pred_list,
            succ_start,
            succ_list,
        }
    }

    /// Number of nodes (gates).
    pub fn n_gates(&self) -> usize {
        self.pred_start.len() - 1
    }

    /// Immediate predecessors of gate `g`.
    pub fn preds(&self, g: u32) -> &[u32] {
        let g = g as usize;
        &self.pred_list[self.pred_start[g] as usize..self.pred_start[g + 1] as usize]
    }

    /// Immediate successors of gate `g`.
    pub fn succs(&self, g: u32) -> &[u32] {
        let g = g as usize;
        &self.succ_list[self.succ_start[g] as usize..self.succ_start[g + 1] as usize]
    }

    /// In-degree of every gate (predecessor count).
    pub fn in_degrees(&self) -> Vec<u32> {
        self.pred_start.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Gates with no predecessors — the initial front layer `Lf`.
    pub fn initial_front(&self) -> Vec<u32> {
        (0..self.n_gates() as u32)
            .filter(|&g| self.preds(g).is_empty())
            .collect()
    }

    /// ASAP level of every gate (longest path from any source, sources at
    /// level 0).
    pub fn levels(&self) -> Vec<u32> {
        let n = self.n_gates();
        let mut level = vec![0u32; n];
        for g in 0..n {
            for &p in self.preds(g as u32) {
                level[g] = level[g].max(level[p as usize] + 1);
            }
        }
        level
    }

    /// The number of transitive successors of every gate — the paper's
    /// dependence weight `ω(g) = card{ h : (g, h) ∈ R⁺ }` (Eq. 1).
    ///
    /// Computed by bitset reachability over the reverse topological order,
    /// processed in column blocks so memory stays `O(n · block)` instead of
    /// `O(n²)` bits. The block is 8,192 gates up to 65,536 gates and
    /// narrows beyond, so the rows stay within a fixed 64 MiB (down to a
    /// one-word block, past about 8.4M gates). Each row holds one bit per
    /// gate of the block, so a circuit smaller than a block pays only for
    /// its own size.
    pub fn transitive_successor_counts(&self) -> Vec<u64> {
        self.successor_counts_in_blocks(block_bits(self.n_gates()))
    }

    /// [`Self::transitive_successor_counts`] with column blocks of
    /// `block` gates (a multiple of 64). The counts do not depend on it.
    fn successor_counts_in_blocks(&self, block: usize) -> Vec<u64> {
        let n = self.n_gates();
        let words = n.min(block).div_ceil(64);
        let mut counts = vec![0u64; n];
        let mut rows = vec![0u64; n * words];
        for block_start in (0..n).step_by(block) {
            let block_end = (block_start + block).min(n);
            // Successors follow their gate in program order, so a gate at
            // or past `block_end` reaches nothing inside the block: its
            // row is never computed for this block, and never read.
            for g in (0..block_end).rev() {
                // Union the successor rows, which all lie after row `g`,
                // then set the successor bits inside the current block.
                let (head, later) = rows.split_at_mut((g + 1) * words);
                let row = &mut head[g * words..];
                row.fill(0);
                for &s in self.succs(g as u32) {
                    let s = s as usize;
                    if s >= block_end {
                        continue;
                    }
                    let at = (s - g - 1) * words;
                    for (a, r) in row.iter_mut().zip(&later[at..at + words]) {
                        *a |= r;
                    }
                    if s >= block_start {
                        let bit = s - block_start;
                        row[bit / 64] |= 1u64 << (bit % 64);
                    }
                }
                counts[g] += row.iter().map(|w| w.count_ones() as u64).sum::<u64>();
            }
        }
        counts
    }

    /// Full reachability row of gate `g` as a sorted list of gate indices
    /// (exact but `O(n)` memory per call; intended for tests and small
    /// circuits).
    pub fn reachable_from(&self, g: u32) -> Vec<u32> {
        let n = self.n_gates();
        let mut seen = vec![false; n];
        let mut stack = vec![g];
        let mut out = Vec::new();
        while let Some(cur) = stack.pop() {
            for &s in self.succs(cur) {
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    out.push(s);
                    stack.push(s);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    fn chain_circuit() -> Circuit {
        let mut c = Circuit::new(4);
        c.cx(0, 1); // g0
        c.cx(2, 3); // g1 (independent)
        c.cx(1, 2); // g2 (depends on g0 via q1, g1 via q2)
        c.cx(3, 0); // g3 (depends on g1 via q3, g0 via q0 — and g2 transitively? no: direct preds)
        c
    }

    #[test]
    fn edges_follow_consecutive_qubit_use() {
        let c = chain_circuit();
        let dag = DependenceGraph::new(&c);
        assert_eq!(dag.preds(0), &[] as &[u32]);
        assert_eq!(dag.preds(1), &[] as &[u32]);
        assert_eq!(dag.preds(2), &[0, 1]);
        assert_eq!(dag.preds(3), &[1, 0]);
        assert_eq!(dag.initial_front(), vec![0, 1]);
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        c.cx(1, 0); // shares both qubits with the previous gate
        let dag = DependenceGraph::new(&c);
        assert_eq!(dag.preds(1), &[0]);
        assert_eq!(dag.succs(0), &[1]);
    }

    #[test]
    fn levels_are_longest_paths() {
        let c = chain_circuit();
        let dag = DependenceGraph::new(&c);
        assert_eq!(dag.levels(), vec![0, 0, 1, 1]);
    }

    #[test]
    fn transitive_counts_match_reachability() {
        let c = chain_circuit();
        let dag = DependenceGraph::new(&c);
        let counts = dag.transitive_successor_counts();
        for g in 0..dag.n_gates() as u32 {
            assert_eq!(
                counts[g as usize],
                dag.reachable_from(g).len() as u64,
                "gate {g}"
            );
        }
        assert_eq!(counts, vec![2, 2, 0, 0]);
    }

    #[test]
    fn barrier_orders_qubits() {
        let mut c = Circuit::new(2);
        c.h(0); // g0
        c.barrier(&[0, 1]); // g1
        c.h(1); // g2: depends on the barrier, hence transitively on h(0)
        let dag = DependenceGraph::new(&c);
        assert_eq!(dag.preds(2), &[1]);
        assert_eq!(dag.reachable_from(0), vec![1, 2]);
    }

    #[test]
    fn counts_on_larger_random_like_circuit_cross_check() {
        // Deterministic pseudo-random circuit, cross-checked against the
        // O(n) per-gate reachability.
        let mut c = Circuit::new(8);
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let a = (next() % 8) as u32;
            let b = (next() % 8) as u32;
            if a != b {
                c.cx(a, b);
            } else {
                c.h(a);
            }
        }
        let dag = DependenceGraph::new(&c);
        let counts = dag.transitive_successor_counts();
        for g in (0..dag.n_gates() as u32).step_by(17) {
            assert_eq!(counts[g as usize], dag.reachable_from(g).len() as u64);
        }
    }

    #[test]
    fn counts_span_more_than_one_column_block() {
        // 8,300 gates cross the 8,192-gate column block: the counts of the
        // first gates sum bits from both blocks.
        let n = 8_300u32;
        let mut c = Circuit::new(n as usize + 1);
        for i in 0..n {
            c.cx(i, i + 1);
        }
        let dag = DependenceGraph::new(&c);
        let counts = dag.transitive_successor_counts();
        let expected: Vec<u64> = (0..n as u64).map(|i| n as u64 - 1 - i).collect();
        assert_eq!(counts, expected);
        for g in [0, 1, 107, 8_191, 8_192, 8_299] {
            assert_eq!(counts[g as usize], dag.reachable_from(g).len() as u64);
        }
    }

    #[test]
    fn narrow_blocks_give_identical_counts_within_the_row_budget() {
        // 20,000 gates span three 8,192-gate blocks and 313 forced 64-gate
        // ones; the block width must not change a single count.
        let mut c = Circuit::new(24);
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 24) as u32
        };
        while c.gates().len() < 20_000 {
            let (a, b) = (next(), next());
            if a != b {
                c.cx(a, b);
            }
        }
        let dag = DependenceGraph::new(&c);
        assert_eq!(block_bits(dag.n_gates()), MAX_BLOCK_BITS);
        let counts = dag.transitive_successor_counts();
        assert_eq!(counts, dag.successor_counts_in_blocks(64));
        for g in [0, 4_321, 8_192, 19_999] {
            assert_eq!(counts[g as usize], dag.reachable_from(g).len() as u64);
        }
        // Full-width blocks through 65,536 gates; past that the rows of
        // 10^6 gates still fit the budget, and the block never drops
        // below one word.
        assert_eq!(block_bits(65_536), MAX_BLOCK_BITS);
        assert!(block_bits(65_537) < MAX_BLOCK_BITS);
        let wide = 1_000_000;
        assert!(wide * (block_bits(wide) / 8) <= ROW_BUDGET_BYTES);
        assert_eq!(block_bits(usize::MAX / 16), 64);
    }

    #[test]
    fn measure_and_reset_participate() {
        let mut c = Circuit::new(1);
        c.h(0);
        c.measure(0);
        c.reset(0);
        let dag = DependenceGraph::new(&c);
        assert_eq!(dag.succs(0), &[1]);
        assert_eq!(dag.succs(1), &[2]);
        assert_eq!(c.gates()[1].kind, GateKind::Measure);
    }
}
