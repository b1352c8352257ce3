//! Dependence weights ω via transitive closure.

use crate::deps::dependence_map;
use crate::lift::lift_interactions;
use circuit::{Circuit, DependenceGraph};
use presburger::Set;

/// Two-qubit interaction count below which [`WeightMode::Auto`] computes
/// ω on the graph path without lifting the circuit.
///
/// The graph path computes the paper's Eq. 1 exactly, and below this size
/// it also costs less than lifting, building `Rdep` and closing it (whose
/// result may be an over-approximation). The crossover, release build on a
/// 2-core host, one `WeightMode::Affine` against one `WeightMode::Graph`
/// analysis per circuit:
///
/// | side | circuit | interactions | affine | graph |
/// |---|---|---|---|---|
/// | graph wins | ising-1600 | 15,990 | 58 ms | 34 ms |
/// | graph wins | knn-3201 | 15,998 | 37 ms | 18 ms |
/// | graph wins | vqe-3200 | 19,200 | 47 ms | 33 ms |
/// | affine wins | adder-3200 | 25,585 | 80 ms | 94 ms |
/// | affine wins | ising-3200 | 31,990 | 82 ms | 117 ms |
/// | affine wins | dnn-3200 | 38,384 | 139 ms | 184 ms |
///
/// W-state-3200 has only 6,398 interactions, yet its exact affine closure
/// takes 1,480 ms against 4.6 ms on the graph path, so it stays below.
/// Every QASMBench-style circuit at 20–81 qubits has at most 6,832
/// interactions and takes the graph path.
///
/// The graph path timed there built a shadow circuit and swept every gate
/// with 8,192-bit rows for each column block. Timed as it is now, it
/// still wins well above this value (adder-4800, 38,385 interactions: 71
/// against 135 ms; ising-6400, 63,990: 187 against 216 ms) and first
/// loses at dnn-6400 (76,784: 186 against 158 ms). The value is therefore
/// conservative: below it `Auto` always takes the cheaper engine, above it
/// not always.
pub const AFFINE_MIN_INTERACTIONS: usize = 25_000;

/// Which engine computes the ω weights.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WeightMode {
    /// Decide per circuit by cost. Below [`AFFINE_MIN_INTERACTIONS`]
    /// two-qubit interactions, use the graph path without lifting. At or
    /// above it, use the affine path when lifting finds enough structure
    /// (compression ≥ 4, at most 256 statements, at most 512 dependence
    /// disjuncts), otherwise the graph path. An affine result may be an
    /// over-approximation ([`WeightPath::AffineOverApproximate`]).
    #[default]
    Auto,
    /// Force the polyhedral path (lift → `Rdep` → `R⁺` → `card`).
    Affine,
    /// Force exact bitset reachability on the concrete dependence DAG.
    Graph,
}

/// Which engine actually produced the weights.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightPath {
    /// Polyhedral closure, exact.
    AffineExact,
    /// Polyhedral closure, flagged over-approximation (weights are an
    /// upper bound on the true transitive successor counts).
    AffineOverApproximate,
    /// Concrete bitset reachability (always exact).
    Graph,
}

/// Per-gate dependence weights `ω(g)` over the two-qubit interaction trace
/// of a circuit (the paper's Eq. 1).
///
/// Routing only consults weights of two-qubit gates; weights are indexed by
/// *gate index* in the original circuit (non-two-qubit gates weigh 0).
#[derive(Clone, Debug)]
pub struct DependenceAnalysis {
    weights: Vec<u64>,
    path: WeightPath,
}

impl DependenceAnalysis {
    /// Analyzes `circuit` under the given mode.
    pub fn new(circuit: &Circuit, mode: WeightMode) -> Self {
        let affine = match mode {
            WeightMode::Graph => None,
            WeightMode::Affine => affine_weights(circuit, &lift_interactions(circuit)),
            WeightMode::Auto if circuit.two_qubit_count() < AFFINE_MIN_INTERACTIONS => None,
            WeightMode::Auto => {
                let lifting = lift_interactions(circuit);
                let regular = lifting.compression() >= 4.0 && lifting.statements.len() <= 256;
                regular.then(|| affine_weights(circuit, &lifting)).flatten()
            }
        };
        match affine {
            Some((weights, exact)) => DependenceAnalysis {
                weights,
                path: if exact {
                    WeightPath::AffineExact
                } else {
                    WeightPath::AffineOverApproximate
                },
            },
            None => DependenceAnalysis {
                weights: graph_weights(circuit),
                path: WeightPath::Graph,
            },
        }
    }

    /// ω of the gate at `gate_index` (0 for non-two-qubit gates).
    pub fn weight(&self, gate_index: u32) -> u64 {
        self.weights.get(gate_index as usize).copied().unwrap_or(0)
    }

    /// All weights, indexed by gate index.
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Which engine produced the weights.
    pub fn path(&self) -> WeightPath {
        self.path
    }

    /// Total weight mass `Σ ω(g)` — a cheap integrity metric for reports
    /// (two analyses of the same circuit with the same mode always agree).
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// One-line artifact summary for pass-pipeline reports: which engine
    /// produced the weights and the total weight mass.
    pub fn describe(&self) -> String {
        let path = match self.path {
            WeightPath::AffineExact => "affine-exact",
            WeightPath::AffineOverApproximate => "affine-overapprox",
            WeightPath::Graph => "graph",
        };
        format!("weights[{path}] Σω={}", self.total_weight())
    }
}

/// The polyhedral path: `ω(t) = card(R⁺({t}))` per interaction time.
fn affine_weights(circuit: &Circuit, lifting: &crate::lift::Lifting) -> Option<(Vec<u64>, bool)> {
    let rdep = dependence_map(lifting);
    if rdep.parts().len() > 512 {
        return None; // closure over this many disjuncts will not verify
    }
    let closure = rdep.transitive_closure();
    let mut weights = vec![0u64; circuit.gates().len()];
    for (t, itx) in lifting.interactions.iter().enumerate() {
        let singleton = Set::from_points(1, std::iter::once([t as i64].as_slice()));
        let successors = closure.map.apply(&singleton).ok()?;
        weights[itx.gate as usize] = successors.count_points_checked()?;
    }
    Some((weights, closure.exact))
}

/// The concrete path: bitset reachability over the two-qubit interaction
/// DAG.
fn graph_weights(circuit: &Circuit) -> Vec<u64> {
    let counts = DependenceGraph::of_interactions(circuit).transitive_successor_counts();
    let mut weights = vec![0u64; circuit.gates().len()];
    for ((gate, _, _), count) in circuit.interactions().zip(counts) {
        weights[gate] = count;
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: u32) -> Circuit {
        let mut c = Circuit::new(n as usize + 1);
        for i in 0..n {
            c.cx(i, i + 1);
        }
        c
    }

    #[test]
    fn graph_weights_on_chain() {
        let c = chain(5);
        let a = DependenceAnalysis::new(&c, WeightMode::Graph);
        assert_eq!(a.path(), WeightPath::Graph);
        assert_eq!(a.weights(), &[4, 3, 2, 1, 0]);
    }

    #[test]
    fn affine_weights_match_graph_on_chain() {
        let c = chain(7);
        let graph = DependenceAnalysis::new(&c, WeightMode::Graph);
        let affine = DependenceAnalysis::new(&c, WeightMode::Affine);
        assert!(matches!(
            affine.path(),
            WeightPath::AffineExact | WeightPath::AffineOverApproximate
        ));
        if affine.path() == WeightPath::AffineExact {
            assert_eq!(affine.weights(), graph.weights());
        } else {
            // Over-approximation must dominate the exact counts.
            for (o, e) in affine.weights().iter().zip(graph.weights()) {
                assert!(o >= e);
            }
        }
    }

    #[test]
    fn affine_weights_match_graph_on_disjoint_blocks() {
        let mut c = Circuit::new(12);
        for i in 0..5u32 {
            c.cx(i, i + 1);
        }
        for i in 6..11u32 {
            c.cx(i, i + 1);
        }
        let graph = DependenceAnalysis::new(&c, WeightMode::Graph);
        let affine = DependenceAnalysis::new(&c, WeightMode::Affine);
        for g in 0..c.gates().len() as u32 {
            assert!(
                affine.weight(g) >= graph.weight(g),
                "gate {g}: affine {} < graph {}",
                affine.weight(g),
                graph.weight(g)
            );
        }
        if affine.path() == WeightPath::AffineExact {
            assert_eq!(affine.weights(), graph.weights());
        }
    }

    #[test]
    fn single_qubit_gates_weigh_zero() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.h(2);
        let a = DependenceAnalysis::new(&c, WeightMode::Graph);
        assert_eq!(a.weight(0), 0);
        assert_eq!(a.weight(2), 0);
    }

    #[test]
    fn auto_mode_switches_engines_at_the_crossover() {
        // One interaction short of the constant, even a perfectly regular
        // chain skips lifting and takes the exact graph path.
        let below = chain(AFFINE_MIN_INTERACTIONS as u32 - 1);
        let a = DependenceAnalysis::new(&below, WeightMode::Auto);
        assert_eq!(a.path(), WeightPath::Graph);
        assert_eq!(lift_interactions(&below).statements.len(), 1);
        // At the constant, the same chain lifts and takes an affine path.
        let at = chain(AFFINE_MIN_INTERACTIONS as u32);
        let a = DependenceAnalysis::new(&at, WeightMode::Auto);
        assert!(matches!(
            a.path(),
            WeightPath::AffineExact | WeightPath::AffineOverApproximate
        ));
        assert_eq!(a.weight(0), AFFINE_MIN_INTERACTIONS as u64 - 1);
    }

    #[test]
    fn auto_mode_picks_graph_for_irregular() {
        // Pseudo-random interactions at the crossover: compression stays
        // low, so the lifting rule rejects the affine path.
        let mut c = Circuit::new(16);
        let mut s = 1u64;
        while c.gates().len() < AFFINE_MIN_INTERACTIONS {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (s >> 33) % 16;
            let b = (s >> 13) % 16;
            if a != b {
                c.cx(a as u32, b as u32);
            }
        }
        let a = DependenceAnalysis::new(&c, WeightMode::Auto);
        assert_eq!(a.path(), WeightPath::Graph);
        assert!(lift_interactions(&c).compression() < 4.0);
    }

    #[test]
    fn auto_mode_is_exact_on_the_qasmbench_suite() {
        let suite = qasmbench::suite();
        assert_eq!(suite.len(), 41);
        for entry in suite {
            let c = entry.build();
            let auto = DependenceAnalysis::new(&c, WeightMode::Auto);
            assert_eq!(auto.path(), WeightPath::Graph, "{}", entry.name);
            let graph = DependenceAnalysis::new(&c, WeightMode::Graph);
            assert_eq!(auto.weights(), graph.weights(), "{}", entry.name);
        }
    }

    #[test]
    fn describe_names_the_engine_and_totals() {
        let c = chain(5);
        let a = DependenceAnalysis::new(&c, WeightMode::Graph);
        let line = a.describe();
        assert!(line.starts_with("weights[graph]"), "got: {line}");
        assert!(line.contains("Σω=10"), "4+3+2+1+0 = 10; got: {line}");
        assert_eq!(a.total_weight(), 10);
        let affine = DependenceAnalysis::new(&c, WeightMode::Affine);
        assert!(affine.describe().starts_with("weights[affine"));
    }

    #[test]
    fn weights_respect_eq1_semantics() {
        // Fan-out: gate 0 feeds two independent chains; its weight is the
        // total number of downstream gates.
        let mut c = Circuit::new(6);
        c.cx(0, 1); // g0
        c.cx(1, 2); // depends on g0
        c.cx(0, 3); // depends on g0
        c.cx(3, 4); // depends on g2
        let a = DependenceAnalysis::new(&c, WeightMode::Graph);
        assert_eq!(a.weight(0), 3);
        assert_eq!(a.weight(1), 0);
        assert_eq!(a.weight(2), 1);
        assert_eq!(a.weight(3), 0);
    }
}
