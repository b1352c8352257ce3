//! The [`Circuit`] container and its statistics.

use crate::gate::{Gate, GateKind};
use std::fmt;

/// How SWAP gates are charged when computing depth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DepthModel {
    /// Every scheduled gate (including SWAP) occupies one cycle — the
    /// convention of Qiskit's `depth()` and of the paper's tables.
    #[default]
    UnitGates,
    /// A SWAP is charged as its 3-CX decomposition.
    DecomposedSwap,
}

/// Errors raised when converting a QASM program into a [`Circuit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConvertError {
    /// A gate acts on more than two qubits and no decomposition is known.
    UnsupportedGate {
        /// The gate's QASM name.
        name: String,
        /// Its operand count.
        arity: usize,
    },
    /// A qubit reference did not resolve to a declared register element.
    BadQubitRef(String),
    /// User-defined gate expansion failed.
    Expansion(String),
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvertError::UnsupportedGate { name, arity } => {
                write!(f, "unsupported {arity}-qubit gate `{name}`")
            }
            ConvertError::BadQubitRef(r) => write!(f, "unresolved qubit reference {r}"),
            ConvertError::Expansion(m) => write!(f, "gate expansion failed: {m}"),
        }
    }
}

impl std::error::Error for ConvertError {}

/// A flat quantum circuit: a number of qubits plus an ordered gate list.
///
/// Gate operands are indices in `0..n_qubits`. Before mapping they denote
/// logical qubits; mappers produce circuits whose operands denote physical
/// qubits.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Circuit {
    n_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// An empty circuit over `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        Circuit {
            n_qubits,
            gates: Vec::new(),
        }
    }

    /// An empty circuit with a pre-allocated gate buffer.
    pub fn with_capacity(n_qubits: usize, gates: usize) -> Self {
        Circuit {
            n_qubits,
            gates: Vec::with_capacity(gates),
        }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The gates in program order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if any operand is out of range.
    pub fn push(&mut self, gate: Gate) {
        for &q in &gate.qubits {
            assert!(
                (q as usize) < self.n_qubits,
                "qubit {q} out of range {}",
                self.n_qubits
            );
        }
        self.gates.push(gate);
    }

    /// Extends the circuit with the gates of `other` (same qubit count).
    pub fn extend_from(&mut self, other: &Circuit) {
        assert_eq!(self.n_qubits, other.n_qubits);
        self.gates.extend(other.gates.iter().cloned());
    }

    // --- gate builders (fluent, panic on out-of-range operands) ---

    /// Hadamard.
    pub fn h(&mut self, q: u32) {
        self.push(Gate::one_q(GateKind::H, q));
    }

    /// Pauli-X.
    pub fn x(&mut self, q: u32) {
        self.push(Gate::one_q(GateKind::X, q));
    }

    /// Pauli-Y.
    pub fn y(&mut self, q: u32) {
        self.push(Gate::one_q(GateKind::Y, q));
    }

    /// Pauli-Z.
    pub fn z(&mut self, q: u32) {
        self.push(Gate::one_q(GateKind::Z, q));
    }

    /// S gate.
    pub fn s(&mut self, q: u32) {
        self.push(Gate::one_q(GateKind::S, q));
    }

    /// S† gate.
    pub fn sdg(&mut self, q: u32) {
        self.push(Gate::one_q(GateKind::Sdg, q));
    }

    /// T gate.
    pub fn t(&mut self, q: u32) {
        self.push(Gate::one_q(GateKind::T, q));
    }

    /// T† gate.
    pub fn tdg(&mut self, q: u32) {
        self.push(Gate::one_q(GateKind::Tdg, q));
    }

    /// √X gate.
    pub fn sx(&mut self, q: u32) {
        self.push(Gate::one_q(GateKind::Sx, q));
    }

    /// X-rotation.
    pub fn rx(&mut self, theta: f64, q: u32) {
        self.push(Gate {
            kind: GateKind::Rx,
            qubits: vec![q],
            params: vec![theta],
        });
    }

    /// Y-rotation.
    pub fn ry(&mut self, theta: f64, q: u32) {
        self.push(Gate {
            kind: GateKind::Ry,
            qubits: vec![q],
            params: vec![theta],
        });
    }

    /// Z-rotation.
    pub fn rz(&mut self, theta: f64, q: u32) {
        self.push(Gate {
            kind: GateKind::Rz,
            qubits: vec![q],
            params: vec![theta],
        });
    }

    /// Phase gate `u1`.
    pub fn u1(&mut self, lambda: f64, q: u32) {
        self.push(Gate {
            kind: GateKind::U1,
            qubits: vec![q],
            params: vec![lambda],
        });
    }

    /// `u2` gate.
    pub fn u2(&mut self, phi: f64, lambda: f64, q: u32) {
        self.push(Gate {
            kind: GateKind::U2,
            qubits: vec![q],
            params: vec![phi, lambda],
        });
    }

    /// Generic single-qubit unitary `u3`.
    pub fn u3(&mut self, theta: f64, phi: f64, lambda: f64, q: u32) {
        self.push(Gate {
            kind: GateKind::U3,
            qubits: vec![q],
            params: vec![theta, phi, lambda],
        });
    }

    /// Controlled-NOT.
    pub fn cx(&mut self, control: u32, target: u32) {
        self.push(Gate::two_q(GateKind::Cx, control, target));
    }

    /// Controlled-Z.
    pub fn cz(&mut self, a: u32, b: u32) {
        self.push(Gate::two_q(GateKind::Cz, a, b));
    }

    /// SWAP gate.
    pub fn swap(&mut self, a: u32, b: u32) {
        self.push(Gate::two_q(GateKind::Swap, a, b));
    }

    /// Controlled phase.
    pub fn cu1(&mut self, lambda: f64, a: u32, b: u32) {
        self.push(Gate {
            kind: GateKind::Cu1,
            qubits: vec![a, b],
            params: vec![lambda],
        });
    }

    /// Controlled Z-rotation.
    pub fn crz(&mut self, lambda: f64, a: u32, b: u32) {
        self.push(Gate {
            kind: GateKind::Crz,
            qubits: vec![a, b],
            params: vec![lambda],
        });
    }

    /// ZZ interaction.
    pub fn rzz(&mut self, theta: f64, a: u32, b: u32) {
        self.push(Gate {
            kind: GateKind::Rzz,
            qubits: vec![a, b],
            params: vec![theta],
        });
    }

    /// Toffoli gate, decomposed into the standard 6-CX network (the
    /// `qelib1.inc` body) so the circuit stays within 1-/2-qubit gates.
    pub fn ccx(&mut self, a: u32, b: u32, c: u32) {
        self.h(c);
        self.cx(b, c);
        self.tdg(c);
        self.cx(a, c);
        self.t(c);
        self.cx(b, c);
        self.tdg(c);
        self.cx(a, c);
        self.t(b);
        self.t(c);
        self.h(c);
        self.cx(a, b);
        self.t(a);
        self.tdg(b);
        self.cx(a, b);
    }

    /// Fredkin (controlled-SWAP), decomposed via [`Circuit::ccx`].
    pub fn cswap(&mut self, a: u32, b: u32, c: u32) {
        self.cx(c, b);
        self.ccx(a, b, c);
        self.cx(c, b);
    }

    /// Measurement of `q` into classical bit `q` (the workloads in this
    /// workspace measure registers pairwise).
    pub fn measure(&mut self, q: u32) {
        self.push(Gate::one_q(GateKind::Measure, q));
    }

    /// Measures every qubit.
    pub fn measure_all(&mut self) {
        for q in 0..self.n_qubits as u32 {
            self.measure(q);
        }
    }

    /// Reset of `q` to |0⟩.
    pub fn reset(&mut self, q: u32) {
        self.push(Gate::one_q(GateKind::Reset, q));
    }

    /// A barrier across all qubits.
    pub fn barrier_all(&mut self) {
        self.push(Gate {
            kind: GateKind::Barrier,
            qubits: (0..self.n_qubits as u32).collect(),
            params: Vec::new(),
        });
    }

    /// A barrier across the given qubits.
    pub fn barrier(&mut self, qubits: &[u32]) {
        self.push(Gate {
            kind: GateKind::Barrier,
            qubits: qubits.to_vec(),
            params: Vec::new(),
        });
    }

    // --- statistics ---

    /// Number of scheduled gates (barriers excluded) — the "QOPs" count of
    /// the paper's tables.
    pub fn qop_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_scheduled()).count()
    }

    /// Number of two-qubit gates.
    pub fn two_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Number of SWAP gates.
    pub fn swap_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| g.kind == GateKind::Swap)
            .count()
    }

    /// Circuit depth under [`DepthModel::UnitGates`].
    pub fn depth(&self) -> usize {
        self.depth_with(DepthModel::UnitGates)
    }

    /// Circuit depth (critical path length) under the given model.
    ///
    /// Barriers synchronize their operands but occupy no cycle.
    pub fn depth_with(&self, model: DepthModel) -> usize {
        let mut clock = vec![0usize; self.n_qubits];
        let mut depth = 0;
        for g in &self.gates {
            if g.qubits.is_empty() {
                continue;
            }
            let ready = g
                .qubits
                .iter()
                .map(|&q| clock[q as usize])
                .max()
                .expect("non-empty");
            let dur = match (&g.kind, model) {
                (GateKind::Barrier, _) => 0,
                (GateKind::Swap, DepthModel::DecomposedSwap) => 3,
                _ => 1,
            };
            let done = ready + dur;
            for &q in &g.qubits {
                clock[q as usize] = done;
            }
            depth = depth.max(done);
        }
        depth
    }

    /// The two-qubit interactions in program order, as
    /// `(gate_index, q1, q2)`.
    pub fn interactions(&self) -> impl Iterator<Item = (usize, u32, u32)> + '_ {
        self.gates
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.qubit_pair().map(|(a, b)| (i, a, b)))
    }

    /// Converts a parsed QASM program into a circuit.
    ///
    /// User-defined gates are expanded; `ccx`/`cswap` (and gates whose
    /// expansion contains them) are decomposed into 1-/2-qubit primitives.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError`] for gates of arity ≥ 3 without a known
    /// decomposition or for malformed qubit references.
    pub fn from_qasm(program: &qasm::Program) -> Result<Circuit, ConvertError> {
        let expanded = program.expanded().map_err(ConvertError::Expansion)?;
        let mut circuit = Circuit::new(expanded.qubit_count());
        let flatten = |q: &qasm::QubitRef| -> Result<u32, ConvertError> {
            expanded
                .flatten(q)
                .map(|i| i as u32)
                .ok_or_else(|| ConvertError::BadQubitRef(q.to_string()))
        };
        for instr in expanded.instructions() {
            match instr {
                qasm::Instruction::Gate {
                    name,
                    params,
                    qubits,
                    ..
                } => {
                    let qs: Vec<u32> = qubits.iter().map(&flatten).collect::<Result<_, _>>()?;
                    match (name.as_str(), qs.len()) {
                        ("ccx", 3) => circuit.ccx(qs[0], qs[1], qs[2]),
                        ("cswap", 3) => circuit.cswap(qs[0], qs[1], qs[2]),
                        (_, 1) | (_, 2) => circuit.push(Gate {
                            kind: GateKind::from_name(name),
                            qubits: qs,
                            params: params.clone(),
                        }),
                        (_, arity) => {
                            return Err(ConvertError::UnsupportedGate {
                                name: name.clone(),
                                arity,
                            })
                        }
                    }
                }
                qasm::Instruction::Measure { qubit, .. } => {
                    let q = flatten(qubit)?;
                    circuit.measure(q);
                }
                qasm::Instruction::Barrier(qubits) => {
                    let qs: Vec<u32> = qubits.iter().map(&flatten).collect::<Result<_, _>>()?;
                    circuit.barrier(&qs);
                }
                qasm::Instruction::Reset(qubit) => {
                    let q = flatten(qubit)?;
                    circuit.reset(q);
                }
            }
        }
        Ok(circuit)
    }

    /// Renders the circuit as a QASM program (register `q`, classical
    /// register `c` when measurements are present).
    pub fn to_qasm(&self) -> qasm::Program {
        let mut p = qasm::Program::new();
        p.add_qreg("q", self.n_qubits.max(1));
        if self.gates.iter().any(|g| g.kind == GateKind::Measure) {
            p.add_creg("c", self.n_qubits.max(1));
        }
        for g in &self.gates {
            let qref = |q: u32| qasm::QubitRef {
                reg: "q".into(),
                index: q as usize,
            };
            match g.kind {
                GateKind::Measure => p.push(qasm::Instruction::Measure {
                    qubit: qref(g.qubits[0]),
                    bit: ("c".into(), g.qubits[0] as usize),
                }),
                GateKind::Barrier => p.push(qasm::Instruction::Barrier(
                    g.qubits.iter().copied().map(qref).collect(),
                )),
                GateKind::Reset => p.push(qasm::Instruction::Reset(qref(g.qubits[0]))),
                _ => p.push(qasm::Instruction::Gate {
                    name: g.kind.name().to_string(),
                    params: g.params.clone(),
                    qubits: g.qubits.iter().copied().map(qref).collect(),
                    condition: None,
                }),
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_of_sequential_and_parallel_gates() {
        let mut c = Circuit::new(4);
        c.h(0); // depth 1 on q0
        c.h(1); // parallel
        c.cx(0, 1); // depth 2
        c.cx(2, 3); // parallel, depth 1
        c.cx(1, 2); // depth 3
        assert_eq!(c.depth(), 3);
        assert_eq!(c.qop_count(), 5);
        assert_eq!(c.two_qubit_count(), 3);
    }

    #[test]
    fn swap_depth_models() {
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        assert_eq!(c.depth_with(DepthModel::UnitGates), 1);
        assert_eq!(c.depth_with(DepthModel::DecomposedSwap), 3);
        assert_eq!(c.swap_count(), 1);
    }

    #[test]
    fn barriers_synchronize_without_depth() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.barrier_all();
        c.h(1); // must start after the barrier, i.e. at cycle 2
        assert_eq!(c.depth(), 2);
        assert_eq!(c.qop_count(), 2); // barrier not counted
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_operand() {
        let mut c = Circuit::new(2);
        c.h(2);
    }

    #[test]
    fn ccx_decomposes_to_two_qubit_gates() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        assert!(c.gates().iter().all(|g| g.qubits.len() <= 2));
        assert_eq!(c.two_qubit_count(), 6);
    }

    #[test]
    fn qasm_round_trip() {
        let src = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[3];
            creg c[3];
            h q[0];
            cx q[0], q[1];
            rz(pi/2) q[2];
            ccx q[0], q[1], q[2];
            measure q[1] -> c[1];
        "#;
        let program = qasm::parse(src).unwrap();
        let circuit = Circuit::from_qasm(&program).unwrap();
        assert_eq!(circuit.n_qubits(), 3);
        // 3 plain gates + 15 from ccx + 1 measure
        assert_eq!(circuit.qop_count(), 19);
        // Round-trip through QASM text.
        let emitted = qasm::emit(&circuit.to_qasm());
        let reparsed = Circuit::from_qasm(&qasm::parse(&emitted).unwrap()).unwrap();
        assert_eq!(circuit, reparsed);
    }

    #[test]
    fn interactions_iterator() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.cz(1, 2);
        let pairs: Vec<(usize, u32, u32)> = c.interactions().collect();
        assert_eq!(pairs, vec![(1, 0, 1), (2, 1, 2)]);
    }

    #[test]
    fn multi_register_qasm_flattening() {
        let src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg a[2];\nqreg b[2];\ncx a[1], b[0];";
        let circuit = Circuit::from_qasm(&qasm::parse(src).unwrap()).unwrap();
        assert_eq!(circuit.n_qubits(), 4);
        assert_eq!(circuit.gates()[0].qubits, vec![1, 2]);
    }
}
