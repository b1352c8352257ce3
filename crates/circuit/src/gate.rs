//! Gate kinds and gate instances.

use std::fmt;

/// The gate vocabulary of the OpenQASM 2.0 `qelib1.inc` library (plus
/// `measure`/`reset`/`barrier` pseudo-gates and a `Custom` escape hatch).
///
/// Only the *shape* of a gate (its qubit count) matters to routing; the
/// enum keeps names and parameters so circuits round-trip through QASM.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum GateKind {
    // --- single-qubit ---
    /// Identity.
    Id,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S.
    S,
    /// S-dagger.
    Sdg,
    /// T gate.
    T,
    /// T-dagger.
    Tdg,
    /// √X.
    Sx,
    /// √X dagger.
    Sxdg,
    /// X-rotation (1 parameter).
    Rx,
    /// Y-rotation (1 parameter).
    Ry,
    /// Z-rotation (1 parameter).
    Rz,
    /// Phase gate `u1`/`p` (1 parameter).
    U1,
    /// `u2` (2 parameters).
    U2,
    /// Generic single-qubit unitary `u3`/`u` (3 parameters).
    U3,
    // --- two-qubit ---
    /// Controlled-NOT.
    Cx,
    /// Controlled-Z.
    Cz,
    /// Controlled-Y.
    Cy,
    /// Controlled-H.
    Ch,
    /// SWAP (the routing-inserted gate).
    Swap,
    /// Controlled X-rotation (1 parameter).
    Crx,
    /// Controlled Y-rotation (1 parameter).
    Cry,
    /// Controlled Z-rotation (1 parameter).
    Crz,
    /// Controlled phase `cu1`/`cp` (1 parameter).
    Cu1,
    /// Controlled `u3` (3 parameters).
    Cu3,
    /// ZZ interaction (1 parameter).
    Rzz,
    /// XX interaction (1 parameter).
    Rxx,
    /// YY interaction (1 parameter).
    Ryy,
    /// Controlled √X.
    Csx,
    // --- pseudo-gates ---
    /// Measurement (`measure q -> c`): records the classical bit index.
    Measure,
    /// Reset to |0⟩.
    Reset,
    /// Barrier (ordering only; contributes no depth).
    Barrier,
    /// A named gate outside the built-in vocabulary.
    Custom(Box<str>),
}

impl GateKind {
    /// The QASM spelling of the gate.
    pub fn name(&self) -> &str {
        match self {
            GateKind::Id => "id",
            GateKind::X => "x",
            GateKind::Y => "y",
            GateKind::Z => "z",
            GateKind::H => "h",
            GateKind::S => "s",
            GateKind::Sdg => "sdg",
            GateKind::T => "t",
            GateKind::Tdg => "tdg",
            GateKind::Sx => "sx",
            GateKind::Sxdg => "sxdg",
            GateKind::Rx => "rx",
            GateKind::Ry => "ry",
            GateKind::Rz => "rz",
            GateKind::U1 => "u1",
            GateKind::U2 => "u2",
            GateKind::U3 => "u3",
            GateKind::Cx => "cx",
            GateKind::Cz => "cz",
            GateKind::Cy => "cy",
            GateKind::Ch => "ch",
            GateKind::Swap => "swap",
            GateKind::Crx => "crx",
            GateKind::Cry => "cry",
            GateKind::Crz => "crz",
            GateKind::Cu1 => "cu1",
            GateKind::Cu3 => "cu3",
            GateKind::Rzz => "rzz",
            GateKind::Rxx => "rxx",
            GateKind::Ryy => "ryy",
            GateKind::Csx => "csx",
            GateKind::Measure => "measure",
            GateKind::Reset => "reset",
            GateKind::Barrier => "barrier",
            GateKind::Custom(name) => name,
        }
    }

    /// Parses a QASM gate name into a kind (`measure`/`reset`/`barrier`
    /// excluded — they have dedicated instruction forms).
    pub fn from_name(name: &str) -> GateKind {
        match name {
            "id" => GateKind::Id,
            "x" => GateKind::X,
            "y" => GateKind::Y,
            "z" => GateKind::Z,
            "h" => GateKind::H,
            "s" => GateKind::S,
            "sdg" => GateKind::Sdg,
            "t" => GateKind::T,
            "tdg" => GateKind::Tdg,
            "sx" => GateKind::Sx,
            "sxdg" => GateKind::Sxdg,
            "rx" => GateKind::Rx,
            "ry" => GateKind::Ry,
            "rz" => GateKind::Rz,
            "u1" | "p" => GateKind::U1,
            "u2" => GateKind::U2,
            "u3" | "u" | "U" => GateKind::U3,
            "cx" | "CX" => GateKind::Cx,
            "cz" => GateKind::Cz,
            "cy" => GateKind::Cy,
            "ch" => GateKind::Ch,
            "swap" => GateKind::Swap,
            "crx" => GateKind::Crx,
            "cry" => GateKind::Cry,
            "crz" => GateKind::Crz,
            "cu1" | "cp" => GateKind::Cu1,
            "cu3" => GateKind::Cu3,
            "rzz" => GateKind::Rzz,
            "rxx" => GateKind::Rxx,
            "ryy" => GateKind::Ryy,
            "csx" => GateKind::Csx,
            other => GateKind::Custom(other.into()),
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One gate instance: kind, qubit operands and parameters.
///
/// Operands are flat qubit indices (logical before mapping, physical
/// after). Barriers may have any number of operands; every other kind has
/// one or two.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// What gate this is.
    pub kind: GateKind,
    /// Operand qubits.
    pub qubits: Vec<u32>,
    /// Parameter values (angles).
    pub params: Vec<f64>,
}

impl Gate {
    /// A parameter-free single-qubit gate.
    pub fn one_q(kind: GateKind, q: u32) -> Self {
        Gate {
            kind,
            qubits: vec![q],
            params: Vec::new(),
        }
    }

    /// A parameter-free two-qubit gate.
    pub fn two_q(kind: GateKind, a: u32, b: u32) -> Self {
        assert_ne!(a, b, "two-qubit gate with duplicate operand {a}");
        Gate {
            kind,
            qubits: vec![a, b],
            params: Vec::new(),
        }
    }

    /// Whether this gate constrains routing (acts on exactly two qubits and
    /// is not a pseudo-gate).
    pub fn is_two_qubit(&self) -> bool {
        self.qubits.len() == 2 && !matches!(self.kind, GateKind::Barrier)
    }

    /// The operand pair of a two-qubit gate.
    pub fn qubit_pair(&self) -> Option<(u32, u32)> {
        self.is_two_qubit()
            .then(|| (self.qubits[0], self.qubits[1]))
    }

    /// Whether the gate participates in depth/gate-count statistics
    /// (everything except barriers).
    pub fn is_scheduled(&self) -> bool {
        !matches!(self.kind, GateKind::Barrier)
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if !self.params.is_empty() {
            let ps: Vec<String> = self.params.iter().map(|p| format!("{p}")).collect();
            write!(f, "({})", ps.join(", "))?;
        }
        let qs: Vec<String> = self.qubits.iter().map(|q| format!("q[{q}]")).collect();
        write!(f, " {}", qs.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_round_trip() {
        for kind in [
            GateKind::H,
            GateKind::Cx,
            GateKind::Swap,
            GateKind::Rz,
            GateKind::Cu1,
            GateKind::Rzz,
        ] {
            assert_eq!(GateKind::from_name(kind.name()), kind);
        }
        assert_eq!(
            GateKind::from_name("mystery"),
            GateKind::Custom("mystery".into())
        );
    }

    #[test]
    fn two_qubit_classification() {
        assert!(Gate::two_q(GateKind::Cx, 0, 1).is_two_qubit());
        assert!(!Gate::one_q(GateKind::H, 0).is_two_qubit());
        let barrier = Gate {
            kind: GateKind::Barrier,
            qubits: vec![0, 1],
            params: vec![],
        };
        assert!(!barrier.is_two_qubit());
        assert!(!barrier.is_scheduled());
    }

    #[test]
    #[should_panic(expected = "duplicate operand")]
    fn rejects_duplicate_operands() {
        let _ = Gate::two_q(GateKind::Cx, 3, 3);
    }

    #[test]
    fn display_format() {
        let g = Gate {
            kind: GateKind::Rz,
            qubits: vec![4],
            params: vec![0.5],
        };
        assert_eq!(g.to_string(), "rz(0.5) q[4]");
        assert_eq!(Gate::two_q(GateKind::Cx, 0, 2).to_string(), "cx q[0], q[2]");
    }
}
