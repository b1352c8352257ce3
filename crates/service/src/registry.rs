//! Decoding submit requests into schedulable jobs: name→mapper and
//! name→device resolution plus QASM conversion, with every failure mapped
//! to a typed [`ErrorCode`].

use crate::intake::JobSpec;
use crate::proto::{ErrorCode, Priority, Strategy};
use circuit::Circuit;
use hier::HierMapper;
use qlosure::{Mapper, QlosureMapper};
use std::sync::Arc;
use topology::{backends, NoiseModel};

/// Seed of the deterministic synthetic calibration used for opt-in
/// fidelity estimation: every request against the same device sees the
/// same noise model, so `success_ppm` is reproducible.
pub const NOISE_SEED: u64 = 0x00CA_11B8;

/// Median two-qubit error rate of the synthetic calibration (the same
/// Eagle-like figure the `noise_aware` example uses).
pub const NOISE_MEDIAN_2Q: f64 = 7e-3;

/// Resolves a mapper by its roster name.
pub fn mapper_by_name(name: &str) -> Option<Arc<dyn Mapper + Send + Sync>> {
    use baselines::{CirqMapper, QmapMapper, SabreMapper, TketMapper};
    match name {
        "qlosure" => Some(Arc::new(QlosureMapper::default())),
        "sabre" => Some(Arc::new(SabreMapper::default())),
        "qmap" => Some(Arc::new(QmapMapper::default())),
        "cirq" => Some(Arc::new(CirqMapper::default())),
        "tket" => Some(Arc::new(TketMapper::default())),
        _ => None,
    }
}

/// Mapper names accepted by [`mapper_by_name`] (for error messages).
pub const MAPPER_NAMES: [&str; 5] = ["sabre", "qmap", "cirq", "tket", "qlosure"];

/// Decodes a submit request into a [`JobSpec`].
///
/// The `strategy` picks the mapping architecture: `Flat` runs the named
/// mapper as-is, `Hier` swaps in the hierarchical partitioned mapper
/// (the mapper name must still resolve — it documents the flat
/// baseline the request would otherwise run), and `Auto` picks `Hier`
/// only when the device is at or above [`hier::AUTO_THRESHOLD`] qubits.
///
/// # Errors
///
/// Typed `(code, message)` pairs: [`ErrorCode::UnknownBackend`],
/// [`ErrorCode::UnknownMapper`], [`ErrorCode::QasmError`] (parse or
/// conversion), or [`ErrorCode::DeviceTooSmall`] — all detected here at
/// admission so a worker never panics on malformed input.
pub fn decode_submit(
    backend: &str,
    mapper: &str,
    qasm_src: &str,
    priority: Priority,
    fidelity: bool,
    strategy: Strategy,
) -> Result<JobSpec, (ErrorCode, String)> {
    let device = backends::shared_by_name(backend).ok_or_else(|| {
        (
            ErrorCode::UnknownBackend,
            format!("no backend named `{backend}`"),
        )
    })?;
    let mapper = mapper_by_name(mapper).ok_or_else(|| {
        (
            ErrorCode::UnknownMapper,
            format!(
                "no mapper named `{mapper}` (expected one of {})",
                MAPPER_NAMES.join(", ")
            ),
        )
    })?;
    let mapper: Arc<dyn Mapper + Send + Sync> = match strategy {
        Strategy::Flat => mapper,
        Strategy::Hier => Arc::new(HierMapper::default()),
        Strategy::Auto => {
            if hier::auto_prefers_hier(device.n_qubits()) {
                Arc::new(HierMapper::default())
            } else {
                mapper
            }
        }
    };
    let program = qasm::parse(qasm_src)
        .map_err(|e| (ErrorCode::QasmError, format!("QASM parse error: {e}")))?;
    let circuit = Circuit::from_qasm(&program)
        .map_err(|e| (ErrorCode::QasmError, format!("QASM conversion error: {e}")))?;
    if circuit.n_qubits() > device.n_qubits() {
        return Err((
            ErrorCode::DeviceTooSmall,
            format!(
                "circuit needs {} qubits but `{}` has {}",
                circuit.n_qubits(),
                device.name(),
                device.n_qubits()
            ),
        ));
    }
    let noise = fidelity.then(|| NoiseModel::synthetic(&device, NOISE_MEDIAN_2Q, NOISE_SEED));
    Ok(JobSpec {
        circuit: Arc::new(circuit),
        device,
        mapper,
        priority,
        noise,
        // Trace retention is a wire-level opt-in the dispatcher stamps on
        // after decoding; it never affects admission validation.
        trace: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GHZ: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n\
                       h q[0];\ncx q[0], q[1];\ncx q[0], q[2];\n";

    #[test]
    fn decode_accepts_a_valid_submission() {
        let spec = decode_submit(
            "aspen16",
            "qlosure",
            GHZ,
            Priority::Batch,
            true,
            Strategy::Flat,
        )
        .unwrap();
        assert_eq!(spec.circuit.n_qubits(), 3);
        assert_eq!(spec.device.n_qubits(), 16);
        assert_eq!(spec.mapper.name(), "qlosure");
        assert!(spec.noise.is_some());
        let without = decode_submit(
            "aspen16",
            "sabre",
            GHZ,
            Priority::Interactive,
            false,
            Strategy::Flat,
        )
        .unwrap();
        assert!(without.noise.is_none());
    }

    #[test]
    fn strategy_selects_the_mapping_architecture() {
        let decode = |backend: &str, strategy| {
            decode_submit(backend, "qlosure", GHZ, Priority::Batch, false, strategy)
                .unwrap()
                .mapper
                .name()
                .to_string()
        };
        assert_eq!(decode("aspen16", Strategy::Flat), "qlosure");
        assert_eq!(decode("aspen16", Strategy::Hier), "hier");
        // Auto: flat below the threshold, hier at/above it.
        assert_eq!(decode("aspen16", Strategy::Auto), "qlosure");
        assert_eq!(decode("grid:32x32", Strategy::Auto), "hier");
        // Hier still demands a resolvable flat mapper name.
        assert_eq!(
            decode_submit(
                "aspen16",
                "magic",
                GHZ,
                Priority::Batch,
                false,
                Strategy::Hier
            )
            .unwrap_err()
            .0,
            ErrorCode::UnknownMapper
        );
    }

    #[test]
    fn decode_failures_are_typed() {
        let code = |r: Result<JobSpec, (ErrorCode, String)>| r.unwrap_err().0;
        assert_eq!(
            code(decode_submit(
                "eagle",
                "qlosure",
                GHZ,
                Priority::Batch,
                false,
                Strategy::Flat
            )),
            ErrorCode::UnknownBackend
        );
        assert_eq!(
            code(decode_submit(
                "aspen16",
                "magic",
                GHZ,
                Priority::Batch,
                false,
                Strategy::Flat
            )),
            ErrorCode::UnknownMapper
        );
        assert_eq!(
            code(decode_submit(
                "aspen16",
                "qlosure",
                "qreg q[",
                Priority::Batch,
                false,
                Strategy::Flat
            )),
            ErrorCode::QasmError
        );
        let big = "OPENQASM 2.0;\nqreg q[40];\ncx q[0], q[39];\n";
        assert_eq!(
            code(decode_submit(
                "aspen16",
                "qlosure",
                big,
                Priority::Batch,
                false,
                Strategy::Flat
            )),
            ErrorCode::DeviceTooSmall
        );
    }

    #[test]
    fn every_roster_mapper_resolves() {
        for name in MAPPER_NAMES {
            let mapper = mapper_by_name(name).unwrap_or_else(|| panic!("{name} must resolve"));
            assert_eq!(mapper.name(), name);
        }
        assert!(mapper_by_name("").is_none());
    }

    #[test]
    fn shared_device_memoizes_per_name() {
        // Submissions against one backend share its device allocation.
        let decode = || {
            decode_submit(
                "king9",
                "qlosure",
                GHZ,
                Priority::Batch,
                false,
                Strategy::Flat,
            )
            .unwrap()
            .device
        };
        assert!(Arc::ptr_eq(&decode(), &decode()));
    }
}
