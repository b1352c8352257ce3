//! Quickstart: route a small QASM program onto IBM Sherbrooke with Qlosure.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use qlosure::{route_qasm, QlosureConfig};
use topology::backends;

const PROGRAM: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
creg c[5];
h q[0];
cx q[0], q[1];
cx q[0], q[2];
cx q[0], q[3];
cx q[0], q[4];
measure q -> c;
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = backends::sherbrooke();
    println!(
        "device: {} ({} qubits, {} couplings, max degree {})",
        device.name(),
        device.n_qubits(),
        device.n_edges(),
        device.max_degree()
    );
    let (mapped_qasm, result) = route_qasm(PROGRAM, &device, &QlosureConfig::default())?;
    println!(
        "routed with {} SWAPs at depth {}",
        result.swaps,
        result.depth()
    );
    println!("\n--- mapped program ---\n{mapped_qasm}");
    Ok(())
}
