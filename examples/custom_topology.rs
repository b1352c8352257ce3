//! Domain scenario: bring-your-own QPU. Define a custom coupling graph,
//! inspect its distance matrix, and route an adder across it with the full
//! Qlosure configuration surface (cost variants, bidirectional passes).
//!
//! ```text
//! cargo run --release --example custom_topology
//! ```

use circuit::verify_routing;
use qlosure::{CostVariant, InitialMapping, Mapper, QlosureConfig, QlosureMapper};
use topology::CouplingGraph;

fn main() {
    // A hypothetical 2x16 "ladder" QPU with sparse rungs.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for i in 0..15u32 {
        edges.push((i, i + 1)); // top rail
        edges.push((16 + i, 17 + i)); // bottom rail
    }
    for i in (0..16u32).step_by(3) {
        edges.push((i, 16 + i)); // every third rung
    }
    let device = CouplingGraph::new("ladder_2x16", 32, &edges);
    let dist = device.distances();
    println!(
        "{}: {} qubits, {} edges, diameter {}",
        device.name(),
        device.n_qubits(),
        device.n_edges(),
        dist.diameter()
    );
    let circuit = qasmbench::cuccaro_adder(28);
    println!(
        "adder_n28: {} gates ({} two-qubit), logical depth {}",
        circuit.qop_count(),
        circuit.two_qubit_count(),
        circuit.depth()
    );
    for (label, config) in [
        (
            "distance-only",
            QlosureConfig {
                cost: CostVariant::DistanceOnly,
                ..QlosureConfig::default()
            },
        ),
        ("full Eq.(2)", QlosureConfig::default()),
        (
            "full + bidirectional",
            QlosureConfig {
                initial: InitialMapping::Bidirectional { passes: 2 },
                ..QlosureConfig::default()
            },
        ),
    ] {
        let mapper = QlosureMapper::with_config(config);
        let result = mapper.map(&circuit, &device);
        verify_routing(
            &circuit,
            &result.routed,
            &|a, b| device.is_adjacent(a, b),
            &result.initial_layout,
        )
        .expect("routing verifies");
        println!(
            "{:<22} swaps {:>5}  depth {:>5}",
            label,
            result.swaps,
            result.depth()
        );
    }
}
