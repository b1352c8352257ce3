//! Domain scenario: error-aware mapping — the paper's stated future-work
//! direction. A synthetic calibration (log-uniform spread of two-qubit
//! error rates, like published Eagle data) replaces hop counts with
//! reliability-weighted distances, and the estimated success probability
//! of the routed circuit is compared against noise-blind routing.
//!
//! ```text
//! cargo run --release --example noise_aware
//! ```

use circuit::verify_routing;
use qlosure::{Mapper, QlosureMapper};
use topology::{backends, NoiseModel};

fn success(noise: &NoiseModel, routed: &circuit::Circuit) -> f64 {
    let gates: Vec<(&str, &[u32])> = routed
        .gates()
        .iter()
        .map(|g| (g.kind.name(), g.qubits.as_slice()))
        .collect();
    noise.success_probability(gates)
}

fn main() {
    let device = backends::sherbrooke();
    let noise = NoiseModel::synthetic(&device, 7e-3, 42);
    let circuit = qasmbench::qugan(39, 13);
    println!(
        "qugan_n39 on {} with synthetic calibration (median 2q error 7e-3)",
        device.name()
    );
    let mapper = QlosureMapper::default();

    let blind = mapper.map(&circuit, &device);
    verify_routing(
        &circuit,
        &blind.routed,
        &|a, b| device.is_adjacent(a, b),
        &blind.initial_layout,
    )
    .expect("blind routing verifies");

    let aware = mapper.map_noise_aware(&circuit, &device, &noise);
    verify_routing(
        &circuit,
        &aware.routed,
        &|a, b| device.is_adjacent(a, b),
        &aware.initial_layout,
    )
    .expect("noise-aware routing verifies");

    println!(
        "noise-blind : {:>4} swaps, depth {:>4}, est. success {:.3e}",
        blind.swaps,
        blind.depth(),
        success(&noise, &blind.routed)
    );
    println!(
        "noise-aware : {:>4} swaps, depth {:>4}, est. success {:.3e}",
        aware.swaps,
        aware.depth(),
        success(&noise, &aware.routed)
    );
}
