//! Domain scenario: map a 63-qubit quantum Fourier transform (the
//! `qft_n63` workload from the paper's Table V) onto IBM Sherbrooke and
//! compare Qlosure with the SABRE baseline — including the dependence
//! analysis details the paper's §IV builds on.
//!
//! ```text
//! cargo run --release -p qlosure --example qft_on_sherbrooke
//! ```

use affine::{DependenceAnalysis, WeightMode};
use baselines::SabreMapper;
use circuit::verify_routing;
use qlosure::{Mapper, QlosureMapper};
use topology::backends;

fn main() {
    let circuit = qasmbench::qft(63);
    let device = backends::sherbrooke();
    println!(
        "qft_n63: {} gates ({} two-qubit), logical depth {}",
        circuit.qop_count(),
        circuit.two_qubit_count(),
        circuit.depth()
    );
    // Peek at the affine machinery: the QFT's controlled-phase ladders are
    // exactly the regular structure QRANE-style lifting compresses.
    let lifting = affine::lift_interactions(&circuit);
    println!(
        "lifting: {} interactions -> {} macro-gates (compression {:.1}x)",
        lifting.n_interactions(),
        lifting.statements.len(),
        lifting.compression()
    );
    // QFT-63 sits far below `affine::AFFINE_MIN_INTERACTIONS`, where exact
    // graph reachability costs less than closing the lifted relation, so
    // `Auto` takes the graph path without lifting.
    let analysis = DependenceAnalysis::new(&circuit, WeightMode::Auto);
    println!(
        "dependence weights via {:?}; heaviest gate blocks {} downstream gates",
        analysis.path(),
        analysis.weights().iter().max().unwrap_or(&0)
    );
    for mapper in [
        &QlosureMapper::default() as &dyn Mapper,
        &SabreMapper::default() as &dyn Mapper,
    ] {
        let start = std::time::Instant::now();
        let result = mapper.map(&circuit, &device);
        let elapsed = start.elapsed();
        verify_routing(
            &circuit,
            &result.routed,
            &|a, b| device.is_adjacent(a, b),
            &result.initial_layout,
        )
        .expect("routing verifies");
        println!(
            "{:<8} swaps {:>6}  depth {:>6}  time {:.2}s",
            mapper.name(),
            result.swaps,
            result.depth(),
            elapsed.as_secs_f64()
        );
    }
}
