//! Domain scenario: a five-way mapper shoot-out on a QUEKO instance with
//! known optimal depth — the core experiment of the paper's §VI-C, in
//! miniature.
//!
//! ```text
//! cargo run --release --example mapper_shootout [depth]
//! ```

use baselines::all_baselines;
use circuit::verify_routing;
use qlosure::{Mapper, QlosureMapper};
use queko::QuekoSpec;
use topology::backends;

fn main() {
    let depth: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(300);
    let gen_device = backends::king_grid(9, 9);
    let device = backends::sherbrooke();
    let bench = QuekoSpec::new(&gen_device, depth).seed(1).generate();
    println!(
        "queko-bss-81qbt @ optimal depth {}: {} gates ({} two-qubit)",
        bench.optimal_depth,
        bench.circuit.qop_count(),
        bench.circuit.two_qubit_count()
    );
    println!(
        "{:<8} {:>7} {:>7} {:>12} {:>8}",
        "mapper", "swaps", "depth", "depth-factor", "time"
    );
    let mut mappers: Vec<Box<dyn Mapper + Send + Sync>> = all_baselines();
    mappers.push(Box::new(QlosureMapper::default()));
    for mapper in &mappers {
        let start = std::time::Instant::now();
        let result = mapper.map(&bench.circuit, &device);
        let elapsed = start.elapsed();
        verify_routing(
            &bench.circuit,
            &result.routed,
            &|a, b| device.is_adjacent(a, b),
            &result.initial_layout,
        )
        .expect("routing verifies");
        println!(
            "{:<8} {:>7} {:>7} {:>12.2} {:>7.2}s",
            mapper.name(),
            result.swaps,
            result.depth(),
            result.depth() as f64 / bench.optimal_depth as f64,
            elapsed.as_secs_f64()
        );
    }
}
