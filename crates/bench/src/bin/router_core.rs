//! Raw-speed benchmark of the routing core at 1000+ qubit scale.
//!
//! Maps one 1024-qubit QUEKO instance (grid 32×32, depth 8, 20%
//! two-qubit density, seed 1) cold with the flat `QlosureMapper` and cold
//! with the hierarchical `HierMapper` (`--scale full` adds a 2048-qubit
//! point). Every routed output passes `verify_routing` inside
//! `run_verified`. Output: `BENCH_router_core.json` with one row per
//! (backend, mapper) pair plus the committed flat budget as an extra, and
//! a summary table on stdout.
//!
//! Exit status: 1 if the 1024-qubit flat cold map exceeds
//! [`FLAT_COLD_1024Q_BUDGET_SECONDS`] — the CSR + bitset + batched-scoring
//! core regressing toward the pre-rewrite quadratic candidate scans
//! (~172 s on the same instance) is a build failure, not a slow run.

use bench_support::report::JsonJobRow;
use bench_support::{run_verified, shared_backend, Scale};
use hier::HierMapper;
use qlosure::{Mapper, QlosureMapper};
use queko::QuekoSpec;
use std::time::Instant;

/// Committed wall-time budget for the 1024-qubit flat cold map. The
/// pre-rewrite router took ~172 s on the CI machine class; the rewritten
/// core runs the same instance in ~11-15 s, so this bound holds a ~2×
/// margin against machine jitter while still failing on any return of
/// the quadratic scans.
const FLAT_COLD_1024Q_BUDGET_SECONDS: f64 = 30.0;

fn mapper_for(name: &str) -> Box<dyn Mapper + Send + Sync> {
    match name {
        "flat" => Box::new(QlosureMapper::default()),
        "hier" => Box::new(HierMapper::default()),
        other => panic!("unknown mapper `{other}`"),
    }
}

fn main() {
    let scale = Scale::from_args_or_exit();
    // (backend, qubits, depth, density): the 1024-qubit point is the
    // budget gate; depth shrinks with size so `full` stays runnable.
    let points: Vec<(&'static str, usize, usize, f64)> = match scale {
        Scale::Small => vec![("grid:32x32", 1024, 8, 0.2)],
        Scale::Full => vec![("grid:32x32", 1024, 8, 0.2), ("grid:32x64", 2048, 4, 0.1)],
    };

    let wall0 = Instant::now();
    let mut rows: Vec<JsonJobRow> = Vec::new();
    let mut flat_1024q_seconds = f64::NAN;
    println!("== router_core — cold mapping wall time ==");
    println!("backend,qubits,qops,mapper,seconds,swaps");
    for &(backend, qubits, depth, density) in &points {
        let device = shared_backend(backend);
        let bench = QuekoSpec::new(&device, depth)
            .density_2q(density)
            .seed(1)
            .generate();
        let qops = bench.circuit.qop_count();
        for mapper in ["flat", "hier"] {
            let out = run_verified(mapper_for(mapper).as_ref(), &bench.circuit, &device);
            let seconds = out.elapsed.as_secs_f64();
            if mapper == "flat" && qubits == 1024 {
                flat_1024q_seconds = seconds;
            }
            println!(
                "{backend},{qubits},{qops},{mapper},{seconds:.3},{}",
                out.swaps
            );
            rows.push(JsonJobRow {
                id: rows.len(),
                label: format!("{backend}-d{depth}-{mapper}-cold"),
                seconds,
                metrics: vec![
                    ("qubits".to_string(), qubits as i64),
                    ("qops".to_string(), qops as i64),
                    ("swaps".to_string(), out.swaps as i64),
                ],
                pass_seconds: out.passes,
                queue_seconds: None,
            });
        }
    }
    let wall_seconds = wall0.elapsed().as_secs_f64();

    let extras = vec![(
        "flat_1024q_budget_millis".to_string(),
        (FLAT_COLD_1024Q_BUDGET_SECONDS * 1000.0) as i64,
    )];
    match bench_support::report::write_batch_json_with(
        "router_core",
        1,
        wall_seconds,
        &rows,
        &extras,
    ) {
        Ok(path) => eprintln!("router_core: wrote {}", path.display()),
        Err(e) => eprintln!("router_core: could not write JSON report: {e}"),
    }

    println!(
        "\n1024q flat cold: {flat_1024q_seconds:.3}s (budget {FLAT_COLD_1024Q_BUDGET_SECONDS}s)"
    );
    if flat_1024q_seconds > FLAT_COLD_1024Q_BUDGET_SECONDS {
        eprintln!(
            "router_core: FATAL: 1024q flat cold map took {flat_1024q_seconds:.1}s, \
             over the committed {FLAT_COLD_1024Q_BUDGET_SECONDS}s budget"
        );
        std::process::exit(1);
    }
}
