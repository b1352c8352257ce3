//! Hierarchical vs. flat mapping at 1000+ qubit scale.
//!
//! Sweeps structured square grids (256 → 4096 qubits) with shallow QUEKO
//! traffic, mapping each instance with the flat `QlosureMapper` and the
//! hierarchical `HierMapper` (cold), then re-mapping the hier roster in a
//! *warm* second pass that must replay sub-routing plans out of the
//! content-keyed fragment memo. Every routed output passes
//! `verify_routing` inside `run_verified`. Output: `BENCH_hier.json`
//! (per-job wall times plus memo and distance-cache counters as top-level
//! extras) and a flat-vs-hier comparison table on stdout.
//!
//! Exit status: 1 if the warm pass records **zero** fragment-memo hits —
//! the memo regressing to a no-op is a build failure, not a slow run —
//! or **any** shared distance-cache miss. The warm pass re-maps the same
//! devices, so every device and region quotient matrix must still be
//! resident; a miss means something flooded the bounded cache.

use bench_support::report::{batch_totals, JsonJobRow};
use bench_support::{run_verified, shared_backend, Scale};
use engine::BatchEngine;
use hier::HierMapper;
use qlosure::{Mapper, QlosureMapper};
use queko::QuekoSpec;
use std::time::Instant;

/// One roster entry: backend name, QUEKO depth and two-qubit density,
/// mapper, pass label.
struct Job {
    backend: &'static str,
    depth: usize,
    density: f64,
    mapper: &'static str,
    pass: &'static str,
}

impl Job {
    fn label(&self) -> String {
        format!(
            "{}-d{}-{}-{}",
            self.backend, self.depth, self.mapper, self.pass
        )
    }
}

fn mapper_for(name: &str) -> Box<dyn Mapper + Send + Sync> {
    match name {
        "flat" => Box::new(QlosureMapper::default()),
        "hier" => Box::new(HierMapper::default()),
        other => panic!("unknown mapper `{other}`"),
    }
}

fn run_batch(engine: &BatchEngine, jobs: &[Job]) -> Vec<(String, usize, usize, usize, f64)> {
    engine.execute(jobs.iter().collect(), |job| {
        let device = shared_backend(job.backend);
        let bench = QuekoSpec::new(&device, job.depth)
            .density_2q(job.density)
            .seed(1)
            .generate();
        let qops = bench.circuit.qop_count();
        let out = run_verified(mapper_for(job.mapper).as_ref(), &bench.circuit, &device);
        (
            job.label(),
            device.n_qubits(),
            qops,
            out.swaps,
            out.elapsed.as_secs_f64(),
        )
    })
}

fn main() {
    let scale = Scale::from_args_or_exit();
    // (backend, depth): depth shrinks with device size so the flat
    // baseline stays runnable; `--scale full` doubles the traffic.
    let factor = match scale {
        Scale::Small => 1,
        Scale::Full => 2,
    };
    // `--max-qubits N` trims the sweep's large end (tuning / quick CI).
    let max_qubits = {
        let mut args = std::env::args().skip(1);
        let mut cap = usize::MAX;
        while let Some(a) = args.next() {
            if a == "--max-qubits" {
                cap = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(usize::MAX);
            }
        }
        cap
    };
    // Depth and density shrink with device size so the *flat* baseline
    // stays runnable — the whole point of the sweep is that the flat
    // router's per-SWAP cost explodes with the front size at scale while
    // the hierarchical one's does not.
    let points: Vec<(&'static str, usize, f64)> = [
        ("grid:16x16", 256, 16 * factor, 0.3),
        ("grid:32x32", 1024, 8 * factor, 0.2),
        ("grid:32x64", 2048, 4 * factor, 0.1),
        ("grid:64x64", 4096, 2 * factor, 0.05),
    ]
    .into_iter()
    .filter(|&(_, qubits, _, _)| qubits <= max_qubits)
    .map(|(backend, _, depth, density)| (backend, depth, density))
    .collect();
    let cold: Vec<Job> = points
        .iter()
        .flat_map(|&(backend, depth, density)| {
            ["flat", "hier"].into_iter().map(move |mapper| Job {
                backend,
                depth,
                density,
                mapper,
                pass: "cold",
            })
        })
        .collect();
    let warm: Vec<Job> = points
        .iter()
        .map(|&(backend, depth, density)| Job {
            backend,
            depth,
            density,
            mapper: "hier",
            pass: "warm",
        })
        .collect();

    let engine = BatchEngine::from_env();
    let (dist_h0, dist_m0) = topology::shared_distance_stats();
    let (memo_h0, memo_m0) = hier::subroute_memo_stats();
    let plan0 = hier::plan_store_stats();
    let wall0 = Instant::now();
    let cold_rows = run_batch(&engine, &cold);
    let (memo_h1, memo_m1) = hier::subroute_memo_stats();
    let plan1 = hier::plan_store_stats();
    let (_, dist_m_cold) = topology::shared_distance_stats();
    // Warm pass: identical hier jobs — every fragment must now be a hit.
    let warm_rows = run_batch(&engine, &warm);
    let wall_seconds = wall0.elapsed().as_secs_f64();
    let (memo_h2, memo_m2) = hier::subroute_memo_stats();
    let plan2 = hier::plan_store_stats();
    let (dist_h1, dist_m1) = topology::shared_distance_stats();

    let rows: Vec<JsonJobRow> = cold_rows
        .iter()
        .chain(&warm_rows)
        .enumerate()
        .map(|(id, (label, qubits, qops, swaps, seconds))| JsonJobRow {
            id,
            label: label.clone(),
            seconds: *seconds,
            metrics: vec![
                ("qubits".to_string(), *qubits as i64),
                ("qops".to_string(), *qops as i64),
                ("swaps".to_string(), *swaps as i64),
            ],
            pass_seconds: Vec::new(),
            queue_seconds: None,
        })
        .collect();
    let warm_hits = memo_h2 - memo_h1;
    let dist_misses_warm = dist_m1 - dist_m_cold;
    let extras = vec![
        ("memo_misses_cold".to_string(), (memo_m1 - memo_m0) as i64),
        ("memo_hits_cold".to_string(), (memo_h1 - memo_h0) as i64),
        ("memo_hits_warm".to_string(), warm_hits as i64),
        ("memo_misses_warm".to_string(), (memo_m2 - memo_m1) as i64),
        // Hit tiers: what canonicalization buys beyond exact replay.
        (
            "plan_exact_hits_cold".to_string(),
            (plan1.exact_hits - plan0.exact_hits) as i64,
        ),
        (
            "plan_canonical_hits_cold".to_string(),
            (plan1.canonical_hits - plan0.canonical_hits) as i64,
        ),
        (
            "plan_exact_hits_warm".to_string(),
            (plan2.exact_hits - plan1.exact_hits) as i64,
        ),
        (
            "plan_canonical_hits_warm".to_string(),
            (plan2.canonical_hits - plan1.canonical_hits) as i64,
        ),
        ("distance_hits".to_string(), (dist_h1 - dist_h0) as i64),
        ("distance_misses".to_string(), (dist_m1 - dist_m0) as i64),
        ("distance_misses_warm".to_string(), dist_misses_warm as i64),
    ];
    let (cpu_seconds, speedup) = batch_totals(wall_seconds, &rows);
    eprintln!(
        "hier: {} jobs on {} thread(s): wall {wall_seconds:.2}s, cpu {cpu_seconds:.2}s, \
         speedup {speedup:.2}x",
        rows.len(),
        engine.threads(),
    );
    match bench_support::report::write_batch_json_with(
        "hier",
        engine.threads(),
        wall_seconds,
        &rows,
        &extras,
    ) {
        Ok(path) => eprintln!("hier: wrote {}", path.display()),
        Err(e) => eprintln!("hier: could not write JSON report: {e}"),
    }

    println!("== hier_scaling — flat vs hierarchical wall time ==");
    println!("backend,qubits,qops,flat_s,hier_s,hier_warm_s,flat_swaps,hier_swaps,speedup");
    for (i, &(backend, _, _)) in points.iter().enumerate() {
        let flat = &cold_rows[2 * i];
        let hier_cold = &cold_rows[2 * i + 1];
        let hier_warm = &warm_rows[i];
        println!(
            "{backend},{},{},{:.3},{:.3},{:.3},{},{},{:.2}x",
            flat.1,
            flat.2,
            flat.4,
            hier_cold.4,
            hier_warm.4,
            flat.3,
            hier_cold.3,
            flat.4 / hier_cold.4.max(1e-9),
        );
    }
    println!(
        "\nfragment memo: cold {}m/{}h, warm {}h/{}m; distance cache {}h/{}m ({}m warm)",
        memo_m1 - memo_m0,
        memo_h1 - memo_h0,
        warm_hits,
        memo_m2 - memo_m1,
        dist_h1 - dist_h0,
        dist_m1 - dist_m0,
        dist_misses_warm,
    );
    println!(
        "plan tiers: cold {} exact + {} canonical, warm {} exact + {} canonical",
        plan1.exact_hits - plan0.exact_hits,
        plan1.canonical_hits - plan0.canonical_hits,
        plan2.exact_hits - plan1.exact_hits,
        plan2.canonical_hits - plan1.canonical_hits,
    );
    if warm_hits == 0 {
        eprintln!("hier: FATAL: warm pass recorded zero fragment-memo hits");
        std::process::exit(1);
    }
    if dist_misses_warm != 0 {
        eprintln!(
            "hier: FATAL: warm pass recomputed {dist_misses_warm} distance matrices \
             (device matrices were evicted from the shared cache)"
        );
        std::process::exit(1);
    }
}
