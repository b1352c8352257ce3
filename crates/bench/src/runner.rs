//! Timed, verified mapper execution and the experiment rosters.
//!
//! Since PR 2 every reproduction binary funnels its jobs through the
//! [`engine::BatchEngine`] work-stealing pool via [`engine_batch`]: jobs
//! get deterministic IDs, results come back in roster order regardless of
//! the `ENGINE_THREADS` worker count, and each run writes (overwriting any
//! previous run's) `BENCH_<name>.json` report with per-job wall time and
//! the observed speedup, so the JSON artifacts track the parallel
//! trajectory.

use baselines::{CirqMapper, QmapMapper, SabreMapper, TketMapper};
use circuit::{verify_routing, Circuit};
use engine::BatchEngine;
use qlosure::{Mapper, MappingResult, QlosureMapper};
use std::sync::Arc;
use std::time::{Duration, Instant};
use topology::{backends, CouplingGraph};

/// Replicate-count presets: `Small` keeps the full pipeline CI-friendly,
/// `Full` matches the paper (9 depths × 10 seeds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// 3 depths × 1 seed per configuration.
    Small,
    /// 9 depths × 10 seeds per configuration (paper §VI-A4).
    Full,
}

impl Scale {
    /// Parses `--scale small|full` style arguments (defaults to `Small`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an unknown `--scale` value.
    pub fn from_args() -> Result<Scale, String> {
        Scale::parse_from(std::env::args().skip(1))
    }

    /// [`Scale::from_args`] with a graceful exit: prints the error to
    /// stderr and terminates with status 2 instead of panicking.
    pub fn from_args_or_exit() -> Scale {
        Scale::from_args().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// The testable core of the CLI parsing.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an unknown `--scale` value.
    pub fn parse_from<I>(args: I) -> Result<Scale, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            if a == "--scale" {
                return match args.next().as_deref() {
                    Some("full") => Ok(Scale::Full),
                    Some("small") | None => Ok(Scale::Small),
                    Some(other) => Err(format!(
                        "unknown scale `{other}` (expected `small` or `full`)"
                    )),
                };
            }
        }
        Ok(Scale::Small)
    }

    /// The QUEKO depth grid for this scale.
    pub fn depths(&self) -> Vec<usize> {
        match self {
            Scale::Small => vec![100, 500, 900],
            Scale::Full => queko::bss_depths(),
        }
    }

    /// Seeds per depth.
    pub fn seeds(&self) -> usize {
        match self {
            Scale::Small => 1,
            Scale::Full => 10,
        }
    }
}

/// Reads a `--backend <name>` CLI argument.
pub fn backend_arg(default: &str) -> String {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--backend" {
            return args.next().unwrap_or_else(|| default.to_string());
        }
    }
    default.to_string()
}

/// Resolves an evaluation back-end by name.
///
/// # Panics
///
/// Panics on unknown names.
pub fn backend_by_name(name: &str) -> CouplingGraph {
    // One shared name→device decoder across the workspace: the service
    // daemon resolves request backends through the same function.
    backends::by_name(name).unwrap_or_else(|| panic!("unknown backend `{name}`"))
}

/// Resolves a back-end by name through the process-wide device memo
/// ([`backends::shared_by_name`]), so every job of a batch shares one
/// allocation — one adjacency/neighbor table — per device instead of
/// rebuilding the graph per job.
///
/// # Panics
///
/// Panics on unknown names (same roster as [`backend_by_name`]).
pub fn shared_backend(name: &str) -> Arc<CouplingGraph> {
    backends::shared_by_name(name).unwrap_or_else(|| panic!("unknown backend `{name}`"))
}

/// The mapper roster of the evaluation (paper order).
pub fn all_mappers() -> Vec<Box<dyn Mapper + Send + Sync>> {
    vec![
        Box::new(SabreMapper::default()),
        Box::new(QmapMapper::default()),
        Box::new(CirqMapper::default()),
        Box::new(TketMapper::default()),
        Box::new(QlosureMapper::default()),
    ]
}

/// Names in roster order.
pub fn mapper_names() -> Vec<&'static str> {
    vec!["sabre", "qmap", "cirq", "tket", "qlosure"]
}

/// One verified mapping run.
#[derive(Clone, Debug)]
pub struct MapOutcome {
    /// SWAPs inserted.
    pub swaps: usize,
    /// Routed depth (unit-gate model).
    pub depth: usize,
    /// Wall-clock mapping time.
    pub elapsed: Duration,
    /// Per-pass wall-clock timings (`stage:name`, seconds) when the
    /// mapper is pipeline-based; empty for opaque mappers.
    pub passes: Vec<(String, f64)>,
}

/// Runs `mapper` on `circuit`×`device`, verifies the result and returns
/// the metrics. Pipeline-based mappers run through their pass composition
/// (identical result to `Mapper::map`) so the outcome carries per-pass
/// timings.
///
/// # Panics
///
/// Panics if the routed circuit fails verification — a mapper bug, never
/// an acceptable data point.
pub fn run_verified(
    mapper: &(dyn Mapper + Send + Sync),
    circuit: &Circuit,
    device: &CouplingGraph,
) -> MapOutcome {
    let start = Instant::now();
    let timed = qlosure::run_mapper_timed(mapper, circuit, device);
    let (result, passes): (MappingResult, Vec<(String, f64)>) = (timed.result, timed.passes);
    let elapsed = start.elapsed();
    verify_routing(
        circuit,
        &result.routed,
        &|a, b| device.is_adjacent(a, b),
        &result.initial_layout,
    )
    .unwrap_or_else(|e| panic!("{} produced invalid routing: {e}", mapper.name()));
    MapOutcome {
        swaps: result.swaps,
        depth: result.routed.depth(),
        elapsed,
        passes,
    }
}

/// Per-job metric columns recorded in the JSON report (integer-valued so
/// the report is byte-identical across runs; timings are kept separate).
pub type Metrics = Vec<(String, i64)>;

/// Per-pass timing columns of one job (`stage:name`, seconds), as
/// produced by [`MapOutcome::passes`].
pub type PassSeconds = Vec<(String, f64)>;

/// Runs `jobs` through the [`BatchEngine`] (sized by `ENGINE_THREADS`),
/// returns the results in roster order, and writes `BENCH_<name>.json`
/// with per-job wall time, per-pass times, batch wall time and the
/// observed speedup.
///
/// `label` names each job in the report; `metrics` extracts the
/// non-timing result columns; `passes` extracts the per-pass timing
/// columns (return an empty vector for jobs without pipeline timings).
/// Everything in the JSON except the `*seconds*`/`speedup` fields (and
/// `threads`) is byte-identical across thread counts — the determinism
/// contract of the engine.
pub fn engine_batch<T, R, F, L, M, P>(
    name: &str,
    jobs: Vec<T>,
    label: L,
    metrics: M,
    passes: P,
    f: F,
) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    L: Fn(&T) -> String,
    M: Fn(&R) -> Metrics,
    P: Fn(&R) -> PassSeconds,
{
    let batch = BatchEngine::from_env();
    let labels: Vec<String> = jobs.iter().map(&label).collect();
    let wall0 = Instant::now();
    let timed: Vec<(R, f64, f64)> = batch.execute(jobs, |job| {
        // The whole roster is enqueued when the batch starts, so pickup
        // time relative to `wall0` is this job's queueing delay.
        let queue_seconds = wall0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let r = f(job);
        let seconds = t0.elapsed().as_secs_f64();
        (r, seconds, queue_seconds)
    });
    let wall_seconds = wall0.elapsed().as_secs_f64();
    let rows: Vec<crate::report::JsonJobRow> = timed
        .iter()
        .zip(&labels)
        .enumerate()
        .map(
            |(id, ((r, seconds, queue), label))| crate::report::JsonJobRow {
                id,
                label: label.clone(),
                seconds: *seconds,
                metrics: metrics(r),
                pass_seconds: passes(r),
                queue_seconds: Some(*queue),
            },
        )
        .collect();
    let (cpu_seconds, speedup) = crate::report::batch_totals(wall_seconds, &rows);
    eprintln!(
        "{name}: {} jobs on {} thread(s): wall {wall_seconds:.2}s, cpu {cpu_seconds:.2}s, \
         speedup {speedup:.2}x",
        rows.len(),
        batch.threads(),
    );
    match crate::report::write_batch_json(name, batch.threads(), wall_seconds, &rows) {
        Ok(path) => eprintln!("{name}: wrote {}", path.display()),
        Err(e) => eprintln!("{name}: could not write JSON report: {e}"),
    }
    timed.into_iter().map(|(r, _, _)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rosters_line_up() {
        assert_eq!(all_mappers().len(), mapper_names().len());
        for (m, n) in all_mappers().iter().zip(mapper_names()) {
            assert_eq!(m.name(), n);
        }
    }

    #[test]
    fn run_verified_times_and_checks() {
        let device = backends::line(4);
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let out = run_verified(&QlosureMapper::default(), &c, &device);
        assert!(out.swaps >= 2);
        // Distance-3 pair: two swaps (parallelizable) plus the CX.
        assert!(out.depth >= 2);
        // Qlosure is pipeline-based: per-pass timings come along.
        let labels: Vec<&str> = out.passes.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            vec!["analysis:weights", "layout:identity", "routing:qlosure"]
        );
    }

    #[test]
    fn scale_parses_all_three_branches() {
        let args = |list: &[&str]| list.iter().map(ToString::to_string).collect::<Vec<_>>();
        // Branch 1: explicit full.
        assert_eq!(
            Scale::parse_from(args(&["--scale", "full"])),
            Ok(Scale::Full)
        );
        // Branch 2: explicit small, trailing flag, and the no-flag default.
        assert_eq!(
            Scale::parse_from(args(&["--scale", "small"])),
            Ok(Scale::Small)
        );
        assert_eq!(Scale::parse_from(args(&["--scale"])), Ok(Scale::Small));
        assert_eq!(
            Scale::parse_from(args(&["--backend", "x"])),
            Ok(Scale::Small)
        );
        // Branch 3: unknown values are an error message, not a panic.
        let err = Scale::parse_from(args(&["--scale", "huge"])).unwrap_err();
        assert!(err.contains("unknown scale `huge`"), "got: {err}");
        assert!(err.contains("small"), "message names the valid values");
    }

    #[test]
    fn shared_backend_returns_one_allocation_per_name() {
        let a = shared_backend("aspen16");
        let b = shared_backend("aspen16");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, backend_by_name("aspen16"));
    }

    #[test]
    fn engine_batch_preserves_order_and_returns_results() {
        let jobs: Vec<u64> = (0..40).collect();
        let out = engine_batch(
            "runner_unit_test",
            jobs,
            |j| format!("job-{j}"),
            |r| vec![("value".to_string(), *r as i64)],
            |_| Vec::new(),
            |&x| x * 2,
        );
        assert_eq!(out, (0..40).map(|x| x * 2).collect::<Vec<_>>());
        // engine_batch writes its report to the (test) working directory;
        // don't leave the artifact behind.
        std::fs::remove_file("BENCH_runner_unit_test.json").ok();
    }

    #[test]
    fn batch_json_file_round_trips_through_explicit_dir() {
        // Unique per-process dir; no process-global env mutation, so this
        // cannot race with parallel tests or concurrent `cargo test` runs.
        let temp = std::env::temp_dir().join(format!("qlosure-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&temp).unwrap();
        let rows = vec![crate::report::JsonJobRow {
            id: 0,
            label: "job-7".into(),
            seconds: 0.5,
            metrics: vec![("value".to_string(), 14)],
            pass_seconds: vec![],
            queue_seconds: None,
        }];
        let path =
            crate::report::write_batch_json_in(&temp, "runner_unit_test", 2, 1.0, &rows).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"label\": \"job-7\""));
        assert!(json.contains("\"value\": 14"));
        assert!(json.contains("\"speedup\""));
        std::fs::remove_dir_all(&temp).ok();
    }

    #[test]
    fn backends_resolve() {
        for name in [
            "sherbrooke",
            "ankaa3",
            "sherbrooke2x",
            "king9",
            "king16",
            "aspen16",
            "sycamore54",
        ] {
            let b = backend_by_name(name);
            assert!(b.n_qubits() >= 16);
        }
    }
}
