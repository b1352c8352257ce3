//! The compile workloads (`queko-flat`, `qasmbench`, `hier-1k`): one
//! thread maps the roster one job at a time, each job being
//! `qasm::parse` → `Circuit::from_qasm` → the mapper's
//! `MappingPipeline::run` → `circuit::verify_routing`.

use crate::layers::{self, LayerTable, SelfTimes};
use crate::report::{RunOutcome, END_TO_END};
use crate::roster::{self, Job, MapperKind, Workload};
use crate::stats::{geomean, percentile, ratio};
use circuit::Circuit;
use hier::{HierConfig, HierMapper};
use qlosure::{Mapper, MappingPipeline, PipelineOutcome, QlosureMapper};
use service::SpanNode;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use topology::CouplingGraph;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Span capacity of one traced job: far above the largest `hier-1k` tree,
/// so no span is dropped and self times partition the job exactly.
const SPAN_CAPACITY: usize = 1 << 20;

/// Everything a run needs before its first timed job.
pub struct Prepared {
    pub jobs: Vec<Job>,
    pub devices: HashMap<String, CouplingGraph>,
}

/// Generates the roster, builds its devices and computes each device's
/// distance matrix. The last repetition fills the shared cache the
/// mapper reads; earlier ones compute the same matrices uncached, so every
/// repetition does the same work.
fn set_up_once(workload: Workload, seed: u64, n_jobs: usize, warm: bool) -> Prepared {
    let jobs = roster::roster(workload, seed, n_jobs);
    let mut devices = HashMap::new();
    for job in &jobs {
        devices.entry(job.backend.clone()).or_insert_with(|| {
            topology::backends::by_name(&job.backend).expect("roster backends resolve")
        });
    }
    for device in devices.values() {
        if warm {
            black_box(device.shared_distances());
        } else {
            black_box(device.distances());
        }
    }
    Prepared { jobs, devices }
}

/// [`SETUP_REPS`] timed set-ups, back to back; returns the last and
/// every time.
fn set_up(workload: Workload, seed: u64, n_jobs: usize) -> (Prepared, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        prepared = Some(set_up_once(workload, seed, n_jobs, rep + 1 == SETUP_REPS));
        times.push(t0.elapsed().as_secs_f64());
    }
    (prepared.expect("at least one set-up"), times)
}

/// The mapper pipeline of `kind`. `threads` pins the hierarchical
/// mapper's prefetch workers (the `ENGINE_THREADS` it would read).
pub fn pipeline(kind: MapperKind, threads: usize) -> MappingPipeline {
    match kind {
        MapperKind::Qlosure => QlosureMapper::default().to_pipeline(),
        MapperKind::Hier => HierMapper::with_config(HierConfig {
            threads: Some(threads),
            ..HierConfig::default()
        })
        .to_pipeline(),
        MapperKind::Sabre => baselines::SabreMapper::default()
            .pipeline()
            .expect("SABRE is a pass composition"),
    }
}

/// One job through the four public calls, each under a benchmark span
/// (inert unless the caller installed a tracing context).
pub fn execute(
    job: &Job,
    device: &CouplingGraph,
    pipeline: &MappingPipeline,
) -> Result<(Circuit, PipelineOutcome), String> {
    let program = {
        let _s = trace::span(layers::PARSE);
        qasm::parse(&job.qasm)
    }
    .map_err(|e| format!("parse: {e}"))?;
    let circuit = {
        let _s = trace::span(layers::CONVERT);
        Circuit::from_qasm(&program)
    }
    .map_err(|e| format!("convert: {e}"))?;
    let outcome = {
        let _s = trace::span(layers::PIPELINE);
        pipeline.run(&circuit, device)
    }
    .map_err(|e| format!("pipeline: {e}"))?;
    {
        let _s = trace::span(layers::VERIFY);
        circuit::verify_routing(
            &circuit,
            &outcome.result.routed,
            &|a, b| device.is_adjacent(a, b),
            &outcome.result.initial_layout,
        )
    }
    .map_err(|e| format!("verify: {e}"))?;
    Ok((circuit, outcome))
}

/// The output checks beyond `verify_routing`: a QUEKO routing can never
/// beat the known optimal depth.
pub fn check_depth(job: &Job, depth: usize) -> Result<(), String> {
    if job.optimal && depth < job.ref_depth {
        return Err(format!(
            "routed depth {depth} is below the known optimum {}",
            job.ref_depth
        ));
    }
    Ok(())
}

/// A finished job's circuit, swaps and routed depth, once every check
/// passed.
fn checked(
    job: &Job,
    result: Result<(Circuit, PipelineOutcome), String>,
) -> Result<(Circuit, usize, usize), String> {
    let (circuit, outcome) = result?;
    let depth = outcome.result.depth();
    check_depth(job, depth)?;
    Ok((circuit, outcome.result.swaps, depth))
}

/// Quality totals over the verified jobs of a run.
#[derive(Default)]
pub struct Quality {
    pub ok: usize,
    pub qops: usize,
    pub swaps: usize,
    pub depth_ratios: Vec<f64>,
}

impl Quality {
    pub fn add(&mut self, job: &Job, swaps: usize, depth: usize) {
        self.ok += 1;
        self.qops += job.qops;
        self.swaps += swaps;
        self.depth_ratios.push(depth as f64 / job.ref_depth as f64);
    }
}

/// Maps `jobs` untraced, in order; returns per-job latencies (s) of the
/// verified jobs, the quality totals and the failures.
fn map_all(
    jobs: &[Job],
    devices: &HashMap<String, CouplingGraph>,
    threads: usize,
) -> (Vec<f64>, Quality, Vec<String>) {
    let pipelines: HashMap<MapperKind, MappingPipeline> = jobs
        .iter()
        .map(|j| (j.mapper, pipeline(j.mapper, threads)))
        .collect();
    let mut latencies = Vec::with_capacity(jobs.len());
    let mut quality = Quality::default();
    let mut failures = Vec::new();
    for job in jobs {
        let pipeline = &pipelines[&job.mapper];
        let t0 = Instant::now();
        let result = execute(job, &devices[&job.backend], pipeline);
        let latency = t0.elapsed().as_secs_f64();
        match checked(job, result) {
            Ok((_, swaps, depth)) => {
                latencies.push(latency);
                quality.add(job, swaps, depth);
            }
            Err(e) => failures.push(format!("{}: {e}", job.label)),
        }
    }
    (latencies, quality, failures)
}

/// An untraced run: the end-to-end metrics.
pub fn run(workload: Workload, seed: u64, seconds: u64, threads: usize) -> RunOutcome {
    let n_jobs = workload.jobs_for(seconds);
    let (prepared, setup_times) = set_up(workload, seed, n_jobs);
    let closure0 = presburger::closure_memo_stats();
    let t0 = Instant::now();
    let (latencies, quality, failures) = map_all(&prepared.jobs, &prepared.devices, threads);
    let wall = t0.elapsed().as_secs_f64();
    let closure1 = presburger::closure_memo_stats();
    let mut out = RunOutcome {
        attempted: prepared.jobs.len(),
        failed: failures.len(),
        ..RunOutcome::default()
    };
    for f in failures {
        out.fail(f);
    }
    out.note(format!(
        "jobs={} timed_wall_s={wall:.3} samples_beyond_p90={}",
        prepared.jobs.len(),
        crate::stats::beyond(latencies.len(), 90.0)
    ));
    let (hits, misses) = (closure1.0 - closure0.0, closure1.1 - closure0.1);
    out.note(format!(
        "repeat_share={:.4} closure_hit_ratio={:.4} closure_lookups={}",
        roster::repeat_share(&prepared.jobs),
        ratio(hits as f64, (hits + misses) as f64),
        hits + misses
    ));
    out.note(crate::report::setup_note(&setup_times));
    let ms = |p| percentile(&latencies, p).unwrap_or(0.0) * 1e3;
    let rss = crate::probe::peak_rss_mib(std::process::id()).unwrap_or_else(|e| {
        out.fail(e);
        0.0
    });
    out.set_metrics(
        &END_TO_END,
        &[
            (
                "setup_s",
                percentile(&setup_times, 50.0).expect("timed set-ups"),
            ),
            ("throughput_qops_per_s", quality.qops as f64 / wall),
            ("latency_p50_ms", ms(50.0)),
            ("latency_p90_ms", ms(90.0)),
            ("swaps_total", quality.swaps as f64),
            (
                "depth_factor_geomean",
                geomean(&quality.depth_ratios).unwrap_or(0.0),
            ),
            ("ok_ratio", ratio(quality.ok as f64, out.attempted as f64)),
            ("peak_rss_mb", rss),
        ],
    );
    out
}

/// One job under a fresh tracer; returns the result, its span tree and
/// the job's traced wall time in nanoseconds.
pub fn execute_traced(
    job: &Job,
    device: &CouplingGraph,
    pipeline: &MappingPipeline,
    trace_id: u64,
) -> (
    Result<(Circuit, PipelineOutcome), String>,
    Option<SpanNode>,
    u64,
) {
    let tracer = trace::Tracer::new(trace_id, SPAN_CAPACITY);
    let ctx = trace::Ctx::new(tracer.clone(), trace::ROOT_SPAN);
    let start = trace::now_ns();
    let result = {
        let _ctx = trace::set_ctx(&ctx);
        execute(job, device, pipeline)
    };
    let end = trace::now_ns();
    tracer.finish_root("job", start, end, Vec::new());
    let tree = (tracer.dropped() == 0)
        .then(|| SpanNode::from_spans(&tracer.snapshot()))
        .flatten();
    (result, tree, end - start)
}

/// A traced run: the per-layer metrics of the same roster.
pub fn run_traced(workload: Workload, seed: u64, seconds: u64, threads: usize) -> RunOutcome {
    let n_jobs = workload.jobs_for(seconds);
    let prepared = set_up_once(workload, seed, n_jobs, true);
    let mut out = RunOutcome {
        attempted: prepared.jobs.len(),
        ..RunOutcome::default()
    };
    let kind = prepared.jobs[0].mapper;
    let pipeline = pipeline(kind, threads);
    let weight_mode = qlosure::QlosureConfig::default().weight_mode;
    let mut times = SelfTimes::default();
    let mut quality = Quality::default();
    let (mut parse_bytes, mut affine_jobs, mut wall_total_ns) = (0usize, 0usize, 0u64);
    let (mut closure, mut distance) = ((0u64, 0u64), (0u64, 0u64));
    let plan0 = hier::plan_store_stats();
    for (i, job) in prepared.jobs.iter().enumerate() {
        let device = &prepared.devices[&job.backend];
        let (c0, d0) = (
            presburger::closure_memo_stats(),
            topology::shared_distance_stats(),
        );
        let (result, tree, wall_ns) = execute_traced(job, device, &pipeline, i as u64 + 1);
        let (c1, d1) = (
            presburger::closure_memo_stats(),
            topology::shared_distance_stats(),
        );
        closure = (closure.0 + c1.0 - c0.0, closure.1 + c1.1 - c0.1);
        distance = (distance.0 + d1.0 - d0.0, distance.1 + d1.1 - d0.1);
        wall_total_ns += wall_ns;
        match tree.map(|t| times.add(&t)) {
            Some(sum) if sum == wall_ns => {}
            Some(sum) => out.fail(format!(
                "{}: self times sum to {sum} ns, traced wall is {wall_ns} ns",
                job.label
            )),
            None => out.fail(format!("{}: span tree lost spans", job.label)),
        }
        parse_bytes += job.qasm.len();
        match checked(job, result) {
            Ok((circuit, swaps, depth)) => {
                quality.add(job, swaps, depth);
                // Outside the job's span and memo deltas: which weight
                // engine the mapper's analysis took for this circuit.
                let path = affine::DependenceAnalysis::new(&circuit, weight_mode).path();
                if path != affine::WeightPath::Graph {
                    affine_jobs += 1;
                }
            }
            Err(e) => {
                out.failed += 1;
                out.fail(format!("{}: {e}", job.label));
            }
        }
    }
    let plan1 = hier::plan_store_stats();
    let overhead = overhead_ratio(&prepared, &pipeline);

    let mut table = LayerTable::new();
    table.set_times(&times);
    let parse_s = table.get("qasm.parse_s");
    table.set(
        "qasm.parse_mb_per_s",
        ratio(parse_bytes as f64 / 1e6, parse_s),
    );
    table.set(
        "affine.affine_path_ratio",
        ratio(affine_jobs as f64, quality.ok as f64),
    );
    let lookups = (closure.0 + closure.1) as f64;
    table.set(
        "presburger.closure_hit_ratio",
        ratio(closure.0 as f64, lookups),
    );
    table.set("presburger.closure_lookups", lookups);
    let route_s = table.get("core.route_s");
    table.set(
        "core.route_us_per_swap",
        ratio(route_s * 1e6, quality.swaps as f64),
    );
    table.set(
        "topology.distance_hit_ratio",
        ratio(distance.0 as f64, (distance.0 + distance.1) as f64),
    );
    table.set("topology.distance_misses", distance.1 as f64);
    table.set("hier.fragments", times.count("hier:fragment") as f64);
    let hits = (plan1.exact_hits - plan0.exact_hits)
        + (plan1.canonical_hits - plan0.canonical_hits)
        + (plan1.disk_hits - plan0.disk_hits);
    let misses = plan1.misses - plan0.misses;
    table.set(
        "hier.plan_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    table.set(
        "hier.canonical_share",
        ratio(
            (plan1.canonical_hits - plan0.canonical_hits) as f64,
            hits as f64,
        ),
    );
    table.set("trace.overhead_ratio", overhead);
    out.note(format!(
        "traced_jobs={} traced_wall_s={:.3} spans={} swaps_total={}",
        prepared.jobs.len(),
        wall_total_ns as f64 * 1e-9,
        times.counts.values().sum::<usize>(),
        quality.swaps
    ));
    out.metrics = table.metrics();
    out
}

/// Traced ÷ untraced wall over re-runs of the first twentieth of the
/// roster. Each job first runs twice untimed (one warm-up run is not
/// enough for `hier-1k`, whose plan memo fills from racing prefetch
/// workers), then four timed runs in the order untraced, traced, traced,
/// untraced, reversed for every other job, so drift and position cancel.
fn overhead_ratio(prepared: &Prepared, pipeline: &MappingPipeline) -> f64 {
    let (mut traced, mut untraced) = (0.0, 0.0);
    for (i, job) in prepared
        .jobs
        .iter()
        .take(prepared.jobs.len() / 20)
        .enumerate()
    {
        let device = &prepared.devices[&job.backend];
        for _ in 0..2 {
            let _ = black_box(execute(job, device, pipeline));
        }
        let odd = i % 2 == 1;
        for traced_turn in [odd, !odd, !odd, odd] {
            if traced_turn {
                traced += execute_traced(job, device, pipeline, 0).2 as f64;
            } else {
                let t0 = trace::now_ns();
                let _ = black_box(execute(job, device, pipeline));
                untraced += (trace::now_ns() - t0) as f64;
            }
        }
    }
    ratio(traced, untraced)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quality of a short `hier-1k` roster mapped at `threads` engine
    /// threads (the only mapper that reads the count).
    fn hier_quality(threads: usize) -> (usize, Vec<f64>) {
        let prepared = set_up_once(Workload::Hier1k, 5, 4, true);
        let (_, quality, failures) = map_all(&prepared.jobs, &prepared.devices, threads);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(quality.ok, 4);
        (quality.swaps, quality.depth_ratios)
    }

    #[test]
    fn quality_is_identical_at_one_and_two_engine_threads() {
        let one = hier_quality(1);
        let two = hier_quality(2);
        assert_eq!(one, two);
        assert_eq!(geomean(&one.1), geomean(&two.1));
    }

    #[test]
    fn traced_jobs_partition_their_wall_time() {
        let prepared = set_up_once(Workload::Hier1k, 2, 1, true);
        let job = &prepared.jobs[0];
        let pipeline = pipeline(job.mapper, 2);
        let (result, tree, wall_ns) =
            execute_traced(job, &prepared.devices[&job.backend], &pipeline, 1);
        assert!(result.is_ok());
        let mut times = SelfTimes::default();
        assert_eq!(times.add(&tree.expect("no span dropped")), wall_ns);
        for name in [
            layers::PARSE,
            layers::CONVERT,
            layers::PIPELINE,
            layers::VERIFY,
        ] {
            assert_eq!(times.count(name), 1, "{name}");
        }
        assert!(times.count("hier:fragment") > 0);
        assert!(times.seconds["hier.route_s"] > 0.0);
    }
}
