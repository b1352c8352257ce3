//! Seeded job rosters. The program under test only ever sees the QASM
//! text generated here; the seed fixes every byte of it.
//!
//! Rosters are *stratified*: each seed draws the same mix of QUEKO
//! devices and depth ranges, and the same mix of QASMBench families and
//! size quarters, so runs at different seeds do comparable work and their
//! spread measures the machine and the program rather than the luck of
//! the draw. What a seed changes is the instances, the depths and sizes
//! within each stratum, where the QASMBench device rotation starts and
//! the job order.

use crate::stats::Rng;
use qasmbench::Family;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// The four workloads; see `README.md` for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    QuekoFlat,
    Qasmbench,
    Hier1k,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::QuekoFlat,
        Workload::Qasmbench,
        Workload::Hier1k,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QuekoFlat => "queko-flat",
            Workload::Qasmbench => "qasmbench",
            Workload::Hier1k => "hier-1k",
            Workload::Serve => "serve",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs in a run of `seconds`: the measured job rate on a 2-vCPU host
    /// times the run length, but never fewer than 100 so the p90 always
    /// has at least ten samples beyond it.
    pub fn jobs_for(self, seconds: u64) -> usize {
        let per_second = match self {
            Workload::QuekoFlat => 5.25,
            Workload::Qasmbench => 32.0,
            Workload::Hier1k => 14.0,
            Workload::Serve => {
                crate::serve::CLIENTS as f64 * crate::serve::JOBS_PER_SECOND_PER_CLIENT
            }
        };
        ((seconds as f64 * per_second).round() as usize).max(100)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which mapper a job asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MapperKind {
    /// The flat Qlosure mapper with its default configuration.
    Qlosure,
    /// The SABRE baseline (serve only).
    Sabre,
    /// The hierarchical mapper with its default configuration.
    Hier,
}

impl MapperKind {
    /// The service's name for the mapper.
    pub fn wire_name(self) -> &'static str {
        match self {
            MapperKind::Qlosure | MapperKind::Hier => "qlosure",
            MapperKind::Sabre => "sabre",
        }
    }
}

/// One generated job.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Human-readable origin, e.g. `queko:aspen16:d120`.
    pub label: String,
    /// Backend name accepted by `topology::backends::by_name`.
    pub backend: String,
    pub mapper: MapperKind,
    /// The OpenQASM 2.0 source handed to the program.
    pub qasm: String,
    /// Input QOPs (the throughput numerator).
    pub qops: usize,
    /// QUEKO's known optimal depth, or the input depth for QASMBench
    /// circuits — the depth-factor denominator.
    pub ref_depth: usize,
    /// Whether `ref_depth` is a proven optimum, so a routed depth below it
    /// is a wrong result.
    pub optimal: bool,
}

const QUEKO_FLAT_DEVICES: [&str; 5] = ["aspen16", "sycamore54", "king9", "ankaa3", "sherbrooke"];
const QASMBENCH_DEVICES: [&str; 4] = ["sycamore54", "king9", "ankaa3", "sherbrooke"];
const HIER_DEVICES: [&str; 4] = ["grid:32x32", "heavy-hex:19", "grid:48x48", "grid:64x64"];
/// Small backends whose names `content_shard` splits two and two across
/// the two `serve` shards (pinned by a test).
pub const SERVE_BACKENDS: [&str; 4] = ["aspen16", "king:4x4", "grid:4x4", "grid:4x5"];

const FAMILIES: [Family; 16] = [
    Family::Ghz,
    Family::Cat,
    Family::WState,
    Family::BernsteinVazirani,
    Family::Ising,
    Family::Qft,
    Family::Adder,
    Family::Multiplier,
    Family::Qugan,
    Family::Qram,
    Family::Dnn,
    Family::Qaoa,
    Family::Qpe,
    Family::SwapTest,
    Family::Knn,
    Family::Vqe,
];

/// The roster of `n_jobs` jobs for `workload` at `seed`, in run order.
pub fn roster(workload: Workload, seed: u64, n_jobs: usize) -> Vec<Job> {
    let mut rng = Rng::new(seed, workload.name());
    let mut jobs = match workload {
        Workload::QuekoFlat => {
            let mappers = [MapperKind::Qlosure];
            queko_jobs(
                &mut rng,
                &QUEKO_FLAT_DEVICES,
                n_jobs,
                (50, 200),
                0.4,
                &mappers,
            )
        }
        Workload::Hier1k => queko_jobs(
            &mut rng,
            &HIER_DEVICES,
            n_jobs,
            (2, 6),
            0.1,
            &[MapperKind::Hier],
        ),
        Workload::Qasmbench => qasmbench_jobs(&mut rng, n_jobs),
        Workload::Serve => {
            let mappers = [MapperKind::Qlosure, MapperKind::Sabre];
            queko_jobs(&mut rng, &SERVE_BACKENDS, n_jobs, (10, 40), 0.4, &mappers)
        }
    };
    rng.shuffle(&mut jobs);
    jobs
}

/// Offset of stratum `j` of `m` over `len` values, jittered uniformly
/// within the stratum.
fn stratum(rng: &mut Rng, j: usize, m: usize, len: usize) -> usize {
    (j * len + rng.below(len)) / m
}

fn queko_job(backend: &str, depth: usize, density_2q: f64, seed: u64, mapper: MapperKind) -> Job {
    let device = topology::backends::by_name(backend).expect("roster backends resolve");
    let bench = queko::QuekoSpec::new(&device, depth)
        .density_2q(density_2q)
        .seed(seed)
        .generate();
    Job {
        label: format!("queko:{backend}:d{depth}:{mapper:?}"),
        backend: backend.to_string(),
        mapper,
        qasm: qasm::emit(&bench.circuit.to_qasm()),
        qops: bench.circuit.qop_count(),
        ref_depth: bench.optimal_depth,
        optimal: true,
    }
}

/// QUEKO instances spread evenly over `devices`, with depths stratified
/// over the inclusive `depths` range within each device and the mappers
/// taking turns from one stratum to the next.
fn queko_jobs(
    rng: &mut Rng,
    devices: &[&str],
    n_jobs: usize,
    depths: (usize, usize),
    density_2q: f64,
    mappers: &[MapperKind],
) -> Vec<Job> {
    let per_device = n_jobs.div_ceil(devices.len());
    let span = depths.1 - depths.0 + 1;
    (0..n_jobs)
        .map(|k| {
            let (backend, j) = (devices[k % devices.len()], k / devices.len());
            let depth = depths.0 + stratum(rng, j, per_device, span);
            let mapper = mappers[j % mappers.len()];
            queko_job(backend, depth, density_2q, rng.next_u64(), mapper)
        })
        .collect()
}

/// Qubit counts in the 20–81 evaluation range that `family` accepts.
fn valid_sizes(family: Family) -> Vec<usize> {
    (20..=81)
        .filter(|&n| match family {
            Family::Adder => n % 2 == 0,
            Family::Multiplier => n % 5 == 0,
            Family::Qram => (2..=6).any(|k| k + (1 << k) == n),
            _ => true,
        })
        .collect()
}

/// Every family gets the same number of jobs, and its jobs take turns
/// over the quarters of its valid size range. Each job draws its qubit
/// count uniformly within its quarter; from one round of quarters to the
/// next, the devices that fit take turns from a seeded start. A circuit
/// repeats only when two draws coincide, which happens most for the
/// families with few valid sizes; that is all the sharing the closure
/// memo gets. The strata keep seeds comparable: sizes and devices drawn
/// uniformly per job spread `swaps_total` 9% and the p90 26% over ten
/// seeds.
fn qasmbench_jobs(rng: &mut Rng, n_jobs: usize) -> Vec<Job> {
    let devices: Vec<(&str, usize)> = QASMBENCH_DEVICES
        .into_iter()
        .map(|d| (d, device_qubits(d)))
        .collect();
    let starts: Vec<usize> = FAMILIES.iter().map(|_| rng.below(12)).collect();
    // Each distinct circuit is generated once: (QASM, QOPs, depth).
    let mut circuits: HashMap<(usize, usize), (String, usize, usize)> = HashMap::new();
    (0..n_jobs)
        .map(|k| {
            let f = k % FAMILIES.len();
            let family = FAMILIES[f];
            let sizes = valid_sizes(family);
            let j = k / FAMILIES.len();
            let n = sizes[stratum(rng, j % 4, 4, sizes.len())];
            let fitting: Vec<&str> = devices
                .iter()
                .filter(|&&(_, q)| q >= n)
                .map(|&(d, _)| d)
                .collect();
            let backend = fitting[(starts[f] + j / 4) % fitting.len()];
            let (qasm, qops, depth) = circuits.entry((f, n)).or_insert_with(|| {
                let circuit = qasmbench::generate(family, n);
                (
                    qasm::emit(&circuit.to_qasm()),
                    circuit.qop_count(),
                    circuit.depth(),
                )
            });
            Job {
                label: format!("qasmbench:{}_n{n}:{backend}", family.short_name()),
                backend: backend.to_string(),
                mapper: MapperKind::Qlosure,
                qasm: qasm.clone(),
                qops: *qops,
                ref_depth: *depth,
                optimal: false,
            }
        })
        .collect()
}

/// Share of a roster's jobs whose QASM text an earlier job already had.
pub fn repeat_share(jobs: &[Job]) -> f64 {
    let mut seen = HashSet::new();
    let repeats = jobs.iter().filter(|j| !seen.insert(&j.qasm)).count();
    crate::stats::ratio(repeats as f64, jobs.len() as f64)
}

fn device_qubits(name: &str) -> usize {
    topology::backends::by_name(name)
        .expect("roster backends resolve")
        .n_qubits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::Circuit;

    fn bytes(jobs: &[Job]) -> String {
        jobs.iter()
            .map(|j| {
                format!(
                    "{}|{}|{}\n{}",
                    j.label,
                    j.backend,
                    j.mapper.wire_name(),
                    j.qasm
                )
            })
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for workload in Workload::ALL {
            let n = if workload == Workload::Hier1k { 4 } else { 24 };
            let a = roster(workload, 7, n);
            let b = roster(workload, 7, n);
            let c = roster(workload, 8, n);
            assert_eq!(a.len(), n, "{workload}");
            assert_eq!(bytes(&a), bytes(&b), "{workload}: same seed must repeat");
            assert_ne!(bytes(&a), bytes(&c), "{workload}: seeds must differ");
        }
    }

    #[test]
    fn rosters_keep_their_mix_across_seeds() {
        // Stratification: every seed draws the same devices and families
        // in the same proportions; only instances and order move.
        let mix = |seed| {
            let mut m: Vec<String> = roster(Workload::Qasmbench, seed, 64)
                .iter()
                .map(|j| j.label.split('_').next().unwrap().to_string())
                .collect();
            m.sort();
            m
        };
        assert_eq!(mix(1), mix(2));
        let devices = |seed| {
            let mut d: Vec<String> = roster(Workload::QuekoFlat, seed, 20)
                .into_iter()
                .map(|j| j.backend)
                .collect();
            d.sort();
            d
        };
        assert_eq!(devices(1), devices(2));
    }

    #[test]
    fn qasmbench_repeats_come_from_the_draws() {
        // Families with two valid sizes (qram) repeat within a few jobs;
        // the rest mostly do not.
        let jobs = roster(Workload::Qasmbench, 4, 160);
        let share = repeat_share(&jobs);
        assert!(share > 0.05 && share < 0.5, "{share}");
        assert_eq!(repeat_share(&jobs[..1]), 0.0);
        let twice = [jobs[0].clone(), jobs[0].clone()];
        assert_eq!(repeat_share(&twice), 0.5);
    }

    #[test]
    fn serve_backends_land_on_both_shards() {
        let shards: Vec<usize> = SERVE_BACKENDS
            .iter()
            .map(|b| service::content_shard(b, crate::serve::SHARDS))
            .collect();
        for s in 0..crate::serve::SHARDS {
            let n = shards.iter().filter(|&&x| x == s).count();
            assert_eq!(n, SERVE_BACKENDS.len() / crate::serve::SHARDS, "{shards:?}");
        }
        // And the roster's traffic follows: both shards get half the jobs.
        let jobs = roster(Workload::Serve, 3, 40);
        let on_zero = jobs
            .iter()
            .filter(|j| service::content_shard(&j.backend, crate::serve::SHARDS) == 0)
            .count();
        assert_eq!(on_zero, 20);
    }

    #[test]
    fn every_job_parses_and_fits_its_device() {
        for workload in Workload::ALL {
            let n = if workload == Workload::Hier1k { 4 } else { 48 };
            for job in roster(workload, 11, n) {
                let program = qasm::parse(&job.qasm).expect("generated QASM parses");
                let c = Circuit::from_qasm(&program).expect("generated QASM converts");
                assert!(c.n_qubits() <= device_qubits(&job.backend), "{}", job.label);
                assert_eq!(c.qop_count(), job.qops, "{}", job.label);
            }
        }
    }
}
