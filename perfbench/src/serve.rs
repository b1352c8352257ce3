//! The `serve` workload: `qlosure-router` in front of two
//! `qlosured --workers 1` shards, all spawned from the built binaries,
//! driven by two paced client threads. Each job opens a fresh connection,
//! like `qlosure-cli submit --wait`, and its latency runs from the moment
//! it was due until `Client::wait` returns.

use crate::compile;
use crate::layers::{LayerTable, SelfTimes};
use crate::report::{RunOutcome, END_TO_END};
use crate::roster::{self, Job, Workload};
use crate::stats::{geomean, percentile, ratio};
use service::proto::{encode_request, encode_response, parse_response};
use service::{
    Client, Endpoint, Priority, Request, Response, SpanNode, StatsBody, Strategy, Summary,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const SHARDS: usize = 2;
/// Client threads; each has at most one live connection.
pub const CLIENTS: usize = 2;
/// Offered rate per client thread: one job every 200 ms, far below what
/// the fleet can take.
pub const JOBS_PER_SECOND_PER_CLIENT: f64 = 5.0;
/// The deadline of every client call. A call that overruns it means the
/// fleet is wedged: the watchdog kills the fleet, so the call fails
/// instead of hanging the run.
const CALL_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a spawned process may take to answer its first connection.
const READY_TIMEOUT: Duration = Duration::from_secs(20);
/// Watchdog slot of the main thread (client threads use `0..CLIENTS`).
const MAIN: usize = CLIENTS;
/// Untraced/traced job pairs behind `trace.overhead_ratio`.
const OVERHEAD_PAIRS: usize = 20;
/// Poll round trips per side behind `router.hop_ms_p50`.
const HOP_POLLS: usize = 50;
/// Encode/parse repetitions per frame behind the `proto.*` metrics.
const CODEC_REPS: usize = 20;

/// State shared with the watchdog thread.
struct Shared {
    children: Mutex<Vec<Child>>,
    deadlines: Mutex<Vec<Option<Instant>>>,
    stop: AtomicBool,
    tripped: AtomicBool,
}

impl Shared {
    fn kill_all(&self) {
        let mut children = self.children.lock().unwrap_or_else(|e| e.into_inner());
        for child in children.iter_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A running fleet. Dropping it — on success, a failed check or a panic —
/// kills and reaps every process that is still up and removes the socket
/// directory.
pub struct Fleet {
    dir: PathBuf,
    router: Endpoint,
    shards: Vec<Endpoint>,
    shared: Arc<Shared>,
    watchdog: Option<JoinHandle<()>>,
}

impl Fleet {
    /// Spawns the shards, then the router, each answering before the next
    /// starts. `dir` is relative, so socket paths stay short wherever the
    /// checkout lives.
    pub fn spawn(bin_dir: &Path, dir: PathBuf) -> Result<Fleet, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let shared = Arc::new(Shared {
            children: Mutex::new(Vec::new()),
            deadlines: Mutex::new(vec![None; CLIENTS + 1]),
            stop: AtomicBool::new(false),
            tripped: AtomicBool::new(false),
        });
        let watchdog = {
            let shared = shared.clone();
            std::thread::spawn(move || watch(&shared))
        };
        let sock = |name: &str| Endpoint::Unix(dir.join(name));
        let mut fleet = Fleet {
            router: sock("router.sock"),
            shards: (0..SHARDS)
                .map(|i| sock(&format!("shard{i}.sock")))
                .collect(),
            dir: dir.clone(),
            shared,
            watchdog: Some(watchdog),
        };
        for shard in fleet.shards.clone() {
            let mut cmd = Command::new(bin_dir.join("qlosured"));
            cmd.args(["--listen", &shard.to_string(), "--workers", "1"]);
            fleet.start(cmd, &shard)?;
        }
        let mut cmd = Command::new(bin_dir.join("qlosure-router"));
        cmd.args(["--listen", &fleet.router.to_string()]);
        for shard in &fleet.shards {
            cmd.args(["--shard", &shard.to_string()]);
        }
        let router = fleet.router.clone();
        fleet.start(cmd, &router)?;
        Ok(fleet)
    }

    fn start(&mut self, mut cmd: Command, endpoint: &Endpoint) -> Result<(), String> {
        let child = cmd
            .stdout(std::process::Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {cmd:?}: {e}"))?;
        self.shared
            .children
            .lock()
            .expect("fleet lock poisoned")
            .push(child);
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            match Client::connect_endpoint(endpoint) {
                Ok(_) => return Ok(()),
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("{endpoint} never answered: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// Runs `call` under a [`CALL_TIMEOUT`] deadline on watchdog `slot`.
    pub fn guarded<T>(&self, slot: usize, call: impl FnOnce() -> T) -> T {
        self.set_deadline(slot, Some(Instant::now() + CALL_TIMEOUT));
        let out = call();
        self.set_deadline(slot, None);
        out
    }

    fn set_deadline(&self, slot: usize, deadline: Option<Instant>) {
        self.shared.deadlines.lock().expect("fleet lock poisoned")[slot] = deadline;
    }

    /// A fresh connection to `endpoint`, under a deadline.
    fn connect(&self, endpoint: &Endpoint) -> Result<Client, String> {
        self.guarded(MAIN, || Client::connect_endpoint(endpoint))
            .map_err(|e| format!("connect {endpoint}: {e}"))
    }

    /// Peak resident memory summed over the router and the shards.
    fn peak_rss_mib(&self) -> Result<f64, String> {
        let children = self.shared.children.lock().expect("fleet lock poisoned");
        children
            .iter()
            .map(|c| crate::probe::peak_rss_mib(c.id()))
            .sum()
    }

    /// Graceful shutdown through the router, which drains both shards
    /// and then exits; every process must exit cleanly in time.
    pub fn shutdown(self) -> Result<(), String> {
        let mut client = self.connect(&self.router)?;
        self.guarded(MAIN, || client.shutdown())
            .map_err(|e| format!("fleet shutdown: {e}"))?;
        let deadline = Instant::now() + CALL_TIMEOUT;
        let mut children = self.shared.children.lock().expect("fleet lock poisoned");
        for child in children.iter_mut() {
            loop {
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => break,
                    Ok(Some(status)) => return Err(format!("fleet process exited {status}")),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Ok(None) => return Err("fleet did not exit after shutdown".to_string()),
                    Err(e) => return Err(format!("reap fleet process: {e}")),
                }
            }
        }
        Ok(())
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
        self.shared.kill_all();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Kills the fleet as soon as any armed call overruns its deadline.
fn watch(shared: &Shared) {
    while !shared.stop.load(Ordering::SeqCst) {
        let overdue = {
            let deadlines = shared.deadlines.lock().unwrap_or_else(|e| e.into_inner());
            let now = Instant::now();
            deadlines.iter().flatten().any(|&d| now > d)
        };
        if overdue {
            shared.tripped.store(true, Ordering::SeqCst);
            shared.kill_all();
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The directory holding the benchmark binary and its fleet binaries.
fn bin_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe
        .parent()
        .ok_or("benchmark binary has no directory")?
        .to_path_buf())
}

/// One paced job as the client saw it.
struct Record {
    job: usize,
    lateness_s: f64,
    connect_s: f64,
    submit_s: f64,
    wait_s: f64,
    latency_s: f64,
    /// Router job ID and result, or why the job failed.
    result: Result<(u64, Summary), String>,
}

/// One job: fresh connection, submit, wait.
fn submit_and_wait(
    fleet: &Fleet,
    slot: usize,
    job: &Job,
    traced: bool,
) -> (f64, f64, f64, Result<(u64, Summary), String>) {
    let t0 = Instant::now();
    let client = fleet.guarded(slot, || Client::connect_endpoint(&fleet.router));
    let t1 = Instant::now();
    let mut client = match client {
        Ok(c) => c,
        Err(e) => return (0.0, 0.0, 0.0, Err(format!("connect: {e}"))),
    };
    let id = fleet.guarded(slot, || {
        client.submit_traced(
            &job.backend,
            job.mapper.wire_name(),
            &job.qasm,
            Priority::Batch,
            false,
            Strategy::Flat,
            traced,
        )
    });
    let t2 = Instant::now();
    let result = id.and_then(|id| {
        fleet
            .guarded(slot, || client.wait(id, CALL_TIMEOUT))
            .map(|s| (id, s))
    });
    let t3 = Instant::now();
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    (
        secs(t0, t1),
        secs(t1, t2),
        secs(t2, t3),
        result.map_err(|e| e.to_string()),
    )
}

/// When job `k` is due, in seconds after the start: `k` intervals plus
/// an offset of up to half an interval that steps by the golden ratio.
/// Without it every job would arrive at the same phase of the daemons'
/// 25 ms accept tick, a phase that differs from run to run, and the p50
/// would move with it.
pub fn due_s(k: usize) -> f64 {
    let interval = 1.0 / (CLIENTS as f64 * JOBS_PER_SECOND_PER_CLIENT);
    let offset = (k as f64 * 0.618_033_988_749_894_9).fract() * 0.5;
    (k as f64 + offset) * interval
}

/// The open-loop load: job `k` is due at [`due_s`] and goes to client
/// thread `k % CLIENTS`, so each thread's jobs stay at least 1.5
/// intervals apart.
fn drive(fleet: &Fleet, jobs: &[Job], traced: bool) -> (Vec<Record>, f64) {
    let start = Instant::now() + Duration::from_millis(20);
    let mut records: Vec<Record> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for k in (c..jobs.len()).step_by(CLIENTS) {
                        let due = start + Duration::from_secs_f64(due_s(k));
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let lateness_s = Instant::now().duration_since(due).as_secs_f64();
                        let (connect_s, submit_s, wait_s, result) =
                            submit_and_wait(fleet, c, &jobs[k], traced);
                        mine.push(Record {
                            job: k,
                            lateness_s,
                            connect_s,
                            submit_s,
                            wait_s,
                            latency_s: Instant::now().duration_since(due).as_secs_f64(),
                            result,
                        });
                    }
                    mine
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    records.sort_by_key(|r| r.job);
    (records, wall)
}

/// Per-shard stats, asked of each shard directly.
fn shard_stats(fleet: &Fleet) -> Result<Vec<StatsBody>, String> {
    fleet
        .shards
        .iter()
        .map(|shard| {
            let mut client = fleet.connect(shard)?;
            fleet
                .guarded(MAIN, || client.stats())
                .map_err(|e| format!("stats {shard}: {e}"))
        })
        .collect()
}

/// Set-up: the roster and a fleet answering on every socket, timed
/// [`compile::SETUP_REPS`] times (each earlier fleet is shut down).
fn set_up(seed: u64, n_jobs: usize, bins: &Path) -> Result<(Vec<Job>, Fleet, Vec<f64>), String> {
    let mut times = Vec::new();
    for rep in 0.. {
        let t0 = Instant::now();
        let jobs = roster::roster(Workload::Serve, seed, n_jobs);
        let dir = PathBuf::from(format!(".perfbench-serve-{}-{rep}", std::process::id()));
        let fleet = Fleet::spawn(bins, dir)?;
        times.push(t0.elapsed().as_secs_f64());
        if rep + 1 == compile::SETUP_REPS {
            return Ok((jobs, fleet, times));
        }
        fleet.shutdown()?;
    }
    unreachable!("the set-up loop returns on its last repetition")
}

/// Checks every record: the job finished, its result is verified, its
/// fingerprint equals the in-process default mapper's on the same input,
/// and a QUEKO depth is at least optimal. With `times`, the reference
/// calls run under benchmark spans.
fn check_results<'a>(
    jobs: &[Job],
    records: &'a [Record],
    threads: usize,
    mut times: Option<&mut SelfTimes>,
) -> Vec<Result<&'a Summary, String>> {
    let mut devices = HashMap::new();
    let mut pipelines = HashMap::new();
    records
        .iter()
        .map(|r| {
            let job = &jobs[r.job];
            let (_, summary) = r.result.as_ref().map_err(|e| e.clone())?;
            let device = devices.entry(job.backend.clone()).or_insert_with(|| {
                topology::backends::by_name(&job.backend).expect("roster backends resolve")
            });
            let pipeline = pipelines
                .entry(job.mapper)
                .or_insert_with(|| compile::pipeline(job.mapper, threads));
            let reference = match times.as_deref_mut() {
                Some(times) => {
                    let (result, tree, _) = compile::execute_traced(job, device, pipeline, 0);
                    if let Some(tree) = tree {
                        times.add(&tree);
                    }
                    result
                }
                None => compile::execute(job, device, pipeline),
            };
            let expected = reference.map(|(_, outcome)| {
                format!("{:016x}", service::result_fingerprint(&outcome.result))
            });
            if !summary.verified {
                Err("result not verified".to_string())
            } else if expected.as_ref() != Ok(&summary.fingerprint) {
                Err(format!(
                    "fingerprint {} but the in-process mapper gives {expected:?}",
                    summary.fingerprint
                ))
            } else {
                compile::check_depth(job, summary.depth as usize).map(|()| summary)
            }
        })
        .collect()
}

/// Runs the workload; `traced` adds the per-layer measurements.
pub fn run(seed: u64, seconds: u64, threads: usize, traced: bool) -> RunOutcome {
    let mut out = RunOutcome {
        attempted: Workload::Serve.jobs_for(seconds),
        ..RunOutcome::default()
    };
    if let Err(e) = run_inner(seed, threads, traced, &mut out) {
        // A fleet that fails as a whole fails every job.
        out.failed = out.attempted;
        out.fail(e);
    }
    out
}

fn run_inner(seed: u64, threads: usize, traced: bool, out: &mut RunOutcome) -> Result<(), String> {
    let (jobs, fleet, setup_times) = set_up(seed, out.attempted, &bin_dir()?)?;
    out.note(crate::report::setup_note(&setup_times));
    let stats0 = shard_stats(&fleet)?;
    let (records, wall) = drive(&fleet, &jobs, traced);
    let stats1 = shard_stats(&fleet)?;
    let rss = fleet.peak_rss_mib()?;
    let layers = traced
        .then(|| after_traced_phase(&fleet, &jobs, &records, &stats0, &stats1))
        .transpose()?;
    if fleet.shared.tripped.load(Ordering::SeqCst) {
        return Err("a client call overran its deadline; the fleet was killed".to_string());
    }
    fleet.shutdown()?;

    let lateness: Vec<f64> = records.iter().map(|r| r.lateness_s * 1e3).collect();
    out.note(format!(
        "jobs={} timed_wall_s={wall:.3} generator_lateness_ms_p50={:.3} generator_lateness_ms_max={:.3}",
        records.len(),
        percentile(&lateness, 50.0).unwrap_or(0.0),
        lateness.iter().copied().fold(0.0, f64::max),
    ));
    let mut ref_times = SelfTimes::default();
    let verdicts = check_results(&jobs, &records, threads, traced.then_some(&mut ref_times));
    let mut passed: Vec<(&Job, &Record, &Summary)> = Vec::new();
    for (r, verdict) in records.iter().zip(verdicts) {
        match verdict {
            Ok(summary) => passed.push((&jobs[r.job], r, summary)),
            Err(e) => {
                out.failed += 1;
                out.fail(format!("{}: {e}", jobs[r.job].label));
            }
        }
    }

    if let Some(mut table) = layers {
        // The in-process reference calls are the benchmark's own calls
        // into the parse, convert and verify layers.
        table.set_times(&ref_times.only(&[
            "qasm.parse_s",
            "circuit.convert_s",
            "circuit.verify_s",
        ]));
        let bytes: usize = passed.iter().map(|(job, _, _)| job.qasm.len()).sum();
        table.set(
            "qasm.parse_mb_per_s",
            ratio(bytes as f64 / 1e6, table.get("qasm.parse_s")),
        );
        let swaps: u64 = passed.iter().map(|(_, _, s)| s.swaps).sum();
        table.set(
            "core.route_us_per_swap",
            ratio(table.get("core.route_s") * 1e6, swaps as f64),
        );
        out.metrics = table.metrics();
        return Ok(());
    }

    let latencies: Vec<f64> = passed.iter().map(|(_, r, _)| r.latency_s).collect();
    let ms = |p| percentile(&latencies, p).unwrap_or(0.0) * 1e3;
    let qops: usize = passed.iter().map(|(job, _, _)| job.qops).sum();
    let depth_ratios: Vec<f64> = passed
        .iter()
        .map(|(job, _, s)| s.depth as f64 / job.ref_depth as f64)
        .collect();
    out.set_metrics(
        &END_TO_END,
        &[
            (
                "setup_s",
                percentile(&setup_times, 50.0).expect("timed set-ups"),
            ),
            ("throughput_qops_per_s", qops as f64 / wall),
            ("latency_p50_ms", ms(50.0)),
            ("latency_p90_ms", ms(90.0)),
            (
                "swaps_total",
                passed.iter().map(|(_, _, s)| s.swaps as f64).sum(),
            ),
            (
                "depth_factor_geomean",
                geomean(&depth_ratios).unwrap_or(0.0),
            ),
            ("ok_ratio", ratio(passed.len() as f64, out.attempted as f64)),
            ("peak_rss_mb", rss),
        ],
    );
    Ok(())
}

/// The per-layer measurements of a traced run, taken after the timed
/// phase while the fleet is still up.
fn after_traced_phase(
    fleet: &Fleet,
    jobs: &[Job],
    records: &[Record],
    stats0: &[StatsBody],
    stats1: &[StatsBody],
) -> Result<LayerTable, String> {
    let mut table = LayerTable::new();
    let done: Vec<(&Record, u64, &Summary)> = records
        .iter()
        .filter_map(|r| r.result.as_ref().ok().map(|(id, s)| (r, *id, s)))
        .collect();
    // Sets the p50 and p90, in ms, of a per-job time in seconds.
    let mut set_ms = |p50, p90, seconds: &dyn Fn(&Record, &Summary) -> f64| {
        let ms: Vec<f64> = done.iter().map(|(r, _, s)| seconds(r, s) * 1e3).collect();
        table.set(p50, percentile(&ms, 50.0).unwrap_or(0.0));
        if let Some(p90) = p90 {
            table.set(p90, percentile(&ms, 90.0).unwrap_or(0.0));
        }
    };
    set_ms("net.connect_ms_p50", None, &|r, _| r.connect_s);
    set_ms(
        "client.submit_ms_p50",
        Some("client.submit_ms_p90"),
        &|r, _| r.submit_s,
    );
    set_ms("client.wait_ms_p50", Some("client.wait_ms_p90"), &|r, _| {
        r.wait_s
    });
    set_ms(
        "intake.queue_ms_p50",
        Some("intake.queue_ms_p90"),
        &|_, s| s.queue_seconds,
    );
    set_ms(
        "intake.compile_ms_p50",
        Some("intake.compile_ms_p90"),
        &|_, s| s.seconds,
    );
    set_ms(
        "client.overhead_ms_p50",
        Some("client.overhead_ms_p90"),
        &|r, s| r.latency_s - s.queue_seconds - s.seconds,
    );

    // Mapping layers inside the daemons, from each job's pass timings;
    // what `MappingPipeline::run` spends outside its passes is the rest.
    let (mut pass_s, mut other_s) = (SelfTimes::default(), 0.0);
    for (_, _, s) in &done {
        let mut passes = 0.0;
        for (label, secs) in &s.pass_seconds {
            if let Some(metric) = crate::layers::time_metric(label) {
                *pass_s.seconds.entry(metric).or_default() += secs;
            }
            passes += secs;
        }
        other_s += s.seconds - passes;
    }
    table.set_times(&pass_s);
    table.set("core.pipeline_other_s", other_s);

    // Daemon-side caches: deltas of the shards' own counters.
    let delta = |f: fn(&StatsBody) -> u64| -> f64 {
        stats0
            .iter()
            .zip(stats1)
            .map(|(a, b)| (f(b) - f(a)) as f64)
            .sum()
    };
    let (c_hits, c_misses) = (delta(|s| s.closure_hits), delta(|s| s.closure_misses));
    table.set(
        "presburger.closure_hit_ratio",
        ratio(c_hits, c_hits + c_misses),
    );
    table.set("presburger.closure_lookups", c_hits + c_misses);
    let (d_hits, d_misses) = (delta(|s| s.distance_hits), delta(|s| s.distance_misses));
    table.set(
        "topology.distance_hit_ratio",
        ratio(d_hits, d_hits + d_misses),
    );
    table.set("topology.distance_misses", d_misses);
    let per_shard: Vec<f64> = stats0
        .iter()
        .zip(stats1)
        .map(|(a, b)| (b.submitted - a.submitted) as f64)
        .collect();
    let busiest = per_shard.iter().copied().fold(0.0, f64::max);
    table.set(
        "router.busiest_shard_share",
        ratio(busiest, per_shard.iter().sum()),
    );

    // Span trees the shards still retain, fetched through the router.
    let mut client = fleet.connect(&fleet.router)?;
    let mut pickups = Vec::new();
    for (_, id, _) in &done {
        if let Ok((_, root)) = fleet.guarded(MAIN, || client.trace(*id)) {
            pickup_ms(&root, &mut pickups);
        }
    }
    table.set(
        "engine.pickup_ms_p50",
        percentile(&pickups, 50.0).unwrap_or(0.0),
    );
    table.set(
        "engine.pickup_ms_p90",
        percentile(&pickups, 90.0).unwrap_or(0.0),
    );

    // Router hop: the same finished job polled through the router and
    // directly at its shard (router IDs are `local * SHARDS + shard`).
    let &(_, id, _) = done.first().ok_or("no job finished")?;
    let shard = (id % SHARDS as u64) as usize;
    let mut direct = fleet.connect(&fleet.shards[shard])?;
    let (mut via_router, mut at_shard) = (Vec::new(), Vec::new());
    for _ in 0..HOP_POLLS {
        for (c, id, sink) in [
            (&mut client, id, &mut via_router),
            (&mut direct, id / SHARDS as u64, &mut at_shard),
        ] {
            let t0 = Instant::now();
            let reply = fleet.guarded(MAIN, || c.poll(id));
            sink.push(t0.elapsed().as_secs_f64() * 1e3);
            if !matches!(reply, Ok(Response::Done { .. })) {
                return Err(format!("poll of finished job {id}: {reply:?}"));
            }
        }
    }
    table.set(
        "router.hop_ms_p50",
        percentile(&via_router, 50.0).unwrap_or(0.0) - percentile(&at_shard, 50.0).unwrap_or(0.0),
    );

    // The codec on this run's own frames.
    let submits: Vec<Request> = done
        .iter()
        .map(|(r, _, _)| {
            let job = &jobs[r.job];
            Request::Submit {
                backend: job.backend.clone(),
                mapper: job.mapper.wire_name().to_string(),
                qasm: job.qasm.clone(),
                priority: Priority::Batch,
                fidelity: false,
                strategy: Strategy::Flat,
                trace: true,
            }
        })
        .collect();
    let dones: Vec<String> = done
        .iter()
        .map(|(_, id, s)| {
            encode_response(&Response::Done {
                id: *id,
                summary: (*s).clone(),
            })
            .map_err(|e| format!("encode done frame: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let t0 = Instant::now();
    for _ in 0..CODEC_REPS {
        for request in &submits {
            std::hint::black_box(encode_request(std::hint::black_box(request)).ok());
        }
    }
    let encode_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for _ in 0..CODEC_REPS {
        for frame in &dones {
            std::hint::black_box(parse_response(std::hint::black_box(frame)).ok());
        }
    }
    let parse_s = t0.elapsed().as_secs_f64();
    let frames = (CODEC_REPS * done.len()) as f64;
    table.set("proto.encode_submit_us", ratio(encode_s * 1e6, frames));
    table.set("proto.parse_done_us", ratio(parse_s * 1e6, frames));

    // Tracing overhead: the same jobs submitted untraced and traced in
    // alternating order, compared on the daemon's mapping time.
    let (mut on, mut off) = (0.0, 0.0);
    for (i, job) in jobs.iter().take(OVERHEAD_PAIRS).enumerate() {
        for traced in [i % 2 == 0, i % 2 != 0] {
            let (_, _, _, result) = submit_and_wait(fleet, MAIN, job, traced);
            let (_, summary) = result.map_err(|e| format!("overhead job: {e}"))?;
            if traced {
                on += summary.seconds;
            } else {
                off += summary.seconds;
            }
        }
    }
    table.set("trace.overhead_ratio", ratio(on, off));
    Ok(table)
}

/// Appends the duration (ms) of every `engine:pickup` span under `node`.
fn pickup_ms(node: &SpanNode, out: &mut Vec<f64>) {
    if node.name == "engine:pickup" {
        out.push(node.end_ns.saturating_sub(node.start_ns) as f64 * 1e-6);
    }
    for child in &node.children {
        pickup_ms(child, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spreads_arrival_phases_and_keeps_clients_apart() {
        let interval = 1.0 / (CLIENTS as f64 * JOBS_PER_SECOND_PER_CLIENT);
        // Phase within a 25 ms tick: near-uniform over 200 jobs.
        let mut buckets = [0usize; 5];
        for k in 0..200 {
            buckets[((due_s(k) % 0.025) / 0.005) as usize] += 1;
        }
        assert!(
            buckets.iter().all(|&n| (25..=55).contains(&n)),
            "{buckets:?}"
        );
        for k in CLIENTS..200 {
            assert!(
                due_s(k) - due_s(k - CLIENTS) >= 1.5 * interval - 1e-9,
                "{k}"
            );
        }
    }
}
