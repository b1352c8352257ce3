//! The asynchronous intake layer: bounded admission, priority scheduling,
//! and the bounded FIFO result store.
//!
//! A [`MappingService`] is the daemon's engine room, usable in-process
//! without any socket (the integration tests and the throughput bench
//! exercise it both ways):
//!
//! ```text
//!   submit() ──▶ admission queue ──▶ scheduler thread ──▶ StreamEngine
//!              (bounded, 2 classes)  (interactive first)  (N workers)
//!                                                              │
//!   poll()/wait() ◀── result store ◀── collector thread ◀──────┘
//!                  (bounded FIFO, seq-stamped)
//! ```
//!
//! * **Admission** is non-blocking and bounded: a full queue rejects with
//!   [`ErrorCode::QueueFull`] rather than stalling the connection thread.
//! * **Priority**: the scheduler always drains interactive jobs before
//!   batch jobs; within a class, FIFO. The engine-side queue is kept
//!   shallow (one slot per worker) so priority is decided here, not in a
//!   deep downstream buffer.
//! * **Results** land in a bounded FIFO store keyed by request ID and
//!   stamped with a completion sequence number; when the store is full
//!   the oldest result is evicted (a later poll gets
//!   [`ErrorCode::UnknownId`]).
//! * **Shutdown** ([`MappingService::shutdown`]) closes intake, drains
//!   everything already admitted, then joins the scheduler, collector and
//!   worker threads. Dropping the service does the same.
//!
//! Two more daemon threads watch the service itself: a **sampler**
//! snapshots the full metrics body into a bounded history ring every
//! [`ServiceConfig::obs_sample_seconds`] (served by `metrics-history`),
//! and a **stall watchdog** flags jobs in flight longer than
//! [`ServiceConfig::stall_after_seconds`] — a `warn` journal event plus
//! a flight record (partial span tree + journal tail) in the trace
//! store, retrievable like any other trace.

use crate::proto::{
    ErrorCode, HistoryBody, MetricsBody, Priority, RatesBody, SampleBody, SeriesBody, StatsBody,
    Summary, PROTOCOL_VERSION,
};
use circuit::{verify_routing, Circuit};
use engine::{BatchEngine, StreamEngine};
use qlosure::{FidelityPass, Mapper, MappingResult};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use topology::{CouplingGraph, NoiseModel};

/// Sizing of a [`MappingService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Mapping worker threads. Defaults to the `ENGINE_THREADS`
    /// environment variable via [`BatchEngine::from_env`].
    pub workers: usize,
    /// Admission-queue bound (both priority classes combined).
    pub queue_capacity: usize,
    /// Result-store bound (completed jobs retained for polling).
    pub results_capacity: usize,
    /// Jobs whose mapping wall-clock exceeds this many seconds keep their
    /// span tree even when the submit did not request tracing — the trace
    /// you want most is the one for the job you did not expect to be slow.
    pub trace_slow_seconds: f64,
    /// Trace-store bound (span trees retained for the `trace` request);
    /// `0` disables retention entirely.
    pub traces_capacity: usize,
    /// Interval between metrics snapshots taken by the sampler thread
    /// into the bounded history ring behind the `metrics-history`
    /// request. Non-positive disables the sampler.
    pub obs_sample_seconds: f64,
    /// In-flight jobs running longer than this many seconds are flagged
    /// by the stall watchdog: a `warn` journal event plus a flight
    /// record (partial span tree + recent journal tail) in the trace
    /// store. `0.0` flags on the first tick; negative disables.
    pub stall_after_seconds: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: BatchEngine::from_env().threads(),
            queue_capacity: 256,
            results_capacity: 1024,
            trace_slow_seconds: 30.0,
            traces_capacity: 64,
            obs_sample_seconds: 10.0,
            stall_after_seconds: 60.0,
        }
    }
}

/// Per-job span-sink bound. Every job records into its own tracer (the
/// slow-job retention policy needs the spans before knowing the job was
/// slow), so the sink must stay small: past this many spans the tracer
/// counts drops instead of growing.
const TRACE_SPAN_CAPACITY: usize = 4096;

/// A fully decoded submission, ready to schedule.
#[derive(Clone)]
pub struct JobSpec {
    /// The logical circuit to route.
    pub circuit: Arc<Circuit>,
    /// The target device.
    pub device: Arc<CouplingGraph>,
    /// The mapper to run.
    pub mapper: Arc<dyn Mapper + Send + Sync>,
    /// Scheduling class.
    pub priority: Priority,
    /// Opt-in fidelity estimation: the noise model to evaluate the routed
    /// circuit under (`None` skips the estimate).
    pub noise: Option<NoiseModel>,
    /// Whether the submitter asked for the job's span tree to be retained
    /// for a later `trace` request. Spans are recorded either way (the
    /// slow-job policy may retain them); this flag only forces retention.
    pub trace: bool,
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("circuit_qubits", &self.circuit.n_qubits())
            .field("device", &self.device.name())
            .field("mapper", &self.mapper.name())
            .field("priority", &self.priority)
            .field("fidelity", &self.noise.is_some())
            .field("trace", &self.trace)
            .finish()
    }
}

struct AdmittedJob {
    id: u64,
    spec: JobSpec,
    /// Admission stamp on the shared trace clock — the same stamp feeds
    /// the queue-wait span and the `queue_seconds` percentile sample, so
    /// the two agree bit-for-bit.
    admitted_ns: u64,
    tracer: Arc<trace::Tracer>,
}

/// Where a known job currently is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    Done,
}

/// A completed job's stored outcome.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// Mapping succeeded and verified; the summary is pollable.
    Done(Summary),
    /// Mapping failed; the message is pollable.
    Failed(String),
}

/// Reply to [`MappingService::poll`].
#[derive(Clone, Debug)]
pub enum PollReply {
    /// The ID was never assigned, or its result was evicted from the
    /// bounded store.
    Unknown,
    /// Still in the admission queue or the engine.
    Pending {
        /// `true` once the scheduler moved the job out of the admission
        /// queue toward the workers (it is running or about to run —
        /// past the point where priority can reorder it).
        running: bool,
    },
    /// The job finished; here is its stored outcome.
    Finished(JobOutcome),
}

#[derive(Default)]
struct Counters {
    submitted: u64,
    completed: u64,
    rejected: u64,
    failed: u64,
}

/// How many recent queue-delay samples the metrics percentiles are
/// computed over (bounded FIFO window, newest-biased like any scrape).
const QUEUE_SAMPLE_WINDOW: usize = 1024;

/// Metrics-history ring bound: one hour of snapshots at the default
/// 10-second sampling interval. The oldest sample is evicted first.
const HISTORY_CAPACITY: usize = 360;

/// How many journal-tail events a stall flight record carries in its
/// `watchdog:stall` span notes.
const FLIGHT_RECORD_EVENTS: usize = 8;

/// Synthetic span ID for the `watchdog:stall` marker inside a flight
/// record — far above anything a per-job tracer hands out (span IDs
/// count up from 1 and the sink is bounded at [`TRACE_SPAN_CAPACITY`]).
const STALL_SPAN: u64 = u64::MAX;

/// What the watchdog knows about a dispatched-but-unfinished job.
struct RunningInfo {
    tracer: Arc<trace::Tracer>,
    admitted_ns: u64,
    mapper: String,
    backend: String,
    /// Set once the watchdog flags the job, so a genuinely stuck job is
    /// reported once rather than on every tick.
    stalled: bool,
}

struct ServiceState {
    interactive: VecDeque<AdmittedJob>,
    batch: VecDeque<AdmittedJob>,
    phases: HashMap<u64, Phase>,
    results: HashMap<u64, JobOutcome>,
    result_order: VecDeque<u64>,
    next_id: u64,
    next_seq: u64,
    counters: Counters,
    /// Queue delays of recently completed jobs (seconds), bounded at
    /// [`QUEUE_SAMPLE_WINDOW`] — the raw material of the `metrics`
    /// percentiles.
    queue_samples: VecDeque<f64>,
    /// Per-pass `(runs, total_seconds)` accumulated over every
    /// successfully completed job, keyed by pass label.
    pass_totals: HashMap<String, (u64, f64)>,
    /// Retained span trees (`trace_id`, spans) keyed by job ID, bounded
    /// FIFO like the result store.
    traces: HashMap<u64, (String, Vec<trace::Span>)>,
    trace_order: VecDeque<u64>,
    /// Jobs handed to the engine and not yet collected, keyed by job ID —
    /// the stall watchdog's scan set.
    running: HashMap<u64, RunningInfo>,
    /// Periodic metrics snapshots, bounded at [`HISTORY_CAPACITY`] — the
    /// raw material of the `metrics-history` response.
    history: VecDeque<SampleBody>,
    /// Monotone index stamped onto every history sample; survives ring
    /// eviction so scrapers can detect gaps and merges can align.
    next_sample_index: u64,
    closing: bool,
}

struct Inner {
    state: Mutex<ServiceState>,
    /// Scheduler wakes here on admission and on shutdown.
    intake_cv: Condvar,
    /// `wait`/`drain` waiters wake here on completions.
    done_cv: Condvar,
    /// Sampler and watchdog interval waits park here; notified at
    /// shutdown so both daemon threads exit promptly instead of
    /// sleeping out their tick.
    obs_cv: Condvar,
    config: ServiceConfig,
    /// Service start stamp on the shared trace clock — the origin of the
    /// `qlosure_uptime_seconds` gauge.
    started_ns: u64,
}

type WorkItem = (u64, Box<AdmittedJob>);
type WorkOutput = (u64, JobOutcome, bool, Arc<trace::Tracer>);

/// The persistent mapping service; see the [module docs](self).
pub struct MappingService {
    inner: Arc<Inner>,
    stream: Arc<StreamEngine<WorkItem, WorkOutput>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl MappingService {
    /// Starts the service: spawns the mapping workers, the scheduler and
    /// the collector.
    pub fn start(config: ServiceConfig) -> MappingService {
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(ServiceState {
                interactive: VecDeque::new(),
                batch: VecDeque::new(),
                phases: HashMap::new(),
                results: HashMap::new(),
                result_order: VecDeque::new(),
                next_id: 0,
                next_seq: 0,
                counters: Counters::default(),
                queue_samples: VecDeque::new(),
                pass_totals: HashMap::new(),
                traces: HashMap::new(),
                trace_order: VecDeque::new(),
                running: HashMap::new(),
                history: VecDeque::new(),
                next_sample_index: 0,
                closing: false,
            }),
            intake_cv: Condvar::new(),
            done_cv: Condvar::new(),
            obs_cv: Condvar::new(),
            config,
            started_ns: trace::now_ns(),
        });
        // The engine-side buffer stays shallow — one slot per worker — so
        // the priority decision happens in the admission queue above,
        // where interactive jobs can still overtake.
        let stream = Arc::new(BatchEngine::with_threads(workers).stream(
            workers,
            |(id, job): WorkItem| {
                let requested = job.spec.trace;
                let tracer = job.tracer.clone();
                let outcome = run_job(&job);
                (id, outcome, requested, tracer)
            },
        ));
        // The helper threads hold only `Inner`/stream Arcs — never the
        // service itself — so dropping the last `MappingService` can
        // still run the shutdown sequence.
        let scheduler = {
            let (inner, stream) = (inner.clone(), stream.clone());
            std::thread::spawn(move || scheduler_loop(&inner, &stream))
        };
        let collector = {
            let (inner, stream) = (inner.clone(), stream.clone());
            std::thread::spawn(move || collector_loop(&inner, &stream))
        };
        let sampler = {
            let inner = inner.clone();
            std::thread::spawn(move || sampler_loop(&inner))
        };
        let watchdog = {
            let inner = inner.clone();
            std::thread::spawn(move || watchdog_loop(&inner))
        };
        MappingService {
            inner,
            stream,
            threads: Mutex::new(vec![scheduler, collector, sampler, watchdog]),
        }
    }

    /// Admits a job without blocking.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::QueueFull`] when the bounded admission queue is at
    /// capacity, [`ErrorCode::ShuttingDown`] after shutdown began. Both
    /// bump the `rejected` counter.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, (ErrorCode, String)> {
        let mut state = self.lock();
        if state.closing {
            state.counters.rejected += 1;
            return Err((
                ErrorCode::ShuttingDown,
                "daemon is shutting down".to_string(),
            ));
        }
        let depth = state.interactive.len() + state.batch.len();
        if depth >= self.inner.config.queue_capacity {
            state.counters.rejected += 1;
            obs::event(
                obs::Level::Warn,
                "intake",
                "admission queue full, job rejected",
                &[
                    ("depth", &depth.to_string()),
                    ("capacity", &self.inner.config.queue_capacity.to_string()),
                ],
            );
            return Err((
                ErrorCode::QueueFull,
                format!(
                    "admission queue full ({} jobs, capacity {})",
                    depth, self.inner.config.queue_capacity
                ),
            ));
        }
        let id = state.next_id;
        state.next_id += 1;
        state.counters.submitted += 1;
        state.phases.insert(id, Phase::Queued);
        let admitted_ns = trace::now_ns();
        let job = AdmittedJob {
            id,
            spec,
            admitted_ns,
            tracer: trace::Tracer::new(trace_id_for(id, admitted_ns), TRACE_SPAN_CAPACITY),
        };
        match job.spec.priority {
            Priority::Interactive => state.interactive.push_back(job),
            Priority::Batch => state.batch.push_back(job),
        }
        drop(state);
        self.inner.intake_cv.notify_all();
        Ok(id)
    }

    /// Looks up a job's current phase or stored outcome.
    pub fn poll(&self, id: u64) -> PollReply {
        let state = self.lock();
        match state.phases.get(&id) {
            None => PollReply::Unknown,
            Some(Phase::Queued) => PollReply::Pending { running: false },
            Some(Phase::Running) => PollReply::Pending { running: true },
            Some(Phase::Done) => match state.results.get(&id) {
                Some(outcome) => PollReply::Finished(outcome.clone()),
                None => PollReply::Unknown, // evicted from the bounded store
            },
        }
    }

    /// Blocks until job `id` finishes (returning its outcome) or the
    /// timeout elapses (`None`). Unknown IDs return `None` immediately; a
    /// timeout too large to add to the clock means no deadline.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobOutcome> {
        let deadline = Instant::now().checked_add(timeout);
        let mut state = self.lock();
        loop {
            match state.phases.get(&id) {
                None => return None,
                Some(Phase::Done) => return state.results.get(&id).cloned(),
                Some(_) => {}
            }
            let left = deadline.map_or(Duration::MAX, |deadline| {
                deadline.saturating_duration_since(Instant::now())
            });
            if left.is_zero() {
                return None;
            }
            let (guard, _) = self
                .inner
                .done_cv
                .wait_timeout(state, left)
                .expect("service state poisoned");
            state = guard;
        }
    }

    /// Current daemon counters, including the process-wide shared-cache
    /// hit/miss totals that make cross-request amortization observable.
    pub fn stats(&self) -> StatsBody {
        stats_of(&self.inner)
    }

    /// Everything [`MappingService::stats`] reports plus queue-delay
    /// percentiles over the recent completion window and per-pass timing
    /// aggregates — the scrape-oriented superset behind the `metrics`
    /// request.
    pub fn metrics(&self) -> MetricsBody {
        metrics_of(&self.inner)
    }

    /// The sampler thread's bounded window of metrics snapshots plus
    /// rates computed over it — the single-shard body behind the
    /// `metrics-history` request (the router stacks one series per
    /// shard; a lone daemon reports itself as shard 0).
    pub fn history(&self) -> HistoryBody {
        let samples: Vec<SampleBody> = self.lock().history.iter().cloned().collect();
        let rates = RatesBody::over(&samples);
        let sample_seconds = self.inner.config.obs_sample_seconds;
        HistoryBody {
            sample_seconds: if sample_seconds.is_finite() {
                sample_seconds.max(0.0)
            } else {
                0.0
            },
            series: vec![SeriesBody {
                shard: 0,
                samples,
                rates,
            }],
        }
    }

    /// The retained span tree for job `id` as `(trace_id, spans)`, if the
    /// submit requested tracing or the job tripped the slow-job policy
    /// (and the bounded trace store has not evicted it since).
    pub fn trace(&self, id: u64) -> Option<(String, Vec<trace::Span>)> {
        self.lock().traces.get(&id).cloned()
    }

    /// Jobs admitted but not yet finished (queued + running).
    pub fn pending(&self) -> u64 {
        let state = self.lock();
        state
            .phases
            .values()
            .filter(|p| !matches!(p, Phase::Done))
            .count() as u64
    }

    /// Closes intake: subsequent submissions are rejected with
    /// [`ErrorCode::ShuttingDown`] while already-admitted jobs keep
    /// draining. Idempotent.
    pub fn begin_shutdown(&self) {
        self.lock().closing = true;
        self.inner.intake_cv.notify_all();
        self.inner.done_cv.notify_all();
        self.inner.obs_cv.notify_all();
    }

    /// Graceful shutdown: closes intake, waits for every admitted job to
    /// finish, joins all threads, and returns the final counters.
    /// Idempotent (a second call returns the counters again).
    pub fn shutdown(&self) -> StatsBody {
        self.begin_shutdown();
        // Wait for the backlog: every tracked job reaches `Done`.
        {
            let mut state = self.lock();
            while state.phases.values().any(|p| !matches!(p, Phase::Done)) {
                state = self
                    .inner
                    .done_cv
                    .wait(state)
                    .expect("service state poisoned");
            }
        }
        // The scheduler exits once closing && queues empty; the stream
        // closes after it so no submit can race, and the collector exits
        // when the closed stream reports end-of-results.
        let threads: Vec<JoinHandle<()>> = {
            let mut threads = self.threads.lock().expect("service threads poisoned");
            threads.drain(..).collect()
        };
        self.stream.close();
        for handle in threads {
            let _ = handle.join();
        }
        self.stats()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ServiceState> {
        self.inner.state.lock().expect("service state poisoned")
    }
}

/// Pops interactive-before-batch until shutdown empties both queues.
fn scheduler_loop(inner: &Inner, stream: &StreamEngine<WorkItem, WorkOutput>) {
    loop {
        let job = {
            let mut state = inner.state.lock().expect("service state poisoned");
            loop {
                if let Some(job) = {
                    let next = state.interactive.pop_front();
                    next.or_else(|| state.batch.pop_front())
                } {
                    state.phases.insert(job.id, Phase::Running);
                    // Register with the stall watchdog at dispatch; the
                    // collector deregisters on completion. "Running"
                    // here includes time in the engine's shallow buffer
                    // — from the submitter's view that is in flight.
                    state.running.insert(
                        job.id,
                        RunningInfo {
                            tracer: job.tracer.clone(),
                            admitted_ns: job.admitted_ns,
                            mapper: job.spec.mapper.name().to_string(),
                            backend: job.spec.device.name().to_string(),
                            stalled: false,
                        },
                    );
                    break job;
                }
                if state.closing {
                    return;
                }
                state = inner.intake_cv.wait(state).expect("service state poisoned");
            }
        };
        // The engine queue is shallow; block here (not in submit) when
        // the workers are saturated. `Closed` should be unreachable —
        // every shutdown path closes the stream only after joining this
        // thread — but if it ever happens, the popped job must still
        // reach `Done`, or the shutdown drain would wait on it forever.
        let id = job.id;
        // Install the job's tracing context for the hand-off: the engine
        // captures it at submit and re-installs it on whichever worker
        // picks the job up, so worker-side spans parent on the job root.
        let ctx = trace::Ctx::new(job.tracer.clone(), trace::ROOT_SPAN);
        let _trace_ctx = trace::set_ctx(&ctx);
        if stream.submit_blocking((id, Box::new(job))).is_err() {
            let mut state = inner.state.lock().expect("service state poisoned");
            state.counters.failed += 1;
            state.running.remove(&id);
            state.results.insert(
                id,
                JobOutcome::Failed("service stopped before the job could run".to_string()),
            );
            state.result_order.push_back(id);
            state.phases.insert(id, Phase::Done);
            drop(state);
            inner.done_cv.notify_all();
            return;
        }
    }
}

/// Drains finished jobs into the bounded result store.
fn collector_loop(inner: &Inner, stream: &StreamEngine<WorkItem, WorkOutput>) {
    while let Some((_, (id, outcome, trace_requested, tracer))) = stream.recv() {
        let dropped_spans = tracer.dropped();
        if dropped_spans > 0 {
            obs::event(
                obs::Level::Warn,
                "trace",
                "span sink overflowed, spans dropped",
                &[
                    ("job", &id.to_string()),
                    ("dropped", &dropped_spans.to_string()),
                ],
            );
        }
        let mut state = inner.state.lock().expect("service state poisoned");
        state.running.remove(&id);
        let seq = state.next_seq;
        state.next_seq += 1;
        let outcome = match outcome {
            JobOutcome::Done(mut summary) => {
                summary.seq = seq;
                state.counters.completed += 1;
                if state.queue_samples.len() >= QUEUE_SAMPLE_WINDOW {
                    state.queue_samples.pop_front();
                }
                state.queue_samples.push_back(summary.queue_seconds);
                for (label, secs) in &summary.pass_seconds {
                    let entry = state.pass_totals.entry(label.clone()).or_insert((0, 0.0));
                    entry.0 += 1;
                    entry.1 += secs;
                }
                JobOutcome::Done(summary)
            }
            failed => {
                state.counters.failed += 1;
                failed
            }
        };
        // Retention policy: keep the span tree when the submit asked for
        // it, or when the job ran long enough that someone will want to
        // know why — even without having asked in advance.
        let slow =
            matches!(&outcome, JobOutcome::Done(s) if s.seconds > inner.config.trace_slow_seconds);
        if (trace_requested || slow) && inner.config.traces_capacity > 0 {
            if state.trace_order.len() >= inner.config.traces_capacity {
                if let Some(evicted) = state.trace_order.pop_front() {
                    state.traces.remove(&evicted);
                }
            }
            let trace_id = format!("{:016x}", tracer.trace_id());
            // The watchdog may already hold a flight record under this
            // ID; replacing it must not double-enter the FIFO order.
            if state
                .traces
                .insert(id, (trace_id, tracer.snapshot()))
                .is_none()
            {
                state.trace_order.push_back(id);
            }
        }
        if state.result_order.len() >= inner.config.results_capacity {
            if let Some(evicted) = state.result_order.pop_front() {
                state.results.remove(&evicted);
                state.phases.remove(&evicted);
            }
        }
        state.results.insert(id, outcome);
        state.result_order.push_back(id);
        state.phases.insert(id, Phase::Done);
        drop(state);
        inner.done_cv.notify_all();
    }
}

/// [`MappingService::stats`] as a free function over `Inner`, so the
/// sampler thread (which holds only an `Inner` Arc) can snapshot it.
fn stats_of(inner: &Inner) -> StatsBody {
    let state = inner.state.lock().expect("service state poisoned");
    let (distance_hits, distance_misses) = topology::shared_distance_stats();
    let (closure_hits, closure_misses) = presburger::closure_memo_stats();
    let (weighted_hits, weighted_misses) = topology::weighted_distance_stats();
    let (subroute_hits, subroute_misses) = hier::subroute_memo_stats();
    let plan = hier::plan_store_stats();
    StatsBody {
        protocol: PROTOCOL_VERSION,
        workers: inner.config.workers.max(1) as u64,
        queue_depth: (state.interactive.len() + state.batch.len()) as u64,
        submitted: state.counters.submitted,
        completed: state.counters.completed,
        rejected: state.counters.rejected,
        failed: state.counters.failed,
        distance_hits,
        distance_misses,
        closure_hits,
        closure_misses,
        weighted_hits,
        weighted_misses,
        subroute_hits,
        subroute_misses,
        plan_exact_hits: plan.exact_hits,
        plan_canonical_hits: plan.canonical_hits,
        plan_disk_hits: plan.disk_hits,
        plan_disk_writes: plan.disk_writes,
    }
}

/// [`MappingService::metrics`] as a free function over `Inner` — the
/// same body serves synchronous `metrics` requests and the sampler
/// thread's periodic history snapshots.
fn metrics_of(inner: &Inner) -> MetricsBody {
    let stats = stats_of(inner);
    let state = inner.state.lock().expect("service state poisoned");
    let samples: Vec<f64> = state.queue_samples.iter().copied().collect();
    let jobs_inflight = state
        .phases
        .values()
        .filter(|p| !matches!(p, Phase::Done))
        .count() as u64;
    let mut passes: Vec<(String, u64, f64)> = state
        .pass_totals
        .iter()
        .map(|(label, &(runs, total))| (label.clone(), runs, total))
        .collect();
    drop(state);
    passes.sort_by(|a, b| a.0.cmp(&b.0));
    let mut sorted = samples.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("queue delays are finite"));
    MetricsBody {
        stats,
        queue_p50: nearest_rank(&sorted, 0.50),
        queue_p90: nearest_rank(&sorted, 0.90),
        queue_p99: nearest_rank(&sorted, 0.99),
        queue_max: sorted.last().copied().unwrap_or(0.0),
        queue_samples: samples.len() as u64,
        uptime_seconds: trace::now_ns().saturating_sub(inner.started_ns) as f64 * 1e-9,
        jobs_inflight,
        events_dropped: obs::dropped_total(),
        trace_drops: trace::drops_total(),
        passes,
    }
}

/// Parks on `obs_cv` for `timeout`, returning `false` once the service
/// is closing (shared by the sampler and watchdog interval waits).
fn obs_wait(inner: &Inner, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    let mut state = inner.state.lock().expect("service state poisoned");
    loop {
        if state.closing {
            return false;
        }
        let now = Instant::now();
        if now >= deadline {
            return true;
        }
        let (guard, _) = inner
            .obs_cv
            .wait_timeout(state, deadline - now)
            .expect("service state poisoned");
        state = guard;
    }
}

/// Snapshots the full metrics body into the bounded history ring every
/// `obs_sample_seconds` (plus one immediate baseline sample, so rates
/// have a left edge as soon as the first interval elapses).
fn sampler_loop(inner: &Inner) {
    let interval = inner.config.obs_sample_seconds;
    if interval <= 0.0 || !interval.is_finite() {
        return;
    }
    let interval = Duration::from_secs_f64(interval);
    loop {
        let metrics = metrics_of(inner);
        let mut state = inner.state.lock().expect("service state poisoned");
        if state.closing {
            return;
        }
        let index = state.next_sample_index;
        state.next_sample_index += 1;
        if state.history.len() >= HISTORY_CAPACITY {
            state.history.pop_front();
        }
        let sample = SampleBody::from_metrics(index, &metrics);
        state.history.push_back(sample);
        drop(state);
        if !obs_wait(inner, interval) {
            return;
        }
    }
}

/// Flags in-flight jobs that exceed `stall_after_seconds`: emits a
/// `warn` journal event and captures a flight record — the job's
/// partial span tree, a synthesized in-flight root, and a
/// `watchdog:stall` span carrying the journal tail — into the bounded
/// trace store, retrievable over the wire like any retained trace.
fn watchdog_loop(inner: &Inner) {
    let stall_after = inner.config.stall_after_seconds;
    if stall_after < 0.0 || !stall_after.is_finite() {
        return;
    }
    // Tick a quarter of the threshold (clamped to 50ms..1s) so a stall
    // is flagged within ~1.25x the configured patience.
    let tick = Duration::from_secs_f64((stall_after / 4.0).clamp(0.05, 1.0));
    let stall_ns = (stall_after * 1e9) as u64;
    loop {
        if !obs_wait(inner, tick) {
            return;
        }
        let now_ns = trace::now_ns();
        let mut state = inner.state.lock().expect("service state poisoned");
        // Collect first, flag under the same lock, then report after
        // releasing it: event emission and snapshotting take other locks.
        let mut flagged: Vec<(u64, Arc<trace::Tracer>, u64, String, String)> = Vec::new();
        for (&id, info) in state.running.iter_mut() {
            if !info.stalled && now_ns.saturating_sub(info.admitted_ns) >= stall_ns {
                info.stalled = true;
                flagged.push((
                    id,
                    info.tracer.clone(),
                    info.admitted_ns,
                    info.mapper.clone(),
                    info.backend.clone(),
                ));
            }
        }
        drop(state);
        for (id, tracer, admitted_ns, mapper, backend) in flagged {
            let running_seconds = now_ns.saturating_sub(admitted_ns) as f64 * 1e-9;
            obs::event(
                obs::Level::Warn,
                "watchdog",
                "job stalled in flight",
                &[
                    ("job", &id.to_string()),
                    ("mapper", &mapper),
                    ("backend", &backend),
                    ("running_seconds", &format!("{running_seconds:.3}")),
                    ("stall_after", &format!("{stall_after:.3}")),
                ],
            );
            let spans = flight_record(&tracer, admitted_ns, now_ns, &mapper, &backend);
            let trace_id = format!("{:016x}", tracer.trace_id());
            let mut state = inner.state.lock().expect("service state poisoned");
            if inner.config.traces_capacity == 0 {
                continue;
            }
            if state.trace_order.len() >= inner.config.traces_capacity {
                if let Some(evicted) = state.trace_order.pop_front() {
                    state.traces.remove(&evicted);
                }
            }
            // The collector guards the same way: whichever of the two
            // stores second replaces the entry without re-entering the
            // eviction order.
            if state.traces.insert(id, (trace_id, spans)).is_none() {
                state.trace_order.push_back(id);
            }
        }
    }
}

/// Builds a stalled job's flight record: the tracer's partial spans plus
/// a synthesized root (the real one is only finished at completion —
/// without it [`crate::proto::SpanNode::from_spans`] has no tree to
/// hang) and a `watchdog:stall` marker span whose notes carry the last
/// [`FLIGHT_RECORD_EVENTS`] journal events, age-stamped.
fn flight_record(
    tracer: &trace::Tracer,
    admitted_ns: u64,
    now_ns: u64,
    mapper: &str,
    backend: &str,
) -> Vec<trace::Span> {
    let mut spans = tracer.snapshot();
    if !spans.iter().any(|s| s.id == trace::ROOT_SPAN) {
        spans.push(trace::Span {
            id: trace::ROOT_SPAN,
            parent: 0,
            name: "job".to_string(),
            start_ns: admitted_ns,
            end_ns: now_ns,
            notes: vec![
                ("mapper".to_string(), mapper.to_string()),
                ("backend".to_string(), backend.to_string()),
                ("stalled".to_string(), "true".to_string()),
            ],
        });
    }
    let obs_now = obs::now_ns();
    let mut notes = vec![(
        "running_seconds".to_string(),
        format!("{:.3}", now_ns.saturating_sub(admitted_ns) as f64 * 1e-9),
    )];
    for (slot, event) in obs::recent(FLIGHT_RECORD_EVENTS).iter().enumerate() {
        let age = obs_now.saturating_sub(event.at_ns) as f64 * 1e-9;
        notes.push((
            format!("journal[{slot}]"),
            format!(
                "-{age:.3}s {} {}: {}",
                event.level, event.subsystem, event.message
            ),
        ));
    }
    spans.push(trace::Span {
        id: STALL_SPAN,
        parent: trace::ROOT_SPAN,
        name: "watchdog:stall".to_string(),
        start_ns: now_ns,
        end_ns: now_ns,
        notes,
    });
    spans
}

/// Nearest-rank percentile over an ascending-sorted slice: the value at
/// rank `ceil(q * n)` (1-based), the classic scraper definition. Empty
/// input reports `0.0` (no completions yet, nothing to claim).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

impl Drop for MappingService {
    fn drop(&mut self) {
        // The drain-on-drop guarantee: a plain drop runs the same
        // graceful shutdown as `shutdown()` (idempotent if it already
        // ran), so admitted jobs are never lost. The one exception is an
        // unwinding drop: waiting on possibly-poisoned condvars there
        // risks a double panic, so teardown is best-effort instead.
        if !std::thread::panicking() {
            self.shutdown();
            return;
        }
        if let Ok(mut state) = self.inner.state.lock() {
            state.closing = true;
        }
        self.inner.intake_cv.notify_all();
        self.inner.done_cv.notify_all();
        self.inner.obs_cv.notify_all();
        self.stream.close();
        let mut threads = match self.threads.lock() {
            Ok(threads) => threads,
            Err(poisoned) => poisoned.into_inner(),
        };
        for handle in threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// FNV-1a fingerprint of a full mapping result: routed gates (kind,
/// operands, parameter bits), both layouts, and the SWAP count. Two
/// results fingerprint equally iff they are bit-for-bit the same mapping,
/// which is how service responses pin the engine determinism contract
/// without shipping the routed circuit.
pub fn result_fingerprint(result: &MappingResult) -> u64 {
    struct Fnv(u64);
    impl Fnv {
        fn bytes(&mut self, bytes: &[u8]) {
            for &byte in bytes {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x100000001b3);
            }
        }
        fn word(&mut self, x: u64) {
            self.bytes(&x.to_le_bytes());
        }
    }
    let mut fnv = Fnv(0xcbf29ce484222325);
    fnv.word(result.routed.n_qubits() as u64);
    for gate in result.routed.gates() {
        fnv.bytes(gate.kind.name().as_bytes());
        fnv.word(gate.qubits.len() as u64);
        for &q in &gate.qubits {
            fnv.word(u64::from(q));
        }
        for &p in &gate.params {
            fnv.word(p.to_bits());
        }
    }
    for layout in [&result.initial_layout, &result.final_layout] {
        fnv.word(layout.len() as u64);
        for &p in layout.iter() {
            fnv.word(u64::from(p));
        }
    }
    fnv.word(result.swaps as u64);
    fnv.0
}

/// FNV-1a over the job ID and its admission stamp: a per-job trace
/// identity unique enough to correlate a router's wrapper span with the
/// shard-side tree it stitched around.
fn trace_id_for(id: u64, admitted_ns: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for word in [id, admitted_ns] {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Runs one admitted job to a stored outcome, bracketing it in the job's
/// span tree: the queue-wait child is recorded retroactively from the
/// admission stamp, and the reserved root span is finished last so it
/// covers admission through completion.
fn run_job(job: &AdmittedJob) -> JobOutcome {
    let pickup_ns = trace::now_ns();
    // Same two stamps as the queue-wait span: the metrics percentile ring
    // and the span tree agree bit-for-bit on every queue delay.
    let queue_seconds = pickup_ns.saturating_sub(job.admitted_ns) as f64 * 1e-9;
    job.tracer
        .record_root_child("intake:queue-wait", job.admitted_ns, pickup_ns, Vec::new());
    let outcome = execute_job(job, queue_seconds);
    let mut notes = vec![("mapper".to_string(), job.spec.mapper.name().to_string())];
    if matches!(outcome, JobOutcome::Failed(_)) {
        notes.push(("outcome".to_string(), "failed".to_string()));
    }
    let dropped = job.tracer.dropped();
    if dropped > 0 {
        notes.push(("dropped_spans".to_string(), dropped.to_string()));
    }
    job.tracer
        .finish_root("job", job.admitted_ns, trace::now_ns(), notes);
    outcome
}

/// The mapping work itself. Total: mapper errors and verification
/// failures become [`JobOutcome::Failed`], never a panic that would take
/// a daemon worker down.
fn execute_job(job: &AdmittedJob, queue_seconds: f64) -> JobOutcome {
    let spec = &job.spec;
    let t0 = Instant::now();
    let (result, pipeline, passes, metrics) = match spec.mapper.pipeline() {
        Some(mut pipeline) => {
            if let Some(noise) = &spec.noise {
                pipeline = pipeline.with_post(FidelityPass::new(noise.clone()));
            }
            match pipeline.run(&spec.circuit, &spec.device) {
                Ok(outcome) => {
                    let passes: Vec<(String, f64)> = outcome
                        .timings
                        .iter()
                        .map(|t| (t.label(), t.seconds))
                        .collect();
                    (outcome.result, pipeline.describe(), passes, outcome.metrics)
                }
                Err(e) => return JobOutcome::Failed(format!("pipeline failed: {e}")),
            }
        }
        None => {
            // Opaque mappers bypass the pipeline; fidelity is still
            // honored directly.
            let result = spec.mapper.map(&spec.circuit, &spec.device);
            let metrics = match &spec.noise {
                Some(noise) => {
                    let p = FidelityPass::new(noise.clone()).probability(&result.routed);
                    vec![(
                        "success_ppm".to_string(),
                        (p * FidelityPass::PPM).round() as i64,
                    )]
                }
                None => Vec::new(),
            };
            (result, String::new(), Vec::new(), metrics)
        }
    };
    let seconds = t0.elapsed().as_secs_f64();
    if let Err(e) = verify_routing(
        &spec.circuit,
        &result.routed,
        &|a, b| spec.device.is_adjacent(a, b),
        &result.initial_layout,
    ) {
        return JobOutcome::Failed(format!(
            "{} produced an invalid routing: {e}",
            spec.mapper.name()
        ));
    }
    let success_ppm = metrics
        .iter()
        .find(|(k, _)| k == "success_ppm")
        .map(|&(_, v)| v);
    JobOutcome::Done(Summary {
        swaps: result.swaps as u64,
        depth: result.routed.depth() as u64,
        qops: result.routed.qop_count() as u64,
        initial_layout: result.initial_layout.clone(),
        final_layout: result.final_layout.clone(),
        fingerprint: format!("{:016x}", result_fingerprint(&result)),
        pipeline,
        pass_seconds: passes,
        seconds,
        queue_seconds,
        seq: 0, // stamped by the collector in completion order
        verified: true,
        success_ppm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use qlosure::QlosureMapper;
    use topology::backends;

    fn spec(priority: Priority, depth: usize, seed: u64) -> JobSpec {
        let device = Arc::new(backends::aspen16());
        let bench = queko::QuekoSpec::new(&device, depth).seed(seed).generate();
        JobSpec {
            circuit: Arc::new(bench.circuit),
            device,
            mapper: Arc::new(QlosureMapper::default()),
            priority,
            noise: None,
            trace: false,
        }
    }

    fn service(workers: usize, queue: usize, results: usize) -> MappingService {
        MappingService::start(ServiceConfig {
            workers,
            queue_capacity: queue,
            results_capacity: results,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn submit_wait_poll_roundtrip() {
        let svc = service(2, 16, 16);
        let id = svc.submit(spec(Priority::Interactive, 10, 1)).unwrap();
        let outcome = svc.wait(id, Duration::from_secs(60)).expect("finishes");
        let JobOutcome::Done(summary) = outcome else {
            panic!("mapping must succeed");
        };
        assert!(summary.verified);
        assert_eq!(summary.pipeline, "weights → identity → qlosure");
        assert_eq!(summary.initial_layout.len(), 16);
        assert!(summary.queue_seconds >= 0.0);
        assert!(matches!(svc.poll(id), PollReply::Finished(_)));
        assert!(matches!(svc.poll(id + 999), PollReply::Unknown));
        let stats = svc.shutdown();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn wait_without_a_representable_deadline_blocks_until_done() {
        // `Instant::now() + Duration::MAX` overflows; the wait must treat
        // it as no deadline rather than panic or return early.
        let svc = service(1, 16, 16);
        let id = svc.submit(spec(Priority::Batch, 40, 2)).unwrap();
        let outcome = svc.wait(id, Duration::MAX).expect("finishes");
        assert!(matches!(outcome, JobOutcome::Done(ref summary) if summary.verified));
        assert!(
            svc.wait(id + 999, Duration::MAX).is_none(),
            "unknown IDs return at once"
        );
        svc.shutdown();
    }

    #[test]
    fn interactive_overtakes_queued_batch_jobs() {
        // One worker; a slow batch job occupies it while more batch jobs
        // and one interactive job queue up. The interactive job must
        // complete before the batch jobs that were admitted *earlier*
        // (modulo the one batch job the scheduler may already have staged
        // into the engine's single-slot buffer).
        let svc = service(1, 32, 32);
        let slow = svc.submit(spec(Priority::Batch, 120, 2)).unwrap();
        let batch: Vec<u64> = (0..4)
            .map(|s| svc.submit(spec(Priority::Batch, 10, 3 + s)).unwrap())
            .collect();
        let interactive = svc.submit(spec(Priority::Interactive, 10, 99)).unwrap();
        let seq_of = |id: u64| -> u64 {
            match svc.wait(id, Duration::from_secs(120)).expect("finishes") {
                JobOutcome::Done(summary) => summary.seq,
                JobOutcome::Failed(e) => panic!("job {id} failed: {e}"),
            }
        };
        let interactive_seq = seq_of(interactive);
        let last_batch_seq = seq_of(*batch.last().unwrap());
        assert!(
            interactive_seq < last_batch_seq,
            "interactive (seq {interactive_seq}) must overtake queued batch \
             work (last batch seq {last_batch_seq})"
        );
        let _ = seq_of(slow);
        svc.shutdown();
    }

    #[test]
    fn full_admission_queue_rejects_with_typed_error() {
        // Zero-capacity queue: nothing can be admitted.
        let svc = service(1, 0, 8);
        let err = svc.submit(spec(Priority::Batch, 10, 1)).unwrap_err();
        assert_eq!(err.0, ErrorCode::QueueFull);
        let stats = svc.shutdown();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.submitted, 0);
    }

    #[test]
    fn shutdown_drains_already_admitted_jobs() {
        let svc = service(1, 32, 32);
        let ids: Vec<u64> = (0..3)
            .map(|s| svc.submit(spec(Priority::Batch, 20, s)).unwrap())
            .collect();
        svc.begin_shutdown();
        let err = svc.submit(spec(Priority::Batch, 10, 9)).unwrap_err();
        assert_eq!(err.0, ErrorCode::ShuttingDown);
        let stats = svc.shutdown();
        assert_eq!(stats.completed, 3, "queued jobs drain before exit");
        for id in ids {
            assert!(matches!(svc.poll(id), PollReply::Finished(_)));
        }
    }

    #[test]
    fn result_store_is_bounded_fifo() {
        // One worker so completions are sequential; shutdown drains all
        // four jobs (a per-job `wait` would race eviction: an early
        // result may already be evicted by the time it is polled).
        let svc = service(1, 32, 2);
        let ids: Vec<u64> = (0..4)
            .map(|s| svc.submit(spec(Priority::Batch, 10, s)).unwrap())
            .collect();
        let stats = svc.shutdown();
        assert_eq!(stats.completed, 4, "shutdown drains every admitted job");
        let retained = ids
            .iter()
            .filter(|&&id| matches!(svc.poll(id), PollReply::Finished(_)))
            .count();
        assert_eq!(retained, 2, "capacity-2 store keeps exactly two results");
        let evicted = ids
            .iter()
            .filter(|&&id| matches!(svc.poll(id), PollReply::Unknown))
            .count();
        assert_eq!(evicted, 2, "evicted results poll as unknown");
    }

    #[test]
    fn device_too_small_yields_failed_outcome_not_panic() {
        let svc = service(1, 8, 8);
        let device = Arc::new(backends::line(3));
        let id = svc
            .submit(JobSpec {
                circuit: Arc::new(Circuit::new(5)),
                device,
                mapper: Arc::new(QlosureMapper::default()),
                priority: Priority::Interactive,
                noise: None,
                trace: false,
            })
            .unwrap();
        match svc.wait(id, Duration::from_secs(30)).expect("finishes") {
            JobOutcome::Failed(message) => {
                assert!(message.contains("5 qubits"), "got: {message}");
            }
            JobOutcome::Done(_) => panic!("oversized circuit cannot succeed"),
        }
        let stats = svc.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn fidelity_opt_in_reports_success_ppm() {
        let svc = service(1, 8, 8);
        let device = Arc::new(backends::aspen16());
        let bench = queko::QuekoSpec::new(&device, 10).seed(5).generate();
        let noise = NoiseModel::synthetic(&device, 7e-3, registry::NOISE_SEED);
        let with = svc
            .submit(JobSpec {
                circuit: Arc::new(bench.circuit.clone()),
                device: device.clone(),
                mapper: Arc::new(QlosureMapper::default()),
                priority: Priority::Interactive,
                noise: Some(noise),
                trace: false,
            })
            .unwrap();
        let without = svc
            .submit(JobSpec {
                circuit: Arc::new(bench.circuit),
                device,
                mapper: Arc::new(QlosureMapper::default()),
                priority: Priority::Interactive,
                noise: None,
                trace: false,
            })
            .unwrap();
        let summary = |id: u64| match svc.wait(id, Duration::from_secs(60)).expect("finishes") {
            JobOutcome::Done(s) => s,
            JobOutcome::Failed(e) => panic!("job failed: {e}"),
        };
        let s_with = summary(with);
        let ppm = s_with.success_ppm.expect("opt-in must report");
        assert!((1..=1_000_000).contains(&ppm), "got {ppm}");
        assert!(s_with.pipeline.ends_with("fidelity"));
        assert_eq!(summary(without).success_ppm, None);
        svc.shutdown();
    }

    #[test]
    fn metrics_reports_queue_percentiles_and_pass_totals() {
        let svc = service(2, 16, 16);
        let before = svc.metrics();
        assert_eq!(before.queue_samples, 0);
        assert_eq!(before.queue_p50, 0.0, "no completions, nothing to claim");
        assert!(before.passes.is_empty());
        let ids: Vec<u64> = (0..3)
            .map(|s| svc.submit(spec(Priority::Batch, 10, s)).unwrap())
            .collect();
        for id in ids {
            assert!(svc.wait(id, Duration::from_secs(60)).is_some());
        }
        let metrics = svc.metrics();
        assert_eq!(metrics.queue_samples, 3);
        assert!(metrics.queue_p50 <= metrics.queue_p90);
        assert!(metrics.queue_p90 <= metrics.queue_p99);
        assert!(metrics.queue_p99 <= metrics.queue_max);
        // The default pipeline runs weights → identity → qlosure once per
        // job, so every pass label records exactly three runs.
        assert!(!metrics.passes.is_empty());
        for (label, runs, total) in &metrics.passes {
            assert_eq!(*runs, 3, "pass {label} runs once per job");
            assert!(*total >= 0.0);
        }
        let labels: Vec<&str> = metrics.passes.iter().map(|p| p.0.as_str()).collect();
        let mut sorted_labels = labels.clone();
        sorted_labels.sort_unstable();
        assert_eq!(labels, sorted_labels, "passes are label-sorted");
        assert_eq!(metrics.stats.completed, 3);
        assert!(metrics.uptime_seconds > 0.0);
        assert_eq!(metrics.jobs_inflight, 0, "everything already drained");
        svc.shutdown();
    }

    #[test]
    fn requested_traces_span_queue_wait_pickup_and_passes() {
        let svc = service(1, 8, 8);
        let mut traced = spec(Priority::Interactive, 10, 1);
        traced.trace = true;
        let id = svc.submit(traced).unwrap();
        let JobOutcome::Done(summary) = svc.wait(id, Duration::from_secs(60)).expect("finishes")
        else {
            panic!("mapping must succeed");
        };
        let (trace_id, spans) = svc.trace(id).expect("requested trace is retained");
        assert_eq!(trace_id.len(), 16, "16 hex digits: {trace_id}");
        let by_name = |n: &str| spans.iter().find(|s| s.name == n);
        let root = by_name("job").expect("root span");
        assert_eq!(root.id, trace::ROOT_SPAN);
        assert!(root
            .notes
            .contains(&("mapper".to_string(), "qlosure".to_string())));
        let wait = by_name("intake:queue-wait").expect("queue-wait span");
        assert_eq!(wait.parent, trace::ROOT_SPAN);
        // Shared-clock contract: the percentile sample and the span are
        // the same two stamps, so they agree bit-for-bit.
        assert_eq!(
            summary.queue_seconds,
            (wait.end_ns - wait.start_ns) as f64 * 1e-9
        );
        assert!(by_name("engine:pickup").is_some());
        for pass in ["analysis:weights", "layout:identity", "routing:qlosure"] {
            let span = by_name(pass).unwrap_or_else(|| panic!("missing pass span {pass}"));
            assert_eq!(span.parent, trace::ROOT_SPAN);
        }
        // A fast job that did not opt in leaves nothing behind.
        let untraced = svc.submit(spec(Priority::Interactive, 10, 2)).unwrap();
        assert!(svc.wait(untraced, Duration::from_secs(60)).is_some());
        assert!(svc.trace(untraced).is_none());
        svc.shutdown();
    }

    #[test]
    fn slow_jobs_retain_traces_without_opting_in() {
        // Threshold zero makes every completed job "slow".
        let svc = MappingService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            results_capacity: 8,
            trace_slow_seconds: 0.0,
            traces_capacity: 2,
            ..ServiceConfig::default()
        });
        let ids: Vec<u64> = (0..3)
            .map(|s| svc.submit(spec(Priority::Batch, 10, s)).unwrap())
            .collect();
        svc.shutdown();
        let retained = ids.iter().filter(|&&id| svc.trace(id).is_some()).count();
        assert_eq!(retained, 2, "trace store is bounded FIFO at capacity 2");
        assert!(svc.trace(ids[0]).is_none(), "oldest trace evicted first");
    }

    #[test]
    fn sampler_fills_bounded_history_with_monotone_indexes() {
        let svc = MappingService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            results_capacity: 8,
            obs_sample_seconds: 0.02,
            ..ServiceConfig::default()
        });
        let id = svc.submit(spec(Priority::Interactive, 10, 1)).unwrap();
        assert!(svc.wait(id, Duration::from_secs(60)).is_some());
        // The sampler takes an immediate baseline, then one per tick.
        let deadline = Instant::now() + Duration::from_secs(30);
        let history = loop {
            let history = svc.history();
            let samples = &history.series[0].samples;
            if samples.len() >= 3 && samples.last().unwrap().completed >= 1 {
                break history;
            }
            assert!(Instant::now() < deadline, "sampler never caught up");
            std::thread::sleep(Duration::from_millis(20));
        };
        assert_eq!(history.series.len(), 1, "a lone daemon is one series");
        assert_eq!(history.series[0].shard, 0);
        let samples = &history.series[0].samples;
        for pair in samples.windows(2) {
            assert_eq!(pair[1].index, pair[0].index + 1, "indexes are monotone");
            assert!(pair[1].uptime_seconds >= pair[0].uptime_seconds);
        }
        assert!(samples.len() <= HISTORY_CAPACITY);
        let rates = &history.series[0].rates;
        assert!(rates.window_seconds > 0.0);
        assert!(rates.jobs_per_second >= 0.0);
        svc.shutdown();
    }

    #[test]
    fn zero_interval_disables_the_sampler() {
        let svc = MappingService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            results_capacity: 8,
            obs_sample_seconds: 0.0,
            ..ServiceConfig::default()
        });
        std::thread::sleep(Duration::from_millis(50));
        let history = svc.history();
        assert!(history.series[0].samples.is_empty());
        assert_eq!(history.sample_seconds, 0.0);
        svc.shutdown();
    }

    #[test]
    fn watchdog_flags_stalled_jobs_with_a_flight_record() {
        // Zero patience: any watchdog tick (every 50ms at this setting)
        // flags whatever is in flight. The workload must outlast at
        // least one tick, so: a dense deep QUEKO on the king graph (the
        // slowest routing target in the roster per unit of depth), not
        // the breezy aspen16 the other tests use. It is not traced, and
        // the slow-job threshold is out of reach — so a retained trace
        // can only be the watchdog's flight record.
        let svc = MappingService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            results_capacity: 8,
            trace_slow_seconds: 1e9,
            traces_capacity: 4,
            stall_after_seconds: 0.0,
            ..ServiceConfig::default()
        });
        let device = Arc::new(backends::by_name("king9").expect("king9 resolves"));
        let bench = queko::QuekoSpec::new(&device, 400).seed(7).generate();
        let id = svc
            .submit(JobSpec {
                circuit: Arc::new(bench.circuit),
                device,
                mapper: Arc::new(QlosureMapper::default()),
                priority: Priority::Batch,
                noise: None,
                trace: false,
            })
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        let (_, spans) = loop {
            if let Some(record) = svc.trace(id) {
                break record;
            }
            assert!(
                Instant::now() < deadline,
                "watchdog never captured a flight record"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        let stall = spans
            .iter()
            .find(|s| s.name == "watchdog:stall")
            .expect("flight record carries the stall marker span");
        assert_eq!(stall.parent, trace::ROOT_SPAN);
        assert!(stall.notes.iter().any(|(k, _)| k == "running_seconds"));
        let root = spans
            .iter()
            .find(|s| s.id == trace::ROOT_SPAN)
            .expect("synthesized in-flight root");
        assert!(root.end_ns >= root.start_ns);
        assert!(svc.wait(id, Duration::from_secs(120)).is_some());
        svc.shutdown();
    }

    #[test]
    fn nearest_rank_is_the_classic_definition() {
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
        let one = [7.0];
        assert_eq!(nearest_rank(&one, 0.5), 7.0);
        assert_eq!(nearest_rank(&one, 0.99), 7.0);
        let four = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&four, 0.50), 2.0);
        assert_eq!(nearest_rank(&four, 0.90), 4.0);
        assert_eq!(nearest_rank(&four, 0.25), 1.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 0.50), 50.0);
        assert_eq!(nearest_rank(&hundred, 0.90), 90.0);
        assert_eq!(nearest_rank(&hundred, 0.99), 99.0);
    }

    #[test]
    fn fingerprint_distinguishes_results() {
        let device = backends::line(4);
        let mut a = Circuit::new(4);
        a.cx(0, 3);
        let ra = QlosureMapper::default().map(&a, &device);
        let rb = QlosureMapper::default().map(&a, &device);
        assert_eq!(
            result_fingerprint(&ra),
            result_fingerprint(&rb),
            "deterministic mapper, equal fingerprints"
        );
        let mut c = Circuit::new(4);
        c.cx(0, 2);
        let rc = QlosureMapper::default().map(&c, &device);
        assert_ne!(result_fingerprint(&ra), result_fingerprint(&rc));
    }
}
