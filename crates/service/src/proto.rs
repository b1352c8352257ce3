//! The versioned newline-delimited JSON wire protocol.
//!
//! Every frame is one line of JSON. Requests and responses both carry the
//! protocol version in a `"v"` field; the daemon rejects any mismatch
//! with a typed [`ErrorCode::VersionMismatch`] error, per the repo's
//! protocol-versioning rule (breaking wire changes bump
//! [`PROTOCOL_VERSION`]).
//!
//! Encoding and parsing are total and symmetric: `parse(encode(x)) == x`
//! for every [`Request`] and [`Response`] value (pinned by the property
//! suite), and arbitrary bytes fed to the parsers produce a typed
//! [`ProtoError`] — never a panic. Frames longer than [`MAX_FRAME`] are
//! rejected before parsing.

use crate::json::{self, Json};
use std::fmt;
use trace::journal::Level;

/// Version of this wire protocol. Breaking changes to the frame shapes
/// bump this and the daemon rejects mismatched clients with a
/// `version-mismatch` error.
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard bound on one frame's length in bytes (requests carry inline QASM,
/// so the bound is generous — but adversarial multi-gigabyte lines must
/// die before allocation).
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// Scheduling class of a submission: interactive jobs overtake batch jobs
/// in the admission queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Priority {
    /// Latency-sensitive; drained before any queued batch work.
    Interactive,
    /// Throughput work; drained FIFO after interactive work.
    Batch,
}

impl Priority {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }

    /// Parses the wire spelling.
    pub fn from_wire(s: &str) -> Option<Priority> {
        match s {
            "interactive" => Some(Priority::Interactive),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }
}

/// How the daemon maps a submission onto the mapping architectures.
///
/// Additive request field (absent = `Flat`, so pre-existing clients keep
/// working without a protocol version bump): `"hier"` swaps the resolved
/// mapper for the hierarchical partitioned mapper, `"auto"` does so only
/// for devices at or above the hierarchy's size threshold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// Run the named mapper flat against the whole device.
    #[default]
    Flat,
    /// Run the hierarchical partitioned mapper (`qlosure-hier`).
    Hier,
    /// Pick `Hier` for large devices, the named mapper otherwise.
    Auto,
}

impl Strategy {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::Flat => "flat",
            Strategy::Hier => "hier",
            Strategy::Auto => "auto",
        }
    }

    /// Parses the wire spelling.
    pub fn from_wire(s: &str) -> Option<Strategy> {
        match s {
            "flat" => Some(Strategy::Flat),
            "hier" => Some(Strategy::Hier),
            "auto" => Some(Strategy::Auto),
            _ => None,
        }
    }
}

/// A client→daemon frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit one mapping job.
    Submit {
        /// Device name, resolved via `topology::backends::by_name`.
        backend: String,
        /// Mapper name (`qlosure` or any baseline).
        mapper: String,
        /// Inline OpenQASM 2.0 source.
        qasm: String,
        /// Scheduling class.
        priority: Priority,
        /// Opt-in: also estimate the routed circuit's success probability
        /// under a synthetic calibration (reported as `success_ppm`).
        fidelity: bool,
        /// Mapping architecture selection (additive; absent on the wire
        /// means [`Strategy::Flat`]).
        strategy: Strategy,
        /// Opt-in: retain the job's span tree for a later `trace`
        /// request (additive; absent on the wire means `false`).
        trace: bool,
    },
    /// Ask for the state/result of a submitted job.
    Poll {
        /// The ID returned by the submit response.
        id: u64,
    },
    /// Wait for a submitted job to finish, then answer exactly like
    /// [`Request::Poll`] (additive op, like [`Request::Metrics`]). The
    /// daemon parks the connection until the job finishes or `timeout_ms`
    /// elapses, whichever is first, capped at its per-connection idle
    /// deadline; a job still unfinished then answers `pending`.
    Wait {
        /// The ID returned by the submit response.
        id: u64,
        /// The longest the client will wait, in milliseconds. JSON numbers
        /// are doubles, so values past 2^53 lose precision on the wire;
        /// anything at or past 2^64 decodes as `u64::MAX`, which therefore
        /// round-trips exactly.
        timeout_ms: u64,
    },
    /// Ask for a completed job's span tree (additive op, like
    /// [`Request::Metrics`]): answered when the submit opted in with
    /// `trace: true` or the job exceeded the daemon's slow-job retention
    /// threshold, `unknown-id` otherwise.
    Trace {
        /// The ID returned by the submit response.
        id: u64,
    },
    /// Ask for daemon counters, including shared-cache hit/miss totals.
    Stats,
    /// Ask for the full observability export: counters plus queue-delay
    /// percentiles and per-pass timing aggregates ([`MetricsBody`]).
    /// Additive op (new daemons answer it, old daemons answer
    /// `bad-request`) — no version bump.
    Metrics,
    /// Ask for the metrics time-series window: the sampler thread's
    /// retained [`MetricsBody`] snapshots plus rates computed over them
    /// ([`HistoryBody`]). Additive op, like [`Request::Metrics`].
    MetricsHistory,
    /// Ask for the journal window: retained structured events at or
    /// above `min_level`, strictly after `after_seq` ([`EventsBody`]).
    /// Additive op, like [`Request::Metrics`].
    Events {
        /// Minimum severity to include (absent on the wire decodes as
        /// `debug`, i.e. everything).
        min_level: Level,
        /// Only events with a strictly greater sequence number (absent
        /// on the wire decodes as 0 — the whole retained window).
        after_seq: u64,
    },
    /// Request graceful shutdown: intake closes, in-flight and queued
    /// jobs drain, then the daemon exits.
    Shutdown,
}

/// The result summary of one completed mapping job.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// SWAPs inserted.
    pub swaps: u64,
    /// Routed depth (unit-gate model).
    pub depth: u64,
    /// Routed gate count.
    pub qops: u64,
    /// Initial layout, `initial_layout[logical] = physical`.
    pub initial_layout: Vec<u32>,
    /// Final layout after all SWAPs.
    pub final_layout: Vec<u32>,
    /// FNV-1a fingerprint of the full mapping result (routed gates +
    /// layouts), as 16 lowercase hex digits — lets clients check
    /// bit-for-bit equivalence without shipping the routed circuit.
    pub fingerprint: String,
    /// The pass composition that ran (empty for opaque mappers).
    pub pipeline: String,
    /// Per-pass wall-clock timings (`stage:name`, seconds).
    pub pass_seconds: Vec<(String, f64)>,
    /// Wall-clock mapping seconds (timing field).
    pub seconds: f64,
    /// Seconds between admission and worker pickup (timing field).
    pub queue_seconds: f64,
    /// Completion sequence number (0-based, daemon-wide): the order jobs
    /// finished in, which is how priority scheduling is observable.
    pub seq: u64,
    /// Whether the independent routing verifier accepted the result
    /// (always `true` for a `done` response; failures use `failed`).
    pub verified: bool,
    /// Estimated success probability in parts per million, when the
    /// request opted into fidelity estimation.
    pub success_ppm: Option<i64>,
}

/// Daemon counters reported by [`Response::Stats`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsBody {
    /// The daemon's protocol version.
    pub protocol: u64,
    /// Mapping worker count.
    pub workers: u64,
    /// Jobs currently waiting in the admission queue.
    pub queue_depth: u64,
    /// Jobs accepted since startup.
    pub submitted: u64,
    /// Jobs completed successfully since startup.
    pub completed: u64,
    /// Jobs rejected at admission (queue full / shutting down).
    pub rejected: u64,
    /// Jobs that failed while mapping.
    pub failed: u64,
    /// Process-wide shared distance-cache hits (cross-request
    /// amortization counter).
    pub distance_hits: u64,
    /// Process-wide shared distance-cache misses.
    pub distance_misses: u64,
    /// Process-wide transitive-closure memo hits.
    pub closure_hits: u64,
    /// Process-wide transitive-closure memo misses.
    pub closure_misses: u64,
    /// Process-wide reliability-weighted distance-cache hits (additive
    /// field; absent on the wire decodes as 0).
    pub weighted_hits: u64,
    /// Process-wide reliability-weighted distance-cache misses.
    pub weighted_misses: u64,
    /// Process-wide hierarchical sub-routing fragment-memo hits.
    pub subroute_hits: u64,
    /// Process-wide hierarchical sub-routing fragment-memo misses.
    pub subroute_misses: u64,
    /// Plan-store hits where the fragment was byte-identical to one
    /// already cached (additive field; absent on the wire decodes as 0).
    pub plan_exact_hits: u64,
    /// Plan-store hits earned by canonicalization: a structurally
    /// isomorphic fragment under a different labeling shared the plan.
    pub plan_canonical_hits: u64,
    /// Plans loaded from the optional `--plan-store` disk tier.
    pub plan_disk_hits: u64,
    /// Plans persisted to the disk tier after a fresh compute.
    pub plan_disk_writes: u64,
}

/// One node of a job's span tree, as carried by [`Response::Trace`].
/// Timestamps are nanoseconds **relative to the root span's start**, so
/// they stay far below 2^53 and trees from different processes (a
/// router's wrapper around a shard's tree) compose without sharing a
/// clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    /// Stage label, e.g. `routing:hier-route` or `intake:queue-wait`.
    pub name: String,
    /// Start offset in nanoseconds from the root span's start.
    pub start_ns: u64,
    /// End offset in nanoseconds from the root span's start.
    pub end_ns: u64,
    /// Key/value annotations, e.g. `("plan_tier", "canonical")`.
    pub notes: Vec<(String, String)>,
    /// Child spans, ordered by start offset.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Assembles completed spans (as recorded by a `trace::Tracer`) into
    /// a tree rooted at `trace::ROOT_SPAN`, rebasing every timestamp so
    /// the root starts at 0. Returns `None` when no root span was
    /// recorded. Spans whose parent is missing (dropped past the sink
    /// bound) are attached to the root rather than lost.
    #[must_use]
    pub fn from_spans(spans: &[trace::Span]) -> Option<SpanNode> {
        let root = spans.iter().find(|s| s.id == trace::ROOT_SPAN)?;
        let base = root.start_ns;
        let known: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
        let mut children: std::collections::HashMap<u64, Vec<&trace::Span>> =
            std::collections::HashMap::new();
        for span in spans {
            if span.id == trace::ROOT_SPAN {
                continue;
            }
            let parent = if known.contains(&span.parent) {
                span.parent
            } else {
                trace::ROOT_SPAN
            };
            children.entry(parent).or_default().push(span);
        }
        fn build(
            span: &trace::Span,
            base: u64,
            children: &std::collections::HashMap<u64, Vec<&trace::Span>>,
        ) -> SpanNode {
            let mut kids: Vec<&trace::Span> = children.get(&span.id).cloned().unwrap_or_default();
            kids.sort_by_key(|s| (s.start_ns, s.id));
            SpanNode {
                name: span.name.clone(),
                start_ns: span.start_ns.saturating_sub(base),
                end_ns: span.end_ns.saturating_sub(base),
                notes: span.notes.clone(),
                children: kids.iter().map(|k| build(k, base, children)).collect(),
            }
        }
        Some(build(root, base, &children))
    }

    /// Renders the tree as human-readable indented text, one span per
    /// line: duration, name, then `key=value` annotations.
    #[must_use]
    pub fn render_tree(&self) -> String {
        fn walk(node: &SpanNode, depth: usize, out: &mut String) {
            let millis = (node.end_ns.saturating_sub(node.start_ns)) as f64 / 1e6;
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!("{:.3}ms {}", millis, node.name));
            for (k, v) in &node.notes {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
            for child in &node.children {
                walk(child, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(self, 0, &mut out);
        out
    }

    /// Renders the tree as a Chrome trace-event JSON array (`ph:"X"`
    /// complete events, microsecond units) loadable in Perfetto or
    /// `chrome://tracing`.
    #[must_use]
    pub fn render_chrome(&self) -> String {
        fn event(node: &SpanNode, depth: u64, out: &mut Vec<Json>) {
            let ts = node.start_ns as f64 / 1e3;
            let dur = node.end_ns.saturating_sub(node.start_ns) as f64 / 1e3;
            let args = node
                .notes
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect::<Vec<_>>();
            out.push(obj(vec![
                ("name", Json::Str(node.name.clone())),
                ("ph", Json::Str("X".to_string())),
                ("ts", Json::Num(ts)),
                ("dur", Json::Num(dur)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(depth as f64 + 1.0)),
                ("args", Json::Obj(args)),
            ]));
            for child in &node.children {
                event(child, depth + 1, out);
            }
        }
        let mut events = Vec::new();
        event(self, 0, &mut events);
        // Offsets and microsecond conversions are finite by construction.
        Json::Arr(events).encode().expect("finite trace events")
    }
}

/// The full observability export reported by [`Response::Metrics`]: the
/// counter block plus queue-delay percentiles and per-pass timing
/// aggregates. [`MetricsBody::render`] flattens it into scraper-friendly
/// text for `qlosure-cli metrics`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsBody {
    /// The daemon counters (same block as [`Response::Stats`]).
    pub stats: StatsBody,
    /// Median seconds between admission and worker pickup, over the
    /// retained sample window.
    pub queue_p50: f64,
    /// 90th-percentile queue delay (seconds).
    pub queue_p90: f64,
    /// 99th-percentile queue delay (seconds).
    pub queue_p99: f64,
    /// Worst queue delay in the sample window (seconds).
    pub queue_max: f64,
    /// How many completed jobs the percentiles were computed over.
    pub queue_samples: u64,
    /// Per-pass timing aggregates as `(label, runs, total_seconds)`,
    /// sorted by label. Labels are pipeline pass labels
    /// (`stage:name`, e.g. `routing:qlosure`).
    pub passes: Vec<(String, u64, f64)>,
    /// Seconds since the service started (additive field; absent on the
    /// wire decodes as 0).
    pub uptime_seconds: f64,
    /// Jobs admitted but not yet finished — queued plus in flight
    /// (additive field; absent on the wire decodes as 0).
    pub jobs_inflight: u64,
    /// Journal events evicted from the bounded event ring, process-wide
    /// (additive field; absent on the wire decodes as 0).
    pub events_dropped: u64,
    /// Spans dropped by full per-job trace sinks, process-wide (additive
    /// field; absent on the wire decodes as 0).
    pub trace_drops: u64,
}

impl MetricsBody {
    /// Flattens the export into line-oriented `name value` /
    /// `name{label="..."} value` text a scraper can ingest directly,
    /// with `# HELP`/`# TYPE` comment lines per metric family for
    /// standard scraper compatibility. Deterministic: counters in
    /// declaration order, pass lines sorted by label (sorted here too,
    /// not just daemon-side, so repeated scrapes diff cleanly whatever
    /// encoded the body).
    #[must_use]
    pub fn render(&self) -> String {
        fn esc(label: &str) -> String {
            label.replace('\\', "\\\\").replace('"', "\\\"")
        }
        fn meta(out: &mut String, name: &str, kind: &str, help: &str) {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        }
        let s = &self.stats;
        let mut out = String::new();
        for (name, kind, help, value) in [
            (
                "qlosure_protocol_version",
                "gauge",
                "Wire protocol version this daemon speaks.",
                s.protocol,
            ),
            (
                "qlosure_workers",
                "gauge",
                "Mapping worker threads.",
                s.workers,
            ),
            (
                "qlosure_queue_depth",
                "gauge",
                "Jobs waiting in the admission queue.",
                s.queue_depth,
            ),
            (
                "qlosure_jobs_submitted_total",
                "counter",
                "Jobs accepted since startup.",
                s.submitted,
            ),
            (
                "qlosure_jobs_completed_total",
                "counter",
                "Jobs completed successfully since startup.",
                s.completed,
            ),
            (
                "qlosure_jobs_rejected_total",
                "counter",
                "Jobs rejected at admission since startup.",
                s.rejected,
            ),
            (
                "qlosure_jobs_failed_total",
                "counter",
                "Jobs that failed while mapping since startup.",
                s.failed,
            ),
        ] {
            meta(&mut out, name, kind, help);
            out.push_str(&format!("{name} {value}\n"));
        }
        meta(
            &mut out,
            "qlosure_uptime_seconds",
            "gauge",
            "Seconds since the service started.",
        );
        out.push_str(&format!("qlosure_uptime_seconds {}\n", self.uptime_seconds));
        meta(
            &mut out,
            "qlosure_jobs_inflight",
            "gauge",
            "Jobs admitted but not yet finished.",
        );
        out.push_str(&format!("qlosure_jobs_inflight {}\n", self.jobs_inflight));
        meta(
            &mut out,
            "qlosure_events_dropped_total",
            "counter",
            "Journal events evicted from the bounded event ring.",
        );
        out.push_str(&format!(
            "qlosure_events_dropped_total {}\n",
            self.events_dropped
        ));
        meta(
            &mut out,
            "qlosure_trace_drops_total",
            "counter",
            "Spans dropped by full per-job trace sinks.",
        );
        out.push_str(&format!("qlosure_trace_drops_total {}\n", self.trace_drops));
        meta(
            &mut out,
            "qlosure_cache_hits_total",
            "counter",
            "Shared per-device cache hits, by cache.",
        );
        meta(
            &mut out,
            "qlosure_cache_misses_total",
            "counter",
            "Shared per-device cache misses, by cache.",
        );
        for (cache, hits, misses) in [
            ("distance", s.distance_hits, s.distance_misses),
            ("closure", s.closure_hits, s.closure_misses),
            ("weighted", s.weighted_hits, s.weighted_misses),
            ("subroute", s.subroute_hits, s.subroute_misses),
        ] {
            out.push_str(&format!(
                "qlosure_cache_hits_total{{cache=\"{cache}\"}} {hits}\n"
            ));
            out.push_str(&format!(
                "qlosure_cache_misses_total{{cache=\"{cache}\"}} {misses}\n"
            ));
        }
        meta(
            &mut out,
            "qlosure_plan_hits_total",
            "counter",
            "Fragment plan-store hits, by tier.",
        );
        for (tier, hits) in [
            ("exact", s.plan_exact_hits),
            ("canonical", s.plan_canonical_hits),
            ("disk", s.plan_disk_hits),
        ] {
            out.push_str(&format!(
                "qlosure_plan_hits_total{{tier=\"{tier}\"}} {hits}\n"
            ));
        }
        meta(
            &mut out,
            "qlosure_plan_disk_writes_total",
            "counter",
            "Plans persisted to the disk tier after a fresh compute.",
        );
        out.push_str(&format!(
            "qlosure_plan_disk_writes_total {}\n",
            s.plan_disk_writes
        ));
        meta(
            &mut out,
            "qlosure_queue_seconds",
            "summary",
            "Seconds between admission and worker pickup.",
        );
        for (quantile, value) in [
            ("0.5", self.queue_p50),
            ("0.9", self.queue_p90),
            ("0.99", self.queue_p99),
        ] {
            out.push_str(&format!(
                "qlosure_queue_seconds{{quantile=\"{quantile}\"}} {value}\n"
            ));
        }
        meta(
            &mut out,
            "qlosure_queue_seconds_max",
            "gauge",
            "Worst queue delay in the sample window.",
        );
        out.push_str(&format!("qlosure_queue_seconds_max {}\n", self.queue_max));
        meta(
            &mut out,
            "qlosure_queue_seconds_count",
            "counter",
            "Completed jobs the queue percentiles cover.",
        );
        out.push_str(&format!(
            "qlosure_queue_seconds_count {}\n",
            self.queue_samples
        ));
        let mut passes: Vec<&(String, u64, f64)> = self.passes.iter().collect();
        passes.sort_by(|a, b| a.0.cmp(&b.0));
        meta(
            &mut out,
            "qlosure_pass_runs_total",
            "counter",
            "Pipeline pass executions, by pass label.",
        );
        meta(
            &mut out,
            "qlosure_pass_seconds_total",
            "counter",
            "Cumulative pipeline pass wall-clock seconds, by pass label.",
        );
        for (label, runs, total) in passes {
            out.push_str(&format!(
                "qlosure_pass_runs_total{{pass=\"{}\"}} {runs}\n",
                esc(label)
            ));
            out.push_str(&format!(
                "qlosure_pass_seconds_total{{pass=\"{}\"}} {total}\n",
                esc(label)
            ));
        }
        out
    }
}

/// One point of the metrics time-series ring, carried by
/// [`Response::MetricsHistory`]: the counters a dashboard differentiates
/// into rates, snapshotted from a full [`MetricsBody`] by the daemon's
/// sampler thread.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleBody {
    /// Monotone sample index (daemon-local; survives ring eviction, so a
    /// poller can detect gaps).
    pub index: u64,
    /// Uptime seconds at sample time — the series' time axis.
    pub uptime_seconds: f64,
    /// Jobs accepted since startup.
    pub submitted: u64,
    /// Jobs completed since startup.
    pub completed: u64,
    /// Jobs failed since startup.
    pub failed: u64,
    /// Jobs rejected at admission since startup.
    pub rejected: u64,
    /// Admission-queue depth at sample time.
    pub queue_depth: u64,
    /// Jobs admitted but not yet finished at sample time.
    pub jobs_inflight: u64,
    /// 99th-percentile queue delay at sample time (seconds).
    pub queue_p99: f64,
    /// Shared distance-cache hits since startup.
    pub distance_hits: u64,
    /// Shared distance-cache misses since startup.
    pub distance_misses: u64,
    /// Plan-store exact-tier hits since startup.
    pub plan_exact_hits: u64,
    /// Plan-store canonical-tier hits since startup.
    pub plan_canonical_hits: u64,
    /// Plan-store disk-tier hits since startup.
    pub plan_disk_hits: u64,
    /// Sub-routing fragment-memo hits since startup.
    pub subroute_hits: u64,
    /// Sub-routing fragment-memo misses since startup.
    pub subroute_misses: u64,
    /// Journal events evicted from the bounded ring since startup.
    pub events_dropped: u64,
    /// Spans dropped by full trace sinks since startup.
    pub trace_drops: u64,
}

impl SampleBody {
    /// Projects a full metrics export down to the time-series columns.
    #[must_use]
    pub fn from_metrics(index: u64, m: &MetricsBody) -> SampleBody {
        SampleBody {
            index,
            uptime_seconds: m.uptime_seconds,
            submitted: m.stats.submitted,
            completed: m.stats.completed,
            failed: m.stats.failed,
            rejected: m.stats.rejected,
            queue_depth: m.stats.queue_depth,
            jobs_inflight: m.jobs_inflight,
            queue_p99: m.queue_p99,
            distance_hits: m.stats.distance_hits,
            distance_misses: m.stats.distance_misses,
            plan_exact_hits: m.stats.plan_exact_hits,
            plan_canonical_hits: m.stats.plan_canonical_hits,
            plan_disk_hits: m.stats.plan_disk_hits,
            subroute_hits: m.stats.subroute_hits,
            subroute_misses: m.stats.subroute_misses,
            events_dropped: m.events_dropped,
            trace_drops: m.trace_drops,
        }
    }

    /// Total cache probes (distance + sub-routing) — the denominator of
    /// the windowed hit-rate.
    fn cache_probes(&self) -> u64 {
        self.distance_hits + self.distance_misses + self.subroute_hits + self.subroute_misses
    }

    /// Total cache hits (distance + sub-routing).
    fn cache_hits(&self) -> u64 {
        self.distance_hits + self.subroute_hits
    }
}

/// Rates computed over one shard's retained sample window, carried by
/// [`SeriesBody`]. All zeros when the window holds fewer than two
/// samples (no interval to differentiate over).
#[derive(Clone, Debug, PartialEq)]
pub struct RatesBody {
    /// Seconds between the oldest and newest retained sample.
    pub window_seconds: f64,
    /// Completed jobs per second over the window.
    pub jobs_per_second: f64,
    /// Cache hits ÷ cache probes over the window (distance +
    /// sub-routing), in `[0, 1]`; 0 when the window saw no probes.
    pub cache_hit_rate: f64,
    /// Newest queue depth minus oldest (signed): positive means the
    /// backlog is growing.
    pub queue_depth_trend: f64,
}

impl RatesBody {
    /// Differentiates a sample window into rates. Total: degenerate
    /// windows (under two samples, zero elapsed time, counter resets)
    /// yield zeros, never NaN/infinity — the wire rejects non-finite
    /// numbers.
    #[must_use]
    pub fn over(samples: &[SampleBody]) -> RatesBody {
        let (Some(first), Some(last)) = (samples.first(), samples.last()) else {
            return RatesBody {
                window_seconds: 0.0,
                jobs_per_second: 0.0,
                cache_hit_rate: 0.0,
                queue_depth_trend: 0.0,
            };
        };
        let window = (last.uptime_seconds - first.uptime_seconds).max(0.0);
        let completed = last.completed.saturating_sub(first.completed);
        let probes = last.cache_probes().saturating_sub(first.cache_probes());
        let hits = last.cache_hits().saturating_sub(first.cache_hits());
        RatesBody {
            window_seconds: window,
            jobs_per_second: if window > 0.0 {
                completed as f64 / window
            } else {
                0.0
            },
            cache_hit_rate: if probes > 0 {
                hits as f64 / probes as f64
            } else {
                0.0
            },
            queue_depth_trend: last.queue_depth as f64 - first.queue_depth as f64,
        }
    }
}

/// One shard's slice of a [`Response::MetricsHistory`]: its retained
/// sample window plus the rates computed over it. A lone daemon reports
/// exactly one series (shard 0); a router reports one per shard, with
/// `shard` relabeled to the fleet index.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesBody {
    /// Fleet shard index (0 for an unfronted daemon).
    pub shard: u64,
    /// The retained window, oldest first, aligned by `index`.
    pub samples: Vec<SampleBody>,
    /// Rates over this window.
    pub rates: RatesBody,
}

/// The metrics time-series window carried by
/// [`Response::MetricsHistory`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryBody {
    /// Seconds between consecutive samples (the daemon's `--obs-sample`).
    pub sample_seconds: f64,
    /// Per-shard series, ordered by shard index.
    pub series: Vec<SeriesBody>,
}

/// One journal event carried by [`Response::Events`].
#[derive(Clone, Debug, PartialEq)]
pub struct EventBody {
    /// Monotone per-daemon sequence number (starting at 1). A router
    /// fronting `n` shards remaps it to `seq * (n + 1) + stream` the
    /// same way it remaps job IDs — `stream` is the shard index, with
    /// the router's own journal as stream `n` — so merged sequence
    /// numbers stay monotone per stream and exactly invertible.
    pub seq: u64,
    /// Seconds before the response was generated (age, not an absolute
    /// stamp — ages compose across processes that share no clock).
    pub age_seconds: f64,
    /// Severity.
    pub level: Level,
    /// Emitting subsystem, e.g. `plan-store` or `watchdog`.
    pub subsystem: String,
    /// The event message.
    pub message: String,
    /// Free-form key/value payload.
    pub fields: Vec<(String, String)>,
}

/// The journal window carried by [`Response::Events`].
#[derive(Clone, Debug, PartialEq)]
pub struct EventsBody {
    /// Events evicted from the bounded ring since startup.
    pub dropped: u64,
    /// The matching retained events, oldest first.
    pub events: Vec<EventBody>,
}

/// Typed error categories carried by [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not a valid request.
    BadRequest,
    /// The request's `"v"` does not match the daemon's protocol version.
    VersionMismatch,
    /// The frame exceeded [`MAX_FRAME`] bytes.
    Oversized,
    /// The named backend does not resolve.
    UnknownBackend,
    /// The named mapper does not resolve.
    UnknownMapper,
    /// The inline QASM failed to parse or convert.
    QasmError,
    /// The circuit needs more qubits than the device has.
    DeviceTooSmall,
    /// The admission queue is full.
    QueueFull,
    /// The polled ID was never assigned or its result was evicted.
    UnknownId,
    /// The daemon is shutting down and no longer accepts work.
    ShuttingDown,
    /// The mapper failed or produced an unverifiable routing.
    MappingFailed,
    /// The server is at its live-connection cap; retry later. (Additive
    /// spelling — pre-fleet daemons never emit it.)
    Busy,
    /// The router could not reach the shard that owns this request.
    /// (Additive spelling — only `qlosure-router` emits it.)
    ShardUnavailable,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::VersionMismatch => "version-mismatch",
            ErrorCode::Oversized => "oversized",
            ErrorCode::UnknownBackend => "unknown-backend",
            ErrorCode::UnknownMapper => "unknown-mapper",
            ErrorCode::QasmError => "qasm-error",
            ErrorCode::DeviceTooSmall => "device-too-small",
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::UnknownId => "unknown-id",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::MappingFailed => "mapping-failed",
            ErrorCode::Busy => "busy",
            ErrorCode::ShardUnavailable => "shard-unavailable",
        }
    }

    /// Parses the wire spelling.
    pub fn from_wire(s: &str) -> Option<ErrorCode> {
        [
            ErrorCode::BadRequest,
            ErrorCode::VersionMismatch,
            ErrorCode::Oversized,
            ErrorCode::UnknownBackend,
            ErrorCode::UnknownMapper,
            ErrorCode::QasmError,
            ErrorCode::DeviceTooSmall,
            ErrorCode::QueueFull,
            ErrorCode::UnknownId,
            ErrorCode::ShuttingDown,
            ErrorCode::MappingFailed,
            ErrorCode::Busy,
            ErrorCode::ShardUnavailable,
        ]
        .into_iter()
        .find(|c| c.as_str() == s)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A daemon→client frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The job was admitted under this ID.
    Submitted {
        /// Request ID for later polling.
        id: u64,
    },
    /// The job is still queued or running.
    Pending {
        /// The polled ID.
        id: u64,
        /// `true` once the job left the admission queue toward the
        /// workers (running or about to run — past the point where
        /// priority can reorder it).
        running: bool,
    },
    /// The job finished and verified.
    Done {
        /// The polled ID.
        id: u64,
        /// The result summary.
        summary: Summary,
    },
    /// The job ran but failed (mapper error or verification failure).
    Failed {
        /// The polled ID.
        id: u64,
        /// Human-readable failure.
        message: String,
    },
    /// Daemon counters.
    Stats(StatsBody),
    /// The full observability export (additive op; see
    /// [`Request::Metrics`]).
    Metrics(MetricsBody),
    /// The metrics time-series window (additive op; see
    /// [`Request::MetricsHistory`]).
    MetricsHistory(HistoryBody),
    /// The journal window (additive op; see [`Request::Events`]).
    Events(EventsBody),
    /// A completed job's span tree (additive op; see [`Request::Trace`]).
    Trace {
        /// The polled ID.
        id: u64,
        /// The trace identity as 16 lowercase hex digits, generated at
        /// admission and preserved verbatim by any router that wraps the
        /// tree — what correlates a stitched trace across the fleet.
        trace_id: String,
        /// The span tree, rooted at the job's root span.
        root: SpanNode,
    },
    /// Acknowledgement of a shutdown request.
    ShuttingDown {
        /// Jobs still queued or in flight that will drain before exit.
        pending: u64,
    },
    /// A typed request-level error.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Why a frame failed to decode.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtoError {
    /// The frame exceeds [`MAX_FRAME`] bytes.
    Oversized {
        /// Observed frame length.
        len: usize,
    },
    /// The frame is not valid JSON.
    Json(json::JsonError),
    /// The frame is valid JSON but not a valid protocol message.
    Shape(String),
    /// The frame's `"v"` field does not match [`PROTOCOL_VERSION`].
    Version {
        /// The version the peer sent.
        got: u64,
    },
}

impl ProtoError {
    /// The [`ErrorCode`] a daemon should answer this decode failure with.
    pub fn code(&self) -> ErrorCode {
        match self {
            ProtoError::Oversized { .. } => ErrorCode::Oversized,
            ProtoError::Version { .. } => ErrorCode::VersionMismatch,
            ProtoError::Json(_) | ProtoError::Shape(_) => ErrorCode::BadRequest,
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            ProtoError::Json(e) => write!(f, "invalid JSON: {e}"),
            ProtoError::Shape(s) => write!(f, "invalid message: {s}"),
            ProtoError::Version { got } => write!(
                f,
                "protocol version {got} does not match daemon version {PROTOCOL_VERSION}"
            ),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Json(e) => Some(e),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num_u64(x: u64) -> Json {
    // Protocol integers stay far below 2^53; debug-assert the invariant.
    debug_assert!(x <= (1 << 53));
    Json::Num(x as f64)
}

/// A millisecond count, which may exceed 2^53 (a client's "no deadline"
/// is `u64::MAX`): encoded as the nearest double, read back by
/// [`millis_field`].
fn num_millis(x: u64) -> Json {
    Json::Num(x as f64)
}

fn versioned(op: &str, mut rest: Vec<(&str, Json)>) -> Json {
    let mut members = vec![
        ("v", num_u64(PROTOCOL_VERSION)),
        ("op", Json::Str(op.to_string())),
    ];
    members.append(&mut rest);
    obj(members)
}

/// Encodes a request as one JSON line (no trailing newline).
///
/// # Errors
///
/// [`json::EncodeError`] when the request carries a non-finite number —
/// JSON cannot represent NaN/±infinity, and emitting a lossy stand-in
/// would break the `parse(encode(x)) == x` fixed point.
pub fn encode_request(request: &Request) -> Result<String, json::EncodeError> {
    let value = match request {
        Request::Submit {
            backend,
            mapper,
            qasm,
            priority,
            fidelity,
            strategy,
            trace,
        } => {
            let mut members = vec![
                ("backend", Json::Str(backend.clone())),
                ("mapper", Json::Str(mapper.clone())),
                ("qasm", Json::Str(qasm.clone())),
                ("priority", Json::Str(priority.as_str().to_string())),
                ("fidelity", Json::Bool(*fidelity)),
                ("strategy", Json::Str(strategy.as_str().to_string())),
            ];
            // Additive field: only emitted when set, so pre-trace
            // daemons never see it.
            if *trace {
                members.push(("trace", Json::Bool(true)));
            }
            versioned("submit", members)
        }
        Request::Poll { id } => versioned("poll", vec![("id", num_u64(*id))]),
        Request::Wait { id, timeout_ms } => versioned(
            "wait",
            vec![
                ("id", num_u64(*id)),
                ("timeout_ms", num_millis(*timeout_ms)),
            ],
        ),
        Request::Trace { id } => versioned("trace", vec![("id", num_u64(*id))]),
        Request::Stats => versioned("stats", vec![]),
        Request::Metrics => versioned("metrics", vec![]),
        Request::MetricsHistory => versioned("metrics-history", vec![]),
        Request::Events {
            min_level,
            after_seq,
        } => versioned(
            "events",
            vec![
                ("min_level", Json::Str(min_level.as_str().to_string())),
                ("after_seq", num_u64(*after_seq)),
            ],
        ),
        Request::Shutdown => versioned("shutdown", vec![]),
    };
    value.encode()
}

/// The counter block, shared by the `stats` response and the `stats`
/// field of the `metrics` response.
fn stats_members(stats: &StatsBody) -> Vec<(&'static str, Json)> {
    vec![
        ("protocol", num_u64(stats.protocol)),
        ("workers", num_u64(stats.workers)),
        ("queue_depth", num_u64(stats.queue_depth)),
        ("submitted", num_u64(stats.submitted)),
        ("completed", num_u64(stats.completed)),
        ("rejected", num_u64(stats.rejected)),
        ("failed", num_u64(stats.failed)),
        ("distance_hits", num_u64(stats.distance_hits)),
        ("distance_misses", num_u64(stats.distance_misses)),
        ("closure_hits", num_u64(stats.closure_hits)),
        ("closure_misses", num_u64(stats.closure_misses)),
        ("weighted_hits", num_u64(stats.weighted_hits)),
        ("weighted_misses", num_u64(stats.weighted_misses)),
        ("subroute_hits", num_u64(stats.subroute_hits)),
        ("subroute_misses", num_u64(stats.subroute_misses)),
        ("plan_exact_hits", num_u64(stats.plan_exact_hits)),
        ("plan_canonical_hits", num_u64(stats.plan_canonical_hits)),
        ("plan_disk_hits", num_u64(stats.plan_disk_hits)),
        ("plan_disk_writes", num_u64(stats.plan_disk_writes)),
    ]
}

fn encode_span(node: &SpanNode) -> Json {
    let mut members = vec![
        ("name", Json::Str(node.name.clone())),
        ("start_ns", num_u64(node.start_ns)),
        ("end_ns", num_u64(node.end_ns)),
    ];
    if !node.notes.is_empty() {
        members.push((
            "notes",
            Json::Obj(
                node.notes
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ));
    }
    if !node.children.is_empty() {
        members.push((
            "children",
            Json::Arr(node.children.iter().map(encode_span).collect()),
        ));
    }
    obj(members)
}

fn encode_summary(s: &Summary) -> Json {
    let layout = |l: &[u32]| Json::Arr(l.iter().map(|&p| num_u64(u64::from(p))).collect());
    let mut members = vec![
        ("swaps", num_u64(s.swaps)),
        ("depth", num_u64(s.depth)),
        ("qops", num_u64(s.qops)),
        ("initial_layout", layout(&s.initial_layout)),
        ("final_layout", layout(&s.final_layout)),
        ("fingerprint", Json::Str(s.fingerprint.clone())),
        ("pipeline", Json::Str(s.pipeline.clone())),
        (
            "pass_seconds",
            Json::Obj(
                s.pass_seconds
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        ("seconds", Json::Num(s.seconds)),
        ("queue_seconds", Json::Num(s.queue_seconds)),
        ("seq", num_u64(s.seq)),
        ("verified", Json::Bool(s.verified)),
    ];
    if let Some(ppm) = s.success_ppm {
        members.push(("success_ppm", Json::Num(ppm as f64)));
    }
    obj(members)
}

fn encode_sample(s: &SampleBody) -> Json {
    obj(vec![
        ("index", num_u64(s.index)),
        ("uptime_seconds", Json::Num(s.uptime_seconds)),
        ("submitted", num_u64(s.submitted)),
        ("completed", num_u64(s.completed)),
        ("failed", num_u64(s.failed)),
        ("rejected", num_u64(s.rejected)),
        ("queue_depth", num_u64(s.queue_depth)),
        ("jobs_inflight", num_u64(s.jobs_inflight)),
        ("queue_p99", Json::Num(s.queue_p99)),
        ("distance_hits", num_u64(s.distance_hits)),
        ("distance_misses", num_u64(s.distance_misses)),
        ("plan_exact_hits", num_u64(s.plan_exact_hits)),
        ("plan_canonical_hits", num_u64(s.plan_canonical_hits)),
        ("plan_disk_hits", num_u64(s.plan_disk_hits)),
        ("subroute_hits", num_u64(s.subroute_hits)),
        ("subroute_misses", num_u64(s.subroute_misses)),
        ("events_dropped", num_u64(s.events_dropped)),
        ("trace_drops", num_u64(s.trace_drops)),
    ])
}

fn encode_series(series: &SeriesBody) -> Json {
    obj(vec![
        ("shard", num_u64(series.shard)),
        (
            "samples",
            Json::Arr(series.samples.iter().map(encode_sample).collect()),
        ),
        (
            "rates",
            obj(vec![
                ("window_seconds", Json::Num(series.rates.window_seconds)),
                ("jobs_per_second", Json::Num(series.rates.jobs_per_second)),
                ("cache_hit_rate", Json::Num(series.rates.cache_hit_rate)),
                (
                    "queue_depth_trend",
                    Json::Num(series.rates.queue_depth_trend),
                ),
            ]),
        ),
    ])
}

fn encode_event(event: &EventBody) -> Json {
    let mut members = vec![
        ("seq", num_u64(event.seq)),
        ("age_seconds", Json::Num(event.age_seconds)),
        ("level", Json::Str(event.level.as_str().to_string())),
        ("subsystem", Json::Str(event.subsystem.clone())),
        ("message", Json::Str(event.message.clone())),
    ];
    if !event.fields.is_empty() {
        members.push((
            "fields",
            Json::Obj(
                event
                    .fields
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ));
    }
    obj(members)
}

/// Encodes a response as one JSON line (no trailing newline).
///
/// # Errors
///
/// [`json::EncodeError`] when the response carries a non-finite number
/// (e.g. a NaN timing in a [`Summary`]); see [`encode_request`].
pub fn encode_response(response: &Response) -> Result<String, json::EncodeError> {
    let value = match response {
        Response::Submitted { id } => versioned("submitted", vec![("id", num_u64(*id))]),
        Response::Pending { id, running } => versioned(
            "pending",
            vec![("id", num_u64(*id)), ("running", Json::Bool(*running))],
        ),
        Response::Done { id, summary } => versioned(
            "done",
            vec![("id", num_u64(*id)), ("summary", encode_summary(summary))],
        ),
        Response::Failed { id, message } => versioned(
            "failed",
            vec![
                ("id", num_u64(*id)),
                ("message", Json::Str(message.clone())),
            ],
        ),
        Response::Stats(stats) => versioned("stats", stats_members(stats)),
        Response::Metrics(metrics) => versioned(
            "metrics",
            vec![
                ("stats", obj(stats_members(&metrics.stats))),
                ("queue_p50", Json::Num(metrics.queue_p50)),
                ("queue_p90", Json::Num(metrics.queue_p90)),
                ("queue_p99", Json::Num(metrics.queue_p99)),
                ("queue_max", Json::Num(metrics.queue_max)),
                ("queue_samples", num_u64(metrics.queue_samples)),
                ("uptime_seconds", Json::Num(metrics.uptime_seconds)),
                ("jobs_inflight", num_u64(metrics.jobs_inflight)),
                ("events_dropped", num_u64(metrics.events_dropped)),
                ("trace_drops", num_u64(metrics.trace_drops)),
                (
                    "passes",
                    Json::Obj(
                        metrics
                            .passes
                            .iter()
                            .map(|(label, runs, total)| {
                                (
                                    label.clone(),
                                    Json::Arr(vec![num_u64(*runs), Json::Num(*total)]),
                                )
                            })
                            .collect(),
                    ),
                ),
            ],
        ),
        Response::MetricsHistory(history) => versioned(
            "metrics-history",
            vec![
                ("sample_seconds", Json::Num(history.sample_seconds)),
                (
                    "series",
                    Json::Arr(history.series.iter().map(encode_series).collect()),
                ),
            ],
        ),
        Response::Events(events) => versioned(
            "events",
            vec![
                ("dropped", num_u64(events.dropped)),
                (
                    "events",
                    Json::Arr(events.events.iter().map(encode_event).collect()),
                ),
            ],
        ),
        Response::Trace { id, trace_id, root } => versioned(
            "trace",
            vec![
                ("id", num_u64(*id)),
                ("trace_id", Json::Str(trace_id.clone())),
                ("root", encode_span(root)),
            ],
        ),
        Response::ShuttingDown { pending } => {
            versioned("shutting-down", vec![("pending", num_u64(*pending))])
        }
        Response::Error { code, message } => versioned(
            "error",
            vec![
                ("code", Json::Str(code.as_str().to_string())),
                ("message", Json::Str(message.clone())),
            ],
        ),
    };
    value.encode()
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn shape(message: impl Into<String>) -> ProtoError {
    ProtoError::Shape(message.into())
}

/// Decodes a frame into its JSON value, checking size and version.
fn decode_frame(line: &str) -> Result<Json, ProtoError> {
    if line.len() > MAX_FRAME {
        return Err(ProtoError::Oversized { len: line.len() });
    }
    let value = json::parse(line).map_err(ProtoError::Json)?;
    if value.as_obj().is_none() {
        return Err(shape("frame is not a JSON object"));
    }
    let v = value
        .get("v")
        .and_then(Json::as_u64)
        .ok_or_else(|| shape("missing protocol version field `v`"))?;
    if v != PROTOCOL_VERSION {
        return Err(ProtoError::Version { got: v });
    }
    Ok(value)
}

fn field<'a>(value: &'a Json, name: &str) -> Result<&'a Json, ProtoError> {
    value
        .get(name)
        .ok_or_else(|| shape(format!("missing field `{name}`")))
}

fn str_field(value: &Json, name: &str) -> Result<String, ProtoError> {
    field(value, name)?
        .as_str()
        .map(ToString::to_string)
        .ok_or_else(|| shape(format!("field `{name}` must be a string")))
}

fn u64_field(value: &Json, name: &str) -> Result<u64, ProtoError> {
    field(value, name)?
        .as_u64()
        .ok_or_else(|| shape(format!("field `{name}` must be a non-negative integer")))
}

/// A millisecond count: any non-negative integral number, saturating at
/// `u64::MAX` (so the encoding of `u64::MAX`, 2^64, decodes back to it).
fn millis_field(value: &Json, name: &str) -> Result<u64, ProtoError> {
    field(value, name)?
        .as_f64()
        .filter(|x| *x >= 0.0 && x.fract() == 0.0)
        .map(|x| x as u64)
        .ok_or_else(|| shape(format!("field `{name}` must be a non-negative integer")))
}

fn f64_field(value: &Json, name: &str) -> Result<f64, ProtoError> {
    field(value, name)?
        .as_f64()
        .ok_or_else(|| shape(format!("field `{name}` must be a number")))
}

fn bool_field(value: &Json, name: &str) -> Result<bool, ProtoError> {
    field(value, name)?
        .as_bool()
        .ok_or_else(|| shape(format!("field `{name}` must be a boolean")))
}

/// Additive integer field: absent decodes as 0 (so stats responses from
/// daemons predating the field still parse), present must be an integer.
fn opt_u64_field(value: &Json, name: &str) -> Result<u64, ProtoError> {
    match value.get(name) {
        None => Ok(0),
        Some(x) => x
            .as_u64()
            .ok_or_else(|| shape(format!("field `{name}` must be a non-negative integer"))),
    }
}

/// Additive number field: absent decodes as 0.0, present must be a
/// number.
fn opt_f64_field(value: &Json, name: &str) -> Result<f64, ProtoError> {
    match value.get(name) {
        None => Ok(0.0),
        Some(x) => x
            .as_f64()
            .ok_or_else(|| shape(format!("field `{name}` must be a number"))),
    }
}

/// Additive boolean field: absent decodes as `false`, present must be a
/// boolean.
fn opt_bool_field(value: &Json, name: &str) -> Result<bool, ProtoError> {
    match value.get(name) {
        None => Ok(false),
        Some(x) => x
            .as_bool()
            .ok_or_else(|| shape(format!("field `{name}` must be a boolean"))),
    }
}

/// Parses one request frame.
///
/// # Errors
///
/// A typed [`ProtoError`] for oversized, malformed, version-mismatched or
/// structurally invalid frames; arbitrary input never panics.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let value = decode_frame(line)?;
    let op = str_field(&value, "op")?;
    match op.as_str() {
        "submit" => {
            let priority_text = str_field(&value, "priority")?;
            let priority = Priority::from_wire(&priority_text)
                .ok_or_else(|| shape(format!("unknown priority `{priority_text}`")))?;
            // Additive field: absent means flat (pre-strategy clients).
            let strategy = match value.get("strategy") {
                None => Strategy::Flat,
                Some(x) => {
                    let text = x
                        .as_str()
                        .ok_or_else(|| shape("field `strategy` must be a string"))?;
                    Strategy::from_wire(text)
                        .ok_or_else(|| shape(format!("unknown strategy `{text}`")))?
                }
            };
            Ok(Request::Submit {
                backend: str_field(&value, "backend")?,
                mapper: str_field(&value, "mapper")?,
                qasm: str_field(&value, "qasm")?,
                priority,
                fidelity: bool_field(&value, "fidelity")?,
                strategy,
                // Additive field: absent means no trace retention.
                trace: opt_bool_field(&value, "trace")?,
            })
        }
        "poll" => Ok(Request::Poll {
            id: u64_field(&value, "id")?,
        }),
        "wait" => Ok(Request::Wait {
            id: u64_field(&value, "id")?,
            timeout_ms: millis_field(&value, "timeout_ms")?,
        }),
        "trace" => Ok(Request::Trace {
            id: u64_field(&value, "id")?,
        }),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "metrics-history" => Ok(Request::MetricsHistory),
        "events" => {
            // Both fields are additive-style optional: a bare `events`
            // frame means "everything retained, any level".
            let min_level = match value.get("min_level") {
                None => Level::Debug,
                Some(x) => {
                    let text = x
                        .as_str()
                        .ok_or_else(|| shape("field `min_level` must be a string"))?;
                    Level::parse(text).ok_or_else(|| shape(format!("unknown level `{text}`")))?
                }
            };
            Ok(Request::Events {
                min_level,
                after_seq: opt_u64_field(&value, "after_seq")?,
            })
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(shape(format!("unknown request op `{other}`"))),
    }
}

fn parse_layout(value: &Json, name: &str) -> Result<Vec<u32>, ProtoError> {
    field(value, name)?
        .as_arr()
        .ok_or_else(|| shape(format!("field `{name}` must be an array")))?
        .iter()
        .map(|x| {
            x.as_u64()
                .filter(|&p| p <= u64::from(u32::MAX))
                .map(|p| p as u32)
                .ok_or_else(|| shape(format!("field `{name}` must hold physical qubit indices")))
        })
        .collect()
}

fn parse_summary(value: &Json) -> Result<Summary, ProtoError> {
    let passes = field(value, "pass_seconds")?
        .as_obj()
        .ok_or_else(|| shape("field `pass_seconds` must be an object"))?
        .iter()
        .map(|(k, v)| {
            v.as_f64()
                .map(|s| (k.clone(), s))
                .ok_or_else(|| shape("pass timings must be numbers"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let success_ppm = match value.get("success_ppm") {
        None => None,
        Some(x) => Some(
            x.as_i64()
                .ok_or_else(|| shape("field `success_ppm` must be an integer"))?,
        ),
    };
    Ok(Summary {
        swaps: u64_field(value, "swaps")?,
        depth: u64_field(value, "depth")?,
        qops: u64_field(value, "qops")?,
        initial_layout: parse_layout(value, "initial_layout")?,
        final_layout: parse_layout(value, "final_layout")?,
        fingerprint: str_field(value, "fingerprint")?,
        pipeline: str_field(value, "pipeline")?,
        pass_seconds: passes,
        seconds: f64_field(value, "seconds")?,
        queue_seconds: f64_field(value, "queue_seconds")?,
        seq: u64_field(value, "seq")?,
        verified: bool_field(value, "verified")?,
        success_ppm,
    })
}

/// Parses a counter block — the top level of a `stats` response or the
/// `stats` member of a `metrics` response.
fn parse_stats(value: &Json) -> Result<StatsBody, ProtoError> {
    Ok(StatsBody {
        protocol: u64_field(value, "protocol")?,
        workers: u64_field(value, "workers")?,
        queue_depth: u64_field(value, "queue_depth")?,
        submitted: u64_field(value, "submitted")?,
        completed: u64_field(value, "completed")?,
        rejected: u64_field(value, "rejected")?,
        failed: u64_field(value, "failed")?,
        distance_hits: u64_field(value, "distance_hits")?,
        distance_misses: u64_field(value, "distance_misses")?,
        closure_hits: u64_field(value, "closure_hits")?,
        closure_misses: u64_field(value, "closure_misses")?,
        weighted_hits: opt_u64_field(value, "weighted_hits")?,
        weighted_misses: opt_u64_field(value, "weighted_misses")?,
        subroute_hits: opt_u64_field(value, "subroute_hits")?,
        subroute_misses: opt_u64_field(value, "subroute_misses")?,
        plan_exact_hits: opt_u64_field(value, "plan_exact_hits")?,
        plan_canonical_hits: opt_u64_field(value, "plan_canonical_hits")?,
        plan_disk_hits: opt_u64_field(value, "plan_disk_hits")?,
        plan_disk_writes: opt_u64_field(value, "plan_disk_writes")?,
    })
}

/// Parses the `passes` object of a `metrics` response: label →
/// `[runs, total_seconds]`.
fn parse_passes(value: &Json) -> Result<Vec<(String, u64, f64)>, ProtoError> {
    field(value, "passes")?
        .as_obj()
        .ok_or_else(|| shape("field `passes` must be an object"))?
        .iter()
        .map(|(label, entry)| {
            let pair = entry
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| shape("pass aggregates must be [runs, total_seconds] pairs"))?;
            let runs = pair[0]
                .as_u64()
                .ok_or_else(|| shape("pass runs must be a non-negative integer"))?;
            let total = pair[1]
                .as_f64()
                .ok_or_else(|| shape("pass total seconds must be a number"))?;
            Ok((label.clone(), runs, total))
        })
        .collect()
}

fn parse_sample(value: &Json) -> Result<SampleBody, ProtoError> {
    Ok(SampleBody {
        index: u64_field(value, "index")?,
        uptime_seconds: f64_field(value, "uptime_seconds")?,
        submitted: u64_field(value, "submitted")?,
        completed: u64_field(value, "completed")?,
        failed: u64_field(value, "failed")?,
        rejected: u64_field(value, "rejected")?,
        queue_depth: u64_field(value, "queue_depth")?,
        jobs_inflight: u64_field(value, "jobs_inflight")?,
        queue_p99: f64_field(value, "queue_p99")?,
        distance_hits: u64_field(value, "distance_hits")?,
        distance_misses: u64_field(value, "distance_misses")?,
        plan_exact_hits: u64_field(value, "plan_exact_hits")?,
        plan_canonical_hits: u64_field(value, "plan_canonical_hits")?,
        plan_disk_hits: u64_field(value, "plan_disk_hits")?,
        subroute_hits: u64_field(value, "subroute_hits")?,
        subroute_misses: u64_field(value, "subroute_misses")?,
        events_dropped: opt_u64_field(value, "events_dropped")?,
        trace_drops: opt_u64_field(value, "trace_drops")?,
    })
}

fn parse_series(value: &Json) -> Result<SeriesBody, ProtoError> {
    let samples = field(value, "samples")?
        .as_arr()
        .ok_or_else(|| shape("field `samples` must be an array"))?
        .iter()
        .map(parse_sample)
        .collect::<Result<Vec<_>, _>>()?;
    let rates = field(value, "rates")?;
    Ok(SeriesBody {
        shard: u64_field(value, "shard")?,
        samples,
        rates: RatesBody {
            window_seconds: f64_field(rates, "window_seconds")?,
            jobs_per_second: f64_field(rates, "jobs_per_second")?,
            cache_hit_rate: f64_field(rates, "cache_hit_rate")?,
            queue_depth_trend: f64_field(rates, "queue_depth_trend")?,
        },
    })
}

fn parse_event(value: &Json) -> Result<EventBody, ProtoError> {
    let level_text = str_field(value, "level")?;
    let level =
        Level::parse(&level_text).ok_or_else(|| shape(format!("unknown level `{level_text}`")))?;
    let fields = match value.get("fields") {
        None => Vec::new(),
        Some(x) => x
            .as_obj()
            .ok_or_else(|| shape("field `fields` must be an object"))?
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or_else(|| shape("event fields must be strings"))
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    Ok(EventBody {
        seq: u64_field(value, "seq")?,
        age_seconds: f64_field(value, "age_seconds")?,
        level,
        subsystem: str_field(value, "subsystem")?,
        message: str_field(value, "message")?,
        fields,
    })
}

/// Parses one span-tree node. Recursion is bounded by the JSON parser's
/// depth limit, which already rejected pathologically nested frames.
fn parse_span(value: &Json) -> Result<SpanNode, ProtoError> {
    let notes = match value.get("notes") {
        None => Vec::new(),
        Some(x) => x
            .as_obj()
            .ok_or_else(|| shape("field `notes` must be an object"))?
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or_else(|| shape("span notes must be strings"))
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    let children = match value.get("children") {
        None => Vec::new(),
        Some(x) => x
            .as_arr()
            .ok_or_else(|| shape("field `children` must be an array"))?
            .iter()
            .map(parse_span)
            .collect::<Result<Vec<_>, _>>()?,
    };
    Ok(SpanNode {
        name: str_field(value, "name")?,
        start_ns: u64_field(value, "start_ns")?,
        end_ns: u64_field(value, "end_ns")?,
        notes,
        children,
    })
}

/// Parses one response frame.
///
/// # Errors
///
/// A typed [`ProtoError`], mirroring [`parse_request`]; arbitrary input
/// never panics.
pub fn parse_response(line: &str) -> Result<Response, ProtoError> {
    let value = decode_frame(line)?;
    let op = str_field(&value, "op")?;
    match op.as_str() {
        "submitted" => Ok(Response::Submitted {
            id: u64_field(&value, "id")?,
        }),
        "pending" => Ok(Response::Pending {
            id: u64_field(&value, "id")?,
            running: bool_field(&value, "running")?,
        }),
        "done" => Ok(Response::Done {
            id: u64_field(&value, "id")?,
            summary: parse_summary(field(&value, "summary")?)?,
        }),
        "failed" => Ok(Response::Failed {
            id: u64_field(&value, "id")?,
            message: str_field(&value, "message")?,
        }),
        "stats" => Ok(Response::Stats(parse_stats(&value)?)),
        "metrics" => Ok(Response::Metrics(MetricsBody {
            stats: parse_stats(field(&value, "stats")?)?,
            queue_p50: f64_field(&value, "queue_p50")?,
            queue_p90: f64_field(&value, "queue_p90")?,
            queue_p99: f64_field(&value, "queue_p99")?,
            queue_max: f64_field(&value, "queue_max")?,
            queue_samples: u64_field(&value, "queue_samples")?,
            passes: parse_passes(&value)?,
            uptime_seconds: opt_f64_field(&value, "uptime_seconds")?,
            jobs_inflight: opt_u64_field(&value, "jobs_inflight")?,
            events_dropped: opt_u64_field(&value, "events_dropped")?,
            trace_drops: opt_u64_field(&value, "trace_drops")?,
        })),
        "metrics-history" => Ok(Response::MetricsHistory(HistoryBody {
            sample_seconds: f64_field(&value, "sample_seconds")?,
            series: field(&value, "series")?
                .as_arr()
                .ok_or_else(|| shape("field `series` must be an array"))?
                .iter()
                .map(parse_series)
                .collect::<Result<Vec<_>, _>>()?,
        })),
        "events" => Ok(Response::Events(EventsBody {
            dropped: u64_field(&value, "dropped")?,
            events: field(&value, "events")?
                .as_arr()
                .ok_or_else(|| shape("field `events` must be an array"))?
                .iter()
                .map(parse_event)
                .collect::<Result<Vec<_>, _>>()?,
        })),
        "trace" => Ok(Response::Trace {
            id: u64_field(&value, "id")?,
            trace_id: str_field(&value, "trace_id")?,
            root: parse_span(field(&value, "root")?)?,
        }),
        "shutting-down" => Ok(Response::ShuttingDown {
            pending: u64_field(&value, "pending")?,
        }),
        "error" => {
            let code_text = str_field(&value, "code")?;
            let code = ErrorCode::from_wire(&code_text)
                .ok_or_else(|| shape(format!("unknown error code `{code_text}`")))?;
            Ok(Response::Error {
                code,
                message: str_field(&value, "message")?,
            })
        }
        other => Err(shape(format!("unknown response op `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn demo_summary() -> Summary {
        Summary {
            swaps: 12,
            depth: 140,
            qops: 512,
            initial_layout: vec![3, 1, 2, 0],
            final_layout: vec![0, 1, 2, 3],
            fingerprint: "00ff13de00ff13de".to_string(),
            pipeline: "weights → identity → qlosure".to_string(),
            pass_seconds: vec![
                ("analysis:weights".to_string(), 0.125),
                ("routing:qlosure".to_string(), 0.5),
            ],
            seconds: 0.625,
            queue_seconds: 0.0625,
            seq: 7,
            verified: true,
            success_ppm: Some(912_345),
        }
    }

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Submit {
                backend: "aspen16".to_string(),
                mapper: "qlosure".to_string(),
                qasm: "OPENQASM 2.0;\nqreg q[3];\ncx q[0], q[2];\n".to_string(),
                priority: Priority::Interactive,
                fidelity: true,
                strategy: Strategy::Flat,
                trace: false,
            },
            Request::Submit {
                backend: "line:5".to_string(),
                mapper: "sabre".to_string(),
                qasm: "// tricky \"chars\" \\ in comments\n".to_string(),
                priority: Priority::Batch,
                fidelity: false,
                strategy: Strategy::Hier,
                trace: true,
            },
            Request::Submit {
                backend: "grid:64x64".to_string(),
                mapper: "qlosure".to_string(),
                qasm: String::new(),
                priority: Priority::Batch,
                fidelity: false,
                strategy: Strategy::Auto,
                trace: false,
            },
            Request::Poll { id: 0 },
            Request::Poll {
                id: u64::from(u32::MAX),
            },
            Request::Wait {
                id: 3,
                timeout_ms: 0,
            },
            Request::Wait {
                id: 4,
                timeout_ms: 2_500,
            },
            Request::Wait {
                id: 5,
                timeout_ms: u64::MAX,
            },
            Request::Trace { id: 9 },
            Request::Stats,
            Request::Metrics,
            Request::MetricsHistory,
            Request::Events {
                min_level: Level::Debug,
                after_seq: 0,
            },
            Request::Events {
                min_level: Level::Warn,
                after_seq: 512,
            },
            Request::Shutdown,
        ]
    }

    pub(crate) fn demo_span_tree() -> SpanNode {
        SpanNode {
            name: "job".to_string(),
            start_ns: 0,
            end_ns: 2_000_000,
            notes: vec![("mapper".to_string(), "qlosure".to_string())],
            children: vec![
                SpanNode {
                    name: "intake:queue-wait".to_string(),
                    start_ns: 0,
                    end_ns: 500_000,
                    notes: Vec::new(),
                    children: Vec::new(),
                },
                SpanNode {
                    name: "routing:hier-route".to_string(),
                    start_ns: 500_000,
                    end_ns: 1_900_000,
                    notes: Vec::new(),
                    children: vec![SpanNode {
                        name: "hier:fragment".to_string(),
                        start_ns: 600_000,
                        end_ns: 900_000,
                        notes: vec![("plan_tier".to_string(), "canonical".to_string())],
                        children: Vec::new(),
                    }],
                },
            ],
        }
    }

    pub(crate) fn demo_metrics() -> MetricsBody {
        MetricsBody {
            stats: StatsBody {
                protocol: PROTOCOL_VERSION,
                workers: 4,
                queue_depth: 1,
                submitted: 42,
                completed: 40,
                rejected: 1,
                failed: 1,
                distance_hits: 38,
                distance_misses: 2,
                closure_hits: 12,
                closure_misses: 3,
                weighted_hits: 0,
                weighted_misses: 0,
                subroute_hits: 7,
                subroute_misses: 1,
                plan_exact_hits: 5,
                plan_canonical_hits: 2,
                plan_disk_hits: 3,
                plan_disk_writes: 1,
            },
            queue_p50: 0.0009765625,
            queue_p90: 0.015625,
            queue_p99: 0.25,
            queue_max: 0.5,
            queue_samples: 40,
            passes: vec![
                ("analysis:weights".to_string(), 40, 0.125),
                ("routing:qlosure".to_string(), 40, 2.5),
            ],
            uptime_seconds: 3600.5,
            jobs_inflight: 3,
            events_dropped: 2,
            trace_drops: 5,
        }
    }

    pub(crate) fn demo_history() -> HistoryBody {
        let early = SampleBody::from_metrics(10, &demo_metrics());
        let late = SampleBody {
            index: 11,
            uptime_seconds: 3610.5,
            completed: 60,
            distance_hits: 58,
            queue_depth: 4,
            ..early.clone()
        };
        let samples = vec![early, late];
        let rates = RatesBody::over(&samples);
        HistoryBody {
            sample_seconds: 10.0,
            series: vec![SeriesBody {
                shard: 0,
                samples,
                rates,
            }],
        }
    }

    pub(crate) fn demo_events() -> EventsBody {
        EventsBody {
            dropped: 7,
            events: vec![
                EventBody {
                    seq: 41,
                    age_seconds: 12.5,
                    level: Level::Warn,
                    subsystem: "plan-store".to_string(),
                    message: "truncated tail record".to_string(),
                    fields: vec![("offset".to_string(), "4096".to_string())],
                },
                EventBody {
                    seq: 42,
                    age_seconds: 1.25,
                    level: Level::Info,
                    subsystem: "net".to_string(),
                    message: "idle connection disconnected".to_string(),
                    fields: Vec::new(),
                },
            ],
        }
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Submitted { id: 9 },
            Response::Pending {
                id: 9,
                running: true,
            },
            Response::Pending {
                id: 10,
                running: false,
            },
            Response::Done {
                id: 9,
                summary: demo_summary(),
            },
            Response::Done {
                id: 11,
                summary: Summary {
                    success_ppm: None,
                    pass_seconds: Vec::new(),
                    pipeline: String::new(),
                    ..demo_summary()
                },
            },
            Response::Failed {
                id: 4,
                message: "router exceeded the swap bound".to_string(),
            },
            Response::Stats(StatsBody {
                protocol: PROTOCOL_VERSION,
                workers: 8,
                queue_depth: 3,
                submitted: 100,
                completed: 90,
                rejected: 5,
                failed: 2,
                distance_hits: 1234,
                distance_misses: 7,
                closure_hits: 55,
                closure_misses: 11,
                weighted_hits: 21,
                weighted_misses: 2,
                subroute_hits: 99,
                subroute_misses: 13,
                plan_exact_hits: 64,
                plan_canonical_hits: 35,
                plan_disk_hits: 8,
                plan_disk_writes: 13,
            }),
            Response::Metrics(demo_metrics()),
            Response::Metrics(MetricsBody {
                queue_samples: 0,
                passes: Vec::new(),
                ..demo_metrics()
            }),
            Response::MetricsHistory(demo_history()),
            Response::MetricsHistory(HistoryBody {
                sample_seconds: 10.0,
                series: Vec::new(),
            }),
            Response::Events(demo_events()),
            Response::Events(EventsBody {
                dropped: 0,
                events: Vec::new(),
            }),
            Response::Trace {
                id: 9,
                trace_id: "00ff13de00ff13de".to_string(),
                root: demo_span_tree(),
            },
            Response::Trace {
                id: 10,
                trace_id: "0000000000000001".to_string(),
                root: SpanNode {
                    notes: Vec::new(),
                    children: Vec::new(),
                    ..demo_span_tree()
                },
            },
            Response::ShuttingDown { pending: 2 },
            Response::Error {
                code: ErrorCode::UnknownBackend,
                message: "no backend `eagle`".to_string(),
            },
            Response::Error {
                code: ErrorCode::Busy,
                message: "connection limit reached".to_string(),
            },
            Response::Error {
                code: ErrorCode::ShardUnavailable,
                message: "shard 1 (tcp:10.0.0.2:7911) is unreachable".to_string(),
            },
        ]
    }

    #[test]
    fn every_request_round_trips() {
        for request in all_requests() {
            let line = encode_request(&request).unwrap();
            assert!(!line.contains('\n'), "one frame is one line: {line}");
            assert_eq!(parse_request(&line).unwrap(), request, "{line}");
        }
    }

    #[test]
    fn every_response_round_trips() {
        for response in all_responses() {
            let line = encode_response(&response).unwrap();
            assert!(!line.contains('\n'), "one frame is one line: {line}");
            assert_eq!(parse_response(&line).unwrap(), response, "{line}");
        }
    }

    #[test]
    fn non_finite_summary_is_a_typed_encode_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let response = Response::Done {
                id: 7,
                summary: Summary {
                    seconds: bad,
                    ..demo_summary()
                },
            };
            assert!(
                encode_response(&response).is_err(),
                "seconds = {bad:?} must not encode"
            );
        }
    }

    #[test]
    fn version_mismatch_is_typed() {
        let line = encode_request(&Request::Stats).unwrap().replace(
            &format!("\"v\":{PROTOCOL_VERSION}"),
            &format!("\"v\":{}", PROTOCOL_VERSION + 41),
        );
        let err = parse_request(&line).unwrap_err();
        assert_eq!(
            err,
            ProtoError::Version {
                got: PROTOCOL_VERSION + 41
            }
        );
        assert_eq!(err.code(), ErrorCode::VersionMismatch);
    }

    #[test]
    fn oversized_frames_are_rejected_before_parsing() {
        let line = format!(
            "{{\"v\":1,\"op\":\"submit\",\"qasm\":\"{}\"",
            "x".repeat(MAX_FRAME)
        );
        let err = parse_request(&line).unwrap_err();
        assert!(matches!(err, ProtoError::Oversized { len } if len > MAX_FRAME));
        assert_eq!(err.code(), ErrorCode::Oversized);
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        for (line, want_code) in [
            ("", ErrorCode::BadRequest),
            ("not json", ErrorCode::BadRequest),
            ("42", ErrorCode::BadRequest),
            ("{}", ErrorCode::BadRequest),
            ("{\"op\":\"stats\"}", ErrorCode::BadRequest), // missing v
            ("{\"v\":1}", ErrorCode::BadRequest),          // missing op
            ("{\"v\":1,\"op\":\"frobnicate\"}", ErrorCode::BadRequest),
            ("{\"v\":1,\"op\":\"poll\"}", ErrorCode::BadRequest), // missing id
            ("{\"v\":1,\"op\":\"poll\",\"id\":-1}", ErrorCode::BadRequest),
            (
                "{\"v\":1,\"op\":\"poll\",\"id\":1.5}",
                ErrorCode::BadRequest,
            ),
            ("{\"v\":2,\"op\":\"stats\"}", ErrorCode::VersionMismatch),
            ("{\"v\":\"1\",\"op\":\"stats\"}", ErrorCode::BadRequest),
            // RFC 8259: leading zeros are not JSON numbers.
            ("{\"v\":01,\"op\":\"stats\"}", ErrorCode::BadRequest),
            (
                "{\"v\":1,\"op\":\"poll\",\"id\":0123}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"v\":1,\"op\":\"poll\",\"id\":-007}",
                ErrorCode::BadRequest,
            ),
            // `wait` needs a non-negative integral `timeout_ms`.
            ("{\"v\":1,\"op\":\"wait\",\"id\":1}", ErrorCode::BadRequest),
            (
                "{\"v\":1,\"op\":\"wait\",\"id\":1,\"timeout_ms\":\"50\"}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"v\":1,\"op\":\"wait\",\"id\":1,\"timeout_ms\":-1}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"v\":1,\"op\":\"wait\",\"id\":1,\"timeout_ms\":0.5}",
                ErrorCode::BadRequest,
            ),
        ] {
            let err =
                parse_request(line).expect_err(&format!("`{line}` must not parse as a request"));
            assert_eq!(err.code(), want_code, "line: {line}");
            let err =
                parse_response(line).expect_err(&format!("`{line}` must not parse as a response"));
            assert_eq!(err.code(), want_code, "line: {line}");
        }
        // A submit with an unknown priority is a shape error.
        let line = "{\"v\":1,\"op\":\"submit\",\"backend\":\"b\",\"mapper\":\"m\",\
                    \"qasm\":\"\",\"priority\":\"urgent\",\"fidelity\":false}";
        assert_eq!(
            parse_request(line).unwrap_err().code(),
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn truncated_frames_never_panic() {
        for message in all_requests().iter().map(|r| encode_request(r).unwrap()) {
            for cut in 0..message.len() {
                if message.is_char_boundary(cut) {
                    let _ = parse_request(&message[..cut]);
                }
            }
        }
        for message in all_responses().iter().map(|r| encode_response(r).unwrap()) {
            // Responses are long; probe a sample of prefixes.
            for cut in (0..message.len()).step_by(7) {
                if message.is_char_boundary(cut) {
                    let _ = parse_response(&message[..cut]);
                }
            }
        }
    }

    #[test]
    fn error_codes_round_trip_their_spelling() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::VersionMismatch,
            ErrorCode::Oversized,
            ErrorCode::UnknownBackend,
            ErrorCode::UnknownMapper,
            ErrorCode::QasmError,
            ErrorCode::DeviceTooSmall,
            ErrorCode::QueueFull,
            ErrorCode::UnknownId,
            ErrorCode::ShuttingDown,
            ErrorCode::MappingFailed,
            ErrorCode::Busy,
            ErrorCode::ShardUnavailable,
        ] {
            assert_eq!(ErrorCode::from_wire(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::from_wire("no-such-code"), None);
        assert_eq!(
            Priority::from_wire("interactive"),
            Some(Priority::Interactive)
        );
        assert_eq!(Priority::from_wire("batch"), Some(Priority::Batch));
        assert_eq!(Priority::from_wire("urgent"), None);
        for strategy in [Strategy::Flat, Strategy::Hier, Strategy::Auto] {
            assert_eq!(Strategy::from_wire(strategy.as_str()), Some(strategy));
        }
        assert_eq!(Strategy::from_wire("quantum"), None);
    }

    #[test]
    fn submit_without_strategy_defaults_to_flat() {
        // Pre-strategy clients omit the field entirely: still parses,
        // defaulting to the flat architecture (additive-field rule).
        let line = "{\"v\":1,\"op\":\"submit\",\"backend\":\"aspen16\",\"mapper\":\"qlosure\",\
                    \"qasm\":\"\",\"priority\":\"batch\",\"fidelity\":false}";
        match parse_request(line).unwrap() {
            Request::Submit { strategy, .. } => assert_eq!(strategy, Strategy::Flat),
            other => panic!("unexpected request {other:?}"),
        }
        // An unknown strategy is a typed shape error, not a panic.
        let bad = "{\"v\":1,\"op\":\"submit\",\"backend\":\"b\",\"mapper\":\"m\",\"qasm\":\"\",\
                   \"priority\":\"batch\",\"fidelity\":false,\"strategy\":\"quantum\"}";
        assert_eq!(
            parse_request(bad).unwrap_err().code(),
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn submit_without_trace_defaults_to_off_and_trace_op_round_trips() {
        // Pre-trace clients omit the field entirely: still parses,
        // defaulting to no retention (additive-field rule).
        let line = "{\"v\":1,\"op\":\"submit\",\"backend\":\"aspen16\",\"mapper\":\"qlosure\",\
                    \"qasm\":\"\",\"priority\":\"batch\",\"fidelity\":false}";
        match parse_request(line).unwrap() {
            Request::Submit { trace, .. } => assert!(!trace),
            other => panic!("unexpected request {other:?}"),
        }
        // A non-boolean trace flag is a typed shape error.
        let bad = "{\"v\":1,\"op\":\"submit\",\"backend\":\"b\",\"mapper\":\"m\",\"qasm\":\"\",\
                   \"priority\":\"batch\",\"fidelity\":false,\"trace\":\"yes\"}";
        assert_eq!(
            parse_request(bad).unwrap_err().code(),
            ErrorCode::BadRequest
        );
        // An untraced submit never carries the field on the wire, so old
        // daemons never see it.
        let untraced = encode_request(&all_requests()[0]).unwrap();
        assert!(!untraced.contains("\"trace\""), "{untraced}");
        // Garbage span trees are typed errors, not panics.
        for bad in [
            "{\"v\":1,\"op\":\"trace\",\"id\":1}",
            "{\"v\":1,\"op\":\"trace\",\"id\":1,\"trace_id\":\"x\",\"root\":7}",
            "{\"v\":1,\"op\":\"trace\",\"id\":1,\"trace_id\":\"x\",\
             \"root\":{\"name\":\"j\",\"start_ns\":0,\"end_ns\":1,\"children\":{}}}",
            "{\"v\":1,\"op\":\"trace\",\"id\":1,\"trace_id\":\"x\",\
             \"root\":{\"name\":\"j\",\"start_ns\":0,\"end_ns\":1,\"notes\":{\"k\":1}}}",
        ] {
            assert_eq!(
                parse_response(bad).unwrap_err().code(),
                ErrorCode::BadRequest,
                "{bad}"
            );
        }
    }

    #[test]
    fn overflowing_sink_keeps_the_root_and_its_tree() {
        let tracer = trace::Tracer::new(5, 3);
        for i in 0..5 {
            tracer.record_root_child(&format!("s{i}"), i, i + 1, Vec::new());
        }
        tracer.finish_root("job", 0, 10, Vec::new());
        let spans = tracer.snapshot();
        assert!(spans.iter().any(|s| s.id == trace::ROOT_SPAN));
        let tree = SpanNode::from_spans(&spans).expect("the root survives a full sink");
        assert_eq!(tree.children.len(), 3);
        assert_eq!(tracer.dropped(), 2, "children past the bound are dropped");
    }

    #[test]
    fn span_trees_assemble_render_and_rebase() {
        let spans = vec![
            trace::Span {
                id: trace::ROOT_SPAN,
                parent: 0,
                name: "job".to_string(),
                start_ns: 1_000,
                end_ns: 5_000,
                notes: Vec::new(),
            },
            trace::Span {
                id: 2,
                parent: trace::ROOT_SPAN,
                name: "intake:queue-wait".to_string(),
                start_ns: 1_000,
                end_ns: 2_000,
                notes: Vec::new(),
            },
            trace::Span {
                id: 3,
                parent: 2,
                name: "inner".to_string(),
                start_ns: 1_200,
                end_ns: 1_800,
                notes: vec![("plan_tier".to_string(), "exact".to_string())],
            },
            // An orphan (its parent was dropped by the bounded sink):
            // re-attached to the root instead of vanishing.
            trace::Span {
                id: 9,
                parent: 700,
                name: "orphan".to_string(),
                start_ns: 4_000,
                end_ns: 4_500,
                notes: Vec::new(),
            },
        ];
        let tree = SpanNode::from_spans(&spans).unwrap();
        assert_eq!(tree.name, "job");
        assert_eq!((tree.start_ns, tree.end_ns), (0, 4_000), "rebased to 0");
        assert_eq!(tree.children.len(), 2);
        assert_eq!(tree.children[0].name, "intake:queue-wait");
        assert_eq!(tree.children[0].children[0].name, "inner");
        assert_eq!(tree.children[1].name, "orphan");
        // No root span recorded → no tree.
        assert_eq!(SpanNode::from_spans(&spans[1..]), None);
        let text = tree.render_tree();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("0.004ms job"), "{text}");
        assert!(lines[1].starts_with("  "), "children indent: {text}");
        assert!(text.contains("plan_tier=exact"), "{text}");
        let chrome = demo_span_tree().render_chrome();
        let events = json::parse(&chrome).unwrap();
        let events = events.as_arr().unwrap();
        assert_eq!(events.len(), 4, "one complete event per span");
        for event in events {
            assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
            assert!(event.get("ts").and_then(Json::as_f64).is_some());
            assert!(event.get("dur").and_then(Json::as_f64).is_some());
        }
        // Microsecond conversion: the fragment span starts at 600µs.
        assert!(chrome.contains("\"ts\":600"), "{chrome}");
    }

    #[test]
    fn metrics_without_gauge_extension_fields_parses_as_zero() {
        // A metrics frame from a daemon predating the uptime/inflight
        // gauges (additive fields) decodes with zeros.
        let mut old = encode_response(&Response::Metrics(demo_metrics())).unwrap();
        old = old
            .replace(",\"uptime_seconds\":3600.5", "")
            .replace(",\"jobs_inflight\":3", "");
        match parse_response(&old).unwrap() {
            Response::Metrics(m) => {
                assert_eq!(m.uptime_seconds, 0.0);
                assert_eq!(m.jobs_inflight, 0);
                assert_eq!(m.stats.completed, 40, "older fields untouched");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn metrics_without_drop_counter_fields_parses_as_zero() {
        // A metrics frame from a daemon predating the drop counters
        // (additive fields) decodes with zeros.
        let mut old = encode_response(&Response::Metrics(demo_metrics())).unwrap();
        old = old
            .replace(",\"events_dropped\":2", "")
            .replace(",\"trace_drops\":5", "");
        match parse_response(&old).unwrap() {
            Response::Metrics(m) => {
                assert_eq!(m.events_dropped, 0);
                assert_eq!(m.trace_drops, 0);
                assert_eq!(m.uptime_seconds, 3600.5, "older fields untouched");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn bare_events_request_defaults_to_everything() {
        // Both request fields are optional: a bare `events` frame asks
        // for the whole retained window at any level.
        match parse_request("{\"v\":1,\"op\":\"events\"}").unwrap() {
            Request::Events {
                min_level,
                after_seq,
            } => {
                assert_eq!(min_level, Level::Debug);
                assert_eq!(after_seq, 0);
            }
            other => panic!("unexpected request {other:?}"),
        }
        // An unknown level is a typed shape error.
        let bad = "{\"v\":1,\"op\":\"events\",\"min_level\":\"fatal\"}";
        assert_eq!(
            parse_request(bad).unwrap_err().code(),
            ErrorCode::BadRequest
        );
        // `metrics-history` is a bare op, like `metrics`.
        assert_eq!(
            parse_request("{\"v\":1,\"op\":\"metrics-history\"}").unwrap(),
            Request::MetricsHistory
        );
    }

    #[test]
    fn history_samples_without_drop_counters_parse_as_zero_and_rates_are_total() {
        // A sample row from a process predating the drop counters still
        // parses (additive-field rule inside the array elements).
        let mut old = encode_response(&Response::MetricsHistory(demo_history())).unwrap();
        old = old
            .replace(",\"events_dropped\":2", "")
            .replace(",\"trace_drops\":5", "");
        match parse_response(&old).unwrap() {
            Response::MetricsHistory(h) => {
                assert_eq!(h.series[0].samples[0].events_dropped, 0);
                assert_eq!(h.series[0].samples[0].trace_drops, 0);
                assert_eq!(h.series[0].samples[0].completed, 40);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Rate computation is total: degenerate windows yield zeros (the
        // encoder would reject NaN), real windows differentiate.
        assert_eq!(RatesBody::over(&[]).jobs_per_second, 0.0);
        let one = SampleBody::from_metrics(0, &demo_metrics());
        assert_eq!(RatesBody::over(&[one.clone(), one]).jobs_per_second, 0.0);
        let rates = demo_history().series[0].rates.clone();
        assert!((rates.window_seconds - 10.0).abs() < 1e-9);
        assert!((rates.jobs_per_second - 2.0).abs() < 1e-9, "{rates:?}");
        assert!(rates.cache_hit_rate > 0.0 && rates.cache_hit_rate <= 1.0);
        assert!((rates.queue_depth_trend - 3.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_render_is_flat_scrapeable_text() {
        let text = demo_metrics().render();
        for needle in [
            "qlosure_jobs_completed_total 40",
            "qlosure_uptime_seconds 3600.5",
            "qlosure_jobs_inflight 3",
            "qlosure_cache_hits_total{cache=\"distance\"} 38",
            "qlosure_cache_misses_total{cache=\"subroute\"} 1",
            "qlosure_queue_seconds{quantile=\"0.5\"} 0.0009765625",
            "qlosure_queue_seconds{quantile=\"0.99\"} 0.25",
            "qlosure_queue_seconds_max 0.5",
            "qlosure_queue_seconds_count 40",
            "qlosure_pass_runs_total{pass=\"routing:qlosure\"} 40",
            "qlosure_pass_seconds_total{pass=\"analysis:weights\"} 0.125",
            "qlosure_plan_hits_total{tier=\"exact\"} 5",
            "qlosure_plan_hits_total{tier=\"canonical\"} 2",
            "qlosure_plan_hits_total{tier=\"disk\"} 3",
            "qlosure_plan_disk_writes_total 1",
            "qlosure_events_dropped_total 2",
            "qlosure_trace_drops_total 5",
            "# HELP qlosure_jobs_completed_total ",
            "# TYPE qlosure_jobs_completed_total counter",
            "# TYPE qlosure_queue_depth gauge",
            "# TYPE qlosure_queue_seconds summary",
            "# TYPE qlosure_pass_seconds_total counter",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        // Every sample line is `name value` or `name{labels} value` — one
        // space, no JSON punctuation a line-oriented scraper would choke
        // on. `#` lines are scraper comments (HELP/TYPE metadata).
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("name value pairs");
            assert!(!name.is_empty() && value.parse::<f64>().is_ok(), "{line}");
        }
        // Pass lines come out sorted by label even if the body was not.
        let shuffled = MetricsBody {
            passes: vec![
                ("routing:qlosure".to_string(), 40, 2.5),
                ("analysis:weights".to_string(), 40, 0.125),
            ],
            ..demo_metrics()
        };
        let text = shuffled.render();
        let weights = text.find("qlosure_pass_runs_total{pass=\"analysis:weights\"}");
        let routing = text.find("qlosure_pass_runs_total{pass=\"routing:qlosure\"}");
        assert!(weights.unwrap() < routing.unwrap(), "{text}");
        // Pass labels with quotes/backslashes are escaped.
        let tricky = MetricsBody {
            passes: vec![("post:\"odd\\label\"".to_string(), 1, 0.5)],
            ..demo_metrics()
        };
        assert!(tricky
            .render()
            .contains("qlosure_pass_runs_total{pass=\"post:\\\"odd\\\\label\\\"\"} 1"));
    }

    #[test]
    fn stats_without_cache_extension_fields_parses_as_zero() {
        // A stats frame from a daemon predating the weighted/subroute
        // counters (additive fields) decodes with zeros.
        let line = "{\"v\":1,\"op\":\"stats\",\"protocol\":1,\"workers\":2,\"queue_depth\":0,\
                    \"submitted\":5,\"completed\":5,\"rejected\":0,\"failed\":0,\
                    \"distance_hits\":9,\"distance_misses\":1,\"closure_hits\":0,\
                    \"closure_misses\":0}";
        match parse_response(line).unwrap() {
            Response::Stats(stats) => {
                assert_eq!(stats.weighted_hits, 0);
                assert_eq!(stats.subroute_misses, 0);
                assert_eq!(stats.plan_exact_hits, 0);
                assert_eq!(stats.plan_canonical_hits, 0);
                assert_eq!(stats.plan_disk_hits, 0);
                assert_eq!(stats.plan_disk_writes, 0);
                assert_eq!(stats.distance_hits, 9);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
}
