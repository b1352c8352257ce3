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
//!
//! Each body and each request/response variant is declared once, as a
//! field table: the table is the struct, its encoder and its decoder.
//! Fields appear on the wire in table order, and each names its presence
//! policy: `req` fields must be present, `opt` fields decode to their
//! default when absent, and `omit` fields are also left off the wire
//! while they hold it. An additive field is therefore one `opt` or
//! `omit` line, and frames from peers that predate it still decode.

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

// ---------------------------------------------------------------------------
// Field tables
// ---------------------------------------------------------------------------

/// Implements [`Wire`] for scalars: `|x| JSON` spells the value, `|v|
/// Option` reads it back, and the last part says what a field holding
/// anything else must be.
macro_rules! wire_scalar {
    ($($ty:ty: |$x:ident| $to:expr, |$v:ident| $from:expr, $what:expr;)*) => {$(
        impl Wire for $ty {
            fn to_json(&self) -> Json {
                let $x = self;
                $to
            }

            fn from_json(value: &Json, name: &str) -> Result<$ty, ProtoError> {
                let $v = value;
                $from.ok_or_else(|| expected(name, $what))
            }
        }
    )*};
}

/// Declares a string enum with one wire spelling per variant, plus its
/// `as_str`/`from_wire` pair and its [`Wire`] impl.
macro_rules! wire_enum {
    ($(#[$meta:meta])* pub enum $name:ident {
        $($(#[$vmeta:meta])* $variant:ident = $wire:literal,)*
    }) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $variant,)*
        }

        impl $name {
            /// The wire spelling.
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$variant => $wire,)*
                }
            }

            /// Parses the wire spelling.
            pub fn from_wire(s: &str) -> Option<$name> {
                match s {
                    $($wire => Some($name::$variant),)*
                    _ => None,
                }
            }
        }

        wire_scalar! {
            $name: |x| Json::Str(x.as_str().to_string()),
                |v| v.as_str().and_then($name::from_wire), concat!("one of", $(" `", $wire, "`",)*);
        }
    };
}

/// Declares a wire body: a struct whose fields are listed once, in wire
/// order, each as `policy name: Type` (optionally `as Codec` for a field
/// with its own spelling). The body encodes as a JSON object, so it nests
/// in other bodies, and a frame can also flatten its members.
macro_rules! wire_body {
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$fmeta:meta])* $policy:ident $field:ident: $ty:ty $(as $via:ty)?,)*
    }) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $name {
            fn put_members(&self, members: &mut Vec<(String, Json)>) {
                $(put!($policy, members, $field, &self.$field, $ty $(, $via)?);)*
            }

            fn take_members(value: &Json) -> Result<$name, ProtoError> {
                Ok($name {
                    $($field: take!($policy, value, $field, $ty $(, $via)?),)*
                })
            }
        }

        impl Wire for $name {
            fn to_json(&self) -> Json {
                let mut members = Vec::new();
                self.put_members(&mut members);
                Json::Obj(members)
            }

            fn from_json(value: &Json, name: &str) -> Result<$name, ProtoError> {
                value.as_obj().ok_or_else(|| expected(name, "an object"))?;
                $name::take_members(value)
            }
        }
    };
}

/// Declares a frame enum: one `op` per variant, followed on the wire by
/// the variant's fields (a table, as in [`wire_body!`]) or by the members
/// of the body it wraps, flattened into the frame.
macro_rules! wire_frames {
    ($(#[$meta:meta])* pub enum $name:ident ($what:literal) {
        $($(#[$vmeta:meta])* $variant:ident $(($bind:ident: $body:ty))? = $op:literal $({
            $($(#[$fmeta:meta])* $policy:ident $field:ident: $ty:ty $(as $via:ty)?,)*
        })?,)*
    }) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $variant $(($body))? $({ $($(#[$fmeta])* $field: $ty,)* })?,)*
        }

        impl $name {
            fn to_frame(&self) -> Json {
                let mut members = vec![("v".to_string(), PROTOCOL_VERSION.to_json())];
                match self {
                    $($name::$variant $(($bind))? $({ $($field),* })? => {
                        members.push(("op".to_string(), Json::Str($op.to_string())));
                        $($bind.put_members(&mut members);)?
                        $($(put!($policy, members, $field, $field, $ty $(, $via)?);)*)?
                    })*
                }
                Json::Obj(members)
            }

            fn from_frame(value: &Json) -> Result<$name, ProtoError> {
                let op = req(value, "op", String::from_json)?;
                Ok(match op.as_str() {
                    $($op => $name::$variant $((<$body>::take_members(value)?))? $({
                        $($field: take!($policy, value, $field, $ty $(, $via)?),)*
                    })?,)*
                    other => return Err(shape(format!("unknown {} op `{other}`", $what))),
                })
            }
        }
    };
}

/// Encodes one table field into `members` by its policy (`take!` rejects
/// any policy but `req`, `opt` and `omit`).
macro_rules! put {
    (omit, $members:ident, $field:ident, $value:expr, $ty:ty $(, $via:ty)?) => {
        if *$value != <$ty>::default() {
            put!(opt, $members, $field, $value, $ty $(, $via)?);
        }
    };
    ($policy:ident, $members:ident, $field:ident, $value:expr, $ty:ty $(, $via:ty)?) => {
        $members.push((
            stringify!($field).to_string(),
            <codec!($ty $(, $via)?)>::to_json($value),
        ))
    };
}

/// Decodes one table field from an object by its policy.
macro_rules! take {
    (req, $value:expr, $field:ident, $ty:ty $(, $via:ty)?) => {
        req($value, stringify!($field), <codec!($ty $(, $via)?)>::from_json)?
    };
    (opt, $value:expr, $field:ident, $ty:ty $(, $via:ty)?) => {
        opt($value, stringify!($field), <codec!($ty $(, $via)?)>::from_json)?
    };
    (omit, $value:expr, $field:ident, $ty:ty $(, $via:ty)?) => {
        take!(opt, $value, $field, $ty $(, $via)?)
    };
}

/// The type whose `to_json`/`from_json` spell a field: its own, or the
/// `as` codec.
macro_rules! codec {
    ($ty:ty) => {
        $ty
    };
    ($ty:ty, $via:ty) => {
        $via
    };
}

wire_enum! {
    /// Scheduling class of a submission: interactive jobs overtake batch jobs
    /// in the admission queue.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Priority {
        /// Latency-sensitive; drained before any queued batch work.
        Interactive = "interactive",
        /// Throughput work; drained FIFO after interactive work.
        Batch = "batch",
    }
}

wire_enum! {
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
        Flat = "flat",
        /// Run the hierarchical partitioned mapper (`qlosure-hier`).
        Hier = "hier",
        /// Pick `Hier` for large devices, the named mapper otherwise.
        Auto = "auto",
    }
}

wire_frames! {
    /// A client→daemon frame.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Request ("request") {
        /// Submit one mapping job.
        Submit = "submit" {
            /// Device name, resolved via `topology::backends::by_name`.
            req backend: String,
            /// Mapper name (`qlosure` or any baseline).
            req mapper: String,
            /// Inline OpenQASM 2.0 source.
            req qasm: String,
            /// Scheduling class.
            req priority: Priority,
            /// Opt-in: also estimate the routed circuit's success probability
            /// under a synthetic calibration (reported as `success_ppm`).
            req fidelity: bool,
            /// Mapping architecture selection (additive; absent on the wire
            /// means [`Strategy::Flat`]).
            opt strategy: Strategy,
            /// Opt-in: retain the job's span tree for a later `trace`
            /// request (additive; absent on the wire means `false`, and an
            /// untraced submit leaves it off so old daemons never see it).
            omit trace: bool,
        },
        /// Ask for the state/result of a submitted job.
        Poll = "poll" {
            /// The ID returned by the submit response.
            req id: u64,
        },
        /// Wait for a submitted job to finish, then answer exactly like
        /// [`Request::Poll`] (additive op, like [`Request::Metrics`]). The
        /// daemon parks the connection until the job finishes or `timeout_ms`
        /// elapses, whichever is first, capped at its per-connection idle
        /// deadline; a job still unfinished then answers `pending`.
        Wait = "wait" {
            /// The ID returned by the submit response.
            req id: u64,
            /// The longest the client will wait, in milliseconds. JSON numbers
            /// are doubles, so values past 2^53 lose precision on the wire;
            /// anything at or past 2^64 decodes as `u64::MAX`, which therefore
            /// round-trips exactly.
            req timeout_ms: u64 as Millis,
        },
        /// Ask for a completed job's span tree (additive op, like
        /// [`Request::Metrics`]): answered when the submit opted in with
        /// `trace: true` or the job exceeded the daemon's slow-job retention
        /// threshold, `unknown-id` otherwise.
        Trace = "trace" {
            /// The ID returned by the submit response.
            req id: u64,
        },
        /// Ask for daemon counters, including shared-cache hit/miss totals.
        Stats = "stats",
        /// Ask for the full observability export: counters plus queue-delay
        /// percentiles and per-pass timing aggregates ([`MetricsBody`]).
        /// Additive op (new daemons answer it, old daemons answer
        /// `bad-request`) — no version bump.
        Metrics = "metrics",
        /// Ask for the metrics time-series window: the sampler thread's
        /// retained [`MetricsBody`] snapshots plus rates computed over them
        /// ([`HistoryBody`]). Additive op, like [`Request::Metrics`].
        MetricsHistory = "metrics-history",
        /// Ask for the journal window: retained structured events at or
        /// above `min_level`, strictly after `after_seq` ([`EventsBody`]).
        /// Additive op, like [`Request::Metrics`]; a bare `events` frame
        /// asks for everything retained, at any level.
        Events = "events" {
            /// Minimum severity to include (absent on the wire decodes as
            /// `debug`, i.e. everything).
            opt min_level: Level,
            /// Only events with a strictly greater sequence number (absent
            /// on the wire decodes as 0 — the whole retained window).
            opt after_seq: u64,
        },
        /// Request graceful shutdown: intake closes, in-flight and queued
        /// jobs drain, then the daemon exits.
        Shutdown = "shutdown",
    }
}

wire_body! {
    /// The result summary of one completed mapping job.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct Summary {
        /// SWAPs inserted.
        req swaps: u64,
        /// Routed depth (unit-gate model).
        req depth: u64,
        /// Routed gate count.
        req qops: u64,
        /// Initial layout, `initial_layout[logical] = physical`.
        req initial_layout: Vec<u32>,
        /// Final layout after all SWAPs.
        req final_layout: Vec<u32>,
        /// FNV-1a fingerprint of the full mapping result (routed gates +
        /// layouts), as 16 lowercase hex digits — lets clients check
        /// bit-for-bit equivalence without shipping the routed circuit.
        req fingerprint: String,
        /// The pass composition that ran (empty for opaque mappers).
        req pipeline: String,
        /// Per-pass wall-clock timings (`stage:name`, seconds).
        req pass_seconds: Vec<(String, f64)>,
        /// Wall-clock mapping seconds (timing field).
        req seconds: f64,
        /// Seconds between admission and worker pickup (timing field).
        req queue_seconds: f64,
        /// Completion sequence number (0-based, daemon-wide): the order jobs
        /// finished in, which is how priority scheduling is observable.
        req seq: u64,
        /// Whether the independent routing verifier accepted the result
        /// (always `true` for a `done` response; failures use `failed`).
        req verified: bool,
        /// Estimated success probability in parts per million, when the
        /// request opted into fidelity estimation.
        omit success_ppm: Option<i64>,
    }
}

wire_body! {
    /// Daemon counters reported by [`Response::Stats`].
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct StatsBody {
        /// The daemon's protocol version.
        req protocol: u64,
        /// Mapping worker count.
        req workers: u64,
        /// Jobs currently waiting in the admission queue.
        req queue_depth: u64,
        /// Jobs accepted since startup.
        req submitted: u64,
        /// Jobs completed successfully since startup.
        req completed: u64,
        /// Jobs rejected at admission (queue full / shutting down).
        req rejected: u64,
        /// Jobs that failed while mapping.
        req failed: u64,
        /// Process-wide shared distance-cache hits (cross-request
        /// amortization counter).
        req distance_hits: u64,
        /// Process-wide shared distance-cache misses.
        req distance_misses: u64,
        /// Process-wide transitive-closure memo hits.
        req closure_hits: u64,
        /// Process-wide transitive-closure memo misses.
        req closure_misses: u64,
        /// Process-wide reliability-weighted distance-cache hits (additive
        /// field; absent on the wire decodes as 0).
        opt weighted_hits: u64,
        /// Process-wide reliability-weighted distance-cache misses.
        opt weighted_misses: u64,
        /// Process-wide hierarchical sub-routing fragment-memo hits.
        opt subroute_hits: u64,
        /// Process-wide hierarchical sub-routing fragment-memo misses.
        opt subroute_misses: u64,
        /// Plan-store hits where the fragment was byte-identical to one
        /// already cached (additive field; absent on the wire decodes as 0).
        opt plan_exact_hits: u64,
        /// Plan-store hits earned by canonicalization: a structurally
        /// isomorphic fragment under a different labeling shared the plan.
        opt plan_canonical_hits: u64,
        /// Plans loaded from the optional `--plan-store` disk tier.
        opt plan_disk_hits: u64,
        /// Plans persisted to the disk tier after a fresh compute.
        opt plan_disk_writes: u64,
    }
}

wire_body! {
    /// One node of a job's span tree, as carried by [`Response::Trace`].
    /// Timestamps are nanoseconds **relative to the root span's start**, so
    /// they stay far below 2^53 and trees from different processes (a
    /// router's wrapper around a shard's tree) compose without sharing a
    /// clock.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct SpanNode {
        /// Stage label, e.g. `routing:hier-route` or `intake:queue-wait`.
        req name: String,
        /// Start offset in nanoseconds from the root span's start.
        req start_ns: u64,
        /// End offset in nanoseconds from the root span's start.
        req end_ns: u64,
        /// Key/value annotations, e.g. `("plan_tier", "canonical")`.
        omit notes: Vec<(String, String)>,
        /// Child spans, ordered by start offset. Decoding recurses no
        /// deeper than the JSON parser's depth limit.
        omit children: Vec<SpanNode>,
    }
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
            let members = [
                ("name", Json::Str(node.name.clone())),
                ("ph", Json::Str("X".to_string())),
                ("ts", Json::Num(ts)),
                ("dur", Json::Num(dur)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(depth as f64 + 1.0)),
                ("args", node.notes.to_json()),
            ];
            out.push(Json::Obj(members.map(|(k, v)| (k.to_string(), v)).into()));
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

wire_body! {
    /// The full observability export reported by [`Response::Metrics`]: the
    /// counter block plus queue-delay percentiles and per-pass timing
    /// aggregates. [`MetricsBody::render`] flattens it into scraper-friendly
    /// text for `qlosure-cli metrics`.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct MetricsBody {
        /// The daemon counters (same block as [`Response::Stats`]), nested
        /// under `"stats"` on the wire.
        req stats: StatsBody,
        /// Median seconds between admission and worker pickup, over the
        /// retained sample window.
        req queue_p50: f64,
        /// 90th-percentile queue delay (seconds).
        req queue_p90: f64,
        /// 99th-percentile queue delay (seconds).
        req queue_p99: f64,
        /// Worst queue delay in the sample window (seconds).
        req queue_max: f64,
        /// How many completed jobs the percentiles were computed over.
        req queue_samples: u64,
        /// Seconds since the service started (additive field; absent on the
        /// wire decodes as 0).
        opt uptime_seconds: f64,
        /// Jobs admitted but not yet finished — queued plus in flight
        /// (additive field; absent on the wire decodes as 0).
        opt jobs_inflight: u64,
        /// Journal events evicted from the bounded event ring, process-wide
        /// (additive field; absent on the wire decodes as 0).
        opt events_dropped: u64,
        /// Spans dropped by full per-job trace sinks, process-wide (additive
        /// field; absent on the wire decodes as 0).
        opt trace_drops: u64,
        /// Per-pass timing aggregates as `(label, runs, total_seconds)`,
        /// sorted by label, on the wire as `{label: [runs, total]}`. Labels
        /// are pipeline pass labels (`stage:name`, e.g. `routing:qlosure`).
        req passes: Vec<(String, u64, f64)>,
    }
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

wire_body! {
    /// One point of the metrics time-series ring, carried by
    /// [`Response::MetricsHistory`]: the counters a dashboard differentiates
    /// into rates, snapshotted from a full [`MetricsBody`] by the daemon's
    /// sampler thread.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct SampleBody {
        /// Monotone sample index (daemon-local; survives ring eviction, so a
        /// poller can detect gaps).
        req index: u64,
        /// Uptime seconds at sample time — the series' time axis.
        req uptime_seconds: f64,
        /// Jobs accepted since startup.
        req submitted: u64,
        /// Jobs completed since startup.
        req completed: u64,
        /// Jobs failed since startup.
        req failed: u64,
        /// Jobs rejected at admission since startup.
        req rejected: u64,
        /// Admission-queue depth at sample time.
        req queue_depth: u64,
        /// Jobs admitted but not yet finished at sample time.
        req jobs_inflight: u64,
        /// 99th-percentile queue delay at sample time (seconds).
        req queue_p99: f64,
        /// Shared distance-cache hits since startup.
        req distance_hits: u64,
        /// Shared distance-cache misses since startup.
        req distance_misses: u64,
        /// Plan-store exact-tier hits since startup.
        req plan_exact_hits: u64,
        /// Plan-store canonical-tier hits since startup.
        req plan_canonical_hits: u64,
        /// Plan-store disk-tier hits since startup.
        req plan_disk_hits: u64,
        /// Sub-routing fragment-memo hits since startup.
        req subroute_hits: u64,
        /// Sub-routing fragment-memo misses since startup.
        req subroute_misses: u64,
        /// Journal events evicted from the bounded ring since startup
        /// (additive field; absent on the wire decodes as 0).
        opt events_dropped: u64,
        /// Spans dropped by full trace sinks since startup (additive field;
        /// absent on the wire decodes as 0).
        opt trace_drops: u64,
    }
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

wire_body! {
    /// Rates computed over one shard's retained sample window, carried by
    /// [`SeriesBody`]. All zeros when the window holds fewer than two
    /// samples (no interval to differentiate over).
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct RatesBody {
        /// Seconds between the oldest and newest retained sample.
        req window_seconds: f64,
        /// Completed jobs per second over the window.
        req jobs_per_second: f64,
        /// Cache hits ÷ cache probes over the window (distance +
        /// sub-routing), in `[0, 1]`; 0 when the window saw no probes.
        req cache_hit_rate: f64,
        /// Newest queue depth minus oldest (signed): positive means the
        /// backlog is growing.
        req queue_depth_trend: f64,
    }
}

impl RatesBody {
    /// Differentiates a sample window into rates. Total: degenerate
    /// windows (under two samples, zero elapsed time, counter resets)
    /// yield zeros, never NaN/infinity — the wire rejects non-finite
    /// numbers.
    #[must_use]
    pub fn over(samples: &[SampleBody]) -> RatesBody {
        let (Some(first), Some(last)) = (samples.first(), samples.last()) else {
            return RatesBody::default();
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

wire_body! {
    /// One shard's slice of a [`Response::MetricsHistory`]: its retained
    /// sample window plus the rates computed over it. A lone daemon reports
    /// exactly one series (shard 0); a router reports one per shard, with
    /// `shard` relabeled to the fleet index.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct SeriesBody {
        /// Fleet shard index (0 for an unfronted daemon).
        req shard: u64,
        /// The retained window, oldest first, aligned by `index`.
        req samples: Vec<SampleBody>,
        /// Rates over this window.
        req rates: RatesBody,
    }
}

wire_body! {
    /// The metrics time-series window carried by
    /// [`Response::MetricsHistory`].
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct HistoryBody {
        /// Seconds between consecutive samples (the daemon's `--obs-sample`).
        req sample_seconds: f64,
        /// Per-shard series, ordered by shard index.
        req series: Vec<SeriesBody>,
    }
}

wire_body! {
    /// One journal event carried by [`Response::Events`].
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct EventBody {
        /// Monotone per-daemon sequence number (starting at 1). A router
        /// fronting `n` shards remaps it to `seq * (n + 1) + stream` the
        /// same way it remaps job IDs — `stream` is the shard index, with
        /// the router's own journal as stream `n` — so merged sequence
        /// numbers stay monotone per stream and exactly invertible.
        req seq: u64,
        /// Seconds before the response was generated (age, not an absolute
        /// stamp — ages compose across processes that share no clock).
        req age_seconds: f64,
        /// Severity.
        req level: Level,
        /// Emitting subsystem, e.g. `plan-store` or `watchdog`.
        req subsystem: String,
        /// The event message.
        req message: String,
        /// Free-form key/value payload.
        omit fields: Vec<(String, String)>,
    }
}

wire_body! {
    /// The journal window carried by [`Response::Events`].
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct EventsBody {
        /// Events evicted from the bounded ring since startup.
        req dropped: u64,
        /// The matching retained events, oldest first.
        req events: Vec<EventBody>,
    }
}

wire_enum! {
    /// Typed error categories carried by [`Response::Error`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum ErrorCode {
        /// The frame was not a valid request.
        BadRequest = "bad-request",
        /// The request's `"v"` does not match the daemon's protocol version.
        VersionMismatch = "version-mismatch",
        /// The frame exceeded [`MAX_FRAME`] bytes.
        Oversized = "oversized",
        /// The named backend does not resolve.
        UnknownBackend = "unknown-backend",
        /// The named mapper does not resolve.
        UnknownMapper = "unknown-mapper",
        /// The inline QASM failed to parse or convert.
        QasmError = "qasm-error",
        /// The circuit needs more qubits than the device has.
        DeviceTooSmall = "device-too-small",
        /// The admission queue is full.
        QueueFull = "queue-full",
        /// The polled ID was never assigned or its result was evicted.
        UnknownId = "unknown-id",
        /// The daemon is shutting down and no longer accepts work.
        ShuttingDown = "shutting-down",
        /// The mapper failed or produced an unverifiable routing.
        MappingFailed = "mapping-failed",
        /// The server is at its live-connection cap; retry later. (Additive
        /// spelling — pre-fleet daemons never emit it.)
        Busy = "busy",
        /// The router could not reach the shard that owns this request.
        /// (Additive spelling — only `qlosure-router` emits it.)
        ShardUnavailable = "shard-unavailable",
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

wire_frames! {
    /// A daemon→client frame.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Response ("response") {
        /// The job was admitted under this ID.
        Submitted = "submitted" {
            /// Request ID for later polling.
            req id: u64,
        },
        /// The job is still queued or running.
        Pending = "pending" {
            /// The polled ID.
            req id: u64,
            /// `true` once a worker is running it; `false` while it waits
            /// in the admission queue, where priority can still reorder it.
            req running: bool,
        },
        /// The job finished and verified.
        Done = "done" {
            /// The polled ID.
            req id: u64,
            /// The result summary.
            req summary: Summary,
        },
        /// The job ran but failed (mapper error or verification failure).
        Failed = "failed" {
            /// The polled ID.
            req id: u64,
            /// Human-readable failure.
            req message: String,
        },
        /// Daemon counters, flattened into the frame.
        Stats(stats: StatsBody) = "stats",
        /// The full observability export (additive op; see
        /// [`Request::Metrics`]).
        Metrics(metrics: MetricsBody) = "metrics",
        /// The metrics time-series window (additive op; see
        /// [`Request::MetricsHistory`]).
        MetricsHistory(history: HistoryBody) = "metrics-history",
        /// The journal window (additive op; see [`Request::Events`]).
        Events(events: EventsBody) = "events",
        /// A completed job's span tree (additive op; see [`Request::Trace`]).
        Trace = "trace" {
            /// The polled ID.
            req id: u64,
            /// The trace identity as 16 lowercase hex digits, generated at
            /// admission and preserved verbatim by any router that wraps the
            /// tree — what correlates a stitched trace across the fleet.
            req trace_id: String,
            /// The span tree, rooted at the job's root span.
            req root: SpanNode,
        },
        /// Acknowledgement of a shutdown request.
        ShuttingDown = "shutting-down" {
            /// Jobs still queued or in flight that will drain before exit.
            req pending: u64,
        },
        /// A typed request-level error.
        Error = "error" {
            /// Machine-readable category.
            req code: ErrorCode,
            /// Human-readable detail.
            req message: String,
        },
    }
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
// Codec
// ---------------------------------------------------------------------------

/// A value with one JSON spelling, read and written by the field tables.
trait Wire: Sized {
    /// The value's JSON form.
    fn to_json(&self) -> Json;

    /// Reads the value back from `value`, the member named `name` (which
    /// every error names).
    fn from_json(value: &Json, name: &str) -> Result<Self, ProtoError>;
}

fn shape(message: impl Into<String>) -> ProtoError {
    ProtoError::Shape(message.into())
}

/// The error for field `name` holding the wrong kind of value.
fn expected(name: &str, what: &str) -> ProtoError {
    shape(format!("field `{name}` must be {what}"))
}

/// How a field table reads one member: its value and its name.
type Read<T> = fn(&Json, &str) -> Result<T, ProtoError>;

/// Reads `req` field `name`, which must be present.
fn req<T>(value: &Json, name: &str, read: Read<T>) -> Result<T, ProtoError> {
    let member = value
        .get(name)
        .ok_or_else(|| shape(format!("missing field `{name}`")))?;
    read(member, name)
}

/// Reads `opt` or `omit` field `name`: absent decodes to the default, so
/// frames from peers that predate the field still parse.
fn opt<T: Default>(value: &Json, name: &str, read: Read<T>) -> Result<T, ProtoError> {
    value
        .get(name)
        .map_or_else(|| Ok(T::default()), |x| read(x, name))
}

wire_scalar! {
    // Protocol integers stay far below 2^53; debug-assert the invariant.
    u64: |x| { debug_assert!(*x <= 1 << 53); Json::Num(*x as f64) },
        |v| v.as_u64(), "a non-negative integer";
    // A layout slot: one physical qubit index.
    u32: |x| Json::Num(f64::from(*x)),
        |v| v.as_u64().and_then(|p| u32::try_from(p).ok()), "a list of physical qubit indices";
    f64: |x| Json::Num(*x), |v| v.as_f64(), "a number";
    bool: |x| Json::Bool(*x), |v| v.as_bool(), "a boolean";
    String: |x| Json::Str(x.clone()), |v| v.as_str().map(String::from), "a string";
    // Only `omit` fields hold one, so `None` never reaches the wire.
    Option<i64>: |x| x.map_or(Json::Null, |n| Json::Num(n as f64)),
        |v| v.as_i64().map(Some), "an integer";
    Level: |x| Json::Str(x.as_str().to_string()),
        |v| v.as_str().and_then(Level::parse), "one of `debug` `info` `warn` `error`";
}

impl<T: Wire> Wire for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Wire::to_json).collect())
    }

    fn from_json(value: &Json, name: &str) -> Result<Vec<T>, ProtoError> {
        value
            .as_arr()
            .ok_or_else(|| expected(name, "an array"))?
            .iter()
            .map(|x| T::from_json(x, name))
            .collect()
    }
}

/// Label-keyed values (`pass_seconds`, span `notes`, event `fields`): one
/// object member per pair, in order.
impl<V: Wire> Wire for Vec<(String, V)> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }

    fn from_json(value: &Json, name: &str) -> Result<Vec<(String, V)>, ProtoError> {
        value
            .as_obj()
            .ok_or_else(|| expected(name, "an object"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_json(v, name)?)))
            .collect()
    }
}

/// Per-pass aggregates: `{label: [runs, total_seconds]}`.
impl Wire for Vec<(String, u64, f64)> {
    fn to_json(&self) -> Json {
        let pair = |runs: &u64, total: &f64| Json::Arr(vec![runs.to_json(), total.to_json()]);
        Json::Obj(
            self.iter()
                .map(|(label, runs, total)| (label.clone(), pair(runs, total)))
                .collect(),
        )
    }

    fn from_json(value: &Json, name: &str) -> Result<Vec<(String, u64, f64)>, ProtoError> {
        let bad = || expected(name, "an object of [runs, total_seconds] pairs");
        value
            .as_obj()
            .ok_or_else(bad)?
            .iter()
            .map(|(label, pair)| match pair.as_arr() {
                Some([runs, total]) => Ok((
                    label.clone(),
                    u64::from_json(runs, name)?,
                    f64::from_json(total, name)?,
                )),
                _ => Err(bad()),
            })
            .collect()
    }
}

/// The spelling of `timeout_ms`: a millisecond count may pass 2^53 (a
/// client's "no deadline" is `u64::MAX`), so it encodes as the nearest
/// double and reads back any non-negative integral number, saturating at
/// `u64::MAX` (so 2^64, the encoding of `u64::MAX`, decodes back to it).
struct Millis;

impl Millis {
    fn to_json(millis: &u64) -> Json {
        Json::Num(*millis as f64)
    }

    fn from_json(value: &Json, name: &str) -> Result<u64, ProtoError> {
        value
            .as_f64()
            .filter(|x| *x >= 0.0 && x.fract() == 0.0)
            .map(|x| x as u64)
            .ok_or_else(|| expected(name, "a non-negative integer"))
    }
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

/// Encodes a request as one JSON line (no trailing newline).
///
/// # Errors
///
/// [`json::EncodeError`] when the request carries a non-finite number —
/// JSON cannot represent NaN/±infinity, and emitting a lossy stand-in
/// would break the `parse(encode(x)) == x` fixed point.
pub fn encode_request(request: &Request) -> Result<String, json::EncodeError> {
    request.to_frame().encode()
}

/// Encodes a response as one JSON line (no trailing newline).
///
/// # Errors
///
/// [`json::EncodeError`] when the response carries a non-finite number
/// (e.g. a NaN timing in a [`Summary`]); see [`encode_request`].
pub fn encode_response(response: &Response) -> Result<String, json::EncodeError> {
    response.to_frame().encode()
}

/// Parses one request frame.
///
/// # Errors
///
/// A typed [`ProtoError`] for oversized, malformed, version-mismatched or
/// structurally invalid frames; arbitrary input never panics.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    Request::from_frame(&decode_frame(line)?)
}

/// Parses one response frame.
///
/// # Errors
///
/// A typed [`ProtoError`], mirroring [`parse_request`]; arbitrary input
/// never panics.
pub fn parse_response(line: &str) -> Result<Response, ProtoError> {
    Response::from_frame(&decode_frame(line)?)
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

    /// The exact line the codec writes for every value above, requests
    /// first: any codec change must reproduce these bytes, and decoding
    /// each golden line must give the value back.
    #[test]
    fn golden_frames_are_byte_identical() {
        let golden: Vec<&str> = include_str!("../testdata/golden_frames.ndjson")
            .lines()
            .collect();
        let (requests, responses) = (all_requests(), all_responses());
        assert_eq!(golden.len(), requests.len() + responses.len());
        let (want_requests, want_responses) = golden.split_at(requests.len());
        for (request, want) in requests.iter().zip(want_requests) {
            assert_eq!(encode_request(request).unwrap(), *want);
            assert_eq!(parse_request(want).unwrap(), *request, "{want}");
        }
        for (response, want) in responses.iter().zip(want_responses) {
            assert_eq!(encode_response(response).unwrap(), *want);
            assert_eq!(parse_response(want).unwrap(), *response, "{want}");
        }
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

    /// The object at `path` inside a frame: each step names a member, and
    /// an array steps into its first element.
    fn object_at<'a>(value: &'a mut Json, path: &[&str]) -> &'a mut Vec<(String, Json)> {
        match (value, path.split_first()) {
            (Json::Arr(items), _) => object_at(&mut items[0], path),
            (Json::Obj(members), None) => members,
            (Json::Obj(members), Some((step, rest))) => {
                let member = members.iter_mut().find(|(k, _)| k == step);
                object_at(&mut member.expect("path names a member").1, rest)
            }
            (other, _) => panic!("no object at {path:?} in {other:?}"),
        }
    }

    /// Strips each member of every object in a frame of every op that has
    /// fields, one member at a time. The `opt`/`omit` fields, listed per
    /// object with the spelling of their default (`None` for `omit`), must
    /// decode to that default and leave the rest of the frame unchanged;
    /// every other member is `req`, and its absence must be a typed
    /// `bad-request` naming it.
    #[test]
    fn every_field_has_its_presence_policy() {
        let zero = Some("0");
        let stats_extras = [
            "weighted_hits",
            "weighted_misses",
            "subroute_hits",
            "subroute_misses",
            "plan_exact_hits",
            "plan_canonical_hits",
            "plan_disk_hits",
            "plan_disk_writes",
        ]
        .map(|name| (name, zero));
        let stats = StatsBody {
            weighted_hits: 21,
            weighted_misses: 2,
            ..demo_metrics().stats
        };
        let request = |r: Request| (encode_request(&r).unwrap(), true);
        let response = |r: Response| (encode_response(&r).unwrap(), false);
        let submit = Request::Submit {
            backend: "aspen16".to_string(),
            mapper: "qlosure".to_string(),
            qasm: String::new(),
            priority: Priority::Batch,
            fidelity: true,
            strategy: Strategy::Hier,
            trace: true,
        };
        let trace = Response::Trace {
            id: 4,
            trace_id: "00ff13de00ff13de".to_string(),
            root: demo_span_tree(),
        };
        let done = Response::Done {
            id: 4,
            summary: demo_summary(),
        };
        let history = Response::MetricsHistory(demo_history());
        let events = Response::Events(demo_events());
        // An object's `opt`/`omit` fields with the spelling of each default.
        type Optional = Vec<(&'static str, Option<&'static str>)>;
        let cases: Vec<((String, bool), Vec<&str>, Optional)> = vec![
            (
                request(submit),
                vec![],
                vec![("strategy", Some("\"flat\"")), ("trace", None)],
            ),
            (request(Request::Poll { id: 4 }), vec![], vec![]),
            (
                request(Request::Wait {
                    id: 4,
                    timeout_ms: 50,
                }),
                vec![],
                vec![],
            ),
            (request(Request::Trace { id: 4 }), vec![], vec![]),
            (
                request(Request::Events {
                    min_level: Level::Warn,
                    after_seq: 9,
                }),
                vec![],
                vec![("min_level", Some("\"debug\"")), ("after_seq", zero)],
            ),
            (response(Response::Submitted { id: 4 }), vec![], vec![]),
            (
                response(Response::Pending {
                    id: 4,
                    running: true,
                }),
                vec![],
                vec![],
            ),
            (response(done.clone()), vec![], vec![]),
            (response(done), vec!["summary"], vec![("success_ppm", None)]),
            (
                response(Response::Failed {
                    id: 4,
                    message: "router exceeded the swap bound".to_string(),
                }),
                vec![],
                vec![],
            ),
            (
                response(Response::Stats(stats.clone())),
                vec![],
                stats_extras.to_vec(),
            ),
            (
                response(Response::Metrics(demo_metrics())),
                vec![],
                vec![
                    ("uptime_seconds", zero),
                    ("jobs_inflight", zero),
                    ("events_dropped", zero),
                    ("trace_drops", zero),
                ],
            ),
            (
                response(Response::Metrics(MetricsBody {
                    stats,
                    ..demo_metrics()
                })),
                vec!["stats"],
                stats_extras.to_vec(),
            ),
            (response(history.clone()), vec![], vec![]),
            (response(history.clone()), vec!["series"], vec![]),
            (response(history.clone()), vec!["series", "rates"], vec![]),
            (
                response(history),
                vec!["series", "samples"],
                vec![("events_dropped", zero), ("trace_drops", zero)],
            ),
            (response(events.clone()), vec![], vec![]),
            (response(events), vec!["events"], vec![("fields", None)]),
            (response(trace.clone()), vec![], vec![]),
            (
                response(trace),
                vec!["root"],
                vec![("notes", None), ("children", None)],
            ),
            (
                response(Response::ShuttingDown { pending: 2 }),
                vec![],
                vec![],
            ),
            (
                response(Response::Error {
                    code: ErrorCode::Busy,
                    message: "connection limit reached".to_string(),
                }),
                vec![],
                vec![],
            ),
        ];
        for ((line, is_request), path, optional) in cases {
            let reencode = |line: &str| {
                if is_request {
                    parse_request(line).map(|r| encode_request(&r).unwrap())
                } else {
                    parse_response(line).map(|r| encode_response(&r).unwrap())
                }
            };
            let original = json::parse(&line).unwrap();
            let names: Vec<String> = object_at(&mut original.clone(), &path)
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            for (name, _) in &optional {
                assert!(names.iter().any(|n| n == name), "{name} missing in {line}");
            }
            for (i, name) in names.iter().enumerate() {
                let mut stripped = original.clone();
                object_at(&mut stripped, &path).remove(i);
                let decoded = reencode(&stripped.encode().unwrap());
                let context = format!("`{name}` at {path:?} of {line}");
                match optional.iter().find(|(field, _)| field == name) {
                    Some((_, default)) => {
                        let mut want = original.clone();
                        let members = object_at(&mut want, &path);
                        match default {
                            Some(spelling) => members[i].1 = json::parse(spelling).unwrap(),
                            None => drop(members.remove(i)),
                        }
                        let want = want.encode().unwrap();
                        assert_eq!(decoded.expect(&context), want, "{context}");
                    }
                    None => {
                        let err = decoded.expect_err(&context);
                        assert_eq!(err.code(), ErrorCode::BadRequest, "{context}");
                        assert!(err.to_string().contains(&format!("`{name}`")), "{err}");
                    }
                }
            }
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
