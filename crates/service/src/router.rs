//! `qlosure-router`: a balancer fronting N `qlosured` shards.
//!
//! The whole point of the serving tier is memo hit rates: every shard's
//! distance, weighted-distance, closure and subroute caches are
//! per-process and bounded, so a fleet wins only if the same device keeps
//! landing on the same shard. The router therefore routes each submit by
//! the **FNV content-key of its backend name** ([`content_shard`]) — a
//! pure function of the request, no routing table, no coordination —
//! so shard `k` sees exactly the devices that hash to `k` and its caches
//! stay hot for them.
//!
//! Everything else is pass-through with two twists:
//!
//! * **Job IDs are remapped statelessly.** Shard `s` of `n` assigning
//!   local ID `j` becomes router ID `j * n + s`; a later `poll`, `wait`
//!   or `trace` inverts the arithmetic (`s = id % n`, `j = id / n`) and
//!   lands on the right shard without the router remembering anything.
//! * **Shard errors stay typed.** A daemon's own error frames pass
//!   through unchanged; a shard the router cannot reach (after one
//!   reconnect attempt) answers with
//!   [`ErrorCode::ShardUnavailable`](crate::proto::ErrorCode) rather
//!   than a dropped connection.
//!
//! `stats` and `metrics` fan out to every shard and aggregate: counters
//! and per-pass timings sum; queue-delay percentiles take the per-shard
//! **max** (conservative — "no shard is slower than this").
//! `metrics-history` stacks one relabeled series per shard (no merging —
//! a dashboard wants them apart); `events` merges every shard's journal
//! with the router's own, sequence numbers remapped over `shards + 1`
//! streams. `shutdown` fans out, then stops the router itself.

use crate::client::{Client, ClientError};
use crate::net::{self, ConnLimits, Endpoint, StopFlag, Stream};
use crate::proto::{
    ErrorCode, HistoryBody, MetricsBody, Request, Response, SpanNode, StatsBody, PROTOCOL_VERSION,
};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use trace::journal::{self, Level};

/// Where the router listens and which shards it fronts.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// The router's own serving endpoint.
    pub listen: Endpoint,
    /// The `qlosured` shards, in shard-index order. The order is part of
    /// the routing function: changing it re-keys every device.
    pub shards: Vec<Endpoint>,
    /// Live client connections beyond this are refused with a typed
    /// `busy` error frame.
    pub max_connections: usize,
    /// Idle deadline per client connection.
    pub read_timeout: Duration,
}

impl RouterConfig {
    /// A router on `listen` fronting `shards` with default limits.
    pub fn fronting(listen: Endpoint, shards: Vec<Endpoint>) -> Self {
        RouterConfig {
            listen,
            shards,
            max_connections: crate::daemon::DEFAULT_MAX_CONNECTIONS,
            read_timeout: crate::daemon::DEFAULT_READ_TIMEOUT,
        }
    }
}

/// A router running on a background thread (tests, benches).
pub struct RouterHandle {
    /// The endpoint the router is actually serving on (TCP port 0 and
    /// wildcard addresses resolved).
    pub endpoint: Endpoint,
    thread: JoinHandle<std::io::Result<()>>,
}

impl RouterHandle {
    /// Waits for the router to exit (after a client sends `shutdown`).
    ///
    /// # Errors
    ///
    /// Propagates the accept loop's I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if the router thread itself panicked.
    pub fn join(self) -> std::io::Result<()> {
        self.thread.join().expect("router thread panicked")
    }
}

/// The shard a content key routes to: FNV-1a of the key, mod `n_shards`.
/// Pure and stable — the same backend name always lands on the same
/// shard, which is what keeps that shard's device caches hot.
#[must_use]
pub fn content_shard(key: &str, n_shards: usize) -> usize {
    (bounded::fnv1a(key.as_bytes()) % n_shards.max(1) as u64) as usize
}

/// Binds the router's endpoint and serves on a background thread.
///
/// # Errors
///
/// An `InvalidInput` error when `shards` is empty; otherwise propagates
/// binding errors (including `AddrInUse` for a live Unix socket).
pub fn spawn(config: RouterConfig) -> std::io::Result<RouterHandle> {
    let listener = bind_checked(&config)?;
    let endpoint = listener.local_endpoint(&config.listen);
    let thread = std::thread::spawn(move || serve(listener, config));
    Ok(RouterHandle { endpoint, thread })
}

/// Binds the router's endpoint and serves on the calling thread until a
/// client requests shutdown. This is `qlosure-router`'s main loop.
///
/// # Errors
///
/// Same as [`spawn`], plus accept-loop I/O errors.
pub fn run(config: RouterConfig) -> std::io::Result<()> {
    let listener = bind_checked(&config)?;
    serve(listener, config)
}

fn bind_checked(config: &RouterConfig) -> std::io::Result<net::Listener> {
    if config.shards.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "a router needs at least one shard",
        ));
    }
    net::bind(&config.listen)
}

fn serve(listener: net::Listener, config: RouterConfig) -> std::io::Result<()> {
    // The router keeps its own journal (shard health, reconnects, idle
    // disconnects) and serves it as one more stream next to its shards'.
    journal::enable();
    probe_shards(&config.shards);
    let stop = Arc::new(StopFlag::new(listener.local_endpoint(&config.listen)));
    let limits = ConnLimits {
        max_connections: config.max_connections.max(1),
        read_timeout: config.read_timeout,
    };
    let handler = {
        let stop = stop.clone();
        let shards = config.shards.clone();
        let idle = config.read_timeout;
        Arc::new(move |stream: Stream| {
            let mut pool = ShardPool::new(&shards);
            let _ = net::serve_connection(stream, &stop, idle, |request| {
                route(&mut pool, &stop, request)
            });
        })
    };
    let served = net::accept_loop(&listener, &stop, limits, handler);
    if let Endpoint::Unix(path) = &config.listen {
        std::fs::remove_file(path).ok();
    }
    served
}

/// Startup health sweep: one stats round trip per shard, reported on
/// stderr. Unreachable shards are not fatal — they may come up later, and
/// until then their keys answer with `shard-unavailable`.
fn probe_shards(shards: &[Endpoint]) {
    for (idx, endpoint) in shards.iter().enumerate() {
        let health = Client::connect_endpoint(endpoint)
            .map_err(ClientError::Io)
            .and_then(|mut client| client.stats());
        match health {
            Ok(stats) => {
                journal::event(
                    Level::Info,
                    "router",
                    "shard healthy at startup",
                    &[
                        ("shard", &idx.to_string()),
                        ("endpoint", &endpoint.to_string()),
                        ("workers", &stats.workers.to_string()),
                    ],
                );
                eprintln!(
                    "qlosure-router: shard {idx} at {endpoint}: healthy \
                     ({} workers, {} queued)",
                    stats.workers, stats.queue_depth
                );
            }
            Err(e) => {
                journal::event(
                    Level::Warn,
                    "router",
                    "shard unreachable at startup",
                    &[
                        ("shard", &idx.to_string()),
                        ("endpoint", &endpoint.to_string()),
                        ("error", &e.to_string()),
                    ],
                );
                eprintln!("qlosure-router: shard {idx} at {endpoint}: unreachable ({e})");
            }
        }
    }
}

/// Per-connection lazy shard connections: opened on first use, reopened
/// once per call after a transport failure (a restarted shard heals
/// transparently), then reported as `shard-unavailable`.
struct ShardPool<'a> {
    endpoints: &'a [Endpoint],
    clients: Vec<Option<Client>>,
}

impl<'a> ShardPool<'a> {
    fn new(endpoints: &'a [Endpoint]) -> Self {
        ShardPool {
            clients: endpoints.iter().map(|_| None).collect(),
            endpoints,
        }
    }

    /// One request round trip to shard `idx`, reconnecting once on a
    /// transport failure. Typed shard errors come back as
    /// `Ok(Response::Error { .. })` — pass-through, not translation.
    fn call(&mut self, idx: usize, request: &Request) -> Response {
        for attempt in 0..2 {
            if self.clients[idx].is_none() {
                match Client::connect_endpoint(&self.endpoints[idx]) {
                    Ok(client) => self.clients[idx] = Some(client),
                    Err(e) => {
                        if attempt == 0 {
                            continue;
                        }
                        return unavailable(idx, &self.endpoints[idx], &e.to_string());
                    }
                }
            }
            let client = self.clients[idx].as_mut().expect("connected above");
            match client.request(request) {
                Ok(response) => return response,
                Err(e) => {
                    // The connection is unusable (EOF, I/O, desync):
                    // drop it; the next attempt reconnects fresh.
                    self.clients[idx] = None;
                    if attempt == 0 {
                        journal::event(
                            Level::Warn,
                            "router",
                            "shard connection lost, reconnecting",
                            &[("shard", &idx.to_string()), ("error", &e.to_string())],
                        );
                        continue;
                    }
                    return unavailable(idx, &self.endpoints[idx], &e.to_string());
                }
            }
        }
        unreachable!("both attempts return")
    }
}

fn unavailable(idx: usize, endpoint: &Endpoint, detail: &str) -> Response {
    journal::event(
        Level::Error,
        "router",
        "shard unavailable",
        &[
            ("shard", &idx.to_string()),
            ("endpoint", &endpoint.to_string()),
            ("error", detail),
        ],
    );
    Response::Error {
        code: ErrorCode::ShardUnavailable,
        message: format!("shard {idx} at {endpoint} is unavailable: {detail}"),
    }
}

/// Routes one request; the flag says whether its response ends the
/// connection (a shutdown acknowledgement).
fn route(pool: &mut ShardPool<'_>, stop: &StopFlag, request: Request) -> (Response, bool) {
    let n = pool.endpoints.len() as u64;
    match request {
        submit @ Request::Submit { .. } => {
            let Request::Submit { ref backend, .. } = submit else {
                unreachable!("matched above");
            };
            let shard = content_shard(backend, pool.endpoints.len());
            let response = match pool.call(shard, &submit) {
                // Shard-local ID j on shard s becomes router ID j*n + s.
                Response::Submitted { id } => Response::Submitted {
                    id: id * n + shard as u64,
                },
                other => other,
            };
            (response, false)
        }
        Request::Poll { id } => (job_reply(pool, id, Request::Poll { id: id / n }), false),
        Request::Wait { id, timeout_ms } => {
            let shard_request = Request::Wait {
                id: id / n,
                timeout_ms,
            };
            (job_reply(pool, id, shard_request), false)
        }
        Request::Trace { id } => {
            let shard = (id % n) as usize;
            let shard_id = id / n;
            let response = match pool.call(shard, &Request::Trace { id: shard_id }) {
                // Stitch: the shard's tree (its trace ID preserved) nests
                // under a router span that records where the job landed,
                // so one `trace` answer shows the whole fleet path.
                Response::Trace { trace_id, root, .. } => {
                    let end_ns = root.end_ns;
                    Response::Trace {
                        id,
                        trace_id,
                        root: SpanNode {
                            name: "router:route".to_string(),
                            start_ns: 0,
                            end_ns,
                            notes: vec![
                                ("shard".to_string(), shard.to_string()),
                                ("shards".to_string(), n.to_string()),
                            ],
                            children: vec![root],
                        },
                    }
                }
                Response::Error { code, message } if code == ErrorCode::UnknownId => {
                    Response::Error {
                        code,
                        message: format!("no trace for job {id} (router view): {message}"),
                    }
                }
                other => other,
            };
            (response, false)
        }
        Request::Stats => (fan_out_stats(pool), false),
        Request::Metrics => (fan_out_metrics(pool), false),
        Request::MetricsHistory => (fan_out_history(pool), false),
        Request::Events {
            min_level,
            after_seq,
        } => (fan_out_events(pool, min_level, after_seq), false),
        Request::Shutdown => {
            // Fan the shutdown out so every shard drains, then stop the
            // router itself; unreachable shards cannot block the fleet.
            let mut pending = 0u64;
            for shard in 0..pool.endpoints.len() {
                if let Response::ShuttingDown { pending: p } = pool.call(shard, &Request::Shutdown)
                {
                    pending += p;
                }
            }
            stop.raise();
            (Response::ShuttingDown { pending }, true)
        }
    }
}

/// Sends `shard_request` — a `poll` or `wait` already rewritten to the
/// shard-local ID — to the shard that owns router job `id`, and maps
/// every ID in the reply back to router IDs.
fn job_reply(pool: &mut ShardPool<'_>, id: u64, shard_request: Request) -> Response {
    let shard = (id % pool.endpoints.len() as u64) as usize;
    match pool.call(shard, &shard_request) {
        Response::Pending { running, .. } => Response::Pending { id, running },
        Response::Done { summary, .. } => Response::Done { id, summary },
        Response::Failed { message, .. } => Response::Failed { id, message },
        Response::Error { code, message } if code == ErrorCode::UnknownId => Response::Error {
            code,
            message: format!("no job {id} (router view): {message}"),
        },
        other => other,
    }
}

/// Sums two stats bodies field-wise (protocol stays the wire version,
/// not a sum).
fn add_stats(total: &mut StatsBody, shard: &StatsBody) {
    total.workers += shard.workers;
    total.queue_depth += shard.queue_depth;
    total.submitted += shard.submitted;
    total.completed += shard.completed;
    total.rejected += shard.rejected;
    total.failed += shard.failed;
    total.distance_hits += shard.distance_hits;
    total.distance_misses += shard.distance_misses;
    total.closure_hits += shard.closure_hits;
    total.closure_misses += shard.closure_misses;
    total.weighted_hits += shard.weighted_hits;
    total.weighted_misses += shard.weighted_misses;
    total.subroute_hits += shard.subroute_hits;
    total.subroute_misses += shard.subroute_misses;
    total.plan_exact_hits += shard.plan_exact_hits;
    total.plan_canonical_hits += shard.plan_canonical_hits;
    total.plan_disk_hits += shard.plan_disk_hits;
    total.plan_disk_writes += shard.plan_disk_writes;
}

/// Fleet stats: the field-wise sum over every reachable shard. Any
/// unreachable shard makes the sweep fail typed — a partial sum would
/// silently understate the fleet.
fn fan_out_stats(pool: &mut ShardPool<'_>) -> Response {
    let mut total = StatsBody {
        protocol: PROTOCOL_VERSION,
        ..Default::default()
    };
    for shard in 0..pool.endpoints.len() {
        match pool.call(shard, &Request::Stats) {
            Response::Stats(stats) => add_stats(&mut total, &stats),
            Response::Error { code, message } => return Response::Error { code, message },
            other => {
                return Response::Error {
                    code: ErrorCode::ShardUnavailable,
                    message: format!("shard {shard} answered stats with {other:?}"),
                }
            }
        }
    }
    Response::Stats(total)
}

/// Fleet metrics: counters and per-pass timings sum; queue-delay
/// percentiles take the per-shard max (conservative: "no shard is slower
/// than this" — percentiles of different populations cannot be averaged).
fn fan_out_metrics(pool: &mut ShardPool<'_>) -> Response {
    let mut total = MetricsBody {
        stats: StatsBody {
            protocol: PROTOCOL_VERSION,
            ..Default::default()
        },
        events_dropped: journal::dropped_total(),
        ..Default::default()
    };
    let mut passes: std::collections::HashMap<String, (u64, f64)> =
        std::collections::HashMap::new();
    for shard in 0..pool.endpoints.len() {
        match pool.call(shard, &Request::Metrics) {
            Response::Metrics(m) => {
                add_stats(&mut total.stats, &m.stats);
                total.queue_p50 = total.queue_p50.max(m.queue_p50);
                total.queue_p90 = total.queue_p90.max(m.queue_p90);
                total.queue_p99 = total.queue_p99.max(m.queue_p99);
                total.queue_max = total.queue_max.max(m.queue_max);
                total.queue_samples += m.queue_samples;
                // Fleet uptime is the oldest shard's (max); in-flight
                // jobs sum like every other load figure.
                total.uptime_seconds = total.uptime_seconds.max(m.uptime_seconds);
                total.jobs_inflight += m.jobs_inflight;
                // Drop counters sum across the fleet; the router's own
                // journal drops were seeded into the total above.
                total.events_dropped += m.events_dropped;
                total.trace_drops += m.trace_drops;
                for (label, runs, secs) in m.passes {
                    let entry = passes.entry(label).or_insert((0, 0.0));
                    entry.0 += runs;
                    entry.1 += secs;
                }
            }
            Response::Error { code, message } => return Response::Error { code, message },
            other => {
                return Response::Error {
                    code: ErrorCode::ShardUnavailable,
                    message: format!("shard {shard} answered metrics with {other:?}"),
                }
            }
        }
    }
    total.passes = passes
        .into_iter()
        .map(|(label, (runs, secs))| (label, runs, secs))
        .collect();
    total.passes.sort_by(|a, b| a.0.cmp(&b.0));
    Response::Metrics(total)
}

/// Fleet metrics history: one series per shard, relabeled with the
/// fleet shard index so a dashboard can tell them apart; per-series
/// samples and rates come back as the shard computed them (sample
/// indexes align series across scrapes). Like `metrics`, an unreachable
/// shard fails the sweep typed rather than understating the fleet.
fn fan_out_history(pool: &mut ShardPool<'_>) -> Response {
    let mut sample_seconds = 0.0f64;
    let mut series = Vec::new();
    for shard in 0..pool.endpoints.len() {
        match pool.call(shard, &Request::MetricsHistory) {
            Response::MetricsHistory(history) => {
                sample_seconds = sample_seconds.max(history.sample_seconds);
                for mut one in history.series {
                    one.shard = shard as u64;
                    series.push(one);
                }
            }
            Response::Error { code, message } => return Response::Error { code, message },
            other => {
                return Response::Error {
                    code: ErrorCode::ShardUnavailable,
                    message: format!("shard {shard} answered metrics-history with {other:?}"),
                }
            }
        }
    }
    Response::MetricsHistory(HistoryBody {
        sample_seconds,
        series,
    })
}

/// Fleet journal: every shard's events plus the router's own, merged
/// oldest-first by age. Sequence numbers are remapped over `n + 1`
/// streams — shard `s` is stream `s`, the router's journal is stream
/// `n` — so `seq * (n + 1) + stream` stays monotone per stream and a
/// client cursor (`after_seq` = highest seq seen) inverts exactly.
/// Unreachable shards are *skipped*, not fatal: the reconnect machinery
/// journals the failure, and that event rides along in this very
/// response via the router's stream.
fn fan_out_events(pool: &mut ShardPool<'_>, min_level: Level, after_seq: u64) -> Response {
    let streams = pool.endpoints.len() as u64 + 1;
    // Stream `stream`'s local cursor: the largest local seq whose remap
    // is <= after_seq (events strictly after it are new to the client).
    let local_after = |stream: u64| {
        if after_seq >= stream {
            (after_seq - stream) / streams
        } else {
            0
        }
    };
    let mut dropped = 0u64;
    let mut events = Vec::new();
    for shard in 0..pool.endpoints.len() {
        let request = Request::Events {
            min_level,
            after_seq: local_after(shard as u64),
        };
        // Anything else (an unreachable shard, say) is skipped — and
        // self-journaled by `unavailable` above, so the gap still shows
        // up in the merged window via the router's own stream.
        if let Response::Events(body) = pool.call(shard, &request) {
            dropped += body.dropped;
            for mut event in body.events {
                event.seq = event.seq * streams + shard as u64;
                events.push(event);
            }
        }
    }
    let own = crate::daemon::journal_window(min_level, local_after(streams - 1));
    dropped += own.dropped;
    for mut event in own.events {
        event.seq = event.seq * streams + (streams - 1);
        events.push(event);
    }
    // Oldest first: ages are durations, comparable across processes
    // that share no absolute clock.
    events.sort_by(|a, b| {
        b.age_seconds
            .partial_cmp(&a.age_seconds)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Response::Events(crate::proto::EventsBody { dropped, events })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_shard_is_stable_and_balanced() {
        // Stability: the same key always lands on the same shard (this
        // is the cache-locality contract — pin the exact values so an
        // accidental hash change cannot slip in as "still balanced").
        assert_eq!(content_shard("aspen16", 2), 1);
        assert_eq!(content_shard("sherbrooke", 3), 0);
        assert_eq!(content_shard("anything", 1), 0);
        // Balance: a device roster spreads over both shards.
        let (mut a, mut b) = (0usize, 0usize);
        for i in 0..40 {
            match content_shard(&format!("line:{i}"), 2) {
                0 => a += 1,
                _ => b += 1,
            }
        }
        assert!(a >= 8 && b >= 8, "skewed split: {a}/{b}");
    }

    #[test]
    fn job_id_remap_round_trips() {
        // router_id = shard_local_id * n + shard_idx, inverted by % and /.
        for n in [1u64, 2, 3, 7] {
            for shard in 0..n {
                for local in [0u64, 1, 5, 1_000_003] {
                    let router_id = local * n + shard;
                    assert_eq!(router_id % n, shard);
                    assert_eq!(router_id / n, local);
                }
            }
        }
    }

    #[test]
    fn router_refuses_an_empty_shard_list() {
        let listen = Endpoint::Tcp("127.0.0.1:0".to_string());
        let err = match spawn(RouterConfig::fronting(listen, Vec::new())) {
            Err(e) => e,
            Ok(_) => panic!("zero shards cannot serve"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
