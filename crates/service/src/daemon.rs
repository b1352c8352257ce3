//! The `qlosured` daemon: a Unix-domain-socket or TCP server speaking
//! the [`proto`](crate::proto) NDJSON protocol in front of a
//! [`MappingService`].
//!
//! One thread per connection reads frames line by line (bounded at
//! `MAX_FRAME` bytes), decodes, dispatches, and writes one response line
//! per request. A `wait` request parks that thread on the job's
//! completion, so a client learns of a result when it lands instead of
//! polling for it. The connection layer is the hardened plumbing from
//! [`crate::net`]: a connection cap with typed `busy` refusals, a
//! per-connection idle deadline (no slowloris pinning an OS thread), and
//! graceful shutdown that *joins* every live connection thread. A
//! `shutdown` request closes intake, drains every admitted job, removes
//! the socket file (Unix transport) and returns the final counters — the
//! graceful-shutdown contract of the intake layer, surfaced over the
//! wire.

use crate::intake::{JobOutcome, MappingService, PollReply, ServiceConfig};
use crate::net::{self, ConnLimits, Endpoint, FrameEvent, Listener, StopFlag, Stream};
use crate::proto::{
    encode_response, parse_request, ErrorCode, EventBody, EventsBody, Request, Response, SpanNode,
    StatsBody, MAX_FRAME,
};
use crate::registry;
use std::io::{BufReader, Write};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default connection cap: far above any test or CI harness, far below
/// "a runaway client pinned ten thousand OS threads".
pub const DEFAULT_MAX_CONNECTIONS: usize = 64;

/// Default per-connection idle deadline: a connection with no complete
/// frame for this long is closed.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How the daemon is sized and where it listens.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Where to listen: a Unix socket path or a TCP address. A stale
    /// Unix socket file is replaced; a *live* one refuses with
    /// `AddrInUse`.
    pub endpoint: Endpoint,
    /// Intake-layer sizing.
    pub service: ServiceConfig,
    /// Live connections beyond this are refused with a typed `busy`
    /// error frame.
    pub max_connections: usize,
    /// Idle deadline per connection: no complete frame for this long and
    /// the connection is closed.
    pub read_timeout: Duration,
    /// Optional disk tier of the hierarchical plan store
    /// (`--plan-store <dir>`): SWAP plans persist under this directory
    /// and survive daemon restarts, so a fresh process replays plans an
    /// earlier one computed.
    pub plan_store: Option<std::path::PathBuf>,
}

impl DaemonConfig {
    /// A daemon on the Unix socket at `socket` with default sizing.
    pub fn at(socket: impl Into<std::path::PathBuf>) -> Self {
        DaemonConfig::listening(Endpoint::Unix(socket.into()))
    }

    /// A daemon on `endpoint` with default sizing.
    pub fn listening(endpoint: Endpoint) -> Self {
        DaemonConfig {
            endpoint,
            service: ServiceConfig::default(),
            max_connections: DEFAULT_MAX_CONNECTIONS,
            read_timeout: DEFAULT_READ_TIMEOUT,
            plan_store: None,
        }
    }
}

/// A daemon running on a background thread (in-process harnesses: tests,
/// the throughput and fleet benches).
pub struct DaemonHandle {
    /// The endpoint the daemon is actually serving on, ready to connect
    /// to: for TCP, port 0 resolves to the kernel-assigned port and a
    /// wildcard address to loopback.
    pub endpoint: Endpoint,
    thread: JoinHandle<std::io::Result<StatsBody>>,
}

impl DaemonHandle {
    /// Waits for the daemon to exit (after a client sends `shutdown`) and
    /// returns its final counters.
    ///
    /// # Errors
    ///
    /// Propagates the accept loop's I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if the daemon thread itself panicked.
    pub fn join(self) -> std::io::Result<StatsBody> {
        self.thread.join().expect("daemon thread panicked")
    }
}

/// Binds the endpoint and serves on a background thread. The listener is
/// bound synchronously, so clients may connect as soon as this returns.
///
/// # Errors
///
/// Propagates binding errors — including `AddrInUse` when a live daemon
/// already answers on a Unix socket path.
pub fn spawn(config: DaemonConfig) -> std::io::Result<DaemonHandle> {
    let listener = net::bind(&config.endpoint)?;
    let endpoint = listener.local_endpoint(&config.endpoint);
    let thread = std::thread::spawn(move || serve(listener, config));
    Ok(DaemonHandle { endpoint, thread })
}

/// Binds the endpoint and serves on the calling thread until a client
/// requests shutdown; returns the final counters. This is `qlosured`'s
/// main loop.
///
/// # Errors
///
/// Propagates binding and accept-loop I/O errors.
pub fn run(config: DaemonConfig) -> std::io::Result<StatsBody> {
    let listener = net::bind(&config.endpoint)?;
    serve(listener, config)
}

fn serve(listener: Listener, config: DaemonConfig) -> std::io::Result<StatsBody> {
    // The journal is inert until a daemon turns it on; one-shot library
    // consumers never pay for it.
    obs::enable();
    if let Some(dir) = &config.plan_store {
        // Attach the persistent plan tier before any job routes; a
        // damaged store file degrades to warnings at scan time.
        hier::configure_plan_store(dir)?;
    }
    let service = Arc::new(MappingService::start(config.service.clone()));
    let stop = Arc::new(StopFlag::new(listener.local_endpoint(&config.endpoint)));
    let limits = ConnLimits {
        max_connections: config.max_connections.max(1),
        read_timeout: config.read_timeout,
    };
    let handler = {
        let (service, stop) = (service.clone(), stop.clone());
        let idle = config.read_timeout;
        Arc::new(move |stream: Stream| {
            let _ = handle_connection(&service, &stop, idle, stream);
        })
    };
    let served = net::accept_loop(&listener, &stop, limits, handler);
    let stats = service.shutdown();
    if let Endpoint::Unix(path) = &config.endpoint {
        std::fs::remove_file(path).ok();
    }
    served.map(|()| stats)
}

fn handle_connection(
    service: &MappingService,
    stop: &StopFlag,
    idle_limit: Duration,
    stream: Stream,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let line = match net::read_frame(&mut reader, stop.flag(), idle_limit)? {
            FrameEvent::Frame(line) => line,
            // Client hung up or the daemon is shutting down: close so
            // the accept loop can join.
            FrameEvent::Eof | FrameEvent::Shutdown => return Ok(()),
            // Idle past the deadline: same close, but journaled — a
            // client that keeps timing out is worth noticing.
            FrameEvent::IdleTimeout => {
                obs::event(
                    obs::Level::Info,
                    "net",
                    "idle connection disconnected",
                    &[("idle_seconds", &format!("{:.1}", idle_limit.as_secs_f64()))],
                );
                return Ok(());
            }
            FrameEvent::Oversized(len) => {
                // The connection is desynchronized past an oversized
                // frame; answer and close.
                let response = Response::Error {
                    code: ErrorCode::Oversized,
                    message: format!("frame of {len}+ bytes exceeds the {MAX_FRAME}-byte limit"),
                };
                let frame = encode_response(&response).map_err(std::io::Error::other)?;
                writer.write_all(format!("{frame}\n").as_bytes())?;
                return Ok(());
            }
        };
        if line.is_empty() {
            continue; // tolerate blank keep-alive lines
        }
        let (response, end) = dispatch(service, stop, idle_limit, &line);
        let frame = encode_response(&response).map_err(std::io::Error::other)?;
        writer.write_all(format!("{frame}\n").as_bytes())?;
        writer.flush()?;
        if end {
            return Ok(());
        }
    }
}

/// Snapshots the process-local event journal into a wire body: events
/// past `after_seq` at `min_level` or above, ages computed against the
/// journal clock at snapshot time. Shared with the router, which serves
/// its own journal as one more stream next to its shards'.
pub(crate) fn journal_window(min_level: obs::Level, after_seq: u64) -> EventsBody {
    let (dropped, events) = obs::events_since(after_seq, min_level);
    let now_ns = obs::now_ns();
    EventsBody {
        dropped,
        events: events
            .into_iter()
            .map(|event| EventBody {
                seq: event.seq,
                age_seconds: now_ns.saturating_sub(event.at_ns) as f64 * 1e-9,
                level: event.level,
                subsystem: event.subsystem.to_string(),
                message: event.message.to_string(),
                fields: event.fields,
            })
            .collect(),
    }
}

/// The answer to `poll`, and to `wait` once its park ends: the job's
/// phase or stored outcome.
fn job_reply(service: &MappingService, id: u64) -> Response {
    match service.poll(id) {
        PollReply::Unknown => Response::Error {
            code: ErrorCode::UnknownId,
            message: format!("no job {id} (never submitted, or its result was evicted)"),
        },
        PollReply::Pending { running } => Response::Pending { id, running },
        PollReply::Finished(JobOutcome::Done(summary)) => Response::Done { id, summary },
        PollReply::Finished(JobOutcome::Failed(message)) => Response::Failed { id, message },
    }
}

/// Decodes and executes one frame; the flag says whether this frame ends
/// the connection (a shutdown acknowledgement). A `wait` parks this
/// connection's thread for at most `idle_limit`.
fn dispatch(
    service: &MappingService,
    stop: &StopFlag,
    idle_limit: Duration,
    line: &str,
) -> (Response, bool) {
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(e) => {
            return (
                Response::Error {
                    code: e.code(),
                    message: e.to_string(),
                },
                false,
            )
        }
    };
    match request {
        Request::Submit {
            backend,
            mapper,
            qasm,
            priority,
            fidelity,
            strategy,
            trace,
        } => {
            let mut spec = match registry::decode_submit(
                &backend, &mapper, &qasm, priority, fidelity, strategy,
            ) {
                Ok(spec) => spec,
                Err((code, message)) => return (Response::Error { code, message }, false),
            };
            spec.trace = trace;
            match service.submit(spec) {
                Ok(id) => (Response::Submitted { id }, false),
                Err((code, message)) => (Response::Error { code, message }, false),
            }
        }
        Request::Poll { id } => (job_reply(service, id), false),
        Request::Wait { id, timeout_ms } => {
            // Clamped before any deadline arithmetic: the client picks
            // `timeout_ms`, and no park outlasts the idle deadline. A
            // shutdown drains every admitted job, so a parked wait ends
            // before the accept loop joins this thread.
            let park = Duration::from_millis(timeout_ms).min(idle_limit);
            let _ = service.wait(id, park);
            (job_reply(service, id), false)
        }
        Request::Trace { id } => (
            match service.trace(id).and_then(|(trace_id, spans)| {
                SpanNode::from_spans(&spans).map(|root| (trace_id, root))
            }) {
                Some((trace_id, root)) => Response::Trace { id, trace_id, root },
                None => Response::Error {
                    code: ErrorCode::UnknownId,
                    message: format!(
                        "no trace for job {id} (tracing not requested, the job was not \
                         slow enough to retain, or the bounded store evicted it)"
                    ),
                },
            },
            false,
        ),
        Request::Stats => (Response::Stats(service.stats()), false),
        Request::Metrics => (Response::Metrics(service.metrics()), false),
        Request::MetricsHistory => (Response::MetricsHistory(service.history()), false),
        Request::Events {
            min_level,
            after_seq,
        } => (
            Response::Events(journal_window(min_level, after_seq)),
            false,
        ),
        Request::Shutdown => {
            // Stop admissions immediately so the pending count is final,
            // then let the accept loop run the drain.
            service.begin_shutdown();
            stop.raise();
            (
                Response::ShuttingDown {
                    pending: service.pending(),
                },
                true,
            )
        }
    }
}
