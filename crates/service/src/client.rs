//! A blocking client for the daemon's NDJSON protocol, shared by the
//! `qlosure-cli` binary, the throughput bench and the integration tests.

use crate::net::{Endpoint, Stream};
use crate::proto::{
    encode_request, parse_response, ErrorCode, EventsBody, HistoryBody, MetricsBody, Priority,
    ProtoError, Request, Response, SpanNode, StatsBody, Strategy, Summary, MAX_FRAME,
};
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The daemon sent a frame this client cannot decode (likely a
    /// protocol-version skew).
    Proto(ProtoError),
    /// The daemon answered with a typed error.
    Server {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The daemon answered something structurally valid but unexpected
    /// for the request that was sent.
    Unexpected(Box<Response>),
    /// The daemon closed the connection.
    Closed,
    /// [`Client::wait`] ran out of time.
    Timeout {
        /// The job that was being waited on.
        id: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "I/O error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            ClientError::Unexpected(r) => write!(f, "unexpected response: {r:?}"),
            ClientError::Closed => write!(f, "daemon closed the connection"),
            ClientError::Timeout { id } => write!(f, "timed out waiting for job {id}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Proto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A persistent connection to a `qlosured` daemon (or a `qlosure-router`
/// — same protocol) over either transport.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl Client {
    /// Connects to the daemon on the Unix socket at `socket` (the
    /// historical entry point; see [`Client::connect_endpoint`] for TCP).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(socket: impl AsRef<Path>) -> std::io::Result<Client> {
        Client::connect_endpoint(&Endpoint::Unix(socket.as_ref().to_path_buf()))
    }

    /// Connects to the daemon at `endpoint` (Unix socket or TCP).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_endpoint(endpoint: &Endpoint) -> std::io::Result<Client> {
        let stream = Stream::connect(endpoint)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request frame and reads one response frame. Typed
    /// daemon errors come back as `Ok(Response::Error { .. })`; the
    /// convenience wrappers below convert them to [`ClientError::Server`].
    ///
    /// # Errors
    ///
    /// Transport and decode failures.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let frame = encode_request(request).map_err(std::io::Error::other)?;
        self.writer.write_all(format!("{frame}\n").as_bytes())?;
        self.writer.flush()?;
        let mut buf = Vec::new();
        let n = (&mut self.reader)
            .take((MAX_FRAME + 2) as u64)
            .read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Err(ClientError::Closed);
        }
        while matches!(buf.last(), Some(b'\n' | b'\r')) {
            buf.pop();
        }
        let line = String::from_utf8(buf)
            .map_err(|_| ClientError::Proto(ProtoError::Shape("non-UTF-8 frame".to_string())))?;
        parse_response(&line).map_err(ClientError::Proto)
    }

    fn expect(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.request(request)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            response => Ok(response),
        }
    }

    /// Submits a job with the flat mapping strategy and returns its
    /// request ID.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for typed rejections (unknown backend,
    /// full queue, …) plus transport failures.
    pub fn submit(
        &mut self,
        backend: &str,
        mapper: &str,
        qasm: &str,
        priority: Priority,
        fidelity: bool,
    ) -> Result<u64, ClientError> {
        self.submit_with_strategy(backend, mapper, qasm, priority, fidelity, Strategy::Flat)
    }

    /// Submits a job under an explicit mapping [`Strategy`]
    /// (`flat`/`hier`/`auto`) and returns its request ID.
    ///
    /// # Errors
    ///
    /// Same as [`Client::submit`].
    pub fn submit_with_strategy(
        &mut self,
        backend: &str,
        mapper: &str,
        qasm: &str,
        priority: Priority,
        fidelity: bool,
        strategy: Strategy,
    ) -> Result<u64, ClientError> {
        self.submit_traced(backend, mapper, qasm, priority, fidelity, strategy, false)
    }

    /// Submits a job with every wire knob exposed, including the `trace`
    /// opt-in that makes the daemon retain the job's span tree for a
    /// later [`Client::trace`] call.
    ///
    /// # Errors
    ///
    /// Same as [`Client::submit`].
    #[allow(clippy::too_many_arguments)] // mirrors the wire fields 1:1
    pub fn submit_traced(
        &mut self,
        backend: &str,
        mapper: &str,
        qasm: &str,
        priority: Priority,
        fidelity: bool,
        strategy: Strategy,
        trace: bool,
    ) -> Result<u64, ClientError> {
        let request = Request::Submit {
            backend: backend.to_string(),
            mapper: mapper.to_string(),
            qasm: qasm.to_string(),
            priority,
            fidelity,
            strategy,
            trace,
        };
        match self.expect(&request)? {
            Response::Submitted { id } => Ok(id),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Fetches the retained span tree for job `id` as
    /// `(trace_id, root span)`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::UnknownId`] when no
    /// trace was retained for the job, plus transport failures.
    pub fn trace(&mut self, id: u64) -> Result<(String, SpanNode), ClientError> {
        match self.expect(&Request::Trace { id })? {
            Response::Trace { trace_id, root, .. } => Ok((trace_id, root)),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// One poll round trip (pending/done/failed/error, undigested).
    ///
    /// # Errors
    ///
    /// Transport and decode failures.
    pub fn poll(&mut self, id: u64) -> Result<Response, ClientError> {
        self.request(&Request::Poll { id })
    }

    /// Waits for job `id` to complete. Each round sends one `wait`
    /// request carrying the time left; the daemon parks the connection
    /// until the job finishes, so the result arrives as soon as it lands
    /// and the client never sleeps. A round ends early (`pending`) at the
    /// daemon's idle deadline, and the next round picks up from there. A
    /// timeout too large to add to the clock means no deadline.
    ///
    /// Needs a daemon (and router) that serves `wait`; older ones answer
    /// it with `bad-request`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::MappingFailed`] when the
    /// job failed, [`ClientError::Timeout`] past the deadline, plus
    /// transport failures.
    pub fn wait(&mut self, id: u64, timeout: Duration) -> Result<Summary, ClientError> {
        let deadline = Instant::now().checked_add(timeout);
        loop {
            let left = deadline.map_or(Duration::MAX, |deadline| {
                deadline.saturating_duration_since(Instant::now())
            });
            // Rounded up, so a round never ends just short of the deadline.
            let timeout_ms = u64::try_from(left.as_micros().div_ceil(1000)).unwrap_or(u64::MAX);
            match self.expect(&Request::Wait { id, timeout_ms })? {
                Response::Done { summary, .. } => return Ok(summary),
                Response::Failed { message, .. } => {
                    return Err(ClientError::Server {
                        code: ErrorCode::MappingFailed,
                        message,
                    })
                }
                Response::Pending { .. } => {
                    if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                        return Err(ClientError::Timeout { id });
                    }
                }
                other => return Err(ClientError::Unexpected(Box::new(other))),
            }
        }
    }

    /// Fetches the daemon counters.
    ///
    /// # Errors
    ///
    /// Transport, decode and server failures.
    pub fn stats(&mut self) -> Result<StatsBody, ClientError> {
        match self.expect(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Fetches the scrape-oriented metrics superset (counters plus
    /// queue-delay percentiles and per-pass timing aggregates).
    ///
    /// # Errors
    ///
    /// Transport, decode and server failures.
    pub fn metrics(&mut self) -> Result<MetricsBody, ClientError> {
        match self.expect(&Request::Metrics)? {
            Response::Metrics(metrics) => Ok(metrics),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Fetches the sampler's metrics-history window: one time series per
    /// shard (a lone daemon reports itself as shard 0) with computed
    /// rates over each window.
    ///
    /// # Errors
    ///
    /// Transport, decode and server failures.
    pub fn metrics_history(&mut self) -> Result<HistoryBody, ClientError> {
        match self.expect(&Request::MetricsHistory)? {
            Response::MetricsHistory(history) => Ok(history),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Fetches the journal window: events at `min_level` or above with a
    /// sequence number strictly greater than `after_seq` (pass the
    /// highest seq already seen to tail incrementally; `0` for
    /// everything retained).
    ///
    /// # Errors
    ///
    /// Transport, decode and server failures.
    pub fn events(
        &mut self,
        min_level: obs::Level,
        after_seq: u64,
    ) -> Result<EventsBody, ClientError> {
        match self.expect(&Request::Events {
            min_level,
            after_seq,
        })? {
            Response::Events(events) => Ok(events),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Requests graceful shutdown; returns the number of jobs the daemon
    /// will drain before exiting.
    ///
    /// # Errors
    ///
    /// Transport, decode and server failures.
    pub fn shutdown(&mut self) -> Result<u64, ClientError> {
        match self.expect(&Request::Shutdown)? {
            Response::ShuttingDown { pending } => Ok(pending),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }
}
