//! # qlosure-service — the persistent mapping daemon
//!
//! Every other consumer in the workspace is a one-shot process that pays
//! full device-cache warmup per invocation. This crate keeps the mapping
//! stack resident: `qlosured` listens on a Unix domain socket, speaks a
//! versioned newline-delimited JSON protocol ([`proto`]), and drives
//! requests through an asynchronous intake layer ([`intake`]) — a bounded
//! admission queue with interactive-over-batch priority, mapping workers
//! that each take the next job from it when they come free, and a
//! bounded FIFO result store keyed by request ID, which a client reads
//! with one `wait` request that the daemon parks until the job finishes.
//! Because the process lives on, the shared per-device caches
//! (`CouplingGraph::shared_distances`, the Presburger closure memo)
//! amortize across requests, and the daemon's `stats` response reports
//! their hit/miss counters so that amortization is observable.
//!
//! The pieces:
//!
//! * [`proto`] — wire types declared once as field tables (each table is
//!   the type, its encoder and its decoder), typed errors,
//!   [`proto::PROTOCOL_VERSION`];
//! * [`intake`] — [`MappingService`]: admission, the worker pool that
//!   schedules at pickup, results, graceful drain-then-exit shutdown;
//! * [`registry`] — request decoding (backend/mapper/QASM → job spec);
//! * [`net`] — the transport layer: [`Endpoint`] (`unix:/path` or
//!   `tcp:host:port`), stream/listener wrappers, and the hardened
//!   connection plumbing both servers share (one frame loop with bounded
//!   resumable reads, connection cap, idle deadlines, a blocking accept
//!   that shutdown wakes, join-on-shutdown);
//! * [`daemon`] — the socket server (`qlosured` is a thin `main` over
//!   [`daemon::run`]), serving either transport;
//! * [`router`] — `qlosure-router`: a balancer fronting N `qlosured`
//!   shards, routing each submit by the FNV content-key of its backend
//!   so every shard's device caches stay hot for *its* devices;
//! * [`client`] — a blocking client ([`Client`]), used by `qlosure-cli`,
//!   the `service_fleet` bench and the integration tests.
//!
//! # In-process quickstart
//!
//! ```
//! use service::{Client, DaemonConfig, Priority};
//! use std::time::Duration;
//!
//! let socket = std::env::temp_dir().join(format!("qlosured-doc-{}.sock", std::process::id()));
//! let daemon = service::daemon::spawn(DaemonConfig::at(&socket)).unwrap();
//! let mut client = Client::connect(&socket).unwrap();
//!
//! let qasm = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncx q[0], q[2];\n";
//! let id = client
//!     .submit("line:3", "qlosure", qasm, Priority::Interactive, false)
//!     .unwrap();
//! let summary = client.wait(id, Duration::from_secs(30)).unwrap();
//! assert!(summary.verified && summary.swaps >= 1);
//!
//! client.shutdown().unwrap();
//! daemon.join().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod intake;
pub mod json;
pub mod net;
pub mod proto;
pub mod registry;
pub mod router;

pub use client::{Client, ClientError};
pub use daemon::{DaemonConfig, DaemonHandle};
pub use intake::{
    result_fingerprint, JobOutcome, JobSpec, MappingService, PollReply, ServiceConfig,
};
pub use net::{Endpoint, Stream};
pub use proto::{
    ErrorCode, EventBody, EventsBody, HistoryBody, MetricsBody, Priority, ProtoError, RatesBody,
    Request, Response, SampleBody, SeriesBody, SpanNode, StatsBody, Strategy, Summary, MAX_FRAME,
    PROTOCOL_VERSION,
};
pub use router::{content_shard, RouterConfig, RouterHandle};

#[cfg(test)]
mod stream;
