//! Integration suite for the `qlosure-service` daemon: full socket round
//! trips against a live in-process `qlosured` (over Unix sockets *and*
//! TCP), the determinism pin (single-worker service results are
//! bit-for-bit identical to direct `Mapper::map`), priority scheduling,
//! typed protocol errors, graceful drain-on-shutdown, the daemon
//! lifecycle hardening (no socket stealing, stalled connections timed
//! out, connection cap), and the `qlosure-router` content-sharding tier.

use service::proto::{encode_request, parse_response, Request, Response};
use service::{
    content_shard, result_fingerprint, Client, ClientError, DaemonConfig, DaemonHandle, Endpoint,
    ErrorCode, Priority, RouterConfig, ServiceConfig,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A unique temp socket path per test.
fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("qlosured-test-{tag}-{}.sock", std::process::id()))
}

/// Spawns a daemon on a unique temp socket.
fn daemon(tag: &str, workers: usize) -> DaemonHandle {
    daemon_with(tag, workers, 256, 1024)
}

fn daemon_with(tag: &str, workers: usize, queue: usize, results: usize) -> DaemonHandle {
    let mut config = DaemonConfig::at(socket_path(tag));
    config.service = ServiceConfig {
        workers,
        queue_capacity: queue,
        results_capacity: results,
        ..ServiceConfig::default()
    };
    service::daemon::spawn(config).expect("daemon binds its socket")
}

/// The Unix socket path a daemon is serving on (these tests bind Unix
/// endpoints unless they say otherwise).
fn unix_path(daemon: &DaemonHandle) -> PathBuf {
    match &daemon.endpoint {
        Endpoint::Unix(path) => path.clone(),
        Endpoint::Tcp(addr) => panic!("expected a unix endpoint, got tcp:{addr}"),
    }
}

fn connect(daemon: &DaemonHandle) -> Client {
    Client::connect_endpoint(&daemon.endpoint).expect("daemon accepts connections")
}

/// QUEKO QASM on the named backend (the standard smoke workload).
fn queko_qasm(backend: &str, depth: usize, seed: u64) -> String {
    let device = topology::backends::by_name(backend).expect("backend resolves");
    let bench = queko::QuekoSpec::new(&device, depth).seed(seed).generate();
    qasm::emit(&bench.circuit.to_qasm())
}

const WAIT: Duration = Duration::from_secs(120);

#[test]
fn submit_wait_roundtrip_returns_a_verified_summary() {
    let daemon = daemon("roundtrip", 2);
    let mut client = connect(&daemon);
    let qasm_src = queko_qasm("aspen16", 20, 7);
    let id = client
        .submit(
            "aspen16",
            "qlosure",
            &qasm_src,
            Priority::Interactive,
            false,
        )
        .unwrap();
    let summary = client.wait(id, WAIT).unwrap();
    assert!(summary.verified);
    assert_eq!(summary.pipeline, "weights → identity → qlosure");
    assert_eq!(summary.initial_layout.len(), 16);
    assert_eq!(summary.final_layout.len(), 16);
    assert!(summary.queue_seconds >= 0.0 && summary.seconds >= 0.0);
    assert!(summary
        .pass_seconds
        .iter()
        .any(|(label, _)| label == "routing:qlosure"));
    assert_eq!(summary.success_ppm, None, "fidelity is opt-in");
    // Stats reflect the completed job and carry the cache counters.
    let stats = client.stats().unwrap();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.protocol, service::PROTOCOL_VERSION);
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn hier_strategy_round_trips_without_a_version_bump() {
    let daemon = daemon("strategy", 2);
    let mut client = connect(&daemon);
    let qasm_src = queko_qasm("aspen16", 20, 5);
    // strategy=hier swaps in the hierarchical pipeline — same protocol
    // version, additive request field only.
    let id = client
        .submit_with_strategy(
            "aspen16",
            "qlosure",
            &qasm_src,
            Priority::Interactive,
            false,
            service::Strategy::Hier,
        )
        .unwrap();
    let summary = client.wait(id, WAIT).unwrap();
    assert!(summary.verified);
    assert_eq!(
        summary.pipeline,
        "weights → regions → hier-layout → hier-route"
    );
    assert!(summary
        .pass_seconds
        .iter()
        .any(|(label, _)| label == "routing:hier-route"));
    // auto on a small device stays flat.
    let id = client
        .submit_with_strategy(
            "aspen16",
            "qlosure",
            &qasm_src,
            Priority::Interactive,
            false,
            service::Strategy::Auto,
        )
        .unwrap();
    let summary = client.wait(id, WAIT).unwrap();
    assert!(summary.verified);
    assert_eq!(summary.pipeline, "weights → identity → qlosure");
    // Stats carry the new cache counters (additive response fields), and
    // the hier submission must actually have exercised the fragment memo.
    let stats = client.stats().unwrap();
    assert_eq!(stats.completed, 2);
    assert!(
        stats.subroute_hits + stats.subroute_misses > 0,
        "hier submission must touch the sub-routing memo"
    );
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn single_worker_service_matches_direct_map_bit_for_bit() {
    // The acceptance pin: an ENGINE_THREADS=1-equivalent service (one
    // worker) must produce results bit-for-bit identical to calling
    // `Mapper::map` directly on the same inputs, fingerprints included.
    let daemon = daemon("bitforbit", 1);
    let mut client = connect(&daemon);
    for (mapper_name, depth, seed) in [
        ("qlosure", 30, 0),
        ("qlosure", 60, 1),
        ("sabre", 30, 2),
        ("tket", 30, 3),
    ] {
        let device = topology::backends::by_name("aspen16").unwrap();
        let bench = queko::QuekoSpec::new(&device, depth).seed(seed).generate();
        let qasm_src = qasm::emit(&bench.circuit.to_qasm());
        let id = client
            .submit("aspen16", mapper_name, &qasm_src, Priority::Batch, false)
            .unwrap();
        let summary = client.wait(id, WAIT).unwrap();

        // Direct, in-process reference on the *same* decoded circuit: the
        // QASM round trip is a parse→emit fixed point (pinned by the
        // corpus property suite), so re-parsing here reproduces the
        // daemon's input exactly.
        let program = qasm::parse(&qasm_src).unwrap();
        let circuit = circuit::Circuit::from_qasm(&program).unwrap();
        let direct = service::registry::mapper_by_name(mapper_name)
            .unwrap()
            .map(&circuit, &device);

        assert_eq!(summary.swaps, direct.swaps as u64, "{mapper_name}-d{depth}");
        assert_eq!(summary.depth, direct.routed.depth() as u64);
        assert_eq!(summary.qops, direct.routed.qop_count() as u64);
        assert_eq!(summary.initial_layout, direct.initial_layout);
        assert_eq!(summary.final_layout, direct.final_layout);
        assert_eq!(
            summary.fingerprint,
            format!("{:016x}", result_fingerprint(&direct)),
            "{mapper_name}-d{depth}: full-result fingerprint must match"
        );
    }
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn interactive_requests_overtake_queued_batch_work() {
    let daemon = daemon("priority", 1);
    let mut client = connect(&daemon);
    // A slow job pins the single worker; batch jobs queue behind it; a
    // late interactive job must finish before the earlier batch tail.
    let slow = client
        .submit(
            "king9",
            "qlosure",
            &queko_qasm("king9", 150, 1),
            Priority::Batch,
            false,
        )
        .unwrap();
    let batch: Vec<u64> = (0..4)
        .map(|seed| {
            client
                .submit(
                    "aspen16",
                    "qlosure",
                    &queko_qasm("aspen16", 15, 10 + seed),
                    Priority::Batch,
                    false,
                )
                .unwrap()
        })
        .collect();
    let interactive = client
        .submit(
            "aspen16",
            "qlosure",
            &queko_qasm("aspen16", 15, 99),
            Priority::Interactive,
            false,
        )
        .unwrap();
    let interactive_seq = client.wait(interactive, WAIT).unwrap().seq;
    let last_batch_seq = client.wait(*batch.last().unwrap(), WAIT).unwrap().seq;
    assert!(
        interactive_seq < last_batch_seq,
        "interactive seq {interactive_seq} must beat the batch tail seq {last_batch_seq}"
    );
    client.wait(slow, WAIT).unwrap();
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn fidelity_opt_in_adds_success_ppm_over_the_wire() {
    let daemon = daemon("fidelity", 2);
    let mut client = connect(&daemon);
    let qasm_src = queko_qasm("aspen16", 20, 4);
    let with = client
        .submit("aspen16", "qlosure", &qasm_src, Priority::Batch, true)
        .unwrap();
    let summary = client.wait(with, WAIT).unwrap();
    let ppm = summary.success_ppm.expect("opt-in reports success_ppm");
    assert!((1..=1_000_000).contains(&ppm), "got {ppm}");
    assert!(summary.pipeline.ends_with("fidelity"));
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn typed_errors_for_bad_submissions_and_unknown_ids() {
    let daemon = daemon("typed-errors", 1);
    let mut client = connect(&daemon);
    let expect_code = |result: Result<u64, ClientError>, want: ErrorCode| match result {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, want),
        other => panic!("expected server error {want:?}, got {other:?}"),
    };
    let ghz = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncx q[0], q[2];\n";
    expect_code(
        client.submit("eagle-9000", "qlosure", ghz, Priority::Batch, false),
        ErrorCode::UnknownBackend,
    );
    expect_code(
        client.submit("aspen16", "magic", ghz, Priority::Batch, false),
        ErrorCode::UnknownMapper,
    );
    expect_code(
        client.submit("aspen16", "qlosure", "qreg q[", Priority::Batch, false),
        ErrorCode::QasmError,
    );
    expect_code(
        client.submit(
            "line:3",
            "qlosure",
            "OPENQASM 2.0;\nqreg q[9];\ncx q[0], q[8];\n",
            Priority::Batch,
            false,
        ),
        ErrorCode::DeviceTooSmall,
    );
    match client.poll(12345).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownId),
        other => panic!("expected unknown-id, got {other:?}"),
    }
    // The connection survived five rejected requests.
    assert_eq!(client.stats().unwrap().submitted, 0);
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn version_mismatch_and_malformed_frames_are_rejected_politely() {
    let daemon = daemon("rawframes", 1);
    let stream = UnixStream::connect(unix_path(&daemon)).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut roundtrip = |line: &str| -> Response {
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        parse_response(reply.trim_end()).unwrap()
    };
    // Wrong protocol version → typed version-mismatch (the ROADMAP rule).
    let mismatched = encode_request(&Request::Stats)
        .unwrap()
        .replace("\"v\":1", "\"v\":9");
    match roundtrip(&mismatched) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::VersionMismatch),
        other => panic!("expected version mismatch, got {other:?}"),
    }
    // Garbage → bad-request, and the connection keeps serving.
    match roundtrip("this is not json") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected bad-request, got {other:?}"),
    }
    match roundtrip(&encode_request(&Request::Stats).unwrap()) {
        Response::Stats(stats) => assert_eq!(stats.submitted, 0),
        other => panic!("expected stats after recovery, got {other:?}"),
    }
    drop((reader, writer));
    let mut client = connect(&daemon);
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn graceful_shutdown_drains_queued_jobs_and_removes_the_socket() {
    let daemon = daemon("drain", 1);
    let socket = unix_path(&daemon);
    let mut client = Client::connect(&socket).unwrap();
    let ids: Vec<u64> = (0..3)
        .map(|seed| {
            client
                .submit(
                    "aspen16",
                    "qlosure",
                    &queko_qasm("aspen16", 40, seed),
                    Priority::Batch,
                    false,
                )
                .unwrap()
        })
        .collect();
    // Shut down while jobs are still queued/running.
    let pending = client.shutdown().unwrap();
    assert!(pending >= 1, "shutdown acknowledged with work in flight");
    let stats = daemon.join().unwrap();
    assert_eq!(
        stats.completed,
        ids.len() as u64,
        "every admitted job drains before exit"
    );
    assert_eq!(stats.failed, 0);
    assert!(!socket.exists(), "socket file is removed on exit");
    // Late clients are refused outright (connection refused / not found).
    assert!(Client::connect(&socket).is_err());
}

#[test]
fn full_admission_queue_rejects_with_queue_full() {
    // Single worker, admission bound of 1: the slow job occupies the
    // worker, one more parks in the engine buffer/queue, and pushing
    // enough extra jobs must eventually hit a typed queue-full rejection.
    let daemon = daemon_with("queuefull", 1, 1, 64);
    let mut client = connect(&daemon);
    let slow = queko_qasm("king9", 120, 3);
    let quick = queko_qasm("aspen16", 10, 1);
    client
        .submit("king9", "qlosure", &slow, Priority::Batch, false)
        .unwrap();
    let mut saw_queue_full = false;
    for _ in 0..8 {
        match client.submit("aspen16", "qlosure", &quick, Priority::Batch, false) {
            Ok(_) => continue,
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::QueueFull);
                saw_queue_full = true;
                break;
            }
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    assert!(
        saw_queue_full,
        "8 rapid submissions over a capacity-1 queue must trip admission"
    );
    assert!(client.stats().unwrap().rejected >= 1);
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

// ───────────────────────── lifecycle hardening ─────────────────────────

#[test]
fn a_second_daemon_cannot_steal_a_live_socket() {
    let first = daemon("no-steal", 1);
    let socket = unix_path(&first);
    // The regression: binding a second daemon on the same path used to
    // silently unlink the live socket, orphaning the first daemon's
    // clients. Now the bind probes, finds a live daemon, and refuses.
    let err = match service::daemon::spawn(DaemonConfig::at(&socket)) {
        Err(e) => e,
        Ok(_) => panic!("second daemon must not bind a live socket"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    // The first daemon kept its socket and keeps serving.
    let mut client = Client::connect(&socket).unwrap();
    assert_eq!(client.stats().unwrap().submitted, 0);
    client.shutdown().unwrap();
    first.join().unwrap();
}

#[test]
fn a_stale_socket_file_is_replaced_not_fatal() {
    let socket = socket_path("stale-file");
    // A crashed daemon's leftover: a socket file nothing listens on.
    drop(std::os::unix::net::UnixListener::bind(&socket).unwrap());
    assert!(socket.exists(), "the stale file is on disk");
    let daemon = service::daemon::spawn(DaemonConfig::at(&socket))
        .expect("a stale socket file must be unlinked and replaced");
    let mut client = connect(&daemon);
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn stalled_connections_are_disconnected_at_the_idle_deadline() {
    let mut config = DaemonConfig::at(socket_path("slowloris"));
    config.service.workers = 1;
    config.read_timeout = Duration::from_millis(300);
    let daemon = service::daemon::spawn(config).unwrap();
    // A connect-and-stall client: opens the connection, never sends a
    // complete frame. The daemon must hang up at the idle deadline
    // instead of pinning the connection thread forever.
    let mut stall = UnixStream::connect(unix_path(&daemon)).unwrap();
    stall.write_all(b"{\"never-finished").unwrap(); // partial frame
    stall.flush().unwrap();
    stall
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 64];
    match stall.read(&mut buf) {
        Ok(0) => {} // clean server-side hangup
        Ok(n) => panic!("expected a hangup, got {n} bytes"),
        Err(e) => panic!("expected EOF within the read timeout, got {e}"),
    }
    // The daemon is still healthy for well-behaved clients.
    let mut client = connect(&daemon);
    assert_eq!(client.stats().unwrap().submitted, 0);
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn connections_over_the_cap_get_a_typed_busy_frame() {
    let mut config = DaemonConfig::at(socket_path("busy"));
    config.service.workers = 1;
    config.max_connections = 1;
    let daemon = service::daemon::spawn(config).unwrap();
    // Occupy the only slot, with a round trip so the accept definitely
    // registered before the second connect races it.
    let mut occupant = connect(&daemon);
    assert_eq!(occupant.stats().unwrap().submitted, 0);
    // The next connection must be refused with a typed busy frame, not
    // silently dropped and not queued forever.
    let refused = UnixStream::connect(unix_path(&daemon)).unwrap();
    let mut reader = BufReader::new(refused);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    match parse_response(reply.trim_end()).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Busy),
        other => panic!("expected busy, got {other:?}"),
    }
    occupant.shutdown().unwrap();
    daemon.join().unwrap();
}

// ───────────────────────────── TCP mirror ─────────────────────────────

/// Spawns a daemon on a kernel-assigned TCP port.
fn tcp_daemon(workers: usize) -> DaemonHandle {
    let mut config = DaemonConfig::listening(Endpoint::Tcp("127.0.0.1:0".to_string()));
    config.service.workers = workers;
    service::daemon::spawn(config).expect("daemon binds a TCP port")
}

#[test]
fn tcp_submit_wait_roundtrip_returns_a_verified_summary() {
    let daemon = tcp_daemon(2);
    assert!(
        matches!(&daemon.endpoint, Endpoint::Tcp(addr) if !addr.ends_with(":0")),
        "port 0 resolves to the bound port"
    );
    let mut client = connect(&daemon);
    let qasm_src = queko_qasm("aspen16", 20, 7);
    let id = client
        .submit(
            "aspen16",
            "qlosure",
            &qasm_src,
            Priority::Interactive,
            false,
        )
        .unwrap();
    let summary = client.wait(id, WAIT).unwrap();
    assert!(summary.verified);
    assert_eq!(summary.pipeline, "weights → identity → qlosure");
    let stats = client.stats().unwrap();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.protocol, service::PROTOCOL_VERSION);
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn tcp_version_mismatch_and_malformed_frames_are_rejected_politely() {
    // The same polite-rejection suite as the Unix transport: frames are
    // transport-agnostic, so the behavior must be too.
    let daemon = tcp_daemon(1);
    let Endpoint::Tcp(addr) = &daemon.endpoint else {
        panic!("tcp daemon has a tcp endpoint");
    };
    let stream = std::net::TcpStream::connect(addr.as_str()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut roundtrip = |line: &str| -> Response {
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        parse_response(reply.trim_end()).unwrap()
    };
    let mismatched = encode_request(&Request::Stats)
        .unwrap()
        .replace("\"v\":1", "\"v\":9");
    match roundtrip(&mismatched) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::VersionMismatch),
        other => panic!("expected version mismatch, got {other:?}"),
    }
    match roundtrip("this is not json") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected bad-request, got {other:?}"),
    }
    match roundtrip(&encode_request(&Request::Stats).unwrap()) {
        Response::Stats(stats) => assert_eq!(stats.submitted, 0),
        other => panic!("expected stats after recovery, got {other:?}"),
    }
    drop((reader, writer));
    let mut client = connect(&daemon);
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn tcp_graceful_shutdown_drains_queued_jobs() {
    let daemon = tcp_daemon(1);
    let mut client = connect(&daemon);
    let ids: Vec<u64> = (0..3)
        .map(|seed| {
            client
                .submit(
                    "aspen16",
                    "qlosure",
                    &queko_qasm("aspen16", 40, seed),
                    Priority::Batch,
                    false,
                )
                .unwrap()
        })
        .collect();
    let pending = client.shutdown().unwrap();
    assert!(pending >= 1, "shutdown acknowledged with work in flight");
    let stats = daemon.join().unwrap();
    assert_eq!(
        stats.completed,
        ids.len() as u64,
        "every admitted job drains before exit"
    );
    assert_eq!(stats.failed, 0);
}

// ──────────────────────────── metrics + router ────────────────────────

#[test]
fn metrics_round_trip_reports_percentiles_and_pass_timings() {
    let daemon = daemon("metrics", 2);
    let mut client = connect(&daemon);
    let id = client
        .submit(
            "aspen16",
            "qlosure",
            &queko_qasm("aspen16", 20, 11),
            Priority::Interactive,
            false,
        )
        .unwrap();
    client.wait(id, WAIT).unwrap();
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.stats.completed, 1);
    assert_eq!(metrics.queue_samples, 1);
    assert!(metrics.queue_p50 <= metrics.queue_max);
    assert!(
        metrics
            .passes
            .iter()
            .any(|(label, runs, _)| label == "routing:qlosure" && *runs == 1),
        "pass aggregates must cover the routed job: {:?}",
        metrics.passes
    );
    // The scrape rendering carries the counters as flat `name value`.
    let text = metrics.render();
    assert!(text.contains("qlosure_jobs_completed_total 1"));
    assert!(text.contains("qlosure_queue_seconds{quantile=\"0.99\"}"));
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

/// Depth-first search for a span named `name` anywhere in the tree.
fn find_span<'a>(node: &'a service::SpanNode, name: &str) -> Option<&'a service::SpanNode> {
    if node.name == name {
        return Some(node);
    }
    node.children
        .iter()
        .find_map(|child| find_span(child, name))
}

#[test]
fn trace_round_trip_nests_intake_pass_and_fragment_spans() {
    let daemon = daemon("trace", 2);
    let mut client = connect(&daemon);
    let qasm_src = queko_qasm("aspen16", 20, 3);
    let id = client
        .submit_traced(
            "aspen16",
            "qlosure",
            &qasm_src,
            Priority::Interactive,
            false,
            service::Strategy::Hier,
            true,
        )
        .unwrap();
    client.wait(id, WAIT).unwrap();
    let (trace_id, root) = client.trace(id).unwrap();
    assert_eq!(
        trace_id.len(),
        16,
        "trace IDs are 16 hex digits: {trace_id}"
    );
    // The tree nests intake → pass → fragment: queue wait and the
    // pipeline stages sit directly under the job root, and the
    // hierarchical router's per-fragment spans sit under its pass span.
    assert_eq!(root.name, "job");
    assert_eq!(root.start_ns, 0, "wire timestamps are root-relative");
    assert!(root.end_ns > 0);
    let wait_span = find_span(&root, "intake:queue-wait").expect("queue-wait span");
    assert!(root.children.iter().any(|c| c.name == wait_span.name));
    assert!(find_span(&root, "engine:pickup").is_some());
    let route = find_span(&root, "routing:hier-route").expect("hier routing pass span");
    let fragment = find_span(route, "hier:fragment").expect("fragment spans nest under the pass");
    assert!(
        fragment.notes.iter().any(|(key, value)| key == "plan_tier"
            && ["exact", "canonical", "disk", "miss"].contains(&value.as_str())),
        "fragments carry their plan-store tier: {:?}",
        fragment.notes
    );
    // An untraced fast job retains nothing and answers typed.
    let id = client
        .submit(
            "aspen16",
            "qlosure",
            &qasm_src,
            Priority::Interactive,
            false,
        )
        .unwrap();
    client.wait(id, WAIT).unwrap();
    match client.trace(id) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownId),
        other => panic!("expected unknown-id for an untraced job, got {other:?}"),
    }
    // The scrape gauges ride along the same metrics frame (additive).
    let metrics = client.metrics().unwrap();
    assert!(metrics.uptime_seconds > 0.0);
    assert!(metrics.render().contains("qlosure_uptime_seconds "));
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn router_stitches_its_span_around_the_shard_tree() {
    let shard_a = daemon("trace-shard-a", 1);
    let shard_b = daemon("trace-shard-b", 1);
    let router = service::router::spawn(RouterConfig::fronting(
        Endpoint::Tcp("127.0.0.1:0".to_string()),
        vec![shard_a.endpoint.clone(), shard_b.endpoint.clone()],
    ))
    .unwrap();
    let mut client = Client::connect_endpoint(&router.endpoint).unwrap();
    let id = client
        .submit_traced(
            "aspen16",
            "qlosure",
            &queko_qasm("aspen16", 10, 9),
            Priority::Interactive,
            false,
            service::Strategy::Flat,
            true,
        )
        .unwrap();
    client.wait(id, WAIT).unwrap();
    // The routed trace comes back wrapped: a router span recording the
    // shard the job landed on, with the shard's own tree (and its trace
    // ID, propagated over the wire) nested inside.
    let (trace_id, root) = client.trace(id).unwrap();
    assert_eq!(trace_id.len(), 16);
    assert_eq!(root.name, "router:route");
    let expected_shard = content_shard("aspen16", 2).to_string();
    assert!(
        root.notes
            .iter()
            .any(|(key, value)| key == "shard" && *value == expected_shard),
        "router span must record the landing shard: {:?}",
        root.notes
    );
    assert_eq!(root.children.len(), 1);
    assert_eq!(root.children[0].name, "job");
    assert!(find_span(&root, "intake:queue-wait").is_some());
    assert!(find_span(&root, "routing:qlosure").is_some());
    client.shutdown().unwrap();
    router.join().unwrap();
    shard_a.join().unwrap();
    shard_b.join().unwrap();
}

#[test]
fn router_partitions_devices_across_shards_and_remaps_ids() {
    let shard_a = daemon("router-shard-a", 1);
    let shard_b = daemon("router-shard-b", 1);
    let shards = vec![shard_a.endpoint.clone(), shard_b.endpoint.clone()];
    let router = service::router::spawn(RouterConfig::fronting(
        Endpoint::Tcp("127.0.0.1:0".to_string()),
        shards.clone(),
    ))
    .unwrap();
    let mut client = Client::connect_endpoint(&router.endpoint).unwrap();

    // A roster of distinct devices, routed one job each through the
    // router. Track the expected per-shard submit counts by the same
    // content key the router uses.
    let backends: Vec<String> = (4..12).map(|n| format!("line:{n}")).collect();
    let mut expected = [0u64; 2];
    for backend in &backends {
        expected[content_shard(backend, 2)] += 1;
        let id = client
            .submit(
                backend,
                "qlosure",
                &queko_qasm(backend, 10, 1),
                Priority::Interactive,
                false,
            )
            .unwrap();
        let summary = client.wait(id, WAIT).unwrap();
        assert!(summary.verified, "{backend} must route and verify");
    }
    assert!(
        expected[0] > 0 && expected[1] > 0,
        "the roster must exercise both shards: {expected:?}"
    );

    // The router's aggregate view sums the fleet.
    let total = client.stats().unwrap();
    assert_eq!(total.submitted, backends.len() as u64);
    assert_eq!(total.completed, backends.len() as u64);

    // Each shard saw exactly the devices that hash to it — the
    // cache-locality contract, asserted via per-shard stats.
    for (idx, endpoint) in shards.iter().enumerate() {
        let mut direct = Client::connect_endpoint(endpoint).unwrap();
        let stats = direct.stats().unwrap();
        assert_eq!(
            stats.submitted, expected[idx],
            "shard {idx} must see only its content keys"
        );
    }

    // Shutdown through the router drains every shard, then the router.
    client.shutdown().unwrap();
    router.join().unwrap();
    assert_eq!(shard_a.join().unwrap().failed, 0);
    assert_eq!(shard_b.join().unwrap().failed, 0);
}

#[test]
fn router_passes_shard_errors_through_and_reports_dead_shards_typed() {
    let shard = daemon("router-errors", 1);
    // One live shard, one endpoint nothing listens on.
    let dead = Endpoint::Unix(socket_path("router-dead-shard"));
    let live_first = vec![shard.endpoint.clone(), dead];
    let router = service::router::spawn(RouterConfig::fronting(
        Endpoint::Tcp("127.0.0.1:0".to_string()),
        live_first,
    ))
    .unwrap();
    let mut client = Client::connect_endpoint(&router.endpoint).unwrap();

    // A typed shard error passes through unchanged: unknown backend on
    // whichever shard the key routes to — make sure we pick a key for
    // the live shard 0. (Vary a suffix rather than appending one fixed
    // character: FNV-1a's prime is odd, so `hash % 2` is the hash's
    // parity and appending an even byte can never flip it.)
    let bogus = (0..)
        .map(|i| format!("eagle-9000-{i}"))
        .find(|key| content_shard(key, 2) == 0)
        .expect("a bogus key lands on the live shard");
    let ghz = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncx q[0], q[2];\n";
    match client.submit(&bogus, "qlosure", ghz, Priority::Batch, false) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownBackend),
        other => panic!("expected the shard's typed error, got {other:?}"),
    }

    // A key routed to the dead shard answers shard-unavailable, typed.
    let unlucky = (0..)
        .map(|i| format!("line:5-{i}"))
        .find(|key| content_shard(key, 2) == 1)
        .expect("an unlucky key lands on the dead shard");
    match client.submit(
        &unlucky,
        "qlosure",
        &queko_qasm("line:5", 5, 1),
        Priority::Batch,
        false,
    ) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::ShardUnavailable),
        other => panic!("expected shard-unavailable, got {other:?}"),
    }

    client.shutdown().unwrap();
    router.join().unwrap();
    shard.join().unwrap();
}

// ──────────────────────────── observability ───────────────────────────

/// Spawns a daemon with the observability knobs set explicitly.
fn obs_daemon(tag: &str, workers: usize, obs_sample: f64, stall_after: f64) -> DaemonHandle {
    let mut config = DaemonConfig::at(socket_path(tag));
    config.service = ServiceConfig {
        workers,
        obs_sample_seconds: obs_sample,
        stall_after_seconds: stall_after,
        ..ServiceConfig::default()
    };
    service::daemon::spawn(config).expect("daemon binds its socket")
}

#[test]
fn metrics_history_round_trips_a_monotone_sample_window() {
    // A fast sampler so the window fills within the test budget; the
    // watchdog stays at its default (nothing here stalls).
    let daemon = obs_daemon("history", 2, 0.05, 60.0);
    let mut client = connect(&daemon);
    let id = client
        .submit(
            "aspen16",
            "qlosure",
            &queko_qasm("aspen16", 20, 21),
            Priority::Interactive,
            false,
        )
        .unwrap();
    client.wait(id, WAIT).unwrap();
    // Poll until the ring holds enough samples to difference (the sampler
    // runs on its own clock).
    let deadline = std::time::Instant::now() + WAIT;
    let history = loop {
        let history = client.metrics_history().unwrap();
        let enough = history
            .series
            .first()
            .is_some_and(|s| s.samples.len() >= 3 && s.samples.last().unwrap().completed >= 1);
        if enough {
            break history;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sampler must produce 3 post-completion samples in time"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(history.sample_seconds > 0.0);
    assert_eq!(history.series.len(), 1, "an unfronted daemon is one series");
    let series = &history.series[0];
    assert_eq!(series.shard, 0);
    for pair in series.samples.windows(2) {
        assert_eq!(pair[1].index, pair[0].index + 1, "no gaps in the window");
        assert!(pair[1].uptime_seconds >= pair[0].uptime_seconds);
    }
    assert!(series.rates.window_seconds > 0.0);
    assert!(series.rates.jobs_per_second >= 0.0);
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn router_merges_history_series_and_relabels_shards() {
    let shard_a = obs_daemon("history-shard-a", 1, 0.05, 60.0);
    let shard_b = obs_daemon("history-shard-b", 1, 0.05, 60.0);
    let router = service::router::spawn(RouterConfig::fronting(
        Endpoint::Tcp("127.0.0.1:0".to_string()),
        vec![shard_a.endpoint.clone(), shard_b.endpoint.clone()],
    ))
    .unwrap();
    let mut client = Client::connect_endpoint(&router.endpoint).unwrap();
    // Wait until both shards have at least one sample in the ring.
    let deadline = std::time::Instant::now() + WAIT;
    let history = loop {
        let history = client.metrics_history().unwrap();
        if history.series.len() == 2 && history.series.iter().all(|s| !s.samples.is_empty()) {
            break history;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "both shards must report a sample in time"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    // Series come back relabeled with the fleet shard index, in order.
    assert_eq!(history.series[0].shard, 0);
    assert_eq!(history.series[1].shard, 1);
    assert!(history.sample_seconds > 0.0);
    client.shutdown().unwrap();
    router.join().unwrap();
    shard_a.join().unwrap();
    shard_b.join().unwrap();
}

#[test]
fn watchdog_flags_a_stalled_job_with_a_wire_retrievable_flight_record() {
    // stall_after = 0 flags every in-flight job on the watchdog's first
    // tick, so a long job is "stalled" the moment it starts running. The
    // job does NOT opt into tracing — the flight record must come from
    // the watchdog alone.
    let daemon = obs_daemon("watchdog", 1, 0.0, 0.0);
    let mut client = connect(&daemon);
    let id = client
        .submit(
            "king9",
            "qlosure",
            &queko_qasm("king9", 150, 2),
            Priority::Batch,
            false,
        )
        .unwrap();
    // Poll the trace store while the job is still in flight: the watchdog
    // publishes a partial span tree keyed by the job ID.
    let deadline = std::time::Instant::now() + WAIT;
    let root = loop {
        match client.trace(id) {
            Ok((trace_id, root)) => {
                assert_eq!(trace_id.len(), 16);
                break root;
            }
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::UnknownId, "job must not fail");
                assert!(
                    std::time::Instant::now() < deadline,
                    "watchdog must capture a flight record in time"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(other) => panic!("unexpected trace failure: {other}"),
        }
    };
    // The record is a synthesized job root with the stall marker nested
    // inside, carrying how long the job had been running and a journal
    // tail for context.
    assert_eq!(root.name, "job");
    let stall = find_span(&root, "watchdog:stall").expect("stall span in the flight record");
    assert!(
        stall.notes.iter().any(|(key, _)| key == "running_seconds"),
        "stall span records the in-flight duration: {:?}",
        stall.notes
    );
    // The same stall shows up in the event journal over the wire.
    let events = client.events(obs::Level::Warn, 0).unwrap();
    assert!(
        events
            .events
            .iter()
            .any(|e| e.subsystem == "watchdog" && e.level == obs::Level::Warn),
        "journal must carry the watchdog warning: {:?}",
        events.events
    );
    // Seqs are monotone and the cursor contract holds: re-asking after
    // the newest seq returns nothing new (and nothing dropped in between).
    let newest = events.events.iter().map(|e| e.seq).max().unwrap();
    let after = client.events(obs::Level::Debug, newest).unwrap();
    assert!(
        after.events.iter().all(|e| e.seq > newest),
        "a seq cursor must exclude everything at or before it"
    );
    // The job itself still completes and overwrites nothing.
    let summary = client.wait(id, WAIT).unwrap();
    assert!(summary.verified);
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

// ─────────────────────── server-parked wait ───────────────────────

/// A three-qubit GHZ circuit: the smallest job that still routes.
const GHZ3: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n\
                    h q[0];\ncx q[0], q[1];\ncx q[0], q[2];\n";

#[test]
fn wait_parks_until_the_timeout_then_answers_like_poll() {
    let daemon = daemon("wait-park", 1);
    let mut client = connect(&daemon);
    // A slow job pins the single worker, so the quick one stays queued.
    let slow = client
        .submit(
            "king9",
            "qlosure",
            &queko_qasm("king9", 150, 4),
            Priority::Batch,
            false,
        )
        .unwrap();
    let queued = client
        .submit("aspen16", "qlosure", GHZ3, Priority::Batch, false)
        .unwrap();
    let t0 = Instant::now();
    let reply = client
        .request(&Request::Wait {
            id: queued,
            timeout_ms: 50,
        })
        .unwrap();
    let parked = t0.elapsed();
    assert!(
        matches!(reply, Response::Pending { id, .. } if id == queued),
        "a job still queued at the timeout answers pending: {reply:?}"
    );
    assert!(
        parked >= Duration::from_millis(50),
        "the daemon must park for the whole timeout, parked {parked:?}"
    );
    // With the time it has left, the client's wait returns the result.
    let summary = client.wait(queued, WAIT).unwrap();
    assert!(summary.verified);
    // Once finished, `wait` answers at once, exactly like `poll`.
    let reply = client
        .request(&Request::Wait {
            id: queued,
            timeout_ms: 60_000,
        })
        .unwrap();
    assert_eq!(reply, client.poll(queued).unwrap());
    // A never-submitted ID is unknown, not a hang.
    match client.request(&Request::Wait {
        id: 999_999,
        timeout_ms: 60_000,
    }) {
        Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::UnknownId),
        other => panic!("expected unknown-id, got {other:?}"),
    }
    client.wait(slow, WAIT).unwrap();
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn huge_wait_timeouts_mean_no_deadline_instead_of_overflowing() {
    let daemon = daemon("wait-overflow", 1);
    let mut client = connect(&daemon);
    let id = client
        .submit("aspen16", "qlosure", GHZ3, Priority::Interactive, false)
        .unwrap();
    // `Instant::now() + Duration::MAX` would panic; the wait treats it as
    // "no deadline" and returns the finished job's summary.
    let summary = client.wait(id, Duration::MAX).unwrap();
    assert!(summary.verified);
    // The same over the raw wire: u64::MAX ms reaches the daemon's
    // deadline arithmetic only after its clamp.
    let stream = UnixStream::connect(unix_path(&daemon)).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut roundtrip = |line: &str| -> Response {
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        parse_response(reply.trim_end()).unwrap()
    };
    match roundtrip(&format!(
        "{{\"v\":1,\"op\":\"wait\",\"id\":{id},\"timeout_ms\":18446744073709551615}}"
    )) {
        Response::Done { id: got, summary } => {
            assert_eq!(got, id);
            assert!(summary.verified);
        }
        other => panic!("expected done, got {other:?}"),
    }
    // The connection thread survived and keeps serving.
    match roundtrip(&encode_request(&Request::Stats).unwrap()) {
        Response::Stats(stats) => assert_eq!(stats.completed, 1),
        other => panic!("expected stats, got {other:?}"),
    }
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

/// Two one-worker shards behind a router on a kernel-assigned TCP port.
fn router_fleet(tag: &str) -> (service::RouterHandle, DaemonHandle, DaemonHandle) {
    let shard_a = daemon(&format!("{tag}-a"), 1);
    let shard_b = daemon(&format!("{tag}-b"), 1);
    let router = service::router::spawn(RouterConfig::fronting(
        Endpoint::Tcp("127.0.0.1:0".to_string()),
        vec![shard_a.endpoint.clone(), shard_b.endpoint.clone()],
    ))
    .unwrap();
    (router, shard_a, shard_b)
}

#[test]
fn router_forwards_wait_and_remaps_the_id() {
    let (router, shard_a, shard_b) = router_fleet("wait-router");
    // A device on shard 1, so router ID 2j+1 never equals shard ID j.
    let backend = (3..)
        .map(|n| format!("line:{n}"))
        .find(|key| content_shard(key, 2) == 1)
        .expect("some line device lands on shard 1");
    let mut client = Client::connect_endpoint(&router.endpoint).unwrap();
    let id = client
        .submit(&backend, "qlosure", GHZ3, Priority::Interactive, false)
        .unwrap();
    assert_eq!(id % 2, 1);
    match client.request(&Request::Wait {
        id,
        timeout_ms: 60_000,
    }) {
        Ok(Response::Done { id: got, summary }) => {
            assert_eq!(got, id, "the done reply carries the router ID");
            assert!(summary.verified);
        }
        other => panic!("expected done, got {other:?}"),
    }
    match client.request(&Request::Wait {
        id: id + 1_000_000,
        timeout_ms: 60_000,
    }) {
        Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::UnknownId),
        other => panic!("expected unknown-id, got {other:?}"),
    }
    client.shutdown().unwrap();
    router.join().unwrap();
    shard_a.join().unwrap();
    shard_b.join().unwrap();
}

#[test]
fn fresh_connection_round_trips_through_the_router_take_milliseconds() {
    // The serving latency gate: a client that connects, submits a tiny
    // job and waits for it must see the mapping time plus a few socket
    // hops, not a timer. A sleep anywhere on the path (an accept tick at
    // the router or at the shard it dials, a poll backoff) puts the
    // median at tens of milliseconds.
    let (router, shard_a, shard_b) = router_fleet("latency-gate");
    let mut samples: Vec<Duration> = (0..21)
        .map(|_| {
            let t0 = Instant::now();
            let mut client = Client::connect_endpoint(&router.endpoint).unwrap();
            let id = client
                .submit("line:3", "qlosure", GHZ3, Priority::Interactive, false)
                .unwrap();
            assert!(client.wait(id, WAIT).unwrap().verified);
            t0.elapsed()
        })
        .collect();
    samples.sort();
    let median = samples[samples.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median fresh-connection submit→wait through the router took {median:?} \
         (all samples: {samples:?})"
    );
    let mut client = Client::connect_endpoint(&router.endpoint).unwrap();
    client.shutdown().unwrap();
    router.join().unwrap();
    shard_a.join().unwrap();
    shard_b.join().unwrap();
}

/// Runs `join` on its own thread and reports whether it returned within
/// `limit` (a blocked accept that nothing wakes would hang it forever).
fn joins_within<T: Send + 'static>(
    join: impl FnOnce() -> std::io::Result<T> + Send + 'static,
    limit: Duration,
) -> bool {
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = tx.send(join().is_ok());
    });
    match rx.recv_timeout(limit) {
        Ok(joined) => {
            waiter.join().expect("the join thread sent its result");
            joined
        }
        // Still blocked (or panicked): a hung waiter cannot be joined.
        Err(_) => false,
    }
}

#[test]
fn shutdown_wakes_the_blocking_accept_on_a_unix_socket() {
    let daemon = daemon("accept-wake", 1);
    connect(&daemon).shutdown().unwrap();
    assert!(
        joins_within(move || daemon.join(), Duration::from_secs(5)),
        "the daemon must exit within 5 s of shutdown"
    );
}

#[test]
fn shutdown_wakes_the_blocking_accept_on_a_wildcard_tcp_bind() {
    // Both servers bound to 0.0.0.0: the wake connection must reach the
    // listener through loopback, not the unconnectable wildcard address.
    let wildcard = || Endpoint::Tcp("0.0.0.0:0".to_string());
    let mut config = DaemonConfig::listening(wildcard());
    config.service.workers = 1;
    let shard = service::daemon::spawn(config).unwrap();
    let router = service::router::spawn(RouterConfig::fronting(
        wildcard(),
        vec![shard.endpoint.clone()],
    ))
    .unwrap();
    let mut client = Client::connect_endpoint(&router.endpoint).unwrap();
    let id = client
        .submit("line:3", "qlosure", GHZ3, Priority::Interactive, false)
        .unwrap();
    assert!(client.wait(id, WAIT).unwrap().verified);
    client.shutdown().unwrap();
    assert!(
        joins_within(move || router.join(), Duration::from_secs(5)),
        "the router must exit within 5 s of shutdown"
    );
    assert!(
        joins_within(move || shard.join(), Duration::from_secs(5)),
        "the shard must exit within 5 s of the fanned-out shutdown"
    );
}
