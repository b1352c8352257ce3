//! `qlosure-cli` — command-line client for `qlosured` (or a
//! `qlosure-router` — same protocol).
//!
//! ```text
//! qlosure-cli [--socket ENDPOINT] submit --backend NAME --mapper NAME
//!             (--qasm FILE | --queko DEPTH [--seed N])
//!             [--priority interactive|batch] [--fidelity]
//!             [--strategy flat|hier|auto] [--trace]
//!             [--wait [--timeout SECS]]
//! qlosure-cli [--socket ENDPOINT] poll ID
//! qlosure-cli [--socket ENDPOINT] trace ID [--format tree|chrome]
//! qlosure-cli [--socket ENDPOINT] stats
//! qlosure-cli [--socket ENDPOINT] metrics
//! qlosure-cli [--socket ENDPOINT] events [--level L] [--follow]
//! qlosure-cli [--socket ENDPOINT] history
//! qlosure-cli [--socket ENDPOINT] top [--interval SECS] [--rounds N]
//! qlosure-cli [--socket ENDPOINT] shutdown
//! ```
//!
//! `ENDPOINT` is `unix:/path`, `tcp:host:port`, or a bare socket path
//! (default `/tmp/qlosured.sock`). Every command but `metrics`,
//! `trace`, `events`, `history` and `top` prints the daemon's response
//! as one JSON line on stdout (the same frame that crossed the wire),
//! so shell pipelines and the CI smoke step can assert on fields like
//! `"verified":true`; `metrics` prints the flat `name value` text a
//! scraper ingests, and `trace` renders the retained span tree —
//! indented human-readable by default, or Chrome trace-event JSON
//! (`--format chrome`, loadable in `chrome://tracing` / Perfetto).
//!
//! The observability trio reads the flight recorder: `events` prints
//! the journal window (`--level warn` filters, `--follow` tails it on a
//! sequence-number cursor), `history` prints one greppable line per
//! shard from the sampler's `metrics-history` window (rates included),
//! and `top` polls `metrics-history` into a live single-screen fleet
//! dashboard (`--rounds N` bounds the refresh loop for scripts; the
//! default runs until interrupted). Exit status: 0 on success, 2 on a
//! typed server error, 1 on transport failure.

use service::proto::{encode_response, Priority, Response, Strategy};
use service::{Client, ClientError, Endpoint};
use std::time::Duration;
use trace::journal::Level;

fn usage() -> ! {
    eprintln!(
        "usage: qlosure-cli [--socket ENDPOINT] <command>\n\
         ENDPOINT is unix:/path, tcp:host:port, or a bare socket path\n\
         commands:\n\
         \x20 submit --backend NAME --mapper NAME (--qasm FILE | --queko DEPTH [--seed N])\n\
         \x20        [--priority interactive|batch] [--fidelity] [--strategy flat|hier|auto]\n\
         \x20        [--trace] [--wait [--timeout SECS]]\n\
         \x20 poll ID\n\
         \x20 trace ID [--format tree|chrome]\n\
         \x20 stats\n\
         \x20 metrics\n\
         \x20 events [--level debug|info|warn|error] [--follow]\n\
         \x20 history\n\
         \x20 top [--interval SECS] [--rounds N]\n\
         \x20 shutdown"
    );
    std::process::exit(2);
}

fn fail(e: &ClientError) -> ! {
    eprintln!("qlosure-cli: {e}");
    let status = match e {
        ClientError::Server { .. } | ClientError::Timeout { .. } => 2,
        _ => 1,
    };
    std::process::exit(status);
}

/// Prints a response frame the way it crossed the wire.
fn print_response(response: &Response) {
    // A response parsed off the wire contains only finite numbers (the
    // parser rejects non-finite), so re-encoding cannot fail.
    println!(
        "{}",
        encode_response(response).expect("wire frames re-encode")
    );
}

struct SubmitArgs {
    backend: String,
    mapper: String,
    qasm: Option<String>,
    queko: Option<usize>,
    seed: u64,
    priority: Priority,
    fidelity: bool,
    strategy: Strategy,
    trace: bool,
    wait: bool,
    timeout: u64,
}

fn parse_submit(args: &mut std::env::Args) -> SubmitArgs {
    let mut parsed = SubmitArgs {
        backend: String::new(),
        mapper: String::new(),
        qasm: None,
        queko: None,
        seed: 0,
        priority: Priority::Batch,
        fidelity: false,
        strategy: Strategy::Flat,
        trace: false,
        wait: false,
        timeout: 600,
    };
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--backend" => parsed.backend = value("--backend"),
            "--mapper" => parsed.mapper = value("--mapper"),
            "--qasm" => parsed.qasm = Some(value("--qasm")),
            "--queko" => match value("--queko").parse() {
                Ok(depth) if depth >= 1 => parsed.queko = Some(depth),
                _ => usage(),
            },
            "--seed" => match value("--seed").parse() {
                Ok(seed) => parsed.seed = seed,
                Err(_) => usage(),
            },
            "--priority" => match Priority::from_wire(&value("--priority")) {
                Some(p) => parsed.priority = p,
                None => usage(),
            },
            "--fidelity" => parsed.fidelity = true,
            "--strategy" => match Strategy::from_wire(&value("--strategy")) {
                Some(s) => parsed.strategy = s,
                None => usage(),
            },
            "--trace" => parsed.trace = true,
            "--wait" => parsed.wait = true,
            "--timeout" => match value("--timeout").parse() {
                Ok(secs) => parsed.timeout = secs,
                Err(_) => usage(),
            },
            _ => usage(),
        }
    }
    if parsed.backend.is_empty()
        || parsed.mapper.is_empty()
        || parsed.qasm.is_some() == parsed.queko.is_some()
    {
        usage();
    }
    parsed
}

/// The QASM source to submit: a file, or a generated QUEKO instance on
/// the target backend (known-optimal depth, zero-SWAP solution hidden by
/// relabeling — the standard smoke workload).
fn submit_source(args: &SubmitArgs) -> String {
    if let Some(path) = &args.qasm {
        return std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("qlosure-cli: cannot read {path}: {e}");
            std::process::exit(1);
        });
    }
    let depth = args.queko.expect("checked by parse_submit");
    let device = topology::backends::by_name(&args.backend).unwrap_or_else(|| {
        eprintln!("qlosure-cli: no backend named `{}`", args.backend);
        std::process::exit(2);
    });
    let bench = queko::QuekoSpec::new(&device, depth)
        .seed(args.seed)
        .generate();
    qasm::emit(&bench.circuit.to_qasm())
}

fn main() {
    let mut args = std::env::args();
    let _argv0 = args.next();
    let mut socket = "/tmp/qlosured.sock".to_string();
    let command = loop {
        match args.next() {
            Some(flag) if flag == "--socket" => match args.next() {
                Some(path) => socket = path,
                None => usage(),
            },
            Some(command) => break command,
            None => usage(),
        }
    };
    let endpoint = Endpoint::parse(&socket).unwrap_or_else(|e| {
        eprintln!("qlosure-cli: {e}");
        usage()
    });
    let mut client = Client::connect_endpoint(&endpoint).unwrap_or_else(|e| {
        eprintln!("qlosure-cli: cannot connect to {endpoint}: {e}");
        std::process::exit(1);
    });
    match command.as_str() {
        "submit" => {
            let submit = parse_submit(&mut args);
            let qasm = submit_source(&submit);
            let id = client
                .submit_traced(
                    &submit.backend,
                    &submit.mapper,
                    &qasm,
                    submit.priority,
                    submit.fidelity,
                    submit.strategy,
                    submit.trace,
                )
                .unwrap_or_else(|e| fail(&e));
            print_response(&Response::Submitted { id });
            if submit.wait {
                let summary = client
                    .wait(id, Duration::from_secs(submit.timeout))
                    .unwrap_or_else(|e| fail(&e));
                print_response(&Response::Done { id, summary });
            }
        }
        "poll" => {
            let id = args
                .next()
                .and_then(|raw| raw.parse().ok())
                .unwrap_or_else(|| usage());
            let response = client.poll(id).unwrap_or_else(|e| fail(&e));
            print_response(&response);
        }
        "trace" => {
            let id = args
                .next()
                .and_then(|raw| raw.parse().ok())
                .unwrap_or_else(|| usage());
            let mut chrome = false;
            while let Some(flag) = args.next() {
                match (flag.as_str(), args.next().as_deref()) {
                    ("--format", Some("tree")) => chrome = false,
                    ("--format", Some("chrome")) => chrome = true,
                    _ => usage(),
                }
            }
            let (trace_id, root) = client.trace(id).unwrap_or_else(|e| fail(&e));
            if chrome {
                // One JSON array of Chrome trace events — pipe to a file
                // and load it in chrome://tracing or Perfetto.
                println!("{}", root.render_chrome());
            } else {
                println!("trace {trace_id} job {id}");
                print!("{}", root.render_tree());
            }
        }
        "stats" => {
            let stats = client.stats().unwrap_or_else(|e| fail(&e));
            print_response(&Response::Stats(stats));
        }
        "metrics" => {
            let metrics = client.metrics().unwrap_or_else(|e| fail(&e));
            // Flat scraper text, not a JSON frame — this is the one
            // subcommand meant for machines that do not speak NDJSON.
            print!("{}", metrics.render());
        }
        "events" => {
            let mut min_level = Level::Debug;
            let mut follow = false;
            while let Some(flag) = args.next() {
                match flag.as_str() {
                    "--level" => match args.next().as_deref().and_then(Level::parse) {
                        Some(level) => min_level = level,
                        None => usage(),
                    },
                    "--follow" => follow = true,
                    _ => usage(),
                }
            }
            // A seq cursor tails without duplicates: each round asks only
            // for events strictly past the highest seq already printed.
            let mut cursor = 0u64;
            let mut first = true;
            loop {
                let body = client
                    .events(min_level, cursor)
                    .unwrap_or_else(|e| fail(&e));
                if first && body.dropped > 0 {
                    eprintln!(
                        "qlosure-cli: {} earlier events already evicted from the bounded journal",
                        body.dropped
                    );
                }
                first = false;
                for event in &body.events {
                    print_event(event);
                    cursor = cursor.max(event.seq);
                }
                if !follow {
                    break;
                }
                std::thread::sleep(Duration::from_secs(1));
            }
        }
        "history" => {
            let history = client.metrics_history().unwrap_or_else(|e| fail(&e));
            // One greppable `key value` line per shard; rates come from
            // the daemon, not recomputed here.
            println!("sample_seconds {}", history.sample_seconds);
            for series in &history.series {
                let (first, last) = match (series.samples.first(), series.samples.last()) {
                    (Some(first), Some(last)) => (first.index, last.index),
                    _ => (0, 0),
                };
                println!(
                    "shard {} samples {} index_first {} index_last {} window_seconds {:.3} \
                     jobs_per_second {:.3} cache_hit_rate {:.3} queue_depth_trend {}",
                    series.shard,
                    series.samples.len(),
                    first,
                    last,
                    series.rates.window_seconds,
                    series.rates.jobs_per_second,
                    series.rates.cache_hit_rate,
                    series.rates.queue_depth_trend,
                );
            }
        }
        "top" => {
            let mut interval = 2u64;
            let mut rounds = 0u64; // 0 = until interrupted
            while let Some(flag) = args.next() {
                match flag.as_str() {
                    "--interval" => match args.next().and_then(|raw| raw.parse().ok()) {
                        Some(secs) if secs >= 1 => interval = secs,
                        _ => usage(),
                    },
                    "--rounds" => match args.next().and_then(|raw| raw.parse().ok()) {
                        Some(n) => rounds = n,
                        None => usage(),
                    },
                    _ => usage(),
                }
            }
            let mut cursor = 0u64;
            let mut round = 0u64;
            loop {
                let history = client.metrics_history().unwrap_or_else(|e| fail(&e));
                let events = client
                    .events(Level::Warn, cursor)
                    .unwrap_or_else(|e| fail(&e));
                for event in &events.events {
                    cursor = cursor.max(event.seq);
                }
                render_top(&history, &events.events);
                round += 1;
                if rounds != 0 && round >= rounds {
                    break;
                }
                std::thread::sleep(Duration::from_secs(interval));
            }
        }
        "shutdown" => {
            let pending = client.shutdown().unwrap_or_else(|e| fail(&e));
            print_response(&Response::ShuttingDown { pending });
        }
        _ => usage(),
    }
}

/// One journal event as a text line: age, level, subsystem, message,
/// then the key/value payload.
fn print_event(event: &service::EventBody) {
    let fields: String = event
        .fields
        .iter()
        .map(|(k, v)| format!(" {k}={v}"))
        .collect();
    println!(
        "-{:>9.3}s  {:<5}  {:<10}  {}{}",
        event.age_seconds, event.level, event.subsystem, event.message, fields
    );
}

/// One `top` frame: clear the screen, then a fleet header, one row per
/// shard, and the freshest warnings underneath.
fn render_top(history: &service::HistoryBody, warnings: &[service::EventBody]) {
    // ANSI clear + home — single-screen refresh, no TUI dependency.
    print!("\x1b[2J\x1b[H");
    let uptime = history
        .series
        .iter()
        .filter_map(|s| s.samples.last())
        .map(|s| s.uptime_seconds)
        .fold(0.0f64, f64::max);
    println!(
        "qlosure top — {} shard(s), sampling every {:.0}s, fleet uptime {:.0}s",
        history.series.len(),
        history.sample_seconds,
        uptime
    );
    println!(
        "{:>5} {:>8} {:>7} {:>7} {:>9} {:>10} {:>7} {:>7}",
        "shard", "jobs/s", "hit%", "queue", "inflight", "completed", "failed", "trend"
    );
    for series in &history.series {
        let last = series.samples.last();
        println!(
            "{:>5} {:>8.2} {:>7.1} {:>7} {:>9} {:>10} {:>7} {:>+7}",
            series.shard,
            series.rates.jobs_per_second,
            series.rates.cache_hit_rate * 100.0,
            last.map_or(0, |s| s.queue_depth),
            last.map_or(0, |s| s.jobs_inflight),
            last.map_or(0, |s| s.completed),
            last.map_or(0, |s| s.failed),
            series.rates.queue_depth_trend,
        );
    }
    if !warnings.is_empty() {
        println!("recent warnings:");
        for event in warnings.iter().rev().take(8) {
            print_event(event);
        }
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
}
