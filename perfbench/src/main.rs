//! `perfbench` — the repository benchmark: one seeded workload per
//! process, its output checks, and either the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//!
//! ```text
//! ENGINE_THREADS=2 perfbench --workload queko-flat|qasmbench|hier-1k|serve
//!                            --seed N --seconds S --trace 0|1
//! ```
//!
//! Diagnostics (`key=value` lines) go to stdout before the result; the
//! last line is the JSON result. The exit code is 0 only when every
//! output check passed. See `README.md` for the workloads and metrics.

mod compile;
mod layers;
mod probe;
mod report;
mod roster;
mod serve;
mod stats;

use roster::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn usage(why: &str) -> ! {
    eprintln!(
        "perfbench: {why}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1\n\
         (ENGINE_THREADS must be set)",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s| s >= 1),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("missing or unknown --workload")),
        seed: seed.unwrap_or_else(|| usage("missing or bad --seed")),
        seconds: seconds.unwrap_or_else(|| usage("missing or bad --seconds")),
        traced: traced.unwrap_or_else(|| usage("missing or bad --trace")),
    }
}

/// The pinned engine thread count. `hier-1k` runs 1.4–1.6× apart between
/// an unpinned and a pinned count, so the benchmark refuses to guess.
fn engine_threads() -> usize {
    std::env::var("ENGINE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| usage("ENGINE_THREADS must be set to a positive count"))
}

fn main() {
    let args = parse_args();
    let threads = engine_threads();
    let drift_before = probe::drift_ms();
    let outcome = match args.workload {
        Workload::Serve => serve::run(args.seed, args.seconds, threads, args.traced),
        w if args.traced => compile::run_traced(w, args.seed, args.seconds, threads),
        w => compile::run(w, args.seed, args.seconds, threads),
    };
    let drift_after = probe::drift_ms();
    println!(
        "workload={} seed={} seconds={} trace={} engine_threads={threads} available_parallelism={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!(
        "machine.drift_ratio={:.4} (probe {drift_before:.3} ms before, {drift_after:.3} ms after)",
        drift_after / drift_before
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for failure in &outcome.failures {
        println!("FAILED {failure}");
    }
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            println!("FAILED {} is not a finite number", m.name);
            std::process::exit(1);
        }
    }
    println!("{}", outcome.json());
    if !outcome.failures.is_empty() {
        std::process::exit(1);
    }
}
