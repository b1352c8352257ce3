//! The work-stealing job pool.

use std::collections::VecDeque;
use std::sync::Mutex;

/// A parallel batch executor over a fixed worker count.
///
/// See the [crate docs](crate) for the determinism contract. The pool is
/// created per [`BatchEngine::execute`] call (jobs are known up front, so
/// there is no long-lived pool to manage): jobs are sharded round-robin
/// over per-worker deques, each worker drains its own deque front-to-back
/// and, when empty, steals from the *back* of its neighbours' deques —
/// stealing the jobs the owner would reach last minimizes contention on
/// the deque locks.
#[derive(Clone, Copy, Debug)]
pub struct BatchEngine {
    threads: usize,
}

impl BatchEngine {
    /// An engine sized by the `ENGINE_THREADS` environment variable,
    /// falling back to [`std::thread::available_parallelism`].
    ///
    /// Unparseable or zero values emit a one-line stderr warning and fall
    /// back to the default; there is no panic path, so harnesses can
    /// always start.
    pub fn from_env() -> BatchEngine {
        let raw = std::env::var("ENGINE_THREADS").ok();
        let (from_env, warning) = parse_engine_threads(raw.as_deref());
        if let Some(warning) = warning {
            eprintln!("{warning}");
            trace::journal::event(
                trace::journal::Level::Warn,
                "engine",
                &warning,
                &[("var", "ENGINE_THREADS")],
            );
        }
        let threads = from_env.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        });
        BatchEngine { threads }
    }

    /// An engine with an explicit worker count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> BatchEngine {
        BatchEngine {
            threads: threads.max(1),
        }
    }

    /// The worker count this engine runs with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` over every job and returns the results **in roster
    /// order**, regardless of thread count or completion order.
    ///
    /// With one thread the jobs run sequentially on the caller's thread in
    /// roster order — bit-for-bit the pre-engine sequential behavior, with
    /// no pool machinery in the way.
    ///
    /// # Panics
    ///
    /// If `f` panics on any job the batch panics (a worker's panic is
    /// propagated when its thread is joined at scope exit).
    pub fn execute<T, R, F>(&self, jobs: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = jobs.len();
        let workers = self.threads.min(n.max(1));
        if workers <= 1 {
            return jobs.iter().map(f).collect();
        }
        // Deterministic job IDs: index in the roster. Shard round-robin so
        // every worker starts with a contiguous-by-stride slice.
        let shards: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w..n).step_by(workers).collect()))
            .collect();
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let slots: Vec<Mutex<&mut Option<R>>> = results.iter_mut().map(Mutex::new).collect();
        let (jobs_ref, f_ref, shards_ref, slots_ref) = (&jobs, &f, &shards, &slots);
        std::thread::scope(|scope| {
            for w in 0..workers {
                scope.spawn(move || loop {
                    let job_id = pop_own(shards_ref, w).or_else(|| steal(shards_ref, w));
                    let Some(id) = job_id else { return };
                    let r = f_ref(&jobs_ref[id]);
                    **slots_ref[id].lock().expect("result slot") = Some(r);
                });
            }
        });
        drop(slots);
        results
            .into_iter()
            .map(|r| r.expect("every job ran exactly once"))
            .collect()
    }
}

/// The testable core of the `ENGINE_THREADS` parsing: returns the parsed
/// worker count (when valid) and the warning line to print (when the
/// variable is set but invalid — `0` or unparseable). An unset variable
/// yields `(None, None)`: silent default.
fn parse_engine_threads(raw: Option<&str>) -> (Option<usize>, Option<String>) {
    match raw {
        None => (None, None),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => (Some(n), None),
            _ => (
                None,
                Some(format!(
                    "warning: ignoring invalid ENGINE_THREADS={v:?} \
                     (expected a positive integer); using all cores"
                )),
            ),
        },
    }
}

/// Pops the next job of worker `w`'s own shard.
fn pop_own(shards: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    shards[w].lock().expect("shard lock").pop_front()
}

/// Steals a job from the back of another worker's shard.
///
/// All jobs are seeded before any worker starts and nothing enqueues new
/// ones, so "every shard observed empty" is a stable termination signal.
fn steal(shards: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    let n = shards.len();
    for offset in 1..n {
        let victim = (w + offset) % n;
        if let Some(id) = shards[victim].lock().expect("shard lock").pop_back() {
            return Some(id);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_roster_order() {
        for threads in [1, 2, 4, 8] {
            let engine = BatchEngine::with_threads(threads);
            let out = engine.execute((0u64..100).collect(), |&x| x * 3);
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let engine = BatchEngine::with_threads(8);
        let out = engine.execute((0..257).collect::<Vec<i32>>(), |&x| {
            ran.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(ran.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
    }

    #[test]
    fn thread_counts_agree_bit_for_bit() {
        // A job whose output depends only on its input, as the contract
        // requires: identical results at every worker count.
        let jobs: Vec<u64> = (0..64).collect();
        let reference = BatchEngine::with_threads(1).execute(jobs.clone(), |&x| {
            x.wrapping_mul(6364136223846793005).wrapping_add(1)
        });
        for threads in [2, 3, 4, 16] {
            let out = BatchEngine::with_threads(threads).execute(jobs.clone(), |&x| {
                x.wrapping_mul(6364136223846793005).wrapping_add(1)
            });
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn imbalanced_jobs_are_stolen() {
        // One shard gets all the heavy jobs; with stealing the batch still
        // completes and returns ordered results.
        let engine = BatchEngine::with_threads(4);
        let out = engine.execute((0usize..40).collect(), |&i| {
            if i % 4 == 0 {
                // Busy-ish work concentrated on shard 0.
                (0..20_000u64).fold(i as u64, |a, x| a.wrapping_add(x * x))
            } else {
                i as u64
            }
        });
        assert_eq!(out.len(), 40);
        assert_eq!(out[1], 1);
    }

    #[test]
    fn empty_and_tiny_rosters_work() {
        let engine = BatchEngine::with_threads(4);
        let empty: Vec<u8> = engine.execute(Vec::new(), |&x: &u8| x);
        assert!(empty.is_empty());
        assert_eq!(engine.execute(vec![9u8], |&x| x + 1), vec![10]);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let engine = BatchEngine::with_threads(64);
        assert_eq!(engine.execute(vec![1, 2, 3], |&x| x), vec![1, 2, 3]);
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(BatchEngine::with_threads(0).threads(), 1);
    }

    #[test]
    fn engine_threads_parsing_warns_on_invalid_never_panics() {
        // Unset: silent default.
        assert_eq!(parse_engine_threads(None), (None, None));
        // Valid values parse without a warning.
        assert_eq!(parse_engine_threads(Some("1")), (Some(1), None));
        assert_eq!(parse_engine_threads(Some("16")), (Some(16), None));
        // Zero and garbage fall back with a one-line warning.
        for bad in ["0", "abc", "-3", "4.5", ""] {
            let (threads, warning) = parse_engine_threads(Some(bad));
            assert_eq!(threads, None, "ENGINE_THREADS={bad:?} must not parse");
            let warning = warning.unwrap_or_else(|| panic!("{bad:?} must warn"));
            assert!(warning.contains("ENGINE_THREADS"), "got: {warning}");
            assert!(warning.contains(bad), "warning names the value: {warning}");
            assert!(!warning.contains('\n'), "one line only: {warning}");
        }
    }
}
