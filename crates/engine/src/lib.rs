//! # Parallel batch-mapping engine
//!
//! The paper's pitch is *scalable* dependence-driven mapping; this crate is
//! the throughput layer that makes the harness live up to it. A
//! [`BatchEngine`] takes a roster of mapping jobs (circuit × device ×
//! mapper) and executes them on a hand-rolled work-stealing thread pool —
//! no external crates, just `std::thread` + sharded `Mutex<VecDeque>`
//! queues — while the per-device caches in [`topology`] (shared all-pairs
//! distance matrices) and `presburger` (memoized transitive closures) keep
//! redundant work out of the hot path.
//!
//! ## Determinism contract
//!
//! Every job carries a deterministic ID (its index in the submitted
//! roster), results are returned **in roster order regardless of thread
//! count or completion order**, and each job's computation is a pure
//! function of its inputs (all mappers seed their own RNGs). Consequently:
//!
//! * `ENGINE_THREADS=1` reproduces today's sequential results bit-for-bit
//!   (jobs run in roster order on the caller's thread, no pool);
//! * for any thread count, the outputs are *identical* to the 1-thread run
//!   — parallelism changes wall-clock time and nothing else. The
//!   differential suite (`tests/differential.rs`) enforces this.
//!
//! ## Thread-count knob
//!
//! [`BatchEngine::from_env`] reads the `ENGINE_THREADS` environment
//! variable (falling back to [`std::thread::available_parallelism`]);
//! [`BatchEngine::with_threads`] pins it programmatically.
//!
//! ```
//! use engine::BatchEngine;
//!
//! let engine = BatchEngine::with_threads(4);
//! let squares = engine.execute((0u64..32).collect(), |&x| x * x);
//! assert_eq!(squares[7], 49); // roster order, whatever the thread count
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod pool;

pub use batch::{BatchReport, JobReport, MapJob};
pub use pool::BatchEngine;
