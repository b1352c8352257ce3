//! Shared harness utilities for the table/figure reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! Qlosure paper's evaluation (see `DESIGN.md` §2 for the experiment
//! index). This library provides the common pieces: the mapper roster, the
//! back-end roster, timed + verified mapping runs, the
//! [`engine::BatchEngine`] batch front-end ([`engine_batch`]) with its
//! `BENCH_*.json` trajectory reports, and plain-text table rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod runner;

pub use report::Table;
pub use runner::{
    all_mappers, backend_by_name, engine_batch, mapper_names, run_verified, shared_backend,
    MapOutcome, PassSeconds, Scale,
};
