//! Experiment harness for the FS-Join reproduction.
//!
//! Every table and figure of the paper's evaluation (§VI) has a
//! corresponding experiment in [`experiments`]; the `expt` binary runs them
//! and writes paper-style markdown tables under `results/`:
//!
//! ```text
//! cargo run --release -p ssj-bench --bin expt -- all
//! cargo run --release -p ssj-bench --bin expt -- fig6 table4
//! ```
//!
//! The Criterion benches under `benches/` time the kernels no experiment
//! isolates (`micro_*`). The gates under `tests/` pin the logical output of
//! the batch and serving planes: result digests, filter and probe counters,
//! per-job shuffle accounting, and their invariance across worker counts,
//! plan modes and injected faults.

pub mod datasets;
pub mod experiments;
pub mod report;
pub mod runners;
pub mod serve_load;
pub mod simtrace;

pub use datasets::{bench_corpus, corpus, tuned_fsjoin, Scale};
pub use runners::{run_algorithm, Algorithm, RunOutcome, RunStatus};
pub use serve_load::{closed_loop, replay_queries, ServeLoadReport};
