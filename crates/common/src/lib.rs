//! Shared utilities for the FS-Join reproduction workspace.
//!
//! This crate deliberately has no external dependencies. It provides:
//!
//! * [`hash`] — a fast, deterministic, non-cryptographic hasher (an
//!   FxHash-style multiply-rotate design) plus `HashMap`/`HashSet` aliases
//!   used on hot paths throughout the workspace;
//! * [`bytesize`] — the [`ByteSize`] trait used by the
//!   MapReduce engine to account for shuffle and output volume without
//!   serializing anything;
//! * [`stats`] — summary statistics (mean, percentiles, Gini coefficient,
//!   skew ratios) used for load-balance reporting;
//! * [`table`] — minimal markdown / TSV table rendering for experiment
//!   reports (we do not depend on serde_json).

#![forbid(unsafe_code)]

pub mod bytesize;
pub mod hash;
pub mod stats;
pub mod table;

pub use bytesize::ByteSize;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
