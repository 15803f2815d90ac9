//! **FS-Join** — duplicate-free distributed set similarity join
//! (reproduction of Rong et al., "Fast and Scalable Distributed Set
//! Similarity Joins for Big Data Analytics", ICDE 2017).
//!
//! FS-Join finds all record pairs whose set similarity (Jaccard, Dice or
//! Cosine) is at least a threshold θ, running as a pipeline of MapReduce
//! jobs on [`ssj_mapreduce`]:
//!
//! 1. **Ordering** — tokens are ranked by ascending frequency (done at
//!    encoding time by [`ssj_text`]; the driver reuses the collection's
//!    frequency table).
//! 2. **Filtering** — each record's sorted token vector is split into
//!    disjoint *segments* at a set of pivot ranks ([`vertical`]); segments
//!    of the same vertical partition form a *fragment* that is shuffled —
//!    without duplicating any token — to one reduce task, which joins the
//!    fragment's segments with a pluggable kernel ([`fragment`]:
//!    loop / index / prefix, the last two on the one prefix index of
//!    [`ssj_similarity::index`]) under four pruning filters ([`filters`]:
//!    StrL / SegL / SegI / SegD) and, right after StrL, the pool's
//!    per-record bitmap signatures, which drop pairs whose records cannot
//!    reach θ in every fragment at once. The default kernel, sweep
//!    ([`sweep`]), decides each record pair once instead, by one
//!    PPJoin-style probe-then-insert pass over the prefix index on the
//!    driver (StrL window, global prefix, positional bound, signature),
//!    and its map tasks ship a segment only to the cells where a surviving
//!    pair meets. Optional *horizontal* (length-based)
//!    partitioning ([`horizontal`]) further splits fragments into sections.
//! 3. **Verification** — per-fragment common-token counts are aggregated by
//!    record pair and the exact similarity is computed from counts alone
//!    (paper §V-B), never touching the original records.
//!
//! # Quickstart
//!
//! ```
//! use fsjoin::{FsJoinConfig, run_self_join};
//! use ssj_text::{encode, RawCorpus, Tokenizer};
//!
//! let corpus = RawCorpus::from_texts(
//!     &[
//!         "large scale set similarity join processing",
//!         "large scale set similarity join processing engine",
//!         "an unrelated sentence entirely",
//!     ],
//!     &Tokenizer::Words,
//! );
//! let collection = encode(&corpus);
//! let result = run_self_join(&collection, &FsJoinConfig::default().with_theta(0.7));
//! assert_eq!(result.pairs.len(), 1);
//! assert_eq!(result.pairs[0].ids(), (0, 1));
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod cost;
pub mod driver;
pub mod filters;
pub mod fragment;
pub mod horizontal;
pub mod keys;
pub mod pf;
pub mod pivots;
pub mod rsjoin;
pub mod segment;
pub mod sweep;
pub mod vertical;

pub use config::{EmitPolicy, FilterSet, FsJoinConfig, JoinKernel};
pub use driver::{run_self_join, FsJoinResult};
pub use filters::FilterStats;
pub use pf::run_self_join_pf;
pub use pivots::PivotStrategy;
pub use rsjoin::run_rs_join_two_input;
pub use segment::Segment;
pub use sweep::SweepStats;
