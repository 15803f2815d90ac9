//! # ssj-serve — online similarity serving
//!
//! The batch side of this repository answers *set similarity joins*: run a
//! MapReduce plan, get every similar pair, exit. This crate is the serving
//! plane for the same workload shape: a **long-lived
//! [`ServeIndex`]** holds a prefix/position index over the shared token
//! arena and answers point queries — θ-threshold probes and top-k
//! lookups — in microseconds, with *no* MapReduce machinery on the query
//! path.
//!
//! The two planes meet twice:
//!
//! * **Build** — constructing the index *is* a batch job, so it runs as a
//!   [`Plan`](ssj_mapreduce::Plan) stage ([`ServeIndexBuild`]); the sealed
//!   reduce partitions become the index's posting storage by `Arc`
//!   adoption ([`ServeIndex::from_plan`]), not by copy.
//! * **Algorithms** — probes reuse the exact filter kernels the joins are
//!   built from (length window, prefix filter, positional upper bound,
//!   early-exit merge verification), so serving answers are bit-identical
//!   to batch FS-Join results — a property the equivalence test suite
//!   enforces, including under inserts and compactions.
//!
//! Freshness comes from a delta side: [`ServeIndex::insert`] tokenizes
//! against the frozen global ordering into a private delta pool, visible
//! to the very next probe; [`ServeIndex::compact`] folds the delta into
//! the sealed main index, merging the two sides' `(len, rec)`-ordered
//! posting lists token by token.
//!
//! ```
//! use ssj_serve::{build_index, ServeConfig};
//! use ssj_text::{encode, CorpusProfile};
//!
//! let collection = encode(&CorpusProfile::WikiLike.config().with_records(300).generate());
//! let cfg = ServeConfig::default().with_theta_min(0.7);
//! let mut index = build_index(&collection, &cfg);
//!
//! // Threshold probe: all records ≥ 0.8-similar to the query.
//! let query = collection.tokens(7).to_vec();
//! let hits = index.probe(&query, 0.8);
//! assert!(hits.iter().any(|&(rec, sim)| rec == 7 && sim == 1.0));
//!
//! // Inserts are visible immediately; compaction preserves answers.
//! let rid = index.insert(&query).unwrap();
//! assert!(index.probe(&query, 0.8).iter().any(|&(r, _)| r == rid));
//! index.compact();
//! assert!(index.probe(&query, 0.8).iter().any(|&(r, _)| r == rid));
//! # let _ = hits;
//! ```

#![forbid(unsafe_code)]

pub mod build;
pub mod config;
mod delta;
pub mod index;
pub mod posting;
pub mod stats;

pub use build::{build_index, ServeIndexBuild};
pub use config::ServeConfig;
pub use index::ServeIndex;
pub use posting::{Posting, PostingBlock};
pub use stats::ProbeStats;
