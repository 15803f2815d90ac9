//! Set-similarity measures and in-memory join algorithms.
//!
//! This crate is the single source of truth for the similarity math used by
//! FS-Join and all baselines:
//!
//! * [`measure`] — Jaccard / Dice / Cosine with exact threshold tests,
//!   minimum-overlap bounds (pairwise and partner-free), length windows,
//!   and probe/index prefix lengths;
//! * [`intersect`] — sorted-set intersection kernels (merge, galloping,
//!   hash, chunked branch-free) and symmetric-difference counting;
//! * [`bitmap`] — sound overlap upper bounds over the `TokenPool`'s
//!   hashed-bitmap plane, the lossless prune in front of whole-record
//!   verification (DESIGN.md §12);
//! * [`verify`] — the one threshold-aware whole-record verification
//!   cascade (α → bitmap bound → early-exit intersection → score) every
//!   verify site calls; its first half (α → bitmap bound) is also the
//!   record-signature filter of FS-Join's fragment join;
//! * [`index`] — the one prefix index: a cell's records in length order,
//!   CSR postings with a position column, and the probe that applies the
//!   length window, PPJoin's positional bound and the record signature
//!   (FS-Join's fragment kernels, FS-Join-PF and PPJoin all probe it);
//! * [`naive`] — the brute-force oracle every other algorithm is tested
//!   against;
//! * [`ppjoin`] — the classic prefix-filter join with the position filter,
//!   on [`index`]; it is what RIDPairsPPJoin runs inside its reducers
//!   (paper §II-C).

#![forbid(unsafe_code)]

pub mod bitmap;
pub mod index;
pub mod intersect;
pub mod measure;
pub mod minhash;
pub mod naive;
pub mod pair;
pub mod ppjoin;
pub mod verify;

pub use measure::Measure;
pub use pair::{collect_pairs, pair_digest, SimilarPair};
pub use verify::{Signature, Verdict, Verifier};
