//! Umbrella crate for the FS-Join reproduction workspace.
//!
//! Re-exports the public surface of every member crate so the runnable
//! examples (`examples/`) and the cross-crate integration tests (`tests/`)
//! have a single import root. Library users should depend on the
//! individual crates ([`fsjoin`], [`ssj_text`], …) directly.

#![forbid(unsafe_code)]

pub use fsjoin;
pub use ssj_baselines as baselines;
pub use ssj_common as common;
pub use ssj_mapreduce as mapreduce;
pub use ssj_similarity as similarity;
pub use ssj_text as text;

/// Convenience prelude for examples and tests.
pub mod prelude {
    pub use fsjoin::{FilterSet, FsJoinConfig, FsJoinResult, JoinKernel, PivotStrategy};
    pub use ssj_mapreduce::ClusterModel;
    pub use ssj_similarity::{Measure, SimilarPair};
    pub use ssj_text::{
        encode, encode_mr, Collection, CorpusProfile, RawCorpus, Record, Tokenizer,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let cfg = FsJoinConfig::default().with_theta(0.9);
        assert_eq!(cfg.theta, 0.9);
        assert_eq!(Measure::Jaccard.name(), "jaccard");
    }
}
