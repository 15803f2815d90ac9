//! Figure 12 — effect of the fragment join kernel (Loop / Index / Prefix,
//! plus this reproduction's default, Sweep).
//!
//! Paper: Prefix wins everywhere, by about 2× over Loop and Index on the
//! long-record Email dataset. Sweep decides the record-level steps once
//! per pair, in one prefix-index pass on the driver, instead of once per
//! cell in the reducers.

use crate::datasets::{corpus, tuned_fsjoin, Scale};
use crate::runners::{run_algorithm_cfg, Algorithm};
use fsjoin::JoinKernel;
use ssj_common::table::Table;
use ssj_similarity::Measure;
use ssj_text::CorpusProfile;

/// Run the experiment; returns markdown.
pub fn run() -> String {
    let mut out = String::from(
        "# Figure 12 analogue — fragment join kernels\n\n\
         Simulated 10-node seconds at θ = 0.8, Jaccard. All kernels apply \
         the same filters; they differ only in how fragment segment pairs \
         are discovered and counted. Sweep (not in the paper) decides each \
         record pair once, in one prefix-index pass on the driver (its time \
         is counted as serial time ahead of the jobs), and ships segments \
         only where a surviving pair meets.\n\n",
    );
    let mut t = Table::new([
        "Dataset",
        "Loop (s)",
        "Index (s)",
        "Prefix (s)",
        "Sweep (s)",
    ]);
    for profile in CorpusProfile::all() {
        let c = corpus(profile, Scale::Large);
        let mut cells = vec![profile.name().to_string()];
        let mut results = Vec::new();
        for kernel in JoinKernel::all() {
            let cfg = tuned_fsjoin(profile).with_kernel(kernel);
            let o = run_algorithm_cfg(Algorithm::FsJoin, &c, Measure::Jaccard, 0.8, 10, &cfg);
            results.push(o.result_pairs);
            cells.push(format!("{:.2}", o.sim_secs));
        }
        assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "kernels disagree on {profile:?}: {results:?}"
        );
        t.push_row(cells);
    }
    out.push_str(&t.to_markdown());
    out.push_str("\nPaper expectation: Prefix fastest, ~2× over Loop/Index on Email.\n");
    out
}
