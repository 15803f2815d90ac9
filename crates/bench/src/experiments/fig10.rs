//! Figure 10 — effect of the number of horizontal partitions, and the
//! filter-phase vs verification-phase time split.
//!
//! Paper: more horizontal partitions reduce overall time, and the filter
//! phase dominates the verification phase (the filters having already
//! pruned most false positives).

use crate::datasets::{corpus, Scale};
use crate::runners::{run_algorithm_cfg, Algorithm};
use fsjoin::FsJoinConfig;
use ssj_common::table::Table;
use ssj_mapreduce::ClusterModel;
use ssj_similarity::Measure;
use ssj_text::CorpusProfile;

const H_PIVOTS: [usize; 4] = [2, 5, 15, 35];

/// Run the experiment; returns markdown.
pub fn run() -> String {
    let cluster = ClusterModel::paper_default(10);
    let mut out = String::from(
        "# Figure 10 analogue — horizontal partition count and phase split\n\n\
         Simulated 10-node seconds at θ = 0.8, Jaccard. `filter` / `verify` \
         are the two FS-Join jobs.\n\n",
    );
    for profile in CorpusProfile::all() {
        let c = corpus(profile, Scale::Large);
        let mut t = Table::new(["# h-pivots", "filter (s)", "verify (s)", "total (s)"]);
        for t_pivots in H_PIVOTS {
            let cfg = FsJoinConfig::default()
                .with_fragments(30)
                .with_horizontal(t_pivots);
            let o = run_algorithm_cfg(Algorithm::FsJoin, &c, Measure::Jaccard, 0.8, 10, &cfg);
            let chain = o.chain.expect("completed");
            let schedules = cluster.simulate_chain_schedule(&chain);
            let phases = |job: &str| {
                let s = schedules.iter().find(|s| s.job_name == job);
                s.expect("FS-Join runs both jobs").phases()
            };
            let (filter, verify) = (phases("fsjoin-filter"), phases("fsjoin-verify"));
            t.push_row([
                t_pivots.to_string(),
                format!("{:.2}", filter.total_secs()),
                format!("{:.2}", verify.total_secs()),
                format!("{:.2}", filter.total_secs() + verify.total_secs()),
            ]);
        }
        out.push_str(&format!("## {}\n\n{}\n", profile.name(), t.to_markdown()));
    }
    out.push_str(
        "Paper expectation: total time falls as horizontal partitions \
         increase; the filter phase costs far more than verification.\n",
    );
    out
}
