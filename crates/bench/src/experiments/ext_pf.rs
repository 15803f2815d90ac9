//! Extension — FS-Join-PF (prefix-discovery variant, ours) vs exact
//! FS-Join and RIDPairsPPJoin.
//!
//! DESIGN.md §4 item 5b shows exact count-verification forces FS-Join's
//! intermediate volume to grow with co-token pair count; FS-Join-PF keeps
//! the paper's partitioning but discovers candidates through global-prefix
//! tokens and verifies them in place against a record cache, restoring
//! classic prefix-filter candidate volumes while remaining exact.

use crate::datasets::{corpus, tuned_fsjoin, Scale};
use crate::runners::{run_algorithm, Algorithm};
use fsjoin::run_self_join_pf;
use ssj_common::table::{fmt_bytes, Table};
use ssj_mapreduce::ClusterModel;
use ssj_similarity::Measure;
use ssj_text::CorpusProfile;
use std::time::Instant;

const THETAS: [f64; 3] = [0.75, 0.8, 0.9];

/// Run the experiment; returns markdown.
pub fn run() -> String {
    let cluster = ClusterModel::paper_default(10);
    let mut out = String::from(
        "# Extension — FS-Join-PF (prefix discovery + in-cell verification)\n\n\
         Simulated 10-node seconds, Jaccard; candidates = records emitted \
         by FS-Join's filter job / pairs PF's discovery finds (one stage), \
         before its positional bound, bitmap and verifier settle them; PF \
         position-pruned / intersections = how many of those the bound \
         drops and how many reach the exact kernel. FS-Join-PF trades the \
         paper's \"verification never touches records\" property for classic \
         prefix-filter intermediate volumes; results are identical \
         (asserted).\n\n",
    );
    for profile in CorpusProfile::all() {
        let c = corpus(profile, Scale::Large);
        let tuned = tuned_fsjoin(profile);
        let mut t = Table::new([
            "θ",
            "FS-Join (s)",
            "FS-Join-PF (s)",
            "RIDPairs (s)",
            "candidates FS / PF",
            "PF position-pruned / intersections",
            "shuffle FS / PF",
        ]);
        for theta in THETAS {
            let fs = crate::runners::run_algorithm_cfg(
                Algorithm::FsJoin,
                &c,
                Measure::Jaccard,
                theta,
                10,
                &tuned,
            );
            let start = Instant::now();
            let pf = run_self_join_pf(&c, &tuned.clone().with_theta(theta).with_tasks(20, 30));
            let _pf_real = start.elapsed();
            let rid = run_algorithm(Algorithm::RidPairs, &c, Measure::Jaccard, theta, 10);
            assert_eq!(fs.result_pairs, pf.pairs.len(), "{profile:?} θ={theta}");
            assert_eq!(fs.result_pairs, rid.result_pairs, "{profile:?} θ={theta}");
            let fs_candidates = fs
                .chain
                .as_ref()
                .map_or(0, |ch| ch.jobs[0].reduce_output_records());
            t.push_row([
                format!("{theta}"),
                format!("{:.2}", fs.sim_secs),
                format!("{:.2}", pf.simulated_secs(&cluster)),
                format!("{:.2}", rid.sim_secs),
                format!("{} / {}", fs_candidates, pf.candidates),
                format!(
                    "{} / {}",
                    pf.filter_stats.position_pruned, pf.filter_stats.intersections
                ),
                format!(
                    "{} / {}",
                    fmt_bytes(fs.shuffle_bytes),
                    fmt_bytes(pf.chain.total_shuffle_bytes())
                ),
            ]);
        }
        out.push_str(&format!(
            "## {} (large)\n\n{}\n",
            profile.name(),
            t.to_markdown()
        ));
    }
    out.push_str(
        "Expectation: FS-Join-PF collapses the candidate volume (orders of \
         magnitude on the short-record Zipf corpora) and becomes \
         competitive with RIDPairsPPJoin at every scale, while keeping \
         FS-Join's balanced, duplication-light map phase.\n",
    );
    out
}
