//! Figure 6 — FS-Join vs RIDPairsPPJoin on the big datasets.
//!
//! Paper: FS-Join wins on every dataset and threshold, by ~5× at θ = 0.9
//! and ~10× at θ = 0.75 (lower θ ⇒ longer prefixes ⇒ more duplication for
//! RIDPairsPPJoin). MassJoin and V-Smart-Join do not finish on the big
//! datasets; we report their budget-guard DNFs the same way.
//!
//! We report three views because our corpora are ~500× smaller than the
//! paper's (DESIGN.md §1): the pure cluster model (1 Gbit/s, no platform
//! overhead), a Hadoop-0.20-calibrated model (effective shuffle throughput
//! and per-record JVM cost — the platform the paper measured on), and the
//! scale-robust structural quantities (shuffle volume ratio), where
//! FS-Join's duplicate-freedom is visible at any scale.

use crate::datasets::{corpus, tuned_fsjoin, Scale};
use crate::report::secs_cell;
use crate::runners::{
    median_secs, run_algorithm, run_algorithm_cfg, timed_runs, Algorithm, RunOutcome,
};
use ssj_common::table::{fmt_bytes, Table};
use ssj_mapreduce::ClusterModel;
use ssj_similarity::Measure;
use ssj_text::CorpusProfile;

const THETAS: [f64; 5] = [0.75, 0.8, 0.85, 0.9, 0.95];

/// Run the experiment; returns markdown.
pub fn run() -> String {
    let hadoop = ClusterModel::hadoop_2010(10);
    let mut out = String::from(
        "# Figure 6 analogue — big datasets, FS-Join vs RIDPairsPPJoin\n\n\
         10-node simulation, Jaccard; \"pure\" = 1 Gbit/s + zero platform \
         overhead, \"hadoop\" = Hadoop-0.20 calibration (25 MB/s effective \
         shuffle, 8 µs/record). FS-Join uses the paper's partitioning \
         (30 fragments; 10/70/50 horizontal partitions per dataset). Each \
         time is the median of 3 runs.\n\n",
    );
    for profile in CorpusProfile::all() {
        let c = corpus(profile, Scale::Large);
        let tuned = tuned_fsjoin(profile);
        let mut t = Table::new([
            "θ",
            "FS-Join pure (s)",
            "RIDPairs pure (s)",
            "FS-Join hadoop (s)",
            "RIDPairs hadoop (s)",
            "shuffle FS / RID",
        ]);
        for theta in THETAS {
            let fs = timed_runs(|| {
                run_algorithm_cfg(Algorithm::FsJoin, &c, Measure::Jaccard, theta, 10, &tuned)
            });
            let rid =
                timed_runs(|| run_algorithm(Algorithm::RidPairs, &c, Measure::Jaccard, theta, 10));
            assert_eq!(
                fs[0].result_pairs, rid[0].result_pairs,
                "algorithms must agree ({profile:?} θ={theta})"
            );
            let pure = |o: &RunOutcome| o.sim_secs;
            let calibrated = |o: &RunOutcome| o.sim_secs_on(&hadoop);
            t.push_row([
                format!("{theta}"),
                secs_cell(median_secs(&fs, pure)),
                secs_cell(median_secs(&rid, pure)),
                secs_cell(median_secs(&fs, calibrated)),
                secs_cell(median_secs(&rid, calibrated)),
                format!(
                    "{} / {}",
                    fmt_bytes(fs[0].shuffle_bytes),
                    fmt_bytes(rid[0].shuffle_bytes)
                ),
            ]);
        }
        out.push_str(&format!(
            "## {} (large)\n\n{}\n",
            profile.name(),
            t.to_markdown()
        ));
        // The paper notes MassJoin / V-Smart-Join cannot run at this scale.
        let mj = run_algorithm(Algorithm::MassJoinMerge, &c, Measure::Jaccard, 0.8, 10);
        let vs = run_algorithm(Algorithm::VSmart, &c, Measure::Jaccard, 0.8, 10);
        out.push_str(&format!(
            "At θ=0.8: MassJoin(Merge) → {:?}; V-Smart-Join → {:?}.\n\n",
            mj.status, vs.status
        ));
    }
    out.push_str(
        "Paper expectation: FS-Join wins everywhere; its advantage grows as \
         θ decreases (≈5× at 0.9, ≈10× at 0.75 on Email). At our ~500× \
         smaller scale the duplication penalty (linear in data) shrinks \
         faster than join work, so the calibrated columns and the shuffle \
         ratio carry the regime comparison.\n",
    );
    out
}
