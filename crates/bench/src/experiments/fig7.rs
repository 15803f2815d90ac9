//! Figure 7 — all five algorithms on the small datasets.
//!
//! Paper: on sampled-down corpora every algorithm can (mostly) finish;
//! FS-Join and RIDPairsPPJoin are close, MassJoin(Merge) is slowest
//! (>100× on Email at low θ), Merge+Light beats Merge, V-Smart-Join is
//! worst where it runs and θ-insensitive. DNF rows mark budget-guard
//! aborts (our single machine stands in for their 11-node cluster).

use crate::datasets::{corpus, tuned_fsjoin, Scale};
use crate::report::secs_cell;
use crate::runners::{
    median_secs, run_algorithm, run_algorithm_cfg, timed_runs, Algorithm, RunStatus,
};
use ssj_common::table::Table;
use ssj_similarity::Measure;
use ssj_text::CorpusProfile;

const THETAS: [f64; 4] = [0.75, 0.8, 0.85, 0.9];

/// Run the experiment; returns markdown.
pub fn run() -> String {
    let mut out = String::from(
        "# Figure 7 analogue — small datasets, all five algorithms\n\n\
         Simulated 10-node cluster seconds, Jaccard, each the median of 3 \
         runs. DNF = exceeded the intermediate-byte budget (the paper's \
         \"cannot run completely\").\n\n",
    );
    for profile in CorpusProfile::all() {
        let c = corpus(profile, Scale::Small);
        let mut t = Table::new(
            std::iter::once("θ".to_string())
                .chain(Algorithm::all_five().iter().map(|a| a.name().to_string())),
        );
        for theta in THETAS {
            let mut cells = vec![format!("{theta}")];
            let mut ok_counts: Vec<usize> = Vec::new();
            for algo in Algorithm::all_five() {
                let runs = timed_runs(|| {
                    if algo == Algorithm::FsJoin {
                        run_algorithm_cfg(
                            algo,
                            &c,
                            Measure::Jaccard,
                            theta,
                            10,
                            &tuned_fsjoin(profile),
                        )
                    } else {
                        run_algorithm(algo, &c, Measure::Jaccard, theta, 10)
                    }
                });
                if let RunStatus::Ok = runs[0].status {
                    ok_counts.push(runs[0].result_pairs);
                }
                cells.push(secs_cell(median_secs(&runs, |o| o.sim_secs)));
            }
            assert!(
                ok_counts.windows(2).all(|w| w[0] == w[1]),
                "result disagreement on {profile:?} θ={theta}: {ok_counts:?}"
            );
            t.push_row(cells);
        }
        out.push_str(&format!(
            "## {} (small)\n\n{}\n",
            profile.name(),
            t.to_markdown()
        ));
    }
    out.push_str(
        "Paper expectation: FS-Join ≈ RIDPairsPPJoin (small data), both far \
         ahead of MassJoin and V-Smart-Join; Merge+Light < Merge; V-Smart \
         barely varies with θ.\n",
    );
    out
}
