//! Figure 9 — FS-Join scalability with cluster size (5/10/15 nodes).
//!
//! Paper: 5 → 10 nodes cuts time 35–48%; 10 → 15 only 10–20% more (shuffle
//! overhead and stragglers eat into the gains). Each node count re-runs
//! the join with `reduce_tasks = 3 × nodes` (the paper's setting) and
//! schedules the measured tasks on a cluster model of that size.

use crate::datasets::{corpus, tuned_fsjoin, Scale};
use crate::report::secs_cell;
use crate::runners::{run_algorithm_cfg, Algorithm};
use ssj_common::table::Table;
use ssj_similarity::Measure;
use ssj_text::CorpusProfile;

const NODES: [usize; 3] = [5, 10, 15];

/// Run the experiment; returns markdown.
pub fn run() -> String {
    let mut out = String::from(
        "# Figure 9 analogue — FS-Join vs cluster size\n\n\
         Simulated cluster seconds at θ = 0.8, Jaccard; reduce tasks = \
         3 × nodes.\n\n",
    );
    let mut t = Table::new([
        "Dataset",
        "5 nodes",
        "10 nodes",
        "15 nodes",
        "Δ(5→10)",
        "Δ(10→15)",
    ]);
    for profile in CorpusProfile::all() {
        let c = corpus(profile, Scale::Large);
        let secs: Vec<f64> = NODES
            .iter()
            .map(|&n| {
                run_algorithm_cfg(
                    Algorithm::FsJoin,
                    &c,
                    Measure::Jaccard,
                    0.8,
                    n,
                    &tuned_fsjoin(profile),
                )
                .sim_secs
            })
            .collect();
        t.push_row([
            profile.name().to_string(),
            secs_cell(secs[0]),
            secs_cell(secs[1]),
            secs_cell(secs[2]),
            change_cell(secs[0], secs[1]),
            change_cell(secs[1], secs[2]),
        ]);
    }
    out.push_str(&t.to_markdown());
    out.push_str(
        "\nPaper expectation: large gain from 5→10 nodes (−35…48%), \
         diminishing returns from 10→15 (−10…20%).\n",
    );
    out
}

/// The signed change from `from` to `to` in whole percent: `-27%` for a
/// drop, `+54%` for a rise, `0%` when it rounds to none.
fn change_cell(from: f64, to: f64) -> String {
    match format!("{:+.0}", 100.0 * (to / from - 1.0)).as_str() {
        "+0" | "-0" => "0%".to_string(),
        pct => format!("{pct}%"),
    }
}

#[cfg(test)]
mod tests {
    use super::change_cell;

    #[test]
    fn change_cell_signs_the_change() {
        assert_eq!(change_cell(0.15, 0.11), "-27%");
        assert_eq!(change_cell(0.11, 0.17), "+55%");
        assert_eq!(change_cell(0.2, 0.2), "0%");
        assert_eq!(change_cell(1.0, 0.999), "0%");
    }
}
