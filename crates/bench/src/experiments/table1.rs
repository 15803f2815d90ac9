//! Table I — qualitative comparison of the four algorithms, quantified.
//!
//! The paper's Table I claims FS-Join alone avoids duplication and
//! guarantees load balancing. We measure both on the small Wiki analogue
//! at θ = 0.8:
//!
//! * **token duplication** — how many times each input token crosses the
//!   first (signature/filter) job's shuffle, computed exactly from each
//!   algorithm's wire format (payload bytes ÷ 4 ÷ input tokens). This
//!   isolates true duplication from per-record metadata overhead.
//! * **reduce skew** — max/mean of per-reduce-task input bytes.
//!
//! FS-Join's vertical partitioning ships every token at most once per
//! horizontal membership: exactly once under the paper's kernels, and
//! under the default Sweep kernel only the segments where a surviving
//! pair meets, so well under once. RIDPairsPPJoin re-ships whole records per prefix token;
//! MassJoin per signature; V-Smart-Join ships each token once but then
//! materializes every posting-list pair (visible in total shuffle).

use crate::datasets::{corpus, Scale};
use crate::runners::{run_algorithm, Algorithm, RunStatus};
use ssj_common::table::Table;
use ssj_mapreduce::JobMetrics;
use ssj_similarity::Measure;
use ssj_text::CorpusProfile;

/// Tokens crossing a job's shuffle, recovered from its byte/record
/// counters given the per-record metadata overhead of its wire format and
/// the 4-byte partner ids it listed beside the records.
fn tokens_shuffled(job: &JobMetrics, per_record_overhead: usize, listed_partners: u64) -> f64 {
    let payload = job
        .shuffle_bytes
        .saturating_sub(per_record_overhead * job.shuffle_records + 4 * listed_partners as usize);
    payload as f64 / 4.0
}

/// Per-record metadata overhead (bytes) of each algorithm's first job:
/// everything in a shuffled record except 4-byte token payload entries
/// and listed partner ids.
fn first_job_overhead(algo: Algorithm) -> usize {
    match algo {
        // cell key 4 + rid 4 + len/head/tail 12 + vec prefix 4 + the
        // Sweep kernel's partner count 4
        Algorithm::FsJoin | Algorithm::FsJoinV => 28,
        // token key 4 + rid 4 + vec prefix 4
        Algorithm::RidPairs => 12,
        // token key 4 (itself the payload) + (rid, len) value 8
        Algorithm::VSmart => 8,
        // sig key (len 4 + idx 4 + vec prefix 4) + value (role 1 + rid 4 +
        // len 4 + vec prefix 4)
        Algorithm::MassJoinMerge | Algorithm::MassJoinLight => 25,
    }
}

/// Run the experiment; returns markdown.
pub fn run() -> String {
    let c = corpus(CorpusProfile::WikiLike, Scale::Small);
    let total_tokens: usize = c.total_tokens() as usize;
    let mut t = Table::new([
        "Algorithm",
        "Token duplication",
        "Reduce skew (max/mean)",
        "Jobs",
        "Total shuffle (MiB)",
    ]);
    for algo in Algorithm::all_five() {
        let out = run_algorithm(algo, &c, Measure::Jaccard, 0.8, 10);
        match out.status {
            RunStatus::Ok => {
                let chain = out.chain.as_ref().expect("completed");
                let first = chain.jobs.first().expect("non-empty");
                let tokens = tokens_shuffled(first, first_job_overhead(algo), out.listed_partners);
                let dup = tokens / total_tokens as f64;
                t.push_row([
                    out.algorithm.to_string(),
                    format!("{dup:.2}"),
                    format!("{:.2}", out.reduce_skew),
                    chain.jobs.len().to_string(),
                    format!("{:.2}", out.shuffle_bytes as f64 / (1 << 20) as f64),
                ]);
            }
            RunStatus::Dnf(reason) => {
                t.push_row([
                    out.algorithm.to_string(),
                    "DNF".into(),
                    "DNF".into(),
                    "-".into(),
                    reason,
                ]);
            }
        }
    }
    format!(
        "# Table I analogue — duplication and load balancing, measured\n\n\
         Wiki (small), θ = 0.8, Jaccard, default FS-Join partitioning \
         (16 fragments, 4 horizontal pivots — the tuned large-corpus \
         settings would only add boundary memberships here) and kernel \
         (Sweep: a segment ships only to the cells where one of its \
         record's surviving pairs meets; the paper's kernels ship each \
         token once per horizontal membership).\n\n{}\n\
         Paper expectation: only FS-Join avoids duplicating tokens \
         (vertical partitioning ships each at most once per horizontal \
         membership); RIDPairsPPJoin \
         re-ships records per prefix token; MassJoin's signature expansion \
         dwarfs everyone; V-Smart-Join ships tokens once but explodes in \
         its pair-enumeration shuffle (total column).\n",
        t.to_markdown()
    )
}
