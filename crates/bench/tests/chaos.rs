//! Fault injection changes attempts and retries, never results. FS-Join is
//! run clean and then under a seeded fault plan installed process-wide.
//! The pipeline itself is unmodified: the plan runner picks the plan up for
//! every stage. Both runs must return the same pairs and scores, and the
//! same seed must reproduce the same counters.
//!
//! This file holds a single test. The fault plan and the panic hook are
//! process-global, so a sibling test would run under injection too.

use ssj_bench::datasets::{bench_corpus, tuned_fsjoin};
use ssj_faults::FaultPlan;
use ssj_mapreduce::ExecSummary;
use ssj_similarity::{pair_digest, Measure, SimilarPair};
use ssj_text::CorpusProfile;

fn join() -> (Vec<SimilarPair>, ExecSummary) {
    let cfg = tuned_fsjoin(CorpusProfile::WikiLike)
        .with_theta(0.8)
        .with_measure(Measure::Jaccard)
        .with_tasks(8, 12);
    let res = fsjoin::run_self_join(&bench_corpus(), &cfg);
    (res.pairs, res.chain.total_exec())
}

fn chaos_join(seed: u64, rate: f64) -> (Vec<SimilarPair>, ExecSummary) {
    ssj_faults::install_plan(FaultPlan::chaos(seed, rate));
    let out = join();
    ssj_faults::uninstall_plan();
    out
}

#[test]
fn seeded_chaos_is_reproducible_and_changes_no_result() {
    ssj_faults::silence_injected_panics();

    let (clean, clean_exec) = join();
    assert_eq!(
        (clean.len(), pair_digest(&clean)),
        (16, 0x2db8_2992_da95_ce00)
    );
    assert_eq!(clean_exec.retries, 0);
    assert_eq!(clean_exec.injected_total(), 0);

    let (first, first_exec) = chaos_join(42, 0.05);
    assert_eq!(first, clean, "fault injection changed the join result");
    assert_eq!(
        first_exec,
        ExecSummary {
            attempts: 46,
            retries: 2,
            injected_errors: 0,
            injected_panics: 2,
            injected_stragglers: 2,
        }
    );

    let (again, again_exec) = chaos_join(42, 0.05);
    assert_eq!(again, clean);
    assert_eq!(again_exec, first_exec, "same seed, different counters");
}
