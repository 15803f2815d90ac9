//! Exactness property tests: FS-Join under *every* configuration axis must
//! produce exactly the oracle's result set with exact scores. This is the
//! load-bearing guarantee behind the paper's claim that filters and
//! partitioning prune only provably-dissimilar pairs.

use fsjoin::{FilterSet, FsJoinConfig, JoinKernel, PivotStrategy};
use proptest::prelude::*;
use ssj_similarity::naive::{naive_rs_join, naive_self_join};
use ssj_similarity::pair::compare_results;
use ssj_similarity::Measure;
use ssj_text::encode::{encode, encode_two};
use ssj_text::{Collection, CorpusProfile, GeneratorConfig, RawCorpus, Record};

/// Strategy: a small collection with planted near-duplicates so results
/// exist at high thresholds.
fn arb_collection() -> impl Strategy<Value = Collection> {
    (
        prop::collection::vec(prop::collection::vec(0u32..80, 1..25), 2..40),
        prop::collection::vec(0usize..40, 0..10),
    )
        .prop_map(|(base_docs, dup_of)| {
            let mut docs = base_docs;
            let n = docs.len();
            for (k, &src) in dup_of.iter().enumerate() {
                let mut copy = docs[src % n].clone();
                // Perturb slightly: drop one token, add one.
                if copy.len() > 1 {
                    copy.remove(k % copy.len());
                }
                copy.push(80 + k as u32);
                docs.push(copy);
            }
            // Build a collection directly in "rank space": token ids are
            // already comparable; frequencies are computed for pivot
            // selection.
            let mut freqs = vec![0u64; 91];
            let records: Vec<Record> = docs
                .into_iter()
                .enumerate()
                .map(|(i, toks)| Record::new(i as u32, toks))
                .collect();
            for r in &records {
                for &t in &r.tokens {
                    freqs[t as usize] += 1;
                }
            }
            // Rank space must be frequency-ascending for Even-TF semantics;
            // re-rank tokens by (freq, id).
            let mut by_freq: Vec<u32> = (0..91).collect();
            by_freq.sort_by_key(|&t| (freqs[t as usize], t));
            let mut rank_of = vec![0u32; 91];
            for (rank, &t) in by_freq.iter().enumerate() {
                rank_of[t as usize] = rank as u32;
            }
            let records = records
                .into_iter()
                .map(|r| {
                    Record::new(
                        r.id,
                        r.tokens.iter().map(|&t| rank_of[t as usize]).collect(),
                    )
                })
                .collect::<Vec<_>>();
            let mut rank_freqs = vec![0u64; 91];
            for r in &records {
                for &t in &r.tokens {
                    rank_freqs[t as usize] += 1;
                }
            }
            Collection::new(records, rank_freqs, None)
        })
}

fn check(c: &Collection, cfg: &FsJoinConfig, label: &str) -> Result<(), TestCaseError> {
    let want = naive_self_join(&c.views(), cfg.measure, cfg.theta);
    let got = fsjoin::run_self_join(c, cfg);
    if let Err(e) = compare_results(&got.pairs, &want, 1e-9) {
        return Err(TestCaseError::fail(format!("{label}: {e}")));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Default configuration across thresholds and measures.
    #[test]
    fn default_config_matches_oracle(
        c in arb_collection(),
        theta in prop::sample::select(vec![0.5, 0.65, 0.75, 0.8, 0.9, 0.95]),
        measure in prop::sample::select(vec![Measure::Jaccard, Measure::Dice, Measure::Cosine]),
    ) {
        let cfg = FsJoinConfig::default()
            .with_theta(theta)
            .with_measure(measure)
            .with_workers(1);
        check(&c, &cfg, "default")?;
    }

    /// Every join kernel, with and without filters.
    #[test]
    fn kernels_and_filters_match_oracle(
        c in arb_collection(),
        theta in prop::sample::select(vec![0.6, 0.8, 0.9]),
        kernel in prop::sample::select(JoinKernel::all().to_vec()),
        filters in prop::sample::select(vec![FilterSet::ALL, FilterSet::NONE, FilterSet::STRL_ONLY]),
    ) {
        let cfg = FsJoinConfig::default()
            .with_theta(theta)
            .with_kernel(kernel)
            .with_filters(filters)
            .with_workers(1);
        check(&c, &cfg, "kernel/filters")?;
    }

    /// Pivot strategies and fragment counts (including degenerate 1).
    #[test]
    fn pivots_match_oracle(
        c in arb_collection(),
        strategy in prop::sample::select(PivotStrategy::all().to_vec()),
        fragments in prop::sample::select(vec![1usize, 2, 5, 16, 64]),
        seed in 0u64..5,
    ) {
        let cfg = FsJoinConfig::default()
            .with_theta(0.75)
            .with_pivot_strategy(strategy)
            .with_fragments(fragments)
            .with_seed(seed)
            .with_workers(1);
        check(&c, &cfg, "pivots")?;
    }

    /// Horizontal partitioning exactly-once across pivot counts.
    #[test]
    fn horizontal_matches_oracle(
        c in arb_collection(),
        t in prop::sample::select(vec![0usize, 1, 2, 5, 10]),
        theta in prop::sample::select(vec![0.6, 0.8]),
    ) {
        let cfg = FsJoinConfig::default()
            .with_theta(theta)
            .with_horizontal(t)
            .with_workers(1);
        check(&c, &cfg, "horizontal")?;
    }

    /// Task-count settings never change results.
    #[test]
    fn task_geometry_is_observationally_neutral(
        c in arb_collection(),
        map_tasks in 1usize..6,
        reduce_tasks in 1usize..6,
    ) {
        let cfg = FsJoinConfig::default()
            .with_theta(0.7)
            .with_tasks(map_tasks, reduce_tasks)
            .with_workers(1);
        check(&c, &cfg, "tasks")?;
    }
}

/// Non-proptest regression: an adversarial mix of lengths around horizontal
/// pivots with close spacing (the double-join hazard the paper's rule has).
#[test]
fn horizontal_boundary_stress() {
    // Many records of consecutive lengths sharing most tokens.
    let mut records = Vec::new();
    for (i, len) in (5usize..40).enumerate() {
        records.push(Record::new(i as u32, (0..len as u32).collect()));
        records.push(Record::new((100 + i) as u32, (1..len as u32 + 1).collect()));
    }
    // Dense ids for the driver.
    let records: Vec<Record> = records
        .into_iter()
        .enumerate()
        .map(|(i, r)| Record::new(i as u32, r.tokens))
        .collect();
    let freqs = vec![1u64; 41];
    let c = Collection::new(records, freqs, None);
    for theta in [0.6, 0.75, 0.9] {
        for t in [0, 1, 3, 7, 12] {
            let cfg = FsJoinConfig::default()
                .with_theta(theta)
                .with_horizontal(t)
                .with_workers(1);
            let want = naive_self_join(&c.views(), Measure::Jaccard, theta);
            let got = fsjoin::run_self_join(&c, &cfg);
            compare_results(&got.pairs, &want, 1e-9)
                .unwrap_or_else(|e| panic!("θ={theta} t={t}: {e}"));
        }
    }
}

/// EmailLike records of ≥ 300 tokens with planted near-duplicates: long
/// enough that the verify cascade's early exit fires mid-record, far past
/// the first chunk (the short corpora above never get there).
fn long_email_corpus() -> RawCorpus {
    let corpus = GeneratorConfig {
        num_records: 160,
        // Near-duplicates shed up to a quarter of their base's tokens.
        min_len: 500,
        near_dup_fraction: 0.3,
        ..CorpusProfile::EmailLike.config()
    }
    .generate();
    assert!(corpus.docs.iter().all(|d| d.len() >= 300));
    corpus
}

#[test]
fn long_records_self_join_pf_matches_oracle() {
    let c = encode(&long_email_corpus());
    for measure in Measure::all() {
        for theta in [0.75, 0.9] {
            let want = naive_self_join(&c.views(), measure, theta);
            assert!(!want.is_empty(), "{measure:?} θ={theta}: no planted pairs");
            for bitmap in [true, false] {
                let cfg = FsJoinConfig::default()
                    .with_measure(measure)
                    .with_theta(theta)
                    .with_bitmap_prune(bitmap);
                let got = fsjoin::run_self_join_pf(&c, &cfg);
                compare_results(&got.pairs, &want, 0.0)
                    .unwrap_or_else(|e| panic!("{measure:?} θ={theta} bitmap={bitmap}: {e}"));
                // Mostly dissimilar candidates: the kernel is called far
                // more often than it finds a pair.
                assert!(got.filter_stats.intersections > want.len() as u64);
            }
        }
    }
}

#[test]
fn long_records_rs_join_two_input_matches_oracle_on_both_paths() {
    let corpus = long_email_corpus();
    let (mut r_docs, mut s_docs) = (Vec::new(), Vec::new());
    for (i, doc) in corpus.docs.into_iter().enumerate() {
        if i % 3 == 0 { &mut r_docs } else { &mut s_docs }.push(doc);
    }
    let side = |docs| RawCorpus { docs, vocab: None };
    let (r, s) = encode_two(&side(r_docs), &side(s_docs));
    let offset = r.len() as u32;
    let s_shifted: Vec<Record> = s
        .iter()
        .map(|v| Record::from_sorted(v.id + offset, v.tokens.to_vec()))
        .collect();
    for measure in Measure::all() {
        for theta in [0.75, 0.9] {
            let want = naive_rs_join(&r.views(), &s_shifted, measure, theta);
            assert!(!want.is_empty(), "{measure:?} θ={theta}: no planted pairs");
            for cogroup in [true, false] {
                let cfg = FsJoinConfig::default()
                    .with_measure(measure)
                    .with_theta(theta)
                    .with_rs_cogroup(cogroup);
                let got = fsjoin::run_rs_join_two_input(&r, &s, &cfg);
                compare_results(&got.pairs, &want, 0.0)
                    .unwrap_or_else(|e| panic!("{measure:?} θ={theta} cogroup={cogroup}: {e}"));
            }
        }
    }
}
