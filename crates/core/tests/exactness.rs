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
fn long_records_rs_join_two_input_matches_oracle() {
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
            let cfg = FsJoinConfig::default()
                .with_measure(measure)
                .with_theta(theta);
            let got = fsjoin::run_rs_join_two_input(&r, &s, &cfg);
            compare_results(&got.pairs, &want, 0.0)
                .unwrap_or_else(|e| panic!("{measure:?} θ={theta}: {e}"));
        }
    }
}

/// R and S collections, built directly in rank space, whose cross pairs sit
/// on the edges of the two-input join's window → position → bitmap →
/// repeat cascade. Every pair draws fresh ranks in ascending runs, so the
/// positions of its shared tokens are set by construction:
///
/// 1. the shorter record is the longer one's suffix: their only common
///    prefix token is the longer one's last prefix token (both sides);
/// 2. exact duplicates across sides, which share every prefix token;
/// 3. one R record and S partners at lengths min−1, min, max and max+1 of
///    its StrL window (subsets below, supersets above);
/// 4. overlaps at α−1, α and α+1, shared as one run at the end of one
///    record and the start of the other, so the positional bound
///    `1 + min(|r|−pos_r−1, |s|−pos_s−1)` equals the overlap.
fn cascade_edge_sides(measure: Measure, theta: f64) -> (Collection, Collection) {
    let mut next = 0u32;
    let mut fresh = |n: usize| -> Vec<u32> {
        let run = (next..next + n as u32).collect();
        next += n as u32;
        run
    };
    let (mut r_docs, mut s_docs) = (Vec::new(), Vec::new());
    for len in [4usize, 10, 25, 64, 130] {
        let (min, max) = (
            measure.min_partner_len(theta, len),
            measure.max_partner_len(theta, len),
        );
        // 1.
        let long = fresh(len);
        let short = long[len - min..].to_vec();
        r_docs.extend([long.clone(), short.clone()]);
        s_docs.extend([short, long]);
        // 2.
        let dup = fresh(len);
        r_docs.push(dup.clone());
        s_docs.push(dup);
        // 3.
        let base = fresh(len);
        let extra = fresh(max + 1 - len);
        r_docs.push(base.clone());
        s_docs.extend([min - 1, min].map(|l| base[..l].to_vec()));
        s_docs.extend([max, max + 1].map(|l| [&base[..], &extra[..l - len]].concat()));
        // 4.
        for (len_r, len_s) in [(len, len), (len, len + 1), (len + 1, len)] {
            let alpha = measure.min_overlap(theta, len_r, len_s);
            for overlap in [alpha - 1, alpha, alpha + 1] {
                let c = overlap.min(len_r).min(len_s);
                // The run ends R's record, then S's.
                let (head, shared, tail) = (fresh(len_r - c), fresh(c), fresh(len_s - c));
                r_docs.push([&head[..], &shared[..]].concat());
                s_docs.push([&shared[..], &tail[..]].concat());
                let (head, shared, tail) = (fresh(len_s - c), fresh(c), fresh(len_r - c));
                r_docs.push([&shared[..], &tail[..]].concat());
                s_docs.push([&head[..], &shared[..]].concat());
            }
        }
    }
    let freqs = vec![1u64; next as usize];
    let side = |docs: Vec<Vec<u32>>| {
        let records = docs
            .into_iter()
            .filter(|d| !d.is_empty())
            .enumerate()
            .map(|(i, tokens)| Record::from_sorted(i as u32, tokens))
            .collect();
        Collection::new(records, freqs.clone(), None)
    };
    (side(r_docs), side(s_docs))
}

/// The two-input R×S join against the naive oracle, bit for bit, on the
/// edges of its cascade: every measure × θ, bitmap on and off. Each
/// similar pair is decided in exactly one token group, so the join emits
/// the result itself, and every considered pair ends in one cascade step.
#[test]
fn rs_join_two_input_is_exact_at_its_cascade_edges() {
    for measure in Measure::all() {
        for theta in [0.5, 0.75, 0.8, 0.9, 1.0] {
            let (r, s) = cascade_edge_sides(measure, theta);
            let offset = r.len() as u32;
            let s_shifted: Vec<Record> = s
                .iter()
                .map(|v| Record::from_sorted(v.id + offset, v.tokens.to_vec()))
                .collect();
            let want = naive_rs_join(&r.views(), &s_shifted, measure, theta);
            assert!(!want.is_empty(), "{measure:?} θ={theta}: no pairs");
            for bitmap in [true, false] {
                let cfg = FsJoinConfig::default()
                    .with_measure(measure)
                    .with_theta(theta)
                    .with_bitmap_prune(bitmap);
                let label = format!("{measure:?} θ={theta} bitmap={bitmap}");
                let got = fsjoin::run_rs_join_two_input(&r, &s, &cfg);
                compare_results(&got.pairs, &want, 0.0).unwrap_or_else(|e| panic!("{label}: {e}"));
                // `compare_results` compares pair *sets*: count them too.
                assert_eq!(
                    (got.candidates, got.pairs.len()),
                    (want.len(), want.len()),
                    "{label}"
                );
                let fs = got.filter_stats;
                assert_eq!(
                    fs.pairs_considered,
                    fs.position_pruned + fs.bitmap_pruned + fs.repeat_skipped + fs.intersections,
                    "{label}: {fs:?}"
                );
                if theta < 1.0 {
                    // At θ = 1 the probe prefix is one token: no repeats,
                    // and the bound 1 + (|r| − 1) never falls below α.
                    assert!(
                        fs.position_pruned > 0 && fs.repeat_skipped > 0,
                        "{label}: {fs:?}"
                    );
                }
            }
        }
    }
}

/// A corpus built to sit on the record-signature step's edges for one
/// `(measure, θ)`: partner pairs whose overlap is planted at α−1, α and
/// α+1 over short, medium and ≥ 600-token lengths (at 128 bits the longest
/// saturate the bitmaps, so the guard must skip the read), plus a
/// duplicate-heavy head — many short records drawn from a dozen hot tokens,
/// exact duplicates included. Partners sit at docs `2k` and `2k + 1`.
fn signature_edge_corpus(measure: Measure, theta: f64) -> Vec<Vec<u64>> {
    let mut docs = Vec::new();
    let mut next_token = 1_000u64;
    let mut fresh = |n: usize| {
        let run: Vec<u64> = (next_token..next_token + n as u64).collect();
        next_token += n as u64;
        run
    };
    for (len_a, len_b) in [(12, 12), (30, 36), (64, 64), (130, 150), (620, 640)] {
        let alpha = measure.min_overlap(theta, len_a, len_b);
        for overlap in [alpha.saturating_sub(1), alpha, alpha + 1] {
            let overlap = overlap.min(len_a);
            let shared = fresh(overlap);
            for len in [len_a, len_b] {
                let mut doc = shared.clone();
                doc.extend(fresh(len - overlap));
                docs.push(doc);
            }
        }
    }
    // The head: record k holds hot token j iff bit j of a fixed mix of k is
    // set; k and k + 20 are exact duplicates.
    for k in 0..40u64 {
        let mix = (k % 20 + 3).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        let doc: Vec<u64> = (0..12).filter(|j| mix >> j & 1 == 1).collect();
        docs.push(if doc.is_empty() { vec![0] } else { doc });
    }
    docs
}

/// The fragment path — self-join and R×S over the concatenated pool
/// (`CrossSides`) — equals the naive oracle bit for bit with the
/// record-signature step on and off, under every kernel.
#[test]
fn signature_step_is_exact_at_its_edges() {
    let corpus = |docs| RawCorpus { docs, vocab: None };
    for measure in Measure::all() {
        for theta in [0.5, 0.75, 0.8, 0.9, 1.0] {
            let docs = signature_edge_corpus(measure, theta);
            let whole = encode(&corpus(docs.clone()));
            let want_self = naive_self_join(&whole.views(), measure, theta);
            assert!(!want_self.is_empty(), "{measure:?} θ={theta}: no pairs");

            // Partners land on opposite sides.
            let (r_docs, s_docs): (Vec<_>, Vec<_>) = docs
                .chunks(2)
                .map(|pair| (pair[0].clone(), pair[1].clone()))
                .unzip();
            let (r, s) = encode_two(&corpus(r_docs), &corpus(s_docs));
            let offset = r.len() as u32;
            let s_shifted: Vec<Record> = s
                .iter()
                .map(|v| Record::from_sorted(v.id + offset, v.tokens.to_vec()))
                .collect();
            let want_rs = naive_rs_join(&r.views(), &s_shifted, measure, theta);
            assert!(!want_rs.is_empty(), "{measure:?} θ={theta}: no R×S pairs");

            for kernel in JoinKernel::all() {
                for prune in [true, false] {
                    let cfg = FsJoinConfig::default()
                        .with_measure(measure)
                        .with_theta(theta)
                        .with_kernel(kernel)
                        .with_bitmap_prune(prune)
                        .with_workers(1);
                    let label = format!("{measure:?} θ={theta} {kernel:?} prune={prune}");
                    let got = fsjoin::run_self_join(&whole, &cfg);
                    compare_results(&got.pairs, &want_self, 0.0)
                        .unwrap_or_else(|e| panic!("self {label}: {e}"));
                    let fs = got.filter_stats;
                    assert_eq!(fs.bitmap_checks > 0, prune, "self {label}");
                    if prune && theta == 0.5 {
                        // The 620/640-token partners pass StrL but saturate
                        // 128 bits: admitted without a bitmap read.
                        let past_strl = fs.pairs_considered - fs.strl_pruned;
                        assert!(fs.bitmap_checks < past_strl, "self {label}: {fs:?}");
                    }
                    let got = fsjoin::run_rs_join(&r, &s, &cfg);
                    compare_results(&got.pairs, &want_rs, 0.0)
                        .unwrap_or_else(|e| panic!("rs {label}: {e}"));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// StrL and the signature step judge the two *records*, so a pair they
    /// drop is dropped in every fragment: under record-level filters alone
    /// the partial counts a pair emits either sum to its exact overlap or
    /// the pair emits nothing at all — and then it is not θ-similar.
    #[test]
    fn signature_step_drops_a_pair_in_every_fragment_or_none(
        c in arb_collection(),
        theta in prop::sample::select(vec![0.5, 0.75, 0.9]),
        kernel in prop::sample::select(vec![JoinKernel::Loop, JoinKernel::Index]),
        filters in prop::sample::select(vec![FilterSet::NONE, FilterSet::STRL_ONLY]),
        fragments in prop::sample::select(vec![2usize, 5, 16]),
    ) {
        use fsjoin::cell_index::CellIndex;
        use fsjoin::fragment::{join_fragment, FragmentJoin, PairScope};
        use ssj_similarity::intersect::intersect_count_merge;
        use std::collections::BTreeMap;

        let measure = Measure::Jaccard;
        let pivots =
            fsjoin::pivots::select_pivots(&c.token_freqs, fragments - 1, PivotStrategy::EvenTf, 42);
        let mut cells: BTreeMap<usize, Vec<fsjoin::Segment>> = BTreeMap::new();
        for v in c.iter() {
            for (k, seg) in fsjoin::vertical::split_record(v.id, 0, v.tokens, c.span(v.id), &pivots) {
                cells.entry(k).or_default().push(seg);
            }
        }
        let join = FragmentJoin {
            pool: c.pool(),
            scope: PairScope::SelfJoin,
            measure,
            theta,
            kernel,
            filters,
            policy: fsjoin::EmitPolicy::Exact,
            signatures: true,
        };
        let mut index = CellIndex::default();
        let mut stats = fsjoin::FilterStats::default();
        let mut sums: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        for segments in cells.values_mut() {
            let rule = fsjoin::horizontal::JoinRule::All;
            for rec in join_fragment(&join, segments, rule, &mut index, &mut stats) {
                *sums.entry(rec.key()).or_default() += rec.common as usize;
            }
        }
        prop_assert_eq!(stats.unaccounted(), 0);
        for a in 0..c.len() as u32 {
            for b in a + 1..c.len() as u32 {
                let (ta, tb) = (c.tokens(a), c.tokens(b));
                let overlap = intersect_count_merge(ta, tb);
                match sums.get(&(a, b)) {
                    Some(&sum) => prop_assert!(sum == overlap, "pair ({}, {}): {} != {}", a, b, sum, overlap),
                    None => prop_assert!(
                        overlap == 0 || !measure.passes(overlap, ta.len(), tb.len(), theta),
                        "similar pair ({}, {}) emitted nothing", a, b
                    ),
                }
            }
        }
    }
}

/// The length window is StrL, pair for pair, at every length the float
/// rounding in `min_partner_len` can bite: 2,000 records of lengths
/// 1..=2000 that all share one token, joined by the Index kernel under StrL
/// alone, emit exactly the pairs `strl_pass` admits — and the window's
/// lower slot is where `strl_pass` starts to hold.
#[test]
fn length_window_equals_strl_pair_for_pair() {
    use fsjoin::cell_index::{CellIndex, Slot};
    use fsjoin::filters::strl_pass;
    use fsjoin::fragment::{join_fragment, FragmentJoin, PairScope};
    use fsjoin::horizontal::JoinRule;

    const MAX_LEN: u32 = 2000;
    // Record `len - 1` has length `len`: rank 0 then filler ranks; the cell
    // holds each record's first token only.
    let mut pool = ssj_text::TokenPool::new();
    let mut cell = Vec::new();
    for len in 1..=MAX_LEN {
        let tokens: Vec<u32> = (0..len).collect();
        let span = pool.push(&tokens);
        cell.push(fsjoin::Segment {
            rid: len - 1,
            side: 0,
            len,
            head: 0,
            tail: len - 1,
            span: span.slice(0, 1),
        });
    }
    let mut lengths = CellIndex::default();
    lengths.rebuild(
        0,
        (1..=MAX_LEN).map(|len| Slot {
            len,
            group: len,
            sig: &[],
            tokens: &[],
        }),
    );
    let mut index = CellIndex::default();
    for measure in Measure::all() {
        for theta in [0.5, 0.75, 0.8, 0.9, 1.0] {
            let mut want = Vec::new();
            for b in 1..=MAX_LEN {
                let slot_b = (b - 1) as usize;
                let start = lengths
                    .window(measure.min_partner_len(theta, b as usize), slot_b)
                    .start;
                for a in 1..b {
                    let pass = strl_pass(measure, theta, a, b);
                    assert_eq!(pass, strl_pass(measure, theta, b, a));
                    assert_eq!(
                        pass,
                        (a - 1) as usize >= start,
                        "{measure:?} θ={theta} |a|={a} |b|={b} window starts at slot {start}"
                    );
                    if pass {
                        want.push((a - 1, b - 1));
                    }
                }
            }
            let join = FragmentJoin {
                pool: &pool,
                scope: PairScope::SelfJoin,
                measure,
                theta,
                kernel: JoinKernel::Index,
                filters: FilterSet::STRL_ONLY,
                policy: fsjoin::EmitPolicy::Exact,
                signatures: false,
            };
            let mut stats = fsjoin::FilterStats::default();
            let mut got: Vec<(u32, u32)> =
                join_fragment(&join, &mut cell, JoinRule::All, &mut index, &mut stats)
                    .iter()
                    .map(|rec| rec.key())
                    .collect();
            got.sort_unstable();
            want.sort_unstable();
            assert!(got == want, "{measure:?} θ={theta}: emitted pairs differ");
            // One shared token per pair: every pair is one posting, visited
            // or skipped.
            let all_pairs = u64::from(MAX_LEN) * u64::from(MAX_LEN - 1) / 2;
            assert_eq!(stats.pairs_considered, want.len() as u64);
            assert_eq!(stats.window_skipped, all_pairs - want.len() as u64);
            assert_eq!(stats.strl_pruned, 0);
            assert_eq!(stats.unaccounted(), 0);
        }
    }
}

/// Corpora that sit on the length window's edges. Partners are docs `2k`
/// and `2k + 1`, so the R×S split by parity puts them on opposite sides.
fn window_edge_corpora(measure: Measure, theta: f64) -> Vec<(&'static str, Vec<Vec<u64>>)> {
    // Tokens no other record holds, handed out in runs.
    let next_token = std::cell::Cell::new(10_000u64);
    let fresh = |n: usize| -> Vec<u64> {
        let start = next_token.replace(next_token.get() + n as u64);
        (start..start + n as u64).collect()
    };
    // Hot tokens every record draws from, so every cell is one big
    // co-token clique and only the filters keep pairs apart.
    let hot = |k: usize, n: usize| -> Vec<u64> {
        let mut doc: Vec<u64> = (0..n).map(|j| ((k + j * 7) % 24) as u64).collect();
        doc.sort_unstable();
        doc.dedup();
        doc
    };
    // A pair of the given lengths sharing exactly `overlap` tokens.
    let planted = |len_a: usize, len_b: usize, overlap: usize| {
        let shared = fresh(overlap.min(len_a));
        [len_a, len_b].map(|len| {
            let mut doc = shared.clone();
            doc.extend(fresh(len - shared.len()));
            doc
        })
    };

    // 1. Every record has the same length: the window is the whole cell.
    let mut equal = Vec::new();
    let alpha = measure.min_overlap(theta, 20, 20);
    for overlap in [alpha - 1, alpha, alpha + 1] {
        equal.extend(planted(20, 20, overlap));
    }
    for k in 0..30 {
        let mut doc = hot(k, 12);
        let pad = 20 - doc.len();
        doc.extend(fresh(pad));
        equal.push(doc);
    }

    // 2. One giant (and its near-duplicate) among tiny records: the giants'
    // windows start past every tiny record.
    let mut giant = Vec::new();
    let alpha = measure.min_overlap(theta, 2_900, 3_000);
    giant.extend(planted(2_900, 3_000, alpha));
    for doc in &mut giant {
        doc.extend(0..24);
    }
    for k in 0..30 {
        giant.push(hot(k, 3 + k % 4));
    }

    // 3. Every record outside every other's window: each length is more
    // than twice the one before (θ ≥ 0.5 admits nothing below half).
    let mut apart = Vec::new();
    for (k, len) in [3usize, 7, 15, 31, 63, 127, 255, 511]
        .into_iter()
        .enumerate()
    {
        let mut doc = hot(k, 3);
        let pad = len - doc.len();
        doc.extend(fresh(pad));
        apart.push(doc);
    }

    // 4. Partners exactly on the window's lower edge — the shorter record
    // is the shortest the longer one admits — sharing all of the shorter
    // one, and one token short of it.
    let mut edge = Vec::new();
    for len_b in [10usize, 25, 99, 100, 101, 640] {
        let len_a = measure.min_partner_len(theta, len_b).max(1);
        edge.extend(planted(len_a, len_b, len_a));
        edge.extend(planted(len_a, len_b, len_a - 1));
        if len_a > 1 {
            // One below the edge: outside the window whatever it shares.
            edge.extend(planted(len_a - 1, len_b, len_a - 1));
        }
    }

    // 5. Lengths ascending by one from doc to doc, neighbours near
    // duplicates: after the parity split R holds the even lengths and S
    // the odd ones, so a length-sorted cell alternates sides.
    let mut interleaved = Vec::new();
    for k in 0..16usize {
        let len = 30 + 2 * k;
        let alpha = measure.min_overlap(theta, len, len + 1);
        interleaved.extend(planted(len, len + 1, alpha + k % 2));
    }
    for doc in &mut interleaved {
        doc.extend([0, 1, 2]);
    }

    vec![
        ("equal lengths", equal),
        ("giant among tiny", giant),
        ("all outside all windows", apart),
        ("window edge", edge),
        ("sides interleaved by length", interleaved),
        // 6. PR 15's signature edges, 620/640 saturating pair included.
        ("signature edges", signature_edge_corpus(measure, theta)),
    ]
}

/// The indexed kernels' length window and Hamming-limit table against the
/// naive oracle, bit for bit, where they are most likely to be off by one:
/// every kernel × signature step on/off × filter set, self-join and R×S.
#[test]
fn length_window_and_signature_table_are_exact_at_their_edges() {
    let corpus = |docs| RawCorpus { docs, vocab: None };
    for (measure, theta) in [
        (Measure::Jaccard, 0.8),
        (Measure::Jaccard, 0.5),
        (Measure::Dice, 0.75),
        (Measure::Cosine, 0.9),
    ] {
        for (name, docs) in window_edge_corpora(measure, theta) {
            let whole = encode(&corpus(docs.clone()));
            let want_self = naive_self_join(&whole.views(), measure, theta);
            let (r_docs, s_docs): (Vec<_>, Vec<_>) = docs
                .chunks(2)
                .map(|pair| (pair[0].clone(), pair[1].clone()))
                .unzip();
            let (r, s) = encode_two(&corpus(r_docs), &corpus(s_docs));
            let offset = r.len() as u32;
            let s_shifted: Vec<Record> = s
                .iter()
                .map(|v| Record::from_sorted(v.id + offset, v.tokens.to_vec()))
                .collect();
            let want_rs = naive_rs_join(&r.views(), &s_shifted, measure, theta);
            if name != "all outside all windows" {
                assert!(
                    !want_self.is_empty(),
                    "{name} {measure:?} θ={theta}: no pairs"
                );
                assert!(
                    !want_rs.is_empty(),
                    "{name} {measure:?} θ={theta}: no R×S pairs"
                );
            }
            for kernel in JoinKernel::all() {
                for prune in [true, false] {
                    for filters in [FilterSet::ALL, FilterSet::NONE, FilterSet::STRL_ONLY] {
                        let cfg = FsJoinConfig::default()
                            .with_measure(measure)
                            .with_theta(theta)
                            .with_kernel(kernel)
                            .with_bitmap_prune(prune)
                            .with_filters(filters)
                            .with_workers(1);
                        let label = format!(
                            "{name} {measure:?} θ={theta} {kernel:?} prune={prune} {filters:?}"
                        );
                        let got = fsjoin::run_self_join(&whole, &cfg);
                        compare_results(&got.pairs, &want_self, 0.0)
                            .unwrap_or_else(|e| panic!("self {label}: {e}"));
                        assert_eq!(got.filter_stats.unaccounted(), 0, "self {label}");
                        let got = fsjoin::run_rs_join(&r, &s, &cfg);
                        compare_results(&got.pairs, &want_rs, 0.0)
                            .unwrap_or_else(|e| panic!("rs {label}: {e}"));
                        assert_eq!(got.filter_stats.unaccounted(), 0, "rs {label}");
                    }
                }
            }
        }
    }
}
