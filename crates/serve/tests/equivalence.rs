//! The serving plane's correctness gate: probe answers must be
//! **bit-identical** to batch FS-Join results — same pair sets, same
//! score bits — on random corpora across thresholds, and must stay so
//! under randomized insert/compaction interleavings. Top-k must match a
//! naive scored scan exactly (same admission, same ordering, same bits).

use proptest::prelude::*;
use ssj_serve::{build_index, ServeConfig, ServeIndex};
use ssj_similarity::intersect::intersect_count_merge;
use ssj_similarity::Measure;
use ssj_text::{encode, Collection, RawCorpus, Record, RecordId};

/// Thresholds the gate sweeps (all ≥ the index's `theta_min`).
const THETAS: [f64; 3] = [0.75, 0.85, 0.95];
const THETA_MIN: f64 = 0.7;

fn serve_cfg() -> ServeConfig {
    ServeConfig::default()
        .with_theta_min(THETA_MIN)
        .with_partitions(3)
        .with_map_tasks(2)
        .with_workers(2)
}

fn batch_cfg(theta: f64) -> fsjoin::FsJoinConfig {
    fsjoin::FsJoinConfig::default()
        .with_theta(theta)
        .with_tasks(2, 4)
        .with_workers(2)
}

/// Encode random docs into a collection (global ordering computed over
/// the whole corpus, exactly like the batch pipeline).
fn collection_from_docs(docs: Vec<Vec<u64>>) -> Collection {
    encode(&RawCorpus { docs, vocab: None })
}

/// The first `n` records of `full`, in `full`'s rank space — the frozen
/// ordering an index is built on before the remaining records arrive as
/// inserts.
fn prefix_collection(full: &Collection, n: usize) -> Collection {
    let records = (0..n)
        .map(|rid| Record::from_sorted(rid as RecordId, full.tokens(rid as RecordId).to_vec()))
        .collect();
    Collection::new(records, full.token_freqs.clone(), None)
}

/// Canonical digest shape: `(a, b, score bits)` ascending, `a < b`.
type PairBits = (RecordId, RecordId, u64);

fn batch_pairs(collection: &Collection, theta: f64) -> Vec<PairBits> {
    let result = fsjoin::run_self_join(collection, &batch_cfg(theta));
    let mut pairs: Vec<PairBits> = result
        .pairs
        .iter()
        .map(|p| (p.a, p.b, p.sim.to_bits()))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Probe every visible record against the index (self excluded) and
/// collect the canonical pair digest. Each pair is found from both
/// endpoints; scores must agree bit-for-bit, so dedup collapses them.
fn probe_all(index: &ServeIndex, theta: f64) -> Vec<PairBits> {
    let mut stats = ssj_serve::ProbeStats::default();
    let mut pairs: Vec<PairBits> = Vec::new();
    for rec in 0..index.len() as RecordId {
        let hits = index.probe_with(index.tokens_of(rec), theta, Some(rec), &mut stats);
        for (other, sim) in hits {
            let (a, b) = if rec < other {
                (rec, other)
            } else {
                (other, rec)
            };
            pairs.push((a, b, sim.to_bits()));
        }
    }
    // The cascade's conservation law: every candidate ends position-pruned,
    // bitmap-pruned or verified, and only verified ones hit.
    assert_eq!(stats.unaccounted(), 0, "{stats:?}");
    assert!(stats.hits <= stats.verified, "{stats:?}");
    pairs.sort_unstable();
    let before = pairs.len();
    pairs.dedup();
    assert_eq!(
        pairs.len() * 2,
        before,
        "every pair must be found from both endpoints"
    );
    pairs
}

fn docs_strategy() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(0u64..60, 0..10), 1..40).prop_map(|mut docs| {
        // Random token sets almost never collide at θ ≥ 0.75, which would
        // make the equivalence property vacuous. Turn every odd doc into a
        // one-token mutation of its predecessor so the corpora carry real
        // near-duplicate structure at every swept threshold.
        for i in (1..docs.len()).step_by(2) {
            let mut dup = docs[i - 1].clone();
            if let Some(extra) = docs[i].first().copied() {
                dup.push(extra);
            }
            docs[i] = dup;
        }
        docs
    })
}

/// The proptest corpora are only useful if they actually produce similar
/// pairs; pin that on a deterministic corpus so the property tests can't
/// silently degenerate to comparing empty sets.
#[test]
fn known_corpus_has_pairs_and_matches() {
    let docs = vec![
        vec![0, 1, 2, 3, 4, 5],
        vec![0, 1, 2, 3, 4, 5, 6], // J = 6/7 ≈ 0.857
        vec![0, 1, 2, 3, 4, 5],    // exact duplicate of doc 0
        vec![10, 11, 12],
        vec![10, 11, 12, 13], // J = 3/4 = 0.75
    ];
    let collection = collection_from_docs(docs);
    let index = build_index(&collection, &serve_cfg());
    for theta in THETAS {
        let batch = batch_pairs(&collection, theta);
        assert!(!batch.is_empty(), "θ={theta} found no pairs");
        assert_eq!(probe_all(&index, theta), batch);
    }
    assert_eq!(
        batch_pairs(&collection, 0.95).len(),
        1,
        "only the exact duplicate at 0.95"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole gate 1: probe-all == batch FS-Join, for every θ.
    #[test]
    fn probe_all_matches_batch_join(docs in docs_strategy()) {
        let collection = collection_from_docs(docs);
        let index = build_index(&collection, &serve_cfg());
        for theta in THETAS {
            prop_assert_eq!(probe_all(&index, theta), batch_pairs(&collection, theta));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole gate 2: build on a prefix, insert the rest with random
    /// compaction points — answers still match the batch join over the
    /// full collection, at every θ, with ids aligned.
    #[test]
    fn insert_compaction_interleavings_match_batch_join(
        docs in docs_strategy(),
        split in 0.0f64..1.0,
        compact_mask in prop::collection::vec(0u32..4, 64),
    ) {
        let full = collection_from_docs(docs);
        let n = full.len();
        let base = 1 + (split * (n - 1) as f64) as usize; // 1..=n
        let index_base = prefix_collection(&full, base);
        let mut index = build_index(&index_base, &serve_cfg());
        for rid in base..n {
            // Insert ids must continue the arena's dense numbering.
            let got = index.insert(full.tokens(rid as RecordId)).unwrap();
            prop_assert_eq!(got as usize, rid);
            // Compact after ~1/4 of inserts, at positions drawn by proptest.
            if compact_mask[(rid - base) % compact_mask.len()] == 0 {
                index.compact();
            }
        }
        prop_assert_eq!(index.len(), n);
        for theta in THETAS {
            prop_assert_eq!(probe_all(&index, theta), batch_pairs(&full, theta));
        }
        // One final compaction must not change anything either.
        index.compact();
        prop_assert_eq!(index.delta_len(), 0);
        for theta in THETAS {
            prop_assert_eq!(probe_all(&index, theta), batch_pairs(&full, theta));
        }
    }
}

/// Naive top-k oracle: score the query against every record with the full
/// intersection, admit at `theta_min`, order by (score desc, id asc).
fn naive_top_k(
    collection_like: &ServeIndex,
    query: &[u32],
    measure: Measure,
    k: usize,
) -> Vec<(RecordId, u64)> {
    let mut scored: Vec<(RecordId, f64)> = Vec::new();
    for rec in 0..collection_like.len() as RecordId {
        let tokens = collection_like.tokens_of(rec);
        let overlap = intersect_count_merge(query, tokens);
        if measure.passes(overlap, query.len(), tokens.len(), THETA_MIN) {
            scored.push((rec, measure.score(overlap, query.len(), tokens.len())));
        }
    }
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored.into_iter().map(|(r, s)| (r, s.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tentpole gate 3: top-k == naive scored scan, bit-for-bit, for
    /// arbitrary queries — including out-of-vocabulary ranks.
    #[test]
    fn top_k_matches_naive_scan(
        docs in docs_strategy(),
        raw_query in prop::collection::vec(0u32..80, 0..12),
        k in 1usize..8,
    ) {
        let collection = collection_from_docs(docs);
        let universe = collection.token_freqs.len() as u32;
        // Fold the raw draw into rank space, allowing ranks past the
        // universe (out-of-vocabulary: legal, matches nothing).
        let mut query: Vec<u32> = raw_query
            .into_iter()
            .map(|t| t % (universe + 5))
            .collect();
        query.sort_unstable();
        query.dedup();
        let index = build_index(&collection, &serve_cfg());
        let got: Vec<(RecordId, u64)> = index
            .top_k(&query, k)
            .into_iter()
            .map(|(r, s)| (r, s.to_bits()))
            .collect();
        prop_assert_eq!(got, naive_top_k(&index, &query, index.config().measure, k));
    }
}

/// Out-of-vocabulary inserts: ranks at or past the frozen universe are
/// legal, probeable, and survive compaction (the directory widens).
#[test]
fn oov_inserts_probe_and_compact() {
    let collection = collection_from_docs(vec![vec![0, 1, 2], vec![0, 1, 3], vec![4, 5]]);
    let universe = collection.token_freqs.len() as u32;
    let mut index = build_index(&collection, &serve_cfg());
    let novel = vec![universe + 2, universe + 7, universe + 9];
    let rid = index.insert(&novel).unwrap();
    let hits = index.probe(&novel, 0.95);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].0, rid);
    assert_eq!(hits[0].1, 1.0);
    index.compact();
    assert_eq!(index.delta_len(), 0);
    let hits = index.probe(&novel, 0.95);
    assert_eq!((hits.len(), hits[0].0, hits[0].1), (1, rid, 1.0));
}

/// Probing below `theta_min` must fail loudly — the index prefix is too
/// short to be sound there.
#[test]
#[should_panic(expected = "outside supported")]
fn probe_below_theta_min_panics() {
    let collection = collection_from_docs(vec![vec![0, 1], vec![1, 2]]);
    let index = build_index(&collection, &serve_cfg());
    let _ = index.probe(&[0, 1], 0.5);
}
