//! PPJoin (Xiao et al., WWW'08): prefix filter + position filter.
//!
//! Extends AllPairs with the positional upper bound: while accumulating
//! prefix-token matches for a candidate, the final overlap can be bounded
//! by `matches_so_far + 1 + min(remaining_x, remaining_y)`; candidates that
//! can no longer reach the required overlap are pruned before verification.
//! This is the in-memory kernel RIDPairsPPJoin runs inside each reduce
//! group (paper §II-C), and also FS-Join's "PPJoin-style" comparison point.

use crate::index::InvertedIndex;
use crate::measure::Measure;
use crate::pair::SimilarPair;
use crate::verify::Verifier;
use ssj_common::FxHashMap;
use ssj_text::TokenSet;

/// Candidate accumulator state: matches seen, or pruned.
const PRUNED: u32 = u32::MAX;

/// Statistics from one PPJoin run, for filter-power reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PPJoinStats {
    /// Candidates that reached verification.
    pub verified: usize,
    /// Candidates killed by the position filter.
    pub position_pruned: usize,
    /// Result pairs.
    pub results: usize,
}

/// PPJoin self-join.
pub fn ppjoin_self_join<R: TokenSet>(
    records: &[R],
    measure: Measure,
    theta: f64,
) -> Vec<SimilarPair> {
    ppjoin_self_join_stats(records, measure, theta).0
}

/// PPJoin self-join, also returning pruning statistics.
pub fn ppjoin_self_join_stats<R: TokenSet>(
    records: &[R],
    measure: Measure,
    theta: f64,
) -> (Vec<SimilarPair>, PPJoinStats) {
    assert!(
        (0.0..=1.0).contains(&theta) && theta > 0.0,
        "θ must be in (0,1]"
    );
    let mut order: Vec<&R> = records.iter().filter(|r| !r.tokens().is_empty()).collect();
    order.sort_unstable_by(|a, b| a.size().cmp(&b.size()).then(a.id().cmp(&b.id())));

    let mut index = InvertedIndex::new();
    let mut out = Vec::new();
    let mut stats = PPJoinStats::default();
    let verifier = Verifier { measure, theta };
    // candidate slot -> prefix-match count (or PRUNED).
    let mut acc: FxHashMap<u32, u32> = FxHashMap::default();

    for (slot, x) in order.iter().enumerate() {
        acc.clear();
        let min_len = measure.min_partner_len(theta, x.size());
        let probe = measure.probe_prefix_len(theta, x.size());
        for (i, &w) in x.tokens()[..probe].iter().enumerate() {
            for p in index.get(w) {
                let y = order[p.slot as usize];
                if y.size() < min_len {
                    continue;
                }
                let entry = acc.entry(p.slot).or_insert(0);
                if *entry == PRUNED {
                    continue;
                }
                let alpha = measure.min_overlap(theta, x.size(), y.size()) as u32;
                // Position filter: best-possible final overlap.
                let remaining = (x.size() - i - 1).min(y.size() - p.pos as usize - 1) as u32;
                if *entry + 1 + remaining >= alpha {
                    *entry += 1;
                } else {
                    *entry = PRUNED;
                    stats.position_pruned += 1;
                }
            }
        }
        for (&slot_y, &count) in &acc {
            if count == 0 || count == PRUNED {
                continue;
            }
            let y = order[slot_y as usize];
            stats.verified += 1;
            if let Some((_, sim)) = verifier.verify(x.tokens(), y.tokens(), None).similar {
                out.push(SimilarPair::new(x.id(), y.id(), sim));
            }
        }
        let index_prefix = measure.index_prefix_len(theta, x.size());
        for (pos, &w) in x.tokens()[..index_prefix].iter().enumerate() {
            index.push(w, slot as u32, pos as u32);
        }
    }
    stats.results = out.len();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allpairs::allpairs_self_join;
    use crate::naive::naive_self_join;
    use crate::pair::compare_results;
    use ssj_text::Record;

    fn rec(id: u32, tokens: &[u32]) -> Record {
        Record::new(id, tokens.to_vec())
    }

    fn random_records(n: u32, vocab: u32, max_len: u32, seed: u64) -> Vec<Record> {
        let mut state = seed;
        let mut next = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as u32) % m
        };
        (0..n)
            .map(|id| {
                let len = 2 + next(max_len);
                rec(id, &(0..len).map(|_| next(vocab)).collect::<Vec<_>>())
            })
            .collect()
    }

    #[test]
    fn agrees_with_oracle_and_allpairs() {
        let records = random_records(150, 80, 24, 999);
        for m in Measure::all() {
            for &theta in &[0.5, 0.7, 0.85, 0.95] {
                let want = naive_self_join(&records, m, theta);
                let (got, _) = ppjoin_self_join_stats(&records, m, theta);
                compare_results(&got, &want, 1e-9)
                    .unwrap_or_else(|e| panic!("ppjoin {m:?} θ={theta}: {e}"));
                let ap = allpairs_self_join(&records, m, theta);
                compare_results(&ap, &want, 1e-9)
                    .unwrap_or_else(|e| panic!("allpairs {m:?} θ={theta}: {e}"));
            }
        }
    }

    #[test]
    fn position_filter_prunes_late_prefix_matches() {
        // θ=0.5, both length 20 ⇒ α = ⌈0.5/1.5·40⌉ = 14, probe prefix 11,
        // index prefix 7. The single shared token sits at index position 6
        // of y and probe position 9 of x, so on the first (only) match the
        // positional bound is 1 + min(20−10, 20−7) = 11 < 14 ⇒ prune.
        let y_toks: Vec<u32> = (1000..1006u32)
            .chain([50_000])
            .chain(60_000..60_013)
            .collect();
        let x_toks: Vec<u32> = (2000..2009u32)
            .chain([50_000])
            .chain(70_000..70_010)
            .collect();
        let records = vec![rec(0, &y_toks), rec(1, &x_toks)];
        let (out, stats) = ppjoin_self_join_stats(&records, Measure::Jaccard, 0.5);
        assert!(out.is_empty());
        assert_eq!(stats.position_pruned, 1, "{stats:?}");
        assert_eq!(stats.verified, 0, "{stats:?}");
    }

    #[test]
    fn near_duplicates_found_with_scores() {
        let recs = vec![
            rec(0, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
            rec(1, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 11]),
        ];
        let out = ppjoin_self_join(&recs, Measure::Jaccard, 0.8);
        assert_eq!(out.len(), 1);
        assert!((out[0].sim - 9.0 / 11.0).abs() < 1e-12);
    }
}
