//! PPJoin+ (Xiao, Wang, Lin, Yu — WWW'08): PPJoin extended with the
//! suffix filter.
//!
//! After the prefix + position filters admit a candidate, the suffix
//! filter probes the two records' *suffixes* (tokens after the matched
//! prefix position) with a recursive divide-and-conquer that lower-bounds
//! their Hamming distance; candidates whose bound already exceeds the
//! allowance `|s| + |t| − 2·minoverlap` are pruned before the (relatively
//! expensive) full verification. The filter is estimation-only — it never
//! changes results, which the oracle tests assert.

use crate::index::InvertedIndex;
use crate::measure::Measure;
use crate::pair::SimilarPair;
use crate::ppjoin::PPJoinStats;
use crate::verify::Verifier;
use ssj_common::FxHashMap;
use ssj_text::TokenSet;

/// Candidate accumulator state: matches seen, or pruned.
const PRUNED: u32 = u32::MAX;

/// Recursion depth for the suffix filter (the paper uses small depths;
/// deeper probes prune more but cost more).
const MAX_DEPTH: usize = 2;

/// Lower bound on the Hamming distance (symmetric difference) of two
/// sorted token arrays, by divide-and-conquer around the probe token
/// of the longer side's middle.
fn suffix_hamming_lower_bound(a: &[u32], b: &[u32], hmax: i64, depth: usize) -> i64 {
    let diff = (a.len() as i64 - b.len() as i64).abs();
    if depth == 0 || a.is_empty() || b.is_empty() || diff > hmax {
        return diff;
    }
    // Probe the middle token of the shorter array inside the longer one.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mid = short.len() / 2;
    let w = short[mid];
    let (sl, sr) = (&short[..mid], &short[mid + 1..]);
    // Position of w (or insertion point) in the long array.
    let pos = long.partition_point(|&t| t < w);
    let found = pos < long.len() && long[pos] == w;
    let (ll, lr) = if found {
        (&long[..pos], &long[pos + 1..])
    } else {
        (&long[..pos], &long[pos..])
    };
    let self_cost = i64::from(!found);
    // Recurse on both halves with a shared budget.
    let left = suffix_hamming_lower_bound(sl, ll, hmax - self_cost, depth - 1);
    let right = suffix_hamming_lower_bound(sr, lr, hmax - self_cost - left, depth - 1);
    left + right + self_cost
}

/// PPJoin+ self-join.
pub fn ppjoin_plus_self_join<R: TokenSet>(
    records: &[R],
    measure: Measure,
    theta: f64,
) -> Vec<SimilarPair> {
    ppjoin_plus_self_join_stats(records, measure, theta).0
}

/// PPJoin+ self-join, also returning pruning statistics (the
/// `position_pruned` field counts both position- and suffix-filter kills).
pub fn ppjoin_plus_self_join_stats<R: TokenSet>(
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
    // candidate slot -> (prefix matches, probe position of last match in x,
    // position of last match in y).
    let mut acc: FxHashMap<u32, (u32, u32, u32)> = FxHashMap::default();

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
                let entry = acc.entry(p.slot).or_insert((0, 0, 0));
                if entry.0 == PRUNED {
                    continue;
                }
                let alpha = measure.min_overlap(theta, x.size(), y.size()) as u32;
                let remaining = (x.size() - i - 1).min(y.size() - p.pos as usize - 1) as u32;
                if entry.0 + 1 + remaining >= alpha {
                    *entry = (entry.0 + 1, i as u32, p.pos);
                } else {
                    entry.0 = PRUNED;
                    stats.position_pruned += 1;
                }
            }
        }
        for (&slot_y, &(count, xpos, ypos)) in &acc {
            if count == 0 || count == PRUNED {
                continue;
            }
            let y = order[slot_y as usize];
            let alpha = measure.min_overlap(theta, x.size(), y.size());
            // Suffix filter on the tokens after the last matched prefix
            // positions: a θ-pair's total Hamming distance is bounded by
            // |x|+|y|−2α; the prefixes account for some of it already.
            let hmax = (x.size() + y.size()) as i64 - 2 * alpha as i64;
            if hmax >= 0 {
                let xs = &x.tokens()[xpos as usize + 1..];
                let ys = &y.tokens()[ypos as usize + 1..];
                let bound = suffix_hamming_lower_bound(xs, ys, hmax, MAX_DEPTH);
                if bound > hmax {
                    stats.position_pruned += 1;
                    continue;
                }
            }
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
    use crate::naive::naive_self_join;
    use crate::pair::compare_results;
    use crate::ppjoin::ppjoin_self_join_stats;
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
    fn hamming_bound_is_sound_and_exact_on_leaves() {
        // Lower bound must never exceed the true symmetric difference.
        let mut state = 4u64;
        let mut next = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as u32) % m
        };
        for _ in 0..300 {
            let mut a: Vec<u32> = (0..next(20)).map(|_| next(40)).collect();
            let mut b: Vec<u32> = (0..next(20)).map(|_| next(40)).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let truth = crate::intersect::symmetric_difference_count(&a, &b) as i64;
            for depth in 0..4 {
                let bound = suffix_hamming_lower_bound(&a, &b, 1_000, depth);
                assert!(bound <= truth, "depth={depth} bound={bound} truth={truth}");
            }
        }
    }

    #[test]
    fn identical_suffixes_bound_zero() {
        let a = [1, 2, 3, 4, 5];
        assert_eq!(suffix_hamming_lower_bound(&a, &a, 100, 3), 0);
    }

    #[test]
    fn agrees_with_oracle_and_plain_ppjoin() {
        let records = random_records(150, 70, 22, 31);
        for m in Measure::all() {
            for &theta in &[0.6, 0.8, 0.9] {
                let want = naive_self_join(&records, m, theta);
                let (got, plus_stats) = ppjoin_plus_self_join_stats(&records, m, theta);
                compare_results(&got, &want, 1e-9)
                    .unwrap_or_else(|e| panic!("ppjoin+ {m:?} θ={theta}: {e}"));
                // Suffix filter must only shrink the verified set.
                let (_, base_stats) = ppjoin_self_join_stats(&records, m, theta);
                assert!(
                    plus_stats.verified <= base_stats.verified,
                    "{m:?} θ={theta}: {} vs {}",
                    plus_stats.verified,
                    base_stats.verified
                );
            }
        }
    }

    #[test]
    fn suffix_filter_actually_prunes() {
        // Records sharing a rare leading token but with wildly different
        // suffixes: position filter admits, suffix filter should kill.
        let mut records = Vec::new();
        for k in 0..60u32 {
            let mut toks = vec![0u32, 1];
            toks.extend((0..10).map(|i| 100 + k * 50 + i));
            records.push(rec(k, &toks));
        }
        let (out, plus_stats) = ppjoin_plus_self_join_stats(&records, Measure::Jaccard, 0.6);
        let (out_base, base_stats) = ppjoin_self_join_stats(&records, Measure::Jaccard, 0.6);
        assert_eq!(out.len(), out_base.len());
        assert!(
            plus_stats.verified < base_stats.verified,
            "suffix filter should cut verifications: {} vs {}",
            plus_stats.verified,
            base_stats.verified
        );
    }
}
