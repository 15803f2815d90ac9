//! PPJoin (Xiao et al., WWW'08): prefix filter + position filter.
//!
//! Every record indexes its index prefix and probes with its probe prefix
//! in `(size, id)` order; while a candidate's prefix-token matches
//! accumulate, its final overlap is bounded by the matches so far plus the
//! fewer tokens either record has left, and a candidate that can no longer
//! reach the required overlap is pruned before verification. The scan runs
//! on the one prefix index ([`CellIndex`]): a record's probe window ends
//! at its own slot, so it meets exactly the records an index-after-probe
//! scan would have indexed before it, and the index applies the length
//! window and the positional bound inside the posting walk. This is the
//! in-memory kernel RIDPairsPPJoin runs inside each reduce group (paper
//! §II-C), and also FS-Join's "PPJoin-style" comparison point.

use crate::index::{CellIndex, Slot};
use crate::measure::Measure;
use crate::pair::SimilarPair;
use crate::verify::Verifier;
use ssj_text::TokenSet;

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

/// A record's first `prefix` tokens as the index sees them.
fn slot<R: TokenSet>(r: &R, prefix: usize) -> Slot<'_> {
    Slot {
        len: r.size() as u32,
        head: 0,
        sig: &[],
        tokens: &r.tokens()[..prefix],
    }
}

/// PPJoin self-join.
pub fn ppjoin_self_join<R: TokenSet>(
    records: &[R],
    measure: Measure,
    theta: f64,
) -> Vec<SimilarPair> {
    ppjoin_self_join_stats(records, measure, theta, &mut CellIndex::default()).0
}

/// PPJoin self-join on `index`, also returning pruning statistics. The
/// index is rebuilt for `records`, so a caller that joins many groups
/// (RIDPairs' reducer) passes one index to every call and reuses its
/// buffers.
pub fn ppjoin_self_join_stats<R: TokenSet>(
    records: &[R],
    measure: Measure,
    theta: f64,
    index: &mut CellIndex,
) -> (Vec<SimilarPair>, PPJoinStats) {
    assert!(
        (0.0..=1.0).contains(&theta) && theta > 0.0,
        "θ must be in (0,1]"
    );
    let mut order: Vec<&R> = records.iter().filter(|r| !r.tokens().is_empty()).collect();
    order.sort_unstable_by(|a, b| a.size().cmp(&b.size()).then(a.id().cmp(&b.id())));
    index.rebuild(
        0,
        order
            .iter()
            .map(|r| slot(*r, measure.index_prefix_len(theta, r.size()))),
    );

    let mut out = Vec::new();
    let mut stats = PPJoinStats::default();
    let verifier = Verifier { measure, theta };
    for (end, x) in order.iter().enumerate() {
        let window = index.window(measure.min_partner_len(theta, x.size()), end);
        let probe = slot(*x, measure.probe_prefix_len(theta, x.size()));
        let counts = index.probe(&probe, window, |y| {
            (None, measure.min_overlap(theta, x.size(), y as usize))
        });
        stats.position_pruned += counts.position_pruned as usize;
        for &s in index.hits() {
            let y = order[s as usize];
            stats.verified += 1;
            if let Some((_, sim)) = verifier.verify(x.tokens(), y.tokens(), None).similar {
                out.push(SimilarPair::new(x.id(), y.id(), sim));
            }
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
    fn agrees_with_oracle() {
        let records = random_records(150, 80, 24, 999);
        for m in Measure::all() {
            for &theta in &[0.5, 0.7, 0.85, 0.95] {
                let want = naive_self_join(&records, m, theta);
                let got = ppjoin_self_join(&records, m, theta);
                compare_results(&got, &want, 1e-9)
                    .unwrap_or_else(|e| panic!("ppjoin {m:?} θ={theta}: {e}"));
            }
        }
    }

    #[test]
    fn counters_are_frozen() {
        // PPJoin's candidates and prunes do not depend on the posting
        // index it scans: any index must reproduce these.
        let records = random_records(150, 80, 24, 999);
        // (verified, position_pruned, results) at θ = 0.8.
        let frozen = [
            (Measure::Jaccard, (527, 270, 0)),
            (Measure::Dice, (1_320, 702, 0)),
            (Measure::Cosine, (1_342, 856, 0)),
        ];
        for (m, want) in frozen {
            let (_, s) = ppjoin_self_join_stats(&records, m, 0.8, &mut CellIndex::default());
            assert_eq!((s.verified, s.position_pruned, s.results), want, "{m:?}");
        }
    }

    #[test]
    fn one_index_joins_every_group_as_a_fresh_one() {
        // RIDPairs' reducer passes its index from group to group: each
        // call must forget the last one's postings, marks and bounds.
        let near = vec![
            rec(0, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
            rec(1, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 11]),
        ];
        let groups = [
            near,
            random_records(40, 30, 12, 7),
            Vec::new(),
            vec![rec(5, &[2, 3]), rec(9, &[2, 3, 4]), rec(11, &[3, 4])],
        ];
        for m in Measure::all() {
            let mut shared = CellIndex::default();
            let mut found = 0;
            for group in &groups {
                let reused = ppjoin_self_join_stats(group, m, 0.6, &mut shared);
                let fresh = ppjoin_self_join_stats(group, m, 0.6, &mut CellIndex::default());
                assert_eq!(reused, fresh, "{m:?}, {} records", group.len());
                found += fresh.1.results;
            }
            assert!(found > 0, "{m:?}: the groups must hold similar pairs");
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
        let (out, stats) =
            ppjoin_self_join_stats(&records, Measure::Jaccard, 0.5, &mut CellIndex::default());
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
