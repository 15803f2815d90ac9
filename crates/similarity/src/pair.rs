//! Join results: similar record pairs.

use ssj_common::ByteSize;
use ssj_text::RecordId;

/// A record pair that met the similarity threshold, with its exact score.
/// Canonical form: `a < b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarPair {
    /// Smaller record id.
    pub a: RecordId,
    /// Larger record id.
    pub b: RecordId,
    /// Exact similarity score.
    pub sim: f64,
}

impl SimilarPair {
    /// Build in canonical order.
    ///
    /// # Panics
    /// Panics if `x == y` (self-pairs are never results).
    pub fn new(x: RecordId, y: RecordId, sim: f64) -> Self {
        assert_ne!(x, y, "self-pair is not a join result");
        let (a, b) = if x < y { (x, y) } else { (y, x) };
        SimilarPair { a, b, sim }
    }

    /// The id pair as a tuple (for set comparisons in tests).
    pub fn ids(&self) -> (RecordId, RecordId) {
        (self.a, self.b)
    }
}

impl ByteSize for SimilarPair {
    fn byte_size(&self) -> usize {
        4 + 4 + 8
    }
}

/// Extract the sorted id-pair set from a result list — the canonical form
/// for comparing algorithm outputs (scores are compared separately since
/// they are floats).
pub fn id_pairs(pairs: &[SimilarPair]) -> Vec<(RecordId, RecordId)> {
    let mut ids: Vec<(RecordId, RecordId)> = pairs.iter().map(SimilarPair::ids).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// FNV-1a over the canonically sorted `(a, b, score bits)` triples — the
/// order-independent, bit-exact witness that two runs produced the same
/// result. Duplicates are hashed as given (join results carry none).
pub fn pair_digest(pairs: &[SimilarPair]) -> u64 {
    let mut sorted: Vec<(RecordId, RecordId, u64)> =
        pairs.iter().map(|p| (p.a, p.b, p.sim.to_bits())).collect();
    sorted.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (a, b, s) in sorted {
        mix(a as u64);
        mix(b as u64);
        mix(s);
    }
    h
}

/// Assert two result lists contain the same pairs, each listed once, with
/// scores agreeing to `tol`; returns an error description instead of
/// panicking so callers can add context.
pub fn compare_results(got: &[SimilarPair], want: &[SimilarPair], tol: f64) -> Result<(), String> {
    let gi = id_pairs(got);
    let wi = id_pairs(want);
    for (side, list, unique) in [("got", got, &gi), ("want", want, &wi)] {
        if unique.len() != list.len() {
            let repeats = list.len() - unique.len();
            return Err(format!("{side} lists {repeats} pair(s) more than once"));
        }
    }
    if gi != wi {
        let missing: Vec<_> = wi.iter().filter(|p| !gi.contains(p)).take(5).collect();
        let extra: Vec<_> = gi.iter().filter(|p| !wi.contains(p)).take(5).collect();
        return Err(format!(
            "pair sets differ: got {}, want {}; missing {missing:?}, extra {extra:?}",
            gi.len(),
            wi.len()
        ));
    }
    let mut scores: ssj_common::FxHashMap<(RecordId, RecordId), f64> = Default::default();
    for p in want {
        scores.insert(p.ids(), p.sim);
    }
    for p in got {
        let w = scores[&p.ids()];
        if (p.sim - w).abs() > tol {
            return Err(format!(
                "score mismatch for {:?}: got {} want {}",
                p.ids(),
                p.sim,
                w
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order() {
        let p = SimilarPair::new(9, 3, 0.8);
        assert_eq!(p.ids(), (3, 9));
    }

    #[test]
    #[should_panic(expected = "self-pair")]
    fn self_pair_rejected() {
        let _ = SimilarPair::new(3, 3, 1.0);
    }

    #[test]
    fn compare_results_catches_differences() {
        let a = vec![SimilarPair::new(1, 2, 0.9)];
        let b = vec![SimilarPair::new(1, 2, 0.9), SimilarPair::new(2, 3, 0.8)];
        assert!(compare_results(&a, &a, 1e-9).is_ok());
        assert!(compare_results(&a, &b, 1e-9).is_err());
        let c = vec![SimilarPair::new(1, 2, 0.7)];
        let err = compare_results(&a, &c, 1e-9).unwrap_err();
        assert!(err.contains("score mismatch"));
    }

    #[test]
    fn compare_results_rejects_a_pair_listed_twice() {
        let want = vec![SimilarPair::new(1, 2, 0.9), SimilarPair::new(2, 3, 0.8)];
        let got = vec![want[0], want[1], SimilarPair::new(2, 1, 0.9)];
        let err = compare_results(&got, &want, 1e-9).unwrap_err();
        assert!(err.contains("got lists 1 pair(s) more than once"), "{err}");
        let err = compare_results(&want, &got, 1e-9).unwrap_err();
        assert!(err.starts_with("want"), "{err}");
    }

    #[test]
    fn pair_digest_is_order_independent_and_score_exact() {
        let a = [SimilarPair::new(1, 2, 0.9), SimilarPair::new(2, 3, 0.8)];
        let b = [a[1], a[0]];
        assert_eq!(pair_digest(&a), pair_digest(&b));
        let c = [
            a[0],
            SimilarPair::new(2, 3, f64::from_bits(0.8f64.to_bits() + 1)),
        ];
        assert_ne!(pair_digest(&a), pair_digest(&c));
        assert_eq!(pair_digest(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn id_pairs_sorted_dedup() {
        let pairs = vec![
            SimilarPair::new(5, 1, 0.9),
            SimilarPair::new(1, 5, 0.9),
            SimilarPair::new(2, 3, 0.8),
        ];
        assert_eq!(id_pairs(&pairs), vec![(1, 5), (2, 3)]);
    }
}
