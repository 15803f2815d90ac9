//! Threshold-aware verification of one whole-record candidate pair.
//!
//! Every site that decides `sim(a, b) ≥ θ` from two full token slices
//! runs the same cascade, cheapest step first, and stops at the first
//! step that settles the pair:
//!
//! 1. `α = min_overlap(θ, |a|, |b|)` — the overlap the pair needs;
//! 2. **saturation guard** — the bitmap bound can never fall below
//!    `(|a| + |b| − width) / 2`; when even that floor reaches α the
//!    bitmaps cannot prune and are not read;
//! 3. **bitmap bound** —
//!    [`overlap_upper_bound`](crate::bitmap::overlap_upper_bound) `< α`
//!    proves the pair fails, with no token touched;
//! 4. **early-exit intersection** — [`intersect_count_at_least`] gives up
//!    as soon as α is out of reach, and otherwise returns the *exact*
//!    overlap, so
//! 5. `passes` / `score` see the same count a full merge would have
//!    produced — every emitted score is bit-identical to
//!    `intersect_count_merge` + `score`.
//!
//! The [`Verdict`] reports which steps ran, so callers keep their
//! counters (bitmap checks, bitmap prunes, intersections) without
//! re-deriving the cascade. The fragment kernels run only the first half
//! ([`Verifier::signature`], steps 1–3) on the two *records* a segment
//! pair belongs to: a pair that survives still needs its exact *local*
//! count for the verification sum, not a threshold verdict (DESIGN.md §12).

use crate::bitmap::symmetric_difference_lower_bound;
use crate::intersect::intersect_count_at_least;
use crate::Measure;

/// The whole-record verification cascade for one `(measure, θ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verifier {
    /// Similarity measure.
    pub measure: Measure,
    /// Threshold θ.
    pub theta: f64,
}

/// What [`Verifier::verify`] did and found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The bitmaps were read (given, and the saturation guard let them
    /// through).
    pub bitmap_checked: bool,
    /// The exact kernel ran; `false` means the bitmap bound settled the
    /// pair (then `bitmap_checked` is true and `similar` is `None`).
    pub intersected: bool,
    /// Exact overlap and score, when the pair reaches θ.
    pub similar: Option<(usize, f64)>,
}

/// What the record-signature half of the cascade ([`Verifier::signature`])
/// found for one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signature {
    /// The saturation guard held the bitmaps back: even the bound's floor
    /// reaches α, so reading them could not prune.
    Saturated,
    /// The bitmaps were read and the bound reaches α: the pair may still
    /// be similar.
    Open,
    /// The bitmaps were read and the bound is below α: the pair cannot
    /// reach θ, whatever its tokens are.
    Dissimilar,
}

impl Signature {
    /// The bitmaps were read (the saturation guard let them through).
    #[inline]
    pub fn checked(self) -> bool {
        self != Signature::Saturated
    }
}

impl Verifier {
    /// The cascade's steps 2–3 for one pair of record *lengths*, before any
    /// bitmap is read: `None` when the saturation guard holds the bitmaps
    /// back, otherwise the largest bitmap Hamming distance `h` at which the
    /// pair may still reach `alpha` (negative when no distance survives,
    /// i.e. `2·alpha > len_a + len_b`). The bound `(len_a + len_b − h) / 2` is
    /// below `alpha` exactly when `h > len_a + len_b − 2·alpha`. `words` is
    /// the bitmap width in `u64` words. [`Self::signature`] is this limit
    /// plus the Hamming distance; a caller that meets one probe record
    /// against many partners of the same length computes the limit once.
    #[inline]
    pub fn hamming_limit(alpha: usize, len_a: usize, len_b: usize, words: usize) -> Option<i64> {
        let floor_ub = (len_a + len_b).saturating_sub(words * 64) / 2;
        (floor_ub < alpha).then(|| (len_a + len_b) as i64 - 2 * alpha as i64)
    }

    /// First half of the cascade (steps 2–3): the saturation guard, then
    /// the bitmap bound against `alpha`, which must be
    /// `measure.min_overlap(θ, len_a, len_b)` — a parameter so that a
    /// caller that needs α for its own bounds computes it once. The answer
    /// depends on the two records only, never on where the pair was
    /// discovered: a site that sees a pair several times (one fragment
    /// each) gets the same answer every time, so dropping
    /// [`Signature::Dissimilar`] pairs there is all-or-nothing per pair.
    #[inline]
    pub fn signature(
        alpha: usize,
        len_a: usize,
        len_b: usize,
        a_bits: &[u64],
        b_bits: &[u64],
    ) -> Signature {
        match Verifier::hamming_limit(alpha, len_a, len_b, a_bits.len()) {
            None => Signature::Saturated,
            Some(limit) if symmetric_difference_lower_bound(a_bits, b_bits) as i64 > limit => {
                Signature::Dissimilar
            }
            Some(_) => Signature::Open,
        }
    }

    /// Decide whether sorted token sets `a` and `b` reach θ. `bits` holds
    /// the two records' hashed bitmaps (same width, e.g.
    /// `TokenPool::bitmap_of`) or `None` to skip the bitmap steps; the
    /// verdict's `similar` is the same either way.
    #[inline]
    pub fn verify(&self, a: &[u32], b: &[u32], bits: Option<(&[u64], &[u64])>) -> Verdict {
        let (la, lb) = (a.len(), b.len());
        let alpha = self.measure.min_overlap(self.theta, la, lb);
        // Without bitmaps nothing is read, exactly as when they saturate.
        let signature = bits.map_or(Signature::Saturated, |(a_bits, b_bits)| {
            Verifier::signature(alpha, la, lb, a_bits, b_bits)
        });
        if signature == Signature::Dissimilar {
            // passes(c, …) with c ≤ bound < α must be false.
            return Verdict {
                bitmap_checked: true,
                intersected: false,
                similar: None,
            };
        }
        let similar = intersect_count_at_least(a, b, alpha)
            .filter(|&c| self.measure.passes(c, la, lb, self.theta))
            .map(|c| (c, self.measure.score(c, la, lb)));
        Verdict {
            bitmap_checked: signature.checked(),
            intersected: true,
            similar,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::{intersect_count_merge, CHUNK};
    use proptest::prelude::*;
    use ssj_text::TokenPool;

    const THETAS: [f64; 5] = [0.5, 0.75, 0.8, 0.9, 1.0];

    /// The oracle: full merge, then `passes` / `score`.
    fn oracle(m: Measure, theta: f64, a: &[u32], b: &[u32]) -> Option<(usize, u64)> {
        let c = intersect_count_merge(a, b);
        m.passes(c, a.len(), b.len(), theta)
            .then(|| (c, m.score(c, a.len(), b.len()).to_bits()))
    }

    /// Check one pair under every measure × θ, bitmap on and off.
    fn check(a: &[u32], b: &[u32]) -> Result<(), TestCaseError> {
        let mut pool = TokenPool::new();
        pool.push(a);
        pool.push(b);
        let bits = (pool.bitmap_of(0), pool.bitmap_of(1));
        for m in Measure::all() {
            for theta in THETAS {
                let want = oracle(m, theta, a, b);
                let v = Verifier { measure: m, theta };
                let off = v.verify(a, b, None);
                let on = v.verify(a, b, Some(bits));
                for got in [off, on] {
                    prop_assert!(
                        got.similar.map(|(c, s)| (c, s.to_bits())) == want,
                        "{m:?} θ={theta} |a|={} |b|={}: {got:?} vs oracle {want:?}",
                        a.len(),
                        b.len()
                    );
                    // A pair the bitmap settled never reached the kernel.
                    prop_assert!(got.intersected || got.bitmap_checked);
                }
                prop_assert!(!off.bitmap_checked && off.intersected);
                // `verify` is its first half plus the kernel, and the
                // first half alone never rejects a pair that reaches α.
                let alpha = m.min_overlap(theta, a.len(), b.len());
                let sig = Verifier::signature(alpha, a.len(), b.len(), bits.0, bits.1);
                prop_assert_eq!(on.bitmap_checked, sig.checked());
                prop_assert_eq!(on.intersected, sig != Signature::Dissimilar);
                if sig == Signature::Dissimilar {
                    prop_assert!(intersect_count_merge(a, b) < alpha);
                }
            }
        }
        Ok(())
    }

    /// Two sets of the given lengths sharing exactly `overlap` tokens,
    /// the shared ones spread over the whole rank range so the early exit
    /// fires mid-record, not at the first chunk.
    fn planted(len_a: usize, len_b: usize, overlap: usize) -> (Vec<u32>, Vec<u32>) {
        let overlap = overlap.min(len_a).min(len_b);
        // Rank r = 3k is shared, 3k+1 is a-only, 3k+2 is b-only.
        let side = |len: usize, own: u32| {
            let mut v: Vec<u32> = (0..overlap as u32).map(|k| 3 * k).collect();
            v.extend((0..(len - overlap) as u32).map(|k| 3 * k + own));
            v.sort_unstable();
            v
        };
        (side(len_a, 1), side(len_b, 2))
    }

    #[test]
    fn empty_and_single_token_inputs() {
        let cases: [(&[u32], &[u32]); 5] = [
            (&[], &[]),
            (&[], &[7]),
            (&[7], &[7]),
            (&[7], &[8]),
            (&[7], &[7, 8]),
        ];
        for (a, b) in cases {
            check(a, b).unwrap();
            check(b, a).unwrap();
        }
        // Two empty sets score 0 and never pass, even at α = 0.
        let v = Verifier {
            measure: Measure::Jaccard,
            theta: 0.5,
        };
        assert_eq!(v.verify(&[], &[], None).similar, None);
    }

    #[test]
    fn planted_overlaps_around_alpha_at_chunk_boundaries() {
        // Lengths straddling multiples of CHUNK, overlaps at α−1, α, α+1.
        let lens = [
            CHUNK - 1,
            CHUNK,
            CHUNK + 1,
            2 * CHUNK - 1,
            2 * CHUNK,
            2 * CHUNK + 1,
            20 * CHUNK - 1,
            20 * CHUNK,
            20 * CHUNK + 1,
        ];
        for &la in &lens {
            for &lb in &lens {
                for m in Measure::all() {
                    for theta in THETAS {
                        let alpha = m.min_overlap(theta, la, lb);
                        for c in [alpha.saturating_sub(1), alpha, alpha + 1] {
                            let (a, b) = planted(la, lb, c);
                            check(&a, &b).unwrap();
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn verdict_reports_the_settling_step() {
        let v = Verifier {
            measure: Measure::Jaccard,
            theta: 0.8,
        };
        let mut pool = TokenPool::with_bitmap_bits(512).unwrap();
        pool.push(&[1, 2, 3]);
        pool.push(&[1000, 2000, 3000]);
        pool.push(&[1, 2, 3]);
        // Disjoint small sets: the bitmap bound is 0 < α.
        let pruned = v.verify(
            pool.tokens_of(0),
            pool.tokens_of(1),
            Some((pool.bitmap_of(0), pool.bitmap_of(1))),
        );
        assert!(pruned.bitmap_checked && !pruned.intersected && pruned.similar.is_none());
        // Identical sets: checked, not pruned, exact score 1.
        let hit = v.verify(
            pool.tokens_of(0),
            pool.tokens_of(2),
            Some((pool.bitmap_of(0), pool.bitmap_of(2))),
        );
        assert!(hit.bitmap_checked && hit.intersected);
        assert_eq!(hit.similar, Some((3, 1.0)));
        // Saturated: 600-token records in a 64-bit map — floor_ub reaches
        // α, the bitmaps are not read.
        let long: Vec<u32> = (0..600).collect();
        let mut narrow = TokenPool::with_bitmap_bits(64).unwrap();
        narrow.push(&long);
        let sat = v.verify(
            &long,
            &long,
            Some((narrow.bitmap_of(0), narrow.bitmap_of(0))),
        );
        assert!(!sat.bitmap_checked && sat.intersected);
        assert_eq!(sat.similar, Some((600, 1.0)));
    }

    /// `hamming_limit` is the guard and the bound of
    /// `overlap_upper_bound(..) < α`, solved for the Hamming distance: for
    /// every length pair, α and distance a bitmap pair can show, both forms
    /// give the same verdict.
    #[test]
    fn hamming_limit_is_the_overlap_bound_solved_for_the_distance() {
        use crate::bitmap::overlap_upper_bound;
        for words in [1usize, 2] {
            let width = words * 64;
            for la in 1usize..=90 {
                for lb in la..=90 {
                    for alpha in 0..=lb + 2 {
                        let limit = Verifier::hamming_limit(alpha, la, lb, words);
                        let saturated = (la + lb).saturating_sub(width) / 2 >= alpha;
                        assert_eq!(limit.is_none(), saturated, "{la} {lb} α={alpha}");
                        let Some(limit) = limit else { continue };
                        // A bitmap pair of hashed sets of these sizes differs
                        // in h ≤ min(la + lb, width) bits; build one per h.
                        for h in 0..=(la + lb).min(width) {
                            let mut a = vec![0u64; words];
                            for bit in 0..h {
                                a[bit / 64] |= 1 << (bit % 64);
                            }
                            let b = vec![0u64; words];
                            let pruned = overlap_upper_bound(&a, &b, la, lb) < alpha;
                            assert_eq!(h as i64 > limit, pruned, "{la} {lb} α={alpha} h={h}");
                            let sig = Verifier::signature(alpha, la, lb, &a, &b);
                            assert_eq!(sig == Signature::Dissimilar, pruned);
                        }
                    }
                }
            }
        }
    }

    fn sorted_set(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::vec(0u32..2_000, 0..max_len).prop_map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        })
    }

    proptest! {
        /// Verdict, overlap and score bits equal the full-merge oracle on
        /// arbitrary sets (mostly dissimilar: the early-exit side).
        #[test]
        fn agrees_with_full_merge_on_random_sets(
            a in sorted_set(6 * CHUNK),
            b in sorted_set(6 * CHUNK),
        ) {
            check(&a, &b)?;
        }

        /// Near-duplicates: `b` is `a` with a few tokens dropped and a few
        /// foreign ones added, so overlaps land on both sides of α.
        #[test]
        fn agrees_with_full_merge_on_near_duplicates(
            a in sorted_set(20 * CHUNK),
            drop in proptest::collection::vec(0usize..10_000, 0..40),
            add in proptest::collection::vec(2_000u32..2_100, 0..40),
        ) {
            let mut b = a.clone();
            for d in drop {
                if !b.is_empty() {
                    b.remove(d % b.len());
                }
            }
            b.extend(add);
            b.sort_unstable();
            b.dedup();
            check(&a, &b)?;
        }
    }
}
