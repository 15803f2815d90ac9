//! FS-Join's pruning filters (paper §V-A, Lemmas 1–4).
//!
//! All four filters are phrased so that they can run inside a reduce task
//! that sees only one fragment: global quantities a reducer cannot know
//! (`|s^h ∩ t^h|`, `|s^e ∩ t^e|`) are replaced by their locally computable
//! bounds (`min(|s^h|,|t^h|)` etc. — see DESIGN.md §4 for the soundness
//! argument). Every filter is *safe*: it never prunes a pair whose overall
//! similarity reaches θ, which the exactness property tests verify against
//! the brute-force oracle.

use ssj_similarity::Measure;

/// Which filters the fragment join applies. The prefix filter is a join
/// *kernel* choice ([`crate::JoinKernel::Prefix`]), not a member here,
/// matching the paper's presentation (§V-A lists it with the join methods).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterSet {
    /// String-length filter (Lemma 1).
    pub strl: bool,
    /// Segment-length filter (Lemma 2).
    pub segl: bool,
    /// Segment-intersection filter (Lemma 3).
    pub segi: bool,
    /// Segment-difference filter (Lemma 4).
    pub segd: bool,
}

impl FilterSet {
    /// All filters on (FS-Join's default).
    pub const ALL: FilterSet = FilterSet {
        strl: true,
        segl: true,
        segi: true,
        segd: true,
    };

    /// All filters off (pure verification-driven join).
    pub const NONE: FilterSet = FilterSet {
        strl: false,
        segl: false,
        segi: false,
        segd: false,
    };

    /// Only the string-length filter (the paper's Table IV baseline row).
    pub const STRL_ONLY: FilterSet = FilterSet {
        strl: true,
        segl: false,
        segi: false,
        segd: false,
    };
}

impl Default for FilterSet {
    fn default() -> Self {
        FilterSet::ALL
    }
}

/// How the fragment join decides which surviving pair-fragment records to
/// emit.
///
/// **Reproduction note.** [`Exact`](EmitPolicy::Exact) is the only policy
/// under which count-based verification (paper §V-B) is exact: any
/// fragment-pair with `c_i ≥ 1` that is not *provably* part of a
/// dissimilar pair must reach the verifier, because a borderline similar
/// pair needs every common token counted. On Zipf-distributed corpora
/// that makes the filter job's output inherently Ω(co-token pairs). The
/// paper's Table IV reports outputs barely above the final result count
/// (e.g. 6,840 records from 74k PubMed abstracts), which is only
/// reachable by additionally dropping fragments whose required local
/// overlap is non-positive — [`PositiveBoundOnly`](EmitPolicy::PositiveBoundOnly)
/// reproduces that behaviour so its volume/recall trade-off can be
/// measured. It is *not* exact (recall tests in `driver` quantify the
/// loss) and exists for reproduction analysis only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmitPolicy {
    /// Emit every surviving pair-fragment with `c_i ≥ 1` (exact).
    #[default]
    Exact,
    /// Emit only fragments where the pair's required local overlap is ≥ 1
    /// (paper-magnitude volumes; approximate).
    PositiveBoundOnly,
}

/// Pruning counters, aggregated across reduce tasks for the Table IV
/// filter-power report.
///
/// At the fragment join every considered pair ends in exactly one of the
/// seven outcomes, so the counters obey
/// `pairs_considered = strl_pruned + bitmap_pruned + segl_pruned +
/// segi_pruned + segd_pruned + policy_dropped + emitted`
/// ([`Self::unaccounted`] is 0). The indexed kernels and PF discovery
/// apply StrL as a length window on the posting lists
/// ([`CellIndex`](ssj_similarity::index::CellIndex)): a pair outside the window
/// is never considered, so `strl_pruned` stays 0 there and the skipped work
/// shows as `window_skipped` — postings, outside the law.
///
/// The two-input R×S join ([`crate::rsjoin`]) windows its token groups the
/// same way and decides each considered cross pair by one cascade, so
/// there `pairs_considered = position_pruned + bitmap_pruned +
/// repeat_skipped + intersections` and `emitted` is the run's pairs.
/// FS-Join-PF ([`crate::pf`]) settles every pair it considers by the
/// positional bound inside the probe or by the verifier, so there
/// `pairs_considered = position_pruned + bitmap_pruned + intersections`
/// and `emitted` is the run's pairs (`repeat_skipped`: similar, decided in
/// an earlier fragment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Segment pairs considered by the fragment join (post kernel candidate
    /// generation, pre filters).
    pub pairs_considered: u64,
    /// Posting entries the length window skipped without visiting them
    /// (postings, not pairs: a pair sharing several indexed tokens is
    /// skipped once per shared token).
    pub window_skipped: u64,
    /// Pairs pruned by StrL, one test per pair (the Loop kernel only; 0
    /// where StrL is a length window).
    pub strl_pruned: u64,
    /// Pairs pruned by SegL (before intersection).
    pub segl_pruned: u64,
    /// Pairs pruned by SegI (after intersection).
    pub segi_pruned: u64,
    /// Pairs pruned by SegD (after intersection).
    pub segd_pruned: u64,
    /// Surviving pair-fragments the emit policy did not emit: those with
    /// no common token (both policies emit only `c_i ≥ 1`; only the Loop
    /// kernel considers such pairs — Index and Prefix discover pairs by a
    /// shared token) and, under [`EmitPolicy::PositiveBoundOnly`], those no
    /// lemma demands. 0 under [`EmitPolicy::Exact`] with Index or Prefix.
    pub policy_dropped: u64,
    /// Candidate records emitted (pair-fragment contributions).
    pub emitted: u64,
    /// Exact intersection-kernel calls (the Index kernel accumulates
    /// counts while probing, so it reports 0 here). At the whole-record
    /// verify sites, counts only pairs that survived the bitmap check.
    pub intersections: u64,
    /// Tokens fed to those intersections (sum of both inputs per call).
    pub intersect_tokens: u64,
    /// Pairs whose record bitmaps were read: before whole-record
    /// verification, and at the fragment join's record-signature step
    /// (right after StrL; once per fragment the pair is considered in).
    pub bitmap_checks: u64,
    /// Pairs the bitmap upper bound settled without an exact intersection
    /// (≤ `bitmap_checks`; lossless, see DESIGN.md §12). At the fragment
    /// join these are segment pairs dropped because their two records
    /// cannot reach θ.
    pub bitmap_pruned: u64,
    /// Pairs the positional bound settled: R×S cross pairs whose group's
    /// token and every token after it in the shorter remainder cannot
    /// reach α, and FS-Join-PF pairs whose tokens shared so far plus that
    /// remainder cannot, at any meet of the probe (once per pair and
    /// probe).
    pub position_pruned: u64,
    /// Pairs skipped because their records share a token before the point
    /// where they were found (R×S: the group's token, checked before
    /// verifying; PF: the segments' heads, checked on similar verdicts):
    /// the group or fragment of the smallest shared token decides them.
    pub repeat_skipped: u64,
}

impl FilterStats {
    /// `(counter name, value)` view of every field, under the canonical
    /// [`crate::keys`] names used in registries and metric dumps.
    pub fn fields(&self) -> [(&'static str, u64); 14] {
        use crate::keys;
        [
            (keys::FILTER_PAIRS_CONSIDERED, self.pairs_considered),
            (keys::FILTER_WINDOW_SKIPPED, self.window_skipped),
            (keys::FILTER_STRL_PRUNED, self.strl_pruned),
            (keys::FILTER_SEGL_PRUNED, self.segl_pruned),
            (keys::FILTER_SEGI_PRUNED, self.segi_pruned),
            (keys::FILTER_SEGD_PRUNED, self.segd_pruned),
            (keys::FILTER_POLICY_DROPPED, self.policy_dropped),
            (keys::FILTER_EMITTED, self.emitted),
            (keys::KERNEL_INTERSECTIONS, self.intersections),
            (keys::KERNEL_INTERSECT_TOKENS, self.intersect_tokens),
            (keys::KERNEL_BITMAP_CHECKS, self.bitmap_checks),
            (keys::KERNEL_BITMAP_PRUNED, self.bitmap_pruned),
            (keys::FILTER_POSITION_PRUNED, self.position_pruned),
            (keys::FILTER_REPEAT_SKIPPED, self.repeat_skipped),
        ]
    }

    /// Merge another task's counters into this one.
    pub fn merge(&mut self, other: &FilterStats) {
        self.pairs_considered += other.pairs_considered;
        self.window_skipped += other.window_skipped;
        self.strl_pruned += other.strl_pruned;
        self.segl_pruned += other.segl_pruned;
        self.segi_pruned += other.segi_pruned;
        self.segd_pruned += other.segd_pruned;
        self.policy_dropped += other.policy_dropped;
        self.emitted += other.emitted;
        self.intersections += other.intersections;
        self.intersect_tokens += other.intersect_tokens;
        self.bitmap_checks += other.bitmap_checks;
        self.bitmap_pruned += other.bitmap_pruned;
        self.position_pruned += other.position_pruned;
        self.repeat_skipped += other.repeat_skipped;
    }

    /// `pairs_considered` minus the seven outcomes a considered pair can
    /// end in (see the type docs): 0 for the counters of a fragment join.
    pub fn unaccounted(&self) -> i64 {
        let settled = self.strl_pruned
            + self.bitmap_pruned
            + self.segl_pruned
            + self.segi_pruned
            + self.segd_pruned
            + self.policy_dropped
            + self.emitted;
        self.pairs_considered as i64 - settled as i64
    }

    /// Add what one [`CellIndex::probe`](ssj_similarity::index::CellIndex::probe)
    /// counted.
    #[inline]
    pub fn count_probe(&mut self, counts: ssj_similarity::index::ProbeCounts) {
        self.window_skipped += counts.window_skipped;
        self.pairs_considered += counts.pairs_considered;
        self.position_pruned += counts.position_pruned;
        self.bitmap_checks += counts.bitmap_checks;
        self.bitmap_pruned += counts.bitmap_pruned;
    }

    /// Count one exact intersection over inputs of the given lengths.
    #[inline]
    pub fn count_intersection(&mut self, len_a: usize, len_b: usize) {
        self.intersections += 1;
        self.intersect_tokens += (len_a + len_b) as u64;
    }

    /// Count one whole-record [`Verdict`](ssj_similarity::Verdict) over
    /// inputs of the given lengths: a bitmap read is a check, a pair the
    /// bound settled is a prune, and every kernel call is one intersection
    /// over both inputs — however early it exited.
    #[inline]
    pub fn count_verdict(&mut self, verdict: &ssj_similarity::Verdict, len_a: usize, len_b: usize) {
        self.bitmap_checks += u64::from(verdict.bitmap_checked);
        if verdict.intersected {
            self.count_intersection(len_a, len_b);
        } else {
            self.bitmap_pruned += 1;
        }
    }

    /// Add these counters into `registry` under the `fsjoin.filter.*`
    /// names (the registry's counters are additive, so concurrent reduce
    /// tasks can record independently).
    pub fn record_to(&self, registry: &ssj_observe::MetricsRegistry) {
        for (name, value) in self.fields() {
            registry.counter_add(name, value);
        }
    }

    /// Reconstruct aggregated counters from a registry populated via
    /// [`Self::record_to`]. Missing counters read as 0.
    pub fn from_registry(registry: &ssj_observe::MetricsRegistry) -> FilterStats {
        use crate::keys;
        FilterStats {
            pairs_considered: registry.counter_get(keys::FILTER_PAIRS_CONSIDERED),
            window_skipped: registry.counter_get(keys::FILTER_WINDOW_SKIPPED),
            strl_pruned: registry.counter_get(keys::FILTER_STRL_PRUNED),
            segl_pruned: registry.counter_get(keys::FILTER_SEGL_PRUNED),
            segi_pruned: registry.counter_get(keys::FILTER_SEGI_PRUNED),
            segd_pruned: registry.counter_get(keys::FILTER_SEGD_PRUNED),
            policy_dropped: registry.counter_get(keys::FILTER_POLICY_DROPPED),
            emitted: registry.counter_get(keys::FILTER_EMITTED),
            intersections: registry.counter_get(keys::KERNEL_INTERSECTIONS),
            intersect_tokens: registry.counter_get(keys::KERNEL_INTERSECT_TOKENS),
            bitmap_checks: registry.counter_get(keys::KERNEL_BITMAP_CHECKS),
            bitmap_pruned: registry.counter_get(keys::KERNEL_BITMAP_PRUNED),
            position_pruned: registry.counter_get(keys::FILTER_POSITION_PRUNED),
            repeat_skipped: registry.counter_get(keys::FILTER_REPEAT_SKIPPED),
        }
    }
}

/// Precomputed bounds for one segment pair, shared by SegL/SegI/SegD.
///
/// * `required_local` — minimum local overlap `c_i` a θ-similar pair must
///   exhibit in this fragment:
///   `minoverlap(θ,|s|,|t|) − min(|s^h|,|t^h|) − min(|s^e|,|t^e|)`
///   (Lemmas 2–3 with the local bounds substituted). May be ≤ 0, in which
///   case SegL/SegI cannot prune.
/// * `max_local_diff` — maximum local symmetric difference
///   `|Seg_s Δ Seg_t|` a θ-similar pair may exhibit:
///   `(|s|+|t|−2·minoverlap) − abs(Δhead) − abs(Δtail)` (Lemma 4,
///   rearranged; see DESIGN.md §4 item 4). May be < 0, in which case the
///   head/tail length gaps alone disprove similarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairBounds {
    /// Minimum local overlap for a θ-similar pair.
    pub required_local: i64,
    /// Maximum local symmetric difference for a θ-similar pair.
    pub max_local_diff: i64,
}

impl PairBounds {
    /// Compute the bounds from the two segments' metadata.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        measure: Measure,
        theta: f64,
        len_s: u32,
        head_s: u32,
        tail_s: u32,
        len_t: u32,
        head_t: u32,
        tail_t: u32,
    ) -> Self {
        let alpha = measure.min_overlap(theta, len_s as usize, len_t as usize);
        Self::from_alpha(alpha, len_s, head_s, tail_s, len_t, head_t, tail_t)
    }

    /// [`Self::new`] for a caller that already holds the pair's
    /// `alpha = min_overlap(θ, |s|, |t|)`.
    pub fn from_alpha(
        alpha: usize,
        len_s: u32,
        head_s: u32,
        tail_s: u32,
        len_t: u32,
        head_t: u32,
        tail_t: u32,
    ) -> Self {
        let alpha = alpha as i64;
        let required_local = alpha - i64::from(head_s.min(head_t)) - i64::from(tail_s.min(tail_t));
        let max_total_diff = i64::from(len_s) + i64::from(len_t) - 2 * alpha;
        let max_local_diff = max_total_diff
            - i64::from(head_s.abs_diff(head_t))
            - i64::from(tail_s.abs_diff(tail_t));
        PairBounds {
            required_local,
            max_local_diff,
        }
    }
}

/// StrL-Filter (Lemma 1): prune when the shorter record is below the length
/// window of the longer.
#[inline]
pub fn strl_pass(measure: Measure, theta: f64, len_s: u32, len_t: u32) -> bool {
    let (short, long) = if len_s <= len_t {
        (len_s, len_t)
    } else {
        (len_t, len_s)
    };
    short as usize >= measure.min_partner_len(theta, long as usize)
}

/// Whether two ascending token slices share a token — the repeat check of
/// the joins that decide each pair once: given the tokens of two records
/// before the point where a pair was found, a shared one means an earlier
/// group or fragment decides the pair.
#[inline]
pub(crate) fn shares_token(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// SegL-Filter (Lemma 2): prune *before* intersecting when even the shorter
/// segment cannot supply the required local overlap.
#[inline]
pub fn segl_pass(bounds: &PairBounds, seg_len_s: usize, seg_len_t: usize) -> bool {
    seg_len_s.min(seg_len_t) as i64 >= bounds.required_local
}

/// SegI-Filter (Lemma 3): prune *after* intersecting when the local overlap
/// falls short of the required local overlap.
#[inline]
pub fn segi_pass(bounds: &PairBounds, local_overlap: usize) -> bool {
    local_overlap as i64 >= bounds.required_local
}

/// SegD-Filter (Lemma 4): prune when the local symmetric difference exceeds
/// the allowance left by the head/tail length gaps. Can also run before
/// intersection with the lower bound `|seg_len_s − seg_len_t|` — see
/// [`segd_pass_precheck`].
#[inline]
pub fn segd_pass(
    bounds: &PairBounds,
    seg_len_s: usize,
    seg_len_t: usize,
    local_overlap: usize,
) -> bool {
    let diff = (seg_len_s + seg_len_t) as i64 - 2 * local_overlap as i64;
    diff <= bounds.max_local_diff
}

/// SegD pre-intersection check using the minimum possible local symmetric
/// difference (when one segment contains the other).
#[inline]
pub fn segd_pass_precheck(bounds: &PairBounds, seg_len_s: usize, seg_len_t: usize) -> bool {
    (seg_len_s as i64 - seg_len_t as i64).abs() <= bounds.max_local_diff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strl_matches_lemma1() {
        // θ=0.8, |t|=10: partners shorter than 8 are pruned.
        assert!(strl_pass(Measure::Jaccard, 0.8, 8, 10));
        assert!(!strl_pass(Measure::Jaccard, 0.8, 7, 10));
        // Symmetric.
        assert!(!strl_pass(Measure::Jaccard, 0.8, 10, 7));
    }

    #[test]
    fn shares_token_matches_a_set_oracle() {
        let oracle = |a: &[u32], b: &[u32]| {
            let a: std::collections::HashSet<_> = a.iter().collect();
            b.iter().any(|t| a.contains(t))
        };
        // Empty, disjoint, and one shared token at the end of each.
        let cases: [(&[u32], &[u32]); 6] = [
            (&[], &[]),
            (&[], &[1, 2]),
            (&[1, 3, 5], &[2, 4, 6]),
            (&[1, 3, 9], &[2, 4, 9]),
            (&[9], &[1, 2, 9]),
            (&[0, 5, 7], &[5]),
        ];
        for (a, b) in cases {
            assert_eq!(shares_token(a, b), oracle(a, b), "{a:?} {b:?}");
            assert_eq!(shares_token(b, a), oracle(a, b), "{b:?} {a:?}");
        }
    }

    #[test]
    fn paper_example2_segl() {
        // Paper Example 2: s = {A,B,D,E,G}, t = {B,D,E,F,K}, θ=0.8,
        // pivots {D,G}. For i=1: Seg1_s={A,B}, Seg1_t={B} ... the paper's
        // own arithmetic is garbled, but the conclusion (pair prunable at
        // θ=0.8) must hold: true Jaccard is 3/7 ≈ 0.43 < 0.8.
        // Segment 1 (< D): s: {A,B} head 0 tail 3; t: {B} head 0 tail 4.
        let b = PairBounds::new(Measure::Jaccard, 0.8, 5, 0, 3, 5, 0, 4);
        // α = ceil(0.8/1.8*10) = 5; required = 5 - 0 - 3 = 2.
        assert_eq!(b.required_local, 2);
        // min(2,1) = 1 < 2 -> SegL prunes this fragment pair.
        assert!(!segl_pass(&b, 2, 1));
    }

    #[test]
    fn bounds_never_prune_similar_pairs() {
        // Construct identical records split anywhere: every fragment of an
        // identical pair must pass all filters.
        for m in Measure::all() {
            for &theta in &[0.6, 0.8, 0.95, 1.0] {
                for len in 1u32..20 {
                    for head in 0..len {
                        for seg in 1..=(len - head) {
                            let tail = len - head - seg;
                            let b = PairBounds::new(m, theta, len, head, tail, len, head, tail);
                            let c = seg as usize; // identical segments
                            assert!(segl_pass(&b, c, c));
                            assert!(segi_pass(&b, c));
                            assert!(segd_pass(&b, c, c, c));
                            assert!(segd_pass_precheck(&b, c, c));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn segi_prunes_small_overlap() {
        // Two length-10 records, θ=0.8 ⇒ α=9. One fragment holds nearly the
        // whole record (head=0, tail=1): required_local = 9-0-1 = 8.
        let b = PairBounds::new(Measure::Jaccard, 0.8, 10, 0, 1, 10, 0, 1);
        assert_eq!(b.required_local, 8);
        assert!(segi_pass(&b, 8));
        assert!(!segi_pass(&b, 7));
    }

    #[test]
    fn segd_prunes_large_difference() {
        // θ=0.8, |s|=|t|=10 ⇒ α=9, max diff = 20-18 = 2. Heads/tails equal.
        let b = PairBounds::new(Measure::Jaccard, 0.8, 10, 2, 3, 10, 2, 3);
        assert_eq!(b.max_local_diff, 2);
        // Segments of len 5 each with overlap 4: diff = 2 -> pass.
        assert!(segd_pass(&b, 5, 5, 4));
        // Overlap 3: diff = 4 -> prune.
        assert!(!segd_pass(&b, 5, 5, 3));
        // Precheck: |5-5|=0 <= 2 passes; |5-9|=4 > 2 prunes early.
        assert!(segd_pass_precheck(&b, 5, 5));
        assert!(!segd_pass_precheck(&b, 5, 9));
    }

    #[test]
    fn head_tail_gaps_tighten_segd() {
        // Same as above but heads differ by 2: allowance shrinks to 0.
        let b = PairBounds::new(Measure::Jaccard, 0.8, 10, 4, 3, 10, 2, 3);
        assert_eq!(b.max_local_diff, 0);
        assert!(!segd_pass(&b, 3, 5, 3)); // diff 2 > 0
        assert!(segd_pass(&b, 4, 4, 4)); // diff 0
    }

    #[test]
    fn negative_required_never_prunes() {
        // Fragment far from the record's mass: head+tail huge.
        let b = PairBounds::new(Measure::Jaccard, 0.8, 100, 50, 45, 100, 50, 45);
        assert!(b.required_local < 0);
        assert!(segl_pass(&b, 0, 0));
        assert!(segi_pass(&b, 0));
    }

    /// Reproduction finding: with the locally available information
    /// (segment lengths, head/tail lengths), Lemma 3 (SegI) and Lemma 4
    /// (SegD) are the *same* predicate. Algebra: the SegD condition
    /// `segΔ ≤ (|s|+|t|−2α) − |Δh| − |Δe|` rewrites, using
    /// `seg_s − |s| = −(h_s+e_s)` and `(h_s+h_t) − |Δh| = 2·min(h)`, to
    /// `c ≥ α − min(h) − min(e)` — exactly SegI's local form. The paper's
    /// Table IV shows different counts for the two, which is only possible
    /// with information a single reducer does not have (e.g. exact
    /// head/tail intersections); see DESIGN.md §4.
    #[test]
    fn segi_and_segd_are_locally_equivalent() {
        for m in Measure::all() {
            for &theta in &[0.6, 0.8, 0.95] {
                for ls in 1u32..15 {
                    for lt in 1u32..15 {
                        for hs in 0..ls {
                            for ht in 0..lt {
                                // One consistent segment split per record.
                                let (ts, tt) = (ls - hs, lt - ht); // tail+seg
                                for seg_s in 1..=ts {
                                    for seg_t in 1..=tt {
                                        let b = PairBounds::new(
                                            m,
                                            theta,
                                            ls,
                                            hs,
                                            ts - seg_s,
                                            lt,
                                            ht,
                                            tt - seg_t,
                                        );
                                        for c in 0..=seg_s.min(seg_t) as usize {
                                            assert_eq!(
                                                segi_pass(&b, c),
                                                segd_pass(&b, seg_s as usize, seg_t as usize, c),
                                                "m={m:?} θ={theta} ls={ls} lt={lt} c={c}"
                                            );
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn filterset_constants() {
        assert_eq!(FilterSet::default(), FilterSet::ALL);
        const { assert!(FilterSet::STRL_ONLY.strl && !FilterSet::STRL_ONLY.segd) };
        const { assert!(!FilterSet::NONE.strl) };
    }

    #[test]
    fn stats_merge() {
        let mut a = FilterStats {
            pairs_considered: 10,
            window_skipped: 9,
            strl_pruned: 1,
            segl_pruned: 2,
            segi_pruned: 3,
            segd_pruned: 4,
            policy_dropped: 0,
            emitted: 5,
            intersections: 6,
            intersect_tokens: 60,
            bitmap_checks: 8,
            bitmap_pruned: 2,
            position_pruned: 3,
            repeat_skipped: 1,
        };
        a.merge(&a.clone());
        assert_eq!(a.pairs_considered, 20);
        assert_eq!(a.window_skipped, 18);
        assert_eq!(a.emitted, 10);
        assert_eq!(a.intersections, 12);
        assert_eq!(a.intersect_tokens, 120);
        assert_eq!(a.bitmap_checks, 16);
        assert_eq!(a.bitmap_pruned, 4);
        assert_eq!((a.position_pruned, a.repeat_skipped), (6, 2));
    }

    #[test]
    fn stats_registry_round_trip() {
        let stats = FilterStats {
            pairs_considered: 100,
            window_skipped: 5,
            strl_pruned: 7,
            segl_pruned: 11,
            segi_pruned: 13,
            segd_pruned: 17,
            policy_dropped: 19,
            emitted: 23,
            intersections: 29,
            intersect_tokens: 31,
            bitmap_checks: 37,
            bitmap_pruned: 41,
            position_pruned: 43,
            repeat_skipped: 47,
        };
        let reg = ssj_observe::MetricsRegistry::new();
        stats.record_to(&reg);
        assert_eq!(FilterStats::from_registry(&reg), stats);
        // Counters are additive: a second worker's record_to accumulates.
        stats.record_to(&reg);
        let doubled = FilterStats::from_registry(&reg);
        assert_eq!(doubled.pairs_considered, 200);
        assert_eq!(doubled.emitted, 46);
        // An empty registry reads back as zeros.
        let empty = ssj_observe::MetricsRegistry::new();
        assert_eq!(FilterStats::from_registry(&empty), FilterStats::default());
    }
}
