//! Reduce-side fragment joins (paper §V-A "Join Algorithms").
//!
//! A reduce task receives every segment of one `(horizontal, vertical)`
//! cell and must produce, for each surviving record pair, the number of
//! common tokens *within this fragment*. Three kernels are compared by the
//! paper (Figure 12):
//!
//! * **Loop** — nested loop over segment pairs, merge-intersecting each;
//! * **Index** — a full inverted index over segment tokens; overlap counts
//!   accumulate while probing, so no per-pair intersection is needed;
//! * **Prefix** — index only each segment's *local prefix* (long enough to
//!   be complete for θ-similar pairs — DESIGN.md §4 item 2); candidates
//!   then verify with an exact merge intersection. FS-Join's default.
//!
//! All kernels run every pair through one cascade — scope → StrL → record
//! signature → SegL → SegD precheck, then SegI/SegD on the exact local
//! overlap — apply the same [`FilterSet`] and produce identical output
//! (property-tested); they differ only in work. Loop tests the first three
//! steps pair by pair ([`FragmentJoin::admit`]). Index and Prefix share the
//! reducer-owned [`CellIndex`]: the cell sits in record-length order, so
//! StrL is a slot range on each posting list and scope and the signature
//! run inside the posting walk, on dense columns; only the survivors reach
//! the per-pair segment filters (`FragmentJoin::segment_bounds` /
//! `finish`). Segments carry spans into the collection's shared
//! [`TokenPool`], so every kernel takes the pool and resolves token slices
//! on the fly (a bounds-checked slice of the flat arena — contiguous,
//! cache-friendly, and allocation-free).

use crate::cell_index::{CellIndex, Slot};
use crate::filters::{
    segd_pass, segd_pass_precheck, segi_pass, segl_pass, strl_pass, EmitPolicy, FilterSet,
    FilterStats, PairBounds,
};
use crate::horizontal::JoinRule;
use crate::segment::Segment;
use ssj_similarity::intersect::intersect_count_adaptive;
use ssj_similarity::{Measure, Signature, Verifier};
use ssj_text::TokenPool;

/// Which record pairs a join considers, besides the horizontal rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairScope {
    /// Self-join: all distinct record pairs.
    SelfJoin,
    /// R×S join: only pairs from different sides.
    CrossSides,
}

impl PairScope {
    /// A segment's scope group: pairs within one group are inadmissible.
    #[inline]
    pub fn group(self, seg: &Segment) -> u32 {
        match self {
            PairScope::SelfJoin => seg.rid,
            PairScope::CrossSides => u32::from(seg.side),
        }
    }
}

/// Put a cell in record-length order — what [`CellIndex`] indexes, and
/// what makes a boundary cell's two groups slices of it — and cut it by
/// its rule: the `band` is joined with itself (base cell, [`JoinRule::All`])
/// or, **bipartitely**, with the long group `[pivot, ∞)` (boundary cell;
/// the band is then `[lo, pivot)` — segments below `lo` can never satisfy
/// the rule), so the join never spends discovery work on pairs the
/// boundary rule would reject.
pub fn split_cell(segments: &mut [Segment], rule: JoinRule) -> (&[Segment], Option<&[Segment]>) {
    segments.sort_unstable_by_key(|s| u64::from(s.len) << 32 | u64::from(s.rid));
    match rule {
        JoinRule::All => (segments, None),
        JoinRule::Boundary { lo, pivot } => {
            let (short, long) = segments.split_at(segments.partition_point(|s| s.len < pivot));
            (&short[short.partition_point(|s| s.len < lo)..], Some(long))
        }
    }
}

/// Join kernel choice (paper Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKernel {
    /// Nested-loop with merge intersections.
    Loop,
    /// Full inverted index with count accumulation.
    Index,
    /// Prefix-filtered inverted index (default).
    Prefix,
}

impl JoinKernel {
    /// Short name for experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            JoinKernel::Loop => "Loop",
            JoinKernel::Index => "Index",
            JoinKernel::Prefix => "Prefix",
        }
    }

    /// All kernels in the paper's reporting order.
    pub fn all() -> [JoinKernel; 3] {
        [JoinKernel::Loop, JoinKernel::Index, JoinKernel::Prefix]
    }
}

/// One candidate record emitted by a fragment join: a record pair
/// (`rid_a < rid_b`) with its local overlap and both record lengths.
///
/// The field order (`rid_a`, `rid_b`, `common`, `len_a`, `len_b`) matches
/// the former `((u32, u32), (u32, u32, u32))` tuple encoding, so the
/// derived `Ord` sorts exactly as the tuples did and the MapReduce wire
/// format `((rid_a, rid_b), (common, len_a, len_b))` round-trips
/// losslessly through [`CandidateRecord::key`] / [`CandidateRecord::value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CandidateRecord {
    /// Smaller record id of the pair.
    pub rid_a: u32,
    /// Larger record id of the pair.
    pub rid_b: u32,
    /// Common tokens within this fragment.
    pub common: u32,
    /// Full length of record `rid_a`.
    pub len_a: u32,
    /// Full length of record `rid_b`.
    pub len_b: u32,
}

impl CandidateRecord {
    /// The shuffle key: the record-id pair.
    #[inline]
    pub fn key(&self) -> (u32, u32) {
        (self.rid_a, self.rid_b)
    }

    /// The shuffle value: `(common, len_a, len_b)`.
    #[inline]
    pub fn value(&self) -> (u32, u32, u32) {
        (self.common, self.len_a, self.len_b)
    }
}

/// One fragment join's parameters: what [`join_fragment`] needs besides the
/// cell's segments.
#[derive(Debug)]
pub struct FragmentJoin<'a> {
    /// The arena the segments' spans resolve against.
    pub pool: &'a TokenPool,
    /// Which record pairs are admissible.
    pub scope: PairScope,
    /// Similarity measure.
    pub measure: Measure,
    /// Threshold θ.
    pub theta: f64,
    /// Join kernel.
    pub kernel: JoinKernel,
    /// Segment filters.
    pub filters: FilterSet,
    /// Candidate emission policy.
    pub policy: EmitPolicy,
    /// Run the record-signature step (DESIGN.md §12). Requires that
    /// `pool.bitmap_of(seg.rid)` is the hashed bitmap of the whole record
    /// segment `seg` was cut from, i.e. that the segments come from
    /// splitting `pool`'s own records — true for every driver, not for
    /// hand-built segments pushed as pool records of their own.
    pub signatures: bool,
}

/// Join all segments of one fragment cell ([`split_cell`] says which
/// pairs). `segments` may contain at most one segment per `(rid, side)`
/// (guaranteed by vertical partitioning); their spans resolve against
/// `join.pool`.
///
/// Segment intersections are always exact: the verification job sums
/// local counts, so a threshold verdict is not enough for a pair that
/// survives. What the record bitmaps can settle is whether the *pair*
/// survives at all ([`FragmentJoin::signatures`]).
pub fn join_fragment(
    join: &FragmentJoin<'_>,
    segments: &mut [Segment],
    rule: JoinRule,
    index: &mut CellIndex,
    stats: &mut FilterStats,
) -> Vec<CandidateRecord> {
    let (band, long) = split_cell(segments, rule);
    match join.kernel {
        JoinKernel::Loop => join.loop_join(band, long, stats),
        JoinKernel::Index | JoinKernel::Prefix => join.indexed_join(band, long, index, stats),
    }
}

/// Minimum local overlap a θ-similar pair must exhibit in this fragment,
/// from one record's own metadata (DESIGN.md §4 item 2):
/// `max(1, minoverlap_any(θ,|s|) − |s^h| − |s^e|)`.
#[inline]
fn local_alpha(measure: Measure, theta: f64, seg: &Segment) -> usize {
    (measure.min_overlap_any(theta, seg.len as usize) as i64
        - i64::from(seg.head)
        - i64::from(seg.tail))
    .max(1) as usize
}

/// Local prefix length of a segment: long enough that θ-similar pairs are
/// guaranteed to collide (completeness proof in DESIGN.md §4 item 2).
#[inline]
pub fn local_prefix_len(measure: Measure, theta: f64, seg: &Segment) -> usize {
    let alpha = local_alpha(measure, theta, seg);
    debug_assert!(alpha <= seg.seg_len().max(1));
    seg.seg_len() - alpha.min(seg.seg_len()) + 1
}

impl FragmentJoin<'_> {
    /// The Loop kernel's record-level steps, pair by pair: scope → StrL →
    /// record signature. Returns the pair's `α = min_overlap(θ, |a|, |b|)`
    /// when it survives. (The indexed kernels run the same three steps
    /// inside [`CellIndex::probe`].)
    ///
    /// StrL and the signature step look at the two *records* only, so
    /// their verdict on a pair is the same in every fragment and every
    /// horizontal cell: a pair they drop emits no partial count anywhere,
    /// which is what keeps count-based verification exact.
    #[inline]
    fn admit(&self, a: &Segment, b: &Segment, stats: &mut FilterStats) -> Option<usize> {
        // The horizontal rule is enforced structurally by the grouping.
        if self.scope.group(a) == self.scope.group(b) {
            return None;
        }
        stats.pairs_considered += 1;
        if self.filters.strl && !strl_pass(self.measure, self.theta, a.len, b.len) {
            stats.strl_pruned += 1;
            return None;
        }
        let (len_a, len_b) = (a.len as usize, b.len as usize);
        let alpha = self.measure.min_overlap(self.theta, len_a, len_b);
        if self.signatures {
            let (a_bits, b_bits) = (self.pool.bitmap_of(a.rid), self.pool.bitmap_of(b.rid));
            let signature = Verifier::signature(alpha, len_a, len_b, a_bits, b_bits);
            stats.bitmap_checks += u64::from(signature.checked());
            if signature == Signature::Dissimilar {
                stats.bitmap_pruned += 1;
                return None;
            }
        }
        Some(alpha)
    }

    /// The segment-level steps that need no token, on a pair the
    /// record-level steps let through: SegL → SegD precheck (`precheck`;
    /// the Index kernel skips it — it arrives with the exact overlap, which
    /// the full SegD test uses). Returns the pair's bounds when it
    /// survives.
    #[inline]
    fn segment_bounds(
        &self,
        alpha: usize,
        a: &Segment,
        b: &Segment,
        precheck: bool,
        stats: &mut FilterStats,
    ) -> Option<PairBounds> {
        let bounds = PairBounds::from_alpha(alpha, a.len, a.head, a.tail, b.len, b.head, b.tail);
        if self.filters.segl && !segl_pass(&bounds, a.seg_len(), b.seg_len()) {
            stats.segl_pruned += 1;
            return None;
        }
        if precheck && self.filters.segd && !segd_pass_precheck(&bounds, a.seg_len(), b.seg_len()) {
            stats.segd_pruned += 1;
            return None;
        }
        Some(bounds)
    }

    /// Run the post-intersection filters on an admitted pair whose local
    /// overlap is known; returns the candidate record if it survives.
    #[inline]
    fn finish(
        &self,
        a: &Segment,
        b: &Segment,
        bounds: &PairBounds,
        overlap: usize,
        stats: &mut FilterStats,
    ) -> Option<CandidateRecord> {
        if self.filters.segi && !segi_pass(bounds, overlap) {
            stats.segi_pruned += 1;
            return None;
        }
        if self.filters.segd && !segd_pass(bounds, a.seg_len(), b.seg_len(), overlap) {
            stats.segd_pruned += 1;
            return None;
        }
        if overlap == 0
            || (self.policy == EmitPolicy::PositiveBoundOnly && bounds.required_local < 1)
        {
            // No common token: nothing to contribute to the verification
            // sum (Loop only — the other kernels discover by shared
            // tokens). Paper-magnitude mode also drops contributions no
            // lemma can demand; NOT exact — see EmitPolicy docs.
            stats.policy_dropped += 1;
            return None;
        }
        stats.emitted += 1;
        let (x, y) = if a.rid < b.rid { (a, b) } else { (b, a) };
        Some(CandidateRecord {
            rid_a: x.rid,
            rid_b: y.rid,
            common: overlap as u32,
            len_a: x.len,
            len_b: y.len,
        })
    }

    /// Loop and Prefix, past the record-level steps: segment bounds,
    /// exact intersection, finish.
    #[inline]
    fn intersect_pair(
        &self,
        alpha: usize,
        a: &Segment,
        b: &Segment,
        stats: &mut FilterStats,
    ) -> Option<CandidateRecord> {
        let bounds = self.segment_bounds(alpha, a, b, true, stats)?;
        stats.count_intersection(a.seg_len(), b.seg_len());
        let c = intersect_count_adaptive(a.tokens(self.pool), b.tokens(self.pool));
        self.finish(a, b, &bounds, c, stats)
    }

    /// Nested loop over `band` × `band` (base cell) or `band` × `long`
    /// (boundary cell).
    fn loop_join(
        &self,
        band: &[Segment],
        long: Option<&[Segment]>,
        stats: &mut FilterStats,
    ) -> Vec<CandidateRecord> {
        let mut out = Vec::new();
        for (i, a) in band.iter().enumerate() {
            for b in long.unwrap_or(&band[i + 1..]) {
                if let Some(alpha) = self.admit(a, b, stats) {
                    out.extend(self.intersect_pair(alpha, a, b, stats));
                }
            }
        }
        out
    }

    /// The tokens a segment is indexed and probed by: the whole segment
    /// (Index — shared tokens then count the exact local overlap) or its
    /// local prefix (Prefix).
    #[inline]
    fn indexed_tokens(&self, seg: &Segment) -> &[u32] {
        let tokens = seg.tokens(self.pool);
        match self.kernel {
            JoinKernel::Prefix => &tokens[..local_prefix_len(self.measure, self.theta, seg)],
            _ => tokens,
        }
    }

    /// The record signature [`CellIndex`] compares: the pool's bitmap of
    /// the segment's record, or nothing with the signature step off.
    #[inline]
    fn sig(&self, seg: &Segment) -> &[u64] {
        if self.signatures {
            self.pool.bitmap_of(seg.rid)
        } else {
            &[]
        }
    }

    /// Largest bitmap Hamming distance at which records of these lengths
    /// still pass [`Verifier::signature`]; `None` when the step is off or
    /// would not read `words`-word bitmaps for them.
    #[inline]
    fn hamming_limit(&self, len_a: usize, len_b: usize, words: usize) -> Option<i64> {
        let alpha = self.measure.min_overlap(self.theta, len_a, len_b);
        Verifier::hamming_limit(alpha, len_a, len_b, words).filter(|_| self.signatures)
    }

    /// Index and Prefix: index `band`, probe it with itself in slot order —
    /// each segment sees the slots before its own, all of them no longer
    /// than it is — or with `long`, whose segments are longer than the
    /// whole band. Either way the probe is the longer record, so StrL
    /// admits the slots from `min_partner_len(θ, |probe|)` up. The prefix
    /// completeness argument is pairwise (DESIGN.md §4 item 2), not
    /// scan-order-dependent.
    fn indexed_join(
        &self,
        band: &[Segment],
        long: Option<&[Segment]>,
        index: &mut CellIndex,
        stats: &mut FilterStats,
    ) -> Vec<CandidateRecord> {
        let mut out = Vec::new();
        let words = if self.signatures {
            self.pool.bitmap_bits() / 64
        } else {
            0
        };
        let as_slot = |s: &Segment| Slot {
            len: s.len,
            group: self.scope.group(s),
            sig: self.sig(s),
            tokens: self.indexed_tokens(s),
        };
        index.rebuild(words, band.iter().map(as_slot));
        for (i, probe) in long.unwrap_or(band).iter().enumerate() {
            let end = if long.is_some() { band.len() } else { i };
            let min_len = if self.filters.strl {
                self.measure.min_partner_len(self.theta, probe.len as usize)
            } else {
                0
            };
            let len = probe.len as usize;
            index.probe(
                &as_slot(probe),
                index.window(min_len, end),
                |partner_len| self.hamming_limit(partner_len as usize, len, words),
                stats,
            );
            for &slot in index.hits() {
                let other = &band[slot as usize];
                let alpha = self
                    .measure
                    .min_overlap(self.theta, other.len as usize, len);
                out.extend(match self.kernel {
                    JoinKernel::Prefix => self.intersect_pair(alpha, other, probe, stats),
                    // The probe already counted the exact local overlap.
                    _ => self
                        .segment_bounds(alpha, other, probe, false, stats)
                        .and_then(|bounds| {
                            let overlap = index.shared(slot) as usize;
                            self.finish(other, probe, &bounds, overlap, stats)
                        }),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(pool: &mut TokenPool, rid: u32, len: u32, head: u32, tokens: &[u32]) -> Segment {
        let tail = len - head - tokens.len() as u32;
        Segment {
            rid,
            side: 0,
            len,
            head,
            tail,
            span: pool.push(tokens),
        }
    }

    fn cand(rid_a: u32, rid_b: u32, common: u32, len_a: u32, len_b: u32) -> CandidateRecord {
        CandidateRecord {
            rid_a,
            rid_b,
            common,
            len_a,
            len_b,
        }
    }

    /// Hand-built segments are pool records of their own, so the pool's
    /// bitmaps are not their records' signatures: `signatures` stays off
    /// except where a test cuts its segments from whole pool records.
    fn join<'a>(
        pool: &'a TokenPool,
        scope: PairScope,
        theta: f64,
        kernel: JoinKernel,
        filters: FilterSet,
    ) -> FragmentJoin<'a> {
        FragmentJoin {
            pool,
            scope,
            measure: Measure::Jaccard,
            theta,
            kernel,
            filters,
            policy: EmitPolicy::Exact,
            signatures: false,
        }
    }

    fn run_join(
        join: &FragmentJoin<'_>,
        segments: &[Segment],
        rule: JoinRule,
    ) -> (Vec<CandidateRecord>, FilterStats) {
        let mut stats = FilterStats::default();
        let mut out = join_fragment(
            join,
            &mut segments.to_vec(),
            rule,
            &mut CellIndex::default(),
            &mut stats,
        );
        out.sort_unstable();
        (out, stats)
    }

    fn run(
        pool: &TokenPool,
        segments: &[Segment],
        kernel: JoinKernel,
        theta: f64,
        filters: FilterSet,
    ) -> (Vec<CandidateRecord>, FilterStats) {
        let join = join(pool, PairScope::SelfJoin, theta, kernel, filters);
        run_join(&join, segments, JoinRule::All)
    }

    #[test]
    fn identical_segments_emit_full_overlap() {
        // Whole records in one fragment (no pivots case).
        let mut pool = TokenPool::new();
        let segs = vec![
            seg(&mut pool, 0, 3, 0, &[1, 2, 3]),
            seg(&mut pool, 1, 3, 0, &[1, 2, 3]),
        ];
        for k in JoinKernel::all() {
            let (out, _) = run(&pool, &segs, k, 0.9, FilterSet::ALL);
            assert_eq!(out, vec![cand(0, 1, 3, 3, 3)], "{k:?}");
        }
    }

    #[test]
    fn kernels_agree_on_pseudorandom_fragments() {
        // Build a plausible fragment: many segments with shared metadata
        // consistency, compare all kernels under all filter sets.
        let mut state = 77u64;
        let mut next = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as u32) % m
        };
        let mut pool = TokenPool::new();
        let mut segments = Vec::new();
        for rid in 0..60u32 {
            let seg_len = 1 + next(8);
            let head = next(10);
            let tail = next(10);
            let mut toks: Vec<u32> = (0..seg_len).map(|_| next(40)).collect();
            toks.sort_unstable();
            toks.dedup();
            let len = head + tail + toks.len() as u32;
            segments.push(Segment {
                rid,
                side: 0,
                len,
                head,
                tail,
                span: pool.push(&toks),
            });
        }
        for &theta in &[0.5, 0.7, 0.9] {
            for filters in [FilterSet::ALL, FilterSet::NONE, FilterSet::STRL_ONLY] {
                let (loop_out, _) = run(&pool, &segments, JoinKernel::Loop, theta, filters);
                let (index_out, _) = run(&pool, &segments, JoinKernel::Index, theta, filters);
                assert_eq!(loop_out, index_out, "index θ={theta} {filters:?}");
                // Prefix may legitimately emit a SUBSET (it skips pairs that
                // provably cannot be θ-similar), but must contain every pair
                // whose local overlap meets both records' local alphas.
                let (prefix_out, _) = run(&pool, &segments, JoinKernel::Prefix, theta, filters);
                for rec in &prefix_out {
                    assert!(loop_out.contains(rec), "prefix emitted non-loop record");
                }
                let m = Measure::Jaccard;
                for rec in &loop_out {
                    let sa = segments.iter().find(|s| s.rid == rec.rid_a).unwrap();
                    let sb = segments.iter().find(|s| s.rid == rec.rid_b).unwrap();
                    let need = local_alpha(m, theta, sa).max(local_alpha(m, theta, sb));
                    if (rec.common as usize) >= need {
                        assert!(
                            prefix_out.contains(rec),
                            "prefix missed a qualifying record {rec:?} (θ={theta})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cross_sides_scope_only_pairs_across() {
        let mut pool = TokenPool::new();
        let segs = vec![
            seg(&mut pool, 0, 3, 0, &[1, 2, 3]),
            Segment {
                side: 1,
                ..seg(&mut pool, 10, 3, 0, &[1, 2, 3])
            },
            Segment {
                side: 1,
                ..seg(&mut pool, 11, 3, 0, &[1, 2, 3])
            },
        ];
        let join = join(
            &pool,
            PairScope::CrossSides,
            0.9,
            JoinKernel::Loop,
            FilterSet::ALL,
        );
        let (out, _) = run_join(&join, &segs, JoinRule::All);
        assert_eq!(
            out,
            vec![cand(0, 10, 3, 3, 3), cand(0, 11, 3, 3, 3)],
            "identical S-side records must not pair"
        );
    }

    #[test]
    fn boundary_rule_suppresses_same_side_pairs() {
        let mut pool = TokenPool::new();
        let segs = vec![
            seg(&mut pool, 0, 8, 0, &[1, 2, 3]),
            seg(&mut pool, 1, 8, 0, &[1, 2, 3]),
            seg(&mut pool, 2, 12, 0, &[1, 2, 3]),
        ];
        let rule = JoinRule::Boundary { lo: 0, pivot: 10 };
        let join = join(
            &pool,
            PairScope::SelfJoin,
            0.5,
            JoinKernel::Loop,
            FilterSet::NONE,
        );
        let (out, _) = run_join(&join, &segs, rule);
        // Only (0,2) and (1,2) straddle the pivot.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].key(), (0, 2));
        assert_eq!(out[1].key(), (1, 2));
    }

    #[test]
    fn filters_reduce_emission_monotonically() {
        let mut pool = TokenPool::new();
        let mut segments = Vec::new();
        let mut state = 5u64;
        let mut next = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as u32) % m
        };
        for rid in 0..50u32 {
            let mut toks: Vec<u32> = (0..(2 + next(6))).map(|_| next(30)).collect();
            toks.sort_unstable();
            toks.dedup();
            let head = next(12);
            let tail = next(12);
            segments.push(Segment {
                rid,
                side: 0,
                len: head + tail + toks.len() as u32,
                head,
                tail,
                span: pool.push(&toks),
            });
        }
        let (none, _) = run(&pool, &segments, JoinKernel::Loop, 0.8, FilterSet::NONE);
        let (all, stats) = run(&pool, &segments, JoinKernel::Loop, 0.8, FilterSet::ALL);
        assert!(all.len() <= none.len());
        assert!(stats.strl_pruned + stats.segl_pruned + stats.segi_pruned + stats.segd_pruned > 0);
    }

    #[test]
    fn zero_overlap_pairs_never_emitted() {
        let mut pool = TokenPool::new();
        let segs = vec![
            seg(&mut pool, 0, 3, 0, &[1, 2, 3]),
            seg(&mut pool, 1, 3, 0, &[7, 8, 9]),
        ];
        for k in JoinKernel::all() {
            let (out, _) = run(&pool, &segs, k, 0.5, FilterSet::NONE);
            assert!(out.is_empty(), "{k:?}");
        }
    }

    #[test]
    fn candidate_record_orders_like_the_old_tuple_encoding() {
        let records = [
            cand(0, 1, 2, 3, 4),
            cand(0, 1, 1, 9, 9),
            cand(1, 0, 0, 0, 0),
            cand(0, 2, 0, 0, 0),
        ];
        let mut by_struct = records;
        by_struct.sort_unstable();
        let mut by_tuple = records;
        by_tuple.sort_unstable_by_key(|r| (r.key(), r.value()));
        assert_eq!(by_struct, by_tuple);
    }

    /// The table the indexed kernels compare Hamming distances against is
    /// `Verifier::signature` with the distance left out: on real pool
    /// bitmaps, for every length pair from tiny to saturating, "no limit"
    /// is `Saturated` and "above the limit" is `Dissimilar`.
    #[test]
    fn hamming_limit_is_the_verifier_signature_without_the_distance() {
        use ssj_similarity::bitmap::symmetric_difference_lower_bound;
        let mut pool = TokenPool::new();
        let lens = [1usize, 3, 5, 12, 13, 40, 64, 65, 130, 300, 620, 640];
        for (k, &len) in lens.iter().enumerate() {
            // Neighbouring records overlap in most of the shorter one.
            let tokens: Vec<u32> = (0..len as u32).map(|t| t * 3 + (k as u32 % 3)).collect();
            pool.push(&tokens);
        }
        let words = pool.bitmap_bits() / 64;
        for measure in Measure::all() {
            for theta in [0.5, 0.75, 0.8, 0.9, 1.0] {
                let mut join = join(
                    &pool,
                    PairScope::SelfJoin,
                    theta,
                    JoinKernel::Index,
                    FilterSet::NONE,
                );
                join.measure = measure;
                assert_eq!(join.hamming_limit(5, 12, words), None, "step off");
                join.signatures = true;
                for (a, &la) in lens.iter().enumerate() {
                    for (b, &lb) in lens.iter().enumerate() {
                        let (a_bits, b_bits) = (pool.bitmap_of(a as u32), pool.bitmap_of(b as u32));
                        let alpha = measure.min_overlap(theta, la, lb);
                        let want = Verifier::signature(alpha, la, lb, a_bits, b_bits);
                        let limit = join.hamming_limit(la, lb, words);
                        let hamming = symmetric_difference_lower_bound(a_bits, b_bits) as i64;
                        let got = match limit {
                            None => Signature::Saturated,
                            Some(limit) if hamming > limit => Signature::Dissimilar,
                            Some(_) => Signature::Open,
                        };
                        assert_eq!(got, want, "{measure:?} θ={theta} |a|={la} |b|={lb}");
                    }
                }
            }
        }
    }

    #[test]
    fn local_prefix_len_bounds() {
        let m = Measure::Jaccard;
        let mut pool = TokenPool::new();
        // Whole record as one segment: local alpha = ceil(θ|s|).
        let s = seg(&mut pool, 0, 10, 0, &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(local_alpha(m, 0.8, &s), 8);
        assert_eq!(local_prefix_len(m, 0.8, &s), 3);
        // A tiny middle segment: alpha clamps to 1, prefix = full segment.
        let s = seg(&mut pool, 0, 20, 9, &[100, 101]);
        assert_eq!(local_alpha(m, 0.8, &s), 1);
        assert_eq!(local_prefix_len(m, 0.8, &s), 2);
    }
}
