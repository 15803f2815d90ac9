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
//! All kernels run every discovered pair through one cascade — scope →
//! StrL → record signature → SegL → SegD precheck, then SegI/SegD on the
//! exact local overlap (`FragmentJoin::admit` / `finish`) — apply the same
//! [`FilterSet`] and produce identical output
//! (property-tested); they differ only in work. Segments carry spans into
//! the collection's shared [`TokenPool`], so every kernel takes the pool
//! and resolves token slices on the fly (a bounds-checked slice of the
//! flat arena — contiguous, cache-friendly, and allocation-free).

use crate::filters::{
    segd_pass, segd_pass_precheck, segi_pass, segl_pass, strl_pass, EmitPolicy, FilterSet,
    FilterStats, PairBounds,
};
use crate::horizontal::JoinRule;
use crate::segment::Segment;
use ssj_common::FxHashMap;
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

/// Reducer-owned scratch for the Prefix kernels' discovery step: which
/// index slots the current probe segment reached. A stamp per slot instead
/// of a hash set per probe — `stamps[slot] == epoch` means "already hit by
/// this probe" — so a probe costs one array write per posting and leaves
/// nothing to clear: the next probe just takes the next epoch.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    stamps: Vec<u32>,
    epoch: u32,
    hits: Vec<u32>,
}

impl ProbeScratch {
    /// Distinct slots the last [`Self::probe`] reached, in discovery order.
    pub fn hits(&self) -> &[u32] {
        &self.hits
    }

    /// Collect the distinct slots `index` lists under `tokens`. `slots` is
    /// the number of indexed segments (every slot in `index` is below it).
    pub fn probe(&mut self, tokens: &[u32], index: &FxHashMap<u32, Vec<u32>>, slots: usize) {
        if self.stamps.len() < slots {
            self.stamps.resize(slots, 0);
        }
        if self.epoch == u32::MAX {
            // Stamps of 2³² probes ago would read as current.
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.hits.clear();
        for t in tokens {
            for &slot in index.get(t).map_or(&[][..], Vec::as_slice) {
                let stamp = &mut self.stamps[slot as usize];
                if *stamp != self.epoch {
                    *stamp = self.epoch;
                    self.hits.push(slot);
                }
            }
        }
    }
}

/// Join all segments of one fragment cell. `segments` may contain at most
/// one segment per `(rid, side)` (guaranteed by vertical partitioning);
/// their spans resolve against `join.pool`.
///
/// Base cells (rule [`JoinRule::All`]) join all admissible pairs; boundary
/// cells join **bipartitely** — segments are split at the pivot into the
/// short band `[lo, pivot)` and the long group `[pivot, ∞)`, and only
/// cross-group pairs are considered, so the join never spends discovery
/// work on pairs the boundary rule would reject.
///
/// Segment intersections are always exact: the verification job sums
/// local counts, so a threshold verdict is not enough for a pair that
/// survives. What the record bitmaps can settle is whether the *pair*
/// survives at all ([`FragmentJoin::signatures`]).
pub fn join_fragment(
    join: &FragmentJoin<'_>,
    segments: &[Segment],
    rule: JoinRule,
    scratch: &mut ProbeScratch,
    stats: &mut FilterStats,
) -> Vec<CandidateRecord> {
    match rule {
        JoinRule::All => match join.kernel {
            JoinKernel::Loop => join.loop_join(segments, stats),
            JoinKernel::Index => join.index_join(segments, stats),
            JoinKernel::Prefix => join.prefix_join(segments, scratch, stats),
        },
        JoinRule::Boundary { lo, pivot } => {
            let mut short: Vec<&Segment> = Vec::new();
            let mut long: Vec<&Segment> = Vec::new();
            for s in segments {
                if s.len >= pivot {
                    long.push(s);
                } else if s.len >= lo {
                    short.push(s);
                }
                // Segments below `lo` can never satisfy the boundary rule.
            }
            join.bipartite_join(&short, &long, scratch, stats)
        }
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
    /// Everything that can be decided about a segment pair before a token
    /// is touched, cheapest first: scope → StrL → record signature → SegL →
    /// SegD precheck (`precheck`; the Index kernels skip it — they arrive
    /// with the exact overlap, which the full SegD test uses). Returns the
    /// pair's bounds when it survives.
    ///
    /// StrL and the signature step look at the two *records* only, so
    /// their verdict on a pair is the same in every fragment and every
    /// horizontal cell: a pair they drop emits no partial count anywhere,
    /// which is what keeps count-based verification exact.
    #[inline]
    fn admit(
        &self,
        a: &Segment,
        b: &Segment,
        precheck: bool,
        stats: &mut FilterStats,
    ) -> Option<PairBounds> {
        // The horizontal rule is enforced structurally by the grouping.
        let admissible = match self.scope {
            PairScope::SelfJoin => a.rid != b.rid,
            PairScope::CrossSides => a.side != b.side,
        };
        if !admissible {
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

    /// Loop and Prefix: admit, intersect exactly, finish.
    #[inline]
    fn intersect_pair(
        &self,
        a: &Segment,
        b: &Segment,
        stats: &mut FilterStats,
    ) -> Option<CandidateRecord> {
        let bounds = self.admit(a, b, true, stats)?;
        stats.count_intersection(a.seg_len(), b.seg_len());
        let c = intersect_count_adaptive(a.tokens(self.pool), b.tokens(self.pool));
        self.finish(a, b, &bounds, c, stats)
    }

    /// Index: the probe already accumulated the exact local overlap.
    #[inline]
    fn counted_pair(
        &self,
        a: &Segment,
        b: &Segment,
        overlap: u32,
        stats: &mut FilterStats,
    ) -> Option<CandidateRecord> {
        let bounds = self.admit(a, b, false, stats)?;
        self.finish(a, b, &bounds, overlap as usize, stats)
    }

    fn loop_join(&self, segments: &[Segment], stats: &mut FilterStats) -> Vec<CandidateRecord> {
        let mut out = Vec::new();
        for (i, a) in segments.iter().enumerate() {
            for b in &segments[i + 1..] {
                out.extend(self.intersect_pair(a, b, stats));
            }
        }
        out
    }

    fn index_join(&self, segments: &[Segment], stats: &mut FilterStats) -> Vec<CandidateRecord> {
        let mut out = Vec::new();
        // token -> slots of already-indexed segments containing it.
        let mut index: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        let mut counts: FxHashMap<u32, u32> = FxHashMap::default();
        for (slot, a) in segments.iter().enumerate() {
            counts.clear();
            for &t in a.tokens(self.pool) {
                if let Some(slots) = index.get(&t) {
                    for &s in slots {
                        *counts.entry(s).or_insert(0) += 1;
                    }
                }
            }
            for (&slot_b, &c) in &counts {
                out.extend(self.counted_pair(a, &segments[slot_b as usize], c, stats));
            }
            for &t in a.tokens(self.pool) {
                index.entry(t).or_default().push(slot as u32);
            }
        }
        out
    }

    fn prefix_join(
        &self,
        segments: &[Segment],
        scratch: &mut ProbeScratch,
        stats: &mut FilterStats,
    ) -> Vec<CandidateRecord> {
        let mut out = Vec::new();
        let mut index: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        for (slot, a) in segments.iter().enumerate() {
            let prefix = &a.tokens(self.pool)[..local_prefix_len(self.measure, self.theta, a)];
            scratch.probe(prefix, &index, segments.len());
            for &slot_b in &scratch.hits {
                out.extend(self.intersect_pair(a, &segments[slot_b as usize], stats));
            }
            for &t in prefix {
                index.entry(t).or_default().push(slot as u32);
            }
        }
        out
    }

    /// Boundary-cell join: only short × long pairs are considered (the
    /// groups structurally satisfy the boundary rule), so discovery work is
    /// bounded by cross-group token incidences.
    fn bipartite_join(
        &self,
        short: &[&Segment],
        long: &[&Segment],
        scratch: &mut ProbeScratch,
        stats: &mut FilterStats,
    ) -> Vec<CandidateRecord> {
        let mut out = Vec::new();
        if short.is_empty() || long.is_empty() {
            return out;
        }
        match self.kernel {
            JoinKernel::Loop => {
                for a in short {
                    for b in long {
                        out.extend(self.intersect_pair(a, b, stats));
                    }
                }
            }
            JoinKernel::Index => {
                // Full inverted index over the (usually narrower) short
                // group; probe with the long group, accumulating exact
                // local overlaps.
                let mut index: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
                for (slot, a) in short.iter().enumerate() {
                    for &t in a.tokens(self.pool) {
                        index.entry(t).or_default().push(slot as u32);
                    }
                }
                let mut counts: FxHashMap<u32, u32> = FxHashMap::default();
                for b in long {
                    counts.clear();
                    for &t in b.tokens(self.pool) {
                        if let Some(slots) = index.get(&t) {
                            for &s in slots {
                                *counts.entry(s).or_insert(0) += 1;
                            }
                        }
                    }
                    for (&slot_a, &c) in &counts {
                        out.extend(self.counted_pair(short[slot_a as usize], b, c, stats));
                    }
                }
            }
            JoinKernel::Prefix => {
                // Index the short group's local prefixes, probe with the
                // long group's local prefixes; completeness argument as in
                // `prefix_join` (it is pairwise, not scan-order-dependent).
                let mut index: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
                for (slot, a) in short.iter().enumerate() {
                    let prefix = local_prefix_len(self.measure, self.theta, a);
                    for &t in &a.tokens(self.pool)[..prefix] {
                        index.entry(t).or_default().push(slot as u32);
                    }
                }
                for b in long {
                    let prefix = local_prefix_len(self.measure, self.theta, b);
                    scratch.probe(&b.tokens(self.pool)[..prefix], &index, short.len());
                    for &slot_a in &scratch.hits {
                        out.extend(self.intersect_pair(short[slot_a as usize], b, stats));
                    }
                }
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
            segments,
            rule,
            &mut ProbeScratch::default(),
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
