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
//! All kernels apply the same [`FilterSet`] and produce identical output
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
use ssj_similarity::Measure;
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

/// Join all segments of one fragment cell. `segments` may contain at most
/// one segment per `(rid, side)` (guaranteed by vertical partitioning);
/// their spans resolve against `pool`.
///
/// Base cells (rule [`JoinRule::All`]) join all admissible pairs; boundary
/// cells join **bipartitely** — segments are split at the pivot into the
/// short band `[lo, pivot)` and the long group `[pivot, ∞)`, and only
/// cross-group pairs are considered, so the join never spends discovery
/// work on pairs the boundary rule would reject.
///
/// Segment intersections are always exact and never bitmap-pruned: the
/// verification job sums local counts, so a threshold verdict is not
/// enough here, and the record-level bitmap bound almost never falls
/// below a *local* requirement (DESIGN.md §12).
#[allow(clippy::too_many_arguments)]
pub fn join_fragment(
    pool: &TokenPool,
    segments: &[Segment],
    rule: JoinRule,
    scope: PairScope,
    measure: Measure,
    theta: f64,
    kernel: JoinKernel,
    filters: FilterSet,
    policy: EmitPolicy,
    stats: &mut FilterStats,
) -> Vec<CandidateRecord> {
    match rule {
        JoinRule::All => match kernel {
            JoinKernel::Loop => loop_join(
                pool, segments, scope, measure, theta, filters, policy, stats,
            ),
            JoinKernel::Index => index_join(
                pool, segments, scope, measure, theta, filters, policy, stats,
            ),
            JoinKernel::Prefix => prefix_join(
                pool, segments, scope, measure, theta, filters, policy, stats,
            ),
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
            bipartite_join(
                pool, &short, &long, scope, measure, theta, kernel, filters, policy, stats,
            )
        }
    }
}

/// Pair admissibility within a group layout (scope only; the horizontal
/// rule is enforced structurally by the caller's grouping).
#[inline]
fn admissible(a: &Segment, b: &Segment, scope: PairScope) -> bool {
    match scope {
        PairScope::SelfJoin => a.rid != b.rid,
        PairScope::CrossSides => a.side != b.side,
    }
}

/// Run the filter pipeline on a pair whose local overlap is already known;
/// returns the candidate record if it survives.
#[inline]
#[allow(clippy::too_many_arguments)]
fn finish_pair(
    a: &Segment,
    b: &Segment,
    overlap: usize,
    measure: Measure,
    theta: f64,
    filters: FilterSet,
    policy: EmitPolicy,
    stats: &mut FilterStats,
) -> Option<CandidateRecord> {
    let bounds = PairBounds::new(measure, theta, a.len, a.head, a.tail, b.len, b.head, b.tail);
    if filters.segi && !segi_pass(&bounds, overlap) {
        stats.segi_pruned += 1;
        return None;
    }
    if filters.segd && !segd_pass(&bounds, a.seg_len(), b.seg_len(), overlap) {
        stats.segd_pruned += 1;
        return None;
    }
    if overlap == 0 {
        // Nothing to contribute to the verification sum.
        return None;
    }
    if policy == EmitPolicy::PositiveBoundOnly && bounds.required_local < 1 {
        // Paper-magnitude mode: drop contributions no lemma can demand.
        // NOT exact — see EmitPolicy docs.
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

#[allow(clippy::too_many_arguments)]
fn loop_join(
    pool: &TokenPool,
    segments: &[Segment],
    scope: PairScope,
    measure: Measure,
    theta: f64,
    filters: FilterSet,
    policy: EmitPolicy,
    stats: &mut FilterStats,
) -> Vec<CandidateRecord> {
    let mut out = Vec::new();
    for i in 0..segments.len() {
        let a = &segments[i];
        for b in &segments[i + 1..] {
            if !admissible(a, b, scope) {
                continue;
            }
            stats.pairs_considered += 1;
            if filters.strl && !strl_pass(measure, theta, a.len, b.len) {
                stats.strl_pruned += 1;
                continue;
            }
            let bounds =
                PairBounds::new(measure, theta, a.len, a.head, a.tail, b.len, b.head, b.tail);
            if filters.segl && !segl_pass(&bounds, a.seg_len(), b.seg_len()) {
                stats.segl_pruned += 1;
                continue;
            }
            if filters.segd && !segd_pass_precheck(&bounds, a.seg_len(), b.seg_len()) {
                stats.segd_pruned += 1;
                continue;
            }
            stats.count_intersection(a.seg_len(), b.seg_len());
            let c = intersect_count_adaptive(a.tokens(pool), b.tokens(pool));
            if let Some(rec) = finish_pair(a, b, c, measure, theta, filters, policy, stats) {
                out.push(rec);
            }
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn index_join(
    pool: &TokenPool,
    segments: &[Segment],
    scope: PairScope,
    measure: Measure,
    theta: f64,
    filters: FilterSet,
    policy: EmitPolicy,
    stats: &mut FilterStats,
) -> Vec<CandidateRecord> {
    let mut out = Vec::new();
    // token -> slots of already-indexed segments containing it.
    let mut index: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    let mut counts: FxHashMap<u32, u32> = FxHashMap::default();
    for (slot, a) in segments.iter().enumerate() {
        counts.clear();
        for &t in a.tokens(pool) {
            if let Some(slots) = index.get(&t) {
                for &s in slots {
                    *counts.entry(s).or_insert(0) += 1;
                }
            }
        }
        for (&slot_b, &c) in &counts {
            let b = &segments[slot_b as usize];
            if !admissible(a, b, scope) {
                continue;
            }
            stats.pairs_considered += 1;
            if filters.strl && !strl_pass(measure, theta, a.len, b.len) {
                stats.strl_pruned += 1;
                continue;
            }
            let bounds =
                PairBounds::new(measure, theta, a.len, a.head, a.tail, b.len, b.head, b.tail);
            if filters.segl && !segl_pass(&bounds, a.seg_len(), b.seg_len()) {
                stats.segl_pruned += 1;
                continue;
            }
            if let Some(rec) = finish_pair(a, b, c as usize, measure, theta, filters, policy, stats)
            {
                out.push(rec);
            }
        }
        for &t in a.tokens(pool) {
            index.entry(t).or_default().push(slot as u32);
        }
    }
    out
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
fn local_prefix_len(measure: Measure, theta: f64, seg: &Segment) -> usize {
    let alpha = local_alpha(measure, theta, seg);
    debug_assert!(alpha <= seg.seg_len().max(1));
    seg.seg_len() - alpha.min(seg.seg_len()) + 1
}

#[allow(clippy::too_many_arguments)]
fn prefix_join(
    pool: &TokenPool,
    segments: &[Segment],
    scope: PairScope,
    measure: Measure,
    theta: f64,
    filters: FilterSet,
    policy: EmitPolicy,
    stats: &mut FilterStats,
) -> Vec<CandidateRecord> {
    let mut out = Vec::new();
    let mut index: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    let mut seen: FxHashMap<u32, ()> = FxHashMap::default();
    for (slot, a) in segments.iter().enumerate() {
        seen.clear();
        let a_tokens = a.tokens(pool);
        let prefix = local_prefix_len(measure, theta, a);
        for &t in &a_tokens[..prefix] {
            if let Some(slots) = index.get(&t) {
                for &s in slots {
                    seen.entry(s).or_insert(());
                }
            }
        }
        for &slot_b in seen.keys() {
            let b = &segments[slot_b as usize];
            if !admissible(a, b, scope) {
                continue;
            }
            stats.pairs_considered += 1;
            if filters.strl && !strl_pass(measure, theta, a.len, b.len) {
                stats.strl_pruned += 1;
                continue;
            }
            let bounds =
                PairBounds::new(measure, theta, a.len, a.head, a.tail, b.len, b.head, b.tail);
            if filters.segl && !segl_pass(&bounds, a.seg_len(), b.seg_len()) {
                stats.segl_pruned += 1;
                continue;
            }
            if filters.segd && !segd_pass_precheck(&bounds, a.seg_len(), b.seg_len()) {
                stats.segd_pruned += 1;
                continue;
            }
            stats.count_intersection(a.seg_len(), b.seg_len());
            let c = intersect_count_adaptive(a_tokens, b.tokens(pool));
            if let Some(rec) = finish_pair(a, b, c, measure, theta, filters, policy, stats) {
                out.push(rec);
            }
        }
        for (pos, &t) in a_tokens.iter().enumerate().take(prefix) {
            let _ = pos;
            index.entry(t).or_default().push(slot as u32);
        }
    }
    out
}

/// Boundary-cell join: only short × long pairs are considered (the groups
/// structurally satisfy the boundary rule), so discovery work is bounded
/// by cross-group token incidences.
#[allow(clippy::too_many_arguments)]
fn bipartite_join(
    pool: &TokenPool,
    short: &[&Segment],
    long: &[&Segment],
    scope: PairScope,
    measure: Measure,
    theta: f64,
    kernel: JoinKernel,
    filters: FilterSet,
    policy: EmitPolicy,
    stats: &mut FilterStats,
) -> Vec<CandidateRecord> {
    let mut out = Vec::new();
    if short.is_empty() || long.is_empty() {
        return out;
    }
    match kernel {
        JoinKernel::Loop => {
            for a in short {
                for b in long {
                    if !admissible(a, b, scope) {
                        continue;
                    }
                    stats.pairs_considered += 1;
                    if filters.strl && !strl_pass(measure, theta, a.len, b.len) {
                        stats.strl_pruned += 1;
                        continue;
                    }
                    let bounds = PairBounds::new(
                        measure, theta, a.len, a.head, a.tail, b.len, b.head, b.tail,
                    );
                    if filters.segl && !segl_pass(&bounds, a.seg_len(), b.seg_len()) {
                        stats.segl_pruned += 1;
                        continue;
                    }
                    if filters.segd && !segd_pass_precheck(&bounds, a.seg_len(), b.seg_len()) {
                        stats.segd_pruned += 1;
                        continue;
                    }
                    stats.count_intersection(a.seg_len(), b.seg_len());
                    let c = intersect_count_adaptive(a.tokens(pool), b.tokens(pool));
                    if let Some(rec) = finish_pair(a, b, c, measure, theta, filters, policy, stats)
                    {
                        out.push(rec);
                    }
                }
            }
        }
        JoinKernel::Index => {
            // Full inverted index over the (usually narrower) short group;
            // probe with the long group, accumulating exact local overlaps.
            let mut index: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
            for (slot, a) in short.iter().enumerate() {
                for &t in a.tokens(pool) {
                    index.entry(t).or_default().push(slot as u32);
                }
            }
            let mut counts: FxHashMap<u32, u32> = FxHashMap::default();
            for b in long {
                counts.clear();
                for &t in b.tokens(pool) {
                    if let Some(slots) = index.get(&t) {
                        for &s in slots {
                            *counts.entry(s).or_insert(0) += 1;
                        }
                    }
                }
                for (&slot_a, &c) in &counts {
                    let a = short[slot_a as usize];
                    if !admissible(a, b, scope) {
                        continue;
                    }
                    stats.pairs_considered += 1;
                    if filters.strl && !strl_pass(measure, theta, a.len, b.len) {
                        stats.strl_pruned += 1;
                        continue;
                    }
                    let bounds = PairBounds::new(
                        measure, theta, a.len, a.head, a.tail, b.len, b.head, b.tail,
                    );
                    if filters.segl && !segl_pass(&bounds, a.seg_len(), b.seg_len()) {
                        stats.segl_pruned += 1;
                        continue;
                    }
                    if let Some(rec) =
                        finish_pair(a, b, c as usize, measure, theta, filters, policy, stats)
                    {
                        out.push(rec);
                    }
                }
            }
        }
        JoinKernel::Prefix => {
            // Index the short group's local prefixes, probe with the long
            // group's local prefixes; completeness argument as in
            // `prefix_join` (it is pairwise, not scan-order-dependent).
            let mut index: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
            for (slot, a) in short.iter().enumerate() {
                let prefix = local_prefix_len(measure, theta, a);
                for &t in &a.tokens(pool)[..prefix] {
                    index.entry(t).or_default().push(slot as u32);
                }
            }
            let mut seen: FxHashMap<u32, ()> = FxHashMap::default();
            for b in long {
                seen.clear();
                let b_tokens = b.tokens(pool);
                let prefix = local_prefix_len(measure, theta, b);
                for &t in &b_tokens[..prefix] {
                    if let Some(slots) = index.get(&t) {
                        for &s in slots {
                            seen.entry(s).or_insert(());
                        }
                    }
                }
                for &slot_a in seen.keys() {
                    let a = short[slot_a as usize];
                    if !admissible(a, b, scope) {
                        continue;
                    }
                    stats.pairs_considered += 1;
                    if filters.strl && !strl_pass(measure, theta, a.len, b.len) {
                        stats.strl_pruned += 1;
                        continue;
                    }
                    let bounds = PairBounds::new(
                        measure, theta, a.len, a.head, a.tail, b.len, b.head, b.tail,
                    );
                    if filters.segl && !segl_pass(&bounds, a.seg_len(), b.seg_len()) {
                        stats.segl_pruned += 1;
                        continue;
                    }
                    if filters.segd && !segd_pass_precheck(&bounds, a.seg_len(), b.seg_len()) {
                        stats.segd_pruned += 1;
                        continue;
                    }
                    stats.count_intersection(a.seg_len(), b.seg_len());
                    let c = intersect_count_adaptive(a.tokens(pool), b_tokens);
                    if let Some(rec) = finish_pair(a, b, c, measure, theta, filters, policy, stats)
                    {
                        out.push(rec);
                    }
                }
            }
        }
    }
    out
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

    fn run(
        pool: &TokenPool,
        segments: &[Segment],
        kernel: JoinKernel,
        theta: f64,
        filters: FilterSet,
    ) -> (Vec<CandidateRecord>, FilterStats) {
        let mut stats = FilterStats::default();
        let mut out = join_fragment(
            pool,
            segments,
            JoinRule::All,
            PairScope::SelfJoin,
            Measure::Jaccard,
            theta,
            kernel,
            filters,
            EmitPolicy::Exact,
            &mut stats,
        );
        out.sort_unstable();
        (out, stats)
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
        let mut stats = FilterStats::default();
        let mut out = join_fragment(
            &pool,
            &segs,
            JoinRule::All,
            PairScope::CrossSides,
            Measure::Jaccard,
            0.9,
            JoinKernel::Loop,
            FilterSet::ALL,
            EmitPolicy::Exact,
            &mut stats,
        );
        out.sort_unstable();
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
        let mut stats = FilterStats::default();
        let mut out = join_fragment(
            &pool,
            &segs,
            rule,
            PairScope::SelfJoin,
            Measure::Jaccard,
            0.5,
            JoinKernel::Loop,
            FilterSet::NONE,
            EmitPolicy::Exact,
            &mut stats,
        );
        out.sort_unstable();
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
