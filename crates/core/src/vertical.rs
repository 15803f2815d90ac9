//! Vertical partitioning: cutting a record at the pivot ranks
//! (paper §IV, Definitions 5–6).
//!
//! A pivot rank `b` starts a new segment: segment `k` holds the record's
//! tokens with rank in `[pivots[k−1], pivots[k])` (with virtual sentinels
//! `pivots[−1] = 0`, `pivots[n] = ∞`). Segments are disjoint and cover the
//! record — the "no duplication" property the paper's title rests on.
//! Empty segments are not materialized (the token space is sparse; this is
//! where vertical partitioning wins over a dense matrix layout).
//!
//! Because a record's tokens are one contiguous run in the collection's
//! [`TokenPool`](ssj_text::TokenPool), each segment is a sub-span of the
//! record's span: splitting allocates no token storage at all.

use crate::segment::Segment;
use ssj_text::TokenSpan;

/// Split a record (strictly ascending `tokens`, stored in the pool at
/// `span`) at `pivots` (strictly ascending). Returns `(fragment index,
/// segment)` pairs for every *non-empty* segment, in fragment order; each
/// segment's span is a sub-span of `span`.
///
/// `tokens` must be exactly the slice `span` resolves to — callers resolve
/// once and pass both so the split neither re-resolves nor copies.
///
/// `_side` is ignored. Segments carry no relation tag; the argument stays
/// only so the five-argument calls in the repo benchmark (`benchmark/`, a
/// workspace of its own) keep compiling until it drops them.
pub fn split_record(
    rid: u32,
    _side: u8,
    tokens: &[u32],
    span: TokenSpan,
    pivots: &[u32],
) -> Vec<(usize, Segment)> {
    debug_assert!(tokens.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(pivots.windows(2).all(|w| w[0] < w[1]));
    debug_assert_eq!(tokens.len(), span.len());
    let len = tokens.len();
    let mut out = Vec::new();
    let mut start = 0usize;
    for (k, &b) in pivots.iter().enumerate() {
        // End of segment k: first token with rank >= b.
        let end = start + tokens[start..].partition_point(|&t| t < b);
        if end > start {
            out.push((
                k,
                Segment {
                    rid,
                    len: len as u32,
                    head: start as u32,
                    tail: (len - end) as u32,
                    span: span.slice(start, end - start),
                },
            ));
        }
        start = end;
    }
    if start < len {
        out.push((
            pivots.len(),
            Segment {
                rid,
                len: len as u32,
                head: start as u32,
                tail: 0,
                span: span.slice(start, len - start),
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_text::TokenPool;

    /// Pool a single record and split it.
    fn split(rid: u32, tokens: &[u32], pivots: &[u32]) -> (TokenPool, Vec<(usize, Segment)>) {
        let mut pool = TokenPool::new();
        let span = pool.push(tokens);
        let segs = split_record(rid, 0, tokens, span, pivots);
        (pool, segs)
    }

    #[test]
    fn paperlike_example() {
        // Tokens B,C,I,J,K as ranks 1,2,8,9,10; pivots C,F,I as ranks 2,5,8.
        let (pool, segs) = split(1, &[1, 2, 8, 9, 10], &[2, 5, 8]);
        // Segment 0: [B]=ranks <2 -> [1]; segment 1: [C]=[2]; segment 2 (5..8): empty;
        // segment 3: [8,9,10].
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].0, 0);
        assert_eq!(segs[0].1.tokens(&pool), &[1]);
        assert_eq!(segs[1].0, 1);
        assert_eq!(segs[1].1.tokens(&pool), &[2]);
        assert_eq!(segs[2].0, 3);
        assert_eq!(segs[2].1.tokens(&pool), &[8, 9, 10]);
    }

    #[test]
    fn segments_are_disjoint_cover_with_correct_metadata() {
        let tokens: Vec<u32> = vec![0, 3, 4, 7, 11, 15, 16, 20];
        let pivots = vec![4, 10, 16];
        let (pool, segs) = split(9, &tokens, &pivots);
        let mut reassembled = Vec::new();
        for (_, s) in &segs {
            assert!(s.is_consistent(), "{s:?}");
            assert_eq!(s.rid, 9);
            assert_eq!(s.len as usize, tokens.len());
            assert_eq!(s.head as usize, reassembled.len());
            reassembled.extend_from_slice(s.tokens(&pool));
        }
        assert_eq!(reassembled, tokens);
    }

    #[test]
    fn fragment_assignment_respects_pivot_boundaries() {
        // Token equal to a pivot starts the new segment.
        let (_, segs) = split(0, &[5], &[5]);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].0, 1);
        let (_, segs) = split(0, &[4], &[5]);
        assert_eq!(segs[0].0, 0);
    }

    #[test]
    fn no_pivots_single_segment() {
        let (pool, segs) = split(0, &[1, 2, 3], &[]);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].0, 0);
        assert_eq!(segs[0].1.tokens(&pool), &[1, 2, 3]);
        assert_eq!(segs[0].1.head, 0);
        assert_eq!(segs[0].1.tail, 0);
    }

    #[test]
    fn empty_record_yields_nothing() {
        let (_, segs) = split(0, &[], &[3, 7]);
        assert!(segs.is_empty());
    }

    #[test]
    fn all_tokens_before_first_pivot() {
        let (_, segs) = split(0, &[1, 2], &[10, 20]);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].0, 0);
        assert_eq!(segs[0].1.tail, 0);
    }

    #[test]
    fn split_spans_point_into_a_shared_pool() {
        // Two records in one pool: the second record's segments must
        // resolve to *its* tokens, i.e. spans are absolute pool offsets.
        let mut pool = TokenPool::new();
        pool.push(&[100, 200, 300]);
        let tokens = [1u32, 2, 8, 9];
        let span = pool.push(&tokens);
        let segs = split_record(7, 0, &tokens, span, &[5]);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].1.tokens(&pool), &[1, 2]);
        assert_eq!(segs[1].1.tokens(&pool), &[8, 9]);
        assert_eq!(segs[0].1.span.start, 3);
    }
}
