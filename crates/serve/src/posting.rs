//! Posting types shared by the build plan, the sealed main index, and the
//! mutable delta index.
//!
//! A [`Posting`] is one `(record, position, length)` triple: record `rec`
//! carries the posting's token at position `pos` of its sorted token
//! vector, and has `len` tokens total. Storing the length *in* the posting
//! is the Bitmap-Filter-style design point (prune state resident next to
//! the index): the probe path applies the length window without touching
//! the record arena.
//!
//! A [`PostingBlock`] is one token's posting list stored **columnar** —
//! three parallel vectors rather than an array of structs — and ordered by
//! `(len, rec)`. The order is what makes the string-length filter
//! (Lemma 1) a range: two `partition_point`s on the `lens` column give the
//! postings inside a `[min_len, max_len]` window (`PostingBlock::window`),
//! and every posting outside it is counted without being read. Blocks are
//! also the build plan's reduce *output* type: the reducer seals each
//! token's postings into a block, and
//! [`ServeIndex::from_plan`](crate::ServeIndex::from_plan) serves straight
//! out of the sealed partitions. The delta index inserts in order, and
//! compaction merges two ordered blocks (`PostingBlock::merge`).
//!
//! `LengthCounts` is the per-length record census main and delta share:
//! how many records of each length the index holds, as a cumulative table,
//! so the prefix filter's eligible count is two lookups.

use std::ops::Range;

use ssj_common::ByteSize;
use ssj_text::RecordId;

/// One posting: `(record, position, length)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Posting {
    /// Record id within the serving index (main arena ++ delta pool).
    pub rec: RecordId,
    /// Position of the token within the record's sorted token vector.
    pub pos: u32,
    /// The record's total token count.
    pub len: u32,
}

impl ByteSize for Posting {
    #[inline]
    fn byte_size(&self) -> usize {
        12
    }
}

/// One token's posting list, columnar: `recs[i]`, `poss[i]`, `lens[i]`
/// form the `i`-th [`Posting`], ascending in `(len, rec)` (build, insert
/// and compaction all keep that order; probes rely on it for the length
/// window).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingBlock {
    /// Record ids, ascending within each run of equal `lens`.
    pub recs: Vec<RecordId>,
    /// Token positions, parallel to `recs`.
    pub poss: Vec<u32>,
    /// Record lengths, parallel to `recs`, ascending.
    pub lens: Vec<u32>,
}

impl PostingBlock {
    /// A block with room for `n` postings.
    pub fn with_capacity(n: usize) -> Self {
        PostingBlock {
            recs: Vec::with_capacity(n),
            poss: Vec::with_capacity(n),
            lens: Vec::with_capacity(n),
        }
    }

    /// Number of postings.
    #[inline]
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True when the block holds no postings.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Append one posting. The caller keeps the `(len, rec)` order.
    #[inline]
    pub fn push(&mut self, p: Posting) {
        self.recs.push(p.rec);
        self.poss.push(p.pos);
        self.lens.push(p.len);
    }

    /// Insert one posting at its `(len, rec)` rank.
    pub(crate) fn insert(&mut self, p: Posting) {
        let at = self.rank(p.len, p.rec);
        self.recs.insert(at, p.rec);
        self.poss.insert(at, p.pos);
        self.lens.insert(at, p.len);
    }

    /// The `i`-th posting, re-assembled from the columns.
    #[inline]
    pub fn get(&self, i: usize) -> Posting {
        Posting {
            rec: self.recs[i],
            pos: self.poss[i],
            len: self.lens[i],
        }
    }

    /// Iterate the postings in storage order.
    pub fn iter(&self) -> impl Iterator<Item = Posting> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The postings whose record length lies in `[min_len, max_len]`, as
    /// an index range (empty when `min_len > max_len`).
    #[inline]
    pub(crate) fn window(&self, min_len: u32, max_len: u32) -> Range<usize> {
        let lo = self.lens.partition_point(|&l| l < min_len);
        let hi = lo + self.lens[lo..].partition_point(|&l| l <= max_len);
        lo..hi
    }

    /// Number of postings ordered before `(len, rec)`.
    fn rank(&self, len: u32, rec: RecordId) -> usize {
        let run = self.window(len, len);
        run.start + self.recs[run].partition_point(|&r| r < rec)
    }

    /// True when record `rec` of length `len` has a posting here.
    pub(crate) fn contains(&self, len: u32, rec: RecordId) -> bool {
        let at = self.rank(len, rec);
        at < self.len() && self.recs[at] == rec && self.lens[at] == len
    }

    /// True when the postings ascend strictly in `(len, rec)`.
    pub(crate) fn is_ordered(&self) -> bool {
        (1..self.len()).all(|i| (self.lens[i - 1], self.recs[i - 1]) < (self.lens[i], self.recs[i]))
    }

    /// Merge two `(len, rec)`-ordered blocks over disjoint records into one
    /// ordered block: a two-pointer walk, no comparison sort.
    pub(crate) fn merge(a: &PostingBlock, b: &PostingBlock) -> PostingBlock {
        let mut out = PostingBlock::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if (a.lens[i], a.recs[i]) < (b.lens[j], b.recs[j]) {
                out.push(a.get(i));
                i += 1;
            } else {
                out.push(b.get(j));
                j += 1;
            }
        }
        for k in i..a.len() {
            out.push(a.get(k));
        }
        for k in j..b.len() {
            out.push(b.get(k));
        }
        out
    }
}

impl ByteSize for PostingBlock {
    /// Wire size: three length-prefixed u32 columns — identical to the
    /// `(rec, pos, len)` rows plus two extra prefixes, so block-shaped
    /// shuffle accounting stays comparable to row-shaped accounting.
    fn byte_size(&self) -> usize {
        self.recs.byte_size() + self.poss.byte_size() + self.lens.byte_size()
    }
}

/// Records per length, cumulative: `below[l]` records are shorter than
/// `l`. One entry per length up to the longest record plus one, so a
/// window count is two lookups and the table is never larger than the
/// token arena it describes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LengthCounts {
    below: Vec<u32>,
}

impl LengthCounts {
    /// The census of `lens`: a histogram, then its prefix sums.
    pub(crate) fn new(lens: impl Iterator<Item = usize>) -> LengthCounts {
        let mut below: Vec<u32> = Vec::new();
        for l in lens {
            if below.len() < l + 2 {
                below.resize(l + 2, 0);
            }
            below[l + 1] += 1;
        }
        for l in 1..below.len() {
            below[l] += below[l - 1];
        }
        LengthCounts { below }
    }

    /// Count one more record of length `len`.
    pub(crate) fn add(&mut self, len: usize) {
        if self.below.len() < len + 2 {
            let total = self.below.last().copied().unwrap_or(0);
            self.below.resize(len + 2, total);
        }
        for count in &mut self.below[len + 1..] {
            *count += 1;
        }
    }

    /// Records with length in `[lo, hi]` (0 when `lo > hi`).
    #[inline]
    pub(crate) fn count(&self, lo: u32, hi: u32) -> usize {
        let Some(last) = self.below.len().checked_sub(1) else {
            return 0;
        };
        let at = |l: usize| self.below[l.min(last)] as usize;
        at(hi as usize + 1).saturating_sub(at(lo as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(rows: &[(RecordId, u32)]) -> PostingBlock {
        let mut b = PostingBlock::default();
        for &(rec, len) in rows {
            b.insert(Posting { rec, pos: 0, len });
        }
        b
    }

    fn rows(b: &PostingBlock) -> Vec<(u32, RecordId)> {
        b.iter().map(|p| (p.len, p.rec)).collect()
    }

    #[test]
    fn block_round_trips_postings() {
        let mut b = PostingBlock::with_capacity(2);
        assert!(b.is_empty());
        let p0 = Posting {
            rec: 3,
            pos: 0,
            len: 4,
        };
        let p1 = Posting {
            rec: 9,
            pos: 2,
            len: 7,
        };
        b.push(p0);
        b.push(p1);
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(0), p0);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![p0, p1]);
    }

    #[test]
    fn byte_sizes_are_row_comparable() {
        let mut b = PostingBlock::default();
        assert_eq!(b.byte_size(), 12); // three empty length prefixes
        b.push(Posting {
            rec: 1,
            pos: 0,
            len: 2,
        });
        assert_eq!(b.byte_size(), 12 + 12);
        assert_eq!(
            Posting {
                rec: 0,
                pos: 0,
                len: 0
            }
            .byte_size(),
            12
        );
    }

    #[test]
    fn insert_keeps_len_rec_order_and_windows_are_inclusive() {
        let b = block(&[(9, 5), (2, 3), (7, 5), (4, 9), (1, 3), (8, 3)]);
        assert!(b.is_ordered());
        assert_eq!(
            rows(&b),
            vec![(3, 1), (3, 2), (3, 8), (5, 7), (5, 9), (9, 4)]
        );
        assert_eq!(b.window(3, 5), 0..5);
        assert_eq!(b.window(4, 9), 3..6);
        assert_eq!(b.window(6, 8), 5..5);
        assert_eq!(b.window(10, 20), 6..6);
        assert!(b.window(5, 4).is_empty(), "inverted window");
        assert!(b.contains(5, 9) && b.contains(3, 1));
        assert!(!b.contains(5, 4) && !b.contains(9, 9) && !b.contains(1, 1));
    }

    #[test]
    fn merge_interleaves_two_ordered_blocks() {
        let a = block(&[(0, 2), (3, 4), (5, 4), (1, 8)]);
        let b = block(&[(10, 1), (11, 4), (12, 9)]);
        let m = PostingBlock::merge(&a, &b);
        assert!(m.is_ordered());
        assert_eq!(
            rows(&m),
            vec![(1, 10), (2, 0), (4, 3), (4, 5), (4, 11), (8, 1), (9, 12)]
        );
        assert_eq!(PostingBlock::merge(&a, &PostingBlock::default()), a);
    }

    #[test]
    fn length_counts_are_inclusive_and_grow() {
        let mut c = LengthCounts::new([5usize, 2, 3, 9, 3].into_iter());
        assert_eq!(c.count(3, 5), 3);
        assert_eq!(c.count(1, 100), 5);
        assert_eq!(c.count(6, 8), 0);
        assert_eq!(c.count(7, 4), 0);
        assert_eq!(c.count(0, u32::MAX), 5);
        c.add(12);
        c.add(3);
        assert_eq!(
            (c.count(3, 3), c.count(10, u32::MAX), c.count(1, 100)),
            (3, 1, 7)
        );
        assert_eq!(LengthCounts::default().count(0, 10), 0);
        let mut grown = LengthCounts::default();
        grown.add(4);
        assert_eq!((grown.count(4, 4), grown.count(0, 3)), (1, 0));
        assert_eq!(LengthCounts::new(std::iter::empty()).count(0, 9), 0);
    }
}
