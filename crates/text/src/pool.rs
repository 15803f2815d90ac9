//! Columnar token storage: one flat arena per collection.
//!
//! The paper's "no duplication" claim is about the *shuffle*; this module
//! is the same idea applied to *memory*. Instead of every record (and every
//! record segment) owning a heap-allocated `Vec<TokenId>`, a collection
//! stores all tokens in one contiguous [`TokenPool`] — a CSR-style arena:
//! a flat token vector plus an offsets table — and everything downstream
//! refers to token runs through cheap, copyable [`TokenSpan`] views.
//!
//! Consequences (see DESIGN.md "Data layout"):
//!
//! * map-side vertical partitioning produces segments with **zero** token
//!   allocations — a segment is 21 bytes of metadata plus a span;
//! * kernel inner loops run over contiguous `&[TokenId]` slices resolved
//!   once per task;
//! * the pool is shared across tasks as an `Arc` blob over a plan
//!   **broadcast edge** (`Plan::broadcast` + `add_full_broadcast` in
//!   `ssj_mapreduce`), the way Hadoop ships read-only data via the
//!   distributed cache;
//! * byte accounting stays *logical*: a span's shuffle cost is the size of
//!   the tokens it denotes, not the 8 bytes of the view (which is why
//!   `TokenSpan` deliberately does **not** implement `ByteSize` — its
//!   serialized size depends on what it points at).

use crate::record::{check_ascending, MalformedRecord, RecordId, TokenId};
use ssj_common::ByteSize;

/// A contiguous run of tokens inside a [`TokenPool`].
///
/// Spans are plain values (8 bytes, `Copy`): cloning a span never touches
/// the tokens it denotes. A span is only meaningful together with the pool
/// it was issued by; resolving it against another pool yields garbage (or a
/// panic), exactly like a file offset against the wrong file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TokenSpan {
    /// Offset of the first token in the pool's flat token vector.
    pub start: u32,
    /// Number of tokens.
    pub len: u32,
}

impl TokenSpan {
    /// Number of tokens the span denotes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the span denotes no tokens.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sub-span `[offset, offset + len)` of this span.
    ///
    /// # Panics
    /// Panics when the sub-range exceeds the span.
    #[inline]
    pub fn slice(&self, offset: usize, len: usize) -> TokenSpan {
        assert!(offset + len <= self.len as usize, "sub-span out of range");
        TokenSpan {
            start: self.start + offset as u32,
            len: len as u32,
        }
    }
}

/// Width of the per-record hashed token bitmaps of a hand-built pool
/// ([`TokenPool::new`]), in bits, and the narrowest width
/// [`bitmap_bits_for`] picks. Encoded collections size their bitmaps to
/// their records instead: 128 bits saturate on long records (an
/// Email-like 280-token record sets most of them), and a saturated
/// bitmap prunes nothing.
pub const DEFAULT_BITMAP_BITS: usize = 128;

/// The widest bitmap [`bitmap_bits_for`] picks: 256 bytes per record.
pub const MAX_BITMAP_BITS: usize = 2048;

/// The bitmap width for a collection of `records` records holding
/// `tokens` tokens in all: the smallest power of two at least four times
/// the mean record length, clamped to
/// [[`DEFAULT_BITMAP_BITS`], [`MAX_BITMAP_BITS`]]; an empty collection
/// gets the narrowest width. A record of the mean length then sets at
/// most about a fifth of its bits, so the XOR-popcount bound stays sharp
/// (DESIGN.md §12): WikiLike records (mean 56 tokens) get 256 bits,
/// PubMedLike (80) 512 and EmailLike (280) 2048.
pub fn bitmap_bits_for(records: usize, tokens: usize) -> usize {
    if records == 0 {
        return DEFAULT_BITMAP_BITS;
    }
    (4 * tokens)
        .div_ceil(records)
        .next_power_of_two()
        .clamp(DEFAULT_BITMAP_BITS, MAX_BITMAP_BITS)
}

/// Arena-backed columnar token storage (CSR layout): record `i`'s tokens
/// are `tokens[offsets[i]..offsets[i + 1]]`.
///
/// Alongside the CSR planes the pool maintains a third columnar plane: a
/// fixed-width hashed token bitmap per record (`bitmap_words` × `u64`
/// words each, flat in `bitmaps`), built incrementally as records are
/// pushed and carried through [`TokenPool::concat`] /
/// [`TokenPool::append`] — an `Arc`-shipped pool brings its bitmaps to
/// every task for free. The bitmaps feed the lossless prune bound in
/// `ssj_similarity::bitmap` (see DESIGN.md §12).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenPool {
    tokens: Vec<TokenId>,
    /// `offsets.len() == record count + 1`; `offsets[0] == 0`.
    offsets: Vec<u32>,
    /// Flat bitmap plane: record `i`'s bitmap is
    /// `bitmaps[i * bitmap_words..(i + 1) * bitmap_words]`.
    bitmaps: Vec<u64>,
    /// `u64` words per record bitmap (width in bits / 64, always ≥ 1).
    bitmap_words: u32,
}

impl Default for TokenPool {
    fn default() -> Self {
        TokenPool::new()
    }
}

/// Map a token to its bit index within a `bits`-wide bitmap. SplitMix-style
/// finalizer: deterministic, stateless, and identical everywhere a bitmap
/// is built (pool push, delta append, serve query side) — the prune bound
/// is only sound when both sides hash the same way.
#[inline]
fn token_bit(token: TokenId, bits: u32) -> u32 {
    let h = (token as u64 ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    ((h >> 32) as u32) % bits
}

/// Set the hashed bit of every token into `words` (not cleared first).
#[inline]
fn set_bits(tokens: &[TokenId], words: &mut [u64]) {
    let bits = (words.len() * 64) as u32;
    for &t in tokens {
        let bit = token_bit(t, bits);
        words[(bit / 64) as usize] |= 1u64 << (bit % 64);
    }
}

impl TokenPool {
    /// An empty pool at the default bitmap width.
    pub fn new() -> Self {
        Self::with_bitmap_bits(DEFAULT_BITMAP_BITS).expect("default width is valid")
    }

    /// An empty pool whose per-record bitmaps are `bits` wide. The width
    /// must be a positive multiple of 64 (whole `u64` lanes — the popcount
    /// kernels have no tail-masking path); anything else is rejected with
    /// a typed [`BitmapWidthError`].
    pub fn with_bitmap_bits(bits: usize) -> Result<Self, BitmapWidthError> {
        if bits == 0 || !bits.is_multiple_of(64) {
            return Err(BitmapWidthError { bits });
        }
        Ok(Self::with_capacity(0, 0, bits))
    }

    /// An empty pool with room for `records` records / `tokens` tokens,
    /// whose bitmaps are `bits` wide (the encoder passes
    /// [`bitmap_bits_for`] of what it holds).
    ///
    /// # Panics
    /// Panics when `bits` is not a positive multiple of 64.
    pub fn with_capacity(records: usize, tokens: usize, bits: usize) -> Self {
        assert!(
            bits > 0 && bits.is_multiple_of(64),
            "{}",
            BitmapWidthError { bits }
        );
        let bitmap_words = (bits / 64) as u32;
        let mut offsets = Vec::with_capacity(records + 1);
        offsets.push(0);
        TokenPool {
            tokens: Vec::with_capacity(tokens),
            offsets,
            bitmaps: Vec::with_capacity(records * bitmap_words as usize),
            bitmap_words,
        }
    }

    /// Append one record's tokens; returns its span. Records are dense:
    /// the `n`-th push stores record id `n`.
    pub fn push(&mut self, tokens: &[TokenId]) -> TokenSpan {
        let start = self.tokens.len() as u32;
        self.tokens.extend_from_slice(tokens);
        self.offsets.push(self.tokens.len() as u32);
        let words = self.bitmap_words as usize;
        let bm_start = self.bitmaps.len();
        self.bitmaps.resize(bm_start + words, 0);
        set_bits(tokens, &mut self.bitmaps[bm_start..]);
        TokenSpan {
            start,
            len: tokens.len() as u32,
        }
    }

    /// Append one record's tokens with validation: the checked ingestion
    /// entry point for data whose strictly-ascending invariant is claimed
    /// rather than established in-process (mirrors
    /// [`Record::try_from_sorted`](crate::Record::try_from_sorted), which
    /// guards the owned-record path). On success the record's id is the
    /// pool's previous length — dense, like [`TokenPool::push`] — and its
    /// span is returned. On failure the pool is unchanged: the CSR arena
    /// never holds a half-ingested record.
    ///
    /// This is the delta-pool helper the serving plane's incremental
    /// inserts ride on (new records tokenized against a frozen ordering
    /// arrive from outside the batch pipeline and must fail loudly here),
    /// but any ingestion path that cannot trust its producer should prefer
    /// it over `push`.
    pub fn append(&mut self, tokens: &[TokenId]) -> Result<(RecordId, TokenSpan), MalformedRecord> {
        let id = self.len() as RecordId;
        if let Some(position) = check_ascending(tokens) {
            return Err(MalformedRecord { id, position });
        }
        Ok((id, self.push(tokens)))
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the pool holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Total tokens across all records.
    #[inline]
    pub fn total_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// Tokens of record `rid`.
    #[inline]
    pub fn tokens_of(&self, rid: RecordId) -> &[TokenId] {
        let i = rid as usize;
        &self.tokens[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Span of record `rid`.
    #[inline]
    pub fn span_of(&self, rid: RecordId) -> TokenSpan {
        let i = rid as usize;
        TokenSpan {
            start: self.offsets[i],
            len: self.offsets[i + 1] - self.offsets[i],
        }
    }

    /// Resolve a span issued by this pool to its token slice.
    #[inline]
    pub fn resolve(&self, span: TokenSpan) -> &[TokenId] {
        &self.tokens[span.start as usize..(span.start + span.len) as usize]
    }

    /// Width of the per-record bitmaps, in bits.
    #[inline]
    pub fn bitmap_bits(&self) -> usize {
        self.bitmap_words as usize * 64
    }

    /// Hashed token bitmap of record `rid` (`bitmap_bits() / 64` words).
    #[inline]
    pub fn bitmap_of(&self, rid: RecordId) -> &[u64] {
        let words = self.bitmap_words as usize;
        let i = rid as usize * words;
        &self.bitmaps[i..i + words]
    }

    /// Build the bitmap of an arbitrary token set at this pool's width —
    /// the query-side counterpart of [`TokenPool::bitmap_of`], using the
    /// identical token→bit hash (the prune bound is sound only when both
    /// sides agree on the mapping). `out` is cleared and resized; reusing
    /// one buffer across probes keeps the query path allocation-free
    /// after the first call.
    pub fn fill_bitmap(&self, tokens: &[TokenId], out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.bitmap_words as usize, 0);
        set_bits(tokens, out);
    }

    /// Iterate over all records' token slices in id order.
    pub fn iter(&self) -> impl Iterator<Item = &[TokenId]> {
        (0..self.len()).map(move |i| self.tokens_of(i as RecordId))
    }

    /// Record lengths in id order, read straight off the CSR offsets
    /// table — no span resolution, no token access, no allocation. This is
    /// what length-histogram consumers (horizontal pivot selection) should
    /// use instead of resolving every record's slice just to take `len()`.
    pub fn lengths(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.windows(2).map(|w| (w[1] - w[0]) as usize)
    }

    /// Concatenate two pools: `a`'s records keep their ids/offsets, `b`'s
    /// records follow with ids shifted by `a.len()` and token offsets
    /// shifted by `a.total_tokens()`. This is how serve compaction folds
    /// its delta pool onto the main one; the R×S join reads its two pools
    /// in place and concatenates nothing.
    ///
    /// # Panics
    /// Panics when the combined token count overflows the `u32` offset
    /// space (see [`TokenPool::try_concat`] for the recoverable variant),
    /// or when the two pools disagree on bitmap width.
    pub fn concat(a: &TokenPool, b: &TokenPool) -> TokenPool {
        Self::try_concat(a, b).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`TokenPool::concat`]: returns [`PoolOverflow`] instead of
    /// panicking when the combined pool would exceed `u32::MAX` tokens —
    /// the CSR offsets table is `u32`, so spans past 4 Gi tokens cannot be
    /// represented.
    ///
    /// An empty side holds no bitmap, so it has no width to agree on: the
    /// result takes the other side's width.
    ///
    /// # Panics
    /// Panics when two non-empty pools' bitmap widths differ: their planes
    /// cannot be concatenated and record bitmaps would no longer be
    /// comparable. Width is fixed at construction
    /// ([`TokenPool::with_capacity`]), so a mismatch is a construction
    /// bug, not a data condition.
    pub fn try_concat(a: &TokenPool, b: &TokenPool) -> Result<TokenPool, PoolOverflow> {
        assert!(
            a.is_empty() || b.is_empty() || a.bitmap_words == b.bitmap_words,
            "cannot concat token pools with different bitmap widths"
        );
        let (&a_total, &b_total) = (
            a.offsets.last().expect("offsets table is never empty"),
            b.offsets.last().expect("offsets table is never empty"),
        );
        if a_total.checked_add(b_total).is_none() {
            return Err(PoolOverflow {
                combined_tokens: a_total as u64 + b_total as u64,
            });
        }
        let mut tokens = Vec::with_capacity(a.tokens.len() + b.tokens.len());
        tokens.extend_from_slice(&a.tokens);
        tokens.extend_from_slice(&b.tokens);
        let shift = a.tokens.len() as u32;
        let mut offsets = Vec::with_capacity(a.offsets.len() + b.offsets.len() - 1);
        offsets.extend_from_slice(&a.offsets);
        offsets.extend(b.offsets[1..].iter().map(|&o| o + shift));
        let mut bitmaps = Vec::with_capacity(a.bitmaps.len() + b.bitmaps.len());
        bitmaps.extend_from_slice(&a.bitmaps);
        bitmaps.extend_from_slice(&b.bitmaps);
        Ok(TokenPool {
            tokens,
            offsets,
            bitmaps,
            bitmap_words: if a.is_empty() {
                b.bitmap_words
            } else {
                a.bitmap_words
            },
        })
    }
}

/// A [`TokenPool::with_bitmap_bits`] width that the popcount kernels
/// cannot run on: the bitmap plane is whole `u64` lanes, so the width
/// must be a positive multiple of 64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitmapWidthError {
    /// The rejected width, in bits.
    pub bits: usize,
}

impl std::fmt::Display for BitmapWidthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bitmap width {} is not a positive multiple of 64 bits",
            self.bits
        )
    }
}

impl std::error::Error for BitmapWidthError {}

/// A [`TokenPool::try_concat`] would exceed the `u32` offset space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolOverflow {
    /// Token count the concatenated pool would need to address.
    pub combined_tokens: u64,
}

impl std::fmt::Display for PoolOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "concatenated token pool needs {} tokens, beyond the u32 offset \
             space ({} max); shard the join instead",
            self.combined_tokens,
            u32::MAX
        )
    }
}

impl std::error::Error for PoolOverflow {}

/// A record reference into a [`TokenPool`]: its id plus the span of its
/// tokens. This is what FS-Join's map input carries instead of an owned
/// [`Record`](crate::Record); the *logical* serialized size is identical (the wire format
/// would still ship id + token vector), so shuffle and duplication metrics
/// are unchanged by the columnar layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PooledRecord {
    /// Record id (also the pool index for dense collections).
    pub id: RecordId,
    /// Span of the record's tokens in its pool.
    pub span: TokenSpan,
}

impl ByteSize for PooledRecord {
    fn byte_size(&self) -> usize {
        // id + (vec length prefix + tokens): identical to `Record`.
        4 + 4 + 4 * self.span.len as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;

    #[test]
    fn push_and_resolve_round_trip() {
        let mut pool = TokenPool::new();
        assert!(pool.is_empty());
        let s0 = pool.push(&[1, 2, 3]);
        let s1 = pool.push(&[]);
        let s2 = pool.push(&[9]);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.total_tokens(), 4);
        assert_eq!(pool.resolve(s0), &[1, 2, 3]);
        assert_eq!(pool.resolve(s1), &[] as &[u32]);
        assert_eq!(pool.resolve(s2), &[9]);
        assert_eq!(pool.tokens_of(0), &[1, 2, 3]);
        assert_eq!(pool.tokens_of(1), &[] as &[u32]);
        assert_eq!(pool.span_of(2), s2);
        assert!(s1.is_empty());
    }

    #[test]
    fn spans_are_stable_across_later_pushes() {
        let mut pool = TokenPool::with_capacity(2, 8, DEFAULT_BITMAP_BITS);
        let s0 = pool.push(&[5, 6]);
        pool.push(&[7, 8, 9]);
        assert_eq!(pool.resolve(s0), &[5, 6]);
        assert_eq!(s0, TokenSpan { start: 0, len: 2 });
    }

    #[test]
    fn sub_spans() {
        let mut pool = TokenPool::new();
        let s = pool.push(&[10, 11, 12, 13]);
        let mid = s.slice(1, 2);
        assert_eq!(pool.resolve(mid), &[11, 12]);
        assert_eq!(s.slice(4, 0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_sub_span_rejected() {
        let mut pool = TokenPool::new();
        let s = pool.push(&[1]);
        let _ = s.slice(1, 1);
    }

    #[test]
    fn append_validates_and_assigns_dense_ids() {
        let mut pool = TokenPool::new();
        let (id0, s0) = pool.append(&[1, 5, 9]).unwrap();
        assert_eq!(id0, 0);
        assert_eq!(pool.resolve(s0), &[1, 5, 9]);
        // Empty records are valid (vacuously ascending).
        let (id1, s1) = pool.append(&[]).unwrap();
        assert_eq!(id1, 1);
        assert!(s1.is_empty());
        let (id2, _) = pool.append(&[7]).unwrap();
        assert_eq!(id2, 2);
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn append_rejects_unsorted_and_duplicate_tokens() {
        let mut pool = TokenPool::new();
        pool.append(&[1, 2]).unwrap();
        // Out of order: first violation is index 2 (the 4 after 9).
        let err = pool.append(&[3, 9, 4]).unwrap_err();
        assert_eq!(err.id, 1);
        assert_eq!(err.position, 2);
        // Duplicates violate *strict* ascent too.
        let err = pool.append(&[5, 5]).unwrap_err();
        assert_eq!(err.position, 1);
        // Failed appends leave the pool untouched: same length, same
        // tokens, and the next successful append gets the same id.
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.total_tokens(), 2);
        let (id, _) = pool.append(&[8, 9]).unwrap();
        assert_eq!(id, 1);
        assert_eq!(pool.tokens_of(1), &[8, 9]);
    }

    #[test]
    fn append_matches_record_try_from_sorted_verdicts() {
        // The pool-level validator and the owned-record validator must
        // agree on every input, position included.
        let cases: &[&[u32]] = &[&[], &[3], &[1, 2, 3], &[2, 1], &[4, 4], &[1, 3, 3, 5]];
        for tokens in cases {
            let mut pool = TokenPool::new();
            let via_pool = pool.append(tokens);
            let via_record = Record::try_from_sorted(0, tokens.to_vec());
            match (via_pool, via_record) {
                (Ok(_), Ok(_)) => {}
                (Err(a), Err(b)) => assert_eq!(a.position, b.position, "{tokens:?}"),
                (a, b) => panic!("{tokens:?}: pool={a:?} record={b:?}"),
            }
        }
    }

    #[test]
    fn concat_shifts_offsets() {
        let mut a = TokenPool::new();
        a.push(&[1, 2]);
        a.push(&[3]);
        let mut b = TokenPool::new();
        b.push(&[4, 5, 6]);
        b.push(&[]);
        let c = TokenPool::concat(&a, &b);
        assert_eq!(c.len(), 4);
        assert_eq!(c.total_tokens(), 6);
        assert_eq!(c.tokens_of(0), &[1, 2]);
        assert_eq!(c.tokens_of(1), &[3]);
        assert_eq!(c.tokens_of(2), &[4, 5, 6]);
        assert_eq!(c.tokens_of(3), &[] as &[u32]);
        let spans: Vec<TokenSpan> = (0..4).map(|i| c.span_of(i)).collect();
        assert_eq!(spans[2], TokenSpan { start: 3, len: 3 });
    }

    #[test]
    fn concat_with_empty_left_preserves_right_spans() {
        let mut b = TokenPool::new();
        let s0 = b.push(&[7, 8]);
        let s1 = b.push(&[9]);
        let c = TokenPool::concat(&TokenPool::new(), &b);
        assert_eq!(c.len(), 2);
        assert_eq!(c.total_tokens(), 3);
        // No left tokens → right spans survive unshifted.
        assert_eq!(c.span_of(0), s0);
        assert_eq!(c.span_of(1), s1);
        assert_eq!(c.resolve(c.span_of(0)), &[7, 8]);
        assert_eq!(c.resolve(c.span_of(1)), &[9]);
    }

    #[test]
    fn concat_with_empty_right_is_identity() {
        let mut a = TokenPool::new();
        let s0 = a.push(&[1, 2, 3]);
        let c = TokenPool::concat(&a, &TokenPool::new());
        assert_eq!(c.len(), 1);
        assert_eq!(c.span_of(0), s0);
        assert_eq!(c.resolve(s0), a.resolve(s0));
    }

    #[test]
    fn try_concat_rejects_offset_overflow() {
        // A pool *claiming* u32::MAX tokens via its offsets table — the
        // guard reads offsets, so no 16 GiB allocation is needed to
        // exercise it. (Same-module test: private-field construction.)
        let huge = TokenPool {
            tokens: Vec::new(),
            offsets: vec![0, u32::MAX],
            bitmaps: vec![0; DEFAULT_BITMAP_BITS / 64],
            bitmap_words: (DEFAULT_BITMAP_BITS / 64) as u32,
        };
        let mut b = TokenPool::new();
        b.push(&[1]);
        let err = TokenPool::try_concat(&huge, &b).unwrap_err();
        assert_eq!(err.combined_tokens, u32::MAX as u64 + 1);
        assert!(err.to_string().contains("u32 offset space"), "{err}");
        // Exactly at the boundary is still fine.
        let max_minus_one = TokenPool {
            tokens: Vec::new(),
            offsets: vec![0, u32::MAX - 1],
            bitmaps: vec![0; DEFAULT_BITMAP_BITS / 64],
            bitmap_words: (DEFAULT_BITMAP_BITS / 64) as u32,
        };
        assert!(TokenPool::try_concat(&max_minus_one, &b).is_ok());
    }

    #[test]
    fn bitmap_width_validated_at_construction() {
        for bad in [0usize, 1, 63, 65, 100, 127] {
            let err = TokenPool::with_bitmap_bits(bad).unwrap_err();
            assert_eq!(err.bits, bad);
            assert!(err.to_string().contains("multiple of 64"), "{err}");
        }
        for good in [64usize, 128, 256, 512] {
            assert_eq!(
                TokenPool::with_bitmap_bits(good).unwrap().bitmap_bits(),
                good
            );
        }
        assert_eq!(TokenPool::new().bitmap_bits(), DEFAULT_BITMAP_BITS);
    }

    #[test]
    fn bitmaps_track_pushes_and_concat() {
        let mut a = TokenPool::with_bitmap_bits(64).unwrap();
        a.push(&[1, 2, 3]);
        a.push(&[]);
        let mut b = TokenPool::with_bitmap_bits(64).unwrap();
        b.push(&[1, 2, 3]);
        // Same tokens → same bitmap; empty record → all-zero bitmap.
        assert_eq!(a.bitmap_of(0), b.bitmap_of(0));
        assert_eq!(a.bitmap_of(1), &[0u64]);
        assert_eq!(
            a.bitmap_of(0).iter().map(|w| w.count_ones()).sum::<u32>(),
            3,
            "3 tokens in 64 bits should land on distinct bits for this input"
        );
        // Concat carries both planes; ids shift, bitmaps follow.
        let c = TokenPool::concat(&a, &b);
        assert_eq!(c.bitmap_of(0), a.bitmap_of(0));
        assert_eq!(c.bitmap_of(1), a.bitmap_of(1));
        assert_eq!(c.bitmap_of(2), b.bitmap_of(0));
        // append (the validated path) builds bitmaps too.
        let mut d = TokenPool::with_bitmap_bits(64).unwrap();
        d.append(&[1, 2, 3]).unwrap();
        assert_eq!(d.bitmap_of(0), a.bitmap_of(0));
    }

    #[test]
    fn fill_bitmap_matches_pool_plane() {
        let mut pool = TokenPool::new();
        pool.push(&[4, 17, 230, 9000]);
        let mut buf = vec![u64::MAX; 1]; // stale garbage must be cleared
        pool.fill_bitmap(pool.tokens_of(0), &mut buf);
        assert_eq!(buf.as_slice(), pool.bitmap_of(0));
        pool.fill_bitmap(&[], &mut buf);
        assert_eq!(buf, vec![0u64; pool.bitmap_bits() / 64]);
    }

    #[test]
    #[should_panic(expected = "different bitmap widths")]
    fn concat_rejects_width_mismatch() {
        let mut a = TokenPool::with_bitmap_bits(64).unwrap();
        a.push(&[1]);
        let mut b = TokenPool::with_bitmap_bits(128).unwrap();
        b.push(&[2]);
        let _ = TokenPool::concat(&a, &b);
    }

    #[test]
    fn concat_takes_the_width_of_the_non_empty_side() {
        let mut wide = TokenPool::with_bitmap_bits(256).unwrap();
        wide.push(&[3, 4]);
        let empty = TokenPool::new();
        for c in [
            TokenPool::concat(&empty, &wide),
            TokenPool::concat(&wide, &empty),
        ] {
            assert_eq!(c.bitmap_bits(), 256);
            assert_eq!(c.bitmap_of(0), wide.bitmap_of(0));
        }
    }

    #[test]
    fn bitmap_width_follows_the_mean_record_length() {
        // Four bits per token of the mean, rounded up to a power of two.
        for (mean, bits) in [(280, 2048), (80, 512), (56, 256), (33, 256), (32, 128)] {
            assert_eq!(bitmap_bits_for(1_000, 1_000 * mean), bits, "mean {mean}");
        }
        // A fractional mean rounds up: 4 × 32.5 = 130 bits need 256.
        assert_eq!(bitmap_bits_for(2, 65), 256);
        for tokens in [0, 1, 10, 64] {
            assert_eq!(bitmap_bits_for(2, tokens), DEFAULT_BITMAP_BITS);
        }
        assert_eq!(bitmap_bits_for(0, 0), DEFAULT_BITMAP_BITS);
        assert_eq!(bitmap_bits_for(0, 500), DEFAULT_BITMAP_BITS);
        // Records past 512 tokens all get the cap.
        for mean in [513, 2_000, 100_000] {
            assert_eq!(bitmap_bits_for(10, 10 * mean), MAX_BITMAP_BITS);
        }
        assert_eq!(MAX_BITMAP_BITS, 2048);
    }

    #[test]
    fn lengths_come_from_offsets() {
        let mut pool = TokenPool::new();
        pool.push(&[1, 2, 3]);
        pool.push(&[]);
        pool.push(&[9]);
        assert_eq!(pool.lengths().collect::<Vec<_>>(), vec![3, 0, 1]);
        assert_eq!(TokenPool::new().lengths().count(), 0);
        // Matches the resolved-slice lengths, record for record.
        let via_iter: Vec<usize> = pool.iter().map(<[u32]>::len).collect();
        assert_eq!(pool.lengths().collect::<Vec<_>>(), via_iter);
    }

    #[test]
    fn iter_visits_records_in_order() {
        let mut pool = TokenPool::new();
        pool.push(&[1]);
        pool.push(&[2, 3]);
        let all: Vec<Vec<u32>> = pool.iter().map(|s| s.to_vec()).collect();
        assert_eq!(all, vec![vec![1], vec![2, 3]]);
    }

    #[test]
    fn pooled_record_byte_size_matches_owned_record() {
        let mut pool = TokenPool::new();
        let span = pool.push(&[1, 2]);
        let pr = PooledRecord { id: 0, span };
        let owned = Record::new(0, vec![1, 2]);
        assert_eq!(pr.byte_size(), owned.byte_size());
        assert_eq!(pr.byte_size(), 4 + 4 + 8);
    }
}
