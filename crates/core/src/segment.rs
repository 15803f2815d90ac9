//! The unit of FS-Join's shuffle: a record segment with its metadata.

use ssj_common::ByteSize;
use ssj_text::{TokenId, TokenPool, TokenSpan};

/// One vertical segment of a record, as emitted by the map phase
/// (paper §V-A: each segment travels with `|s|`, `|s^h|`, `|s^e|` so the
/// reduce-side filters can run without seeing the rest of the record).
///
/// Since the columnar refactor a segment does not own its tokens: it
/// carries a [`TokenSpan`] into the collection's shared [`TokenPool`]
/// (distributed as read-only job side data), which makes segments `Copy` —
/// map-side vertical partitioning allocates nothing per segment. The
/// *logical* serialized size still includes the tokens (see
/// [`ByteSize`] impl below): on a real cluster the span would be
/// materialized on the wire, so shuffle accounting is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Record id.
    pub rid: u32,
    /// Full record length `|s|`.
    pub len: u32,
    /// Tokens before this segment, `|s^h|`.
    pub head: u32,
    /// Tokens after this segment, `|s^e|`.
    pub tail: u32,
    /// The segment's tokens (ascending ranks), as a span into the
    /// collection's token pool.
    pub span: TokenSpan,
}

impl Segment {
    /// Number of tokens in the segment.
    #[inline]
    pub fn seg_len(&self) -> usize {
        self.span.len as usize
    }

    /// The segment's tokens, resolved against the collection pool.
    #[inline]
    pub fn tokens<'p>(&self, pool: &'p TokenPool) -> &'p [TokenId] {
        pool.resolve(self.span)
    }

    /// Internal consistency: head + segment + tail must equal the record.
    pub fn is_consistent(&self) -> bool {
        self.head as usize + self.seg_len() + self.tail as usize == self.len as usize
    }
}

impl ByteSize for Segment {
    fn byte_size(&self) -> usize {
        // Logical serialized size: rid + len + head + tail + tokens
        // (length prefix + 4 bytes each), as if the span were materialized.
        4 + 4 + 4 + 4 + (4 + 4 * self.span.len as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistency_check() {
        let mut pool = TokenPool::new();
        let span = pool.push(&[4, 5]);
        let s = Segment {
            rid: 1,
            len: 10,
            head: 3,
            tail: 5,
            span,
        };
        assert!(s.is_consistent());
        assert_eq!(s.seg_len(), 2);
        assert_eq!(s.tokens(&pool), &[4, 5]);
        let bad = Segment { tail: 6, ..s };
        assert!(!bad.is_consistent());
    }

    #[test]
    fn byte_size_accounts_metadata_and_tokens() {
        let mut pool = TokenPool::new();
        let span = pool.push(&[1, 2]);
        let s = Segment {
            rid: 1,
            len: 2,
            head: 0,
            tail: 0,
            span,
        };
        assert_eq!(s.byte_size(), 16 + 4 + 8);
    }
}
