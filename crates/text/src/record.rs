//! Encoded records and collections.
//!
//! Since the columnar refactor, a [`Collection`] no longer owns one heap
//! vector per record: all tokens live in a single [`TokenPool`] arena and
//! records are addressed through [`RecordView`]s / spans (see
//! [`crate::pool`] and DESIGN.md "Data layout"). The owned [`Record`] type
//! remains the ingestion and interchange representation — baselines that
//! *deliberately* shuffle whole records (RIDPairsPPJoin, MassJoin) still
//! ship `Record`s, because their duplication is the phenomenon under
//! measurement.

use crate::pool::{TokenPool, TokenSpan};
use ssj_common::ByteSize;
use std::sync::Arc;

/// Identifier of a record within its collection.
pub type RecordId = u32;

/// A token id in global-order rank space: `0` is the globally rarest token.
pub type TokenId = u32;

/// Error for token lists that violate the strictly-ascending invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MalformedRecord {
    /// Id of the offending record.
    pub id: RecordId,
    /// Index of the first token that is not greater than its predecessor.
    pub position: usize,
}

impl std::fmt::Display for MalformedRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "record {}: tokens must be strictly ascending, violated at index {}",
            self.id, self.position
        )
    }
}

impl std::error::Error for MalformedRecord {}

/// A record: a *set* of tokens, stored as a strictly ascending vector of
/// global-order ranks. The ascending-rank invariant is what every
/// prefix-filter and merge-intersection in the workspace relies on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Record {
    /// Record id, unique within its collection.
    pub id: RecordId,
    /// Strictly ascending token ranks.
    pub tokens: Vec<TokenId>,
}

impl Record {
    /// Build a record from an arbitrary token list: sorts and deduplicates.
    pub fn new(id: RecordId, mut tokens: Vec<TokenId>) -> Self {
        tokens.sort_unstable();
        tokens.dedup();
        Record { id, tokens }
    }

    /// Build from tokens that must already be strictly ascending; returns
    /// [`MalformedRecord`] (with the first offending index) otherwise.
    ///
    /// This is the checked entry point for *external* ingestion — data
    /// whose sortedness is claimed rather than established in-process. A
    /// record with out-of-order tokens silently corrupts every prefix
    /// filter and merge intersection downstream, so external paths must
    /// fail loudly here, in release builds too.
    pub fn try_from_sorted(id: RecordId, tokens: Vec<TokenId>) -> Result<Self, MalformedRecord> {
        match check_ascending(&tokens) {
            Some(position) => Err(MalformedRecord { id, position }),
            None => Ok(Record { id, tokens }),
        }
    }

    /// Build from tokens already strictly ascending (checked in debug
    /// builds only — for *trusted* in-process data; external input goes
    /// through [`Record::try_from_sorted`]).
    pub fn from_sorted(id: RecordId, tokens: Vec<TokenId>) -> Self {
        debug_assert!(
            check_ascending(&tokens).is_none(),
            "tokens must be strictly ascending"
        );
        Record { id, tokens }
    }

    /// Number of tokens (the paper's `|s|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when the record has no tokens.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Borrowed view of this record.
    #[inline]
    pub fn view(&self) -> RecordView<'_> {
        RecordView {
            id: self.id,
            tokens: &self.tokens,
        }
    }
}

/// First index violating strict ascent, if any.
pub(crate) fn check_ascending(tokens: &[TokenId]) -> Option<usize> {
    tokens.windows(2).position(|w| w[0] >= w[1]).map(|i| i + 1)
}

impl ByteSize for Record {
    fn byte_size(&self) -> usize {
        4 + self.tokens.byte_size()
    }
}

/// A borrowed record: id plus a token slice (usually resolved from a
/// [`TokenPool`]). `Copy` — the currency of the in-memory kernels since
/// the columnar refactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordView<'a> {
    /// Record id.
    pub id: RecordId,
    /// Strictly ascending token ranks.
    pub tokens: &'a [TokenId],
}

impl RecordView<'_> {
    /// Number of tokens.
    #[inline]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when the record has no tokens.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Materialize an owned [`Record`] (copies the tokens).
    pub fn to_record(&self) -> Record {
        Record {
            id: self.id,
            tokens: self.tokens.to_vec(),
        }
    }
}

/// Anything that exposes a record as `(id, sorted token slice)` — owned
/// [`Record`]s and borrowed [`RecordView`]s alike. The in-memory joins
/// (naive, PPJoin…) are generic over this, so pooled collections
/// join without materializing owned vectors while shuffled `Record` groups
/// keep working unchanged.
pub trait TokenSet {
    /// Record id.
    fn id(&self) -> RecordId;
    /// Strictly ascending token ranks.
    fn tokens(&self) -> &[TokenId];

    /// Number of tokens.
    #[inline]
    fn size(&self) -> usize {
        self.tokens().len()
    }
}

impl TokenSet for Record {
    #[inline]
    fn id(&self) -> RecordId {
        self.id
    }
    #[inline]
    fn tokens(&self) -> &[TokenId] {
        &self.tokens
    }
}

impl TokenSet for RecordView<'_> {
    #[inline]
    fn id(&self) -> RecordId {
        self.id
    }
    #[inline]
    fn tokens(&self) -> &[TokenId] {
        self.tokens
    }
}

impl<T: TokenSet> TokenSet for &T {
    #[inline]
    fn id(&self) -> RecordId {
        (*self).id()
    }
    #[inline]
    fn tokens(&self) -> &[TokenId] {
        (*self).tokens()
    }
}

/// An encoded collection: columnar token storage plus the global-ordering
/// frequency table. Record ids are dense `0..len()` and double as pool
/// indices; the pool is behind an `Arc` so drivers can share it with every
/// map/reduce task as read-only side data (Hadoop distributed-cache style)
/// without copying a single token.
#[derive(Debug, Clone, Default)]
pub struct Collection {
    /// All records' tokens, in id order.
    pool: Arc<TokenPool>,
    /// Frequency of each token, indexed by rank (ascending order ⇒
    /// `token_freqs` is non-decreasing).
    pub token_freqs: Vec<u64>,
    /// Optional rank → surface-form mapping for reporting (None for
    /// synthetic corpora).
    pub vocab: Option<Vec<String>>,
}

impl Collection {
    /// Build from owned records. Ids must be dense `0..n` and tokens
    /// strictly ascending — checked here, as [`TokenPool::append`] checks
    /// the encoder's records, so malformed input fails with a
    /// [`MalformedRecord`] message instead of corrupting filters downstream
    /// (release builds included).
    ///
    /// # Panics
    /// Panics on non-dense ids or non-ascending tokens.
    pub fn new(records: Vec<Record>, token_freqs: Vec<u64>, vocab: Option<Vec<String>>) -> Self {
        let total: usize = records.iter().map(Record::len).sum();
        let mut pool = TokenPool::with_capacity(records.len(), total);
        for (i, r) in records.into_iter().enumerate() {
            assert_eq!(r.id as usize, i, "collection record ids must be dense 0..n");
            let checked = Record::try_from_sorted(r.id, r.tokens)
                .unwrap_or_else(|e| panic!("collection ingest: {e}"));
            pool.push(&checked.tokens);
        }
        Collection {
            pool: Arc::new(pool),
            token_freqs,
            vocab,
        }
    }

    /// Build directly from a pool (records already columnar).
    pub fn from_pool(
        pool: Arc<TokenPool>,
        token_freqs: Vec<u64>,
        vocab: Option<Vec<String>>,
    ) -> Self {
        Collection {
            pool,
            token_freqs,
            vocab,
        }
    }

    /// The columnar token storage.
    #[inline]
    pub fn pool(&self) -> &TokenPool {
        &self.pool
    }

    /// Share the pool (cheap `Arc` clone) — the handle drivers register as
    /// job side data.
    #[inline]
    pub fn share_pool(&self) -> Arc<TokenPool> {
        Arc::clone(&self.pool)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True when there are no records.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Tokens of record `rid`.
    #[inline]
    pub fn tokens(&self, rid: RecordId) -> &[TokenId] {
        self.pool.tokens_of(rid)
    }

    /// Borrowed view of record `rid`.
    #[inline]
    pub fn view(&self, rid: RecordId) -> RecordView<'_> {
        RecordView {
            id: rid,
            tokens: self.pool.tokens_of(rid),
        }
    }

    /// Span of record `rid` in the pool.
    #[inline]
    pub fn span(&self, rid: RecordId) -> TokenSpan {
        self.pool.span_of(rid)
    }

    /// Iterate over all records as views, in id order.
    pub fn iter(&self) -> impl Iterator<Item = RecordView<'_>> {
        (0..self.len() as RecordId).map(move |rid| self.view(rid))
    }

    /// All records as views (cheap handles; no token copies).
    pub fn views(&self) -> Vec<RecordView<'_>> {
        self.iter().collect()
    }

    /// Materialize record `rid` as an owned [`Record`] (copies tokens).
    pub fn record(&self, rid: RecordId) -> Record {
        self.view(rid).to_record()
    }

    /// Materialize all records as owned [`Record`]s — for consumers whose
    /// semantics *require* owned per-record vectors (record-shuffling
    /// baselines, benchmarks of the owned layout).
    pub fn to_records(&self) -> Vec<Record> {
        self.iter().map(|v| v.to_record()).collect()
    }

    /// Number of distinct tokens (the token-domain size `|U|`).
    pub fn universe(&self) -> usize {
        self.token_freqs.len()
    }

    /// Total token occurrences (with set semantics: Σ|sᵢ|). O(1) on the
    /// columnar layout.
    pub fn total_tokens(&self) -> u64 {
        self.pool.total_tokens() as u64
    }

    /// Dataset statistics, as reported in the paper's Table III.
    pub fn stats(&self) -> CorpusStats {
        let lens: Vec<usize> = self.lengths();
        let min = lens.iter().copied().min().unwrap_or(0);
        let max = lens.iter().copied().max().unwrap_or(0);
        let avg = if lens.is_empty() {
            0.0
        } else {
            lens.iter().sum::<usize>() as f64 / lens.len() as f64
        };
        CorpusStats {
            records: self.len(),
            universe: self.universe(),
            min_len: min,
            max_len: max,
            avg_len: avg,
        }
    }

    /// Random sample of a fraction of records (the paper's 4X/6X/8X/10X
    /// scales are "extracted ... randomly"). Record ids are re-densified;
    /// the frequency table is kept (the ordering of the full corpus is a
    /// valid — if slightly stale — global ordering for any subset).
    pub fn sample(&self, fraction: f64, seed: u64) -> Collection {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        // Deterministic hash-based sampling: keep record i iff
        // hash(seed, i) < fraction * 2^64. Avoids an RNG dependency here.
        let threshold = (fraction * u64::MAX as f64) as u64;
        let mut pool = TokenPool::new();
        for v in self.iter() {
            let h = ssj_common::hash::fx_hash_one(&(seed, v.id));
            if h <= threshold {
                pool.push(v.tokens);
            }
        }
        Collection {
            pool: Arc::new(pool),
            token_freqs: self.token_freqs.clone(),
            vocab: self.vocab.clone(),
        }
    }

    /// All record lengths (for length histograms / horizontal pivots).
    pub fn lengths(&self) -> Vec<usize> {
        self.pool.iter().map(<[TokenId]>::len).collect()
    }
}

/// Summary statistics of a collection (paper Table III columns).
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusStats {
    /// Number of records.
    pub records: usize,
    /// Distinct tokens.
    pub universe: usize,
    /// Minimum record length.
    pub min_len: usize,
    /// Maximum record length.
    pub max_len: usize,
    /// Mean record length.
    pub avg_len: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_dedups() {
        let r = Record::new(0, vec![5, 1, 3, 1, 5]);
        assert_eq!(r.tokens, vec![1, 3, 5]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn byte_size_counts_id_and_tokens() {
        let r = Record::new(0, vec![1, 2]);
        assert_eq!(r.byte_size(), 4 + 4 + 8);
    }

    #[test]
    fn try_from_sorted_accepts_ascending() {
        let r = Record::try_from_sorted(3, vec![1, 5, 9]).unwrap();
        assert_eq!(r.tokens, vec![1, 5, 9]);
        assert!(Record::try_from_sorted(0, vec![]).is_ok());
        assert!(Record::try_from_sorted(0, vec![7]).is_ok());
    }

    #[test]
    fn try_from_sorted_rejects_disorder_and_duplicates() {
        let err = Record::try_from_sorted(7, vec![1, 3, 2]).unwrap_err();
        assert_eq!(err, MalformedRecord { id: 7, position: 2 });
        assert!(err.to_string().contains("record 7"));
        assert!(err.to_string().contains("index 2"));
        // Duplicates violate *strict* ascent (records are sets).
        let err = Record::try_from_sorted(1, vec![4, 4]).unwrap_err();
        assert_eq!(err.position, 1);
    }

    #[test]
    fn views_expose_ids_and_tokens() {
        let r = Record::new(2, vec![8, 3]);
        let v = r.view();
        assert_eq!(v.id, 2);
        assert_eq!(v.tokens, &[3, 8]);
        assert_eq!(v.len(), 2);
        assert_eq!(v.to_record(), r);
        // TokenSet is implemented by both representations.
        fn first<T: TokenSet>(t: &T) -> Option<TokenId> {
            t.tokens().first().copied()
        }
        assert_eq!(first(&r), Some(3));
        assert_eq!(first(&v), Some(3));
    }

    fn collection() -> Collection {
        Collection::new(
            (0..100u32)
                .map(|i| Record::new(i, (0..=i % 10).collect()))
                .collect(),
            vec![10; 10],
            None,
        )
    }

    #[test]
    fn columnar_accessors_agree_with_records() {
        let c = collection();
        assert_eq!(c.len(), 100);
        assert_eq!(c.tokens(7), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(c.view(3).id, 3);
        assert_eq!(c.span(0).len(), 1);
        assert_eq!(c.record(5).tokens, c.tokens(5));
        assert_eq!(c.to_records().len(), 100);
        assert_eq!(c.total_tokens(), c.lengths().iter().sum::<usize>() as u64);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_ids_rejected() {
        let _ = Collection::new(vec![Record::new(5, vec![1])], vec![], None);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn malformed_ingest_rejected_in_release_too() {
        let bad = Record {
            id: 0,
            tokens: vec![3, 1],
        };
        let _ = Collection::new(vec![bad], vec![], None);
    }

    #[test]
    fn stats_reports_min_max_avg() {
        let s = collection().stats();
        assert_eq!(s.records, 100);
        assert_eq!(s.universe, 10);
        assert_eq!(s.min_len, 1);
        assert_eq!(s.max_len, 10);
        assert!((s.avg_len - 5.5).abs() < 1e-12);
    }

    #[test]
    fn sample_is_deterministic_and_roughly_fractional() {
        let c = collection();
        let a = c.sample(0.5, 42);
        let b = c.sample(0.5, 42);
        assert_eq!(a.pool(), b.pool());
        assert!(a.len() > 20 && a.len() < 80, "got {}", a.len());
        // Ids re-densified.
        for (i, v) in a.iter().enumerate() {
            assert_eq!(v.id as usize, i);
        }
    }

    #[test]
    fn sample_extremes() {
        let c = collection();
        assert_eq!(c.sample(0.0, 1).len(), 0);
        assert_eq!(c.sample(1.0, 1).len(), 100);
    }

    #[test]
    fn empty_collection_stats() {
        let c = Collection::default();
        let s = c.stats();
        assert_eq!(s.records, 0);
        assert_eq!(s.avg_len, 0.0);
    }
}
