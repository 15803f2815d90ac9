//! The mutable side of the serving index.
//!
//! Inserts land here: tokens are appended to a private [`TokenPool`]
//! (validated CSR push, see `TokenPool::append`) and the record's
//! `theta_min` prefix is indexed into small per-token posting blocks kept
//! in a hash map. Each block stays `(len, rec)`-ordered — a new posting is
//! inserted at its rank, not appended — so the probe's length window is a
//! range on delta blocks exactly as on main ones. Probes scan the delta
//! block for each probe-prefix token right after the sealed main block, so
//! fresh records are visible immediately. Compaction takes the blocks in
//! token order ([`DeltaIndex::take_blocks`]), merges each into its main
//! block and clears the rest.
//!
//! Record ids continue the main arena's dense numbering: a delta record's
//! public id is `base + local`, where `base` is the main pool's length at
//! insert time and `local` its slot in the delta pool. Compaction
//! concatenates the pools, so public ids are stable across compactions.

use ssj_common::FxHashMap;
use ssj_similarity::Measure;
use ssj_text::{MalformedRecord, RecordId, TokenId, TokenPool};

use crate::posting::{LengthCounts, Posting, PostingBlock};

/// Mutable delta index: private token pool + per-token prefix postings.
/// The pool's bitmaps are as wide as the main pool's, so a probe compares
/// a query bitmap with main and delta records alike and compaction can
/// concatenate the two pools.
#[derive(Debug)]
pub(crate) struct DeltaIndex {
    pool: TokenPool,
    postings: FxHashMap<TokenId, PostingBlock>,
    /// Delta records per length — the delta half of the prefix-filter
    /// pruning-power accounting.
    lens: LengthCounts,
    /// Total postings across all blocks.
    posting_count: usize,
}

impl DeltaIndex {
    /// An empty delta whose bitmaps are `bitmap_bits` wide: the main
    /// pool's width.
    pub(crate) fn new(bitmap_bits: usize) -> Self {
        DeltaIndex {
            pool: TokenPool::with_capacity(0, 0, bitmap_bits),
            postings: FxHashMap::default(),
            lens: LengthCounts::default(),
            posting_count: 0,
        }
    }

    /// Number of delta records.
    pub(crate) fn len(&self) -> usize {
        self.pool.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pool.len() == 0
    }

    /// Total postings held.
    pub(crate) fn posting_count(&self) -> usize {
        self.posting_count
    }

    /// The delta token pool (compaction concatenates it onto the main
    /// arena).
    pub(crate) fn pool(&self) -> &TokenPool {
        &self.pool
    }

    /// Tokens of delta-local record `local`.
    pub(crate) fn tokens_of(&self, local: RecordId) -> &[TokenId] {
        self.pool.tokens_of(local)
    }

    /// Delta records per length.
    pub(crate) fn lengths(&self) -> &LengthCounts {
        &self.lens
    }

    /// Posting block for token `t`, if any delta record's indexed prefix
    /// contains it.
    pub(crate) fn postings_of(&self, t: TokenId) -> Option<&PostingBlock> {
        self.postings.get(&t)
    }

    /// Validate and index one record. `base` is the main arena's record
    /// count: the returned public id is `base + local`, and errors are
    /// remapped to the public id space too.
    pub(crate) fn insert(
        &mut self,
        tokens: &[TokenId],
        base: RecordId,
        measure: Measure,
        theta_min: f64,
    ) -> Result<RecordId, MalformedRecord> {
        let (local, _span) = self.pool.append(tokens).map_err(|e| MalformedRecord {
            id: base + e.id,
            position: e.position,
        })?;
        let rid = base + local;
        let len = tokens.len() as u32;
        let prefix = measure.probe_prefix_len(theta_min, tokens.len());
        for (pos, &t) in tokens[..prefix].iter().enumerate() {
            self.postings.entry(t).or_default().insert(Posting {
                rec: rid,
                pos: pos as u32,
                len,
            });
        }
        self.posting_count += prefix;
        self.lens.add(tokens.len());
        Ok(rid)
    }

    /// Move every block out, token-ascending — compaction's delta side.
    /// The pool stays until [`DeltaIndex::clear`].
    pub(crate) fn take_blocks(&mut self) -> Vec<(TokenId, PostingBlock)> {
        let mut blocks: Vec<(TokenId, PostingBlock)> =
            std::mem::take(&mut self.postings).into_iter().collect();
        blocks.sort_unstable_by_key(|&(t, _)| t);
        blocks
    }

    /// Drop everything (post-compaction); the width stays.
    pub(crate) fn clear(&mut self) {
        *self = DeltaIndex::new(self.pool.bitmap_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_indexes_theta_min_prefix_and_remaps_ids() {
        let mut d = DeltaIndex::new(128);
        // |x| = 4, θ_min = 0.5 Jaccard ⇒ probe prefix = 4 - ceil(0.5·4) + 1 = 3.
        let rid = d
            .insert(&[5, 7, 9, 11], 100, Measure::Jaccard, 0.5)
            .unwrap();
        assert_eq!(rid, 100);
        assert_eq!(d.len(), 1);
        assert_eq!(d.tokens_of(0), &[5, 7, 9, 11]);
        assert_eq!((d.lengths().count(4, 4), d.lengths().count(0, 3)), (1, 0));
        let prefix = Measure::Jaccard.probe_prefix_len(0.5, 4);
        assert_eq!(d.posting_count(), prefix);
        let p = d.postings_of(5).unwrap().get(0);
        assert_eq!((p.rec, p.pos, p.len), (100, 0, 4));
        assert!(d.postings_of(11).is_none(), "suffix tokens are not indexed");
    }

    #[test]
    fn insert_error_carries_public_id_and_leaves_state_clean() {
        let mut d = DeltaIndex::new(128);
        let err = d.insert(&[3, 3], 42, Measure::Jaccard, 0.8).unwrap_err();
        assert_eq!((err.id, err.position), (42, 1));
        assert!(d.is_empty());
        assert_eq!(d.posting_count(), 0);
        assert_eq!(d.lengths().count(0, u32::MAX), 0);
        assert!(d.take_blocks().is_empty());
    }

    #[test]
    fn out_of_length_order_inserts_stay_len_rec_ordered() {
        let mut d = DeltaIndex::new(128);
        // Token 1 leads every record; lengths arrive 4, 2, 6, 2, 3.
        for (local, len) in [4u32, 2, 6, 2, 3].into_iter().enumerate() {
            let tokens: Vec<TokenId> = (1..=len).collect();
            let rid = d.insert(&tokens, 10, Measure::Jaccard, 0.5).unwrap();
            assert_eq!(rid, 10 + local as RecordId);
        }
        let block = d.postings_of(1).unwrap();
        assert!(block.is_ordered());
        let rows: Vec<(u32, RecordId)> = block.iter().map(|p| (p.len, p.rec)).collect();
        assert_eq!(rows, vec![(2, 11), (2, 13), (3, 14), (4, 10), (6, 12)]);
        let blocks = d.take_blocks();
        assert!(blocks.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(blocks.iter().all(|(_, b)| b.is_ordered()));
        assert_eq!(
            blocks.iter().map(|(_, b)| b.len()).sum::<usize>(),
            d.posting_count()
        );
    }
}
