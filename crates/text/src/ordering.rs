//! The frequency-based global ordering (paper §III "Ordering", Definition 3).
//!
//! Tokens are ordered by ascending frequency, ties broken by raw id, and the
//! position in that order becomes the token's rank. The paper computes the
//! ordering with one MapReduce job (citing RIDPairsPPJoin's ordering stage);
//! [`compute_ordering_mr`] does the same on our engine, and
//! [`compute_ordering_local`] is the single-machine reference both are
//! tested against.
//!
//! Frequency here is *document* frequency: records are token sets, so a
//! token counts once per record containing it.

use crate::corpus::RawCorpus;
use crate::encode::Interned;
use ssj_common::FxHashMap;
use ssj_mapreduce::{
    Dataset, Emitter, GroupValues, HashPartitioner, JobMetrics, Mapper, Plan, PlanRunner,
    StreamingReducer, SumCombiner,
};

/// How to totally order the token domain (Definition 3). The paper fixes
/// ascending frequency (rare first) — the choice that makes prefixes
/// maximally selective; the alternatives exist for the ordering ablation
/// (`expt`'s extension experiments) and for related work that explores
/// other orderings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderingKind {
    /// Ascending frequency, ties by raw id (the paper's choice).
    #[default]
    AscendingFrequency,
    /// Descending frequency — adversarial for prefix filtering: prefixes
    /// become the most common tokens.
    DescendingFrequency,
    /// Raw-id (≈ lexicographic for interned text) — frequency-oblivious.
    Lexicographic,
}

impl OrderingKind {
    /// Short name for experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            OrderingKind::AscendingFrequency => "freq-asc",
            OrderingKind::DescendingFrequency => "freq-desc",
            OrderingKind::Lexicographic => "lexicographic",
        }
    }

    /// All kinds, paper's default first.
    pub fn all() -> [OrderingKind; 3] {
        [
            OrderingKind::AscendingFrequency,
            OrderingKind::DescendingFrequency,
            OrderingKind::Lexicographic,
        ]
    }

    /// Sort tokens into this kind's order, given each one's frequency and
    /// raw id. Ties break by raw id in every kind, so distinct raw ids give
    /// one total order whatever the sort algorithm.
    pub(crate) fn sort<T>(
        self,
        tokens: &mut [T],
        freq: impl Fn(&T) -> u64,
        raw: impl Fn(&T) -> u64,
    ) {
        match self {
            OrderingKind::AscendingFrequency => tokens.sort_unstable_by_key(|t| (freq(t), raw(t))),
            OrderingKind::DescendingFrequency => {
                tokens.sort_unstable_by_key(|t| (std::cmp::Reverse(freq(t)), raw(t)))
            }
            OrderingKind::Lexicographic => tokens.sort_unstable_by_key(raw),
        }
    }
}

/// The global ordering: a bijection raw id ↔ rank plus the rank-indexed
/// frequency table.
#[derive(Debug, Clone, Default)]
pub struct GlobalOrdering {
    /// raw id → rank.
    rank_of: FxHashMap<u64, u32>,
    /// rank → raw id (ascending frequency).
    raw_of: Vec<u64>,
    /// rank → frequency (non-decreasing for the default kind).
    freqs: Vec<u64>,
}

impl GlobalOrdering {
    /// Build from `(raw id, frequency)` pairs with the paper's ordering.
    pub fn from_freqs(pairs: Vec<(u64, u64)>) -> Self {
        Self::from_freqs_with(pairs, OrderingKind::AscendingFrequency)
    }

    /// Build from `(raw id, frequency)` pairs with an explicit ordering.
    pub fn from_freqs_with(pairs: Vec<(u64, u64)>, kind: OrderingKind) -> Self {
        let mut pairs = pairs;
        kind.sort(&mut pairs, |p| p.1, |p| p.0);
        let (raw_of, freqs) = pairs.into_iter().unzip();
        Self::from_ranked(raw_of, freqs)
    }

    /// Build from rank-indexed raw ids and frequencies.
    ///
    /// # Panics
    /// Panics when a raw id appears twice.
    fn from_ranked(raw_of: Vec<u64>, freqs: Vec<u64>) -> Self {
        let mut rank_of = FxHashMap::default();
        rank_of.reserve(raw_of.len());
        for (rank, &raw) in raw_of.iter().enumerate() {
            let prev = rank_of.insert(raw, rank as u32);
            assert!(prev.is_none(), "duplicate raw token id {raw}");
        }
        GlobalOrdering {
            rank_of,
            raw_of,
            freqs,
        }
    }

    /// Rank of a raw token id, if the token was seen.
    #[inline]
    pub fn rank(&self, raw: u64) -> Option<u32> {
        self.rank_of.get(&raw).copied()
    }

    /// Raw id at a rank.
    #[inline]
    pub fn raw(&self, rank: u32) -> u64 {
        self.raw_of[rank as usize]
    }

    /// Frequency of the token at a rank.
    #[inline]
    pub fn freq(&self, rank: u32) -> u64 {
        self.freqs[rank as usize]
    }

    /// Rank-indexed frequency table (ascending).
    pub fn freqs(&self) -> &[u64] {
        &self.freqs
    }

    /// Number of distinct tokens.
    pub fn universe(&self) -> usize {
        self.raw_of.len()
    }
}

/// Count document frequencies locally and build the ordering: the
/// encoder's intern and rank passes ([`crate::encode`](mod@crate::encode)).
pub fn compute_ordering_local(corpus: &RawCorpus) -> GlobalOrdering {
    let ranking = Interned::corpus(corpus).rank(OrderingKind::AscendingFrequency);
    GlobalOrdering::from_ranked(ranking.raw_of, ranking.freqs)
}

/// Mapper of the ordering job: emits `(raw token, 1)` once per distinct
/// token of each document (set semantics).
struct FreqMapper;

impl Mapper for FreqMapper {
    type InKey = u32;
    type InValue = Vec<u64>;
    type OutKey = u64;
    type OutValue = u64;

    fn map(&mut self, _id: u32, mut doc: Vec<u64>, out: &mut Emitter<u64, u64>) {
        doc.sort_unstable();
        doc.dedup();
        for t in doc {
            out.emit(t, 1);
        }
    }
}

/// Reducer of the ordering job: sums per-token counts.
struct FreqReducer;

impl StreamingReducer for FreqReducer {
    type InKey = u64;
    type InValue = u64;
    type OutKey = u64;
    type OutValue = u64;

    fn reduce_group(
        &mut self,
        token: &u64,
        counts: &mut GroupValues<'_, '_, u64, u64>,
        out: &mut Emitter<u64, u64>,
    ) {
        out.emit(*token, counts.sum());
    }
}

/// Compute the ordering with one MapReduce job (map: token→1 with a sum
/// combiner; reduce: sum), then sort the frequency table on the driver —
/// exactly the paper's ordering phase.
pub fn compute_ordering_mr(
    corpus: &RawCorpus,
    map_tasks: usize,
    reduce_tasks: usize,
) -> (GlobalOrdering, JobMetrics) {
    let input: Dataset<u32, Vec<u64>> = Dataset::from_records(
        corpus
            .docs
            .iter()
            .enumerate()
            .map(|(i, d)| (i as u32, d.clone()))
            .collect(),
        map_tasks.max(1),
    );
    let mut plan = Plan::new("ordering");
    let freqs = plan.add_full(
        "ordering",
        input,
        reduce_tasks.max(1),
        |_| FreqMapper,
        |_| FreqReducer,
        HashPartitioner,
        Some(SumCombiner),
    );
    let mut outcome = PlanRunner::pipelined().run(plan);
    let freq_data = outcome.take_output(freqs);
    let metrics = outcome.metrics.jobs.remove(0);
    let ordering = GlobalOrdering::from_freqs(freq_data.into_records().collect());
    (ordering, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::Tokenizer;

    fn corpus() -> RawCorpus {
        RawCorpus::from_texts(
            &["common rare", "common mid", "common mid x", "common"],
            &Tokenizer::Words,
        )
    }

    #[test]
    fn local_ordering_sorts_by_ascending_frequency() {
        let o = compute_ordering_local(&corpus());
        assert_eq!(o.universe(), 4);
        // freqs by rank non-decreasing
        let f = o.freqs();
        assert!(f.windows(2).all(|w| w[0] <= w[1]));
        // "common" (freq 4) must be the last rank.
        let common_raw = 0u64; // first interned token
        assert_eq!(o.rank(common_raw), Some(3));
        assert_eq!(o.freq(3), 4);
    }

    #[test]
    fn duplicates_within_doc_count_once() {
        let c = RawCorpus::from_texts(&["a a a", "a"], &Tokenizer::Words);
        let o = compute_ordering_local(&c);
        assert_eq!(o.freq(0), 2);
    }

    #[test]
    fn mr_matches_local() {
        let c = corpus();
        let local = compute_ordering_local(&c);
        let (mr, metrics) = compute_ordering_mr(&c, 2, 3);
        assert_eq!(local.universe(), mr.universe());
        for rank in 0..local.universe() as u32 {
            assert_eq!(local.raw(rank), mr.raw(rank));
            assert_eq!(local.freq(rank), mr.freq(rank));
        }
        assert!(metrics.shuffle_records > 0);
    }

    #[test]
    fn rank_raw_round_trip() {
        let o = compute_ordering_local(&corpus());
        for rank in 0..o.universe() as u32 {
            assert_eq!(o.rank(o.raw(rank)), Some(rank));
        }
        assert_eq!(o.rank(999_999), None);
    }

    #[test]
    fn ordering_kinds_differ_as_specified() {
        let pairs = vec![(10u64, 5u64), (20, 1), (30, 3)];
        let asc = GlobalOrdering::from_freqs_with(pairs.clone(), OrderingKind::AscendingFrequency);
        assert_eq!((asc.raw(0), asc.raw(1), asc.raw(2)), (20, 30, 10));
        let desc =
            GlobalOrdering::from_freqs_with(pairs.clone(), OrderingKind::DescendingFrequency);
        assert_eq!((desc.raw(0), desc.raw(1), desc.raw(2)), (10, 30, 20));
        let lex = GlobalOrdering::from_freqs_with(pairs, OrderingKind::Lexicographic);
        assert_eq!((lex.raw(0), lex.raw(1), lex.raw(2)), (10, 20, 30));
        assert_eq!(
            OrderingKind::all().map(|k| k.name()),
            ["freq-asc", "freq-desc", "lexicographic"]
        );
    }

    #[test]
    fn tie_break_is_deterministic() {
        // Two tokens with equal frequency: lower raw id gets lower rank.
        let o = GlobalOrdering::from_freqs(vec![(7, 3), (2, 3), (5, 1)]);
        assert_eq!(o.rank(5), Some(0));
        assert_eq!(o.rank(2), Some(1));
        assert_eq!(o.rank(7), Some(2));
    }

    #[test]
    #[should_panic(expected = "duplicate raw token id")]
    fn duplicate_raw_ids_rejected() {
        let _ = GlobalOrdering::from_freqs(vec![(1, 2), (1, 3)]);
    }
}
