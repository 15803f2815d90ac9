//! Re-encoding raw corpora into global-order rank space.
//!
//! Every entry point runs one encoder core over the raw documents in
//! place — no corpus clone, no per-record vector — in three passes:
//!
//! 1. **intern** — one hash probe per token gives it a dense id; a
//!    per-dense-id stamp drops in-record duplicates without sorting,
//!    counts document frequency, and the surviving dense ids go into one
//!    flat CSR buffer;
//! 2. **rank** — the dense ids are sorted by the [`OrderingKind`]'s key,
//!    giving a dense → rank array and the rank-indexed frequency table;
//! 3. **emit** — each record's dense ids are mapped to ranks and sorted in
//!    place in the flat buffer, then appended to a [`TokenPool`] sized
//!    exactly from it.

use crate::corpus::RawCorpus;
use crate::ordering::{compute_ordering_mr, GlobalOrdering, OrderingKind};
use crate::pool::{bitmap_bits_for, TokenPool};
use crate::record::Collection;
use ssj_common::FxHashMap;
use ssj_mapreduce::JobMetrics;
use std::ops::Range;
use std::sync::Arc;

/// The intern pass's output: every record as a run of dense token ids in
/// one flat buffer, plus the per-dense-id raw id and document frequency.
pub(crate) struct Interned {
    /// Record `i`'s distinct dense ids (first-occurrence order) are
    /// `tokens[bounds[i]..bounds[i + 1]]`.
    tokens: Vec<u32>,
    bounds: Vec<usize>,
    /// Dense id → raw id.
    raw_of: Vec<u64>,
    /// Dense id → document frequency.
    df: Vec<u64>,
    /// Raw id → dense id.
    dense: FxHashMap<u64, u32>,
    /// Dense id → 1 + the last record that contained it (0: none yet).
    stamp: Vec<u32>,
}

/// The rank pass's output.
pub(crate) struct Ranking {
    /// Dense id → rank.
    rank_of: Vec<u32>,
    /// Rank → raw id.
    pub(crate) raw_of: Vec<u64>,
    /// Rank → document frequency.
    pub(crate) freqs: Vec<u64>,
}

impl Ranking {
    /// The rank-indexed vocabulary of a raw-id-indexed one.
    fn vocab<S: AsRef<str>>(&self, by_raw: &[S]) -> Vec<String> {
        self.raw_of
            .iter()
            .map(|&raw| by_raw[raw as usize].as_ref().to_owned())
            .collect()
    }
}

impl Interned {
    /// Pass 1 over one corpus.
    pub(crate) fn corpus(corpus: &RawCorpus) -> Self {
        let distinct = corpus.vocab.as_ref().map_or(0, Vec::len);
        let mut interned = Self::with_capacity(&[&corpus.docs], distinct);
        interned.intern(&corpus.docs, |raw| raw);
        interned
    }

    /// Room for every record and token of `sides`, and `distinct` tokens
    /// (a hint; the tables grow past it).
    fn with_capacity(sides: &[&[Vec<u64>]], distinct: usize) -> Self {
        let records: usize = sides.iter().map(|docs| docs.len()).sum();
        let tokens: usize = sides
            .iter()
            .flat_map(|docs| docs.iter())
            .map(Vec::len)
            .sum();
        let mut bounds = Vec::with_capacity(records + 1);
        bounds.push(0);
        let mut dense = FxHashMap::default();
        dense.reserve(distinct);
        Interned {
            tokens: Vec::with_capacity(tokens),
            bounds,
            raw_of: Vec::with_capacity(distinct),
            df: Vec::with_capacity(distinct),
            dense,
            stamp: Vec::with_capacity(distinct),
        }
    }

    /// Intern `docs` as the next records, each raw id passed through
    /// `remap` first.
    fn intern(&mut self, docs: &[Vec<u64>], remap: impl Fn(u64) -> u64) {
        for doc in docs {
            let stamp = self.bounds.len() as u32;
            for &raw in doc {
                let raw = remap(raw);
                let d = *self.dense.entry(raw).or_insert_with(|| {
                    self.raw_of.push(raw);
                    self.df.push(0);
                    self.stamp.push(0);
                    (self.raw_of.len() - 1) as u32
                }) as usize;
                if self.stamp[d] != stamp {
                    self.stamp[d] = stamp;
                    self.df[d] += 1;
                    self.tokens.push(d as u32);
                }
            }
            self.bounds.push(self.tokens.len());
        }
    }

    /// Pass 2: rank the dense ids in `kind`'s order.
    pub(crate) fn rank(&self, kind: OrderingKind) -> Ranking {
        let mut order: Vec<u32> = (0..self.raw_of.len() as u32).collect();
        kind.sort(
            &mut order,
            |&d| self.df[d as usize],
            |&d| self.raw_of[d as usize],
        );
        let mut rank_of = vec![0; order.len()];
        for (rank, &d) in order.iter().enumerate() {
            rank_of[d as usize] = rank as u32;
        }
        Ranking {
            rank_of,
            raw_of: order.iter().map(|&d| self.raw_of[d as usize]).collect(),
            freqs: order.iter().map(|&d| self.df[d as usize]).collect(),
        }
    }

    /// Pass 3: the pool of `records`, each a strictly ascending rank set.
    /// Rewrites those records' runs of the flat buffer in place, so each
    /// record is emitted once. The bitmap width is [`bitmap_bits_for`] of
    /// the whole buffer, not of `records`: the pools of one encoding (R
    /// and S of [`encode_two`]) share one width.
    fn emit(&mut self, records: Range<usize>, rank_of: &[u32]) -> TokenPool {
        let bits = bitmap_bits_for(self.bounds.len() - 1, self.tokens.len());
        let bounds = &self.bounds[records.start..=records.end];
        let mut pool =
            TokenPool::with_capacity(records.len(), bounds[bounds.len() - 1] - bounds[0], bits);
        for w in bounds.windows(2) {
            let record = &mut self.tokens[w[0]..w[1]];
            for t in record.iter_mut() {
                *t = rank_of[*t as usize];
            }
            record.sort_unstable();
            pool.append(record)
                .unwrap_or_else(|e| panic!("encode: {e}"));
        }
        pool
    }
}

/// Encode a raw corpus using a locally computed global ordering.
pub fn encode(corpus: &RawCorpus) -> Collection {
    encode_with_kind(corpus, OrderingKind::AscendingFrequency)
}

/// Encode with an explicit ordering kind (ablation support; the default
/// ascending-frequency ordering is the paper's choice).
///
/// NOTE: non-default orderings break the `token_freqs`-is-ascending
/// invariant that Even-TF pivot selection exploits; the returned
/// collection is still valid for every join (only relative token order
/// changes), but fragments will no longer balance by construction.
pub fn encode_with_kind(corpus: &RawCorpus, kind: OrderingKind) -> Collection {
    let mut interned = Interned::corpus(corpus);
    let ranking = interned.rank(kind);
    let pool = interned.emit(0..corpus.len(), &ranking.rank_of);
    let vocab = corpus.vocab.as_ref().map(|v| ranking.vocab(v));
    Collection::from_pool(Arc::new(pool), ranking.freqs, vocab)
}

/// Encode a raw corpus, computing the ordering with a MapReduce job (the
/// paper's ordering phase); returns the job's metrics alongside.
pub fn encode_mr(
    corpus: &RawCorpus,
    map_tasks: usize,
    reduce_tasks: usize,
) -> (Collection, JobMetrics) {
    let (ordering, metrics) = compute_ordering_mr(corpus, map_tasks, reduce_tasks);
    (encode_with(corpus, &ordering), metrics)
}

/// Encode a raw corpus with a given ordering. Documents become token *sets*
/// sorted ascending by rank.
///
/// # Panics
/// Panics when a token of the corpus is missing from the ordering.
pub fn encode_with(corpus: &RawCorpus, ordering: &GlobalOrdering) -> Collection {
    let mut interned = Interned::corpus(corpus);
    let rank_of: Vec<u32> = interned
        .raw_of
        .iter()
        .map(|&raw| {
            ordering
                .rank(raw)
                .unwrap_or_else(|| panic!("token {raw} missing from ordering"))
        })
        .collect();
    let pool = interned.emit(0..corpus.len(), &rank_of);
    let vocab = corpus.vocab.as_ref().map(|v| {
        (0..ordering.universe() as u32)
            .map(|rank| v[ordering.raw(rank) as usize].clone())
            .collect()
    });
    Collection::from_pool(Arc::new(pool), ordering.freqs().to_vec(), vocab)
}

/// Encode two corpora into a **shared** token-rank space (required for R×S
/// joins: token comparisons are rank comparisons, so both sides must use
/// one global ordering computed over the union).
///
/// Both corpora must either carry vocabularies (text corpora — tokens are
/// unified by surface form) or carry none (synthetic corpora — raw ids are
/// assumed to already share a namespace).
///
/// # Panics
/// Panics when one corpus has a vocabulary and the other does not.
pub fn encode_two(r: &RawCorpus, s: &RawCorpus) -> (Collection, Collection) {
    let sides = [r.docs.as_slice(), s.docs.as_slice()];
    let (mut interned, forms) = match (&r.vocab, &s.vocab) {
        (Some(vr), Some(vs)) => {
            // S's raw ids are remapped into R's namespace, extending it
            // with S's new surface forms.
            let mut by_form: FxHashMap<&str, u64> = FxHashMap::default();
            by_form.reserve(vr.len());
            let mut forms: Vec<&str> = Vec::with_capacity(vr.len() + vs.len());
            for (i, t) in vr.iter().enumerate() {
                by_form.insert(t, i as u64);
                forms.push(t);
            }
            let s_map: Vec<u64> = vs
                .iter()
                .map(|t| {
                    *by_form.entry(t).or_insert_with(|| {
                        forms.push(t);
                        (forms.len() - 1) as u64
                    })
                })
                .collect();
            let mut interned = Interned::with_capacity(&sides, forms.len());
            interned.intern(&r.docs, |raw| raw);
            interned.intern(&s.docs, |raw| s_map[raw as usize]);
            (interned, Some(forms))
        }
        (None, None) => {
            let mut interned = Interned::with_capacity(&sides, 0);
            interned.intern(&r.docs, |raw| raw);
            interned.intern(&s.docs, |raw| raw);
            (interned, None)
        }
        _ => panic!("encode_two: corpora must both have or both lack vocabularies"),
    };
    let ranking = interned.rank(OrderingKind::AscendingFrequency);
    let (num_r, num_s) = (r.len(), s.len());
    let r_pool = interned.emit(0..num_r, &ranking.rank_of);
    let s_pool = interned.emit(num_r..num_r + num_s, &ranking.rank_of);
    let vocab = forms.map(|f| ranking.vocab(&f));
    let r_encoded = Collection::from_pool(Arc::new(r_pool), ranking.freqs.clone(), vocab.clone());
    let s_encoded = Collection::from_pool(Arc::new(s_pool), ranking.freqs, vocab);
    (r_encoded, s_encoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::Tokenizer;

    fn corpus() -> RawCorpus {
        RawCorpus::from_texts(
            &["common rare shared", "common shared", "common"],
            &Tokenizer::Words,
        )
    }

    #[test]
    fn records_are_ascending_rank_sets() {
        let c = encode(&corpus());
        assert_eq!(c.len(), 3);
        for v in c.iter() {
            assert!(v.tokens.windows(2).all(|w| w[0] < w[1]));
        }
        // Rarest token ("rare", freq 1) must have rank 0 and appear first
        // in record 0.
        assert_eq!(c.tokens(0)[0], 0);
        // Most frequent ("common", freq 3) is the last rank.
        assert_eq!(*c.tokens(2).first().unwrap(), 2);
    }

    #[test]
    fn vocab_is_rank_indexed() {
        let c = encode(&corpus());
        let vocab = c.vocab.as_ref().unwrap();
        assert_eq!(vocab[0], "rare");
        assert_eq!(vocab[2], "common");
        assert_eq!(c.token_freqs, vec![1, 2, 3]);
    }

    #[test]
    fn mr_encoding_matches_local() {
        let raw = corpus();
        let local = encode(&raw);
        let (mr, _) = encode_mr(&raw, 2, 2);
        assert_eq!(local.pool(), mr.pool());
        assert_eq!(local.token_freqs, mr.token_freqs);
    }

    #[test]
    #[should_panic(expected = "missing from ordering")]
    fn encode_with_rejects_tokens_outside_the_ordering() {
        let ordering = GlobalOrdering::from_freqs(vec![(0, 1)]);
        let _ = encode_with(
            &RawCorpus {
                docs: vec![vec![0, 1]],
                vocab: None,
            },
            &ordering,
        );
    }

    #[test]
    fn encode_with_kind_changes_rank_geometry_not_overlaps() {
        let raw = RawCorpus::from_texts(&["a b c d", "a b c e", "a x"], &Tokenizer::Words);
        let asc = encode(&raw);
        for kind in OrderingKind::all() {
            let enc = encode_with_kind(&raw, kind);
            // Overlaps are order-invariant.
            for (r1, r2) in enc.iter().zip(asc.iter()) {
                assert_eq!(r1.len(), r2.len());
            }
            let inter = |c: &Collection, i: u32, j: u32| {
                c.tokens(i)
                    .iter()
                    .filter(|t| c.tokens(j).contains(t))
                    .count()
            };
            assert_eq!(inter(&enc, 0, 1), inter(&asc, 0, 1));
        }
        // Descending puts the most frequent token ("a", freq 3) at rank 0.
        let desc = encode_with_kind(&raw, OrderingKind::DescendingFrequency);
        assert_eq!(desc.token_freqs[0], 3);
    }

    #[test]
    fn duplicate_tokens_become_sets() {
        let raw = RawCorpus::from_texts(&["a a b"], &Tokenizer::Words);
        let c = encode(&raw);
        assert_eq!(c.tokens(0).len(), 2);
    }

    #[test]
    fn encode_two_shares_rank_space() {
        let r = RawCorpus::from_texts(&["shared alpha", "only r"], &Tokenizer::Words);
        let s = RawCorpus::from_texts(&["shared beta", "only s"], &Tokenizer::Words);
        let (re, se) = encode_two(&r, &s);
        assert_eq!(re.token_freqs, se.token_freqs);
        // "shared" appears in both; its rank must be identical.
        let r_vocab = re.vocab.as_ref().unwrap();
        let s_vocab = se.vocab.as_ref().unwrap();
        assert_eq!(r_vocab, s_vocab);
        let shared_rank = r_vocab.iter().position(|t| t == "shared").unwrap() as u32;
        assert!(re.tokens(0).contains(&shared_rank));
        assert!(se.tokens(0).contains(&shared_rank));
        // "shared" has frequency 2, "only" 2, rest 1.
        assert_eq!(re.token_freqs.last(), Some(&2));
    }

    #[test]
    fn encode_two_without_vocab_uses_raw_namespace() {
        let r = RawCorpus {
            docs: vec![vec![1, 2, 3]],
            vocab: None,
        };
        let s = RawCorpus {
            docs: vec![vec![2, 3, 4]],
            vocab: None,
        };
        let (re, se) = encode_two(&r, &s);
        assert_eq!(re.token_freqs.len(), 4);
        let inter: Vec<u32> = re
            .tokens(0)
            .iter()
            .filter(|t| se.tokens(0).contains(t))
            .copied()
            .collect();
        assert_eq!(inter.len(), 2);
    }

    #[test]
    #[should_panic(expected = "both have or both lack")]
    fn encode_two_mixed_vocab_rejected() {
        let r = RawCorpus::from_texts(&["a"], &Tokenizer::Words);
        let s = RawCorpus {
            docs: vec![vec![0]],
            vocab: None,
        };
        let _ = encode_two(&r, &s);
    }

    #[test]
    fn jaccard_survives_encoding() {
        // Encoding is a bijection on tokens, so set overlaps are preserved.
        let raw = RawCorpus::from_texts(&["a b c d", "a b c e"], &Tokenizer::Words);
        let c = encode(&raw);
        let s: std::collections::BTreeSet<u32> = c.tokens(0).iter().copied().collect();
        let t: std::collections::BTreeSet<u32> = c.tokens(1).iter().copied().collect();
        assert_eq!(s.intersection(&t).count(), 3);
        assert_eq!(s.union(&t).count(), 5);
    }

    #[test]
    fn one_encoding_has_one_bitmap_width() {
        // R: 30 records of 10 distinct tokens (duplicates dropped first);
        // S: 10 records of 290. R ∪ S averages 80 tokens, so both pools
        // are 512 bits wide, though R alone would get 128 and S 2048.
        let doc = |len: u64, k: u64| (0..len).flat_map(|t| [k * 1_000 + t; 2]).collect();
        let r = RawCorpus {
            docs: (0..30).map(|k| doc(10, k)).collect(),
            vocab: None,
        };
        let s = RawCorpus {
            docs: (30..40).map(|k| doc(290, k)).collect(),
            vocab: None,
        };
        let (re, se) = encode_two(&r, &s);
        assert_eq!(
            (re.pool().bitmap_bits(), se.pool().bitmap_bits()),
            (512, 512)
        );
        assert_eq!(encode(&r).pool().bitmap_bits(), 128);
        assert_eq!(encode(&s).pool().bitmap_bits(), 2048);
    }
}
