//! The long-lived serving index: a sealed main index built by a plan,
//! a mutable [`DeltaIndex`] for inserts, and the probe path that answers
//! θ-threshold and top-k queries without launching any MapReduce job.
//!
//! # Index layout
//!
//! The main index serves straight out of the build plan's sealed reduce
//! partitions: each partition is an `Arc<Vec<(token, PostingBlock)>>`
//! taken from the plan outcome without copying (`PlanOutcome::take_sealed`).
//! Partitions are token-range partitioned, so their concatenation is
//! token-ascending; a flat `directory` indexed by token rank packs
//! `(partition, slot)` into a `u64` for O(1) posting lookup. Posting
//! lists hold `(record, position, length)` columnar (see [`PostingBlock`]),
//! covering each record's `theta_min` probe prefix.
//!
//! # Probe filter order
//!
//! For a query `x` at threshold `θ ≥ theta_min`, candidates flow through
//! the FS-Join/PPJoin filter cascade, cheapest first:
//!
//! 1. **prefix** — only postings of `x`'s first `probe_prefix_len(θ, |x|)`
//!    tokens are touched; records sharing no such token are never read.
//! 2. **length** — each posting's resident `len` is checked against the
//!    `[min_partner_len, max_partner_len]` window before the accumulator
//!    is consulted.
//! 3. **position** — the accumulated overlap plus the positional upper
//!    bound (`remaining` tokens past this match on either side) must reach
//!    `min_overlap(θ, |x|, |y|)`, else the candidate is tombstoned.
//! 4. **verify** — survivors go through the one whole-record cascade
//!    shared with the batch joins ([`Verifier`]): the pooled token bitmaps
//!    bound the overlap from above and settle candidates that cannot
//!    reach `min_overlap` (lossless — see DESIGN.md §12, toggled by
//!    [`ServeConfig::bitmap_prune`](crate::config::ServeConfig)); the rest
//!    get an exact early-exit intersection and the measure's `passes`
//!    predicate.
//!
//! The index prefix is sized for `theta_min` while the probe prefix is
//! sized for the query's θ: both are at least `|·| − min_overlap(..) + 1`
//! long, so the classic prefix lemma applies a fortiori and recall stays
//! exact for every `θ ≥ theta_min`.
//!
//! # Delta and compaction lifecycle
//!
//! Inserts append to the delta pool against the *frozen* token ordering
//! (out-of-vocabulary tokens may use any rank `≥ universe`; any consistent
//! total order keeps prefix filtering sound). Probes scan the delta block
//! right after the main block per token, so inserts are visible
//! immediately. [`ServeIndex::compact`] merges both sides' postings with
//! the loser-tree [`GroupedRuns`] merge, concatenates the token pools, and
//! reseals — main record ids never change, delta ids are already offset
//! past the main arena, so public ids are stable across compactions.

use std::sync::Arc;
use std::time::Instant;

use fsjoin::keys;
use ssj_common::FxHashMap;
use ssj_mapreduce::{GroupedRuns, PlanOutcome, StageHandle};
use ssj_observe::{span, MetricsRegistry};
use ssj_similarity::{Measure, Verifier};
use ssj_text::{MalformedRecord, RecordId, TokenId, TokenPool};

use crate::config::ServeConfig;
use crate::delta::DeltaIndex;
use crate::posting::{expand, Posting, PostingBlock};
use crate::stats::ProbeStats;

/// Threshold comparisons tolerate the same slack as the measure kernels.
const EPS: f64 = 1e-9;

/// Accumulator tombstone: candidate killed by the position filter.
const PRUNED: u32 = u32::MAX;

/// Directory sentinel: token has no postings.
const EMPTY: u64 = u64::MAX;

/// The sealed, immutable side of the index.
#[derive(Debug)]
pub(crate) struct MainIndex {
    /// Sealed posting partitions, token-ascending across the
    /// concatenation. Held by `Arc` exactly as the plan produced them.
    parts: Vec<Arc<Vec<(TokenId, PostingBlock)>>>,
    /// Token rank → packed `(partition << 32) | slot`, or [`EMPTY`].
    directory: Vec<u64>,
    /// All main record lengths, ascending — the main half of the
    /// prefix-filter pruning-power accounting.
    sorted_lens: Vec<u32>,
    /// Total postings across all partitions.
    postings: usize,
}

impl MainIndex {
    /// Assemble from sealed partitions. O(1) *container* allocations —
    /// the directory, the length vector, and the partition vector — so
    /// the zero-copy harness can bound the build with a small constant.
    pub(crate) fn build(
        parts: Vec<Arc<Vec<(TokenId, PostingBlock)>>>,
        universe: usize,
        lens: impl Iterator<Item = usize>,
    ) -> MainIndex {
        let mut directory = vec![EMPTY; universe];
        let mut postings = 0usize;
        for (p, part) in parts.iter().enumerate() {
            for (s, (t, block)) in part.iter().enumerate() {
                debug_assert!((*t as usize) < universe, "token outside directory");
                debug_assert_eq!(directory[*t as usize], EMPTY, "token in two partitions");
                directory[*t as usize] = ((p as u64) << 32) | s as u64;
                postings += block.len();
            }
        }
        let mut sorted_lens: Vec<u32> = lens.map(|l| l as u32).collect();
        sorted_lens.sort_unstable();
        MainIndex {
            parts,
            directory,
            sorted_lens,
            postings,
        }
    }

    /// Posting block for token `t`, if indexed. Ranks beyond the directory
    /// (out-of-vocabulary probe tokens) simply have no postings.
    #[inline]
    pub(crate) fn postings_of(&self, t: TokenId) -> Option<&PostingBlock> {
        let packed = *self.directory.get(t as usize)?;
        if packed == EMPTY {
            return None;
        }
        let (p, s) = ((packed >> 32) as usize, (packed & 0xffff_ffff) as usize);
        Some(&self.parts[p][s].1)
    }

    /// All postings as token-ascending rows (compaction's main run).
    pub(crate) fn iter_postings(&self) -> impl Iterator<Item = (TokenId, Posting)> + '_ {
        self.parts.iter().flat_map(|p| expand(p.iter()))
    }
}

/// Count of values in an ascending slice within `[lo, hi]`.
fn window_count(sorted: &[u32], lo: u32, hi: u32) -> usize {
    if lo > hi {
        return 0;
    }
    sorted.partition_point(|&l| l <= hi) - sorted.partition_point(|&l| l < lo)
}

/// A long-lived similarity-serving index over a frozen token ordering.
///
/// Build one with [`build_index`](crate::build_index) (runs the build plan)
/// or [`ServeIndex::from_plan`] (adopts an already-run plan's sealed
/// output). Probes take `&self` and are safe to issue from many threads;
/// [`insert`](ServeIndex::insert) and [`compact`](ServeIndex::compact)
/// take `&mut self`.
#[derive(Debug)]
pub struct ServeIndex {
    cfg: ServeConfig,
    /// Main token arena (record ids `0..pool.len()`).
    pool: Arc<TokenPool>,
    /// Frozen global-ordering frequency table; `freqs.len()` is the token
    /// universe the directory covers (until a compaction widens it).
    freqs: Vec<u64>,
    main: MainIndex,
    delta: DeltaIndex,
    registry: Arc<MetricsRegistry>,
}

impl ServeIndex {
    /// Adopt a build plan's sealed output as the main index. The posting
    /// partitions move out of `outcome` by `Arc` — zero posting-list deep
    /// copies (asserted by the counting-allocator harness in
    /// `tests/zero_copy.rs`).
    pub fn from_plan(
        outcome: &mut PlanOutcome,
        handle: StageHandle<TokenId, PostingBlock>,
        pool: Arc<TokenPool>,
        freqs: Vec<u64>,
        cfg: ServeConfig,
    ) -> ServeIndex {
        cfg.validate();
        let parts = outcome.take_sealed(handle);
        let main = MainIndex::build(parts, freqs.len(), pool.lengths());
        let idx = ServeIndex {
            cfg,
            pool,
            freqs,
            main,
            delta: DeltaIndex::new(),
            registry: Arc::new(MetricsRegistry::new()),
        };
        idx.refresh_gauges();
        idx
    }

    /// The index's own metrics registry (`serve.*` keys).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Share the registry handle (e.g. to merge into a global one).
    pub fn share_registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Total records visible to probes (main + delta).
    pub fn len(&self) -> usize {
        self.pool.len() + self.delta.len()
    }

    /// True when the index holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records currently in the delta (un-compacted) side.
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Postings in the sealed main index.
    pub fn main_postings(&self) -> usize {
        self.main.postings
    }

    /// The frozen frequency table backing the token ordering.
    pub fn token_freqs(&self) -> &[u64] {
        &self.freqs
    }

    /// Tokens of any visible record (main arena or delta pool).
    #[inline]
    pub fn tokens_of(&self, rec: RecordId) -> &[TokenId] {
        let base = self.pool.len() as RecordId;
        if rec < base {
            self.pool.tokens_of(rec)
        } else {
            self.delta.tokens_of(rec - base)
        }
    }

    /// Bitmap of any visible record (main arena or delta pool). Both
    /// pools use the default width, so lanes line up.
    #[inline]
    fn bitmap_of(&self, rec: RecordId) -> &[u64] {
        let base = self.pool.len() as RecordId;
        if rec < base {
            self.pool.bitmap_of(rec)
        } else {
            self.delta.pool().bitmap_of(rec - base)
        }
    }

    /// Answer a θ-threshold probe: all visible records `y` with
    /// `sim(x, y) ≥ θ`, as `(record, score)` ascending by record id.
    ///
    /// Convenience wrapper around [`probe_with`](ServeIndex::probe_with)
    /// that times the query and flushes stats + latency into the index
    /// registry.
    ///
    /// `tokens` must be strictly ascending in the index's frozen token
    /// ordering (ranks `≥ universe` are allowed: out-of-vocabulary tokens
    /// match nothing but keep the order consistent).
    pub fn probe(&self, tokens: &[TokenId], theta: f64) -> Vec<(RecordId, f64)> {
        let start = Instant::now();
        let mut stats = ProbeStats::default();
        let out = self.probe_with(tokens, theta, None, &mut stats);
        self.note_probe(&stats, &start);
        out
    }

    /// Top-`k` most similar visible records, scored at the measure and
    /// admitted at `theta_min`, ties broken by ascending record id.
    pub fn top_k(&self, tokens: &[TokenId], k: usize) -> Vec<(RecordId, f64)> {
        let start = Instant::now();
        let mut stats = ProbeStats::default();
        let mut out = self.probe_with(tokens, self.cfg.theta_min, None, &mut stats);
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out.truncate(k);
        self.note_probe(&stats, &start);
        out
    }

    fn note_probe(&self, stats: &ProbeStats, start: &Instant) {
        stats.record_to(&self.registry);
        self.registry.counter_add(keys::SERVE_PROBE_QUERIES, 1);
        let micros = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.registry
            .histogram_record(keys::SERVE_PROBE_LATENCY_US, micros);
    }

    /// The probe kernel: candidate generation over the prefix postings,
    /// length + position filtering, exact verification. Accumulates into
    /// caller-held `stats` (no registry traffic — the closed-loop harness
    /// keeps these thread-local) and skips `exclude` (self-join style
    /// probes of an indexed record).
    ///
    /// # Panics
    /// Panics if `theta` lies outside `[theta_min, 1]` — the index prefix
    /// is only long enough for thresholds it was built for.
    pub fn probe_with(
        &self,
        tokens: &[TokenId],
        theta: f64,
        exclude: Option<RecordId>,
        stats: &mut ProbeStats,
    ) -> Vec<(RecordId, f64)> {
        assert!(
            theta + EPS >= self.cfg.theta_min && theta <= 1.0 + EPS,
            "probe theta {theta} outside supported [{}, 1]",
            self.cfg.theta_min
        );
        debug_assert!(
            tokens.windows(2).all(|w| w[0] < w[1]),
            "probe tokens must be strictly ascending"
        );
        let qlen = tokens.len();
        if qlen == 0 {
            return Vec::new();
        }
        let m = self.cfg.measure;
        let min_len = m.min_partner_len(theta, qlen).max(1) as u32;
        let max_len = m.max_partner_len(theta, qlen).min(u32::MAX as usize) as u32;
        let probe_len = m.probe_prefix_len(theta, qlen);
        let candidates_before = stats.candidates;

        let mut acc: FxHashMap<RecordId, u32> = FxHashMap::default();
        for (i, &t) in tokens[..probe_len].iter().enumerate() {
            let sources = [self.main.postings_of(t), self.delta.postings_of(t)];
            for block in sources.into_iter().flatten() {
                scan_block(
                    block, m, theta, qlen, i, min_len, max_len, exclude, &mut acc, stats,
                );
            }
        }

        // Prefix-filter pruning power: records inside the length window
        // that no probe-prefix token ever reached.
        let mut eligible = window_count(&self.main.sorted_lens, min_len, max_len)
            + window_count(self.delta.sorted_lens(), min_len, max_len);
        if let Some(e) = exclude {
            let l = self.tokens_of(e).len() as u32;
            if (min_len..=max_len).contains(&l) {
                eligible -= 1;
            }
        }
        let seen = stats.candidates - candidates_before;
        stats.prefix_pruned += (eligible as u64).saturating_sub(seen);

        // Verify survivors in record order (deterministic output).
        let mut survivors: Vec<RecordId> = acc
            .into_iter()
            .filter(|&(_, count)| count != PRUNED)
            .map(|(rec, _)| rec)
            .collect();
        survivors.sort_unstable();
        // The query bitmap is built once per probe, not once per survivor.
        let mut qbits = Vec::new();
        if self.cfg.bitmap_prune {
            self.pool.fill_bitmap(tokens, &mut qbits);
        }
        let verifier = Verifier { measure: m, theta };
        let mut out = Vec::new();
        for rec in survivors {
            let bits = self
                .cfg
                .bitmap_prune
                .then(|| (&qbits[..], self.bitmap_of(rec)));
            let verdict = verifier.verify(tokens, self.tokens_of(rec), bits);
            stats.bitmap_checks += u64::from(verdict.bitmap_checked);
            if !verdict.intersected {
                stats.bitmap_pruned += 1;
                continue;
            }
            stats.verified += 1;
            if let Some((_, sim)) = verdict.similar {
                stats.hits += 1;
                out.push((rec, sim));
            }
        }
        out
    }

    /// Insert one record (tokens strictly ascending in the frozen
    /// ordering; out-of-vocabulary ranks `≥ universe` welcome). Returns
    /// the record's public id — visible to probes immediately.
    pub fn insert(&mut self, tokens: &[TokenId]) -> Result<RecordId, MalformedRecord> {
        let base = self.pool.len() as RecordId;
        let rid = self
            .delta
            .insert(tokens, base, self.cfg.measure, self.cfg.theta_min)?;
        self.registry.counter_add(keys::SERVE_INSERTS, 1);
        self.registry
            .counter_add(keys::SERVE_INSERT_TOKENS, tokens.len() as u64);
        self.refresh_gauges();
        Ok(rid)
    }

    /// Merge the delta into the main index: loser-tree merge of the two
    /// token-ascending posting runs, pool concatenation, reseal. No-op on
    /// an empty delta. Record ids are stable across compaction.
    pub fn compact(&mut self) {
        if self.delta.is_empty() {
            return;
        }
        let _span = span("serve.stage", "compact")
            .field("delta_records", self.delta.len() as u64)
            .field("delta_postings", self.delta.posting_count() as u64)
            .field("main_postings", self.main.postings as u64);

        let mut main_run: Vec<(TokenId, Posting)> = Vec::with_capacity(self.main.postings);
        main_run.extend(self.main.iter_postings());
        let delta_run = self.delta.sorted_run();
        let merged = main_run.len() + delta_run.len();

        // Inserts may have minted ranks beyond the frozen vocabulary;
        // widen the directory to cover them.
        let universe = self
            .main
            .directory
            .len()
            .max(self.delta.max_token().map_or(0, |t| t as usize + 1));
        let parts_n = self.cfg.build_partitions.max(1);
        let mut new_parts: Vec<Vec<(TokenId, PostingBlock)>> =
            (0..parts_n).map(|_| Vec::new()).collect();
        GroupedRuns::new(vec![&main_run[..], &delta_run[..]]).for_each_group(|&t, values| {
            // Run 0 (main) drains before run 1 (delta), and delta ids all
            // exceed main ids — the block stays record-ascending.
            let mut block = PostingBlock::default();
            for p in values {
                block.push(*p);
            }
            new_parts[crate::build::token_partition(t, universe, parts_n)].push((t, block));
        });

        let new_pool = Arc::new(TokenPool::concat(&self.pool, self.delta.pool()));
        let parts: Vec<Arc<Vec<(TokenId, PostingBlock)>>> =
            new_parts.into_iter().map(Arc::new).collect();
        self.main = MainIndex::build(parts, universe, new_pool.lengths());
        self.pool = new_pool;
        self.delta.clear();

        self.registry.counter_add(keys::SERVE_COMPACTIONS, 1);
        self.registry
            .counter_add(keys::SERVE_COMPACT_POSTINGS, merged as u64);
        self.refresh_gauges();
    }

    fn refresh_gauges(&self) {
        self.registry
            .gauge_set(keys::SERVE_RECORDS, self.len() as f64);
        self.registry
            .gauge_set(keys::SERVE_DELTA_RECORDS, self.delta.len() as f64);
        self.registry
            .gauge_set(keys::SERVE_MAIN_POSTINGS, self.main.postings as f64);
    }
}

/// One token's posting scan: length filter, accumulate, position filter.
#[allow(clippy::too_many_arguments)]
fn scan_block(
    block: &PostingBlock,
    m: Measure,
    theta: f64,
    qlen: usize,
    i: usize,
    min_len: u32,
    max_len: u32,
    exclude: Option<RecordId>,
    acc: &mut FxHashMap<RecordId, u32>,
    stats: &mut ProbeStats,
) {
    for k in 0..block.len() {
        let rec = block.recs[k];
        if Some(rec) == exclude {
            continue;
        }
        let ylen = block.lens[k];
        if ylen < min_len || ylen > max_len {
            stats.length_pruned += 1;
            continue;
        }
        let entry = acc.entry(rec).or_insert_with(|| {
            stats.candidates += 1;
            0
        });
        if *entry == PRUNED {
            continue;
        }
        let alpha = m.min_overlap(theta, qlen, ylen as usize) as u32;
        let remaining = ((qlen - i - 1) as u32).min(ylen - block.poss[k] - 1);
        if *entry + 1 + remaining >= alpha {
            *entry += 1;
        } else {
            *entry = PRUNED;
            stats.position_pruned += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_count_is_inclusive_and_handles_empty_windows() {
        let lens = [2u32, 3, 3, 5, 9];
        assert_eq!(window_count(&lens, 3, 5), 3);
        assert_eq!(window_count(&lens, 1, 100), 5);
        assert_eq!(window_count(&lens, 6, 8), 0);
        assert_eq!(window_count(&lens, 7, 4), 0);
        assert_eq!(window_count(&[], 0, 10), 0);
    }

    #[test]
    fn main_index_directory_resolves_across_partitions() {
        let mut b0 = PostingBlock::default();
        b0.push(Posting {
            rec: 0,
            pos: 0,
            len: 2,
        });
        let mut b1 = PostingBlock::default();
        b1.push(Posting {
            rec: 1,
            pos: 0,
            len: 3,
        });
        let parts = vec![
            Arc::new(vec![(0u32, b0)]),
            Arc::new(vec![(4u32, b1.clone())]),
        ];
        let main = MainIndex::build(parts, 6, [2usize, 3].into_iter());
        assert_eq!(main.postings, 2);
        assert_eq!(main.sorted_lens, vec![2, 3]);
        assert_eq!(main.postings_of(4), Some(&b1));
        assert!(main.postings_of(1).is_none(), "unindexed token");
        assert!(main.postings_of(99).is_none(), "out-of-directory token");
        let rows: Vec<(u32, RecordId)> = main.iter_postings().map(|(t, p)| (t, p.rec)).collect();
        assert_eq!(rows, vec![(0, 0), (4, 1)]);
    }
}
