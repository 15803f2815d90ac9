//! The long-lived serving index: a sealed main index built by a plan,
//! a mutable `DeltaIndex` for inserts, and the probe path that answers
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
//! ordered by `(len, rec)`, covering each record's `theta_min` probe
//! prefix. A cumulative per-length census (`LengthCounts`) of main and
//! of delta records backs the prefix filter's accounting.
//!
//! # Probe filter order
//!
//! For a query `x` at threshold `θ ≥ theta_min`, candidates flow through
//! the FS-Join/PPJoin filter cascade, cheapest first:
//!
//! 1. **length** — on each touched posting list, two `partition_point`s
//!    on the `lens` column give the `[min_partner_len, max_partner_len]`
//!    window (`PostingBlock::window`); postings outside it are counted
//!    as `length_pruned` without being read.
//! 2. **prefix** — only postings of `x`'s first `probe_prefix_len(θ, |x|)`
//!    tokens are touched; records sharing no such token are never read.
//!    Their number, `prefix_pruned`, is the window's record count (two
//!    lookups in the length census) minus the candidates met.
//! 3. **position** — the accumulated overlap plus the positional upper
//!    bound (`remaining` tokens past this match on either side) must reach
//!    `min_overlap(θ, |x|, |y|)`, else the candidate is tombstoned. The
//!    window is length-ascending, so `min_overlap` is computed once per
//!    distinct length.
//! 4. **verify** — survivors go through the one whole-record cascade
//!    shared with the batch joins ([`Verifier`]): the pooled token bitmaps
//!    bound the overlap from above and settle candidates that cannot
//!    reach `min_overlap` (lossless — see DESIGN.md §12; serve always
//!    reads them); the rest get an exact early-exit intersection and the
//!    measure's `passes` predicate.
//!
//! The index prefix is sized for `theta_min` while the probe prefix is
//! sized for the query's θ: both are at least `|·| − min_overlap(..) + 1`
//! long, so the classic prefix lemma applies a fortiori and recall stays
//! exact for every `θ ≥ theta_min`.
//!
//! A probe allocates nothing but its answer: the candidate accumulator,
//! the survivor list, the query bitmap and the hit list live in
//! per-thread scratch, cleared per probe (the accumulator's retained
//! capacity is bounded by `ACC_RETAIN`).
//!
//! # Delta and compaction lifecycle
//!
//! Inserts append to the delta pool against the *frozen* token ordering
//! (out-of-vocabulary tokens may use any rank `≥ universe`; any consistent
//! total order keeps prefix filtering sound) and insert their postings at
//! their `(len, rec)` rank. Probes scan the delta block right after the
//! main block per token with the same scan, so inserts are visible
//! immediately. [`ServeIndex::compact`] walks main's and the delta's
//! token-ascending blocks side by side: a token on one side only moves its
//! block, a token on both merges the two ordered blocks with one
//! two-pointer pass. It then concatenates the token pools and reseals —
//! main record ids never change, delta ids are already offset past the
//! main arena, so public ids are stable across compactions.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use fsjoin::keys;
use ssj_common::FxHashMap;
use ssj_mapreduce::{PlanOutcome, StageHandle};
use ssj_observe::{span, MetricsRegistry};
use ssj_similarity::{Measure, Verifier};
use ssj_text::{MalformedRecord, RecordId, TokenId, TokenPool};

use crate::config::ServeConfig;
use crate::delta::DeltaIndex;
use crate::posting::{LengthCounts, PostingBlock};
use crate::stats::ProbeStats;

/// Threshold comparisons tolerate the same slack as the measure kernels.
const EPS: f64 = 1e-9;

/// Accumulator tombstone: candidate killed by the position filter.
const PRUNED: u32 = u32::MAX;

/// Directory sentinel: token has no postings.
const EMPTY: u64 = u64::MAX;

/// Largest accumulator capacity a thread keeps between probes: a probe
/// that met more candidates frees the table instead of leaving every
/// later clear to sweep it.
const ACC_RETAIN: usize = 4096;

/// Per-thread probe buffers, cleared (not freed) between probes.
#[derive(Default)]
struct Scratch {
    /// Candidate → shared prefix tokens so far, or [`PRUNED`].
    acc: FxHashMap<RecordId, u32>,
    survivors: Vec<RecordId>,
    qbits: Vec<u64>,
    hits: Vec<(RecordId, f64)>,
}

impl Scratch {
    /// Empty every buffer for the next probe; an accumulator grown past
    /// [`ACC_RETAIN`] is freed instead. Runs at the start of a probe, so
    /// one that panicked midway leaves nothing behind.
    fn reset(&mut self) {
        if self.acc.capacity() > ACC_RETAIN {
            self.acc = FxHashMap::default();
        } else {
            self.acc.clear();
        }
        self.survivors.clear();
        self.hits.clear();
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// The sealed, immutable side of the index.
#[derive(Debug)]
pub(crate) struct MainIndex {
    /// Sealed posting partitions, token-ascending across the
    /// concatenation. Held by `Arc` exactly as the plan produced them.
    parts: Vec<Arc<Vec<(TokenId, PostingBlock)>>>,
    /// Token rank → packed `(partition << 32) | slot`, or [`EMPTY`].
    directory: Vec<u64>,
    /// Main records per length — the main half of the prefix-filter
    /// pruning-power accounting.
    lens: LengthCounts,
    /// Total postings across all partitions.
    postings: usize,
}

impl MainIndex {
    /// Assemble from sealed partitions. A handful of *container*
    /// allocations, none proportional to postings — the directory, the
    /// length census (O(log longest record) growth steps), and the
    /// partition vector — so the zero-copy harness can bound the build
    /// with a small constant.
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
        MainIndex {
            parts,
            directory,
            lens: LengthCounts::new(lens),
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

    /// Move every block out, token-ascending — compaction's main side.
    /// Blocks of a partition nothing else holds move without a copy.
    fn take_blocks(&mut self) -> impl Iterator<Item = (TokenId, PostingBlock)> {
        std::mem::take(&mut self.parts)
            .into_iter()
            .flat_map(|part| Arc::try_unwrap(part).unwrap_or_else(|shared| (*shared).clone()))
    }
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
        let delta = DeltaIndex::new(pool.bitmap_bits());
        let idx = ServeIndex {
            cfg,
            pool,
            freqs,
            main,
            delta,
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

    /// Bitmap of any visible record (main arena or delta pool). The
    /// delta pool takes the main pool's width, so lanes line up.
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
        let scan = Scan {
            measure: m,
            theta,
            qlen,
            min_len: m.min_partner_len(theta, qlen).max(1) as u32,
            max_len: m.max_partner_len(theta, qlen).min(u32::MAX as usize) as u32,
            exclude: exclude.map(|e| (e, self.tokens_of(e).len() as u32)),
        };
        let probe_len = m.probe_prefix_len(theta, qlen);
        let candidates_before = stats.candidates;

        SCRATCH.with_borrow_mut(|scratch| {
            scratch.reset();
            let Scratch {
                acc,
                survivors,
                qbits,
                hits,
            } = scratch;
            for (i, &t) in tokens[..probe_len].iter().enumerate() {
                let sources = [self.main.postings_of(t), self.delta.postings_of(t)];
                for block in sources.into_iter().flatten() {
                    scan.block(block, i, acc, stats);
                }
            }

            // Prefix-filter pruning power: records inside the length
            // window that no probe-prefix token ever reached.
            let (lo, hi) = (scan.min_len, scan.max_len);
            let mut eligible = self.main.lens.count(lo, hi) + self.delta.lengths().count(lo, hi);
            if let Some((_, len)) = scan.exclude {
                eligible -= usize::from(scan.admits(len));
            }
            let seen = stats.candidates - candidates_before;
            stats.prefix_pruned += (eligible as u64).saturating_sub(seen);

            // Verify survivors in record order (deterministic output).
            survivors.extend(
                acc.iter()
                    .filter(|&(_, &count)| count != PRUNED)
                    .map(|(&rec, _)| rec),
            );
            survivors.sort_unstable();
            // The query bitmap is built once per probe, not once per survivor.
            self.pool.fill_bitmap(tokens, qbits);
            let verifier = Verifier { measure: m, theta };
            for &rec in survivors.iter() {
                let bits = Some((&qbits[..], self.bitmap_of(rec)));
                let verdict = verifier.verify(tokens, self.tokens_of(rec), bits);
                stats.bitmap_checks += u64::from(verdict.bitmap_checked);
                if !verdict.intersected {
                    stats.bitmap_pruned += 1;
                    continue;
                }
                stats.verified += 1;
                if let Some((_, sim)) = verdict.similar {
                    stats.hits += 1;
                    hits.push((rec, sim));
                }
            }
            hits.to_vec()
        })
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

    /// Merge the delta into the main index: a token-ascending walk over
    /// both sides' blocks (per-token two-pointer merge where both hold the
    /// token), pool concatenation, reseal. No-op on an empty delta. Record
    /// ids are stable across compaction.
    pub fn compact(&mut self) {
        if self.delta.is_empty() {
            return;
        }
        let _span = span("serve.stage", "compact")
            .field("delta_records", self.delta.len() as u64)
            .field("delta_postings", self.delta.posting_count() as u64)
            .field("main_postings", self.main.postings as u64);

        let merged = self.main.postings + self.delta.posting_count();
        let delta_blocks = self.delta.take_blocks();
        // Inserts may have minted ranks beyond the frozen vocabulary;
        // widen the directory to cover them.
        let universe = self
            .main
            .directory
            .len()
            .max(delta_blocks.last().map_or(0, |&(t, _)| t as usize + 1));
        let parts_n = self.cfg.build_partitions.max(1);
        let mut new_parts: Vec<Vec<(TokenId, PostingBlock)>> =
            (0..parts_n).map(|_| Vec::new()).collect();
        let mut main = self.main.take_blocks().peekable();
        let mut delta = delta_blocks.into_iter().peekable();
        loop {
            let next = match (main.peek().map(|e| e.0), delta.peek().map(|e| e.0)) {
                (None, None) => break,
                (Some(a), Some(b)) if a == b => {
                    let (t, m) = main.next().expect("peeked");
                    let (_, d) = delta.next().expect("peeked");
                    (t, PostingBlock::merge(&m, &d))
                }
                (Some(a), Some(b)) if a > b => delta.next().expect("peeked"),
                (Some(_), _) => main.next().expect("peeked"),
                (None, Some(_)) => delta.next().expect("peeked"),
            };
            debug_assert!(next.1.is_ordered());
            new_parts[crate::build::token_partition(next.0, universe, parts_n)].push(next);
        }

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

/// What every posting scan of one probe shares.
struct Scan {
    measure: Measure,
    theta: f64,
    qlen: usize,
    /// The length window `[min_len, max_len]`; `min_len ≥ 1`.
    min_len: u32,
    max_len: u32,
    /// The record the probe skips, with its length.
    exclude: Option<(RecordId, u32)>,
}

impl Scan {
    fn admits(&self, len: u32) -> bool {
        (self.min_len..=self.max_len).contains(&len)
    }

    /// One posting list of probe-prefix token `i` (main or delta): count
    /// the postings outside the length window, then accumulate and
    /// position-filter the window.
    fn block(
        &self,
        block: &PostingBlock,
        i: usize,
        acc: &mut FxHashMap<RecordId, u32>,
        stats: &mut ProbeStats,
    ) {
        let window = block.window(self.min_len, self.max_len);
        let mut outside = block.len() - window.len();
        // The excluded record is skipped, not pruned, wherever it sits.
        if let Some((rec, len)) = self.exclude {
            if !self.admits(len) && block.contains(len, rec) {
                outside -= 1;
            }
        }
        stats.length_pruned += outside as u64;

        let exclude = self.exclude.map(|(rec, _)| rec);
        let probe_rest = (self.qlen - i - 1) as u32;
        // `min_overlap` of the current length run (no record has length 0).
        let (mut run_len, mut alpha) = (0u32, 0u32);
        for k in window {
            let rec = block.recs[k];
            if Some(rec) == exclude {
                continue;
            }
            let ylen = block.lens[k];
            if ylen != run_len {
                run_len = ylen;
                alpha = self
                    .measure
                    .min_overlap(self.theta, self.qlen, ylen as usize)
                    as u32;
            }
            let entry = acc.entry(rec).or_insert_with(|| {
                stats.candidates += 1;
                0
            });
            if *entry == PRUNED {
                continue;
            }
            let remaining = probe_rest.min(ylen - block.poss[k] - 1);
            if *entry + 1 + remaining >= alpha {
                *entry += 1;
            } else {
                *entry = PRUNED;
                stats.position_pruned += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_index;
    use crate::posting::Posting;
    use ssj_text::{Collection, Record};

    const THETA_MIN: f64 = 0.7;
    const THETAS: [f64; 5] = [0.7, 0.75, 0.8, 0.9, 1.0];
    const MEASURES: [Measure; 3] = [Measure::Jaccard, Measure::Dice, Measure::Cosine];
    /// The query: ten tokens of low rank, so they lead every partner.
    const QUERY: std::ops::Range<TokenId> = 100..110;
    /// Filler ranks sort after every query token.
    const FILLER: TokenId = 1_000;

    fn cfg(m: Measure) -> ServeConfig {
        ServeConfig::default()
            .with_measure(m)
            .with_theta_min(THETA_MIN)
            .with_partitions(2)
            .with_map_tasks(2)
            .with_workers(1)
    }

    /// Records with ranks as given; the universe covers every filler.
    fn collection(records: &[Vec<TokenId>]) -> Collection {
        let universe = records.iter().flatten().max().map_or(0, |&t| t + 1);
        let records = records
            .iter()
            .enumerate()
            .map(|(rid, tokens)| Record::from_sorted(rid as RecordId, tokens.clone()))
            .collect();
        Collection::new(records, vec![1; universe.max(3 * FILLER) as usize], None)
    }

    /// Two partners per length at the window edges of `θ` (`min − 1`,
    /// `min`, `max`, `max + 1`): one holds the query's head, one its tail,
    /// each padded with its own filler tokens. Lengths come out of order.
    fn edge_partners(m: Measure, theta: f64) -> Vec<Vec<TokenId>> {
        let query: Vec<TokenId> = QUERY.collect();
        let q = query.len();
        let (lo, hi) = (m.min_partner_len(theta, q), m.max_partner_len(theta, q));
        let mut filler = FILLER;
        let mut out = Vec::new();
        for len in [hi + 1, lo, lo - 1, hi] {
            let shared = len.min(q);
            for part in [&query[..shared], &query[q - shared..]] {
                let mut tokens = part.to_vec();
                tokens.extend(filler..filler + (len - shared) as TokenId);
                filler += len as TokenId;
                out.push(tokens);
            }
        }
        out
    }

    /// Probe `index` and hold every counter the probe produces against a
    /// brute-force scan of the visible records.
    fn check_probe(index: &ServeIndex, theta: f64, exclude: Option<RecordId>) -> ProbeStats {
        let m = index.config().measure;
        let query: Vec<TokenId> = QUERY.collect();
        let q = query.len();
        let mut stats = ProbeStats::default();
        let got: Vec<(RecordId, u64)> = index
            .probe_with(&query, theta, exclude, &mut stats)
            .into_iter()
            .map(|(rec, sim)| (rec, sim.to_bits()))
            .collect();

        let window = m.min_partner_len(theta, q).max(1)..=m.max_partner_len(theta, q);
        let probe_prefix = &query[..m.probe_prefix_len(theta, q)];
        let (mut want, mut length_pruned, mut candidates, mut eligible) = (Vec::new(), 0, 0, 0);
        for rec in (0..index.len() as RecordId).filter(|&r| Some(r) != exclude) {
            let y = index.tokens_of(rec);
            let overlap = query.iter().filter(|t| y.contains(t)).count();
            if m.passes(overlap, q, y.len(), theta) {
                want.push((rec, m.score(overlap, q, y.len()).to_bits()));
            }
            let indexed = &y[..m.probe_prefix_len(THETA_MIN, y.len())];
            let met = probe_prefix.iter().filter(|t| indexed.contains(t)).count() as u64;
            if window.contains(&y.len()) {
                eligible += 1;
                candidates += u64::from(met > 0);
            } else {
                length_pruned += met;
            }
        }
        let ctx = format!("{m:?} θ={theta} exclude={exclude:?}");
        assert_eq!(got, want, "{ctx}: hits");
        assert_eq!(stats.length_pruned, length_pruned, "{ctx}: length_pruned");
        assert_eq!(stats.candidates, candidates, "{ctx}: candidates");
        assert_eq!(
            stats.prefix_pruned,
            eligible - candidates,
            "{ctx}: prefix_pruned"
        );
        assert_eq!(stats.unaccounted(), 0, "{ctx}: {stats:?}");
        assert!(stats.hits <= stats.verified, "{ctx}: {stats:?}");
        stats
    }

    /// The record of `index` that holds exactly `tokens`.
    fn find(index: &ServeIndex, tokens: &[TokenId]) -> RecordId {
        (0..index.len() as RecordId)
            .find(|&r| index.tokens_of(r) == tokens)
            .expect("record is indexed")
    }

    /// Probe with no exclusion, excluding the query's own record (inside
    /// the window) and excluding a `min − 1` partner (outside it, and met
    /// by the probe prefix, so its postings are really skipped).
    fn check_window_edges(index: &ServeIndex, theta: f64, partners: &[Vec<TokenId>]) {
        let query: Vec<TokenId> = QUERY.collect();
        let open = check_probe(index, theta, None);
        check_probe(index, theta, Some(find(index, &query)));
        let below = index.config().measure.min_partner_len(theta, query.len()) - 1;
        let short = partners
            .iter()
            .find(|p| p.len() == below && p[0] == QUERY.start)
            .expect("a head partner at min − 1");
        let skipped = check_probe(index, theta, Some(find(index, short)));
        assert!(skipped.length_pruned < open.length_pruned);
    }

    /// Every posting list of the index, main and delta, is `(len, rec)`
    /// ordered.
    fn assert_ordered(index: &ServeIndex) {
        for part in &index.main.parts {
            assert!(part.iter().all(|(_, b)| b.is_ordered()));
        }
        for t in 0..3 * FILLER {
            assert!(index
                .delta
                .postings_of(t)
                .is_none_or(PostingBlock::is_ordered));
        }
    }

    #[test]
    fn window_edges_match_brute_force_in_main() {
        for m in MEASURES {
            for theta in THETAS {
                let partners = edge_partners(m, theta);
                let mut records = vec![QUERY.collect::<Vec<_>>()];
                records.extend(partners.iter().cloned());
                let index = build_index(&collection(&records), &cfg(m));
                assert_eq!(index.delta_len(), 0);
                assert_ordered(&index);
                check_window_edges(&index, theta, &partners);
            }
        }
    }

    #[test]
    fn window_edges_match_brute_force_in_delta_and_after_compaction() {
        for m in MEASURES {
            for theta in THETAS {
                let partners = edge_partners(m, theta);
                // A main index of one unrelated record; everything else
                // arrives as inserts, lengths out of order.
                let mut index = build_index(&collection(&[vec![5, 6, 7]]), &cfg(m));
                index.insert(&QUERY.collect::<Vec<_>>()).unwrap();
                for p in &partners {
                    index.insert(p).unwrap();
                }
                assert_eq!(index.delta_len(), partners.len() + 1);
                assert_ordered(&index);
                check_window_edges(&index, theta, &partners);
                index.compact();
                assert_eq!(index.delta_len(), 0);
                assert_ordered(&index);
                check_window_edges(&index, theta, &partners);
            }
        }
    }

    #[test]
    fn a_main_pool_wider_than_128_bits_keeps_its_width_through_the_delta() {
        for m in MEASURES {
            for theta in THETAS {
                let partners = edge_partners(m, theta);
                // Three unrelated 200-token records: 4 × 200 bits round up
                // to a 1024-bit main pool.
                let main: Vec<Vec<TokenId>> = (0..3)
                    .map(|k| (2 * FILLER + 200 * k..2 * FILLER + 200 * (k + 1)).collect())
                    .collect();
                let mut index = build_index(&collection(&main), &cfg(m));
                assert_eq!(index.pool.bitmap_bits(), 1024);
                assert_eq!(index.delta.pool().bitmap_bits(), 1024);
                index.insert(&QUERY.collect::<Vec<_>>()).unwrap();
                for p in &partners {
                    index.insert(p).unwrap();
                }
                // The probe reads delta bitmaps against its query bitmap.
                let stats = check_probe(&index, theta, None);
                assert!(stats.bitmap_checks > 0, "{m:?} θ={theta}: {stats:?}");
                check_window_edges(&index, theta, &partners);
                index.compact();
                assert_eq!(index.pool.bitmap_bits(), 1024);
                assert_eq!(index.delta.pool().bitmap_bits(), 1024);
                check_window_edges(&index, theta, &partners);
                // The delta a compaction cleared keeps the width too.
                index.insert(&QUERY.collect::<Vec<_>>()).unwrap();
                check_probe(&index, theta, None);
                index.compact();
                check_probe(&index, theta, None);
            }
        }
    }

    #[test]
    fn compaction_merges_main_and_delta_blocks_in_len_rec_order() {
        // Main: lengths 6, 2, 4 lead with token 1. Delta: 5, 2, 7, 3.
        let main: Vec<Vec<TokenId>> = [6u32, 2, 4]
            .iter()
            .map(|&len| (1..=len).collect())
            .collect();
        let mut index = build_index(&collection(&main), &cfg(Measure::Jaccard));
        for len in [5u32, 2, 7, 3] {
            index.insert(&(1..=len).collect::<Vec<_>>()).unwrap();
        }
        index.compact();
        let rows: Vec<(u32, RecordId)> = index
            .main
            .postings_of(1)
            .unwrap()
            .iter()
            .map(|p| (p.len, p.rec))
            .collect();
        assert_eq!(
            rows,
            vec![(2, 1), (2, 4), (3, 6), (4, 2), (5, 3), (6, 0), (7, 5)]
        );
        assert_ordered(&index);
    }

    #[test]
    fn the_accumulator_does_not_keep_a_huge_probes_capacity() {
        // Every record leads with token 1: probing with it meets them all.
        let records: Vec<Vec<TokenId>> = (0..2 * ACC_RETAIN as TokenId)
            .map(|i| vec![1, 2, 3 + i])
            .collect();
        let index = build_index(&collection(&records), &cfg(Measure::Jaccard));
        let capacity = || SCRATCH.with_borrow(|s| s.acc.capacity());
        let mut stats = ProbeStats::default();
        index.probe_with(&[1, 2, 3], 0.8, None, &mut stats);
        assert!(stats.candidates > ACC_RETAIN as u64);
        assert!(capacity() > ACC_RETAIN);
        index.probe_with(&[2, 3], 0.8, None, &mut stats);
        assert!(capacity() <= ACC_RETAIN, "{}", capacity());
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
        let mut main = MainIndex::build(parts, 6, [2usize, 3].into_iter());
        assert_eq!(main.postings, 2);
        assert_eq!((main.lens.count(2, 2), main.lens.count(1, 9)), (1, 2));
        assert_eq!(main.postings_of(4), Some(&b1));
        assert!(main.postings_of(1).is_none(), "unindexed token");
        assert!(main.postings_of(99).is_none(), "out-of-directory token");
        let rows: Vec<(u32, RecordId)> = main.take_blocks().map(|(t, b)| (t, b.recs[0])).collect();
        assert_eq!(rows, vec![(0, 0), (4, 1)]);
    }
}
