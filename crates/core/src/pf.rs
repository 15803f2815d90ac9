//! FS-Join-PF — a prefix-discovery variant of FS-Join (our extension).
//!
//! DESIGN.md §4 item 5b establishes that FS-Join's exact count-based
//! verification forces the filter job to emit a record for every co-token
//! pair-fragment no lemma can disprove, which on Zipf-distributed corpora
//! is Ω(#co-token record pairs). This variant repairs the intermediate
//! volume while keeping FS-Join's partitioning and exactness, at the cost
//! of the paper's "verification never touches the original records"
//! property:
//!
//! 1. **Filtering** (same map phase as FS-Join: vertical + horizontal
//!    partitioning): each reduce task discovers candidate pairs only
//!    through tokens in both records' **global prefixes** (the classic
//!    prefix-filter theorem: a θ-similar pair shares a token within its
//!    first `|s| − minoverlap + 1` tokens, and since records are sorted by
//!    the one global ordering, that shared token falls in one fragment
//!    where both segments expose it). Global-prefix tokens are the rarest,
//!    so posting lists are short — candidate volume matches classic
//!    prefix-filter joins instead of growing with frequent-token
//!    co-occurrence.
//! 2. **Dedup** of candidate pairs (a pair may be discovered in several
//!    fragments).
//! 3. **Cached verification**: exact similarity is computed from the
//!    original records, replicated read-only to every task (Hadoop
//!    distributed-cache style, as MassJoin's Light variant does).
//!
//! Completeness: for a θ-similar pair, the shared global-prefix token `t*`
//! lies in exactly one fragment `v*`; both records' segments in `v*`
//! contain `t*` inside their global-prefix portions (a record's global
//! prefix is its first `π` tokens, so segment tokens are prefix tokens iff
//! `head < π`), and the pair co-occurs joinably in exactly one horizontal
//! partition — so it is discovered. Verification is exact, so precision is
//! exact too. Property-tested against the oracle alongside the main
//! driver.

use crate::cell_index::{CellIndex, Slot};
use crate::config::FsJoinConfig;
use crate::driver::{FsJoinResult, PartitionMapper};
use crate::filters::FilterStats;
use crate::fragment::{split_cell, PairScope};
use crate::horizontal::{num_h_partitions, select_h_pivots, JoinRule};
use crate::pivots::select_pivots;
use crate::segment::Segment;
use ssj_mapreduce::{
    Dataset, DirectPartitioner, Emitter, GroupValues, HashPartitioner, IdentityCombiner,
    IdentityMapper, KeepFirst, Mapper, Plan, PlanRunner, StreamingReducer,
};
use ssj_observe::{span, MetricsRegistry};
use ssj_similarity::{Measure, SimilarPair, Verifier};
use ssj_text::{Collection, PooledRecord, TokenPool};
use std::sync::Arc;

/// Number of leading tokens of a segment that belong to its record's
/// global prefix: the record's prefix is its first `π` tokens, the segment
/// starts at offset `head`.
#[inline]
fn global_prefix_in_segment(measure: Measure, theta: f64, seg: &Segment) -> usize {
    let pi = measure.probe_prefix_len(theta, seg.len as usize);
    pi.saturating_sub(seg.head as usize).min(seg.seg_len())
}

/// Discovery reducer: index global-prefix tokens, emit candidate pairs.
/// Streams each cell's segments into a scratch buffer and the shared
/// [`CellIndex`], both reused across cells (segments are `Copy` spans;
/// neither the engine nor the reducer allocates per key). Pruning counters
/// accumulate locally and flow into the run's [`MetricsRegistry`] under
/// the canonical [`crate::keys`] names at task cleanup, exactly like the
/// main driver's fragment reducer.
struct PrefixDiscoveryReducer {
    pool: Arc<TokenPool>,
    measure: Measure,
    theta: f64,
    num_fragments: usize,
    h_pivots: Arc<Vec<u32>>,
    scope: PairScope,
    /// The current cell's segments.
    scratch: Vec<Segment>,
    index: CellIndex,
    local_stats: FilterStats,
    registry: Arc<MetricsRegistry>,
}

impl StreamingReducer for PrefixDiscoveryReducer {
    type InKey = u32;
    type InValue = Segment;
    type OutKey = (u32, u32);
    type OutValue = (u32, u32);

    fn reduce_group(
        &mut self,
        cell: &u32,
        values: &mut GroupValues<'_, '_, u32, Segment>,
        out: &mut Emitter<(u32, u32), (u32, u32)>,
    ) {
        self.scratch.clear();
        self.scratch.extend(values.copied());
        let h = *cell as usize / self.num_fragments;
        let rule = JoinRule::for_partition(h, &self.h_pivots);
        let before_pairs = self.local_stats.pairs_considered;
        let before_emitted = self.local_stats.emitted;
        // Index the band's global-prefix tokens; probe it with itself in
        // slot order (each unordered pair is seen once, from its longer
        // record) or with the long group — the fragment join's indexed
        // kernels without a signature step. The length window is the cheap
        // length filter: a candidate outside it is never shipped.
        let (band, long) = split_cell(&mut self.scratch, rule);
        let (pool, measure, theta, scope) = (&*self.pool, self.measure, self.theta, self.scope);
        let as_slot = |s: &Segment| Slot {
            len: s.len,
            group: scope.group(s),
            sig: &[],
            tokens: &s.tokens(pool)[..global_prefix_in_segment(measure, theta, s)],
        };
        self.index.rebuild(0, band.iter().map(as_slot));
        for (i, probe) in long.unwrap_or(band).iter().enumerate() {
            let end = if long.is_some() { band.len() } else { i };
            let min_len = measure.min_partner_len(theta, probe.len as usize);
            let window = self.index.window(min_len, end);
            self.index
                .probe(&as_slot(probe), window, |_| None, &mut self.local_stats);
            for &slot in self.index.hits() {
                let other = &band[slot as usize];
                self.local_stats.emitted += 1;
                let (a, b) = if probe.rid < other.rid {
                    (probe, other)
                } else {
                    (other, probe)
                };
                out.emit((a.rid, b.rid), (a.len, b.len));
            }
        }
        // Per-cell discovery load, same histograms the exact driver keeps.
        self.registry.histogram_record(
            crate::keys::FRAGMENT_PAIRS,
            self.local_stats.pairs_considered - before_pairs,
        );
        self.registry.histogram_record(
            crate::keys::FRAGMENT_CANDIDATES,
            self.local_stats.emitted - before_emitted,
        );
    }

    fn cleanup(&mut self, _out: &mut Emitter<(u32, u32), (u32, u32)>) {
        self.local_stats.record_to(&self.registry);
        self.local_stats = FilterStats::default();
    }
}

/// Cached verification: exact similarity straight from the shared token
/// pool (the arena *is* the replicated record cache — no second copy of
/// the corpus is materialized for this job), through the one whole-record
/// cascade of [`Verifier`]. With `bitmap` on the pool's record bitmaps go
/// in with the pair — lossless, identical emissions either way.
/// Verification work is counted locally and flushed to the run registry at
/// task cleanup under the canonical [`crate::keys`] names.
struct CachedVerify {
    pool: Arc<TokenPool>,
    verifier: Verifier,
    bitmap: bool,
    local_stats: FilterStats,
    registry: Arc<MetricsRegistry>,
}

impl Mapper for CachedVerify {
    type InKey = (u32, u32);
    type InValue = (u32, u32);
    type OutKey = (u32, u32);
    type OutValue = f64;

    fn map(&mut self, (a, b): (u32, u32), _lens: (u32, u32), out: &mut Emitter<(u32, u32), f64>) {
        let (s, t) = (self.pool.tokens_of(a), self.pool.tokens_of(b));
        let bits = self
            .bitmap
            .then(|| (self.pool.bitmap_of(a), self.pool.bitmap_of(b)));
        let verdict = self.verifier.verify(s, t, bits);
        self.local_stats.count_verdict(&verdict, s.len(), t.len());
        if let Some((_, sim)) = verdict.similar {
            out.emit((a, b), sim);
        }
    }

    fn cleanup(&mut self, _out: &mut Emitter<(u32, u32), f64>) {
        self.local_stats.record_to(&self.registry);
        self.local_stats = FilterStats::default();
    }
}

/// Self-join with the prefix-discovery variant. Uses the same
/// configuration as [`crate::run_self_join`] (kernel, filters and
/// emit-policy fields are ignored — discovery is always global-prefix).
pub fn run_self_join_pf(collection: &Collection, cfg: &FsJoinConfig) -> FsJoinResult {
    run_pf(
        collection.share_pool(),
        collection.len(),
        0,
        &collection.token_freqs,
        cfg,
        PairScope::SelfJoin,
    )
}

/// R×S join with the prefix-discovery variant (same conventions as
/// [`crate::run_rs_join`]: shared rank space, S-side ids offset).
pub fn run_rs_join_pf(r: &Collection, s: &Collection, cfg: &FsJoinConfig) -> FsJoinResult {
    assert_eq!(
        r.token_freqs, s.token_freqs,
        "R and S must be encoded together (shared global ordering)"
    );
    let pool = Arc::new(TokenPool::concat(r.pool(), s.pool()));
    run_pf(
        pool,
        r.len(),
        s.len(),
        &r.token_freqs,
        cfg,
        PairScope::CrossSides,
    )
}

fn run_pf(
    pool: Arc<TokenPool>,
    num_r: usize,
    num_s: usize,
    freqs: &[u64],
    cfg: &FsJoinConfig,
    scope: PairScope,
) -> FsJoinResult {
    cfg.validate();
    assert_eq!(pool.len(), num_r + num_s, "pool must hold exactly R ++ S");
    let run_span = span("fsjoin.stage", "run-pf")
        .field("records", num_r + num_s)
        .field("theta", cfg.theta);

    let ordering_span = span("fsjoin.stage", "ordering");
    let pivots = Arc::new(select_pivots(
        freqs,
        cfg.num_fragments.saturating_sub(1),
        cfg.pivot_strategy,
        cfg.seed,
    ));
    let num_fragments = pivots.len() + 1;

    let h_pivots = Arc::new(select_h_pivots(pool.lengths(), cfg.horizontal_pivots));
    let num_cells = num_h_partitions(&h_pivots) * num_fragments;
    drop(
        ordering_span
            .field("fragments", num_fragments)
            .field("h_partitions", num_h_partitions(&h_pivots)),
    );

    let mut input_records: Vec<(u32, (u8, PooledRecord))> = Vec::with_capacity(num_r + num_s);
    for rid in 0..(num_r + num_s) as u32 {
        let side = u8::from(rid as usize >= num_r);
        input_records.push((
            rid,
            (
                side,
                PooledRecord {
                    id: rid,
                    span: pool.span_of(rid),
                },
            ),
        ));
    }
    let input = Dataset::from_records(input_records, cfg.map_tasks);

    // One declarative three-stage plan: discover → dedup → verify. Under
    // the default pipelined mode each discovered candidate partition flows
    // into dedup, and each deduped partition into cached verification, as
    // soon as it is sealed — the three jobs' phases overlap and the
    // candidate intermediates are dropped partition by partition.
    // Per-run registry, same contract as the main driver: discovery and
    // verification tasks record canonical `fsjoin.*` counters here; the
    // aggregate is read back below and merged into the process-global
    // registry when one is installed.
    let run_registry = Arc::new(MetricsRegistry::new());
    let discover_span = span("fsjoin.stage", "discover-job").field("cells", num_cells);
    let dedup_span = span("fsjoin.stage", "dedup-job");
    let verify_span = span("fsjoin.stage", "verify-job");
    let reduce_tasks = cfg.reduce_tasks.min(num_cells).max(1);

    let mut plan = Plan::new("fsjoin-pf").with_workers(cfg.workers);
    // One shared arena shipped over a broadcast edge, consumed by both the
    // discover stage and the verification stage (where it doubles as the
    // record cache); the runner keeps it alive until verify finishes.
    let pool_bcast = plan.broadcast(Arc::clone(&pool));
    let candidates_h = plan.add_full_broadcast(
        "fsjoin-pf-discover",
        input,
        pool_bcast,
        reduce_tasks,
        {
            let pivots = Arc::clone(&pivots);
            let h_pivots = Arc::clone(&h_pivots);
            let (measure, theta) = (cfg.measure, cfg.theta);
            move |_, pool: &Arc<TokenPool>| PartitionMapper {
                pool: Arc::clone(pool),
                pivots: Arc::clone(&pivots),
                h_pivots: Arc::clone(&h_pivots),
                num_fragments,
                measure,
                theta,
            }
        },
        {
            let h_pivots = Arc::clone(&h_pivots);
            let registry = Arc::clone(&run_registry);
            let (measure, theta) = (cfg.measure, cfg.theta);
            move |_, pool: &Arc<TokenPool>| PrefixDiscoveryReducer {
                pool: Arc::clone(pool),
                measure,
                theta,
                num_fragments,
                h_pivots: Arc::clone(&h_pivots),
                scope,
                scratch: Vec::new(),
                index: CellIndex::default(),
                local_stats: FilterStats::default(),
                registry: Arc::clone(&registry),
            }
        },
        DirectPartitioner::new(|cell: &u32| *cell as usize),
        None::<IdentityCombiner>,
    );
    let unique_h = plan.add(
        "fsjoin-pf-dedup",
        candidates_h,
        cfg.reduce_tasks,
        |_| IdentityMapper::default(),
        |_| KeepFirst::default(),
    );
    let verified_h = plan.add_full_broadcast(
        "fsjoin-pf-verify",
        unique_h,
        pool_bcast,
        cfg.reduce_tasks,
        {
            let registry = Arc::clone(&run_registry);
            let verifier = Verifier {
                measure: cfg.measure,
                theta: cfg.theta,
            };
            let bitmap = cfg.bitmap_prune;
            move |_, pool: &Arc<TokenPool>| CachedVerify {
                pool: Arc::clone(pool),
                verifier,
                bitmap,
                local_stats: FilterStats::default(),
                registry: Arc::clone(&registry),
            }
        },
        |_, _: &Arc<TokenPool>| KeepFirst::default(),
        HashPartitioner,
        None::<IdentityCombiner>,
    );

    let mut outcome = PlanRunner::new(cfg.plan_mode).run(plan);
    let verified = outcome.take_output(verified_h);
    let peak_live_bytes = outcome.peak_live_bytes;
    let deps = outcome.deps().to_vec();
    let chain = outcome.metrics;
    let raw_candidates = chain.jobs[0].reduce_output_records();
    drop(discover_span.field("candidates", raw_candidates));
    drop(dedup_span.field("unique", chain.jobs[1].reduce_output_records()));

    let mut pairs: Vec<SimilarPair> = verified
        .into_records()
        .map(|((a, b), sim)| SimilarPair::new(a, b, sim))
        .collect();
    pairs.sort_unstable_by_key(|x| x.ids());
    drop(verify_span.field("pairs", pairs.len()));

    let filter_stats = FilterStats::from_registry(&run_registry);
    run_registry.gauge_set(crate::keys::CANDIDATES, raw_candidates as f64);
    run_registry.gauge_set(crate::keys::PAIRS, pairs.len() as f64);
    if let Some(global) = ssj_observe::global_registry() {
        global.merge_from(&run_registry);
    }
    drop(run_span.field("pairs", pairs.len()));
    FsJoinResult {
        pairs,
        chain,
        filter_stats,
        candidates: raw_candidates,
        pivots: Arc::try_unwrap(pivots).unwrap_or_else(|a| (*a).clone()),
        h_pivots: Arc::try_unwrap(h_pivots).unwrap_or_else(|a| (*a).clone()),
        peak_live_bytes,
        deps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_self_join;
    use ssj_similarity::naive::naive_self_join;
    use ssj_similarity::pair::compare_results;
    use ssj_text::encode;
    use ssj_text::{CorpusProfile, RawCorpus, Tokenizer};

    fn wiki(records: usize) -> Collection {
        encode(
            &CorpusProfile::WikiLike
                .config()
                .with_records(records)
                .generate(),
        )
    }

    #[test]
    fn matches_oracle_across_thetas_and_measures() {
        let c = wiki(150);
        for measure in Measure::all() {
            for &theta in &[0.6, 0.75, 0.9] {
                let want = naive_self_join(&c.views(), measure, theta);
                let got = run_self_join_pf(
                    &c,
                    &FsJoinConfig::default()
                        .with_theta(theta)
                        .with_measure(measure),
                );
                compare_results(&got.pairs, &want, 1e-9)
                    .unwrap_or_else(|e| panic!("{measure:?} θ={theta}: {e}"));
            }
        }
    }

    #[test]
    fn matches_oracle_across_partitioning() {
        let c = wiki(120);
        let want = naive_self_join(&c.views(), Measure::Jaccard, 0.75);
        for fragments in [1usize, 4, 30] {
            for h in [0usize, 3, 20] {
                let cfg = FsJoinConfig::default()
                    .with_theta(0.75)
                    .with_fragments(fragments)
                    .with_horizontal(h);
                let got = run_self_join_pf(&c, &cfg);
                compare_results(&got.pairs, &want, 1e-9)
                    .unwrap_or_else(|e| panic!("fragments={fragments} h={h}: {e}"));
            }
        }
    }

    #[test]
    fn candidate_volume_beats_exact_fsjoin_by_far() {
        // The point of the variant: on Zipf data, prefix discovery ships
        // orders of magnitude fewer intermediates than exact counting
        // under the paper's segment filters (the record-signature step
        // closes most of that gap, so it is off on the exact side).
        let c = wiki(800);
        let cfg = FsJoinConfig::default().with_theta(0.8);
        let exact = run_self_join(&c, &cfg.clone().with_bitmap_prune(false));
        let pf = run_self_join_pf(&c, &cfg);
        assert_eq!(
            exact.pairs.len(),
            pf.pairs.len(),
            "identical results required"
        );
        assert!(
            (pf.candidates as f64) < (exact.candidates as f64) / 5.0,
            "pf candidates {} should be far below exact {}",
            pf.candidates,
            exact.candidates
        );
        assert!(pf.chain.total_shuffle_bytes() < exact.chain.total_shuffle_bytes());
    }

    #[test]
    fn pf_reports_real_filter_stats_and_plan_shape() {
        let c = wiki(120);
        let res = run_self_join_pf(&c, &FsJoinConfig::default().with_theta(0.8));
        // Declared three-stage chain: discover ← input, dedup ← discover,
        // verify ← dedup.
        assert_eq!(res.deps, vec![vec![], vec![0], vec![1]]);
        // Discovery pruning counters and verification kernel counters both
        // flow out through the canonical registry names.
        assert!(res.filter_stats.pairs_considered > 0);
        assert!(res.filter_stats.emitted > 0);
        assert!(res.filter_stats.emitted <= res.filter_stats.pairs_considered);
        assert!(res.filter_stats.intersections > 0);
        assert!(res.filter_stats.intersect_tokens > res.filter_stats.intersections);
    }

    #[test]
    fn rs_join_pf_matches_oracle() {
        let r_corpus = RawCorpus::from_texts(
            &["alpha beta gamma delta", "one two three four"],
            &Tokenizer::Words,
        );
        let s_corpus = RawCorpus::from_texts(
            &["alpha beta gamma delta epsilon", "five six seven eight"],
            &Tokenizer::Words,
        );
        let (r, s) = ssj_text::encode::encode_two(&r_corpus, &s_corpus);
        let got = run_rs_join_pf(&r, &s, &FsJoinConfig::default().with_theta(0.7));
        assert_eq!(got.pairs.len(), 1);
        assert_eq!(got.pairs[0].ids(), (0, r.len() as u32));
    }

    #[test]
    fn global_prefix_in_segment_respects_head() {
        let m = Measure::Jaccard;
        // Record of length 10 at θ=0.8: global prefix π = 3. The prefix
        // arithmetic only reads seg metadata plus the span length, so one
        // throwaway pool per segment suffices.
        let seg = |head: u32, toks: usize| {
            let mut pool = TokenPool::new();
            let span = pool.push(&(0..toks as u32).collect::<Vec<_>>());
            Segment {
                rid: 0,
                side: 0,
                len: 10,
                head,
                tail: 10 - head - toks as u32,
                span,
            }
        };
        assert_eq!(global_prefix_in_segment(m, 0.8, &seg(0, 5)), 3);
        assert_eq!(global_prefix_in_segment(m, 0.8, &seg(2, 5)), 1);
        assert_eq!(global_prefix_in_segment(m, 0.8, &seg(3, 5)), 0);
        assert_eq!(global_prefix_in_segment(m, 0.8, &seg(0, 2)), 2);
    }
}
