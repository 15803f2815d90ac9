//! The FS-Join driver: wires the filtering and verification MapReduce jobs
//! (paper Algorithm 1 / Figure 3).
//!
//! The ordering phase is performed at encoding time ([`ssj_text::encode`] /
//! [`ssj_text::encode_mr`]); the driver consumes an already-encoded
//! [`Collection`] whose frequency table *is* the global ordering.

use crate::cell_index::CellIndex;
use crate::config::FsJoinConfig;
use crate::filters::FilterStats;
use crate::fragment::{join_fragment, FragmentJoin, PairScope};
use crate::horizontal::{h_partitions_for, num_h_partitions, select_h_pivots, JoinRule};
use crate::pivots::select_pivots;
use crate::segment::Segment;
use crate::vertical::split_record;
use ssj_mapreduce::{
    ChainMetrics, Dataset, DirectPartitioner, Emitter, GroupValues, HashPartitioner,
    IdentityCombiner, IdentityMapper, Mapper, Plan, PlanRunner, StreamingReducer,
};
use ssj_observe::{span, MetricsRegistry};
use ssj_similarity::{Measure, SimilarPair};
use ssj_text::{Collection, PooledRecord, TokenPool};
use std::sync::Arc;

/// Everything an FS-Join run produces.
#[derive(Debug, Clone)]
pub struct FsJoinResult {
    /// The similar pairs with exact scores.
    pub pairs: Vec<SimilarPair>,
    /// Engine metrics for the filtering and verification jobs.
    pub chain: ChainMetrics,
    /// Aggregated pruning counters from the fragment joins.
    pub filter_stats: FilterStats,
    /// Candidate records emitted by the filtering job (the paper's
    /// Table IV quantity).
    pub candidates: usize,
    /// The vertical pivot ranks used.
    pub pivots: Vec<u32>,
    /// The horizontal length pivots used (empty for FS-Join-V).
    pub h_pivots: Vec<u32>,
    /// High-water mark of live intermediate bytes held between stages
    /// (see [`ssj_mapreduce::PlanOutcome::peak_live_bytes`]).
    pub peak_live_bytes: usize,
    /// Shuffle upstreams of each executed plan stage (empty = external
    /// input), in [`ChainMetrics`] job order — the plan shape
    /// [`ssj_mapreduce::ClusterModel::simulate_plan`] consumes alongside
    /// [`Self::chain`].
    pub deps: Vec<Vec<usize>>,
}

impl FsJoinResult {
    /// Total simulated time on a modelled cluster (see
    /// [`ssj_mapreduce::ClusterModel`]).
    pub fn simulated_secs(&self, cluster: &ssj_mapreduce::ClusterModel) -> f64 {
        cluster
            .simulate_chain_schedule(&self.chain)
            .last()
            .map_or(0.0, |s| s.end_secs)
    }
}

/// Self-join a collection. The collection's token pool is shared with the
/// jobs as-is (an `Arc` clone) — no token is copied to set up the join.
pub fn run_self_join(collection: &Collection, cfg: &FsJoinConfig) -> FsJoinResult {
    run_join(
        collection.share_pool(),
        collection.len(),
        0,
        &collection.token_freqs,
        cfg,
        PairScope::SelfJoin,
    )
}

/// R×S join of two collections encoded in the **same token-rank space**
/// (see [`ssj_text::encode::encode_two`]). S-side record ids are offset by
/// `r.len()` in the returned pairs: pair `(a, b)` with `b ≥ offset` refers
/// to S-record `b − offset`.
pub fn run_rs_join(r: &Collection, s: &Collection, cfg: &FsJoinConfig) -> FsJoinResult {
    assert_eq!(
        r.token_freqs, s.token_freqs,
        "R and S must be encoded together (shared global ordering)"
    );
    // One shared arena: R's records keep their offsets, S's follow (ids
    // shift by r.len(), matching the pair-id offset contract above).
    let pool = Arc::new(TokenPool::concat(r.pool(), s.pool()));
    run_join(
        pool,
        r.len(),
        s.len(),
        &r.token_freqs,
        cfg,
        PairScope::CrossSides,
    )
}

/// Filtering-job mapper: vertical + horizontal partitioning of one record
/// (paper Algorithm 1 lines 6–9). Shared with the prefix-discovery variant
/// ([`crate::pf`]). Tokens are resolved against the run's shared pool
/// (shipped to every task over a [`Broadcast`](ssj_mapreduce::StageEdge)
/// edge); segments are `Copy` spans, so the map phase allocates no token
/// storage.
pub(crate) struct PartitionMapper {
    pub(crate) pool: Arc<TokenPool>,
    pub(crate) pivots: Arc<Vec<u32>>,
    pub(crate) h_pivots: Arc<Vec<u32>>,
    pub(crate) num_fragments: usize,
    pub(crate) measure: Measure,
    pub(crate) theta: f64,
}

impl Mapper for PartitionMapper {
    type InKey = u32;
    type InValue = (u8, PooledRecord);
    type OutKey = u32; // cell id = h * num_fragments + v
    type OutValue = Segment;

    fn map(
        &mut self,
        _rid: u32,
        (side, record): (u8, PooledRecord),
        out: &mut Emitter<u32, Segment>,
    ) {
        if record.span.is_empty() {
            return;
        }
        let tokens = self.pool.resolve(record.span);
        let hs = h_partitions_for(tokens.len(), &self.h_pivots, self.measure, self.theta);
        let segments = split_record(record.id, side, tokens, record.span, &self.pivots);
        for &h in &hs {
            for &(v, seg) in &segments {
                out.emit((h * self.num_fragments + v) as u32, seg);
            }
        }
    }
}

/// Filtering-job reducer: joins one fragment cell (paper Algorithm 1
/// lines 10–13). Pruning counters accumulate locally and flow into the
/// run's [`MetricsRegistry`] at task cleanup (registry counters are
/// additive, so concurrent reduce tasks never contend mid-join).
///
/// Implements [`StreamingReducer`] directly: each cell's segments stream
/// off the k-way merge into a scratch buffer reused across cells — the
/// engine allocates nothing per key, and the reducer amortizes its one
/// buffer over the whole task ([`Segment`]s are `Copy` spans, so the copy
/// is 28 bytes/segment with no token movement). The indexed kernels'
/// [`CellIndex`] is reducer-owned the same way: rebuilt per cell into the
/// buffers of the last one.
///
/// The pool is the collection's own arena, so `pool.bitmap_of(seg.rid)` is
/// record `seg.rid`'s signature — what [`FragmentJoin::signatures`] needs.
struct FragmentReducer {
    pool: Arc<TokenPool>,
    cfg: FsJoinConfig,
    h_pivots: Arc<Vec<u32>>,
    scope: PairScope,
    local_stats: FilterStats,
    registry: Arc<MetricsRegistry>,
    scratch: Vec<Segment>,
    index: CellIndex,
}

impl StreamingReducer for FragmentReducer {
    type InKey = u32;
    type InValue = Segment;
    type OutKey = (u32, u32);
    type OutValue = (u32, u32, u32);

    fn reduce_group(
        &mut self,
        cell: &u32,
        segments: &mut GroupValues<'_, '_, u32, Segment>,
        out: &mut Emitter<(u32, u32), (u32, u32, u32)>,
    ) {
        self.scratch.clear();
        self.scratch.extend(segments.copied());
        let h = *cell as usize / self.cfg.num_fragments;
        let rule = JoinRule::for_partition(h, &self.h_pivots);
        let before_pairs = self.local_stats.pairs_considered;
        let before_emitted = self.local_stats.emitted;
        let join = FragmentJoin {
            pool: &self.pool,
            scope: self.scope,
            measure: self.cfg.measure,
            theta: self.cfg.theta,
            kernel: self.cfg.kernel,
            filters: self.cfg.filters,
            policy: self.cfg.emit_policy,
            signatures: self.cfg.bitmap_prune,
        };
        let records = join_fragment(
            &join,
            &mut self.scratch,
            rule,
            &mut self.index,
            &mut self.local_stats,
        );
        // Per-cell load distributions (skew diagnosis for the fragment
        // join, independent of reduce-task packing).
        self.registry.histogram_record(
            crate::keys::FRAGMENT_PAIRS,
            self.local_stats.pairs_considered - before_pairs,
        );
        self.registry.histogram_record(
            crate::keys::FRAGMENT_CANDIDATES,
            self.local_stats.emitted - before_emitted,
        );
        for rec in records {
            out.emit(rec.key(), rec.value());
        }
    }

    fn cleanup(&mut self, _out: &mut Emitter<(u32, u32), (u32, u32, u32)>) {
        self.local_stats.record_to(&self.registry);
        self.local_stats = FilterStats::default();
    }
}

/// Map-side combiner for the verification job: partial counts of the same
/// pair within one map task are summed before the shuffle (Hadoop-style;
/// semantically transparent because verification only ever sums them).
struct VerifyCombiner;

impl ssj_mapreduce::Combiner<(u32, u32), (u32, u32, u32)> for VerifyCombiner {
    fn combine(&self, _pair: &(u32, u32), values: Vec<(u32, u32, u32)>) -> Vec<(u32, u32, u32)> {
        let mut total = 0u32;
        let (mut la, mut lb) = (0u32, 0u32);
        for (c, a, b) in values {
            total += c;
            la = a;
            lb = b;
        }
        vec![(total, la, lb)]
    }

    /// Fold-style streaming path: sums contributions straight off the
    /// sorted bucket with no per-key `Vec` (see
    /// [`Combiner::combine_into`](ssj_mapreduce::Combiner::combine_into)).
    fn combine_into(
        &self,
        _pair: &(u32, u32),
        values: &mut dyn Iterator<Item = (u32, u32, u32)>,
        out: &mut Vec<(u32, u32, u32)>,
    ) {
        let mut total = 0u32;
        let (mut la, mut lb) = (0u32, 0u32);
        for (c, a, b) in values {
            total += c;
            la = a;
            lb = b;
        }
        out.push((total, la, lb));
    }

    /// Integer-count sum; every contribution for a pair carries the same
    /// record lengths, so the fold is a pure function of the value
    /// multiset. This licenses the engine's unstable map-side bucket sort.
    fn is_commutative(&self) -> bool {
        true
    }
}

/// Verification-job reducer: sums per-fragment counts and computes the
/// exact score from counts alone (paper §V-B). Streams its group — the
/// sum folds contribution-by-contribution with no buffering anywhere.
struct VerifyReducer {
    measure: Measure,
    theta: f64,
}

impl StreamingReducer for VerifyReducer {
    type InKey = (u32, u32);
    type InValue = (u32, u32, u32);
    type OutKey = (u32, u32);
    type OutValue = f64;

    fn reduce_group(
        &mut self,
        pair: &(u32, u32),
        contributions: &mut GroupValues<'_, '_, (u32, u32), (u32, u32, u32)>,
        out: &mut Emitter<(u32, u32), f64>,
    ) {
        let (mut total, mut len_a, mut len_b) = (0usize, 0usize, 0usize);
        for &(c, la, lb) in contributions {
            total += c as usize;
            len_a = la as usize;
            len_b = lb as usize;
        }
        if self.measure.passes(total, len_a, len_b, self.theta) {
            out.emit(*pair, self.measure.score(total, len_a, len_b));
        }
    }
}

fn run_join(
    pool: Arc<TokenPool>,
    num_r: usize,
    num_s: usize,
    freqs: &[u64],
    cfg: &FsJoinConfig,
    scope: PairScope,
) -> FsJoinResult {
    cfg.validate();
    assert_eq!(pool.len(), num_r + num_s, "pool must hold exactly R ++ S");
    let run_span = span("fsjoin.stage", "run")
        .field("records", num_r + num_s)
        .field("theta", cfg.theta);

    // ---- Setup: pivot selection (Algorithm 1 lines 2–4) ------------------
    let ordering_span = span("fsjoin.stage", "ordering");
    let pivots = Arc::new(select_pivots(
        freqs,
        cfg.num_fragments.saturating_sub(1),
        cfg.pivot_strategy,
        cfg.seed,
    ));
    // Effective fragment count (small domains may yield fewer pivots);
    // the reducer derives the horizontal partition from the cell id, so it
    // must see the *effective* count, not the requested one.
    let num_fragments = pivots.len() + 1;
    let cfg_eff = {
        let mut c = cfg.clone();
        c.num_fragments = num_fragments;
        c
    };

    // Length histogram straight off the pool's CSR offsets — no span
    // resolution, no intermediate Vec.
    let h_pivots = Arc::new(select_h_pivots(pool.lengths(), cfg.horizontal_pivots));
    let num_cells = num_h_partitions(&h_pivots) * num_fragments;
    drop(
        ordering_span
            .field("fragments", num_fragments)
            .field("h_partitions", num_h_partitions(&h_pivots)),
    );

    // ---- Input dataset ----------------------------------------------------
    // Each input record is just (side tag, span) — the tokens stay in the
    // shared pool. Logical input bytes are unchanged: a PooledRecord's
    // ByteSize still counts id + length prefix + tokens.
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

    // ---- Plan: filtering → verification -----------------------------------
    // One declarative two-stage plan: the filter stage's reduce partitions
    // feed the verify stage's map splits. Under the default pipelined mode
    // each candidate partition is verified the moment its fragment join
    // completes and dropped right after — the verify job overlaps the
    // filter job's reduce tail instead of waiting behind a barrier.
    //
    // Per-run registry: fragment reducers record pruning counters and
    // per-cell histograms here; the aggregate is read back below and also
    // merged into the process-global registry when one is installed.
    let run_registry = Arc::new(MetricsRegistry::new());
    let filter_span = span("fsjoin.stage", "filter-job").field("cells", num_cells);
    let verify_span = span("fsjoin.stage", "verify-job");
    let reduce_tasks = cfg.reduce_tasks.min(num_cells).max(1);

    let mut plan = Plan::new("fsjoin").with_workers(cfg.workers);
    // Ship the token arena to every task over a broadcast edge (the
    // distributed-cache analogue): tasks receive one shared Arc instead of
    // each record carrying an owned token vector, and the runner drops the
    // value the moment its last consumer stage finishes.
    let pool_bcast = plan.broadcast(Arc::clone(&pool));
    let candidates_h = plan.add_full_broadcast(
        "fsjoin-filter",
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
            move |_, pool: &Arc<TokenPool>| FragmentReducer {
                pool: Arc::clone(pool),
                cfg: cfg_eff.clone(),
                h_pivots: Arc::clone(&h_pivots),
                scope,
                local_stats: FilterStats::default(),
                registry: Arc::clone(&registry),
                scratch: Vec::new(),
                index: CellIndex::default(),
            }
        },
        DirectPartitioner::new(|cell: &u32| *cell as usize),
        None::<IdentityCombiner>,
    );
    let verified_h = plan.add_full(
        "fsjoin-verify",
        candidates_h,
        cfg.reduce_tasks,
        // Verification-job map side: identity (paper Algorithm 1 lines 15–16).
        |_| IdentityMapper::default(),
        {
            let (measure, theta) = (cfg.measure, cfg.theta);
            move |_| VerifyReducer { measure, theta }
        },
        HashPartitioner,
        Some(VerifyCombiner),
    );

    // The reducer reads num_fragments from cfg; keep them consistent.
    debug_assert!(num_fragments >= 1);
    let mut outcome = PlanRunner::new(cfg.plan_mode).run(plan);
    let verified = outcome.take_output(verified_h);
    let peak_live_bytes = outcome.peak_live_bytes;
    let deps = outcome.deps().to_vec();
    let chain = outcome.metrics;
    // The candidate count is the filter stage's reduce output — the same
    // quantity `total_records()` reported on the materialized dataset
    // (which pipelining no longer keeps around).
    let candidates = chain.jobs[0].reduce_output_records();
    drop(filter_span.field("candidates", candidates));

    let mut pairs: Vec<SimilarPair> = verified
        .into_records()
        .map(|((a, b), sim)| SimilarPair::new(a, b, sim))
        .collect();
    pairs.sort_unstable_by_key(|x| x.ids());
    drop(verify_span.field("pairs", pairs.len()));

    let filter_stats = FilterStats::from_registry(&run_registry);
    run_registry.gauge_set(crate::keys::CANDIDATES, candidates as f64);
    run_registry.gauge_set(crate::keys::PAIRS, pairs.len() as f64);
    if let Some(global) = ssj_observe::global_registry() {
        global.merge_from(&run_registry);
    }
    drop(run_span.field("pairs", pairs.len()));
    FsJoinResult {
        pairs,
        chain,
        filter_stats,
        candidates,
        pivots: Arc::try_unwrap(pivots).unwrap_or_else(|a| (*a).clone()),
        h_pivots: Arc::try_unwrap(h_pivots).unwrap_or_else(|a| (*a).clone()),
        peak_live_bytes,
        deps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FilterSet, JoinKernel};
    use crate::pivots::PivotStrategy;
    use ssj_similarity::naive::naive_self_join;
    use ssj_similarity::pair::compare_results;
    use ssj_text::{encode, RawCorpus, Record, Tokenizer};

    fn tiny_collection() -> Collection {
        let corpus = RawCorpus::from_texts(
            &[
                "the quick brown fox jumps over the lazy dog",
                "the quick brown fox jumps over a lazy dog",
                "completely different words here now",
                "another unrelated record",
                "the quick brown fox jumps over the lazy dog today",
            ],
            &Tokenizer::Words,
        );
        encode(&corpus)
    }

    #[test]
    fn finds_near_duplicates() {
        let c = tiny_collection();
        let res = run_self_join(&c, &FsJoinConfig::default().with_theta(0.7));
        let want = naive_self_join(&c.views(), Measure::Jaccard, 0.7);
        compare_results(&res.pairs, &want, 1e-9).unwrap();
        assert!(res.candidates > 0);
        assert_eq!(res.chain.jobs.len(), 2);
        // The declared plan shape rides along: filter ← input, verify ← filter.
        assert_eq!(res.deps, vec![vec![], vec![0]]);
        // Kernel counters flow out with the filter stats.
        assert!(res.filter_stats.intersections > 0);
        assert!(res.filter_stats.intersect_tokens >= res.filter_stats.intersections);
    }

    #[test]
    fn fragmentation_does_not_change_results() {
        let c = tiny_collection();
        let want = naive_self_join(&c.views(), Measure::Jaccard, 0.6);
        for fragments in [1, 2, 4, 32] {
            let cfg = FsJoinConfig::default()
                .with_theta(0.6)
                .with_fragments(fragments);
            let res = run_self_join(&c, &cfg);
            compare_results(&res.pairs, &want, 1e-9)
                .unwrap_or_else(|e| panic!("fragments={fragments}: {e}"));
        }
    }

    #[test]
    fn kernels_filters_and_strategies_agree() {
        let c = tiny_collection();
        let want = naive_self_join(&c.views(), Measure::Jaccard, 0.7);
        for kernel in JoinKernel::all() {
            for filters in [FilterSet::ALL, FilterSet::NONE] {
                for strategy in PivotStrategy::all() {
                    let cfg = FsJoinConfig::default()
                        .with_theta(0.7)
                        .with_kernel(kernel)
                        .with_filters(filters)
                        .with_pivot_strategy(strategy);
                    let res = run_self_join(&c, &cfg);
                    compare_results(&res.pairs, &want, 1e-9)
                        .unwrap_or_else(|e| panic!("{kernel:?} {filters:?} {strategy:?}: {e}"));
                }
            }
        }
    }

    #[test]
    fn horizontal_on_off_agree() {
        let c = tiny_collection();
        let want = naive_self_join(&c.views(), Measure::Jaccard, 0.7);
        for t in [0, 1, 3, 8] {
            let res = run_self_join(
                &c,
                &FsJoinConfig::default().with_theta(0.7).with_horizontal(t),
            );
            compare_results(&res.pairs, &want, 1e-9).unwrap_or_else(|e| panic!("t={t}: {e}"));
        }
    }

    #[test]
    fn vertical_only_has_no_duplication() {
        // FS-Join-V: map emits each token exactly once, so shuffled bytes
        // stay within the segment-metadata overhead of the input bytes and
        // record expansion equals segments-per-record (no token repeats).
        let c = tiny_collection();
        let cfg = FsJoinConfig::default().with_horizontal(0).with_theta(0.8);
        let res = run_self_join(&c, &cfg);
        let filter = res.chain.job("fsjoin-filter").unwrap();
        let total_tokens: usize = c.total_tokens() as usize;
        // Every shuffled record is one segment costing exactly
        // key(4) + rid(4) + side(1) + len/head/tail(12) + vec prefix(4)
        // = 25 bytes of metadata plus 4 bytes per token. Solving for the
        // token payload proves each token crossed the shuffle EXACTLY once.
        let tokens_shuffled = (filter.shuffle_bytes - 25 * filter.shuffle_records) / 4;
        assert_eq!(tokens_shuffled, total_tokens);

        // With horizontal partitioning, boundary windows re-emit some
        // records: tokens may cross more than once (bounded duplication).
        let res_h = run_self_join(&c, &cfg.clone().with_horizontal(2));
        let filter_h = res_h.chain.job("fsjoin-filter").unwrap();
        let tokens_h = (filter_h.shuffle_bytes - 25 * filter_h.shuffle_records) / 4;
        assert!(tokens_h >= total_tokens);
    }

    #[test]
    fn rs_join_matches_oracle() {
        let r_corpus = RawCorpus::from_texts(
            &["alpha beta gamma delta", "one two three four"],
            &Tokenizer::Words,
        );
        let s_corpus = RawCorpus::from_texts(
            &["alpha beta gamma delta epsilon", "five six seven eight"],
            &Tokenizer::Words,
        );
        let (r, s) = ssj_text::encode::encode_two(&r_corpus, &s_corpus);
        let res = run_rs_join(&r, &s, &FsJoinConfig::default().with_theta(0.7));
        // Oracle with offset ids.
        let offset = r.len() as u32;
        let s_shifted: Vec<Record> = s
            .iter()
            .map(|v| Record::from_sorted(v.id + offset, v.tokens.to_vec()))
            .collect();
        let want =
            ssj_similarity::naive::naive_rs_join(&r.views(), &s_shifted, Measure::Jaccard, 0.7);
        compare_results(&res.pairs, &want, 1e-9).unwrap();
        assert_eq!(res.pairs.len(), 1);
        assert_eq!(res.pairs[0].ids(), (0, offset));
    }

    #[test]
    #[should_panic(expected = "encoded together")]
    fn rs_join_requires_shared_ordering() {
        let a = encode(&RawCorpus::from_texts(&["x y"], &Tokenizer::Words));
        let b = encode(&RawCorpus::from_texts(&["x y z"], &Tokenizer::Words));
        let _ = run_rs_join(&a, &b, &FsJoinConfig::default());
    }

    /// The paper-magnitude emission policy (see [`crate::EmitPolicy`])
    /// must slash candidate volume — and, being unsound, lose recall on
    /// fragmented near-duplicates. This test pins down both effects so the
    /// reproduction claim in EXPERIMENTS.md stays backed by code.
    #[test]
    fn positive_bound_policy_trades_recall_for_volume() {
        use crate::config::EmitPolicy;
        // Near-duplicate pairs whose overlap is spread over many fragments:
        // long records, one token changed.
        let mut records = Vec::new();
        for k in 0..30u32 {
            let base: Vec<u32> = (0..60).map(|i| (k * 97 + i * 13) % 4000).collect();
            let mut rec = Record::new(2 * k, base.clone());
            records.push(rec.clone());
            rec.id = 2 * k + 1;
            if let Some(t) = rec.tokens.pop() {
                let _ = t;
            }
            records.push(Record::new(2 * k + 1, rec.tokens));
        }
        let records: Vec<Record> = records
            .into_iter()
            .enumerate()
            .map(|(i, r)| Record::new(i as u32, r.tokens))
            .collect();
        let mut freqs = vec![0u64; 4000];
        for r in &records {
            for &t in &r.tokens {
                freqs[t as usize] += 1;
            }
        }
        let c = Collection::new(records, freqs, None);
        let exact_cfg = FsJoinConfig::default().with_theta(0.9).with_fragments(16);
        let strict_cfg = exact_cfg
            .clone()
            .with_emit_policy(EmitPolicy::PositiveBoundOnly);
        let exact = run_self_join(&c, &exact_cfg);
        let strict = run_self_join(&c, &strict_cfg);
        let oracle = naive_self_join(&c.views(), Measure::Jaccard, 0.9);
        compare_results(&exact.pairs, &oracle, 1e-9).expect("Exact policy must stay exact");
        assert!(
            strict.candidates < exact.candidates,
            "strict emission must shrink the filter-job output: {} vs {}",
            strict.candidates,
            exact.candidates
        );
        assert!(strict.filter_stats.policy_dropped > 0);
        assert!(
            strict.pairs.len() < exact.pairs.len(),
            "the paper-magnitude policy is provably lossy on fragmented \
             near-duplicates (got {} vs {})",
            strict.pairs.len(),
            exact.pairs.len()
        );
    }

    #[test]
    fn empty_collection_yields_no_pairs() {
        let c = Collection::default();
        let res = run_self_join(&c, &FsJoinConfig::default());
        assert!(res.pairs.is_empty());
        assert_eq!(res.candidates, 0);
    }
}
