//! The FS-Join driver: wires the filtering and verification MapReduce jobs
//! (paper Algorithm 1 / Figure 3).
//!
//! The ordering phase is performed at encoding time ([`ssj_text::encode()`] /
//! [`ssj_text::encode_mr`]); the driver consumes an already-encoded
//! [`Collection`] whose frequency table *is* the global ordering.

use crate::config::FsJoinConfig;
use crate::filters::FilterStats;
use crate::fragment::{join_fragment, FragmentJoin, JoinKernel};
use crate::horizontal::{h_partitions_for, num_h_partitions, select_h_pivots, JoinRule};
use crate::pivots::select_pivots;
use crate::segment::Segment;
use crate::sweep::{Sweep, SweepMapper, SweepReducer, SweepStats};
use crate::vertical::split_record;
use ssj_mapreduce::{
    ChainMetrics, Dataset, DirectPartitioner, Emitter, GroupValues, HashPartitioner,
    IdentityCombiner, IdentityMapper, Mapper, Plan, PlanMode, PlanRunner, StageHandle,
    StreamingReducer,
};
use ssj_observe::{span, MetricsRegistry, Span};
use ssj_similarity::index::CellIndex;
use ssj_similarity::{collect_pairs, Measure, SimilarPair};
use ssj_text::{Collection, PooledRecord, TokenPool};
use std::sync::Arc;
use std::time::Instant;

/// Everything an FS-Join run produces.
#[derive(Debug, Clone)]
pub struct FsJoinResult {
    /// The similar pairs with exact scores.
    pub pairs: Vec<SimilarPair>,
    /// Engine metrics for the filtering and verification jobs.
    pub chain: ChainMetrics,
    /// Aggregated pruning counters from the fragment joins.
    pub filter_stats: FilterStats,
    /// The Sweep kernel's counters: its pass and its routing (all 0 under
    /// the other kernels and the other joins).
    pub sweep_stats: SweepStats,
    /// Seconds the driver spent deciding pairs before the plan ran: the
    /// Sweep kernel's pass (0 under the other kernels and the other
    /// joins). No task runs it, so [`Self::chain`] does not hold it;
    /// [`Self::simulated_secs`] adds it as serial time ahead of the plan.
    pub driver_secs: f64,
    /// Candidate records emitted by the filtering job (the paper's
    /// Table IV quantity). FS-Join-PF reports the pairs its probe
    /// *discovers*, before the positional bound, the bitmap and
    /// verification settle them (`filter_stats.pairs_considered`); the R×S
    /// join its emissions.
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
    /// Total simulated time on a modelled cluster: the driver's serial
    /// time ([`Self::driver_secs`]) plus the chain's makespan
    /// ([`ssj_mapreduce::ClusterModel::chain_makespan`]).
    pub fn simulated_secs(&self, cluster: &ssj_mapreduce::ClusterModel) -> f64 {
        cluster.chain_makespan(&self.chain) + self.driver_secs
    }
}

/// Filtering-job mapper: vertical + horizontal partitioning of one record
/// (paper Algorithm 1 lines 6–9), built by [`Layout::mapper`] for FS-Join's
/// walk kernels and the prefix-discovery variant ([`crate::pf`]). Tokens
/// are resolved against the run's shared pool (shipped to every task over a
/// [`Broadcast`](ssj_mapreduce::StageEdge) edge); segments are `Copy`
/// spans, so the map phase allocates no token storage.
pub(crate) struct PartitionMapper {
    pool: Arc<TokenPool>,
    pivots: Arc<Vec<u32>>,
    h_pivots: Arc<Vec<u32>>,
    num_fragments: usize,
    measure: Measure,
    theta: f64,
}

impl Mapper for PartitionMapper {
    type InKey = u32;
    type InValue = PooledRecord;
    type OutKey = u32; // cell id = h * num_fragments + v
    type OutValue = Segment;

    fn map(&mut self, _rid: u32, record: PooledRecord, out: &mut Emitter<u32, Segment>) {
        if record.span.is_empty() {
            return;
        }
        let tokens = self.pool.resolve(record.span);
        let hs = h_partitions_for(tokens.len(), &self.h_pivots, self.measure, self.theta);
        let segments = split_record(record.id, 0, tokens, record.span, &self.pivots);
        for &h in &hs {
            for &(v, seg) in &segments {
                out.emit((h * self.num_fragments + v) as u32, seg);
            }
        }
    }
}

/// The filtering job's input: every record of `pool` as its id and span.
pub(crate) fn pooled_records(pool: &TokenPool) -> Vec<(u32, PooledRecord)> {
    (0..pool.len() as u32)
        .map(|id| {
            let span = pool.span_of(id);
            (id, PooledRecord { id, span })
        })
        .collect()
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
/// is 24 bytes/segment with no token movement). The indexed kernels'
/// [`CellIndex`] is reducer-owned the same way: rebuilt per cell into the
/// buffers of the last one.
///
/// The pool is the collection's own arena, so `pool.bitmap_of(seg.rid)` is
/// record `seg.rid`'s signature — what [`FragmentJoin::signatures`] needs.
struct FragmentReducer {
    pool: Arc<TokenPool>,
    cfg: FsJoinConfig,
    h_pivots: Arc<Vec<u32>>,
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
        let before = self.local_stats;
        let join = FragmentJoin::of_run(&self.pool, &self.cfg);
        let records = join_fragment(
            &join,
            &mut self.scratch,
            rule,
            &mut self.index,
            &mut self.local_stats,
        );
        self.local_stats.record_cell(&before, &self.registry);
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
    /// Sums contributions straight off the sorted bucket with no per-key
    /// `Vec`.
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

/// The cell layout of a fragment run (Algorithm 1 lines 2–4): the vertical
/// pivots, the horizontal length pivots and the `(h, v)` cells they span.
pub(crate) struct Layout {
    pub(crate) pivots: Arc<Vec<u32>>,
    /// `pivots.len() + 1`. Small domains may yield fewer pivots than
    /// requested, and reducers derive the horizontal partition from the
    /// cell id, so they must see this effective count, not the requested
    /// one.
    pub(crate) num_fragments: usize,
    pub(crate) h_pivots: Arc<Vec<u32>>,
    pub(crate) num_cells: usize,
}

impl Layout {
    /// Select the pivots of a run over `pool`, whose token frequencies are
    /// `freqs`. Returns the layout with its `ordering` span still open, so
    /// the caller can charge further driver-side set-up to it.
    pub(crate) fn select(pool: &TokenPool, freqs: &[u64], cfg: &FsJoinConfig) -> (Layout, Span) {
        let ordering_span = span("fsjoin.stage", "ordering");
        let pivots = Arc::new(select_pivots(
            freqs,
            cfg.num_fragments.saturating_sub(1),
            cfg.pivot_strategy,
            cfg.seed,
        ));
        let num_fragments = pivots.len() + 1;
        // Length histogram straight off the pool's CSR offsets — no span
        // resolution, no intermediate Vec.
        let h_pivots = Arc::new(select_h_pivots(pool.lengths(), cfg.horizontal_pivots));
        let h_partitions = num_h_partitions(&h_pivots);
        let layout = Layout {
            pivots,
            num_fragments,
            h_pivots,
            num_cells: h_partitions * num_fragments,
        };
        let ordering_span = ordering_span
            .field("fragments", num_fragments)
            .field("h_partitions", h_partitions);
        (layout, ordering_span)
    }

    /// Factory of the filtering job's [`PartitionMapper`]s over this
    /// layout.
    pub(crate) fn mapper(
        &self,
        cfg: &FsJoinConfig,
    ) -> impl Fn(usize, &Arc<TokenPool>) -> PartitionMapper + Send + Sync + 'static {
        let pivots = Arc::clone(&self.pivots);
        let h_pivots = Arc::clone(&self.h_pivots);
        let (num_fragments, measure, theta) = (self.num_fragments, cfg.measure, cfg.theta);
        move |_, pool: &Arc<TokenPool>| PartitionMapper {
            pool: Arc::clone(pool),
            pivots: Arc::clone(&pivots),
            h_pivots: Arc::clone(&h_pivots),
            num_fragments,
            measure,
            theta,
        }
    }

    /// The vertical and horizontal pivots, for the run's result.
    pub(crate) fn into_pivots(self) -> (Vec<u32>, Vec<u32>) {
        let owned = |a: Arc<Vec<u32>>| Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone());
        (owned(self.pivots), owned(self.h_pivots))
    }
}

/// The end of every join run in this crate: run `plan`, collect the output
/// of its stage `out` into sorted pairs, read the [`FilterStats`] and
/// [`SweepStats`] the tasks recorded into `registry`, set the candidate and
/// pair gauges there and merge it into the process-global registry when one
/// is installed. `candidates` is the run's own count, read off the chain
/// and the filter stats; it and the pair count are recorded on `run_span`.
/// The result carries no pivots and no driver time: a run with either adds
/// them.
pub(crate) fn finish(
    plan: Plan,
    out: StageHandle<(u32, u32), f64>,
    mode: PlanMode,
    registry: &MetricsRegistry,
    run_span: &mut Span,
    candidates: impl FnOnce(&ChainMetrics, &FilterStats) -> usize,
) -> FsJoinResult {
    let mut outcome = PlanRunner::new(mode).run(plan);
    let pairs = collect_pairs(outcome.take_output(out).into_records());
    let filter_stats = FilterStats::from_registry(registry);
    let candidates = candidates(&outcome.metrics, &filter_stats);
    registry.gauge_set(crate::keys::CANDIDATES, candidates as f64);
    registry.gauge_set(crate::keys::PAIRS, pairs.len() as f64);
    if let Some(global) = ssj_observe::global_registry() {
        global.merge_from(registry);
    }
    run_span.record("candidates", candidates);
    run_span.record("pairs", pairs.len());
    FsJoinResult {
        pairs,
        filter_stats,
        sweep_stats: SweepStats::from_registry(registry),
        driver_secs: 0.0,
        candidates,
        pivots: Vec::new(),
        h_pivots: Vec::new(),
        peak_live_bytes: outcome.peak_live_bytes,
        deps: outcome.deps().to_vec(),
        chain: outcome.metrics,
    }
}

/// The setup and filtering job of one run (Algorithm 1 lines 2–13): the
/// layout, and a plan whose one stage, `fsjoin-filter`, emits every
/// candidate record.
struct FilterPlan {
    plan: Plan,
    candidates: StageHandle<(u32, u32), (u32, u32, u32)>,
    layout: Layout,
    /// Seconds spent in the Sweep kernel's pass.
    driver_secs: f64,
}

/// Lay out the cells and plan the filtering job over `pool`'s records. The
/// stage's tasks record their counters into `registry`.
fn filter_plan(
    pool: &Arc<TokenPool>,
    freqs: &[u64],
    cfg: &FsJoinConfig,
    registry: &Arc<MetricsRegistry>,
) -> FilterPlan {
    let (layout, ordering_span) = Layout::select(pool, freqs, cfg);
    let cfg_eff = {
        let mut c = cfg.clone();
        c.num_fragments = layout.num_fragments;
        c
    };
    // The Sweep kernel's columns and partner lists, next to the pivots:
    // decided once from the pool, shared read-only by every map task.
    let mut driver_secs = 0.0;
    let sweep = (cfg.kernel == JoinKernel::Sweep).then(|| {
        let start = Instant::now();
        let sweep = Sweep::new(pool, &layout.pivots, &layout.h_pivots, cfg);
        driver_secs = start.elapsed().as_secs_f64();
        sweep.stats().record_to(registry);
        Arc::new(sweep)
    });
    drop(ordering_span);

    // ---- Input dataset ----------------------------------------------------
    // Each input record is just a span — the tokens stay in the shared
    // pool. A PooledRecord's ByteSize still counts id + length prefix +
    // tokens.
    let input = Dataset::from_records(pooled_records(pool), cfg.map_tasks);

    // ---- Filtering job (Algorithm 1 lines 5–13) ----------------------------
    let reduce_tasks = cfg.reduce_tasks.min(layout.num_cells).max(1);
    let mut plan = Plan::new("fsjoin").with_workers(cfg.workers);
    // Ship the token arena to every task over a broadcast edge (the
    // distributed-cache analogue): tasks receive one shared Arc instead of
    // each record carrying an owned token vector, and the runner drops the
    // value the moment its last consumer stage finishes.
    let pool_bcast = plan.broadcast(Arc::clone(pool));
    let candidates = if let Some(sweep) = sweep {
        let map_registry = Arc::clone(registry);
        let registry = Arc::clone(registry);
        plan.add_full_broadcast(
            "fsjoin-filter",
            input,
            pool_bcast,
            reduce_tasks,
            move |_, pool: &Arc<TokenPool>| {
                SweepMapper::new(
                    Arc::clone(pool),
                    Arc::clone(&sweep),
                    Arc::clone(&map_registry),
                )
            },
            move |_, pool: &Arc<TokenPool>| {
                SweepReducer::new(Arc::clone(pool), cfg_eff.clone(), Arc::clone(&registry))
            },
            DirectPartitioner::new(|cell: &u32| *cell as usize),
            None::<IdentityCombiner>,
        )
    } else {
        plan.add_full_broadcast(
            "fsjoin-filter",
            input,
            pool_bcast,
            reduce_tasks,
            layout.mapper(cfg),
            {
                let h_pivots = Arc::clone(&layout.h_pivots);
                let registry = Arc::clone(registry);
                move |_, pool: &Arc<TokenPool>| FragmentReducer {
                    pool: Arc::clone(pool),
                    cfg: cfg_eff.clone(),
                    h_pivots: Arc::clone(&h_pivots),
                    local_stats: FilterStats::default(),
                    registry: Arc::clone(&registry),
                    scratch: Vec::new(),
                    index: CellIndex::default(),
                }
            },
            DirectPartitioner::new(|cell: &u32| *cell as usize),
            None::<IdentityCombiner>,
        )
    };
    FilterPlan {
        plan,
        candidates,
        layout,
        driver_secs,
    }
}

/// Self-join a collection. The collection's token pool is shared with the
/// jobs as-is (an `Arc` clone) — no token is copied to set up the join.
pub fn run_self_join(collection: &Collection, cfg: &FsJoinConfig) -> FsJoinResult {
    cfg.validate();
    let pool = collection.share_pool();
    let mut run_span = span("fsjoin.stage", "run")
        .field("records", pool.len())
        .field("theta", cfg.theta);

    // ---- Plan: filtering → verification -----------------------------------
    // One declarative two-stage plan: the filter stage's reduce partitions
    // feed the verify stage's map splits. Under the default pipelined mode
    // each candidate partition is verified the moment its fragment join
    // completes and dropped right after — the verify job overlaps the
    // filter job's reduce tail instead of waiting behind a barrier.
    //
    // Per-run registry: the filter stage's tasks record pruning counters
    // and per-cell histograms here; the aggregate is read back below and
    // also merged into the process-global registry when one is installed.
    let run_registry = Arc::new(MetricsRegistry::new());
    let FilterPlan {
        mut plan,
        candidates,
        layout,
        driver_secs,
    } = filter_plan(&pool, &collection.token_freqs, cfg, &run_registry);
    let mut filter_span = span("fsjoin.stage", "filter-job").field("cells", layout.num_cells);
    let mut verify_span = span("fsjoin.stage", "verify-job");
    let verified = plan.add_full(
        "fsjoin-verify",
        candidates,
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

    // The candidate count is the filter stage's reduce output — the same
    // quantity `total_records()` reported on the materialized dataset
    // (which pipelining no longer keeps around).
    let result = finish(
        plan,
        verified,
        cfg.plan_mode,
        &run_registry,
        &mut run_span,
        |chain, _| chain.jobs[0].reduce_output_records(),
    );
    filter_span.record("candidates", result.candidates);
    verify_span.record("pairs", result.pairs.len());
    let (pivots, h_pivots) = layout.into_pivots();
    FsJoinResult {
        pivots,
        h_pivots,
        driver_secs,
        ..result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FilterSet;
    use crate::fragment::CandidateRecord;
    use crate::pivots::PivotStrategy;
    use crate::rsjoin::run_rs_join_two_input;
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
        // FS-Join-V under a walk kernel: map emits each token exactly once,
        // so shuffled bytes stay within the segment-metadata overhead of
        // the input bytes and record expansion equals segments-per-record
        // (no token repeats).
        let c = tiny_collection();
        let cfg = FsJoinConfig::default()
            .with_kernel(JoinKernel::Prefix)
            .with_horizontal(0)
            .with_theta(0.8);
        let res = run_self_join(&c, &cfg);
        let filter = res.chain.job("fsjoin-filter").unwrap();
        let total_tokens: usize = c.total_tokens() as usize;
        // Every shuffled record is one segment costing exactly
        // key(4) + rid(4) + len/head/tail(12) + vec prefix(4) = 24 bytes
        // of metadata plus 4 bytes per token. Solving for the token
        // payload proves each token crossed the shuffle EXACTLY once.
        let tokens_shuffled = (filter.shuffle_bytes - 24 * filter.shuffle_records) / 4;
        assert_eq!(tokens_shuffled, total_tokens);

        // With horizontal partitioning, boundary windows re-emit some
        // records: tokens may cross more than once (bounded duplication).
        let res_h = run_self_join(&c, &cfg.clone().with_horizontal(2));
        let filter_h = res_h.chain.job("fsjoin-filter").unwrap();
        let tokens_h = (filter_h.shuffle_bytes - 24 * filter_h.shuffle_records) / 4;
        assert!(tokens_h >= total_tokens);

        // Sweep ships a segment only where a surviving pair meets, with a
        // 4-byte partner count and 4 bytes per listed partner: a subset of
        // the walk's segments, so no token crosses more often.
        let walks = [
            (0, total_tokens, filter.shuffle_records),
            (2, tokens_h, filter_h.shuffle_records),
        ];
        for (t, walk_tokens, walk_segments) in walks {
            let cfg = cfg
                .clone()
                .with_kernel(JoinKernel::Sweep)
                .with_horizontal(t);
            let res = run_self_join(&c, &cfg);
            let sweep = res.sweep_stats;
            let job = res.chain.job("fsjoin-filter").unwrap();
            let tokens =
                (job.shuffle_bytes - 28 * job.shuffle_records - 4 * sweep.listed as usize) / 4;
            assert!(tokens <= walk_tokens, "t={t}");
            assert_eq!(job.shuffle_records as u64, sweep.segments_shipped, "t={t}");
            assert_eq!(
                sweep.segments_shipped + sweep.segments_cut,
                walk_segments as u64,
                "t={t}"
            );
        }
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
        let res = run_rs_join_two_input(&r, &s, &FsJoinConfig::default().with_theta(0.7));
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
        let _ = run_rs_join_two_input(&a, &b, &FsJoinConfig::default());
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

    /// The filter stage's candidate records over `c`, sorted.
    fn filter_candidates(c: &Collection, cfg: &FsJoinConfig) -> Vec<CandidateRecord> {
        let registry = Arc::new(MetricsRegistry::new());
        let filter = filter_plan(&c.share_pool(), &c.token_freqs, cfg, &registry);
        let mut outcome = PlanRunner::new(cfg.plan_mode).run(filter.plan);
        let mut out: Vec<CandidateRecord> = outcome
            .take_output(filter.candidates)
            .into_records()
            .map(|((rid_a, rid_b), (common, len_a, len_b))| CandidateRecord {
                rid_a,
                rid_b,
                common,
                len_a,
                len_b,
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Sweep against the Prefix walk on the 400-record WikiLike bench
    /// corpus, at 16 and 30 fragments with 0 and 4 h-pivots, with the
    /// record-signature step on and off: every pair at or above θ is a
    /// survivor of the pass, Sweep's candidates are a sub-multiset of
    /// Prefix's, and the two emit the same candidates for every such pair,
    /// so pairs and scores are equal. Only pairs below θ may lose
    /// candidates: the pass's prefix and positional bounds drop some that
    /// a local prefix collision lets through. That is counted with the
    /// step off: on this corpus, at its encoded width, the signature drops
    /// every such pair from the walk too. One
    /// fragment (whole records) adds cells where the local prefix is
    /// shorter than the segment, so the collision test decides.
    #[test]
    fn sweep_emits_the_prefix_walks_candidates() {
        use crate::sweep::Sweep;
        use ssj_similarity::pair_digest;
        use ssj_text::CorpusProfile;
        use std::collections::BTreeSet;

        let c = encode(
            &CorpusProfile::WikiLike
                .config()
                .with_records(400)
                .generate(),
        );
        let similar: BTreeSet<(u32, u32)> = naive_self_join(&c.views(), Measure::Jaccard, 0.8)
            .iter()
            .map(SimilarPair::ids)
            .collect();
        assert!(!similar.is_empty());
        // The pass's survivors depend on the records alone.
        let survivors = Sweep::new(c.pool(), &[], &[], &FsJoinConfig::default()).pairs();
        assert!(similar.is_subset(&survivors));
        let mut dropped = 0;
        for fragments in [1, 16, 30] {
            for h in [0, 4] {
                let label = format!("fragments={fragments} h={h}");
                let cfg = FsJoinConfig::default()
                    .with_theta(0.8)
                    .with_fragments(fragments)
                    .with_horizontal(h);
                for (filters, prune) in [FilterSet::ALL, FilterSet::STRL_ONLY]
                    .into_iter()
                    .flat_map(|f| [(f, true), (f, false)])
                {
                    let label = format!("{label} {filters:?} prune={prune}");
                    let cfg = cfg.clone().with_filters(filters).with_bitmap_prune(prune);
                    let prefix = cfg.clone().with_kernel(JoinKernel::Prefix);
                    let sweep = cfg.with_kernel(JoinKernel::Sweep);
                    let (walked, swept) = (
                        filter_candidates(&c, &prefix),
                        filter_candidates(&c, &sweep),
                    );
                    // Both are sorted: a merge finds each swept candidate
                    // among the walked ones.
                    let mut rest = walked.iter();
                    for rec in &swept {
                        assert!(rest.any(|w| w == rec), "{label}: {rec:?}");
                    }
                    let of_similar = |recs: &[CandidateRecord]| -> Vec<CandidateRecord> {
                        recs.iter()
                            .filter(|r| similar.contains(&r.key()))
                            .copied()
                            .collect()
                    };
                    assert_eq!(of_similar(&swept), of_similar(&walked), "{label}");
                    if !prune {
                        dropped += walked.len() - swept.len();
                    }
                    let (a, b) = (run_self_join(&c, &prefix), run_self_join(&c, &sweep));
                    assert_eq!(a.pairs.len(), b.pairs.len(), "{label}");
                    assert_eq!(pair_digest(&a.pairs), pair_digest(&b.pairs), "{label}");
                }
            }
        }
        assert!(dropped > 0, "the pass dropped no candidate below θ");
    }

    /// The driver's serial pass is part of the simulated time: Sweep's
    /// pass adds to the chain's makespan, and PF, which has none, reports
    /// the makespan alone.
    #[test]
    fn simulated_secs_charge_the_driver_pass() {
        use crate::pf::run_self_join_pf;
        use ssj_mapreduce::ClusterModel;

        let c = tiny_collection();
        let cfg = FsJoinConfig::default().with_theta(0.7);
        let cluster = ClusterModel::paper_default(10);
        let sweep = run_self_join(&c, &cfg);
        assert_eq!(cfg.kernel, JoinKernel::Sweep);
        assert!(sweep.driver_secs > 0.0);
        assert_eq!(
            sweep.simulated_secs(&cluster),
            cluster.chain_makespan(&sweep.chain) + sweep.driver_secs
        );
        let pf = run_self_join_pf(&c, &cfg);
        assert_eq!(pf.driver_secs, 0.0);
        assert_eq!(
            pf.simulated_secs(&cluster),
            cluster.chain_makespan(&pf.chain)
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
