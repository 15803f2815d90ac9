//! R×S similarity join as a **two-input plan**: the first consumer of the
//! plan layer's multi-input stages.
//!
//! [`crate::run_rs_join`] folds R and S into one self-join input and tags
//! sides per record. This module instead declares the join the way a
//! distributed engine would plan it:
//!
//! * stage `rsjoin-r-prefix` maps **R only**: each record emits
//!   `(prefix token, record)` for its probe-prefix tokens;
//! * stage `rsjoin-s-prefix` does the same over **S only**, with the same
//!   partitioner and reduce-task count — the two stages are
//!   *co-partitioned*, so prefix token `t` lands in the same partition
//!   index on both sides;
//! * stage `rsjoin-join` consumes **both** prefix stages as a **co-group
//!   stage** ([`Plan::add_cogroup`]): task `i` merges the sealed
//!   partitions `i` of R and S in place (side 0 = R, side 1 = S) and
//!   verifies every cross-side pair per token group — no re-shuffle
//!   reunites records its upstreams already co-partitioned;
//! * stage `rsjoin-dedup` collapses pairs discovered under several shared
//!   prefix tokens (a shuffle stage, except in the single-partition case
//!   where the join output is provably pair-partitioned and the dedup
//!   co-groups the sealed partition in place).
//!
//! Record ids live in the concatenated-pool id space of
//! [`TokenPool::concat`]: R keeps its ids, S ids are shifted by `|R|`, so
//! a pair `(a, b)` always has `a < |R| ≤ b`. The shared arena ships to all
//! three token-touching stages over one [`Broadcast`](ssj_mapreduce::StageEdge)
//! edge.
//!
//! Completeness is the prefix-filter theorem, two-sided: if
//! `sim(r, s) ≥ θ` then the probe prefixes of *both* records contain a
//! common token, so the pair meets in that token's group. Verification is
//! the same threshold-aware cascade the PPJoin kernel runs — pair
//! digests match RIDPairsPPJoin run over the concatenated collection and
//! filtered to cross-side pairs, bit for bit.

use crate::config::FsJoinConfig;
use crate::driver::FsJoinResult;
use crate::filters::FilterStats;
use ssj_mapreduce::{
    CoGroupReducer, Dataset, Emitter, HashPartitioner, IdentityCombiner, IdentityMapper, KeepFirst,
    Mapper, PassThrough, Plan, PlanRunner, SideGroups,
};
use ssj_observe::{span, MetricsRegistry};
use ssj_similarity::{Measure, SimilarPair, Verifier};
use ssj_text::{Collection, PooledRecord, TokenPool};
use std::sync::Arc;

/// Prefix-stage mapper: emits `(prefix token, record)` once per probe-prefix
/// token. One instance serves both sides — the input dataset decides which
/// records it sees.
struct PrefixEmit {
    pool: Arc<TokenPool>,
    measure: Measure,
    theta: f64,
}

impl Mapper for PrefixEmit {
    type InKey = u32;
    type InValue = PooledRecord;
    type OutKey = u32;
    type OutValue = PooledRecord;

    fn map(&mut self, _rid: u32, record: PooledRecord, out: &mut Emitter<u32, PooledRecord>) {
        if record.span.is_empty() {
            return;
        }
        let tokens = self.pool.resolve(record.span);
        let prefix = self.measure.probe_prefix_len(self.theta, tokens.len());
        for &t in &tokens[..prefix] {
            out.emit(t, record);
        }
    }
}

/// Join-stage reducer: consumes the sealed prefix partitions directly —
/// side 0 is `rsjoin-r-prefix`, side 1 is `rsjoin-s-prefix` (edge order) —
/// and verifies every (r, s) cross pair of a token group exactly:
/// string-length filter → the whole-record [`Verifier`] cascade (bitmaps go
/// in when `bitmap` is on), every decision counted into [`FilterStats`].
/// Pruning counters flow into the run's registry at cleanup, like the
/// self-join's fragment reducer.
struct CrossVerifyCo {
    pool: Arc<TokenPool>,
    verifier: Verifier,
    bitmap: bool,
    local_stats: FilterStats,
    registry: Arc<MetricsRegistry>,
    r_buf: Vec<PooledRecord>,
    s_buf: Vec<PooledRecord>,
}

impl CoGroupReducer for CrossVerifyCo {
    type InKey = u32;
    type InValue = PooledRecord;
    type OutKey = (u32, u32);
    type OutValue = f64;

    fn cogroup(
        &mut self,
        _token: &u32,
        records: &mut SideGroups<'_, '_, u32, PooledRecord>,
        out: &mut Emitter<(u32, u32), f64>,
    ) {
        self.r_buf.clear();
        self.s_buf.clear();
        for (side, rec) in records {
            if side == 0 {
                self.r_buf.push(*rec);
            } else {
                self.s_buf.push(*rec);
            }
        }
        let Verifier { measure, theta } = self.verifier;
        for r in &self.r_buf {
            for s in &self.s_buf {
                self.local_stats.pairs_considered += 1;
                if !crate::filters::strl_pass(measure, theta, r.span.len, s.span.len) {
                    self.local_stats.strl_pruned += 1;
                    continue;
                }
                let (ra, sb) = (self.pool.resolve(r.span), self.pool.resolve(s.span));
                // Record ids index the concat pool (id contract above), so
                // each side's bitmap is a direct lookup.
                let bits = self
                    .bitmap
                    .then(|| (self.pool.bitmap_of(r.id), self.pool.bitmap_of(s.id)));
                let verdict = self.verifier.verify(ra, sb, bits);
                self.local_stats.count_verdict(&verdict, ra.len(), sb.len());
                if let Some((_, sim)) = verdict.similar {
                    self.local_stats.emitted += 1;
                    out.emit((r.id, s.id), sim);
                }
            }
        }
    }

    fn cleanup(&mut self, _out: &mut Emitter<(u32, u32), f64>) {
        self.local_stats.record_to(&self.registry);
        self.local_stats = FilterStats::default();
    }
}

/// R×S join declared as a two-input plan (module docs have the stage
/// graph). Same conventions as [`crate::run_rs_join`]: both collections
/// must be encoded in one token-rank space
/// ([`ssj_text::encode::encode_two`]), and S-side ids in the returned
/// pairs are offset by `r.len()`.
///
/// The returned [`FsJoinResult`] carries no pivots (`pivots` /
/// `h_pivots` empty — this plan partitions by prefix token, not by
/// fragment), `candidates` counts verified-pair emissions before dedup,
/// and `deps` records the fan-in shape `[[], [], [0, 1], [2]]`.
pub fn run_rs_join_two_input(r: &Collection, s: &Collection, cfg: &FsJoinConfig) -> FsJoinResult {
    cfg.validate();
    assert_eq!(
        r.token_freqs, s.token_freqs,
        "R and S must be encoded together (shared global ordering)"
    );
    let pool = Arc::new(TokenPool::concat(r.pool(), s.pool()));
    let num_r = r.len();
    let num_s = s.len();
    let run_span = span("fsjoin.stage", "run-rs2")
        .field("records", num_r + num_s)
        .field("theta", cfg.theta);
    let (measure, theta) = (cfg.measure, cfg.theta);

    let side_input = |lo: usize, hi: usize| -> Dataset<u32, PooledRecord> {
        Dataset::from_records(
            (lo..hi)
                .map(|rid| {
                    let rid = rid as u32;
                    (
                        rid,
                        PooledRecord {
                            id: rid,
                            span: pool.span_of(rid),
                        },
                    )
                })
                .collect(),
            cfg.map_tasks,
        )
    };
    let r_input = side_input(0, num_r);
    let s_input = side_input(num_r, num_r + num_s);

    let run_registry = Arc::new(MetricsRegistry::new());
    let prefix_span = span("fsjoin.stage", "rs-prefix-jobs");
    let join_span = span("fsjoin.stage", "rs-join-job");

    let mut plan = Plan::new("rsjoin").with_workers(cfg.workers);
    let pool_bcast = plan.broadcast(Arc::clone(&pool));
    // Both prefix stages MUST share reduce_tasks and partitioner: the join
    // stage's co-group task i consumes partition i of each.
    let prefix_factory = {
        move |_: usize, pool: &Arc<TokenPool>| PrefixEmit {
            pool: Arc::clone(pool),
            measure,
            theta,
        }
    };
    let h_r = plan.add_full_broadcast(
        "rsjoin-r-prefix",
        r_input,
        pool_bcast,
        cfg.reduce_tasks,
        prefix_factory,
        |_, _: &Arc<TokenPool>| PassThrough::default(),
        HashPartitioner,
        None::<IdentityCombiner>,
    );
    let h_s = plan.add_full_broadcast(
        "rsjoin-s-prefix",
        s_input,
        pool_bcast,
        cfg.reduce_tasks,
        prefix_factory,
        |_, _: &Arc<TokenPool>| PassThrough::default(),
        HashPartitioner,
        None::<IdentityCombiner>,
    );
    let registry = Arc::clone(&run_registry);
    let bitmap = cfg.bitmap_prune;
    let joined = plan.add_cogroup_broadcast(
        "rsjoin-join",
        vec![h_r, h_s],
        pool_bcast,
        move |_, pool: &Arc<TokenPool>| CrossVerifyCo {
            pool: Arc::clone(pool),
            verifier: Verifier { measure, theta },
            bitmap,
            local_stats: FilterStats::default(),
            registry: Arc::clone(&registry),
            r_buf: Vec::new(),
            s_buf: Vec::new(),
        },
    );
    // Dedup: a pair discovered under several shared prefix tokens surfaces
    // in several join partitions, so collapsing duplicates needs a shuffle
    // in general. Only a single join partition makes the input provably
    // pair-partitioned — then the sealed partition co-groups in place.
    let unique = if cfg.reduce_tasks == 1 {
        plan.add_cogroup("rsjoin-dedup", vec![joined], |_| KeepFirst::default())
    } else {
        plan.add(
            "rsjoin-dedup",
            joined,
            cfg.reduce_tasks,
            |_| IdentityMapper::default(),
            |_| KeepFirst::default(),
        )
    };

    let mut outcome = PlanRunner::new(cfg.plan_mode).run(plan);
    let verified = outcome.take_output(unique);
    let peak_live_bytes = outcome.peak_live_bytes;
    let deps = outcome.deps().to_vec();
    let chain = outcome.metrics;
    // Verified emissions before dedup — the cross-pair analogue of the
    // kernel-output candidate count the baselines report.
    let candidates = chain.jobs[2].reduce_output_records();
    drop(prefix_span);
    drop(join_span.field("candidates", candidates));

    let mut pairs: Vec<SimilarPair> = verified
        .into_records()
        .map(|((a, b), sim)| SimilarPair::new(a, b, sim))
        .collect();
    pairs.sort_unstable_by_key(|x| x.ids());

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
        pivots: Vec::new(),
        h_pivots: Vec::new(),
        peak_live_bytes,
        deps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_mapreduce::PlanMode;
    use ssj_similarity::naive::naive_rs_join;
    use ssj_similarity::pair::compare_results;
    use ssj_similarity::pair_digest;
    use ssj_text::encode::encode_two;
    use ssj_text::{CorpusProfile, RawCorpus, Record, Tokenizer};

    fn rs_corpora(num_r: usize, num_s: usize) -> (Collection, Collection) {
        let r = CorpusProfile::WikiLike
            .config()
            .with_records(num_r)
            .generate();
        let s = CorpusProfile::WikiLike
            .config()
            .with_records(num_s)
            .with_seed(7)
            .generate();
        encode_two(&r, &s)
    }

    /// RIDPairsPPJoin over the concatenated collection, filtered to
    /// cross-side pairs — the oracle the digest tests pin against.
    fn ridpairs_cross_oracle(
        r: &Collection,
        s: &Collection,
        measure: Measure,
        theta: f64,
    ) -> Vec<SimilarPair> {
        let offset = r.len() as u32;
        let records: Vec<Record> = r
            .iter()
            .map(|v| Record::from_sorted(v.id, v.tokens.to_vec()))
            .chain(
                s.iter()
                    .map(|v| Record::from_sorted(v.id + offset, v.tokens.to_vec())),
            )
            .collect();
        let concat = Collection::new(records, r.token_freqs.clone(), None);
        let res = ssj_baselines::ridpairs::ridpairs_ppjoin(
            &concat,
            measure,
            theta,
            &ssj_baselines::BaselineConfig::default(),
        );
        res.pairs
            .into_iter()
            .filter(|p| {
                let (a, b) = p.ids();
                a < offset && b >= offset
            })
            .collect()
    }

    #[test]
    fn declares_the_fan_in_plan_shape() {
        let (r, s) = rs_corpora(20, 60);
        let res = run_rs_join_two_input(&r, &s, &FsJoinConfig::default().with_theta(0.8));
        assert_eq!(res.chain.jobs.len(), 4);
        assert_eq!(res.chain.jobs[2].name, "rsjoin-join");
        assert_eq!(res.deps, vec![vec![], vec![], vec![0, 1], vec![2]]);
        assert!(res.pivots.is_empty() && res.h_pivots.is_empty());
        // The join stage is a co-group — no map tasks, no shuffle traffic
        // of its own, bytes-saved counter populated.
        let join = &res.chain.jobs[2];
        assert!(join.cogroup);
        assert!(join.map_tasks.is_empty());
        assert_eq!(join.shuffle_bytes, 0);
        assert!(join.cogroup_shuffle_bytes_saved() > 0);
    }

    /// With one reduce partition the join output is pair-partitioned, so
    /// the dedup also runs as a co-group — results still match the
    /// RIDPairs-over-concat oracle bit for bit.
    #[test]
    fn single_partition_cogroup_dedup_matches() {
        // Same seed on both sides: R's documents recur in S, so the oracle
        // has cross pairs to match.
        let (r, s) = encode_two(
            &CorpusProfile::WikiLike.config().with_records(30).generate(),
            &CorpusProfile::WikiLike.config().with_records(90).generate(),
        );
        let cfg = FsJoinConfig::default().with_theta(0.7).with_tasks(4, 1);
        let co = run_rs_join_two_input(&r, &s, &cfg);
        let want = ridpairs_cross_oracle(&r, &s, Measure::Jaccard, 0.7);
        assert!(!want.is_empty());
        assert_eq!(pair_digest(&co.pairs), pair_digest(&want));
        let dedup = &co.chain.jobs[3];
        assert!(dedup.cogroup, "single-partition dedup must co-group");
        assert_eq!(dedup.shuffle_bytes, 0);
    }

    #[test]
    fn matches_naive_rs_oracle() {
        let (r, s) = rs_corpora(40, 120);
        let offset = r.len() as u32;
        let s_shifted: Vec<Record> = s
            .iter()
            .map(|v| Record::from_sorted(v.id + offset, v.tokens.to_vec()))
            .collect();
        for &theta in &[0.6, 0.8] {
            let res = run_rs_join_two_input(&r, &s, &FsJoinConfig::default().with_theta(theta));
            let want = naive_rs_join(&r.views(), &s_shifted, Measure::Jaccard, theta);
            compare_results(&res.pairs, &want, 1e-9).unwrap_or_else(|e| panic!("θ={theta}: {e}"));
        }
    }

    /// Pair digests bit-identical to RIDPairsPPJoin-over-concat (cross
    /// pairs only) at θ ∈ {0.75, 0.85, 0.95}, in both plan modes.
    #[test]
    fn digest_matches_ridpairs_over_concat_in_both_modes() {
        let (r, s) = rs_corpora(40, 150);
        for &theta in &[0.75, 0.85, 0.95] {
            let want = pair_digest(&ridpairs_cross_oracle(&r, &s, Measure::Jaccard, theta));
            for mode in [PlanMode::Pipelined, PlanMode::Sequential] {
                let cfg = FsJoinConfig::default()
                    .with_theta(theta)
                    .with_plan_mode(mode);
                let res = run_rs_join_two_input(&r, &s, &cfg);
                assert_eq!(
                    pair_digest(&res.pairs),
                    want,
                    "θ={theta} mode={mode:?} digest mismatch"
                );
            }
        }
    }

    #[test]
    fn agrees_with_the_single_input_rs_driver() {
        let (r, s) = rs_corpora(30, 90);
        for &theta in &[0.7, 0.9] {
            let cfg = FsJoinConfig::default().with_theta(theta);
            let two = run_rs_join_two_input(&r, &s, &cfg);
            let one = crate::run_rs_join(&r, &s, &cfg);
            compare_results(&two.pairs, &one.pairs, 1e-9)
                .unwrap_or_else(|e| panic!("θ={theta}: {e}"));
        }
    }

    #[test]
    fn empty_sides_yield_no_pairs() {
        let (r, s) = rs_corpora(10, 30);
        let empty = Collection::new(Vec::new(), r.token_freqs.clone(), None);
        let cfg = FsJoinConfig::default().with_theta(0.8);
        assert!(run_rs_join_two_input(&empty, &s, &cfg).pairs.is_empty());
        assert!(run_rs_join_two_input(&r, &empty, &cfg).pairs.is_empty());
    }

    #[test]
    fn exact_duplicates_across_sides() {
        let r_corpus = RawCorpus::from_texts(&["a b c d e", "x y z"], &Tokenizer::Words);
        let s_corpus = RawCorpus::from_texts(&["a b c d e", "p q"], &Tokenizer::Words);
        let (r, s) = encode_two(&r_corpus, &s_corpus);
        let res = run_rs_join_two_input(&r, &s, &FsJoinConfig::default().with_theta(0.99));
        assert_eq!(res.pairs.len(), 1);
        assert_eq!(res.pairs[0].ids(), (0, r.len() as u32));
        assert!((res.pairs[0].sim - 1.0).abs() < 1e-12);
    }
}
