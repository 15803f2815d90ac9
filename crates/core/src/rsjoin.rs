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
//! * stage `rsjoin-join` consumes **both** prefix stages. By default
//!   ([`FsJoinConfig::rs_cogroup`]) it is a **co-group stage**
//!   ([`Plan::add_cogroup`]): task `i` merges the sealed partitions `i`
//!   of R and S in place (side 0 = R, side 1 = S) and verifies every
//!   cross-side pair per token group — the re-shuffle the old
//!   identity-rekey fan-in paid to reunite records its upstreams had
//!   already co-partitioned is gone. With the flag off, the stage runs
//!   as that rekey fan-in through [`StageInput::Stages`] instead; both
//!   paths share one verification core, so pair digests and filter
//!   verdicts are bit-identical;
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
    CoGroupReducer, Dataset, Emitter, GroupValues, HashPartitioner, IdentityCombiner,
    IdentityMapper, KeepFirst, Mapper, PassThrough, Plan, PlanRunner, SideGroups, StreamingReducer,
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

/// The exact cross-pair verification pipeline shared by both join-stage
/// execution paths ([`CrossVerify`] on the rekey fan-in, [`CrossVerifyCo`]
/// on the co-group stage): string-length filter → the whole-record
/// [`Verifier`] cascade (bitmaps go in when `bitmap` is on), with every
/// decision counted into the same [`FilterStats`]. One code path means the
/// two stages' filter verdicts and scores are bit-identical by
/// construction.
struct CrossVerifyCore {
    pool: Arc<TokenPool>,
    verifier: Verifier,
    bitmap: bool,
    local_stats: FilterStats,
    registry: Arc<MetricsRegistry>,
}

impl CrossVerifyCore {
    /// Verify every (r, s) cross pair of one token group.
    fn verify_group(
        &mut self,
        r_buf: &[PooledRecord],
        s_buf: &[PooledRecord],
        out: &mut Emitter<(u32, u32), f64>,
    ) {
        let Verifier { measure, theta } = self.verifier;
        for r in r_buf {
            for s in s_buf {
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

    /// Flush the task's pruning counters into the run registry.
    fn flush(&mut self) {
        self.local_stats.record_to(&self.registry);
        self.local_stats = FilterStats::default();
    }
}

/// Join-stage reducer (rekey fan-in path): splits each token group by side
/// (`id < |R|` is R — the concat-pool id contract) and verifies every
/// cross pair exactly. Pruning counters flow into the run's registry at
/// cleanup, like the main driver's fragment reducer.
struct CrossVerify {
    core: CrossVerifyCore,
    num_r: u32,
    r_buf: Vec<PooledRecord>,
    s_buf: Vec<PooledRecord>,
}

impl StreamingReducer for CrossVerify {
    type InKey = u32;
    type InValue = PooledRecord;
    type OutKey = (u32, u32);
    type OutValue = f64;

    fn reduce_group(
        &mut self,
        _token: &u32,
        records: &mut GroupValues<'_, '_, u32, PooledRecord>,
        out: &mut Emitter<(u32, u32), f64>,
    ) {
        self.r_buf.clear();
        self.s_buf.clear();
        for rec in records {
            if rec.id < self.num_r {
                self.r_buf.push(*rec);
            } else {
                self.s_buf.push(*rec);
            }
        }
        self.core.verify_group(&self.r_buf, &self.s_buf, out);
    }

    fn cleanup(&mut self, _out: &mut Emitter<(u32, u32), f64>) {
        self.core.flush();
    }
}

/// Join-stage reducer (co-group path): consumes the sealed prefix
/// partitions directly — side 0 is `rsjoin-r-prefix`, side 1 is
/// `rsjoin-s-prefix` (edge order), so the side tag replaces the
/// `id < |R|` split with no re-shuffle in front. The verification core is
/// shared with [`CrossVerify`], so filter verdicts, pruning counters, and
/// scores are bit-identical across the two paths.
struct CrossVerifyCo {
    core: CrossVerifyCore,
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
        self.core.verify_group(&self.r_buf, &self.s_buf, out);
    }

    fn cleanup(&mut self, _out: &mut Emitter<(u32, u32), f64>) {
        self.core.flush();
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
/// and `deps` records the fan-in shape
/// `[[], [], [0, 1], [2]]` — identical on both join-stage paths, since a
/// co-group edge and a rekey shuffle edge express the same dependency.
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
    // stage's map split i consumes partition i of each.
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
    let core_factory = {
        let registry = Arc::clone(&run_registry);
        let bitmap = cfg.bitmap_prune;
        move |pool: &Arc<TokenPool>| CrossVerifyCore {
            pool: Arc::clone(pool),
            verifier: Verifier { measure, theta },
            bitmap,
            local_stats: FilterStats::default(),
            registry: Arc::clone(&registry),
        }
    };
    // Join stage: co-group over the sealed prefix partitions (default) or
    // identity-rekey fan-in with a second shuffle of every prefix record.
    // Same reducer core either way — pair digests are path-invariant.
    let joined = if cfg.rs_cogroup {
        plan.add_cogroup_broadcast(
            "rsjoin-join",
            vec![h_r, h_s],
            pool_bcast,
            move |_, pool: &Arc<TokenPool>| CrossVerifyCo {
                core: core_factory(pool),
                r_buf: Vec::new(),
                s_buf: Vec::new(),
            },
        )
    } else {
        plan.add_full_broadcast(
            "rsjoin-join",
            [h_r, h_s],
            pool_bcast,
            cfg.reduce_tasks,
            |_, _: &Arc<TokenPool>| IdentityMapper::default(),
            move |_, pool: &Arc<TokenPool>| CrossVerify {
                core: core_factory(pool),
                num_r: num_r as u32,
                r_buf: Vec::new(),
                s_buf: Vec::new(),
            },
            HashPartitioner,
            None::<IdentityCombiner>,
        )
    };
    // Dedup: a pair discovered under several shared prefix tokens surfaces
    // in several join partitions, so collapsing duplicates needs a shuffle
    // in general. Only a single join partition makes the input provably
    // pair-partitioned — then the sealed partition co-groups in place.
    let unique = if cfg.rs_cogroup && cfg.reduce_tasks == 1 {
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

    /// Order-independent FNV-1a digest of a sorted pair list (ids + exact
    /// score bits) — the cross-implementation equality witness.
    fn pair_digest(pairs: &[SimilarPair]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for p in pairs {
            let (a, b) = p.ids();
            mix(a as u64);
            mix(b as u64);
            mix(p.sim.to_bits());
        }
        h
    }

    /// RIDPairsPPJoin over the concatenated collection, filtered to
    /// cross-side pairs — the oracle the ISSUE pins the digest against.
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
        // Default path: the join stage is a co-group — no map tasks, no
        // shuffle traffic of its own, bytes-saved counter populated.
        let join = &res.chain.jobs[2];
        assert!(join.cogroup);
        assert!(join.map_tasks.is_empty());
        assert_eq!(join.shuffle_bytes, 0);
        assert!(join.cogroup_shuffle_bytes_saved() > 0);
    }

    /// Both join-stage paths produce bit-identical pairs AND filter
    /// statistics; the co-group path ships zero join-stage shuffle bytes
    /// where the rekey path re-shuffles every prefix record.
    #[test]
    fn cogroup_and_rekey_paths_are_bit_identical() {
        let (r, s) = rs_corpora(40, 120);
        for &theta in &[0.75, 0.85, 0.95] {
            let cogroup = run_rs_join_two_input(
                &r,
                &s,
                &FsJoinConfig::default()
                    .with_theta(theta)
                    .with_rs_cogroup(true),
            );
            let rekey = run_rs_join_two_input(
                &r,
                &s,
                &FsJoinConfig::default()
                    .with_theta(theta)
                    .with_rs_cogroup(false),
            );
            assert_eq!(
                pair_digest(&cogroup.pairs),
                pair_digest(&rekey.pairs),
                "θ={theta} digest mismatch"
            );
            assert_eq!(cogroup.candidates, rekey.candidates, "θ={theta}");
            assert_eq!(
                format!("{:?}", cogroup.filter_stats),
                format!("{:?}", rekey.filter_stats),
                "θ={theta} filter stats diverge"
            );
            // The saved bytes are exactly the rekey join stage's shuffle.
            let co_join = &cogroup.chain.jobs[2];
            let rk_join = &rekey.chain.jobs[2];
            assert!(co_join.cogroup && !rk_join.cogroup);
            assert_eq!(co_join.shuffle_bytes, 0);
            assert!(rk_join.shuffle_bytes > 0);
            assert_eq!(co_join.cogroup_shuffle_bytes_saved(), rk_join.shuffle_bytes);
            let total = |res: &FsJoinResult| -> usize {
                res.chain.jobs.iter().map(|j| j.shuffle_bytes).sum()
            };
            assert!(
                total(&cogroup) < total(&rekey),
                "θ={theta}: co-group total shuffle {} must undercut rekey {}",
                total(&cogroup),
                total(&rekey)
            );
        }
    }

    /// With one reduce partition the join output is pair-partitioned, so
    /// the dedup also runs as a co-group — results still match the rekey
    /// plan exactly.
    #[test]
    fn single_partition_cogroup_dedup_matches() {
        let (r, s) = rs_corpora(30, 90);
        let base = FsJoinConfig::default().with_theta(0.7).with_tasks(4, 1);
        let co = run_rs_join_two_input(&r, &s, &base.clone().with_rs_cogroup(true));
        let rk = run_rs_join_two_input(&r, &s, &base.with_rs_cogroup(false));
        assert_eq!(pair_digest(&co.pairs), pair_digest(&rk.pairs));
        let dedup = &co.chain.jobs[3];
        assert!(dedup.cogroup, "single-partition dedup must co-group");
        assert_eq!(dedup.shuffle_bytes, 0);
        assert!(!rk.chain.jobs[3].cogroup);
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

    /// The ISSUE's acceptance bar: pair digests bit-identical to
    /// RIDPairsPPJoin-over-concat (cross pairs only) at
    /// θ ∈ {0.75, 0.85, 0.95}, in both plan modes.
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
