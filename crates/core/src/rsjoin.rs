//! R×S similarity join as a **two-input plan**: the first consumer of the
//! plan layer's multi-input stages, and the repo's one R×S join.
//!
//! R and S stay two inputs — no pool is concatenated and no record is
//! tagged with its side. The join is declared the way a distributed engine
//! would plan it:
//!
//! * stage `rsjoin-r-prefix` maps **R only**: each record emits
//!   `(prefix token, entry)` for its probe-prefix tokens, where the entry
//!   is the record's id, length and the token's position in it;
//! * stage `rsjoin-s-prefix` does the same over **S only**, with the same
//!   partitioner and reduce-task count — the two stages are
//!   *co-partitioned*, so prefix token `t` lands in the same partition
//!   index on both sides;
//! * stage `rsjoin-join` consumes **both** prefix stages as a **co-group
//!   stage** ([`Plan::add_cogroup`]): task `i` merges the sealed
//!   partitions `i` of R and S in place (side 0 = R, side 1 = S) — no
//!   re-shuffle reunites records its upstreams already co-partitioned —
//!   and decides every cross pair of a token group in one cascade:
//!   1. **window** — the group's S side is sorted by `(len, id)`, and each
//!      R record meets only the S range StrL admits (two
//!      `partition_point`s with [`crate::filters::strl_pass`] as the
//!      predicate; the rest counts as `window_skipped`);
//!   2. **position** — the group's token sits at `pos_r` and `pos_s`, so
//!      the pair shares at most `1 + min(|r|−pos_r−1, |s|−pos_s−1)` tokens
//!      from it on; below α the pair is pruned;
//!   3. **bitmap** — the records' bitmap signatures (when `bitmap_prune`);
//!   4. **repeat** — a pair whose prefixes `r[..pos_r]` and `s[..pos_s]`
//!      share a token is skipped: the group of its smallest shared token
//!      decides it;
//!   5. **verify** — the exact early-exit intersection.
//!
//! Every similar pair is therefore emitted exactly once and the join's
//! output is the result: no dedup stage, `candidates == pairs`.
//!
//! Record ids live in one concatenated id space: R keeps its ids, S ids
//! are shifted by `|R|`, so a pair `(a, b)` always has `a < |R| ≤ b`. No
//! pool is concatenated for it: a `TwoPools` view holds R's and S's
//! pools as encoded, picks the side of an id by `id < |R|`, and ships to
//! all three stages over one [`Broadcast`](ssj_mapreduce::StageEdge) edge.
//!
//! Completeness is the prefix-filter theorem, two-sided: if
//! `sim(r, s) ≥ θ` then the smallest token the records share lies in the
//! probe prefixes of *both*, so the pair meets in that token's group. No
//! token before it is shared, so the repeat check passes there, and every
//! shared token sits at or after it, so the positional bound holds there.
//! Scores come from the same exact count the PPJoin kernel computes —
//! pair digests match RIDPairsPPJoin run over the concatenated collection
//! and filtered to cross-side pairs, bit for bit.

use crate::config::FsJoinConfig;
use crate::driver::FsJoinResult;
use crate::filters::{shares_token, strl_pass, FilterStats};
use crate::sweep::SweepStats;
use ssj_common::ByteSize;
use ssj_mapreduce::{
    CoGroupReducer, Dataset, Emitter, HashPartitioner, IdentityCombiner, Mapper, PassThrough, Plan,
    PlanRunner, SideGroups,
};
use ssj_observe::{span, MetricsRegistry};
use ssj_similarity::{Measure, Signature, SimilarPair, Verifier};
use ssj_text::{Collection, PooledRecord, TokenPool};
use std::sync::Arc;

/// The prefix stages' shuffle value: a record's id and length, and the
/// position of the group's token in its sorted tokens. 12 bytes in memory,
/// like the [`PooledRecord`] it is mapped from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PrefixEntry {
    id: u32,
    len: u32,
    pos: u32,
}

impl ByteSize for PrefixEntry {
    fn byte_size(&self) -> usize {
        // A wire format ships the record (id + length-prefixed tokens) and
        // the receiver recomputes `pos` from the key and those tokens: the
        // bytes of a `PooledRecord`.
        4 + 4 + 4 * self.len as usize
    }
}

/// R's and S's pools read in place, addressed by the join's concatenated
/// record ids (module docs): ids below `num_r` are R's, the rest S's,
/// shifted by `num_r`.
struct TwoPools {
    r: Arc<TokenPool>,
    s: Arc<TokenPool>,
    num_r: u32,
}

impl TwoPools {
    /// The pool holding record `id`, and the record's id in it.
    #[inline]
    fn side(&self, id: u32) -> (&TokenPool, u32) {
        if id < self.num_r {
            (&self.r, id)
        } else {
            (&self.s, id - self.num_r)
        }
    }

    /// Tokens of record `id`.
    #[inline]
    fn tokens_of(&self, id: u32) -> &[u32] {
        let (pool, rid) = self.side(id);
        pool.tokens_of(rid)
    }

    /// Bitmap of record `id`.
    #[inline]
    fn bitmap_of(&self, id: u32) -> &[u64] {
        let (pool, rid) = self.side(id);
        pool.bitmap_of(rid)
    }

    /// The map input of record `id`: its span is issued by its own side's
    /// pool.
    fn pooled(&self, id: u32) -> PooledRecord {
        let (pool, rid) = self.side(id);
        PooledRecord {
            id,
            span: pool.span_of(rid),
        }
    }

    /// Tokens of a map input record.
    #[inline]
    fn resolve(&self, record: PooledRecord) -> &[u32] {
        self.side(record.id).0.resolve(record.span)
    }
}

/// Prefix-stage mapper: emits `(prefix token, entry)` once per probe-prefix
/// token. One instance serves both sides — the input dataset decides which
/// records it sees.
struct PrefixEmit {
    pools: Arc<TwoPools>,
    measure: Measure,
    theta: f64,
}

impl Mapper for PrefixEmit {
    type InKey = u32;
    type InValue = PooledRecord;
    type OutKey = u32;
    type OutValue = PrefixEntry;

    fn map(&mut self, _rid: u32, record: PooledRecord, out: &mut Emitter<u32, PrefixEntry>) {
        let tokens = self.pools.resolve(record);
        let prefix = self.measure.probe_prefix_len(self.theta, tokens.len());
        for (pos, &t) in tokens[..prefix].iter().enumerate() {
            out.emit(
                t,
                PrefixEntry {
                    id: record.id,
                    len: record.span.len,
                    pos: pos as u32,
                },
            );
        }
    }
}

/// Join-stage reducer: consumes the sealed prefix partitions directly —
/// side 0 is `rsjoin-r-prefix`, side 1 is `rsjoin-s-prefix` (edge order) —
/// and runs the module docs' window → position → bitmap → repeat → verify
/// cascade on every cross pair of a token group, each decision counted
/// into [`FilterStats`]. Pruning counters flow into the run's registry at
/// cleanup, like the self-join's fragment reducer.
struct CrossVerifyCo {
    pools: Arc<TwoPools>,
    verifier: Verifier,
    bitmap: bool,
    local_stats: FilterStats,
    registry: Arc<MetricsRegistry>,
    r_buf: Vec<PrefixEntry>,
    s_buf: Vec<PrefixEntry>,
}

impl CoGroupReducer for CrossVerifyCo {
    type InKey = u32;
    type InValue = PrefixEntry;
    type OutKey = (u32, u32);
    type OutValue = f64;

    fn cogroup(
        &mut self,
        _token: &u32,
        records: &mut SideGroups<'_, '_, u32, PrefixEntry>,
        out: &mut Emitter<(u32, u32), f64>,
    ) {
        self.r_buf.clear();
        self.s_buf.clear();
        for (side, entry) in records {
            if side == 0 {
                self.r_buf.push(*entry);
            } else {
                self.s_buf.push(*entry);
            }
        }
        if self.r_buf.is_empty() || self.s_buf.is_empty() {
            return;
        }
        self.s_buf.sort_unstable_by_key(|s| (s.len, s.id));
        let Verifier { measure, theta } = self.verifier;
        let pools = &*self.pools;
        let stats = &mut self.local_stats;
        for r in &self.r_buf {
            // StrL admits an interval of lengths around |r|.
            let lo = self
                .s_buf
                .partition_point(|s| s.len < r.len && !strl_pass(measure, theta, r.len, s.len));
            let hi = self
                .s_buf
                .partition_point(|s| s.len <= r.len || strl_pass(measure, theta, r.len, s.len));
            stats.window_skipped += (self.s_buf.len() - (hi - lo)) as u64;
            let r_rest = r.len - r.pos - 1;
            // α of the current S length run (no entry has length 0).
            let (mut run_len, mut alpha) = (0u32, 0u32);
            for s in &self.s_buf[lo..hi] {
                stats.pairs_considered += 1;
                if s.len != run_len {
                    run_len = s.len;
                    alpha = measure.min_overlap(theta, r.len as usize, s.len as usize) as u32;
                }
                if 1 + r_rest.min(s.len - s.pos - 1) < alpha {
                    stats.position_pruned += 1;
                    continue;
                }
                if self.bitmap {
                    // Record ids pick their side (id contract above), so
                    // each side's bitmap is a direct lookup.
                    let sig = Verifier::signature(
                        alpha as usize,
                        r.len as usize,
                        s.len as usize,
                        pools.bitmap_of(r.id),
                        pools.bitmap_of(s.id),
                    );
                    stats.bitmap_checks += u64::from(sig.checked());
                    if sig == Signature::Dissimilar {
                        stats.bitmap_pruned += 1;
                        continue;
                    }
                }
                let (ra, sb) = (pools.tokens_of(r.id), pools.tokens_of(s.id));
                if shares_token(&ra[..r.pos as usize], &sb[..s.pos as usize]) {
                    stats.repeat_skipped += 1;
                    continue;
                }
                stats.count_intersection(ra.len(), sb.len());
                if let Some((_, sim)) = self.verifier.verify(ra, sb, None).similar {
                    stats.emitted += 1;
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
/// graph). Both collections must be encoded in one token-rank space
/// ([`ssj_text::encode::encode_two`]), and S-side ids in the returned
/// pairs are offset by `r.len()`: pair `(a, b)` links R-record `a` to
/// S-record `b − r.len()`.
///
/// Of `cfg` it reads `measure`, `theta`, `bitmap_prune`, `map_tasks`,
/// `reduce_tasks`, `workers` and `plan_mode`. The fragment join's knobs —
/// `kernel`, `num_fragments`, `pivot_strategy`, `horizontal_pivots`,
/// `seed`, `filters` and `emit_policy` — have no stage here and are
/// ignored; `cfg` must still pass [`FsJoinConfig::validate`], so a config
/// with `bitmap_prune` off pins a walk kernel.
///
/// The returned [`FsJoinResult`] carries no pivots (`pivots` /
/// `h_pivots` empty — this plan partitions by prefix token, not by
/// fragment), `candidates` counts the join's emissions (each similar pair
/// once, so it equals the pair count), and `deps` records the fan-in shape
/// `[[], [], [0, 1]]`.
pub fn run_rs_join_two_input(r: &Collection, s: &Collection, cfg: &FsJoinConfig) -> FsJoinResult {
    cfg.validate();
    assert_eq!(
        r.token_freqs, s.token_freqs,
        "R and S must be encoded together (shared global ordering)"
    );
    assert_eq!(
        r.pool().bitmap_bits(),
        s.pool().bitmap_bits(),
        "R and S bitmaps must share one width"
    );
    let num_r = r.len();
    let num_s = s.len();
    let pools = Arc::new(TwoPools {
        r: r.share_pool(),
        s: s.share_pool(),
        num_r: num_r as u32,
    });
    let run_span = span("fsjoin.stage", "run-rs2")
        .field("records", num_r + num_s)
        .field("theta", cfg.theta);
    let (measure, theta) = (cfg.measure, cfg.theta);

    let side_input = |lo: usize, hi: usize| -> Dataset<u32, PooledRecord> {
        Dataset::from_records(
            (lo as u32..hi as u32)
                .map(|id| (id, pools.pooled(id)))
                .collect(),
            cfg.map_tasks,
        )
    };
    let r_input = side_input(0, num_r);
    let s_input = side_input(num_r, num_r + num_s);

    let run_registry = Arc::new(MetricsRegistry::new());
    let mut plan = Plan::new("rsjoin").with_workers(cfg.workers);
    let pools_bcast = plan.broadcast(Arc::clone(&pools));
    // Both prefix stages MUST share reduce_tasks and partitioner: the join
    // stage's co-group task i consumes partition i of each.
    let prefix_factory = {
        move |_: usize, pools: &Arc<TwoPools>| PrefixEmit {
            pools: Arc::clone(pools),
            measure,
            theta,
        }
    };
    let h_r = plan.add_full_broadcast(
        "rsjoin-r-prefix",
        r_input,
        pools_bcast,
        cfg.reduce_tasks,
        prefix_factory,
        |_, _: &Arc<TwoPools>| PassThrough::default(),
        HashPartitioner,
        None::<IdentityCombiner>,
    );
    let h_s = plan.add_full_broadcast(
        "rsjoin-s-prefix",
        s_input,
        pools_bcast,
        cfg.reduce_tasks,
        prefix_factory,
        |_, _: &Arc<TwoPools>| PassThrough::default(),
        HashPartitioner,
        None::<IdentityCombiner>,
    );
    let registry = Arc::clone(&run_registry);
    let bitmap = cfg.bitmap_prune;
    let joined = plan.add_cogroup_broadcast(
        "rsjoin-join",
        vec![h_r, h_s],
        pools_bcast,
        move |_, pools: &Arc<TwoPools>| CrossVerifyCo {
            pools: Arc::clone(pools),
            verifier: Verifier { measure, theta },
            bitmap,
            local_stats: FilterStats::default(),
            registry: Arc::clone(&registry),
            r_buf: Vec::new(),
            s_buf: Vec::new(),
        },
    );

    let mut outcome = PlanRunner::new(cfg.plan_mode).run(plan);
    let verified = outcome.take_output(joined);
    let peak_live_bytes = outcome.peak_live_bytes;
    let deps = outcome.deps().to_vec();
    let chain = outcome.metrics;
    // The join's emissions — the cross-pair analogue of the kernel-output
    // candidate count the baselines report.
    let candidates = chain.jobs[2].reduce_output_records();

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
    drop(
        run_span
            .field("candidates", candidates)
            .field("pairs", pairs.len()),
    );
    FsJoinResult {
        pairs,
        chain,
        filter_stats,
        sweep_stats: SweepStats::default(),
        driver_secs: 0.0,
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
    use ssj_similarity::pair::{compare_results, id_pairs};
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

    /// The view over both pools answers every id like the concatenated
    /// pool it replaces, with either side empty too.
    #[test]
    fn two_pools_view_matches_the_concatenated_pool() {
        let (r, s) = rs_corpora(25, 40);
        let none = Collection::from_pool(Arc::default(), r.token_freqs.clone(), None);
        for (r, s) in [(&r, &s), (&none, &s), (&r, &none), (&none, &none)] {
            let view = TwoPools {
                r: r.share_pool(),
                s: s.share_pool(),
                num_r: r.len() as u32,
            };
            let concat = TokenPool::concat(r.pool(), s.pool());
            assert_eq!(concat.len(), r.len() + s.len());
            for id in 0..concat.len() as u32 {
                assert_eq!(view.tokens_of(id), concat.tokens_of(id), "id {id}");
                assert_eq!(view.bitmap_of(id), concat.bitmap_of(id), "id {id}");
                let record = view.pooled(id);
                assert_eq!(record.span.len, concat.span_of(id).len);
                assert_eq!(view.resolve(record), concat.tokens_of(id));
            }
        }
    }

    #[test]
    fn declares_the_fan_in_plan_shape() {
        let (r, s) = rs_corpora(20, 60);
        let res = run_rs_join_two_input(&r, &s, &FsJoinConfig::default().with_theta(0.8));
        assert_eq!(res.chain.jobs.len(), 3);
        assert_eq!(res.chain.jobs[2].name, "rsjoin-join");
        assert_eq!(res.deps, vec![vec![], vec![], vec![0, 1]]);
        assert!(res.pivots.is_empty() && res.h_pivots.is_empty());
        // Each similar pair is emitted once: the join's output is the result.
        assert_eq!(res.candidates, id_pairs(&res.pairs).len());
        // The join stage is a co-group — no map tasks, no shuffle traffic
        // of its own, bytes-saved counter populated.
        let join = &res.chain.jobs[2];
        assert!(join.cogroup);
        assert!(join.map_tasks.is_empty());
        assert_eq!(join.shuffle_bytes, 0);
        assert!(join.cogroup_shuffle_bytes_saved() > 0);
    }

    /// With one reduce partition every token group meets in one co-group
    /// task — results still match the RIDPairs-over-concat oracle bit for
    /// bit, each pair emitted once.
    #[test]
    fn single_partition_matches_ridpairs_over_concat() {
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
        assert_eq!(co.candidates, want.len());
        assert_eq!(co.chain.jobs[2].reduce_tasks.len(), 1);
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
