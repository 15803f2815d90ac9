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
//! 2. **Positional bound** (PPJoin's, Xiao et al. WWW'08, inside the
//!    probe of [`CellIndex`]): each posting carries its token's record
//!    position, and a pair stays only while the tokens it shared so far
//!    plus the fewer tokens either record has left from the current one
//!    reach α = `min_overlap(θ, |x|, |y|)`. Dropped pairs count as
//!    `position_pruned` and are never verified.
//! 3. **Verification in place**: the discovery task verifies every pair
//!    left against the original records, replicated read-only to every
//!    task (Hadoop distributed-cache style, as MassJoin's Light variant).
//! 4. **Repeat check**: a similar pair is emitted only if its records share
//!    no token before their segments' heads — its smallest shared token
//!    lies in this fragment. Of the fragments that find a pair, exactly
//!    one passes, so no dedup stage follows. The check runs on similar
//!    verdicts only: on long records it costs more than a verify.
//!
//! The cascade per discovered pair is therefore window → position →
//! bitmap → verify → repeat, and its counters obey `pairs_considered =
//! position_pruned + bitmap_pruned + intersections`.
//!
//! Completeness: a θ-similar pair's smallest shared token `t*` lies in
//! both records' global prefixes (the prefix-filter theorem), so both
//! segments in `t*`'s fragment `v*` expose it (segment tokens are prefix
//! tokens iff `head < π`), and the pair co-occurs joinably in exactly one
//! horizontal partition — it is discovered there. No token before `t*` is
//! shared, so the repeat check passes in `v*` and fails in every later
//! fragment. Verification is exact, so precision is exact too, and each
//! similar pair is emitted once. Property-tested against the oracle.
//!
//! The positional bound loses none of these pairs. Take a pair that a
//! fragment decides, i.e. one sharing no token before the segments'
//! heads. Every token it shares lies at or after its first meet in the
//! probe, in both records: a token shared earlier would either have been
//! met earlier in this probe (it would lie in both segments before a
//! global-prefix token, so in both walked prefixes too), or sit before a
//! head, and then the pair belongs to an earlier fragment. So at each meet
//! the tokens shared so far plus the tokens left from the current one in
//! the record with fewer of them bound the pair's whole overlap, and a
//! pair the bound drops cannot reach α. A pair sharing a token before the
//! heads may be dropped here, but the repeat check would have skipped it.

use crate::config::FsJoinConfig;
use crate::driver::{pooled_records, FsJoinResult, PartitionMapper};
use crate::filters::{shares_token, FilterStats};
use crate::fragment::split_cell;
use crate::horizontal::{num_h_partitions, select_h_pivots, JoinRule};
use crate::pivots::select_pivots;
use crate::segment::Segment;
use crate::sweep::SweepStats;
use ssj_mapreduce::{
    Dataset, DirectPartitioner, Emitter, GroupValues, IdentityCombiner, Plan, PlanRunner,
    StreamingReducer,
};
use ssj_observe::{span, MetricsRegistry};
use ssj_similarity::index::{CellIndex, Slot};
use ssj_similarity::{Measure, SimilarPair, Verifier};
use ssj_text::{Collection, TokenPool};
use std::sync::Arc;

/// Number of leading tokens of a segment that belong to its record's
/// global prefix: the record's prefix is its first `π` tokens, the segment
/// starts at offset `head`.
#[inline]
fn global_prefix_in_segment(measure: Measure, theta: f64, seg: &Segment) -> usize {
    let pi = measure.probe_prefix_len(theta, seg.len as usize);
    pi.saturating_sub(seg.head as usize).min(seg.seg_len())
}

/// The plan's one reducer: index global-prefix tokens with their record
/// positions, verify every pair the probe's positional bound leaves, emit
/// the similar pairs this fragment decides (module docs, steps 1–4).
/// Streams each cell's segments into a scratch buffer
/// and the shared [`CellIndex`], both reused across cells (segments are
/// `Copy` spans; neither the engine nor the reducer allocates per key).
/// The shared pool is the record cache: [`Verifier`] reads tokens and,
/// with `bitmap` on, bitmaps from it — identical emissions either way.
/// Counters flow into the run's [`MetricsRegistry`] under the canonical
/// [`crate::keys`] names at task cleanup, like the fragment reducer's.
struct PrefixDiscoveryReducer {
    pool: Arc<TokenPool>,
    verifier: Verifier,
    bitmap: bool,
    num_fragments: usize,
    h_pivots: Arc<Vec<u32>>,
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
    type OutValue = f64;

    fn reduce_group(
        &mut self,
        cell: &u32,
        values: &mut GroupValues<'_, '_, u32, Segment>,
        out: &mut Emitter<(u32, u32), f64>,
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
        // kernels without a signature step, with α for the positional
        // bound. The length window and the bound are the cheap filters: a
        // pair either drops is never verified.
        let (band, long) = split_cell(&mut self.scratch, rule);
        let pool = &*self.pool;
        let Verifier { measure, theta } = self.verifier;
        let as_slot = |s: &Segment| Slot {
            len: s.len,
            head: s.head,
            sig: &[],
            tokens: &s.tokens(pool)[..global_prefix_in_segment(measure, theta, s)],
        };
        self.index.rebuild(0, band.iter().map(as_slot));
        let stats = &mut self.local_stats;
        for (i, probe) in long.unwrap_or(band).iter().enumerate() {
            let end = if long.is_some() { band.len() } else { i };
            let min_len = measure.min_partner_len(theta, probe.len as usize);
            let window = self.index.window(min_len, end);
            let len = probe.len as usize;
            stats.count_probe(self.index.probe(&as_slot(probe), window, |partner_len| {
                (None, measure.min_overlap(theta, partner_len as usize, len))
            }));
            for &slot in self.index.hits() {
                let other = &band[slot as usize];
                let (a, b) = if probe.rid < other.rid {
                    (probe, other)
                } else {
                    (other, probe)
                };
                let (s, t) = (pool.tokens_of(a.rid), pool.tokens_of(b.rid));
                let bits = self
                    .bitmap
                    .then(|| (pool.bitmap_of(a.rid), pool.bitmap_of(b.rid)));
                let verdict = self.verifier.verify(s, t, bits);
                stats.count_verdict(&verdict, s.len(), t.len());
                let Some((_, sim)) = verdict.similar else {
                    continue;
                };
                // The tokens before a segment's head lie in earlier
                // fragments: if the records share one, that fragment decides.
                if shares_token(&s[..a.head as usize], &t[..b.head as usize]) {
                    stats.repeat_skipped += 1;
                    continue;
                }
                stats.emitted += 1;
                out.emit((a.rid, b.rid), sim);
            }
        }
        // Per-cell discovery load and emissions, the histograms the exact
        // driver keeps.
        self.registry.histogram_record(
            crate::keys::FRAGMENT_PAIRS,
            self.local_stats.pairs_considered - before_pairs,
        );
        self.registry.histogram_record(
            crate::keys::FRAGMENT_CANDIDATES,
            self.local_stats.emitted - before_emitted,
        );
    }

    fn cleanup(&mut self, _out: &mut Emitter<(u32, u32), f64>) {
        self.local_stats.record_to(&self.registry);
        self.local_stats = FilterStats::default();
    }
}

/// Self-join with the prefix-discovery variant. Uses the same
/// configuration as [`crate::run_self_join`] (kernel, filters and
/// emit-policy fields are ignored — discovery is always global-prefix).
/// One stage, `fsjoin-pf-discover`; `candidates` counts the pairs
/// *discovered* (`filter_stats.pairs_considered`), before the positional
/// bound, the bitmap and verification settle them.
pub fn run_self_join_pf(collection: &Collection, cfg: &FsJoinConfig) -> FsJoinResult {
    cfg.validate();
    let pool = collection.share_pool();
    let run_span = span("fsjoin.stage", "run-pf")
        .field("records", pool.len())
        .field("theta", cfg.theta);

    let ordering_span = span("fsjoin.stage", "ordering");
    let pivots = Arc::new(select_pivots(
        &collection.token_freqs,
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

    let input = Dataset::from_records(pooled_records(&pool), cfg.map_tasks);

    // One stage, whose output is the result. Per-run registry, same
    // contract as the main driver: discovery tasks record canonical
    // `fsjoin.*` counters here; the aggregate is read back below and
    // merged into the process-global registry when one is installed.
    let run_registry = Arc::new(MetricsRegistry::new());
    let reduce_tasks = cfg.reduce_tasks.min(num_cells).max(1);
    let (measure, theta) = (cfg.measure, cfg.theta);

    let mut plan = Plan::new("fsjoin-pf").with_workers(cfg.workers);
    // One shared arena over a broadcast edge: the mappers cut segments
    // from it, the reducers verify against it (the record cache).
    let pool_bcast = plan.broadcast(Arc::clone(&pool));
    let verified_h = plan.add_full_broadcast(
        "fsjoin-pf-discover",
        input,
        pool_bcast,
        reduce_tasks,
        {
            let pivots = Arc::clone(&pivots);
            let h_pivots = Arc::clone(&h_pivots);
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
            let bitmap = cfg.bitmap_prune;
            move |_, pool: &Arc<TokenPool>| PrefixDiscoveryReducer {
                pool: Arc::clone(pool),
                verifier: Verifier { measure, theta },
                bitmap,
                num_fragments,
                h_pivots: Arc::clone(&h_pivots),
                scratch: Vec::new(),
                index: CellIndex::default(),
                local_stats: FilterStats::default(),
                registry: Arc::clone(&registry),
            }
        },
        DirectPartitioner::new(|cell: &u32| *cell as usize),
        None::<IdentityCombiner>,
    );

    let mut outcome = PlanRunner::new(cfg.plan_mode).run(plan);
    let verified = outcome.take_output(verified_h);
    let peak_live_bytes = outcome.peak_live_bytes;
    let deps = outcome.deps().to_vec();
    let chain = outcome.metrics;

    let mut pairs: Vec<SimilarPair> = verified
        .into_records()
        .map(|((a, b), sim)| SimilarPair::new(a, b, sim))
        .collect();
    pairs.sort_unstable_by_key(|x| x.ids());

    let filter_stats = FilterStats::from_registry(&run_registry);
    let candidates = filter_stats.pairs_considered as usize;
    run_registry.gauge_set(crate::keys::CANDIDATES, candidates as f64);
    run_registry.gauge_set(crate::keys::PAIRS, pairs.len() as f64);
    if let Some(global) = ssj_observe::global_registry() {
        global.merge_from(&run_registry);
    }
    drop(
        run_span
            .field("cells", num_cells)
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
    use ssj_text::CorpusProfile;

    fn wiki(records: usize) -> Collection {
        encode(
            &CorpusProfile::WikiLike
                .config()
                .with_records(records)
                .generate(),
        )
    }

    /// PF's law: every discovered pair ends at the positional bound, the
    /// bitmap or the intersection kernel, and each emission is a pair.
    fn assert_pf_law(res: &FsJoinResult) {
        let s = &res.filter_stats;
        assert_eq!(
            (
                s.position_pruned + s.bitmap_pruned + s.intersections,
                s.emitted
            ),
            (s.pairs_considered, res.pairs.len() as u64),
            "{s:?}"
        );
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
                assert_pf_law(&got);
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
        // closes most of that gap, so it is off on the exact side, under
        // the paper's Prefix kernel).
        let c = wiki(800);
        let cfg = FsJoinConfig::default().with_theta(0.8);
        let exact = run_self_join(
            &c,
            &cfg.clone()
                .with_kernel(crate::JoinKernel::Prefix)
                .with_bitmap_prune(false),
        );
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
        // Declared one-stage plan: discover ← input.
        assert_eq!(res.deps, vec![Vec::<usize>::new()]);
        // Discovery pruning counters and verification kernel counters both
        // flow out through the canonical registry names.
        assert!(res.filter_stats.pairs_considered > 0);
        assert!(res.filter_stats.emitted > 0);
        assert!(res.filter_stats.emitted <= res.filter_stats.pairs_considered);
        assert!(res.filter_stats.intersections > 0);
        assert!(res.filter_stats.intersect_tokens > res.filter_stats.intersections);
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
