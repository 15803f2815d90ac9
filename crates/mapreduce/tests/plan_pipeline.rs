//! Cross-crate plan-pipelining equivalence.
//!
//! The tentpole invariant of the execution-plan layer: partition-granular
//! pipelining is a pure *scheduling* change. A pipelined [`PlanRunner`]
//! must be observationally identical to the stage-barriered (sequential)
//! run — identical result digests AND identical per-stage logical
//! [`JobMetrics`] — on the real FS-Join pipeline across randomized
//! collections and configurations, and on every baseline pipeline. Only
//! wall-clock durations and peak live-intermediate bytes may differ.

use fsjoin::FsJoinConfig;
use proptest::prelude::*;
use ssj_baselines::massjoin::{massjoin, MassJoinVariant};
use ssj_baselines::ridpairs::ridpairs_ppjoin;
use ssj_baselines::vsmart::vsmart_join;
use ssj_baselines::BaselineConfig;
use ssj_faults::{Fault, FaultPlan, Phase};
use ssj_mapreduce::{
    ChainMetrics, CoGroupReducer, Dataset, Emitter, GroupValues, JobMetrics, LogicalJob, Mapper,
    Plan, PlanMode, PlanRunner, SideGroups, StageHandle, StreamingReducer,
};
use ssj_similarity::{pair_digest, Measure};
use ssj_text::{encode, Collection, CorpusProfile, Record};

fn assert_chains_logically_equal(a: &ChainMetrics, b: &ChainMetrics, label: &str) {
    assert_eq!(a.jobs.len(), b.jobs.len(), "{label}: stage count");
    for (x, y) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(x.logical(), y.logical(), "{label}: stage {}", x.name);
    }
}

/// Strategy: a small collection in rank space with planted near-duplicates
/// so results exist at high thresholds (same construction as the core
/// exactness suite).
fn arb_collection() -> impl Strategy<Value = Collection> {
    (
        prop::collection::vec(prop::collection::vec(0u32..60, 1..20), 2..30),
        prop::collection::vec(0usize..30, 0..8),
    )
        .prop_map(|(base_docs, dup_of)| {
            let mut docs = base_docs;
            let n = docs.len();
            for (k, &src) in dup_of.iter().enumerate() {
                let mut copy = docs[src % n].clone();
                if copy.len() > 1 {
                    copy.remove(k % copy.len());
                }
                copy.push(60 + k as u32);
                docs.push(copy);
            }
            let records: Vec<Record> = docs
                .into_iter()
                .enumerate()
                .map(|(i, toks)| Record::new(i as u32, toks))
                .collect();
            let mut freqs = vec![0u64; 70];
            for r in &records {
                for &t in &r.tokens {
                    freqs[t as usize] += 1;
                }
            }
            // Rank space must be frequency-ascending for Even-TF semantics.
            let mut by_freq: Vec<u32> = (0..70).collect();
            by_freq.sort_by_key(|&t| (freqs[t as usize], t));
            let mut rank_of = vec![0u32; 70];
            for (rank, &t) in by_freq.iter().enumerate() {
                rank_of[t as usize] = rank as u32;
            }
            let records: Vec<Record> = records
                .into_iter()
                .map(|r| {
                    Record::new(
                        r.id,
                        r.tokens.iter().map(|&t| rank_of[t as usize]).collect(),
                    )
                })
                .collect();
            let mut rank_freqs = vec![0u64; 70];
            for r in &records {
                for &t in &r.tokens {
                    rank_freqs[t as usize] += 1;
                }
            }
            Collection::new(records, rank_freqs, None)
        })
}

/// Two collections over one shared rank space (the R×S contract): split an
/// [`arb_collection`]-style doc set, re-id each side densely, share the
/// frequency table.
fn arb_rs_collections() -> impl Strategy<Value = (Collection, Collection)> {
    (arb_collection(), 1usize..10).prop_map(|(c, cut)| {
        let records: Vec<Record> = c.iter().map(|v| v.to_record()).collect();
        let k = (cut % records.len()).max(1);
        let reid = |side: &[Record]| {
            side.iter()
                .enumerate()
                .map(|(i, r)| Record::from_sorted(i as u32, r.tokens.clone()))
                .collect::<Vec<Record>>()
        };
        (
            Collection::new(reid(&records[..k]), c.token_freqs.clone(), None),
            Collection::new(reid(&records[k..]), c.token_freqs.clone(), None),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// FS-Join end-to-end: pipelined and sequential plans produce the same
    /// digest, candidate count, and per-stage logical metrics across
    /// fragment counts, horizontal pivots, and worker counts.
    #[test]
    fn fsjoin_pipelined_matches_sequential(
        c in arb_collection(),
        fragments in prop::sample::select(vec![1usize, 3, 8]),
        h_pivots in prop::sample::select(vec![0usize, 2, 5]),
        workers in prop::sample::select(vec![1usize, 2, 7]),
        theta in prop::sample::select(vec![0.6, 0.8]),
    ) {
        let base = FsJoinConfig::default()
            .with_theta(theta)
            .with_fragments(fragments)
            .with_horizontal(h_pivots)
            .with_tasks(3, 4)
            .with_workers(workers);
        let piped =
            fsjoin::run_self_join(&c, &base.clone().with_plan_mode(PlanMode::Pipelined));
        let seq = fsjoin::run_self_join(&c, &base.with_plan_mode(PlanMode::Sequential));
        prop_assert_eq!(pair_digest(&piped.pairs), pair_digest(&seq.pairs));
        prop_assert_eq!(piped.candidates, seq.candidates);
        prop_assert_eq!(piped.chain.jobs.len(), seq.chain.jobs.len());
        for (a, b) in piped.chain.jobs.iter().zip(&seq.chain.jobs) {
            prop_assert_eq!(a.logical(), b.logical());
        }
    }

    /// The two-input R×S plan (fan-in join stage reading two co-partitioned
    /// upstreams plus a broadcast pool) is equally mode-invariant: identical
    /// digests and per-stage logical metrics at every worker count.
    #[test]
    fn two_input_rsjoin_pipelined_matches_sequential(
        (r, s) in arb_rs_collections(),
        workers in prop::sample::select(vec![1usize, 2, 7]),
        theta in prop::sample::select(vec![0.6, 0.8]),
    ) {
        let base = FsJoinConfig::default()
            .with_theta(theta)
            .with_tasks(3, 4)
            .with_workers(workers);
        let piped = fsjoin::run_rs_join_two_input(
            &r, &s, &base.clone().with_plan_mode(PlanMode::Pipelined));
        let seq = fsjoin::run_rs_join_two_input(
            &r, &s, &base.with_plan_mode(PlanMode::Sequential));
        prop_assert_eq!(&piped.deps, &vec![vec![], vec![], vec![0, 1]]);
        prop_assert_eq!(&piped.deps, &seq.deps);
        prop_assert_eq!(pair_digest(&piped.pairs), pair_digest(&seq.pairs));
        prop_assert_eq!(piped.candidates, seq.candidates);
        // Each pair is emitted once: no duplicates for a dedup to drop.
        prop_assert_eq!(piped.candidates, ssj_similarity::pair::id_pairs(&piped.pairs).len());
        prop_assert_eq!(piped.chain.jobs.len(), seq.chain.jobs.len());
        for (a, b) in piped.chain.jobs.iter().zip(&seq.chain.jobs) {
            prop_assert_eq!(a.logical(), b.logical());
        }
    }
}

/// Every baseline pipeline (2-, 2-, 2- and 3-stage plans) is mode-invariant
/// in results and logical metrics.
#[test]
fn baseline_pipelines_are_mode_invariant() {
    let c = encode(&CorpusProfile::WikiLike.config().with_records(80).generate());
    let piped_cfg = BaselineConfig::default()
        .with_tasks(4, 6)
        .with_workers(2)
        .with_plan_mode(PlanMode::Pipelined);
    let seq_cfg = piped_cfg.with_plan_mode(PlanMode::Sequential);

    let a = ridpairs_ppjoin(&c, Measure::Jaccard, 0.8, &piped_cfg);
    let b = ridpairs_ppjoin(&c, Measure::Jaccard, 0.8, &seq_cfg);
    assert_eq!(
        pair_digest(&a.pairs),
        pair_digest(&b.pairs),
        "ridpairs digest"
    );
    assert_chains_logically_equal(&a.chain, &b.chain, "ridpairs");

    let a = vsmart_join(&c, Measure::Jaccard, 0.8, &piped_cfg).unwrap();
    let b = vsmart_join(&c, Measure::Jaccard, 0.8, &seq_cfg).unwrap();
    assert_eq!(
        pair_digest(&a.pairs),
        pair_digest(&b.pairs),
        "vsmart digest"
    );
    assert_chains_logically_equal(&a.chain, &b.chain, "vsmart");

    for variant in [MassJoinVariant::Merge, MassJoinVariant::MergeLight] {
        let a = massjoin(&c, Measure::Jaccard, 0.8, variant, &piped_cfg).unwrap();
        let b = massjoin(&c, Measure::Jaccard, 0.8, variant, &seq_cfg).unwrap();
        assert_eq!(
            pair_digest(&a.pairs),
            pair_digest(&b.pairs),
            "{variant:?} digest"
        );
        assert_chains_logically_equal(&a.chain, &b.chain, variant.name());
    }
}

// ---------------------------------------------------------------------------
// Fault injection: sealed partitions survive downstream map retries.
// ---------------------------------------------------------------------------

/// Emits each pair as-is (kernel stand-in producing duplicated pairs).
struct PairMapper;

impl Mapper for PairMapper {
    type InKey = u32;
    type InValue = u32;
    type OutKey = (u32, u32);
    type OutValue = u64;

    fn map(&mut self, k: u32, v: u32, out: &mut Emitter<(u32, u32), u64>) {
        // Emit every pair twice, under two shapes, so the dedup-like
        // downstream stage has real work.
        out.emit((k % 7, v % 5), 1);
        out.emit((k % 7, v % 5), 1);
    }
}

/// Sums per pair.
struct PairSum;

impl StreamingReducer for PairSum {
    type InKey = (u32, u32);
    type InValue = u64;
    type OutKey = (u32, u32);
    type OutValue = u64;

    fn reduce_group(
        &mut self,
        k: &(u32, u32),
        vs: &mut GroupValues<'_, '_, (u32, u32), u64>,
        out: &mut Emitter<(u32, u32), u64>,
    ) {
        out.emit(*k, vs.sum());
    }
}

/// Re-keys by count.
struct ByCount;

impl Mapper for ByCount {
    type InKey = (u32, u32);
    type InValue = u64;
    type OutKey = u64;
    type OutValue = u64;

    fn map(&mut self, _k: (u32, u32), c: u64, out: &mut Emitter<u64, u64>) {
        out.emit(c, 1);
    }
}

/// Counts pairs per count bucket.
struct CountPairs;

impl StreamingReducer for CountPairs {
    type InKey = u64;
    type InValue = u64;
    type OutKey = u64;
    type OutValue = u64;

    fn reduce_group(
        &mut self,
        k: &u64,
        vs: &mut GroupValues<'_, '_, u64, u64>,
        out: &mut Emitter<u64, u64>,
    ) {
        out.emit(*k, vs.sum());
    }
}

fn fault_fixture_plan(workers: usize) -> (Plan, StageHandle<u64, u64>) {
    let input: Dataset<u32, u32> = Dataset::from_records(
        (0..64u32)
            .map(|i| (i, i.wrapping_mul(2654435761)))
            .collect(),
        4,
    );
    let mut plan = Plan::new("fault-chain").with_workers(workers);
    let sums = plan.add("pair-sum", input, 5, |_| PairMapper, |_| PairSum);
    let buckets = plan.add("by-count", sums, 3, |_| ByCount, |_| CountPairs);
    (plan, buckets)
}

/// A failed *downstream map* attempt must be satisfied by re-fetching the
/// sealed upstream reduce partition — the upstream reduce is never re-run.
#[test]
fn downstream_map_retry_refetches_sealed_partition() {
    let (clean_plan, clean_h) = fault_fixture_plan(7);
    let mut clean = PlanRunner::pipelined().run(clean_plan);

    let (faulty_plan, faulty_h) = fault_fixture_plan(7);
    let faulty_plan = faulty_plan.with_faults(FaultPlan::new(11).with_target(
        "by-count",
        Phase::Map,
        Fault::Error,
        1,
    ));
    let mut faulty = PlanRunner::pipelined().run(faulty_plan);

    let sort = |d: Dataset<u64, u64>| {
        let mut v: Vec<(u64, u64)> = d.into_records().collect();
        v.sort_unstable();
        v
    };
    assert_eq!(
        sort(clean.take_output(clean_h)),
        sort(faulty.take_output(faulty_h)),
        "retried run must produce identical results"
    );

    let up = &faulty.metrics.jobs[0];
    let down = &faulty.metrics.jobs[1];
    // Upstream: exactly one attempt per task — its reduces were NOT re-run
    // to satisfy the downstream retries.
    assert_eq!(
        up.exec.attempts,
        (up.map_tasks.len() + up.reduce_tasks.len()) as u64,
        "upstream must not re-run"
    );
    assert_eq!(up.exec.retries, 0);
    // Downstream: every map failed once and retried successfully.
    assert_eq!(down.exec.retries, down.map_tasks.len() as u64);
    assert_eq!(down.exec.injected_errors, down.map_tasks.len() as u64);
    // Logical metrics of the clean and faulty runs agree (retries are
    // invisible to the logical counters).
    for (a, b) in clean.metrics.jobs.iter().zip(&faulty.metrics.jobs) {
        let scrub = |m: &JobMetrics| LogicalJob {
            exec: Default::default(),
            ..m.logical()
        };
        assert_eq!(scrub(a), scrub(b), "stage {}", a.name);
    }
}

/// Tags values so the join stage can tell sides apart.
struct TagMapper(u64);

impl Mapper for TagMapper {
    type InKey = u32;
    type InValue = u32;
    type OutKey = u32;
    type OutValue = u64;

    fn map(&mut self, k: u32, v: u32, out: &mut Emitter<u32, u64>) {
        out.emit(k % 11, v as u64 | self.0);
    }
}

/// Sums per key.
struct SumReducer;

impl StreamingReducer for SumReducer {
    type InKey = u32;
    type InValue = u64;
    type OutKey = u32;
    type OutValue = u64;

    fn reduce_group(
        &mut self,
        k: &u32,
        vs: &mut GroupValues<'_, '_, u32, u64>,
        out: &mut Emitter<u32, u64>,
    ) {
        out.emit(*k, vs.sum());
    }
}

/// Identity re-key for the join stage's map phase.
struct Rekey;

impl Mapper for Rekey {
    type InKey = u32;
    type InValue = u64;
    type OutKey = u32;
    type OutValue = u64;

    fn map(&mut self, k: u32, v: u64, out: &mut Emitter<u32, u64>) {
        out.emit(k, v);
    }
}

/// Combines both sides of a key group (side = the tag bit planted by
/// [`TagMapper`]) into one value, so the output provably read both
/// upstreams.
struct SideCombine;

impl StreamingReducer for SideCombine {
    type InKey = u32;
    type InValue = u64;
    type OutKey = u32;
    type OutValue = u64;

    fn reduce_group(
        &mut self,
        k: &u32,
        vs: &mut GroupValues<'_, '_, u32, u64>,
        out: &mut Emitter<u32, u64>,
    ) {
        const TAG: u64 = 1 << 40;
        let (mut left, mut right) = (0u64, 0u64);
        for &v in vs {
            if v & TAG == 0 {
                left += v;
            } else {
                right += v & !TAG;
            }
        }
        out.emit(*k, left.wrapping_mul(3).wrapping_add(right));
    }
}

fn fan_in_fixture_plan(workers: usize) -> (Plan, StageHandle<u32, u64>) {
    let source = |seed: u32| -> Dataset<u32, u32> {
        Dataset::from_records(
            (0..48u32)
                .map(|i| (i ^ seed, i.wrapping_mul(2654435761).wrapping_add(seed)))
                .collect(),
            4,
        )
    };
    let mut plan = Plan::new("fan-in-chain").with_workers(workers);
    // Co-partitioned upstreams: same reduce_tasks, default HashPartitioner.
    let left = plan.add("left-src", source(0), 5, |_| TagMapper(0), |_| SumReducer);
    let right = plan.add(
        "right-src",
        source(97),
        5,
        |_| TagMapper(1 << 40),
        |_| SumReducer,
    );
    let joined = plan.add("fan-in-join", [left, right], 3, |_| Rekey, |_| SideCombine);
    (plan, joined)
}

/// A failed map attempt of a **two-input** join stage must be satisfied by
/// re-fetching BOTH sealed upstream reduce partitions — neither upstream
/// stage re-runs a single task.
#[test]
fn fan_in_map_retry_refetches_both_sealed_partitions() {
    let (clean_plan, clean_h) = fan_in_fixture_plan(7);
    let mut clean = PlanRunner::pipelined().run(clean_plan);

    let (faulty_plan, faulty_h) = fan_in_fixture_plan(7);
    let faulty_plan = faulty_plan.with_faults(FaultPlan::new(23).with_target(
        "fan-in-join",
        Phase::Map,
        Fault::Error,
        1,
    ));
    let mut faulty = PlanRunner::pipelined().run(faulty_plan);

    let sort = |d: Dataset<u32, u64>| {
        let mut v: Vec<(u32, u64)> = d.into_records().collect();
        v.sort_unstable();
        v
    };
    assert_eq!(
        sort(clean.take_output(clean_h)),
        sort(faulty.take_output(faulty_h)),
        "retried fan-in run must produce identical results"
    );
    assert_eq!(faulty.deps(), &[vec![], vec![], vec![0, 1]]);

    // Both upstreams: exactly one attempt per task, zero retries — the
    // join-map retries were fed from the sealed partitions, not re-runs.
    for up in &faulty.metrics.jobs[..2] {
        assert_eq!(
            up.exec.attempts,
            (up.map_tasks.len() + up.reduce_tasks.len()) as u64,
            "upstream {} must not re-run",
            up.name
        );
        assert_eq!(up.exec.retries, 0, "upstream {} retried", up.name);
    }
    // The join stage: every map failed once and retried successfully.
    let down = &faulty.metrics.jobs[2];
    assert_eq!(down.exec.retries, down.map_tasks.len() as u64);
    assert_eq!(down.exec.injected_errors, down.map_tasks.len() as u64);
    for (a, b) in clean.metrics.jobs.iter().zip(&faulty.metrics.jobs) {
        let scrub = |m: &JobMetrics| LogicalJob {
            exec: Default::default(),
            ..m.logical()
        };
        assert_eq!(scrub(a), scrub(b), "stage {}", a.name);
    }
}

/// Sums per key with the side-tag bit preserved: all of a group's values
/// carry the same planted tag (they come from one [`TagMapper`]), so the
/// sum of the *masked* values re-tagged with the group's bit keeps the
/// reduce output classifiable by [`SideCombine`] — unlike a plain sum,
/// where an even group count would cancel the bit.
struct TagSum;

impl StreamingReducer for TagSum {
    type InKey = u32;
    type InValue = u64;
    type OutKey = u32;
    type OutValue = u64;

    fn reduce_group(
        &mut self,
        k: &u32,
        vs: &mut GroupValues<'_, '_, u32, u64>,
        out: &mut Emitter<u32, u64>,
    ) {
        const TAG: u64 = 1 << 40;
        let first = *vs.next().expect("group has at least one value");
        let sum = vs.fold(first & !TAG, |acc, &v| acc + (v & !TAG));
        out.emit(*k, sum | (first & TAG));
    }
}

/// The co-group twin of [`SideCombine`]: classifies by the
/// engine-delivered side tags instead of the planted tag bit (the bit
/// still rides in the right side's values, so it is masked off).
struct SideCombineCo;

impl CoGroupReducer for SideCombineCo {
    type InKey = u32;
    type InValue = u64;
    type OutKey = u32;
    type OutValue = u64;

    fn cogroup(
        &mut self,
        k: &u32,
        values: &mut SideGroups<'_, '_, u32, u64>,
        out: &mut Emitter<u32, u64>,
    ) {
        const TAG: u64 = 1 << 40;
        let (mut left, mut right) = (0u64, 0u64);
        for (side, &v) in values {
            if side == 0 {
                left += v;
            } else {
                right += v & !TAG;
            }
        }
        out.emit(*k, left.wrapping_mul(3).wrapping_add(right));
    }
}

/// Two tag-preserving upstream stages plus either a co-group join (side
/// tags from the engine) or a rekey fan-in join (side tags from the
/// planted bit) — the pair of plans the fault test proves equivalent.
fn two_source_plan(workers: usize, cogroup: bool) -> (Plan, StageHandle<u32, u64>) {
    let source = |seed: u32| -> Dataset<u32, u32> {
        Dataset::from_records(
            (0..48u32)
                .map(|i| (i ^ seed, i.wrapping_mul(2654435761).wrapping_add(seed)))
                .collect(),
            4,
        )
    };
    let mut plan = Plan::new("two-source-chain").with_workers(workers);
    let left = plan.add("left-src", source(0), 5, |_| TagMapper(0), |_| TagSum);
    let right = plan.add(
        "right-src",
        source(97),
        5,
        |_| TagMapper(1 << 40),
        |_| TagSum,
    );
    let joined = if cogroup {
        plan.add_cogroup("co-join", vec![left, right], |_| SideCombineCo)
    } else {
        plan.add("co-join", [left, right], 3, |_| Rekey, |_| SideCombine)
    };
    (plan, joined)
}

/// A failed **co-group** task attempt must be satisfied by re-fetching the
/// sealed reduce partitions of BOTH upstreams — zero upstream re-runs —
/// and the co-group plan must produce exactly what the rekey fan-in plan
/// over the same sources produces.
#[test]
fn cogroup_retry_refetches_sealed_partitions_without_upstream_reruns() {
    let sort = |d: Dataset<u32, u64>| {
        let mut v: Vec<(u32, u64)> = d.into_records().collect();
        v.sort_unstable();
        v
    };

    // Baseline: rekey fan-in over identical sources — same combined output.
    let (rekey_plan, rekey_h) = two_source_plan(7, false);
    let mut rekey = PlanRunner::pipelined().run(rekey_plan);
    let (clean_plan, clean_h) = two_source_plan(7, true);
    let mut clean = PlanRunner::pipelined().run(clean_plan);
    let expected = sort(clean.take_output(clean_h));
    assert_eq!(
        expected,
        sort(rekey.take_output(rekey_h)),
        "co-group and rekey fan-in must combine identically"
    );

    let (faulty_plan, faulty_h) = two_source_plan(7, true);
    let faulty_plan = faulty_plan.with_faults(FaultPlan::new(31).with_target(
        "co-join",
        Phase::Reduce,
        Fault::Error,
        1,
    ));
    let mut faulty = PlanRunner::pipelined().run(faulty_plan);
    assert_eq!(
        expected,
        sort(faulty.take_output(faulty_h)),
        "retried co-group run must produce identical results"
    );
    assert_eq!(faulty.deps(), &[vec![], vec![], vec![0, 1]]);

    // Both upstreams: one attempt per task, zero retries — the co-group
    // retries re-fetched the sealed Arcs instead of re-running producers.
    for up in &faulty.metrics.jobs[..2] {
        assert_eq!(
            up.exec.attempts,
            (up.map_tasks.len() + up.reduce_tasks.len()) as u64,
            "upstream {} must not re-run",
            up.name
        );
        assert_eq!(up.exec.retries, 0, "upstream {} retried", up.name);
    }
    // The co-group stage: every task failed once and retried successfully.
    let down = &faulty.metrics.jobs[2];
    assert!(down.cogroup && down.map_tasks.is_empty());
    assert_eq!(down.exec.retries, down.reduce_tasks.len() as u64);
    assert_eq!(down.exec.injected_errors, down.reduce_tasks.len() as u64);
    for (a, b) in clean.metrics.jobs.iter().zip(&faulty.metrics.jobs) {
        let scrub = |m: &JobMetrics| LogicalJob {
            exec: Default::default(),
            ..m.logical()
        };
        assert_eq!(scrub(a), scrub(b), "stage {}", a.name);
    }
}
