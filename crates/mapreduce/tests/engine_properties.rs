//! Property tests for the MapReduce engine: shuffle correctness (every
//! emitted pair reaches exactly the reducer its partitioner chose, exactly
//! once), determinism of results and byte counters, and combiner
//! transparency.

mod common;

use common::run_solo;
use proptest::prelude::*;
use ssj_mapreduce::{
    Dataset, DirectPartitioner, Emitter, GroupValues, HashPartitioner, IdentityCombiner,
    IdentityMapper, PassThrough, Plan, StreamingReducer, SumCombiner,
};

type IdMap = IdentityMapper<u32, u32>;

type Passthrough = PassThrough<u32, u32>;

/// Reducer summing values per key.
struct SumRed;
impl StreamingReducer for SumRed {
    type InKey = u32;
    type InValue = u32;
    type OutKey = u32;
    type OutValue = u32;
    fn reduce_group(
        &mut self,
        k: &u32,
        vs: &mut GroupValues<'_, '_, u32, u32>,
        out: &mut Emitter<u32, u32>,
    ) {
        out.emit(*k, vs.sum());
    }
}

/// Runs `plan` as one sum stage (named after the plan) over `input`,
/// with or without the sum combiner.
fn run_sum(
    mut plan: Plan,
    input: &Dataset<u32, u32>,
    reduce_tasks: usize,
    combine: bool,
) -> (Dataset<u32, u32>, ssj_mapreduce::JobMetrics) {
    let h = plan.add_full(
        plan.name().to_string(),
        input.clone(),
        reduce_tasks,
        |_| IdMap::default(),
        |_| SumRed,
        HashPartitioner,
        combine.then_some(SumCombiner),
    );
    run_solo(plan, h)
}

fn arb_records() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..50, 0u32..1000), 0..200)
}

proptest! {
    /// Every emitted pair appears in the output exactly once (multiset
    /// equality through a passthrough job).
    #[test]
    fn shuffle_delivers_exactly_once(
        records in arb_records(),
        splits in 1usize..6,
        reducers in 1usize..6,
    ) {
        let input = Dataset::from_records(records.clone(), splits);
        let mut plan = Plan::new("pass");
        let h = plan.add("pass", input, reducers, |_| IdMap::default(), |_| Passthrough::default());
        let (out, metrics) = run_solo(plan, h);
        let mut expect = records;
        expect.sort();
        let mut got: Vec<(u32, u32)> = out.into_records().collect();
        got.sort();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(metrics.shuffle_records, metrics.map_output_records());
    }

    /// Each pair lands on the reduce task chosen by the partitioner: with a
    /// DirectPartitioner on the key, output partition p contains only keys
    /// with k % reducers == p.
    #[test]
    fn partitioner_controls_placement(
        records in arb_records(),
        reducers in 1usize..5,
    ) {
        let input = Dataset::from_records(records, 3);
        let mut plan = Plan::new("direct");
        let h = plan.add_full(
            "direct",
            input,
            reducers,
            |_| IdMap::default(),
            |_| Passthrough::default(),
            DirectPartitioner::new(|k: &u32| *k as usize),
            None::<IdentityCombiner>,
        );
        let (out, _) = run_solo(plan, h);
        for (p, part) in out.partitions().iter().enumerate() {
            for (k, _) in part {
                prop_assert_eq!(*k as usize % reducers, p);
            }
        }
    }

    /// Re-running the same job yields byte-identical results and counters
    /// (determinism matters: experiment tables must be reproducible).
    #[test]
    fn jobs_are_deterministic(records in arb_records()) {
        let input = Dataset::from_records(records, 4);
        let (out1, m1) = run_sum(Plan::new("det"), &input, 3, false);
        let (out2, m2) = run_sum(Plan::new("det"), &input, 3, false);
        prop_assert_eq!(out1.partitions(), out2.partitions());
        prop_assert_eq!(m1.shuffle_bytes, m2.shuffle_bytes);
        prop_assert_eq!(m1.shuffle_records, m2.shuffle_records);
    }

    /// A sum combiner must not change the result of a sum reducer, and can
    /// only shrink the shuffle.
    #[test]
    fn combiner_is_transparent(records in arb_records(), splits in 1usize..5) {
        let input = Dataset::from_records(records, splits);
        let (plain, mp) = run_sum(Plan::new("plain"), &input, 3, false);
        let (combined, mc) = run_sum(Plan::new("combined"), &input, 3, true);
        prop_assert_eq!(plain.partitions(), combined.partitions());
        prop_assert!(mc.shuffle_records <= mp.shuffle_records);
        prop_assert!(mc.shuffle_bytes <= mp.shuffle_bytes);
        prop_assert_eq!(mc.pre_combine_records, mp.shuffle_records);
    }

    /// Worker-thread count never affects results or logical byte counts.
    #[test]
    fn worker_count_is_observationally_neutral(records in arb_records()) {
        let input = Dataset::from_records(records, 6);
        let (o1, m1) = run_sum(Plan::new("w1").with_workers(1), &input, 4, false);
        let (o4, m4) = run_sum(Plan::new("w4").with_workers(4), &input, 4, false);
        prop_assert_eq!(o1.partitions(), o4.partitions());
        prop_assert_eq!(m1.shuffle_bytes, m4.shuffle_bytes);
    }
}
