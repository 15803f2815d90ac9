//! Property tests for the MapReduce engine: shuffle correctness (every
//! emitted pair reaches exactly the reducer its partitioner chose, exactly
//! once), determinism of results and byte counters, and combiner
//! transparency.

use proptest::prelude::*;
use ssj_mapreduce::{
    Dataset, DirectPartitioner, Emitter, HashPartitioner, IdentityMapper, JobBuilder, PassThrough,
    Reducer, SumCombiner,
};

type IdMap = IdentityMapper<u32, u32>;

type Passthrough = PassThrough<u32, u32>;

/// Reducer summing values per key.
struct SumRed;
impl Reducer for SumRed {
    type InKey = u32;
    type InValue = u32;
    type OutKey = u32;
    type OutValue = u32;
    fn reduce(&mut self, k: &u32, vs: Vec<u32>, out: &mut Emitter<u32, u32>) {
        out.emit(*k, vs.into_iter().sum());
    }
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
        let (out, metrics) = JobBuilder::new("pass")
            .reduce_tasks(reducers)
            .run(&input, |_| IdMap::default(), |_| Passthrough::default());
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
        let (out, _) = JobBuilder::new("direct")
            .reduce_tasks(reducers)
            .run_partitioned(
                &input,
                |_| IdMap::default(),
                |_| Passthrough::default(),
                DirectPartitioner::new(|k: &u32| *k as usize),
            );
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
        let run = || {
            JobBuilder::new("det")
                .reduce_tasks(3)
                .run(&input, |_| IdMap::default(), |_| SumRed)
        };
        let (out1, m1) = run();
        let (out2, m2) = run();
        prop_assert_eq!(out1.partitions(), out2.partitions());
        prop_assert_eq!(m1.shuffle_bytes, m2.shuffle_bytes);
        prop_assert_eq!(m1.shuffle_records, m2.shuffle_records);
    }

    /// A sum combiner must not change the result of a sum reducer, and can
    /// only shrink the shuffle.
    #[test]
    fn combiner_is_transparent(records in arb_records(), splits in 1usize..5) {
        let input = Dataset::from_records(records, splits);
        let (plain, mp) = JobBuilder::new("plain")
            .reduce_tasks(3)
            .run(&input, |_| IdMap::default(), |_| SumRed);
        let (combined, mc) = JobBuilder::new("combined")
            .reduce_tasks(3)
            .run_full(&input, |_| IdMap::default(), |_| SumRed, HashPartitioner, Some(SumCombiner));
        prop_assert_eq!(plain.partitions(), combined.partitions());
        prop_assert!(mc.shuffle_records <= mp.shuffle_records);
        prop_assert!(mc.shuffle_bytes <= mp.shuffle_bytes);
        prop_assert_eq!(mc.pre_combine_records, mp.shuffle_records);
    }

    /// Worker-thread count never affects results or logical byte counts.
    #[test]
    fn worker_count_is_observationally_neutral(records in arb_records()) {
        let input = Dataset::from_records(records, 6);
        let (o1, m1) = JobBuilder::new("w1")
            .reduce_tasks(4)
            .workers(1)
            .run(&input, |_| IdMap::default(), |_| SumRed);
        let (o4, m4) = JobBuilder::new("w4")
            .reduce_tasks(4)
            .workers(4)
            .run(&input, |_| IdMap::default(), |_| SumRed);
        prop_assert_eq!(o1.partitions(), o4.partitions());
        prop_assert_eq!(m1.shuffle_bytes, m4.shuffle_bytes);
    }
}
