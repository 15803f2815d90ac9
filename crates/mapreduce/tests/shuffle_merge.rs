//! Property tests for the streaming shuffle data plane: the k-way merge
//! must be element-for-element equal to the old concat + stable-sort
//! (including duplicate-key value order — the determinism contract the
//! golden digests in `crates/core/tests/columnar_equivalence.rs` pin), and
//! [`GroupedRuns`] must produce exactly the groups the old group-walk
//! produced. Also checks the end-to-end equivalence of a job driven
//! through a [`StreamingReducer`] against its batch [`Reducer`] twin.

use proptest::prelude::*;
use ssj_mapreduce::{
    CoGroupedRuns, Dataset, Emitter, GroupValues, GroupedRuns, IdentityMapper, JobBuilder,
    KWayMerge, Reducer, StreamingReducer,
};

/// Arbitrary set of sorted runs (what the map phase spills): up to 8 runs
/// of up to 40 pairs each, keys drawn from a small domain so duplicate
/// keys across and within runs are common.
fn arb_sorted_runs() -> impl Strategy<Value = Vec<Vec<(u32, u32)>>> {
    prop::collection::vec(
        prop::collection::vec((0u32..20, 0u32..1000), 0..40).prop_map(|mut run| {
            // Stable sort by key only: within-run value order for equal
            // keys is emission order, exactly like a spill run.
            run.sort_by_key(|&(k, _)| k);
            run
        }),
        0..8,
    )
}

/// The reference semantics the merge must reproduce: concatenate the runs
/// in registration order and stable-sort by key.
fn concat_stable_sort(runs: &[Vec<(u32, u32)>]) -> Vec<(u32, u32)> {
    let mut all: Vec<(u32, u32)> = runs.iter().flatten().copied().collect();
    all.sort_by_key(|a| a.0);
    all
}

/// Arbitrary multi-source run set (what a co-group stage reads): up to 4
/// sides, each contributing up to 4 sorted runs — the sealed reduce runs
/// of N co-partitioned upstreams.
fn arb_sided_runs() -> impl Strategy<Value = Vec<Vec<Vec<(u32, u32)>>>> {
    prop::collection::vec(
        prop::collection::vec(
            prop::collection::vec((0u32..20, 0u32..1000), 0..30).prop_map(|mut run| {
                run.sort_by_key(|&(k, _)| k);
                run
            }),
            0..4,
        ),
        0..4,
    )
}

/// The reference semantics of the co-group merge: what an identity-rekey
/// fan-in map over the same sealed partitions would deliver — side-major
/// concat (edge order, then run order within a side) + stable sort by key,
/// each value tagged with its side.
fn side_major_stable_sort(sides: &[Vec<Vec<(u32, u32)>>]) -> Vec<(u32, (u32, u32))> {
    let mut all: Vec<(u32, (u32, u32))> = sides
        .iter()
        .enumerate()
        .flat_map(|(side, runs)| {
            runs.iter()
                .flatten()
                .map(move |&(k, v)| (k, (side as u32, v)))
        })
        .collect();
    all.sort_by_key(|e| e.0);
    all
}

/// The old reduce-side group-walk over a sorted sequence.
fn group_walk(sorted: &[(u32, u32)]) -> Vec<(u32, Vec<u32>)> {
    let mut groups: Vec<(u32, Vec<u32>)> = Vec::new();
    for &(k, v) in sorted {
        match groups.last_mut() {
            Some((ck, vals)) if *ck == k => vals.push(v),
            _ => groups.push((k, vec![v])),
        }
    }
    groups
}

proptest! {
    /// K-way merge output == concat + stable sort, element for element —
    /// duplicate-key value order included.
    #[test]
    fn merge_equals_concat_stable_sort(runs in arb_sorted_runs()) {
        let slices: Vec<&[(u32, u32)]> = runs.iter().map(Vec::as_slice).collect();
        let merge = KWayMerge::new(slices);
        prop_assert_eq!(merge.total_len(), runs.iter().map(Vec::len).sum::<usize>());
        let merged: Vec<(u32, u32)> = merge.copied().collect();
        prop_assert_eq!(merged, concat_stable_sort(&runs));
    }

    /// GroupedRuns produces exactly the groups the old group-walk produced:
    /// same keys, same order, same values per key.
    #[test]
    fn grouped_runs_match_group_walk(runs in arb_sorted_runs()) {
        let slices: Vec<&[(u32, u32)]> = runs.iter().map(Vec::as_slice).collect();
        let mut streamed: Vec<(u32, Vec<u32>)> = Vec::new();
        GroupedRuns::new(slices).for_each_group(|k, vs| {
            streamed.push((*k, vs.copied().collect()));
        });
        prop_assert_eq!(streamed, group_walk(&concat_stable_sort(&runs)));
    }

    /// Multi-source co-grouping == side-major concat + stable sort, group
    /// for group: the `(key, side, run-within-side)` tie-break the
    /// co-group plan stage contract promises. Side tags inside one group
    /// arrive non-decreasing; within one side, values arrive in run order.
    #[test]
    fn cogrouped_runs_match_side_major_stable_sort(sides in arb_sided_runs()) {
        let slices: Vec<Vec<&[(u32, u32)]>> = sides
            .iter()
            .map(|runs| runs.iter().map(Vec::as_slice).collect())
            .collect();
        let co = CoGroupedRuns::new(slices);
        prop_assert_eq!(
            co.total_len(),
            sides.iter().flatten().map(Vec::len).sum::<usize>()
        );
        let mut streamed: Vec<(u32, Vec<(u32, u32)>)> = Vec::new();
        co.for_each_group(|k, vs| {
            streamed.push((*k, vs.map(|(s, &v)| (s, v)).collect()));
        });
        for (k, tagged) in &streamed {
            assert!(
                tagged.windows(2).all(|w| w[0].0 <= w[1].0),
                "side tags must be non-decreasing within group {k}"
            );
        }
        let mut expect: Vec<(u32, Vec<(u32, u32)>)> = Vec::new();
        for (k, sv) in side_major_stable_sort(&sides) {
            match expect.last_mut() {
                Some((ck, vals)) if *ck == k => vals.push(sv),
                _ => expect.push((k, vec![sv])),
            }
        }
        prop_assert_eq!(streamed, expect);
    }

    /// Co-groups arrive whole even when the consumer reads only a prefix
    /// of each group's side-tagged values (the engine must drain the
    /// remainder without redelivery).
    #[test]
    fn cogroup_partial_consumption_preserves_boundaries(
        sides in arb_sided_runs(),
        take in 0usize..3,
    ) {
        let slices: Vec<Vec<&[(u32, u32)]>> = sides
            .iter()
            .map(|runs| runs.iter().map(Vec::as_slice).collect())
            .collect();
        let mut streamed: Vec<(u32, Vec<(u32, u32)>)> = Vec::new();
        CoGroupedRuns::new(slices).for_each_group(|k, vs| {
            streamed.push((*k, vs.take(take).map(|(s, &v)| (s, v)).collect()));
        });
        let mut expect: Vec<(u32, Vec<(u32, u32)>)> = Vec::new();
        for (k, sv) in side_major_stable_sort(&sides) {
            match expect.last_mut() {
                Some((ck, vals)) if *ck == k => vals.push(sv),
                _ => expect.push((k, vec![sv])),
            }
        }
        let expect: Vec<(u32, Vec<(u32, u32)>)> = expect
            .into_iter()
            .map(|(k, vals)| (k, vals.into_iter().take(take).collect()))
            .collect();
        prop_assert_eq!(streamed, expect);
    }

    /// Same contract on the generic by-reference tree: `u16` keys have no
    /// packed embedding, so they take the fallback path the engine uses
    /// for compound keys (e.g. MassJoin signatures).
    #[test]
    fn merge_equals_concat_stable_sort_generic_path(
        runs in prop::collection::vec(
            prop::collection::vec((0u16..20, 0u32..1000), 0..40).prop_map(|mut run| {
                run.sort_by_key(|&(k, _)| k);
                run
            }),
            0..8,
        )
    ) {
        let slices: Vec<&[(u16, u32)]> = runs.iter().map(Vec::as_slice).collect();
        let merged: Vec<(u16, u32)> = KWayMerge::new(slices).copied().collect();
        let mut all: Vec<(u16, u32)> = runs.iter().flatten().copied().collect();
        all.sort_by_key(|a| a.0);
        prop_assert_eq!(merged, all);
    }

    /// Same contract on the u128-packed path: `(u32, u32)` keys — the
    /// verification job's record-pair keys.
    #[test]
    fn merge_equals_concat_stable_sort_pair_keys(
        runs in prop::collection::vec(
            prop::collection::vec(((0u32..6, 0u32..6), 0u32..1000), 0..40).prop_map(|mut run| {
                run.sort_by_key(|&(k, _)| k);
                run
            }),
            0..8,
        )
    ) {
        let slices: Vec<&[((u32, u32), u32)]> = runs.iter().map(Vec::as_slice).collect();
        let merged: Vec<((u32, u32), u32)> = KWayMerge::new(slices).copied().collect();
        let mut all: Vec<((u32, u32), u32)> = runs.iter().flatten().copied().collect();
        all.sort_by_key(|a| a.0);
        prop_assert_eq!(merged, all);
    }

    /// Same contract for `u64` keys — the ordering job's token ranks, on
    /// `u128` nodes. Keys come from both ends of the range, `u64::MAX`
    /// included, so a real key shares its high half with the
    /// exhausted-run sentinels.
    #[test]
    fn merge_equals_concat_stable_sort_u64_keys(
        runs in prop::collection::vec(
            prop::collection::vec(
                (
                    prop::sample::select(vec![0u64, 1, 2, u64::MAX - 2, u64::MAX - 1, u64::MAX]),
                    0u32..1000,
                ),
                0..40,
            )
            .prop_map(|mut run| {
                run.sort_by_key(|&(k, _)| k);
                run
            }),
            0..8,
        )
    ) {
        let slices: Vec<&[(u64, u32)]> = runs.iter().map(Vec::as_slice).collect();
        let merged: Vec<(u64, u32)> = KWayMerge::new(slices).copied().collect();
        let mut all: Vec<(u64, u32)> = runs.iter().flatten().copied().collect();
        all.sort_by_key(|a| a.0);
        prop_assert_eq!(merged, all);
    }

    /// Groups arrive whole even when the consumer reads only a prefix of
    /// each group's values (the engine must drain the remainder).
    #[test]
    fn partial_consumption_preserves_boundaries(
        runs in arb_sorted_runs(),
        take in 0usize..3,
    ) {
        let slices: Vec<&[(u32, u32)]> = runs.iter().map(Vec::as_slice).collect();
        let mut streamed: Vec<(u32, Vec<u32>)> = Vec::new();
        GroupedRuns::new(slices).for_each_group(|k, vs| {
            streamed.push((*k, vs.take(take).copied().collect()));
        });
        let expect: Vec<(u32, Vec<u32>)> = group_walk(&concat_stable_sort(&runs))
            .into_iter()
            .map(|(k, vals)| (k, vals.into_iter().take(take).collect()))
            .collect();
        prop_assert_eq!(streamed, expect);
    }

    /// End-to-end: a job driven through a native StreamingReducer yields
    /// byte-identical output partitions and metrics to the same job driven
    /// through the equivalent batch Reducer (the adapter path).
    #[test]
    fn streaming_and_batch_reducers_agree(
        records in prop::collection::vec((0u32..30, 0u32..1000), 0..150),
        splits in 1usize..5,
        reducers in 1usize..5,
    ) {
        let input = Dataset::from_records(records, splits);
        let (batch_out, batch_m) = JobBuilder::new("batch")
            .reduce_tasks(reducers)
            .run(&input, |_| IdMap::default(), |_| BatchSum);
        let (stream_out, stream_m) = JobBuilder::new("stream")
            .reduce_tasks(reducers)
            .run(&input, |_| IdMap::default(), |_| StreamSum);
        prop_assert_eq!(batch_out.partitions(), stream_out.partitions());
        prop_assert_eq!(batch_m.shuffle_records, stream_m.shuffle_records);
        prop_assert_eq!(batch_m.shuffle_bytes, stream_m.shuffle_bytes);
    }
}

type IdMap = IdentityMapper<u32, u32>;

/// Batch sum (goes through the Reducer → StreamingReducer adapter).
struct BatchSum;
impl Reducer for BatchSum {
    type InKey = u32;
    type InValue = u32;
    type OutKey = u32;
    type OutValue = u64;
    fn reduce(&mut self, k: &u32, vs: Vec<u32>, out: &mut Emitter<u32, u64>) {
        out.emit(*k, vs.into_iter().map(u64::from).sum());
    }
}

/// Native streaming sum (no per-key materialization anywhere).
struct StreamSum;
impl StreamingReducer for StreamSum {
    type InKey = u32;
    type InValue = u32;
    type OutKey = u32;
    type OutValue = u64;
    fn reduce_group(
        &mut self,
        k: &u32,
        vs: &mut GroupValues<'_, '_, u32, u32>,
        out: &mut Emitter<u32, u64>,
    ) {
        out.emit(*k, vs.map(|&v| u64::from(v)).sum());
    }
}
