//! Result deduplication stage.
//!
//! Signature-based joins (RIDPairsPPJoin, MassJoin) discover the same pair
//! in every reduce group that holds one of its shared signatures, so a
//! final MapReduce stage collapses duplicates — exactly the paper's account
//! of why those pipelines carry an extra job that FS-Join does not need.
//! The stage is appended to the baseline's [`Plan`] so its maps can start
//! partition-by-partition while the kernel's reducers are still running.

use ssj_mapreduce::{Dataset, IdentityMapper, KeepFirst, Plan, StageHandle, StageInput};
use ssj_similarity::SimilarPair;

/// Append the dedup stage to `plan`, consuming `input` (a kernel stage's
/// candidate pairs or an external dataset) and returning the handle to the
/// unique pairs. All duplicates of a pair carry the same exact score, so
/// an identity map plus a keep-first reduce is the whole stage.
pub fn add_dedup_stage(
    plan: &mut Plan,
    input: impl Into<StageInput<(u32, u32), f64>>,
    reduce_tasks: usize,
    name: &str,
) -> StageHandle<(u32, u32), f64> {
    plan.add(
        name,
        input,
        reduce_tasks,
        |_| IdentityMapper::default(),
        |_| KeepFirst::default(),
    )
}

/// Collect a pair dataset into [`SimilarPair`]s sorted by id pair.
pub fn collect_pairs(unique: Dataset<(u32, u32), f64>) -> Vec<SimilarPair> {
    let mut pairs: Vec<SimilarPair> = unique
        .into_records()
        .map(|((a, b), sim)| SimilarPair::new(a, b, sim))
        .collect();
    pairs.sort_unstable_by_key(|p| p.ids());
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_mapreduce::PlanRunner;

    #[test]
    fn removes_duplicates_and_sorts() {
        let data = Dataset::from_records(
            vec![
                ((3u32, 5u32), 0.9),
                ((1, 2), 0.8),
                ((3, 5), 0.9),
                ((3, 5), 0.9),
            ],
            2,
        );
        let mut plan = Plan::new("dedup-test").with_workers(2);
        let unique = add_dedup_stage(&mut plan, data, 2, "dedup-test");
        let mut outcome = PlanRunner::pipelined().run(plan);
        let pairs = collect_pairs(outcome.take_output(unique));
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].ids(), (1, 2));
        assert_eq!(pairs[1].ids(), (3, 5));
        let metrics = outcome.metrics.job("dedup-test").unwrap();
        assert_eq!(metrics.map_input_records(), 4);
        assert_eq!(metrics.reduce_output_records(), 2);
    }
}
