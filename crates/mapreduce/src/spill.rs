//! Checkpointed map outputs.
//!
//! Hadoop materializes every map task's partitioned, sorted output on the
//! mapper's local disk; reducers *fetch* those spill files over HTTP. The
//! consequence that matters for fault tolerance: a failed reduce attempt
//! only re-fetches — the map phase never re-runs. This module gives the
//! in-process engine the same recovery boundary. The plan runner
//! ([`crate::plan`]) parks each map task's reduce-bucket output in a
//! [`SpillStore`] at shuffle time, and every reduce *attempt* (first try
//! or retry) fetches its input runs from the store.
//!
//! Runs are immutable once registered, so a fetch hands out `Arc`-shared
//! **views**, not deep copies: a retried reduce attempt re-fetches
//! pointers to the same allocations the first attempt read.
//! The replay-identical-input contract is preserved by immutability (the
//! store exposes no `&mut` access to a registered run), and the zero-copy
//! fetch is asserted by test below (`Arc::ptr_eq` across fetches).

use crate::traits::{Key, Value};
use std::sync::Arc;

/// An immutable, `Arc`-shared sorted spill run (one map task's output for
/// one reduce partition).
pub type SharedRun<K, V> = Arc<Vec<(K, V)>>;

/// Checkpointed, partitioned map output: for each reduce task, the sorted
/// runs produced by every map task that emitted into its partition, in
/// map-task order (the k-way merge's determinism tie-break relies on that
/// order).
#[derive(Debug, Clone)]
pub struct SpillStore<K, V> {
    /// `runs[r]` = the sorted runs destined for reduce task `r`.
    runs: Vec<Vec<SharedRun<K, V>>>,
}

impl<K: Key, V: Value> SpillStore<K, V> {
    /// An empty store with `reduce_tasks` partitions.
    pub fn new(reduce_tasks: usize) -> Self {
        SpillStore {
            runs: (0..reduce_tasks).map(|_| Vec::new()).collect(),
        }
    }

    /// Build a store directly from transposed shuffle output
    /// (`inputs[r]` = runs for reduce task `r`).
    pub fn from_runs(inputs: Vec<Vec<Vec<(K, V)>>>) -> Self {
        SpillStore {
            runs: inputs
                .into_iter()
                .map(|part| part.into_iter().map(Arc::new).collect())
                .collect(),
        }
    }

    /// Build a store from already-shared runs (the parallel shuffle
    /// transpose produces these). Empty runs are dropped.
    pub fn from_shared(inputs: Vec<Vec<SharedRun<K, V>>>) -> Self {
        SpillStore {
            runs: inputs
                .into_iter()
                .map(|part| part.into_iter().filter(|run| !run.is_empty()).collect())
                .collect(),
        }
    }

    /// Register one map task's output run for reduce task `r`. Empty runs
    /// are dropped (nothing to fetch).
    pub fn register(&mut self, r: usize, run: Vec<(K, V)>) {
        if !run.is_empty() {
            self.runs[r].push(Arc::new(run));
        }
    }

    /// Number of reduce partitions.
    pub fn reduce_tasks(&self) -> usize {
        self.runs.len()
    }

    /// Number of checkpointed runs for reduce task `r`.
    pub fn run_count(&self, r: usize) -> usize {
        self.runs[r].len()
    }

    /// Fetch the input runs for reduce task `r`: `Arc`-shared views of the
    /// checkpointed runs (no copy), so a retried attempt
    /// sees *the same bytes* the first attempt saw.
    pub fn fetch(&self, r: usize) -> Vec<SharedRun<K, V>> {
        self.runs[r].iter().map(Arc::clone).collect()
    }

    /// Total records checkpointed across all partitions.
    pub fn total_records(&self) -> usize {
        self.runs.iter().flatten().map(|run| run.len()).sum()
    }

    /// Total logical bytes checkpointed across all partitions.
    pub fn total_bytes(&self) -> usize {
        self.runs
            .iter()
            .flatten()
            .flat_map(|run| run.iter())
            .map(|(k, v)| k.byte_size() + v.byte_size())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> SpillStore<u32, u64> {
        let mut s = SpillStore::new(2);
        s.register(0, vec![(1, 10), (3, 30)]);
        s.register(1, vec![(2, 20)]);
        s.register(0, vec![(5, 50)]);
        s.register(1, Vec::new()); // dropped
        s
    }

    fn materialize(runs: &[SharedRun<u32, u64>]) -> Vec<Vec<(u32, u64)>> {
        runs.iter().map(|run| run.to_vec()).collect()
    }

    #[test]
    fn fetch_is_replayable() {
        let s = store();
        let first = s.fetch(0);
        let second = s.fetch(0);
        assert_eq!(first, second, "every attempt sees identical input");
        assert_eq!(
            materialize(&first),
            vec![vec![(1, 10), (3, 30)], vec![(5, 50)]]
        );
    }

    #[test]
    fn fetch_shares_allocations_instead_of_deep_cloning() {
        let s = store();
        let first = s.fetch(0);
        // A reduce attempt reads its runs; nothing it can do mutates the
        // store (runs are behind Arc with no &mut access).
        let consumed: usize = first.iter().map(|run| run.len()).sum();
        assert_eq!(consumed, 3);
        // A second (retried) attempt re-fetches *views of
        // the same allocations* — zero-copy, byte-identical by identity.
        let second = s.fetch(0);
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert!(
                Arc::ptr_eq(a, b),
                "fetch must hand out shared runs, not deep clones"
            );
        }
        assert_eq!(materialize(&first), materialize(&second));
    }

    #[test]
    fn empty_runs_are_dropped() {
        let s = store();
        assert_eq!(s.run_count(1), 1);
        assert_eq!(materialize(&s.fetch(1)), vec![vec![(2, 20)]]);
    }

    #[test]
    fn accounting() {
        let s = store();
        assert_eq!(s.reduce_tasks(), 2);
        assert_eq!(s.total_records(), 4);
        assert_eq!(s.total_bytes(), 4 * (4 + 8)); // u32 key + u64 value
    }

    #[test]
    fn from_runs_round_trip() {
        let s = SpillStore::from_runs(vec![vec![vec![(7u32, 70u64)]], vec![]]);
        assert_eq!(materialize(&s.fetch(0)), vec![vec![(7, 70)]]);
        assert!(s.fetch(1).is_empty());
    }

    #[test]
    fn from_shared_drops_empty_runs() {
        let shared = vec![
            vec![Arc::new(vec![(1u32, 1u64)]), Arc::new(Vec::new())],
            vec![Arc::new(Vec::new())],
        ];
        let s = SpillStore::from_shared(shared);
        assert_eq!(s.run_count(0), 1);
        assert_eq!(s.run_count(1), 0);
    }
}
