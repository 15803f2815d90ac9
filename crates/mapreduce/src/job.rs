//! Single-job entry point: [`JobBuilder`] declares one job as a one-stage
//! [`Plan`] and runs it on the [`PlanRunner`]. The task bodies, spans, byte
//! accounting, retry and fault injection all live in [`crate::plan`]; what
//! stays here is the builder, the [`IdentityCombiner`], and the map-side
//! combine walk ([`combine_runs`]) the plan's map tasks call.

use crate::dataset::Dataset;
use crate::executor::default_workers;
use crate::metrics::JobMetrics;
use crate::partitioner::{HashPartitioner, Partitioner};
use crate::plan::{Plan, PlanRunner};
use crate::traits::{Combiner, Key, Mapper, StreamingReducer, Value};
use ssj_common::ByteSize;
use ssj_faults::{FaultPlan, RetryPolicy};

/// A combiner that passes values through unchanged (no combining).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityCombiner;

impl<K: Key, V: Value> Combiner<K, V> for IdentityCombiner {
    fn combine(&self, _key: &K, values: Vec<V>) -> Vec<V> {
        values
    }

    fn combine_into(&self, _key: &K, values: &mut dyn Iterator<Item = V>, out: &mut Vec<V>) {
        out.extend(values);
    }
}

/// Configures and runs one MapReduce job: a one-stage [`Plan`] under a
/// job-shaped builder.
///
/// One map task is created per input-dataset partition (use
/// [`Dataset::repartition`] to control map parallelism); the number of
/// reduce tasks is set with [`JobBuilder::reduce_tasks`] (the paper sets it
/// to 3 × the node count). The `run*` methods declare the job as the only
/// stage of a plan named after it and hand it to the [`PlanRunner`], so a
/// standalone job and a stage of a larger DAG execute the same task bodies
/// on the same scheduler.
#[derive(Debug, Clone)]
pub struct JobBuilder {
    name: String,
    reduce_tasks: usize,
    workers: usize,
    retry: RetryPolicy,
    faults: Option<FaultPlan>,
}

impl JobBuilder {
    /// Start configuring a job.
    pub fn new(name: impl Into<String>) -> Self {
        JobBuilder {
            name: name.into(),
            reduce_tasks: 4,
            workers: default_workers(),
            retry: RetryPolicy::default(),
            faults: None,
        }
    }

    /// Set the number of reduce tasks (default 4).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn reduce_tasks(mut self, n: usize) -> Self {
        assert!(n > 0, "a job needs at least one reduce task");
        self.reduce_tasks = n;
        self
    }

    /// Set the number of host worker threads used to execute tasks
    /// (default: available parallelism). This affects only real wall-clock,
    /// never results or byte counters.
    pub fn workers(mut self, n: usize) -> Self {
        assert!(n > 0, "a job needs at least one worker thread");
        self.workers = n;
        self
    }

    /// Set the per-task retry budget and backoff (default: 4 attempts with
    /// exponential backoff, Hadoop's `mapred.map.max.attempts`).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Inject faults from a deterministic [`FaultPlan`] into this job's
    /// task attempts. When unset, the job still honours a process-global
    /// plan installed via [`ssj_faults::install_plan`] (how
    /// `crates/bench/tests/chaos.rs` drives an unmodified pipeline).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Run with the default [`HashPartitioner`] and no combiner.
    pub fn run<M, R, FM, FR>(
        &self,
        input: &Dataset<M::InKey, M::InValue>,
        mapper: FM,
        reducer: FR,
    ) -> (Dataset<R::OutKey, R::OutValue>, JobMetrics)
    where
        M: Mapper + 'static,
        R: StreamingReducer<InKey = M::OutKey, InValue = M::OutValue> + 'static,
        FM: Fn(usize) -> M + Send + Sync + 'static,
        FR: Fn(usize) -> R + Send + Sync + 'static,
        M::InKey: Clone + Sync + ByteSize,
        M::InValue: Clone + Sync + ByteSize,
    {
        self.run_full(
            input,
            mapper,
            reducer,
            HashPartitioner,
            None::<IdentityCombiner>,
        )
    }

    /// Run with a custom partitioner and no combiner.
    pub fn run_partitioned<M, R, P, FM, FR>(
        &self,
        input: &Dataset<M::InKey, M::InValue>,
        mapper: FM,
        reducer: FR,
        partitioner: P,
    ) -> (Dataset<R::OutKey, R::OutValue>, JobMetrics)
    where
        M: Mapper + 'static,
        R: StreamingReducer<InKey = M::OutKey, InValue = M::OutValue> + 'static,
        P: Partitioner<M::OutKey> + Send + Sync + 'static,
        FM: Fn(usize) -> M + Send + Sync + 'static,
        FR: Fn(usize) -> R + Send + Sync + 'static,
        M::InKey: Clone + Sync + ByteSize,
        M::InValue: Clone + Sync + ByteSize,
    {
        self.run_full(
            input,
            mapper,
            reducer,
            partitioner,
            None::<IdentityCombiner>,
        )
    }

    /// Run with a custom partitioner and an optional map-side combiner.
    ///
    /// # Panics
    /// Panics with the [`TaskFailure`](crate::TaskFailure) message if a
    /// task exhausts its retry budget.
    pub fn run_full<M, R, P, C, FM, FR>(
        &self,
        input: &Dataset<M::InKey, M::InValue>,
        mapper: FM,
        reducer: FR,
        partitioner: P,
        combiner: Option<C>,
    ) -> (Dataset<R::OutKey, R::OutValue>, JobMetrics)
    where
        M: Mapper + 'static,
        R: StreamingReducer<InKey = M::OutKey, InValue = M::OutValue> + 'static,
        P: Partitioner<M::OutKey> + Send + Sync + 'static,
        C: Combiner<M::OutKey, M::OutValue> + 'static,
        FM: Fn(usize) -> M + Send + Sync + 'static,
        FR: Fn(usize) -> R + Send + Sync + 'static,
        M::InKey: Clone + Sync + ByteSize,
        M::InValue: Clone + Sync + ByteSize,
    {
        let mut plan = Plan::new(self.name.as_str())
            .with_workers(self.workers)
            .with_retry(self.retry);
        if let Some(faults) = &self.faults {
            plan = plan.with_faults(faults.clone());
        }
        let output = plan.add_full(
            self.name.as_str(),
            input.clone(),
            self.reduce_tasks,
            mapper,
            reducer,
            partitioner,
            combiner,
        );
        let mut outcome = PlanRunner::pipelined().run(plan);
        let dataset = outcome.take_output(output);
        let metrics = outcome.metrics.jobs.remove(0);
        (dataset, metrics)
    }
}

/// One key run drained straight off a sorted bucket iterator: yields the
/// values of `key` and stops at the first pair with a different key,
/// leaving it in the underlying iterator.
struct RunValues<'a, K: Key, V: Value, I: Iterator<Item = (K, V)>> {
    first: Option<V>,
    key: &'a K,
    rest: &'a mut std::iter::Peekable<I>,
}

impl<K: Key, V: Value, I: Iterator<Item = (K, V)>> Iterator for RunValues<'_, K, V, I> {
    type Item = V;

    fn next(&mut self) -> Option<V> {
        if let Some(v) = self.first.take() {
            return Some(v);
        }
        if self.rest.peek().is_some_and(|(k, _)| k == self.key) {
            return self.rest.next().map(|(_, v)| v);
        }
        None
    }
}

/// Apply a combiner to every key run of a sorted bucket.
///
/// Key groups stream off the bucket through [`Combiner::combine_into`]:
/// fold-style combiners ([`crate::SumCombiner`], the verification-count
/// combiner) run with **no per-key allocation** — one reused scratch vector
/// amortizes over the whole bucket.
pub(crate) fn combine_runs<K: Key, V: Value, C: Combiner<K, V>>(
    bucket: Vec<(K, V)>,
    combiner: &C,
) -> Vec<(K, V)> {
    let mut out = Vec::with_capacity(bucket.len());
    let mut vals: Vec<V> = Vec::new(); // reused across key groups
    let mut it = bucket.into_iter().peekable();
    while let Some((key, first)) = it.next() {
        {
            let mut run = RunValues {
                first: Some(first),
                key: &key,
                rest: &mut it,
            };
            combiner.combine_into(&key, &mut run, &mut vals);
            // The contract says the combiner exhausts the run; drain any
            // leftovers so a lazy combiner cannot leak values into the
            // next group.
            for _leftover in run {}
        }
        flush_combined(key, &mut vals, &mut out);
    }
    out
}

/// Move one combined key group out of the scratch buffer, cloning the key
/// only for the first `n - 1` pairs and moving it into the last (the
/// common single-value case clones nothing).
fn flush_combined<K: Key, V: Value>(key: K, vals: &mut Vec<V>, out: &mut Vec<(K, V)>) {
    let n = vals.len();
    if n == 0 {
        return;
    }
    let mut drained = vals.drain(..);
    for _ in 0..n - 1 {
        out.push((key.clone(), drained.next().expect("n values")));
    }
    let last = drained.next().expect("n values");
    drop(drained);
    out.push((key, last));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emitter::Emitter;
    use crate::partitioner::DirectPartitioner;
    use crate::traits::{IdentityMapper, Reducer, SumCombiner};

    /// Emits (token, 1) for each whitespace token.
    struct Tokenize;
    impl Mapper for Tokenize {
        type InKey = u32;
        type InValue = String;
        type OutKey = String;
        type OutValue = u64;
        fn map(&mut self, _k: u32, line: String, out: &mut Emitter<String, u64>) {
            for w in line.split_whitespace() {
                out.emit(w.to_string(), 1);
            }
        }
    }

    /// Sums counts per token.
    struct Sum;
    impl Reducer for Sum {
        type InKey = String;
        type InValue = u64;
        type OutKey = String;
        type OutValue = u64;
        fn reduce(&mut self, k: &String, vs: Vec<u64>, out: &mut Emitter<String, u64>) {
            out.emit(k.clone(), vs.into_iter().sum());
        }
    }

    fn wc_input() -> Dataset<u32, String> {
        Dataset::from_records(
            vec![
                (0, "the quick brown fox".to_string()),
                (1, "the lazy dog".to_string()),
                (2, "the fox".to_string()),
            ],
            2,
        )
    }

    fn sorted_output(d: Dataset<String, u64>) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = d.into_records().collect();
        v.sort();
        v
    }

    #[test]
    fn word_count_end_to_end() {
        let (out, m) =
            JobBuilder::new("wc")
                .reduce_tasks(3)
                .run(&wc_input(), |_| Tokenize, |_| Sum);
        assert_eq!(
            sorted_output(out),
            vec![
                ("brown".to_string(), 1),
                ("dog".to_string(), 1),
                ("fox".to_string(), 2),
                ("lazy".to_string(), 1),
                ("quick".to_string(), 1),
                ("the".to_string(), 3),
            ]
        );
        assert_eq!(m.map_input_records(), 3);
        assert_eq!(m.map_output_records(), 9);
        assert_eq!(m.shuffle_records, 9);
        assert_eq!(m.map_tasks.len(), 2);
        assert_eq!(m.reduce_tasks.len(), 3);
    }

    /// What the engine computed for this input before `JobBuilder` became
    /// a one-stage plan, frozen from that implementation's output: the
    /// reduce partitions and every timing-free counter, with and without
    /// the sum combiner. Task rows are `(index, input_records,
    /// input_bytes, input_keys, output_records, output_bytes)`.
    #[test]
    fn facade_reproduces_frozen_engine_oracle() {
        type Row = (usize, usize, usize, usize, usize, usize);
        fn rows(tasks: &[crate::metrics::TaskStat]) -> Vec<Row> {
            tasks
                .iter()
                .map(|t| {
                    (
                        t.index,
                        t.input_records,
                        t.input_bytes,
                        t.input_keys,
                        t.output_records,
                        t.output_bytes,
                    )
                })
                .collect()
        }
        let input = Dataset::from_records(
            vec![
                (0, "the quick brown fox".to_string()),
                (1, "the lazy dog".to_string()),
                (2, "the fox the dog".to_string()),
            ],
            2,
        );
        let partitions: Vec<Vec<(String, u64)>> = [
            vec![("brown", 1), ("fox", 2)],
            vec![("lazy", 1), ("quick", 1), ("the", 4)],
            vec![("dog", 2)],
        ]
        .into_iter()
        .map(|p| p.into_iter().map(|(w, c)| (w.to_string(), c)).collect())
        .collect();

        struct Oracle {
            shuffle: (usize, usize),
            maps: [Row; 2],
            reduces: [Row; 3],
        }
        let combined = Oracle {
            shuffle: (9, 140),
            maps: [(0, 2, 47, 0, 6, 95), (1, 1, 23, 0, 3, 45)],
            reduces: [
                (0, 3, 47, 2, 2, 32),
                (1, 4, 63, 3, 3, 48),
                (2, 2, 30, 1, 1, 15),
            ],
        };
        let plain = Oracle {
            shuffle: (11, 170),
            maps: [(0, 2, 47, 0, 7, 110), (1, 1, 23, 0, 4, 60)],
            reduces: [
                (0, 3, 47, 2, 2, 32),
                (1, 6, 93, 3, 3, 48),
                (2, 2, 30, 1, 1, 15),
            ],
        };

        let job = JobBuilder::new("wc").reduce_tasks(3);
        let with_combiner = job.run_full(
            &input,
            |_| Tokenize,
            |_| Sum,
            HashPartitioner,
            Some(SumCombiner),
        );
        let without = job.run(&input, |_| Tokenize, |_| Sum);
        for ((out, m), want) in [(with_combiner, combined), (without, plain)] {
            assert_eq!(out.partitions(), partitions.as_slice());
            assert_eq!(m.name, "wc");
            assert_eq!((m.shuffle_records, m.shuffle_bytes), want.shuffle);
            assert_eq!((m.pre_combine_records, m.pre_combine_bytes), (11, 170));
            assert_eq!(rows(&m.map_tasks), want.maps);
            assert_eq!(rows(&m.reduce_tasks), want.reduces);
            assert_eq!(m.exec.attempts, 5);
            assert_eq!(m.exec.retries + m.exec.injected_total(), 0);
        }
    }

    #[test]
    fn combiner_reduces_shuffle_but_not_results() {
        let (plain, m_plain) =
            JobBuilder::new("wc")
                .reduce_tasks(2)
                .run(&wc_input(), |_| Tokenize, |_| Sum);
        let (combined, m_comb) = JobBuilder::new("wc+c").reduce_tasks(2).run_full(
            &wc_input(),
            |_| Tokenize,
            |_| Sum,
            HashPartitioner,
            Some(SumCombiner),
        );
        assert_eq!(sorted_output(plain), sorted_output(combined));
        // "the" appears twice in map task 0's split -> combiner merges.
        assert!(m_comb.shuffle_records < m_plain.shuffle_records);
        assert_eq!(m_comb.pre_combine_records, m_plain.shuffle_records);
    }

    #[test]
    fn direct_partitioner_places_keys() {
        /// Emits (id % 4, id).
        struct ModMap;
        impl Mapper for ModMap {
            type InKey = u32;
            type InValue = u32;
            type OutKey = u32;
            type OutValue = u32;
            fn map(&mut self, k: u32, _v: u32, out: &mut Emitter<u32, u32>) {
                out.emit(k % 4, k);
            }
        }
        /// Emits group size keyed by group id.
        struct CountRed;
        impl Reducer for CountRed {
            type InKey = u32;
            type InValue = u32;
            type OutKey = u32;
            type OutValue = u64;
            fn reduce(&mut self, k: &u32, vs: Vec<u32>, out: &mut Emitter<u32, u64>) {
                out.emit(*k, vs.len() as u64);
            }
        }
        let input = Dataset::from_records((0u32..40).map(|i| (i, i)).collect(), 3);
        let (out, m) = JobBuilder::new("mod").reduce_tasks(4).run_partitioned(
            &input,
            |_| ModMap,
            |_| CountRed,
            DirectPartitioner::new(|k: &u32| *k as usize),
        );
        // Partition r holds exactly key r.
        for (r, part) in out.partitions().iter().enumerate() {
            assert_eq!(part.len(), 1);
            assert_eq!(part[0], (r as u32, 10));
        }
        // All reduce inputs perfectly balanced.
        assert!((m.reduce_input_balance().skew - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reducer_sees_keys_in_order() {
        /// Asserts ascending key order within the task.
        struct OrderCheck {
            last: Option<u32>,
        }
        impl Reducer for OrderCheck {
            type InKey = u32;
            type InValue = u32;
            type OutKey = u32;
            type OutValue = u32;
            fn reduce(&mut self, k: &u32, _vs: Vec<u32>, out: &mut Emitter<u32, u32>) {
                if let Some(last) = self.last {
                    assert!(*k > last, "keys must ascend within a reduce task");
                }
                self.last = Some(*k);
                out.emit(*k, 0);
            }
        }
        let input = Dataset::from_records((0u32..100).rev().map(|i| (i, i)).collect(), 5);
        let (out, _) = JobBuilder::new("order").reduce_tasks(3).run(
            &input,
            |_| IdentityMapper::default(),
            |_| OrderCheck { last: None },
        );
        assert_eq!(out.total_records(), 100);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let input: Dataset<u32, String> = Dataset::empty();
        let (out, m) = JobBuilder::new("empty")
            .reduce_tasks(2)
            .run(&input, |_| Tokenize, |_| Sum);
        assert_eq!(out.total_records(), 0);
        assert_eq!(m.map_input_records(), 0);
        assert_eq!(m.shuffle_records, 0);
    }

    #[test]
    fn setup_and_cleanup_lifecycle() {
        /// Counts records, emits the total in cleanup.
        struct CountingMapper {
            seen: u64,
        }
        impl Mapper for CountingMapper {
            type InKey = u32;
            type InValue = u32;
            type OutKey = u32;
            type OutValue = u64;
            fn setup(&mut self) {
                assert_eq!(self.seen, 0);
            }
            fn map(&mut self, _k: u32, _v: u32, _out: &mut Emitter<u32, u64>) {
                self.seen += 1;
            }
            fn cleanup(&mut self, out: &mut Emitter<u32, u64>) {
                out.emit(0, self.seen);
            }
        }
        struct Sum64;
        impl Reducer for Sum64 {
            type InKey = u32;
            type InValue = u64;
            type OutKey = u32;
            type OutValue = u64;
            fn reduce(&mut self, k: &u32, vs: Vec<u64>, out: &mut Emitter<u32, u64>) {
                out.emit(*k, vs.into_iter().sum());
            }
        }
        let input = Dataset::from_records((0u32..10).map(|i| (i, i)).collect(), 2);
        let (out, _) = JobBuilder::new("lifecycle").reduce_tasks(1).run(
            &input,
            |_| CountingMapper { seen: 0 },
            |_| Sum64,
        );
        assert_eq!(out.into_records().collect::<Vec<_>>(), vec![(0, 10)]);
    }

    #[test]
    #[should_panic(expected = "at least one reduce task")]
    fn zero_reduce_tasks_rejected() {
        let _ = JobBuilder::new("bad").reduce_tasks(0);
    }
}
