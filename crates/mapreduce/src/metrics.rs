//! Per-task and per-job execution metrics.
//!
//! Every comparison in the paper's evaluation is, at bottom, a statement
//! about these counters: shuffle volume (duplication), per-reduce-task input
//! balance (skew), and phase durations. The engine collects them
//! unconditionally; algorithms cannot self-report.

use ssj_common::stats::Summary;
use std::time::Duration;

/// Which phase a task belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// A map task.
    Map,
    /// A reduce task.
    Reduce,
    /// A co-group task: the reduce side of a co-group stage, consuming
    /// the sealed reduce partitions of its co-partitioned upstreams
    /// directly (no map or shuffle phase of its own).
    CoGroup,
}

/// Counters for one executed task.
#[derive(Debug, Clone)]
pub struct TaskStat {
    /// Map or reduce.
    pub kind: TaskKind,
    /// Task index within its phase.
    pub index: usize,
    /// Wall-clock duration of the task body (excludes shuffle).
    pub duration: Duration,
    /// Time the task waited in its phase's queue before a worker thread
    /// picked it up (0 when it started immediately).
    pub queue: Duration,
    /// Input records consumed.
    pub input_records: usize,
    /// Logical encoded input size.
    pub input_bytes: usize,
    /// Distinct keys consumed (reduce tasks only; 0 for maps). Per-
    /// partition key cardinality is the third axis of shuffle skew next to
    /// records and bytes: a partition with few keys but many records is a
    /// hot-key straggler, not a hash imbalance.
    pub input_keys: usize,
    /// Records emitted.
    pub output_records: usize,
    /// Logical encoded output size.
    pub output_bytes: usize,
}

/// Attempt-level execution counters for one job (or one phase): how many
/// attempts ran, how many failed and were retried, and what the fault
/// injector did. Deterministic under a seeded
/// [`FaultPlan`](ssj_faults::FaultPlan) — `crates/bench/tests/chaos.rs`
/// pins them across reruns of one seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecSummary {
    /// Task attempts started (first attempts + retries).
    pub attempts: u64,
    /// Failed attempts that were re-queued within the retry budget.
    pub retries: u64,
    /// Injected transient errors observed.
    pub injected_errors: u64,
    /// Injected panics observed (caught and converted to task errors).
    pub injected_panics: u64,
    /// Injected straggler slowdowns observed.
    pub injected_stragglers: u64,
}

impl ExecSummary {
    /// Element-wise accumulate (e.g. map phase + reduce phase).
    pub fn add(&mut self, other: &ExecSummary) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.injected_errors += other.injected_errors;
        self.injected_panics += other.injected_panics;
        self.injected_stragglers += other.injected_stragglers;
    }

    /// Total injected faults of any kind.
    pub fn injected_total(&self) -> u64 {
        self.injected_errors + self.injected_panics + self.injected_stragglers
    }
}

/// Aggregated metrics for one MapReduce job.
#[derive(Debug, Clone)]
pub struct JobMetrics {
    /// Job name (for reports).
    pub name: String,
    /// Identity of this job inside its execution plan: `(plan name, stage
    /// index)`, set by the [`PlanRunner`](crate::plan::PlanRunner) so
    /// reports and traces can attribute a stage to its DAG. A
    /// [`JobBuilder`](crate::JobBuilder) job is stage 0 of a plan named
    /// after the job; `None` only for hand-assembled metrics.
    pub plan_stage: Option<(String, usize)>,
    /// Whether this job ran as a **co-group stage**: no map or shuffle
    /// phase; its tasks (kind [`TaskKind::CoGroup`], stored in
    /// [`Self::reduce_tasks`]) merged the sealed, co-partitioned reduce
    /// partitions of the upstream stages directly. `map_tasks` is empty
    /// and the shuffle counters are 0 — the bytes an identity-rekey
    /// fan-in would have re-shuffled are the co-group tasks' input bytes.
    pub cogroup: bool,
    /// Per-map-task counters.
    pub map_tasks: Vec<TaskStat>,
    /// Per-reduce-task counters.
    pub reduce_tasks: Vec<TaskStat>,
    /// Map output records *after* the combiner — i.e. what is shuffled.
    pub shuffle_records: usize,
    /// Map output bytes *after* the combiner — i.e. what is shuffled.
    pub shuffle_bytes: usize,
    /// Map output records *before* the combiner.
    pub pre_combine_records: usize,
    /// Map output bytes *before* the combiner.
    pub pre_combine_bytes: usize,
    /// Real wall-clock duration of the whole job on the host.
    pub elapsed: Duration,
    /// Wall-clock of the map phase (first map task queued → last finished).
    pub map_elapsed: Duration,
    /// Wall-clock of the shuffle (transpose of map buckets into per-reduce
    /// input runs).
    pub shuffle_elapsed: Duration,
    /// Wall-clock of the reduce phase.
    pub reduce_elapsed: Duration,
    /// Attempt/retry/injection counters across both phases.
    pub exec: ExecSummary,
}

impl JobMetrics {
    /// Total records read by map tasks.
    pub fn map_input_records(&self) -> usize {
        self.map_tasks.iter().map(|t| t.input_records).sum()
    }

    /// Total records emitted by map tasks (before the combiner).
    pub fn map_output_records(&self) -> usize {
        self.pre_combine_records
    }

    /// Total records emitted by reduce tasks.
    pub fn reduce_output_records(&self) -> usize {
        self.reduce_tasks.iter().map(|t| t.output_records).sum()
    }

    /// Total bytes emitted by reduce tasks.
    pub fn reduce_output_bytes(&self) -> usize {
        self.reduce_tasks.iter().map(|t| t.output_bytes).sum()
    }

    /// Map-side blow-up factor: map output records ÷ map input records.
    ///
    /// For signature-based joins this is the *duplication factor* the paper
    /// criticizes (a record emitted once per signature token); FS-Join's
    /// segment emission keeps every token exactly once, so its byte-level
    /// analogue [`Self::byte_expansion`] stays ≈ 1.
    pub fn record_expansion(&self) -> f64 {
        let input = self.map_input_records();
        if input == 0 {
            return 0.0;
        }
        self.map_output_records() as f64 / input as f64
    }

    /// Map-side byte blow-up: shuffled bytes ÷ map input bytes.
    pub fn byte_expansion(&self) -> f64 {
        let input: usize = self.map_tasks.iter().map(|t| t.input_bytes).sum();
        if input == 0 {
            return 0.0;
        }
        self.shuffle_bytes as f64 / input as f64
    }

    /// Shuffle bytes a co-group stage avoided: the bytes its tasks read
    /// directly from sealed upstream partitions — exactly what an
    /// identity-rekey fan-in stage over the same inputs would have
    /// re-shuffled. 0 for regular MapReduce jobs.
    pub fn cogroup_shuffle_bytes_saved(&self) -> usize {
        if !self.cogroup {
            return 0;
        }
        self.reduce_tasks.iter().map(|t| t.input_bytes).sum()
    }

    /// The timing-free projection of these metrics: what must be
    /// bit-identical across worker counts, plan modes and seeded reruns.
    pub fn logical(&self) -> LogicalJob {
        let counts = |tasks: &[TaskStat]| {
            tasks
                .iter()
                .map(|t| TaskCounts {
                    index: t.index,
                    input_records: t.input_records,
                    input_bytes: t.input_bytes,
                    input_keys: t.input_keys,
                    output_records: t.output_records,
                    output_bytes: t.output_bytes,
                })
                .collect()
        };
        LogicalJob {
            name: self.name.clone(),
            plan_stage: self.plan_stage.clone(),
            cogroup: self.cogroup,
            map_tasks: counts(&self.map_tasks),
            reduce_tasks: counts(&self.reduce_tasks),
            shuffle_records: self.shuffle_records,
            shuffle_bytes: self.shuffle_bytes,
            pre_combine_records: self.pre_combine_records,
            pre_combine_bytes: self.pre_combine_bytes,
            exec: self.exec,
        }
    }

    /// Distribution of per-reduce-task input bytes — the load-balance
    /// statistic (skew = max/mean; Gini) behind the paper's Table I and
    /// Figure 11 claims.
    pub fn reduce_input_balance(&self) -> Summary {
        Summary::of_counts(self.reduce_tasks.iter().map(|t| t.input_bytes))
    }

    /// Distribution of per-reduce-task durations.
    pub fn reduce_time_balance(&self) -> Summary {
        Summary::of(
            &self
                .reduce_tasks
                .iter()
                .map(|t| t.duration.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    }
}

/// The counters of one [`TaskStat`], without its durations. Fields are
/// the [`TaskStat`] fields of the same name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskCounts {
    pub index: usize,
    pub input_records: usize,
    pub input_bytes: usize,
    pub input_keys: usize,
    pub output_records: usize,
    pub output_bytes: usize,
}

/// [`JobMetrics`] without wall-clock fields ([`JobMetrics::logical`]).
/// Fields are the [`JobMetrics`] fields of the same name, tasks reduced to
/// their [`TaskCounts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicalJob {
    pub name: String,
    pub plan_stage: Option<(String, usize)>,
    pub cogroup: bool,
    pub map_tasks: Vec<TaskCounts>,
    pub reduce_tasks: Vec<TaskCounts>,
    pub shuffle_records: usize,
    pub shuffle_bytes: usize,
    pub pre_combine_records: usize,
    pub pre_combine_bytes: usize,
    pub exec: ExecSummary,
}

/// Metrics for a chain of jobs (an algorithm run end-to-end, e.g. FS-Join's
/// ordering → filtering → verification pipeline).
#[derive(Debug, Clone, Default)]
pub struct ChainMetrics {
    /// Per-job metrics in execution order.
    pub jobs: Vec<JobMetrics>,
}

impl ChainMetrics {
    /// Append one job's metrics.
    pub fn push(&mut self, m: JobMetrics) {
        self.jobs.push(m);
    }

    /// Total shuffled bytes across jobs.
    pub fn total_shuffle_bytes(&self) -> usize {
        self.jobs.iter().map(|j| j.shuffle_bytes).sum()
    }

    /// Total shuffled records across jobs.
    pub fn total_shuffle_records(&self) -> usize {
        self.jobs.iter().map(|j| j.shuffle_records).sum()
    }

    /// Total real wall-clock across jobs.
    pub fn total_elapsed(&self) -> Duration {
        self.jobs.iter().map(|j| j.elapsed).sum()
    }

    /// Attempt/retry/injection counters summed across jobs.
    pub fn total_exec(&self) -> ExecSummary {
        let mut total = ExecSummary::default();
        for j in &self.jobs {
            total.add(&j.exec);
        }
        total
    }

    /// Find a job's metrics by name.
    pub fn job(&self, name: &str) -> Option<&JobMetrics> {
        self.jobs.iter().find(|j| j.name == name)
    }

    /// Job names in execution order.
    pub fn job_names(&self) -> Vec<&str> {
        self.jobs.iter().map(|j| j.name.as_str()).collect()
    }

    /// Append every job of `other` (in order) to this chain — e.g. to
    /// combine the pipelines of a multi-stage algorithm into one report.
    pub fn merge(&mut self, other: ChainMetrics) {
        self.jobs.extend(other.jobs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(kind: TaskKind, input_records: usize, output_records: usize) -> TaskStat {
        TaskStat {
            kind,
            index: 0,
            duration: Duration::from_millis(10),
            queue: Duration::ZERO,
            input_records,
            input_bytes: input_records * 8,
            input_keys: if kind == TaskKind::Reduce { 2 } else { 0 },
            output_records,
            output_bytes: output_records * 8,
        }
    }

    fn metrics() -> JobMetrics {
        JobMetrics {
            name: "test".into(),
            plan_stage: None,
            cogroup: false,
            map_tasks: vec![stat(TaskKind::Map, 10, 30), stat(TaskKind::Map, 10, 30)],
            reduce_tasks: vec![stat(TaskKind::Reduce, 30, 5), stat(TaskKind::Reduce, 30, 5)],
            shuffle_records: 60,
            shuffle_bytes: 480,
            pre_combine_records: 60,
            pre_combine_bytes: 480,
            elapsed: Duration::from_millis(25),
            map_elapsed: Duration::from_millis(10),
            shuffle_elapsed: Duration::from_millis(5),
            reduce_elapsed: Duration::from_millis(10),
            exec: ExecSummary::default(),
        }
    }

    #[test]
    fn expansion_factors() {
        let m = metrics();
        assert_eq!(m.map_input_records(), 20);
        assert_eq!(m.map_output_records(), 60);
        assert!((m.record_expansion() - 3.0).abs() < 1e-12);
        assert!((m.byte_expansion() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_reduce_has_unit_skew() {
        let m = metrics();
        let b = m.reduce_input_balance();
        assert_eq!(b.count, 2);
        assert!((b.skew - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chain_totals() {
        let mut c = ChainMetrics::default();
        c.push(metrics());
        c.push(metrics());
        assert_eq!(c.total_shuffle_bytes(), 960);
        assert_eq!(c.total_shuffle_records(), 120);
        assert_eq!(c.total_elapsed(), Duration::from_millis(50));
        assert!(c.job("test").is_some());
        assert!(c.job("absent").is_none());
    }

    #[test]
    fn chain_names_and_merge() {
        let mut a = ChainMetrics::default();
        a.push(metrics());
        let mut second = metrics();
        second.name = "second".into();
        let mut b = ChainMetrics::default();
        b.push(second);
        a.merge(b);
        assert_eq!(a.job_names(), vec!["test", "second"]);
        assert_eq!(a.total_shuffle_records(), 120);
        assert!(a.job("second").is_some());
    }

    #[test]
    fn exec_summary_accumulates() {
        let mut a = ExecSummary {
            attempts: 10,
            retries: 2,
            injected_errors: 1,
            injected_panics: 1,
            injected_stragglers: 0,
        };
        a.add(&ExecSummary {
            attempts: 5,
            retries: 1,
            ..ExecSummary::default()
        });
        assert_eq!(a.attempts, 15);
        assert_eq!(a.retries, 3);
        assert_eq!(a.injected_total(), 2);

        let mut c = ChainMetrics::default();
        let mut m = metrics();
        m.exec = a;
        c.push(m.clone());
        c.push(m);
        assert_eq!(c.total_exec().attempts, 30);
        assert_eq!(c.total_exec().retries, 6);
    }

    #[test]
    fn zero_input_expansion_is_zero() {
        let mut m = metrics();
        m.map_tasks.clear();
        assert_eq!(m.record_expansion(), 0.0);
        assert_eq!(m.byte_expansion(), 0.0);
    }

    #[test]
    fn cogroup_bytes_saved_counts_task_input() {
        let mut m = metrics();
        assert_eq!(m.cogroup_shuffle_bytes_saved(), 0);
        m.cogroup = true;
        m.map_tasks.clear();
        m.shuffle_records = 0;
        m.shuffle_bytes = 0;
        // Two reduce-side tasks reading 30 records * 8 bytes each.
        assert_eq!(m.cogroup_shuffle_bytes_saved(), 480);
    }
}
