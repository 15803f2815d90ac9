//! A from-scratch, in-process MapReduce engine.
//!
//! The FS-Join paper (ICDE 2017) evaluates on Hadoop. There are no Rust
//! Hadoop/Spark bindings, so this crate reimplements the MapReduce
//! execution model faithfully enough that every quantity the paper's
//! experiments observe is produced by the same mechanism:
//!
//! * typed [`Mapper`]/[`Reducer`] tasks with `setup`/`map|reduce`/`cleanup`
//!   lifecycle hooks (Hadoop semantics);
//! * a sort-merge shuffle with per-partition routing through a
//!   [`Partitioner`], optional [`Combiner`], and byte-level accounting via
//!   [`ssj_common::ByteSize`];
//! * one execution engine: jobs are declared as stages of a [`Plan`] and
//!   run by the [`PlanRunner`] on a shared worker pool (bounded retry,
//!   seeded fault injection, partition-granular pipelining across stage
//!   boundaries), with per-task wall-clock and record/byte counters
//!   collected into [`JobMetrics`]; [`JobBuilder`] is the one-stage
//!   convenience over the same runner;
//! * a [`ClusterModel`] whose one discrete-event loop replays the measured
//!   task durations on a configurable `nodes × slots` cluster — job after
//!   job, as a pipelined plan, or under a seeded fault plan — and charges
//!   shuffle volume against a network-bandwidth model, yielding the
//!   simulated makespan used by the node-scalability experiments (paper
//!   Figure 9).
//!
//! # Example
//!
//! Word count, as a single job ([`JobBuilder`] declares it as a one-stage
//! [`Plan`]; multi-job pipelines build the plan directly):
//!
//! ```
//! use ssj_mapreduce::{Dataset, Emitter, JobBuilder, Mapper, Reducer};
//!
//! struct Tokenize;
//! impl Mapper for Tokenize {
//!     type InKey = u32;            // line number
//!     type InValue = String;       // line text
//!     type OutKey = String;        // word
//!     type OutValue = u64;         // count
//!     fn map(&mut self, _k: u32, line: String, out: &mut Emitter<String, u64>) {
//!         for w in line.split_whitespace() {
//!             out.emit(w.to_string(), 1);
//!         }
//!     }
//! }
//!
//! struct Sum;
//! impl Reducer for Sum {
//!     type InKey = String;
//!     type InValue = u64;
//!     type OutKey = String;
//!     type OutValue = u64;
//!     fn reduce(&mut self, word: &String, counts: Vec<u64>, out: &mut Emitter<String, u64>) {
//!         out.emit(word.clone(), counts.iter().sum());
//!     }
//! }
//!
//! let input = Dataset::from_records(vec![(0u32, "a b a".to_string()), (1, "b".to_string())], 2);
//! let (output, metrics) = JobBuilder::new("wordcount")
//!     .reduce_tasks(2)
//!     .run(&input, |_| Tokenize, |_| Sum);
//! let mut counts: Vec<(String, u64)> = output.into_records().collect();
//! counts.sort();
//! assert_eq!(counts, vec![("a".into(), 2), ("b".into(), 2)]);
//! assert_eq!(metrics.map_output_records(), 4);
//! ```

pub mod cluster;
pub mod dataset;
pub mod emitter;
pub mod executor;
pub mod job;
pub mod merge;
pub mod metrics;
pub mod partitioner;
pub mod plan;
pub mod sim_faults;
pub mod spill;
pub mod telemetry;
pub mod traits;

pub use cluster::{ClusterModel, PhaseTimes, SimSchedule, SimTask};
pub use dataset::Dataset;
pub use emitter::Emitter;
pub use executor::{TaskError, TaskFailure};
pub use job::{IdentityCombiner, JobBuilder};
pub use merge::{CoGroupedRuns, GroupValues, GroupedRuns, KWayMerge, SideGroups};
pub use metrics::{
    ChainMetrics, ExecSummary, JobMetrics, LogicalJob, TaskCounts, TaskKind, TaskStat,
};
pub use partitioner::{DirectPartitioner, HashPartitioner, Partitioner};
pub use plan::{
    next_plan_run_id, BroadcastHandle, Plan, PlanMode, PlanOutcome, PlanRunner, Stage, StageEdge,
    StageHandle, StageInput,
};
pub use sim_faults::{SimFaultError, SimFaultOutcome, SimFaultPolicy};
pub use spill::{SharedRun, SpillStore};
pub use traits::{
    CoGroupReducer, Combiner, IdentityMapper, KeepFirst, Key, Mapper, PassThrough, Reducer,
    StreamingReducer, SumCombiner, Value,
};
