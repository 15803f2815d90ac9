//! Declarative execution plans: job DAGs with partition-granular
//! pipelining across job boundaries.
//!
//! A [`Plan`] is a DAG of [`Stage`]s — each stage is one MapReduce job
//! (mapper/reducer factories, partitioner, optional combiner) whose input
//! is either an external [`Dataset`] or the output of an earlier stage.
//! The [`PlanRunner`] executes the whole DAG on one worker pool with
//! **partition-granular pipelining** ([`PlanMode::Pipelined`]): the moment
//! reduce partition *i* of an upstream stage completes, it is sealed
//! behind an `Arc` (the same [`SharedRun`]-style immutable-view machinery
//! the shuffle uses) and scheduled as map split *i* of every downstream
//! stage — the in-process analogue of Hadoop's slow-start, where the next
//! job's maps begin while the previous job's reduces are still draining.
//! Consumed intermediate partitions are dropped eagerly (the runner
//! prefers downstream-most runnable tasks), cutting peak live intermediate
//! memory; [`PlanOutcome::peak_live_bytes`] reports the high-water mark.
//!
//! This module is the crate's **only** execution engine: the split → map →
//! combine → partition → sort → transpose → k-way-merge → reduce task
//! bodies, their spans and byte accounting, bounded retry and fault
//! injection are defined here and nowhere else. A standalone job
//! ([`JobBuilder`](crate::JobBuilder)) is a one-stage plan on this runner.
//!
//! **The hard invariant:** pipelining changes *when* tasks run, never
//! *what* they compute. Every stage runs the same task bodies whatever the
//! plan's shape, stage inputs are the upstream reduce partitions in
//! reduce-task order (exactly what `Dataset::from_partitions` would hand a
//! separately launched next job), and retries re-fetch sealed partitions
//! instead of re-running upstream work. So all *logical* metrics — shuffle
//! records/bytes, duplication, per-key grouping, result digests — are
//! bit-identical between [`PlanMode::Pipelined`] and
//! [`PlanMode::Sequential`]. Only wall-clock durations (and the memory
//! high-water mark) differ.

use crate::dataset::Dataset;
use crate::emitter::Emitter;
use crate::executor::{default_workers, panic_message};
use crate::job::{combine_runs, IdentityCombiner};
use crate::merge::{CoGroupedRuns, GroupedRuns};
use crate::metrics::{ChainMetrics, ExecSummary, JobMetrics, TaskKind, TaskStat};
use crate::partitioner::{HashPartitioner, Partitioner};
use crate::spill::{SharedRun, SpillStore};
use crate::traits::{CoGroupReducer, Combiner, Key, Mapper, StreamingReducer, Value};
use ssj_common::ByteSize;
use ssj_faults::{Fault, FaultPlan, InjectedPanic, Phase, RetryPolicy};
use ssj_observe::{global_registry, span, Span};
use std::any::Any;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::executor::{TaskError, TaskFailure};

// ---------------------------------------------------------------------------
// Type-erased stage data.
// ---------------------------------------------------------------------------

/// One sealed partition: an `Arc<Vec<(K, V)>>` behind `dyn Any`. Upstream
/// reduce outputs are published in this form; downstream map attempts
/// re-fetch shared views (an `Arc` clone), never copies — which is what
/// makes a downstream retry free for the upstream stage.
type AnyPart = Arc<dyn Any + Send + Sync>;

/// Type-erased task factory: `(task_index, broadcast values)` → a mapper
/// or reducer instance. The broadcast slice carries the stage's resolved
/// [`StageEdge::Broadcast`] values in declaration order.
type ErasedFactory<T> = Box<dyn Fn(usize, &[AnyPart]) -> T + Send + Sync>;

/// One map task's sealed output: `Vec<SharedRun<K, V>>`, one sorted
/// (combined) run per reduce partition of its own stage.
type AnySealed = Box<dyn Any + Send>;

/// One stage's transposed map output: `SpillStore<K, V>` behind `dyn Any`.
type AnySpill = Arc<dyn Any + Send + Sync>;

/// Result of one map attempt: sealed runs, task stat, pre-combine records
/// and bytes.
type MapOut = (AnySealed, TaskStat, usize, usize);

/// Plan-identity attributes stamped on every task span so a trace can be
/// profiled: which plan execution (`plan`, `run`) and which stage of its
/// DAG the task belongs to. The task index doubles as the partition.
pub(crate) struct TaskTags<'a> {
    pub plan: &'a str,
    pub run: u64,
    pub stage: usize,
}

/// Map body: `(task, split parts, broadcast values, attempt, phase start,
/// tags)`. The split slice holds partition `task` of every split edge in
/// edge order (one entry for a single-input stage; one per shuffle
/// upstream for a fan-in stage — the map iterates their concatenation).
type MapFn =
    Box<dyn Fn(usize, &[AnyPart], &[AnyPart], u32, Instant, &TaskTags<'_>) -> MapOut + Send + Sync>;
type TransposeFn = Box<dyn Fn(Vec<AnySealed>) -> AnySpill + Send + Sync>;
/// Reduce body: `(task, spill, broadcast values, attempt, phase start,
/// tags)` — reducers built by [`Plan::add_full_broadcast`] receive the
/// stage's broadcast side inputs at attempt time.
type ReduceFn = Box<
    dyn Fn(usize, &AnySpill, &[AnyPart], u32, Instant, &TaskTags<'_>) -> (AnyPart, TaskStat)
        + Send
        + Sync,
>;
/// Co-group body: `(task, sealed upstream partitions, broadcast values,
/// attempt, phase start, tags)`. The partition slice holds partition
/// `task` of every shuffle upstream in edge order — a co-group task has
/// no map/shuffle phase of its own; it merges the already co-partitioned
/// sealed reduce outputs directly.
type CoGroupFn = Box<
    dyn Fn(usize, &[AnyPart], &[AnyPart], u32, Instant, &TaskTags<'_>) -> (AnyPart, TaskStat)
        + Send
        + Sync,
>;

/// Process-unique id for one plan execution (also used for simulated
/// timelines). Distinguishes repeated runs of the same plan within one
/// trace — e.g. an experiment running `fsjoin` once per algorithm variant.
pub fn next_plan_run_id() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// One input edge of a stage (internal form; [`StageEdge`] is the public
/// descriptor). A stage's input is a *list* of edges: either exactly one
/// `External` edge or one-or-more co-partitioned `Shuffle` edges provide
/// the map splits, and any number of `Broadcast` edges ship whole side
/// values to every task.
enum InputEdge {
    /// External partitions, sealed at plan-build time.
    External(Vec<AnyPart>),
    /// Output partitions of an earlier stage (by index), consumed
    /// co-partitioned: map split `i` reads reduce partition `i`.
    Shuffle(usize),
    /// Broadcast slot (see [`Plan::broadcast`]): the whole value is handed
    /// to every map and reduce attempt of the stage as `Arc` side data.
    Broadcast(usize),
}

/// Public descriptor of one stage input edge — the shape
/// [`Stage::edges`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageEdge {
    /// External input sealed at build time, with this many map splits.
    External { splits: usize },
    /// Co-partitioned shuffle edge from stage `from`'s reduce output.
    Shuffle { from: usize },
    /// Broadcast side input from plan slot `slot`.
    Broadcast { slot: usize },
}

/// What kind of work a stage's tasks perform.
enum StageKind {
    /// A full MapReduce job: map splits → map-side sort/combine →
    /// transpose (shuffle) → reduce.
    MapReduce {
        run_map: MapFn,
        transpose: TransposeFn,
        run_reduce: ReduceFn,
    },
    /// A co-group stage: **no map or shuffle phase**. Task `i` merges the
    /// sealed reduce partition `i` of every co-partitioned shuffle
    /// upstream directly (side-tagged, via the multi-source
    /// [`CoGroupedRuns`] loser-tree plane) and reduces the merged groups.
    CoGroup { run_cogroup: CoGroupFn },
}

/// One type-erased stage of a [`Plan`]. Built by the `add*` methods, which
/// close the stage's task bodies over its concrete key/value types.
pub struct Stage {
    name: String,
    edges: Vec<InputEdge>,
    /// Number of map tasks (= splits): the external partition count, or
    /// the shared reduce-task count of the shuffle upstreams. Always 0
    /// for co-group stages (they have no map phase).
    n_splits: usize,
    reduce_tasks: usize,
    kind: StageKind,
}

impl Stage {
    /// Stage (job) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of reduce tasks (= output partitions).
    pub fn reduce_tasks(&self) -> usize {
        self.reduce_tasks
    }

    /// Whether this is a co-group stage (no map/shuffle phase; tasks
    /// consume the sealed upstream reduce partitions directly).
    pub fn is_cogroup(&self) -> bool {
        matches!(self.kind, StageKind::CoGroup { .. })
    }

    /// The stage's input edges, in declaration order.
    pub fn edges(&self) -> Vec<StageEdge> {
        self.edges
            .iter()
            .map(|e| match e {
                InputEdge::External(parts) => StageEdge::External {
                    splits: parts.len(),
                },
                InputEdge::Shuffle(u) => StageEdge::Shuffle { from: *u },
                InputEdge::Broadcast(s) => StageEdge::Broadcast { slot: *s },
            })
            .collect()
    }

    /// Shuffle-upstream stage indices in edge order (empty = external
    /// input). A stage listing the same upstream twice reports it twice —
    /// the list is the edge multiset, not a set.
    pub fn upstreams(&self) -> Vec<usize> {
        self.edges
            .iter()
            .filter_map(|e| match e {
                InputEdge::Shuffle(u) => Some(*u),
                _ => None,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Typed handles.
// ---------------------------------------------------------------------------

/// Typed reference to a stage's output dataset — returned by the `add`
/// methods, consumed as a later stage's input or passed to
/// [`PlanOutcome::take_output`].
pub struct StageHandle<K, V> {
    idx: usize,
    _t: PhantomData<fn() -> (K, V)>,
}

impl<K, V> Clone for StageHandle<K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K, V> Copy for StageHandle<K, V> {}

impl<K, V> StageHandle<K, V> {
    /// Index of the stage within its plan.
    pub fn index(&self) -> usize {
        self.idx
    }
}

/// A stage's input: a materialized dataset, an earlier stage's output, or
/// several co-partitioned earlier stages' outputs (fan-in).
pub enum StageInput<K, V> {
    /// External input partitions.
    Dataset(Dataset<K, V>),
    /// Output of an earlier stage in the same plan.
    Stage(StageHandle<K, V>),
    /// Outputs of several earlier stages, consumed co-partitioned: every
    /// listed stage must have the same `reduce_tasks`, and map split `i`
    /// reads partition `i` of *each* upstream (concatenated in handle
    /// order). Split `i` schedules only once every upstream has sealed
    /// its partition `i`.
    Stages(Vec<StageHandle<K, V>>),
}

impl<K, V> From<Dataset<K, V>> for StageInput<K, V> {
    fn from(d: Dataset<K, V>) -> Self {
        StageInput::Dataset(d)
    }
}

impl<K, V> From<StageHandle<K, V>> for StageInput<K, V> {
    fn from(h: StageHandle<K, V>) -> Self {
        StageInput::Stage(h)
    }
}

impl<K, V> From<Vec<StageHandle<K, V>>> for StageInput<K, V> {
    fn from(hs: Vec<StageHandle<K, V>>) -> Self {
        StageInput::Stages(hs)
    }
}

impl<K, V, const N: usize> From<[StageHandle<K, V>; N]> for StageInput<K, V> {
    fn from(hs: [StageHandle<K, V>; N]) -> Self {
        StageInput::Stages(hs.to_vec())
    }
}

/// Typed reference to a broadcast value registered with
/// [`Plan::broadcast`]; pass to [`Plan::add_full_broadcast`] to give a
/// stage the value as a tracked side-input edge.
pub struct BroadcastHandle<T> {
    slot: usize,
    _t: PhantomData<fn() -> T>,
}

impl<T> Clone for BroadcastHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for BroadcastHandle<T> {}

impl<T> BroadcastHandle<T> {
    /// Broadcast slot index within its plan.
    pub fn slot(&self) -> usize {
        self.slot
    }
}

// ---------------------------------------------------------------------------
// Plan.
// ---------------------------------------------------------------------------

/// How the [`PlanRunner`] sequences stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// Partition-granular pipelining: downstream map split *i* is released
    /// the moment upstream reduce partition *i* completes; consumed
    /// partitions are dropped as soon as their last consumer map succeeds.
    #[default]
    Pipelined,
    /// Stage-barriered execution (what a driver launching one job after
    /// another gets, and the baseline pipelining is measured against): a
    /// stage's maps are released only when its upstream stage has fully
    /// completed, and an upstream stage's output partitions are dropped
    /// only when the consuming stage completes.
    Sequential,
}

/// A declarative DAG of MapReduce stages. Build with the `add*` methods
/// (each returns a typed [`StageHandle`] usable as a later stage's input),
/// then execute with a [`PlanRunner`].
pub struct Plan {
    name: String,
    workers: usize,
    retry: RetryPolicy,
    faults: Option<Arc<FaultPlan>>,
    stages: Vec<Stage>,
    broadcasts: Vec<AnyPart>,
}

impl Plan {
    /// Start an empty plan.
    pub fn new(name: impl Into<String>) -> Self {
        Plan {
            name: name.into(),
            workers: default_workers(),
            retry: RetryPolicy::default(),
            faults: None,
            stages: Vec::new(),
            broadcasts: Vec::new(),
        }
    }

    /// Set the number of host worker threads shared by *all* stages
    /// (default: available parallelism). Affects only wall-clock, never
    /// results or logical counters.
    pub fn with_workers(mut self, n: usize) -> Self {
        assert!(n > 0, "a plan needs at least one worker thread");
        self.workers = n;
        self
    }

    /// Set the per-task retry budget and backoff (default:
    /// [`RetryPolicy::default`]).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Inject faults from a deterministic [`FaultPlan`] into every stage's
    /// task attempts (decisions are keyed by stage name, phase, task and
    /// attempt, so they do not depend on the plan's shape or on thread
    /// interleaving). When unset, a process-global plan installed via
    /// [`ssj_faults::install_plan`] still applies.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Plan name (spans, `JobMetrics::plan_stage`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stages added so far, in declaration order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Shuffle-upstream dependencies of each stage (empty = external
    /// input), in stage order — the dependency vector
    /// [`ClusterModel::simulate_plan`](crate::ClusterModel::simulate_plan)
    /// consumes. Broadcast edges are excluded: their values exist before
    /// the plan starts, so they never gate scheduling.
    pub fn deps(&self) -> Vec<Vec<usize>> {
        self.stages.iter().map(Stage::upstreams).collect()
    }

    /// Register a broadcast side value. The value ships to consumer
    /// stages (see [`Plan::add_full_broadcast`]) as `Arc` side data: it is
    /// materialized once, handed to every task attempt, and the runner
    /// holds its reference until the last consumer stage finishes — the
    /// tracked-edge alternative to capturing shared state in every
    /// factory closure.
    pub fn broadcast<T: Send + Sync + 'static>(&mut self, value: Arc<T>) -> BroadcastHandle<T> {
        let slot = self.broadcasts.len();
        self.broadcasts.push(value as AnyPart);
        BroadcastHandle {
            slot,
            _t: PhantomData,
        }
    }

    /// Add a stage with the default [`HashPartitioner`] and no combiner.
    pub fn add<M, R, FM, FR>(
        &mut self,
        name: impl Into<String>,
        input: impl Into<StageInput<M::InKey, M::InValue>>,
        reduce_tasks: usize,
        mapper: FM,
        reducer: FR,
    ) -> StageHandle<R::OutKey, R::OutValue>
    where
        M: Mapper + 'static,
        R: StreamingReducer<InKey = M::OutKey, InValue = M::OutValue> + 'static,
        FM: Fn(usize) -> M + Send + Sync + 'static,
        FR: Fn(usize) -> R + Send + Sync + 'static,
        M::InKey: Clone + Sync + ByteSize,
        M::InValue: Clone + Sync + ByteSize,
    {
        self.add_full(
            name,
            input,
            reduce_tasks,
            mapper,
            reducer,
            HashPartitioner,
            None::<IdentityCombiner>,
        )
    }

    /// Add a stage with a custom partitioner and no combiner.
    pub fn add_partitioned<M, R, P, FM, FR>(
        &mut self,
        name: impl Into<String>,
        input: impl Into<StageInput<M::InKey, M::InValue>>,
        reduce_tasks: usize,
        mapper: FM,
        reducer: FR,
        partitioner: P,
    ) -> StageHandle<R::OutKey, R::OutValue>
    where
        M: Mapper + 'static,
        R: StreamingReducer<InKey = M::OutKey, InValue = M::OutValue> + 'static,
        P: Partitioner<M::OutKey> + Send + Sync + 'static,
        FM: Fn(usize) -> M + Send + Sync + 'static,
        FR: Fn(usize) -> R + Send + Sync + 'static,
        M::InKey: Clone + Sync + ByteSize,
        M::InValue: Clone + Sync + ByteSize,
    {
        self.add_full(
            name,
            input,
            reduce_tasks,
            mapper,
            reducer,
            partitioner,
            None::<IdentityCombiner>,
        )
    }

    /// Add a stage with a custom partitioner and an optional map-side
    /// combiner. Returns a typed handle to the stage's output.
    ///
    /// The factories are owned (`'static`) because stages outlive the call
    /// site: capture shared state (token pools, pivot arrays) behind `Arc`s
    /// and `move` it in.
    ///
    /// # Panics
    /// Panics if `reduce_tasks == 0` or the input handle does not refer to
    /// an earlier stage of this plan.
    #[allow(clippy::too_many_arguments)]
    pub fn add_full<M, R, P, C, FM, FR>(
        &mut self,
        name: impl Into<String>,
        input: impl Into<StageInput<M::InKey, M::InValue>>,
        reduce_tasks: usize,
        mapper: FM,
        reducer: FR,
        partitioner: P,
        combiner: Option<C>,
    ) -> StageHandle<R::OutKey, R::OutValue>
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
        self.add_inner(
            name.into(),
            input.into(),
            Vec::new(),
            reduce_tasks,
            Box::new(move |i, _b: &[AnyPart]| mapper(i)),
            Box::new(move |i, _b: &[AnyPart]| reducer(i)),
            partitioner,
            combiner,
        )
    }

    /// Like [`Plan::add_full`], but the stage additionally consumes a
    /// [`Broadcast`](StageEdge::Broadcast) edge: the mapper/reducer
    /// factories receive the broadcast value (an `Arc` clone of the value
    /// registered with [`Plan::broadcast`]) at every task attempt. The
    /// runner keeps the value alive until all consumer stages finish and
    /// drops it then — factories must not capture it themselves, or the
    /// eager release is defeated.
    ///
    /// # Panics
    /// Panics if the broadcast handle does not belong to this plan, plus
    /// everything [`Plan::add_full`] panics on.
    #[allow(clippy::too_many_arguments)]
    pub fn add_full_broadcast<B, M, R, P, C, FM, FR>(
        &mut self,
        name: impl Into<String>,
        input: impl Into<StageInput<M::InKey, M::InValue>>,
        broadcast: BroadcastHandle<B>,
        reduce_tasks: usize,
        mapper: FM,
        reducer: FR,
        partitioner: P,
        combiner: Option<C>,
    ) -> StageHandle<R::OutKey, R::OutValue>
    where
        B: Send + Sync + 'static,
        M: Mapper + 'static,
        R: StreamingReducer<InKey = M::OutKey, InValue = M::OutValue> + 'static,
        P: Partitioner<M::OutKey> + Send + Sync + 'static,
        C: Combiner<M::OutKey, M::OutValue> + 'static,
        FM: Fn(usize, &Arc<B>) -> M + Send + Sync + 'static,
        FR: Fn(usize, &Arc<B>) -> R + Send + Sync + 'static,
        M::InKey: Clone + Sync + ByteSize,
        M::InValue: Clone + Sync + ByteSize,
    {
        assert!(
            broadcast.slot < self.broadcasts.len(),
            "broadcast handle does not belong to this plan"
        );
        fn value<B: Send + Sync + 'static>(b: &[AnyPart]) -> Arc<B> {
            Arc::clone(&b[0])
                .downcast::<B>()
                .unwrap_or_else(|_| panic!("broadcast value has the handle's declared type"))
        }
        self.add_inner(
            name.into(),
            input.into(),
            vec![broadcast.slot],
            reduce_tasks,
            Box::new(move |i, b: &[AnyPart]| mapper(i, &value::<B>(b))),
            Box::new(move |i, b: &[AnyPart]| reducer(i, &value::<B>(b))),
            partitioner,
            combiner,
        )
    }

    /// Shared type-erased stage builder: resolves the input edges, then
    /// builds the map/transpose/reduce closures — the engine's one
    /// definition of a MapReduce task body.
    #[allow(clippy::too_many_arguments)]
    fn add_inner<M, R, P, C>(
        &mut self,
        name: String,
        input: StageInput<M::InKey, M::InValue>,
        bcast_slots: Vec<usize>,
        reduce_tasks: usize,
        mapper: ErasedFactory<M>,
        reducer: ErasedFactory<R>,
        partitioner: P,
        combiner: Option<C>,
    ) -> StageHandle<R::OutKey, R::OutValue>
    where
        M: Mapper + 'static,
        R: StreamingReducer<InKey = M::OutKey, InValue = M::OutValue> + 'static,
        P: Partitioner<M::OutKey> + Send + Sync + 'static,
        C: Combiner<M::OutKey, M::OutValue> + 'static,
        M::InKey: Clone + Sync + ByteSize,
        M::InValue: Clone + Sync + ByteSize,
    {
        assert!(reduce_tasks > 0, "a stage needs at least one reduce task");
        let num_reduce = reduce_tasks;

        let (mut edges, n_splits) = match input {
            StageInput::Dataset(d) => {
                let mut parts: Vec<AnyPart> = d
                    .into_partitions()
                    .into_iter()
                    .map(|p| Arc::new(p) as AnyPart)
                    .collect();
                if parts.is_empty() {
                    // A stage must have at least one map task or its
                    // shuffle would never trigger.
                    parts.push(Arc::new(Vec::<(M::InKey, M::InValue)>::new()));
                }
                let n = parts.len();
                (vec![InputEdge::External(parts)], n)
            }
            StageInput::Stage(h) => {
                assert!(
                    h.idx < self.stages.len(),
                    "input handle does not refer to an earlier stage of this plan"
                );
                let n = self.stages[h.idx].reduce_tasks;
                (vec![InputEdge::Shuffle(h.idx)], n)
            }
            StageInput::Stages(hs) => {
                assert!(
                    !hs.is_empty(),
                    "a multi-input stage needs at least one upstream"
                );
                for h in &hs {
                    assert!(
                        h.idx < self.stages.len(),
                        "input handle does not refer to an earlier stage of this plan"
                    );
                    assert_eq!(
                        self.stages[h.idx].reduce_tasks, self.stages[hs[0].idx].reduce_tasks,
                        "multi-input stages need co-partitioned upstreams \
                         (equal reduce_tasks)"
                    );
                }
                let n = self.stages[hs[0].idx].reduce_tasks;
                (hs.iter().map(|h| InputEdge::Shuffle(h.idx)).collect(), n)
            }
        };
        for slot in bcast_slots {
            assert!(
                slot < self.broadcasts.len(),
                "broadcast handle does not belong to this plan"
            );
            edges.push(InputEdge::Broadcast(slot));
        }

        // A commutative combiner erases any equal-key permutation before
        // the shuffle observes it, which licenses the faster unstable
        // map-side bucket sort; everything else keeps the stable sort so
        // reducers see values in exact emission order.
        let unstable_bucket_sort = combiner.as_ref().is_some_and(|c| c.is_commutative());

        let map_name = name.clone();
        let run_map: MapFn = Box::new(move |task_idx, parts, bvals, attempt, phase_start, tags| {
            let queue = phase_start.elapsed();
            let mut task_span = span("mr.task", "map");
            task_span.record("job", map_name.as_str());
            task_span.record("index", task_idx);
            task_span.record("attempt", attempt);
            task_span.record("plan", tags.plan);
            task_span.record("run", tags.run);
            task_span.record("stage", tags.stage);
            task_span.record("partition", task_idx);
            let start = Instant::now();
            let mut m = mapper(task_idx, bvals);
            let mut out: Emitter<M::OutKey, M::OutValue> = Emitter::new();
            m.setup();
            let mut input_records = 0usize;
            let mut input_bytes = 0usize;
            // A fan-in split maps the concatenation of partition
            // `task_idx` of every shuffle upstream, in edge order.
            for part in parts {
                let split: &Vec<(M::InKey, M::InValue)> = part
                    .downcast_ref()
                    .expect("plan stage map input has the stage's declared type");
                input_records += split.len();
                for (k, v) in split.iter() {
                    input_bytes += k.byte_size() + v.byte_size();
                    m.map(k.clone(), v.clone(), &mut out);
                }
            }
            m.cleanup(&mut out);

            let pre_records = out.len();
            let pre_bytes = out.bytes();
            let (pairs, _) = out.into_parts();

            // Partition into reduce buckets, sort each by key, and apply
            // the combiner per key run (Hadoop's spill pipeline, without
            // disk).
            let mut buckets: Vec<Vec<(M::OutKey, M::OutValue)>> =
                (0..num_reduce).map(|_| Vec::new()).collect();
            for (k, v) in pairs {
                let p = partitioner.partition(&k, num_reduce);
                debug_assert!(p < num_reduce);
                buckets[p].push((k, v));
            }
            let mut post_bytes = 0usize;
            let mut post_records = 0usize;
            for bucket in &mut buckets {
                if unstable_bucket_sort {
                    bucket.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                } else {
                    bucket.sort_by(|a, b| a.0.cmp(&b.0));
                }
                if let Some(c) = combiner.as_ref() {
                    *bucket = combine_runs(std::mem::take(bucket), c);
                }
                post_records += bucket.len();
                post_bytes += bucket
                    .iter()
                    .map(|(k, v)| k.byte_size() + v.byte_size())
                    .sum::<usize>();
            }

            task_span.record("input_records", input_records);
            task_span.record("output_records", post_records);
            let stat = TaskStat {
                kind: TaskKind::Map,
                index: task_idx,
                duration: start.elapsed(),
                queue,
                input_records,
                input_bytes,
                input_keys: 0,
                output_records: post_records,
                output_bytes: post_bytes,
            };
            let sealed: Vec<SharedRun<M::OutKey, M::OutValue>> =
                buckets.into_iter().map(Arc::new).collect();
            (Box::new(sealed) as AnySealed, stat, pre_records, pre_bytes)
        });

        // Each map task sealed its sorted buckets behind Arcs (O(1) per
        // bucket — ownership moves, data is not copied); partition r's
        // column clones the r-th Arc of every map output in map-task order
        // (the merge's determinism tie-break). The result is checkpointed
        // in the SpillStore so reduce attempts re-fetch shared views.
        let transpose: TransposeFn = Box::new(move |sealed| {
            let sealed: Vec<Vec<SharedRun<M::OutKey, M::OutValue>>> = sealed
                .into_iter()
                .map(|b| {
                    *b.downcast::<Vec<SharedRun<M::OutKey, M::OutValue>>>()
                        .expect("sealed map output has the stage's declared type")
                })
                .collect();
            let columns: Vec<Vec<SharedRun<M::OutKey, M::OutValue>>> = (0..num_reduce)
                .map(|r| {
                    sealed
                        .iter()
                        .map(|task_runs| Arc::clone(&task_runs[r]))
                        .collect()
                })
                .collect();
            Arc::new(SpillStore::from_shared(columns)) as AnySpill
        });

        let reduce_name = name.clone();
        let run_reduce: ReduceFn =
            Box::new(move |task_idx, spill, bvals, attempt, phase_start, tags| {
                let spill: &SpillStore<M::OutKey, M::OutValue> = spill
                    .downcast_ref()
                    .expect("spill store has the stage's declared type");
                let queue = phase_start.elapsed();
                let mut task_span = span("mr.task", "reduce");
                task_span.record("job", reduce_name.as_str());
                task_span.record("index", task_idx);
                task_span.record("attempt", attempt);
                task_span.record("plan", tags.plan);
                task_span.record("run", tags.run);
                task_span.record("stage", tags.stage);
                task_span.record("partition", task_idx);
                // Every attempt re-fetches shared views of the checkpointed
                // runs — a retry never re-runs the map phase.
                let runs = spill.fetch(task_idx);
                let start = Instant::now();
                let mut r = reducer(task_idx, bvals);
                let mut out: Emitter<R::OutKey, R::OutValue> = Emitter::new();
                r.setup();

                // Byte-account the input up front, then k-way merge the
                // sorted runs — O(n log k); the map side already paid the
                // O(n log n). Equal keys drain in run (map-task) order.
                let mut input_records = 0usize;
                let mut input_bytes = 0usize;
                for run in &runs {
                    input_records += run.len();
                    input_bytes += run
                        .iter()
                        .map(|(k, v)| k.byte_size() + v.byte_size())
                        .sum::<usize>();
                }
                let slices: Vec<&[(M::OutKey, M::OutValue)]> =
                    runs.iter().map(|run| run.as_slice()).collect();
                let mut input_keys = 0usize;
                GroupedRuns::new(slices).for_each_group(|key, values| {
                    input_keys += 1;
                    r.reduce_group(key, values, &mut out);
                });
                r.cleanup(&mut out);

                let output_records = out.len();
                let output_bytes = out.bytes();
                let (pairs, _) = out.into_parts();
                task_span.record("input_records", input_records);
                task_span.record("input_keys", input_keys);
                task_span.record("output_records", output_records);
                let stat = TaskStat {
                    kind: TaskKind::Reduce,
                    index: task_idx,
                    duration: start.elapsed(),
                    queue,
                    input_records,
                    input_bytes,
                    input_keys,
                    output_records,
                    output_bytes,
                };
                (Arc::new(pairs) as AnyPart, stat)
            });

        let idx = self.stages.len();
        self.stages.push(Stage {
            name,
            edges,
            n_splits,
            reduce_tasks,
            kind: StageKind::MapReduce {
                run_map,
                transpose,
                run_reduce,
            },
        });
        StageHandle {
            idx,
            _t: PhantomData,
        }
    }

    /// Add a **co-group stage**: no map or shuffle phase. The stage's
    /// tasks consume the sealed, co-partitioned reduce partitions of the
    /// listed upstream stages directly — task `i` merges partition `i` of
    /// every upstream (side = upstream's position in `upstreams`) through
    /// the multi-source loser-tree plane and hands the reducer one
    /// side-tagged group per distinct key.
    ///
    /// This is the fan-in shape MapReduce-native joins want: where an
    /// identity-rekey fan-in stage would re-shuffle exactly the records
    /// its co-partitioned upstreams already routed, a co-group stage
    /// ships zero shuffle bytes. Scheduling is partition-granular in
    /// [`PlanMode::Pipelined`] (task `i` queues the moment partition `i`
    /// of *every* upstream seals) and barriered in
    /// [`PlanMode::Sequential`]; retries re-fetch the sealed upstream
    /// partitions without re-running any upstream work.
    ///
    /// # Panics
    /// Panics if `upstreams` is empty, a handle does not refer to an
    /// earlier stage of this plan, or the upstreams are not
    /// co-partitioned (unequal `reduce_tasks`).
    pub fn add_cogroup<R, FR>(
        &mut self,
        name: impl Into<String>,
        upstreams: Vec<StageHandle<R::InKey, R::InValue>>,
        reducer: FR,
    ) -> StageHandle<R::OutKey, R::OutValue>
    where
        R: CoGroupReducer + 'static,
        FR: Fn(usize) -> R + Send + Sync + 'static,
    {
        self.add_cogroup_inner(
            name.into(),
            upstreams,
            Vec::new(),
            Box::new(move |i, _b: &[AnyPart]| reducer(i)),
        )
    }

    /// Like [`Plan::add_cogroup`], but the stage additionally consumes a
    /// [`Broadcast`](StageEdge::Broadcast) edge (same contract as
    /// [`Plan::add_full_broadcast`]: the factory receives the broadcast
    /// value at every task attempt and must not capture it).
    pub fn add_cogroup_broadcast<B, R, FR>(
        &mut self,
        name: impl Into<String>,
        upstreams: Vec<StageHandle<R::InKey, R::InValue>>,
        broadcast: BroadcastHandle<B>,
        reducer: FR,
    ) -> StageHandle<R::OutKey, R::OutValue>
    where
        B: Send + Sync + 'static,
        R: CoGroupReducer + 'static,
        FR: Fn(usize, &Arc<B>) -> R + Send + Sync + 'static,
    {
        assert!(
            broadcast.slot < self.broadcasts.len(),
            "broadcast handle does not belong to this plan"
        );
        fn value<B: Send + Sync + 'static>(b: &[AnyPart]) -> Arc<B> {
            Arc::clone(&b[0])
                .downcast::<B>()
                .unwrap_or_else(|_| panic!("broadcast value has the handle's declared type"))
        }
        self.add_cogroup_inner(
            name.into(),
            upstreams,
            vec![broadcast.slot],
            Box::new(move |i, b: &[AnyPart]| reducer(i, &value::<B>(b))),
        )
    }

    /// Shared type-erased co-group stage builder.
    fn add_cogroup_inner<R>(
        &mut self,
        name: String,
        upstreams: Vec<StageHandle<R::InKey, R::InValue>>,
        bcast_slots: Vec<usize>,
        reducer: ErasedFactory<R>,
    ) -> StageHandle<R::OutKey, R::OutValue>
    where
        R: CoGroupReducer + 'static,
    {
        assert!(
            !upstreams.is_empty(),
            "a co-group stage needs at least one upstream"
        );
        for h in &upstreams {
            assert!(
                h.idx < self.stages.len(),
                "input handle does not refer to an earlier stage of this plan"
            );
            assert_eq!(
                self.stages[h.idx].reduce_tasks, self.stages[upstreams[0].idx].reduce_tasks,
                "co-group stages need co-partitioned upstreams (equal reduce_tasks)"
            );
        }
        let reduce_tasks = self.stages[upstreams[0].idx].reduce_tasks;
        let mut edges: Vec<InputEdge> = upstreams
            .iter()
            .map(|h| InputEdge::Shuffle(h.idx))
            .collect();
        for slot in bcast_slots {
            assert!(
                slot < self.broadcasts.len(),
                "broadcast handle does not belong to this plan"
            );
            edges.push(InputEdge::Broadcast(slot));
        }

        let cg_name = name.clone();
        let run_cogroup: CoGroupFn =
            Box::new(move |task_idx, parts, bvals, attempt, phase_start, tags| {
                let queue = phase_start.elapsed();
                let mut task_span = span("mr.task", "cogroup");
                task_span.record("job", cg_name.as_str());
                task_span.record("index", task_idx);
                task_span.record("attempt", attempt);
                task_span.record("plan", tags.plan);
                task_span.record("run", tags.run);
                task_span.record("stage", tags.stage);
                task_span.record("partition", task_idx);
                let start = Instant::now();
                let mut r = reducer(task_idx, bvals);
                let mut out: Emitter<R::OutKey, R::OutValue> = Emitter::new();
                r.setup();

                // One sealed partition per side (edge order). Sealed
                // reduce outputs are group-ordered (reducers see keys
                // ascending), so each is one sorted run; a reducer that
                // emitted out of key order is tolerated by stable-sorting
                // a copy — bit-for-bit what the identity-rekey fan-in
                // map's stable bucket sort would have produced.
                let side_parts: Vec<&Vec<(R::InKey, R::InValue)>> = parts
                    .iter()
                    .map(|part| {
                        part.downcast_ref()
                            .expect("co-group input has the stage's declared type")
                    })
                    .collect();
                let runs: Vec<_> = side_parts
                    .iter()
                    .map(|side| {
                        if side.windows(2).all(|w| w[0].0 <= w[1].0) {
                            Cow::Borrowed(side.as_slice())
                        } else {
                            let mut copy = (*side).clone();
                            copy.sort_by(|a, b| a.0.cmp(&b.0));
                            Cow::Owned(copy)
                        }
                    })
                    .collect();

                let mut input_records = 0usize;
                let mut input_bytes = 0usize;
                for side in &side_parts {
                    input_records += side.len();
                    input_bytes += side
                        .iter()
                        .map(|(k, v)| k.byte_size() + v.byte_size())
                        .sum::<usize>();
                }
                let mut input_keys = 0usize;
                CoGroupedRuns::new(runs.iter().map(|run| vec![&run[..]]).collect()).for_each_group(
                    |key, values| {
                        input_keys += 1;
                        r.cogroup(key, values, &mut out);
                    },
                );
                r.cleanup(&mut out);

                let output_records = out.len();
                let output_bytes = out.bytes();
                let (pairs, _) = out.into_parts();
                task_span.record("input_records", input_records);
                task_span.record("input_keys", input_keys);
                task_span.record("output_records", output_records);
                let stat = TaskStat {
                    kind: TaskKind::CoGroup,
                    index: task_idx,
                    duration: start.elapsed(),
                    queue,
                    input_records,
                    input_bytes,
                    input_keys,
                    output_records,
                    output_bytes,
                };
                (Arc::new(pairs) as AnyPart, stat)
            });

        let idx = self.stages.len();
        self.stages.push(Stage {
            name,
            edges,
            n_splits: 0,
            reduce_tasks,
            kind: StageKind::CoGroup { run_cogroup },
        });
        StageHandle {
            idx,
            _t: PhantomData,
        }
    }
}

// ---------------------------------------------------------------------------
// Runner.
// ---------------------------------------------------------------------------

/// Executes a [`Plan`] on one shared worker pool.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanRunner {
    mode: PlanMode,
}

impl PlanRunner {
    /// A runner with the given sequencing mode.
    pub fn new(mode: PlanMode) -> Self {
        PlanRunner { mode }
    }

    /// A pipelined runner (the default).
    pub fn pipelined() -> Self {
        PlanRunner::new(PlanMode::Pipelined)
    }

    /// A stage-barriered runner (the sequential baseline).
    pub fn sequential() -> Self {
        PlanRunner::new(PlanMode::Sequential)
    }

    /// Execute every stage of the plan.
    ///
    /// # Panics
    /// Panics with the [`TaskFailure`] message if any task exhausts its
    /// retry budget.
    pub fn run(&self, plan: Plan) -> PlanOutcome {
        run_plan(plan, self.mode)
    }
}

/// The result of executing a [`Plan`].
pub struct PlanOutcome {
    /// Per-stage [`JobMetrics`] in stage-declaration order, each with
    /// [`JobMetrics::plan_stage`] set to `(plan name, stage index)`.
    pub metrics: ChainMetrics,
    /// High-water mark of live intermediate bytes: the summed logical size
    /// of reduce-output partitions that had been produced but not yet
    /// dropped (only stages with downstream consumers count — terminal
    /// outputs are results, not intermediates).
    pub peak_live_bytes: usize,
    deps: Vec<Vec<usize>>,
    outputs: Vec<Vec<Option<AnyPart>>>,
}

impl PlanOutcome {
    /// Shuffle-upstream dependencies of each stage (empty = external
    /// input) — the shape
    /// [`ClusterModel::simulate_plan`](crate::ClusterModel::simulate_plan)
    /// takes alongside [`Self::metrics`].
    pub fn deps(&self) -> &[Vec<usize>] {
        &self.deps
    }

    /// Take a stage's output dataset (partitions in reduce-task order).
    ///
    /// # Panics
    /// Panics if the output was consumed by a downstream stage (consumed
    /// intermediates are dropped eagerly) or already taken.
    pub fn take_output<K: Key, V: Value>(&mut self, h: StageHandle<K, V>) -> Dataset<K, V> {
        let parts = &mut self.outputs[h.idx];
        let partitions: Vec<Vec<(K, V)>> = parts
            .iter_mut()
            .map(|slot| {
                let part = slot
                    .take()
                    .expect("stage output was consumed by a downstream stage or already taken");
                let part = part
                    .downcast::<Vec<(K, V)>>()
                    .expect("stage output has the handle's declared type");
                Arc::try_unwrap(part).unwrap_or_else(|shared| (*shared).clone())
            })
            .collect();
        Dataset::from_partitions(partitions)
    }

    /// Take a stage's output as its **sealed** partitions — the `Arc`s the
    /// reduce tasks published, in reduce-task order — without materializing
    /// a [`Dataset`].
    ///
    /// [`Self::take_output`] unwraps each partition `Arc` and falls back to
    /// a deep clone when the partition is still shared; long-lived
    /// consumers that keep the partitions as-is (the serving plane's
    /// `ServeIndex::from_plan` builds its posting directory *over* the
    /// sealed partitions) use this accessor instead: handing out the `Arc`s
    /// is O(partitions) pointer clones and never copies a single record,
    /// which the serve crate's counting-allocator test pins down.
    ///
    /// # Panics
    /// Panics if the output was consumed by a downstream stage (consumed
    /// intermediates are dropped eagerly) or already taken.
    pub fn take_sealed<K: Key, V: Value>(&mut self, h: StageHandle<K, V>) -> Vec<Arc<Vec<(K, V)>>> {
        self.outputs[h.idx]
            .iter_mut()
            .map(|slot| {
                let part = slot
                    .take()
                    .expect("stage output was consumed by a downstream stage or already taken");
                part.downcast::<Vec<(K, V)>>()
                    .expect("stage output has the handle's declared type")
            })
            .collect()
    }
}

/// One schedulable attempt.
struct Queued {
    stage: usize,
    phase: Phase,
    task: usize,
    attempt: u32,
    not_before: Instant,
}

/// Per-stage mutable scheduler state.
struct StageRt {
    maps_total: usize,
    consumers: usize,
    /// Pipelined release: per map split, how many shuffle-upstream
    /// partitions are still unsealed. Split `i` queues when this reaches 0
    /// (external stages start at 0 and queue up front).
    pending_split: Vec<usize>,
    /// Pipelined release for co-group stages (which have no map splits):
    /// per reduce partition, how many shuffle-upstream partitions are
    /// still unsealed. Co-group task `i` queues when this reaches 0.
    pending_part: Vec<usize>,
    /// Sequential barrier: how many shuffle edges' upstream stages are
    /// still incomplete. All maps (co-group: all tasks) queue when this
    /// reaches 0.
    pending_up: usize,
    map_done: usize,
    reduce_done: usize,
    map_launched: Vec<u32>,
    map_failed: Vec<u32>,
    red_launched: Vec<u32>,
    red_failed: Vec<u32>,
    sealed: Vec<Option<AnySealed>>,
    spill: Option<AnySpill>,
    outputs: Vec<Option<AnyPart>>,
    out_bytes: Vec<usize>,
    part_consumers: Vec<usize>,
    map_stats: Vec<Option<TaskStat>>,
    red_stats: Vec<Option<TaskStat>>,
    pre_records: usize,
    pre_bytes: usize,
    shuffle_records: usize,
    shuffle_bytes: usize,
    exec: ExecSummary,
    started: Option<Instant>,
    map_started: Option<Instant>,
    map_elapsed: Duration,
    shuffle_elapsed: Duration,
    reduce_started: Option<Instant>,
    reduce_elapsed: Duration,
    job_span: Option<Span>,
    map_span: Option<Span>,
    reduce_span: Option<Span>,
    metrics: Option<JobMetrics>,
}

impl StageRt {
    fn new(
        maps_total: usize,
        reduce_tasks: usize,
        consumers: usize,
        fan_in: usize,
        cogroup: bool,
    ) -> Self {
        StageRt {
            maps_total,
            consumers,
            pending_split: vec![fan_in; maps_total],
            pending_part: if cogroup {
                vec![fan_in; reduce_tasks]
            } else {
                Vec::new()
            },
            pending_up: fan_in,
            map_done: 0,
            reduce_done: 0,
            map_launched: vec![0; maps_total],
            map_failed: vec![0; maps_total],
            red_launched: vec![0; reduce_tasks],
            red_failed: vec![0; reduce_tasks],
            sealed: (0..maps_total).map(|_| None).collect(),
            spill: None,
            outputs: (0..reduce_tasks).map(|_| None).collect(),
            out_bytes: vec![0; reduce_tasks],
            part_consumers: vec![0; reduce_tasks],
            map_stats: (0..maps_total).map(|_| None).collect(),
            red_stats: (0..reduce_tasks).map(|_| None).collect(),
            pre_records: 0,
            pre_bytes: 0,
            shuffle_records: 0,
            shuffle_bytes: 0,
            exec: ExecSummary::default(),
            started: None,
            map_started: None,
            map_elapsed: Duration::ZERO,
            shuffle_elapsed: Duration::ZERO,
            reduce_started: None,
            reduce_elapsed: Duration::ZERO,
            job_span: None,
            map_span: None,
            reduce_span: None,
            metrics: None,
        }
    }
}

/// Shared scheduler state.
struct RunState {
    stages: Vec<StageRt>,
    queue: VecDeque<Queued>,
    completed_stages: usize,
    fatal: Option<TaskFailure>,
    live_bytes: usize,
    peak_live_bytes: usize,
    /// Broadcast values by slot; a slot is dropped (freeing the value,
    /// barring caller-held `Arc`s) when its refcount hits zero.
    bcasts: Vec<Option<AnyPart>>,
    /// Remaining consumer *edges* per broadcast slot, decremented as each
    /// consumer stage finalizes.
    bcast_refs: Vec<usize>,
}

enum Step {
    Run(Queued),
    Wait(Option<Duration>),
    Exit,
}

/// Pick the next runnable attempt. Among runnable entries the runner
/// prefers the *downstream-most* stage (then lowest task index): draining
/// downstream maps first is what drops consumed upstream partitions
/// eagerly and keeps the live-intermediate high-water mark low. Any pick
/// order yields identical results and logical metrics — this one just
/// minimizes memory.
fn next_step(state: &mut RunState, n_stages: usize) -> Step {
    if state.fatal.is_some() {
        // Plan is lost: start no new attempts; in-flight attempts finish
        // (the scope join waits for them).
        return Step::Exit;
    }
    if state.completed_stages == n_stages {
        return Step::Exit;
    }
    let now = Instant::now();
    let mut earliest: Option<Instant> = None;
    let mut pick: Option<(usize, usize, usize)> = None; // (stage, task, queue idx)
    for (qi, item) in state.queue.iter().enumerate() {
        if item.not_before > now {
            earliest = Some(earliest.map_or(item.not_before, |e| e.min(item.not_before)));
            continue;
        }
        let better = match pick {
            None => true,
            Some((s, t, _)) => item.stage > s || (item.stage == s && item.task < t),
        };
        if better {
            pick = Some((item.stage, item.task, qi));
        }
    }
    if let Some((_, _, qi)) = pick {
        let item = state.queue.remove(qi).expect("index in range");
        return Step::Run(item);
    }
    Step::Wait(earliest.map(|t| {
        t.saturating_duration_since(now)
            .max(Duration::from_micros(100))
    }))
}

fn run_plan(mut plan: Plan, mode: PlanMode) -> PlanOutcome {
    let n_stages = plan.stages.len();
    let deps = plan.deps();
    // The runner owns the broadcast values for the duration of the run so
    // it can drop each one the moment its last consumer stage finishes.
    let bcast_init: Vec<AnyPart> = std::mem::take(&mut plan.broadcasts);
    let run = next_plan_run_id();
    let mut plan_span = span("mr.plan", &plan.name);
    plan_span.record("plan", plan.name.as_str());
    plan_span.record("run", run);
    plan_span.record("stages", n_stages);
    plan_span.record(
        "mode",
        match mode {
            PlanMode::Pipelined => "pipelined",
            PlanMode::Sequential => "sequential",
        },
    );

    // Consumer lists: which stages read stage u's output, one entry per
    // shuffle edge (a stage consuming u twice appears twice — refcounts
    // and release decrements then stay consistent).
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n_stages];
    for (j, ups) in deps.iter().enumerate() {
        for &u in ups {
            consumers[u].push(j);
        }
    }

    // Broadcast refcounts: one per consumer edge; unreferenced values are
    // dropped before the run even starts.
    let mut bcast_refs = vec![0usize; bcast_init.len()];
    for stage in &plan.stages {
        for edge in &stage.edges {
            if let InputEdge::Broadcast(s) = edge {
                bcast_refs[*s] += 1;
            }
        }
    }
    let bcasts: Vec<Option<AnyPart>> = bcast_init
        .into_iter()
        .zip(&bcast_refs)
        .map(|(v, &refs)| (refs > 0).then_some(v))
        .collect();

    let effective_faults = plan.faults.clone().or_else(ssj_faults::active_plan);
    let fault_plan = effective_faults.as_deref().filter(|p| p.is_active());
    let retry = plan.retry;
    let workers = plan.workers.max(1);

    let mut stage_rts = Vec::with_capacity(n_stages);
    let mut initial = VecDeque::new();
    for (j, stage) in plan.stages.iter().enumerate() {
        let maps_total = stage.n_splits;
        let fan_in = deps[j].len();
        stage_rts.push(StageRt::new(
            maps_total,
            stage.reduce_tasks,
            consumers[j].len(),
            fan_in,
            stage.is_cogroup(),
        ));
        if fan_in == 0 {
            // External-input stages (broadcast edges don't gate
            // scheduling) queue all their maps up front.
            for t in 0..maps_total {
                initial.push_back(Queued {
                    stage: j,
                    phase: Phase::Map,
                    task: t,
                    attempt: 0,
                    not_before: Instant::now(),
                });
            }
        }
    }

    let state = Mutex::new(RunState {
        stages: stage_rts,
        queue: initial,
        completed_stages: 0,
        fatal: None,
        live_bytes: 0,
        peak_live_bytes: 0,
        bcasts,
        bcast_refs,
    });
    let wakeup = Condvar::new();
    let plan_ref = &plan;
    let consumers_ref = &consumers;
    let deps_ref = &deps;

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                plan_worker_loop(
                    plan_ref,
                    mode,
                    run,
                    fault_plan,
                    &retry,
                    consumers_ref,
                    deps_ref,
                    &state,
                    &wakeup,
                );
            });
        }
    });

    let state = state.into_inner().unwrap_or_else(|e| e.into_inner());
    if let Some(failure) = state.fatal {
        panic!("{failure}");
    }
    let mut metrics = ChainMetrics::default();
    let mut outputs = Vec::with_capacity(n_stages);
    for rt in state.stages {
        metrics.push(rt.metrics.expect("completed stage has metrics"));
        outputs.push(rt.outputs);
    }
    plan_span.record("peak_live_bytes", state.peak_live_bytes);
    drop(plan_span);

    PlanOutcome {
        metrics,
        peak_live_bytes: state.peak_live_bytes,
        deps,
        outputs,
    }
}

/// Ensure the stage's job/map spans and start instants exist; returns the
/// map-phase start used for queue-time accounting.
fn ensure_stage_started(
    rt: &mut StageRt,
    stage: &Stage,
    plan_name: &str,
    run: u64,
    stage_idx: usize,
    now: Instant,
) -> Instant {
    if rt.started.is_none() {
        rt.started = Some(now);
        let mut job_span = span("mr.job", &stage.name);
        job_span.record("reduce_tasks", stage.reduce_tasks);
        // DAG-identity args: a profiler reconstructs the plan shape from
        // the job spans alone. `upstream` is the encoded shuffle-upstream
        // list ("-" = external input, else e.g. "0" or "0,1").
        job_span.record("plan", plan_name);
        job_span.record("run", run);
        job_span.record("stage", stage_idx);
        let upstreams = ssj_observe::encode_upstreams(&stage.upstreams());
        job_span.record("upstream", upstreams.as_str());
        rt.job_span = Some(job_span);
        let mut map_span = span("mr.phase", "map");
        map_span.record("job", stage.name.as_str());
        map_span.record("tasks", rt.maps_total);
        rt.map_span = Some(map_span);
        rt.map_started = Some(now);
    }
    rt.map_started.expect("map phase started")
}

/// Co-group counterpart of [`ensure_stage_started`]: a co-group stage has
/// no map or shuffle phase, so its first claimed task opens the job span
/// (tagged `kind = "cogroup"`) and the reduce phase directly.
fn ensure_cogroup_started(
    rt: &mut StageRt,
    stage: &Stage,
    plan_name: &str,
    run: u64,
    stage_idx: usize,
    now: Instant,
) -> Instant {
    if rt.started.is_none() {
        rt.started = Some(now);
        let mut job_span = span("mr.job", &stage.name);
        job_span.record("reduce_tasks", stage.reduce_tasks);
        job_span.record("plan", plan_name);
        job_span.record("run", run);
        job_span.record("stage", stage_idx);
        job_span.record("kind", "cogroup");
        let upstreams = ssj_observe::encode_upstreams(&stage.upstreams());
        job_span.record("upstream", upstreams.as_str());
        rt.job_span = Some(job_span);
        rt.reduce_started = Some(now);
        let mut reduce_span = span("mr.phase", "cogroup");
        reduce_span.record("job", stage.name.as_str());
        reduce_span.record("tasks", stage.reduce_tasks);
        rt.reduce_span = Some(reduce_span);
    }
    rt.reduce_started.expect("co-group phase started")
}

#[allow(clippy::too_many_arguments)]
/// One claimed attempt's input snapshot (all `Arc` clones taken under the
/// scheduler lock).
enum Claimed {
    Map {
        parts: Vec<AnyPart>,
        bvals: Vec<AnyPart>,
    },
    Reduce {
        spill: AnySpill,
        bvals: Vec<AnyPart>,
    },
    /// A co-group task's input: partition `task` of every shuffle
    /// upstream, in edge order (re-fetching is an `Arc` clone, so a
    /// retry never re-runs upstream work).
    CoGroup {
        parts: Vec<AnyPart>,
        bvals: Vec<AnyPart>,
    },
}

/// Clone the broadcast values a stage's edges reference, in edge order.
fn claim_broadcasts(guard: &RunState, stage: &Stage) -> Vec<AnyPart> {
    stage
        .edges
        .iter()
        .filter_map(|edge| match edge {
            InputEdge::Broadcast(s) => {
                Some(Arc::clone(guard.bcasts[*s].as_ref().expect(
                    "broadcast value is alive until all consumer stages finish",
                )))
            }
            _ => None,
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn plan_worker_loop(
    plan: &Plan,
    mode: PlanMode,
    run: u64,
    fault_plan: Option<&FaultPlan>,
    retry: &RetryPolicy,
    consumers: &[Vec<usize>],
    deps: &[Vec<usize>],
    state: &Mutex<RunState>,
    wakeup: &Condvar,
) {
    let n_stages = plan.stages.len();
    loop {
        // ---- Claim an attempt and snapshot its input under the lock. ----
        let (item, input, phase_start) = {
            let guard = state.lock().unwrap_or_else(|e| e.into_inner());
            let mut guard = guard;
            let item = match next_step(&mut guard, n_stages) {
                Step::Run(item) => item,
                Step::Exit => {
                    drop(guard);
                    wakeup.notify_all();
                    return;
                }
                Step::Wait(timeout) => {
                    match timeout {
                        Some(t) => drop(wakeup.wait_timeout(guard, t)),
                        None => drop(wakeup.wait(guard)),
                    }
                    continue;
                }
            };
            let now = Instant::now();
            let stage = &plan.stages[item.stage];
            let (input, phase_start) = match item.phase {
                Phase::Map => {
                    // Snapshot partition `task` of every split edge plus
                    // the broadcast values, in edge order. Re-fetching a
                    // sealed upstream partition is an Arc clone, alive
                    // until this map succeeds — so a retry is free for
                    // every upstream.
                    let mut parts = Vec::new();
                    for edge in &stage.edges {
                        match edge {
                            InputEdge::External(ps) => parts.push(Arc::clone(&ps[item.task])),
                            InputEdge::Shuffle(u) => parts.push(Arc::clone(
                                guard.stages[*u].outputs[item.task]
                                    .as_ref()
                                    .expect("sealed upstream partition is alive until consumed"),
                            )),
                            InputEdge::Broadcast(_) => {}
                        }
                    }
                    let bvals = claim_broadcasts(&guard, stage);
                    let rt = &mut guard.stages[item.stage];
                    let phase_start =
                        ensure_stage_started(rt, stage, &plan.name, run, item.stage, now);
                    rt.map_launched[item.task] += 1;
                    rt.exec.attempts += 1;
                    (Claimed::Map { parts, bvals }, phase_start)
                }
                Phase::Reduce if stage.is_cogroup() => {
                    // Snapshot partition `task` of every shuffle upstream
                    // plus the broadcast values, in edge order — the same
                    // sealed-partition re-fetch a fan-in map performs,
                    // minus the map/shuffle it would have paid.
                    let mut parts = Vec::new();
                    for edge in &stage.edges {
                        match edge {
                            InputEdge::Shuffle(u) => parts.push(Arc::clone(
                                guard.stages[*u].outputs[item.task]
                                    .as_ref()
                                    .expect("sealed upstream partition is alive until consumed"),
                            )),
                            InputEdge::External(_) | InputEdge::Broadcast(_) => {}
                        }
                    }
                    let bvals = claim_broadcasts(&guard, stage);
                    let rt = &mut guard.stages[item.stage];
                    let phase_start =
                        ensure_cogroup_started(rt, stage, &plan.name, run, item.stage, now);
                    rt.red_launched[item.task] += 1;
                    rt.exec.attempts += 1;
                    (Claimed::CoGroup { parts, bvals }, phase_start)
                }
                Phase::Reduce => {
                    let bvals = claim_broadcasts(&guard, stage);
                    let rt = &mut guard.stages[item.stage];
                    let spill =
                        Arc::clone(rt.spill.as_ref().expect("spill exists once reduces queue"));
                    let phase_start = rt.reduce_started.expect("reduce phase started");
                    rt.red_launched[item.task] += 1;
                    rt.exec.attempts += 1;
                    (Claimed::Reduce { spill, bvals }, phase_start)
                }
            };
            (item, input, phase_start)
        };

        // ---- Run the attempt outside the lock (executor semantics). ----
        let stage = &plan.stages[item.stage];
        let decision =
            fault_plan.and_then(|p| p.decide(&stage.name, item.phase, item.task, item.attempt));

        enum Body {
            Map(MapOut),
            Reduce((AnyPart, TaskStat)),
        }
        let outcome: Result<Body, TaskError> = match decision {
            Some(Fault::Error) => Err(TaskError::Injected(Fault::Error)),
            Some(Fault::Panic) => {
                // A real unwind, so the capture path is exercised for real.
                let payload = InjectedPanic {
                    job: stage.name.clone(),
                    phase: item.phase,
                    task: item.task,
                    attempt: item.attempt,
                };
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    std::panic::panic_any(payload);
                }));
                debug_assert!(caught.is_err());
                Err(TaskError::Injected(Fault::Panic))
            }
            other => {
                if matches!(other, Some(Fault::Straggle)) {
                    if let Some(p) = fault_plan {
                        std::thread::sleep(p.straggler_delay);
                    }
                }
                let tags = TaskTags {
                    plan: &plan.name,
                    run,
                    stage: item.stage,
                };
                let run_body = || match &input {
                    Claimed::Map { parts, bvals } => {
                        let StageKind::MapReduce { run_map, .. } = &stage.kind else {
                            unreachable!("map attempts only queue for MapReduce stages")
                        };
                        Body::Map(run_map(
                            item.task,
                            parts,
                            bvals,
                            item.attempt,
                            phase_start,
                            &tags,
                        ))
                    }
                    Claimed::Reduce { spill, bvals } => {
                        let StageKind::MapReduce { run_reduce, .. } = &stage.kind else {
                            unreachable!("spill reduces only queue for MapReduce stages")
                        };
                        Body::Reduce(run_reduce(
                            item.task,
                            spill,
                            bvals,
                            item.attempt,
                            phase_start,
                            &tags,
                        ))
                    }
                    Claimed::CoGroup { parts, bvals } => {
                        let StageKind::CoGroup { run_cogroup } = &stage.kind else {
                            unreachable!("co-group attempts only queue for CoGroup stages")
                        };
                        Body::Reduce(run_cogroup(
                            item.task,
                            parts,
                            bvals,
                            item.attempt,
                            phase_start,
                            &tags,
                        ))
                    }
                };
                match catch_unwind(AssertUnwindSafe(run_body)) {
                    Ok(out) => Ok(out),
                    Err(payload) => {
                        if payload.downcast_ref::<InjectedPanic>().is_some() {
                            Err(TaskError::Injected(Fault::Panic))
                        } else {
                            Err(TaskError::Panicked(panic_message(&payload)))
                        }
                    }
                }
            }
        };
        drop(input);

        // ---- Record the outcome under the lock. ----
        let mut guard = state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(fault) = &decision {
            let rt = &mut guard.stages[item.stage];
            match fault {
                Fault::Error => rt.exec.injected_errors += 1,
                Fault::Panic => rt.exec.injected_panics += 1,
                Fault::Straggle => rt.exec.injected_stragglers += 1,
            }
        }
        match outcome {
            Ok(Body::Map((sealed, stat, pre_r, pre_b))) => {
                on_map_done(
                    &mut guard, plan, mode, deps, item.stage, item.task, sealed, stat, pre_r, pre_b,
                );
            }
            Ok(Body::Reduce((part, stat))) => {
                on_reduce_done(
                    &mut guard, plan, mode, consumers, deps, item.stage, item.task, part, stat,
                );
            }
            Err(error) => {
                let max_attempts = retry.max_attempts.max(1);
                let rt = &mut guard.stages[item.stage];
                let (failed, next_attempt) = match item.phase {
                    Phase::Map => {
                        rt.map_failed[item.task] += 1;
                        (rt.map_failed[item.task], rt.map_launched[item.task])
                    }
                    Phase::Reduce => {
                        rt.red_failed[item.task] += 1;
                        (rt.red_failed[item.task], rt.red_launched[item.task])
                    }
                };
                if failed >= max_attempts {
                    guard.fatal.get_or_insert(TaskFailure {
                        job: stage.name.clone(),
                        phase: item.phase,
                        index: item.task,
                        attempts: failed,
                        error,
                    });
                } else {
                    let backoff = retry.backoff(failed - 1);
                    rt.exec.retries += 1;
                    guard.queue.push_back(Queued {
                        stage: item.stage,
                        phase: item.phase,
                        task: item.task,
                        attempt: next_attempt,
                        not_before: Instant::now() + backoff,
                    });
                }
            }
        }
        drop(guard);
        wakeup.notify_all();
    }
}

/// Record a successful map attempt; trigger the stage's shuffle when it was
/// the last one.
#[allow(clippy::too_many_arguments)]
fn on_map_done(
    state: &mut RunState,
    plan: &Plan,
    mode: PlanMode,
    deps: &[Vec<usize>],
    stage_idx: usize,
    task: usize,
    sealed: AnySealed,
    stat: TaskStat,
    pre_records: usize,
    pre_bytes: usize,
) {
    {
        let rt = &mut state.stages[stage_idx];
        debug_assert!(
            rt.map_stats[task].is_none(),
            "a (stage, map task) succeeds exactly once"
        );
        rt.pre_records += pre_records;
        rt.pre_bytes += pre_bytes;
        rt.shuffle_records += stat.output_records;
        rt.shuffle_bytes += stat.output_bytes;
        rt.sealed[task] = Some(sealed);
        rt.map_stats[task] = Some(stat);
        rt.map_done += 1;
    }

    // Pipelined mode: this map has durably consumed partition `task` of
    // every shuffle upstream — release each edge's hold on it.
    if mode == PlanMode::Pipelined {
        for &u in &deps[stage_idx] {
            release_partition(state, u, task);
        }
    }

    let rt = &mut state.stages[stage_idx];
    if rt.map_done < rt.maps_total {
        return;
    }

    // ---- Last map done: close the map phase and shuffle inline. --------
    rt.map_elapsed = rt.map_started.map(|s| s.elapsed()).unwrap_or_default();
    rt.map_span = None;

    let shuffle_start = Instant::now();
    let mut shuffle_span = span("mr.phase", "shuffle");
    shuffle_span.record("job", plan.stages[stage_idx].name.as_str());
    let sealed: Vec<AnySealed> = rt
        .sealed
        .iter_mut()
        .map(|s| s.take().expect("every map task sealed its output"))
        .collect();
    let StageKind::MapReduce { transpose, .. } = &plan.stages[stage_idx].kind else {
        unreachable!("maps only run for MapReduce stages")
    };
    let spill = transpose(sealed);
    shuffle_span.record("records", rt.shuffle_records);
    shuffle_span.record("bytes", rt.shuffle_bytes);
    drop(shuffle_span);
    rt.shuffle_elapsed = shuffle_start.elapsed();
    rt.spill = Some(spill);

    let now = Instant::now();
    rt.reduce_started = Some(now);
    let mut reduce_span = span("mr.phase", "reduce");
    reduce_span.record("job", plan.stages[stage_idx].name.as_str());
    reduce_span.record("tasks", plan.stages[stage_idx].reduce_tasks);
    rt.reduce_span = Some(reduce_span);

    for t in 0..plan.stages[stage_idx].reduce_tasks {
        state.queue.push_back(Queued {
            stage: stage_idx,
            phase: Phase::Reduce,
            task: t,
            attempt: 0,
            not_before: now,
        });
    }
}

/// Record a successful reduce attempt; release downstream map splits
/// (pipelined) and finalize the stage when it was the last one.
#[allow(clippy::too_many_arguments)]
fn on_reduce_done(
    state: &mut RunState,
    plan: &Plan,
    mode: PlanMode,
    consumers: &[Vec<usize>],
    deps: &[Vec<usize>],
    stage_idx: usize,
    task: usize,
    part: AnyPart,
    stat: TaskStat,
) {
    let now = Instant::now();
    {
        let rt = &mut state.stages[stage_idx];
        debug_assert!(
            rt.red_stats[task].is_none(),
            "a (stage, reduce task) succeeds exactly once"
        );
        let bytes = stat.output_bytes;
        rt.out_bytes[task] = bytes;
        rt.outputs[task] = Some(part);
        rt.red_stats[task] = Some(stat);
        rt.reduce_done += 1;
        if rt.consumers > 0 {
            rt.part_consumers[task] = rt.consumers;
            state.live_bytes += bytes;
            state.peak_live_bytes = state.peak_live_bytes.max(state.live_bytes);
        }
    }

    // Pipelined mode: a successful co-group task has durably consumed
    // partition `task` of every shuffle upstream (the analogue of a
    // fan-in map's consumption) — release each edge's hold on it.
    if mode == PlanMode::Pipelined && plan.stages[stage_idx].is_cogroup() {
        for &u in &deps[stage_idx] {
            release_partition(state, u, task);
        }
    }

    // Pipelined mode: partition `task` is sealed — decrement each
    // consumer edge's pending count for split `task`; the split queues
    // only when EVERY shuffle upstream has sealed its partition `task`
    // (the multi-input release rule; single-input stages decrement
    // straight from 1 to 0). A co-group consumer has no map splits: its
    // *task* `task` queues directly — as Phase::Reduce — the moment every
    // upstream seals partition `task`.
    if mode == PlanMode::Pipelined {
        for &j in &consumers[stage_idx] {
            let consumer_cogroup = plan.stages[j].is_cogroup();
            let rt = &mut state.stages[j];
            let pending = if consumer_cogroup {
                &mut rt.pending_part
            } else {
                &mut rt.pending_split
            };
            debug_assert!(pending[task] > 0, "split released too often");
            pending[task] -= 1;
            if pending[task] == 0 {
                state.queue.push_back(Queued {
                    stage: j,
                    phase: if consumer_cogroup {
                        Phase::Reduce
                    } else {
                        Phase::Map
                    },
                    task,
                    attempt: 0,
                    not_before: now,
                });
            }
        }
    }

    if state.stages[stage_idx].reduce_done < plan.stages[stage_idx].reduce_tasks {
        return;
    }

    // ---- Last reduce done: finalize the stage. -------------------------
    finalize_stage(state, plan, stage_idx);
    state.completed_stages += 1;

    if mode == PlanMode::Sequential {
        // Stage barrier: a downstream stage's maps become runnable only
        // when ALL of its upstream stages have completed, and an upstream
        // stage's output partitions are released only when the consuming
        // stage completes (a job-at-a-time driver keeps whole intermediate
        // datasets alive across job boundaries).
        for &j in &consumers[stage_idx] {
            let consumer_cogroup = plan.stages[j].is_cogroup();
            let rt = &mut state.stages[j];
            debug_assert!(rt.pending_up > 0, "upstream edge completed too often");
            rt.pending_up -= 1;
            if rt.pending_up == 0 {
                // A MapReduce consumer's maps become runnable; a co-group
                // consumer has no maps — its tasks queue directly.
                let (phase, tasks) = if consumer_cogroup {
                    (Phase::Reduce, plan.stages[j].reduce_tasks)
                } else {
                    (Phase::Map, rt.maps_total)
                };
                for t in 0..tasks {
                    state.queue.push_back(Queued {
                        stage: j,
                        phase,
                        task: t,
                        attempt: 0,
                        not_before: now,
                    });
                }
            }
        }
        for &u in &deps[stage_idx] {
            for t in 0..state.stages[u].outputs.len() {
                release_partition(state, u, t);
            }
        }
    }
}

/// One consumer is done with upstream partition `(u, t)`; drop the
/// partition when it was the last.
fn release_partition(state: &mut RunState, u: usize, t: usize) {
    let rt = &mut state.stages[u];
    debug_assert!(rt.part_consumers[t] > 0, "partition released too often");
    rt.part_consumers[t] -= 1;
    if rt.part_consumers[t] == 0 {
        rt.outputs[t] = None;
        state.live_bytes -= rt.out_bytes[t];
    }
}

/// Assemble the stage's [`JobMetrics`], close its spans, and emit the
/// per-job registry counters.
fn finalize_stage(state: &mut RunState, plan: &Plan, stage_idx: usize) {
    let stage = &plan.stages[stage_idx];
    // This stage is done with its broadcast side inputs: drop each value
    // whose last consumer edge just finished.
    for edge in &stage.edges {
        if let InputEdge::Broadcast(s) = edge {
            debug_assert!(state.bcast_refs[*s] > 0, "broadcast released too often");
            state.bcast_refs[*s] -= 1;
            if state.bcast_refs[*s] == 0 {
                state.bcasts[*s] = None;
            }
        }
    }
    let rt = &mut state.stages[stage_idx];
    rt.reduce_elapsed = rt.reduce_started.map(|s| s.elapsed()).unwrap_or_default();
    rt.reduce_span = None;
    rt.spill = None;

    let map_stats: Vec<TaskStat> = rt
        .map_stats
        .iter_mut()
        .map(|s| s.take().expect("map task completed"))
        .collect();
    let reduce_stats: Vec<TaskStat> = rt
        .red_stats
        .iter_mut()
        .map(|s| s.take().expect("reduce task completed"))
        .collect();

    let metrics = JobMetrics {
        name: stage.name.clone(),
        plan_stage: Some((plan.name.clone(), stage_idx)),
        cogroup: stage.is_cogroup(),
        map_tasks: map_stats,
        reduce_tasks: reduce_stats,
        shuffle_records: rt.shuffle_records,
        shuffle_bytes: rt.shuffle_bytes,
        pre_combine_records: rt.pre_records,
        pre_combine_bytes: rt.pre_bytes,
        elapsed: rt.started.map(|s| s.elapsed()).unwrap_or_default(),
        map_elapsed: rt.map_elapsed,
        shuffle_elapsed: rt.shuffle_elapsed,
        reduce_elapsed: rt.reduce_elapsed,
        exec: rt.exec,
    };

    if let Some(job_span) = rt.job_span.as_mut() {
        job_span.record("shuffle_records", metrics.shuffle_records);
        job_span.record("shuffle_bytes", metrics.shuffle_bytes);
        job_span.record("pre_combine_records", metrics.pre_combine_records);
        if metrics.exec.retries > 0 {
            job_span.record("retries", metrics.exec.retries);
        }
    }
    rt.job_span = None;

    if let Some(reg) = global_registry() {
        crate::telemetry::record_job_telemetry(&reg, &metrics);
        crate::telemetry::record_stage_fan_in(&reg, &metrics.name, stage.upstreams().len());
    }

    rt.metrics = Some(metrics);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::SideGroups;
    use crate::traits::{IdentityMapper, PassThrough, Reducer, SumCombiner};

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

    /// Re-keys each (word, count) by count bucket.
    struct ByCount;
    impl Mapper for ByCount {
        type InKey = String;
        type InValue = u64;
        type OutKey = u64;
        type OutValue = String;
        fn map(&mut self, w: String, c: u64, out: &mut Emitter<u64, String>) {
            out.emit(c, w);
        }
    }

    /// Counts words per count bucket.
    struct CountWords;
    impl Reducer for CountWords {
        type InKey = u64;
        type InValue = String;
        type OutKey = u64;
        type OutValue = u64;
        fn reduce(&mut self, k: &u64, vs: Vec<String>, out: &mut Emitter<u64, u64>) {
            out.emit(*k, vs.len() as u64);
        }
    }

    fn wc_input() -> Dataset<u32, String> {
        Dataset::from_records(
            vec![
                (0, "the quick brown fox".to_string()),
                (1, "the lazy dog".to_string()),
                (2, "the fox the dog".to_string()),
            ],
            2,
        )
    }

    fn sorted<K: Ord, V: Ord>(d: Dataset<K, V>) -> Vec<(K, V)>
    where
        (K, V): Ord,
    {
        let mut v: Vec<(K, V)> = d.into_records().collect();
        v.sort();
        v
    }

    /// The logical (timing-free) signature of one job's metrics.
    fn logical(m: &JobMetrics) -> impl PartialEq + std::fmt::Debug {
        (
            m.name.clone(),
            m.shuffle_records,
            m.shuffle_bytes,
            m.pre_combine_records,
            m.pre_combine_bytes,
            m.map_tasks
                .iter()
                .map(|t| {
                    (
                        t.index,
                        t.input_records,
                        t.input_bytes,
                        t.output_records,
                        t.output_bytes,
                    )
                })
                .collect::<Vec<_>>(),
            m.reduce_tasks
                .iter()
                .map(|t| {
                    (
                        t.index,
                        t.input_records,
                        t.input_bytes,
                        t.output_records,
                        t.output_bytes,
                    )
                })
                .collect::<Vec<_>>(),
            m.exec,
        )
    }

    fn two_stage_plan(workers: usize) -> (Plan, StageHandle<u64, u64>) {
        let mut plan = Plan::new("wc-plan").with_workers(workers);
        let counts = plan.add_full::<Tokenize, Sum, _, _, _, _>(
            "wc",
            wc_input(),
            3,
            |_| Tokenize,
            |_| Sum,
            HashPartitioner,
            Some(SumCombiner),
        );
        let buckets = plan.add::<ByCount, CountWords, _, _>(
            "by-count",
            counts,
            2,
            |_| ByCount,
            |_| CountWords,
        );
        (plan, buckets)
    }

    #[test]
    fn terminal_stage_is_tagged_and_never_a_live_intermediate() {
        let mut plan = Plan::new("solo");
        let h = plan.add::<Tokenize, Sum, _, _>("wc", wc_input(), 3, |_| Tokenize, |_| Sum);
        let mut outcome = PlanRunner::pipelined().run(plan);
        assert_eq!(outcome.take_output(h).total_records(), 6);
        assert_eq!(
            outcome.metrics.jobs[0].plan_stage,
            Some(("solo".to_string(), 0))
        );
        // A terminal stage's output is a result, not a live intermediate.
        assert_eq!(outcome.peak_live_bytes, 0);
    }

    #[test]
    fn pipelined_equals_sequential_across_workers() {
        for workers in [1, 2, 7] {
            let (plan_a, h_a) = two_stage_plan(workers);
            let (plan_b, h_b) = two_stage_plan(workers);
            let mut piped = PlanRunner::pipelined().run(plan_a);
            let mut seq = PlanRunner::sequential().run(plan_b);
            assert_eq!(
                sorted(piped.take_output(h_a)),
                sorted(seq.take_output(h_b)),
                "results must not depend on sequencing (workers={workers})"
            );
            for (a, b) in piped.metrics.jobs.iter().zip(&seq.metrics.jobs) {
                assert_eq!(
                    format!("{:?}", logical(a)),
                    format!("{:?}", logical(b)),
                    "logical metrics must not depend on sequencing (workers={workers})"
                );
            }
            // The upstream intermediate lives strictly shorter when
            // pipelined (dropped per partition as downstream maps drain).
            assert!(piped.peak_live_bytes <= seq.peak_live_bytes);
        }
    }

    #[test]
    fn pipelined_single_worker_drops_partitions_eagerly() {
        // With one worker the downstream-first pick order consumes each
        // upstream partition right after it is produced, so at most one
        // partition is ever live; the sequential barrier keeps all three.
        let (plan_a, _) = two_stage_plan(1);
        let (plan_b, _) = two_stage_plan(1);
        let piped = PlanRunner::pipelined().run(plan_a);
        let seq = PlanRunner::sequential().run(plan_b);
        assert!(piped.peak_live_bytes < seq.peak_live_bytes);
        let upstream_total: usize = seq.metrics.jobs[0]
            .reduce_tasks
            .iter()
            .map(|t| t.output_bytes)
            .sum();
        assert_eq!(seq.peak_live_bytes, upstream_total);
    }

    #[test]
    fn consumed_intermediate_cannot_be_taken() {
        let (plan, _) = two_stage_plan(2);
        // Reconstruct the intermediate handle: stage 0 output.
        let h0: StageHandle<String, u64> = StageHandle {
            idx: 0,
            _t: PhantomData,
        };
        let mut outcome = PlanRunner::pipelined().run(plan);
        let r = catch_unwind(AssertUnwindSafe(|| outcome.take_output(h0)));
        assert!(r.is_err(), "consumed intermediates are dropped eagerly");
    }

    #[test]
    fn injected_downstream_map_fault_refetches_sealed_partition() {
        // Fail the first attempt of every map task of the downstream stage:
        // the retries must succeed by re-fetching the sealed upstream
        // partitions, with zero extra upstream attempts.
        let faults = FaultPlan::new(7).with_target("by-count", Phase::Map, Fault::Error, 1);
        let (clean, h_clean) = two_stage_plan(2);
        let (mut faulty, h_faulty) = {
            let (p, h) = two_stage_plan(2);
            (p.with_faults(faults), h)
        };
        faulty = faulty.with_retry(RetryPolicy::default());
        let mut clean_out = PlanRunner::pipelined().run(clean);
        let mut faulty_out = PlanRunner::pipelined().run(faulty);
        assert_eq!(
            sorted(clean_out.take_output(h_clean)),
            sorted(faulty_out.take_output(h_faulty))
        );
        let up = &faulty_out.metrics.jobs[0];
        let down = &faulty_out.metrics.jobs[1];
        // Upstream ran exactly once per task — its reduces were NOT re-run.
        assert_eq!(
            up.exec.attempts,
            (up.map_tasks.len() + up.reduce_tasks.len()) as u64
        );
        assert_eq!(up.exec.retries, 0);
        // Downstream retried every map once.
        assert_eq!(down.exec.retries, down.map_tasks.len() as u64);
        assert_eq!(down.exec.injected_errors, down.map_tasks.len() as u64);
    }

    #[test]
    fn exhausted_retries_panic_with_task_failure() {
        let (plan, _) = two_stage_plan(2);
        let plan = plan
            .with_faults(FaultPlan::new(7).with_target("wc", Phase::Reduce, Fault::Error, u32::MAX))
            .with_retry(RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            });
        let r = catch_unwind(AssertUnwindSafe(|| PlanRunner::pipelined().run(plan)));
        let err = match r {
            Ok(_) => panic!("retry budget must exhaust"),
            Err(payload) => payload,
        };
        let msg = panic_message(&err);
        assert!(
            msg.contains("\"wc\"") && msg.contains("failed after 2 attempts"),
            "{msg}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one reduce task")]
    fn zero_reduce_tasks_rejected() {
        let mut plan = Plan::new("bad");
        let _ = plan.add::<Tokenize, Sum, _, _>("wc", wc_input(), 0, |_| Tokenize, |_| Sum);
    }

    #[test]
    fn take_sealed_matches_take_output_without_unsealing() {
        // Same plan twice: one outcome drained via take_output (the
        // materializing path), one via take_sealed. Records must agree and
        // the sealed partitions must be exclusively owned (terminal stage
        // outputs have no other holders), proving take_sealed hands out
        // the reduce tasks' own Arcs rather than copies.
        let (plan_a, h_a) = two_stage_plan(2);
        let (plan_b, h_b) = two_stage_plan(2);
        let want = sorted(PlanRunner::pipelined().run(plan_a).take_output(h_a));

        let mut outcome = PlanRunner::pipelined().run(plan_b);
        let sealed = outcome.take_sealed(h_b);
        assert_eq!(sealed.len(), 2, "one Arc per reduce partition");
        for part in &sealed {
            assert_eq!(Arc::strong_count(part), 1);
        }
        let mut got: Vec<(u64, u64)> = sealed.iter().flat_map(|p| p.iter().copied()).collect();
        got.sort();
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn take_sealed_panics_on_double_take() {
        let (plan, h) = two_stage_plan(2);
        let mut outcome = PlanRunner::pipelined().run(plan);
        let _first = outcome.take_sealed(h);
        let _second = outcome.take_sealed(h);
    }

    // ---- co-group stages --------------------------------------------------

    type RekeyId = IdentityMapper<String, u64>;
    type PassThroughWc = PassThrough<String, u64>;

    fn wc_input_b() -> Dataset<u32, String> {
        Dataset::from_records(
            vec![
                (0, "dog fox the wolf".to_string()),
                (1, "quick quick wolf".to_string()),
            ],
            2,
        )
    }

    fn two_upstreams(plan: &mut Plan) -> Vec<StageHandle<String, u64>> {
        let a = plan.add::<Tokenize, Sum, _, _>("wc-a", wc_input(), 3, |_| Tokenize, |_| Sum);
        let b = plan.add::<Tokenize, Sum, _, _>("wc-b", wc_input_b(), 3, |_| Tokenize, |_| Sum);
        vec![a, b]
    }

    /// A co-group stage must reproduce the identity-rekey fan-in stage
    /// partition-for-partition: the rekey map of split `t` concatenates
    /// partition `t` of every upstream in edge order and stable-sorts, so
    /// equal keys surface in side order — exactly the co-group merge's
    /// (key, side, run) tie-break.
    #[test]
    fn cogroup_matches_rekey_fan_in() {
        let mut rekey_plan = Plan::new("rekey").with_workers(2);
        let ups = two_upstreams(&mut rekey_plan);
        let rekey_h = rekey_plan.add::<RekeyId, PassThroughWc, _, _>(
            "fan-in",
            StageInput::Stages(ups),
            3,
            |_| RekeyId::default(),
            |_| PassThroughWc::default(),
        );
        let mut rekey_out = PlanRunner::pipelined().run(rekey_plan);

        let mut co_plan = Plan::new("co").with_workers(2);
        let ups = two_upstreams(&mut co_plan);
        let co_h =
            co_plan.add_cogroup::<PassThroughWc, _>("fan-in", ups, |_| PassThroughWc::default());
        let mut co_out = PlanRunner::pipelined().run(co_plan);

        // Identical partitions, not just an identical multiset.
        assert_eq!(
            rekey_out.take_output(rekey_h).partitions(),
            co_out.take_output(co_h).partitions()
        );

        let rekey_m = &rekey_out.metrics.jobs[2];
        let co_m = &co_out.metrics.jobs[2];
        assert!(co_m.cogroup && !rekey_m.cogroup);
        assert!(co_m.map_tasks.is_empty());
        assert_eq!(co_m.shuffle_bytes, 0);
        assert_eq!(co_m.shuffle_records, 0);
        // What the stage read in place is exactly what the rekey stage
        // re-shuffled.
        assert_eq!(co_m.cogroup_shuffle_bytes_saved(), rekey_m.shuffle_bytes);
        assert_eq!(rekey_m.cogroup_shuffle_bytes_saved(), 0);
        // Per-task reduce-side accounting agrees (records, bytes, keys,
        // outputs) — the skew telemetry sees the same distribution.
        for (a, b) in rekey_m.reduce_tasks.iter().zip(&co_m.reduce_tasks) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.input_records, b.input_records);
            assert_eq!(a.input_bytes, b.input_bytes);
            assert_eq!(a.input_keys, b.input_keys);
            assert_eq!(a.output_records, b.output_records);
            assert_eq!(a.output_bytes, b.output_bytes);
        }
    }

    /// Side tags must follow edge order: every value from upstream 0
    /// arrives tagged 0, from upstream 1 tagged 1, with tags
    /// non-decreasing within a group.
    #[test]
    fn cogroup_side_tags_follow_edge_order() {
        // Upstream values are disjoint by construction: wc-a counts are
        // < 1000, wc-b's are shifted by +1000 via a scaling reducer.
        struct SumShift(u64);
        impl Reducer for SumShift {
            type InKey = String;
            type InValue = u64;
            type OutKey = String;
            type OutValue = u64;
            fn reduce(&mut self, k: &String, vs: Vec<u64>, out: &mut Emitter<String, u64>) {
                out.emit(k.clone(), self.0 + vs.into_iter().sum::<u64>());
            }
        }
        struct TagCheck;
        impl CoGroupReducer for TagCheck {
            type InKey = String;
            type InValue = u64;
            type OutKey = String;
            type OutValue = u64;
            fn cogroup(
                &mut self,
                k: &String,
                values: &mut SideGroups<'_, '_, String, u64>,
                out: &mut Emitter<String, u64>,
            ) {
                let mut last_side = 0u32;
                for (side, v) in values {
                    assert!(side >= last_side, "side tags must be non-decreasing");
                    last_side = side;
                    let from_b = *v >= 1000;
                    assert_eq!(
                        side,
                        u32::from(from_b),
                        "value {v} of key {k} tagged with the wrong side"
                    );
                    out.emit(k.clone(), *v);
                }
            }
        }
        let mut plan = Plan::new("tags").with_workers(2);
        let a = plan.add::<Tokenize, SumShift, _, _>(
            "wc-a",
            wc_input(),
            2,
            |_| Tokenize,
            |_| SumShift(0),
        );
        let b = plan.add::<Tokenize, SumShift, _, _>(
            "wc-b",
            wc_input_b(),
            2,
            |_| Tokenize,
            |_| SumShift(1000),
        );
        let h = plan.add_cogroup::<TagCheck, _>("tag-check", vec![a, b], |_| TagCheck);
        let out = PlanRunner::pipelined().run(plan).take_output(h);
        // Both sides' records all pass through (6 + 5 distinct words).
        assert_eq!(out.total_records(), 11);
    }

    fn cogroup_plan(workers: usize) -> (Plan, StageHandle<String, u64>) {
        let mut plan = Plan::new("co-wc").with_workers(workers);
        let ups = two_upstreams(&mut plan);
        let h = plan.add_cogroup::<PassThroughWc, _>("fan-in", ups, |_| PassThroughWc::default());
        (plan, h)
    }

    #[test]
    fn cogroup_pipelined_equals_sequential_across_workers() {
        for workers in [1, 2, 7] {
            let (plan_a, h_a) = cogroup_plan(workers);
            let (plan_b, h_b) = cogroup_plan(workers);
            let mut piped = PlanRunner::pipelined().run(plan_a);
            let mut seq = PlanRunner::sequential().run(plan_b);
            assert_eq!(
                piped.take_output(h_a).partitions(),
                seq.take_output(h_b).partitions(),
                "co-group results must not depend on sequencing (workers={workers})"
            );
            for (a, b) in piped.metrics.jobs.iter().zip(&seq.metrics.jobs) {
                assert_eq!(
                    format!("{:?}", logical(a)),
                    format!("{:?}", logical(b)),
                    "logical metrics must not depend on sequencing (workers={workers})"
                );
            }
        }
    }

    /// A failed co-group attempt re-fetches the sealed upstream
    /// partitions — the upstreams never re-run.
    #[test]
    fn injected_cogroup_fault_refetches_sealed_partitions() {
        let faults = FaultPlan::new(11).with_target("fan-in", Phase::Reduce, Fault::Error, 1);
        let (clean, h_clean) = cogroup_plan(2);
        let (faulty, h_faulty) = cogroup_plan(2);
        let faulty = faulty
            .with_faults(faults)
            .with_retry(RetryPolicy::default());
        let mut clean_out = PlanRunner::pipelined().run(clean);
        let mut faulty_out = PlanRunner::pipelined().run(faulty);
        assert_eq!(
            clean_out.take_output(h_clean).partitions(),
            faulty_out.take_output(h_faulty).partitions()
        );
        for up in &faulty_out.metrics.jobs[..2] {
            assert_eq!(
                up.exec.attempts,
                (up.map_tasks.len() + up.reduce_tasks.len()) as u64
            );
            assert_eq!(up.exec.retries, 0, "upstream {} must not re-run", up.name);
        }
        let co = &faulty_out.metrics.jobs[2];
        assert_eq!(co.exec.retries, co.reduce_tasks.len() as u64);
        assert_eq!(co.exec.injected_errors, co.reduce_tasks.len() as u64);
    }

    #[test]
    #[should_panic(expected = "co-partitioned upstreams")]
    fn cogroup_upstream_shape_mismatch_rejected() {
        let mut plan = Plan::new("bad-co");
        let a = plan.add::<Tokenize, Sum, _, _>("wc-a", wc_input(), 3, |_| Tokenize, |_| Sum);
        let b = plan.add::<Tokenize, Sum, _, _>("wc-b", wc_input_b(), 2, |_| Tokenize, |_| Sum);
        let _ = plan
            .add_cogroup::<PassThroughWc, _>("fan-in", vec![a, b], |_| PassThroughWc::default());
    }
}
