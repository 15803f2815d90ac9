//! Profiler ground truth: a pipelined [`PlanRunner`] execution must leave
//! behind a trace the plan-aware profiler can reconstruct exactly.
//!
//! Satellite of the profiling tentpole: every task span carries matching
//! `(plan, stage, partition)` args, the DAG [`PlanProfile`] rebuilds from
//! the trace equals the declared [`Plan`] shape, and on a single worker
//! lane the critical path spans the whole makespan.
//!
//! The collector slot is process-global, so every test serializes on one
//! mutex.

use proptest::prelude::*;
use ssj_mapreduce::{
    Dataset, Emitter, GroupValues, Mapper, Plan, PlanRunner, StageHandle, StreamingReducer,
};
use ssj_observe::{spans_from_events, FieldValue, PlanProfile, ProfSpan, TaskKind};
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Spreads keys over a fixed keyspace.
struct Spread;
impl Mapper for Spread {
    type InKey = u32;
    type InValue = u64;
    type OutKey = u32;
    type OutValue = u64;
    fn map(&mut self, k: u32, v: u64, out: &mut Emitter<u32, u64>) {
        out.emit(k % 13, v);
        out.emit(k % 7, v ^ 0x9e37);
    }
}

/// Sums per key (output feeds the next [`Spread`] stage unchanged).
struct Sum;
impl StreamingReducer for Sum {
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
        out.emit(*k, vs.fold(0u64, |acc, &v| acc.wrapping_add(v)));
    }
}

const MAP_PARTITIONS: usize = 4;

/// Declared `(stage, upstreams)` DAG shape.
type DagShape = Vec<(usize, Vec<usize>)>;

/// A linear `stages`-deep chain; returns the plan, its terminal handle,
/// and the declared `(stage, upstream)` DAG shape.
fn chain_plan(
    records: usize,
    stages: usize,
    reduce_tasks: usize,
    workers: usize,
) -> (Plan, StageHandle<u32, u64>, DagShape) {
    let input: Dataset<u32, u64> = Dataset::from_records(
        (0..records as u32)
            .map(|i| (i, (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect(),
        MAP_PARTITIONS,
    );
    let mut plan = Plan::new("profiled-chain").with_workers(workers);
    let mut handle = plan.add("stage-0", input, reduce_tasks, |_| Spread, |_| Sum);
    let mut declared = vec![(0, vec![])];
    for s in 1..stages {
        handle = plan.add(
            format!("stage-{s}"),
            handle,
            reduce_tasks,
            |_| Spread,
            |_| Sum,
        );
        declared.push((s, vec![s - 1]));
    }
    (plan, handle, declared)
}

/// Run the plan pipelined under a fresh collector; returns the raw spans.
fn traced_run(records: usize, stages: usize, reduce_tasks: usize, workers: usize) -> Vec<ProfSpan> {
    let collector = ssj_observe::install_collector();
    let (plan, handle, _) = chain_plan(records, stages, reduce_tasks, workers);
    let mut run = PlanRunner::pipelined().run(plan);
    let _ = run.take_output(handle);
    ssj_observe::uninstall_collector();
    spans_from_events(&collector.events())
}

fn arg<'a>(s: &'a ProfSpan, key: &str) -> Option<&'a FieldValue> {
    s.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn arg_u64(s: &ProfSpan, key: &str) -> Option<u64> {
    match arg(s, key)? {
        FieldValue::UInt(v) => Some(*v),
        FieldValue::Int(v) if *v >= 0 => Some(*v as u64),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every task span of a pipelined run is fully plan-tagged, and the
    /// profiler's reconstruction agrees with the declared plan: same DAG,
    /// a full complement of map/reduce tasks per stage, first attempts
    /// everywhere (no faults injected).
    #[test]
    fn task_spans_tag_plan_stage_partition_and_dag_matches(
        records in 16usize..64,
        stages in 1usize..4,
        reduce_tasks in prop::sample::select(vec![2usize, 3, 5]),
        workers in prop::sample::select(vec![1usize, 3]),
    ) {
        let _guard = serial();
        let spans = traced_run(records, stages, reduce_tasks, workers);
        let declared = chain_plan(records, stages, reduce_tasks, workers).2;

        // Raw-span obligation: every engine task span names the plan and
        // carries in-range stage/partition/attempt args.
        let task_spans: Vec<&ProfSpan> =
            spans.iter().filter(|s| s.cat == "mr.task").collect();
        prop_assert!(!task_spans.is_empty());
        for s in &task_spans {
            prop_assert_eq!(
                arg(s, "plan"),
                Some(&FieldValue::Str("profiled-chain".into()))
            );
            let stage = arg_u64(s, "stage").expect("stage arg") as usize;
            let partition = arg_u64(s, "partition").expect("partition arg") as usize;
            prop_assert!(stage < stages);
            let width = match s.name.as_str() {
                // Stage 0 maps over the input splits; later stages map
                // over the upstream's reduce partitions.
                "map" if stage == 0 => MAP_PARTITIONS,
                "map" => reduce_tasks,
                _ => reduce_tasks,
            };
            prop_assert!(partition < width, "{} partition {partition} >= {width}", s.name);
            prop_assert_eq!(arg_u64(s, "attempt"), Some(0));
        }

        // Reconstruction: one profile whose DAG is the declared shape and
        // whose per-stage task census is complete.
        let profiles = PlanProfile::from_spans(&spans);
        prop_assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        prop_assert_eq!(p.plan.as_str(), "profiled-chain");
        prop_assert_eq!(p.dag(), declared);
        for (stage, upstream) in p.dag() {
            let maps = p
                .tasks
                .iter()
                .filter(|t| t.stage == stage && t.kind == TaskKind::Map)
                .count();
            let reduces = p
                .tasks
                .iter()
                .filter(|t| t.stage == stage && t.kind == TaskKind::Reduce)
                .count();
            let expected_maps = if upstream.is_empty() {
                MAP_PARTITIONS
            } else {
                reduce_tasks
            };
            prop_assert_eq!(maps, expected_maps);
            prop_assert_eq!(reduces, reduce_tasks);
        }

        // Dependency soundness: no reduce starts before the last map of
        // its stage ends; no downstream map starts before its upstream
        // partition's reduce ends.
        for t in &p.tasks {
            match t.kind {
                TaskKind::Reduce => {
                    let latest_map = p
                        .tasks
                        .iter()
                        .filter(|m| m.stage == t.stage && m.kind == TaskKind::Map)
                        .map(|m| m.end_us)
                        .max()
                        .unwrap();
                    prop_assert!(t.start_us >= latest_map);
                }
                TaskKind::Map => {
                    for u in p.upstreams_of(t.stage) {
                        let feeder = p
                            .tasks
                            .iter()
                            .find(|r| {
                                r.stage == *u
                                    && r.kind == TaskKind::Reduce
                                    && r.partition == t.partition
                            })
                            .expect("upstream reduce");
                        prop_assert!(t.start_us >= feeder.end_us);
                    }
                }
                // The fixture plans only map/reduce stages; co-group DAG
                // soundness is pinned by the observe crate's own tests.
                TaskKind::CoGroup => {}
            }
        }
    }
}

/// On a single worker lane every task has a resource predecessor back to
/// the first, so the reconstructed critical path must span the makespan
/// exactly — the profiler's headline number is checked against ground
/// truth, not a tolerance.
#[test]
fn single_lane_critical_path_equals_makespan() {
    let _guard = serial();
    let spans = traced_run(48, 3, 4, 1);
    let profiles = PlanProfile::from_spans(&spans);
    assert_eq!(profiles.len(), 1);
    let p = &profiles[0];
    assert!(p.makespan_us() > 0);
    assert_eq!(p.critical_path_span_us(), p.makespan_us());
    // The path is chronologically chained and ends at the terminal task.
    let path = p.critical_path();
    for w in path.windows(2) {
        assert!(p.tasks[w[0]].start_us <= p.tasks[w[1]].start_us);
    }
    let last = &p.tasks[*path.last().unwrap()];
    assert_eq!(last.end_us, p.end_us());
    // Slack sanity: the terminal task is tight.
    assert_eq!(p.slack_us()[*path.last().unwrap()], 0);
}
