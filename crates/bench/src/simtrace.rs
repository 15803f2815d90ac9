//! Simulated-cluster timelines as Chrome trace events.
//!
//! [`ClusterModel::simulate_chain_schedule`] assigns every measured task a
//! `(node, slot, start, end)` on the modelled cluster; this module renders
//! that schedule into the installed [`ssj_observe`] collector as a synthetic
//! process (one per recorded run, pids from 100 up), so `expt --trace-out`
//! traces show the real host execution *and* the simulated cluster occupancy
//! side by side in Perfetto.
//!
//! Lane layout per simulated process: tid `0..total_slots` are the cluster's
//! task slots (named `node<N>/slot<S>`), tid `total_slots` is the shuffle
//! bar, tid `total_slots + 1` carries one bar per job (the phase boundaries
//! of [`SimSchedule::phases`]).

use ssj_mapreduce::{ChainMetrics, ClusterModel, SimSchedule};
use ssj_observe::{Collector, TraceEvent};
use std::sync::atomic::{AtomicU32, Ordering};

/// Host execution records under pid 1; simulated runs start here.
const SIM_PID_BASE: u32 = 100;

static NEXT_SIM_PID: AtomicU32 = AtomicU32::new(SIM_PID_BASE);

fn us(secs: f64) -> u64 {
    (secs.max(0.0) * 1e6).round() as u64
}

fn dur_us(start_secs: f64, end_secs: f64) -> u64 {
    us((end_secs - start_secs).max(0.0)).max(1)
}

/// Render one simulated chain schedule into `collector` as a fresh synthetic
/// process named after `label`. Returns the pid used.
pub fn record_sim_schedule(
    collector: &Collector,
    label: &str,
    cluster: &ClusterModel,
    schedules: &[SimSchedule],
) -> u32 {
    record_schedule_impl(collector, label, cluster, schedules, None)
}

/// Render a simulated *plan* timeline (e.g. from
/// [`ClusterModel::simulate_plan`]) with the same `(plan, run, stage,
/// partition, attempt)` args the real `PlanRunner` stamps on its spans, so
/// the profiler analyses the simulated timeline identically to the real
/// trace. `deps[j]` lists stage `j`'s shuffle upstreams (empty = external
/// input). Returns the `(pid, run)` pair identifying the timeline.
pub fn record_plan_schedule(
    collector: &Collector,
    plan_name: &str,
    cluster: &ClusterModel,
    schedules: &[SimSchedule],
    deps: &[Vec<usize>],
) -> (u32, u64) {
    let run = ssj_mapreduce::next_plan_run_id();
    let pid = record_schedule_impl(
        collector,
        plan_name,
        cluster,
        schedules,
        Some((plan_name, run, deps)),
    );
    (pid, run)
}

fn record_schedule_impl(
    collector: &Collector,
    label: &str,
    cluster: &ClusterModel,
    schedules: &[SimSchedule],
    plan_ctx: Option<(&str, u64, &[Vec<usize>])>,
) -> u32 {
    let pid = NEXT_SIM_PID.fetch_add(1, Ordering::Relaxed);
    let slots = cluster.total_slots() as u32;
    collector.set_process_name(
        pid,
        &format!(
            "sim: {label} ({} nodes × {} slots)",
            cluster.nodes, cluster.slots_per_node
        ),
    );
    for s in 0..slots {
        collector.set_thread_name(
            pid,
            s,
            &format!(
                "node{}/slot{}",
                s as usize / cluster.slots_per_node,
                s as usize % cluster.slots_per_node
            ),
        );
    }
    collector.set_thread_name(pid, slots, "shuffle");
    collector.set_thread_name(pid, slots + 1, "jobs");

    for (stage_idx, sched) in schedules.iter().enumerate() {
        let mut job_args: Vec<(&'static str, ssj_observe::FieldValue)> =
            vec![("shuffle_bytes", (sched.shuffle_bytes as u64).into())];
        if let Some((plan, run, deps)) = plan_ctx {
            job_args.push(("plan", plan.into()));
            job_args.push(("run", run.into()));
            job_args.push(("stage", (stage_idx as u64).into()));
            let ups = deps.get(stage_idx).map(Vec::as_slice).unwrap_or(&[]);
            job_args.push(("upstream", ssj_observe::encode_upstreams(ups).into()));
        }
        collector.push(TraceEvent {
            name: sched.job_name.clone(),
            cat: "sim.job",
            pid,
            tid: slots + 1,
            ts_us: us(sched.start_secs),
            dur_us: dur_us(sched.start_secs, sched.end_secs),
            args: job_args,
        });
        if sched.shuffle_end_secs > sched.shuffle_start_secs {
            collector.push(TraceEvent {
                name: format!("{} shuffle", sched.job_name),
                cat: "sim.shuffle",
                pid,
                tid: slots,
                ts_us: us(sched.shuffle_start_secs),
                dur_us: dur_us(sched.shuffle_start_secs, sched.shuffle_end_secs),
                args: vec![("bytes", (sched.shuffle_bytes as u64).into())],
            });
        }
        for task in &sched.tasks {
            let kind = match task.kind {
                ssj_mapreduce::TaskKind::Map => "map",
                ssj_mapreduce::TaskKind::Reduce => "reduce",
                ssj_mapreduce::TaskKind::CoGroup => "cogroup",
            };
            let mut task_args: Vec<(&'static str, ssj_observe::FieldValue)> = vec![
                ("node", (task.node as u64).into()),
                ("job", sched.job_name.as_str().into()),
            ];
            if let Some((plan, run, _)) = plan_ctx {
                task_args.push(("plan", plan.into()));
                task_args.push(("run", run.into()));
                task_args.push(("stage", (stage_idx as u64).into()));
                task_args.push(("partition", (task.index as u64).into()));
                task_args.push(("attempt", 0u64.into()));
                task_args.push(("kind", kind.into()));
            }
            collector.push(TraceEvent {
                name: format!("{kind}[{}]", task.index),
                cat: "sim.task",
                pid,
                tid: task.slot as u32,
                ts_us: us(task.start_secs),
                dur_us: dur_us(task.start_secs, task.end_secs),
                args: task_args,
            });
        }
    }
    pid
}

/// Simulate `chain` on `cluster` and record the resulting timeline. No-op
/// returning `None` when tracing is disabled.
pub fn record_chain(label: &str, cluster: &ClusterModel, chain: &ChainMetrics) -> Option<u32> {
    let collector = ssj_observe::collector()?;
    let schedules = cluster.simulate_chain_schedule(chain);
    Some(record_sim_schedule(&collector, label, cluster, &schedules))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_mapreduce::{Dataset, Emitter, JobBuilder, Mapper, Reducer};
    use ssj_observe::ChromeTrace;
    use std::sync::Arc;

    struct Id;
    impl Mapper for Id {
        type InKey = u32;
        type InValue = u32;
        type OutKey = u32;
        type OutValue = u32;
        fn map(&mut self, k: u32, v: u32, out: &mut Emitter<u32, u32>) {
            out.emit(k % 4, v);
        }
    }
    struct Sum;
    impl Reducer for Sum {
        type InKey = u32;
        type InValue = u32;
        type OutKey = u32;
        type OutValue = u32;
        fn reduce(&mut self, k: &u32, vs: Vec<u32>, out: &mut Emitter<u32, u32>) {
            out.emit(*k, vs.iter().sum());
        }
    }

    #[test]
    fn sim_timeline_renders_schedule() {
        let input = Dataset::from_records((0..64u32).map(|i| (i, i)).collect::<Vec<_>>(), 4);
        let (_, metrics) =
            JobBuilder::new("simtrace-job")
                .reduce_tasks(4)
                .run(&input, |_| Id, |_| Sum);
        let mut chain = ChainMetrics::default();
        chain.push(metrics);

        let cluster = ClusterModel::paper_default(3);
        let collector = Arc::new(Collector::new());
        let schedules = cluster.simulate_chain_schedule(&chain);
        let pid = record_sim_schedule(&collector, "test-run", &cluster, &schedules);
        assert!(pid >= SIM_PID_BASE);

        let trace = ChromeTrace::from_collector(&collector);
        // One job bar + 4 map + 4 reduce tasks at minimum (shuffle bar only
        // when simulated shuffle time is non-zero).
        assert!(trace.len() >= 9, "got {} events", trace.len());
        let json = trace.to_json();
        assert!(json.contains("\"simtrace-job\""));
        assert!(json.contains("node0/slot0"));
        assert!(json.contains("sim: test-run (3 nodes × 3 slots)"));
        // Every task lane is within the modelled slot range.
        for ev in trace.events() {
            if ev.cat == "sim.task" {
                assert!((ev.tid as usize) < cluster.total_slots());
            }
        }
    }
}
