//! Plan-aware profile analysis: DAG reconstruction, critical path, slack
//! and concurrency from a task-level trace.
//!
//! Input is a flat span list — either live [`TraceEvent`]s from a
//! [`Collector`](crate::Collector) or a re-parsed `trace.json` — in which the plan layers
//! tag every task span with `(plan, run, stage, partition, attempt)` and
//! every stage/job span with `(plan, run, stage, upstream)`. Real
//! `PlanRunner` traces (cat `mr.*`, pid `HOST_PID`) and simulated
//! `ClusterModel::simulate_plan` timelines (cat `sim.*`, synthetic pids)
//! use the same arg names, so one analysis works on both.
//!
//! **Critical path.** Walk backward from the task with the latest end.
//! A task's predecessors are its *logical* dependencies (a reduce depends
//! on every map of its stage; a map on partition `p` of a stage with
//! upstream `u` depends on reduce `p` of stage `u`) plus its *resource*
//! predecessor (the latest-ending earlier task on the same `(pid, tid)`
//! execution lane). Taking the latest-ending predecessor at every step
//! yields the chain that bounds wall-clock: whenever a task was not
//! waiting on data it was waiting on its lane, so the chain extends back
//! to the first task and `end(last) − start(first)` equals the makespan
//! up to scheduler gaps.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::trace::{FieldValue, TraceEvent};

/// Trace-source-independent span (owned strings so parsed JSON traces and
/// live collector events normalize to the same type).
#[derive(Debug, Clone)]
pub struct ProfSpan {
    pub name: String,
    pub cat: String,
    pub pid: u32,
    pub tid: u32,
    pub ts_us: u64,
    pub dur_us: u64,
    pub args: Vec<(String, FieldValue)>,
}

impl ProfSpan {
    fn arg(&self, key: &str) -> Option<&FieldValue> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn arg_u64(&self, key: &str) -> Option<u64> {
        match self.arg(key)? {
            FieldValue::UInt(v) => Some(*v),
            FieldValue::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    fn arg_i64(&self, key: &str) -> Option<i64> {
        match self.arg(key)? {
            FieldValue::Int(v) => Some(*v),
            FieldValue::UInt(v) => Some(*v as i64),
            _ => None,
        }
    }

    fn arg_str(&self, key: &str) -> Option<&str> {
        match self.arg(key)? {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<&TraceEvent> for ProfSpan {
    fn from(e: &TraceEvent) -> Self {
        ProfSpan {
            name: e.name.clone(),
            cat: e.cat.to_string(),
            pid: e.pid,
            tid: e.tid,
            ts_us: e.ts_us,
            dur_us: e.dur_us,
            args: e
                .args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }
}

/// Normalize a collector's events.
pub fn spans_from_events(events: &[TraceEvent]) -> Vec<ProfSpan> {
    events.iter().map(ProfSpan::from).collect()
}

/// Parse an exported Chrome `trace.json` document back into spans (only
/// `"X"` complete events; metadata rows are dropped).
pub fn spans_from_chrome_json(doc: &str) -> Result<Vec<ProfSpan>, String> {
    let v = Value::parse(doc)?;
    let events = v
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("no traceEvents array")?;
    let mut out = Vec::new();
    for e in events {
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let field = |k: &str| -> Result<u64, String> {
            e.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("event missing {k}"))
        };
        let mut args = Vec::new();
        if let Some(obj) = e.get("args").and_then(Value::as_obj) {
            for (k, v) in obj {
                let fv = match v {
                    Value::Num(n) if n.fract() == 0.0 && *n < 0.0 => FieldValue::Int(*n as i64),
                    Value::Num(n) if n.fract() == 0.0 => FieldValue::UInt(*n as u64),
                    Value::Num(n) => FieldValue::Float(*n),
                    Value::Str(s) => FieldValue::Str(s.clone()),
                    Value::Bool(b) => FieldValue::Bool(*b),
                    _ => continue,
                };
                args.push((k.clone(), fv));
            }
        }
        out.push(ProfSpan {
            name: e
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            cat: e
                .get("cat")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            pid: field("pid")? as u32,
            tid: field("tid")? as u32,
            ts_us: field("ts")?,
            dur_us: field("dur")?,
            args,
        });
    }
    Ok(out)
}

/// Encode a stage's shuffle-upstream list for the job-span `upstream` arg:
/// `"-"` for an external-input stage, else comma-joined indices (`"0"`,
/// `"0,1"`). A string survives the Chrome JSON round trip losslessly,
/// which a variable-length integer list would not.
pub fn encode_upstreams(ups: &[usize]) -> String {
    if ups.is_empty() {
        return "-".to_string();
    }
    let mut s = String::new();
    for (i, u) in ups.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&u.to_string());
    }
    s
}

/// Inverse of [`encode_upstreams`]; unparseable tokens are skipped.
pub fn decode_upstreams(s: &str) -> Vec<usize> {
    if s == "-" || s.is_empty() {
        return Vec::new();
    }
    s.split(',').filter_map(|t| t.trim().parse().ok()).collect()
}

/// Task flavor within a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    Map,
    Reduce,
    /// Reduce side of a co-group stage: consumes the same-index sealed
    /// reduce partition of every upstream directly (like a fan-in map)
    /// and produces a sealed output partition (like a reduce).
    CoGroup,
}

/// One plan-tagged task occurrence.
#[derive(Debug, Clone)]
pub struct TaskRec {
    pub stage: usize,
    pub kind: TaskKind,
    pub partition: usize,
    pub attempt: u32,
    pub pid: u32,
    pub tid: u32,
    pub start_us: u64,
    pub end_us: u64,
}

impl TaskRec {
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Declared shape of one stage, reconstructed from its job span.
#[derive(Debug, Clone)]
pub struct StageInfo {
    pub index: usize,
    pub name: String,
    /// Shuffle-upstream stage indices whose reduce outputs this stage maps
    /// over (empty = external input). Multi-input stages list every
    /// upstream in edge order.
    pub upstreams: Vec<usize>,
}

/// All tasks of one `(plan, run, pid)` instance plus its stage DAG.
#[derive(Debug, Clone)]
pub struct PlanProfile {
    pub plan: String,
    pub run: u64,
    pub pid: u32,
    pub stages: Vec<StageInfo>,
    pub tasks: Vec<TaskRec>,
}

impl PlanProfile {
    /// Group plan-tagged task/job spans by `(plan, run, pid)`. A real
    /// trace and its simulated timeline in the same file come back as
    /// separate profiles (different pids).
    pub fn from_spans(spans: &[ProfSpan]) -> Vec<PlanProfile> {
        type Key = (String, u64, u32);
        let mut stages: BTreeMap<Key, BTreeMap<usize, StageInfo>> = BTreeMap::new();
        let mut tasks: BTreeMap<Key, Vec<TaskRec>> = BTreeMap::new();

        for s in spans {
            let Some(plan) = s.arg_str("plan") else {
                continue;
            };
            let run = s.arg_u64("run").unwrap_or(0);
            let key = (plan.to_string(), run, s.pid);
            let is_job = s.cat.ends_with(".job");
            let is_task = s.cat.ends_with(".task");
            if is_job {
                let Some(stage) = s.arg_u64("stage") else {
                    continue;
                };
                // New traces encode the upstream list as a string
                // ("-", "0", "0,1"); pre-fan-in traces recorded a single
                // i64 with −1 for external input.
                let upstreams = match s.arg_str("upstream") {
                    Some(list) => decode_upstreams(list),
                    None => match s.arg_i64("upstream") {
                        Some(u) if u >= 0 => vec![u as usize],
                        _ => Vec::new(),
                    },
                };
                stages.entry(key).or_default().insert(
                    stage as usize,
                    StageInfo {
                        index: stage as usize,
                        name: s.name.clone(),
                        upstreams,
                    },
                );
            } else if is_task {
                let (Some(stage), Some(partition)) = (s.arg_u64("stage"), s.arg_u64("partition"))
                else {
                    continue;
                };
                let kind = match s.arg_str("kind").or(Some(s.name.as_str())) {
                    Some("map") => TaskKind::Map,
                    Some("reduce") => TaskKind::Reduce,
                    Some("cogroup") => TaskKind::CoGroup,
                    _ => continue,
                };
                tasks.entry(key).or_default().push(TaskRec {
                    stage: stage as usize,
                    kind,
                    partition: partition as usize,
                    attempt: s.arg_u64("attempt").unwrap_or(0) as u32,
                    pid: s.pid,
                    tid: s.tid,
                    start_us: s.ts_us,
                    end_us: s.ts_us + s.dur_us,
                });
            }
        }

        let mut out = Vec::new();
        for ((plan, run, pid), mut ts) in tasks {
            ts.sort_by_key(|t| (t.start_us, t.end_us, t.stage, t.partition, t.attempt));
            let st = stages
                .remove(&(plan.clone(), run, pid))
                .unwrap_or_default()
                .into_values()
                .collect();
            out.push(PlanProfile {
                plan,
                run,
                pid,
                stages: st,
                tasks: ts,
            });
        }
        out
    }

    /// `(stage index, upstream list)` pairs — the reconstructed DAG shape,
    /// for comparison against a declared `Plan` (empty list = external
    /// input; fan-in stages list every shuffle upstream).
    pub fn dag(&self) -> Vec<(usize, Vec<usize>)> {
        self.stages
            .iter()
            .map(|s| (s.index, s.upstreams.clone()))
            .collect()
    }

    /// Earliest task start.
    pub fn start_us(&self) -> u64 {
        self.tasks.iter().map(|t| t.start_us).min().unwrap_or(0)
    }

    /// Latest task end.
    pub fn end_us(&self) -> u64 {
        self.tasks.iter().map(|t| t.end_us).max().unwrap_or(0)
    }

    /// Wall-clock between first task start and last task end.
    pub fn makespan_us(&self) -> u64 {
        self.end_us().saturating_sub(self.start_us())
    }

    /// Shuffle upstream stage indices of `stage` (empty when the stage
    /// reads external input or is unknown).
    pub fn upstreams_of(&self, stage: usize) -> &[usize] {
        self.stages
            .iter()
            .find(|s| s.index == stage)
            .map(|s| s.upstreams.as_slice())
            .unwrap_or(&[])
    }

    /// Logical predecessors of task `i` (indices into `self.tasks`): all
    /// maps of the same stage for a reduce; the same-partition sealed
    /// output (reduce *or* co-group) of *every* upstream stage for a map
    /// or co-group task (a fan-in split waits on all of its
    /// co-partitioned inputs; a co-group task is that wait with no map
    /// phase in front).
    fn logical_preds(&self, i: usize) -> Vec<usize> {
        let t = &self.tasks[i];
        match t.kind {
            TaskKind::Reduce => self
                .tasks
                .iter()
                .enumerate()
                .filter(|(_, p)| p.stage == t.stage && p.kind == TaskKind::Map)
                .map(|(j, _)| j)
                .collect(),
            TaskKind::Map | TaskKind::CoGroup => {
                let ups = self.upstreams_of(t.stage);
                if ups.is_empty() {
                    return Vec::new();
                }
                self.tasks
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| {
                        ups.contains(&p.stage)
                            && matches!(p.kind, TaskKind::Reduce | TaskKind::CoGroup)
                            && p.partition == t.partition
                    })
                    .map(|(j, _)| j)
                    .collect()
            }
        }
    }

    /// Logical successors of task `i` (inverse of [`logical_preds`]).
    /// A co-group task appears on both sides: it consumes sealed
    /// partitions like a fan-in map and seals an output partition like a
    /// reduce.
    fn logical_succs(&self, i: usize) -> Vec<usize> {
        let t = &self.tasks[i];
        match t.kind {
            TaskKind::Map => self
                .tasks
                .iter()
                .enumerate()
                .filter(|(_, s)| s.stage == t.stage && s.kind == TaskKind::Reduce)
                .map(|(j, _)| j)
                .collect(),
            TaskKind::Reduce | TaskKind::CoGroup => self
                .tasks
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    matches!(s.kind, TaskKind::Map | TaskKind::CoGroup)
                        && s.partition == t.partition
                        && self.upstreams_of(s.stage).contains(&t.stage)
                })
                .map(|(j, _)| j)
                .collect(),
        }
    }

    /// The latest-ending task on the same `(pid, tid)` lane that ended at
    /// or before task `i` started.
    fn resource_pred(&self, i: usize) -> Option<usize> {
        let t = &self.tasks[i];
        self.tasks
            .iter()
            .enumerate()
            .filter(|(j, p)| *j != i && p.pid == t.pid && p.tid == t.tid && p.end_us <= t.start_us)
            .max_by_key(|(_, p)| (p.end_us, p.start_us))
            .map(|(j, _)| j)
    }

    /// Critical path as task indices in chronological order. Empty when
    /// the profile has no tasks.
    pub fn critical_path(&self) -> Vec<usize> {
        let Some(mut cur) = self
            .tasks
            .iter()
            .enumerate()
            .max_by_key(|(_, t)| (t.end_us, t.start_us))
            .map(|(i, _)| i)
        else {
            return Vec::new();
        };
        let mut path = vec![cur];
        loop {
            let start = self.tasks[cur].start_us;
            let mut preds: Vec<usize> = self
                .logical_preds(cur)
                .into_iter()
                .filter(|&j| self.tasks[j].end_us <= start)
                .collect();
            if let Some(r) = self.resource_pred(cur) {
                preds.push(r);
            }
            let Some(next) = preds
                .into_iter()
                .max_by_key(|&j| (self.tasks[j].end_us, self.tasks[j].start_us))
            else {
                break;
            };
            cur = next;
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// `end(last) − start(first)` of the critical path — the wall-clock
    /// interval the chain covers, comparable to [`makespan_us`](Self::makespan_us).
    pub fn critical_path_span_us(&self) -> u64 {
        let path = self.critical_path();
        match (path.first(), path.last()) {
            (Some(&f), Some(&l)) => self.tasks[l].end_us.saturating_sub(self.tasks[f].start_us),
            _ => 0,
        }
    }

    /// Sum of task durations along the critical path (busy time of the
    /// bounding chain; the remainder of the span is wait/gap).
    pub fn critical_path_busy_us(&self) -> u64 {
        self.critical_path()
            .iter()
            .map(|&i| self.tasks[i].dur_us())
            .sum()
    }

    /// Classic CPM slack over the *logical* DAG: how much later each task
    /// could have finished without moving the makespan, ignoring resource
    /// (lane) limits. Critical-path tasks have zero-ish slack.
    pub fn slack_us(&self) -> Vec<u64> {
        let n = self.tasks.len();
        // latest_finish computed in reverse topological order; task starts
        // are a valid topological order because a successor can only start
        // after its predecessor ended (tasks are pre-sorted by start).
        let mut latest_finish = vec![self.end_us(); n];
        for i in (0..n).rev() {
            let succs = self.logical_succs(i);
            for s in succs {
                let ls = latest_finish[s].saturating_sub(self.tasks[s].dur_us());
                latest_finish[i] = latest_finish[i].min(ls);
            }
        }
        (0..n)
            .map(|i| latest_finish[i].saturating_sub(self.tasks[i].end_us))
            .collect()
    }

    /// Per-stage `(stage index, first start, last end, busy µs, peak
    /// concurrency)` in stage order — the data behind a waterfall view.
    pub fn stage_waterfall(&self) -> Vec<StageSummary> {
        let mut by_stage: BTreeMap<usize, Vec<&TaskRec>> = BTreeMap::new();
        for t in &self.tasks {
            by_stage.entry(t.stage).or_default().push(t);
        }
        by_stage
            .into_iter()
            .map(|(stage, ts)| {
                let name = self
                    .stages
                    .iter()
                    .find(|s| s.index == stage)
                    .map(|s| s.name.clone())
                    .unwrap_or_else(|| format!("stage-{stage}"));
                StageSummary {
                    stage,
                    name,
                    tasks: ts.len(),
                    start_us: ts.iter().map(|t| t.start_us).min().unwrap_or(0),
                    end_us: ts.iter().map(|t| t.end_us).max().unwrap_or(0),
                    busy_us: ts.iter().map(|t| t.dur_us()).sum(),
                    peak_concurrency: peak_concurrency(&ts),
                }
            })
            .collect()
    }
}

/// Aggregate of one stage's tasks.
#[derive(Debug, Clone)]
pub struct StageSummary {
    pub stage: usize,
    pub name: String,
    pub tasks: usize,
    pub start_us: u64,
    pub end_us: u64,
    pub busy_us: u64,
    pub peak_concurrency: usize,
}

fn peak_concurrency(tasks: &[&TaskRec]) -> usize {
    let mut deltas: Vec<(u64, i32)> = Vec::with_capacity(tasks.len() * 2);
    for t in tasks {
        deltas.push((t.start_us, 1));
        deltas.push((t.end_us, -1));
    }
    // Ends sort before starts at equal timestamps so back-to-back tasks
    // don't double-count.
    deltas.sort_by_key(|&(ts, d)| (ts, d));
    let mut cur = 0i32;
    let mut peak = 0i32;
    for (_, d) in deltas {
        cur += d;
        peak = peak.max(cur);
    }
    peak.max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn task_span(
        plan: &str,
        run: u64,
        stage: u64,
        kind: &str,
        partition: u64,
        tid: u32,
        ts: u64,
        dur: u64,
    ) -> ProfSpan {
        ProfSpan {
            name: kind.to_string(),
            cat: "mr.task".to_string(),
            pid: 1,
            tid,
            ts_us: ts,
            dur_us: dur,
            args: vec![
                ("plan".into(), FieldValue::Str(plan.into())),
                ("run".into(), FieldValue::UInt(run)),
                ("stage".into(), FieldValue::UInt(stage)),
                ("partition".into(), FieldValue::UInt(partition)),
                ("attempt".into(), FieldValue::UInt(0)),
            ],
        }
    }

    fn job_span(plan: &str, run: u64, stage: u64, upstream: &str, name: &str) -> ProfSpan {
        ProfSpan {
            name: name.to_string(),
            cat: "mr.job".to_string(),
            pid: 1,
            tid: 0,
            ts_us: 0,
            dur_us: 1000,
            args: vec![
                ("plan".into(), FieldValue::Str(plan.into())),
                ("run".into(), FieldValue::UInt(run)),
                ("stage".into(), FieldValue::UInt(stage)),
                ("upstream".into(), FieldValue::Str(upstream.into())),
            ],
        }
    }

    /// Two-stage chain, 2 lanes: stage 0 = 2 maps + 2 reduces, stage 1
    /// (upstream 0) = 2 maps + 2 reduces. Lane-packed with no idle gaps.
    fn two_stage_spans() -> Vec<ProfSpan> {
        let mut spans = vec![
            job_span("p", 7, 0, "-", "filter"),
            job_span("p", 7, 1, "0", "verify"),
        ];
        // stage 0: maps [0,10) on both lanes, reduces [10,30) lane 0 /
        // [10,20) lane 1.
        spans.push(task_span("p", 7, 0, "map", 0, 0, 0, 10));
        spans.push(task_span("p", 7, 0, "map", 1, 1, 0, 10));
        spans.push(task_span("p", 7, 0, "reduce", 0, 0, 10, 20));
        spans.push(task_span("p", 7, 0, "reduce", 1, 1, 10, 10));
        // stage 1: map of partition 1 can start at 20 (its upstream reduce
        // ended at 20); map 0 at 30.
        spans.push(task_span("p", 7, 1, "map", 1, 1, 20, 10));
        spans.push(task_span("p", 7, 1, "map", 0, 0, 30, 10));
        spans.push(task_span("p", 7, 1, "reduce", 0, 0, 40, 15));
        spans.push(task_span("p", 7, 1, "reduce", 1, 1, 40, 5));
        spans
    }

    #[test]
    fn groups_by_plan_run_pid_and_rebuilds_dag() {
        let mut spans = two_stage_spans();
        // A second run of the same plan must come back as its own profile.
        spans.push(job_span("p", 8, 0, "-", "filter"));
        spans.push(task_span("p", 8, 0, "map", 0, 0, 500, 10));
        let profiles = PlanProfile::from_spans(&spans);
        assert_eq!(profiles.len(), 2);
        let p7 = profiles.iter().find(|p| p.run == 7).unwrap();
        assert_eq!(p7.tasks.len(), 8);
        assert_eq!(p7.dag(), vec![(0, vec![]), (1, vec![0])]);
        assert_eq!(p7.stages[0].name, "filter");
        let p8 = profiles.iter().find(|p| p.run == 8).unwrap();
        assert_eq!(p8.tasks.len(), 1);
    }

    #[test]
    fn upstream_list_round_trips() {
        assert_eq!(encode_upstreams(&[]), "-");
        assert_eq!(encode_upstreams(&[3]), "3");
        assert_eq!(encode_upstreams(&[0, 1]), "0,1");
        assert_eq!(decode_upstreams("-"), Vec::<usize>::new());
        assert_eq!(decode_upstreams(""), Vec::<usize>::new());
        assert_eq!(decode_upstreams("0,1"), vec![0, 1]);
        for ups in [vec![], vec![2], vec![0, 1], vec![5, 3, 5]] {
            assert_eq!(decode_upstreams(&encode_upstreams(&ups)), ups);
        }
    }

    #[test]
    fn legacy_integer_upstream_tag_still_parses() {
        // Pre-fan-in traces recorded `upstream` as a single i64 (−1 =
        // external); the profiler must keep reading them.
        let mut spans = vec![
            job_span("p", 9, 0, "-", "filter"),
            task_span("p", 9, 0, "map", 0, 0, 0, 10),
        ];
        spans[0].args.retain(|(k, _)| k != "upstream");
        spans[0].args.push(("upstream".into(), FieldValue::Int(-1)));
        let mut legacy_up = job_span("p", 9, 1, "-", "verify");
        legacy_up.args.retain(|(k, _)| k != "upstream");
        legacy_up.args.push(("upstream".into(), FieldValue::Int(0)));
        spans.push(legacy_up);
        spans.push(task_span("p", 9, 1, "map", 0, 0, 10, 10));
        let profiles = PlanProfile::from_spans(&spans);
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].dag(), vec![(0, vec![]), (1, vec![0])]);
    }

    /// Fan-in: stages 0 and 1 are external, stage 2 joins both. One lane
    /// per stage so logical deps, not lanes, bound the schedule.
    fn fan_in_spans() -> Vec<ProfSpan> {
        let mut spans = vec![
            job_span("j", 4, 0, "-", "r-prefix"),
            job_span("j", 4, 1, "-", "s-prefix"),
            job_span("j", 4, 2, "0,1", "join"),
        ];
        for stage in 0..2u64 {
            spans.push(task_span("j", 4, stage, "map", 0, stage as u32, 0, 10));
            spans.push(task_span(
                "j",
                4,
                stage,
                "reduce",
                0,
                stage as u32,
                10,
                10 + 10 * stage,
            ));
        }
        // The join map can only start once BOTH upstream reduces sealed
        // partition 0 — i.e. at 30 (stage 1's reduce ends at 30).
        spans.push(task_span("j", 4, 2, "map", 0, 2, 30, 10));
        spans.push(task_span("j", 4, 2, "reduce", 0, 2, 40, 10));
        spans
    }

    #[test]
    fn fan_in_dag_and_critical_path() {
        let profiles = PlanProfile::from_spans(&fan_in_spans());
        let p = &profiles[0];
        assert_eq!(p.dag(), vec![(0, vec![]), (1, vec![]), (2, vec![0, 1])]);
        // The join map's logical preds are the sealed reduces of BOTH
        // upstream stages.
        let join_map = p
            .tasks
            .iter()
            .position(|t| t.stage == 2 && t.kind == TaskKind::Map)
            .unwrap();
        let preds = p.logical_preds(join_map);
        let pred_stages: Vec<usize> = preds.iter().map(|&j| p.tasks[j].stage).collect();
        assert_eq!(preds.len(), 2);
        assert!(pred_stages.contains(&0) && pred_stages.contains(&1));
        // The critical path must route through the slower upstream
        // (stage 1, reduce ends at 30), spanning the whole makespan.
        assert_eq!(p.makespan_us(), 50);
        assert_eq!(p.critical_path_span_us(), 50);
        let path = p.critical_path();
        assert!(path.iter().any(|&i| p.tasks[i].stage == 1));
        // Both upstream reduces are logical successors' predecessors: the
        // faster one (ends at 20) has slack, the slower none.
        let slack = p.slack_us();
        let fast = p
            .tasks
            .iter()
            .position(|t| t.stage == 0 && t.kind == TaskKind::Reduce)
            .unwrap();
        let slow = p
            .tasks
            .iter()
            .position(|t| t.stage == 1 && t.kind == TaskKind::Reduce)
            .unwrap();
        assert_eq!(slack[fast], 10);
        assert_eq!(slack[slow], 0);
    }

    /// Co-group: stages 0 and 1 are external, stage 2 co-groups both with
    /// no map phase — its tasks consume sealed partitions directly.
    fn cogroup_spans() -> Vec<ProfSpan> {
        let mut spans = vec![
            job_span("c", 6, 0, "-", "r-prefix"),
            job_span("c", 6, 1, "-", "s-prefix"),
            job_span("c", 6, 2, "0,1", "join"),
        ];
        for stage in 0..2u64 {
            spans.push(task_span("c", 6, stage, "map", 0, stage as u32, 0, 10));
            spans.push(task_span(
                "c",
                6,
                stage,
                "reduce",
                0,
                stage as u32,
                10,
                10 + 10 * stage,
            ));
        }
        // The co-group task starts once BOTH upstream reduces sealed
        // partition 0 — at 30 — with no interposed map.
        spans.push(task_span("c", 6, 2, "cogroup", 0, 2, 30, 10));
        spans
    }

    #[test]
    fn cogroup_dag_and_critical_path() {
        let profiles = PlanProfile::from_spans(&cogroup_spans());
        let p = &profiles[0];
        assert_eq!(p.dag(), vec![(0, vec![]), (1, vec![]), (2, vec![0, 1])]);
        let co = p
            .tasks
            .iter()
            .position(|t| t.kind == TaskKind::CoGroup)
            .unwrap();
        assert_eq!(p.tasks[co].stage, 2);
        // The co-group task's logical preds are the sealed reduces of
        // BOTH upstream stages — same release rule as a fan-in map.
        let preds = p.logical_preds(co);
        let pred_stages: Vec<usize> = preds.iter().map(|&j| p.tasks[j].stage).collect();
        assert_eq!(preds.len(), 2);
        assert!(pred_stages.contains(&0) && pred_stages.contains(&1));
        // Both upstream reduces list the co-group task as a successor.
        for (i, t) in p.tasks.iter().enumerate() {
            if t.kind == TaskKind::Reduce {
                assert_eq!(p.logical_succs(i), vec![co], "reduce of stage {}", t.stage);
            }
        }
        // Critical path routes through the slower upstream and spans the
        // whole makespan; the fast upstream's reduce has slack.
        assert_eq!(p.makespan_us(), 40);
        assert_eq!(p.critical_path_span_us(), 40);
        let path = p.critical_path();
        assert!(path.iter().any(|&i| p.tasks[i].stage == 1));
        assert_eq!(*path.last().unwrap(), co);
        let slack = p.slack_us();
        let fast = p
            .tasks
            .iter()
            .position(|t| t.stage == 0 && t.kind == TaskKind::Reduce)
            .unwrap();
        assert_eq!(slack[fast], 10);
        assert_eq!(slack[co], 0);
    }

    #[test]
    fn critical_path_covers_makespan_on_packed_timeline() {
        let profiles = PlanProfile::from_spans(&two_stage_spans());
        let p = &profiles[0];
        assert_eq!(p.makespan_us(), 55);
        // Packed lanes: the backward walk must reach ts=0.
        assert_eq!(p.critical_path_span_us(), p.makespan_us());
        let path = p.critical_path();
        // Chronological and chained: each hop ends no later than the next
        // begins... (resource preds share a lane; logical preds precede).
        for w in path.windows(2) {
            assert!(p.tasks[w[0]].end_us <= p.tasks[w[1]].start_us + p.tasks[w[1]].dur_us());
            assert!(p.tasks[w[0]].start_us <= p.tasks[w[1]].start_us);
        }
        // The terminal task is the latest-ending one (stage 1 reduce 0).
        let last = &p.tasks[*path.last().unwrap()];
        assert_eq!((last.stage, last.kind), (1, TaskKind::Reduce));
        assert_eq!(last.end_us, 55);
    }

    #[test]
    fn slack_zero_on_critical_chain_positive_off_it() {
        let profiles = PlanProfile::from_spans(&two_stage_spans());
        let p = &profiles[0];
        let slack = p.slack_us();
        // Stage-1 reduce partition 1 ends at 45 while the makespan is 55:
        // it has 10µs of slack.
        let loose = p
            .tasks
            .iter()
            .position(|t| t.stage == 1 && t.kind == TaskKind::Reduce && t.partition == 1)
            .unwrap();
        assert_eq!(slack[loose], 10);
        // The terminal critical task has zero slack.
        let tight = p
            .tasks
            .iter()
            .position(|t| t.stage == 1 && t.kind == TaskKind::Reduce && t.partition == 0)
            .unwrap();
        assert_eq!(slack[tight], 0);
    }

    #[test]
    fn stage_waterfall_and_concurrency() {
        let profiles = PlanProfile::from_spans(&two_stage_spans());
        let p = &profiles[0];
        let wf = p.stage_waterfall();
        assert_eq!(wf.len(), 2);
        assert_eq!((wf[0].start_us, wf[0].end_us), (0, 30));
        assert_eq!(wf[0].peak_concurrency, 2);
        assert_eq!(wf[0].busy_us, 10 + 10 + 20 + 10);
        assert_eq!(wf[1].name, "verify");
    }

    #[test]
    fn chrome_json_round_trip_matches_collector_events() {
        // Build a synthetic trace, export via ChromeTrace, re-parse, and
        // profile both representations identically.
        let spans = two_stage_spans();
        let mut chrome = crate::ChromeTrace::new();
        for s in &spans {
            chrome.push_event(TraceEvent {
                name: s.name.clone(),
                cat: if s.cat == "mr.task" {
                    "mr.task"
                } else {
                    "mr.job"
                },
                pid: s.pid,
                tid: s.tid,
                ts_us: s.ts_us,
                dur_us: s.dur_us,
                args: s
                    .args
                    .iter()
                    .map(|(k, v)| {
                        let key: &'static str = match k.as_str() {
                            "plan" => "plan",
                            "run" => "run",
                            "stage" => "stage",
                            "partition" => "partition",
                            "attempt" => "attempt",
                            _ => "upstream",
                        };
                        (key, v.clone())
                    })
                    .collect(),
            });
        }
        let parsed = spans_from_chrome_json(&chrome.to_json()).unwrap();
        let from_json = PlanProfile::from_spans(&parsed);
        let direct = PlanProfile::from_spans(&spans);
        assert_eq!(from_json.len(), direct.len());
        assert_eq!(
            from_json[0].critical_path_span_us(),
            direct[0].critical_path_span_us()
        );
        assert_eq!(from_json[0].dag(), direct[0].dag());
        assert_eq!(from_json[0].makespan_us(), direct[0].makespan_us());
    }
}
