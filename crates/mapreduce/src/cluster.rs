//! Simulated cluster scheduling.
//!
//! The paper's Figure 9 varies worker-node count (5/10/15) on EC2. This
//! host has one machine, so we reproduce the experiment the way simulators
//! do: execute the job once to *measure* per-task durations and shuffle
//! volume, then schedule those measured tasks onto a modelled cluster of
//! `nodes × slots_per_node` task slots and charge the shuffle against a
//! network model. The resulting makespan exhibits the phenomena the paper
//! reports — sub-linear speedup (stragglers bound the makespan when reduce
//! input is skewed) and growing cross-node shuffle share (`1 − 1/N` of
//! shuffled bytes crosses the network).
//!
//! One discrete-event loop places every task: work queues FIFO as its
//! inputs become ready, a job's maps are followed by its shuffle window
//! and then its reduces, and stages are released per partition or as
//! whole-stage barriers ([`PlanMode`]). Under a [`FaultPlan`] the same loop
//! injects retries, stragglers, speculation, node loss and map re-runs.

use crate::metrics::{ChainMetrics, JobMetrics, TaskKind};
use crate::plan::PlanMode;
use crate::sim_faults::{SimFaultError, SimFaultOutcome, SimFaultPolicy};
use ssj_faults::{Fault, FaultPlan, Phase};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

/// A cluster configuration for makespan simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterModel {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Concurrent task slots per node (the paper uses 3).
    pub slots_per_node: usize,
    /// Per-node *effective* shuffle bandwidth in bytes/second. For a raw
    /// network model use link speed; for a Hadoop-era model use the
    /// end-to-end spill→sort→fetch→merge throughput, which was far lower.
    pub net_bytes_per_sec: f64,
    /// CPU charge per shuffled record, in seconds, spread across the
    /// cluster's slots. 0 for a pure model; Hadoop 0.20's per-record
    /// serialization/object overhead was on the order of microseconds,
    /// which is precisely what makes record duplication expensive on that
    /// platform.
    pub per_record_secs: f64,
}

impl ClusterModel {
    /// The paper's default cluster shape: `nodes` workers × 3 slots,
    /// 1 Gbit/s network, no per-record platform overhead (pure model).
    /// Tasks take the durations measured on the host.
    pub fn paper_default(nodes: usize) -> Self {
        ClusterModel {
            nodes,
            slots_per_node: 3,
            net_bytes_per_sec: 125.0e6, // 1 Gbit/s
            per_record_secs: 0.0,
        }
    }

    /// A Hadoop-0.20-era calibration of the same cluster: effective
    /// shuffle throughput ~25 MB/s/node (spill + sort + HTTP fetch +
    /// merge) and ~8 µs of JVM/serialization overhead per shuffled
    /// record. Used to show how the paper's platform amplifies the cost
    /// of record duplication; reported alongside the pure model, never
    /// instead of it.
    pub fn hadoop_2010(nodes: usize) -> Self {
        ClusterModel {
            nodes,
            slots_per_node: 3,
            net_bytes_per_sec: 25.0e6,
            per_record_secs: 8.0e-6,
        }
    }

    /// Total task slots.
    pub fn total_slots(&self) -> usize {
        self.nodes * self.slots_per_node
    }

    /// Simulated shuffle transfer time for `bytes` of map output: the
    /// fraction `1 − 1/nodes` crosses the network, and aggregate bandwidth
    /// scales with node count.
    pub fn shuffle_secs(&self, bytes: usize) -> f64 {
        if self.nodes <= 1 {
            return 0.0;
        }
        let cross = bytes as f64 * (1.0 - 1.0 / self.nodes as f64);
        cross / (self.net_bytes_per_sec * self.nodes as f64)
    }

    /// Simulate a chain of jobs run back-to-back, as Hadoop drivers submit
    /// them: each job starts when the previous one has ended. Returns one
    /// [`SimSchedule`] per job; the last `end_secs` is the makespan.
    pub fn simulate_chain_schedule(&self, chain: &ChainMetrics) -> Vec<SimSchedule> {
        let deps: Vec<Vec<usize>> = (0..chain.jobs.len())
            .map(|j| j.checked_sub(1).into_iter().collect())
            .collect();
        let run = self.simulate(&chain.jobs, &deps, PlanMode::Sequential, None);
        run.expect("a fault-free run cannot fail").0
    }

    /// Makespan of `chain` run job after job (the last job's end in
    /// [`Self::simulate_chain_schedule`]; 0 for an empty chain): the
    /// simulated time every join result and runner reports.
    pub fn chain_makespan(&self, chain: &ChainMetrics) -> f64 {
        self.simulate_chain_schedule(chain)
            .last()
            .map_or(0.0, |s| s.end_secs)
    }

    /// Simulate a plan DAG with **partition-granular pipelining** (the
    /// model of [`PlanRunner`](crate::plan::PlanRunner)'s pipelined mode,
    /// and of Hadoop slow-start): `deps[j]` lists the upstream jobs
    /// feeding job `j` via shuffle edges (empty = external input; the
    /// list is a multiset — a job consuming the same upstream twice
    /// appears twice). Map split *i* of job `j` is *released* the moment
    /// reduce task *i* of its **last-finishing** upstream finishes — not
    /// when the whole upstream job ends — so downstream map work overlaps
    /// the upstream reduce tails whenever slots are free. A co-group job
    /// has no map phase and no shuffle: its task *i* is released the same
    /// way. If an upstream's reduce count disagrees with the job's split
    /// count, the job falls back to a whole-stage barrier at the latest
    /// upstream end; the fallback bumps the `sim.plan.barrier_fallbacks`
    /// counter on the global metrics registry and logs a
    /// [`warn!`](ssj_observe::warn). A job's reduces are released when its
    /// last map finishes plus its shuffle window.
    ///
    /// A single-job plan reproduces [`Self::simulate_chain_schedule`]; a
    /// linear chain is never slower than it. The plan makespan is the
    /// maximum `end_secs`.
    ///
    /// # Panics
    /// Panics if `deps.len() != chain.jobs.len()` or a dependency index is
    /// not an earlier job.
    pub fn simulate_plan(&self, chain: &ChainMetrics, deps: &[Vec<usize>]) -> Vec<SimSchedule> {
        assert_eq!(deps.len(), chain.jobs.len(), "one dependency entry per job");
        for (j, d) in deps.iter().enumerate() {
            for u in d {
                assert!(*u < j, "job {j} must depend on an earlier job, got {u}");
            }
        }
        let run = self.simulate(&chain.jobs, deps, PlanMode::Pipelined, None);
        run.expect("a fault-free run cannot fail").0
    }

    /// The event loop behind every entry point. `faults` carries the plan,
    /// the policy and the horizon the node-loss draws are spread over;
    /// fault runs simulate one job at a time.
    pub(crate) fn simulate(
        &self,
        jobs: &[JobMetrics],
        deps: &[Vec<usize>],
        mode: PlanMode,
        faults: Option<(&FaultPlan, &SimFaultPolicy, f64)>,
    ) -> Result<(Vec<SimSchedule>, SimFaultOutcome), SimFaultError> {
        assert!(self.nodes > 0, "ClusterModel: nodes must be >= 1");
        assert!(
            self.slots_per_node > 0,
            "ClusterModel: slots_per_node must be >= 1"
        );
        let mut sim = Sim {
            jobs,
            faults,
            spn: self.slots_per_node,
            idle: (0..self.total_slots()).collect(),
            alive: vec![true; self.nodes],
            downstream: vec![Vec::new(); jobs.len()],
            jobs_left: jobs.len(),
            ..Sim::default()
        };
        for (j, (m, d)) in jobs.iter().zip(deps).enumerate() {
            // The transfer plus the per-record charge spread over every slot.
            let records = m.shuffle_records as f64 * self.per_record_secs;
            let shuffle = self.shuffle_secs(m.shuffle_bytes) + records / self.total_slots() as f64;
            sim.add_job(j, d, mode, shuffle);
        }
        sim.run()?;
        let schedules = sim.js.into_iter().zip(jobs).map(|(s, m)| s.schedule(m));
        Ok((schedules.collect(), sim.out))
    }
}

/// One task placed on the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTask {
    /// Map, reduce or co-group.
    pub kind: TaskKind,
    /// Task index within its phase.
    pub index: usize,
    /// Node the slot belongs to.
    pub node: usize,
    /// Global slot index (`node * slots_per_node + local_slot`).
    pub slot: usize,
    /// Simulated start time (seconds on the chain timeline).
    pub start_secs: f64,
    /// Simulated end time.
    pub end_secs: f64,
}

/// A job's simulated schedule with slot identity (input to the timeline
/// exporter).
#[derive(Debug, Clone, PartialEq)]
pub struct SimSchedule {
    /// Job name.
    pub job_name: String,
    /// When the job's first task started on the chain timeline.
    pub start_secs: f64,
    /// Shuffle interval start (= end of the map phase; 0 for a pipelined
    /// co-group job, which has no shuffle).
    pub shuffle_start_secs: f64,
    /// Shuffle interval end (= start of the reduce phase).
    pub shuffle_end_secs: f64,
    /// When the last reduce task finished.
    pub end_secs: f64,
    /// Bytes charged to the shuffle interval.
    pub shuffle_bytes: usize,
    /// Every placed task, maps first then reduces, each by index.
    pub tasks: Vec<SimTask>,
}

impl SimSchedule {
    /// The job's map, shuffle and reduce intervals.
    pub fn phases(&self) -> PhaseTimes {
        PhaseTimes {
            map_secs: self.shuffle_start_secs - self.start_secs,
            shuffle_secs: self.shuffle_end_secs - self.shuffle_start_secs,
            reduce_secs: self.end_secs - self.shuffle_end_secs,
        }
    }
}

/// Simulated per-phase times of one job.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Map-phase makespan.
    pub map_secs: f64,
    /// Shuffle transfer time.
    pub shuffle_secs: f64,
    /// Reduce-phase makespan.
    pub reduce_secs: f64,
}

impl PhaseTimes {
    /// Total simulated time.
    pub fn total_secs(&self) -> f64 {
        self.map_secs + self.shuffle_secs + self.reduce_secs
    }
}

/// A speculative backup launches only when the running attempt's
/// projected finish is later than `now + SPEC_THRESHOLD × clean duration`,
/// i.e. whenever a fresh copy would win (close to Hadoop's heuristic).
const SPEC_THRESHOLD: f64 = 1.0;

/// Slot work: attempt `attempt` of task `tid`, or (`None`) a clean re-run
/// of map task `tid` whose output died with its node.
#[derive(Debug, Clone, Copy)]
struct Work {
    tid: usize,
    attempt: Option<u32>,
}

/// An attempt finishes, a node dies, a job's shuffle window closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Done(usize),
    Death(usize),
    Shuffled(usize),
}

/// Queue order of the tasks released at one instant: the order in which a
/// list scheduler, placing each task as soon as the last of its inputs is
/// placed, would have released them. That is by the latest launch among
/// the attempts the task waited for, then partition releases before
/// barrier releases, then job.
type Order = (usize, u8, usize);

#[derive(Debug, Clone, Copy)]
struct Attempt {
    work: Work,
    slot: usize,
    start: f64,
    finish: f64,
    speculative: bool,
    will_fail: bool,
    live: bool,
}

#[derive(Default)]
struct Task {
    job: usize,
    /// Position in its job's map or reduce task list.
    pos: usize,
    map: bool,
    secs: f64,
    done: bool,
    failed: u32,
    launched: u32,
    /// Live attempt ids.
    running: Vec<usize>,
    has_spec: bool,
    /// Node of the attempt that finished it.
    node: usize,
}

impl Task {
    fn phase(&self) -> Phase {
        if self.map {
            Phase::Map
        } else {
            Phase::Reduce
        }
    }
}

#[derive(Default)]
struct JobState {
    /// First task id of the job: its maps, then its reduces.
    base: usize,
    maps: usize,
    maps_left: usize,
    reds_left: usize,
    reruns_left: usize,
    /// Tasks go straight to the reduce side (a pipelined co-group).
    direct: bool,
    /// Released whole once every upstream job has ended.
    barrier: bool,
    ups_left: usize,
    /// Latest launch among the job's finished attempts (before its release,
    /// among its finished upstream jobs'): the order it releases work in.
    order: usize,
    /// Per split: upstream partitions still running, their latest launch.
    splits: Vec<(usize, usize)>,
    shuffle_secs: f64,
    in_shuffle: bool,
    done: bool,
    shuffle: (f64, f64),
    end: f64,
    placed: Vec<SimTask>,
}

impl JobState {
    fn schedule(mut self, m: &JobMetrics) -> SimSchedule {
        self.placed
            .sort_by_key(|t| (t.kind != TaskKind::Map, t.index));
        let first = self.placed.iter().map(|t| t.start_secs).reduce(f64::min);
        SimSchedule {
            job_name: m.name.clone(),
            start_secs: first.unwrap_or(self.shuffle.0),
            shuffle_start_secs: self.shuffle.0,
            shuffle_end_secs: self.shuffle.1,
            end_secs: self.end,
            shuffle_bytes: m.shuffle_bytes,
            tasks: self.placed,
        }
    }
}

#[derive(Default)]
struct Sim<'a> {
    jobs: &'a [JobMetrics],
    faults: Option<(&'a FaultPlan, &'a SimFaultPolicy, f64)>,
    /// Slots per node.
    spn: usize,
    now: f64,
    seq: u64,
    /// Min-heap on (time bits, push order): times are never negative, so
    /// their IEEE bit patterns order like the values.
    events: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    /// Work waiting for a slot. Retries, re-runs and attempts lost with a
    /// node join at once; released tasks when their instant is over.
    ready: VecDeque<Work>,
    /// Tasks released at the current instant.
    released: Vec<(Order, usize)>,
    idle: BTreeSet<usize>,
    alive: Vec<bool>,
    /// Nodes lost inside a shuffle window, applied when it closes.
    deferred: Vec<usize>,
    tasks: Vec<Task>,
    attempts: Vec<Attempt>,
    js: Vec<JobState>,
    downstream: Vec<Vec<usize>>,
    jobs_left: usize,
    out: SimFaultOutcome,
}

impl Sim<'_> {
    fn add_job(&mut self, j: usize, deps: &[usize], mode: PlanMode, shuffle_secs: f64) {
        let m = &self.jobs[j];
        let direct = m.cogroup && mode == PlanMode::Pipelined;
        let maps = if direct { 0 } else { m.map_tasks.len() };
        let splits = if direct { m.reduce_tasks.len() } else { maps };
        let ups: Vec<usize> = deps
            .iter()
            .map(|&u| self.jobs[u].reduce_tasks.len())
            .collect();
        let mismatch = mode == PlanMode::Pipelined && ups.iter().any(|&r| r != splits);
        if mismatch {
            if let Some(reg) = ssj_observe::global_registry() {
                reg.counter_add("sim.plan.barrier_fallbacks", 1);
            }
            ssj_observe::warn!(
                "simulate_plan: job {j} ({:?}) falls back to a whole-stage barrier: \
                 upstream reduce counts {ups:?} != {splits} map splits",
                m.name
            );
        }
        for &u in deps {
            self.downstream[u].push(j);
        }
        self.js.push(JobState {
            base: self.tasks.len(),
            maps,
            maps_left: maps,
            reds_left: m.reduce_tasks.len(),
            direct,
            barrier: mode == PlanMode::Sequential || mismatch,
            ups_left: deps.len(),
            splits: vec![(deps.len(), 0); splits],
            shuffle_secs,
            ..JobState::default()
        });
        for (map, stats) in [(true, &m.map_tasks[..maps]), (false, &m.reduce_tasks[..])] {
            for (pos, t) in stats.iter().enumerate() {
                let secs = t.duration.as_secs_f64();
                let task = Task {
                    job: j,
                    pos,
                    map,
                    secs,
                    ..Task::default()
                };
                self.tasks.push(task);
            }
        }
    }

    fn push_event(&mut self, t: f64, ev: Ev) {
        debug_assert!(t >= 0.0, "negative simulated time {t}");
        self.events.push(Reverse((t.to_bits(), self.seq, ev)));
        self.seq += 1;
    }

    fn run(&mut self) -> Result<(), SimFaultError> {
        if let Some((plan, _, horizon)) = self.faults {
            for node in 0..self.alive.len() {
                match plan.node_loss_at(&self.jobs[0].name, node, horizon) {
                    Some(t) if t <= 0.0 => self.death(node),
                    Some(t) => self.push_event(t, Ev::Death(node)),
                    None => {}
                }
            }
        }
        for j in 0..self.js.len() {
            if self.js[j].ups_left == 0 {
                self.release_stage(j, (0, 0, j));
            }
        }
        loop {
            // Once an instant's last event is handled, the tasks it
            // released queue up; slots freed earlier in the instant took
            // work that was already waiting.
            let next = self.events.peek().map(|e| f64::from_bits(e.0 .0));
            if next.is_none_or(|t| t > self.now) {
                self.released.sort_by_key(|r| r.0);
                let tasks = self.released.drain(..).map(|r| r.1);
                let attempt = Some(0);
                self.ready.extend(tasks.map(|tid| Work { tid, attempt }));
            }
            if self.jobs_left == 0 {
                return Ok(());
            }
            if !self.alive.contains(&true) {
                return Err(self.cluster_lost());
            }
            // Slots are filled after every event, not once per instant:
            // which node an attempt lands on decides what a node loss kills.
            self.dispatch();
            let Some(Reverse((bits, _, ev))) = self.events.pop() else {
                // Fault-free, only a stage that can never be released is
                // left; it stays empty.
                return self.faults.map_or(Ok(()), |_| Err(self.cluster_lost()));
            };
            self.now = f64::from_bits(bits);
            match ev {
                Ev::Done(aid) => self.done(aid)?,
                Ev::Death(node) if self.js.iter().any(|s| s.in_shuffle) => self.deferred.push(node),
                Ev::Death(node) => self.death(node),
                Ev::Shuffled(j) => {
                    self.js[j].in_shuffle = false;
                    self.deferred.sort_unstable();
                    for node in std::mem::take(&mut self.deferred) {
                        self.death(node);
                    }
                    self.release_reduces(j, (self.js[j].order, 0, j));
                }
            }
        }
    }

    fn cluster_lost(&self) -> SimFaultError {
        SimFaultError::ClusterLost {
            job: self.jobs[0].name.clone(),
            at_secs: self.now,
        }
    }

    /// Release a whole stage: its maps, or a direct co-group's tasks.
    fn release_stage(&mut self, j: usize, order: Order) {
        let s = &mut self.js[j];
        s.order = order.0;
        let (base, maps) = (s.base, s.maps);
        if s.direct {
            self.release_reduces(j, order);
        } else if maps == 0 {
            self.open_shuffle(j);
        } else {
            self.released
                .extend((base..base + maps).map(|tid| (order, tid)));
        }
    }

    fn release_reduces(&mut self, j: usize, order: Order) {
        let s = &self.js[j];
        let first = s.base + s.maps;
        let tids = first..first + s.reds_left;
        self.released.extend(tids.map(|tid| (order, tid)));
        self.try_complete(j);
    }

    /// Every map of job `j` has finished: its shuffle window starts now.
    fn open_shuffle(&mut self, j: usize) {
        let s = &mut self.js[j];
        s.shuffle = (self.now, self.now + s.shuffle_secs);
        s.in_shuffle = true;
        let end = s.shuffle.1;
        self.push_event(end, Ev::Shuffled(j));
    }

    fn try_complete(&mut self, j: usize) {
        let s = &mut self.js[j];
        if s.done || s.in_shuffle || s.maps_left + s.reds_left + s.reruns_left > 0 {
            return;
        }
        s.done = true;
        s.end = self.now;
        self.jobs_left -= 1;
        let order = s.order;
        for k in self.downstream[j].clone() {
            let d = &mut self.js[k];
            if d.barrier {
                d.ups_left -= 1;
                d.order = d.order.max(order);
                if d.ups_left == 0 {
                    let order = (d.order, 1, k);
                    self.release_stage(k, order);
                }
            }
        }
    }

    /// Task `tid` finished through attempt `aid`.
    fn finished(&mut self, tid: usize, aid: usize) {
        let a = self.attempts[aid];
        let t = &mut self.tasks[tid];
        t.done = true;
        t.node = a.slot / self.spn;
        let (j, pos, launch) = (t.job, t.pos, aid + 1);
        let m = &self.jobs[j];
        let stat = if t.map {
            &m.map_tasks[pos]
        } else {
            &m.reduce_tasks[pos]
        };
        let s = &mut self.js[j];
        s.placed.push(SimTask {
            kind: stat.kind,
            index: stat.index,
            node: t.node,
            slot: a.slot,
            start_secs: a.start,
            end_secs: a.finish,
        });
        s.order = s.order.max(launch);
        if t.map {
            s.maps_left -= 1;
            if s.maps_left == 0 {
                self.open_shuffle(j);
            }
            return;
        }
        s.reds_left -= 1;
        for k in self.downstream[j].clone() {
            let d = &mut self.js[k];
            if d.barrier {
                continue;
            }
            let split = &mut d.splits[pos];
            split.0 -= 1;
            split.1 = split.1.max(launch);
            if split.0 == 0 {
                self.released.push(((split.1, 0, k), d.base + pos));
            }
        }
        self.try_complete(j);
    }

    fn done(&mut self, aid: usize) -> Result<(), SimFaultError> {
        if !self.attempts[aid].live {
            return Ok(()); // killed earlier (lost race or node death)
        }
        let a = self.attempts[aid];
        self.kill(aid, true);
        let tid = a.work.tid;
        match a.work.attempt {
            None => {
                let j = self.tasks[tid].job;
                self.js[j].reruns_left -= 1;
                self.try_complete(j);
            }
            Some(_) if a.will_fail => {
                let max = self.faults.map_or(1, |f| f.1.retry.max_attempts.max(1));
                let t = &mut self.tasks[tid];
                t.failed += 1;
                if t.failed >= max {
                    return Err(SimFaultError::TaskFailed {
                        job: self.jobs[t.job].name.clone(),
                        phase: t.phase(),
                        task: t.pos,
                        attempts: t.failed,
                    });
                }
                self.out.retries += 1;
                let attempt = Some(t.launched);
                self.ready.push_back(Work { tid, attempt });
            }
            Some(_) if !self.tasks[tid].done => {
                self.out.speculative_wins += a.speculative as u64;
                // First finisher wins: kill the losing attempts now and
                // free their slots (Hadoop kills the slower attempt).
                for loser in std::mem::take(&mut self.tasks[tid].running) {
                    self.kill(loser, true);
                }
                self.finished(tid, aid);
            }
            Some(_) => {}
        }
        Ok(())
    }

    fn kill(&mut self, aid: usize, free_slot: bool) {
        let a = &mut self.attempts[aid];
        if !a.live {
            return;
        }
        a.live = false;
        if free_slot && self.alive[a.slot / self.spn] {
            self.idle.insert(a.slot);
        }
        let t = &mut self.tasks[a.work.tid];
        t.running.retain(|&x| x != aid);
        t.has_spec &= !a.speculative;
    }

    fn death(&mut self, node: usize) {
        if !std::mem::replace(&mut self.alive[node], false) {
            return;
        }
        self.out.node_losses += 1;
        let spn = self.spn;
        self.idle.retain(|s| s / spn != node);
        // Re-queue the node's running attempts; node loss does not consume
        // the task's failure budget (it is not the task's fault).
        for aid in 0..self.attempts.len() {
            let a = self.attempts[aid];
            if !a.live || a.slot / spn != node {
                continue;
            }
            self.kill(aid, false);
            if !a.speculative {
                // (A lost backup needs nothing: its original still runs.)
                let launched = self.tasks[a.work.tid].launched;
                let attempt = a.work.attempt.map(|_| launched);
                self.ready.push_back(Work { attempt, ..a.work });
            }
        }
        // Loss after a job's map phase without checkpointed map outputs:
        // the node's map outputs are gone, so those maps run again.
        if self.faults.is_some_and(|f| f.1.checkpoint_map_outputs) {
            return;
        }
        for (tid, t) in self.tasks.iter().enumerate() {
            let s = &mut self.js[t.job];
            if t.map && t.done && t.node == node && s.maps_left == 0 && !s.done {
                s.reruns_left += 1;
                self.out.map_reruns += 1;
                self.ready.push_back(Work { tid, attempt: None });
            }
        }
    }

    /// Fill idle slots from the ready queue, then (with speculation on)
    /// with backups of the slowest attempts.
    fn dispatch(&mut self) {
        while !self.idle.is_empty() {
            let Some(work) = self.ready.pop_front() else {
                break;
            };
            if work.attempt.is_some() && self.tasks[work.tid].done {
                continue; // finished by a backup meanwhile
            }
            let slot = self.idle.pop_first().expect("checked non-empty");
            self.launch(slot, work, false);
        }
        if !self.faults.is_some_and(|f| f.1.speculation) {
            return;
        }
        while !self.idle.is_empty() {
            // Slowest running attempt whose projected finish is worse than
            // starting a fresh copy right now.
            let candidate = (self.tasks.iter().enumerate())
                .filter(|(_, t)| !t.done && !t.has_spec && t.failed == 0 && !t.running.is_empty())
                .filter_map(|(tid, t)| {
                    let finish = (t.running.iter())
                        .map(|&aid| self.attempts[aid].finish)
                        .fold(f64::NEG_INFINITY, f64::max);
                    let fresh = self.now + SPEC_THRESHOLD * t.secs;
                    (finish > fresh + 1e-12).then_some((tid, finish))
                })
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
            let Some((tid, _)) = candidate else { break };
            let slot = self.idle.pop_first().expect("checked non-empty");
            self.out.speculative_launched += 1;
            let attempt = Some(self.tasks[tid].launched);
            self.launch(slot, Work { tid, attempt }, true);
        }
    }

    fn launch(&mut self, slot: usize, work: Work, speculative: bool) {
        let t = &self.tasks[work.tid];
        // Backups and re-runs run clean (see executor docs).
        let fault = match (self.faults, work.attempt) {
            (Some((plan, ..)), Some(n)) if !speculative => plan
                .decide(&self.jobs[t.job].name, t.phase(), t.pos, n)
                .map(|f| (plan, f)),
            _ => None,
        };
        let out = &mut self.out;
        let (factor, will_fail) = match fault {
            None => (1.0, false),
            Some((plan, f)) => {
                *match f {
                    Fault::Error => &mut out.injected_errors,
                    Fault::Panic => &mut out.injected_panics,
                    Fault::Straggle => &mut out.injected_stragglers,
                } += 1;
                match f {
                    Fault::Straggle => (plan.straggler_factor, false),
                    _ => (plan.failure_point, true),
                }
            }
        };
        let (aid, finish) = (self.attempts.len(), self.now + t.secs * factor);
        self.attempts.push(Attempt {
            work,
            slot,
            start: self.now,
            finish,
            speculative,
            will_fail,
            live: true,
        });
        if work.attempt.is_some() {
            let t = &mut self.tasks[work.tid];
            t.launched += 1;
            t.running.push(aid);
            t.has_spec |= speculative;
        }
        self.out.attempts += 1;
        self.push_event(finish, Ev::Done(aid));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::metrics::TaskStat;
    use std::time::Duration;

    /// A job whose maps and reduces take the given seconds.
    pub(crate) fn plan_job(name: &str, maps: &[f64], reds: &[f64]) -> JobMetrics {
        let tasks = |kind, secs: &[f64]| {
            let task = |(index, &s)| TaskStat {
                kind,
                index,
                duration: Duration::from_secs_f64(s),
                queue: Duration::ZERO,
                input_records: 1,
                input_bytes: 10,
                input_keys: 0,
                output_records: 1,
                output_bytes: 10,
            };
            secs.iter().enumerate().map(task).collect()
        };
        JobMetrics {
            name: name.into(),
            plan_stage: None,
            cogroup: false,
            map_tasks: tasks(TaskKind::Map, maps),
            reduce_tasks: tasks(TaskKind::Reduce, reds),
            shuffle_records: 0,
            shuffle_bytes: 0,
            pre_combine_records: 0,
            pre_combine_bytes: 0,
            elapsed: Duration::ZERO,
            map_elapsed: Duration::ZERO,
            shuffle_elapsed: Duration::ZERO,
            reduce_elapsed: Duration::ZERO,
            exec: Default::default(),
        }
    }

    pub(crate) fn chain_of(jobs: impl IntoIterator<Item = JobMetrics>) -> ChainMetrics {
        let mut chain = ChainMetrics::default();
        for j in jobs {
            chain.push(j);
        }
        chain
    }

    fn schedule(c: &ClusterModel, m: &JobMetrics) -> SimSchedule {
        c.simulate_chain_schedule(&chain_of([m.clone()])).remove(0)
    }

    /// Map-phase makespan of one job whose maps take `secs`.
    fn makespan(c: &ClusterModel, secs: &[f64]) -> f64 {
        schedule(c, &plan_job("maps", secs, &[])).phases().map_secs
    }

    fn many_task_metrics() -> JobMetrics {
        let mut m = plan_job(
            "sched",
            &[0.1, 0.13, 0.16, 0.1, 0.13, 0.16, 0.1, 0.13],
            &[0.2; 5],
        );
        m.shuffle_records = 1000;
        m.shuffle_bytes = 250_000_000;
        m
    }

    fn plan_makespan(scheds: &[SimSchedule]) -> f64 {
        scheds.iter().map(|s| s.end_secs).fold(0.0, f64::max)
    }

    fn no_overlap(s: &SimSchedule, eps: f64) {
        for a in &s.tasks {
            for b in &s.tasks {
                if (a.index, a.kind) != (b.index, b.kind) && a.slot == b.slot {
                    assert!(
                        a.end_secs <= b.start_secs + eps || b.end_secs <= a.start_secs + eps,
                        "slot {} double-booked: {a:?} vs {b:?}",
                        a.slot
                    );
                }
            }
        }
    }

    /// 1 node × 2 slots (`pipelines`) or 4 nodes × 2 slots, no shuffle cost.
    fn two_slot_nodes(nodes: usize) -> ClusterModel {
        ClusterModel {
            slots_per_node: 2,
            ..ClusterModel::paper_default(nodes)
        }
    }

    #[test]
    fn makespan_perfectly_parallel() {
        let c = ClusterModel::paper_default(2); // 6 slots
        assert!((makespan(&c, &[1.0; 6]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_queues_excess_tasks() {
        let c = ClusterModel::paper_default(1); // 3 slots
        assert!((makespan(&c, &[1.0; 4]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_straggler_bounds() {
        let c = ClusterModel::paper_default(5);
        let mut tasks = vec![0.01; 100];
        tasks.push(10.0);
        assert!(makespan(&c, &tasks) >= 10.0);
    }

    #[test]
    fn more_nodes_never_slower() {
        let tasks: Vec<f64> = (0..100).map(|i| 0.1 + (i % 7) as f64 * 0.05).collect();
        let m5 = makespan(&ClusterModel::paper_default(5), &tasks);
        let m10 = makespan(&ClusterModel::paper_default(10), &tasks);
        let m15 = makespan(&ClusterModel::paper_default(15), &tasks);
        assert!(m10 <= m5 + 1e-9);
        assert!(m15 <= m10 + 1e-9);
    }

    #[test]
    fn shuffle_single_node_is_free() {
        assert_eq!(ClusterModel::paper_default(1).shuffle_secs(1 << 30), 0.0);
    }

    #[test]
    fn shuffle_scales_with_nodes() {
        let bytes = 1 << 30;
        let s2 = ClusterModel::paper_default(2).shuffle_secs(bytes);
        let s10 = ClusterModel::paper_default(10).shuffle_secs(bytes);
        // At 10 nodes a larger fraction crosses the network but aggregate
        // bandwidth is 5x; net effect must be faster.
        assert!(s10 < s2);
    }

    #[test]
    fn hadoop_calibration_charges_per_record() {
        let mut m = plan_job("t", &[0.0], &[0.0]);
        m.shuffle_records = 3_000_000;
        let pure = schedule(&ClusterModel::paper_default(10), &m).phases();
        let hadoop = schedule(&ClusterModel::hadoop_2010(10), &m).phases();
        assert_eq!(pure.shuffle_secs, 0.0);
        // 3M records x 8us / 30 slots = 0.8s
        assert!((hadoop.shuffle_secs - 0.8).abs() < 1e-9, "{hadoop:?}");
    }

    #[test]
    fn simulate_job_sums_phases() {
        let mut m = plan_job("t", &[0.1], &[0.2]);
        m.shuffle_records = 1;
        m.shuffle_bytes = 250_000_000;
        let p = schedule(&ClusterModel::paper_default(2), &m).phases();
        assert!((p.map_secs - 0.1).abs() < 1e-9);
        assert!((p.reduce_secs - 0.2).abs() < 1e-9);
        // 250 MB, half crosses, 2 * 125 MB/s aggregate -> 0.5s
        assert!((p.shuffle_secs - 0.5).abs() < 1e-9);
        assert!((p.total_secs() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn schedule_respects_slots_and_phases() {
        let c = ClusterModel::paper_default(1); // 3 slots: tasks must queue
        let s = schedule(&c, &many_task_metrics());
        for t in &s.tasks {
            assert!(t.slot < c.total_slots());
            assert_eq!(t.node, t.slot / c.slots_per_node);
            assert!(t.end_secs >= t.start_secs);
            match t.kind {
                TaskKind::Map => assert!(t.end_secs <= s.shuffle_start_secs + 1e-12),
                TaskKind::Reduce => assert!(t.start_secs >= s.shuffle_end_secs - 1e-12),
                // Co-group jobs have no shuffle window to bound against.
                TaskKind::CoGroup => {}
            }
        }
        no_overlap(&s, 1e-12);
    }

    #[test]
    fn zero_duration_tasks_have_zero_makespan() {
        let c = ClusterModel::paper_default(3);
        assert_eq!(makespan(&c, &[0.0; 50]), 0.0);
        // Mixed with real work, zero-duration tasks add nothing.
        assert!((makespan(&c, &[0.0, 1.0, 0.0, 0.0]) - 1.0).abs() < 1e-9);
        // And a whole job places them without NaN/negative spans.
        let mut m = many_task_metrics();
        for t in &mut m.map_tasks {
            t.duration = Duration::ZERO;
        }
        for t in &schedule(&c, &m).tasks {
            assert!(t.end_secs >= t.start_secs);
            assert!(t.start_secs.is_finite() && t.end_secs.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "slots_per_node must be >= 1")]
    fn zero_slots_per_node_is_rejected() {
        let c = ClusterModel {
            slots_per_node: 0,
            ..ClusterModel::paper_default(5)
        };
        makespan(&c, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "nodes must be >= 1")]
    fn zero_nodes_is_rejected() {
        let c = ClusterModel {
            nodes: 0,
            ..ClusterModel::paper_default(5)
        };
        schedule(&c, &many_task_metrics());
    }

    #[test]
    fn far_more_tasks_than_slot_capacity() {
        // 1 node x 3 slots, 3000 unit tasks: the queue must drain in
        // ceil(3000/3) = 1000 rounds with no slot ever double-booked.
        let c = ClusterModel::paper_default(1);
        let ms = makespan(&c, &[1.0; 3000]);
        assert!((ms - 1000.0).abs() < 1e-6, "{ms}");
        let mut m = many_task_metrics();
        m.map_tasks = plan_job("maps", &[0.01; 200], &[]).map_tasks;
        no_overlap(&schedule(&c, &m), 1e-9);
    }

    #[test]
    fn simulated_job_monotone_in_nodes() {
        // Full-job makespan (map + shuffle + reduce) must never increase
        // with node count under the paper model, for nodes >= 2. (A single
        // node is excluded: it pays no network cost at all, so going from
        // 1 to 2 nodes can legitimately be slower when shuffle dominates.)
        let m = many_task_metrics();
        let mut prev = f64::INFINITY;
        for nodes in [2, 3, 5, 10, 15] {
            let t = schedule(&ClusterModel::paper_default(nodes), &m).end_secs;
            assert!(t <= prev + 1e-9, "{nodes} nodes: {t} > {prev}");
            prev = t;
        }
    }

    #[test]
    fn chain_schedule_is_sequential() {
        let chain = chain_of([many_task_metrics(), many_task_metrics()]);
        let scheds = ClusterModel::paper_default(2).simulate_chain_schedule(&chain);
        assert_eq!(scheds.len(), 2);
        assert_eq!(scheds[0].start_secs, 0.0);
        assert_eq!(scheds[1].start_secs, scheds[0].end_secs);
        let total: f64 = scheds.iter().map(|s| s.end_secs - s.start_secs).sum();
        assert!((total - scheds[1].end_secs).abs() < 1e-9);
    }

    #[test]
    fn plan_single_job_matches_job_schedule() {
        let chain = chain_of([many_task_metrics()]);
        let c = ClusterModel::paper_default(2);
        let plan = c.simulate_plan(&chain, &[vec![]]);
        assert_eq!(plan, c.simulate_chain_schedule(&chain));
    }

    #[test]
    fn plan_pipelines_across_job_boundary() {
        // 1 node x 2 slots, no shuffle cost. Upstream: a zero-cost map,
        // then four reduce partitions with one straggler (1s,1s,1s,4s).
        // Downstream: one 2s map per upstream partition, one 1s reduce.
        //
        // Serialized: upstream reduces pack as [0-1, 0-1, 1-2, 1-5];
        // downstream maps start at 5 in pairs -> 9; reduce -> 10.
        //
        // Pipelined: splits 0/1 release at 1, split 2 at 2, split 3 at 5.
        // They interleave with the straggling reduce on the free slot:
        // maps run 2-4, 4-6, 5-7, 6-8; reduce 8-9. Makespan 9 < 10.
        let c = two_slot_nodes(1);
        let chain = chain_of([
            plan_job("up", &[0.0], &[1.0, 1.0, 1.0, 4.0]),
            plan_job("down", &[2.0, 2.0, 2.0, 2.0], &[1.0]),
        ]);
        let piped = plan_makespan(&c.simulate_plan(&chain, &[vec![], vec![0]]));
        let serial = c.chain_makespan(&chain);
        assert!((serial - 10.0).abs() < 1e-9, "serialized {serial}");
        assert!((piped - 9.0).abs() < 1e-9, "pipelined {piped}");
    }

    #[test]
    fn plan_never_slower_than_serialized_chain() {
        let chain = chain_of([
            many_task_metrics(),
            many_task_metrics(),
            many_task_metrics(),
        ]);
        let deps = [vec![], vec![0], vec![1]];
        for nodes in [1, 2, 5] {
            let c = ClusterModel::paper_default(nodes);
            let piped = plan_makespan(&c.simulate_plan(&chain, &deps));
            let serial = c.chain_makespan(&chain);
            assert!(piped <= serial + 1e-9, "{nodes} nodes: {piped} > {serial}");
        }
    }

    #[test]
    fn plan_shape_mismatch_barriers_like_chain() {
        // Downstream map count != upstream reduce count: the whole
        // upstream stage must finish first, so the plan degenerates to
        // the serialized chain.
        let chain = chain_of([
            plan_job("up", &[0.5], &[1.0, 2.0]),
            plan_job("down", &[0.7, 0.7, 0.7], &[0.9]),
        ]);
        let c = ClusterModel::paper_default(1);
        let piped = plan_makespan(&c.simulate_plan(&chain, &[vec![], vec![0]]));
        let serial = c.chain_makespan(&chain);
        assert!((piped - serial).abs() < 1e-9, "{piped} vs {serial}");
    }

    #[test]
    fn plan_fan_in_releases_on_last_upstream() {
        // Two upstreams feed one join. Eight slots so nothing is ever
        // slot-bound: every start time is a pure release time. Upstream
        // reduces end at (1s, 3s) and (2s, 1s), so the release rule —
        // split i waits for reduce i of BOTH upstreams — pins join map 0
        // to 2s (s is later) and join map 1 to 3s (r is later).
        let chain = chain_of([
            plan_job("r", &[0.0], &[1.0, 3.0]),
            plan_job("s", &[0.0], &[2.0, 1.0]),
            plan_job("join", &[0.5, 0.5], &[0.4]),
        ]);
        let scheds = two_slot_nodes(4).simulate_plan(&chain, &[vec![], vec![], vec![0, 1]]);
        let join = &scheds[2];
        let map_start = |i: usize| {
            (join.tasks.iter())
                .find(|t| t.kind == TaskKind::Map && t.index == i)
                .unwrap()
                .start_secs
        };
        assert!((map_start(0) - 2.0).abs() < 1e-9, "{}", map_start(0));
        assert!((map_start(1) - 3.0).abs() < 1e-9, "{}", map_start(1));
        // Join reduce follows its last map; plan makespan = 3.9s.
        assert!((plan_makespan(&scheds) - 3.9).abs() < 1e-9);
    }

    fn cogroup_job(name: &str, reds: &[f64]) -> JobMetrics {
        let mut m = plan_job(name, &[], reds);
        m.cogroup = true;
        for t in &mut m.reduce_tasks {
            t.kind = TaskKind::CoGroup;
        }
        m
    }

    #[test]
    fn plan_cogroup_releases_per_partition_with_no_shuffle() {
        // Two upstreams feed a co-group stage. Eight slots so every start
        // time is a pure release time. Upstream reduces end at (1s, 3s)
        // and (2s, 1s): co-group task i consumes reduce partition i of
        // BOTH upstreams directly, so task 0 starts at 2s and task 1 at
        // 3s — no map phase in front and no shuffle window in between.
        let chain = chain_of([
            plan_job("r", &[0.0], &[1.0, 3.0]),
            plan_job("s", &[0.0], &[2.0, 1.0]),
            cogroup_job("join", &[0.5, 0.4]),
        ]);
        let scheds = two_slot_nodes(4).simulate_plan(&chain, &[vec![], vec![], vec![0, 1]]);
        let join = &scheds[2];
        assert!(join.tasks.iter().all(|t| t.kind == TaskKind::CoGroup));
        let start = |i: usize| join.tasks.iter().find(|t| t.index == i).unwrap().start_secs;
        assert!((start(0) - 2.0).abs() < 1e-9, "{}", start(0));
        assert!((start(1) - 3.0).abs() < 1e-9, "{}", start(1));
        // No shuffle is modeled for a co-group job.
        assert_eq!(join.shuffle_start_secs, 0.0);
        assert_eq!(join.shuffle_end_secs, 0.0);
        // vs the rekey fan-in shape of `plan_fan_in_releases_on_last_
        // upstream`: the same partitions finish at release + task time
        // with no interposed map, so makespan = 3 + 0.4 = 3.4s.
        assert!((plan_makespan(&scheds) - 3.4).abs() < 1e-9);
    }

    #[test]
    fn plan_cogroup_shape_mismatch_barriers() {
        // Co-group task count != upstream reduce count: falls back to a
        // whole-stage barrier, so the stage starts after the slowest
        // upstream reduce (3s) and both tasks release together.
        let chain = chain_of([
            plan_job("up", &[0.0], &[1.0, 3.0, 1.0]),
            cogroup_job("co", &[0.5, 0.4]),
        ]);
        let scheds = two_slot_nodes(4).simulate_plan(&chain, &[vec![], vec![0]]);
        for t in &scheds[1].tasks {
            assert!(
                (t.start_secs - 3.0).abs() < 1e-9,
                "barrier release expected at 3s, got {t:?}"
            );
        }
    }

    #[test]
    fn plan_barrier_fallback_is_counted() {
        let chain = chain_of([
            plan_job("up", &[0.5], &[1.0, 2.0]),
            plan_job("down", &[0.7, 0.7, 0.7], &[0.9]),
        ]);
        let reg = ssj_observe::install_registry();
        ClusterModel::paper_default(1).simulate_plan(&chain, &[vec![], vec![0]]);
        ssj_observe::uninstall_registry();
        // >= rather than == : other tests of this binary may trip the
        // fallback concurrently while the registry is installed.
        assert!(reg.counter_get("sim.plan.barrier_fallbacks") >= 1);
    }

    #[test]
    fn plan_simulation_is_deterministic() {
        let chain = chain_of([many_task_metrics(), many_task_metrics()]);
        let c = ClusterModel::paper_default(3);
        let a = c.simulate_plan(&chain, &[vec![], vec![0]]);
        let b = c.simulate_plan(&chain, &[vec![], vec![0]]);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    #[should_panic(expected = "one dependency entry per job")]
    fn plan_deps_length_mismatch_is_rejected() {
        let chain = chain_of([many_task_metrics()]);
        ClusterModel::paper_default(1).simulate_plan(&chain, &[vec![], vec![0]]);
    }
}
