//! Fault-aware cluster simulation: the policy, outcome and error of a
//! fault run of [`ClusterModel`]'s event loop under a seeded [`FaultPlan`].
//! Attempts fail and are retried within a budget, stragglers run
//! `straggler_factor`× slower, nodes can be lost mid-job, and idle slots
//! may launch first-finisher-wins backups. Same metrics, plan and policy
//! give bit-identical outcomes, so makespan-vs-failure-rate curves repeat.
//!
//! Deliberate simplifications:
//!
//! * Retry backoff is ignored — milliseconds of backoff are invisible at
//!   cluster timescales.
//! * A lost node stays lost for the remainder of the *job*; chains give
//!   each job a fresh cluster (the per-job fault process matches how
//!   [`FaultPlan::node_loss_at`] scopes its draw).
//! * Losing a node after the map phase forces re-execution of the map
//!   tasks that ran on it *unless* `checkpoint_map_outputs` is set —
//!   modelling Hadoop's materialized map outputs (and this engine's
//!   [`SpillStore`](crate::SpillStore)). A loss inside the shuffle window
//!   takes effect when the window closes. Re-run map work competes for
//!   slots with the remaining reduces.

use crate::cluster::ClusterModel;
use crate::metrics::ChainMetrics;
use crate::plan::PlanMode;
use ssj_faults::{FaultPlan, Phase, RetryPolicy};

/// Scheduler behaviour under faults.
#[derive(Debug, Clone, Copy)]
pub struct SimFaultPolicy {
    /// Per-task attempt budget (backoff fields are ignored by the sim).
    pub retry: RetryPolicy,
    /// Launch speculative backup copies of slow attempts on idle slots,
    /// whenever a fresh copy would finish first.
    pub speculation: bool,
    /// Map outputs survive node loss (Hadoop re-fetches materialized
    /// spills). When false, reduce-phase node loss re-runs the lost node's
    /// map tasks.
    pub checkpoint_map_outputs: bool,
}

impl Default for SimFaultPolicy {
    fn default() -> Self {
        SimFaultPolicy {
            retry: RetryPolicy::default(),
            speculation: false,
            checkpoint_map_outputs: true,
        }
    }
}

impl SimFaultPolicy {
    /// Default policy with speculation turned on.
    pub fn speculative() -> Self {
        SimFaultPolicy {
            speculation: true,
            ..SimFaultPolicy::default()
        }
    }
}

/// What the fault-aware simulation observed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimFaultOutcome {
    /// Simulated makespan under faults.
    pub makespan_secs: f64,
    /// Fault-free makespan of the same job(s) on the same cluster.
    pub clean_makespan_secs: f64,
    /// Task attempts started (first attempts + retries + backups + reruns).
    pub attempts: u64,
    /// Failed attempts rescheduled within the retry budget.
    pub retries: u64,
    /// Injected transient errors.
    pub injected_errors: u64,
    /// Injected panics.
    pub injected_panics: u64,
    /// Injected straggler slowdowns.
    pub injected_stragglers: u64,
    /// Speculative backup attempts launched.
    pub speculative_launched: u64,
    /// Backups that finished before the original attempt.
    pub speculative_wins: u64,
    /// Nodes lost mid-job.
    pub node_losses: u64,
    /// Map tasks re-executed because their node was lost after the map
    /// phase and outputs were not checkpointed.
    pub map_reruns: u64,
}

impl SimFaultOutcome {
    /// Makespan inflation over the fault-free run (1.0 = no slowdown).
    pub fn slowdown(&self) -> f64 {
        if self.clean_makespan_secs == 0.0 {
            return 1.0;
        }
        self.makespan_secs / self.clean_makespan_secs
    }

    fn absorb(&mut self, other: &SimFaultOutcome) {
        self.makespan_secs += other.makespan_secs;
        self.clean_makespan_secs += other.clean_makespan_secs;
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.injected_errors += other.injected_errors;
        self.injected_panics += other.injected_panics;
        self.injected_stragglers += other.injected_stragglers;
        self.speculative_launched += other.speculative_launched;
        self.speculative_wins += other.speculative_wins;
        self.node_losses += other.node_losses;
        self.map_reruns += other.map_reruns;
    }
}

/// Why a simulated job could not finish.
#[derive(Debug, Clone, PartialEq)]
pub enum SimFaultError {
    /// Every node died with work still outstanding.
    ClusterLost {
        /// Job that was running.
        job: String,
        /// Simulated time of the final node loss.
        at_secs: f64,
    },
    /// A task exhausted its retry budget.
    TaskFailed {
        /// Job that was running.
        job: String,
        /// Phase of the failing task.
        phase: Phase,
        /// Task index within the phase.
        task: usize,
        /// Attempts consumed.
        attempts: u32,
    },
}

impl std::fmt::Display for SimFaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimFaultError::ClusterLost { job, at_secs } => {
                write!(f, "sim: job {job:?} lost every node at t={at_secs:.3}s")
            }
            SimFaultError::TaskFailed {
                job,
                phase,
                task,
                attempts,
            } => write!(
                f,
                "sim: job {job:?} {} task {task} failed after {attempts} attempts",
                phase.name()
            ),
        }
    }
}

impl std::error::Error for SimFaultError {}

impl ClusterModel {
    /// Simulate a chain of jobs under a fault plan; jobs run back-to-back
    /// and each job faces a fresh cluster (the loss process is per-job).
    pub fn simulate_chain_faults(
        &self,
        chain: &ChainMetrics,
        plan: &FaultPlan,
        policy: &SimFaultPolicy,
    ) -> Result<SimFaultOutcome, SimFaultError> {
        let mut total = SimFaultOutcome::default();
        for job in &chain.jobs {
            let one = std::slice::from_ref(job);
            let run = |faults| self.simulate(one, &[vec![]], PlanMode::Sequential, faults);
            let clean = run(None)?.0[0].end_secs;
            // Node-loss draws are scoped to the job's fault-free makespan so
            // the loss *rate* is per job, not per phase.
            let (schedules, mut out) = run(Some((plan, policy, clean)))?;
            out.makespan_secs = schedules[0].end_secs;
            out.clean_makespan_secs = clean;
            total.absorb(&out);
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::{chain_of, plan_job};

    /// A one-job chain: `maps` maps of `map_secs`, `reds` reduces of `red_secs`.
    fn job(name: &str, maps: usize, map_secs: f64, reds: usize, red_secs: f64) -> ChainMetrics {
        let mut m = plan_job(name, &vec![map_secs; maps], &vec![red_secs; reds]);
        m.shuffle_records = 100;
        m.shuffle_bytes = 10_000;
        chain_of([m])
    }

    fn ckpt(on: bool) -> SimFaultPolicy {
        SimFaultPolicy {
            checkpoint_map_outputs: on,
            ..SimFaultPolicy::default()
        }
    }

    #[test]
    fn clean_plan_matches_fault_free_simulation() {
        let m = job("clean", 12, 1.0, 6, 2.0);
        let c = ClusterModel::paper_default(2);
        let out = c
            .simulate_chain_faults(&m, &FaultPlan::new(1), &SimFaultPolicy::default())
            .expect("no faults injected");
        let clean = c.simulate_chain_schedule(&m)[0].end_secs;
        assert!((out.makespan_secs - clean).abs() < 1e-9, "{out:?}");
        assert_eq!(out.attempts, 18);
        assert_eq!(out.retries, 0);
        assert_eq!(out.node_losses, 0);
        assert!((out.slowdown() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chaos_outcome_is_deterministic_and_slower() {
        let m = job("chaos", 20, 1.0, 10, 1.5);
        let c = ClusterModel::paper_default(3);
        let plan = FaultPlan::chaos(42, 0.3);
        let run = || c.simulate_chain_faults(&m, &plan, &SimFaultPolicy::default());
        let a = run().expect("within budget");
        assert_eq!(Ok(a), run(), "same seed, same outcome");
        assert!(a.retries > 0, "30% failure rate over 30 tasks: {a:?}");
        assert!(a.makespan_secs >= a.clean_makespan_secs - 1e-9);
        assert!(a.attempts as usize > 30);
    }

    #[test]
    fn speculation_cuts_straggler_bound_makespan() {
        // Straggler-heavy plan: no failures, half the attempts run 10x
        // slower. With backups on idle slots the tail collapses.
        let m = job("spec", 30, 1.0, 6, 1.0);
        let c = ClusterModel::paper_default(2); // 6 slots
        let plan = FaultPlan::new(7).with_stragglers(0.5, 10.0);
        let run = |p| c.simulate_chain_faults(&m, &plan, &p).unwrap();
        let (base, spec) = (
            run(SimFaultPolicy::default()),
            run(SimFaultPolicy::speculative()),
        );
        let (b, s) = (base.makespan_secs, spec.makespan_secs);
        assert!(s <= b + 1e-9, "speculation must never hurt: {s} vs {b}");
        assert!(s < b * 0.8, "tail should collapse: {s} vs {b}");
        assert!(spec.speculative_launched > 0);
        assert!(spec.speculative_wins > 0);
        assert_eq!(base.speculative_launched, 0);
    }

    #[test]
    fn speculation_never_hurts_across_seeds() {
        let m = job("never-hurts", 24, 1.0, 8, 1.5);
        let c = ClusterModel::paper_default(2);
        for seed in 0..10 {
            let plan = FaultPlan::new(seed).with_stragglers(0.3, 6.0);
            let run = |p| {
                c.simulate_chain_faults(&m, &plan, &p)
                    .unwrap()
                    .makespan_secs
            };
            let (b, s) = (
                run(SimFaultPolicy::default()),
                run(SimFaultPolicy::speculative()),
            );
            assert!(s <= b + 1e-9, "seed {seed}: {s} vs {b}");
        }
    }

    #[test]
    fn losing_every_node_kills_the_job() {
        let m = job("doomed", 10, 5.0, 5, 5.0);
        let plan = FaultPlan::new(11).with_node_loss(1.0);
        let err = ClusterModel::paper_default(3)
            .simulate_chain_faults(&m, &plan, &SimFaultPolicy::default())
            .expect_err("all nodes die before the work can finish");
        assert!(matches!(err, SimFaultError::ClusterLost { .. }), "{err:?}");
        assert!(err.to_string().contains("lost every node"));
    }

    #[test]
    fn node_loss_reruns_are_deterministic_and_survivable() {
        // Moderate loss rate on a bigger cluster: some seeds lose a node,
        // the job still finishes, and lost-node work re-runs elsewhere.
        let m = job("lossy", 20, 1.0, 10, 4.0);
        let c = ClusterModel::paper_default(5);
        let mut saw_loss = false;
        for seed in 0..20 {
            let plan = FaultPlan::new(seed).with_node_loss(0.4);
            let run = || c.simulate_chain_faults(&m, &plan, &SimFaultPolicy::default());
            let a = run();
            assert_eq!(a, run(), "seed {seed}: even failures must be deterministic");
            // A seed that kills every node is a legitimate outcome at this
            // loss rate; the survivable seeds must still make sense.
            let Ok(a) = a else { continue };
            if a.node_losses > 0 {
                saw_loss = true;
                assert!(a.makespan_secs >= a.clean_makespan_secs - 1e-9);
            }
        }
        assert!(saw_loss, "40% loss rate over 20 seeds x 5 nodes must hit");
    }

    #[test]
    fn checkpointing_avoids_map_reruns() {
        // Long reduce phase so node losses land there; without checkpointed
        // map outputs the lost node's maps re-run, with them they don't.
        let m = job("ckpt", 15, 0.5, 10, 6.0);
        let c = ClusterModel::paper_default(5);
        let mut saw_rerun = false;
        for seed in 0..30 {
            let plan = FaultPlan::new(seed).with_node_loss(0.5);
            let run = |on| c.simulate_chain_faults(&m, &plan, &ckpt(on));
            let (Ok(a), Ok(b)) = (run(true), run(false)) else {
                continue; // this seed killed the whole cluster
            };
            assert_eq!(a.map_reruns, 0, "checkpointed outputs never re-map");
            if b.map_reruns > 0 {
                saw_rerun = true;
                let (a, b) = (a.makespan_secs, b.makespan_secs);
                assert!(b >= a - 1e-9, "re-mapping cannot be faster: {b} vs {a}");
            }
        }
        assert!(saw_rerun, "reduce-phase node loss must occur in 30 seeds");
    }

    #[test]
    fn exhausted_retry_budget_fails_the_task() {
        let m = job("hopeless", 4, 1.0, 2, 1.0);
        let mut plan = FaultPlan::new(3).with_failures(1.0, 0.0);
        plan.max_injected_attempts = u32::MAX; // never relent
        let policy = SimFaultPolicy {
            retry: RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            ..SimFaultPolicy::default()
        };
        let err = ClusterModel::paper_default(2)
            .simulate_chain_faults(&m, &plan, &policy)
            .expect_err("every attempt fails");
        match err {
            SimFaultError::TaskFailed { attempts, .. } => assert_eq!(attempts, 2),
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn chain_sums_jobs() {
        let (a, b) = (job("a", 6, 1.0, 3, 1.0), job("b", 6, 1.0, 3, 1.0));
        let chain = chain_of([a.jobs[0].clone(), b.jobs[0].clone()]);
        let c = ClusterModel::paper_default(2);
        let plan = FaultPlan::chaos(5, 0.2);
        let run = |ch| c.simulate_chain_faults(ch, &plan, &ckpt(true)).unwrap();
        let (total, a, b) = (run(&chain), run(&a), run(&b));
        assert!((total.makespan_secs - a.makespan_secs - b.makespan_secs).abs() < 1e-9);
        assert_eq!(total.attempts, a.attempts + b.attempts);
        assert_eq!(total.retries, a.retries + b.retries);
    }
}
