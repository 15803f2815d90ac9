//! `ssj-faults`: deterministic chaos for the MapReduce engine.
//!
//! The paper's scalability results run on Hadoop 0.20.2 and silently lean on
//! its fault tolerance: failed task attempts are retried (up to
//! `mapred.map.max.attempts = 4`), stragglers are speculatively re-executed
//! with first-finisher-wins semantics, and map outputs are materialized so a
//! reducer failure re-fetches instead of re-mapping. This crate supplies the
//! *fault model* half of that machinery:
//!
//! * a [`FaultPlan`] — a seeded injector whose per-attempt decisions
//!   ([`FaultPlan::decide`]) and per-node loss events
//!   ([`FaultPlan::node_loss_at`]) are **pure functions of the seed and the
//!   decision scope** (job name, phase, task index, attempt ordinal). Two
//!   runs with the same seed inject byte-identical fault patterns no matter
//!   how threads interleave;
//! * [`RetryPolicy`] — bounded attempts with exponential backoff;
//! * a process-global plan slot ([`install_plan`]) mirroring
//!   `ssj_observe::install_collector`, so drivers enable cluster-wide chaos
//!   without threading a plan through every job builder.
//!
//! The execution half (attempt scheduling, panic capture, checkpointed map
//! output) lives in `ssj-mapreduce`'s plan runner, which retries but does
//! not speculate; the simulated half (rescheduling on a modelled cluster,
//! speculative backup copies, node-loss re-runs) in its `sim_faults`
//! module.

#![forbid(unsafe_code)]

pub mod rng;

use rng::{hash_str, SplitMix64};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Which phase a task attempt belongs to (the injector scopes decisions by
/// phase so map and reduce fault patterns are independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A map task attempt.
    Map,
    /// A reduce task attempt.
    Reduce,
}

impl Phase {
    fn word(self) -> u64 {
        match self {
            Phase::Map => 1,
            Phase::Reduce => 2,
        }
    }

    /// Lowercase display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Map => "map",
            Phase::Reduce => "reduce",
        }
    }
}

/// A fault injected into one task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The attempt fails with a clean error (Hadoop: child JVM exits
    /// non-zero / task throws).
    Error,
    /// The attempt panics mid-flight (Hadoop: child JVM crash). The
    /// executor must catch this without poisoning shared state.
    Panic,
    /// The attempt completes correctly but runs `straggler_factor` slower
    /// (Hadoop: a straggler node; the case speculation exists for).
    Straggle,
}

impl Fault {
    /// Lowercase display name.
    pub fn name(self) -> &'static str {
        match self {
            Fault::Error => "error",
            Fault::Panic => "panic",
            Fault::Straggle => "straggle",
        }
    }
}

/// Payload type used for injected panics, so panic hooks and the executor
/// can tell deliberate chaos apart from genuine bugs.
#[derive(Debug, Clone)]
pub struct InjectedPanic {
    /// Job the attempt belonged to.
    pub job: String,
    /// Phase of the attempt.
    pub phase: Phase,
    /// Task index within the phase.
    pub task: usize,
    /// Attempt ordinal.
    pub attempt: u32,
}

/// A seeded, deterministic fault plan.
///
/// All rates are per *attempt* probabilities in `[0, 1]`; one uniform draw
/// per attempt partitions the unit interval as
/// `[error | panic | straggle | clean]`, so the rates are mutually
/// exclusive and their sum must stay ≤ 1.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed every decision derives from.
    pub seed: u64,
    /// Probability an attempt fails with [`Fault::Error`].
    pub error_rate: f64,
    /// Probability an attempt fails with [`Fault::Panic`].
    pub panic_rate: f64,
    /// Probability an attempt straggles ([`Fault::Straggle`]).
    pub straggler_rate: f64,
    /// Simulated duration multiplier for straggling attempts (≥ 1).
    pub straggler_factor: f64,
    /// Real-executor sleep injected into straggling attempts (kept small:
    /// the host pays it in wall-clock).
    pub straggler_delay: Duration,
    /// Probability a given `(job, node)` suffers node loss during the job
    /// (simulator only: the real executor has no nodes to lose).
    pub node_loss_rate: f64,
    /// Attempt ordinals `>= max_injected_attempts` are never injected,
    /// guaranteeing forward progress as long as the retry budget exceeds
    /// this bound.
    pub max_injected_attempts: u32,
    /// Fraction of an attempt's clean duration that elapses before an
    /// injected failure manifests (simulator: work lost to the failure).
    pub failure_point: f64,
    /// Deterministic targeted injections, consulted *before* the
    /// probabilistic rates (and exempt from `max_injected_attempts` — the
    /// target's own attempt bound governs). Lets tests pin a fault on one
    /// `(job, phase)` without perturbing any other decision.
    pub targets: Vec<FaultTarget>,
}

/// One deterministic injection rule: every task of `(job, phase)` fails
/// with `fault` on attempt ordinals `< attempts`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTarget {
    /// Job (or plan-stage) name the rule applies to.
    pub job: String,
    /// Phase the rule applies to.
    pub phase: Phase,
    /// The fault to inject.
    pub fault: Fault,
    /// Attempt ordinals `< attempts` are injected (`u32::MAX` = always,
    /// which exhausts any finite retry budget).
    pub attempts: u32,
}

impl FaultPlan {
    /// A plan with the given seed and all rates zero.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            error_rate: 0.0,
            panic_rate: 0.0,
            straggler_rate: 0.0,
            straggler_factor: 4.0,
            straggler_delay: Duration::from_millis(15),
            node_loss_rate: 0.0,
            max_injected_attempts: 2,
            failure_point: 0.5,
            targets: Vec::new(),
        }
    }

    /// The standard chaos mix at a headline failure rate: 60% of failures
    /// are clean errors, 40% panics, plus an equal rate of stragglers.
    /// `chaos(seed, 0.05)` ≈ "5% of attempts fail, 5% straggle".
    pub fn chaos(seed: u64, failure_rate: f64) -> Self {
        FaultPlan {
            error_rate: failure_rate * 0.6,
            panic_rate: failure_rate * 0.4,
            straggler_rate: failure_rate,
            ..FaultPlan::new(seed)
        }
    }

    /// Set error/panic rates (replacing the current split).
    pub fn with_failures(mut self, error_rate: f64, panic_rate: f64) -> Self {
        self.error_rate = error_rate;
        self.panic_rate = panic_rate;
        self.check()
    }

    /// Set straggler rate and simulated slowdown factor.
    pub fn with_stragglers(mut self, rate: f64, factor: f64) -> Self {
        self.straggler_rate = rate;
        self.straggler_factor = factor.max(1.0);
        self.check()
    }

    /// Set the per-`(job, node)` loss probability (simulator only).
    pub fn with_node_loss(mut self, rate: f64) -> Self {
        self.node_loss_rate = rate;
        self.check()
    }

    /// Add a deterministic targeted injection: every task of
    /// `(job, phase)` fails with `fault` on attempt ordinals `< attempts`.
    pub fn with_target(
        mut self,
        job: impl Into<String>,
        phase: Phase,
        fault: Fault,
        attempts: u32,
    ) -> Self {
        self.targets.push(FaultTarget {
            job: job.into(),
            phase,
            fault,
            attempts,
        });
        self
    }

    fn check(self) -> Self {
        let total = self.error_rate + self.panic_rate + self.straggler_rate;
        assert!(
            (0.0..=1.0).contains(&total)
                && self.error_rate >= 0.0
                && self.panic_rate >= 0.0
                && self.straggler_rate >= 0.0,
            "fault rates must be non-negative and sum to <= 1 (got {self:?})"
        );
        assert!(
            (0.0..=1.0).contains(&self.node_loss_rate),
            "node_loss_rate must be in [0, 1]"
        );
        self
    }

    /// The injection decision for one task attempt. Pure in
    /// `(seed, job, phase, task, attempt)`: call it twice, get the same
    /// answer; reorder the calls, nothing changes.
    pub fn decide(&self, job: &str, phase: Phase, task: usize, attempt: u32) -> Option<Fault> {
        for t in &self.targets {
            if t.job == job && t.phase == phase && attempt < t.attempts {
                return Some(t.fault);
            }
        }
        if attempt >= self.max_injected_attempts {
            return None;
        }
        let u = SplitMix64::scoped(
            self.seed,
            &[hash_str(job), phase.word(), task as u64, attempt as u64],
        )
        .next_f64();
        if u < self.error_rate {
            Some(Fault::Error)
        } else if u < self.error_rate + self.panic_rate {
            Some(Fault::Panic)
        } else if u < self.error_rate + self.panic_rate + self.straggler_rate {
            Some(Fault::Straggle)
        } else {
            None
        }
    }

    /// When (if ever) `node` is lost during `job`, as seconds uniformly
    /// drawn over `[0, horizon_secs)`. Pure in `(seed, job, node)`.
    pub fn node_loss_at(&self, job: &str, node: usize, horizon_secs: f64) -> Option<f64> {
        if self.node_loss_rate <= 0.0 || horizon_secs <= 0.0 {
            return None;
        }
        let mut g = SplitMix64::scoped(
            self.seed,
            &[
                0x6e6f_6465_u64, /* "node" */
                hash_str(job),
                node as u64,
            ],
        );
        if g.next_f64() < self.node_loss_rate {
            Some(g.next_f64() * horizon_secs)
        } else {
            None
        }
    }

    /// Whether any fault kind has a non-zero rate.
    pub fn is_active(&self) -> bool {
        self.error_rate > 0.0
            || self.panic_rate > 0.0
            || self.straggler_rate > 0.0
            || self.node_loss_rate > 0.0
            || !self.targets.is_empty()
    }
}

/// Bounded retry with exponential backoff — the engine analogue of
/// Hadoop's `mapred.{map,reduce}.max.attempts` (default 4) plus its retry
/// delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per task (including the first). Must be ≥ 1.
    pub max_attempts: u32,
    /// Backoff before attempt `n+1` is `base × 2ⁿ`, capped at `cap`.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    /// Hadoop's default attempt budget with a millisecond-scale backoff
    /// (the in-process engine has no JVM restart cost to hide).
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// No retries at all (a failure is immediately fatal).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Backoff to wait after `failed_attempts` failures.
    pub fn backoff(&self, failed_attempts: u32) -> Duration {
        let shift = failed_attempts.min(16);
        self.backoff_base
            .saturating_mul(1u32 << shift)
            .min(self.backoff_cap)
    }
}

// ---------------------------------------------------------------------------
// Process-global plan (the "cluster configuration" slot).
// ---------------------------------------------------------------------------

static PLAN_ACTIVE: AtomicBool = AtomicBool::new(false);

fn plan_slot() -> &'static Mutex<Option<Arc<FaultPlan>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<FaultPlan>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Install `plan` as the process-global fault plan; every job run without
/// an explicit plan picks it up. Returns the shared handle.
pub fn install_plan(plan: FaultPlan) -> Arc<FaultPlan> {
    let p = Arc::new(plan);
    *plan_slot().lock().unwrap() = Some(Arc::clone(&p));
    PLAN_ACTIVE.store(true, Ordering::Release);
    p
}

/// Remove and return the global plan (chaos off).
pub fn uninstall_plan() -> Option<Arc<FaultPlan>> {
    PLAN_ACTIVE.store(false, Ordering::Release);
    plan_slot().lock().unwrap().take()
}

/// The installed global plan, if any. One relaxed atomic load when chaos
/// is off, so the engine can query this per phase at no real cost.
pub fn active_plan() -> Option<Arc<FaultPlan>> {
    if !PLAN_ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    plan_slot().lock().unwrap().clone()
}

/// Wrap the current panic hook so deliberate [`InjectedPanic`]s do not spam
/// stderr with backtraces during chaos runs; genuine panics still print.
/// Call once per process (idempotent enough: wrapping twice just nests).
pub fn silence_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<InjectedPanic>().is_none() {
            prev(info);
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_order_free() {
        let plan = FaultPlan::chaos(42, 0.3);
        let mut forward = Vec::new();
        for t in 0..100 {
            for a in 0..2 {
                forward.push(plan.decide("job", Phase::Map, t, a));
            }
        }
        let mut backward = Vec::new();
        for t in (0..100).rev() {
            for a in (0..2).rev() {
                backward.push(plan.decide("job", Phase::Map, t, a));
            }
        }
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn rates_are_respected_empirically() {
        let plan = FaultPlan::new(7)
            .with_failures(0.2, 0.1)
            .with_stragglers(0.1, 3.0);
        let n = 20_000;
        let mut counts = [0usize; 4];
        for t in 0..n {
            match plan.decide("j", Phase::Reduce, t, 0) {
                Some(Fault::Error) => counts[0] += 1,
                Some(Fault::Panic) => counts[1] += 1,
                Some(Fault::Straggle) => counts[2] += 1,
                None => counts[3] += 1,
            }
        }
        let frac = |c: usize| c as f64 / n as f64;
        assert!((frac(counts[0]) - 0.2).abs() < 0.02, "{counts:?}");
        assert!((frac(counts[1]) - 0.1).abs() < 0.02, "{counts:?}");
        assert!((frac(counts[2]) - 0.1).abs() < 0.02, "{counts:?}");
    }

    #[test]
    fn different_scopes_draw_independently() {
        let plan = FaultPlan::chaos(1, 0.5);
        let map: Vec<_> = (0..64)
            .map(|t| plan.decide("j", Phase::Map, t, 0))
            .collect();
        let red: Vec<_> = (0..64)
            .map(|t| plan.decide("j", Phase::Reduce, t, 0))
            .collect();
        let other: Vec<_> = (0..64)
            .map(|t| plan.decide("k", Phase::Map, t, 0))
            .collect();
        assert_ne!(map, red);
        assert_ne!(map, other);
    }

    #[test]
    fn injection_stops_at_attempt_bound() {
        let plan = FaultPlan::new(3).with_failures(1.0, 0.0);
        assert_eq!(plan.decide("j", Phase::Map, 0, 0), Some(Fault::Error));
        assert_eq!(plan.decide("j", Phase::Map, 0, 1), Some(Fault::Error));
        assert_eq!(
            plan.decide("j", Phase::Map, 0, 2),
            None,
            "progress guarantee"
        );
    }

    #[test]
    fn node_loss_is_deterministic_and_in_horizon() {
        let plan = FaultPlan::new(5).with_node_loss(0.5);
        let mut hits = 0;
        for node in 0..200 {
            if let Some(t) = plan.node_loss_at("j", node, 30.0) {
                assert!((0.0..30.0).contains(&t));
                assert_eq!(plan.node_loss_at("j", node, 30.0), Some(t));
                hits += 1;
            }
        }
        assert!((60..140).contains(&hits), "≈50% of 200 nodes, got {hits}");
        assert_eq!(plan.node_loss_at("j", 0, 0.0), None);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let r = RetryPolicy::default();
        assert_eq!(r.backoff(0), Duration::from_millis(1));
        assert_eq!(r.backoff(1), Duration::from_millis(2));
        assert_eq!(r.backoff(3), Duration::from_millis(8));
        assert_eq!(r.backoff(30), Duration::from_millis(50), "capped");
    }

    #[test]
    #[should_panic(expected = "sum to <= 1")]
    fn overfull_rates_rejected() {
        let _ = FaultPlan::new(0).with_failures(0.9, 0.9);
    }

    #[test]
    fn global_plan_install_round_trip() {
        // Runs in one test to avoid cross-test interference on the global.
        assert!(active_plan().is_none() || uninstall_plan().is_some());
        let p = install_plan(FaultPlan::chaos(11, 0.1));
        let got = active_plan().expect("installed");
        assert_eq!(*got, *p);
        let back = uninstall_plan().expect("uninstall");
        assert_eq!(*back, *p);
        assert!(active_plan().is_none());
    }
}
