//! End-to-end fault-tolerance tests: a job run under an aggressive seeded
//! fault plan must produce byte-identical output to the fault-free run, and
//! the same seed must reproduce the exact same retry/injection counters.
//!
//! One test installs a process-global fault plan, which every job run
//! without an explicit plan picks up, so every test takes [`serial`].

mod common;

use std::sync::{Mutex, MutexGuard};

use common::run_solo;
use ssj_faults::{FaultPlan, RetryPolicy};
use ssj_mapreduce::{Dataset, Emitter, GroupValues, JobMetrics, Mapper, Plan, StreamingReducer};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Word-count-shaped mapper: emits (token, 1) per token.
struct TokenMap;
impl Mapper for TokenMap {
    type InKey = u32;
    type InValue = String;
    type OutKey = String;
    type OutValue = u64;
    fn map(&mut self, _k: u32, line: String, out: &mut Emitter<String, u64>) {
        for tok in line.split_whitespace() {
            out.emit(tok.to_string(), 1);
        }
    }
}

struct CountRed;
impl StreamingReducer for CountRed {
    type InKey = String;
    type InValue = u64;
    type OutKey = String;
    type OutValue = u64;
    fn reduce_group(
        &mut self,
        k: &String,
        vs: &mut GroupValues<'_, '_, String, u64>,
        out: &mut Emitter<String, u64>,
    ) {
        out.emit(k.clone(), vs.sum());
    }
}

fn corpus() -> Dataset<u32, String> {
    let lines = [
        "the quick brown fox jumps over the lazy dog",
        "set similarity joins scale out on hadoop",
        "the fox filters candidate pairs by prefix",
        "length filter position filter suffix filter",
        "the the the quick quick join join join join",
        "stragglers are the long tail of the shuffle",
    ];
    let records: Vec<(u32, String)> = (0..48u32)
        .map(|i| (i, lines[i as usize % lines.len()].to_string()))
        .collect();
    Dataset::from_records(records, 8)
}

fn sorted_counts(out: Dataset<String, u64>) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = out.into_records().collect();
    v.sort();
    v
}

/// Runs `plan` as the one word-count stage (named after the plan).
fn wordcount(mut plan: Plan, reduce_tasks: usize) -> (Dataset<String, u64>, JobMetrics) {
    let h = plan.add(
        plan.name().to_string(),
        corpus(),
        reduce_tasks,
        |_| TokenMap,
        |_| CountRed,
    );
    run_solo(plan, h)
}

fn run_with(faults: Option<FaultPlan>) -> (Vec<(String, u64)>, ssj_mapreduce::ExecSummary) {
    let mut plan = Plan::new("wordcount").with_retry(RetryPolicy::default());
    if let Some(p) = faults {
        plan = plan.with_faults(p);
    }
    let (out, metrics) = wordcount(plan, 4);
    (sorted_counts(out), metrics.exec)
}

#[test]
fn chaos_output_matches_fault_free_output() {
    let _guard = serial();
    ssj_faults::silence_injected_panics();
    let (clean, clean_exec) = run_with(None);
    assert_eq!(clean_exec.retries, 0, "no faults, no retries");

    for seed in [1u64, 7, 42] {
        let (chaotic, exec) = run_with(Some(FaultPlan::chaos(seed, 0.25)));
        assert_eq!(
            chaotic, clean,
            "seed {seed}: fault injection must not change results"
        );
        assert!(
            exec.injected_total() > 0,
            "seed {seed}: 25% chaos over 12 tasks should inject something"
        );
    }
}

#[test]
fn same_seed_reproduces_identical_retry_counters() {
    let _guard = serial();
    ssj_faults::silence_injected_panics();
    let (out_a, exec_a) = run_with(Some(FaultPlan::chaos(99, 0.3)));
    let (out_b, exec_b) = run_with(Some(FaultPlan::chaos(99, 0.3)));
    assert_eq!(out_a, out_b);
    assert_eq!(exec_a.attempts, exec_b.attempts);
    assert_eq!(exec_a.retries, exec_b.retries);
    assert_eq!(exec_a.injected_errors, exec_b.injected_errors);
    assert_eq!(exec_a.injected_panics, exec_b.injected_panics);
    assert_eq!(exec_a.injected_stragglers, exec_b.injected_stragglers);
}

#[test]
fn different_seeds_draw_different_faults() {
    let _guard = serial();
    ssj_faults::silence_injected_panics();
    let mut totals = std::collections::BTreeSet::new();
    for seed in 0..6u64 {
        let (_, exec) = run_with(Some(FaultPlan::chaos(seed, 0.3)));
        totals.insert((
            exec.injected_errors,
            exec.injected_panics,
            exec.injected_stragglers,
        ));
    }
    assert!(
        totals.len() > 1,
        "six seeds should not all produce the same injection profile"
    );
}

#[test]
fn globally_installed_plan_applies_and_uninstalls() {
    let _guard = serial();
    ssj_faults::silence_injected_panics();
    let (clean, _) = run_with(None);

    ssj_faults::install_plan(FaultPlan::chaos(5, 0.25));
    let plan = Plan::new("wordcount").with_retry(RetryPolicy::default());
    let (out, metrics) = wordcount(plan, 4);
    ssj_faults::uninstall_plan();

    assert_eq!(sorted_counts(out), clean);
    assert!(metrics.exec.injected_total() > 0);

    // After uninstall, jobs run clean again.
    let (out2, metrics2) = wordcount(Plan::new("wordcount"), 4);
    assert_eq!(sorted_counts(out2), clean);
    assert_eq!(metrics2.exec.injected_total(), 0);
}

#[test]
#[should_panic(expected = "failed after")]
fn exhausted_retry_budget_fails_the_job() {
    let _guard = serial();
    ssj_faults::silence_injected_panics();
    // Every attempt of every task errors (rate 1.0, unlimited injected
    // attempts), so the retry budget must run out and the job must fail
    // with the task-failure context in the panic message.
    let mut plan = FaultPlan::new(3).with_failures(1.0, 0.0);
    plan.max_injected_attempts = u32::MAX;
    let _ = wordcount(
        Plan::new("wordcount")
            .with_retry(RetryPolicy::default())
            .with_faults(plan),
        2,
    );
}
