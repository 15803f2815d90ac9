//! Integration of the engine with `ssj-observe`: span nesting, combiner
//! accounting, and Perfetto export invariants.
//!
//! The collector slot is process-global, so every test here serializes on
//! one mutex (the file runs single-process under `cargo test`).

use ssj_mapreduce::{
    ChainMetrics, ClusterModel, Dataset, Emitter, JobBuilder, Mapper, Reducer, SumCombiner,
};
use ssj_observe::{ChromeTrace, Collector, TraceEvent};
use std::sync::{Arc, Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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

struct Sum;
impl Reducer for Sum {
    type InKey = String;
    type InValue = u64;
    type OutKey = String;
    type OutValue = u64;
    fn reduce(&mut self, word: &String, counts: Vec<u64>, out: &mut Emitter<String, u64>) {
        out.emit(word.clone(), counts.iter().sum());
    }
}

fn word_input() -> Dataset<u32, String> {
    let lines: Vec<(u32, String)> = (0..40u32)
        .map(|i| (i, format!("alpha beta gamma alpha t{} t{}", i % 7, i % 3)))
        .collect();
    Dataset::from_records(lines, 4)
}

fn run_traced_job() -> (Arc<Collector>, ssj_mapreduce::JobMetrics) {
    let collector = ssj_observe::install_collector();
    let (_, metrics) = JobBuilder::new("observe-wc").reduce_tasks(3).run_full(
        &word_input(),
        |_| Tokenize,
        |_| Sum,
        ssj_mapreduce::HashPartitioner,
        Some(SumCombiner),
    );
    ssj_observe::uninstall_collector();
    (collector, metrics)
}

fn contains(outer: &TraceEvent, inner: &TraceEvent) -> bool {
    outer.ts_us <= inner.ts_us && outer.ts_us + outer.dur_us >= inner.ts_us + inner.dur_us
}

#[test]
fn spans_nest_task_in_phase_in_job() {
    let _guard = serial();
    let (collector, _) = run_traced_job();
    let events = collector.events();
    let job = events
        .iter()
        .find(|e| e.cat == "mr.job" && e.name == "observe-wc")
        .expect("job span");
    let phases: Vec<&TraceEvent> = events.iter().filter(|e| e.cat == "mr.phase").collect();
    let tasks: Vec<&TraceEvent> = events.iter().filter(|e| e.cat == "mr.task").collect();
    assert_eq!(phases.len(), 3, "map + shuffle + reduce phases");
    assert_eq!(tasks.len(), 4 + 3, "4 map tasks + 3 reduce tasks");
    // A job is a one-stage plan: the plan span encloses the job span, and
    // every task carries the plan-identity tags the profiler groups by.
    let plan = events
        .iter()
        .find(|e| e.cat == "mr.plan" && e.name == "observe-wc")
        .expect("plan span");
    assert!(contains(plan, job), "job span outside its plan span");
    for task in &tasks {
        for tag in ["plan", "run", "stage", "partition"] {
            assert!(
                task.args.iter().any(|(k, _)| *k == tag),
                "{} task lacks the {tag:?} tag",
                task.name
            );
        }
    }
    for phase in &phases {
        assert!(
            contains(job, phase),
            "phase {:?} [{}, {}] outside job [{}, {}]",
            phase.name,
            phase.ts_us,
            phase.ts_us + phase.dur_us,
            job.ts_us,
            job.ts_us + job.dur_us
        );
    }
    // Every task interval lies inside the matching phase interval.
    for task in &tasks {
        let phase = phases
            .iter()
            .find(|p| p.name == task.name)
            .expect("phase for task kind");
        assert!(
            contains(phase, task),
            "{} task [{}, {}] outside its phase [{}, {}]",
            task.name,
            task.ts_us,
            task.ts_us + task.dur_us,
            phase.ts_us,
            phase.ts_us + phase.dur_us
        );
    }
}

#[test]
fn combiner_accounting_is_visible() {
    let _guard = serial();
    let (_, metrics) = run_traced_job();
    // "alpha" appears twice per line: the combiner must shrink the shuffle.
    assert!(metrics.pre_combine_records > metrics.shuffle_records);
    assert!(metrics.shuffle_records > 0);
    // The split phase walls sum to the whole.
    assert!(
        metrics.map_elapsed + metrics.shuffle_elapsed + metrics.reduce_elapsed <= metrics.elapsed
    );
}

#[test]
fn export_is_valid_json_with_monotonic_lanes() {
    let _guard = serial();
    let (collector, metrics) = run_traced_job();
    // Add the simulated timeline next to the real one, as expt does.
    let cluster = ClusterModel::paper_default(5);
    let mut chain = ChainMetrics::default();
    chain.push(metrics);
    let schedules = cluster.simulate_chain_schedule(&chain);
    assert_eq!(schedules.len(), 1);

    let json = ChromeTrace::from_collector(&collector).to_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("}"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    assert!(!json.contains("\n"), "single-line document");

    // Re-parse the "X" events' (pid, tid, ts) in emitted order: timestamps
    // must be non-decreasing within every lane.
    let mut last: std::collections::BTreeMap<(u64, u64), u64> = Default::default();
    for chunk in json.split("\"ph\":\"X\"").skip(1) {
        let field = |key: &str| -> u64 {
            let at = chunk
                .find(key)
                .unwrap_or_else(|| panic!("{key} in {chunk}"));
            chunk[at + key.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .unwrap()
        };
        let lane = (field("\"pid\":"), field("\"tid\":"));
        let ts = field("\"ts\":");
        if let Some(&prev) = last.get(&lane) {
            assert!(ts >= prev, "lane {lane:?} went backwards: {prev} -> {ts}");
        }
        last.insert(lane, ts);
    }
    assert!(!last.is_empty(), "no X events exported");
}

#[test]
fn registry_collects_engine_metrics() {
    let _guard = serial();
    let registry = ssj_observe::install_registry();
    let (_, metrics) = run_traced_job();
    ssj_observe::uninstall_registry();
    assert_eq!(registry.counter_get("mr.jobs"), 1);
    assert_eq!(
        registry.counter_get("mr.shuffle.records"),
        metrics.shuffle_records as u64
    );
    assert_eq!(
        registry.counter_get("mr.pre_combine.records"),
        metrics.pre_combine_records as u64
    );
    let h = registry
        .histogram_get("mr.reduce.input_records")
        .expect("histogram");
    assert_eq!(h.count(), 3);
}
