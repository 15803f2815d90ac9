//! `ssj-prof` — plan-aware profile reports from an `expt --trace-out` dir.
//!
//! ```text
//! cargo run --release -p ssj-bench --bin expt -- table1 --trace-out /tmp/t
//! cargo run --release -p ssj-bench --bin ssj-prof -- /tmp/t
//! cargo run --release -p ssj-bench --bin ssj-prof -- /tmp/t --check
//! ```
//!
//! Reads `<dir>/trace.json` (Chrome trace-event format), reconstructs each
//! plan run's DAG from its `(plan, run, stage, partition)`-tagged task
//! spans — real `PlanRunner` executions (host pid) and simulated
//! `ClusterModel::simulate_plan` timelines (synthetic pids ≥ 100) alike —
//! and prints per-run critical path, top-N tasks with slack, and a stage
//! waterfall. When `<dir>/metrics.jsonl` exists, per-reduce-stage skew
//! histograms and imbalance factors are appended, then the fragment-join
//! filter and kernel counters.
//!
//! `--check` turns the report into a gate: every reconstructed profile's
//! critical path must span ≥ 95% of its makespan (the chain the profiler
//! blames must actually bound wall-clock), and at least one profile must
//! be present. Output is deterministic for fixed inputs, so CI also diffs
//! two invocations byte-for-byte.

use ssj_observe::json::Value;
use ssj_observe::{spans_from_chrome_json, LogHistogram, PlanProfile, TaskKind};
use std::path::PathBuf;
use std::process::ExitCode;

/// Minimum critical-path coverage of the makespan accepted by `--check`.
const CHECK_COVERAGE: f64 = 0.95;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut dir: Option<PathBuf> = None;
    let mut top = 5usize;
    let mut check = false;
    let mut plan_filter: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--top" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => top = n,
                None => return usage("--top requires a number"),
            },
            "--plan" => match args.next() {
                Some(p) => plan_filter = Some(p),
                None => return usage("--plan requires a name"),
            },
            "--check" => check = true,
            "--help" | "-h" => return usage(""),
            other if dir.is_none() && !other.starts_with('-') => {
                dir = Some(PathBuf::from(other));
            }
            other => return usage(&format!("unexpected argument {other:?}")),
        }
    }
    let Some(dir) = dir else {
        return usage("missing trace directory");
    };

    let trace_path = dir.join("trace.json");
    let doc = match std::fs::read_to_string(&trace_path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", trace_path.display());
            return ExitCode::from(2);
        }
    };
    let spans = match spans_from_chrome_json(&doc) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {}: {e}", trace_path.display());
            return ExitCode::from(2);
        }
    };
    let mut profiles = PlanProfile::from_spans(&spans);
    if let Some(p) = &plan_filter {
        profiles.retain(|x| &x.plan == p);
    }
    if profiles.is_empty() {
        println!("no plan-tagged task spans in {}", trace_path.display());
        return if check {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    let mut check_ok = true;
    for p in &profiles {
        let coverage = print_profile(p, top);
        if check {
            let ok = coverage >= CHECK_COVERAGE;
            check_ok &= ok;
            println!(
                "CHECK plan={} run={} pid={} coverage={:.1}% {}",
                p.plan,
                p.run,
                p.pid,
                coverage * 100.0,
                if ok { "OK" } else { "FAIL (< 95%)" }
            );
            println!();
        }
    }

    let metrics_path = dir.join("metrics.jsonl");
    if let Ok(doc) = std::fs::read_to_string(&metrics_path) {
        let metrics = parse_metrics(&doc);
        print_stage_skew(&metrics);
        print_filter_counters(&metrics);
    }

    if check && !check_ok {
        eprintln!("ssj-prof --check: critical-path coverage below threshold");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: ssj-prof <trace-dir> [--top N] [--plan NAME] [--check]");
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

fn kind_str(k: TaskKind) -> &'static str {
    match k {
        TaskKind::Map => "map",
        TaskKind::Reduce => "reduce",
        TaskKind::CoGroup => "cogrp",
    }
}

/// Print one profile's report; returns critical-path coverage of the
/// makespan in [0, 1].
fn print_profile(p: &PlanProfile, top: usize) -> f64 {
    let origin = if p.pid < 100 { "host" } else { "sim" };
    println!(
        "== plan '{}' run {} ({origin} pid {}) ==",
        p.plan, p.run, p.pid
    );
    let makespan = p.makespan_us();
    println!(
        "makespan {:.1} ms, {} tasks across {} stages",
        ms(makespan),
        p.tasks.len(),
        p.stage_waterfall().len()
    );

    println!("stage waterfall:");
    for s in p.stage_waterfall() {
        println!(
            "  [{}] {:<18} start {:>8.1} ms  end {:>8.1} ms  tasks {:>3}  busy {:>8.1} ms  peak x{}",
            s.stage,
            s.name,
            ms(s.start_us),
            ms(s.end_us),
            s.tasks,
            ms(s.busy_us),
            s.peak_concurrency
        );
    }

    let path = p.critical_path();
    let span = p.critical_path_span_us();
    let busy = p.critical_path_busy_us();
    let coverage = if makespan == 0 {
        1.0
    } else {
        span as f64 / makespan as f64
    };
    println!(
        "critical path: {} hops, span {:.1} ms ({:.1}% of makespan), busy {:.1} ms ({:.1}% of span)",
        path.len(),
        ms(span),
        coverage * 100.0,
        ms(busy),
        if span == 0 {
            100.0
        } else {
            busy as f64 / span as f64 * 100.0
        }
    );
    for &i in &path {
        let t = &p.tasks[i];
        println!(
            "  stage {} {:<6} p{:<3} start {:>8.1} ms  dur {:>8.1} ms  lane {}:{}",
            t.stage,
            kind_str(t.kind),
            t.partition,
            ms(t.start_us),
            ms(t.dur_us()),
            t.pid,
            t.tid
        );
    }

    // Top-N tasks by duration, annotated with CPM slack and a straggler
    // mark when the task ran > 2x its stage's median task duration.
    let slack = p.slack_us();
    let medians = stage_medians(p);
    let mut order: Vec<usize> = (0..p.tasks.len()).collect();
    order.sort_by_key(|&i| {
        let t = &p.tasks[i];
        (
            std::cmp::Reverse(t.dur_us()),
            t.start_us,
            t.stage,
            t.partition,
        )
    });
    println!("top {} tasks by duration:", top.min(order.len()));
    for &i in order.iter().take(top) {
        let t = &p.tasks[i];
        let median = medians
            .iter()
            .find(|(s, k, _)| *s == t.stage && *k == t.kind)
            .map(|(_, _, m)| *m)
            .unwrap_or(0);
        let straggler = median > 0 && t.dur_us() > 2 * median;
        println!(
            "  stage {} {:<6} p{:<3} dur {:>8.1} ms  slack {:>8.1} ms{}",
            t.stage,
            kind_str(t.kind),
            t.partition,
            ms(t.dur_us()),
            ms(slack[i]),
            if straggler { "  STRAGGLER" } else { "" }
        );
    }
    println!();
    coverage
}

/// Median task duration per (stage, kind).
fn stage_medians(p: &PlanProfile) -> Vec<(usize, TaskKind, u64)> {
    let mut groups: Vec<(usize, TaskKind, Vec<u64>)> = Vec::new();
    for t in &p.tasks {
        match groups
            .iter_mut()
            .find(|(s, k, _)| *s == t.stage && *k == t.kind)
        {
            Some((_, _, v)) => v.push(t.dur_us()),
            None => groups.push((t.stage, t.kind, vec![t.dur_us()])),
        }
    }
    groups
        .into_iter()
        .map(|(s, k, mut v)| {
            v.sort_unstable();
            (s, k, v[v.len() / 2])
        })
        .collect()
}

/// One parsed metrics.jsonl line.
enum Metric {
    Counter(f64),
    Gauge(f64),
    Histogram(Box<LogHistogram>),
}

fn parse_metrics(doc: &str) -> Vec<(String, Metric)> {
    let mut out = Vec::new();
    for line in doc.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(v) = Value::parse(line) else { continue };
        let Some(name) = v.get("metric").and_then(Value::as_str) else {
            continue;
        };
        let metric = match v.get("type").and_then(Value::as_str) {
            Some("counter") => v.get("value").and_then(Value::as_f64).map(Metric::Counter),
            Some("gauge") => v.get("value").and_then(Value::as_f64).map(Metric::Gauge),
            Some("histogram") => {
                let f = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
                let buckets: Vec<(u64, u64)> = v
                    .get("buckets")
                    .and_then(Value::as_obj)
                    .map(|obj| {
                        obj.iter()
                            .filter_map(|(k, c)| Some((k.parse::<u64>().ok()?, c.as_u64()?)))
                            .collect()
                    })
                    .unwrap_or_default();
                Some(Metric::Histogram(Box::new(LogHistogram::from_export(
                    f("count"),
                    f("sum"),
                    f("min"),
                    f("max"),
                    &buckets,
                ))))
            }
            _ => None,
        };
        if let Some(m) = metric {
            out.push((name.to_string(), m));
        }
    }
    out
}

/// Print every `FilterStats` counter (`fsjoin.filter.*`, `fsjoin.kernel.*`)
/// and `SweepStats` counter (`fsjoin.sweep.*`) the dump holds, summed over
/// the runs that recorded into it: what the discovery step looked at
/// (`pairs_considered`), what the length window let it skip
/// (`window_skipped`, in postings), where the pairs ended, and what the
/// Sweep kernel's pass decided and its map tasks listed and shipped.
fn print_filter_counters(metrics: &[(String, Metric)]) {
    let filter = fsjoin::FilterStats::default().fields();
    let sweep = fsjoin::SweepStats::default().fields();
    let rows: Vec<(&str, f64)> = filter
        .iter()
        .chain(&sweep)
        .filter_map(|&(name, _)| match metrics.iter().find(|(n, _)| n == name) {
            Some((_, Metric::Counter(c))) => Some((name, *c)),
            _ => None,
        })
        .collect();
    if rows.is_empty() {
        return;
    }
    println!("fragment-join counters (metrics.jsonl, all runs):");
    for (name, value) in rows {
        println!("  {name:<34} {value:>14.0}");
    }
}

/// Print the per-reduce-stage skew section from the `mr.stage.*`
/// namespace (see DESIGN.md §8).
fn print_stage_skew(metrics: &[(String, Metric)]) {
    let mut stages: Vec<String> = metrics
        .iter()
        .filter_map(|(name, _)| {
            let rest = name.strip_prefix("mr.stage.")?;
            Some(rest.split('.').next()?.to_string())
        })
        .collect();
    stages.sort();
    stages.dedup();
    if stages.is_empty() {
        return;
    }

    let find = |name: &str| metrics.iter().find(|(n, _)| n == name).map(|(_, m)| m);
    let gauge = |name: &str| match find(name) {
        Some(Metric::Gauge(g)) => Some(*g),
        _ => None,
    };
    let counter = |name: &str| match find(name) {
        Some(Metric::Counter(c)) => Some(*c),
        _ => None,
    };

    println!("reduce-stage skew (metrics.jsonl):");
    for stage in &stages {
        let h = match find(&format!("mr.stage.{stage}.reduce.bytes")) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        };
        let (p50, p99, max) = h
            .map(|h| (h.quantile(0.5), h.quantile(0.99), h.max()))
            .unwrap_or((0.0, 0.0, 0));
        let fmt_gauge = |suffix: &str| {
            gauge(&format!("mr.stage.{stage}.{suffix}"))
                .map(|g| format!("{g:.2}"))
                .unwrap_or_else(|| "-".to_string())
        };
        println!(
            "  {:<20} bytes p50 {:>10.0} p99 {:>10.0} max {:>10}  | max/mean {}  gini {}  p99/p50 {}  | map max/mean {}  stragglers {}",
            stage,
            p50,
            p99,
            max,
            fmt_gauge("skew.max_over_mean"),
            fmt_gauge("skew.gini"),
            fmt_gauge("skew.p99_over_p50"),
            fmt_gauge("map.skew.max_over_mean"),
            counter(&format!("mr.stage.{stage}.stragglers"))
                .map(|c| format!("{c:.0}"))
                .unwrap_or_else(|| "-".to_string())
        );
    }

    // Co-group stages consume their upstreams' sealed reduce partitions
    // in place; the counter is the shuffle volume an identity-rekey
    // fan-in over the same inputs would have re-transferred.
    let cogroups: Vec<&String> = stages
        .iter()
        .filter(|s| gauge(&fsjoin::keys::mr_stage_cogroup_key(s)) == Some(1.0))
        .collect();
    if !cogroups.is_empty() {
        println!("co-group stages (no fan-in shuffle):");
        for stage in cogroups {
            println!(
                "  {:<20} shuffle bytes saved {:>12}",
                stage,
                counter(&fsjoin::keys::mr_stage_cogroup_bytes_saved_key(stage))
                    .map(|c| format!("{c:.0}"))
                    .unwrap_or_else(|| "-".to_string())
            );
        }
    }
}
