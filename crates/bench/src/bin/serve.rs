//! `ssj-serve` — the serving plane's closed-loop latency harness.
//!
//! ```text
//! ssj-serve                        # → results/serve.md
//! ssj-serve --out PATH
//! ```
//!
//! Builds a [`ssj_serve::ServeIndex`] over the WikiLike corpus
//! (Scale::Small), replays every record as a probe query from closed-loop
//! workers at several concurrencies (p50/p90/p99 latency + sustained
//! QPS), proves the answers equivalent to a batch FS-Join golden, then
//! exercises the freshness path — inserts, probes against a delta-heavy
//! index, compaction — re-proving equivalence after each step, and writes
//! the whole story to `results/serve.md`. Exit code is nonzero if any
//! equivalence check fails.

use std::process::ExitCode;
use std::time::Instant;

use ssj_bench::serve_load::{
    closed_loop, prefix_collection, probe_all_pairs, replay_queries, ServeLoadReport,
};
use ssj_bench::{corpus, Scale};
use ssj_serve::{build_index, ServeConfig};
use ssj_text::{CorpusProfile, RecordId};

const THETA: f64 = 0.8;
const THETA_MIN: f64 = 0.7;
/// Index-build worker count.
const WORKERS: usize = 4;

fn serve_cfg() -> ServeConfig {
    ServeConfig::default()
        .with_theta_min(THETA_MIN)
        .with_workers(WORKERS)
}

fn main() -> ExitCode {
    let mut out_path = String::from("results/serve.md");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => return usage("--out requires a path"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unexpected argument {other:?}")),
        }
    }
    run_report(&out_path)
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: ssj-serve [--out PATH]");
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

struct LatencyRow {
    concurrency: usize,
    report: ServeLoadReport,
}

fn latency_table(rows: &[LatencyRow]) -> String {
    let mut s = String::from(
        "| Concurrency | QPS | p50 (µs) | p90 (µs) | p99 (µs) | mean (µs) |\n\
         |-------------|-----|----------|----------|----------|-----------|\n",
    );
    for row in rows {
        let r = &row.report;
        s.push_str(&format!(
            "| {} | {:.0} | {:.0} | {:.0} | {:.0} | {:.0} |\n",
            row.concurrency,
            r.qps,
            r.latency_quantile_us(0.5),
            r.latency_quantile_us(0.9),
            r.latency_quantile_us(0.99),
            r.latency_us.mean(),
        ));
    }
    s
}

fn run_report(out_path: &str) -> ExitCode {
    let full = corpus(CorpusProfile::WikiLike, Scale::Small);
    let n = full.len();
    println!("corpus: {} records (WikiLike, small scale)", n);

    // ---- Build (the batch plane doing what it is for) ---------------------
    let t0 = Instant::now();
    let index = build_index(&full, &serve_cfg());
    let build_secs = t0.elapsed().as_secs_f64();
    println!(
        "build: {:.3}s, {} postings, {} partitions",
        build_secs,
        index.main_postings(),
        index.config().build_partitions
    );

    // ---- Equivalence golden ----------------------------------------------
    let golden =
        fsjoin::run_self_join(&full, &fsjoin::FsJoinConfig::default().with_theta(THETA)).pairs;
    let (served, _) = probe_all_pairs(&index, THETA);
    let fresh_ok = served == golden;
    println!(
        "equivalence (fresh build): {} [{} pairs]",
        if fresh_ok { "PASS" } else { "FAIL" },
        golden.len()
    );

    // ---- Closed-loop latency sweep ---------------------------------------
    let queries = replay_queries(&index, 1);
    let mut rows = Vec::new();
    for concurrency in [1usize, 2, 4, 8] {
        let report = closed_loop(&index, &queries, THETA, concurrency);
        println!(
            "closed loop c={}: {:.0} qps, p50={:.0}µs p99={:.0}µs",
            concurrency,
            report.qps,
            report.latency_quantile_us(0.5),
            report.latency_quantile_us(0.99)
        );
        rows.push(LatencyRow {
            concurrency,
            report,
        });
    }

    // ---- Freshness path: inserts, delta-heavy probes, compaction ---------
    let base = n * 9 / 10;
    let mut live = build_index(&prefix_collection(&full, base), &serve_cfg());
    let t1 = Instant::now();
    for rid in base..n {
        live.insert(full.tokens(rid as RecordId))
            .expect("corpus records are well-formed");
    }
    let insert_secs = t1.elapsed().as_secs_f64();
    let inserted = n - base;
    let (served_delta, _) = probe_all_pairs(&live, THETA);
    let delta_ok = served_delta == golden;
    let delta_report = closed_loop(&live, &queries, THETA, 4);
    println!(
        "inserts: {} records in {:.3}s ({:.0}/s); equivalence (delta-heavy): {}",
        inserted,
        insert_secs,
        inserted as f64 / insert_secs.max(1e-9),
        if delta_ok { "PASS" } else { "FAIL" }
    );

    let t2 = Instant::now();
    live.compact();
    let compact_secs = t2.elapsed().as_secs_f64();
    let (served_compacted, _) = probe_all_pairs(&live, THETA);
    let compact_ok = served_compacted == golden;
    let compact_report = closed_loop(&live, &queries, THETA, 4);
    println!(
        "compaction: {:.3}s; equivalence (post-compaction): {}",
        compact_secs,
        if compact_ok { "PASS" } else { "FAIL" }
    );

    // ---- Write the report -------------------------------------------------
    let stats = &rows[0].report.stats;
    let md = format!(
        "# Serving plane — closed-loop latency and sustained QPS\n\n\
         WikiLike (small scale, {n} records), θ = {THETA}, Jaccard, index \
         built for θ_min = {THETA_MIN}; every non-empty record replayed as \
         a probe query against a [`ServeIndex`] (no MapReduce on the query \
         path). Latency quantiles come from a log-scale histogram \
         (microseconds), so p50/p99 are bucket-interpolated.\n\n\
         Index build (a one-stage plan; sealed partitions adopted \
         zero-copy): {build_secs:.3}s for {postings} postings.\n\n\
         ## Sealed index\n\n{sealed}\n\
         Per-query filter cascade at c=1 ({queries} queries): \
         {candidates} candidates, {length} length-pruned postings, \
         {prefix} prefix-pruned records, {position} position-pruned, \
         {bitmap_checks} bitmap-checked, {bitmap_pruned} bitmap-pruned \
         (lossless XOR-Hamming bound, DESIGN.md §12), \
         {verified} verified, {hits} hits.\n\n\
         ## Freshness path\n\n\
         Inserting the last {inserted} records ({ins_rate:.0} inserts/s), \
         probing the delta-heavy index, then compacting \
         ({compact_secs:.3}s) — answers stay equal to the batch FS-Join \
         golden at every step:\n\n\
         | Phase | Equivalence vs batch join | QPS (c=4) | p99 (µs) |\n\
         |-------|---------------------------|-----------|----------|\n\
         | fresh build | {fresh} | {fresh_qps:.0} | {fresh_p99:.0} |\n\
         | after {inserted} inserts (delta-heavy) | {delta} | {delta_qps:.0} | {delta_p99:.0} |\n\
         | after compaction | {compact} | {compact_qps:.0} | {compact_p99:.0} |\n",
        n = n,
        postings = index.main_postings(),
        sealed = latency_table(&rows),
        queries = rows[0].report.queries,
        candidates = stats.candidates,
        length = stats.length_pruned,
        prefix = stats.prefix_pruned,
        position = stats.position_pruned,
        bitmap_checks = stats.bitmap_checks,
        bitmap_pruned = stats.bitmap_pruned,
        verified = stats.verified,
        hits = stats.hits,
        inserted = inserted,
        ins_rate = inserted as f64 / insert_secs.max(1e-9),
        fresh = if fresh_ok { "PASS" } else { "FAIL" },
        delta = if delta_ok { "PASS" } else { "FAIL" },
        compact = if compact_ok { "PASS" } else { "FAIL" },
        fresh_qps = rows[2].report.qps,
        fresh_p99 = rows[2].report.latency_quantile_us(0.99),
        delta_qps = delta_report.qps,
        delta_p99 = delta_report.latency_quantile_us(0.99),
        compact_qps = compact_report.qps,
        compact_p99 = compact_report.latency_quantile_us(0.99),
    );
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    if let Err(e) = std::fs::write(out_path, md) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::from(2);
    }
    println!("wrote {out_path}");

    if fresh_ok && delta_ok && compact_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("serving answers diverged from the batch golden");
        ExitCode::FAILURE
    }
}
