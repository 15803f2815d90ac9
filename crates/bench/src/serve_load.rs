//! Closed-loop latency harness for the serving plane.
//!
//! A closed loop fixes the *concurrency*, not the arrival rate: `C`
//! worker threads each issue their next query the moment the previous one
//! returns, so the measured throughput is the index's sustained QPS at
//! that concurrency and the latency distribution is not inflated by
//! coordinated omission (there is no schedule to fall behind).
//!
//! Workers keep thread-local [`ProbeStats`] and a thread-local
//! [`LogHistogram`] of per-query latencies (microseconds); both are merged
//! after the run, so the hot loop touches no shared state except the
//! index's immutable structure. Queries are assigned round-robin
//! (`i % C`), making the *work partition* — though not the interleaving —
//! deterministic for a given `(queries, C)`.

use std::time::Instant;

use ssj_observe::LogHistogram;
use ssj_serve::{ProbeStats, ServeIndex};
use ssj_similarity::SimilarPair;
use ssj_text::{Collection, Record, RecordId, TokenId};

/// Outcome of one closed-loop run.
#[derive(Debug, Clone)]
pub struct ServeLoadReport {
    /// Worker threads.
    pub concurrency: usize,
    /// Queries answered.
    pub queries: u64,
    /// Similar records returned across all queries.
    pub results: u64,
    /// Wall time of the whole loop, seconds.
    pub wall_secs: f64,
    /// Sustained throughput: `queries / wall_secs`.
    pub qps: f64,
    /// Merged per-query latency distribution, microseconds.
    pub latency_us: LogHistogram,
    /// Merged probe counters.
    pub stats: ProbeStats,
}

impl ServeLoadReport {
    /// Latency quantile in microseconds (`q ∈ [0, 1]`).
    pub fn latency_quantile_us(&self, q: f64) -> f64 {
        self.latency_us.quantile(q)
    }
}

/// Replay `queries` against `index` at threshold `theta` from
/// `concurrency` closed-loop workers. Probe counters and the query count
/// are flushed into the index registry (`serve.probe.*`); latency
/// quantiles come back in the report.
pub fn closed_loop(
    index: &ServeIndex,
    queries: &[Vec<TokenId>],
    theta: f64,
    concurrency: usize,
) -> ServeLoadReport {
    let concurrency = concurrency.max(1);
    let start = Instant::now();
    let locals: Vec<(ProbeStats, LogHistogram, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|worker| {
                scope.spawn(move || {
                    let mut stats = ProbeStats::default();
                    let mut latency = LogHistogram::default();
                    let mut results = 0u64;
                    for query in queries.iter().skip(worker).step_by(concurrency) {
                        let t0 = Instant::now();
                        let hits = index.probe_with(query, theta, None, &mut stats);
                        latency.record(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
                        results += hits.len() as u64;
                    }
                    (stats, latency, results)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop worker panicked"))
            .collect()
    });
    let wall_secs = start.elapsed().as_secs_f64();

    let mut stats = ProbeStats::default();
    let mut latency_us = LogHistogram::default();
    let mut results = 0u64;
    for (s, l, r) in &locals {
        stats.add(s);
        latency_us.merge(l);
        results += r;
    }
    stats.record_to(index.registry());
    index
        .registry()
        .counter_add(fsjoin::keys::SERVE_PROBE_QUERIES, queries.len() as u64);

    ServeLoadReport {
        concurrency,
        queries: queries.len() as u64,
        results,
        wall_secs,
        qps: if wall_secs > 0.0 {
            queries.len() as f64 / wall_secs
        } else {
            0.0
        },
        latency_us,
        stats,
    }
}

/// Sample every `stride`-th non-empty record of the index as a probe
/// query — the standard replay workload (each query has at least one true
/// answer: itself).
pub fn replay_queries(index: &ServeIndex, stride: usize) -> Vec<Vec<TokenId>> {
    (0..index.len())
        .step_by(stride.max(1))
        .map(|rid| index.tokens_of(rid as u32).to_vec())
        .filter(|q| !q.is_empty())
        .collect()
}

/// The first `n` records of `full`, keeping `full`'s rank space — the
/// base an index is built on before the tail arrives as inserts.
pub fn prefix_collection(full: &Collection, n: usize) -> Collection {
    let records = (0..n)
        .map(|rid| Record::from_sorted(rid as RecordId, full.tokens(rid as RecordId).to_vec()))
        .collect();
    Collection::new(records, full.token_freqs.clone(), None)
}

/// Probe every record (self excluded) at `theta` and return the pairs the
/// answers imply, each once in canonical order, with the summed probe
/// counters — the serving-side analogue of a batch self-join result.
pub fn probe_all_pairs(index: &ServeIndex, theta: f64) -> (Vec<SimilarPair>, ProbeStats) {
    let mut stats = ProbeStats::default();
    let mut pairs = Vec::new();
    for rec in 0..index.len() as u32 {
        for (other, sim) in index.probe_with(index.tokens_of(rec), theta, Some(rec), &mut stats) {
            pairs.push((rec.min(other), rec.max(other), sim.to_bits()));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let pairs = pairs
        .into_iter()
        .map(|(a, b, sim)| SimilarPair::new(a, b, f64::from_bits(sim)))
        .collect();
    (pairs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::bench_corpus;
    use ssj_serve::{build_index, ServeConfig};

    #[test]
    fn closed_loop_answers_every_query_at_any_concurrency() {
        let collection = bench_corpus();
        let index = build_index(&collection, &ServeConfig::default().with_theta_min(0.7));
        let queries = replay_queries(&index, 3);
        let single = closed_loop(&index, &queries, 0.8, 1);
        let multi = closed_loop(&index, &queries, 0.8, 4);
        assert_eq!(single.queries, queries.len() as u64);
        assert_eq!(multi.queries, single.queries);
        // Logical work is concurrency-invariant.
        assert_eq!(multi.stats, single.stats);
        assert_eq!(multi.results, single.results);
        assert_eq!(multi.latency_us.count(), single.latency_us.count());
        // Every replayed record matches itself.
        assert!(single.results >= single.queries);
        assert_eq!(
            index
                .registry()
                .counter_get(fsjoin::keys::SERVE_PROBE_QUERIES),
            2 * queries.len() as u64
        );
    }
}
