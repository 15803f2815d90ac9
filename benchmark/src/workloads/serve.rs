//! The two serving workloads. Both are **closed loops**: `ssj-serve` is an
//! in-process library, so each caller waits for its reply before issuing
//! its next call, and a slower index simply receives calls more slowly.
//! One timed iteration is one complete pass over a fixed, seed-shuffled
//! operation stream.
//!
//! Per-call latencies go into preallocated `Vec<u32>`s of nanoseconds (a
//! span object per 12 µs probe would be the measurement); quantiles are
//! taken per iteration and the protocol reports their median over the
//! iterations.

use super::simprobe::{self, Rec};
use super::{harness_rng, text_facts};
use crate::protocol::{Samples, Workload, WORKERS};
use crate::report::{Metrics, Tally};
use crate::stats::{median, quantile_sorted};
use rand::seq::SliceRandom;
use rand::Rng;
use ssj_mapreduce::PlanRunner;
use ssj_observe::span;
use ssj_serve::{ProbeStats, ServeConfig, ServeIndex, ServeIndexBuild};
use ssj_similarity::intersect::intersect_count_merge;
use ssj_similarity::Measure;
use ssj_text::encode::encode_two;
use ssj_text::{Collection, CorpusProfile, RawCorpus};
use std::hint::black_box;
use std::time::Instant;

const THETA: f64 = 0.8;
const THETA_MIN: f64 = 0.7;
const MEASURE: Measure = Measure::Jaccard;
/// Queries the oracle re-answers by brute force.
const ORACLE_QUERIES: usize = 250;
/// `top_k(·, 10)` calls sampled in the layer probe.
const TOPK_CALLS: usize = 2_000;
/// serve_mixed: probes issued after every insert.
const PROBES_PER_INSERT: usize = 4;
/// serve_mixed: inserts between compactions.
const COMPACT_EVERY: usize = 5_000;

/// A record of the generated corpus: position `< indexed.len()` is an
/// indexed record, the rest are held out (same token-rank space).
type CorpusId = u32;

#[derive(Default)]
pub struct Serve {
    /// serve_mixed (one client; inserts and compactions) or serve_read
    /// (two clients; probes only).
    mixed: bool,
    corpus_records: usize,
    indexed_records: usize,
    /// serve_read: probes per pass.
    queries: usize,
    seed: u64,
    raw_indexed: RawCorpus,
    raw_held: RawCorpus,
    indexed: Collection,
    held: Collection,
    index: Option<ServeIndex>,
    /// The probe stream: serve_read's whole pass, or serve_mixed's
    /// `PROBES_PER_INSERT` probes per held-out record.
    stream: Vec<CorpusId>,
    /// Per-client probe latencies of the iteration just run, ns.
    probe_ns: Vec<Vec<u32>>,
    insert_ns: Vec<u32>,
    compact_ns: Vec<u64>,
    delta_records_max: usize,
    probe_stats: ProbeStats,
    iteration_wall: f64,
    insert_errors: u64,
    /// Hits of the first iteration; the stream is fixed, so every
    /// iteration must find as many.
    reference_hits: Option<u64>,
    /// `(query, hit record)` pairs the oracle confirmed, for the
    /// similarity probe.
    oracle_hits: Vec<(CorpusId, u32)>,
}

impl Serve {
    /// serve_read: `indexed` records in the index, a pass of `queries`
    /// probes — half replaying indexed records, half held-out records
    /// that were never indexed.
    pub fn read(indexed: usize, queries: usize) -> Serve {
        Serve {
            mixed: false,
            corpus_records: indexed + queries / 2,
            indexed_records: indexed,
            queries,
            ..Serve::default()
        }
    }

    /// serve_mixed: the first 80 % of `records` indexed, the rest inserted
    /// one by one during the pass.
    pub fn mixed(records: usize) -> Serve {
        Serve {
            mixed: true,
            corpus_records: records,
            indexed_records: records * 4 / 5,
            ..Serve::default()
        }
    }

    fn config() -> ServeConfig {
        ServeConfig::default()
            .with_theta_min(THETA_MIN)
            .with_workers(WORKERS)
    }

    fn clients(&self) -> usize {
        if self.mixed {
            1
        } else {
            2
        }
    }

    fn tokens(&self, id: CorpusId) -> &[u32] {
        corpus_tokens(&self.indexed, &self.held, id)
    }

    /// `ssj_serve::build_index` with the plan run here, so that the build's
    /// shuffle volume can be read off the plan's metrics: the index and
    /// `(shuffle records, shuffle bytes)`.
    fn build(&self) -> (ServeIndex, usize, usize) {
        let _s = span("bench.layer", "serve");
        let cfg = Self::config();
        let mut build = ServeIndexBuild::new(&self.indexed, cfg.clone());
        let mut outcome = PlanRunner::new(cfg.plan_mode).run(build.take_plan());
        let chain = &outcome.metrics;
        let shuffled = (chain.total_shuffle_records(), chain.total_shuffle_bytes());
        (build.adopt(&mut outcome), shuffled.0, shuffled.1)
    }
}

/// Where a corpus record lives: its collection and its id there.
fn locate<'a>(
    indexed: &'a Collection,
    held: &'a Collection,
    id: CorpusId,
) -> (&'a Collection, u32) {
    let n = indexed.len() as u32;
    if id < n {
        (indexed, id)
    } else {
        (held, id - n)
    }
}

fn corpus_tokens<'a>(indexed: &'a Collection, held: &'a Collection, id: CorpusId) -> &'a [u32] {
    let (collection, rid) = locate(indexed, held, id);
    collection.tokens(rid)
}

fn elapsed_ns(start: Instant) -> u32 {
    start.elapsed().as_nanos().min(u32::MAX as u128) as u32
}

/// One client's closed loop over its share of the probe stream.
fn probe_loop(
    index: &ServeIndex,
    indexed: &Collection,
    held: &Collection,
    queries: impl Iterator<Item = CorpusId>,
    latencies: &mut Vec<u32>,
) -> ProbeStats {
    let _s = span("bench.layer", "serve");
    let mut stats = ProbeStats::default();
    for id in queries {
        let tokens = corpus_tokens(indexed, held, id);
        let start = Instant::now();
        let hits = index.probe_with(tokens, THETA, None, &mut stats);
        latencies.push(elapsed_ns(start));
        black_box(hits);
    }
    stats
}

impl Workload for Serve {
    fn generate(&mut self, seed: u64) {
        self.seed = seed;
        let mut docs = CorpusProfile::WikiLike
            .config()
            .with_records(self.corpus_records)
            .with_seed(seed)
            .generate()
            .docs;
        let held = docs.split_off(self.indexed_records);
        let held_records = held.len();
        self.raw_indexed = RawCorpus { docs, vocab: None };
        self.raw_held = RawCorpus {
            docs: held,
            vocab: None,
        };

        let mut rng = harness_rng(seed, 1);
        let n = self.indexed_records;
        self.stream = if self.mixed {
            // After inserting held-out record j, probe with records visible
            // by then: indexed ones and earlier inserts alike.
            (0..held_records)
                .flat_map(|j| (0..PROBES_PER_INSERT).map(move |_| j))
                .map(|j| rng.gen_range(0..=n + j) as CorpusId)
                .collect()
        } else {
            let mut replayed: Vec<CorpusId> = (0..n as CorpusId).collect();
            replayed.shuffle(&mut rng);
            replayed.truncate(self.queries - held_records);
            let mut stream = replayed;
            stream.extend((n..n + held_records).map(|id| id as CorpusId));
            stream.shuffle(&mut rng);
            stream
        };
        let per_client = self.stream.len().div_ceil(self.clients());
        self.probe_ns = (0..self.clients())
            .map(|_| Vec::with_capacity(per_client))
            .collect();
        self.insert_ns = Vec::with_capacity(held_records);
    }

    fn setup(&mut self) -> Samples {
        self.index = None;
        self.indexed = Collection::default();
        self.held = Collection::default();
        let start = Instant::now();
        {
            let _s = span("bench.layer", "text");
            (self.indexed, self.held) = encode_two(&self.raw_indexed, &self.raw_held);
        }
        let encode_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let (index, shuffle_records, shuffle_bytes) = self.build();
        self.index = Some(index);
        vec![
            ("text.encode_s", encode_s),
            ("serve.build_s", start.elapsed().as_secs_f64()),
            ("mapreduce.shuffle_records", shuffle_records as f64),
            ("mapreduce.shuffle_bytes", shuffle_bytes as f64),
        ]
    }

    fn before_iteration(&mut self) {
        if self.mixed {
            // The previous pass inserted the held-out records: start over
            // from the first 80 %.
            self.index = None;
            self.index = Some(self.build().0);
        }
        for v in &mut self.probe_ns {
            v.clear();
        }
        self.insert_ns.clear();
        self.compact_ns.clear();
        self.delta_records_max = 0;
    }

    fn iterate(&mut self) {
        let start = Instant::now();
        if self.mixed {
            let index = self.index.as_mut().expect("setup() ran");
            let mut stats = ProbeStats::default();
            let _s = span("bench.layer", "serve");
            for j in 0..self.held.len() {
                let t0 = Instant::now();
                let inserted = index.insert(self.held.tokens(j as u32));
                self.insert_ns.push(elapsed_ns(t0));
                self.insert_errors += u64::from(inserted.is_err());
                for &id in &self.stream[j * PROBES_PER_INSERT..(j + 1) * PROBES_PER_INSERT] {
                    let tokens = corpus_tokens(&self.indexed, &self.held, id);
                    let t0 = Instant::now();
                    let hits = index.probe_with(tokens, THETA, None, &mut stats);
                    self.probe_ns[0].push(elapsed_ns(t0));
                    black_box(hits);
                }
                if (j + 1) % COMPACT_EVERY == 0 || j + 1 == self.held.len() {
                    self.delta_records_max = self.delta_records_max.max(index.delta_len());
                    let t0 = Instant::now();
                    index.compact();
                    self.compact_ns.push(t0.elapsed().as_nanos() as u64);
                }
            }
            self.probe_stats = stats;
        } else {
            let index = self.index.as_ref().expect("setup() ran");
            let (indexed, held, stream) = (&self.indexed, &self.held, &self.stream);
            let clients = self.probe_ns.len();
            let mut total = ProbeStats::default();
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .probe_ns
                    .iter_mut()
                    .enumerate()
                    .map(|(client, latencies)| {
                        let share = stream.iter().copied().skip(client).step_by(clients);
                        scope.spawn(move || probe_loop(index, indexed, held, share, latencies))
                    })
                    .collect();
                for h in handles {
                    total.add(&h.join().expect("probe client panicked"));
                }
            });
            self.probe_stats = total;
        }
        self.iteration_wall = start.elapsed().as_secs_f64();
    }

    fn after_iteration(&mut self) -> (Tally, Samples) {
        let mut probes: Vec<u32> = self.probe_ns.iter().flatten().copied().collect();
        probes.sort_unstable();
        let n = probes.len() as f64;
        let s = &self.probe_stats;
        let us = |ns: u32| f64::from(ns) / 1e3;
        let mut samples: Samples = vec![
            ("serve.probe_p50_us", us(quantile_sorted(&probes, 0.5))),
            ("serve.probe_p99_us", us(quantile_sorted(&probes, 0.99))),
            ("serve.probe_p999_us", us(quantile_sorted(&probes, 0.999))),
            ("serve.probe_qps", n / self.iteration_wall),
            ("serve.candidates_per_probe", s.candidates as f64 / n),
            ("serve.length_pruned", s.length_pruned as f64 / n),
            ("serve.prefix_pruned", s.prefix_pruned as f64 / n),
            ("serve.position_pruned", s.position_pruned as f64 / n),
            ("serve.bitmap_checks", s.bitmap_checks as f64 / n),
            ("serve.bitmap_pruned", s.bitmap_pruned as f64 / n),
            ("serve.verified", s.verified as f64 / n),
            ("serve.hits", s.hits as f64 / n),
            ("serve.hit_share", s.hits as f64 / s.verified.max(1) as f64),
            (
                "serve.main_postings",
                self.index.as_ref().expect("setup() ran").main_postings() as f64,
            ),
        ];
        let mut operations = probes.len() as u64;
        if self.mixed {
            let mut inserts = self.insert_ns.clone();
            inserts.sort_unstable();
            let insert_s = inserts.iter().map(|&ns| f64::from(ns)).sum::<f64>() / 1e9;
            let compact_s = self.compact_ns.iter().sum::<u64>() as f64 / 1e9;
            let compact_max = self.compact_ns.iter().copied().max().unwrap_or(0);
            samples.extend([
                ("serve.write_s", insert_s + compact_s),
                ("serve.insert_p50_us", us(quantile_sorted(&inserts, 0.5))),
                ("serve.insert_s", insert_s),
                ("serve.compact_s", compact_s),
                ("serve.compact_max_ms", compact_max as f64 / 1e6),
                ("serve.delta_records_max", self.delta_records_max as f64),
            ]);
            operations += (inserts.len() + self.compact_ns.len()) as u64;
        }

        // The stream is fixed, so are its hits; a refused insert is a
        // failed operation too.
        let repeated = *self.reference_hits.get_or_insert(s.hits) == s.hits;
        if !repeated {
            eprintln!(
                "FAILED: pass found {} hits, the first pass {:?}",
                s.hits, self.reference_hits
            );
        }
        let failed = std::mem::take(&mut self.insert_errors) + u64::from(!repeated);
        (
            Tally {
                attempted: operations,
                failed,
            },
            samples,
        )
    }

    /// Brute force: `ORACLE_QUERIES` seed-chosen queries of the stream
    /// against a naive scan of every record the index holds (for
    /// serve_mixed, after the pass's final compaction).
    fn check(&mut self) -> Tally {
        let index = self.index.as_ref().expect("setup() ran");
        let mut rng = harness_rng(self.seed, 2);
        let queries: Vec<CorpusId> = (0..ORACLE_QUERIES)
            .map(|_| self.stream[rng.gen_range(0..self.stream.len())])
            .collect();
        // Naive scan, with `naive_rs_join`'s one shortcut: skip a pair whose
        // shorter side is below the longer side's minimum partner length
        // (looked up per length instead of recomputed per pair).
        let records: Vec<&[u32]> = (0..index.len() as u32)
            .map(|rid| index.tokens_of(rid))
            .collect();
        let longest = records
            .iter()
            .copied()
            .chain(queries.iter().map(|&id| self.tokens(id)))
            .map(<[u32]>::len)
            .max()
            .unwrap_or(0);
        let min_partner: Vec<usize> = (0..=longest)
            .map(|len| MEASURE.min_partner_len(THETA, len))
            .collect();
        let brute_force = |query: &[u32]| -> Vec<(u32, u64)> {
            let mut hits = Vec::new();
            for (rid, rec) in records.iter().enumerate() {
                let (short, long) = if query.len() <= rec.len() {
                    (query.len(), rec.len())
                } else {
                    (rec.len(), query.len())
                };
                if short == 0 || short < min_partner[long] {
                    continue;
                }
                let overlap = intersect_count_merge(query, rec);
                if MEASURE.passes(overlap, query.len(), rec.len(), THETA) {
                    let score = MEASURE.score(overlap, query.len(), rec.len());
                    hits.push((rid as u32, score.to_bits()));
                }
            }
            hits
        };

        let mut failed = 0;
        let mut stats = ProbeStats::default();
        self.oracle_hits.clear();
        for &id in &queries {
            let got: Vec<(u32, u64)> = index
                .probe_with(self.tokens(id), THETA, None, &mut stats)
                .into_iter()
                .map(|(rec, sim)| (rec, sim.to_bits()))
                .collect();
            let want = brute_force(self.tokens(id));
            if got != want {
                failed += 1;
                eprintln!(
                    "FAILED: probe of corpus record {id} returned {} hits, brute force {}",
                    got.len(),
                    want.len()
                );
            }
            // Self-matches say nothing about the kernels.
            self.oracle_hits.extend(
                want.iter()
                    .filter(|&&(rec, _)| rec != id)
                    .map(|&(rec, _)| (id, rec)),
            );
        }
        Tally {
            attempted: queries.len() as u64,
            failed,
        }
    }

    fn probes(&mut self, m: &mut Metrics) {
        text_facts(&[&self.indexed, &self.held], m);
        let index = self.index.as_ref().expect("setup() ran");

        let mut rng = harness_rng(self.seed, 3);
        let mut topk_ns: Vec<f64> = Vec::with_capacity(TOPK_CALLS);
        {
            let _s = span("bench.layer", "serve");
            for _ in 0..TOPK_CALLS {
                let tokens = self.tokens(self.stream[rng.gen_range(0..self.stream.len())]);
                let start = Instant::now();
                black_box(index.top_k(tokens, 10));
                topk_ns.push(start.elapsed().as_nanos() as f64);
            }
        }
        m.set("serve.topk_p50_us", median(&topk_ns) / 1e3);

        // `similarity` on the (query, hit) pairs the oracle confirmed. A
        // hit may be a record inserted during the pass; its bitmap lives in
        // the held-out pool under the same width and hash.
        let _s = span("bench.layer", "similarity");
        let rec = |id: CorpusId| {
            let (c, rid) = locate(&self.indexed, &self.held, id);
            Rec {
                tokens: c.tokens(rid),
                bits: c.pool().bitmap_of(rid),
            }
        };
        let matching: Vec<(Rec, Rec)> = self
            .oracle_hits
            .iter()
            .map(|&(query, hit)| (rec(query), rec(hit)))
            .collect();
        let partners: Vec<Rec> = (0..self.indexed.len() as u32).map(rec).collect();
        simprobe::probe(&matching, &partners, MEASURE, THETA, &mut rng, m);
    }
}
