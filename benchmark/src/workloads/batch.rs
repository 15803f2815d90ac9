//! The three batch workloads: one timed iteration is one complete join
//! (time from encoded input to the full result set).

use super::simprobe::{self, Rec};
use super::{harness_rng, text_facts};
use crate::protocol::{Samples, Workload, WORKERS};
use crate::report::{Metrics, Tally, PER_LAYER};
use fsjoin::{FsJoinConfig, FsJoinResult, PivotStrategy};
use ssj_mapreduce::ChainMetrics;
use ssj_observe::span;
use ssj_similarity::ppjoin::ppjoin_self_join;
use ssj_similarity::Measure;
use ssj_text::encode::encode_two;
use ssj_text::{encode, Collection, CorpusProfile, RawCorpus, RecordView};
use std::hint::black_box;
use std::time::Instant;

const THETA: f64 = 0.8;
const MEASURE: Measure = Measure::Jaccard;

/// Which join one iteration runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Join {
    /// `fsjoin::run_self_join`: vertical fragments, segment filters.
    Fragments,
    /// `fsjoin::run_self_join_pf`: prefix discovery, whole-record verify.
    PrefixFilter,
    /// `fsjoin::run_rs_join_two_input`: R×S over the co-group plan.
    RsTwoInput,
}

/// A result pair in comparable form: ids and the score's bit pattern.
type PairBits = (u32, u32, u64);

pub struct Batch {
    join: Join,
    profile: CorpusProfile,
    records: usize,
    seed: u64,
    /// One corpus, or `[R, S]` for the R×S join.
    raw: Vec<RawCorpus>,
    collections: Vec<Collection>,
    /// Result and own wall time of the iteration just run.
    last: Option<(FsJoinResult, f64)>,
    /// The first iteration's pairs; later iterations must repeat them and
    /// the oracle must agree with them.
    reference: Option<Vec<PairBits>>,
    joins_run: u64,
    /// Joins that did not repeat the reference (already counted as failed).
    joins_differing: u64,
    ppjoin_ref_s: f64,
}

impl Batch {
    pub fn new(join: Join, profile: CorpusProfile, records: usize) -> Batch {
        Batch {
            join,
            profile,
            records,
            seed: 0,
            raw: Vec::new(),
            collections: Vec::new(),
            last: None,
            reference: None,
            joins_run: 0,
            joins_differing: 0,
            ppjoin_ref_s: 0.0,
        }
    }

    /// Default `FsJoinConfig` (16 fragments, 4 h-pivots, Prefix kernel, all
    /// filters) at θ = 0.8 with the benchmark's fixed worker count.
    fn config() -> FsJoinConfig {
        FsJoinConfig::default()
            .with_theta(THETA)
            .with_workers(WORKERS)
    }

    /// Record `rid` in the join's id space (S ids follow R's).
    fn rec(&self, rid: u32) -> Rec<'_> {
        let mut rid = rid as usize;
        for c in &self.collections {
            if rid < c.len() {
                return Rec {
                    tokens: c.tokens(rid as u32),
                    bits: c.pool().bitmap_of(rid as u32),
                };
            }
            rid -= c.len();
        }
        panic!("record id beyond the joined collections");
    }

    /// Single-node PPJoin over the same input: the oracle, and the
    /// single-threaded baseline `wall_s` is an overhead over.
    fn oracle(&mut self) -> Vec<PairBits> {
        let views: Vec<RecordView> = self
            .collections
            .iter()
            .flat_map(|c| c.iter())
            .enumerate()
            .map(|(id, v)| RecordView {
                id: id as u32,
                tokens: v.tokens,
            })
            .collect();
        let start = Instant::now();
        let pairs = ppjoin_self_join(&views, MEASURE, THETA);
        self.ppjoin_ref_s = start.elapsed().as_secs_f64();
        // R×S keeps cross-side pairs only.
        let num_r = self.collections[0].len() as u32;
        let cross = self.join == Join::RsTwoInput;
        let mut bits: Vec<PairBits> = pairs
            .iter()
            .filter(|p| !cross || (p.a < num_r && p.b >= num_r))
            .map(|p| (p.a, p.b, p.sim.to_bits()))
            .collect();
        bits.sort_unstable();
        bits
    }
}

fn pair_bits(result: &FsJoinResult) -> Vec<PairBits> {
    let mut bits: Vec<PairBits> = result
        .pairs
        .iter()
        .map(|p| (p.a, p.b, p.sim.to_bits()))
        .collect();
    bits.sort_unstable();
    bits
}

fn secs(tasks: &[ssj_mapreduce::TaskStat]) -> f64 {
    tasks.iter().map(|t| t.duration.as_secs_f64()).sum()
}

/// `mapreduce.*` and `core.stage.*` samples of one join.
fn engine_samples(chain: &ChainMetrics, wall: f64, out: &mut Samples) {
    let jobs = &chain.jobs;
    let map_s: f64 = jobs.iter().map(|j| secs(&j.map_tasks)).sum();
    let reduce_s: f64 = jobs.iter().map(|j| secs(&j.reduce_tasks)).sum();
    let queue_s: f64 = jobs
        .iter()
        .flat_map(|j| j.map_tasks.iter().chain(&j.reduce_tasks))
        .map(|t| t.queue.as_secs_f64())
        .sum();
    let capacity = WORKERS as f64 * wall;
    // Max ÷ mean reduce task time of the stage that reduces longest.
    let skew = jobs
        .iter()
        .max_by(|a, b| secs(&a.reduce_tasks).total_cmp(&secs(&b.reduce_tasks)))
        .map_or(0.0, |j| j.reduce_time_balance().skew);
    let exec = chain.total_exec();
    out.extend([
        ("mapreduce.map_task_s", map_s),
        ("mapreduce.reduce_task_s", reduce_s),
        (
            "mapreduce.shuffle_s",
            jobs.iter().map(|j| j.shuffle_elapsed.as_secs_f64()).sum(),
        ),
        ("mapreduce.queue_wait_s", queue_s),
        ("mapreduce.idle_s", capacity - map_s - reduce_s),
        ("mapreduce.busy_share", (map_s + reduce_s) / capacity),
        ("mapreduce.reduce_skew", skew),
        (
            "mapreduce.shuffle_records",
            chain.total_shuffle_records() as f64,
        ),
        (
            "mapreduce.shuffle_bytes",
            chain.total_shuffle_bytes() as f64,
        ),
        ("mapreduce.task_attempts", exec.attempts as f64),
        ("mapreduce.task_retries", exec.retries as f64),
    ]);
    for job in jobs {
        let name = format!("core.stage.{}_s", job.name);
        let spec = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("plan stage {:?} has no metric", job.name));
        out.push((spec.0, job.elapsed.as_secs_f64()));
    }
}

impl Workload for Batch {
    fn generate(&mut self, seed: u64) {
        self.seed = seed;
        let corpus = self
            .profile
            .config()
            .with_records(self.records)
            .with_seed(seed)
            .generate();
        self.raw = if self.join == Join::RsTwoInput {
            // Split by index: every fifth record to R. Near-duplicates copy
            // an earlier record at random, so about a third of them land
            // across the two sides.
            let (mut r, mut s) = (Vec::new(), Vec::new());
            for (i, doc) in corpus.docs.into_iter().enumerate() {
                if i % 5 == 0 { &mut r } else { &mut s }.push(doc);
            }
            vec![
                RawCorpus {
                    docs: r,
                    vocab: None,
                },
                RawCorpus {
                    docs: s,
                    vocab: None,
                },
            ]
        } else {
            vec![corpus]
        };
    }

    fn setup(&mut self) -> Samples {
        self.collections.clear();
        let _s = span("bench.layer", "text");
        let start = Instant::now();
        self.collections = match self.raw.as_slice() {
            [corpus] => vec![encode(corpus)],
            [r, s] => {
                let (r, s) = encode_two(r, s);
                vec![r, s]
            }
            _ => unreachable!("generate() makes one or two corpora"),
        };
        vec![("text.encode_s", start.elapsed().as_secs_f64())]
    }

    fn iterate(&mut self) {
        self.last = None;
        let cfg = Self::config();
        let _s = span("bench.layer", "core");
        let start = Instant::now();
        let result = match (self.join, self.collections.as_slice()) {
            (Join::Fragments, [c]) => fsjoin::run_self_join(c, &cfg),
            (Join::PrefixFilter, [c]) => fsjoin::run_self_join_pf(c, &cfg),
            (Join::RsTwoInput, [r, s]) => fsjoin::run_rs_join_two_input(r, s, &cfg),
            _ => unreachable!("setup() encodes what generate() made"),
        };
        self.last = Some((result, start.elapsed().as_secs_f64()));
    }

    fn after_iteration(&mut self) -> (Tally, Samples) {
        let (result, wall) = self.last.as_ref().expect("iterate() ran");
        self.joins_run += 1;
        let bits = pair_bits(result);
        let repeated = match &self.reference {
            Some(reference) => *reference == bits,
            None => {
                self.reference = Some(bits);
                true
            }
        };
        if !repeated {
            self.joins_differing += 1;
            eprintln!(
                "FAILED: join {} did not repeat the first join's pairs",
                self.joins_run
            );
        }

        let mut samples = Samples::new();
        engine_samples(&result.chain, *wall, &mut samples);
        let f = &result.filter_stats;
        let pruned = f.strl_pruned + f.segl_pruned + f.segi_pruned + f.segd_pruned;
        samples.extend([
            ("core.pairs", result.pairs.len() as f64),
            ("core.candidates", result.candidates as f64),
            (
                "core.candidates_per_pair",
                result.candidates as f64 / result.pairs.len().max(1) as f64,
            ),
            ("core.pairs_considered", f.pairs_considered as f64),
            (
                "core.filter_pruned_share",
                pruned as f64 / f.pairs_considered.max(1) as f64,
            ),
            ("core.kernel_intersections", f.intersections as f64),
            ("core.kernel_intersect_tokens", f.intersect_tokens as f64),
            ("core.bitmap_checks", f.bitmap_checks as f64),
            ("core.bitmap_pruned", f.bitmap_pruned as f64),
            ("core.peak_live_mb", result.peak_live_bytes as f64 / 1e6),
        ]);
        (
            Tally {
                attempted: 1,
                failed: u64::from(!repeated),
            },
            samples,
        )
    }

    fn check(&mut self) -> Tally {
        let want = self.oracle();
        let got = self.reference.as_ref().expect("an iteration ran");
        if *got == want {
            return Tally::default();
        }
        let missing = want
            .iter()
            .filter(|p| got.binary_search(p).is_err())
            .count();
        let extra = got
            .iter()
            .filter(|p| want.binary_search(p).is_err())
            .count();
        eprintln!(
            "FAILED: join result differs from PPJoin: {} pairs vs {}, {missing} missing, {extra} extra \
             (ids or score bits)",
            got.len(),
            want.len()
        );
        // Every join that repeated the reference is as wrong as it is; the
        // ones that did not are already counted.
        Tally {
            attempted: 0,
            failed: self.joins_run - self.joins_differing,
        }
    }

    fn probes(&mut self, m: &mut Metrics) {
        m.set("similarity.ppjoin_ref_s", self.ppjoin_ref_s);
        let collections: Vec<&Collection> = self.collections.iter().collect();
        text_facts(&collections, m);

        // `core`: pivot selection and the vertical split of every record,
        // called directly (inside a join they run within map tasks).
        let cfg = Self::config();
        let start = Instant::now();
        {
            let _s = span("bench.layer", "core");
            let pivots = fsjoin::pivots::select_pivots(
                &self.collections[0].token_freqs,
                cfg.num_fragments - 1,
                PivotStrategy::EvenTf,
                cfg.seed,
            );
            for c in &self.collections {
                for v in c.iter() {
                    black_box(fsjoin::vertical::split_record(
                        v.id,
                        0,
                        v.tokens,
                        c.span(v.id),
                        &pivots,
                    ));
                }
            }
        }
        m.set("core.split_s", start.elapsed().as_secs_f64());

        // `similarity`: the kernels on the pairs this join compares.
        let _s = span("bench.layer", "similarity");
        let matching: Vec<(Rec, Rec)> = self
            .reference
            .as_ref()
            .expect("an iteration ran")
            .iter()
            .map(|&(a, b, _)| (self.rec(a), self.rec(b)))
            .collect();
        // Partners come from the side `b` is on (S for R×S).
        let partner_side = self.collections.last().expect("setup() ran");
        let partners: Vec<Rec> = partner_side
            .iter()
            .map(|v| Rec {
                tokens: v.tokens,
                bits: partner_side.pool().bitmap_of(v.id),
            })
            .collect();
        let mut rng = harness_rng(self.seed, 7);
        simprobe::probe(&matching, &partners, MEASURE, THETA, &mut rng, m);
    }
}
