//! Phase-8 probe of the `similarity` layer: the two verification kernels
//! every join and every probe bottoms out in, timed directly on the pairs
//! this workload actually compares — all true result pairs plus as many
//! length-compatible non-matching pairs, chosen by the seed.

use crate::report::Metrics;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use ssj_similarity::bitmap::overlap_upper_bound;
use ssj_similarity::intersect::intersect_count_at_least;
use ssj_similarity::Measure;
use std::hint::black_box;
use std::time::Instant;

/// A record as the kernels see it: its tokens and its hashed bitmap.
#[derive(Clone, Copy)]
pub struct Rec<'a> {
    pub tokens: &'a [u32],
    pub bits: &'a [u64],
}

/// Pair evaluations per timed kernel: enough that the loop runs for tens
/// of milliseconds whatever the number of result pairs.
const EVALUATIONS: usize = 2_000_000;

/// Time both kernels over `matching` plus an equal number of non-matching
/// pairs whose partner is drawn from `partners` within the length window.
pub fn probe(
    matching: &[(Rec, Rec)],
    partners: &[Rec],
    measure: Measure,
    theta: f64,
    rng: &mut StdRng,
    m: &mut Metrics,
) {
    if matching.is_empty() || partners.is_empty() {
        return;
    }
    let mut by_len: Vec<Rec> = partners.to_vec();
    by_len.sort_by_key(|r| r.tokens.len());
    let lens: Vec<usize> = by_len.iter().map(|r| r.tokens.len()).collect();

    let mut non_matching: Vec<(Rec, Rec)> = Vec::with_capacity(matching.len());
    for &(x, _) in matching {
        let n = x.tokens.len();
        let lo = lens.partition_point(|&l| l < measure.min_partner_len(theta, n));
        let hi = lens.partition_point(|&l| l <= measure.max_partner_len(theta, n));
        // A few draws: a window may hold little but x's own near-duplicates.
        for _ in 0..8 {
            if hi <= lo {
                break;
            }
            let y = by_len[rng.gen_range(lo..hi)];
            let alpha = measure.min_overlap(theta, n, y.tokens.len());
            if intersect_count_at_least(x.tokens, y.tokens, alpha).is_none() {
                non_matching.push((x, y));
                break;
            }
        }
    }

    let mut pairs: Vec<(Rec, Rec, usize)> = matching
        .iter()
        .chain(&non_matching)
        .map(|&(x, y)| {
            let alpha = measure.min_overlap(theta, x.tokens.len(), y.tokens.len());
            (x, y, alpha)
        })
        .collect();
    pairs.shuffle(rng);
    let reps = (EVALUATIONS / pairs.len()).max(1);
    let evaluations = (reps * pairs.len()) as f64;

    let start = Instant::now();
    let mut reached = 0usize;
    for _ in 0..reps {
        for &(x, y, alpha) in &pairs {
            reached += usize::from(
                intersect_count_at_least(black_box(x.tokens), black_box(y.tokens), alpha).is_some(),
            );
        }
    }
    black_box(reached);
    m.set(
        "similarity.verify_ns_per_pair",
        start.elapsed().as_nanos() as f64 / evaluations,
    );

    let start = Instant::now();
    let mut bound = 0usize;
    for _ in 0..reps {
        for &(x, y, _) in &pairs {
            bound += overlap_upper_bound(
                black_box(x.bits),
                black_box(y.bits),
                x.tokens.len(),
                y.tokens.len(),
            );
        }
    }
    black_box(bound);
    m.set(
        "similarity.bitmap_ns_per_pair",
        start.elapsed().as_nanos() as f64 / evaluations,
    );

    let pruned = non_matching
        .iter()
        .filter(|(x, y)| {
            let alpha = measure.min_overlap(theta, x.tokens.len(), y.tokens.len());
            overlap_upper_bound(x.bits, y.bits, x.tokens.len(), y.tokens.len()) < alpha
        })
        .count();
    if !non_matching.is_empty() {
        m.set(
            "similarity.bitmap_prune_share",
            pruned as f64 / non_matching.len() as f64,
        );
    }
}
