//! Micro-benchmarks of the hot kernels: intersection, vertical
//! partitioning, measure bounds, and the in-memory joins.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ssj_similarity::bitmap::overlap_upper_bound;
use ssj_similarity::intersect::{
    intersect_count_adaptive, intersect_count_at_least, intersect_count_chunked,
    intersect_count_gallop, intersect_count_hash, intersect_count_merge,
};
use ssj_similarity::{Measure, Verifier};
use ssj_text::{CorpusProfile, GeneratorConfig, TokenPool};
use std::hint::black_box;

fn sorted_set(seed: u64, len: usize, universe: u32) -> Vec<u32> {
    let mut state = seed;
    let mut v: Vec<u32> = (0..len * 2)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as u32) % universe
        })
        .collect();
    v.sort_unstable();
    v.dedup();
    v.truncate(len);
    v
}

fn bench_intersection(c: &mut Criterion) {
    let mut g = c.benchmark_group("intersect");
    g.sample_size(30);
    let a = sorted_set(1, 100, 10_000);
    let b = sorted_set(2, 100, 10_000);
    g.bench_function("merge_100x100", |bench| {
        bench.iter(|| intersect_count_merge(black_box(&a), black_box(&b)))
    });
    g.bench_function("gallop_100x100", |bench| {
        bench.iter(|| intersect_count_gallop(black_box(&a), black_box(&b)))
    });
    g.bench_function("hash_100x100", |bench| {
        bench.iter(|| intersect_count_hash(black_box(&a), black_box(&b)))
    });
    let small = sorted_set(3, 8, 100_000);
    let large = sorted_set(4, 4_000, 100_000);
    g.bench_function("merge_8x4000", |bench| {
        bench.iter(|| intersect_count_merge(black_box(&small), black_box(&large)))
    });
    g.bench_function("gallop_8x4000", |bench| {
        bench.iter(|| intersect_count_gallop(black_box(&small), black_box(&large)))
    });
    g.bench_function("adaptive_8x4000", |bench| {
        bench.iter(|| intersect_count_adaptive(black_box(&small), black_box(&large)))
    });
    g.bench_function("chunked_100x100", |bench| {
        bench.iter(|| intersect_count_chunked(black_box(&a), black_box(&b)))
    });
    let la = sorted_set(5, 4_000, 200_000);
    let lb = sorted_set(6, 4_000, 200_000);
    g.bench_function("merge_4000x4000", |bench| {
        bench.iter(|| intersect_count_merge(black_box(&la), black_box(&lb)))
    });
    g.bench_function("chunked_4000x4000", |bench| {
        bench.iter(|| intersect_count_chunked(black_box(&la), black_box(&lb)))
    });
    g.bench_function("adaptive_4000x4000", |bench| {
        bench.iter(|| intersect_count_adaptive(black_box(&la), black_box(&lb)))
    });
    g.finish();
}

/// Bitmap bound vs exact early-exit verification, across bitmap widths and
/// thresholds. Each width gets its own pool (the bitmap plane is built at
/// pool construction); θ sets the `min_overlap` target that both the bound
/// check and `intersect_count_at_least` race toward.
fn bench_bitmap_bound(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitmap_bound");
    g.sample_size(30);
    let a = sorted_set(11, 120, 30_000);
    let b = sorted_set(12, 120, 30_000);
    for bits in [128usize, 256, 512] {
        let mut pool = TokenPool::with_bitmap_bits(bits).unwrap();
        pool.push(&a);
        pool.push(&b);
        let (wa, wb) = (pool.bitmap_of(0).to_vec(), pool.bitmap_of(1).to_vec());
        g.bench_function(format!("upper_bound_{bits}b_120x120"), |bench| {
            bench.iter(|| overlap_upper_bound(black_box(&wa), black_box(&wb), a.len(), b.len()))
        });
    }
    for theta in [0.75, 0.85, 0.95] {
        let alpha = Measure::Jaccard.min_overlap(theta, a.len(), b.len());
        g.bench_function(format!("at_least_exact_120x120/{theta}"), |bench| {
            bench.iter(|| intersect_count_at_least(black_box(&a), black_box(&b), alpha))
        });
    }
    g.finish();
}

/// The whole-record verify cascade against what it replaced at the batch
/// sites (full adaptive merge, then `passes`): 64 dissimilar pairs of
/// ~500-token Zipf records with no planted duplicates, lengths within
/// every θ's length window — the candidates a prefix filter lets through
/// and verification must reject. θ sets how early the cascade can stop.
fn bench_verify_threshold(c: &mut Criterion) {
    let mut g = c.benchmark_group("verify_threshold");
    g.sample_size(30);
    let collection = ssj_text::encode(
        &GeneratorConfig {
            num_records: 128,
            mean_len: 500.0,
            sigma_len: 0.02,
            near_dup_fraction: 0.0,
            ..CorpusProfile::EmailLike.config()
        }
        .generate(),
    );
    let pool = collection.pool();
    let pairs: Vec<(u32, u32)> = (0..collection.len() as u32 / 2)
        .map(|i| (2 * i, 2 * i + 1))
        .collect();
    for theta in [0.75, 0.8, 0.9] {
        let m = Measure::Jaccard;
        g.bench_function(format!("full_adaptive_64x500/{theta}"), |bench| {
            bench.iter(|| {
                let mut hits = 0usize;
                for &(a, b) in black_box(&pairs) {
                    let (s, t) = (pool.tokens_of(a), pool.tokens_of(b));
                    let c = intersect_count_adaptive(s, t);
                    hits += usize::from(m.passes(c, s.len(), t.len(), theta));
                }
                hits
            })
        });
        let verifier = Verifier { measure: m, theta };
        g.bench_function(format!("verifier_64x500/{theta}"), |bench| {
            bench.iter(|| {
                let mut hits = 0usize;
                for &(a, b) in black_box(&pairs) {
                    let bits = Some((pool.bitmap_of(a), pool.bitmap_of(b)));
                    let v = verifier.verify(pool.tokens_of(a), pool.tokens_of(b), bits);
                    hits += usize::from(v.similar.is_some());
                }
                hits
            })
        });
    }
    g.finish();
}

fn bench_vertical_partition(c: &mut Criterion) {
    let mut g = c.benchmark_group("vertical");
    g.sample_size(30);
    let tokens = sorted_set(7, 500, 50_000);
    let pivots: Vec<u32> = (1..16u32).map(|k| k * 3_000).collect();
    let mut pool = ssj_text::TokenPool::new();
    let span = pool.push(&tokens);
    g.bench_function("split_record_500tok_16frag", |bench| {
        bench.iter(|| {
            fsjoin::vertical::split_record(
                0,
                0,
                black_box(&tokens),
                black_box(span),
                black_box(&pivots),
            )
        })
    });
    g.finish();
}

fn bench_prefix_lengths(c: &mut Criterion) {
    let mut g = c.benchmark_group("measure");
    g.sample_size(30);
    g.bench_function("bounds_sweep", |bench| {
        bench.iter(|| {
            let mut acc = 0usize;
            for len in 1usize..200 {
                for m in Measure::all() {
                    acc += m.probe_prefix_len(black_box(0.8), len);
                    acc += m.min_overlap(black_box(0.8), len, len + 5);
                }
            }
            acc
        })
    });
    g.finish();
}

fn bench_inmemory_joins(c: &mut Criterion) {
    let mut g = c.benchmark_group("inmemory_join");
    g.sample_size(10);
    let collection = ssj_bench::bench_corpus();
    g.bench_function("ppjoin_bench_corpus", |bench| {
        bench.iter_batched(
            || collection.to_records(),
            |records| ssj_similarity::ppjoin::ppjoin_self_join(&records, Measure::Jaccard, 0.8),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("allpairs_bench_corpus", |bench| {
        bench.iter_batched(
            || collection.to_records(),
            |records| ssj_similarity::allpairs::allpairs_self_join(&records, Measure::Jaccard, 0.8),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_intersection,
    bench_bitmap_bound,
    bench_verify_threshold,
    bench_vertical_partition,
    bench_prefix_lengths,
    bench_inmemory_joins
);
criterion_main!(benches);
