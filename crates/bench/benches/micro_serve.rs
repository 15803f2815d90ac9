//! Micro-benchmarks of the serving plane: index build, single probes,
//! top-k, inserts, and compaction on the bench corpus.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ssj_bench::bench_corpus;
use ssj_serve::{build_index, ProbeStats, ServeConfig};
use std::hint::black_box;

fn cfg() -> ServeConfig {
    ServeConfig::default().with_theta_min(0.7)
}

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_build");
    g.sample_size(10);
    let collection = bench_corpus();
    g.bench_function("bench_corpus", |bench| {
        bench.iter(|| build_index(black_box(&collection), &cfg()))
    });
    g.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_probe");
    g.sample_size(30);
    let collection = bench_corpus();
    let index = build_index(&collection, &cfg());
    // A mid-sized record: representative prefix + posting work.
    let query = index.tokens_of((index.len() / 2) as u32).to_vec();
    g.bench_function("single_theta08", |bench| {
        bench.iter(|| {
            let mut stats = ProbeStats::default();
            index.probe_with(black_box(&query), 0.8, None, &mut stats)
        })
    });
    g.bench_function("top8", |bench| {
        bench.iter(|| index.top_k(black_box(&query), 8))
    });
    g.bench_function("replay_all_theta08", |bench| {
        bench.iter(|| {
            let mut stats = ProbeStats::default();
            let mut hits = 0usize;
            for rec in 0..index.len() as u32 {
                hits += index
                    .probe_with(index.tokens_of(rec), 0.8, Some(rec), &mut stats)
                    .len();
            }
            hits
        })
    });
    g.finish();
}

fn bench_freshness(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_freshness");
    g.sample_size(10);
    let collection = bench_corpus();
    let n = collection.len();
    let tail: Vec<Vec<u32>> = (n * 4 / 5..n)
        .map(|rid| collection.tokens(rid as u32).to_vec())
        .collect();
    g.bench_function("insert_tail_fifth", |bench| {
        bench.iter_batched(
            || build_index(&collection, &cfg()),
            |mut index| {
                for tokens in &tail {
                    index.insert(black_box(tokens)).unwrap();
                }
                index
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("compact_tail_fifth", |bench| {
        bench.iter_batched(
            || {
                let mut index = build_index(&collection, &cfg());
                for tokens in &tail {
                    index.insert(tokens).unwrap();
                }
                index
            },
            |mut index| {
                index.compact();
                index
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_build, bench_query, bench_freshness);
criterion_main!(benches);
