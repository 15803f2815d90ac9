//! Shuffle data-plane micro-benchmark: reduce-side k-way merge vs the
//! pre-refactor concat + re-sort, across run counts (k = 2..64) and key
//! distributions (uniform and skewed), plus allocation counts for the
//! grouped-value reduce path.
//!
//! The merge groups time each loser tree on the same runs: `merge` is the
//! packed tree on `u64` nodes (`u32` keys), `generic` the by-reference
//! tree (the same keys behind a newtype, which no packed node accepts),
//! and `shuffle_merge_pair_keys` the packed tree on `u128` nodes
//! (`(u32, u32)` keys, the verify job's record pairs).
//!
//! Besides throughput, the bench counts heap allocations with a wrapping
//! global allocator and prints them before Criterion runs: the streaming
//! grouped path ([`GroupedRuns`]) must perform **zero per-key engine
//! allocations**, while the legacy group-walk pays one `Vec` per key (plus
//! its growth). The same counter guards the map-side combine path: a
//! fold-style [`Combiner::combine_into`] (what [`SumCombiner`] ships) must
//! not allocate per key. Numbers are recorded in `results/shuffle.md`.

use criterion::{criterion_group, criterion_main, Criterion};
use ssj_mapreduce::{Combiner, GroupedRuns, KWayMerge, SumCombiner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

// ---- Allocation counting ---------------------------------------------------

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOC_CALLS.load(Ordering::Relaxed) - before)
}

// ---- Fixtures --------------------------------------------------------------

/// Deterministic splitmix64 (no external PRNG dependency).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Clone, Copy)]
enum KeyDist {
    /// Keys uniform over the domain.
    Uniform,
    /// Zipf-like: the draw is cubed into [0, 1), concentrating mass on the
    /// low keys (frequent-token skew, the regime FS-Join's cells see).
    Skewed,
}

/// `k` sorted runs totalling `total` pairs — the shape a reduce task
/// fetches from the spill store after a `k`-map-task job.
fn make_runs(k: usize, total: usize, dist: KeyDist, seed: u64) -> Vec<Vec<(u32, u64)>> {
    const DOMAIN: u64 = 50_000;
    let mut state = seed;
    let per_run = total / k;
    (0..k)
        .map(|_| {
            let mut run: Vec<(u32, u64)> = (0..per_run)
                .map(|_| {
                    let r = splitmix64(&mut state);
                    let key = match dist {
                        KeyDist::Uniform => r % DOMAIN,
                        KeyDist::Skewed => {
                            let u = (r >> 11) as f64 / (1u64 << 53) as f64;
                            ((u * u * u) * DOMAIN as f64) as u64
                        }
                    };
                    (key as u32, splitmix64(&mut state))
                })
                .collect();
            run.sort_by_key(|&(key, _)| key);
            run
        })
        .collect()
}

/// Fold the merged stream into a checksum (keeps the comparison about
/// merge cost, not about materializing an output vector).
fn checksum(pairs: impl Iterator<Item = (u32, u64)>) -> u64 {
    pairs.fold(0u64, |acc, (k, v)| {
        acc.wrapping_mul(31)
            .wrapping_add(u64::from(k))
            .wrapping_add(v)
    })
}

fn merge_checksum(runs: &[Vec<(u32, u64)>]) -> u64 {
    let slices: Vec<&[(u32, u64)]> = runs.iter().map(Vec::as_slice).collect();
    checksum(KWayMerge::new(slices).copied())
}

/// The pre-refactor reduce input path: concatenate every run and stable
/// re-sort the whole thing.
fn resort_checksum(runs: &[Vec<(u32, u64)>]) -> u64 {
    let mut all: Vec<(u32, u64)> = runs.iter().flatten().copied().collect();
    all.sort_by_key(|&(key, _)| key);
    checksum(all.into_iter())
}

/// A `u32` key the merge does not recognise as a primitive, so it plays
/// on the generic by-reference tree (like MassJoin's compound keys).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct OpaqueKey(u32);

fn opaque_runs(runs: &[Vec<(u32, u64)>]) -> Vec<Vec<(OpaqueKey, u64)>> {
    runs.iter()
        .map(|run| run.iter().map(|&(k, v)| (OpaqueKey(k), v)).collect())
        .collect()
}

fn generic_merge_checksum(runs: &[Vec<(OpaqueKey, u64)>]) -> u64 {
    let slices: Vec<&[(OpaqueKey, u64)]> = runs.iter().map(Vec::as_slice).collect();
    checksum(KWayMerge::new(slices).map(|&(OpaqueKey(k), v)| (k, v)))
}

/// The same runs with `(u32, u32)` record-pair keys: `(k >> 8, k & 0xff)`
/// orders like `k`, so the merge does the same work on `u128` nodes.
fn pair_runs(runs: &[Vec<(u32, u64)>]) -> Vec<Vec<((u32, u32), u64)>> {
    runs.iter()
        .map(|run| run.iter().map(|&(k, v)| ((k >> 8, k & 0xff), v)).collect())
        .collect()
}

fn pair_merge_checksum(runs: &[Vec<((u32, u32), u64)>]) -> u64 {
    let slices: Vec<&[((u32, u32), u64)]> = runs.iter().map(Vec::as_slice).collect();
    checksum(KWayMerge::new(slices).map(|&((hi, lo), v)| ((hi << 8) | lo, v)))
}

/// Streaming grouped reduce: fold each group's values without any per-key
/// buffer (what a native `StreamingReducer` costs the engine).
fn grouped_streaming(runs: &[Vec<(u32, u64)>]) -> (usize, u64) {
    let slices: Vec<&[(u32, u64)]> = runs.iter().map(Vec::as_slice).collect();
    let mut groups = 0usize;
    let mut acc = 0u64;
    GroupedRuns::new(slices).for_each_group(|k, vs| {
        groups += 1;
        let sum: u64 = vs.copied().sum();
        acc = acc
            .wrapping_mul(31)
            .wrapping_add(u64::from(*k))
            .wrapping_add(sum);
    });
    (groups, acc)
}

/// The pre-refactor group-walk: concat + re-sort, then one `Vec` per key.
fn grouped_legacy(runs: &[Vec<(u32, u64)>]) -> (usize, u64) {
    let mut all: Vec<(u32, u64)> = runs.iter().flatten().copied().collect();
    all.sort_by_key(|&(key, _)| key);
    let mut groups = 0usize;
    let mut acc = 0u64;
    let mut current: Option<(u32, Vec<u64>)> = None;
    let flush = |k: u32, vals: Vec<u64>, groups: &mut usize, acc: &mut u64| {
        *groups += 1;
        let sum: u64 = vals.into_iter().sum();
        *acc = acc
            .wrapping_mul(31)
            .wrapping_add(u64::from(k))
            .wrapping_add(sum);
    };
    for (k, v) in all {
        match &mut current {
            Some((ck, vals)) if *ck == k => vals.push(v),
            _ => {
                if let Some((ck, vals)) = current.take() {
                    flush(ck, vals, &mut groups, &mut acc);
                }
                current = Some((k, vec![v]));
            }
        }
    }
    if let Some((ck, vals)) = current.take() {
        flush(ck, vals, &mut groups, &mut acc);
    }
    (groups, acc)
}

/// The engine's map-side combine shape: walk a sorted bucket key group by
/// key group, streaming each group's values into `combine_into` with one
/// reused output vector.
fn combine_bucket<C: Combiner<u32, u64>>(c: &C, bucket: &[(u32, u64)]) -> (usize, u64) {
    let mut out: Vec<u64> = Vec::with_capacity(4);
    let mut groups = 0usize;
    let mut acc = 0u64;
    let mut i = 0usize;
    while i < bucket.len() {
        let key = bucket[i].0;
        let mut end = i + 1;
        while end < bucket.len() && bucket[end].0 == key {
            end += 1;
        }
        out.clear();
        c.combine_into(&key, &mut bucket[i..end].iter().map(|&(_, v)| v), &mut out);
        groups += 1;
        for &v in &out {
            acc = acc
                .wrapping_mul(31)
                .wrapping_add(u64::from(key))
                .wrapping_add(v);
        }
        i = end;
    }
    (groups, acc)
}

// ---- Allocation report (printed once, before Criterion) --------------------

fn report_allocations() {
    let runs = make_runs(16, 200_000, KeyDist::Uniform, 42);
    // Warm-up outside the counted window (lazy allocator state).
    let warm = grouped_streaming(&runs);
    let ((groups, stream_sum), stream_allocs) = allocs_during(|| grouped_streaming(&runs));
    let ((legacy_groups, legacy_sum), legacy_allocs) = allocs_during(|| grouped_legacy(&runs));
    assert_eq!(warm, (groups, stream_sum));
    assert_eq!((groups, stream_sum), (legacy_groups, legacy_sum));
    println!(
        "alloc-report: groups={groups} streaming_allocs={stream_allocs} \
         legacy_allocs={legacy_allocs}"
    );
    // The refactor's claim: the streaming grouped path allocates only the
    // run-slice vector and the k-entry heap — never per key. The legacy
    // walk pays at least one Vec per key on top of the concat buffer.
    assert!(
        stream_allocs < 8,
        "streaming grouped path must not allocate per key \
         ({stream_allocs} allocs for {groups} groups)"
    );
    assert!(
        legacy_allocs > groups,
        "legacy group-walk should allocate per key \
         ({legacy_allocs} allocs for {groups} groups)"
    );
}

fn report_combine_allocations() {
    // One key-sorted map bucket, the shape the spill path combines.
    let bucket = {
        let runs = make_runs(1, 200_000, KeyDist::Uniform, 17);
        runs.into_iter().next().unwrap()
    };
    let warm = combine_bucket(&SumCombiner, &bucket);
    let ((groups, fold_sum), fold_allocs) = allocs_during(|| combine_bucket(&SumCombiner, &bucket));
    assert_eq!(warm, (groups, fold_sum));
    println!("combine-report: groups={groups} fold_allocs={fold_allocs}");
    // A fold-style `combine_into` combines a whole bucket with a bounded
    // handful of allocations (the reused output vector), never one per
    // key group.
    assert!(
        fold_allocs < 8,
        "fold-style combine_into must not allocate per key \
         ({fold_allocs} allocs for {groups} groups)"
    );
}

// ---- Criterion groups ------------------------------------------------------

fn bench_merge_vs_resort(c: &mut Criterion) {
    report_allocations();
    report_combine_allocations();
    const TOTAL: usize = 200_000;
    for (dist, label) in [(KeyDist::Uniform, "uniform"), (KeyDist::Skewed, "skewed")] {
        let mut g = c.benchmark_group(format!("shuffle_merge_{label}"));
        g.sample_size(15);
        for k in [2usize, 4, 8, 16, 32, 64] {
            let runs = make_runs(k, TOTAL, dist, 42 + k as u64);
            // Sanity: both paths must agree before we compare their cost.
            assert_eq!(merge_checksum(&runs), resort_checksum(&runs));
            g.bench_function(format!("merge/k{k}"), |bench| {
                bench.iter(|| merge_checksum(black_box(&runs)))
            });
            g.bench_function(format!("resort/k{k}"), |bench| {
                bench.iter(|| resort_checksum(black_box(&runs)))
            });
            let opaque = opaque_runs(&runs);
            assert_eq!(generic_merge_checksum(&opaque), resort_checksum(&runs));
            g.bench_function(format!("generic/k{k}"), |bench| {
                bench.iter(|| generic_merge_checksum(black_box(&opaque)))
            });
        }
        g.finish();
    }
    let mut g = c.benchmark_group("shuffle_merge_pair_keys");
    g.sample_size(15);
    for k in [8usize, 64] {
        let runs = make_runs(k, TOTAL, KeyDist::Uniform, 42 + k as u64);
        let pairs = pair_runs(&runs);
        assert_eq!(pair_merge_checksum(&pairs), resort_checksum(&runs));
        g.bench_function(format!("merge/k{k}"), |bench| {
            bench.iter(|| pair_merge_checksum(black_box(&pairs)))
        });
    }
    g.finish();
}

fn bench_grouped_paths(c: &mut Criterion) {
    const TOTAL: usize = 200_000;
    let mut g = c.benchmark_group("grouped_reduce");
    g.sample_size(15);
    for k in [8usize, 32] {
        let runs = make_runs(k, TOTAL, KeyDist::Uniform, 7 + k as u64);
        assert_eq!(grouped_streaming(&runs), grouped_legacy(&runs));
        g.bench_function(format!("streaming/k{k}"), |bench| {
            bench.iter(|| grouped_streaming(black_box(&runs)))
        });
        g.bench_function(format!("legacy/k{k}"), |bench| {
            bench.iter(|| grouped_legacy(black_box(&runs)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_merge_vs_resort, bench_grouped_paths);
criterion_main!(benches);
