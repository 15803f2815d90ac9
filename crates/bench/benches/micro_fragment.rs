//! Columnar data-plane micro-benchmark: span segments vs owned-vector
//! segments (the pre-refactor layout), on the two hot paths the refactor
//! touched — map-side segment construction and the reduce-side fragment
//! kernel.
//!
//! Besides throughput, the bench counts heap allocations with a wrapping
//! global allocator and prints them before Criterion runs: span-based
//! splitting must perform **zero per-segment token allocations** (only the
//! one output `Vec` per record), while the owned emulation pays one token
//! `Vec` per segment. Numbers are recorded in `results/columnar.md`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fsjoin::fragment::{join_fragment, CandidateRecord, JoinKernel, PairScope};
use fsjoin::horizontal::JoinRule;
use fsjoin::vertical::split_record;
use fsjoin::{FilterSet, FilterStats};
use ssj_similarity::intersect::intersect_count_adaptive;
use ssj_similarity::Measure;
use ssj_text::{Collection, TokenPool};
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

// ---- The owned-vector baseline (pre-refactor segment layout) ---------------

struct OwnedSegment {
    rid: u32,
    len: u32,
    tokens: Vec<u32>,
}

/// The pre-columnar `split_record`: identical partitioning logic, but each
/// segment clones its token run into an owned `Vec`.
fn split_record_owned(rid: u32, tokens: &[u32], pivots: &[u32]) -> Vec<(usize, OwnedSegment)> {
    let len = tokens.len();
    let mut out = Vec::new();
    let mut start = 0usize;
    for (k, &b) in pivots.iter().enumerate() {
        let end = start + tokens[start..].partition_point(|&t| t < b);
        if end > start {
            out.push((
                k,
                OwnedSegment {
                    rid,
                    len: len as u32,
                    tokens: tokens[start..end].to_vec(),
                },
            ));
        }
        start = end;
    }
    if start < len {
        out.push((
            pivots.len(),
            OwnedSegment {
                rid,
                len: len as u32,
                tokens: tokens[start..].to_vec(),
            },
        ));
    }
    out
}

/// The pre-columnar loop kernel over owned segments: every pair, adaptive
/// intersection, no filters — mirrors `JoinKernel::Loop` with
/// `FilterSet::NONE` so the span/owned comparison isolates token access.
fn loop_join_owned(segments: &[OwnedSegment], theta: f64) -> usize {
    let mut hits = 0usize;
    for (i, a) in segments.iter().enumerate() {
        for b in &segments[i + 1..] {
            if a.rid == b.rid {
                continue;
            }
            let c = intersect_count_adaptive(&a.tokens, &b.tokens);
            if c > 0 && Measure::Jaccard.passes(c, a.len as usize, b.len as usize, theta) {
                hits += 1;
            }
        }
    }
    hits
}

/// The identical loop over span segments — the only difference from
/// [`loop_join_owned`] is that token slices are resolved through the pool.
fn loop_join_span(pool: &TokenPool, segments: &[fsjoin::Segment], theta: f64) -> usize {
    let mut hits = 0usize;
    for (i, a) in segments.iter().enumerate() {
        let at = a.tokens(pool);
        for b in &segments[i + 1..] {
            if a.rid == b.rid {
                continue;
            }
            let c = intersect_count_adaptive(at, b.tokens(pool));
            if c > 0 && Measure::Jaccard.passes(c, a.len as usize, b.len as usize, theta) {
                hits += 1;
            }
        }
    }
    hits
}

// ---- Fixtures --------------------------------------------------------------

fn fixture() -> (Collection, Vec<u32>) {
    let c = ssj_bench::bench_corpus();
    let pivots =
        fsjoin::pivots::select_pivots(&c.token_freqs, 15, fsjoin::PivotStrategy::EvenTf, 42);
    (c, pivots)
}

fn split_all_span(c: &Collection, pivots: &[u32]) -> usize {
    let mut segments = 0usize;
    for v in c.iter() {
        segments += split_record(v.id, 0, v.tokens, c.span(v.id), pivots).len();
    }
    segments
}

fn split_all_owned(c: &Collection, pivots: &[u32]) -> usize {
    let mut segments = 0usize;
    for v in c.iter() {
        segments += split_record_owned(v.id, v.tokens, pivots).len();
    }
    segments
}

/// All segments of one fragment, span form (with the pool they point into).
fn fragment_segments(c: &Collection, pivots: &[u32], fragment: usize) -> Vec<fsjoin::Segment> {
    let mut out = Vec::new();
    for v in c.iter() {
        for (k, seg) in split_record(v.id, 0, v.tokens, c.span(v.id), pivots) {
            if k == fragment {
                out.push(seg);
            }
        }
    }
    out
}

fn fragment_segments_owned(c: &Collection, pivots: &[u32], fragment: usize) -> Vec<OwnedSegment> {
    let mut out = Vec::new();
    for v in c.iter() {
        for (k, seg) in split_record_owned(v.id, v.tokens, pivots) {
            if k == fragment {
                out.push(seg);
            }
        }
    }
    out
}

fn run_span_kernel(pool: &TokenPool, segments: &[fsjoin::Segment]) -> Vec<CandidateRecord> {
    join_fragment(
        pool,
        segments,
        JoinRule::All,
        PairScope::SelfJoin,
        Measure::Jaccard,
        0.8,
        JoinKernel::Loop,
        FilterSet::NONE,
        Default::default(),
        &mut FilterStats::default(),
    )
}

// ---- Allocation report (printed once, before Criterion) --------------------

fn report_allocations(c: &Collection, pivots: &[u32]) {
    let records = c.len();
    let (segments, span_allocs) = allocs_during(|| split_all_span(c, pivots));
    let (_, owned_allocs) = allocs_during(|| split_all_owned(c, pivots));
    println!(
        "alloc-report: records={records} segments={segments} \
         span_split_allocs={span_allocs} owned_split_allocs={owned_allocs}"
    );
    // The refactor's claim: splitting allocates only the per-record output
    // Vec (plus its growth reallocs) — never per segment. The owned layout
    // pays ≥ 1 allocation per segment on top of that.
    assert!(
        span_allocs < segments,
        "span splitting must not allocate per segment \
         ({span_allocs} allocs for {segments} segments)"
    );
    assert!(
        owned_allocs > segments,
        "owned emulation should allocate per segment \
         ({owned_allocs} allocs for {segments} segments)"
    );

    let pool_segments = fragment_segments(c, pivots, 0);
    let (span_out, kernel_allocs) = allocs_during(|| {
        let out = run_span_kernel(c.pool(), &pool_segments);
        out.len()
    });
    println!(
        "alloc-report: fragment0_segments={} span_kernel_candidates={span_out} \
         span_kernel_allocs={kernel_allocs} (output vec growth only)",
        pool_segments.len()
    );
}

// ---- Criterion groups ------------------------------------------------------

fn bench_segment_construction(c: &mut Criterion) {
    let (collection, pivots) = fixture();
    report_allocations(&collection, &pivots);
    let mut g = c.benchmark_group("segment_construction");
    g.sample_size(20);
    g.bench_function("span", |bench| {
        bench.iter(|| split_all_span(black_box(&collection), black_box(&pivots)))
    });
    g.bench_function("owned", |bench| {
        bench.iter(|| split_all_owned(black_box(&collection), black_box(&pivots)))
    });
    g.finish();
}

fn bench_fragment_kernel(c: &mut Criterion) {
    let (collection, pivots) = fixture();
    let span_segments = fragment_segments(&collection, &pivots, 0);
    let owned_segments = fragment_segments_owned(&collection, &pivots, 0);
    // Sanity: both layouts see the same fragment.
    assert_eq!(span_segments.len(), owned_segments.len());
    // Sanity: identical loops must see identical hit counts.
    assert_eq!(
        loop_join_span(collection.pool(), &span_segments, 0.8),
        loop_join_owned(&owned_segments, 0.8)
    );
    let mut g = c.benchmark_group("fragment_kernel");
    g.sample_size(20);
    g.bench_function("span_loop", |bench| {
        bench.iter(|| loop_join_span(collection.pool(), black_box(&span_segments), 0.8))
    });
    g.bench_function("owned_loop", |bench| {
        bench.iter(|| loop_join_owned(black_box(&owned_segments), 0.8))
    });
    // Context: the full production kernel (filters off, candidate records
    // materialized) on the same span segments.
    g.bench_function("span_join_fragment", |bench| {
        bench.iter_batched(
            || (),
            |()| run_span_kernel(collection.pool(), black_box(&span_segments)).len(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_segment_construction, bench_fragment_kernel);
criterion_main!(benches);
