//! Columnar data-plane micro-benchmark: span segments vs owned-vector
//! segments (the pre-refactor layout), on the two hot paths the refactor
//! touched — map-side segment construction and the reduce-side fragment
//! kernel.
//!
//! Besides throughput, the bench counts heap allocations with a wrapping
//! global allocator and prints them before Criterion runs: span-based
//! splitting must perform **zero per-segment token allocations** (only the
//! one output `Vec` per record), while the owned emulation pays one token
//! `Vec` per segment.
//!
//! The `fragment_signature` group measures the fragment join's
//! record-signature step (DESIGN.md §12) below the repo benchmark: the
//! production Prefix kernel over every fragment of a 2,000-record WikiLike
//! corpus with the step on and off at θ ∈ {0.75, 0.8, 0.9} (asserting first
//! that both find the same pairs), and the Prefix kernel's discovery step —
//! a hash set per probe against the reducer-owned stamp vector.
//!
//! Numbers are recorded in `results/columnar.md`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fsjoin::fragment::{
    join_fragment, local_prefix_len, CandidateRecord, FragmentJoin, JoinKernel, PairScope,
    ProbeScratch,
};
use fsjoin::horizontal::JoinRule;
use fsjoin::vertical::split_record;
use fsjoin::{FilterSet, FilterStats};
use ssj_common::FxHashMap;
use ssj_similarity::intersect::intersect_count_adaptive;
use ssj_similarity::Measure;
use ssj_text::{encode, Collection, CorpusProfile, TokenPool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
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
    let join = FragmentJoin {
        pool,
        scope: PairScope::SelfJoin,
        measure: Measure::Jaccard,
        theta: 0.8,
        kernel: JoinKernel::Loop,
        filters: FilterSet::NONE,
        policy: Default::default(),
        signatures: false,
    };
    join_fragment(
        &join,
        segments,
        JoinRule::All,
        &mut ProbeScratch::default(),
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

// ---- Record-signature step -------------------------------------------------

/// The production filter stage without the engine: the default kernel and
/// filters over every fragment, the signature step on or off.
fn join_all_fragments(
    pool: &TokenPool,
    fragments: &[Vec<fsjoin::Segment>],
    theta: f64,
    signatures: bool,
    scratch: &mut ProbeScratch,
    stats: &mut FilterStats,
) -> Vec<CandidateRecord> {
    let join = FragmentJoin {
        pool,
        scope: PairScope::SelfJoin,
        measure: Measure::Jaccard,
        theta,
        kernel: JoinKernel::Prefix,
        filters: FilterSet::ALL,
        policy: Default::default(),
        signatures,
    };
    let mut out = Vec::new();
    for segments in fragments {
        out.extend(join_fragment(
            &join,
            segments,
            JoinRule::All,
            scratch,
            stats,
        ));
    }
    out
}

/// What the verify job would make of `candidates`: pairs whose summed
/// partial counts reach θ.
fn verified_pairs(candidates: &[CandidateRecord], theta: f64) -> Vec<(u32, u32, u32)> {
    let mut sums: BTreeMap<(u32, u32), (u32, u32, u32)> = BTreeMap::new();
    for c in candidates {
        sums.entry(c.key()).or_insert((0, c.len_a, c.len_b)).0 += c.common;
    }
    sums.into_iter()
        .filter(|&(_, (common, la, lb))| {
            Measure::Jaccard.passes(common as usize, la as usize, lb as usize, theta)
        })
        .map(|((a, b), (common, _, _))| (a, b, common))
        .collect()
}

/// Local-prefix postings of fragment 0, as `prefix_join` has them once
/// every segment is indexed, and each segment's probe tokens.
type PrefixIndex = FxHashMap<u32, Vec<u32>>;

fn prefix_index<'a>(
    pool: &'a TokenPool,
    segments: &[fsjoin::Segment],
    theta: f64,
) -> (PrefixIndex, Vec<&'a [u32]>) {
    let mut index = PrefixIndex::default();
    let mut probes = Vec::new();
    for (slot, seg) in segments.iter().enumerate() {
        let prefix = &seg.tokens(pool)[..local_prefix_len(Measure::Jaccard, theta, seg)];
        for &t in prefix {
            index.entry(t).or_default().push(slot as u32);
        }
        probes.push(prefix);
    }
    (index, probes)
}

/// Discovery as the Prefix kernels did it before the stamp vector: one
/// hash set per probe.
fn discover_hash_set(index: &PrefixIndex, probes: &[&[u32]]) -> usize {
    let mut seen: FxHashMap<u32, ()> = FxHashMap::default();
    let mut hits = 0usize;
    for tokens in probes {
        seen.clear();
        for t in *tokens {
            if let Some(slots) = index.get(t) {
                for &s in slots {
                    seen.entry(s).or_insert(());
                }
            }
        }
        hits += seen.len();
    }
    hits
}

fn discover_stamps(index: &PrefixIndex, probes: &[&[u32]], scratch: &mut ProbeScratch) -> usize {
    let mut hits = 0usize;
    for tokens in probes {
        scratch.probe(tokens, index, probes.len());
        hits += scratch.hits().len();
    }
    hits
}

fn bench_fragment_signature(c: &mut Criterion) {
    let collection = encode(
        &CorpusProfile::WikiLike
            .config()
            .with_records(2_000)
            .generate(),
    );
    let pivots = fsjoin::pivots::select_pivots(
        &collection.token_freqs,
        15,
        fsjoin::PivotStrategy::EvenTf,
        42,
    );
    let fragments: Vec<Vec<fsjoin::Segment>> = (0..=pivots.len())
        .map(|k| fragment_segments(&collection, &pivots, k))
        .collect();
    let pool = collection.pool();
    let mut scratch = ProbeScratch::default();

    let mut g = c.benchmark_group("fragment_signature");
    g.sample_size(10);
    for theta in [0.75, 0.8, 0.9] {
        // Lossless: the verify job finds the same pairs with the same
        // overlaps from either candidate set.
        let (mut on_stats, mut off_stats) = (FilterStats::default(), FilterStats::default());
        let on = join_all_fragments(pool, &fragments, theta, true, &mut scratch, &mut on_stats);
        let off = join_all_fragments(pool, &fragments, theta, false, &mut scratch, &mut off_stats);
        assert_eq!(verified_pairs(&on, theta), verified_pairs(&off, theta));
        assert_eq!(on_stats.unaccounted(), 0);
        assert_eq!(off_stats.unaccounted(), 0);
        println!(
            "signature-report: theta={theta} pairs={} pairs_considered={} strl_pruned={} \
             bitmap_checks={} bitmap_pruned={} candidates_off={} candidates_on={} \
             intersections_off={} intersections_on={}",
            verified_pairs(&on, theta).len(),
            on_stats.pairs_considered,
            on_stats.strl_pruned,
            on_stats.bitmap_checks,
            on_stats.bitmap_pruned,
            off.len(),
            on.len(),
            off_stats.intersections,
            on_stats.intersections,
        );
        for (name, signatures) in [("off", false), ("on", true)] {
            g.bench_function(format!("theta_{theta}/{name}"), |bench| {
                bench.iter(|| {
                    let mut stats = FilterStats::default();
                    join_all_fragments(
                        pool,
                        &fragments,
                        theta,
                        signatures,
                        &mut scratch,
                        &mut stats,
                    )
                    .len()
                })
            });
        }
    }

    // Discovery alone, on the fragment with the most segments.
    let widest = fragments
        .iter()
        .max_by_key(|f| f.len())
        .expect("16 fragments");
    let (index, probes) = prefix_index(pool, widest, 0.8);
    assert_eq!(
        discover_hash_set(&index, &probes),
        discover_stamps(&index, &probes, &mut scratch)
    );
    g.bench_function("discovery/hash_set", |bench| {
        bench.iter(|| discover_hash_set(black_box(&index), black_box(&probes)))
    });
    g.bench_function("discovery/stamps", |bench| {
        bench.iter(|| discover_stamps(black_box(&index), black_box(&probes), &mut scratch))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_segment_construction,
    bench_fragment_kernel,
    bench_fragment_signature
);
criterion_main!(benches);
