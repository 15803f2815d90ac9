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
//! that both find the same pairs), and the Prefix kernel's record-level
//! discovery — scope → StrL → signature on every distinct co-prefix-token
//! pair — as the arrival-order probe did it before the cell index (a hash
//! map of posting `Vec`s, one `strl_pass` and two pool bitmap loads per
//! pair; kept here as the baseline) against the length-windowed columnar
//! [`CellIndex`] probe, asserting that both let the same pairs through.
//!
//! Numbers are recorded in `results/columnar.md`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fsjoin::cell_index::{CellIndex, Slot};
use fsjoin::filters::strl_pass;
use fsjoin::fragment::{
    join_fragment, local_prefix_len, split_cell, CandidateRecord, FragmentJoin, JoinKernel,
    PairScope,
};
use fsjoin::horizontal::JoinRule;
use fsjoin::vertical::split_record;
use fsjoin::{FilterSet, FilterStats};
use ssj_common::FxHashMap;
use ssj_similarity::intersect::intersect_count_adaptive;
use ssj_similarity::{Measure, Signature, Verifier};
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
        &mut segments.to_vec(),
        JoinRule::All,
        &mut CellIndex::default(),
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
    index: &mut CellIndex,
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
            &mut segments.clone(),
            JoinRule::All,
            index,
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

/// What a record-level discovery pass over the cell set found.
#[derive(Debug, PartialEq, Eq)]
struct Discovery {
    /// Posting entries the probes walked over.
    postings_visited: u64,
    /// Distinct pairs that reached the cascade.
    pairs_considered: u64,
    /// Pairs scope, StrL and the signature let through, sorted.
    survivors: Vec<(u32, u32)>,
}

/// The arrival-order probe the Prefix kernel ran before the cell index: a
/// hash map of posting `Vec`s filled while scanning, a stamp per slot, and
/// per distinct pair one `strl_pass` and one `Verifier::signature` on two
/// pool bitmaps.
fn discover_arrival_order(
    pool: &TokenPool,
    fragments: &[Vec<fsjoin::Segment>],
    theta: f64,
) -> Discovery {
    let m = Measure::Jaccard;
    let mut found = Discovery {
        postings_visited: 0,
        pairs_considered: 0,
        survivors: Vec::new(),
    };
    let mut stamps: Vec<u32> = Vec::new();
    let mut epoch = 0u32;
    for segments in fragments {
        let mut index: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        stamps.clear();
        stamps.resize(segments.len(), 0);
        for (slot, a) in segments.iter().enumerate() {
            let prefix = &a.tokens(pool)[..local_prefix_len(m, theta, a)];
            epoch += 1;
            for t in prefix {
                let list = index.get(t).map_or(&[][..], Vec::as_slice);
                found.postings_visited += list.len() as u64;
                for &slot_b in list {
                    if std::mem::replace(&mut stamps[slot_b as usize], epoch) == epoch {
                        continue;
                    }
                    let b = &segments[slot_b as usize];
                    if a.rid == b.rid {
                        continue;
                    }
                    found.pairs_considered += 1;
                    if !strl_pass(m, theta, a.len, b.len) {
                        continue;
                    }
                    let (la, lb) = (a.len as usize, b.len as usize);
                    let signature = Verifier::signature(
                        m.min_overlap(theta, la, lb),
                        la,
                        lb,
                        pool.bitmap_of(a.rid),
                        pool.bitmap_of(b.rid),
                    );
                    if signature != Signature::Dissimilar {
                        found.survivors.push((a.rid.min(b.rid), a.rid.max(b.rid)));
                    }
                }
            }
            for &t in prefix {
                index.entry(t).or_default().push(slot as u32);
            }
        }
    }
    found.survivors.sort_unstable();
    found
}

/// The same pass as the indexed kernels run it now: the cell in length
/// order, StrL as a slot window, the signature as a compare against the
/// per-length Hamming limit, inside [`CellIndex::probe`]. `all_postings` is
/// what a probe pass walks over without a window — every two postings of
/// one token meet once, whatever order the cell is scanned in — so the
/// arrival-order pass's count.
fn discover_windowed(
    pool: &TokenPool,
    fragments: &[Vec<fsjoin::Segment>],
    theta: f64,
    all_postings: u64,
    index: &mut CellIndex,
) -> Discovery {
    let m = Measure::Jaccard;
    let words = pool.bitmap_bits() / 64;
    let mut stats = FilterStats::default();
    let mut survivors = Vec::new();
    for segments in fragments {
        let mut segments = segments.clone();
        let (band, _) = split_cell(&mut segments, JoinRule::All);
        let as_slot = |s: &fsjoin::Segment| Slot {
            len: s.len,
            group: s.rid,
            sig: pool.bitmap_of(s.rid),
            tokens: &s.tokens(pool)[..local_prefix_len(m, theta, s)],
        };
        index.rebuild(words, band.iter().map(as_slot));
        for (i, probe) in band.iter().enumerate() {
            let len = probe.len as usize;
            index.probe(
                &as_slot(probe),
                index.window(m.min_partner_len(theta, len), i),
                |partner| {
                    let alpha = m.min_overlap(theta, partner as usize, len);
                    Verifier::hamming_limit(alpha, partner as usize, len, words)
                },
                &mut stats,
            );
            for &slot in index.hits() {
                let other = &band[slot as usize];
                survivors.push((probe.rid.min(other.rid), probe.rid.max(other.rid)));
            }
        }
    }
    survivors.sort_unstable();
    Discovery {
        postings_visited: all_postings - stats.window_skipped,
        pairs_considered: stats.pairs_considered,
        survivors,
    }
}

/// Best of five wall times of `f`, in nanoseconds.
fn best_of_five(mut f: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
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
    let mut index = CellIndex::default();

    let mut g = c.benchmark_group("fragment_signature");
    g.sample_size(10);
    for theta in [0.75, 0.8, 0.9] {
        // Lossless: the verify job finds the same pairs with the same
        // overlaps from either candidate set.
        let (mut on_stats, mut off_stats) = (FilterStats::default(), FilterStats::default());
        let on = join_all_fragments(pool, &fragments, theta, true, &mut index, &mut on_stats);
        let off = join_all_fragments(pool, &fragments, theta, false, &mut index, &mut off_stats);
        assert_eq!(verified_pairs(&on, theta), verified_pairs(&off, theta));
        assert_eq!(on_stats.unaccounted(), 0);
        assert_eq!(off_stats.unaccounted(), 0);
        println!(
            "signature-report: theta={theta} pairs={} pairs_considered={} window_skipped={} \
             bitmap_checks={} bitmap_pruned={} candidates_off={} candidates_on={} \
             intersections_off={} intersections_on={}",
            verified_pairs(&on, theta).len(),
            on_stats.pairs_considered,
            on_stats.window_skipped,
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
                    join_all_fragments(pool, &fragments, theta, signatures, &mut index, &mut stats)
                        .len()
                })
            });
        }
    }

    // Record-level discovery alone, over the whole cell set: the old
    // arrival-order probe against the length-windowed columnar probe.
    let theta = 0.8;
    let arrival = discover_arrival_order(pool, &fragments, theta);
    let all_postings = arrival.postings_visited;
    let windowed = discover_windowed(pool, &fragments, theta, all_postings, &mut index);
    assert_eq!(
        arrival.survivors, windowed.survivors,
        "the window and the limit table must let the same pairs through"
    );
    assert!(windowed.postings_visited < arrival.postings_visited);
    let arrival_ns = best_of_five(|| {
        black_box(discover_arrival_order(pool, &fragments, theta));
    });
    let windowed_ns = best_of_five(|| {
        black_box(discover_windowed(
            pool,
            &fragments,
            theta,
            all_postings,
            &mut index,
        ));
    });
    println!(
        "probe-report: theta={theta} survivors={} | arrival-order: postings_visited={} \
         pairs_considered={} ns_per_posting={:.2} | windowed: postings_visited={} \
         pairs_considered={} ns_per_posting={:.2} | total_ms {:.2} -> {:.2}",
        arrival.survivors.len(),
        arrival.postings_visited,
        arrival.pairs_considered,
        arrival_ns / arrival.postings_visited as f64,
        windowed.postings_visited,
        windowed.pairs_considered,
        windowed_ns / windowed.postings_visited as f64,
        arrival_ns / 1e6,
        windowed_ns / 1e6,
    );
    g.bench_function("probe/arrival_order", |bench| {
        bench.iter(|| discover_arrival_order(pool, black_box(&fragments), theta))
    });
    g.bench_function("probe/windowed", |bench| {
        bench.iter(|| {
            discover_windowed(pool, black_box(&fragments), theta, all_postings, &mut index)
        })
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
