//! The serving plane's allocation guarantees, asserted with a counting
//! allocator:
//!
//! * the batch/serve seam is zero-copy: adopting a build plan's sealed
//!   output into a [`ServeIndex`] ([`ServeIndexBuild::adopt`] →
//!   `PlanOutcome::take_sealed`) must perform a small **constant** number
//!   of container allocations — independent of how many postings the plan
//!   produced — because the posting partitions move by `Arc`, never by
//!   deep copy;
//! * the probe path is allocation-free once warm: its accumulator and
//!   buffers are per-thread scratch, so a probe allocates only the answer
//!   it returns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ssj_mapreduce::PlanRunner;
use ssj_serve::{build_index, ProbeStats, ServeConfig, ServeIndex, ServeIndexBuild};
use ssj_text::{encode, Collection, CorpusProfile, RecordId};

/// Counts the heap allocations of the calling thread only, so harness
/// threads and the other test do not pollute a measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

fn wiki(records: usize) -> Collection {
    encode(
        &CorpusProfile::WikiLike
            .config()
            .with_records(records)
            .generate(),
    )
}

/// Allocation budget for adopting a plan outcome: the partition vector,
/// the directory, the length census, the registry and its handful of
/// gauge entries — and nothing proportional to postings.
const ADOPT_ALLOC_BUDGET: usize = 64;

#[test]
fn from_plan_adopts_sealed_partitions_without_posting_copies() {
    let collection = wiki(800);
    let cfg = ServeConfig::default().with_theta_min(0.7).with_workers(2);
    let mut build = ServeIndexBuild::new(&collection, cfg);
    let plan = build.take_plan();
    let mut outcome = PlanRunner::pipelined().run(plan);

    let (index, allocs) = allocs_during(|| build.adopt(&mut outcome));

    assert!(
        index.main_postings() > 10_000,
        "corpus too small to make the bound meaningful: {} postings",
        index.main_postings()
    );
    assert!(
        allocs <= ADOPT_ALLOC_BUDGET,
        "adopting the plan outcome allocated {allocs} times (budget \
         {ADOPT_ALLOC_BUDGET}) — a posting-list deep copy has crept into \
         the batch/serve seam"
    );

    // The adopted index must actually work.
    let query = collection.tokens(0).to_vec();
    let hits = index.probe(&query, 0.8);
    assert!(hits.iter().any(|&(rec, sim)| rec == 0 && sim == 1.0));
}

/// Probe `rec` (excluding itself) on a warm thread: the allocations the
/// last of several identical probes made, and its stats.
fn warm_probe(index: &ServeIndex, collection: &Collection, rec: RecordId) -> (usize, ProbeStats) {
    let tokens = collection.tokens(rec);
    let probe = |stats: &mut ProbeStats| index.probe_with(tokens, 0.8, Some(rec), stats);
    for _ in 0..3 {
        probe(&mut ProbeStats::default());
    }
    let mut stats = ProbeStats::default();
    let (hits, allocs) = allocs_during(|| probe(&mut stats));
    assert_eq!(hits.len() as u64, stats.hits);
    (allocs, stats)
}

#[test]
fn warm_probes_allocate_only_their_answer() {
    let collection = wiki(800);
    let index = build_index(
        &collection,
        &ServeConfig::default().with_theta_min(0.7).with_workers(2),
    );
    let (mut quiet, mut hit) = (None, None);
    for rec in 0..collection.len() as RecordId {
        let (allocs, stats) = warm_probe(&index, &collection, rec);
        // Only probes that run the whole cascade count.
        if stats.candidates == 0 || stats.bitmap_checks == 0 {
            continue;
        }
        let slot = if stats.hits == 0 {
            &mut quiet
        } else {
            &mut hit
        };
        slot.get_or_insert((rec, allocs));
        if quiet.is_some() && hit.is_some() {
            break;
        }
    }
    let (quiet, hit) = (
        quiet.expect("a probe without hits"),
        hit.expect("a probe with hits"),
    );
    assert_eq!(
        quiet.1, 0,
        "warm probe of record {} without hits allocated",
        quiet.0
    );
    assert_eq!(
        hit.1, 1,
        "warm probe of record {} allocated more than its answer",
        hit.0
    );
}
