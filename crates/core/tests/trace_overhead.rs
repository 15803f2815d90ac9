//! Tracing-overhead budget, checked by counting rather than timing.
//!
//! Tracing costs a fixed amount per span, so its share of a run is
//! `spans × per-span cost ÷ run time`. Traced-versus-untraced wall clocks
//! at test scale are dominated by noise, so these tests pin both factors
//! instead. Spans are emitted per job, stage and task attempt — never per
//! record, segment or pair — so a run's span census does not grow with its
//! input while its work does. And a live span costs a fixed handful of heap
//! allocations. The repo benchmark reports the wall-clock share
//! (`observe.trace_overhead_frac`) without gating it. The disabled path is
//! checked separately (`crates/observe/tests/no_alloc.rs`: zero
//! allocations).
//!
//! The collector is process-global, so every test takes [`serial`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

use fsjoin::FsJoinConfig;
use ssj_text::{encode, CorpusProfile};

/// Counts the heap allocations of the calling thread only, so harness
/// threads and other tests do not pollute a measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
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
static A: CountingAlloc = CountingAlloc;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(spans recorded, task attempts, segments split)` of one traced run:
/// every record's segments, shipped to a cell or cut (the default kernel
/// decides its pairs in the sweep's pass, which grows about linearly with
/// the records).
fn census(records: usize) -> (usize, u64, u64) {
    let collection = encode(
        &CorpusProfile::WikiLike
            .config()
            .with_records(records)
            .generate(),
    );
    let collector = ssj_observe::install_collector();
    let res = fsjoin::run_self_join(&collection, &FsJoinConfig::default().with_theta(0.8));
    ssj_observe::uninstall_collector();
    let sweep = res.sweep_stats;
    (
        collector.events().len(),
        res.chain.total_exec().attempts,
        sweep.segments_shipped + sweep.segments_cut,
    )
}

#[test]
fn span_census_is_independent_of_input_size() {
    let _guard = serial();
    let (small_spans, small_attempts, small_segments) = census(150);
    let (large_spans, large_attempts, large_segments) = census(600);
    assert!(small_spans > 0, "run produced no spans");
    assert!(
        large_segments >= 3 * small_segments,
        "the larger run must do far more work: {large_segments} vs {small_segments} segments"
    );
    assert_eq!(large_attempts, small_attempts, "same task layout");
    assert_eq!(
        large_spans, small_spans,
        "span census grew with the input: spans are per task, not per record"
    );
}

/// A live span with two fields allocates its box, its name and its field
/// list: three allocations, plus the collector buffer's amortized growth.
#[test]
fn live_span_costs_three_allocations() {
    const N: u64 = 10_000;
    let _guard = serial();
    let collector = ssj_observe::install_collector();
    // The first span on a thread registers its lane with the collector.
    drop(ssj_observe::span("warmup", "warmup"));

    let before = ALLOCS.with(Cell::get);
    for i in 0..N {
        drop(
            ssj_observe::span("mr.task", "map")
                .field("index", i)
                .field("records", 12_345u64),
        );
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    ssj_observe::uninstall_collector();

    assert_eq!(collector.events().len() as u64, N + 1);
    // log2(N) buffer doublings at most.
    assert!(
        (3 * N..=3 * N + 16).contains(&allocs),
        "{allocs} allocations for {N} spans"
    );
}
