//! The encoder's allocation guarantee, asserted with a counting allocator:
//! encoding copies no corpus and allocates nothing per record. Its
//! buffers are sized from the corpus up front and its tables from the
//! token domain, so on corpora over one fully used token domain, 1k and
//! 8k records cost the same number of allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ssj_text::encode::encode_two;
use ssj_text::{encode, RawCorpus};

/// Counts the heap allocations of the calling thread only, so harness
/// threads and the other tests do not pollute a measurement.
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

/// Token domain size: small enough that the first few hundred records
/// use every token.
const DOMAIN: u64 = 64;

/// `records` documents over raw ids `0..DOMAIN`, with in-record duplicates
/// and empty records; `vocab` names raw id `i` `"{prefix}{i}"`.
fn corpus(seed: u64, records: usize, vocab: Option<u64>) -> RawCorpus {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let docs = (0..records)
        .map(|_| {
            let len = next() % 16;
            (0..len).map(|_| next() % DOMAIN).collect()
        })
        .collect();
    RawCorpus {
        docs,
        vocab: vocab.map(|shift| (0..DOMAIN).map(|i| format!("t{}", i + shift)).collect()),
    }
}

/// `encode_two`'s allocations on `records`-record sides; S's vocabulary,
/// when present, half overlaps R's.
fn encode_two_allocs(records: usize, vocab: bool) -> usize {
    let (r_shift, s_shift) = (vocab.then_some(0), vocab.then_some(DOMAIN / 2));
    let (r, s) = (corpus(1, records, r_shift), corpus(2, records, s_shift));
    let ((re, se), allocs) = allocs_during(|| encode_two(&r, &s));
    let expected_universe = if vocab { DOMAIN * 3 / 2 } else { DOMAIN };
    assert_eq!(
        re.universe() as u64,
        expected_universe,
        "domain not saturated"
    );
    assert_eq!((re.len(), se.len()), (records, records));
    allocs
}

#[test]
fn encode_two_allocates_nothing_per_record() {
    for vocab in [false, true] {
        let (small, large) = (
            encode_two_allocs(1_000, vocab),
            encode_two_allocs(8_000, vocab),
        );
        assert_eq!(
            small, large,
            "encode_two (vocab: {vocab}) allocated {small} times at 1k records and \
             {large} at 8k — a per-record or per-corpus copy has crept in"
        );
    }
}

#[test]
fn encode_allocates_nothing_per_record() {
    let count = |records| {
        let raw = corpus(3, records, None);
        allocs_during(|| encode(&raw)).1
    };
    assert_eq!(count(1_000), count(8_000));
}
