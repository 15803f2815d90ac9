//! The one posting index of the reduce side: a fragment cell's segments in
//! record-length order, as dense columns plus CSR postings (DESIGN.md §4).
//!
//! The fragment join's Index and Prefix kernels and PF discovery all have
//! the same shape — index some tokens of every segment of a cell, then probe
//! with each segment's tokens and run a cascade on every distinct partner
//! reached. What the cascade decides first depends on the two *records*
//! only: scope, the string-length filter and the record signature. Slots are
//! therefore laid out in record-length order, which turns those three into
//! work done on the posting list instead of on a materialised pair:
//!
//! * **StrL is a range.** A probe may pair with record lengths
//!   `≥ min_partner_len(θ, |probe|)`; on length-sorted slots that is a slot
//!   range, found by one `partition_point` on the length column
//!   ([`CellIndex::window`]) and one per posting list (lists ascend by
//!   slot). Out-of-window postings are skipped, not visited
//!   ([`FilterStats::window_skipped`]).
//! * **Stamps deduplicate.** A per-slot mark says whether the current probe
//!   already met the slot, and for survivors counts the shared indexed
//!   tokens (the Index kernel's exact local overlap).
//! * **The signature is a compare.** For a fixed probe length the bitmap
//!   bound of [`Verifier::signature`](ssj_similarity::Verifier::signature)
//!   depends on the partner's length alone, so it is solved once per
//!   `(probe length, partner length)` for the largest surviving Hamming
//!   distance ([`Verifier::hamming_limit`](ssj_similarity::Verifier::hamming_limit))
//!   and the walk compares an XOR-popcount of two contiguous signature rows
//!   against it: no `Segment` load, no float math, no pool access.
//!
//! Only survivors ([`CellIndex::hits`]) go back to the caller's per-pair
//! code. The index is owned by the reducer and rebuilt per cell into the
//! same buffers: one hash lookup per indexed token to number the posting
//! lists, then a counting sort — no per-list allocation.

use crate::filters::FilterStats;
use ssj_common::FxHashMap;

/// [`Limit::limit`] of a partner length the signature step lets through
/// unread: the saturation guard held the bitmaps back, or the step is off.
/// No Hamming distance exceeds it.
const UNCHECKED: i32 = i32::MAX;

/// One segment as the index sees it — an indexed slot, or the probe.
#[derive(Debug, Clone, Copy)]
pub struct Slot<'a> {
    /// Full record length `|s|` (≥ 1).
    pub len: u32,
    /// Scope group: slots of the probe's own group are inadmissible
    /// partners (the record id in a self-join, the side in an R×S join).
    pub group: u32,
    /// The record's signature, `sig_words` words.
    pub sig: &'a [u64],
    /// The tokens to index or to probe with (ascending).
    pub tokens: &'a [u32],
}

/// Whether the current probe met a slot, and how often.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    /// Probe number (`CellIndex::epoch`) of the last probe that met the slot.
    epoch: u32,
    /// Shared indexed tokens with that probe; 0 once the cascade dropped
    /// the slot.
    shared: u32,
}

/// The Hamming limit of one partner-length class, for one probe length.
#[derive(Debug, Clone, Copy, Default)]
struct Limit {
    /// Probe length the limit was computed for (0: none yet).
    probe_len: u32,
    /// Largest surviving Hamming distance, or [`UNCHECKED`].
    limit: i32,
}

/// See the module docs.
#[derive(Debug, Default)]
pub struct CellIndex {
    // Per-slot columns.
    lens: Vec<u32>,
    /// Number of distinct lengths below the slot's: the row of `limits`.
    classes: Vec<u32>,
    groups: Vec<u32>,
    sig_words: usize,
    sigs: Vec<u64>,
    // CSR postings: `slots[starts[k]..starts[k + 1]]` lists, ascending, the
    // slots that index the token `directory` numbers `k`.
    directory: FxHashMap<u32, u32>,
    starts: Vec<u32>,
    slots: Vec<u32>,
    /// Build scratch: `(list, slot)` per posting, in slot order.
    entries: Vec<(u32, u32)>,
    // Probe state.
    marks: Vec<Mark>,
    epoch: u32,
    limits: Vec<Limit>,
    hits: Vec<u32>,
}

impl CellIndex {
    /// Index a new cell, reusing the buffers of the last one. `slots` must
    /// come in non-decreasing [`Slot::len`] order with `sig_words`-word
    /// signatures (`0` switches the signature step off: a probe's
    /// signature is then empty too).
    pub fn rebuild<'a>(&mut self, sig_words: usize, slots: impl Iterator<Item = Slot<'a>>) {
        self.lens.clear();
        self.classes.clear();
        self.groups.clear();
        self.sigs.clear();
        self.entries.clear();
        self.directory.clear();
        self.starts.clear();
        self.sig_words = sig_words;
        let mut class = 0u32;
        for (slot, s) in slots.enumerate() {
            if let Some(&prev) = self.lens.last() {
                assert!(prev <= s.len, "slots must come in length order");
                class += u32::from(prev < s.len);
            }
            self.lens.push(s.len);
            self.classes.push(class);
            self.groups.push(s.group);
            assert_eq!(s.sig.len(), sig_words, "signature width");
            self.sigs.extend_from_slice(s.sig);
            for &t in s.tokens {
                let lists = self.starts.len() as u32;
                let list = *self.directory.entry(t).or_insert(lists);
                if list == lists {
                    self.starts.push(0);
                }
                self.starts[list as usize] += 1;
                self.entries.push((list, slot as u32));
            }
        }
        assert!(self.lens.len() <= u32::MAX as usize, "slots are u32");
        // Counting sort by list: list sizes -> list ends -> scatter from
        // the back, which leaves `starts` at the list starts and every list
        // in slot order.
        let mut end = 0u32;
        for start in &mut self.starts {
            end += *start;
            *start = end;
        }
        self.starts.push(end);
        self.slots.clear();
        self.slots.resize(end as usize, 0);
        for &(list, slot) in self.entries.iter().rev() {
            let at = &mut self.starts[list as usize];
            *at -= 1;
            self.slots[*at as usize] = slot;
        }
        self.marks.clear();
        self.marks.resize(self.lens.len(), Mark::default());
        self.epoch = 0;
        self.limits.clear();
        self.limits.resize(class as usize + 1, Limit::default());
    }

    /// The length window as a slot range: of the slots before `end`, those
    /// whose record length is at least `min_len`.
    pub fn window(&self, min_len: usize, end: usize) -> std::ops::Range<usize> {
        self.lens[..end].partition_point(|&l| (l as usize) < min_len)..end
    }

    /// Walk the posting lists of `probe.tokens` inside the slot range
    /// `window` ([`Self::window`]) and run the record-level cascade on
    /// every slot met for the first time: scope, then the signature row
    /// against the Hamming limit of the slot's length.
    /// `limit_of(partner_len)` is asked once per distinct
    /// `(probe.len, partner_len)` and returns what
    /// [`Verifier::hamming_limit`](ssj_similarity::Verifier::hamming_limit)
    /// does: the largest surviving Hamming distance, or `None` to let the
    /// partner through unread. Survivors are left in [`Self::hits`].
    ///
    /// Counts into `stats`: out-of-window postings (`window_skipped`),
    /// in-scope slots met (`pairs_considered`), and the signature step
    /// (`bitmap_checks` / `bitmap_pruned`).
    pub fn probe(
        &mut self,
        probe: &Slot<'_>,
        window: std::ops::Range<usize>,
        limit_of: impl Fn(u32) -> Option<i64>,
        stats: &mut FilterStats,
    ) {
        self.hits.clear();
        self.epoch += 1;
        let epoch = self.epoch;
        let (lo, hi) = (window.start as u32, window.end as u32);
        let words = self.sig_words;
        let (mut considered, mut checks, mut pruned, mut skipped) = (0u64, 0u64, 0u64, 0u64);
        for t in probe.tokens {
            let Some(&k) = self.directory.get(t) else {
                continue;
            };
            let list =
                &self.slots[self.starts[k as usize] as usize..self.starts[k as usize + 1] as usize];
            let from = list.partition_point(|&s| s < lo);
            skipped += from as u64;
            for &slot in &list[from..] {
                if slot >= hi {
                    break;
                }
                let s = slot as usize;
                let mark = &mut self.marks[s];
                if mark.epoch == epoch {
                    mark.shared += u32::from(mark.shared != 0);
                    continue;
                }
                *mark = Mark { epoch, shared: 0 };
                if self.groups[s] == probe.group {
                    continue;
                }
                considered += 1;
                let entry = &mut self.limits[self.classes[s] as usize];
                if entry.probe_len != probe.len {
                    *entry = Limit {
                        probe_len: probe.len,
                        limit: limit_of(self.lens[s]).map_or(UNCHECKED, |limit| {
                            limit.clamp(-1, i64::from(UNCHECKED - 1)) as i32
                        }),
                    };
                }
                let limit = entry.limit;
                let row = &self.sigs[s * words..(s + 1) * words];
                let hamming: u32 = row
                    .iter()
                    .zip(probe.sig)
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                checks += u64::from(limit != UNCHECKED);
                if hamming as i32 > limit {
                    pruned += 1;
                    continue;
                }
                mark.shared = 1;
                self.hits.push(slot);
            }
        }
        stats.window_skipped += skipped;
        stats.pairs_considered += considered;
        stats.bitmap_checks += checks;
        stats.bitmap_pruned += pruned;
    }

    /// Slots that survived the last [`Self::probe`], in discovery order.
    pub fn hits(&self) -> &[u32] {
        &self.hits
    }

    /// Indexed tokens a surviving slot shares with the last probe: the
    /// exact local overlap when whole segments are indexed and probed.
    pub fn shared(&self, slot: u32) -> u32 {
        self.marks[slot as usize].shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A cell of `(len, group, sig, tokens)` rows with one-word signatures.
    fn index(rows: &[(u32, u32, u64, &[u32])]) -> CellIndex {
        let sigs: Vec<[u64; 1]> = rows.iter().map(|r| [r.2]).collect();
        let mut index = CellIndex::default();
        index.rebuild(
            1,
            rows.iter().zip(&sigs).map(|(r, sig)| Slot {
                len: r.0,
                group: r.1,
                sig,
                tokens: r.3,
            }),
        );
        index
    }

    fn probe(tokens: &[u32], len: u32) -> Slot<'_> {
        Slot {
            tokens,
            len,
            group: u32::MAX,
            sig: &[0],
        }
    }

    #[test]
    fn the_window_is_a_slot_range_on_every_posting_list() {
        let index_rows: [(u32, u32, u64, &[u32]); 6] = [
            (2, 0, 0, &[7, 9]),
            (2, 1, 0, &[7]),
            (3, 2, 0, &[7, 9]),
            (5, 3, 0, &[9]),
            (5, 4, 0, &[7, 9]),
            (8, 5, 0, &[7, 9]),
        ];
        let mut index = index(&index_rows);
        // Lengths ≥ 3 among the slots before slot 5.
        assert_eq!(index.window(3, 5), 2..5);
        assert_eq!(index.window(0, 5), 0..5);
        assert_eq!(index.window(9, 5), 5..5);
        assert_eq!(index.window(6, 6), 5..6);
        let mut stats = FilterStats::default();
        index.probe(&probe(&[7, 8, 9], 8), 2..5, |_| None, &mut stats);
        // Token 7 lists slots 0 1 2 4 5, token 9 lists 0 2 3 4 5.
        assert_eq!(index.hits(), [2, 4, 3]);
        assert_eq!(stats.window_skipped, 2 + 1, "postings below slot 2");
        assert_eq!(stats.pairs_considered, 3);
        assert_eq!((stats.bitmap_checks, stats.bitmap_pruned), (0, 0));
        assert_eq!(
            [2, 3, 4].map(|s| index.shared(s)),
            [2, 1, 2],
            "shared indexed tokens per survivor"
        );
    }

    #[test]
    fn scope_and_signature_run_once_per_slot_met() {
        // Slot 1 is in the probe's group; slot 2's row is 3 bits from the
        // probe's, slot 0's is 1 bit away.
        let rows: [(u32, u32, u64, &[u32]); 3] = [
            (4, 0, 0b0001, &[1, 2, 3]),
            (4, 9, 0b0000, &[1, 2, 3]),
            (6, 2, 0b0111, &[1, 2, 3]),
        ];
        let mut index = index(&rows);
        let asked = Cell::new(0);
        let limit_of = |partner_len: u32| {
            asked.set(asked.get() + 1);
            // Lengths 4 and 6 both allow two differing bits.
            assert!(partner_len == 4 || partner_len == 6);
            Some(2)
        };
        let mut stats = FilterStats::default();
        let p = Slot {
            group: 9,
            ..probe(&[1, 2, 3], 7)
        };
        index.probe(&p, 0..3, limit_of, &mut stats);
        assert_eq!(index.hits(), [0]);
        assert_eq!(stats.pairs_considered, 2, "the own-group slot is no pair");
        assert_eq!((stats.bitmap_checks, stats.bitmap_pruned), (2, 1));
        assert_eq!(index.shared(0), 3);
        assert_eq!(index.shared(2), 0, "a dropped slot counts nothing");
        assert_eq!(asked.get(), 2, "one limit per partner length");
        // A second probe of the same length reuses both limits; a probe of
        // another length asks again.
        index.probe(&p, 0..3, limit_of, &mut stats);
        assert_eq!(asked.get(), 2);
        index.probe(&Slot { len: 8, ..p }, 0..3, limit_of, &mut stats);
        assert_eq!(asked.get(), 4);
    }

    #[test]
    fn negative_limits_drop_and_no_limit_passes_every_distance() {
        let rows: [(u32, u32, u64, &[u32]); 2] = [(3, 0, 0, &[5]), (4, 1, u64::MAX, &[5])];
        let mut index = index(&rows);
        let mut stats = FilterStats::default();
        // Length 3: no distance survives. Length 4: not read at all.
        let limit_of = |len: u32| (len == 3).then_some(-7);
        index.probe(&probe(&[5], 9), 0..2, limit_of, &mut stats);
        assert_eq!(index.hits(), [1]);
        assert_eq!((stats.bitmap_checks, stats.bitmap_pruned), (1, 1));
    }

    #[test]
    fn rebuild_forgets_the_last_cell() {
        let first: [(u32, u32, u64, &[u32]); 2] = [(3, 0, 0, &[5, 6]), (3, 1, 0, &[5])];
        let mut index = index(&first);
        let mut stats = FilterStats::default();
        index.probe(&probe(&[5, 6], 3), 0..2, |_| Some(0), &mut stats);
        assert_eq!(index.hits(), [0, 1]);
        // Same shape, other tokens and lengths: no mark, limit or posting
        // of the first cell may show through.
        let sig = [0u64];
        index.rebuild(
            1,
            [(7u32, &[6u32][..]), (9, &[8][..])]
                .into_iter()
                .enumerate()
                .map(|(i, (len, tokens))| Slot {
                    len,
                    group: i as u32,
                    sig: &sig,
                    tokens,
                }),
        );
        let asked = Cell::new(0);
        index.probe(
            &probe(&[5, 6], 3),
            0..2,
            |_| {
                asked.set(asked.get() + 1);
                Some(0)
            },
            &mut stats,
        );
        assert_eq!(index.hits(), [0]);
        assert_eq!(index.shared(0), 1);
        assert_eq!(asked.get(), 1);
        // An empty cell is a cell too.
        index.rebuild(0, std::iter::empty());
        assert_eq!(index.window(0, 0), 0..0);
    }
}
