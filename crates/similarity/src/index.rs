//! The one prefix index of the in-memory joins: a cell's records in
//! record-length order, as dense columns plus CSR postings (DESIGN.md §4).
//! A *cell* is any set of records indexed at once: a fragment cell of
//! FS-Join, a RIDPairs token group, or a whole collection.
//!
//! The fragment join's Index and Prefix kernels, PF discovery and
//! [PPJoin](crate::ppjoin) all have the same shape — index some tokens of
//! every record (or segment) of a cell, then probe with each one's tokens
//! and run a cascade on every distinct partner reached. What the cascade
//! decides first depends on the two *records* only: the string-length
//! filter and the record signature. Slots are therefore laid out in
//! record-length order, which turns those two into work done on the
//! posting list instead of on a materialised pair:
//!
//! * **StrL is a range.** A probe may pair with record lengths
//!   `≥ min_partner_len(θ, |probe|)`; on length-sorted slots that is a slot
//!   range, found by one `partition_point` on the length column
//!   ([`CellIndex::window`]) and one per posting list (lists ascend by
//!   slot). Out-of-window postings are skipped, not visited
//!   ([`ProbeCounts::window_skipped`]).
//! * **Stamps deduplicate.** A per-slot mark says whether the current probe
//!   already met the slot, and for survivors counts the shared indexed
//!   tokens (the Index kernel's exact local overlap).
//! * **The positional bound is a compare.** Each posting carries the
//!   record position of its token ([`Slot::head`] plus the token's offset),
//!   so at a meet PPJoin's bound (Xiao et al., WWW'08) — the tokens shared
//!   so far plus the fewer tokens either record has left from here —
//!   is two subtractions against the pair's α
//!   ([`ProbeCounts::position_pruned`]). A slot it drops on a later meet
//!   leaves the survivors.
//! * **The signature is a compare.** For a fixed probe length the bitmap
//!   bound of [`Verifier::signature`](crate::Verifier::signature)
//!   depends on the partner's length alone, so it is solved once per
//!   `(probe length, partner length)` for the largest surviving Hamming
//!   distance ([`Verifier::hamming_limit`](crate::Verifier::hamming_limit))
//!   and the walk compares an XOR-popcount of two contiguous signature rows
//!   against it: no record load, no float math, no pool access.
//!
//! Only survivors ([`CellIndex::hits`]) go back to the caller's per-pair
//! code. The index is owned by its caller (a reducer keeps one for all its
//! cells) and rebuilt per cell into the same buffers: one hash lookup per
//! indexed token to number the posting lists, then a counting sort — no
//! per-list allocation.

use ssj_common::FxHashMap;

/// [`Limit::limit`] of a partner length the signature step lets through
/// unread: the saturation guard held the bitmaps back, or the step is off.
/// No Hamming distance exceeds it.
const UNCHECKED: i32 = i32::MAX;

/// One record or segment as the index sees it — an indexed slot, or the
/// probe.
#[derive(Debug, Clone, Copy)]
pub struct Slot<'a> {
    /// Full record length `|s|` (≥ 1).
    pub len: u32,
    /// Record position of `tokens[0]`: the segment's head where `tokens`
    /// are record tokens in place (PF), 0 where they are the record's
    /// prefix (PPJoin) or where the caller's α is 0 and the positional
    /// bound never prunes (the fragment kernels).
    pub head: u32,
    /// The record's signature, `sig_words` words.
    pub sig: &'a [u64],
    /// The tokens to index or to probe with (ascending).
    pub tokens: &'a [u32],
}

/// What one [`CellIndex::probe`] counted; the caller adds it to its own
/// statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// Postings below the window, skipped without a visit.
    pub window_skipped: u64,
    /// Slots met: one per distinct partner in the window.
    pub pairs_considered: u64,
    /// Slots the positional bound dropped, once per slot.
    pub position_pruned: u64,
    /// Signature rows compared against a Hamming limit.
    pub bitmap_checks: u64,
    /// Slots the signature dropped.
    pub bitmap_pruned: u64,
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

/// The Hamming limit and α of one partner-length class, for one probe
/// length.
#[derive(Debug, Clone, Copy, Default)]
struct Limit {
    /// Probe length the limit was computed for (0: none yet).
    probe_len: u32,
    /// Largest surviving Hamming distance, or [`UNCHECKED`].
    limit: i32,
    /// Overlap the pair needs: the positional bound's target.
    alpha: u32,
}

/// See the module docs.
#[derive(Debug, Default)]
pub struct CellIndex {
    // Per-slot columns.
    lens: Vec<u32>,
    /// Number of distinct lengths below the slot's: the row of `limits`.
    classes: Vec<u32>,
    sig_words: usize,
    sigs: Vec<u64>,
    // CSR postings: `slots[starts[k]..starts[k + 1]]` lists, ascending, the
    // slots that index the token `directory` numbers `k`; `posts` holds the
    // token's record position in each.
    directory: FxHashMap<u32, u32>,
    starts: Vec<u32>,
    slots: Vec<u32>,
    posts: Vec<u32>,
    /// Build scratch: the list of every posting, in slot order. Slot `s`
    /// posts `lists[firsts[s]..firsts[s + 1]]`, from record position
    /// `heads[s]` on.
    lists: Vec<u32>,
    firsts: Vec<u32>,
    heads: Vec<u32>,
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
        self.sigs.clear();
        self.lists.clear();
        self.firsts.clear();
        self.heads.clear();
        self.directory.clear();
        self.starts.clear();
        self.sig_words = sig_words;
        let mut class = 0u32;
        for s in slots {
            if let Some(&prev) = self.lens.last() {
                assert!(prev <= s.len, "slots must come in length order");
                class += u32::from(prev < s.len);
            }
            self.lens.push(s.len);
            self.classes.push(class);
            assert_eq!(s.sig.len(), sig_words, "signature width");
            self.sigs.extend_from_slice(s.sig);
            assert!(
                s.head as usize + s.tokens.len() <= s.len as usize,
                "tokens lie inside the record"
            );
            self.firsts.push(self.lists.len() as u32);
            self.heads.push(s.head);
            for &t in s.tokens {
                let lists = self.starts.len() as u32;
                let list = *self.directory.entry(t).or_insert(lists);
                if list == lists {
                    self.starts.push(0);
                }
                self.starts[list as usize] += 1;
                self.lists.push(list);
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
        self.posts.clear();
        self.posts.resize(end as usize, 0);
        self.firsts.push(end);
        for slot in (0..self.lens.len()).rev() {
            let first = self.firsts[slot];
            for e in (first..self.firsts[slot + 1]).rev() {
                let at = &mut self.starts[self.lists[e as usize] as usize];
                *at -= 1;
                self.slots[*at as usize] = slot as u32;
                self.posts[*at as usize] = self.heads[slot] + (e - first);
            }
        }
        self.marks.clear();
        self.marks.resize(self.lens.len(), Mark::default());
        self.epoch = 0;
        self.limits.clear();
        self.limits.resize(class as usize + 1, Limit::default());
    }

    /// The length window as a slot range: of the slots before `end`, those
    /// whose record length is at least `min_len`.
    #[inline]
    pub fn window(&self, min_len: usize, end: usize) -> std::ops::Range<usize> {
        self.lens[..end].partition_point(|&l| (l as usize) < min_len)..end
    }

    /// Walk the posting lists of `probe.tokens` inside the slot range
    /// `window` ([`Self::window`]) and run the record-level cascade on
    /// every slot met: on the first meet the positional bound, then the
    /// signature row against the Hamming limit of the slot's length; on
    /// every later meet the positional bound again, with the tokens shared
    /// so far. The window must not hold the probe's own record — callers
    /// probe each slot with the slots before it, or with segments not
    /// indexed at all — so every slot met is a pair.
    /// `limit_of(partner_len)` is asked once per distinct
    /// `(probe.len, partner_len)` and returns two values. The first is
    /// what [`Verifier::hamming_limit`](crate::Verifier::hamming_limit)
    /// returns: the largest surviving Hamming distance, or `None` to let
    /// the partner through unread. The second is the overlap α the pair
    /// needs. A slot met at probe offset `i` and record position `q`
    /// stays only while `shared + min(|probe| − (probe.head + i),
    /// |slot| − q) ≥ α`; α = 0 keeps every slot. Survivors are left in
    /// [`Self::hits`].
    ///
    /// Returns its counts: out-of-window postings (`window_skipped`),
    /// slots met (`pairs_considered`), the positional bound's drops
    /// (`position_pruned`, once per slot) and the signature step
    /// (`bitmap_checks` / `bitmap_pruned`).
    pub fn probe(
        &mut self,
        probe: &Slot<'_>,
        window: std::ops::Range<usize>,
        limit_of: impl Fn(u32) -> (Option<i64>, usize),
    ) -> ProbeCounts {
        assert!(
            probe.head as usize + probe.tokens.len() <= probe.len as usize,
            "tokens lie inside the record"
        );
        self.hits.clear();
        self.epoch += 1;
        let epoch = self.epoch;
        let (lo, hi) = (window.start as u32, window.end as u32);
        let words = self.sig_words;
        let (mut considered, mut checks, mut pruned, mut skipped) = (0u64, 0u64, 0u64, 0u64);
        let (mut position, mut dropped_late) = (0u64, false);
        for (t, pos) in probe.tokens.iter().zip(probe.head..) {
            let Some(&k) = self.directory.get(t) else {
                continue;
            };
            let range = self.starts[k as usize] as usize..self.starts[k as usize + 1] as usize;
            let (list, posts) = (&self.slots[range.clone()], &self.posts[range]);
            let from = list.partition_point(|&s| s < lo);
            skipped += from as u64;
            // Probe tokens from this one on.
            let probe_left = probe.len - pos;
            for (&slot, &q) in list[from..].iter().zip(&posts[from..]) {
                if slot >= hi {
                    break;
                }
                let s = slot as usize;
                let bound = probe_left.min(self.lens[s] - q);
                let mark = &mut self.marks[s];
                if mark.epoch == epoch {
                    if mark.shared == 0 {
                        continue;
                    }
                    if mark.shared + bound >= self.limits[self.classes[s] as usize].alpha {
                        mark.shared += 1;
                    } else {
                        mark.shared = 0;
                        position += 1;
                        dropped_late = true;
                    }
                    continue;
                }
                *mark = Mark { epoch, shared: 0 };
                considered += 1;
                let entry = &mut self.limits[self.classes[s] as usize];
                if entry.probe_len != probe.len {
                    let (limit, alpha) = limit_of(self.lens[s]);
                    *entry = Limit {
                        probe_len: probe.len,
                        limit: limit.map_or(UNCHECKED, |limit| {
                            limit.clamp(-1, i64::from(UNCHECKED - 1)) as i32
                        }),
                        alpha: alpha.min(u32::MAX as usize) as u32,
                    };
                }
                if bound < entry.alpha {
                    position += 1;
                    continue;
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
        if dropped_late {
            let marks = &self.marks;
            self.hits.retain(|&s| marks[s as usize].shared != 0);
        }
        ProbeCounts {
            window_skipped: skipped,
            pairs_considered: considered,
            position_pruned: position,
            bitmap_checks: checks,
            bitmap_pruned: pruned,
        }
    }

    /// Slots that survived the last [`Self::probe`], in discovery order.
    #[inline]
    pub fn hits(&self) -> &[u32] {
        &self.hits
    }

    /// Indexed tokens a surviving slot shares with the last probe: the
    /// exact local overlap when whole segments are indexed and probed.
    #[inline]
    pub fn shared(&self, slot: u32) -> u32 {
        self.marks[slot as usize].shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    type Row<'a> = (u32, u64, &'a [u32]);

    /// A cell of `(len, sig, tokens)` rows with one-word signatures.
    fn index(rows: &[Row<'_>]) -> CellIndex {
        index_placed(rows, |_| 0)
    }

    /// [`index`] with each row's tokens at record position `head(row)`.
    fn index_placed(rows: &[Row<'_>], head: impl Fn(&Row<'_>) -> u32) -> CellIndex {
        let sigs: Vec<[u64; 1]> = rows.iter().map(|r| [r.1]).collect();
        let mut index = CellIndex::default();
        index.rebuild(
            1,
            rows.iter().zip(&sigs).map(|(r, sig)| Slot {
                len: r.0,
                head: head(r),
                sig,
                tokens: r.2,
            }),
        );
        index
    }

    /// A cell of `(len, head, tokens)` segments without signatures, and
    /// its probes.
    fn segments(rows: &[(u32, u32, &[u32])]) -> CellIndex {
        let mut index = CellIndex::default();
        index.rebuild(
            0,
            rows.iter().map(|&(len, head, tokens)| Slot {
                len,
                head,
                sig: &[],
                tokens,
            }),
        );
        index
    }

    fn segment(len: u32, head: u32, tokens: &[u32]) -> Slot<'_> {
        Slot {
            len,
            head,
            sig: &[],
            tokens,
        }
    }

    fn probe(tokens: &[u32], len: u32) -> Slot<'_> {
        Slot {
            tokens,
            len,
            head: 0,
            sig: &[0],
        }
    }

    #[test]
    fn the_window_is_a_slot_range_on_every_posting_list() {
        let index_rows: [(u32, u64, &[u32]); 6] = [
            (2, 0, &[7, 9]),
            (2, 0, &[7]),
            (3, 0, &[7, 9]),
            (5, 0, &[9]),
            (5, 0, &[7, 9]),
            (8, 0, &[7, 9]),
        ];
        let mut index = index(&index_rows);
        // Lengths ≥ 3 among the slots before slot 5.
        assert_eq!(index.window(3, 5), 2..5);
        assert_eq!(index.window(0, 5), 0..5);
        assert_eq!(index.window(9, 5), 5..5);
        assert_eq!(index.window(6, 6), 5..6);
        let stats = index.probe(&probe(&[7, 8, 9], 8), 2..5, |_| (None, 0));
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
    fn the_signature_runs_once_per_slot_met() {
        // Slot 1's row is 3 bits from the probe's, slot 0's is 1 bit away.
        let rows: [(u32, u64, &[u32]); 2] = [(4, 0b0001, &[1, 2, 3]), (6, 0b0111, &[1, 2, 3])];
        let mut index = index(&rows);
        let asked = Cell::new(0);
        let limit_of = |partner_len: u32| {
            asked.set(asked.get() + 1);
            // Lengths 4 and 6 both allow two differing bits.
            assert!(partner_len == 4 || partner_len == 6);
            (Some(2), 0)
        };
        let p = probe(&[1, 2, 3], 7);
        let stats = index.probe(&p, 0..2, limit_of);
        assert_eq!(index.hits(), [0]);
        assert_eq!(stats.pairs_considered, 2);
        assert_eq!((stats.bitmap_checks, stats.bitmap_pruned), (2, 1));
        assert_eq!(index.shared(0), 3);
        assert_eq!(index.shared(1), 0, "a dropped slot counts nothing");
        assert_eq!(asked.get(), 2, "one limit per partner length");
        // A second probe of the same length reuses both limits; a probe of
        // another length asks again.
        index.probe(&p, 0..2, limit_of);
        assert_eq!(asked.get(), 2);
        index.probe(&Slot { len: 8, ..p }, 0..2, limit_of);
        assert_eq!(asked.get(), 4);
    }

    #[test]
    fn negative_limits_drop_and_no_limit_passes_every_distance() {
        let rows: [(u32, u64, &[u32]); 2] = [(3, 0, &[5]), (4, u64::MAX, &[5])];
        let mut index = index(&rows);
        // Length 3: no distance survives. Length 4: not read at all.
        let limit_of = |len: u32| ((len == 3).then_some(-7), 0);
        let stats = index.probe(&probe(&[5], 9), 0..2, limit_of);
        assert_eq!(index.hits(), [1]);
        assert_eq!((stats.bitmap_checks, stats.bitmap_pruned), (1, 1));
    }

    #[test]
    fn rebuild_forgets_the_last_cell() {
        let first: [(u32, u64, &[u32]); 2] = [(3, 0, &[5, 6]), (3, 0, &[5])];
        let mut index = index(&first);
        index.probe(&probe(&[5, 6], 3), 0..2, |_| (Some(0), 0));
        assert_eq!(index.hits(), [0, 1]);
        // Same shape, other tokens and lengths: no mark, limit or posting
        // of the first cell may show through.
        let sig = [0u64];
        index.rebuild(
            1,
            [(7u32, &[6u32][..]), (9, &[8][..])]
                .into_iter()
                .map(|(len, tokens)| Slot {
                    len,
                    head: 0,
                    sig: &sig,
                    tokens,
                }),
        );
        let asked = Cell::new(0);
        index.probe(&probe(&[5, 6], 3), 0..2, |_| {
            asked.set(asked.get() + 1);
            (Some(0), 0)
        });
        assert_eq!(index.hits(), [0]);
        assert_eq!(index.shared(0), 1);
        assert_eq!(asked.get(), 1);
        // An empty cell is a cell too.
        index.rebuild(0, std::iter::empty());
        assert_eq!(index.window(0, 0), 0..0);
    }

    #[test]
    fn a_first_meet_stays_at_alpha_and_drops_one_below() {
        // Token 5 sits at position 1 of a 6-token record (5 tokens left)
        // and at position 3 of a 7-token one (4 left); the probe has 7
        // tokens left from it. Both pairs need α = 5.
        let mut index = segments(&[(6, 1, &[5]), (7, 3, &[5])]);
        let stats = index.probe(&segment(10, 3, &[5]), 0..2, |_| (None, 5));
        assert_eq!(index.hits(), [0], "ub == α stays, ub == α − 1 goes");
        assert_eq!((stats.pairs_considered, stats.position_pruned), (2, 1));
        assert_eq!((stats.bitmap_checks, stats.bitmap_pruned), (0, 0));
        assert_eq!(index.shared(1), 0);
    }

    #[test]
    fn a_later_meet_drops_a_slot_from_the_hits_once() {
        // α = 4 against a 5-token probe. Slot 0 shares its whole prefix
        // with it; slot 1 shares token 1, then meets token 8 with one
        // token shared and two probe tokens left: 1 + 2 < 4. Its meet at
        // token 9 after that is no second drop.
        let cell: [(u32, u32, &[u32]); 2] = [(5, 0, &[1, 6, 7, 8]), (10, 0, &[1, 8, 9])];
        let mut index = segments(&cell);
        let p = segment(5, 0, &[1, 6, 7, 8, 9]);
        let stats = index.probe(&p, 0..2, |_| (None, 4));
        assert_eq!(index.hits(), [0]);
        assert_eq!(stats.pairs_considered, 2);
        assert_eq!(stats.position_pruned, 1, "counted once");
        assert_eq!((index.shared(0), index.shared(1)), (4, 0));
        // The same cell at α = 3 (a new index: α is cached per probe
        // length): slot 1 holds on (1 + 2 ≥ 3, then 2 + 1 ≥ 3) and shares
        // its three tokens.
        let mut index = segments(&cell);
        let stats = index.probe(&p, 0..2, |_| (None, 3));
        assert_eq!(index.hits(), [0, 1]);
        assert_eq!((index.shared(0), index.shared(1)), (4, 3));
        assert_eq!(stats.position_pruned, 0);
    }

    #[test]
    fn rebuild_forgets_the_last_cells_positions() {
        // Token 5 at position 0 of a 10-token record passes α = 3 ...
        let mut index = segments(&[(10, 0, &[5, 6, 7]), (10, 0, &[5])]);
        let p = segment(10, 0, &[5]);
        let stats = index.probe(&p, 0..2, |_| (None, 3));
        assert_eq!(index.hits(), [0, 1]);
        assert_eq!(stats.position_pruned, 0);
        // ... and at position 8 of one it cannot: 2 tokens are left.
        index.rebuild(0, [segment(10, 8, &[5]), segment(10, 0, &[5])].into_iter());
        let stats = index.probe(&p, 0..2, |_| (None, 3));
        assert_eq!(index.hits(), [1]);
        assert_eq!(stats.position_pruned, 1);
    }

    #[test]
    fn alpha_zero_leaves_hits_and_shared_as_they_were() {
        // The cells of the tests above, their tokens placed first and last
        // in their records: at α = 0 no position is ever read as a drop,
        // so hits, shared counts and counters are those the tests assert.
        let window: [Row<'_>; 6] = [
            (2, 0, &[7, 9]),
            (2, 0, &[7]),
            (3, 0, &[7, 9]),
            (5, 0, &[9]),
            (5, 0, &[7, 9]),
            (8, 0, &[7, 9]),
        ];
        let signature: [Row<'_>; 2] = [(4, 0b0001, &[1, 2, 3]), (6, 0b0111, &[1, 2, 3])];
        let cells: [(&[Row<'_>], &[u32], u32, _); 2] = [
            (&window, &[7, 8, 9], 8, 2..5),
            (&signature, &[1, 2, 3], 7, 0..2),
        ];
        for (rows, tokens, len, range) in cells {
            let run = |last: bool| {
                let place = |len: u32, n: usize| if last { len - n as u32 } else { 0 };
                let mut index = index_placed(rows, |r| place(r.0, r.2.len()));
                let p = Slot {
                    head: place(len, tokens.len()),
                    ..probe(tokens, len)
                };
                let stats = index.probe(&p, range.clone(), |_| (Some(2), 0));
                let hits = index.hits().to_vec();
                let shared: Vec<u32> = hits.iter().map(|&s| index.shared(s)).collect();
                (hits, shared, stats)
            };
            let first = run(false);
            assert_eq!(first.2.position_pruned, 0);
            assert_eq!(first, run(true));
        }
    }
}
