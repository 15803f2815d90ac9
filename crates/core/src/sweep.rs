//! The Sweep kernel's filter stage: decide every record pair once, in the
//! map tasks, and ship each segment only to the cells where a surviving
//! pair meets (DESIGN.md §4 item 4d).
//!
//! StrL and the record signature look at two *records*, never at a cell,
//! so their verdict on a pair is the same in every cell the pair meets
//! in. The paper's kernels still decide them per cell: on short records a
//! pair shares a local prefix token in several fragments and is decided
//! once in each. [`Sweep`] holds the records as dense columns in
//! `(len, rid)` order — length, signature row and the set of fragments
//! the record occupies — so a map task decides its record's
//! partners by one sweep over the record's StrL window: a slot range,
//! one Hamming limit per partner length and an XOR-popcount per partner,
//! as in [`CellIndex::probe`](ssj_similarity::index::CellIndex::probe) but
//! without a posting list.
//!
//! For each survivor the map task finds where the pair meets: the one
//! horizontal partition both records belong to whose [`JoinRule`] admits
//! them, times each fragment both occupy. The record's segment ships to
//! those cells only, as a [`ListedSegment`] carrying the partners for
//! which this record is the later side in `(len, rid)` order — so each
//! `(pair, cell)` meeting is listed once. The reducer counts nothing but
//! the listed pairs ([`FragmentJoin::join_listed`]).
//!
//! Every unordered pair is swept twice, once from each record's map task:
//! each record must learn all of its partners to know where to ship.

use crate::config::FsJoinConfig;
use crate::filters::{strl_pass, FilterStats};
use crate::fragment::{FragmentJoin, JoinKernel};
use crate::horizontal::{h_partitions_for, JoinRule};
use crate::segment::Segment;
use crate::vertical::split_record;
use ssj_common::ByteSize;
use ssj_mapreduce::{Emitter, GroupValues, Mapper, StreamingReducer};
use ssj_observe::MetricsRegistry;
use ssj_similarity::{Measure, Verifier};
use ssj_text::{PooledRecord, TokenPool};
use std::ops::Range;
use std::sync::Arc;

/// Position of an empty record in [`Sweep`]'s `position` column: it is in
/// no column and pairs with nothing.
const ABSENT: u32 = u32::MAX;

/// The sweep's side data: every non-empty record as a row of dense
/// columns in `(len, rid)` order, plus the parameters the rows are
/// decided and routed by. With 128-bit signatures and up to 64 fragments
/// that is 36 B per record: 4 each for its id, length and position, 16
/// for its signature and 8 for its fragment set.
#[derive(Debug)]
pub struct Sweep {
    /// Record ids in `(len, rid)` order.
    order: Vec<u32>,
    /// Record length per row.
    lens: Vec<u32>,
    sig_words: usize,
    /// Signature rows, `sig_words` words each.
    sigs: Vec<u64>,
    frag_words: usize,
    /// Fragment-set rows: bit `v` of a row is set when the record has a
    /// segment in fragment `v`.
    frags: Vec<u64>,
    /// Row of each record id, or [`ABSENT`].
    position: Vec<u32>,
    pivots: Vec<u32>,
    h_pivots: Vec<u32>,
    measure: Measure,
    theta: f64,
    strl: bool,
}

impl Sweep {
    /// Lay out the columns of `pool`'s records. `pivots` and `h_pivots`
    /// are the run's vertical and horizontal pivots; measure, θ and StrL
    /// come from `cfg`.
    pub fn new(pool: &TokenPool, pivots: &[u32], h_pivots: &[u32], cfg: &FsJoinConfig) -> Sweep {
        let mut order: Vec<u32> = (0..pool.len() as u32)
            .filter(|&rid| !pool.span_of(rid).is_empty())
            .collect();
        order.sort_unstable_by_key(|&rid| (pool.span_of(rid).len, rid));
        let sig_words = pool.bitmap_bits() / 64;
        let frag_words = (pivots.len() + 1).div_ceil(64);
        let mut sweep = Sweep {
            lens: Vec::with_capacity(order.len()),
            sig_words,
            sigs: Vec::with_capacity(order.len() * sig_words),
            frag_words,
            frags: vec![0; order.len() * frag_words],
            position: vec![ABSENT; pool.len()],
            pivots: pivots.to_vec(),
            h_pivots: h_pivots.to_vec(),
            measure: cfg.measure,
            theta: cfg.theta,
            strl: cfg.filters.strl,
            order,
        };
        for (row, &rid) in sweep.order.iter().enumerate() {
            let tokens = pool.tokens_of(rid);
            sweep.position[rid as usize] = row as u32;
            sweep.lens.push(tokens.len() as u32);
            sweep.sigs.extend_from_slice(pool.bitmap_of(rid));
            // Fragment of a token: the number of pivots at or below it
            // (`split_record`'s cut).
            let frags = &mut sweep.frags[row * frag_words..(row + 1) * frag_words];
            let mut v = 0;
            for &t in tokens {
                while v < pivots.len() && pivots[v] <= t {
                    v += 1;
                }
                frags[v / 64] |= 1 << (v % 64);
            }
        }
        sweep
    }

    /// Row of record `rid`, or `None` for an empty record.
    pub fn position(&self, rid: u32) -> Option<usize> {
        let row = *self.position.get(rid as usize)?;
        (row != ABSENT).then_some(row as usize)
    }

    /// Record id of row `row`.
    pub fn record_at(&self, row: usize) -> u32 {
        self.order[row]
    }

    /// Rows whose records pass StrL with row `row`'s (itself included): a
    /// contiguous range, since the rows ascend by length. Every row with
    /// StrL off.
    pub fn window(&self, row: usize) -> Range<usize> {
        if !self.strl {
            return 0..self.lens.len();
        }
        let (m, theta, len) = (self.measure, self.theta, self.lens[row]);
        let lo = self.lens[..row].partition_point(|&l| !strl_pass(m, theta, l, len));
        let hi = row + 1 + self.lens[row + 1..].partition_point(|&l| strl_pass(m, theta, len, l));
        lo..hi
    }

    /// Decide row `row`'s partners: every other row of its StrL
    /// [`Self::window`] goes through the signature, compared against the
    /// Hamming limit of its length ([`Verifier::hamming_limit`], solved
    /// once per length). Pushes the surviving rows onto `survivors` in row
    /// order.
    pub fn sweep(&self, row: usize, survivors: &mut Vec<u32>, stats: &mut SweepStats) {
        let window = self.window(row);
        let before = survivors.len();
        // The default 128-bit signatures get a loop the compiler unrolls.
        let pruned = match self.sig_words {
            2 => self.sweep_window::<2>(row, window.clone(), survivors),
            _ => self.sweep_window::<0>(row, window.clone(), survivors),
        };
        stats.swept += window.len() as u64 - 1;
        stats.bitmap_pruned += pruned;
        stats.survivors += (survivors.len() - before) as u64;
    }

    /// [`Self::sweep`]'s loop for `W`-word signatures (`W = 0`: any
    /// width). Returns the visits the signature pruned.
    fn sweep_window<const W: usize>(
        &self,
        row: usize,
        window: Range<usize>,
        survivors: &mut Vec<u32>,
    ) -> u64 {
        let w = if W == 0 { self.sig_words } else { W };
        let len = self.lens[row] as usize;
        let sig = &self.sigs[row * w..(row + 1) * w];
        let mut pruned = 0u64;
        let mut at = window.start;
        while at < window.end {
            let run_len = self.lens[at];
            let end = at + self.lens[at..window.end].partition_point(|&l| l == run_len);
            let alpha = self.measure.min_overlap(self.theta, run_len as usize, len);
            let limit =
                Verifier::hamming_limit(alpha, run_len as usize, len, w).unwrap_or(i64::MAX);
            let rows = self.sigs[at * w..end * w].chunks_exact(w);
            for (q, row_sig) in (at..end).zip(rows) {
                // The window holds the record itself: no pair.
                if q == row {
                    continue;
                }
                let hamming: u32 = row_sig
                    .iter()
                    .zip(sig)
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                if i64::from(hamming) > limit {
                    pruned += 1;
                } else {
                    survivors.push(q as u32);
                }
            }
            at = end;
        }
        pruned
    }

    /// The horizontal partition where rows `p` and `q` are joined: the one
    /// in both records' [`h_partitions_for`] lists (`hs_p` is row `p`'s)
    /// whose [`JoinRule`] admits their lengths, if any.
    fn meeting_partition(&self, hs_p: &[usize], p: usize, q: usize) -> Option<usize> {
        let (len_p, len_q) = (self.lens[p], self.lens[q]);
        let hs_q = h_partitions_for(len_q as usize, &self.h_pivots, self.measure, self.theta);
        hs_p.iter().copied().find(|h| {
            hs_q.contains(h) && JoinRule::for_partition(*h, &self.h_pivots).joinable(len_p, len_q)
        })
    }

    /// Fragments both rows occupy, ascending.
    fn shared_fragments(&self, p: usize, q: usize) -> impl Iterator<Item = usize> + '_ {
        let w = self.frag_words;
        let (a, b) = (
            &self.frags[p * w..(p + 1) * w],
            &self.frags[q * w..(q + 1) * w],
        );
        a.iter().zip(b).enumerate().flat_map(|(k, (x, y))| {
            let mut bits = x & y;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let v = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    k * 64 + v
                })
            })
        })
    }

    /// Fragments row `row` occupies.
    fn fragment_count(&self, row: usize) -> usize {
        let w = self.frag_words;
        self.frags[row * w..(row + 1) * w]
            .iter()
            .map(|x| x.count_ones() as usize)
            .sum()
    }
}

/// The filter stage's shuffle value under Sweep: a segment and the
/// partners it is the later side of in its cell, in `(len, rid)` order.
#[derive(Debug, Clone)]
pub struct ListedSegment {
    /// The segment.
    pub seg: Segment,
    /// Record ids of the earlier sides of the pairs listed in this cell.
    pub partners: Vec<u32>,
}

impl ByteSize for ListedSegment {
    /// The segment, a 4 B partner count and 4 B per partner.
    fn byte_size(&self) -> usize {
        self.seg.byte_size() + self.partners.byte_size()
    }
}

/// The sweep's counters (`fsjoin.sweep.*`), summed over a run's tasks.
///
/// Two laws hold ([`Self::unaccounted`], [`Self::unlisted`]). Every
/// `(record, partner)` the sweep visits ends in one step:
/// `swept = bitmap_pruned + survivors`. Every listed
/// `(pair, cell)` meeting ends in the collision test or in the segment
/// steps: `listed = prefix_missed + pairs_considered` of the run's
/// [`FilterStats`]. Visits are directed — each record sweeps its own
/// window — so the unordered pairs are half of `swept` and of `survivors`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// `(record, partner)` visits inside StrL windows, the record itself
    /// not counted.
    pub swept: u64,
    /// Visits the signature settled: the partner's bitmap is farther from
    /// the record's than any pair reaching θ allows.
    pub bitmap_pruned: u64,
    /// Visits that survived the signature.
    pub survivors: u64,
    /// `(pair, cell)` meetings listed to the reducers, each once (by the
    /// later side).
    pub listed: u64,
    /// Listed meetings whose two local prefixes share no token: the
    /// Prefix kernel never discovers them, so they are dropped uncounted.
    pub prefix_missed: u64,
    /// Segments shipped to a cell.
    pub segments_shipped: u64,
    /// Segments the walk kernels would ship that met no survivor in their
    /// cell: `segments_shipped + segments_cut` is their shuffle record
    /// count.
    pub segments_cut: u64,
}

impl SweepStats {
    /// `(counter name, value)` view of every field, under the canonical
    /// [`crate::keys`] names.
    pub fn fields(&self) -> [(&'static str, u64); 7] {
        use crate::keys;
        [
            (keys::SWEEP_SWEPT, self.swept),
            (keys::SWEEP_BITMAP_PRUNED, self.bitmap_pruned),
            (keys::SWEEP_SURVIVORS, self.survivors),
            (keys::SWEEP_LISTED, self.listed),
            (keys::SWEEP_PREFIX_MISSED, self.prefix_missed),
            (keys::SWEEP_SEGMENTS_SHIPPED, self.segments_shipped),
            (keys::SWEEP_SEGMENTS_CUT, self.segments_cut),
        ]
    }

    /// Add these counters into `registry`.
    pub fn record_to(&self, registry: &MetricsRegistry) {
        for (name, value) in self.fields() {
            registry.counter_add(name, value);
        }
    }

    /// Read counters recorded by [`Self::record_to`]; missing ones read 0.
    pub fn from_registry(registry: &MetricsRegistry) -> SweepStats {
        let get = |name| registry.counter_get(name);
        use crate::keys;
        SweepStats {
            swept: get(keys::SWEEP_SWEPT),
            bitmap_pruned: get(keys::SWEEP_BITMAP_PRUNED),
            survivors: get(keys::SWEEP_SURVIVORS),
            listed: get(keys::SWEEP_LISTED),
            prefix_missed: get(keys::SWEEP_PREFIX_MISSED),
            segments_shipped: get(keys::SWEEP_SEGMENTS_SHIPPED),
            segments_cut: get(keys::SWEEP_SEGMENTS_CUT),
        }
    }

    /// `swept` minus the two steps a visit ends in: 0 for a run.
    pub fn unaccounted(&self) -> i64 {
        self.swept as i64 - (self.bitmap_pruned + self.survivors) as i64
    }

    /// `listed` minus the two outcomes of a listed meeting, given the
    /// run's fragment-join counters: 0 for a run.
    pub fn unlisted(&self, filters: &FilterStats) -> i64 {
        self.listed as i64 - (self.prefix_missed + filters.pairs_considered) as i64
    }
}

/// Sweep's filter-stage mapper: sweep the record, list its survivors per
/// meeting cell, ship its segments there (DESIGN.md §4 item 4d).
pub(crate) struct SweepMapper {
    pool: Arc<TokenPool>,
    sweep: Arc<Sweep>,
    registry: Arc<MetricsRegistry>,
    stats: SweepStats,
    survivors: Vec<u32>,
    /// `(cell, partner)` per meeting; the partner when the record is the
    /// pair's later side.
    meets: Vec<(u32, Option<u32>)>,
}

impl SweepMapper {
    pub(crate) fn new(
        pool: Arc<TokenPool>,
        sweep: Arc<Sweep>,
        registry: Arc<MetricsRegistry>,
    ) -> SweepMapper {
        SweepMapper {
            pool,
            sweep,
            registry,
            stats: SweepStats::default(),
            survivors: Vec::new(),
            meets: Vec::new(),
        }
    }
}

impl Mapper for SweepMapper {
    type InKey = u32;
    type InValue = PooledRecord;
    type OutKey = u32; // cell id = h * num_fragments + v
    type OutValue = ListedSegment;

    fn map(&mut self, _rid: u32, record: PooledRecord, out: &mut Emitter<u32, ListedSegment>) {
        let sweep = &*self.sweep;
        let Some(p) = sweep.position(record.id) else {
            return;
        };
        self.survivors.clear();
        sweep.sweep(p, &mut self.survivors, &mut self.stats);
        let hs = h_partitions_for(
            sweep.lens[p] as usize,
            &sweep.h_pivots,
            sweep.measure,
            sweep.theta,
        );
        let num_fragments = sweep.pivots.len() + 1;
        self.meets.clear();
        for &q in &self.survivors {
            let q = q as usize;
            let Some(h) = sweep.meeting_partition(&hs, p, q) else {
                continue;
            };
            let partner = (q < p).then(|| sweep.order[q]);
            for v in sweep.shared_fragments(p, q) {
                self.meets.push(((h * num_fragments + v) as u32, partner));
            }
        }
        self.meets.sort_unstable();
        let mut shipped = 0u64;
        if !self.meets.is_empty() {
            let tokens = self.pool.resolve(record.span);
            let segments = split_record(record.id, 0, tokens, record.span, &sweep.pivots);
            for meets in self.meets.chunk_by(|a, b| a.0 == b.0) {
                let cell = meets[0].0;
                let v = cell as usize % num_fragments;
                let &(_, seg) = segments
                    .iter()
                    .find(|(k, _)| *k == v)
                    .expect("a shared fragment is one the record occupies");
                let partners: Vec<u32> = meets.iter().filter_map(|&(_, p)| p).collect();
                self.stats.listed += partners.len() as u64;
                out.emit(cell, ListedSegment { seg, partners });
                shipped += 1;
            }
        }
        self.stats.segments_shipped += shipped;
        self.stats.segments_cut += (hs.len() * sweep.fragment_count(p)) as u64 - shipped;
    }

    fn cleanup(&mut self, _out: &mut Emitter<u32, ListedSegment>) {
        self.stats.record_to(&self.registry);
        self.stats = SweepStats::default();
    }
}

/// Sweep's filter-stage reducer: count the pairs listed to one cell.
///
/// Each listed pair's earlier side is looked up among the cell's segments
/// (every partner shipped its segment here: the sweep's verdict and the
/// meeting cells are symmetric in the two records), then runs Prefix's
/// collision test and the segment steps ([`FragmentJoin::join_listed`]).
pub(crate) struct SweepReducer {
    pool: Arc<TokenPool>,
    cfg: FsJoinConfig,
    registry: Arc<MetricsRegistry>,
    filter_stats: FilterStats,
    sweep_stats: SweepStats,
    /// The cell's segments by record id, each with its partner range in
    /// `partners`.
    cell: Vec<(Segment, Range<usize>)>,
    partners: Vec<u32>,
}

impl SweepReducer {
    pub(crate) fn new(
        pool: Arc<TokenPool>,
        cfg: FsJoinConfig,
        registry: Arc<MetricsRegistry>,
    ) -> SweepReducer {
        SweepReducer {
            pool,
            cfg,
            registry,
            filter_stats: FilterStats::default(),
            sweep_stats: SweepStats::default(),
            cell: Vec::new(),
            partners: Vec::new(),
        }
    }
}

impl StreamingReducer for SweepReducer {
    type InKey = u32;
    type InValue = ListedSegment;
    type OutKey = (u32, u32);
    type OutValue = (u32, u32, u32);

    fn reduce_group(
        &mut self,
        _cell: &u32,
        segments: &mut GroupValues<'_, '_, u32, ListedSegment>,
        out: &mut Emitter<(u32, u32), (u32, u32, u32)>,
    ) {
        self.cell.clear();
        self.partners.clear();
        for listed in segments {
            let start = self.partners.len();
            self.partners.extend_from_slice(&listed.partners);
            self.cell.push((listed.seg, start..self.partners.len()));
        }
        self.cell.sort_unstable_by_key(|(seg, _)| seg.rid);
        let join = FragmentJoin::of_run(&self.pool, &self.cfg);
        debug_assert_eq!(join.kernel, JoinKernel::Sweep);
        let before_pairs = self.filter_stats.pairs_considered;
        let before_emitted = self.filter_stats.emitted;
        for (later, range) in &self.cell {
            for &rid in &self.partners[range.clone()] {
                let at = self
                    .cell
                    .binary_search_by_key(&rid, |(seg, _)| seg.rid)
                    .expect("every listed partner ships its segment to the cell");
                let earlier = &self.cell[at].0;
                if !join.prefixes_collide(earlier, later) {
                    self.sweep_stats.prefix_missed += 1;
                    continue;
                }
                if let Some(rec) = join.join_listed(earlier, later, &mut self.filter_stats) {
                    out.emit(rec.key(), rec.value());
                }
            }
        }
        self.registry.histogram_record(
            crate::keys::FRAGMENT_PAIRS,
            self.filter_stats.pairs_considered - before_pairs,
        );
        self.registry.histogram_record(
            crate::keys::FRAGMENT_CANDIDATES,
            self.filter_stats.emitted - before_emitted,
        );
    }

    fn cleanup(&mut self, _out: &mut Emitter<(u32, u32), (u32, u32, u32)>) {
        self.filter_stats.record_to(&self.registry);
        self.sweep_stats.record_to(&self.registry);
        self.filter_stats = FilterStats::default();
        self.sweep_stats = SweepStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record's StrL window holds its own row: the sweep skips it there,
    /// and lists an exact duplicate of the record instead.
    #[test]
    fn a_record_is_never_its_own_partner() {
        let mut pool = TokenPool::new();
        for tokens in [[1u32, 2, 3, 4], [1, 2, 3, 4], [5, 6, 7, 8]] {
            pool.push(&tokens);
        }
        let sweep = Sweep::new(&pool, &[], &[], &FsJoinConfig::default().with_theta(0.8));
        let mut stats = SweepStats::default();
        let mut partners = |rid: u32| {
            let mut rows = Vec::new();
            sweep.sweep(sweep.position(rid).unwrap(), &mut rows, &mut stats);
            rows.iter()
                .map(|&q| sweep.record_at(q as usize))
                .collect::<Vec<_>>()
        };
        for rid in 0..3 {
            assert!(!partners(rid).contains(&rid), "record {rid}");
        }
        assert_eq!(partners(0), [1]);
        assert_eq!(partners(1), [0]);
        // Each record visits the two others, never itself.
        assert_eq!(stats.swept, 2 * (3 + 2));
        assert_eq!(stats.unaccounted(), 0);
    }
}
