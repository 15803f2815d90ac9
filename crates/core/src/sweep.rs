//! The Sweep kernel's filter stage: decide every record pair once, on the
//! driver, and ship each segment only to the cells where a surviving pair
//! meets (DESIGN.md §4 item 4d).
//!
//! StrL, the record signature and the positional bound look at two
//! *records*, never at a cell, so their verdict on a pair is the same in
//! every cell the pair meets in. The paper's kernels still decide them per
//! cell: on short records a pair shares a local prefix token in several
//! fragments and is decided once in each. [`Sweep::new`] decides them once
//! per pair instead, by PPJoin's probe-then-insert pass (Xiao et al.,
//! WWW'08) over the one prefix index ([`CellIndex`]) in `(len, rid)`
//! order: every record indexes its index prefix, then probes with its
//! probe prefix the records before it in its StrL window. The index
//! applies the positional bound and the signature inside the posting walk,
//! and only the survivors are kept, as partner lists in both directions.
//! The index is dropped before the plan runs. Every pair at or above θ
//! shares a prefix token and passes both bounds, so it survives; only pairs
//! below θ drop out, which the verify stage would never have emitted.
//!
//! Each map task reads its record's partners ([`Sweep::partners`]) and
//! finds where each pair meets: the one horizontal partition both records
//! belong to whose [`JoinRule`] admits them, times each fragment both
//! occupy. The record's segment ships to those cells only, as a
//! [`ListedSegment`] carrying the partners for which this record is the
//! later side in `(len, rid)` order — so each `(pair, cell)` meeting is
//! listed once. The reducer counts nothing but the listed pairs
//! ([`FragmentJoin::join_listed`]).
//!
//! Every unordered pair is decided once, by the later record's probe; both
//! records read the verdict, because each must learn all of its partners
//! to know where to ship.

use crate::config::FsJoinConfig;
use crate::filters::FilterStats;
use crate::fragment::{FragmentJoin, JoinKernel};
use crate::horizontal::{h_partitions_for, JoinRule};
use crate::segment::Segment;
use crate::vertical::split_record;
use ssj_common::ByteSize;
use ssj_mapreduce::{Emitter, GroupValues, Mapper, StreamingReducer};
use ssj_observe::MetricsRegistry;
use ssj_similarity::index::{CellIndex, Slot};
use ssj_similarity::{Measure, Verifier};
use ssj_text::{PooledRecord, TokenPool};
use std::ops::Range;
use std::sync::Arc;

/// Position of an empty record in [`Sweep`]'s `position` column: it is in
/// no column and pairs with nothing.
const ABSENT: u32 = u32::MAX;

/// The sweep's side data: every non-empty record as a row of dense
/// columns in `(len, rid)` order, each row's surviving partners, and the
/// parameters the rows are routed by. With up to 64 fragments that is
/// 24 B per record — 4 each for its id, length, position and partner
/// offset, 8 for its fragment set — plus 8 B per surviving pair.
#[derive(Debug)]
pub struct Sweep {
    /// Record ids in `(len, rid)` order.
    order: Vec<u32>,
    /// Record length per row.
    lens: Vec<u32>,
    frag_words: usize,
    /// Fragment-set rows: bit `v` of a row is set when the record has a
    /// segment in fragment `v`.
    frags: Vec<u64>,
    /// Row of each record id, or [`ABSENT`].
    position: Vec<u32>,
    /// Partner rows, CSR: row `r`'s are `partners[starts[r]..starts[r + 1]]`,
    /// ascending.
    starts: Vec<u32>,
    partners: Vec<u32>,
    /// The pass's counters.
    stats: SweepStats,
    pivots: Vec<u32>,
    h_pivots: Vec<u32>,
    measure: Measure,
    theta: f64,
}

impl Sweep {
    /// Lay out the columns of `pool`'s records and decide every pair
    /// ([`Self::partners`]). `pivots` and `h_pivots` are the run's
    /// vertical and horizontal pivots; measure, θ, StrL and the signature
    /// step come from `cfg`.
    pub fn new(pool: &TokenPool, pivots: &[u32], h_pivots: &[u32], cfg: &FsJoinConfig) -> Sweep {
        let mut order: Vec<u32> = (0..pool.len() as u32)
            .filter(|&rid| !pool.span_of(rid).is_empty())
            .collect();
        order.sort_unstable_by_key(|&rid| (pool.span_of(rid).len, rid));
        let frag_words = (pivots.len() + 1).div_ceil(64);
        let mut sweep = Sweep {
            lens: Vec::with_capacity(order.len()),
            frag_words,
            frags: vec![0; order.len() * frag_words],
            position: vec![ABSENT; pool.len()],
            starts: Vec::new(),
            partners: Vec::new(),
            stats: SweepStats::default(),
            pivots: pivots.to_vec(),
            h_pivots: h_pivots.to_vec(),
            measure: cfg.measure,
            theta: cfg.theta,
            order,
        };
        for (row, &rid) in sweep.order.iter().enumerate() {
            let tokens = pool.tokens_of(rid);
            sweep.position[rid as usize] = row as u32;
            sweep.lens.push(tokens.len() as u32);
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
        sweep.decide(pool, cfg);
        sweep
    }

    /// The probe-then-insert pass: index every row's index prefix, probe
    /// each row's probe prefix against the rows before it in its StrL
    /// window, and store the survivors as partner lists in both
    /// directions.
    fn decide(&mut self, pool: &TokenPool, cfg: &FsJoinConfig) {
        let (m, theta) = (cfg.measure, cfg.theta);
        let words = if cfg.bitmap_prune {
            pool.bitmap_bits() / 64
        } else {
            0
        };
        let sig = |rid: u32| &pool.bitmap_of(rid)[..words];
        let mut index = CellIndex::default();
        index.rebuild(
            words,
            self.order.iter().map(|&rid| {
                let tokens = pool.tokens_of(rid);
                Slot {
                    len: tokens.len() as u32,
                    head: 0,
                    sig: sig(rid),
                    tokens: &tokens[..m.index_prefix_len(theta, tokens.len())],
                }
            }),
        );
        // `(later, earlier)` rows of each survivor, ascending.
        let mut found: Vec<(u32, u32)> = Vec::new();
        let mut degree = vec![0u32; self.order.len()];
        for (row, &rid) in self.order.iter().enumerate() {
            let tokens = pool.tokens_of(rid);
            let len = tokens.len();
            let min_len = if cfg.filters.strl {
                m.min_partner_len(theta, len)
            } else {
                0
            };
            let window = index.window(min_len, row);
            let probe = Slot {
                len: len as u32,
                head: 0,
                sig: sig(rid),
                tokens: &tokens[..m.probe_prefix_len(theta, len)],
            };
            let counts = index.probe(&probe, window, |y| {
                let alpha = m.min_overlap(theta, len, y as usize);
                let limit = (words > 0)
                    .then(|| Verifier::hamming_limit(alpha, len, y as usize, words))
                    .flatten();
                (limit, alpha)
            });
            self.stats.considered += counts.pairs_considered;
            self.stats.position_pruned += counts.position_pruned;
            self.stats.bitmap_pruned += counts.bitmap_pruned;
            let first = found.len();
            found.extend(index.hits().iter().map(|&q| (row as u32, q)));
            found[first..].sort_unstable();
            degree[row] += (found.len() - first) as u32;
            for &(_, q) in &found[first..] {
                degree[q as usize] += 1;
            }
        }
        drop(index);
        assert!(
            found.len() <= (u32::MAX / 2) as usize,
            "partner offsets are u32"
        );
        self.stats.survivors = found.len() as u64;
        // CSR in row order. Row `r` hears first, as the later side, of its
        // earlier partners (ascending), then, as the earlier side, of its
        // later ones (ascending): each list comes out ascending.
        self.starts = Vec::with_capacity(degree.len() + 1);
        self.starts.push(0);
        let mut end = 0u32;
        for d in degree {
            end += d;
            self.starts.push(end);
        }
        let mut next = self.starts[..self.order.len()].to_vec();
        self.partners = vec![0; end as usize];
        for (later, earlier) in found {
            for (row, partner) in [(later, earlier), (earlier, later)] {
                let at = &mut next[row as usize];
                self.partners[*at as usize] = partner;
                *at += 1;
            }
        }
    }

    /// Row of record `rid`, or `None` for an empty record.
    pub fn position(&self, rid: u32) -> Option<usize> {
        let row = *self.position.get(rid as usize)?;
        (row != ABSENT).then_some(row as usize)
    }

    /// Rows of row `row`'s surviving partners, ascending: every row paired
    /// with it that passed StrL, the positional bound and the signature.
    /// Never `row` itself.
    pub fn partners(&self, row: usize) -> &[u32] {
        &self.partners[self.starts[row] as usize..self.starts[row + 1] as usize]
    }

    /// The pass's counters: `considered`, `position_pruned`,
    /// `bitmap_pruned` and `survivors`, the rest 0.
    pub fn stats(&self) -> SweepStats {
        self.stats
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

/// The sweep's counters (`fsjoin.sweep.*`), summed over a run.
///
/// Two laws hold ([`Self::undecided`], [`Self::unlisted`]). Every record
/// pair the pass meets on a shared prefix token ends in one step:
/// `considered = position_pruned + bitmap_pruned + survivors`. Every listed
/// `(pair, cell)` meeting ends in the collision test or in the segment
/// steps: `listed = prefix_missed + pairs_considered` of the run's
/// [`FilterStats`]. The pass decides each unordered pair once, so its four
/// counters count unordered pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Pairs the pass met: a record's probe prefix shares a token with the
    /// index prefix of a record before it in its StrL window.
    pub considered: u64,
    /// Met pairs the positional bound dropped.
    pub position_pruned: u64,
    /// Met pairs the signature dropped: the two bitmaps are farther apart
    /// than any pair reaching θ allows.
    pub bitmap_pruned: u64,
    /// Met pairs that passed both bounds.
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
    pub fn fields(&self) -> [(&'static str, u64); 8] {
        use crate::keys;
        [
            (keys::SWEEP_CONSIDERED, self.considered),
            (keys::SWEEP_POSITION_PRUNED, self.position_pruned),
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
            considered: get(keys::SWEEP_CONSIDERED),
            position_pruned: get(keys::SWEEP_POSITION_PRUNED),
            bitmap_pruned: get(keys::SWEEP_BITMAP_PRUNED),
            survivors: get(keys::SWEEP_SURVIVORS),
            listed: get(keys::SWEEP_LISTED),
            prefix_missed: get(keys::SWEEP_PREFIX_MISSED),
            segments_shipped: get(keys::SWEEP_SEGMENTS_SHIPPED),
            segments_cut: get(keys::SWEEP_SEGMENTS_CUT),
        }
    }

    /// `considered` minus the three steps a met pair ends in: 0 for a run.
    pub fn undecided(&self) -> i64 {
        self.considered as i64 - (self.position_pruned + self.bitmap_pruned + self.survivors) as i64
    }

    /// `listed` minus the two outcomes of a listed meeting, given the
    /// run's fragment-join counters: 0 for a run.
    pub fn unlisted(&self, filters: &FilterStats) -> i64 {
        self.listed as i64 - (self.prefix_missed + filters.pairs_considered) as i64
    }
}

/// Sweep's filter-stage mapper: list the record's partners per meeting
/// cell, ship its segments there (DESIGN.md §4 item 4d).
pub(crate) struct SweepMapper {
    pool: Arc<TokenPool>,
    sweep: Arc<Sweep>,
    registry: Arc<MetricsRegistry>,
    stats: SweepStats,
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
        let hs = h_partitions_for(
            sweep.lens[p] as usize,
            &sweep.h_pivots,
            sweep.measure,
            sweep.theta,
        );
        let num_fragments = sweep.pivots.len() + 1;
        self.meets.clear();
        for &q in sweep.partners(p) {
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
impl Sweep {
    /// Every surviving pair, as `(smaller id, larger id)`.
    pub(crate) fn pairs(&self) -> std::collections::BTreeSet<(u32, u32)> {
        (0..self.order.len())
            .flat_map(|row| {
                let rid = self.order[row];
                self.partners(row).iter().map(move |&q| {
                    let partner = self.order[q as usize];
                    (rid.min(partner), rid.max(partner))
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::FilterSet;
    use ssj_similarity::intersect::intersect_count_merge;
    use ssj_similarity::naive::naive_self_join;
    use ssj_text::{Collection, Record};

    /// `n` records of 1 to `max_len` tokens drawn from `vocab`, ids
    /// ascending by frequency as the encoder ranks them.
    fn random_collection(n: u32, vocab: u32, max_len: u32, seed: u64) -> Collection {
        let mut state = seed;
        let mut next = move |m: u32| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) as u32) % m
        };
        let mut freqs = vec![0u64; vocab as usize];
        let records: Vec<Record> = (0..n)
            .map(|id| {
                let len = 1 + next(max_len);
                let record = Record::new(id, (0..len).map(|_| next(vocab)).collect());
                for &t in &record.tokens {
                    freqs[t as usize] += 1;
                }
                record
            })
            .collect();
        Collection::new(records, freqs, None)
    }

    /// A record's StrL window holds its own row: the pass never pairs a
    /// record with itself, and lists an exact duplicate of it instead.
    #[test]
    fn a_record_is_never_its_own_partner() {
        let mut pool = TokenPool::new();
        for tokens in [[1u32, 2, 3, 4], [1, 2, 3, 4], [5, 6, 7, 8]] {
            pool.push(&tokens);
        }
        let sweep = Sweep::new(&pool, &[], &[], &FsJoinConfig::default().with_theta(0.8));
        let partners = |rid: u32| -> Vec<u32> {
            let row = sweep.position(rid).unwrap();
            let rows = sweep.partners(row);
            assert!(!rows.contains(&(row as u32)), "record {rid}");
            rows.iter().map(|&q| sweep.order[q as usize]).collect()
        };
        assert_eq!(partners(0), [1]);
        assert_eq!(partners(1), [0]);
        assert_eq!(partners(2), [] as [u32; 0]);
        // Record 1 meets record 0 once; record 2 shares no token.
        let stats = sweep.stats();
        assert_eq!((stats.considered, stats.survivors), (1, 1));
        assert_eq!(stats.undecided(), 0);
    }

    /// Every pair the oracle finds is among the partners, under every
    /// measure, with StrL and the signature on and off, over θs that
    /// include 0.7: there `θ · |s|` is no exact float, so a pair whose
    /// overlap is exactly its α sits on the threshold and only the
    /// rounding guards keep it. The corpora of short records over small
    /// vocabularies hold many such boundary pairs, which a probe prefix
    /// one token short misses. Partner lists are symmetric, ascending and
    /// never hold their own row, and the pass's law closes.
    #[test]
    fn partners_hold_every_similar_pair() {
        let corpora = [
            random_collection(160, 24, 10, 7),
            random_collection(200, 60, 18, 11),
        ];
        let mut boundary = 0;
        for c in &corpora {
            for m in Measure::all() {
                for theta in [0.5, 0.6, 0.7, 0.8, 0.9] {
                    let want = naive_self_join(&c.views(), m, theta);
                    // Similar pairs whose overlap is exactly their α.
                    for pair in &want {
                        let (x, y) = (c.tokens(pair.a), c.tokens(pair.b));
                        let alpha = m.min_overlap(theta, x.len(), y.len());
                        boundary += usize::from(intersect_count_merge(x, y) == alpha);
                    }
                    for (strl, prune) in [(true, true), (true, false), (false, true)] {
                        let label = format!("{m:?} θ={theta} strl={strl} prune={prune}");
                        let filters = if strl {
                            FilterSet::ALL
                        } else {
                            FilterSet::NONE
                        };
                        let cfg = FsJoinConfig::default()
                            .with_measure(m)
                            .with_theta(theta)
                            .with_filters(filters)
                            .with_bitmap_prune(prune);
                        let sweep = Sweep::new(c.pool(), &[], &[], &cfg);
                        let found = sweep.pairs();
                        for pair in &want {
                            assert!(found.contains(&pair.ids()), "{label}: {pair:?}");
                        }
                        for row in 0..sweep.order.len() {
                            let partners = sweep.partners(row);
                            assert!(partners.windows(2).all(|w| w[0] < w[1]), "{label}");
                            for &q in partners {
                                assert_ne!(q as usize, row, "{label}");
                                assert!(
                                    sweep.partners(q as usize).contains(&(row as u32)),
                                    "{label}: row {row} lists {q}, not back"
                                );
                            }
                        }
                        let stats = sweep.stats();
                        assert_eq!(stats.undecided(), 0, "{label}: {stats:?}");
                        assert_eq!(stats.survivors as usize, found.len(), "{label}");
                        assert_eq!(stats.bitmap_pruned > 0, prune, "{label}: {stats:?}");
                    }
                }
            }
        }
        assert!(boundary > 100, "only {boundary} pairs sit on the threshold");
    }
}
