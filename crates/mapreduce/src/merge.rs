//! Streaming k-way merge over sorted spill runs.
//!
//! The map phase already sorts every spill run (per reduce bucket, by
//! key); the reduce side therefore never needs to re-sort. [`KWayMerge`]
//! merges `k` sorted runs in `O(n log k)` with a loser tree (tournament
//! tree) of run cursors, and [`GroupedRuns`] layers the sort-based
//! grouping contract on top: one callback per distinct key, values
//! streamed by reference with no per-key buffer on the engine side.
//!
//! # Determinism
//!
//! Hadoop's contract (and this engine's, pinned by the golden digests in
//! `crates/core/tests/columnar_equivalence.rs`) is that a reducer sees a
//! key's values in *map-task order*, and within one map task in emission
//! order. The previous implementation got this from a stable sort over the
//! concatenated runs; the merge reproduces it exactly by tie-breaking
//! equal keys on the **run index** (runs are registered in map-task
//! order): for a key present in runs 0 and 2, all of run 0's values drain
//! before run 2's, each in within-run order — element-for-element what
//! concat + stable sort produced.
//!
//! # The packed fast path
//!
//! Nearly every key this engine actually shuffles is a small integer:
//! `u32` cell ids in the filter job, `(u32, u32)` record pairs in the
//! verification job and the baselines, `u64` token ranks in the ordering
//! job. For those, [`KWayMerge::new`] picks (by `TypeId` equality, the
//! same test the standard library uses to specialise sorts for
//! primitives) a tournament whose nodes hold the key and the run index
//! embedded in one wide integer, ordered exactly like `(key, run)`: `u64`
//! nodes for `u32` keys, `u128` nodes for `u64` and `(u32, u32)` keys.
//! A tournament match is then a single integer compare with no pointer
//! chasing, no `Option` tag and no separate tie-break, and the
//! winner/loser exchange lowers to conditional moves. The tree stays
//! generic over the caller's key type: a node reads its key through
//! `Any::downcast_ref`, which is resolved per key type at compile time to
//! a plain load, so the dispatch needs no cast and no `unsafe`. Each run's
//! next node is read one pop ahead, so a cache miss on run data overlaps
//! other runs' pops instead of stalling the tree walk. Exhausted runs are
//! encoded as sentinels above every real packed value (still ordered by
//! run index among themselves). Any other key type takes the generic
//! by-reference tree below, which preserves identical semantics.

use std::any::{Any, TypeId};

// ---- Generic by-reference loser tree ---------------------------------------

/// One tournament contender: a run's index plus a reference to its
/// current head key (`None` = exhausted, loses to everything). Caching
/// the key reference in the node keeps every comparison a single deref
/// into run data instead of a `runs[j][pos[j]]` double indirection.
struct Contender<'r, K> {
    key: Option<&'r K>,
    run: u32,
}

// Derived `Clone`/`Copy` would bound `K: Clone`; the node only holds a
// reference, so implement them unconditionally.
impl<K> Clone for Contender<'_, K> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K> Copy for Contender<'_, K> {}

/// Does contender `a` beat contender `b`? Total order over `(key, run)`
/// with exhausted runs greatest — the merge's determinism tie-break.
#[inline]
fn beats<K: Ord>(a: &Contender<'_, K>, b: &Contender<'_, K>) -> bool {
    match (a.key, b.key) {
        // `.then` (eager — the run compare is two registers) lets the
        // whole expression lower to a branch-free compare chain; the
        // tournament's winner branch is data-dependent and unpredictable,
        // so keeping comparisons select-based matters.
        (Some(ka), Some(kb)) => ka.cmp(kb).then(a.run.cmp(&b.run)).is_lt(),
        (Some(_), None) => true,
        (None, Some(_)) => false,
        (None, None) => a.run < b.run,
    }
}

/// Loser tree over by-reference contenders: works for any `Ord` key.
struct RefTree<'r, K, V> {
    /// `heads[j]` = run `j`'s unconsumed suffix.
    heads: Vec<&'r [(K, V)]>,
    /// `tree[0]` = overall winner; `tree[1..k]` = loser of each internal
    /// match (leaf `j` sits implicitly at `k + j`, its parent at
    /// `(k + j) / 2`).
    tree: Vec<Contender<'r, K>>,
}

impl<'r, K: Ord, V> RefTree<'r, K, V> {
    fn new(runs: Vec<&'r [(K, V)]>) -> Self {
        let k = runs.len();
        let mut tree = vec![Contender { key: None, run: 0 }; k.max(1)];
        if k > 0 {
            // Bottom-up tournament: leaf `j` sits at implicit index
            // `k + j`; each internal node plays its children's winners,
            // records the loser, and sends the winner up. `winners` is
            // scaffolding, dropped after the build.
            let mut winners = vec![Contender { key: None, run: 0 }; 2 * k];
            for (j, slot) in winners[k..].iter_mut().enumerate() {
                *slot = Contender {
                    key: runs[j].first().map(|pair| &pair.0),
                    run: j as u32,
                };
            }
            for node in (1..k).rev() {
                let (a, b) = (winners[2 * node], winners[2 * node + 1]);
                if beats(&a, &b) {
                    winners[node] = a;
                    tree[node] = b;
                } else {
                    winners[node] = b;
                    tree[node] = a;
                }
            }
            tree[0] = winners[1];
        }
        RefTree { heads: runs, tree }
    }

    /// Replay the winner's leaf-to-root path after its head advanced
    /// (`tree[0]` holds the advanced cursor on entry).
    #[inline]
    fn replay(&mut self) {
        let k = self.heads.len();
        let mut cur = self.tree[0];
        let mut node = (k + cur.run as usize) / 2;
        while node > 0 {
            let slot = &mut self.tree[node];
            // Whether the stored loser beats the climber is a coin flip on
            // random data; express the winner/loser exchange as value
            // selects (conditional moves) rather than a branched swap so
            // the loop carries no unpredictable branch.
            let other = *slot;
            let other_wins = beats(&other, &cur);
            *slot = if other_wins { cur } else { other };
            cur = if other_wins { other } else { cur };
            node /= 2;
        }
        self.tree[0] = cur;
    }

    #[inline]
    fn next(&mut self) -> Option<(u32, &'r (K, V))> {
        // Winner key `None` ⇒ every run is exhausted (or there are none).
        self.tree[0].key?;
        let w = self.tree[0].run as usize;
        let head = &mut self.heads[w];
        let (item, rest) = head.split_first()?;
        *head = rest;
        match rest.first() {
            // Winner stays when the next key equals the yielded key: the
            // new head compares identically (same key value, same run
            // index) against every opponent, so the tournament's outcome
            // cannot change — no tree walk. (`tree[0].key` still points
            // at the consumed pair's key; its *value* is what comparisons
            // read, and that is unchanged.)
            Some(next) if next.0 == item.0 => {}
            next => {
                self.tree[0].key = next.map(|pair| &pair.0);
                self.replay();
            }
        }
        Some((w as u32, item))
    }
}

// ---- Packed integer-key tree ----------------------------------------------

/// A packed tournament node: a key and its run index embedded in one wide
/// integer so that `pack(a, i) < pack(b, j)` iff `(a, i) < (b, j)`
/// lexicographically, and [`Node::exhausted`] sentinels sort above every
/// packed value (increasing in run index, preserving the exhausted-run
/// tie-break of the generic tree).
trait Node: Copy + Ord {
    /// Pack run `run`'s head key. `K` is one of the key types
    /// [`KWayMerge::new`] assigns to this node width; the downcast is
    /// decided per `K` at compile time, leaving one load.
    fn pack<K: 'static>(key: &K, run: u32) -> Self;
    fn exhausted(run: u32, k: u32) -> Self;
    /// The run index of a (non-exhausted) packed value.
    fn run_of(self) -> u32;
}

/// `u32` keys: the key in the high half, the run in the low half.
impl Node for u64 {
    #[inline]
    fn pack<K: 'static>(key: &K, run: u32) -> u64 {
        let key = (key as &dyn Any).downcast_ref::<u32>();
        let key = *key.expect("u64 nodes pack u32 keys");
        (u64::from(key) << 32) | u64::from(run)
    }
    #[inline]
    fn exhausted(run: u32, k: u32) -> u64 {
        // Top of the u64 range, ordered by run. Distinct from every real
        // pack as long as 2k fits in the run field — guaranteed by the
        // `k < 2^31` assert at build.
        u64::MAX - u64::from(k - 1 - run)
    }
    #[inline]
    fn run_of(self) -> u32 {
        self as u32
    }
}

/// `u64` and `(u32, u32)` keys: the key (a pair as `hi << 32 | lo`, which
/// orders like the tuple) in the high half, the run in the low half.
impl Node for u128 {
    #[inline]
    fn pack<K: 'static>(key: &K, run: u32) -> u128 {
        let key = key as &dyn Any;
        let key = if let Some(&rank) = key.downcast_ref::<u64>() {
            rank
        } else if let Some(&(a, b)) = key.downcast_ref::<(u32, u32)>() {
            (u64::from(a) << 32) | u64::from(b)
        } else {
            unreachable!("u128 nodes pack u64 and (u32, u32) keys")
        };
        (u128::from(key) << 64) | u128::from(run)
    }
    #[inline]
    fn exhausted(run: u32, k: u32) -> u128 {
        u128::MAX - u128::from(k - 1 - run)
    }
    #[inline]
    fn run_of(self) -> u32 {
        self as u32
    }
}

/// `pair` packed as run `run`'s node, or the run's exhausted sentinel.
#[inline]
fn node_of<K: 'static, V, P: Node>(pair: Option<&(K, V)>, run: u32, k: u32) -> P {
    match pair {
        Some(pair) => P::pack(&pair.0, run),
        None => P::exhausted(run, k),
    }
}

/// Loser tree whose nodes are packed `(key, run)` integers `P`: one
/// compare per tournament match, conditional-move exchanges, keys re-read
/// from run data only on advance.
struct PackedTree<'r, K, V, P> {
    heads: Vec<&'r [(K, V)]>,
    /// `tree[0]` = winner; `tree[1..k]` = losers, as packed integers.
    tree: Vec<P>,
    /// Smallest exhausted sentinel: a winner at or above it means done.
    exhaust_min: P,
    /// `ahead[j]` = run `j`'s second element as a node: its head after
    /// the next pop. Run `j` is read again only after ~k other pops, so
    /// its next element is often a cache miss; loading it one pop early
    /// keeps that miss off the tree walk's dependency chain.
    ahead: Vec<P>,
}

impl<'r, K: 'static, V, P: Node> PackedTree<'r, K, V, P> {
    fn new(runs: Vec<&'r [(K, V)]>) -> Self {
        let k = runs.len();
        assert!(k < (1 << 31), "too many runs for the packed tie-break");
        let kk = k.max(1) as u32;
        let exhaust_min = P::exhausted(0, kk);
        let mut tree = vec![exhaust_min; k.max(1)];
        if k > 0 {
            let mut winners = vec![exhaust_min; 2 * k];
            for (j, slot) in winners[k..].iter_mut().enumerate() {
                *slot = node_of(runs[j].first(), j as u32, kk);
            }
            for node in (1..k).rev() {
                let (a, b) = (winners[2 * node], winners[2 * node + 1]);
                // Packed values are distinct (the run field differs), so
                // `<` is the full (key, run) order.
                if a < b {
                    winners[node] = a;
                    tree[node] = b;
                } else {
                    winners[node] = b;
                    tree[node] = a;
                }
            }
            tree[0] = winners[1];
        }
        let ahead = (0..k)
            .map(|j| node_of(runs[j].get(1), j as u32, kk))
            .collect();
        PackedTree {
            heads: runs,
            tree,
            exhaust_min,
            ahead,
        }
    }

    #[inline]
    fn next(&mut self) -> Option<(u32, &'r (K, V))> {
        let top = self.tree[0];
        if top >= self.exhaust_min {
            return None;
        }
        let w = top.run_of();
        let head = &mut self.heads[w as usize];
        let (item, rest) = head.split_first()?;
        *head = rest;
        let k = self.heads.len();
        let next = &mut self.ahead[w as usize];
        let cur = std::mem::replace(next, node_of(rest.get(1), w, k as u32));
        if cur == top {
            // Winner stays: same key, same run — the tournament cannot
            // change, and `tree[0]` already holds this packed value.
            return Some((w, item));
        }
        let mut cur = cur;
        let mut node = (k + w as usize) / 2;
        while node > 0 {
            let slot = &mut self.tree[node];
            let other = *slot;
            let other_wins = other < cur;
            *slot = if other_wins { cur } else { other };
            cur = if other_wins { other } else { cur };
            node /= 2;
        }
        self.tree[0] = cur;
        Some((w, item))
    }
}

// ---- Dispatch --------------------------------------------------------------

enum Inner<'r, K, V> {
    /// Generic by-reference tree: any `Ord` key.
    ByRef(RefTree<'r, K, V>),
    /// Packed trees over the caller's own `K`, constructed only for the
    /// key types their [`Node`] packs: `u32` keys in `u64` nodes, `u64`
    /// and `(u32, u32)` keys in `u128` nodes.
    Packed64(PackedTree<'r, K, V, u64>),
    Packed128(PackedTree<'r, K, V, u128>),
}

/// Streaming k-way merge of sorted `(key, value)` runs.
///
/// Yields references into the runs in ascending key order, equal keys in
/// run order (see the module docs for why that reproduces the stable
/// sort). Implemented as a **loser tree** (tournament tree of run
/// cursors): exactly `⌈log₂ k⌉` comparisons per element — half of what a
/// binary heap's pop + push costs — with a winner-stays shortcut that
/// skips the tree walk entirely when a run's next key equals the key it
/// just yielded (the new head beats exactly the opponents the old head
/// beat, tie-break included), which makes duplicate-heavy groups — the
/// common shape of combined shuffle runs — nearly comparison-free.
///
/// `new` picks the tree once, by `TypeId`: `u32` keys play on packed
/// `u64` nodes, `u64` and `(u32, u32)` keys on packed `u128` nodes (module
/// docs), every other key on by-reference nodes. All three trees hold
/// the runs as the caller's `&[(K, V)]` and yield references into them;
/// the packed trees read keys through `Any::downcast_ref`, so the crate
/// forbids `unsafe`.
pub struct KWayMerge<'r, K, V> {
    inner: Inner<'r, K, V>,
    /// Element count at build time (the run suffixes shrink as the merge
    /// drains).
    total: usize,
}

impl<'r, K: Ord + 'static, V> KWayMerge<'r, K, V> {
    /// Build a merge over `runs`. Each run must be sorted by key (as every
    /// spill run is); empty runs are permitted and ignored.
    pub fn new(runs: Vec<&'r [(K, V)]>) -> Self {
        debug_assert!(runs
            .iter()
            .all(|run| run.windows(2).all(|w| w[0].0 <= w[1].0)));
        let total = runs.iter().map(|r| r.len()).sum();
        let key = TypeId::of::<K>();
        let inner = if key == TypeId::of::<u32>() {
            Inner::Packed64(PackedTree::new(runs))
        } else if key == TypeId::of::<u64>() || key == TypeId::of::<(u32, u32)>() {
            Inner::Packed128(PackedTree::new(runs))
        } else {
            Inner::ByRef(RefTree::new(runs))
        };
        KWayMerge { inner, total }
    }

    /// Total number of elements across all runs (consumed or not).
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// Like `Iterator::next`, but also reports **which run** (by
    /// registration index) supplied the yielded pair — the hook the
    /// multi-source co-group plane uses to recover a value's side tag
    /// without widening the stored pairs.
    #[inline]
    pub fn next_with_run(&mut self) -> Option<(u32, &'r (K, V))> {
        match &mut self.inner {
            Inner::ByRef(tree) => tree.next(),
            Inner::Packed64(tree) => tree.next(),
            Inner::Packed128(tree) => tree.next(),
        }
    }
}

impl<'r, K: Ord + 'static, V> Iterator for KWayMerge<'r, K, V> {
    type Item = &'r (K, V);

    #[inline]
    fn next(&mut self) -> Option<&'r (K, V)> {
        self.next_with_run().map(|(_, pair)| pair)
    }
}

/// The values of one key group, streamed by reference out of a
/// [`KWayMerge`] — the engine-side replacement for the per-key `Vec` the
/// old group-walk allocated.
///
/// Consumers may stop early; [`GroupedRuns::for_each_group`] drains any
/// unread remainder so the next group starts at the right boundary.
pub struct GroupValues<'m, 'r, K, V> {
    key: &'r K,
    first: Option<&'r V>,
    merge: &'m mut KWayMerge<'r, K, V>,
    /// First pair of the *next* group, discovered while iterating this one.
    boundary: Option<&'r (K, V)>,
    done: bool,
}

impl<'m, 'r, K: Ord, V> GroupValues<'m, 'r, K, V> {
    /// The group's key.
    pub fn key(&self) -> &'r K {
        self.key
    }
}

impl<'m, 'r, K: Ord + 'static, V> Iterator for GroupValues<'m, 'r, K, V> {
    type Item = &'r V;

    fn next(&mut self) -> Option<&'r V> {
        if let Some(v) = self.first.take() {
            return Some(v);
        }
        if self.done {
            return None;
        }
        match self.merge.next() {
            Some(pair) if pair.0 == *self.key => Some(&pair.1),
            other => {
                self.boundary = other;
                self.done = true;
                None
            }
        }
    }
}

/// Sort-based grouping over merged spill runs: one callback per distinct
/// key, in ascending key order, values in deterministic run order.
pub struct GroupedRuns<'r, K, V> {
    merge: KWayMerge<'r, K, V>,
}

impl<'r, K: Ord + 'static, V> GroupedRuns<'r, K, V> {
    /// Group the merge of `runs` (each sorted by key).
    pub fn new(runs: Vec<&'r [(K, V)]>) -> Self {
        GroupedRuns {
            merge: KWayMerge::new(runs),
        }
    }

    /// Drive `f` once per key group. Internal iteration sidesteps the
    /// lending-iterator problem: `GroupValues` mutably borrows the merge,
    /// so groups cannot coexist — exactly the reduce contract (groups are
    /// consumed one at a time, in order).
    pub fn for_each_group<F>(mut self, mut f: F)
    where
        F: FnMut(&'r K, &mut GroupValues<'_, 'r, K, V>),
    {
        let mut pending = self.merge.next();
        while let Some(pair) = pending {
            let mut values = GroupValues {
                key: &pair.0,
                first: Some(&pair.1),
                merge: &mut self.merge,
                boundary: None,
                done: false,
            };
            f(&pair.0, &mut values);
            // Drain whatever the consumer left unread, so `boundary` is
            // populated (or the merge is exhausted).
            while values.next().is_some() {}
            pending = values.boundary;
        }
    }
}

// ---- Multi-source co-grouping ----------------------------------------------

/// The values of one key group merged from **several sides** (logical
/// inputs), streamed by reference with the side tag of every value — the
/// co-group analogue of [`GroupValues`].
///
/// Yields `(side, &value)` pairs. Within a group the side tags are
/// non-decreasing and, inside one side, values arrive in run order
/// (runs register side-major, so the merge's `(key, run)` tie-break *is*
/// `(key, side, run-within-side)`): a consumer can split the group into
/// per-side sub-groups with a single pass and zero allocations.
pub struct SideGroups<'m, 'r, K, V> {
    key: &'r K,
    first: Option<(u32, &'r V)>,
    merge: &'m mut KWayMerge<'r, K, V>,
    /// Run registration index → side index.
    side_of: &'m [u32],
    /// First `(run, pair)` of the *next* group, discovered while
    /// iterating this one.
    boundary: Option<(u32, &'r (K, V))>,
    done: bool,
}

impl<'m, 'r, K: Ord, V> SideGroups<'m, 'r, K, V> {
    /// The group's key.
    pub fn key(&self) -> &'r K {
        self.key
    }
}

impl<'m, 'r, K: Ord + 'static, V> Iterator for SideGroups<'m, 'r, K, V> {
    type Item = (u32, &'r V);

    fn next(&mut self) -> Option<(u32, &'r V)> {
        if let Some(v) = self.first.take() {
            return Some(v);
        }
        if self.done {
            return None;
        }
        match self.merge.next_with_run() {
            Some((run, pair)) if pair.0 == *self.key => Some((self.side_of[run as usize], &pair.1)),
            other => {
                self.boundary = other;
                self.done = true;
                None
            }
        }
    }
}

/// Sort-based co-grouping over the sorted reduce outputs of N co-partitioned
/// upstreams: one callback per distinct key across **all** sides, values
/// streamed as `(side, &value)` in `(side, run)` order — the merge plane
/// under co-group plan stages.
///
/// Each side contributes its runs in order; all runs must be sorted by key
/// (sealed reduce partitions are — reducers see keys ascending and emit
/// group-ordered output). Ties on `key` break first by side, then by the
/// run's position within its side, mirroring what an identity-rekey fan-in
/// map (side-major concat + stable sort) would have produced.
pub struct CoGroupedRuns<'r, K, V> {
    merge: KWayMerge<'r, K, V>,
    side_of: Vec<u32>,
}

impl<'r, K: Ord + 'static, V> CoGroupedRuns<'r, K, V> {
    /// Co-group the merge of `sides` (outer: side, inner: that side's
    /// sorted runs in deterministic order).
    pub fn new(sides: Vec<Vec<&'r [(K, V)]>>) -> Self {
        let mut side_of = Vec::with_capacity(sides.iter().map(Vec::len).sum());
        let mut runs = Vec::with_capacity(side_of.capacity());
        for (side, side_runs) in sides.into_iter().enumerate() {
            for run in side_runs {
                side_of.push(side as u32);
                runs.push(run);
            }
        }
        CoGroupedRuns {
            merge: KWayMerge::new(runs),
            side_of,
        }
    }

    /// Total number of elements across all sides and runs.
    pub fn total_len(&self) -> usize {
        self.merge.total_len()
    }

    /// Drive `f` once per distinct key (ascending across all sides).
    /// Same internal-iteration shape as [`GroupedRuns::for_each_group`];
    /// values left unread are drained, not redelivered.
    pub fn for_each_group<F>(mut self, mut f: F)
    where
        F: FnMut(&'r K, &mut SideGroups<'_, 'r, K, V>),
    {
        let mut pending = self.merge.next_with_run();
        while let Some((run, pair)) = pending {
            let mut values = SideGroups {
                key: &pair.0,
                first: Some((self.side_of[run as usize], &pair.1)),
                merge: &mut self.merge,
                side_of: &self.side_of,
                boundary: None,
                done: false,
            };
            f(&pair.0, &mut values);
            while values.next().is_some() {}
            pending = values.boundary;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<'r>(m: KWayMerge<'r, u32, u32>) -> Vec<(u32, u32)> {
        m.map(|&(k, v)| (k, v)).collect()
    }

    #[test]
    fn merges_disjoint_runs() {
        let a = [(1u32, 10u32), (4, 40)];
        let b = [(2, 20), (3, 30)];
        let m = KWayMerge::new(vec![&a[..], &b[..]]);
        assert_eq!(m.total_len(), 4);
        assert_eq!(drain(m), vec![(1, 10), (2, 20), (3, 30), (4, 40)]);
    }

    #[test]
    fn equal_keys_drain_in_run_order() {
        // Key 5 appears in runs 0, 1 and 2; values must come out in run
        // order, within-run order preserved — the stable-sort contract.
        let r0 = [(5u32, 1u32), (5, 2)];
        let r1 = [(3, 0), (5, 3)];
        let r2 = [(5, 4), (7, 9)];
        let m = KWayMerge::new(vec![&r0[..], &r1[..], &r2[..]]);
        assert_eq!(
            drain(m),
            vec![(3, 0), (5, 1), (5, 2), (5, 3), (5, 4), (7, 9)]
        );
    }

    #[test]
    fn empty_and_singleton_runs() {
        let empty: [(u32, u32); 0] = [];
        let single = [(9u32, 90u32)];
        let m = KWayMerge::new(vec![&empty[..], &single[..], &empty[..]]);
        assert_eq!(drain(m), vec![(9, 90)]);
        let none = KWayMerge::new(Vec::<&[(u32, u32)]>::new());
        assert_eq!(drain(none), vec![]);
    }

    #[test]
    fn string_keys_drain_in_run_order() {
        // String keys take the by-reference tree; equal keys must drain in
        // run order exactly as the integer keys of the tests above do.
        let s0 = [("b".to_string(), 1u32), ("d".to_string(), 2)];
        let s1 = [("a".to_string(), 3), ("b".to_string(), 4)];
        let merged: Vec<(String, u32)> = KWayMerge::new(vec![&s0[..], &s1[..]])
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert_eq!(
            merged,
            vec![
                ("a".to_string(), 3),
                ("b".to_string(), 1),
                ("b".to_string(), 4),
                ("d".to_string(), 2)
            ]
        );
    }

    #[test]
    fn pair_keys_drain_in_run_order() {
        // (u32, u32) keys take the u128 nodes; the equal-key run-order
        // contract must hold there too.
        let r0 = [((1u32, 2u32), 10u32), ((3, 0), 11)];
        let r1 = [((1, 2), 20), ((2, 9), 21)];
        let merged: Vec<((u32, u32), u32)> = KWayMerge::new(vec![&r0[..], &r1[..]])
            .map(|&(k, v)| (k, v))
            .collect();
        assert_eq!(
            merged,
            vec![((1, 2), 10), ((1, 2), 20), ((2, 9), 21), ((3, 0), 11)]
        );
    }

    #[test]
    fn max_u64_keys_merge_and_exhaust() {
        let r0 = [(u64::MAX, 1u32)];
        let r1 = [(0u64, 2), (u64::MAX, 3)];
        let merged: Vec<(u64, u32)> = KWayMerge::new(vec![&r0[..], &r1[..]])
            .map(|&(k, v)| (k, v))
            .collect();
        assert_eq!(merged, vec![(0, 2), (u64::MAX, 1), (u64::MAX, 3)]);
    }

    #[test]
    fn max_u32_keys_drain_before_exhausted_runs() {
        // u32::MAX keys must still sort below exhausted-run sentinels.
        let r0 = [(u32::MAX, 1u32), (u32::MAX, 2)];
        let r1 = [(0u32, 0)];
        let r2 = [(u32::MAX, 3)];
        let m = KWayMerge::new(vec![&r0[..], &r1[..], &r2[..]]);
        assert_eq!(
            drain(m),
            vec![(0, 0), (u32::MAX, 1), (u32::MAX, 2), (u32::MAX, 3)]
        );
    }

    #[test]
    fn nodes_order_like_key_then_run_below_ordered_sentinels() {
        // The `Node` contract at the ends of every key range: packs order
        // like `(key, run)`, and the exhausted sentinels sit above every
        // pack, strictly increasing in run. (Merge output alone cannot see
        // the sentinel order: a winning sentinel ends the merge either way.)
        fn check<K: 'static, N: Node + std::fmt::Debug>(ascending: &[(K, u32)]) {
            let k = 3;
            let packs: Vec<N> = ascending
                .iter()
                .map(|(key, run)| N::pack(key, *run))
                .collect();
            assert!(packs.windows(2).all(|w| w[0] < w[1]), "{packs:?}");
            let sentinels: Vec<N> = (0..k).map(|run| N::exhausted(run, k)).collect();
            assert!(sentinels.windows(2).all(|w| w[0] < w[1]), "{sentinels:?}");
            assert!(packs.iter().all(|p| *p < sentinels[0] && p.run_of() < k));
        }
        check::<u32, u64>(&[(0, 0), (0, 2), (u32::MAX, 0), (u32::MAX, 2)]);
        check::<u64, u128>(&[(0, 1), (u64::MAX, 0), (u64::MAX, 2)]);
        let max = (u32::MAX, u32::MAX);
        check::<(u32, u32), u128>(&[((0, u32::MAX), 2), ((1, 0), 0), (max, 0), (max, 2)]);
    }

    #[test]
    fn grouped_walk_matches_group_boundaries() {
        let r0 = [(1u32, 1u32), (2, 2), (2, 3)];
        let r1 = [(2, 4), (3, 5)];
        let mut groups: Vec<(u32, Vec<u32>)> = Vec::new();
        GroupedRuns::new(vec![&r0[..], &r1[..]]).for_each_group(|k, vs| {
            groups.push((*k, vs.copied().collect()));
        });
        assert_eq!(groups, vec![(1, vec![1]), (2, vec![2, 3, 4]), (3, vec![5])]);
    }

    #[test]
    fn unread_groups_are_drained() {
        // A consumer that reads nothing must still see every group once.
        let r0 = [(1u32, 1u32), (1, 2), (2, 3)];
        let r1 = [(2, 4), (9, 5)];
        let mut keys = Vec::new();
        GroupedRuns::new(vec![&r0[..], &r1[..]]).for_each_group(|k, vs| {
            assert_eq!(vs.key(), k);
            keys.push(*k);
        });
        assert_eq!(keys, vec![1, 2, 9]);
    }

    #[test]
    fn partial_reads_do_not_bleed_between_groups() {
        let r0 = [(1u32, 1u32), (1, 2), (1, 3), (2, 4)];
        let mut firsts = Vec::new();
        GroupedRuns::new(vec![&r0[..]]).for_each_group(|k, vs| {
            firsts.push((*k, *vs.next().unwrap()));
        });
        assert_eq!(firsts, vec![(1, 1), (2, 4)]);
    }

    #[test]
    fn cogroup_ties_break_by_side_then_run() {
        // Key 5 lives on both sides and in two runs of side 0: values
        // must drain side 0 run 0, side 0 run 1, then side 1, each in
        // within-run order.
        let a0 = [(5u32, 1u32), (7, 9)];
        let a1 = [(5, 2)];
        let b0 = [(3, 0), (5, 3), (5, 4)];
        let mut groups: Vec<(u32, Vec<(u32, u32)>)> = Vec::new();
        CoGroupedRuns::new(vec![vec![&a0[..], &a1[..]], vec![&b0[..]]]).for_each_group(|k, vs| {
            groups.push((*k, vs.map(|(s, &v)| (s, v)).collect()));
        });
        assert_eq!(
            groups,
            vec![
                (3, vec![(1, 0)]),
                (5, vec![(0, 1), (0, 2), (1, 3), (1, 4)]),
                (7, vec![(0, 9)]),
            ]
        );
    }

    #[test]
    fn cogroup_partial_reads_and_empty_sides() {
        let a0 = [(1u32, 10u32), (1, 11), (2, 20)];
        let b0: [(u32, u32); 0] = [];
        let c0 = [(1, 12)];
        let mut firsts = Vec::new();
        let cg = CoGroupedRuns::new(vec![vec![&a0[..]], vec![&b0[..]], vec![&c0[..]]]);
        assert_eq!(cg.total_len(), 4);
        cg.for_each_group(|k, vs| {
            assert_eq!(vs.key(), k);
            let (side, &v) = vs.next().unwrap();
            firsts.push((*k, side, v));
        });
        assert_eq!(firsts, vec![(1, 0, 10), (2, 0, 20)]);
    }

    #[test]
    fn cogroup_single_side_matches_grouped_runs() {
        let r0 = [(1u32, 1u32), (2, 2), (2, 3)];
        let r1 = [(2, 4), (3, 5)];
        let mut plain: Vec<(u32, Vec<u32>)> = Vec::new();
        GroupedRuns::new(vec![&r0[..], &r1[..]]).for_each_group(|k, vs| {
            plain.push((*k, vs.copied().collect()));
        });
        let mut co: Vec<(u32, Vec<u32>)> = Vec::new();
        CoGroupedRuns::new(vec![vec![&r0[..], &r1[..]]]).for_each_group(|k, vs| {
            for (side, _) in vs.by_ref() {
                assert_eq!(side, 0);
            }
            co.push((*k, Vec::new()));
        });
        // Key walk agrees; re-walk collecting values.
        let mut co_vals: Vec<(u32, Vec<u32>)> = Vec::new();
        CoGroupedRuns::new(vec![vec![&r0[..], &r1[..]]]).for_each_group(|k, vs| {
            co_vals.push((*k, vs.map(|(_, &v)| v).collect()));
        });
        assert_eq!(plain, co_vals);
        assert_eq!(
            plain.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            co.iter().map(|(k, _)| *k).collect::<Vec<_>>()
        );
    }
}
