//! The per-vertex pair-count maps `S_u`.
//!
//! For each vertex `u`, `S_u` records, for pairs `(i,j)` of `u`'s
//! neighbors (keyed by packed pairs):
//!
//! * **absent** — `(i,j) ∉ E` and no connector discovered yet; such a pair
//!   contributes `1` to `CB(u)` if the map is complete (it is a `S̈` pair);
//! * **`val = 0`** — `(i,j) ∈ E` (the pair contributes `0`, and is never
//!   incremented — mirroring Algorithm 1's "keep `val = 0` if connected");
//! * **`val = c > 0`** — `(i,j) ∉ E` with `c` discovered connectors
//!   (vertices adjacent to both, inside `N(u)`, other than `u`); the pair
//!   contributes `1/(c+1)`.
//!
//! Each map tallies its connector entries by count as it mutates, so
//! [`PairMap::cb`] reads `CB(u)` off that histogram, with the absent
//! pairs counted as `C(d,2)` minus the stored entries, and sums it with
//! [`cb_of_histogram`], `EgoKernel`'s own summation: a complete map
//! scores bit for bit as the kernel does.
//!
//! The maps serve `compute_all::build_store` and the exact dynamic
//! maintainer (`LocalIndex`) it builds them for, which updates them;
//! every all-vertex and top-k engine scores egos with
//! `ego_kernel::EgoKernel` instead.

use crate::ego_kernel::cb_of_histogram;
use egobtw_graph::{pack_pair, FxHashMap, VertexId};
use std::collections::hash_map::Entry;

/// One vertex's pair-count map.
#[derive(Clone, Debug, Default)]
pub struct PairMap {
    map: FxHashMap<u64, u32>,
    /// `by_count[c − 1]` entries hold `c ≥ 1` connectors; the last bucket
    /// is never zero.
    by_count: Vec<u64>,
}

/// Moves one entry's tally from value `was` to value `now` (`None`: no
/// entry; edge entries are not tallied) and trims empty last buckets.
#[inline]
fn retally(by_count: &mut Vec<u64>, was: Option<u32>, now: Option<u32>) {
    if let Some(c @ 1..) = was {
        by_count[c as usize - 1] -= 1;
    }
    if let Some(c @ 1..) = now {
        if by_count.len() < c as usize {
            by_count.resize(c as usize, 0);
        }
        by_count[c as usize - 1] += 1;
    }
    while by_count.last() == Some(&0) {
        by_count.pop();
    }
}

impl PairMap {
    /// Marks `(i,j)` as an edge between neighbors (`val = 0`).
    ///
    /// Must be called at most once per pair: the whole-graph pass invokes
    /// it exactly once per triangle corner.
    #[inline]
    pub fn set_edge(&mut self, i: VertexId, j: VertexId) {
        let prev = self.set_raw(i, j, 0);
        debug_assert!(
            prev.is_none(),
            "edge entry ({i},{j}) written twice (prev = {prev:?})"
        );
    }

    /// Records one more connector for the non-adjacent pair `(i,j)`.
    ///
    /// The caller must have verified `(i,j) ∉ E`; edge entries are never
    /// incremented.
    #[inline]
    pub fn add_connector(&mut self, i: VertexId, j: VertexId) -> u32 {
        let (was, now) = match self.map.entry(pack_pair(i, j)) {
            Entry::Occupied(mut e) => {
                debug_assert!(*e.get() > 0, "bumping an edge entry ({i},{j})");
                *e.get_mut() += 1;
                (Some(*e.get() - 1), *e.get())
            }
            Entry::Vacant(slot) => (None, *slot.insert(1)),
        };
        retally(&mut self.by_count, was, Some(now));
        now
    }

    /// Looks up the raw value for a pair.
    #[inline]
    pub fn get(&self, i: VertexId, j: VertexId) -> Option<u32> {
        self.map.get(&pack_pair(i, j)).copied()
    }

    /// Number of stored entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing has been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `CB(u)` for an ego of `degree` neighbours whose map is complete
    /// (Lemma 2), summed as `EgoKernel` sums it: [`cb_of_histogram`] over
    /// the absent pairs and the connector tallies. `+0.0` below degree 2,
    /// as the kernel returns.
    pub fn cb(&self, degree: usize) -> f64 {
        if degree < 2 {
            return 0.0;
        }
        let pairs = (degree * (degree - 1) / 2) as u64;
        cb_of_histogram(pairs - self.map.len() as u64, &self.by_count)
    }

    // ----- mutation helpers used by the dynamic-maintenance crate -----

    /// Inserts or overwrites the raw value for a pair (dynamic updates
    /// rewrite entries when edges appear/disappear inside an ego network).
    /// Returns the previous value.
    #[inline]
    pub fn set_raw(&mut self, i: VertexId, j: VertexId, val: u32) -> Option<u32> {
        let prev = self.map.insert(pack_pair(i, j), val);
        retally(&mut self.by_count, prev, Some(val));
        prev
    }

    /// Removes a pair entirely (e.g. when a neighbor leaves the ego
    /// network). Returns the previous value.
    #[inline]
    pub fn remove(&mut self, i: VertexId, j: VertexId) -> Option<u32> {
        let prev = self.map.remove(&pack_pair(i, j));
        retally(&mut self.by_count, prev, None);
        prev
    }

    /// Decrements the connector count of a non-adjacent pair, removing the
    /// entry when it reaches zero (absent ≡ zero connectors). Returns the
    /// new count. Panics if the entry is missing, and in debug builds if
    /// it is an edge entry.
    #[inline]
    pub fn remove_connector(&mut self, i: VertexId, j: VertexId) -> u32 {
        let Entry::Occupied(mut e) = self.map.entry(pack_pair(i, j)) else {
            panic!("remove_connector on missing entry");
        };
        debug_assert!(*e.get() > 0, "remove_connector on an edge entry");
        *e.get_mut() -= 1;
        let now = *e.get();
        if now == 0 {
            e.remove();
        }
        retally(&mut self.by_count, Some(now + 1), (now > 0).then_some(now));
        now
    }
}

/// The full store: one [`PairMap`] per vertex.
#[derive(Clone, Debug, Default)]
pub struct SMapStore {
    maps: Vec<PairMap>,
}

impl SMapStore {
    /// Store for `n` vertices, all maps empty.
    pub fn new(n: usize) -> Self {
        SMapStore {
            maps: vec![PairMap::default(); n],
        }
    }

    /// Immutable access to `S_u`.
    #[inline]
    pub fn map(&self, u: VertexId) -> &PairMap {
        &self.maps[u as usize]
    }

    /// Mutable access to `S_u`.
    #[inline]
    pub fn map_mut(&mut self, u: VertexId) -> &mut PairMap {
        &mut self.maps[u as usize]
    }

    /// Extends the store with one empty map (vertex insertion).
    pub fn push_vertex(&mut self) {
        self.maps.push(PairMap::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cb_formula_matches_hand_computation() {
        // Degree 4 → 6 pairs. One edge pair (0), one pair with 2
        // connectors (1/3), one with 1 connector (1/2); three absent (1).
        let mut m = PairMap::default();
        m.set_edge(1, 2);
        m.add_connector(3, 4);
        m.add_connector(3, 4);
        m.add_connector(5, 6);
        assert_eq!(m.cb(4), cb_of_histogram(3, &[1, 1]));
        assert_eq!(m.cb(4), 3.0 + 0.5 + 1.0 / 3.0);
        assert_eq!(m.cb(1).to_bits(), 0.0f64.to_bits(), "+0.0 below degree 2");
    }

    #[test]
    fn bound_tightens_monotonically() {
        let mut m = PairMap::default();
        let d = 5;
        let mut prev = m.cb(d);
        m.add_connector(0, 1);
        let b1 = m.cb(d);
        assert!(b1 < prev);
        prev = b1;
        m.add_connector(0, 1);
        let b2 = m.cb(d);
        assert!(b2 < prev);
        prev = b2;
        m.set_edge(2, 3);
        assert!(m.cb(d) < prev);
    }

    #[test]
    fn det_variant_agrees_and_is_order_independent() {
        // Two maps with identical content, one built in the opposite order
        // through every mutation (overwrites, removals, decrements), score
        // bit for bit alike: the tallies follow the content.
        let mut a = PairMap::default();
        let mut b = PairMap::default();
        let pairs: [(VertexId, VertexId); 4] = [(0, 1), (2, 3), (4, 5), (6, 7)];
        for &(i, j) in &pairs {
            a.add_connector(i, j);
        }
        b.set_raw(8, 9, 5);
        for &(i, j) in pairs.iter().rev() {
            b.add_connector(i, j);
            b.add_connector(i, j);
            assert_eq!(b.remove_connector(i, j), 1);
        }
        b.set_raw(2, 4, 3);
        assert_eq!(b.remove(2, 4), Some(3));
        a.set_edge(8, 9);
        assert_eq!(b.set_raw(8, 9, 0), Some(5));
        assert_eq!(b.by_count, [4], "no trailing empty buckets");
        let (da, db) = (a.cb(6), b.cb(6));
        assert_eq!(da.to_bits(), db.to_bits());
        // Four one-connector pairs, one edge pair, ten absent pairs.
        assert_eq!(da, 15.0 - 4.0 * 0.5 - 1.0);
    }

    #[test]
    fn remove_connector_roundtrip() {
        let mut m = PairMap::default();
        m.add_connector(7, 9);
        m.add_connector(7, 9);
        assert_eq!(m.get(7, 9), Some(2));
        assert_eq!(m.remove_connector(9, 7), 1);
        assert_eq!(m.remove_connector(7, 9), 0);
        assert_eq!(m.get(7, 9), None, "entry vanishes at zero");
        assert!(m.is_empty() && m.by_count.is_empty());
    }

    #[test]
    #[should_panic(expected = "missing entry")]
    fn remove_connector_missing_panics() {
        let mut m = PairMap::default();
        m.remove_connector(1, 2);
    }
}
