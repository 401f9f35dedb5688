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
//! `CB(u) = d(d-1)/2 − Σ_entries (1 − contrib)`, evaluated by
//! [`PairMap::cb_given_degree_det`]; on a partial map the same expression
//! is an upper bound on `CB(u)` (Lemma 3), and it only decreases as
//! entries are added or incremented.
//!
//! The maps serve `compute_all::build_store` and the exact dynamic
//! maintainer (`LocalIndex`) it builds them for, which updates them;
//! every all-vertex and top-k engine scores egos with
//! `ego_kernel::EgoKernel` instead.

use egobtw_graph::{pack_pair, FxHashMap, VertexId};

/// Contribution of one stored entry to `CB` (absent entries contribute 1).
#[inline]
pub fn entry_contribution(val: u32) -> f64 {
    if val == 0 {
        0.0
    } else {
        1.0 / (f64::from(val) + 1.0)
    }
}

/// One vertex's pair-count map.
#[derive(Clone, Debug, Default)]
pub struct PairMap {
    map: FxHashMap<u64, u32>,
}

impl PairMap {
    /// Marks `(i,j)` as an edge between neighbors (`val = 0`).
    ///
    /// Must be called at most once per pair: the whole-graph pass invokes
    /// it exactly once per triangle corner.
    #[inline]
    pub fn set_edge(&mut self, i: VertexId, j: VertexId) {
        let prev = self.map.insert(pack_pair(i, j), 0);
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
        use std::collections::hash_map::Entry;
        match self.map.entry(pack_pair(i, j)) {
            Entry::Occupied(mut e) => {
                debug_assert!(*e.get() > 0, "bumping an edge entry ({i},{j})");
                *e.get_mut() += 1;
                *e.get()
            }
            Entry::Vacant(slot) => {
                slot.insert(1);
                1
            }
        }
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

    /// Iterates `(packed_pair, val)` entries (hash order).
    #[inline]
    pub fn entries(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }

    /// Evaluates `d(d−1)/2 − Σ (1 − contrib)` over the stored entries,
    /// summed in sorted key order: two maps with equal *content* yield
    /// bit-identical values no matter what order the content was built in.
    ///
    /// On a complete map this is `CB(u)` (Lemma 2); on a partial map it is
    /// an upper bound on `CB(u)` (Lemma 3). The exact dynamic maintainer
    /// starts from these values, so two indices built on the same graph
    /// agree bit for bit however their maps were filled.
    pub fn cb_given_degree_det(&self, degree: usize) -> f64 {
        let mut entries: Vec<(u64, u32)> = self.entries().collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        let d = degree as f64;
        let mut cb = d * (d - 1.0) / 2.0;
        for (_, val) in entries {
            cb -= 1.0 - entry_contribution(val);
        }
        cb
    }

    // ----- mutation helpers used by the dynamic-maintenance crate -----

    /// Inserts or overwrites the raw value for a pair (dynamic updates
    /// rewrite entries when edges appear/disappear inside an ego network).
    #[inline]
    pub fn set_raw(&mut self, i: VertexId, j: VertexId, val: u32) {
        self.map.insert(pack_pair(i, j), val);
    }

    /// Removes a pair entirely (e.g. when a neighbor leaves the ego
    /// network). Returns the previous value.
    #[inline]
    pub fn remove(&mut self, i: VertexId, j: VertexId) -> Option<u32> {
        self.map.remove(&pack_pair(i, j))
    }

    /// Decrements the connector count of a non-adjacent pair, removing the
    /// entry when it reaches zero (absent ≡ zero connectors). Returns the
    /// new count. Panics if the entry is missing, and in debug builds if
    /// it is an edge entry.
    #[inline]
    pub fn remove_connector(&mut self, i: VertexId, j: VertexId) -> u32 {
        let key = pack_pair(i, j);
        let slot = self
            .map
            .get_mut(&key)
            .expect("remove_connector on missing entry");
        debug_assert!(*slot > 0, "remove_connector on an edge entry");
        *slot -= 1;
        let now = *slot;
        if now == 0 {
            self.map.remove(&key);
        }
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

    /// Number of vertices covered.
    pub fn n(&self) -> usize {
        self.maps.len()
    }

    /// Extends the store with one empty map (vertex insertion).
    pub fn push_vertex(&mut self) {
        self.maps.push(PairMap::default());
    }

    /// Total entries across all maps — the live memory of Theorem 2's
    /// `O(Σ d(u)²)` bound.
    pub fn total_entries(&self) -> usize {
        self.maps.iter().map(PairMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contributions() {
        assert_eq!(entry_contribution(0), 0.0);
        assert_eq!(entry_contribution(1), 0.5);
        assert_eq!(entry_contribution(2), 1.0 / 3.0);
    }

    #[test]
    fn cb_formula_matches_hand_computation() {
        // Degree 4 → 6 pairs. One edge pair (0), one pair with 2
        // connectors (1/3), one with 1 connector (1/2); three absent (1).
        let mut m = PairMap::default();
        m.set_edge(1, 2);
        m.add_connector(3, 4);
        m.add_connector(3, 4);
        m.add_connector(5, 6);
        let cb = m.cb_given_degree_det(4);
        let expect = 3.0 + 0.0 + 1.0 / 3.0 + 0.5;
        assert!((cb - expect).abs() < 1e-12, "cb = {cb}");
    }

    #[test]
    fn bound_tightens_monotonically() {
        let mut m = PairMap::default();
        let d = 5;
        let mut prev = m.cb_given_degree_det(d);
        m.add_connector(0, 1);
        let b1 = m.cb_given_degree_det(d);
        assert!(b1 < prev);
        prev = b1;
        m.add_connector(0, 1);
        let b2 = m.cb_given_degree_det(d);
        assert!(b2 < prev);
        prev = b2;
        m.set_edge(2, 3);
        assert!(m.cb_given_degree_det(d) < prev);
    }

    #[test]
    fn det_variant_agrees_and_is_order_independent() {
        // Two maps with identical content built in opposite orders.
        let mut a = PairMap::default();
        let mut b = PairMap::default();
        let pairs: [(VertexId, VertexId); 4] = [(0, 1), (2, 3), (4, 5), (6, 7)];
        for &(i, j) in &pairs {
            a.add_connector(i, j);
        }
        for &(i, j) in pairs.iter().rev() {
            b.add_connector(i, j);
        }
        a.set_edge(8, 9);
        b.set_edge(8, 9);
        let (da, db) = (a.cb_given_degree_det(6), b.cb_given_degree_det(6));
        assert_eq!(da, db, "bit-identical across construction orders");
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
    }

    #[test]
    fn store_totals() {
        let mut s = SMapStore::new(3);
        s.map_mut(0).set_edge(1, 2);
        s.map_mut(2).add_connector(0, 1);
        assert_eq!(s.total_entries(), 2);
        assert_eq!(s.map(1).len(), 0);
    }

    #[test]
    #[should_panic(expected = "missing entry")]
    fn remove_connector_missing_panics() {
        let mut m = PairMap::default();
        m.remove_connector(1, 2);
    }
}
