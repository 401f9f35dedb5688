//! O(1) edge membership.
//!
//! Diamond counting tests `(x,y) ∈ E` once per diamond candidate — the
//! single hottest predicate in the system. A hash set of packed pair keys
//! answers it in O(1) versus `O(log d)` for CSR binary search; the `ablate`
//! harness quantifies the difference.
//!
//! Only the `S`-map pass behind the dynamic maintainers
//! (`compute_all::build_store` in `egobtw-core`) builds one: it tests
//! every diamond of the graph, so the build amortizes. The kernel engines
//! read adjacency inside an ego from their rows `N(p) ∩ N(a)`, and point
//! queries use [`CsrGraph::has_edge`].

use crate::csr::CsrGraph;
use crate::hash::FxHashSet;
use crate::pair::pack_pair;
use crate::VertexId;

/// Hash set of all undirected edges of a graph, keyed by packed pairs.
#[derive(Clone, Debug, Default)]
pub struct EdgeSet {
    set: FxHashSet<u64>,
}

impl EdgeSet {
    /// Builds the set from a CSR graph.
    pub fn from_graph(g: &CsrGraph) -> Self {
        let mut set = FxHashSet::default();
        set.reserve(g.m());
        for (u, v) in g.edges() {
            set.insert(pack_pair(u, v));
        }
        EdgeSet { set }
    }

    /// Empty set with capacity for `m` edges.
    pub fn with_capacity(m: usize) -> Self {
        let mut set = FxHashSet::default();
        set.reserve(m);
        EdgeSet { set }
    }

    /// Membership test (order-insensitive). Self-pairs are never edges.
    #[inline]
    pub fn contains(&self, u: VertexId, v: VertexId) -> bool {
        u != v && self.set.contains(&pack_pair(u, v))
    }

    /// Inserts an edge; returns `false` if it was already present.
    #[inline]
    pub fn insert(&mut self, u: VertexId, v: VertexId) -> bool {
        debug_assert_ne!(u, v);
        self.set.insert(pack_pair(u, v))
    }

    /// Removes an edge; returns `false` if it was absent.
    #[inline]
    pub fn remove(&mut self, u: VertexId, v: VertexId) -> bool {
        self.set.remove(&pack_pair(u, v))
    }

    /// Number of edges in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// `true` if no edges are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirrors_graph_edges() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let es = EdgeSet::from_graph(&g);
        assert_eq!(es.len(), 3);
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(es.contains(u, v), g.has_edge(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn insert_remove() {
        let mut es = EdgeSet::with_capacity(4);
        assert!(es.insert(2, 5));
        assert!(!es.insert(5, 2), "order-insensitive duplicate");
        assert!(es.contains(5, 2));
        assert!(es.remove(2, 5));
        assert!(!es.remove(2, 5));
        assert!(es.is_empty());
    }
}
