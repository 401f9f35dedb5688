//! The paper's total order `≺` and the edge orientation it induces.
//!
//! Definition (Section II): `u ≺ v` iff `d(u) > d(v)`, or `d(u) = d(v)`
//! and `u` has a **larger id** than `v`. Orienting every undirected edge
//! from its `≺`-smaller endpoint to its `≺`-larger endpoint yields an
//! acyclic graph `G⁺` whose out-degrees are bounded by `O(α)`-ish terms on
//! real graphs; enumerating triangles on `G⁺` visits each triangle exactly
//! once, at its `≺`-minimal (highest-degree) corner. BaseBSearch leans on
//! exactly this property: once vertex `u`'s turn in the order arrives, all
//! triangles containing `u` have been seen.

use crate::csr::CsrGraph;
use crate::VertexId;

/// Precomputed total order `≺` over the vertices of one graph.
#[derive(Clone, Debug)]
pub struct DegreeOrder {
    /// `rank[v]` = position of `v` in the order (0 = first = highest degree).
    rank: Box<[u32]>,
    /// `order[i]` = the vertex at position `i`.
    order: Box<[VertexId]>,
}

impl DegreeOrder {
    /// Computes the order for `g`.
    pub fn new(g: &CsrGraph) -> Self {
        let mut order: Vec<VertexId> = (0..g.n() as VertexId).collect();
        // Degree descending; larger id first on ties (paper's tiebreak).
        order.sort_unstable_by(|&a, &b| g.degree(b).cmp(&g.degree(a)).then_with(|| b.cmp(&a)));
        let mut rank = vec![0u32; g.n()];
        for (i, &v) in order.iter().enumerate() {
            rank[v as usize] = i as u32;
        }
        DegreeOrder {
            rank: rank.into_boxed_slice(),
            order: order.into_boxed_slice(),
        }
    }

    /// `true` iff `u ≺ v` (`u` comes earlier: higher degree / larger id).
    #[inline]
    pub fn precedes(&self, u: VertexId, v: VertexId) -> bool {
        self.rank[u as usize] < self.rank[v as usize]
    }

    /// Position of `v` in the order.
    #[inline]
    pub fn rank(&self, v: VertexId) -> u32 {
        self.rank[v as usize]
    }

    /// Vertices in `≺` order (non-increasing degree).
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.order.iter().copied()
    }

    /// The vertex at position `i`.
    #[inline]
    pub fn at(&self, i: usize) -> VertexId {
        self.order[i]
    }
}

/// A vertex renaming that sorts the id space by the total order `≺`
/// (degree descending, larger original id first on ties): new id `0` is
/// the highest-degree vertex.
///
/// Relabeling a graph this way puts the hot hub rows at the front of the
/// CSR arena (cache locality for the rows every intersection rescans),
/// makes `CsrGraph::edges`' `u < v` ownership — the one the all-egos
/// driver and the `S`-map pass use — put each edge on its *higher*-degree
/// endpoint, and keeps small new ids exactly where the hub-bitmap layer
/// spends its budget. Engines run on the relabeled twin
/// and inverse-map results back via [`Relabeling::restore_scores`] /
/// [`Relabeling::restore_topk`].
#[derive(Clone, Debug)]
pub struct Relabeling {
    /// `new_of_old[old] = new`.
    new_of_old: Box<[VertexId]>,
    /// `old_of_new[new] = old`.
    old_of_new: Box<[VertexId]>,
}

impl Relabeling {
    /// Computes the degree-descending relabeling of `g`.
    pub fn degree_descending(g: &CsrGraph) -> Self {
        let order = DegreeOrder::new(g);
        let old_of_new: Box<[VertexId]> = order.iter().collect();
        let mut new_of_old = vec![0 as VertexId; g.n()];
        for (new, &old) in old_of_new.iter().enumerate() {
            new_of_old[old as usize] = new as VertexId;
        }
        Relabeling {
            new_of_old: new_of_old.into_boxed_slice(),
            old_of_new,
        }
    }

    /// Number of vertices in the renamed universe.
    #[inline]
    pub fn n(&self) -> usize {
        self.new_of_old.len()
    }

    /// The new id of original vertex `old`.
    #[inline]
    pub fn to_new(&self, old: VertexId) -> VertexId {
        self.new_of_old[old as usize]
    }

    /// The original id of renamed vertex `new`.
    #[inline]
    pub fn to_old(&self, new: VertexId) -> VertexId {
        self.old_of_new[new as usize]
    }

    /// The relabeled twin of `g` (hub bitmaps auto-chosen as in
    /// [`CsrGraph::from_edges`]). `g` must be the graph (or an
    /// isomorphic twin) this relabeling was computed from.
    pub fn apply(&self, g: &CsrGraph) -> CsrGraph {
        assert_eq!(g.n(), self.n(), "relabeling size mismatch");
        let edges: Vec<(VertexId, VertexId)> = g
            .edges()
            .map(|(u, v)| (self.to_new(u), self.to_new(v)))
            .collect();
        CsrGraph::from_edges(self.n(), &edges)
    }

    /// Maps a per-vertex score vector computed on the relabeled twin back
    /// to original vertex indexing.
    pub fn restore_scores(&self, new_scores: &[f64]) -> Vec<f64> {
        assert_eq!(new_scores.len(), self.n(), "score vector size mismatch");
        (0..self.n())
            .map(|old| new_scores[self.new_of_old[old] as usize])
            .collect()
    }

    /// Maps top-k entries computed on the relabeled twin back to original
    /// ids, restoring the engines' ordering contract (descending score,
    /// ascending original id among exact float ties).
    pub fn restore_topk(&self, mut entries: Vec<(VertexId, f64)>) -> Vec<(VertexId, f64)> {
        for e in entries.iter_mut() {
            e.0 = self.to_old(e.0);
        }
        entries.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        entries
    }
}

/// The oriented graph `G⁺`: for each vertex, its out-neighbors
/// `N⁺(u) = { v ∈ N(u) : u ≺ v }`, stored sorted by rank so that
/// `N⁺(u) ∩ N⁺(v)` is a sorted-merge away.
#[derive(Clone, Debug)]
pub struct OrientedGraph {
    offsets: Box<[usize]>,
    /// Out-neighbors, each list ascending by rank.
    adj: Box<[VertexId]>,
}

impl OrientedGraph {
    /// Orients `g` according to `order`.
    pub fn new(g: &CsrGraph, order: &DegreeOrder) -> Self {
        let n = g.n();
        let mut out_deg = vec![0usize; n];
        for u in g.vertices() {
            out_deg[u as usize] = g
                .neighbors(u)
                .iter()
                .filter(|&&v| order.precedes(u, v))
                .count();
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0;
        offsets.push(0);
        for &d in &out_deg {
            acc += d;
            offsets.push(acc);
        }
        let mut adj = vec![0 as VertexId; acc];
        for u in g.vertices() {
            let slot = &mut adj[offsets[u as usize]..offsets[u as usize + 1]];
            let mut i = 0;
            for &v in g.neighbors(u) {
                if order.precedes(u, v) {
                    slot[i] = v;
                    i += 1;
                }
            }
            slot.sort_unstable_by_key(|&v| order.rank(v));
        }
        OrientedGraph {
            offsets: offsets.into_boxed_slice(),
            adj: adj.into_boxed_slice(),
        }
    }

    /// Out-neighbors of `u`, ascending by rank.
    #[inline]
    pub fn out_neighbors(&self, u: VertexId) -> &[VertexId] {
        &self.adj[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: VertexId) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// Total number of directed edges (equals `m` of the source graph).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.adj.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star_plus_edge() -> CsrGraph {
        // 0 is the hub of a 4-star; extra edge (1,2).
        CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
    }

    #[test]
    fn order_is_degree_desc_then_id_desc() {
        let g = star_plus_edge();
        let ord = DegreeOrder::new(&g);
        // degrees: 0:4, 1:2, 2:2, 3:1, 4:1 → order 0, 2, 1, 4, 3
        let seq: Vec<_> = ord.iter().collect();
        assert_eq!(seq, vec![0, 2, 1, 4, 3]);
        assert!(ord.precedes(0, 1));
        assert!(ord.precedes(2, 1), "tie broken toward larger id");
        assert!(ord.precedes(4, 3));
        assert!(!ord.precedes(3, 4));
        assert_eq!(ord.at(0), 0);
        assert_eq!(ord.rank(3), 4);
    }

    #[test]
    fn orientation_is_total_and_acyclic() {
        let g = star_plus_edge();
        let ord = DegreeOrder::new(&g);
        let og = OrientedGraph::new(&g, &ord);
        assert_eq!(og.edge_count(), g.m());
        for u in g.vertices() {
            for &v in og.out_neighbors(u) {
                assert!(ord.precedes(u, v), "edges point down the order");
            }
        }
        // Each undirected edge appears exactly once across all out-lists.
        let directed: usize = g.vertices().map(|u| og.out_degree(u)).sum();
        assert_eq!(directed, g.m());
    }

    #[test]
    fn out_lists_sorted_by_rank() {
        let g = CsrGraph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (1, 2),
                (1, 3),
                (2, 3),
            ],
        );
        let ord = DegreeOrder::new(&g);
        let og = OrientedGraph::new(&g, &ord);
        for u in g.vertices() {
            let ranks: Vec<_> = og.out_neighbors(u).iter().map(|&v| ord.rank(v)).collect();
            assert!(ranks.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn relabel_roundtrip_and_isomorphism() {
        let g = star_plus_edge();
        let relab = Relabeling::degree_descending(&g);
        // Order is 0, 2, 1, 4, 3 → new ids follow it.
        assert_eq!(relab.to_new(0), 0);
        assert_eq!(relab.to_new(2), 1);
        assert_eq!(relab.to_new(1), 2);
        for v in 0..5u32 {
            assert_eq!(relab.to_old(relab.to_new(v)), v);
        }
        let rg = relab.apply(&g);
        assert_eq!(rg.n(), g.n());
        assert_eq!(rg.m(), g.m());
        // Isomorphism: edges map exactly, degrees are non-increasing.
        for (u, v) in g.edges() {
            assert!(rg.has_edge(relab.to_new(u), relab.to_new(v)));
        }
        let degs: Vec<usize> = rg.vertices().map(|v| rg.degree(v)).collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]), "degree descending");
    }

    #[test]
    fn relabel_restores_scores_and_topk() {
        let g = star_plus_edge();
        let relab = Relabeling::degree_descending(&g);
        // Scores indexed by new id = 10 * old id.
        let new_scores: Vec<f64> = (0..5).map(|new| 10.0 * relab.to_old(new) as f64).collect();
        let old_scores = relab.restore_scores(&new_scores);
        assert_eq!(old_scores, vec![0.0, 10.0, 20.0, 30.0, 40.0]);
        // Top-k entries map back and re-sort with the id tiebreak.
        let restored = relab.restore_topk(vec![(relab.to_new(3), 5.0), (relab.to_new(1), 5.0)]);
        assert_eq!(restored, vec![(1, 5.0), (3, 5.0)]);
    }

    #[test]
    fn relabel_empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        let relab = Relabeling::degree_descending(&g);
        assert_eq!(relab.n(), 0);
        assert_eq!(relab.apply(&g).n(), 0);
        assert!(relab.restore_scores(&[]).is_empty());
        assert!(relab.restore_topk(Vec::new()).is_empty());
    }

    #[test]
    fn regular_graph_tiebreaks_consistently() {
        // 4-cycle: all degree 2; order must be ids descending.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let ord = DegreeOrder::new(&g);
        let seq: Vec<_> = ord.iter().collect();
        assert_eq!(seq, vec![3, 2, 1, 0]);
    }
}
