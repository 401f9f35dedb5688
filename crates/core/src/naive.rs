//! Per-ego ego-betweenness: the "straightforward algorithm".
//!
//! [`ego_betweenness_of`] evaluates one vertex's ego network directly by
//! Lemma 2:
//!
//! ```text
//! CB(p) = Σ over non-adjacent neighbor pairs (u,v) of 1 / (1 + |N(u) ∩ N(v) ∩ N(p)|)
//! ```
//!
//! It is a one-shot wrapper over the ego-local kernel
//! ([`crate::ego_kernel::EgoKernel`]) that OptBSearch completes its egos
//! with, and serves the daemon's `SCORE`, the recompute-on-demand lazy
//! top-k maintainer, and the paper's Section-I straw-man baseline
//! ("compute every ego network", [`compute_all_naive`]).
//! [`ego_betweenness_reference`] shares no code with it and is the
//! independent oracle the tests compare against.
//!
//! Both functions are generic over [`EgoView`] so they run on the static
//! [`CsrGraph`] and the mutable [`DynGraph`] alike.

use crate::cancel::{Cancel, Cancelled};
use crate::ego_kernel::EgoKernel;
use crate::stats::SearchStats;
use egobtw_graph::{CsrGraph, DynGraph, VertexId};
use std::cell::RefCell;

/// Minimal adjacency interface needed to evaluate one ego network.
pub trait EgoView {
    /// Number of vertices.
    fn n_vertices(&self) -> usize;
    /// Degree of `u`.
    fn degree_of(&self, u: VertexId) -> usize;
    /// Calls `f` for every neighbor of `u` (any order).
    fn for_each_neighbor(&self, u: VertexId, f: &mut dyn FnMut(VertexId));
    /// Edge membership.
    fn has_edge_between(&self, u: VertexId, v: VertexId) -> bool;
    /// Appends `N(u) ∩ N(v)` to `out` in ascending order. The default
    /// filters `N(u)` by membership; [`CsrGraph`] overrides it with the
    /// hybrid merge/gallop/bitmap dispatch and [`DynGraph`] with a
    /// smaller-set hash probe.
    fn common_neighbors_sorted_into(&self, u: VertexId, v: VertexId, out: &mut Vec<VertexId>) {
        let start = out.len();
        self.for_each_neighbor(u, &mut |w| {
            if self.has_edge_between(w, v) {
                out.push(w);
            }
        });
        out[start..].sort_unstable();
    }
}

impl EgoView for CsrGraph {
    fn n_vertices(&self) -> usize {
        self.n()
    }
    fn degree_of(&self, u: VertexId) -> usize {
        self.degree(u)
    }
    fn for_each_neighbor(&self, u: VertexId, f: &mut dyn FnMut(VertexId)) {
        for &v in self.neighbors(u) {
            f(v);
        }
    }
    fn has_edge_between(&self, u: VertexId, v: VertexId) -> bool {
        self.has_edge(u, v)
    }
    fn common_neighbors_sorted_into(&self, u: VertexId, v: VertexId, out: &mut Vec<VertexId>) {
        self.common_neighbors_into(u, v, out);
    }
}

impl EgoView for DynGraph {
    fn n_vertices(&self) -> usize {
        self.n()
    }
    fn degree_of(&self, u: VertexId) -> usize {
        self.degree(u)
    }
    fn for_each_neighbor(&self, u: VertexId, f: &mut dyn FnMut(VertexId)) {
        for &v in self.neighbors(u) {
            f(v);
        }
    }
    fn has_edge_between(&self, u: VertexId, v: VertexId) -> bool {
        self.has_edge(u, v)
    }
    fn common_neighbors_sorted_into(&self, u: VertexId, v: VertexId, out: &mut Vec<VertexId>) {
        let start = out.len();
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let larger = self.neighbors(b);
        for &w in self.neighbors(a) {
            if larger.contains(&w) {
                out.push(w);
            }
        }
        out[start..].sort_unstable();
    }
}

/// Exact `CB(p)`: a one-shot call into this thread's [`EgoKernel`], so
/// repeated calls reuse its buffers and allocate nothing per call once
/// they have grown (the position array to the largest graph seen).
///
/// Cost: one intersection per neighbour to build the ego's rows, then
/// the cheaper of the kernel's two evaluators, at most
/// `O(d(p)² · d(p)/64)`.
pub fn ego_betweenness_of<V: EgoView + ?Sized>(g: &V, p: VertexId) -> f64 {
    thread_local! {
        static KERNEL: RefCell<EgoKernel> = RefCell::new(EgoKernel::new());
    }
    KERNEL.with(|k| k.borrow_mut().score(g, p))
}

/// Dead-simple reference implementation (hash membership, no bitsets).
/// Quadratic-times-degree; used only to cross-check
/// [`ego_betweenness_of`] in tests.
pub fn ego_betweenness_reference<V: EgoView + ?Sized>(g: &V, p: VertexId) -> f64 {
    let mut nbrs: Vec<VertexId> = Vec::new();
    g.for_each_neighbor(p, &mut |v| nbrs.push(v));
    nbrs.sort_unstable();
    let in_ego: egobtw_graph::FxHashSet<VertexId> = nbrs.iter().copied().collect();
    let mut cb = 0.0;
    for (a, &u) in nbrs.iter().enumerate() {
        for &v in nbrs.iter().skip(a + 1) {
            if g.has_edge_between(u, v) {
                continue;
            }
            let mut connectors = 0u32;
            for &w in &nbrs {
                if w != u && w != v && g.has_edge_between(w, u) && g.has_edge_between(w, v) {
                    connectors += 1;
                }
            }
            debug_assert!(in_ego.contains(&u));
            cb += 1.0 / (f64::from(connectors) + 1.0);
        }
    }
    cb
}

/// The straightforward all-vertices baseline: one independent ego
/// computation per vertex. This is the algorithm the paper's introduction
/// dismisses as too costly — kept as a measured baseline and oracle.
pub fn compute_all_naive(g: &CsrGraph) -> Vec<f64> {
    compute_all_naive_cancellable(g, &Cancel::never())
        .expect("a never-cancelled sweep cannot be cancelled")
        .0
}

/// [`compute_all_naive`] polling `cancel` every few hundred egos, so a
/// deadline-expired or abandoned request stops mid-sweep. The counters
/// follow the kernel engines' rule: every vertex is an exact computation,
/// and each adds its ego edges to `triangles_processed`.
pub fn compute_all_naive_cancellable(
    g: &CsrGraph,
    cancel: &Cancel,
) -> Result<(Vec<f64>, SearchStats), Cancelled> {
    let mut kernel = EgoKernel::new();
    let mut stats = SearchStats::default();
    let mut out = Vec::with_capacity(g.n());
    for p in 0..g.n() as VertexId {
        if p % 256 == 0 {
            cancel.check()?;
        }
        out.push(kernel.score(g, p));
        stats.triangles_processed += kernel.ego_edges() as u64;
    }
    stats.exact_computations = g.n();
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use egobtw_gen::classic;

    const EPS: f64 = 1e-9;

    fn assert_close(a: f64, b: f64) {
        assert!(
            (a - b).abs() <= EPS * a.abs().max(b.abs()).max(1.0),
            "{a} vs {b}"
        );
    }

    #[test]
    fn star_hub_is_maximal() {
        let g = classic::star(7);
        assert_close(ego_betweenness_of(&g, 0), 15.0); // C(6,2)
        for leaf in 1..7 {
            assert_close(ego_betweenness_of(&g, leaf), 0.0);
        }
    }

    #[test]
    fn complete_graph_all_zero() {
        let g = classic::complete(8);
        for v in g.vertices() {
            assert_close(ego_betweenness_of(&g, v), 0.0);
        }
    }

    #[test]
    fn path_interior_is_one() {
        let g = classic::path(5);
        assert_close(ego_betweenness_of(&g, 0), 0.0);
        for v in 1..4 {
            assert_close(ego_betweenness_of(&g, v), 1.0);
        }
    }

    #[test]
    fn cycle_values() {
        for n in [4usize, 5, 8] {
            let g = classic::cycle(n);
            for v in g.vertices() {
                assert_close(ego_betweenness_of(&g, v), 1.0);
            }
        }
        let g3 = classic::cycle(3);
        for v in g3.vertices() {
            assert_close(ego_betweenness_of(&g3, v), 0.0);
        }
    }

    #[test]
    fn paper_example1_cb_of_d() {
        let g = egobtw_gen::toy::paper_graph();
        assert_close(ego_betweenness_of(&g, egobtw_gen::toy::ids::D), 14.0 / 3.0);
    }

    #[test]
    fn golden_values_on_paper_graph() {
        let g = egobtw_gen::toy::paper_graph();
        for (v, expect) in egobtw_gen::toy::expected_cb() {
            let got = ego_betweenness_of(&g, v);
            assert!(
                (got - expect).abs() < 1e-9,
                "CB({}) = {got}, paper says {expect}",
                egobtw_gen::toy::label(v)
            );
        }
    }

    #[test]
    fn bitset_matches_reference_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..20 {
            let n = rng.random_range(5..40);
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in u + 1..n as u32 {
                    if rng.random_bool(0.25) {
                        edges.push((u, v));
                    }
                }
            }
            let g = CsrGraph::from_edges(n, &edges);
            for v in g.vertices() {
                let fast = ego_betweenness_of(&g, v);
                let slow = ego_betweenness_reference(&g, v);
                assert!(
                    (fast - slow).abs() < 1e-9,
                    "trial {trial}, vertex {v}: {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn works_on_dyn_graph() {
        let g = classic::star(6);
        let dg = DynGraph::from_csr(&g);
        assert_close(ego_betweenness_of(&dg, 0), 10.0);
        assert_close(
            ego_betweenness_of(&dg, 0),
            ego_betweenness_reference(&dg, 0),
        );
    }

    #[test]
    fn wide_ego_crosses_word_boundary() {
        // Hub with 130 leaves exercises multi-word bitset rows.
        let g = classic::star(131);
        assert_close(ego_betweenness_of(&g, 0), 130.0 * 129.0 / 2.0);
    }
}
