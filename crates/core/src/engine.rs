//! The shared triangle-driven engine behind BaseBSearch (Algorithm 1).
//!
//! The engine reduces the search to one primitive: *process a triangle*.
//! Processing triangle `{a,b,c}`:
//!
//! 1. writes the three edge entries (`S_a(b,c) = S_b(a,c) = S_c(a,b) = 0`);
//! 2. for each triangle edge `(p,q)` with third corner `t`, pairs `t`
//!    against the common neighbors of `(p,q)` seen in *previously
//!    processed* triangles (`cn(p,q)`, the paper's `rd(·)` lists): every
//!    such `x` with `(x,t) ∉ E` is a diamond — `t`'s opposite wing gains a
//!    connector in both `S_p` and `S_q`;
//! 3. appends `t` to `cn(p,q)` (and symmetrically for the other edges).
//!
//! Invariant: `x ∈ cn(p,q)` ⟺ triangle `{p,q,x}` has been processed.
//! Hence each triangle is processed at most once, every diamond is counted
//! exactly once (when the *later* of its two triangles is processed), and
//! a vertex's map `S_u` is complete exactly when every triangle containing
//! `u` has been processed.
//!
//! BaseBSearch achieves completeness by visiting vertices in the total
//! order and processing the triangles each vertex *leads*
//! ([`Engine::process_vertex_in_order`]; the caller builds the order and
//! the orientation).
//!
//! OptBSearch does not use this engine: it completes egos out of order
//! with the ego-local kernel ([`crate::ego_kernel`]), which on hub-heavy
//! graphs costs a fraction of pushing every diamond into hashed maps.

use crate::smap::SMapStore;
use crate::stats::SearchStats;
use egobtw_graph::triangle::intersect_rank_sorted;
use egobtw_graph::{pack_pair, CsrGraph, DegreeOrder, FxHashMap, OrientedGraph, VertexId};

/// Shared state of one search over one graph.
pub struct Engine<'g> {
    g: &'g CsrGraph,
    store: SMapStore,
    /// Per-edge list of common neighbors already seen in processed
    /// triangles (`rd` in Algorithm 3).
    cn: FxHashMap<u64, Vec<VertexId>>,
    tri_buf: Vec<(VertexId, VertexId)>,
    scratch: Vec<VertexId>,
    /// Work counters for the current run.
    pub stats: SearchStats,
}

impl<'g> Engine<'g> {
    /// Fresh engine over `g`: allocates empty maps and builds nothing
    /// else, so a search pays only for the triangles it processes.
    pub fn new(g: &'g CsrGraph) -> Self {
        Engine {
            g,
            store: SMapStore::new(g.n()),
            cn: FxHashMap::default(),
            tri_buf: Vec::new(),
            scratch: Vec::new(),
            stats: SearchStats::default(),
        }
    }

    /// The graph this engine runs over.
    pub fn graph(&self) -> &CsrGraph {
        self.g
    }

    /// Read access to the map store (tests and harnesses).
    pub fn store(&self) -> &SMapStore {
        &self.store
    }

    /// The dynamic upper bound `ũb(u)` (Lemma 3) from the current partial
    /// map; equals `CB(u)` once `u` is complete.
    #[inline]
    pub fn dynamic_bound(&self, u: VertexId) -> f64 {
        self.store.map(u).cb_given_degree(self.g.degree(u))
    }

    /// Core primitive: processes one *not yet processed* triangle.
    fn process_triangle(&mut self, a: VertexId, b: VertexId, c: VertexId) {
        self.stats.triangles_processed += 1;
        self.store.map_mut(a).set_edge(b, c);
        self.store.map_mut(b).set_edge(a, c);
        self.store.map_mut(c).set_edge(a, b);
        for (p, q, t) in [(a, b, c), (a, c, b), (b, c, a)] {
            let list = self.cn.entry(pack_pair(p, q)).or_default();
            for &x in list.iter() {
                debug_assert!(x != t, "triangle ({p},{q},{t}) processed twice");
                if !self.g.has_edge(x, t) {
                    self.store.map_mut(p).add_connector(x, t);
                    self.store.map_mut(q).add_connector(x, t);
                    self.stats.diamonds_counted += 1;
                }
            }
            // `list` stayed valid throughout: the loop body only touched
            // `store`/`g`/`stats`, all disjoint fields.
            list.push(t);
        }
    }

    /// BaseBSearch step: processes every triangle *led by* `u` (i.e. with
    /// `u` as its `≺`-minimal corner in `order`; `og` must orient this
    /// engine's graph by the same order). When vertices are fed in total
    /// order, `S_u` is complete at the end of `u`'s own call.
    pub fn process_vertex_in_order(
        &mut self,
        order: &DegreeOrder,
        og: &OrientedGraph,
        u: VertexId,
    ) {
        let mut tris = std::mem::take(&mut self.tri_buf);
        let mut scratch = std::mem::take(&mut self.scratch);
        tris.clear();
        let nu = og.out_neighbors(u);
        for &v in nu {
            scratch.clear();
            intersect_rank_sorted(order, nu, og.out_neighbors(v), &mut scratch);
            tris.extend(scratch.iter().map(|&w| (v, w)));
        }
        for &(v, w) in &tris {
            self.process_triangle(u, v, w);
        }
        self.tri_buf = tris;
        self.scratch = scratch;
    }

    /// Reads off `CB(u)` assuming `S_u` is already complete (BaseBSearch's
    /// in-order guarantee).
    pub fn finalize_in_order(&mut self, u: VertexId) -> f64 {
        self.stats.exact_computations += 1;
        self.dynamic_bound(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ego_kernel::{EgoCompletion, EgoKernel};
    use crate::naive::ego_betweenness_of;
    use egobtw_gen::{classic, gnp, toy};

    fn assert_close(a: f64, b: f64, what: &str) {
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
            "{what}: {a} vs {b}"
        );
    }

    /// Ordered processing (BaseBSearch style) matches the oracle on every
    /// vertex; returns the values by vertex id.
    fn check_ordered(g: &CsrGraph) -> Vec<f64> {
        let mut e = Engine::new(g);
        let order = DegreeOrder::new(g);
        let og = OrientedGraph::new(g, &order);
        let mut cb_of = vec![0.0; g.n()];
        for u in order.iter() {
            e.process_vertex_in_order(&order, &og, u);
            let cb = e.finalize_in_order(u);
            assert_close(cb, ego_betweenness_of(g, u), &format!("vertex {u}"));
            cb_of[u as usize] = cb;
        }
        cb_of
    }

    #[test]
    fn ordered_matches_oracle_on_classics() {
        for g in [
            classic::complete(7),
            classic::star(9),
            classic::path(8),
            classic::cycle(6),
            classic::barbell(5),
            classic::karate_club(),
        ] {
            check_ordered(&g);
        }
    }

    #[test]
    fn ordered_matches_oracle_on_paper_graph() {
        check_ordered(&toy::paper_graph());
    }

    /// Out-of-order completion (OptBSearch's entry point, the ego-local
    /// kernel) agrees with this engine's ordered sweep and with the
    /// oracle, whatever the visit order.
    #[test]
    fn completion_any_order_matches_oracle() {
        let g = toy::paper_graph();
        let n = g.n() as VertexId;
        let ordered = check_ordered(&g);
        let weird = vec![5u32, 9, 0, 15, 8, 7, 3, 2, 11, 1, 6, 4, 13, 12, 14, 10];
        for visit in [(0..n).collect(), (0..n).rev().collect(), weird] {
            let mut done = EgoCompletion::new(g.n());
            let mut kernel = EgoKernel::new();
            for u in visit {
                let cb = done.complete(&mut kernel, &g, u);
                assert_close(cb, ordered[u as usize], &format!("vertex {u} vs sweep"));
                assert_close(cb, ego_betweenness_of(&g, u), &format!("vertex {u}"));
            }
        }
    }

    /// Interleaves the two entry points on one graph: two egos completed
    /// out of order first, then the ordered sweep, completing each vertex
    /// as the sweep finalizes it. Both agree with the oracle; the sweep
    /// processes every triangle exactly once and the completions
    /// enumerate it once per corner.
    #[test]
    fn mixed_ordered_and_completion() {
        let g = classic::karate_club();
        let mut e = Engine::new(&g);
        let order = DegreeOrder::new(&g);
        let og = OrientedGraph::new(&g, &order);
        let mut done = EgoCompletion::new(g.n());
        let mut kernel = EgoKernel::new();
        done.complete(&mut kernel, &g, 33);
        done.complete(&mut kernel, &g, 0);
        for u in order.iter() {
            e.process_vertex_in_order(&order, &og, u);
            let truth = ego_betweenness_of(&g, u);
            assert_close(e.finalize_in_order(u), truth, &format!("sweep v{u}"));
            assert_close(
                done.complete(&mut kernel, &g, u),
                truth,
                &format!("completion v{u}"),
            );
        }
        let triangles = egobtw_graph::triangle::count_triangles(&g);
        assert_eq!(e.stats.triangles_processed, triangles);
        assert_eq!(done.stats.triangles_processed, 3 * triangles);
        assert_eq!(done.stats.exact_computations, g.n());
    }

    #[test]
    fn random_graphs_match_oracle() {
        for seed in 0..5 {
            let g = gnp(40, 0.15, seed);
            check_ordered(&g);
        }
    }

    #[test]
    fn hub_graphs_match_oracle() {
        // Skewed R-MAT carries bitmap rows, so the diamond check's
        // `has_edge` takes its hub bit-probe branch here (the gnp and
        // classic graphs above have no hubs).
        for seed in 0..3 {
            let g = egobtw_gen::rmat(9, 4, egobtw_gen::rmat::RmatParams::skewed(), seed);
            assert!(g.hub_count() > 0, "seed {seed}: no hub rows");
            check_ordered(&g);
        }
    }

    #[test]
    fn dynamic_bound_dominates_cb_and_tightens() {
        // Ordered processing fills other vertices' maps ahead of their
        // turn; their partial-map bounds stay valid and only fall.
        let g = toy::paper_graph();
        let mut e = Engine::new(&g);
        let order = DegreeOrder::new(&g);
        let og = OrientedGraph::new(&g, &order);
        let truth: Vec<f64> = (0..16).map(|v| ego_betweenness_of(&g, v)).collect();
        let mut prev: Vec<f64> = (0..16u32).map(|v| e.dynamic_bound(v)).collect();
        for v in order.iter() {
            e.process_vertex_in_order(&order, &og, v);
            for u in 0..16u32 {
                let b = e.dynamic_bound(u);
                assert!(
                    b >= truth[u as usize] - 1e-9,
                    "bound {b} below CB {} for {u}",
                    truth[u as usize]
                );
                assert!(
                    b <= prev[u as usize] + 1e-9,
                    "bound increased for {u}: {b} > {}",
                    prev[u as usize]
                );
                prev[u as usize] = b;
            }
        }
    }
}
