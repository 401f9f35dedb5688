//! Exact ego-betweenness for *all* vertices, and the `S`-maps the exact
//! dynamic maintainer starts from.
//!
//! [`all_egos`] is the one all-egos driver behind [`compute_all`],
//! [`compute_all_cancellable`] and the parallel crate's VertexPEBW and
//! EdgePEBW. Its threads are scoped to the call and take claims from an
//! atomic cursor; at one thread it runs on the caller's thread.
//!
//! 1. Every undirected edge `(a,b)`, owned by `a < b`, gets its row
//!    `N(a) ∩ N(b)` computed once. A non-empty row puts both endpoints
//!    in a triangle.
//! 2. Each ego in a triangle is scored by its thread's [`EgoKernel`],
//!    which reads the ego's rows from phase 1 instead of intersecting
//!    every edge again from both ends. A triangle-free ego gets the value
//!    the kernel would return: `d(d−1)/2` for `d ≥ 2`, `+0.0` otherwise.
//!
//! Every score is the kernel's, so every entry point is bit-identical to
//! [`crate::naive::compute_all_naive`] at every thread count.
//!
//! [`build_store`] is the paper's edge-centric `S`-map pass: for every
//! edge `(a,b)` and `C = N(a) ∩ N(b)`, each `x ∈ C` closes a triangle
//! (`S_x(a,b) = 0`), and each non-adjacent pair `{x,y} ⊆ C` is a diamond
//! with connectors `a` and `b` (bumping `S_b(x,y)` and `S_a(x,y)`). A
//! finished map scores its ego through the kernel's summation
//! ([`crate::smap::PairMap::cb`]), so the exact dynamic maintainer starts
//! bit-identical to [`compute_all`].

use crate::cancel::{Cancel, Cancelled};
use crate::ego_kernel::EgoKernel;
use crate::naive::EgoView;
use crate::smap::SMapStore;
use crate::stats::SearchStats;
use egobtw_graph::{CsrGraph, EdgeSet, VertexId};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Owners, edges or egos per claim: small enough to balance hub-heavy
/// graphs and to stop a cancelled pass within milliseconds, large enough
/// that claims and cancellation polls cost nothing.
const CHUNK: usize = 64;

/// How [`all_egos`] cuts the edges into claims for phase 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeChunks {
    /// [`CHUNK`] owner vertices with every edge they own, so a hub's
    /// bundle is one claim (VertexPEBW's skewed load).
    ByOwner,
    /// [`CHUNK`] edges (EdgePEBW's balanced load).
    ByCount,
}

/// Computes `CB(v)` for every vertex on the caller's thread. Returns the
/// values and work counters.
pub fn compute_all(g: &CsrGraph) -> (Vec<f64>, SearchStats) {
    compute_all_cancellable(g, &Cancel::never())
        .expect("a never-cancelled pass cannot be cancelled")
}

/// [`compute_all`] with cooperative cancellation: polls `cancel` once per
/// claim in both phases.
pub fn compute_all_cancellable(
    g: &CsrGraph,
    cancel: &Cancel,
) -> Result<(Vec<f64>, SearchStats), Cancelled> {
    all_egos(g, 1, EdgeChunks::ByCount, cancel)
}

/// `CB(v)` for every vertex on `threads` threads (see the module docs).
/// Counters follow the kernel engines' rule: every vertex is an exact
/// computation, and each adds its ego edges to `triangles_processed`.
pub fn all_egos(
    g: &CsrGraph,
    threads: usize,
    chunks: EdgeChunks,
    cancel: &Cancel,
) -> Result<(Vec<f64>, SearchStats), Cancelled> {
    assert!(threads >= 1);
    let rows = EdgeRows::build(g, threads, chunks, cancel)?;
    let n = g.n();
    // Each slot is written once; routing the f64 bits through an atomic
    // changes nothing about the value.
    let cb: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let kernels = for_each_claim(
        threads,
        n.div_ceil(CHUNK),
        cancel,
        |(kernel, triangles): &mut (EgoKernel, u64), i| {
            let egos = &cb[i * CHUNK..((i + 1) * CHUNK).min(n)];
            for (p, slot) in (i * CHUNK..).zip(egos) {
                let value = if rows.in_triangle[p] {
                    let value = kernel.score(&rows, p as VertexId);
                    *triangles += kernel.ego_edges() as u64;
                    value
                } else {
                    // Not `CsrGraph::degree_bound`: that is −0.0 at d = 0,
                    // where the kernel returns +0.0.
                    let d = g.degree(p as VertexId) as u64;
                    (d * d.saturating_sub(1) / 2) as f64
                };
                slot.store(value.to_bits(), Ordering::Relaxed);
            }
        },
    )?;
    let stats = SearchStats {
        exact_computations: n,
        triangles_processed: kernels.iter().map(|k| k.1).sum(),
        ..SearchStats::default()
    };
    let cb = cb.into_iter().map(|b| f64::from_bits(b.into_inner()));
    Ok((cb.collect(), stats))
}

/// Runs `body(state, i)` for every claim `i < claims` on `threads`
/// threads (the caller's alone at one), each with its own state, polling
/// `cancel` once per claim. Returns the threads' states.
fn for_each_claim<S: Default + Send>(
    threads: usize,
    claims: usize,
    cancel: &Cancel,
    body: impl Fn(&mut S, usize) + Sync,
) -> Result<Vec<S>, Cancelled> {
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut state = S::default();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= claims {
                return Ok(state);
            }
            cancel.check()?;
            body(&mut state, i);
        }
    };
    if threads == 1 {
        return work().map(|state| vec![state]);
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(work)).collect();
        let joined = handles.into_iter().map(|h| h.join());
        joined
            .map(|r| r.expect("all-egos worker panicked"))
            .collect()
    })
}

/// Phase 1's output, the [`EgoView`] phase 2's kernels read their rows
/// from.
struct EdgeRows<'g> {
    g: &'g CsrGraph,
    /// Vertex `a` owns the edges to the tail of `N(a)` above `a`; they
    /// have ids `upper[a]..upper[a + 1]`, in `N(a)`'s order.
    upper: Vec<usize>,
    /// The row of edge `e` is `flat[off[e]..off[e + 1]]`, ascending.
    off: Vec<usize>,
    flat: Vec<VertexId>,
    /// Vertices that lie in a triangle.
    in_triangle: Vec<bool>,
}

impl<'g> EdgeRows<'g> {
    fn build(
        g: &'g CsrGraph,
        threads: usize,
        chunks: EdgeChunks,
        cancel: &Cancel,
    ) -> Result<Self, Cancelled> {
        let mut upper = vec![0];
        for a in g.vertices() {
            let nb = g.neighbors(a);
            upper.push(upper[a as usize] + nb.len() - nb.partition_point(|&b| b < a));
        }
        let (n, m) = (g.n(), upper[g.n()]);
        // Claim `i` is the edges `cut[i]..cut[i + 1]`.
        let mut cut: Vec<usize> = match chunks {
            EdgeChunks::ByOwner => (0..n).step_by(CHUNK).map(|v| upper[v]).collect(),
            EdgeChunks::ByCount => (0..m).step_by(CHUNK).collect(),
        };
        cut.push(m);
        let claims: Vec<OnceLock<_>> = (1..cut.len()).map(|_| OnceLock::new()).collect();
        let in_triangle: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        for_each_claim(threads, claims.len(), cancel, |_: &mut (), i| {
            let (mut lens, mut rows) = (Vec::with_capacity(cut[i + 1] - cut[i]), Vec::new());
            // The owner of the first edge: the last vertex whose ids start
            // at or before it.
            let mut a = upper.partition_point(|&s| s <= cut[i]).saturating_sub(1);
            for e in cut[i]..cut[i + 1] {
                while upper[a + 1] <= e {
                    a += 1;
                }
                let nb = g.neighbors(a as VertexId);
                let b = nb[nb.len() - (upper[a + 1] - e)];
                let start = rows.len();
                if nb.len() > 1 && g.degree(b) > 1 {
                    g.common_neighbors_into(a as VertexId, b, &mut rows);
                }
                if rows.len() > start {
                    in_triangle[a].store(true, Ordering::Relaxed);
                    in_triangle[b as usize].store(true, Ordering::Relaxed);
                }
                lens.push(rows.len() - start);
            }
            assert!(claims[i].set((lens, rows)).is_ok(), "claim {i} taken twice");
        })?;
        let (mut off, mut flat) = (Vec::with_capacity(m + 1), Vec::new());
        off.push(0);
        for (lens, rows) in claims.into_iter().filter_map(OnceLock::into_inner) {
            off.extend(lens.iter().scan(flat.len(), |end, len| {
                *end += len;
                Some(*end)
            }));
            flat.extend(rows);
        }
        let in_triangle = in_triangle.into_iter().map(AtomicBool::into_inner);
        Ok(EdgeRows {
            g,
            upper,
            off,
            flat,
            in_triangle: in_triangle.collect(),
        })
    }
}

impl EgoView for EdgeRows<'_> {
    fn n_vertices(&self) -> usize {
        self.g.n()
    }
    fn degree_of(&self, u: VertexId) -> usize {
        self.g.degree(u)
    }
    fn for_each_neighbor(&self, u: VertexId, f: &mut dyn FnMut(VertexId)) {
        self.g.for_each_neighbor(u, f);
    }
    fn has_edge_between(&self, u: VertexId, v: VertexId) -> bool {
        self.g.has_edge(u, v)
    }
    /// Appends the row of edge `(u,v)`.
    fn common_neighbors_sorted_into(&self, u: VertexId, v: VertexId, out: &mut Vec<VertexId>) {
        let (a, b) = (u.min(v), u.max(v));
        let nb = self.g.neighbors(a);
        let i = nb.binary_search(&b).expect("rows exist only for edges");
        let e = self.upper[a as usize + 1] - (nb.len() - i);
        out.extend_from_slice(&self.flat[self.off[e]..self.off[e + 1]]);
    }
}

/// Builds the complete `S`-map store for `g` in one edge-centric pass
/// (see the module docs), for the exact dynamic index's constructor
/// (`LocalIndex::new`, which serves the daemon's `delta:K` mode).
pub fn build_store(g: &CsrGraph) -> SMapStore {
    let mut store = SMapStore::new(g.n());
    let edges = EdgeSet::from_graph(g);
    let mut common: Vec<VertexId> = Vec::new();
    for (a, b) in g.edges() {
        common.clear();
        g.common_neighbors_into(a, b, &mut common);
        for &x in &common {
            store.map_mut(x).set_edge(a, b);
        }
        for (i, &x) in common.iter().enumerate() {
            for &y in &common[i + 1..] {
                if !edges.contains(x, y) {
                    store.map_mut(a).add_connector(x, y);
                    store.map_mut(b).add_connector(x, y);
                }
            }
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::compute_all_naive_cancellable;
    use egobtw_gen::rmat::RmatParams;
    use egobtw_gen::{classic, gnp, planted_partition, rmat, toy};
    use egobtw_graph::HybridConfig;
    use std::time::{Duration, Instant};

    /// `compute_all` equals the naive sweep bit for bit, and its counters
    /// follow the kernel rule.
    fn check(g: &CsrGraph) {
        let (fast, stats) = compute_all(g);
        let (slow, naive_stats) = compute_all_naive_cancellable(g, &Cancel::never()).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast), bits(&slow));
        assert_eq!(stats, naive_stats);
    }

    #[test]
    fn classics() {
        check(&classic::complete(8));
        check(&classic::star(10));
        check(&classic::path(9));
        check(&classic::cycle(7));
        check(&classic::barbell(5));
        check(&classic::karate_club());
    }

    #[test]
    fn paper_graph_golden() {
        let g = toy::paper_graph();
        let (cb, _) = compute_all(&g);
        for (v, expect) in toy::expected_cb() {
            assert!(
                (cb[v as usize] - expect).abs() < 1e-9,
                "CB({}) = {} expected {expect}",
                toy::label(v),
                cb[v as usize]
            );
        }
    }

    #[test]
    fn random_graphs() {
        for seed in 0..4 {
            check(&gnp(50, 0.12, seed));
        }
    }

    #[test]
    fn community_graph() {
        let g = planted_partition(
            egobtw_gen::community::PlantedPartition {
                communities: 8,
                community_size: 8,
                p_in: 0.6,
                cross_edges_per_vertex: 0.8,
            },
            5,
        );
        check(&g);
    }

    /// Bit-identical to the naive sweep on graphs where the `S`-map
    /// finalize's summation order used to differ from the kernel's.
    #[test]
    fn bit_identical_to_naive() {
        let hub = rmat(9, 4, RmatParams::skewed(), 0);
        check(&classic::karate_club());
        check(&gnp(40, 0.2, 17));
        check(&hub);
        check(&hub.with_hybrid_config(&HybridConfig::dense()));
    }

    /// Triangle-free and degenerate inputs take the shortcut; isolated
    /// vertices must score `+0.0`, as the kernel does.
    #[test]
    fn triangle_free_and_degenerate_inputs() {
        let tree = CsrGraph::from_edges(
            9,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (1, 4),
                (2, 5),
                (5, 6),
                (5, 7),
                (5, 8),
            ],
        );
        let k34: Vec<_> = (0..3).flat_map(|a| (3..7).map(move |b| (a, b))).collect();
        // Isolated 0, 4 and 6; degree-1 vertices 3 and 5.
        let sparse = CsrGraph::from_edges(7, &[(1, 2), (2, 3), (1, 5)]);
        for g in [
            classic::star(9),
            CsrGraph::from_edges(7, &k34),
            classic::path(6),
            tree,
            CsrGraph::from_edges(0, &[]),
            sparse,
        ] {
            check(&g);
        }
    }

    #[test]
    fn triangle_corner_writes_are_3x_triangles() {
        let g = classic::karate_club();
        let (_, stats) = compute_all(&g);
        assert_eq!(
            stats.triangles_processed,
            3 * egobtw_graph::triangle::count_triangles(&g)
        );
    }

    #[test]
    fn cancellable_pass_is_bit_identical_and_aborts_when_cancelled() {
        let g = gnp(60, 0.15, 3);
        let (plain, _) = compute_all(&g);
        let (chunked, _) = compute_all_cancellable(&g, &Cancel::never()).unwrap();
        assert_eq!(plain, chunked, "chunked drive must not change results");
        let cancelled = Cancel::new();
        cancelled.cancel();
        assert!(matches!(
            compute_all_cancellable(&g, &cancelled),
            Err(Cancelled)
        ));
    }

    #[test]
    fn deadline_stops_a_long_pass() {
        // Every ego of a 4096-vertex hub graph: far longer than the
        // deadline in any build.
        let g = rmat(12, 8, RmatParams::skewed(), 3);
        let token = Cancel::new().with_deadline(Instant::now() + Duration::from_millis(2));
        assert!(matches!(
            compute_all_cancellable(&g, &token),
            Err(Cancelled)
        ));
    }

    /// The all-egos pass and BaseBSearch's ordered sweep at `k = n` agree
    /// on every vertex.
    #[test]
    fn agrees_with_ordered_engine() {
        let g = gnp(40, 0.2, 17);
        let (all, _) = compute_all(&g);
        let sweep = crate::base_search::base_bsearch(&g, g.n());
        assert_eq!(sweep.entries.len(), g.n());
        for &(u, cb) in &sweep.entries {
            assert_eq!(cb.to_bits(), all[u as usize].to_bits(), "vertex {u}");
        }
    }
}
