//! Exact ego-betweenness for *all* vertices in one edge-centric pass.
//!
//! When no early termination is possible (the `k = n` baseline of Exp-5),
//! iterating every edge `(a,b)` exactly once and pairing the members of
//! `C = N(a) ∩ N(b)` counts
//!
//! * each triangle `{a,b,x}` once per edge — writing the edge entry of the
//!   *opposite* corner's map (`S_x(a,b) = 0`), so all three entries of a
//!   triangle are produced by its three edges;
//! * each diamond `{(a,b),x,y}` exactly once — at its center edge —
//!   bumping `S_a(x,y)` (connector `b`) and `S_b(x,y)` (connector `a`).
//!
//! The result is every vertex's complete map `S_u`, which the dynamic
//! maintainers start from ([`build_store`]). The parallel crate's PEBW runs
//! a copy of this loop whose map writes go through per-vertex locks.

use crate::cancel::{Cancel, Cancelled};
use crate::smap::SMapStore;
use crate::stats::SearchStats;
use egobtw_graph::{CsrGraph, EdgeSet, KernelParams, VertexId};

/// Computes `CB(v)` for every vertex. Returns the values and work counters.
pub fn compute_all(g: &CsrGraph) -> (Vec<f64>, SearchStats) {
    compute_all_with(g, &KernelParams::new())
}

/// Vertices per ownership chunk between cancellation checkpoints in
/// [`compute_all_cancellable`]: small enough that a cancelled pass stops
/// within milliseconds, large enough that the checks are free.
const CANCEL_CHUNK: usize = 512;

/// [`compute_all`] with cooperative cancellation: the edge-centric pass is
/// driven in [`CANCEL_CHUNK`]-vertex ownership ranges through the same
/// `process_edge_range_with` loop (so results stay bit-identical),
/// polling `cancel` between chunks and between finalize blocks.
pub fn compute_all_cancellable(
    g: &CsrGraph,
    cancel: &Cancel,
) -> Result<(Vec<f64>, SearchStats), Cancelled> {
    let params = KernelParams::new();
    let mut store = SMapStore::new(g.n());
    let mut stats = SearchStats::default();
    let edges = EdgeSet::from_graph(g);
    let mut lo = 0usize;
    while lo < g.n() {
        cancel.check()?;
        let hi = (lo + CANCEL_CHUNK).min(g.n());
        process_edge_range_with(g, &edges, &mut store, &mut stats, lo, hi, &params);
        lo = hi;
    }
    let mut cb = Vec::with_capacity(g.n());
    for v in 0..g.n() as VertexId {
        if (v as usize).is_multiple_of(CANCEL_CHUNK) {
            cancel.check()?;
        }
        cb.push(store.map(v).cb_given_degree_det(g.degree(v)));
    }
    stats.exact_computations = g.n();
    Ok((cb, stats))
}

/// [`compute_all`] with pinned intersection-dispatch thresholds — the perf
/// harness uses [`KernelParams::legacy`] here to time the pre-hybrid
/// baseline on a bitmap-free graph.
pub fn compute_all_with(g: &CsrGraph, params: &KernelParams) -> (Vec<f64>, SearchStats) {
    let (store, mut stats) = build_store_with(g, params);
    // Deterministic finalize: makes the output bit-identical to the
    // parallel PEBW engines, which build the same maps in another order.
    let cb = (0..g.n() as VertexId)
        .map(|v| store.map(v).cb_given_degree_det(g.degree(v)))
        .collect();
    stats.exact_computations = g.n();
    (cb, stats)
}

/// Builds the complete `S`-map store for `g` in one edge-centric pass.
/// Shared by [`compute_all`] and the dynamic index constructor
/// (`LocalIndex::new`), so both route common-neighbor queries through the
/// hybrid kernels.
pub fn build_store(g: &CsrGraph) -> (SMapStore, SearchStats) {
    build_store_with(g, &KernelParams::new())
}

/// [`build_store`] with explicit dispatch thresholds.
pub fn build_store_with(g: &CsrGraph, params: &KernelParams) -> (SMapStore, SearchStats) {
    let mut store = SMapStore::new(g.n());
    let mut stats = SearchStats::default();
    let edges = EdgeSet::from_graph(g);
    process_edge_range_with(g, &edges, &mut store, &mut stats, 0, g.n(), params);
    (store, stats)
}

/// Processes the edges *owned* by vertices `lo..hi` (an edge `(u,v)` with
/// `u < v` is owned by `u`), updating `store` in place. [`build_store_with`]
/// runs it over one range, [`compute_all_cancellable`] over chunks.
fn process_edge_range_with(
    g: &CsrGraph,
    edges: &EdgeSet,
    store: &mut SMapStore,
    stats: &mut SearchStats,
    lo: usize,
    hi: usize,
    params: &KernelParams,
) {
    let mut common: Vec<VertexId> = Vec::new();
    for a in lo as VertexId..hi as VertexId {
        if g.degree(a) == 1 {
            // N(a) = {b}: every owned edge has an empty common neighborhood.
            continue;
        }
        for &b in g.neighbors(a) {
            if b <= a {
                continue;
            }
            common.clear();
            g.common_neighbors_into_with(a, b, params, &mut common);
            apply_edge(edges, store, stats, a, b, &common);
        }
    }
}

/// Applies one edge's triangle/diamond contributions given its common
/// neighborhood.
#[inline]
fn apply_edge(
    edges: &EdgeSet,
    store: &mut SMapStore,
    stats: &mut SearchStats,
    a: VertexId,
    b: VertexId,
    common: &[VertexId],
) {
    for &x in common {
        store.map_mut(x).set_edge(a, b);
        stats.triangles_processed += 1; // counted once per (edge, corner) /3 below
    }
    // Each triangle is seen by three edges; normalize in the caller if an
    // exact triangle count is needed. Here we count corner-writes.
    for (i, &x) in common.iter().enumerate() {
        for &y in common.iter().skip(i + 1) {
            if !edges.contains(x, y) {
                store.map_mut(a).add_connector(x, y);
                store.map_mut(b).add_connector(x, y);
                stats.diamonds_counted += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::compute_all_naive;
    use egobtw_gen::{classic, gnp, planted_partition, toy};

    fn check(g: &CsrGraph) {
        let (fast, stats) = compute_all(g);
        let slow = compute_all_naive(g);
        assert_eq!(fast.len(), slow.len());
        for (v, (a, b)) in fast.iter().zip(&slow).enumerate() {
            assert!((a - b).abs() < 1e-9, "vertex {v}: {a} vs {b}");
        }
        assert_eq!(stats.exact_computations, g.n());
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

    /// The edge-centric pass and BaseBSearch's ordered sweep at `k = n`
    /// (one `EgoKernel` per ego, in static-bound order) agree on every
    /// vertex.
    #[test]
    fn agrees_with_ordered_engine() {
        let g = gnp(40, 0.2, 17);
        let (edge_centric, _) = compute_all(&g);
        let sweep = crate::base_search::base_bsearch(&g, g.n());
        assert_eq!(sweep.entries.len(), g.n());
        for &(u, cb) in &sweep.entries {
            assert!((cb - edge_centric[u as usize]).abs() < 1e-9, "vertex {u}");
        }
    }
}
