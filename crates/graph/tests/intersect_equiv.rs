//! Property tests for the intersection kernel matrix.
//!
//! Every kernel variant — merge, gallop, adaptive slice dispatch,
//! slice×bitmap, bitmap×bitmap, and the graph-level hybrid dispatcher —
//! must agree with the quadratic reference on seeded random and
//! adversarially skewed inputs, including empty slices, disjoint ranges,
//! full overlap, and lengths on either side of each dispatch threshold.

use egobtw_graph::intersect::{
    bitmap_bitmap_intersect_into, bitmap_bitmap_intersection_count, gallop_intersect_into,
    gallop_intersection_count, intersect_into, intersection_count, merge_intersect_into,
    merge_intersection_count, pack_bitmap, slice_bitmap_intersect_into,
    slice_bitmap_intersection_count, GALLOP_RATIO,
};
use egobtw_graph::{CsrGraph, HybridConfig, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Quadratic reference.
fn naive(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    a.iter().filter(|x| b.contains(x)).copied().collect()
}

/// Asserts every kernel variant produces `naive(a, b)` on strictly
/// ascending inputs drawn from `0..universe`.
fn assert_all_kernels_agree(a: &[VertexId], b: &[VertexId], universe: u32) {
    let expect = naive(a, b);
    let n = expect.len();
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };

    let mut out = Vec::new();
    merge_intersect_into(a, b, &mut out);
    assert_eq!(out, expect, "merge");
    assert_eq!(merge_intersection_count(a, b), n, "merge count");

    out.clear();
    gallop_intersect_into(short, long, &mut out);
    assert_eq!(out, expect, "gallop");
    assert_eq!(gallop_intersection_count(short, long), n, "gallop count");

    out.clear();
    intersect_into(a, b, &mut out);
    assert_eq!(out, expect, "adaptive");
    assert_eq!(intersection_count(a, b), n, "adaptive count");

    // Bitmap kernels over the same universe.
    let words = (universe as usize).div_ceil(64).max(1);
    let ba = pack_bitmap(a, words);
    let bb = pack_bitmap(b, words);
    out.clear();
    slice_bitmap_intersect_into(a, &bb, &mut out);
    assert_eq!(out, expect, "slice×bitmap (a probes b)");
    out.clear();
    slice_bitmap_intersect_into(b, &ba, &mut out);
    assert_eq!(out, expect, "slice×bitmap (b probes a)");
    assert_eq!(slice_bitmap_intersection_count(a, &bb), n);
    assert_eq!(slice_bitmap_intersection_count(b, &ba), n);
    out.clear();
    bitmap_bitmap_intersect_into(&ba, &bb, &mut out);
    assert_eq!(out, expect, "bitmap×bitmap");
    assert_eq!(bitmap_bitmap_intersection_count(&ba, &bb), n);
}

/// Random strictly-ascending slice with `len` values from `0..universe`.
fn sorted_vec(rng: &mut StdRng, len: usize, universe: u32) -> Vec<VertexId> {
    let mut s = std::collections::BTreeSet::new();
    for _ in 0..len {
        s.insert(rng.random_range(0..universe));
    }
    s.into_iter().collect()
}

#[test]
fn random_inputs_all_kernels_agree() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for _ in 0..256 {
        let universe = rng.random_range(1..700u32);
        let la = rng.random_range(0..160usize);
        let lb = rng.random_range(0..160usize);
        let a = sorted_vec(&mut rng, la, universe);
        let b = sorted_vec(&mut rng, lb, universe);
        assert_all_kernels_agree(&a, &b, universe);
    }
}

#[test]
fn skewed_inputs_all_kernels_agree() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..64 {
        // Adversarial skew: tiny probe set against a long dense row.
        let universe = 4_096u32;
        let long = sorted_vec(&mut rng, 2_000, universe);
        let short_len = rng.random_range(0..8usize);
        let short = sorted_vec(&mut rng, short_len, universe);
        assert_all_kernels_agree(&short, &long, universe);
        assert_all_kernels_agree(&long, &short, universe);
    }
}

#[test]
fn adversarial_edge_cases() {
    // Empty × empty, empty × non-empty.
    assert_all_kernels_agree(&[], &[], 64);
    assert_all_kernels_agree(&[], &[0, 1, 2, 63], 64);
    assert_all_kernels_agree(&[5], &[], 64);
    // Disjoint ranges (short entirely before / after the long slice).
    let low: Vec<VertexId> = (0..100).collect();
    let high: Vec<VertexId> = (1_000..1_100).collect();
    assert_all_kernels_agree(&low, &high, 1_100);
    assert_all_kernels_agree(&high, &low, 1_100);
    // Interleaved but disjoint (evens vs odds).
    let evens: Vec<VertexId> = (0..200).map(|x| 2 * x).collect();
    let odds: Vec<VertexId> = (0..200).map(|x| 2 * x + 1).collect();
    assert_all_kernels_agree(&evens, &odds, 400);
    // Full overlap, including exact word-boundary lengths.
    for len in [1u32, 63, 64, 65, 128, 257] {
        let full: Vec<VertexId> = (0..len).collect();
        assert_all_kernels_agree(&full, &full, len);
    }
    // Single straddler at each end.
    assert_all_kernels_agree(&[0], &low, 1_100);
    assert_all_kernels_agree(&[99], &low, 1_100);
    assert_all_kernels_agree(&[63], &[63], 64);
    // Merge/gallop boundary: `short · GALLOP_RATIO` equal to `long` and
    // one either side. The long side holds the evens; the short side
    // alternates hits (even) and misses (odd).
    for short_len in [1u32, 2, 64] {
        let at = short_len * GALLOP_RATIO as u32;
        for long_len in [at - 1, at, at + 1] {
            let long: Vec<VertexId> = (0..long_len).map(|x| 2 * x).collect();
            let step = 2 * (long_len / short_len);
            let short: Vec<VertexId> = (0..short_len).map(|i| i * step + i % 2).collect();
            assert_all_kernels_agree(&short, &long, 2 * long_len);
            assert_all_kernels_agree(&long, &short, 2 * long_len);
        }
    }
}

#[test]
fn hybrid_dispatcher_matches_plain_on_random_graphs() {
    // Graph-level property: for every vertex pair, the hybrid dispatcher
    // (whatever kernel it picks) agrees with the hub-free merge path.
    let mut rng = StdRng::seed_from_u64(0xD15);
    let mut graphs = Vec::new();
    for _ in 0..12 {
        let n = rng.random_range(10..120usize);
        let p = rng.random_range(0.05..0.5);
        let mut edges = Vec::new();
        for u in 0..n as VertexId {
            for v in u + 1..n as VertexId {
                if rng.random_bool(p) {
                    edges.push((u, v));
                }
            }
        }
        graphs.push((n, edges));
    }
    // Bitmap×bitmap vs slice×bitmap boundary: with n = 512 a row is 8
    // words, and the dispatcher ANDs two rows once `short · 4 ≥ 8`. Hub
    // 0 meets vertex 1 (degree 2, exactly at the boundary: bitmap×bitmap)
    // and vertex 3 (degree 1, below it: slice×bitmap).
    let mut edges: Vec<(VertexId, VertexId)> = (1..=300).map(|v| (0, v)).collect();
    edges.push((1, 2));
    graphs.push((512, edges));

    for (trial, (n, edges)) in graphs.iter().enumerate() {
        let n = *n;
        let plain = CsrGraph::from_edges_with(n, edges, &HybridConfig::disabled());
        let auto = CsrGraph::from_edges(n, edges);
        let dense = CsrGraph::from_edges_with(n, edges, &HybridConfig::dense());
        assert_eq!(dense.validate(), Ok(()));
        if n == 512 {
            assert!([0, 1, 3].iter().all(|&v| dense.hub_bitmap(v).is_some()));
        }
        let mut want = Vec::new();
        let mut got = Vec::new();
        for u in plain.vertices() {
            for v in plain.vertices() {
                want.clear();
                plain.common_neighbors_into(u, v, &mut want);
                for g in [&auto, &dense] {
                    got.clear();
                    g.common_neighbors_into(u, v, &mut got);
                    assert_eq!(got, want, "trial {trial} pair ({u},{v})");
                    assert_eq!(g.common_neighbor_count(u, v), want.len());
                    assert_eq!(g.has_edge(u, v), plain.has_edge(u, v));
                }
            }
        }
    }
}
