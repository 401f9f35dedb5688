//! Kernel ablations (docs/ARCHITECTURE.md, "Key data-structure
//! decisions"): intersection strategy, edge membership, pair-key
//! hashing, and triangle enumeration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egobtw_graph::intersect::{
    bitmap_bitmap_intersection_count, gallop_intersection_count, intersection_count,
    intersection_count_with, merge_intersection_count, pack_bitmap,
    slice_bitmap_intersection_count, KernelParams,
};
use egobtw_graph::{pack_pair, CsrGraph, EdgeSet, HybridConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sorted_random(len: usize, universe: u32, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = std::collections::BTreeSet::new();
    while s.len() < len {
        s.insert(rng.random_range(0..universe));
    }
    s.into_iter().collect()
}

fn bench_intersection(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersection");
    // Balanced and skewed length ratios; skew is where galloping pays.
    for (la, lb) in [(1_000usize, 1_000usize), (32, 10_000), (4, 50_000)] {
        let a = sorted_random(la, 1 << 20, 1);
        let b = sorted_random(lb, 1 << 20, 2);
        let id = format!("{la}x{lb}");
        group.bench_with_input(BenchmarkId::new("merge", &id), &(), |bench, _| {
            bench.iter(|| merge_intersection_count(&a, &b))
        });
        group.bench_with_input(BenchmarkId::new("gallop", &id), &(), |bench, _| {
            bench.iter(|| gallop_intersection_count(&a, &b))
        });
        group.bench_with_input(BenchmarkId::new("adaptive", &id), &(), |bench, _| {
            bench.iter(|| intersection_count(&a, &b))
        });
    }
    group.finish();
}

/// The hybrid kernels against the slice kernels, on hub-shaped inputs: a
/// short probe set vs. a dense hub row over a 2²⁰ universe (slice×bitmap),
/// and two hub rows (bitmap×bitmap AND+popcount).
fn bench_bitmap_kernels(c: &mut Criterion) {
    let universe = 1u32 << 20;
    let words = (universe as usize).div_ceil(64);
    let hub_a = sorted_random(20_000, universe, 11);
    let hub_b = sorted_random(16_000, universe, 12);
    let row_a = pack_bitmap(&hub_a, words);
    let row_b = pack_bitmap(&hub_b, words);
    let mut group = c.benchmark_group("intersection_bitmap");
    for probe_len in [8usize, 64, 1_024] {
        let probe = sorted_random(probe_len, universe, 13);
        let id = format!("{probe_len}x{}", hub_a.len());
        group.bench_with_input(BenchmarkId::new("merge", &id), &(), |bench, _| {
            bench.iter(|| merge_intersection_count(&probe, &hub_a))
        });
        group.bench_with_input(BenchmarkId::new("gallop", &id), &(), |bench, _| {
            bench.iter(|| gallop_intersection_count(&probe, &hub_a))
        });
        group.bench_with_input(BenchmarkId::new("slice_bitmap", &id), &(), |bench, _| {
            bench.iter(|| slice_bitmap_intersection_count(&probe, &row_a))
        });
    }
    let id = format!("{}x{}", hub_a.len(), hub_b.len());
    group.bench_with_input(BenchmarkId::new("merge", &id), &(), |bench, _| {
        bench.iter(|| merge_intersection_count(&hub_a, &hub_b))
    });
    group.bench_with_input(BenchmarkId::new("bitmap_bitmap", &id), &(), |bench, _| {
        bench.iter(|| bitmap_bitmap_intersection_count(&row_a, &row_b))
    });
    group.finish();
}

/// Sweeps `KernelParams::gallop_ratio` on a mid-skew shape (where the
/// merge/gallop crossover actually sits) — the measurement behind the
/// default in `KernelParams::new`.
fn bench_gallop_ratio_sweep(c: &mut Criterion) {
    let a = sorted_random(64, 1 << 20, 21);
    let b = sorted_random(4_096, 1 << 20, 22);
    let mut group = c.benchmark_group("gallop_ratio_64x4096");
    for ratio in [1usize, 8, 16, 32, 64, 128] {
        let params = KernelParams {
            gallop_ratio: ratio,
            ..KernelParams::new()
        };
        group.bench_with_input(BenchmarkId::new("ratio", ratio), &(), |bench, _| {
            bench.iter(|| intersection_count_with(&a, &b, &params))
        });
    }
    group.finish();
}

/// End-to-end hybrid dispatch on a power-law graph: every edge's common
/// neighborhood, hub rows on vs. off.
fn bench_hybrid_graph_dispatch(c: &mut Criterion) {
    let hybrid = egobtw_gen::barabasi_albert(10_000, 8, 5);
    let plain = hybrid.with_hybrid_config(&HybridConfig::disabled());
    let edges: Vec<(u32, u32)> = hybrid.edges().collect();
    let mut group = c.benchmark_group("common_neighbors_all_edges_10k_ba");
    group.bench_function("hybrid_auto_hubs", |b| {
        b.iter(|| {
            edges
                .iter()
                .map(|&(u, v)| hybrid.common_neighbor_count(u, v))
                .sum::<usize>()
        })
    });
    group.bench_function("plain_slices", |b| {
        b.iter(|| {
            edges
                .iter()
                .map(|&(u, v)| plain.common_neighbor_count(u, v))
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_edge_membership(c: &mut Criterion) {
    let g = egobtw_gen::barabasi_albert(10_000, 8, 3);
    let es = EdgeSet::from_graph(&g);
    let mut rng = StdRng::seed_from_u64(9);
    let queries: Vec<(u32, u32)> = (0..4_096)
        .map(|_| {
            (
                rng.random_range(0..10_000u32),
                rng.random_range(0..10_000u32),
            )
        })
        .collect();
    let mut group = c.benchmark_group("edge_membership");
    group.bench_function("hash_set", |b| {
        b.iter(|| {
            queries
                .iter()
                .filter(|&&(u, v)| u != v && es.contains(u, v))
                .count()
        })
    });
    group.bench_function("csr_binary_search", |b| {
        b.iter(|| queries.iter().filter(|&&(u, v)| g.has_edge(u, v)).count())
    });
    group.finish();
}

fn bench_pair_hashing(c: &mut Criterion) {
    // The keys an `S_u` map holds: every pair of one sorted neighbour list
    // (150 neighbours, 11,175 pairs), so many keys share an endpoint.
    // Independent random pairs would almost never share one, which hides
    // a hasher that clusters on the low key bits.
    let nbrs = sorted_random(150, 1 << 20, 4);
    let pairs: Vec<(u32, u32)> = nbrs
        .iter()
        .enumerate()
        .flat_map(|(i, &u)| nbrs[i + 1..].iter().map(move |&v| (u, v)))
        .collect();
    let mut group = c.benchmark_group("pair_map_insert_10k");
    group.bench_function("fx_packed_u64", |b| {
        b.iter(|| {
            let mut m: egobtw_graph::FxHashMap<u64, u32> = egobtw_graph::FxHashMap::default();
            for &(u, v) in &pairs {
                *m.entry(pack_pair(u, v)).or_insert(0) += 1;
            }
            m.len()
        })
    });
    group.bench_function("siphash_tuple", |b| {
        b.iter(|| {
            let mut m: std::collections::HashMap<(u32, u32), u32> =
                std::collections::HashMap::new();
            for &(u, v) in &pairs {
                let key = (u.min(v), u.max(v));
                *m.entry(key).or_insert(0) += 1;
            }
            m.len()
        })
    });
    group.bench_function("btreemap_packed_u64", |b| {
        b.iter(|| {
            let mut m: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
            for &(u, v) in &pairs {
                *m.entry(pack_pair(u, v)).or_insert(0) += 1;
            }
            m.len()
        })
    });
    group.finish();
}

fn bench_triangles(c: &mut Criterion) {
    let g: CsrGraph = egobtw_gen::barabasi_albert(20_000, 6, 7);
    c.bench_function("triangle_count_20k_ba", |b| {
        b.iter(|| egobtw_graph::triangle::count_triangles(&g))
    });
}

criterion_group!(
    benches,
    bench_intersection,
    bench_bitmap_kernels,
    bench_gallop_ratio_sweep,
    bench_hybrid_graph_dispatch,
    bench_edge_membership,
    bench_pair_hashing,
    bench_triangles
);
criterion_main!(benches);
