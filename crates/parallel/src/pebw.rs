//! VertexPEBW and EdgePEBW: the all-egos driver
//! [`egobtw_core::compute_all::all_egos`] with its phase-1 edge claims cut
//! by owner vertex or by edge count.

use egobtw_core::compute_all::{all_egos, EdgeChunks};
use egobtw_core::Cancel;
use egobtw_graph::CsrGraph;

fn pebw(g: &CsrGraph, threads: usize, chunks: EdgeChunks) -> Vec<f64> {
    all_egos(g, threads, chunks, &Cancel::never())
        .expect("a never-cancelled pass cannot be cancelled")
        .0
}

/// **VertexPEBW**: a claim is a run of owner vertices with every edge they
/// own (an edge belongs to its smaller id), so a hub's bundle is one claim
/// — the skewed load the paper observes.
pub fn vertex_pebw(g: &CsrGraph, threads: usize) -> Vec<f64> {
    pebw(g, threads, EdgeChunks::ByOwner)
}

/// **EdgePEBW**: a claim is a fixed number of edges — the balanced
/// variant.
pub fn edge_pebw(g: &CsrGraph, threads: usize) -> Vec<f64> {
    pebw(g, threads, EdgeChunks::ByCount)
}

#[cfg(test)]
mod tests {
    use super::*;
    use egobtw_core::compute_all;
    use egobtw_gen::{barabasi_albert, classic, gnp, toy};

    fn assert_matches_sequential(g: &CsrGraph, threads: usize) {
        let (seq, _) = compute_all(g);
        for (name, par) in [
            ("vertex", vertex_pebw(g, threads)),
            ("edge", edge_pebw(g, threads)),
        ] {
            assert_eq!(par.len(), seq.len());
            for (v, (a, b)) in par.iter().zip(&seq).enumerate() {
                assert!(
                    (a - b).abs() < 1e-9,
                    "{name} t={threads} vertex {v}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn single_thread_matches() {
        assert_matches_sequential(&toy::paper_graph(), 1);
        assert_matches_sequential(&classic::karate_club(), 1);
    }

    #[test]
    fn multi_thread_matches() {
        for threads in [2, 4, 8] {
            assert_matches_sequential(&classic::karate_club(), threads);
            assert_matches_sequential(&gnp(60, 0.12, 3), threads);
        }
    }

    #[test]
    fn skewed_graph_matches() {
        let g = barabasi_albert(400, 4, 9);
        assert_matches_sequential(&g, 4);
    }

    #[test]
    fn hub_graphs_bit_identical_to_naive() {
        use egobtw_core::compute_all_naive;
        use egobtw_gen::rmat::{rmat, RmatParams};
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for seed in 0..3 {
            let g = rmat(9, 4, RmatParams::skewed(), seed);
            let naive = bits(&compute_all_naive(&g));
            for threads in [1usize, 2, 4] {
                assert_eq!(
                    bits(&vertex_pebw(&g, threads)),
                    naive,
                    "vertex t={threads} seed={seed}"
                );
                assert_eq!(
                    bits(&edge_pebw(&g, threads)),
                    naive,
                    "edge t={threads} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn repeated_runs_agree() {
        // Interleaving must not change results.
        let g = gnp(80, 0.1, 5);
        let a = edge_pebw(&g, 4);
        let b = edge_pebw(&g, 4);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn thread_sweep_bit_identical_on_community_graphs() {
        // Every ego is scored by the kernel, whichever thread claims it,
        // so the parallel output is *exactly* equal to sequential
        // `compute_all` — same bits, no epsilon — at every thread count.
        // Community graphs are the triangle-dense regime where the most
        // egos go through the kernel.
        use egobtw_gen::community::PlantedPartition;
        for seed in 0..3u64 {
            let g = egobtw_gen::planted_partition(
                PlantedPartition {
                    communities: 6,
                    community_size: 10,
                    p_in: 0.6,
                    cross_edges_per_vertex: 1.0,
                },
                seed,
            );
            let (seq, _) = compute_all(&g);
            for threads in [1usize, 2, 4] {
                assert_eq!(
                    vertex_pebw(&g, threads),
                    seq,
                    "vertex_pebw t={threads} seed={seed} diverged bitwise"
                );
                assert_eq!(
                    edge_pebw(&g, threads),
                    seq,
                    "edge_pebw t={threads} seed={seed} diverged bitwise"
                );
            }
        }
    }

    #[test]
    fn thread_sweep_bit_identical_across_repeats() {
        // Re-running at the same thread count must also be bit-stable:
        // scheduling noise may reorder claims, never scores.
        let g = egobtw_gen::planted_partition(
            egobtw_gen::community::PlantedPartition {
                communities: 5,
                community_size: 9,
                p_in: 0.7,
                cross_edges_per_vertex: 0.8,
            },
            11,
        );
        let first = edge_pebw(&g, 4);
        for _ in 0..3 {
            assert_eq!(edge_pebw(&g, 4), first);
            assert_eq!(vertex_pebw(&g, 4), first);
        }
    }

    #[test]
    fn empty_and_tiny() {
        let g = CsrGraph::from_edges(0, &[]);
        assert!(vertex_pebw(&g, 2).is_empty());
        assert!(edge_pebw(&g, 2).is_empty());
        let g1 = CsrGraph::from_edges(2, &[(0, 1)]);
        assert_eq!(vertex_pebw(&g1, 3), vec![0.0, 0.0]);
    }
}
