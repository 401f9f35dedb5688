//! BaseBSearch — Algorithm 1.
//!
//! Processes vertices in the total order `≺` (non-increasing static upper
//! bound `ub(u) = d(u)(d(u)−1)/2`), computing each `CB` exactly with the
//! ego-local kernel ([`EgoKernel`]) that OptBSearch also uses, and
//! terminates as soon as the answer set holds `k` vertices whose minimum
//! `CB` is at least the next vertex's bound — every remaining vertex then
//! satisfies `CB(w) ≤ ub(w) ≤ ub(next) ≤ min CB(R)` (Theorem 1). The two
//! searches differ only in their bound.

use crate::cancel::{Cancel, Cancelled};
use crate::ego_kernel::EgoKernel;
use crate::opt_search::CANCEL_POLL_POPS;
use crate::stats::SearchStats;
use crate::topk::{TopKSet, TopkResult};
use egobtw_graph::{CsrGraph, DegreeOrder};

/// Runs BaseBSearch for the top `k` ego-betweenness vertices.
///
/// Returns exact `(vertex, CB)` entries sorted by descending `CB`, plus
/// work counters ([`crate::stats::SearchStats::exact_computations`] is the
/// Table II column).
pub fn base_bsearch(g: &CsrGraph, k: usize) -> TopkResult {
    base_bsearch_cancellable(g, k, &Cancel::never())
        .expect("a never-cancelled search cannot be cancelled")
}

/// [`base_bsearch`] with cooperative cancellation, polled on the first ego
/// and then every [`CANCEL_POLL_POPS`] egos.
pub fn base_bsearch_cancellable(
    g: &CsrGraph,
    k: usize,
    cancel: &Cancel,
) -> Result<TopkResult, Cancelled> {
    let mut stats = SearchStats::default();
    let mut top = TopKSet::new(k);
    if k == 0 {
        return Ok(TopkResult {
            entries: Vec::new(),
            stats,
        });
    }
    let order = DegreeOrder::new(g);
    let mut kernel = EgoKernel::new();
    let n = g.n();
    for (i, u) in order.iter().enumerate() {
        if i % CANCEL_POLL_POPS as usize == 0 {
            cancel.check()?;
        }
        if top.is_full() {
            let min_cb = top.min_score().expect("full set has a minimum");
            if min_cb >= g.degree_bound(u) {
                stats.pruned += n - i;
                break;
            }
        }
        let cb = kernel.score(g, u);
        stats.exact_computations += 1;
        stats.triangles_processed += kernel.ego_edges() as u64;
        top.offer(u, cb);
    }
    Ok(TopkResult {
        entries: top.into_sorted_vec(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::compute_all_naive;
    use egobtw_gen::rmat::RmatParams;
    use egobtw_gen::{classic, gnp, rmat, toy};
    use egobtw_graph::HybridConfig;
    use std::time::{Duration, Instant};

    /// Oracle: top-k from a full naive computation, tie-tolerant — asserts
    /// the returned *values* match the k best values, and that every
    /// returned vertex's value is its true value.
    fn check_against_oracle(g: &CsrGraph, k: usize, result: &TopkResult) {
        let all = compute_all_naive(g);
        let mut sorted: Vec<f64> = all.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let expect_k = k.min(g.n());
        assert_eq!(result.entries.len(), expect_k);
        for (rank, &(v, cb)) in result.entries.iter().enumerate() {
            assert!(
                (cb - all[v as usize]).abs() < 1e-9,
                "returned CB for {v} is wrong: {cb} vs {}",
                all[v as usize]
            );
            assert!(
                (cb - sorted[rank]).abs() < 1e-9,
                "rank {rank} value {cb} differs from oracle {}",
                sorted[rank]
            );
        }
    }

    #[test]
    fn paper_example2_top1_and_top3() {
        let g = toy::paper_graph();
        let r1 = base_bsearch(&g, 1);
        assert_eq!(r1.entries[0].0, toy::ids::F);
        assert!((r1.entries[0].1 - 11.0).abs() < 1e-9);
        let r3 = base_bsearch(&g, 3);
        let mut vs = r3.vertices();
        vs.sort_unstable();
        let mut expect = vec![toy::ids::F, toy::ids::X, toy::ids::I];
        expect.sort_unstable();
        assert_eq!(vs, expect);
    }

    #[test]
    fn paper_example3_computes_exactly_ten_vertices() {
        // Fig. 2: for k = 5, BaseBSearch computes c,i,f,d,x,e,h,g,b,a then
        // stops (ub(j) = 3 < CB(d) = 14/3).
        let g = toy::paper_graph();
        let r = base_bsearch(&g, 5);
        assert_eq!(r.stats.exact_computations, 10);
        let mut vs = r.vertices();
        vs.sort_unstable();
        let mut expect = vec![
            toy::ids::F,
            toy::ids::X,
            toy::ids::I,
            toy::ids::C,
            toy::ids::D,
        ];
        expect.sort_unstable();
        assert_eq!(vs, expect);
        // Exact values per Fig. 2 row.
        let by_rank = r.entries;
        assert!((by_rank[0].1 - 11.0).abs() < 1e-9);
        assert!((by_rank[1].1 - 10.0).abs() < 1e-9);
        assert!((by_rank[2].1 - 8.0).abs() < 1e-9);
        assert!((by_rank[3].1 - 41.0 / 6.0).abs() < 1e-9);
        assert!((by_rank[4].1 - 14.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn k_larger_than_n_returns_everything() {
        let g = classic::karate_club();
        let r = base_bsearch(&g, 100);
        check_against_oracle(&g, 100, &r);
        assert_eq!(r.stats.exact_computations, g.n());
    }

    #[test]
    fn k_zero_is_empty() {
        let g = classic::star(5);
        let r = base_bsearch(&g, 0);
        assert!(r.entries.is_empty());
        assert_eq!(r.stats.exact_computations, 0);
    }

    #[test]
    fn pruning_actually_happens_on_star() {
        // Star: hub dominates; k=1 must stop after the hub (all leaves
        // have ub 0).
        let g = classic::star(50);
        let r = base_bsearch(&g, 1);
        assert_eq!(r.stats.exact_computations, 1);
        assert_eq!(r.stats.pruned, 49);
        assert_eq!(r.entries[0], (0, 49.0 * 48.0 / 2.0));
    }

    #[test]
    fn random_graphs_match_oracle_various_k() {
        for seed in 0..4 {
            let g = gnp(45, 0.12, seed);
            for k in [1, 3, 7, 20, 45] {
                let r = base_bsearch(&g, k);
                check_against_oracle(&g, k, &r);
            }
        }
    }

    #[test]
    fn results_sorted_descending() {
        let g = classic::karate_club();
        let r = base_bsearch(&g, 10);
        for w in r.entries.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    /// At `k = n` every score is the one `compute_all_naive` gives, bit
    /// for bit: both run the same kernel on each ego.
    #[test]
    fn scores_bit_identical_to_naive() {
        for g in [
            classic::karate_club(),
            gnp(60, 0.15, 4),
            rmat(9, 4, RmatParams::skewed(), 0),
        ] {
            let naive = compute_all_naive(&g);
            let r = base_bsearch(&g, g.n());
            assert_eq!(r.entries.len(), g.n());
            for &(v, cb) in &r.entries {
                assert_eq!(cb.to_bits(), naive[v as usize].to_bits(), "vertex {v}");
            }
        }
    }

    /// Skewed R-MAT carries hub bitmap rows, so the kernel's rows come
    /// from the bitmap intersection kernels; the dense twin makes most
    /// rows bitmaps.
    #[test]
    fn hub_graphs_match_oracle() {
        for seed in 0..3 {
            let g = rmat(9, 4, RmatParams::skewed(), seed);
            assert!(g.hub_count() > 0, "seed {seed}: no hub rows");
            let dense = g.with_hybrid_config(&HybridConfig::dense());
            for g in [&g, &dense] {
                let truth = compute_all_naive(g);
                let mut sorted = truth.clone();
                sorted.sort_by(|a, b| b.total_cmp(a));
                for k in [1, 10, 100, g.n()] {
                    let r = base_bsearch(g, k);
                    assert_eq!(r.entries.len(), k.min(g.n()));
                    for (rank, &(v, cb)) in r.entries.iter().enumerate() {
                        let tol = 1e-9 * cb.abs().max(1.0);
                        assert!((cb - truth[v as usize]).abs() <= tol, "seed {seed} v{v}");
                        assert!((cb - sorted[rank]).abs() <= tol, "seed {seed} rank {rank}");
                    }
                }
            }
        }
    }

    #[test]
    fn fired_token_cancels() {
        let token = Cancel::new();
        token.cancel();
        let g = classic::karate_club();
        assert!(matches!(
            base_bsearch_cancellable(&g, 5, &token),
            Err(Cancelled)
        ));
    }

    #[test]
    fn deadline_stops_a_long_search() {
        // Every ego of a 4096-vertex hub graph: far longer than the
        // deadline in any build.
        let g = rmat(12, 8, RmatParams::skewed(), 3);
        let token = Cancel::new().with_deadline(Instant::now() + Duration::from_millis(2));
        assert!(matches!(
            base_bsearch_cancellable(&g, g.n(), &token),
            Err(Cancelled)
        ));
    }

    #[test]
    fn never_cancelled_run_equals_base_bsearch() {
        let g = gnp(80, 0.1, 11);
        for k in [1, 10, 80] {
            let plain = base_bsearch(&g, k);
            let live = base_bsearch_cancellable(&g, k, &Cancel::new()).unwrap();
            assert_eq!(live.entries, plain.entries);
            assert_eq!(live.stats, plain.stats);
        }
    }
}
