//! Tests of the exact engine both searches share: BaseBSearch's ordered
//! sweep (one [`EgoKernel`] per ego, in static-bound order) and
//! OptBSearch's any-order completions ([`EgoCompletion`]), each checked
//! against the per-ego oracle and against one another.

mod tests {
    use crate::base_search::base_bsearch;
    use crate::ego_kernel::{EgoCompletion, EgoKernel};
    use crate::naive::ego_betweenness_of;
    use egobtw_gen::{classic, gnp, toy};
    use egobtw_graph::{CsrGraph, DegreeOrder, VertexId};

    fn assert_close(a: f64, b: f64, what: &str) {
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
            "{what}: {a} vs {b}"
        );
    }

    /// The ordered sweep (BaseBSearch at `k = n`) scores every vertex and
    /// matches the oracle on each; returns the values by vertex id.
    fn check_ordered(g: &CsrGraph) -> Vec<f64> {
        let sweep = base_bsearch(g, g.n());
        assert_eq!(sweep.entries.len(), g.n());
        assert_eq!(sweep.stats.exact_computations, g.n());
        let mut cb_of = vec![f64::NAN; g.n()];
        for &(u, cb) in &sweep.entries {
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

    /// Out-of-order completion (OptBSearch's entry point) gives the ordered
    /// sweep's scores bit for bit and the oracle's values, whatever the
    /// visit order.
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
                assert_eq!(cb.to_bits(), ordered[u as usize].to_bits(), "vertex {u}");
                assert_close(cb, ego_betweenness_of(&g, u), &format!("vertex {u}"));
            }
        }
    }

    /// Two egos completed out of order first, then every vertex in the
    /// sweep's order, completed or not. Both entry points agree with the
    /// oracle, and both count each computed ego once and each triangle
    /// once per corner.
    #[test]
    fn mixed_ordered_and_completion() {
        let g = classic::karate_club();
        let ordered = check_ordered(&g);
        let mut done = EgoCompletion::new(g.n());
        let mut kernel = EgoKernel::new();
        done.complete(&mut kernel, &g, 33);
        done.complete(&mut kernel, &g, 0);
        for u in DegreeOrder::new(&g).iter() {
            let truth = ego_betweenness_of(&g, u);
            assert_close(ordered[u as usize], truth, &format!("sweep v{u}"));
            assert_close(
                done.complete(&mut kernel, &g, u),
                truth,
                &format!("completion v{u}"),
            );
        }
        let triangles = egobtw_graph::triangle::count_triangles(&g);
        let sweep = base_bsearch(&g, g.n());
        assert_eq!(sweep.stats.triangles_processed, 3 * triangles);
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
    fn dynamic_bound_dominates_cb_and_tightens() {
        // Completing vertices in the sweep's order credits other vertices'
        // ego edges ahead of their turn; their bounds stay valid and only
        // fall.
        let g = toy::paper_graph();
        let n = g.n() as VertexId;
        let truth: Vec<f64> = (0..n).map(|v| ego_betweenness_of(&g, v)).collect();
        let mut done = EgoCompletion::new(g.n());
        let mut kernel = EgoKernel::new();
        let mut prev: Vec<f64> = (0..n).map(|v| done.bound(&g, v)).collect();
        for v in DegreeOrder::new(&g).iter() {
            done.complete(&mut kernel, &g, v);
            for u in 0..n {
                let b = done.bound(&g, u);
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
