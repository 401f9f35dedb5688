//! Tests of the two upper bounds on ego-betweenness: the static bound
//! `ub` of Lemma 2 ([`CsrGraph::degree_bound`]) and the dynamic bound
//! `ũb` of Lemma 3, as OptBSearch's identified-edge counters
//! ([`EgoCompletion::bound`]).

mod tests {
    use crate::ego_kernel::{EgoCompletion, EgoKernel};
    use egobtw_graph::CsrGraph;

    #[test]
    fn static_bound_is_pair_count() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.degree_bound(0), 3.0);
        assert_eq!(g.degree_bound(1), 0.0);
    }

    #[test]
    fn dynamic_bound_starts_at_static_and_tightens() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]);
        // The counters identify edges only: completing 1 finds {1, 2}.
        let mut done = EgoCompletion::new(g.n());
        assert_eq!(done.bound(&g, 0), g.degree_bound(0));
        done.complete(&mut EgoKernel::new(), &g, 1);
        assert_eq!(done.bound(&g, 0), g.degree_bound(0) - 1.0);
    }
}
