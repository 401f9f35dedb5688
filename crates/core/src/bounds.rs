//! Upper bounds on ego-betweenness.
//!
//! * **Static bound** (Lemma 2): `ub(p) = d(p)(d(p)−1)/2` — the number of
//!   neighbor pairs; every pair contributes at most 1.
//! * **Dynamic bound** (Lemma 3): the same pair budget discounted by the
//!   information already identified in `S_p` (edges found between
//!   neighbors, connectors found for non-adjacent pairs). It equals `CB(p)`
//!   exactly once `S_p` is complete, and never increases as information
//!   arrives — the property OptBSearch's lazy heap relies on. OptBSearch
//!   keeps only the identified-edge part, as O(1) counters
//!   (`ego_kernel::EgoCompletion::bound`).

use crate::smap::PairMap;
use egobtw_graph::{CsrGraph, VertexId};

/// Static bound `ub(p) = d(d−1)/2` (Lemma 2).
#[inline]
pub fn static_bound(g: &CsrGraph, p: VertexId) -> f64 {
    g.degree_bound(p)
}

/// Dynamic bound `ũb(p)` (Lemma 3) from the current partial map.
#[inline]
pub fn dynamic_bound(g: &CsrGraph, p: VertexId, map: &PairMap) -> f64 {
    map.cb_given_degree(g.degree(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_bound_is_pair_count() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(static_bound(&g, 0), 3.0);
        assert_eq!(static_bound(&g, 1), 0.0);
    }

    #[test]
    fn dynamic_bound_starts_at_static_and_tightens() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]);
        let mut m = PairMap::default();
        assert_eq!(dynamic_bound(&g, 0, &m), static_bound(&g, 0));
        m.set_edge(1, 2); // identified edge between neighbors
        let b = dynamic_bound(&g, 0, &m);
        assert_eq!(b, static_bound(&g, 0) - 1.0);
        m.add_connector(3, 4); // identified connector
        assert_eq!(dynamic_bound(&g, 0, &m), b - 0.5);
    }
}
