//! The paper's Fig. 1 running example, reconstructed exactly.
//!
//! The paper never lists the edge set, but the worked examples pin it down
//! uniquely. This module hardcodes that reconstruction
//! together with every ego-betweenness value the paper states, so the whole
//! stack can be golden-tested against the authors' own numbers:
//!
//! * upper bounds / processing order of Fig. 2 (`c i f d x e h g b a …`),
//! * `CB` values of Fig. 2 (41/6, 8, 11, 14/3, 10, 9/2, 2/3, 2/3, 1, 1),
//! * top-k answers of Example 2 (`k=1 → {f}`, `k=3 → {f,x,i}`),
//! * Example 5's post-insert values (insert `(i,k)`: `CB(i)=10.5`,
//!   `CB(k)=0.5`, `CB(f)=9.5`),
//! * Example 6's post-delete values for `g` (`CB(g)=0.5`). The paper's
//!   claims for `c` and `e` after deleting `(c,g)` contradict its own
//!   Lemmas 6–7; the corrected values (`14/3` and `13/2`) are recorded
//!   here instead (paper errata).
//!
//! Vertex ids are assigned so the paper's tie-break ("larger id first"
//! among equal degrees) reproduces the exact processing order of Fig. 2.

use egobtw_graph::{CsrGraph, VertexId};

/// Ids for the 16 labeled vertices of Fig. 1(a).
#[allow(missing_docs)]
pub mod ids {
    use egobtw_graph::VertexId;
    pub const A: VertexId = 0;
    pub const B: VertexId = 1;
    pub const G: VertexId = 2;
    pub const H: VertexId = 3;
    pub const E: VertexId = 4;
    pub const X: VertexId = 5;
    pub const D: VertexId = 6;
    pub const F: VertexId = 7;
    pub const I: VertexId = 8;
    pub const C: VertexId = 9;
    pub const J: VertexId = 10;
    pub const K: VertexId = 11;
    pub const Y: VertexId = 12;
    pub const Z: VertexId = 13;
    pub const U: VertexId = 14;
    pub const V: VertexId = 15;
}

/// The 30 edges of Fig. 1(a).
#[rustfmt::skip]
pub const EDGES: [(VertexId, VertexId); 30] = {
    use ids::*;
    [
        (A, B), (A, C), (A, D), (A, E),
        (B, C), (B, D), (B, F),
        (C, D), (C, E), (C, G), (C, H), (C, F),
        (D, G), (D, H), (D, I),
        (E, G), (E, I), (E, J),
        (F, H), (F, I), (F, K), (F, X),
        (G, I),
        (H, I),
        (I, J),
        (J, K),
        (X, Y), (X, Z), (X, U), (X, V),
    ]
};

/// Builds the Fig. 1(a) graph (16 vertices, 30 edges).
pub fn paper_graph() -> CsrGraph {
    CsrGraph::from_edges(16, &EDGES)
}

/// Human-readable label of a toy-graph vertex.
pub fn label(v: VertexId) -> char {
    const LABELS: [char; 16] = [
        'a', 'b', 'g', 'h', 'e', 'x', 'd', 'f', 'i', 'c', 'j', 'k', 'y', 'z', 'u', 'v',
    ];
    LABELS[v as usize]
}

/// Exact ego-betweenness of every vertex (from the paper's Fig. 2 /
/// examples; `j`'s value is derived — the paper prunes it before exact
/// computation).
pub fn expected_cb() -> Vec<(VertexId, f64)> {
    use ids::*;
    vec![
        (A, 1.0),
        (B, 1.0),
        (C, 41.0 / 6.0),
        (D, 14.0 / 3.0),
        (E, 4.5),
        (F, 11.0),
        (G, 2.0 / 3.0),
        (H, 2.0 / 3.0),
        (I, 8.0),
        (J, 2.0),
        (K, 1.0),
        (X, 10.0),
        (Y, 0.0),
        (Z, 0.0),
        (U, 0.0),
        (V, 0.0),
    ]
}

/// Fig. 2's processing order of BaseBSearch for `k = 5` (the ten vertices
/// whose ego-betweenness is computed exactly, in order).
pub fn fig2_processing_order() -> Vec<VertexId> {
    use ids::*;
    vec![C, I, F, D, X, E, H, G, B, A]
}

/// Example 5: after inserting `(i,k)`, the affected vertices and their new
/// exact values (`i`, `k`, and their single common neighbor `f`).
pub fn example5_after_insert() -> Vec<(VertexId, f64)> {
    use ids::*;
    vec![(I, 10.5), (K, 0.5), (F, 9.5)]
}

/// Example 6 (corrected per Lemmas 6–7; see module docs): after deleting
/// `(c,g)`, the affected vertices and their new exact values.
pub fn example6_after_delete() -> Vec<(VertexId, f64)> {
    use ids::*;
    vec![(C, 14.0 / 3.0), (G, 0.5), (E, 6.5)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids::*;

    #[test]
    fn degrees_match_fig2_upper_bounds() {
        let g = paper_graph();
        assert_eq!(g.n(), 16);
        assert_eq!(g.m(), 30);
        // ub(u) = d(d-1)/2 must equal Fig. 2's row: c:21 i:15 f:15 d:15
        // x:10 e:10 h:6 g:6 b:6 a:6, j:3, k:1.
        let ub = |v: VertexId| g.degree_bound(v);
        assert_eq!(ub(C), 21.0);
        assert_eq!(ub(I), 15.0);
        assert_eq!(ub(F), 15.0);
        assert_eq!(ub(D), 15.0);
        assert_eq!(ub(X), 10.0);
        assert_eq!(ub(E), 10.0);
        for v in [H, G, B, A] {
            assert_eq!(ub(v), 6.0);
        }
        assert_eq!(ub(J), 3.0);
        assert_eq!(ub(K), 1.0);
        for v in [Y, Z, U, V] {
            assert_eq!(ub(v), 0.0);
        }
    }

    #[test]
    fn total_order_matches_fig2() {
        let g = paper_graph();
        let order = egobtw_graph::DegreeOrder::new(&g);
        let prefix: Vec<VertexId> = order.iter().take(10).collect();
        assert_eq!(prefix, fig2_processing_order());
    }

    #[test]
    fn example1_ego_network_of_d() {
        let g = paper_graph();
        // N(d) = {a,b,c,g,h,i} with exactly the 7 edges listed in Ex. 1.
        let mut nd: Vec<VertexId> = g.neighbors(D).to_vec();
        nd.sort_unstable();
        let mut expect = vec![A, B, C, G, H, I];
        expect.sort_unstable();
        assert_eq!(nd, expect);
        // The three shortest c–i paths of Example 1: via g, h, d.
        assert!(g.has_edge(C, G) && g.has_edge(G, I));
        assert!(g.has_edge(C, H) && g.has_edge(H, I));
        assert!(!g.has_edge(C, I));
    }

    #[test]
    fn labels_roundtrip() {
        assert_eq!(label(C), 'c');
        assert_eq!(label(V), 'v');
        let mut seen: Vec<char> = (0..16).map(label).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 16, "labels are distinct");
    }
}
