//! LazyInsert / LazyDelete (Algorithm 6): top-k maintenance with `O(n)`
//! state and as little recomputation as the monotonicity facts allow.
//!
//! Per vertex we keep `(val, stale)`; `R` is the current top-k set. The
//! invariants (a hardened version of the paper's scheme — Algorithm 6
//! leaves the staleness semantics implicit):
//!
//! * **I1 (fresh = exact):** `!stale[v] ⟹ val[v] = CB(v)`.
//! * **I2 (outsider upper bound):** `v ∉ R ⟹ val[v] ≥ CB(v)`. Where
//!   monotonicity does not supply a bound (an endpoint, or a common
//!   neighbor under deletion), the degree bound `d(d−1)/2` is substituted
//!   — exactly the paper's `ub(u) ≤ min CB(R)` skip rule.
//! * **I3 (member lower bound):** `v ∈ R` and `stale[v]` only in the
//!   delete/common-neighbor case, where `CB` is non-decreasing, so
//!   `val[v] ≤ CB(v)` and membership stays valid without recomputation
//!   (the paper's Example 8 optimization).
//!
//! I2 makes the lazy max-heap sound: the best *fresh* entry popped
//! dominates the true `CB` of every other outsider, so promotion and
//! demotion decisions made against it are exact.

use egobtw_core::naive::ego_betweenness_of;
use egobtw_core::topk::OrdF64;
use egobtw_graph::{CsrGraph, DynGraph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Counters distinguishing lazy skips from forced recomputations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LazyStats {
    /// Exact per-ego recomputations performed.
    pub recomputations: usize,
    /// Affected vertices handled by staleness marking alone.
    pub lazy_skips: usize,
    /// Membership swaps in the top-k set.
    pub swaps: usize,
}

/// Result of [`LazyTopK::peek_top_k`]: the maintained set without paying
/// any refresh cost.
#[derive(Clone, Debug)]
pub struct TopKPeek {
    /// The members of the maintained top-k, sorted by descending stored
    /// value (ascending id on exact ties). Membership is exact; values of
    /// stale members are lower bounds on their true `CB`.
    pub entries: Vec<(VertexId, f64)>,
    /// How many members carry a stale (lower-bound) value. `0` means
    /// every value in `entries` is exact.
    pub stale_members: usize,
}

/// A vertex's place in the ranking `topk_from_scores` uses: higher value
/// first, then smaller id. Greater is better.
type Rank = (OrdF64, Reverse<VertexId>);

fn rank(val: f64, v: VertexId) -> Rank {
    (OrdF64(val), Reverse(v))
}

/// Lazily maintained top-k ego-betweenness set.
pub struct LazyTopK {
    g: DynGraph,
    k: usize,
    val: Vec<f64>,
    stale: Vec<bool>,
    in_r: Vec<bool>,
    r: Vec<VertexId>,
    /// Lazy max-heap over outsiders, best first in the rank order
    /// [`rank`] gives: entries `(val-at-push, v)`; an entry is live iff it
    /// matches `val[v]` and `v ∉ R`.
    heap: BinaryHeap<Rank>,
    /// Common-neighbor scratch reused across updates (capacity survives,
    /// contents do not).
    scratch_common: Vec<VertexId>,
    /// Work counters.
    pub stats: LazyStats,
}

impl LazyTopK {
    /// Builds the maintainer: one full exact pass, then the top-k is read
    /// off directly.
    pub fn new(g: &CsrGraph, k: usize) -> Self {
        let (cb, _) = egobtw_core::compute_all(g);
        let n = g.n();
        let mut order: Vec<VertexId> = (0..n as VertexId).collect();
        order.sort_by(|&a, &b| cb[b as usize].total_cmp(&cb[a as usize]).then(a.cmp(&b)));
        let r: Vec<VertexId> = order.iter().copied().take(k).collect();
        let mut in_r = vec![false; n];
        for &v in &r {
            in_r[v as usize] = true;
        }
        let mut heap = BinaryHeap::with_capacity(n.saturating_sub(k));
        for v in 0..n as VertexId {
            if !in_r[v as usize] {
                heap.push(rank(cb[v as usize], v));
            }
        }
        LazyTopK {
            g: DynGraph::from_csr(g),
            k,
            val: cb,
            stale: vec![false; n],
            in_r,
            r,
            heap,
            scratch_common: Vec::new(),
            stats: LazyStats::default(),
        }
    }

    /// Current graph.
    pub fn graph(&self) -> &DynGraph {
        &self.g
    }

    /// The configured `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Non-destructive read of the maintained set: no refresh is paid, so
    /// this is `&self` and O(k log k).
    ///
    /// Semantics (from invariants I1/I3): the *membership* of the returned
    /// set is always a correct top-k — `rebalance` restores it before every
    /// `insert_edge`/`delete_edge` returns. Values are exact for fresh
    /// members; a stale member (only possible via the delete/common-neighbor
    /// path, where `CB` is non-decreasing) carries a **lower bound** on its
    /// true score. `stale_members` counts them, so a caller can decide
    /// whether the exact values are worth a [`LazyTopK::top_k`] refresh —
    /// the query service serves `stale_members == 0` peeks directly and
    /// defers the refresh cost otherwise.
    pub fn peek_top_k(&self) -> TopKPeek {
        let mut entries: Vec<(VertexId, f64)> =
            self.r.iter().map(|&v| (v, self.val[v as usize])).collect();
        entries.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let stale_members = self.r.iter().filter(|&&v| self.stale[v as usize]).count();
        TopKPeek {
            entries,
            stale_members,
        }
    }

    /// The maintained top-k, with exact values (stale members are refreshed
    /// on the way out), sorted by descending `CB`.
    pub fn top_k(&mut self) -> Vec<(VertexId, f64)> {
        let members = self.r.clone();
        for v in members {
            self.freshen(v);
        }
        let mut out: Vec<(VertexId, f64)> =
            self.r.iter().map(|&v| (v, self.val[v as usize])).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    fn freshen(&mut self, v: VertexId) {
        if self.stale[v as usize] {
            self.val[v as usize] = ego_betweenness_of(&self.g, v);
            self.stale[v as usize] = false;
            self.stats.recomputations += 1;
            if !self.in_r[v as usize] {
                self.heap.push(rank(self.val[v as usize], v));
            }
        }
    }

    /// Minimum `val` across `R` (lower-bounds `min CB(R)` thanks to I3;
    /// exact when every member is fresh).
    fn min_r_val(&self) -> Option<f64> {
        self.r
            .iter()
            .map(|&v| self.val[v as usize])
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Pops the outsider with the highest exact `CB` (recomputing stale
    /// candidates it encounters), pushing it back for future queries.
    fn best_outsider(&mut self) -> Option<(VertexId, f64)> {
        while let Some((OrdF64(b), Reverse(v))) = self.heap.pop() {
            // Bits, not `==`: a score moving between `+0.0` and `-0.0` (a
            // clique ego's empty sum) must leave its old entry dead.
            if self.in_r[v as usize] || b.to_bits() != self.val[v as usize].to_bits() {
                continue; // stale heap entry
            }
            if self.stale[v as usize] {
                self.val[v as usize] = ego_betweenness_of(&self.g, v);
                self.stale[v as usize] = false;
                self.stats.recomputations += 1;
                self.heap.push(rank(self.val[v as usize], v));
                continue; // re-pop with the refreshed key
            }
            self.heap.push(rank(b, v));
            return Some((v, b));
        }
        None
    }

    /// Restores the top-k invariant after the per-vertex handlers ran.
    fn rebalance(&mut self) {
        // Fill up if under capacity.
        while self.r.len() < self.k {
            let Some((o, vo)) = self.best_outsider() else {
                break;
            };
            self.promote(o, vo);
        }
        // Swap while the best outsider outranks the weakest member: the
        // one with the lowest value and, among those, the largest id.
        while let Some((o, vo)) = self.best_outsider() {
            let Some((ri, rv)) = self
                .r
                .iter()
                .enumerate()
                .map(|(i, &v)| (i, v))
                .min_by_key(|&(_, v)| rank(self.val[v as usize], v))
            else {
                break;
            };
            let rval = self.val[rv as usize];
            if rank(vo, o) < rank(rval, rv) {
                break; // ranked below val(r) ≤ CB(r), so below r (I3)
            }
            if self.stale[rv as usize] {
                // The weakest member's value is a lower bound; sharpen it
                // before deciding the swap, on a tie too.
                self.freshen(rv);
                continue;
            }
            // Exact comparison: outsider wins — swap.
            self.r.swap_remove(ri);
            self.in_r[rv as usize] = false;
            self.heap.push(rank(rval, rv));
            self.promote(o, vo);
            self.stats.swaps += 1;
        }
    }

    fn promote(&mut self, v: VertexId, val: f64) {
        debug_assert!(!self.in_r[v as usize]);
        debug_assert_eq!(self.val[v as usize], val);
        debug_assert!(!self.stale[v as usize]);
        self.in_r[v as usize] = true;
        self.r.push(v);
    }

    /// `d(d−1)/2`, counted in integers so that degree 0 gives `+0.0`, the
    /// score the kernel gives it, and not `-0.0`, which ranks below it.
    fn degree_bound(&self, w: VertexId) -> f64 {
        let d = self.g.degree(w);
        (d * d.saturating_sub(1) / 2) as f64
    }

    /// An endpoint's `CB` moved in an unknown direction; its degree bound
    /// is `ub`.
    fn handle_endpoint(&mut self, w: VertexId) {
        let ub = self.degree_bound(w);
        if self.in_r[w as usize] {
            self.stale[w as usize] = true;
            self.freshen(w); // members must stay comparable
            return;
        }
        match self.min_r_val() {
            Some(min_r) if self.r.len() >= self.k && ub <= min_r => {
                // Cannot enter the top-k: park it under its degree bound
                // (I2) without recomputation.
                self.val[w as usize] = ub;
                self.stale[w as usize] = true;
                self.heap.push(rank(ub, w));
                self.stats.lazy_skips += 1;
            }
            _ => {
                self.stale[w as usize] = true;
                self.freshen(w);
            }
        }
    }

    /// Inserts edge `(u,v)` and repairs the top-k. Returns `false` if the
    /// edge was already present.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || self.g.has_edge(u, v) {
            return false;
        }
        let mut common = std::mem::take(&mut self.scratch_common);
        self.g.common_neighbors_into(u, v, &mut common);
        self.g.insert_edge(u, v);
        self.handle_endpoint(u);
        self.handle_endpoint(v);
        for &w in &common {
            if self.in_r[w as usize] {
                // Decreasing: may fall out of R — recompute and rebalance.
                self.stale[w as usize] = true;
                self.freshen(w);
            } else {
                // Decreasing: the old value stays an upper bound (I2).
                self.stale[w as usize] = true;
                self.stats.lazy_skips += 1;
            }
        }
        self.scratch_common = common;
        self.rebalance();
        true
    }

    /// Deletes edge `(u,v)` and repairs the top-k. Returns `false` if the
    /// edge was absent.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if !self.g.has_edge(u, v) {
            return false;
        }
        let mut common = std::mem::take(&mut self.scratch_common);
        self.g.common_neighbors_into(u, v, &mut common);
        self.g.remove_edge(u, v);
        self.handle_endpoint(u);
        self.handle_endpoint(v);
        for &w in &common {
            if self.in_r[w as usize] {
                // Non-decreasing: membership is safe; value becomes a
                // lower bound (I3). The paper's Example 8 optimization.
                self.stale[w as usize] = true;
                self.stats.lazy_skips += 1;
            } else {
                // Non-decreasing: old val may under-bound. Substitute the
                // degree bound if that cannot reach the top-k; else
                // recompute.
                let ub = self.degree_bound(w);
                match self.min_r_val() {
                    Some(min_r) if self.r.len() >= self.k && ub <= min_r => {
                        self.val[w as usize] = ub;
                        self.stale[w as usize] = true;
                        self.heap.push(rank(ub, w));
                        self.stats.lazy_skips += 1;
                    }
                    _ => {
                        self.stale[w as usize] = true;
                        self.freshen(w);
                    }
                }
            }
        }
        self.scratch_common = common;
        self.rebalance();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egobtw_core::{compute_all_naive, topk_from_scores};
    use egobtw_gen::{classic, gnp, toy};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Oracle check: the maintained top-k is `topk_from_scores` of the
    /// naive scores, ids and bits, ties broken toward the smaller id.
    fn assert_topk_correct(lazy: &mut LazyTopK, k: usize) {
        let g = lazy.graph().to_csr();
        let truth = topk_from_scores(&compute_all_naive(&g), k);
        let got = lazy.top_k();
        assert_eq!(got.len(), k.min(g.n()));
        for (rank, (&(v, cb), &(tv, tcb))) in got.iter().zip(&truth).enumerate() {
            assert_eq!(
                (v, cb.to_bits()),
                (tv, tcb.to_bits()),
                "rank {rank}: ({v}, {cb}) vs oracle ({tv}, {tcb})"
            );
        }
    }

    #[test]
    fn ties_keep_the_smaller_id() {
        // A 6-leaf star plus isolated vertex 7, k = 3: the star's centre
        // and then leaves tied at 0, so the set is {0, 1, 2}.
        let edges: Vec<(VertexId, VertexId)> = (1..=6).map(|v| (0, v)).collect();
        let mut lazy = LazyTopK::new(&CsrGraph::from_edges(8, &edges), 3);
        let ids = |lazy: &mut LazyTopK| lazy.top_k().iter().map(|e| e.0).collect::<Vec<_>>();
        assert_eq!(ids(&mut lazy), [0, 1, 2]);
        // Leaf 5 rises to 1; the last slot goes to the smallest of the
        // leaves still tied at 0.
        lazy.insert_edge(5, 7);
        assert_eq!(ids(&mut lazy), [0, 5, 1]);
        assert_topk_correct(&mut lazy, 3);
        // 6 and 7 rise to 1 too: of 5, 6 and 7, the two smallest ids stay.
        lazy.insert_edge(6, 7);
        assert_eq!(ids(&mut lazy), [0, 5, 6]);
        assert_topk_correct(&mut lazy, 3);
        // Leaf 1's and 2's egos become cliques: an empty sum, `-0.0`,
        // which ranks below the leaves at `+0.0`.
        lazy.insert_edge(1, 2);
        assert_topk_correct(&mut lazy, 3);
        lazy.delete_edge(5, 7);
        lazy.delete_edge(6, 7);
        assert_eq!(ids(&mut lazy), [0, 3, 4]);
        assert_topk_correct(&mut lazy, 3);
    }

    #[test]
    fn initial_topk_matches_oracle() {
        let g = classic::karate_club();
        for k in [1, 3, 10, 34, 50] {
            let mut lazy = LazyTopK::new(&g, k);
            assert_topk_correct(&mut lazy, k);
        }
    }

    #[test]
    fn paper_example7_insert_flips_top1() {
        // k=1, R={f}; inserting (i,k) must: skip recomputing k (bound 3 <
        // 11), recompute i (bound 21 > 11), and land on R={i} (10.5 > 9.5).
        let g = toy::paper_graph();
        let mut lazy = LazyTopK::new(&g, 1);
        assert_eq!(lazy.top_k()[0].0, toy::ids::F);
        lazy.insert_edge(toy::ids::I, toy::ids::K);
        let top = lazy.top_k();
        assert_eq!(top[0].0, toy::ids::I);
        assert!((top[0].1 - 10.5).abs() < 1e-9);
    }

    #[test]
    fn paper_example8_delete_keeps_top1() {
        // k=1: deleting (c,g) leaves f on top (bound of g is 3 < 11; c's
        // bound 15 > 11 forces a recompute, but 14/3 < 11).
        let g = toy::paper_graph();
        let mut lazy = LazyTopK::new(&g, 1);
        lazy.delete_edge(toy::ids::C, toy::ids::G);
        let top = lazy.top_k();
        assert_eq!(top[0].0, toy::ids::F);
        assert!((top[0].1 - 11.0).abs() < 1e-9);
    }

    #[test]
    fn paper_example8_k12_common_neighbor_stays() {
        // k=12: the top-12 before deleting (c,g) is V − {u,v,y,z}; e is a
        // common neighbor whose CB is non-decreasing, so it stays without
        // recomputation.
        let g = toy::paper_graph();
        let mut lazy = LazyTopK::new(&g, 12);
        let before: Vec<VertexId> = {
            let mut vs: Vec<VertexId> = lazy.top_k().iter().map(|e| e.0).collect();
            vs.sort_unstable();
            vs
        };
        let mut expect: Vec<VertexId> = (0..16)
            .filter(|v| ![toy::ids::U, toy::ids::V, toy::ids::Y, toy::ids::Z].contains(v))
            .collect();
        expect.sort_unstable();
        assert_eq!(before, expect);
        lazy.delete_edge(toy::ids::C, toy::ids::G);
        assert_topk_correct(&mut lazy, 12);
    }

    #[test]
    fn lazy_skips_happen() {
        // On a star, inserting a leaf-leaf edge must not recompute the far
        // leaves.
        let g = classic::star(30);
        let mut lazy = LazyTopK::new(&g, 1);
        lazy.insert_edge(1, 2);
        assert!(lazy.stats.lazy_skips > 0, "expected at least one lazy skip");
        assert_topk_correct(&mut lazy, 1);
    }

    #[test]
    fn randomized_stream_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(77);
        for k in [1usize, 4, 10] {
            let g0 = gnp(22, 0.2, k as u64);
            let mut lazy = LazyTopK::new(&g0, k);
            for _ in 0..120 {
                let u = rng.random_range(0..22u32);
                let v = rng.random_range(0..22u32);
                if u == v {
                    continue;
                }
                if lazy.graph().has_edge(u, v) {
                    lazy.delete_edge(u, v);
                } else {
                    lazy.insert_edge(u, v);
                }
                assert_topk_correct(&mut lazy, k);
            }
        }
    }

    #[test]
    fn k_exceeding_n_holds_everyone() {
        let g = classic::path(5);
        let mut lazy = LazyTopK::new(&g, 50);
        lazy.insert_edge(0, 4);
        assert_topk_correct(&mut lazy, 50);
    }

    #[test]
    fn peek_is_fresh_after_build_and_insert_rebalance() {
        let g = classic::karate_club();
        let mut lazy = LazyTopK::new(&g, 5);
        let peek = lazy.peek_top_k();
        assert_eq!(peek.stale_members, 0, "initial build is fully exact");
        assert_eq!(peek.entries, lazy.top_k());
        // An endpoint update freshens members (handle_endpoint forces it),
        // so a pure insert on non-member-adjacent vertices keeps members
        // fresh too; either way top_k() and a fresh peek must agree.
        lazy.insert_edge(4, 12);
        let peek = lazy.peek_top_k();
        let exact = lazy.top_k();
        if peek.stale_members == 0 {
            assert_eq!(peek.entries, exact);
        }
        assert_eq!(lazy.peek_top_k().stale_members, 0, "top_k() refreshed all");
    }

    #[test]
    fn peek_reports_stale_lower_bounds_after_delete() {
        // Delete (c,g) in the paper graph with a large k: common neighbors
        // inside R keep lower-bound values (Example 8), so peek must flag
        // them stale while membership stays a correct top-k set.
        let g = toy::paper_graph();
        let mut lazy = LazyTopK::new(&g, 12);
        let before = lazy.top_k();
        lazy.delete_edge(toy::ids::C, toy::ids::G);
        let peek = lazy.peek_top_k();
        assert!(
            peek.stale_members > 0,
            "Example 8 path must leave stale members"
        );
        assert_eq!(peek.entries.len(), before.len());
        // Peek must not mutate: a second peek sees the identical state.
        let again = lazy.peek_top_k();
        assert_eq!(peek.entries, again.entries);
        assert_eq!(peek.stale_members, again.stale_members);
        // Stale values are lower bounds on the exact refreshed scores, and
        // the membership already matches the refreshed answer.
        let peek_vals: std::collections::HashMap<VertexId, f64> =
            peek.entries.iter().copied().collect();
        let exact = lazy.top_k();
        let mut peek_set: Vec<VertexId> = peek_vals.keys().copied().collect();
        let mut exact_set: Vec<VertexId> = exact.iter().map(|e| e.0).collect();
        peek_set.sort_unstable();
        exact_set.sort_unstable();
        assert_eq!(peek_set, exact_set, "peek membership must already be exact");
        for &(v, cb) in &exact {
            assert!(
                peek_vals[&v] <= cb + 1e-9,
                "stale value {} for {v} must lower-bound exact {cb}",
                peek_vals[&v]
            );
        }
        assert_eq!(
            lazy.peek_top_k().stale_members,
            0,
            "refresh clears staleness"
        );
        assert_topk_correct(&mut lazy, 12);
    }

    #[test]
    fn peek_membership_matches_oracle_on_random_stream() {
        let mut rng = StdRng::seed_from_u64(901);
        let g0 = gnp(20, 0.25, 3);
        let k = 5;
        let mut lazy = LazyTopK::new(&g0, k);
        for _ in 0..60 {
            let u = rng.random_range(0..20u32);
            let v = rng.random_range(0..20u32);
            if u == v {
                continue;
            }
            if lazy.graph().has_edge(u, v) {
                lazy.delete_edge(u, v);
            } else {
                lazy.insert_edge(u, v);
            }
            // Peek first (must not disturb state), then verify exactness.
            let peek = lazy.peek_top_k();
            assert_eq!(peek.entries.len(), k.min(lazy.graph().n()));
            let exact = lazy.top_k();
            let mut ps: Vec<VertexId> = peek.entries.iter().map(|e| e.0).collect();
            let mut es: Vec<VertexId> = exact.iter().map(|e| e.0).collect();
            ps.sort_unstable();
            es.sort_unstable();
            assert_eq!(ps, es);
            assert_topk_correct(&mut lazy, k);
        }
    }

    #[test]
    fn stream_against_local_index() {
        // Cross-check the two maintainers against each other on a denser
        // stream than the naive-oracle test can afford.
        let mut rng = StdRng::seed_from_u64(5);
        let g0 = gnp(40, 0.15, 8);
        let k = 6;
        let mut lazy = LazyTopK::new(&g0, k);
        let mut local = crate::local::LocalIndex::new(&g0, k);
        for _ in 0..200 {
            let u = rng.random_range(0..40u32);
            let v = rng.random_range(0..40u32);
            if u == v {
                continue;
            }
            if lazy.graph().has_edge(u, v) {
                lazy.delete_edge(u, v);
                local.delete_edge(u, v);
            } else {
                lazy.insert_edge(u, v);
                local.insert_edge(u, v);
            }
            let bits =
                |top: Vec<(VertexId, f64)>| top.iter().map(|e| e.1.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(lazy.top_k()),
                bits(local.top_k()),
                "maintainers disagree"
            );
        }
    }
}
