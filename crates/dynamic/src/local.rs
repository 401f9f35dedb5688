//! LocalInsert / LocalDelete (Algorithms 4–5): exact maintenance of every
//! vertex's ego-betweenness under edge updates, with a certified top-k.
//!
//! The index keeps the same map invariant as the static engine, for every
//! vertex `w` and unordered pair `{x,y} ⊆ N(w)`:
//!
//! * `(x,y) ∈ E` ⟺ `S_w(x,y) = 0`;
//! * `(x,y) ∉ E` with `c > 0` connectors inside `N(w)` ⟺ `S_w(x,y) = c`;
//! * `(x,y) ∉ E` with no connectors ⟺ no entry.
//!
//! An update patches only the map entries Lemmas 4–7 name, and each map
//! tallies its entries by connector count as it changes. Every ego the
//! update touches (`{u, v} ∪ (N(u) ∩ N(v))`, Observation 1) is then
//! rescored from its tallies ([`egobtw_core::smap::PairMap::cb`]) with
//! `EgoKernel`'s own summation, so every maintained score is
//! bit-identical to a static recomputation on the same graph, and no
//! float error accumulates over a stream. No score delta is transcribed
//! from the paper, whose own Example 6 has two sign errors (see the
//! errata in `egobtw_gen::toy`).
//!
//! On top of the exact scores the index keeps the top-`k` *set*. Every
//! touched ego gets a fresh entry in one of two lazy heaps: a max-heap of
//! candidate outsiders or a min-heap of members. Re-certification
//! discards stale entries (value no longer current, or vertex on the
//! other side) on pop and swaps members out only while the best live
//! outsider outranks the weakest live member in the repo-wide order
//! (`CB` descending by `total_cmp`, ties toward the smaller id). So each
//! swap costs `O(log n)`, and membership depends on the scores alone,
//! never on update history. A heap is rebuilt from its live side once it
//! holds more than twice that side plus 64 entries. Reading the answer
//! ([`LocalIndex::top_k`]) is then an `O(k log k)` sort of the members.
//!
//! Invariants (checked exhaustively by [`LocalIndex::validate`]):
//!
//! * **map/CB**: the map invariant above holds for every ego, and `CB[w]`
//!   is bit-identical to `EgoKernel`'s score of `w`;
//! * **boundary**: no non-member outranks the weakest member, and
//!   `|top| = min(k, n)`;
//! * **heap coverage**: every vertex whose `CB` changed since its last
//!   heap entry has a fresh entry on its side — guaranteed because every
//!   touched ego is re-queued before re-certification.

use egobtw_core::ego_kernel::EgoKernel;
use egobtw_core::smap::SMapStore;
use egobtw_core::topk::OrdF64;
use egobtw_graph::{CsrGraph, DynGraph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `top_pos` of an outsider.
const OUTSIDER: u32 = u32::MAX;

/// A vertex's rank under the repo-wide order: larger `CB` (`total_cmp`)
/// first and, on ties, the smaller id. The candidate max-heap pops the
/// best outsider first.
type RankKey = (OrdF64, Reverse<VertexId>);

fn rank_key(val: f64, v: VertexId) -> RankKey {
    (OrdF64(val), Reverse(v))
}

/// A member-heap entry: the max-heap pops the worst-ranked member first,
/// the one to evict.
type MemberKey = Reverse<RankKey>;

fn member_key(val: f64, v: VertexId) -> MemberKey {
    Reverse(rank_key(val, v))
}

/// Deliberate defect classes planted inside the update path, for
/// mutation-testing the conformance net (`stress --mutate delta-*`).
/// Test-only: a faulty index is built via [`LocalIndex::with_fault`] and
/// must be caught by the harness. A faulty index never panics (its map
/// consistency asserts are off), so the harness sees a wrong answer, not
/// a crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalFault {
    /// On delete, skip the Lemma 7 connector removals inside the
    /// common-neighbor egos — the classic stale-pair-term bug: connector
    /// counts stay inflated and those egos' `CB` ends up too low.
    StalePairOnDelete,
    /// Drop the last common-neighbor ego from the insert and delete loops
    /// — an off-by-one in the `N(u) ∩ N(v)` walk. That ego's terms and
    /// `CB` silently rot.
    MissEgo,
    /// Never re-certify the top-k boundary after scores move — membership
    /// freezes at the initial top-k even when an outsider overtakes it.
    SkipRecertify,
}

/// Scratch buffers reused across updates, so a replayed stream does not
/// pay one round of allocations per op (capacity survives, contents do
/// not).
#[derive(Default)]
struct Scratch {
    common: Vec<VertexId>,
    xs: Vec<VertexId>,
    nbrs: Vec<VertexId>,
}

/// Exact dynamic index over all vertices, with a maintained top-k set.
pub struct LocalIndex {
    g: DynGraph,
    store: SMapStore,
    cb: Vec<f64>,
    k: usize,
    /// Index of each member in `top`; [`OUTSIDER`] for outsiders.
    top_pos: Vec<u32>,
    /// Current top-k members, unordered (sorted only on read-out).
    top: Vec<VertexId>,
    /// Lazy max-heap over outsiders: entries `rank_key(cb-at-push, v)`;
    /// an entry is live iff `v` is an outsider and the value still matches
    /// `cb[v]` bit for bit.
    cand: BinaryHeap<RankKey>,
    /// Lazy min-heap over members, live like `cand` with the sides
    /// swapped; its live top is the weakest member.
    members: BinaryHeap<MemberKey>,
    scratch: Scratch,
    fault: Option<LocalFault>,
}

impl LocalIndex {
    /// Builds the index from a static graph: one shared edge-centric pass
    /// (`build_store`, routed through the hybrid intersection kernels) to
    /// populate the maps, then the `k` best-ranked vertices are popped off
    /// the candidate heap.
    pub fn new(g: &CsrGraph, k: usize) -> Self {
        Self::build(g, k, None)
    }

    /// [`LocalIndex::new`] with a planted defect. Mutation-testing only.
    pub fn with_fault(g: &CsrGraph, k: usize, fault: LocalFault) -> Self {
        Self::build(g, k, Some(fault))
    }

    fn build(g: &CsrGraph, k: usize, fault: Option<LocalFault>) -> Self {
        let store = egobtw_core::compute_all::build_store(g);
        // The kernel's summation over each map's tallies: `compute_all`'s
        // scores, bit for bit.
        let n = g.n();
        let cb: Vec<f64> = (0..n as VertexId)
            .map(|v| store.map(v).cb(g.degree(v)))
            .collect();
        let cand = if k > 0 {
            (0..n as VertexId)
                .map(|v| rank_key(cb[v as usize], v))
                .collect()
        } else {
            BinaryHeap::new()
        };
        let mut idx = LocalIndex {
            g: DynGraph::from_csr(g),
            store,
            cb,
            k,
            top_pos: vec![OUTSIDER; n],
            top: Vec::with_capacity(k.min(n)),
            cand,
            members: BinaryHeap::new(),
            scratch: Scratch::default(),
            fault,
        };
        // Every entry is live, so the pops come in rank order. Afterwards
        // `top` is full whenever `n ≥ k`; `add_vertex` keeps it so.
        while idx.top.len() < k {
            let Some((_, Reverse(v))) = idx.cand.pop() else {
                break;
            };
            idx.promote(v);
        }
        idx
    }

    /// Current graph.
    pub fn graph(&self) -> &DynGraph {
        &self.g
    }

    /// The configured `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current exact ego-betweenness of `v`.
    #[inline]
    pub fn cb(&self, v: VertexId) -> f64 {
        self.cb[v as usize]
    }

    /// All current values.
    pub fn all_cb(&self) -> &[f64] {
        &self.cb
    }

    /// The maintained top-k (descending `CB`, ties toward smaller id).
    /// `&self` and `O(k log k)`: every update re-certifies membership, so
    /// reading it costs only the sort of `k` entries.
    pub fn top_k(&self) -> Vec<(VertexId, f64)> {
        let mut out: Vec<(VertexId, f64)> =
            self.top.iter().map(|&v| (v, self.cb[v as usize])).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Appends an isolated vertex (promoted directly while the top set is
    /// under capacity).
    pub fn add_vertex(&mut self) -> VertexId {
        let v = self.g.add_vertex();
        self.store.push_vertex();
        self.cb.push(0.0);
        self.top_pos.push(OUTSIDER);
        if self.top.len() < self.k {
            self.promote(v);
        } else {
            self.requeue(v);
        }
        v
    }

    // ---- map mutations a planted fault can make stale ----

    /// One more connector for the non-adjacent pair `(x,y)` of ego `w`.
    #[inline]
    fn add_connector(&mut self, w: VertexId, x: VertexId, y: VertexId) {
        let m = self.store.map_mut(w);
        if self.fault.is_some() && m.get(x, y) == Some(0) {
            return; // a planted fault's stale edge entry
        }
        m.add_connector(x, y);
    }

    /// One connector fewer for the non-adjacent pair `(x,y)` of ego `w`.
    #[inline]
    fn remove_connector(&mut self, w: VertexId, x: VertexId, y: VertexId) {
        let m = self.store.map_mut(w);
        if self.fault.is_some() && !matches!(m.get(x, y), Some(c) if c > 0) {
            return; // a planted fault's missing entry
        }
        m.remove_connector(x, y);
    }

    /// How many of the common-neighbor egos the Lemma 5/7 loops visit (the
    /// planted `MissEgo` fault drops the last one).
    fn upto(&self, common: &[VertexId]) -> usize {
        if self.fault == Some(LocalFault::MissEgo) {
            common.len().saturating_sub(1)
        } else {
            common.len()
        }
    }

    /// Inserts edge `(u,v)`, updating `CB` for `u`, `v`, and all common
    /// neighbors (Observation 1), then re-certifies the top-k. Returns
    /// `false` (no-op) if the edge already exists or `u == v`.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || self.g.has_edge(u, v) {
            return false;
        }
        // Everything below reasons about the OLD graph; the adjacency flip
        // happens last.
        let mut common = std::mem::take(&mut self.scratch.common);
        self.g.common_neighbors_into(u, v, &mut common);
        common.sort_unstable();

        // --- common neighbors w ∈ L (Lemma 5) ---
        for &w in &common[..self.upto(&common)] {
            // (u,v) becomes an edge inside GE(w).
            self.store.map_mut(w).set_raw(u, v, 0);
            // v is a new connector for pairs (u,x), x ∈ N(w) ∩ N(v).
            let mut xs = std::mem::take(&mut self.scratch.xs);
            self.g.common_neighbors_into(w, v, &mut xs);
            for &x in &xs {
                if x != u && !self.g.has_edge(x, u) {
                    self.add_connector(w, u, x);
                }
            }
            // u is a new connector for pairs (v,x), x ∈ N(w) ∩ N(u).
            self.g.common_neighbors_into(w, u, &mut xs);
            for &x in &xs {
                if x != v && !self.g.has_edge(x, v) {
                    self.add_connector(w, v, x);
                }
            }
            self.scratch.xs = xs;
        }

        // --- endpoints (Lemma 4 / Algorithm 5) ---
        self.endpoint_gains_neighbor(u, v, &common);
        self.endpoint_gains_neighbor(v, u, &common);

        self.g.insert_edge(u, v);
        self.recertify_touched(u, v, &common);
        self.scratch.common = common;
        true
    }

    /// Endpoint `u` gains neighbor `nv`; `common = N(u) ∩ N(nv)` in the old
    /// graph.
    fn endpoint_gains_neighbor(&mut self, u: VertexId, nv: VertexId, common: &[VertexId]) {
        // New pairs (nv, x) for every old neighbor x: an edge entry for
        // x ∈ L; the rest start absent and gain connectors below.
        let m = self.store.map_mut(u);
        for &x in common {
            m.set_raw(nv, x, 0);
        }
        // Connectors for the new pairs come exactly from L: p ∈ L is
        // adjacent to nv; it connects (nv, x) for x ∈ N(u) ∩ N(p), x ∉ L.
        for &p in common {
            let mut xs = std::mem::take(&mut self.scratch.xs);
            self.g.common_neighbors_into(u, p, &mut xs);
            for &x in &xs {
                if x != nv && common.binary_search(&x).is_err() {
                    self.add_connector(u, nv, x);
                }
            }
            self.scratch.xs = xs;
        }
        // nv becomes a connector for existing non-adjacent pairs inside L.
        for (i, &p) in common.iter().enumerate() {
            for &q in common.iter().skip(i + 1) {
                if !self.g.has_edge(p, q) {
                    self.add_connector(u, p, q);
                }
            }
        }
    }

    /// Deletes edge `(u,v)`, updating `CB` for `u`, `v`, and all common
    /// neighbors, then re-certifies the top-k. Returns `false` (no-op) if
    /// the edge does not exist.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if !self.g.has_edge(u, v) {
            return false;
        }
        let mut common = std::mem::take(&mut self.scratch.common);
        self.g.common_neighbors_into(u, v, &mut common);
        common.sort_unstable();

        // --- common neighbors w ∈ L (Lemma 7) ---
        let skip_pair_terms = self.fault == Some(LocalFault::StalePairOnDelete);
        for &w in &common[..self.upto(&common)] {
            // (u,v) stops being an edge inside GE(w); its connector count
            // is |L ∩ N(w)|.
            let c = common
                .iter()
                .filter(|&&x| x != w && self.g.has_edge(x, w))
                .count() as u32;
            let m = self.store.map_mut(w);
            let was = if c == 0 {
                m.remove(u, v)
            } else {
                m.set_raw(u, v, c)
            };
            debug_assert!(
                self.fault.is_some() || was == Some(0),
                "pair was not an edge"
            );
            if skip_pair_terms {
                continue;
            }
            // v stops connecting pairs (u,x), x ∈ N(w) ∩ N(v).
            let mut xs = std::mem::take(&mut self.scratch.xs);
            self.g.common_neighbors_into(w, v, &mut xs);
            for &x in &xs {
                if x != u && !self.g.has_edge(x, u) {
                    self.remove_connector(w, u, x);
                }
            }
            // u stops connecting pairs (v,x), x ∈ N(w) ∩ N(u).
            self.g.common_neighbors_into(w, u, &mut xs);
            for &x in &xs {
                if x != v && !self.g.has_edge(x, v) {
                    self.remove_connector(w, v, x);
                }
            }
            self.scratch.xs = xs;
        }

        // --- endpoints (Lemma 6) ---
        self.endpoint_loses_neighbor(u, v, &common);
        self.endpoint_loses_neighbor(v, u, &common);

        self.g.remove_edge(u, v);
        self.recertify_touched(u, v, &common);
        self.scratch.common = common;
        true
    }

    /// Endpoint `u` loses neighbor `nv`; `common = N(u) ∩ N(nv)`.
    fn endpoint_loses_neighbor(&mut self, u: VertexId, nv: VertexId, common: &[VertexId]) {
        let mut nbrs = std::mem::take(&mut self.scratch.nbrs);
        self.g.sorted_neighbors_into(u, &mut nbrs);
        let m = self.store.map_mut(u);
        for &x in &nbrs {
            if x != nv {
                m.remove(nv, x);
            }
        }
        self.scratch.nbrs = nbrs;
        for (i, &p) in common.iter().enumerate() {
            for &q in common.iter().skip(i + 1) {
                if !self.g.has_edge(p, q) {
                    self.remove_connector(u, p, q);
                }
            }
        }
    }

    // ---- lazy top-k re-certification ----

    /// Rescores and re-queues the egos a flip of `(u,v)` touched
    /// (Observation 1) on the new graph, then restores the boundary
    /// invariant.
    fn recertify_touched(&mut self, u: VertexId, v: VertexId, common: &[VertexId]) {
        for &w in [u, v].iter().chain(common) {
            self.cb[w as usize] = self.store.map(w).cb(self.g.degree(w));
            self.requeue(w);
        }
        self.compact();
        self.recertify();
    }

    /// Pushes a fresh entry for a touched vertex on its side's heap.
    fn requeue(&mut self, v: VertexId) {
        let val = self.cb[v as usize];
        if self.is_member(v) {
            self.members.push(member_key(val, v));
        } else if self.k > 0 {
            self.cand.push(rank_key(val, v));
        }
    }

    #[inline]
    fn is_member(&self, v: VertexId) -> bool {
        self.top_pos[v as usize] != OUTSIDER
    }

    /// Rebuilds a heap from its live side once it holds more than twice
    /// that side plus 64 entries: a stale entry behind the live top is
    /// never popped, so without this the heaps grow with every touch.
    /// `O(n)` per outsider rebuild, at most once per `n` pushes; `O(k)`
    /// per member rebuild, at most once per `k` pushes.
    fn compact(&mut self) {
        let n = self.g.n();
        if self.cand.len() > 2 * n + 64 {
            self.cand = (0..n as VertexId)
                .filter(|&v| !self.is_member(v))
                .map(|v| rank_key(self.cb[v as usize], v))
                .collect();
        }
        if self.members.len() > 2 * self.top.len() + 64 {
            self.members = self
                .top
                .iter()
                .map(|&v| member_key(self.cb[v as usize], v))
                .collect();
        }
    }

    fn promote(&mut self, v: VertexId) {
        debug_assert!(!self.is_member(v));
        self.top_pos[v as usize] = self.top.len() as u32;
        self.top.push(v);
        self.members.push(member_key(self.cb[v as usize], v));
    }

    /// Removes member `v` from `top` and hands it back to the outsiders.
    fn demote(&mut self, v: VertexId) {
        let i = self.top_pos[v as usize] as usize;
        self.top.swap_remove(i);
        if let Some(&moved) = self.top.get(i) {
            self.top_pos[moved as usize] = i as u32;
        }
        self.top_pos[v as usize] = OUTSIDER;
        self.cand.push(rank_key(self.cb[v as usize], v));
    }

    /// Discards dead outsider entries until the top one is live, and
    /// returns it without popping.
    fn peek_live_best(&mut self) -> Option<(f64, VertexId)> {
        while let Some(&(OrdF64(val), Reverse(v))) = self.cand.peek() {
            if self.is_member(v) || val.to_bits() != self.cb[v as usize].to_bits() {
                self.cand.pop();
            } else {
                return Some((val, v));
            }
        }
        None
    }

    /// Discards dead member entries until the top one is live, and
    /// returns the weakest member without popping.
    fn peek_live_weakest(&mut self) -> Option<(f64, VertexId)> {
        while let Some(&Reverse((OrdF64(val), Reverse(v)))) = self.members.peek() {
            if !self.is_member(v) || val.to_bits() != self.cb[v as usize].to_bits() {
                self.members.pop();
            } else {
                return Some((val, v));
            }
        }
        None
    }

    /// Restores the boundary invariant: swap while the best live outsider
    /// outranks the weakest member.
    fn recertify(&mut self) {
        if self.fault == Some(LocalFault::SkipRecertify) {
            return;
        }
        while let Some((bval, bv)) = self.peek_live_best() {
            match self.peek_live_weakest() {
                Some((wval, wv)) if rank_key(bval, bv) > rank_key(wval, wv) => {
                    self.cand.pop();
                    self.members.pop();
                    self.demote(wv);
                    self.promote(bv);
                }
                _ => break,
            }
        }
    }

    /// Exhaustively re-derives every map entry from the current graph and
    /// asserts the maintained state matches it, with every `CB` bit for bit
    /// `EgoKernel`'s score, then checks the top-k boundary invariant. Test
    /// helper — O(n · d³); call only on small graphs.
    pub fn validate(&self) {
        let mut kernel = EgoKernel::new();
        for w in 0..self.g.n() as VertexId {
            let nbrs = self.g.sorted_neighbors(w);
            let mut entries = 0usize;
            for (i, &x) in nbrs.iter().enumerate() {
                for &y in nbrs.iter().skip(i + 1) {
                    let stored = self.store.map(w).get(x, y);
                    if self.g.has_edge(x, y) {
                        assert_eq!(stored, Some(0), "S_{w}({x},{y}) should be an edge entry");
                        entries += 1;
                        continue;
                    }
                    let c = nbrs
                        .iter()
                        .filter(|&&z| {
                            z != x && z != y && self.g.has_edge(z, x) && self.g.has_edge(z, y)
                        })
                        .count() as u32;
                    if c == 0 {
                        assert_eq!(stored, None, "S_{w}({x},{y}) should be absent");
                    } else {
                        assert_eq!(stored, Some(c), "S_{w}({x},{y}) connector count");
                        entries += 1;
                    }
                }
            }
            assert_eq!(
                self.store.map(w).len(),
                entries,
                "S_{w} holds exactly the live pairs"
            );
            let want = kernel.score(&self.g, w);
            assert_eq!(
                self.cb[w as usize].to_bits(),
                want.to_bits(),
                "CB({w}) = {} but the kernel scores {want}",
                self.cb[w as usize]
            );
        }
        // Boundary invariant.
        assert_eq!(self.top.len(), self.k.min(self.g.n()), "top set size");
        for (i, &v) in self.top.iter().enumerate() {
            assert_eq!(self.top_pos[v as usize], i as u32, "position of member {v}");
        }
        assert_eq!(
            self.top_pos.iter().filter(|&&i| i != OUTSIDER).count(),
            self.top.len(),
            "only members have a position"
        );
        let rank = |v: VertexId| rank_key(self.cb[v as usize], v);
        if let Some(weakest) = self.top.iter().map(|&v| rank(v)).min() {
            for v in 0..self.g.n() as VertexId {
                if !self.is_member(v) {
                    assert!(
                        rank(v) < weakest,
                        "outsider {v} ({}) outranks weakest member {} ({})",
                        self.cb[v as usize],
                        weakest.1 .0,
                        weakest.0 .0
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egobtw_core::naive::{compute_all_naive, ego_betweenness_of};
    use egobtw_core::registry::topk_from_scores;
    use egobtw_gen::{classic, gnp, toy};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every maintained score is the kernel's, bit for bit.
    fn assert_matches_naive(idx: &LocalIndex) {
        let g = idx.graph();
        for v in 0..g.n() as VertexId {
            let expect = ego_betweenness_of(g, v);
            assert_eq!(
                idx.cb(v).to_bits(),
                expect.to_bits(),
                "CB({v}) = {} expected {expect}",
                idx.cb(v)
            );
        }
    }

    /// The maintained top-k is the one a full sort of the true scores
    /// gives, ties toward the smaller id.
    fn assert_topk_correct(idx: &LocalIndex) {
        let g = idx.graph();
        let truth: Vec<f64> = (0..g.n() as VertexId)
            .map(|v| ego_betweenness_of(g, v))
            .collect();
        assert_eq!(
            idx.top_k(),
            topk_from_scores(&truth, idx.k()),
            "k={}",
            idx.k()
        );
    }

    /// Blind flips over `n` vertices: inserts and deletes of random pairs,
    /// self-loops included as no-ops.
    fn flip(idx: &mut LocalIndex, rng: &mut StdRng) {
        let n = idx.graph().n() as VertexId;
        let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
        if idx.graph().has_edge(u, v) {
            idx.delete_edge(u, v);
        } else {
            idx.insert_edge(u, v);
        }
    }

    #[test]
    fn initial_values_match_naive() {
        // Bit for bit `compute_all_naive`. In `complete(8)` every ego is a
        // clique, whose kernel score is an empty sum: its sign of zero
        // must match too. Isolated and degree-1 vertices score `+0.0`.
        let mut with_isolated: Vec<(VertexId, VertexId)> = gnp(20, 0.3, 9).edges().collect();
        with_isolated.push((20, 21));
        let graphs = [
            classic::karate_club(),
            classic::complete(8),
            classic::star(10),
            CsrGraph::from_edges(25, &with_isolated),
            gnp(60, 0.15, 3),
            egobtw_gen::rmat(9, 4, egobtw_gen::rmat::RmatParams::skewed(), 2),
        ];
        for g in &graphs {
            let idx = LocalIndex::new(g, 5);
            let want: Vec<u64> = compute_all_naive(g).iter().map(|x| x.to_bits()).collect();
            let got: Vec<u64> = idx.all_cb().iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "n = {}", g.n());
            assert_topk_correct(&idx);
            idx.validate();
        }
    }

    #[test]
    fn paper_example5_insert_ik() {
        let g = toy::paper_graph();
        let mut idx = LocalIndex::new(&g, 3);
        assert!(idx.insert_edge(toy::ids::I, toy::ids::K));
        for (v, expect) in toy::example5_after_insert() {
            assert!(
                (idx.cb(v) - expect).abs() < 1e-9,
                "CB({}) = {} expected {expect}",
                toy::label(v),
                idx.cb(v)
            );
        }
        idx.validate();
        assert_matches_naive(&idx);
    }

    #[test]
    fn paper_example6_delete_cg_corrected() {
        // Corrected values (paper's own Example 6 contradicts Lemmas 6–7;
        // see `egobtw_gen::toy`): CB(c)=14/3, CB(g)=1/2, CB(e)=13/2.
        let g = toy::paper_graph();
        let mut idx = LocalIndex::new(&g, 3);
        assert!(idx.delete_edge(toy::ids::C, toy::ids::G));
        for (v, expect) in toy::example6_after_delete() {
            assert!(
                (idx.cb(v) - expect).abs() < 1e-9,
                "CB({}) = {} expected {expect}",
                toy::label(v),
                idx.cb(v)
            );
        }
        idx.validate();
        assert_matches_naive(&idx);
    }

    #[test]
    fn paper_example7_insert_flips_top1() {
        // Inserting (i,k) makes i the new top-1 (10.5 > 9.5).
        let g = toy::paper_graph();
        let mut idx = LocalIndex::new(&g, 1);
        assert_eq!(idx.top_k()[0].0, toy::ids::F);
        idx.insert_edge(toy::ids::I, toy::ids::K);
        let top = idx.top_k();
        assert_eq!(top[0].0, toy::ids::I);
        assert!((top[0].1 - 10.5).abs() < 1e-9);
        idx.validate();
    }

    #[test]
    fn insert_then_delete_is_identity() {
        let g = classic::karate_club();
        let before = LocalIndex::new(&g, 4);
        let mut idx = LocalIndex::new(&g, 4);
        assert!(idx.insert_edge(3, 9));
        assert!(idx.delete_edge(3, 9));
        for v in 0..g.n() as VertexId {
            assert_eq!(
                idx.cb(v).to_bits(),
                before.cb(v).to_bits(),
                "vertex {v} not restored"
            );
        }
        idx.validate();
        assert_topk_correct(&idx);
    }

    #[test]
    fn noop_on_duplicate_or_missing() {
        let mut idx = LocalIndex::new(&classic::path(4), 2);
        assert!(!idx.insert_edge(0, 1), "edge already present");
        assert!(!idx.insert_edge(2, 2), "self-loop");
        assert!(!idx.delete_edge(0, 2), "edge absent");
        assert!(!idx.delete_edge(3, 3), "self-loop delete");
        idx.validate();
    }

    #[test]
    fn randomized_update_stream_stays_exact() {
        let mut rng = StdRng::seed_from_u64(2024);
        for k in [1usize, 5, 24] {
            let mut idx = LocalIndex::new(&gnp(24, 0.18, 3), k);
            for step in 0..160 {
                flip(&mut idx, &mut rng);
                if step % 20 == 0 {
                    idx.validate();
                }
                assert_matches_naive(&idx);
                assert_topk_correct(&idx);
            }
            idx.validate();
        }
    }

    #[test]
    fn grow_from_empty_matches() {
        // Insert the whole toy graph edge by edge into an empty index.
        let mut idx = LocalIndex::new(&egobtw_graph::CsrGraph::from_edges(16, &[]), 3);
        for &(a, b) in toy::EDGES.iter() {
            idx.insert_edge(a, b);
        }
        for (v, expect) in toy::expected_cb() {
            assert!(
                (idx.cb(v) - expect).abs() < 1e-9,
                "CB({}) after incremental build",
                toy::label(v)
            );
        }
        idx.validate();
        assert_topk_correct(&idx);
    }

    #[test]
    fn shrink_to_empty() {
        let g = classic::barbell(4);
        let mut idx = LocalIndex::new(&g, 3);
        let edges: Vec<_> = g.edges().collect();
        for (a, b) in edges {
            idx.delete_edge(a, b);
            assert_matches_naive(&idx);
            assert_topk_correct(&idx);
        }
        for v in 0..g.n() as VertexId {
            assert_eq!(idx.cb(v), 0.0);
        }
        idx.validate();
    }

    #[test]
    fn add_vertex_and_wire_up() {
        let mut idx = LocalIndex::new(&classic::star(4), 2);
        let v = idx.add_vertex();
        assert_eq!(v, 4);
        idx.insert_edge(0, v);
        idx.insert_edge(1, v);
        assert_matches_naive(&idx);
        idx.validate();
        assert_topk_correct(&idx);
    }

    #[test]
    fn top_k_tracks_updates() {
        // The O(k log k) read-off must report exactly the k largest
        // maintained scores — the values a full sort of `all_cb` gives.
        let mut rng = StdRng::seed_from_u64(77);
        for k in [1usize, 3, 10, 40] {
            let mut idx = LocalIndex::new(&gnp(30, 0.2, 4), k);
            for _ in 0..120 {
                flip(&mut idx, &mut rng);
                let mut sorted = idx.all_cb().to_vec();
                sorted.sort_by(|a, b| b.total_cmp(a));
                sorted.truncate(k);
                let got: Vec<u64> = idx.top_k().iter().map(|e| e.1.to_bits()).collect();
                let want: Vec<u64> = sorted.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "k={k}");
            }
        }
    }

    #[test]
    fn k_zero_and_k_exceeding_n() {
        let g = classic::path(5);
        let mut idx = LocalIndex::new(&g, 0);
        idx.insert_edge(0, 4);
        assert!(idx.top_k().is_empty());
        idx.validate();
        let mut idx = LocalIndex::new(&g, 50);
        idx.insert_edge(0, 4);
        assert_eq!(idx.top_k().len(), 5);
        idx.validate();
        assert_topk_correct(&idx);
    }

    #[test]
    fn ties_evict_the_larger_id() {
        // A 6-leaf star plus isolated vertex 7; at k = 3 the members are
        // the center and leaves 1 and 2, the last two tied at 0.
        let edges: Vec<(VertexId, VertexId)> = (1..=6).map(|v| (0, v)).collect();
        let mut idx = LocalIndex::new(&CsrGraph::from_edges(8, &edges), 3);
        let ids = |idx: &LocalIndex| idx.top_k().iter().map(|&(v, _)| v).collect::<Vec<_>>();
        assert_eq!(ids(&idx), [0, 1, 2]);
        // Leaf 5 gains the open pair {0, 7} and beats both tied members:
        // the larger id, 2, leaves.
        idx.insert_edge(5, 7);
        idx.validate();
        assert_eq!(ids(&idx), [0, 5, 1]);
        // Leaves 5 and 6 and vertex 7 now tie at 1 for two seats: among
        // tied outsiders the smaller id is promoted, so the members are
        // the ones a fresh index on this graph picks.
        idx.insert_edge(6, 7);
        idx.validate();
        assert_eq!(ids(&idx), [0, 5, 6]);
        assert_topk_correct(&idx);
        // Member 6 drops to 0, tied with outsider 1: the smaller id swaps
        // in.
        idx.delete_edge(6, 7);
        idx.validate();
        assert_eq!(ids(&idx), [0, 5, 1]);
    }

    #[test]
    fn k_never_touches_scores() {
        // The top-k bookkeeping only reads `cb`: indices at k = 0, 1 and n
        // fed the same stream hold bit-identical scores and equal graphs
        // after every op.
        let n = 30;
        let g0 = gnp(n, 0.2, 21);
        let mut idx: Vec<LocalIndex> = [0, 1, n].iter().map(|&k| LocalIndex::new(&g0, k)).collect();
        let mut rng = StdRng::seed_from_u64(21);
        for step in 0..300 {
            let (u, v) = (
                rng.random_range(0..n as VertexId),
                rng.random_range(0..n as VertexId),
            );
            let insert = rng.random_bool(0.5);
            for i in idx.iter_mut() {
                if insert {
                    i.insert_edge(u, v);
                } else {
                    i.delete_edge(u, v);
                }
            }
            let bits = |i: &LocalIndex| i.all_cb().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for i in &idx[1..] {
                assert_eq!(
                    bits(i),
                    bits(&idx[0]),
                    "step {step}: scores differ at k={}",
                    i.k()
                );
                assert!(i.graph().to_csr() == idx[0].graph().to_csr(), "step {step}");
            }
        }
    }

    #[test]
    fn planted_faults_actually_corrupt() {
        // Each fault must produce an observable divergence on a small
        // scripted stream — otherwise the conformance mutants are vacuous.
        let g = toy::paper_graph();
        let diverged = |a: &LocalIndex, b: &LocalIndex| {
            (0..g.n() as VertexId).any(|v| (a.cb(v) - b.cb(v)).abs() > 1e-9)
        };

        // StalePairOnDelete: deleting (c,g) leaves connector counts
        // inflated in the common-neighbor egos.
        let mut bad = LocalIndex::with_fault(&g, 3, LocalFault::StalePairOnDelete);
        let mut good = LocalIndex::new(&g, 3);
        bad.delete_edge(toy::ids::C, toy::ids::G);
        good.delete_edge(toy::ids::C, toy::ids::G);
        assert!(diverged(&bad, &good), "StalePairOnDelete is not observable");

        // MissEgo: the skipped common-neighbor ego keeps its old CB.
        let mut bad = LocalIndex::with_fault(&g, 3, LocalFault::MissEgo);
        let mut good = LocalIndex::new(&g, 3);
        bad.insert_edge(toy::ids::I, toy::ids::K);
        good.insert_edge(toy::ids::I, toy::ids::K);
        assert!(diverged(&bad, &good), "MissEgo is not observable");

        // SkipRecertify: Example 7's top-1 flip never happens.
        let mut bad = LocalIndex::with_fault(&g, 1, LocalFault::SkipRecertify);
        bad.insert_edge(toy::ids::I, toy::ids::K);
        assert_eq!(
            bad.top_k()[0].0,
            toy::ids::F,
            "SkipRecertify should freeze membership"
        );

        // A faulty index keeps running without panicking: the stale
        // entries it leaves behind are skipped, not asserted on.
        for fault in [LocalFault::StalePairOnDelete, LocalFault::MissEgo] {
            let mut rng = StdRng::seed_from_u64(8);
            let mut bad = LocalIndex::with_fault(&gnp(20, 0.3, 8), 4, fault);
            for _ in 0..400 {
                flip(&mut bad, &mut rng);
            }
        }
    }

    #[test]
    fn candidate_heap_stays_bounded() {
        // Every touched vertex pushes an entry on its side's heap, and a
        // stale entry behind the live top is never popped; a long stream
        // must grow neither heap without bound.
        let n = 40;
        let mut idx = LocalIndex::new(&gnp(n, 0.2, 5), 3);
        let mut rng = StdRng::seed_from_u64(5);
        let (mut peak, mut peak_members) = (0, 0);
        for _ in 0..4_000 {
            flip(&mut idx, &mut rng);
            peak = peak.max(idx.cand.len());
            peak_members = peak_members.max(idx.members.len());
        }
        idx.validate();
        assert!(peak <= 2 * n + 64, "candidate heap reached {peak} entries");
        assert!(
            peak_members <= 2 * 3 + 64,
            "member heap reached {peak_members} entries"
        );
    }

    #[test]
    fn scratch_buffers_actually_reused() {
        let g = classic::karate_club();
        let mut idx = LocalIndex::new(&g, 4);
        idx.insert_edge(3, 9);
        let cap = idx.scratch.common.capacity();
        assert!(cap > 0, "scratch must retain capacity");
        idx.delete_edge(3, 9);
        assert!(
            idx.scratch.common.capacity() >= cap,
            "scratch capacity must survive ops"
        );
    }
}
