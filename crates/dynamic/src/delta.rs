//! `DeltaIndex`: true incremental maintenance via dependency deltas.
//!
//! The third maintainer combines the other two's strengths: like
//! [`LocalIndex`](crate::LocalIndex) it keeps the full per-ego pair-term
//! store (`S_w`, the `PairMap` invariant) and every `CB` as a running
//! total, so updates are exact; like [`LazyTopK`](crate::LazyTopK) it
//! keeps the top-k *set* materialized, so publishing an answer is
//! `O(k log k)` instead of the `O(n log n)` full sort `LocalIndex::top_k`
//! pays on every call.
//!
//! Per edge flip `(u,v)` the affected egos are exactly
//! `{u, v} ∪ (N(u) ∩ N(v))` (Observation 1), and inside each affected ego
//! only pair terms involving `u` or `v` change (plus, in the endpoint
//! egos, the pairs of common neighbors that gain/lose `u`/`v` as a
//! connector). `DeltaIndex` patches exactly those terms — O(affected
//! pairs) — and then *re-certifies* the top-k boundary lazily: touched
//! egos are pushed into a max-heap of candidate outsiders, stale heap
//! entries (value no longer current, or vertex already a member) are
//! discarded on pop, and members are swapped out only while the best live
//! outsider strictly beats the weakest member.
//!
//! The patching deliberately does **not** reuse `LocalIndex`'s Lemma 4–7
//! helper decomposition: terms for new pairs are *recounted directly*
//! from the post-flip adjacency (`c = |{z ∈ N(u)∩N(v) : z ∼ x}|`) rather
//! than accumulated connector-by-connector. Two independently derived
//! delta paths that must agree bit-for-bit on the same stream is the
//! point — the conformance harness diffs them against each other and
//! against the definitional reference on every scenario.
//!
//! Invariants (checked exhaustively by [`DeltaIndex::validate`]):
//!
//! * **map/CB**: the `S_w` entry invariant of the static engine holds for
//!   every ego, and `CB[w]` equals the sum of its pair contributions;
//! * **boundary**: no non-member's `CB` strictly exceeds the weakest
//!   member's (`total_cmp`), and `|top| = min(k, n)`;
//! * **heap coverage**: every outsider whose `CB` changed since its last
//!   heap entry has a fresh entry — guaranteed because every touched ego
//!   is re-queued before re-certification.

use egobtw_core::smap::SMapStore;
use egobtw_core::topk::OrdF64;
use egobtw_graph::{CsrGraph, DynGraph, VertexId};
use std::collections::BinaryHeap;

/// Contribution of a pair to its ego's `CB`, given the stored term
/// (`None` = non-adjacent, zero connectors).
#[inline]
fn contrib(val: Option<u32>) -> f64 {
    match val {
        None => 1.0,
        Some(0) => 0.0,
        Some(c) => 1.0 / (f64::from(c) + 1.0),
    }
}

/// Deliberate defect classes planted inside the delta path, for
/// mutation-testing the conformance net (`stress --mutate delta-*`).
/// Test-only: a faulty index is built via [`DeltaIndex::with_fault`] and
/// must be caught by the harness, proving the net actually covers the
/// delta-specific failure modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaFault {
    /// On delete, skip removing `u`/`v` as connectors of pairs inside the
    /// common-neighbor egos — the classic stale-pair-term bug: `CB` of
    /// those egos ends up too low (connector counts stay inflated).
    StalePairOnDelete,
    /// Skip the last common-neighbor ego when enumerating the affected
    /// set — an off-by-one in the `N(u) ∩ N(v)` walk. That ego's terms
    /// and `CB` silently rot.
    MissEgo,
    /// Never re-certify the top-k boundary after scores move — membership
    /// freezes at the initial top-k even when an outsider overtakes it.
    SkipRecertify,
}

/// Work counters for the delta path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Pair terms patched (set, bumped, added, or removed).
    pub patched_pairs: usize,
    /// Stale candidate-heap entries discarded during re-certification.
    pub discards: usize,
    /// Membership swaps in the top-k set.
    pub swaps: usize,
}

/// Scratch buffers reused across updates (capacity survives, contents
/// do not).
#[derive(Default)]
struct Scratch {
    common: Vec<VertexId>,
    xs: Vec<VertexId>,
    nbrs: Vec<VertexId>,
}

/// Exact dynamic index with an incrementally maintained top-k set.
pub struct DeltaIndex {
    g: DynGraph,
    store: SMapStore,
    cb: Vec<f64>,
    k: usize,
    in_top: Vec<bool>,
    /// Current top-k members, unordered (sorted only on read-out).
    top: Vec<VertexId>,
    /// Lazy max-heap over outsiders: entries `(cb-at-push, v)`; an entry
    /// is live iff `v` is an outsider and the value still matches `cb[v]`.
    cand: BinaryHeap<(OrdF64, VertexId)>,
    scratch: Scratch,
    fault: Option<DeltaFault>,
    /// Work counters.
    pub stats: DeltaStats,
}

impl DeltaIndex {
    /// Builds the index from a static graph: the shared edge-centric pass
    /// (`build_store`) populates the maps (deterministic finalize, so
    /// starting values are bit-identical to a fresh `LocalIndex`, and
    /// equal `compute_all`'s kernel scores up to float summation order),
    /// then the top-k set is read off directly.
    pub fn new(g: &CsrGraph, k: usize) -> Self {
        Self::build(g, k, None)
    }

    /// [`DeltaIndex::new`] with a planted defect. Mutation-testing only.
    pub fn with_fault(g: &CsrGraph, k: usize, fault: DeltaFault) -> Self {
        Self::build(g, k, Some(fault))
    }

    fn build(g: &CsrGraph, k: usize, fault: Option<DeltaFault>) -> Self {
        let store = egobtw_core::compute_all::build_store(g);
        let cb: Vec<f64> = (0..g.n() as VertexId)
            .map(|v| store.map(v).cb_given_degree_det(g.degree(v)))
            .collect();
        let n = g.n();
        let mut order: Vec<VertexId> = (0..n as VertexId).collect();
        order.sort_by(|&a, &b| cb[b as usize].total_cmp(&cb[a as usize]).then(a.cmp(&b)));
        let top: Vec<VertexId> = order.iter().copied().take(k).collect();
        let mut in_top = vec![false; n];
        for &v in &top {
            in_top[v as usize] = true;
        }
        let mut cand = BinaryHeap::with_capacity(n.saturating_sub(k));
        if k > 0 {
            for v in 0..n as VertexId {
                if !in_top[v as usize] {
                    cand.push((OrdF64(cb[v as usize]), v));
                }
            }
        }
        DeltaIndex {
            g: DynGraph::from_csr(g),
            store,
            cb,
            k,
            in_top,
            top,
            cand,
            scratch: Scratch::default(),
            fault,
            stats: DeltaStats::default(),
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
    /// `&self` and `O(k log k)` — membership is kept current by the
    /// re-certification step of every update, so reading it costs only
    /// the sort of `k` entries.
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
        self.in_top.push(false);
        if self.top.len() < self.k {
            self.promote(v);
        } else {
            self.requeue(v);
        }
        v
    }

    // ---- contribution-tracked term patches ----

    /// Overwrites the term of an *existing* pair `(x,y)` of ego `w`.
    fn set_term(&mut self, w: VertexId, x: VertexId, y: VertexId, new: Option<u32>) {
        let m = self.store.map_mut(w);
        let old = m.get(x, y);
        if old == new {
            return;
        }
        match new {
            None => {
                m.remove(x, y);
            }
            Some(c) => m.set_raw(x, y, c),
        }
        self.cb[w as usize] += contrib(new) - contrib(old);
        self.stats.patched_pairs += 1;
    }

    /// Adds (`up`) or removes one connector on the non-edge pair `(x,y)`
    /// of ego `w`.
    fn bump_term(&mut self, w: VertexId, x: VertexId, y: VertexId, up: bool) {
        let m = self.store.map_mut(w);
        let old = m.get(x, y);
        let new = if up {
            match old {
                None => 1,
                Some(c) => {
                    debug_assert!(
                        self.fault.is_some() || c > 0,
                        "connector added to an edge pair"
                    );
                    c + 1
                }
            }
        } else {
            match old {
                Some(c) if c > 0 => c - 1,
                _ => {
                    debug_assert!(self.fault.is_some(), "removing absent connector");
                    return;
                }
            }
        };
        if new == 0 {
            m.remove(x, y);
        } else {
            m.set_raw(x, y, new);
        }
        let new_opt = if new == 0 { None } else { Some(new) };
        self.cb[w as usize] += contrib(new_opt) - contrib(old);
        self.stats.patched_pairs += 1;
    }

    /// A brand-new pair `(x,y)` appears in ego `w` with term `val`.
    fn pair_add(&mut self, w: VertexId, x: VertexId, y: VertexId, val: Option<u32>) {
        if let Some(c) = val {
            self.store.map_mut(w).set_raw(x, y, c);
        }
        self.cb[w as usize] += contrib(val);
        self.stats.patched_pairs += 1;
    }

    /// Pair `(x,y)` disappears from ego `w` (a neighbor left).
    fn pair_remove(&mut self, w: VertexId, x: VertexId, y: VertexId) {
        let old = self.store.map_mut(w).remove(x, y);
        self.cb[w as usize] -= contrib(old);
        self.stats.patched_pairs += 1;
    }

    /// The slice of common-neighbor egos actually processed (the planted
    /// `MissEgo` fault drops the last one).
    fn upto(&self, common: &[VertexId]) -> usize {
        if matches!(self.fault, Some(DeltaFault::MissEgo)) {
            common.len().saturating_sub(1)
        } else {
            common.len()
        }
    }

    /// Inserts edge `(u,v)`, patching exactly the affected pair terms and
    /// re-certifying the top-k. Returns `false` (no-op) if the edge
    /// already exists or `u == v`.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || self.g.has_edge(u, v) {
            return false;
        }
        let mut common = std::mem::take(&mut self.scratch.common);
        self.g.common_neighbors_into(u, v, &mut common);
        common.sort_unstable();
        // Flip first: every count below reads the NEW adjacency (the
        // guards keep the endpoints themselves out of connector counts,
        // and N(u)∩N(v) is unchanged by the flip).
        self.g.insert_edge(u, v);

        for &w in &common[..self.upto(&common)] {
            // (u,v) becomes an edge inside GE(w).
            self.set_term(w, u, v, Some(0));
            // v is a new connector for pairs (u,x), x ∈ N(w) ∩ N(v).
            let mut xs = std::mem::take(&mut self.scratch.xs);
            self.g.common_neighbors_into(w, v, &mut xs);
            for &x in &xs {
                if x != u && !self.g.has_edge(x, u) {
                    self.bump_term(w, u, x, true);
                }
            }
            // u is a new connector for pairs (v,x), x ∈ N(w) ∩ N(u).
            self.g.common_neighbors_into(w, u, &mut xs);
            for &x in &xs {
                if x != v && !self.g.has_edge(x, v) {
                    self.bump_term(w, v, x, true);
                }
            }
            self.scratch.xs = xs;
        }

        self.endpoint_attach(u, v, &common);
        self.endpoint_attach(v, u, &common);

        self.requeue(u);
        self.requeue(v);
        for &w in &common {
            self.requeue(w);
        }
        self.scratch.common = common;
        self.recertify();
        true
    }

    /// Ego `u` gains neighbor `nv`; `common = N(u) ∩ N(nv)` (sorted). The
    /// adjacency flip has already happened.
    fn endpoint_attach(&mut self, u: VertexId, nv: VertexId, common: &[VertexId]) {
        let mut nbrs = std::mem::take(&mut self.scratch.nbrs);
        self.g.sorted_neighbors_into(u, &mut nbrs);
        for &x in &nbrs {
            if x == nv {
                continue;
            }
            // Direct recount: connectors of (nv,x) inside N(u) are exactly
            // the z ∈ N(u) ∩ N(nv) adjacent to x.
            let val = if self.g.has_edge(nv, x) {
                Some(0)
            } else {
                let c = common
                    .iter()
                    .filter(|&&z| z != x && self.g.has_edge(z, x))
                    .count() as u32;
                if c == 0 {
                    None
                } else {
                    Some(c)
                }
            };
            self.pair_add(u, nv, x, val);
        }
        // nv becomes a connector for existing non-adjacent pairs of common
        // neighbors.
        for (i, &p) in common.iter().enumerate() {
            for &q in common.iter().skip(i + 1) {
                if !self.g.has_edge(p, q) {
                    self.bump_term(u, p, q, true);
                }
            }
        }
        self.scratch.nbrs = nbrs;
    }

    /// Deletes edge `(u,v)`, patching exactly the affected pair terms and
    /// re-certifying the top-k. Returns `false` (no-op) if the edge does
    /// not exist.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if !self.g.has_edge(u, v) {
            return false;
        }
        let mut common = std::mem::take(&mut self.scratch.common);
        self.g.common_neighbors_into(u, v, &mut common);
        common.sort_unstable();
        self.g.remove_edge(u, v);

        let skip_pair_terms = matches!(self.fault, Some(DeltaFault::StalePairOnDelete));
        for &w in &common[..self.upto(&common)] {
            // (u,v) stops being an edge inside GE(w); recount its term
            // directly: connectors are the common neighbors adjacent to w.
            let c = common
                .iter()
                .filter(|&&z| z != w && self.g.has_edge(z, w))
                .count() as u32;
            self.set_term(w, u, v, if c == 0 { None } else { Some(c) });
            if skip_pair_terms {
                continue;
            }
            // v stops connecting pairs (u,x), x ∈ N(w) ∩ N(v).
            let mut xs = std::mem::take(&mut self.scratch.xs);
            self.g.common_neighbors_into(w, v, &mut xs);
            for &x in &xs {
                if x != u && !self.g.has_edge(x, u) {
                    self.bump_term(w, u, x, false);
                }
            }
            // u stops connecting pairs (v,x), x ∈ N(w) ∩ N(u).
            self.g.common_neighbors_into(w, u, &mut xs);
            for &x in &xs {
                if x != v && !self.g.has_edge(x, v) {
                    self.bump_term(w, v, x, false);
                }
            }
            self.scratch.xs = xs;
        }

        self.endpoint_detach(u, v, &common);
        self.endpoint_detach(v, u, &common);

        self.requeue(u);
        self.requeue(v);
        for &w in &common {
            self.requeue(w);
        }
        self.scratch.common = common;
        self.recertify();
        true
    }

    /// Ego `u` loses neighbor `nv`; `common = N(u) ∩ N(nv)` (sorted). The
    /// adjacency flip has already happened.
    fn endpoint_detach(&mut self, u: VertexId, nv: VertexId, common: &[VertexId]) {
        let mut nbrs = std::mem::take(&mut self.scratch.nbrs);
        self.g.sorted_neighbors_into(u, &mut nbrs); // excludes nv already
        for &x in &nbrs {
            self.pair_remove(u, nv, x);
        }
        for (i, &p) in common.iter().enumerate() {
            for &q in common.iter().skip(i + 1) {
                if !self.g.has_edge(p, q) {
                    self.bump_term(u, p, q, false);
                }
            }
        }
        self.scratch.nbrs = nbrs;
    }

    // ---- lazy top-k re-certification ----

    /// Pushes a fresh candidate entry for a touched outsider. Members need
    /// nothing: the weakest-member scan reads `cb` directly.
    fn requeue(&mut self, v: VertexId) {
        if self.k > 0 && !self.in_top[v as usize] {
            self.cand.push((OrdF64(self.cb[v as usize]), v));
        }
    }

    fn promote(&mut self, v: VertexId) {
        debug_assert!(!self.in_top[v as usize]);
        self.in_top[v as usize] = true;
        self.top.push(v);
    }

    /// Index and id of the weakest member (ties resolved toward evicting
    /// the larger id, so smaller ids stay — the repo-wide tie convention).
    fn weakest_member(&self) -> Option<(usize, VertexId)> {
        self.top
            .iter()
            .enumerate()
            .map(|(i, &v)| (i, v))
            .min_by(|a, b| {
                self.cb[a.1 as usize]
                    .total_cmp(&self.cb[b.1 as usize])
                    .then(b.1.cmp(&a.1))
            })
    }

    /// Discards dead heap entries until the top one is live, and returns
    /// it without popping.
    fn peek_live_best(&mut self) -> Option<(f64, VertexId)> {
        while let Some(&(OrdF64(val), v)) = self.cand.peek() {
            if self.in_top[v as usize] || val != self.cb[v as usize] {
                self.cand.pop();
                self.stats.discards += 1;
            } else {
                return Some((val, v));
            }
        }
        None
    }

    /// Restores the boundary invariant: fill to capacity, then swap while
    /// the best live outsider strictly beats the weakest member.
    fn recertify(&mut self) {
        if matches!(self.fault, Some(DeltaFault::SkipRecertify)) {
            return;
        }
        while self.top.len() < self.k {
            let Some((_, v)) = self.peek_live_best() else {
                break;
            };
            self.cand.pop();
            self.promote(v);
        }
        while let Some((wi, wv)) = self.weakest_member() {
            let wval = self.cb[wv as usize];
            let Some((bval, bv)) = self.peek_live_best() else {
                break;
            };
            if bval > wval {
                self.cand.pop();
                self.top.swap_remove(wi);
                self.in_top[wv as usize] = false;
                self.cand.push((OrdF64(wval), wv));
                self.promote(bv);
                self.stats.swaps += 1;
            } else {
                break;
            }
        }
    }

    /// Exhaustively re-derives every map entry and `CB` from the current
    /// graph and asserts the maintained state matches, then checks the
    /// top-k boundary invariant. Test helper — O(n · d³); call only on
    /// small graphs.
    pub fn validate(&self) {
        for w in 0..self.g.n() as VertexId {
            let nbrs = self.g.sorted_neighbors(w);
            let mut expect_cb = 0.0;
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
                    expect_cb += contrib(if c == 0 { None } else { Some(c) });
                }
            }
            assert_eq!(
                self.store.map(w).len(),
                entries,
                "S_{w} holds exactly the live pairs"
            );
            assert!(
                (self.cb[w as usize] - expect_cb).abs() < 1e-9,
                "CB({w}) drifted: {} vs {expect_cb}",
                self.cb[w as usize]
            );
        }
        // Boundary invariant.
        assert_eq!(self.top.len(), self.k.min(self.g.n()), "top set size");
        if let Some((_, wv)) = self.weakest_member() {
            let min_top = self.cb[wv as usize];
            for v in 0..self.g.n() as VertexId {
                if !self.in_top[v as usize] {
                    assert!(
                        self.cb[v as usize] <= min_top,
                        "outsider {v} ({}) beats weakest member {wv} ({min_top})",
                        self.cb[v as usize]
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalIndex;
    use egobtw_core::naive::ego_betweenness_of;
    use egobtw_gen::{classic, gnp, toy};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_matches_naive(idx: &DeltaIndex) {
        let g = idx.graph();
        for v in 0..g.n() as VertexId {
            let expect = ego_betweenness_of(g, v);
            assert!(
                (idx.cb(v) - expect).abs() < 1e-9,
                "CB({v}) = {} expected {expect}",
                idx.cb(v)
            );
        }
    }

    /// The maintained top-k value multiset must equal the true one.
    fn assert_topk_correct(idx: &DeltaIndex) {
        let g = idx.graph();
        let mut truth: Vec<f64> = (0..g.n() as VertexId)
            .map(|v| ego_betweenness_of(g, v))
            .collect();
        truth.sort_by(|a, b| b.total_cmp(a));
        let got = idx.top_k();
        assert_eq!(got.len(), idx.k().min(g.n()));
        for (rank, &(v, cb)) in got.iter().enumerate() {
            let direct = ego_betweenness_of(g, v);
            assert!((cb - direct).abs() < 1e-9, "reported value for {v} stale");
            assert!(
                (cb - truth[rank]).abs() < 1e-9,
                "rank {rank}: {cb} vs oracle {}",
                truth[rank]
            );
        }
    }

    #[test]
    fn initial_values_match_naive_and_local() {
        let g = classic::karate_club();
        let idx = DeltaIndex::new(&g, 5);
        assert_matches_naive(&idx);
        idx.validate();
        // Bit-identical start: same build path as LocalIndex.
        let local = LocalIndex::new(&g);
        for v in 0..g.n() as VertexId {
            assert_eq!(idx.cb(v), local.cb(v), "init not bit-identical at {v}");
        }
    }

    #[test]
    fn paper_example5_insert_ik() {
        let g = toy::paper_graph();
        let mut idx = DeltaIndex::new(&g, 3);
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
        let g = toy::paper_graph();
        let mut idx = DeltaIndex::new(&g, 3);
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
        let g = toy::paper_graph();
        let mut idx = DeltaIndex::new(&g, 1);
        assert_eq!(idx.top_k()[0].0, toy::ids::F);
        idx.insert_edge(toy::ids::I, toy::ids::K);
        let top = idx.top_k();
        assert_eq!(top[0].0, toy::ids::I);
        assert!((top[0].1 - 10.5).abs() < 1e-9);
        assert!(idx.stats.swaps >= 1, "the flip must be a recorded swap");
    }

    #[test]
    fn insert_then_delete_is_identity() {
        let g = classic::karate_club();
        let before = DeltaIndex::new(&g, 4);
        let mut idx = DeltaIndex::new(&g, 4);
        assert!(idx.insert_edge(3, 9));
        assert!(idx.delete_edge(3, 9));
        for v in 0..g.n() as VertexId {
            assert!(
                (idx.cb(v) - before.cb(v)).abs() < 1e-9,
                "vertex {v} not restored"
            );
        }
        idx.validate();
        assert_topk_correct(&idx);
    }

    #[test]
    fn noop_on_duplicate_missing_or_self_loop() {
        let mut idx = DeltaIndex::new(&classic::path(4), 2);
        assert!(!idx.insert_edge(0, 1), "edge already present");
        assert!(!idx.insert_edge(2, 2), "self-loop");
        assert!(!idx.delete_edge(0, 2), "edge absent");
        assert!(!idx.delete_edge(3, 3), "self-loop delete");
        idx.validate();
    }

    #[test]
    fn randomized_stream_stays_exact_and_certified() {
        let mut rng = StdRng::seed_from_u64(2024);
        for k in [1usize, 5, 24] {
            let g0 = gnp(24, 0.18, 3);
            let mut idx = DeltaIndex::new(&g0, k);
            for step in 0..160 {
                let u = rng.random_range(0..24u32);
                let v = rng.random_range(0..24u32);
                if u == v {
                    continue;
                }
                if idx.graph().has_edge(u, v) {
                    idx.delete_edge(u, v);
                } else {
                    idx.insert_edge(u, v);
                }
                if step % 20 == 0 {
                    idx.validate();
                }
                assert_topk_correct(&idx);
            }
            idx.validate();
        }
    }

    #[test]
    fn stream_against_local_index_bitwise() {
        // The two exact maintainers run structurally different patch
        // enumerations; on the same stream their running totals must
        // still agree to the last bit achievable (1e-9 relative is the
        // repo-wide contract; in practice the sums are identical).
        let mut rng = StdRng::seed_from_u64(5);
        let g0 = gnp(40, 0.15, 8);
        let mut delta = DeltaIndex::new(&g0, 6);
        let mut local = LocalIndex::new(&g0);
        for _ in 0..200 {
            let u = rng.random_range(0..40u32);
            let v = rng.random_range(0..40u32);
            if u == v {
                continue;
            }
            if delta.graph().has_edge(u, v) {
                delta.delete_edge(u, v);
                local.delete_edge(u, v);
            } else {
                delta.insert_edge(u, v);
                local.insert_edge(u, v);
            }
            for w in 0..40u32 {
                assert!(
                    (delta.cb(w) - local.cb(w)).abs() < 1e-9,
                    "maintainers disagree at {w}: {} vs {}",
                    delta.cb(w),
                    local.cb(w)
                );
            }
        }
    }

    #[test]
    fn grow_from_empty_matches() {
        let mut idx = DeltaIndex::new(&egobtw_graph::CsrGraph::from_edges(16, &[]), 3);
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
        let mut idx = DeltaIndex::new(&g, 3);
        let edges: Vec<_> = g.edges().collect();
        for (a, b) in edges {
            idx.delete_edge(a, b);
            assert_topk_correct(&idx);
        }
        for v in 0..g.n() as VertexId {
            assert_eq!(idx.cb(v), 0.0);
        }
        idx.validate();
    }

    #[test]
    fn add_vertex_and_wire_up() {
        let mut idx = DeltaIndex::new(&classic::star(4), 2);
        let v = idx.add_vertex();
        assert_eq!(v, 4);
        idx.insert_edge(0, v);
        idx.insert_edge(1, v);
        assert_matches_naive(&idx);
        idx.validate();
        assert_topk_correct(&idx);
    }

    #[test]
    fn k_zero_and_k_exceeding_n() {
        let g = classic::path(5);
        let mut idx = DeltaIndex::new(&g, 0);
        idx.insert_edge(0, 4);
        assert!(idx.top_k().is_empty());
        idx.validate();
        let mut idx = DeltaIndex::new(&g, 50);
        idx.insert_edge(0, 4);
        assert_eq!(idx.top_k().len(), 5);
        idx.validate();
        assert_topk_correct(&idx);
    }

    #[test]
    fn planted_faults_actually_corrupt() {
        // Each fault must produce an observable divergence on a small
        // scripted stream — otherwise the conformance mutants are vacuous.
        let g = toy::paper_graph();

        // StalePairOnDelete: deleting (c,g) leaves connector counts
        // inflated in the common-neighbor egos.
        let mut bad = DeltaIndex::with_fault(&g, 3, DeltaFault::StalePairOnDelete);
        let mut good = DeltaIndex::new(&g, 3);
        bad.delete_edge(toy::ids::C, toy::ids::G);
        good.delete_edge(toy::ids::C, toy::ids::G);
        let diverged = (0..g.n() as VertexId).any(|v| (bad.cb(v) - good.cb(v)).abs() > 1e-9);
        assert!(diverged, "StalePairOnDelete is not observable");

        // MissEgo: the skipped common-neighbor ego keeps its old CB.
        let mut bad = DeltaIndex::with_fault(&g, 3, DeltaFault::MissEgo);
        let mut good = DeltaIndex::new(&g, 3);
        bad.insert_edge(toy::ids::I, toy::ids::K);
        good.insert_edge(toy::ids::I, toy::ids::K);
        let diverged = (0..g.n() as VertexId).any(|v| (bad.cb(v) - good.cb(v)).abs() > 1e-9);
        assert!(diverged, "MissEgo is not observable");

        // SkipRecertify: Example 7's top-1 flip never happens.
        let mut bad = DeltaIndex::with_fault(&g, 1, DeltaFault::SkipRecertify);
        bad.insert_edge(toy::ids::I, toy::ids::K);
        assert_eq!(
            bad.top_k()[0].0,
            toy::ids::F,
            "SkipRecertify should freeze membership"
        );
    }

    #[test]
    fn scratch_buffers_actually_reused() {
        let g = classic::karate_club();
        let mut idx = DeltaIndex::new(&g, 4);
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
