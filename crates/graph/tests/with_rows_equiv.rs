//! `CsrGraph::with_rows` against a from-scratch build: after every batch
//! of edge flips, patching the touched rows of the previous graph must
//! give exactly the graph `from_edges_with` builds from the updated edge
//! list under the same hub policy — adjacency, offsets, hub threshold,
//! hub count and every hub row — on hub-heavy, hub-free and all-hub
//! graphs, including threshold crossings in both directions and rows
//! emptied to degree 0.

use egobtw_gen::rmat::RmatParams;
use egobtw_graph::{CsrGraph, HybridConfig, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A graph under edge flips: the patched CSR plus an independent mirror
/// of its adjacency.
struct Flipper {
    g: CsrGraph,
    adj: Vec<BTreeSet<VertexId>>,
    cfg: HybridConfig,
}

impl Flipper {
    fn new(g: CsrGraph, cfg: HybridConfig) -> Flipper {
        let adj = g
            .vertices()
            .map(|u| g.neighbors(u).iter().copied().collect())
            .collect();
        Flipper { g, adj, cfg }
    }

    /// Flips every pair in order (insert if absent, delete if present),
    /// patches the endpoints' rows, and checks the result against a
    /// fresh build.
    fn flip(&mut self, pairs: &[(VertexId, VertexId)], ctx: &str) {
        let mut touched = BTreeSet::new();
        for &(u, v) in pairs {
            assert_ne!(u, v, "{ctx}: test generated a self-loop");
            if self.adj[u as usize].remove(&v) {
                self.adj[v as usize].remove(&u);
            } else {
                self.adj[u as usize].insert(v);
                self.adj[v as usize].insert(u);
            }
            touched.extend([u, v]);
        }
        let lists: Vec<(VertexId, Vec<VertexId>)> = touched
            .iter()
            .map(|&u| (u, self.adj[u as usize].iter().copied().collect()))
            .collect();
        let rows: Vec<(VertexId, &[VertexId])> =
            lists.iter().map(|(u, l)| (*u, l.as_slice())).collect();
        let patched = self.g.with_rows(&rows);
        let edges: Vec<(VertexId, VertexId)> = self
            .adj
            .iter()
            .enumerate()
            .flat_map(|(u, ns)| ns.iter().map(move |&v| (u as VertexId, v)))
            .filter(|&(u, v)| u < v)
            .collect();
        let fresh = CsrGraph::from_edges_with(self.g.n(), &edges, &self.cfg);
        assert_same(&patched, &fresh, ctx);
        self.g = patched;
    }

    fn is_hub(&self, u: VertexId) -> bool {
        self.g.hub_bitmap(u).is_some()
    }
}

fn assert_same(patched: &CsrGraph, fresh: &CsrGraph, ctx: &str) {
    assert_eq!(patched.validate(), Ok(()), "{ctx}: invariants");
    assert_eq!((patched.n(), patched.m()), (fresh.n(), fresh.m()), "{ctx}");
    assert_eq!(patched.hub_threshold(), fresh.hub_threshold(), "{ctx}");
    assert_eq!(patched.hub_count(), fresh.hub_count(), "{ctx}");
    for u in fresh.vertices() {
        assert_eq!(patched.neighbors(u), fresh.neighbors(u), "{ctx}: N({u})");
        assert_eq!(
            patched.hub_bitmap(u),
            fresh.hub_bitmap(u),
            "{ctx}: hub row of {u}"
        );
    }
    assert!(patched == fresh, "{ctx}: graphs differ");
}

/// `len` random pairs; about half start at a vertex of `focus`.
fn random_pairs(
    rng: &mut StdRng,
    n: usize,
    focus: &[VertexId],
    len: usize,
) -> Vec<(VertexId, VertexId)> {
    let mut pairs = Vec::with_capacity(len);
    while pairs.len() < len {
        let u = if !focus.is_empty() && rng.random_bool(0.5) {
            focus[rng.random_range(0..focus.len())]
        } else {
            rng.random_range(0..n as VertexId)
        };
        let v = rng.random_range(0..n as VertexId);
        if u != v {
            pairs.push((u, v));
        }
    }
    pairs
}

/// Pairs that flip away `count` of `u`'s current edges.
fn drop_edges(f: &Flipper, u: VertexId, count: usize) -> Vec<(VertexId, VertexId)> {
    f.g.neighbors(u)
        .iter()
        .take(count)
        .map(|&v| (u, v))
        .collect()
}

#[test]
fn empty_rows_copy_the_graph() {
    for g in [
        egobtw_gen::rmat(9, 4, RmatParams::skewed(), 1),
        egobtw_gen::gnp(50, 0.1, 2),
        CsrGraph::from_edges(0, &[]),
    ] {
        assert!(g.with_rows(&[]) == g);
    }
}

#[test]
fn hub_heavy_rmat_matches_fresh_build() {
    let cfg = HybridConfig::new();
    for seed in 0..3u64 {
        let g = egobtw_gen::rmat(9, 4, RmatParams::skewed(), seed);
        assert!(g.hub_count() > 0, "seed {seed}: needs hubs");
        let n = g.n();
        let mut f = Flipper::new(g, cfg);
        let mut rng = StdRng::seed_from_u64(0x5EED ^ seed);
        // Batches that rewrite hub rows without changing the hub set take
        // the copy-and-patch path; make sure some did.
        let mut patched_hub_rows = 0usize;
        for batch in 0..40 {
            let hubs: Vec<VertexId> = f.g.vertices().filter(|&u| f.is_hub(u)).collect();
            let len = rng.random_range(1..9usize);
            let pairs = random_pairs(&mut rng, n, &hubs, len);
            let before = (f.g.hub_threshold(), hubs.clone());
            f.flip(&pairs, &format!("seed {seed} batch {batch}"));
            let after: Vec<VertexId> = f.g.vertices().filter(|&u| f.is_hub(u)).collect();
            if before == (f.g.hub_threshold(), after)
                && pairs.iter().any(|&(u, v)| f.is_hub(u) || f.is_hub(v))
            {
                patched_hub_rows += 1;
            }
        }
        assert!(
            patched_hub_rows > 0,
            "seed {seed}: no batch patched a hub row"
        );

        // The smallest hub crosses the threshold downwards, then back up.
        let t = f.g.hub_threshold().expect("hubs remain");
        let u =
            f.g.vertices()
                .filter(|&u| f.is_hub(u))
                .min_by_key(|&u| f.g.degree(u))
                .unwrap();
        let down = drop_edges(&f, u, f.g.degree(u) + 1 - t);
        f.flip(&down, &format!("seed {seed}: hub {u} crosses down"));
        assert!(!f.is_hub(u), "seed {seed}: {u} lost its row");
        f.flip(&down, &format!("seed {seed}: {u} crosses back up"));
        assert!(f.is_hub(u), "seed {seed}: {u} regained its row");

        // The largest hub is emptied to degree 0.
        let top = f.g.vertices().max_by_key(|&u| f.g.degree(u)).unwrap();
        let all = drop_edges(&f, top, usize::MAX);
        f.flip(&all, &format!("seed {seed}: hub {top} emptied"));
        assert_eq!(f.g.degree(top), 0);

        // The first and last vertex together, and each alone.
        let last = (n - 1) as VertexId;
        f.flip(
            &[(0, last), (0, 7), (last, 11)],
            &format!("seed {seed}: vertices 0 and n-1"),
        );
    }
}

#[test]
fn hub_free_gnp_matches_fresh_build() {
    let cfg = HybridConfig::new();
    for seed in 0..3u64 {
        let g = egobtw_gen::gnp(300, 0.02, seed);
        assert_eq!(g.hub_count(), 0, "seed {seed}: must be hub-free");
        let n = g.n();
        let mut f = Flipper::new(g, cfg);
        let mut rng = StdRng::seed_from_u64(0xF1F0 ^ seed);
        for batch in 0..30 {
            let len = rng.random_range(1..9usize);
            let pairs = random_pairs(&mut rng, n, &[], len);
            f.flip(&pairs, &format!("gnp seed {seed} batch {batch}"));
            assert_eq!(f.g.hub_count(), 0);
        }
        let last = (n - 1) as VertexId;
        f.flip(
            &[(0, last)],
            &format!("gnp seed {seed}: vertices 0 and n-1"),
        );
        let u = f.g.vertices().max_by_key(|&u| f.g.degree(u)).unwrap();
        let all = drop_edges(&f, u, usize::MAX);
        f.flip(&all, &format!("gnp seed {seed}: {u} emptied"));
        assert_eq!(f.g.degree(u), 0);
    }
}

#[test]
fn dense_policy_survives_patching() {
    let cfg = HybridConfig::dense();
    for seed in 0..3u64 {
        let g = egobtw_gen::gnp(64, 0.1, seed).with_hybrid_config(&cfg);
        let n = g.n();
        let mut f = Flipper::new(g, cfg);
        let mut rng = StdRng::seed_from_u64(0xDE05 ^ seed);
        let every_live_vertex_is_a_hub = |f: &Flipper| {
            let live = f.g.vertices().filter(|&u| f.g.degree(u) > 0).count();
            assert_eq!(
                f.g.hub_count(),
                live,
                "dense rows for every non-isolated vertex"
            );
        };
        every_live_vertex_is_a_hub(&f);
        for batch in 0..30 {
            let len = rng.random_range(1..9usize);
            let pairs = random_pairs(&mut rng, n, &[], len);
            f.flip(&pairs, &format!("dense seed {seed} batch {batch}"));
            every_live_vertex_is_a_hub(&f);
        }
        // Emptying a row crosses the threshold (1) downwards; refilling
        // it crosses back up.
        let u = (n - 1) as VertexId;
        let all = drop_edges(&f, u, usize::MAX);
        f.flip(&all, &format!("dense seed {seed}: {u} emptied"));
        assert!(!f.is_hub(u));
        every_live_vertex_is_a_hub(&f);
        f.flip(&[(u, 0)], &format!("dense seed {seed}: {u} refilled"));
        assert!(f.is_hub(u) && f.is_hub(0));
        every_live_vertex_is_a_hub(&f);
    }
}
