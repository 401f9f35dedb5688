//! `CsrGraph::with_rows` against a from-scratch build: after every batch
//! of edge flips, patching the touched rows of the previous graph must
//! give exactly the graph `from_edges_with` builds from the updated edge
//! list under the same hub policy — adjacency, offsets, hub threshold,
//! hub count and every hub row — on hub-heavy, hub-free and all-hub
//! graphs, including threshold crossings in both directions, rows
//! emptied to degree 0, and thresholds the memory budget sets above the
//! policy floor. A patch must also share every untouched hub row with
//! its parent, across a threshold crossing too, and leave the parent as
//! it was.

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

#[test]
fn untouched_hub_rows_are_shared() {
    let cfg = HybridConfig::new();
    let g = egobtw_gen::rmat(9, 4, RmatParams::skewed(), 7);
    let t = g.hub_threshold().expect("needs hubs");
    // The largest hub and a non-hub two degrees short of the threshold,
    // so flipping the pair between them moves neither across it.
    let hub = g.vertices().max_by_key(|&u| g.degree(u)).unwrap();
    let other = g
        .vertices()
        .find(|&u| g.degree(u) + 2 <= t && u != hub)
        .expect("a non-hub");
    assert!(g.degree(hub) > t, "the hub keeps its row after a delete");
    // A deep copy of the parent: its hub rows are rebuilt, not shared.
    let before = g.with_hybrid_config(&cfg);
    let mut f = Flipper::new(g, cfg);
    let parent = f.g.clone();
    f.flip(&[(hub, other)], "one hub and one non-hub");
    let child = &f.g;
    assert_eq!(child.hub_threshold(), parent.hub_threshold());
    assert_eq!(child.hub_count(), parent.hub_count());
    for u in parent.vertices().filter(|&u| u != hub) {
        if let Some(row) = parent.hub_bitmap(u) {
            let shared = child.hub_bitmap(u).expect("hub set holds");
            assert_eq!(row.as_ptr(), shared.as_ptr(), "hub {u}'s row is shared");
        }
    }
    let fresh_row = child.hub_bitmap(hub).expect("hub keeps its row");
    assert_ne!(fresh_row.as_ptr(), parent.hub_bitmap(hub).unwrap().as_ptr());
    assert_ne!(Some(fresh_row), parent.hub_bitmap(hub), "new bits");
    assert!(parent == before, "the parent is unchanged");
    assert_eq!(parent.validate(), Ok(()));
}

/// Asserts that every hub of `parent` outside `touched` that is still a
/// hub of `child` shares its row allocation with `parent`.
fn assert_untouched_rows_shared(
    parent: &CsrGraph,
    child: &CsrGraph,
    pairs: &[(VertexId, VertexId)],
    ctx: &str,
) {
    let touched: BTreeSet<VertexId> = pairs.iter().flat_map(|&(u, v)| [u, v]).collect();
    let mut shared = 0;
    for u in parent.vertices().filter(|u| !touched.contains(u)) {
        if let (Some(row), Some(kept)) = (parent.hub_bitmap(u), child.hub_bitmap(u)) {
            assert_eq!(
                row.as_ptr(),
                kept.as_ptr(),
                "{ctx}: hub {u}'s row is shared"
            );
            shared += 1;
        }
    }
    assert!(shared > 0, "{ctx}: no untouched hub row to share");
}

#[test]
fn crossing_shares_untouched_hub_rows() {
    let cfg = HybridConfig::new();
    for seed in 0..3u64 {
        let g = egobtw_gen::rmat(9, 4, RmatParams::skewed(), seed);
        let t = g.hub_threshold().expect("needs hubs");
        let mut f = Flipper::new(g, cfg);
        // The smallest hub crosses the threshold downwards, then back up;
        // each patch re-decides the hub set and must match a fresh build
        // (`flip` checks) while sharing every row it did not touch.
        let u =
            f.g.vertices()
                .filter(|&u| f.is_hub(u))
                .min_by_key(|&u| f.g.degree(u))
                .unwrap();
        let down = drop_edges(&f, u, f.g.degree(u) + 1 - t);
        for (pairs, is_hub, dir) in [(&down, false, "down"), (&down, true, "up")] {
            let parent = f.g.clone();
            let ctx = format!("seed {seed}: hub {u} crosses {dir}");
            f.flip(pairs, &ctx);
            assert_eq!(f.is_hub(u), is_hub, "{ctx}");
            assert_eq!(f.g.hub_threshold(), parent.hub_threshold(), "{ctx}");
            assert_untouched_rows_shared(&parent, &f.g, pairs, &ctx);
        }
    }
}

#[test]
fn budget_bound_threshold_matches_fresh_build() {
    // One bitmap word per edge: on this graph the budget sets the
    // threshold above a floor of 4. Under a floor of 9 the threshold
    // starts at the floor, and growing hubs must lift it off.
    for floor in [4, 9] {
        let cfg = HybridConfig {
            enabled: true,
            min_hub_degree: floor,
            budget_words_per_edge: 1,
        };
        let g = egobtw_gen::rmat(10, 4, RmatParams::skewed(), 3).with_hybrid_config(&cfg);
        let n = g.n();
        let mut f = Flipper::new(g, cfg);
        let mut rng = StdRng::seed_from_u64(0xB0D6 ^ floor as u64);
        let mut thresholds = vec![f.g.hub_threshold().expect("needs hubs")];
        for batch in 0..60 {
            // Grow hubs-to-be, empty the largest vertex, and delete edges
            // between non-hubs, so `m` and the threshold move both ways.
            // The last kind crosses no threshold and shrinks only the
            // budget: the hub set must still be re-decided.
            let t = *thresholds.last().unwrap();
            let pairs = match batch % 6 {
                0..=2 => {
                    let near: Vec<VertexId> =
                        f.g.vertices().filter(|&u| f.g.degree(u) + 3 >= t).collect();
                    random_pairs(&mut rng, n, &near, 48)
                }
                3 => {
                    let top = f.g.vertices().max_by_key(|&u| f.g.degree(u)).unwrap();
                    drop_edges(&f, top, usize::MAX)
                }
                _ => {
                    f.g.edges()
                        .filter(|&(u, v)| !f.is_hub(u) && !f.is_hub(v))
                        .take(48)
                        .collect()
                }
            };
            f.flip(&pairs, &format!("floor {floor} batch {batch}"));
            thresholds.extend(f.g.hub_threshold());
        }
        let ctx = format!("floor {floor}: {thresholds:?}");
        assert_eq!(thresholds.len(), 61, "{ctx}");
        assert!(thresholds.iter().any(|&t| t > floor), "{ctx}");
        let rose = thresholds.windows(2).any(|w| w[1] > w[0]);
        let fell = thresholds.windows(2).any(|w| w[1] < w[0]);
        assert!(rose && fell, "threshold moved both ways: {ctx}");
        if floor == 9 {
            let lifted = thresholds.windows(2).any(|w| w[0] == floor && w[1] > floor);
            assert!(lifted, "a patch lifted the threshold off the floor: {ctx}");
        }
    }
}
