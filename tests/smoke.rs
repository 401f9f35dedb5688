//! Cross-crate smoke tests for the umbrella crate: one per member-crate
//! entry point, all agreeing on Zachary's karate club. These run under
//! tier-1 (`cargo test`) and catch wiring mistakes between the crates that
//! per-crate unit tests cannot see.

use egobtw::prelude::*;

const K: usize = 5;

/// Karate club plus its exact per-vertex ego-betweenness from the naive
/// per-ego oracle, which every other algorithm must reproduce.
fn karate_with_oracle() -> (egobtw::graph::CsrGraph, Vec<f64>) {
    let g = egobtw::gen::classic::karate_club();
    let oracle = compute_all_naive(&g);
    (g, oracle)
}

/// Sorts an all-vertex score vector into a top-k list, breaking score ties
/// by vertex id so comparisons are deterministic.
fn topk_of(scores: &[f64], k: usize) -> Vec<(u32, f64)> {
    let mut ranked: Vec<(u32, f64)> = scores
        .iter()
        .enumerate()
        .map(|(v, &s)| (v as u32, s))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked
}

/// Exact agreement, for the deterministic engines: the same score at
/// every rank and the same vertex set (order may differ only within exact
/// ties, which `topk_of` and these engines both break by id).
fn assert_same_topk(label: &str, got: &[(u32, f64)], want: &[(u32, f64)]) {
    assert_same_scores(label, got, want);
    let mut gv: Vec<u32> = got.iter().map(|e| e.0).collect();
    let mut wv: Vec<u32> = want.iter().map(|e| e.0).collect();
    gv.sort_unstable();
    wv.sort_unstable();
    assert_eq!(gv, wv, "{label}: different top-{} vertex sets", want.len());
}

/// Tie-aware agreement, for OptBSearch, whose pick among vertices tied
/// exactly at the k-th score may change from run to run (docs/TESTING.md):
/// the same score at every rank, from distinct vertices each scoring its
/// oracle value, so only members of a boundary tie can differ.
fn assert_tie_aware_topk(label: &str, got: &[(u32, f64)], want: &[(u32, f64)], oracle: &[f64]) {
    assert_same_scores(label, got, want);
    let mut gv: Vec<u32> = got.iter().map(|e| e.0).collect();
    gv.sort_unstable();
    gv.dedup();
    assert_eq!(gv.len(), got.len(), "{label}: a vertex returned twice");
    for &(v, s) in got {
        assert!(
            (s - oracle[v as usize]).abs() < 1e-9,
            "{label}: vertex {v} scored {s}, oracle {}",
            oracle[v as usize]
        );
    }
}

fn assert_same_scores(label: &str, got: &[(u32, f64)], want: &[(u32, f64)]) {
    assert_eq!(got.len(), want.len(), "{label}: wrong k");
    for (i, ((gv, gs), (wv, ws))) in got.iter().zip(want).enumerate() {
        assert!(
            (gs - ws).abs() < 1e-9,
            "{label}: rank {i} score {gs} != {ws} (vertices {gv}/{wv})"
        );
    }
}

#[test]
fn core_searches_agree_with_naive_on_karate() {
    let (g, oracle) = karate_with_oracle();
    let want = topk_of(&oracle, K);

    let base = base_bsearch(&g, K);
    assert_same_topk("base_bsearch", &base.entries, &want);

    let opt = opt_bsearch(&g, K, OptParams::default());
    assert_tie_aware_topk("opt_bsearch", &opt.entries, &want, &oracle);

    let (all, _) = compute_all(&g);
    assert_same_topk("compute_all", &topk_of(&all, K), &want);
}

#[test]
fn parallel_pebw_agrees_with_naive_on_karate() {
    let (g, oracle) = karate_with_oracle();
    for threads in [1, 4] {
        for (name, scores) in [
            ("vertex_pebw", vertex_pebw(&g, threads)),
            ("edge_pebw", edge_pebw(&g, threads)),
        ] {
            for (v, (got, want)) in scores.iter().zip(&oracle).enumerate() {
                assert!(
                    (got - want).abs() < 1e-9,
                    "{name} t={threads} vertex {v}: {got} != {want}"
                );
            }
        }
    }
}

#[test]
fn dynamic_indices_match_static_recompute_on_karate() {
    let (g, oracle) = karate_with_oracle();
    let want = topk_of(&oracle, K);

    // Exact local index straight after construction.
    let local = LocalIndex::new(&g);
    assert_same_topk("LocalIndex::top_k", &local.top_k(K), &want);

    // Lazy index after a round-trip edge update must match the oracle.
    let mut lazy = LazyTopK::new(&g, K);
    assert!(lazy.insert_edge(0, 9), "edge (0,9) should be insertable");
    assert!(lazy.delete_edge(0, 9), "edge (0,9) should be deletable");
    assert_same_topk("LazyTopK::top_k", &lazy.top_k(), &want);
}

#[test]
fn baseline_and_graph_substrate_smoke() {
    let g = egobtw::gen::classic::karate_club();
    assert_eq!((g.n(), g.m()), (34, 78), "karate club shape");

    // Brandes sequential and parallel agree; vertex 0 (the instructor) is
    // in the top betweenness set of the club.
    let bc = betweenness(&g);
    let bc_par = betweenness_parallel(&g, 4);
    for (a, b) in bc.iter().zip(&bc_par) {
        assert!((a - b).abs() < 1e-9);
    }
    let top = top_bw(&g, K, 2);
    assert!(
        top.iter().any(|e| e.0 == 0),
        "instructor missing from TopBW"
    );

    // Overlap metric wiring: identical lists overlap fully.
    let ids: Vec<u32> = top.iter().map(|e| e.0).collect();
    assert!((overlap_fraction(&ids, &ids) - 1.0).abs() < 1e-12);
}

#[test]
fn gen_crate_generators_feed_the_searches() {
    // Each generator family produces a graph the searches accept.
    let graphs = [
        ("gnm", egobtw::gen::gnm(80, 160, 1)),
        ("ba", egobtw::gen::barabasi_albert(80, 3, 2)),
        ("ws", egobtw::gen::watts_strogatz(80, 4, 0.1, 3)),
        (
            "rmat",
            egobtw::gen::rmat(6, 4, egobtw::gen::rmat::RmatParams::skewed(), 4),
        ),
    ];
    for (name, g) in graphs {
        let oracle = compute_all_naive(&g);
        let naive = topk_of(&oracle, 3);
        let opt = opt_bsearch(&g, 3, OptParams::default());
        assert_tie_aware_topk(name, &opt.entries, &naive, &oracle);
    }
}
