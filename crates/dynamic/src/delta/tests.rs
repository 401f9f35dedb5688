use crate::{replay_graph, EdgeOp, LocalIndex};
use egobtw_core::compute_all;
use egobtw_core::naive::ego_betweenness_of;
use egobtw_core::registry::topk_from_scores;
use egobtw_gen::{classic, gnp, toy};
use egobtw_graph::{CsrGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every maintained score bit for bit against `compute_all` on the
/// index's current graph, and the certified top-k against a full sort of
/// those scores (equal ids, so equal bits too).
fn assert_exact(idx: &LocalIndex) {
    let (truth, _) = compute_all(&idx.graph().to_csr());
    for (v, &want) in truth.iter().enumerate() {
        let got = idx.cb(v as VertexId);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "CB({v}) = {got} vs compute_all {want}"
        );
    }
    assert_eq!(
        idx.top_k(),
        topk_from_scores(&truth, idx.k()),
        "k={}",
        idx.k()
    );
}

/// One seeded blind op over `n` vertices: self-loops, duplicate inserts and
/// absent deletes stay in the mix, as they reach the daemon's writer.
fn random_op(n: usize, rng: &mut StdRng) -> EdgeOp {
    let (u, v) = (
        rng.random_range(0..n as VertexId),
        rng.random_range(0..n as VertexId),
    );
    if rng.random_bool(0.5) {
        EdgeOp::Insert(u, v)
    } else {
        EdgeOp::Delete(u, v)
    }
}

#[test]
fn initial_values_match_naive_and_local() {
    // The build agrees with the naive per-ego count and with the all-egos
    // kernel, and certifies its top-k from the start.
    let g = classic::karate_club();
    let idx = LocalIndex::new(&g, 5);
    for v in 0..g.n() as VertexId {
        let expect = ego_betweenness_of(&g, v);
        assert_eq!(
            idx.cb(v).to_bits(),
            expect.to_bits(),
            "CB({v}) vs naive {expect}"
        );
    }
    assert_exact(&idx);
    idx.validate();
}

#[test]
fn paper_example5_insert_ik() {
    let mut idx = LocalIndex::new(&toy::paper_graph(), 3);
    assert!(idx.apply(EdgeOp::Insert(toy::ids::I, toy::ids::K)));
    for (v, expect) in toy::example5_after_insert() {
        assert!(
            (idx.cb(v) - expect).abs() < 1e-9,
            "CB({}) = {} expected {expect}",
            toy::label(v),
            idx.cb(v)
        );
    }
    idx.validate();
    assert_exact(&idx);
}

#[test]
fn paper_example6_delete_cg_corrected() {
    // Corrected values: the paper's own Example 6 contradicts Lemmas 6–7
    // (see `egobtw_gen::toy`).
    let mut idx = LocalIndex::new(&toy::paper_graph(), 3);
    assert!(idx.apply(EdgeOp::Delete(toy::ids::C, toy::ids::G)));
    for (v, expect) in toy::example6_after_delete() {
        assert!(
            (idx.cb(v) - expect).abs() < 1e-9,
            "CB({}) = {} expected {expect}",
            toy::label(v),
            idx.cb(v)
        );
    }
    idx.validate();
    assert_exact(&idx);
}

#[test]
fn insert_then_delete_is_identity() {
    // A flip and its undo restore every score and the top-k answer.
    let g = classic::barbell(5);
    let before = LocalIndex::new(&g, 3);
    let mut idx = LocalIndex::new(&g, 3);
    assert!(idx.apply(EdgeOp::Insert(0, 9)));
    assert!(idx.apply(EdgeOp::Delete(0, 9)));
    let bits = |i: &LocalIndex| i.all_cb().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&idx), bits(&before), "scores not restored");
    assert_eq!(idx.top_k(), before.top_k(), "top-k not restored");
    idx.validate();
    assert_exact(&idx);
}

#[test]
fn noop_on_duplicate_missing_or_self_loop() {
    // Ops that do not apply change neither the graph nor a single bit of
    // the scores or the answer.
    let g = classic::path(4);
    let mut idx = LocalIndex::new(&g, 2);
    let bits = |i: &LocalIndex| i.all_cb().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (cb0, top0) = (bits(&idx), idx.top_k());
    assert!(!idx.apply(EdgeOp::Insert(0, 1)), "edge already present");
    assert!(!idx.apply(EdgeOp::Insert(2, 2)), "self-loop");
    assert!(!idx.apply(EdgeOp::Delete(0, 2)), "edge absent");
    assert!(!idx.apply(EdgeOp::Delete(3, 3)), "self-loop delete");
    assert!(idx.graph().to_csr() == g);
    assert_eq!(bits(&idx), cb0);
    assert_eq!(idx.top_k(), top0);
    idx.validate();
}

#[test]
fn randomized_stream_stays_exact_and_certified() {
    let mut rng = StdRng::seed_from_u64(2024);
    for k in [1usize, 5, 24] {
        let mut idx = LocalIndex::new(&gnp(24, 0.18, 3), k);
        for step in 0..160 {
            idx.apply(random_op(24, &mut rng));
            if step % 20 == 0 {
                idx.validate();
            }
            assert_exact(&idx);
        }
        idx.validate();
    }
}

#[test]
fn stream_against_local_index_bitwise() {
    // The daemon recovers a `delta:K` dataset by building a fresh index on
    // a checkpointed graph and replaying the rest of the log. That index
    // and one that ran the whole stream agree bit for bit after every op,
    // and the streamed one ends bit-identical to a one-shot `replay`.
    let mut rng = StdRng::seed_from_u64(5);
    let g0 = gnp(40, 0.15, 8);
    let ops: Vec<EdgeOp> = (0..200).map(|_| random_op(40, &mut rng)).collect();
    let (head, tail) = ops.split_at(100);
    let mut streamed = LocalIndex::new(&g0, 6);
    for &op in head {
        streamed.apply(op);
    }
    let mut recovered = LocalIndex::new(&replay_graph(&g0, head).to_csr(), 6);
    for &op in tail {
        assert_eq!(streamed.apply(op), recovered.apply(op));
        for w in 0..40u32 {
            assert_eq!(
                streamed.cb(w).to_bits(),
                recovered.cb(w).to_bits(),
                "indices disagree at {w}: {} vs {}",
                streamed.cb(w),
                recovered.cb(w)
            );
        }
        assert_eq!(streamed.top_k(), recovered.top_k());
    }
    assert_exact(&recovered);
    let replayed = LocalIndex::replay(&g0, 6, &ops);
    let bits = |i: &LocalIndex| i.all_cb().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&streamed), bits(&replayed));
    assert_eq!(streamed.top_k(), replayed.top_k());
}

#[test]
fn grow_from_empty_matches() {
    // The toy graph streamed edge by edge into an empty index.
    let ops: Vec<EdgeOp> = toy::EDGES
        .iter()
        .map(|&(a, b)| EdgeOp::Insert(a, b))
        .collect();
    let idx = LocalIndex::replay(&CsrGraph::from_edges(16, &[]), 3, &ops);
    for (v, expect) in toy::expected_cb() {
        assert!(
            (idx.cb(v) - expect).abs() < 1e-9,
            "CB({}) after incremental build",
            toy::label(v)
        );
    }
    idx.validate();
    assert_exact(&idx);
}

#[test]
fn shrink_to_empty() {
    let g = classic::barbell(4);
    let mut idx = LocalIndex::new(&g, 3);
    let edges: Vec<_> = g.edges().collect();
    for (a, b) in edges {
        assert!(idx.apply(EdgeOp::Delete(a, b)));
        assert_exact(&idx);
    }
    for v in 0..g.n() as VertexId {
        assert_eq!(idx.cb(v), 0.0);
    }
    idx.validate();
}

#[test]
fn add_vertex_and_wire_up() {
    // A vertex added after the build is scored and ranked once wired up.
    let mut idx = LocalIndex::new(&classic::star(4), 1);
    let v = idx.add_vertex();
    assert_eq!(v, 4);
    idx.apply(EdgeOp::Insert(1, v));
    idx.apply(EdgeOp::Insert(2, v));
    idx.apply(EdgeOp::Insert(3, v));
    idx.validate();
    assert_exact(&idx);
}
