//! Rebuild-equivalence property tests for `LocalIndex`.
//!
//! The contract: after **every prefix** of a seeded `EdgeOp` stream, the
//! incrementally maintained `LocalIndex` agrees with `compute_all` run
//! *from scratch* on the replayed graph — per-vertex scores bit for bit,
//! and the maintained top-k (ids and bits) equal to a full sort of those
//! scores with ties toward the smaller id. The truth comes from the
//! static engine, not from a fresh index, so a bug shared by the index's
//! own build path (`build_store`, `PairMap::cb`) cannot cancel out.
//! Streams come from the conformance scenario
//! generator, so all 8 `gen` families are exercised, and every stream is
//! extended with a scripted tail covering the delete-reinsert,
//! duplicate-edge, and self-loop edge cases.

use conformance::{scenario, Case, FAMILIES};
use egobtw_core::compute_all;
use egobtw_core::registry::topk_from_scores;
use egobtw_dynamic::{EdgeOp, LocalIndex};
use egobtw_graph::{DynGraph, VertexId};

/// The scripted edge-case tail: a delete-reinsert cycle on (0,1), a
/// duplicate insert, and self-loop ops — all well-defined no-ops or flips
/// regardless of the stream's final state.
fn edge_case_tail() -> Vec<EdgeOp> {
    vec![
        EdgeOp::Insert(0, 1), // may or may not apply
        EdgeOp::Insert(0, 1), // duplicate: must be a no-op
        EdgeOp::Delete(0, 1), // delete...
        EdgeOp::Insert(0, 1), // ...reinsert
        EdgeOp::Insert(0, 0), // self-loop: rejected
        EdgeOp::Delete(1, 1), // self-loop delete: rejected
    ]
}

/// One case: replay the stream op by op; after each prefix compare the
/// maintained index against a from-scratch rebuild.
fn check_case_prefixes(case: &Case) {
    let g0 = case.initial();
    let mut ops = case.ops.clone();
    if case.n >= 2 {
        ops.extend(edge_case_tail());
    }
    let mut local = LocalIndex::new(&g0, case.k);
    let mut mirror = DynGraph::from_csr(&g0);
    for (step, &op) in ops.iter().enumerate() {
        let changed = local.apply(op);
        let mirrored = match op {
            EdgeOp::Insert(u, v) => mirror.insert_edge(u, v),
            EdgeOp::Delete(u, v) => mirror.remove_edge(u, v),
        };
        assert_eq!(
            changed, mirrored,
            "[{}] op {step} ({op:?}): applied-flag diverges from the mirror",
            case.label
        );
        // From-scratch oracle on the replayed prefix.
        let (truth, _) = compute_all(&mirror.to_csr());
        for v in 0..case.n as VertexId {
            assert_eq!(
                local.cb(v).to_bits(),
                truth[v as usize].to_bits(),
                "[{}] op {step} ({op:?}): CB({v}) = {} but rebuild says {}",
                case.label,
                local.cb(v),
                truth[v as usize]
            );
        }
        // Equal ids carry the bits just checked.
        assert_eq!(
            local.top_k(),
            topk_from_scores(&truth, case.k),
            "[{}] op {step} ({op:?}): top-k differs from the rebuild's",
            case.label
        );
    }
    local.validate();
}

/// Picks, per family, the first seeded scenario that carries a non-empty
/// update stream, and runs the full prefix check on it.
#[test]
fn every_prefix_matches_fresh_rebuild_across_families() {
    let seed = 1042u64;
    let mut covered: Vec<&str> = Vec::new();
    for idx in 0..64 {
        let case = scenario(seed, idx);
        let family = case.label.split(['[', '-']).next().unwrap().to_string();
        let Some(&fam) = FAMILIES.iter().find(|&&f| f == family) else {
            panic!("[{}] unknown family {family}", case.label);
        };
        if covered.contains(&fam) || case.ops.is_empty() {
            continue;
        }
        check_case_prefixes(&case);
        covered.push(fam);
        if covered.len() == FAMILIES.len() {
            break;
        }
    }
    assert_eq!(
        covered.len(),
        FAMILIES.len(),
        "stream scenarios must cover all families, got {covered:?}"
    );
}

/// The same contract at every k regime of the sweep, on one dense-ish
/// case where boundary ties actually occur.
#[test]
fn prefix_equivalence_across_k_regimes() {
    let seed = 7u64;
    // Find a streamed scenario, then re-run it at each k of the sweep.
    let base = (0..16)
        .map(|idx| scenario(seed, idx))
        .find(|c| !c.ops.is_empty() && c.n >= 6)
        .expect("sweep contains streamed scenarios");
    for k in conformance::scenario::k_sweep(base.n) {
        let case = Case {
            k,
            label: format!("{}-k{k}", base.label),
            ..base.clone()
        };
        check_case_prefixes(&case);
    }
}

/// Degenerate shapes the generator rarely emits: empty graph, single
/// vertex, and a stream that empties the graph and refills it.
#[test]
fn degenerate_graphs_and_full_teardown() {
    let empty = Case {
        n: 0,
        edges: vec![],
        k: 3,
        ops: vec![],
        label: "empty".into(),
    };
    check_case_prefixes(&empty);

    let lone = Case {
        n: 1,
        edges: vec![],
        k: 1,
        ops: vec![],
        label: "lone".into(),
    };
    check_case_prefixes(&lone);

    // Tear a triangle-rich graph down to nothing, then rebuild it.
    let g0 = egobtw_gen::classic::barbell(4);
    let edges: Vec<(VertexId, VertexId)> = g0.edges().collect();
    let mut ops: Vec<EdgeOp> = edges.iter().map(|&(u, v)| EdgeOp::Delete(u, v)).collect();
    ops.extend(edges.iter().map(|&(u, v)| EdgeOp::Insert(u, v)));
    let case = Case {
        n: g0.n(),
        edges,
        k: 3,
        ops,
        label: "barbell-teardown".into(),
    };
    check_case_prefixes(&case);
}
