//! Regression tests for the scratch-buffer reuse in the maintainers'
//! update paths.
//!
//! `LocalIndex` and `LazyTopK` route per-op common-neighbor/neighbor
//! enumeration through reused scratch buffers instead of fresh
//! allocations. Buffer reuse is exactly the kind of change that can
//! silently corrupt results (a stale element surviving a missing
//! `clear`), so these tests pin the replay output of both maintainers
//! against `compute_all` on the replayed graph, over dense seeded streams
//! where the buffers are taken and refilled thousands of times at varying
//! sizes.

use conformance::{approx_eq, check_topk, REL_TOL};
use egobtw_core::compute_all;
use egobtw_dynamic::{replay_graph, EdgeOp, LazyTopK, LocalIndex};
use egobtw_gen::gnp;
use egobtw_graph::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn seeded_stream(n: usize, len: usize, seed: u64) -> Vec<EdgeOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        let u = rng.random_range(0..n as VertexId);
        let v = rng.random_range(0..n as VertexId);
        if u == v {
            continue;
        }
        // Blind flips: duplicates and absent deletes are intentionally in
        // the mix, exercising the early-return paths around the take/put.
        if rng.random_bool(0.5) {
            ops.push(EdgeOp::Insert(u, v));
        } else {
            ops.push(EdgeOp::Delete(u, v));
        }
    }
    ops
}

/// Replays `ops` through a `LocalIndex` at `k` and checks every score,
/// the map invariant and the certified top-k against `compute_all`.
fn check_local_replay(seed: u64, k: usize) {
    let g0 = gnp(30, 0.25, seed);
    let ops = seeded_stream(30, 400, seed);
    let replayed = LocalIndex::replay(&g0, k, &ops);
    let (truth, _) = compute_all(&replay_graph(&g0, &ops).to_csr());
    for v in 0..30u32 {
        assert!(
            approx_eq(replayed.cb(v), truth[v as usize], REL_TOL),
            "seed {seed}: CB({v}) {} vs compute_all {}",
            replayed.cb(v),
            truth[v as usize]
        );
    }
    if let Err(why) = check_topk(&truth, &replayed.top_k(), k, REL_TOL) {
        panic!("seed {seed} k={k}: {why}");
    }
    replayed.validate();
}

/// The paper's exact index alone (`k = 0`: no top-k heap).
#[test]
fn local_replay_identical_to_fresh_rebuild() {
    for seed in [3u64, 99] {
        check_local_replay(seed, 0);
    }
}

/// The same index as the daemon's `delta:K` maintainer, top-k included.
#[test]
fn delta_replay_identical_to_fresh_rebuild() {
    for (seed, k) in [(3u64, 1usize), (99, 7)] {
        check_local_replay(seed, k);
    }
}

#[test]
fn lazy_replay_identical_to_fresh_rebuild() {
    for (seed, k) in [(3u64, 1usize), (99, 7)] {
        let g0 = gnp(30, 0.25, seed);
        let ops = seeded_stream(30, 400, seed);
        let mut replayed = LazyTopK::replay(&g0, k, &ops);
        let (truth, _) = compute_all(&replay_graph(&g0, &ops).to_csr());
        if let Err(why) = check_topk(&truth, &replayed.top_k(), k, REL_TOL) {
            panic!("seed {seed} k={k}: {why}");
        }
    }
}

#[test]
fn interleaved_maintainers_share_nothing() {
    // Both maintainers fed the same ops in lockstep must not interfere
    // through any shared state (there is none — this pins it): each stays
    // exact against `compute_all` on the mirrored graph after every op.
    let (n, k) = (24usize, 5usize);
    let g0 = gnp(n, 0.3, 11);
    let ops = seeded_stream(n, 200, 11);
    let mut local = LocalIndex::new(&g0, k);
    let mut lazy = LazyTopK::new(&g0, k);
    for (i, &op) in ops.iter().enumerate() {
        assert_eq!(local.apply(op), lazy.apply(op), "op {i}: {op:?}");
        let (truth, _) = compute_all(&replay_graph(&g0, &ops[..=i]).to_csr());
        for v in 0..n as VertexId {
            assert!(
                approx_eq(local.cb(v), truth[v as usize], REL_TOL),
                "op {i}: CB({v}) {} vs compute_all {}",
                local.cb(v),
                truth[v as usize]
            );
        }
        if let Err(why) = check_topk(&truth, &local.top_k(), k, REL_TOL) {
            panic!("op {i}: local top-k: {why}");
        }
        if let Err(why) = check_topk(&truth, &lazy.top_k(), k, REL_TOL) {
            panic!("op {i}: lazy top-k: {why}");
        }
    }
}
