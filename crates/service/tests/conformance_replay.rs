//! Conformance tie-in: a seeded `EdgeOp` stream replayed through the
//! service's ingestion path must, at **every epoch**, answer top-k
//! queries that match the definitional truth — the graph rebuilt by
//! [`replay_graph`] scored by [`ego_betweenness_reference`] (zero shared
//! machinery with any engine or maintainer), compared with the
//! conformance crate's tie-aware comparator.

use conformance::{approx_eq, check_topk, REL_TOL};
use egobtw_core::naive::ego_betweenness_reference;
use egobtw_dynamic::{replay_graph, EdgeOp};
use egobtw_graph::{CsrGraph, VertexId};
use egobtw_service::catalog::Mode;
use egobtw_service::{parse_command, Reply, Service};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded op stream over `g0`'s vertices: each op flips a uniformly
/// chosen pair against a replayed mirror of `g0`, so inserts and deletes
/// interleave and every op is state-changing.
fn stream(g0: &CsrGraph, len: usize, seed: u64) -> Vec<EdgeOp> {
    let n = g0.n();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mirror = egobtw_graph::DynGraph::from_csr(g0);
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        let u = rng.random_range(0..n as u32);
        let v = rng.random_range(0..n as u32);
        if u == v {
            continue;
        }
        let op = if mirror.has_edge(u, v) {
            mirror.remove_edge(u, v);
            EdgeOp::Delete(u, v)
        } else {
            mirror.insert_edge(u, v);
            EdgeOp::Insert(u, v)
        };
        ops.push(op);
    }
    ops
}

fn reference_truth(g: &CsrGraph) -> Vec<f64> {
    (0..g.n() as VertexId)
        .map(|v| ego_betweenness_reference(g, v))
        .collect()
}

fn topk_entries(service: &Service, line: &str) -> (u64, Vec<(VertexId, f64)>) {
    let reply = service
        .execute(&parse_command(line).unwrap())
        .unwrap_or_else(|e| panic!("{line:?}: {e}"));
    match reply {
        Reply::Topk { epoch, entries, .. } => (epoch, entries.to_vec()),
        other => panic!("unexpected reply {other:?}"),
    }
}

/// Replays `ops` in batches through one dataset and asserts every epoch
/// with **two comparators**: the tie-aware top-k comparator over both the
/// `auto` and explicit-engine paths, and a per-vertex exact comparison of
/// every SCORE answer against the reference truth.
fn check_mode(g0: &CsrGraph, ops: &[EdgeOp], mode: Mode, batch: usize, seed_tag: &str) {
    let service = Service::new();
    let name = format!("replay-{seed_tag}");
    service.load_graph(&name, g0.clone(), mode).unwrap();
    let n = g0.n();
    let ks = [1usize, 3, n / 2, n + 2];

    let mut applied_prefix = 0usize;
    let mut batch_start = 0usize;
    let mut epoch = 0u64;
    loop {
        // Check the current epoch (including epoch 0 before any update).
        let truth = reference_truth(&replay_graph(g0, &ops[..applied_prefix]).to_csr());
        for &k in &ks {
            let (e, entries) = topk_entries(&service, &format!("TOPK {name} {k}"));
            assert_eq!(e, epoch, "answer cites the wrong epoch");
            check_topk(&truth, &entries, k, REL_TOL).unwrap_or_else(|err| {
                panic!("{seed_tag} mode={mode:?} epoch={epoch} k={k} (auto): {err}")
            });
            let (e, entries) =
                topk_entries(&service, &format!("TOPK {name} {k} core::compute_all"));
            assert_eq!(e, epoch);
            check_topk(&truth, &entries, k, REL_TOL).unwrap_or_else(|err| {
                panic!("{seed_tag} mode={mode:?} epoch={epoch} k={k} (engine): {err}")
            });
        }
        // Second comparator: every vertex's exact score via SCORE.
        let all: Vec<String> = (0..n as VertexId).map(|v| v.to_string()).collect();
        let line = format!("SCORE {name} {}", all.join(" "));
        match service.execute(&parse_command(&line).unwrap()).unwrap() {
            Reply::Score { entries, .. } => {
                for (v, s) in entries {
                    assert!(
                        approx_eq(s, truth[v as usize], REL_TOL),
                        "{seed_tag} mode={mode:?} epoch={epoch}: CB({v}) {s} vs {}",
                        truth[v as usize]
                    );
                }
            }
            other => panic!("unexpected reply {other:?}"),
        }
        if batch_start >= ops.len() {
            break;
        }
        // Ingest the next batch.
        let end = (batch_start + batch).min(ops.len());
        let slice = &ops[batch_start..end];
        let line = format!(
            "UPDATE {name} {}",
            slice
                .iter()
                .map(|op| match op {
                    EdgeOp::Insert(u, v) => format!("+{u},{v}"),
                    EdgeOp::Delete(u, v) => format!("-{u},{v}"),
                })
                .collect::<Vec<_>>()
                .join(" ")
        );
        match service.execute(&parse_command(&line).unwrap()).unwrap() {
            Reply::Update(_, out) => {
                epoch = out.epoch;
                assert_eq!(
                    out.applied,
                    slice.len(),
                    "every op in the stream is state-changing by construction"
                );
            }
            other => panic!("unexpected reply {other:?}"),
        }
        applied_prefix = end;
        batch_start = end;
    }
    assert!(epoch >= 1, "stream must have published at least one epoch");
}

#[test]
fn replayed_stream_matches_oracle_local_mode() {
    let g0 = egobtw_gen::gnp(18, 0.2, 11);
    let ops = stream(&g0, 40, 0xA11CE);
    // The legacy `local:K` spelling is served by the exact delta index.
    let mode = Mode::parse("local:6").unwrap();
    assert_eq!(mode, Mode::Delta { k: 6 });
    check_mode(&g0, &ops, mode, 3, "local");
}

#[test]
fn replayed_stream_matches_oracle_lazy_mode() {
    let g0 = egobtw_gen::gnp(18, 0.2, 11);
    let ops = stream(&g0, 40, 0xA11CE);
    // lazy:10 covers the whole k sweep below n/2 and forces both the
    // deferred-refresh and engine fallback paths.
    check_mode(&g0, &ops, Mode::Lazy { k: 10 }, 3, "lazy");
}

#[test]
fn replayed_stream_matches_oracle_delta_mode() {
    let g0 = egobtw_gen::gnp(18, 0.2, 11);
    let ops = stream(&g0, 40, 0xA11CE);
    // delta:10: k ≤ 10 requests ride the published maintained entries,
    // larger k falls through to the engine path — both epoch-checked.
    check_mode(&g0, &ops, Mode::Delta { k: 10 }, 3, "delta");
    // Single-op batches stress the per-op re-certification hardest.
    check_mode(&g0, &ops, Mode::Delta { k: 4 }, 1, "delta-k4");
}

#[test]
fn replayed_stream_from_karate_with_deletes_only_start() {
    // Start from a real graph so early deletes hit existing structure.
    let g0 = egobtw_gen::classic::karate_club();
    let mut rng = StdRng::seed_from_u64(5);
    let mut mirror = egobtw_graph::DynGraph::from_csr(&g0);
    let mut ops = Vec::new();
    while ops.len() < 30 {
        let u = rng.random_range(0..34u32);
        let v = rng.random_range(0..34u32);
        if u == v {
            continue;
        }
        let op = if mirror.has_edge(u, v) {
            mirror.remove_edge(u, v);
            EdgeOp::Delete(u, v)
        } else {
            mirror.insert_edge(u, v);
            EdgeOp::Insert(u, v)
        };
        ops.push(op);
    }
    check_mode(&g0, &ops, Mode::default(), 5, "karate-default");
    check_mode(&g0, &ops, Mode::Lazy { k: 8 }, 5, "karate-lazy");
    check_mode(&g0, &ops, Mode::Delta { k: 8 }, 5, "karate-delta");
}

/// Durability variant: the same replayed stream, but the dataset is
/// **dropped and recovered from disk between every batch** — each epoch's
/// answers must survive a restart bit-for-bit under the comparator, in
/// every maintainer mode (the manifest round-trips the mode).
#[test]
fn replayed_stream_survives_a_restart_at_every_epoch() {
    use egobtw_service::catalog::Dataset;
    use egobtw_service::wal::{FsyncPolicy, PersistConfig};

    let g0 = egobtw_gen::gnp(16, 0.2, 11);
    let ops = stream(&g0, 24, 0xB007);
    let batch = 3;
    for (mode, tag) in [
        (Mode::Delta { k: 6 }, "delta-k6"),
        (Mode::Lazy { k: 8 }, "lazy"),
        (Mode::Delta { k: 8 }, "delta"),
    ] {
        let dir =
            std::env::temp_dir().join(format!("egobtw-confreplay-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = PersistConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::Never,
            compact_every: 4, // restarts interleave with compactions
        };
        let mut ds = Dataset::create_persistent("replay", g0.clone(), mode, &cfg).unwrap();
        for (i, chunk) in ops.chunks(batch).enumerate() {
            let epoch = i as u64 + 1;
            assert_eq!(ds.apply_updates(chunk).unwrap().epoch, epoch);
            drop(ds); // restart boundary
            let (recovered, report) = Dataset::recover("replay", &cfg)
                .unwrap_or_else(|e| panic!("{tag} epoch {epoch}: {e}"));
            assert_eq!(report.epoch, epoch, "{tag}: lost an epoch across restart");
            let prefix = (i + 1) * batch;
            let truth = reference_truth(&replay_graph(&g0, &ops[..prefix]).to_csr());
            for k in [1usize, 5, 9] {
                check_topk(&truth, &recovered.exact_topk_uncached(k), k, REL_TOL)
                    .unwrap_or_else(|e| panic!("{tag} epoch {epoch} k={k}: {e}"));
            }
            ds = recovered;
        }
        drop(ds);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
