//! Library-level durability tests: a persistent dataset must recover to
//! a state whose top-k answers match the definitional truth — the graph
//! rebuilt by [`replay_graph`] over the *durable* op prefix, scored by
//! [`ego_betweenness_reference`] — after clean drops, torn WAL tails cut
//! at every byte offset, and compaction at any cadence.

use conformance::{check_topk, REL_TOL};
use egobtw_core::naive::ego_betweenness_reference;
use egobtw_dynamic::{replay_graph, EdgeOp};
use egobtw_graph::{CsrGraph, VertexId};
use egobtw_service::catalog::{Dataset, Mode};
use egobtw_service::wal::{FsyncPolicy, PersistConfig, MANIFEST_FILE, WAL_FILE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Fresh unique temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "egobtw-persist-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Seeded state-changing op stream over `g0` (inserts and deletes
/// interleave against a replayed mirror).
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
        ops.push(if mirror.has_edge(u, v) {
            mirror.remove_edge(u, v);
            EdgeOp::Delete(u, v)
        } else {
            mirror.insert_edge(u, v);
            EdgeOp::Insert(u, v)
        });
    }
    ops
}

fn reference_truth(g: &CsrGraph) -> Vec<f64> {
    (0..g.n() as VertexId)
        .map(|v| ego_betweenness_reference(g, v))
        .collect()
}

/// Asserts the dataset's uncached top-k matches the reference truth of
/// `g0` + the first `prefix` ops.
fn assert_matches_prefix(ds: &Dataset, g0: &CsrGraph, ops: &[EdgeOp], prefix: usize, tag: &str) {
    let truth = reference_truth(&replay_graph(g0, &ops[..prefix]).to_csr());
    let k = 6.min(g0.n());
    let entries = ds.exact_topk_uncached(k);
    check_topk(&truth, &entries, k, REL_TOL)
        .unwrap_or_else(|e| panic!("{tag}: prefix {prefix}: {e}"));
}

fn cfg(dir: &TempDir, compact_every: u64) -> PersistConfig {
    PersistConfig {
        dir: dir.path().to_path_buf(),
        fsync: FsyncPolicy::Never, // tests exercise logic, not the disk
        compact_every,
    }
}

#[test]
fn recovery_replays_the_wal_to_the_exact_published_state() {
    let g0 = egobtw_gen::gnp(16, 0.2, 7);
    let ops = stream(&g0, 24, 0xD1CE);
    let dir = TempDir::new("recover");
    let cfg = cfg(&dir, u64::MAX); // never compact: pure WAL replay

    let ds = Dataset::create_persistent("r", g0.clone(), Mode::Delta { k: 8 }, &cfg).unwrap();
    for (i, batch) in ops.chunks(3).enumerate() {
        let out = ds.apply_updates(batch).unwrap();
        assert_eq!(out.epoch, i as u64 + 1);
    }
    assert_eq!(ds.wal_records(), 8);
    drop(ds); // clean shutdown: nothing flushed beyond the appends

    let (rec, report) = Dataset::recover("r", &cfg).unwrap();
    assert_eq!(report.snapshot_epoch, 0);
    assert_eq!(report.epoch, 8);
    assert_eq!(report.replayed, 8);
    assert!(!report.torn_tail);
    assert_eq!(rec.snapshot().epoch, 8);
    assert_matches_prefix(&rec, &g0, &ops, 24, "recovered");

    // The recovered dataset keeps serving writes, starting past the
    // recovered epoch, and stays exact.
    let more = {
        let g8 = replay_graph(&g0, &ops).to_csr();
        stream(&g8, 6, 0xFEED)
    };
    let out = rec.apply_updates(&more[..3]).unwrap();
    assert_eq!(out.epoch, 9);
    let g8 = replay_graph(&g0, &ops).to_csr();
    let truth = reference_truth(&replay_graph(&g8, &more[..3]).to_csr());
    check_topk(&truth, &rec.exact_topk_uncached(6), 6, REL_TOL).unwrap();
}

#[test]
fn torn_wal_tail_cut_at_every_byte_recovers_a_valid_prefix() {
    let g0 = egobtw_gen::gnp(12, 0.25, 3);
    let ops = stream(&g0, 12, 0xBEEF);
    let batch = 2usize;
    let dir = TempDir::new("torn");
    let cfg0 = cfg(&dir, u64::MAX);
    let ds = Dataset::create_persistent("t", g0.clone(), Mode::default(), &cfg0).unwrap();
    for chunk in ops.chunks(batch) {
        ds.apply_updates(chunk).unwrap();
    }
    drop(ds);

    let wal_bytes = std::fs::read(dir.path().join("t").join(WAL_FILE)).unwrap();
    let record_len = wal_bytes.len() / (ops.len() / batch);
    // Truth per recoverable prefix, computed once.
    let truths: Vec<Vec<f64>> = (0..=ops.len() / batch)
        .map(|e| reference_truth(&replay_graph(&g0, &ops[..e * batch]).to_csr()))
        .collect();

    let cut_dir = TempDir::new("torn-cut");
    let cut_cfg = cfg(&cut_dir, u64::MAX);
    for cut in 0..=wal_bytes.len() {
        let dsdir = cut_dir.path().join("t");
        let _ = std::fs::remove_dir_all(&dsdir);
        std::fs::create_dir_all(&dsdir).unwrap();
        for file in [MANIFEST_FILE, "snap-0000000000000000.snap"] {
            std::fs::copy(dir.path().join("t").join(file), dsdir.join(file)).unwrap();
        }
        std::fs::write(dsdir.join(WAL_FILE), &wal_bytes[..cut]).unwrap();

        let (rec, report) = Dataset::recover("t", &cut_cfg)
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        // Exactly the records wholly inside the cut survive; a partial
        // record is a torn tail, truncated without complaint.
        let whole = cut / record_len;
        assert_eq!(report.epoch, whole as u64, "cut at {cut}");
        assert_eq!(report.torn_tail, cut % record_len != 0, "cut at {cut}");
        let k = 5;
        check_topk(&truths[whole], &rec.exact_topk_uncached(k), k, REL_TOL)
            .unwrap_or_else(|e| panic!("cut at {cut} (epoch {whole}): {e}"));
    }
}

#[test]
fn compaction_truncates_the_wal_and_keeps_one_snapshot() {
    let g0 = egobtw_gen::gnp(14, 0.22, 9);
    let ops = stream(&g0, 14, 0xC0FFEE);
    let dir = TempDir::new("compact");
    let cfg = cfg(&dir, 3); // auto-compact every 3 batches
    let ds = Dataset::create_persistent("c", g0.clone(), Mode::default(), &cfg).unwrap();
    for chunk in ops.chunks(2) {
        ds.apply_updates(chunk).unwrap();
    }
    // 7 batches, compactions fired at records 3 and 6 → 1 record left.
    assert_eq!(ds.wal_records(), 1);
    let snaps: Vec<String> = std::fs::read_dir(dir.path().join("c"))
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .filter(|n| n.starts_with("snap-") && n.ends_with(".snap"))
        .collect();
    assert_eq!(
        snaps,
        vec!["snap-0000000000000006.snap".to_string()],
        "older snapshots must be pruned"
    );
    drop(ds);

    let (rec, report) = Dataset::recover("c", &cfg).unwrap();
    assert_eq!(report.snapshot_epoch, 6);
    assert_eq!(report.epoch, 7);
    assert_eq!(report.replayed, 1);
    assert_matches_prefix(&rec, &g0, &ops, 14, "post-compaction");

    // An explicit compaction empties the WAL and re-recovers identically.
    assert_eq!(rec.compact().unwrap(), 7);
    assert_eq!(rec.wal_records(), 0);
    drop(rec);
    let (rec2, report2) = Dataset::recover("c", &cfg).unwrap();
    assert_eq!(
        (report2.snapshot_epoch, report2.epoch, report2.replayed),
        (7, 7, 0)
    );
    assert_matches_prefix(&rec2, &g0, &ops, 14, "post-explicit-compaction");
}

#[test]
fn manifest_preserves_the_maintainer_mode_across_restarts() {
    let g0 = egobtw_gen::classic::karate_club();
    for mode in [
        Mode::Delta { k: 5 },
        Mode::Lazy { k: 7 },
        Mode::Delta { k: 6 },
    ] {
        let dir = TempDir::new("mode");
        let cfg = cfg(&dir, 64);
        let ds = Dataset::create_persistent("m", g0.clone(), mode, &cfg).unwrap();
        ds.apply_updates(&[EdgeOp::Insert(4, 9)]).unwrap();
        drop(ds);
        let (rec, _) = Dataset::recover("m", &cfg).unwrap();
        assert_eq!(rec.mode(), mode, "mode must round-trip via the manifest");
    }
}

#[test]
fn legacy_local_manifest_recovers_as_delta_and_serves_exact_answers() {
    use egobtw_service::proto::parse_command;
    use egobtw_service::service::TopkSource;
    use egobtw_service::{CatalogConfig, Reply, Service};

    let g0 = egobtw_gen::gnp(16, 0.2, 5);
    let ops = stream(&g0, 12, 0x01D);
    let dir = TempDir::new("legacy");
    let cfg = cfg(&dir, u64::MAX);
    let ds = Dataset::create_persistent("old", g0.clone(), Mode::Delta { k: 8 }, &cfg).unwrap();
    for batch in ops.chunks(3) {
        ds.apply_updates(batch).unwrap();
    }
    drop(ds);
    // The manifest exactly as earlier versions wrote it for `local:8`.
    std::fs::write(
        dir.path().join("old").join(MANIFEST_FILE),
        "egobtw-dataset-v1\nname=old\nmode=local:8\n",
    )
    .unwrap();

    let service = Service::with_config(CatalogConfig {
        persist: Some(cfg),
        ..CatalogConfig::default()
    });
    let reports = service.recover().unwrap();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].1.epoch, 4);
    let rec = service.catalog().get("old").unwrap();
    assert_eq!(rec.mode(), Mode::Delta { k: 8 });
    assert_eq!(rec.snapshot().epoch, 4);

    let truth = reference_truth(&replay_graph(&g0, &ops).to_csr());
    match service.execute(&parse_command("TOPK old 8 auto").unwrap()) {
        Ok(Reply::Topk {
            epoch,
            source,
            entries,
            ..
        }) => {
            assert_eq!(epoch, 4);
            assert_eq!(source, TopkSource::Maintained);
            check_topk(&truth, &entries, 8, REL_TOL).unwrap();
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // `LOAD … local:K` on the wire still succeeds, as `delta:K`.
    let snap = dir.path().join("g.snap");
    egobtw_graph::io::write_snapshot_file(&g0, None, &snap).unwrap();
    let line = format!("LOAD x {} local:3", snap.display());
    let reply = service
        .execute(&parse_command(&line).unwrap())
        .unwrap()
        .render();
    assert!(reply.contains(" mode=delta:3 "), "{reply}");
    assert_eq!(
        service.catalog().get("x").unwrap().mode(),
        Mode::Delta { k: 3 }
    );
}

#[test]
fn recover_rejects_a_mismatched_manifest_name() {
    let g0 = egobtw_gen::classic::star(6);
    let dir = TempDir::new("mismatch");
    let cfg = cfg(&dir, 64);
    drop(Dataset::create_persistent("alpha", g0, Mode::default(), &cfg).unwrap());
    std::fs::rename(dir.path().join("alpha"), dir.path().join("beta")).unwrap();
    let err = match Dataset::recover("beta", &cfg) {
        Ok(_) => panic!("recovery accepted a dataset whose manifest names another"),
        Err(e) => e,
    };
    assert!(err.contains("alpha"), "{err}");
}

#[test]
fn retire_deletes_the_directory_and_refuses_further_writes() {
    let g0 = egobtw_gen::classic::path(8);
    let dir = TempDir::new("retire");
    let cfg = cfg(&dir, 64);
    let ds = Dataset::create_persistent("gone", g0, Mode::default(), &cfg).unwrap();
    ds.apply_updates(&[EdgeOp::Insert(0, 5)]).unwrap();
    assert!(dir.path().join("gone").join(WAL_FILE).exists());
    ds.retire();
    assert!(ds.retired());
    assert!(
        !dir.path().join("gone").exists(),
        "retire must delete WAL + snapshots"
    );
    let err = ds.apply_updates(&[EdgeOp::Insert(0, 6)]).unwrap_err();
    assert!(err.contains("retired"), "{err}");
}

/// Every published epoch's graph is exactly the from-scratch CSR of the
/// durable op prefix — adjacency, offsets and hub rows — although the
/// write path only patches the rows each batch touched. So are the
/// snapshot files compaction writes and the graph recovery rebuilds.
/// Batches mix state changes with ops that cancel out within the batch
/// and with duplicate, absent, self-loop and out-of-range ops.
#[test]
fn every_epoch_graph_equals_a_fresh_build_of_its_prefix() {
    let g0 = egobtw_gen::rmat(8, 4, egobtw_gen::rmat::RmatParams::skewed(), 3);
    assert!(g0.hub_count() > 0, "hub rows must be exercised");
    let n = g0.n() as VertexId;
    let hubs: Vec<VertexId> = g0
        .vertices()
        .filter(|&u| g0.hub_bitmap(u).is_some())
        .collect();
    for mode in [Mode::Delta { k: 8 }, Mode::Lazy { k: 8 }] {
        let dir = TempDir::new("epoch-eq");
        let cfg = cfg(&dir, 3);
        let ds = Dataset::create_persistent("e", g0.clone(), mode, &cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(0xE90C);
        let mut mirror = egobtw_graph::DynGraph::from_csr(&g0);
        // In-range ops so far: the catalog skips the rest before they
        // reach the maintainer, and so must the reference replay.
        let mut in_range: Vec<EdgeOp> = Vec::new();
        for batch in 0..14u64 {
            // Endpoints biased towards hubs, so hub rows get rewritten.
            let mut pick = || {
                if rng.random_bool(0.5) {
                    hubs[rng.random_range(0..hubs.len())]
                } else {
                    rng.random_range(0..n)
                }
            };
            let (u, v) = loop {
                let (u, v) = (pick(), pick());
                if u != v {
                    break (u, v);
                }
            };
            let flip = if mirror.has_edge(u, v) {
                EdgeOp::Delete(u, v)
            } else {
                EdgeOp::Insert(u, v)
            };
            let undo = match flip {
                EdgeOp::Insert(..) => EdgeOp::Delete(u, v),
                EdgeOp::Delete(..) => EdgeOp::Insert(u, v),
            };
            let ops = match batch % 3 {
                0 => vec![flip],
                // The same pair flipped and flipped back: rows touched,
                // graph unchanged.
                1 => vec![flip, undo],
                // A real change plus a duplicate of it, an absent delete,
                // a self-loop and two out-of-range endpoints.
                _ => vec![
                    flip,
                    flip,
                    EdgeOp::Delete(u, u),
                    EdgeOp::Insert(u, u),
                    EdgeOp::Insert(u, n),
                    EdgeOp::Delete(n + 7, v),
                ],
            };
            ds.apply_updates(&ops).unwrap();
            for &op in &ops {
                let (a, b) = op.endpoints();
                if a < n && b < n {
                    in_range.push(op);
                    match op {
                        EdgeOp::Insert(a, b) => mirror.insert_edge(a, b),
                        EdgeOp::Delete(a, b) => mirror.remove_edge(a, b),
                    };
                }
            }
            let expected = replay_graph(&g0, &in_range).to_csr();
            let snap = ds.snapshot();
            assert_eq!(snap.epoch, batch + 1);
            assert!(
                *snap.graph == expected,
                "{mode:?}: epoch {} graph differs from a fresh build",
                snap.epoch
            );
            if snap.epoch.is_multiple_of(3) {
                // Compaction just ran: the file holds this epoch's graph.
                let (epoch, on_disk) =
                    egobtw_service::wal::latest_snapshot(&dir.path().join("e")).unwrap();
                assert_eq!(epoch, snap.epoch);
                assert!(
                    on_disk == expected,
                    "{mode:?}: snapshot file at epoch {epoch}"
                );
            }
        }
        assert_eq!(ds.wal_records(), 2, "two batches past the last compaction");
        drop(ds);
        let (rec, report) = Dataset::recover("e", &cfg).unwrap();
        assert_eq!((report.snapshot_epoch, report.replayed), (12, 2));
        assert!(
            *rec.snapshot().graph == replay_graph(&g0, &in_range).to_csr(),
            "{mode:?}: recovered graph differs from a fresh build"
        );
    }
}
