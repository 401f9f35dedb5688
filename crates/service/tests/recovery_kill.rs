//! Kill-and-replay conformance: a real `egobtw-serve` process is driven
//! over TCP, killed at the nastiest moments — SIGKILL mid-stream, plus
//! injected aborts half-way through a WAL record write, after the durable
//! append but before the epoch publishes, and mid-compaction between the
//! tmp-snapshot write and its rename — then restarted. Every recovered
//! epoch must answer top-k with exactly the state the durable op prefix
//! defines, judged by [`ego_betweenness_reference`] through the
//! conformance crate's tie-aware comparator.
//!
//! The daemon is fed a **binary snapshot** of the start graph (the
//! edge-list loader relabels vertex ids; the snapshot loader preserves
//! them, which the oracle replay depends on).

use conformance::{check_topk, REL_TOL};
use egobtw_core::naive::ego_betweenness_reference;
use egobtw_dynamic::{replay_graph, EdgeOp};
use egobtw_graph::{CsrGraph, VertexId};
use egobtw_service::proto::parse_entries;
use egobtw_service::server::{connect_with_retry, roundtrip};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const BATCH: usize = 3;
const NAME: &str = "killbox";

/// Fresh unique temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "egobtw-kill-{tag}-{}-{}",
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

/// The daemon under test; killed on drop so a failing assertion never
/// leaks a process.
struct Daemon {
    child: Child,
    addr: String,
    /// `(epoch, snapshot_epoch, replayed, torn_tail)` per `recovered` line
    /// the daemon printed at boot.
    recovered: Vec<(String, u64, u64, u64, bool)>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What a boot-time `recovered` line said about one dataset.
fn parse_recovered(line: &str) -> Option<(String, u64, u64, u64, bool)> {
    let mut it = line.split_whitespace();
    if it.next() != Some("recovered") {
        return None;
    }
    let name = it.next()?.to_string();
    let mut field = |key: &str| -> Option<String> {
        it.next()?
            .strip_prefix(key)?
            .strip_prefix('=')
            .map(str::to_string)
    };
    Some((
        name,
        field("epoch")?.parse().ok()?,
        field("snapshot_epoch")?.parse().ok()?,
        field("replayed")?.parse().ok()?,
        field("torn_tail")? == "true",
    ))
}

/// Spawns `egobtw-serve` on an OS-picked port and waits for its
/// `listening on` line. `crash` is an `EGOBTW_CRASH` spec or `None`.
fn spawn_daemon(
    data_dir: &Path,
    snap_path: &Path,
    crash: Option<&str>,
    compact_every: u64,
) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_egobtw-serve"));
    cmd.args([
        "--listen",
        "127.0.0.1:0",
        "--threads",
        "2",
        "--shards",
        "2",
        "--data-dir",
        data_dir.to_str().unwrap(),
        "--fsync",
        "always",
        "--compact-every",
        &compact_every.to_string(),
        "--load",
        &format!("{NAME}={}:delta:8", snap_path.to_str().unwrap()),
    ]);
    cmd.stdout(Stdio::piped()).stderr(Stdio::null());
    if let Some(spec) = crash {
        cmd.env("EGOBTW_CRASH", spec);
    }
    let mut child = cmd.spawn().expect("spawn egobtw-serve");
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let mut recovered = Vec::new();
    let mut addr = None;
    for line in stdout.lines() {
        let line = line.expect("daemon stdout died before listening");
        if let Some(rec) = parse_recovered(&line) {
            recovered.push(rec);
        }
        if let Some(rest) = line.strip_prefix("listening on ") {
            addr = Some(rest.split_whitespace().next().unwrap().to_string());
            break;
        }
    }
    Daemon {
        child,
        addr: addr.expect("daemon never printed its address"),
        recovered,
    }
}

fn connect(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    connect_with_retry(addr, Duration::from_secs(10)).expect("connect")
}

fn field<'r>(reply: &'r str, key: &str) -> &'r str {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .unwrap_or_else(|| panic!("no {key}= in {reply:?}"))
}

/// Seeded state-changing op stream over `g0`.
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

fn update_line(batch: &[EdgeOp]) -> String {
    let mut line = format!("UPDATE {NAME}");
    for op in batch {
        match op {
            EdgeOp::Insert(u, v) => line.push_str(&format!(" +{u},{v}")),
            EdgeOp::Delete(u, v) => line.push_str(&format!(" -{u},{v}")),
        }
    }
    line
}

/// Sends batches `from..to` of `ops`; returns how many were **acked**
/// (an `OK update` came back). Stops early when the daemon dies or
/// errors — crash-injection tests expect exactly that.
fn drive(addr: &str, ops: &[EdgeOp], from: usize, to: usize) -> usize {
    let (mut reader, mut writer) = connect(addr);
    let mut acked = from;
    for b in from..to {
        let line = update_line(&ops[b * BATCH..(b + 1) * BATCH]);
        match roundtrip(&mut reader, &mut writer, &line) {
            Ok(reply) if reply.starts_with("OK update") => {
                let epoch: u64 = field(&reply, "epoch").parse().unwrap();
                assert_eq!(epoch, b as u64 + 1, "epochs must count batches");
                acked = b + 1;
            }
            _ => break, // refused or dead mid-batch: the daemon crashed
        }
    }
    acked
}

/// Asserts the daemon's top-k at its current epoch matches the reference
/// truth of the first `epoch` batches, and that it *reports* that epoch.
fn verify_epoch(addr: &str, g0: &CsrGraph, ops: &[EdgeOp], epoch: u64) {
    let (mut reader, mut writer) = connect(addr);
    let stats = roundtrip(&mut reader, &mut writer, &format!("STATS {NAME}")).unwrap();
    assert!(stats.starts_with("OK stats"), "{stats}");
    assert_eq!(
        field(&stats, "epoch").parse::<u64>().unwrap(),
        epoch,
        "recovered to the wrong epoch"
    );
    assert_eq!(field(&stats, "persisted"), "true");
    let g = replay_graph(g0, &ops[..epoch as usize * BATCH]).to_csr();
    let truth: Vec<f64> = (0..g.n() as VertexId)
        .map(|v| ego_betweenness_reference(&g, v))
        .collect();
    for k in [1usize, 4, 8] {
        let reply = roundtrip(&mut reader, &mut writer, &format!("TOPK {NAME} {k}")).unwrap();
        assert!(reply.starts_with("OK top"), "{reply}");
        assert_eq!(field(&reply, "epoch").parse::<u64>().unwrap(), epoch);
        let entries = parse_entries(field(&reply, "entries")).unwrap();
        check_topk(&truth, &entries, k, REL_TOL)
            .unwrap_or_else(|e| panic!("epoch {epoch} k={k}: {e}"));
    }
}

/// Full scenario: run to a crash (injected or SIGKILL), restart, check
/// the recovered lineage, then keep updating and re-verify — recovery
/// must leave a dataset that serves *and* accepts writes.
fn crash_recover_verify(
    tag: &str,
    crash: Option<&str>,
    compact_every: u64,
    kill_after: Option<usize>,
    expect_epoch: impl Fn(usize) -> u64,
    expect_torn: bool,
) {
    let g0 = egobtw_gen::gnp(20, 0.18, 13);
    let ops = stream(&g0, 60, 0xCA5CADE);
    let dir = TempDir::new(tag);
    let data_dir = dir.path().join("data");
    std::fs::create_dir_all(&data_dir).unwrap();
    let snap_path = dir.path().join("g0.snap");
    egobtw_graph::io::write_snapshot_file(&g0, None, &snap_path).unwrap();

    let mut daemon = spawn_daemon(&data_dir, &snap_path, crash, compact_every);
    assert!(
        daemon.recovered.is_empty(),
        "first boot has nothing to recover"
    );
    let acked = drive(&daemon.addr, &ops, 0, kill_after.unwrap_or(14));
    if kill_after.is_some() {
        daemon.child.kill().unwrap(); // SIGKILL: no destructors, no flush
    }
    daemon.child.wait().unwrap();
    drop(daemon);

    let expected = expect_epoch(acked);
    let daemon = spawn_daemon(&data_dir, &snap_path, None, u64::MAX);
    assert_eq!(daemon.recovered.len(), 1, "one dataset must recover");
    let (name, epoch, snapshot_epoch, replayed, torn) = daemon.recovered[0].clone();
    assert_eq!(name, NAME);
    assert_eq!(epoch, expected, "{tag}: recovered epoch");
    assert_eq!(torn, expect_torn, "{tag}: torn-tail flag");
    assert_eq!(epoch, snapshot_epoch + replayed, "{tag}: lineage mismatch");
    verify_epoch(&daemon.addr, &g0, &ops, expected);

    // Continue the stream where the durable prefix ends.
    let resumed = drive(&daemon.addr, &ops, expected as usize, expected as usize + 3);
    assert_eq!(
        resumed,
        expected as usize + 3,
        "{tag}: post-recovery writes"
    );
    verify_epoch(&daemon.addr, &g0, &ops, expected + 3);
}

#[test]
fn sigkill_mid_stream_recovers_every_acked_epoch() {
    // fsync=always means an acked batch is durable; with the kill landing
    // after the acks, recovery must land exactly on the acked epoch.
    crash_recover_verify(
        "sigkill",
        None,
        u64::MAX,
        Some(7),
        |acked| acked as u64,
        false,
    );
}

#[test]
fn crash_mid_wal_record_truncates_the_torn_tail() {
    // The 5th append aborts half-way through its record write: four
    // durable epochs plus a torn tail that must vanish on recovery.
    crash_recover_verify(
        "midrec",
        Some("wal-mid-record:5"),
        u64::MAX,
        None,
        |_| 4,
        true,
    );
}

#[test]
fn crash_post_append_recovers_the_never_published_batch() {
    // The 3rd batch is durably appended, then the daemon dies *before*
    // publishing or replying. The client saw 2 acks — but write-ahead
    // order means the batch is law: recovery must replay all 3.
    crash_recover_verify(
        "postapp",
        Some("post-append:3"),
        u64::MAX,
        None,
        |acked| {
            assert_eq!(acked, 2, "the crashed batch must not have been acked");
            3
        },
        false,
    );
}

#[test]
fn crash_mid_compaction_recovers_from_the_old_snapshot() {
    // Auto-compaction fires inside the 3rd update and aborts after
    // writing the tmp snapshot but before the rename: the old snapshot
    // (epoch 0) plus the intact 3-record WAL must reconstruct epoch 3.
    // (Arrival 1 of the crash point is the preload's epoch-0 snapshot
    // write; the compaction is arrival 2.)
    crash_recover_verify(
        "midcomp",
        Some("mid-compaction:2"),
        3,
        None,
        |acked| {
            assert_eq!(acked, 2, "the compacting batch never got its reply");
            3
        },
        false,
    );
}

#[test]
fn explicit_compact_over_the_wire_truncates_the_wal() {
    let g0 = egobtw_gen::gnp(18, 0.2, 5);
    let ops = stream(&g0, 12, 0xFACADE);
    let dir = TempDir::new("compactcmd");
    let data_dir = dir.path().join("data");
    std::fs::create_dir_all(&data_dir).unwrap();
    let snap_path = dir.path().join("g0.snap");
    egobtw_graph::io::write_snapshot_file(&g0, None, &snap_path).unwrap();

    let daemon = spawn_daemon(&data_dir, &snap_path, None, u64::MAX);
    assert_eq!(drive(&daemon.addr, &ops, 0, 4), 4);
    let (mut reader, mut writer) = connect(&daemon.addr);
    let stats = roundtrip(&mut reader, &mut writer, &format!("STATS {NAME}")).unwrap();
    assert_eq!(field(&stats, "wal_records"), "4");
    let reply = roundtrip(&mut reader, &mut writer, &format!("COMPACT {NAME}")).unwrap();
    assert_eq!(reply, format!("OK compact name={NAME} epoch=4"));
    let stats = roundtrip(&mut reader, &mut writer, &format!("STATS {NAME}")).unwrap();
    assert_eq!(field(&stats, "wal_records"), "0");
    drop(daemon);

    // Restart: pure snapshot load, zero replay, same answers.
    let daemon = spawn_daemon(&data_dir, &snap_path, None, u64::MAX);
    assert_eq!(daemon.recovered.len(), 1);
    let (_, epoch, snapshot_epoch, replayed, torn) = daemon.recovered[0].clone();
    assert_eq!((epoch, snapshot_epoch, replayed, torn), (4, 4, 0, false));
    verify_epoch(&daemon.addr, &g0, &ops, 4);
}
