//! Per-dataset write-ahead log and snapshot compaction.
//!
//! Durability layout: each persistent dataset owns one directory under the
//! service's `--data-dir`, named after the dataset (catalog names are
//! restricted to `[A-Za-z0-9._-]` precisely so they are path-safe):
//!
//! ```text
//! <data-dir>/<dataset>/
//!   MANIFEST            text: format tag, dataset name, maintainer mode
//!   snap-<epoch>.snap   versioned binary CSR snapshot (graph::io format)
//!   wal.log             append-only EdgeOp batch records past the snapshot
//! ```
//!
//! A WAL record is one `UPDATE` batch — the unit that publishes one epoch:
//!
//! ```text
//! len u32 le | crc u64 le | payload
//! payload = epoch u64 le | count u32 le | count × (tag u8, u u32, v u32)
//! ```
//!
//! `crc` is FNV-1a 64 over the payload (the same checksum the snapshot
//! format uses). The reader treats the first record that fails any check —
//! short length prefix, absurd length, short payload, checksum mismatch,
//! count/len disagreement, undecodable op — as the **torn tail** left by a
//! crash mid-append: everything before it is the durable history,
//! everything from it on is discarded (and truncated away on reopen, so
//! the next append never interleaves with garbage).
//!
//! Write ordering makes every crash point recoverable:
//!
//! 1. the record is appended (and fsynced under [`FsyncPolicy::Always`])
//!    **before** the epoch is published to readers — a crash after the
//!    append replays to a state at or ahead of anything a client saw;
//! 2. compaction writes the new snapshot to a temp name, renames it into
//!    place (atomic on POSIX), and only then truncates the WAL and deletes
//!    older snapshots — a crash mid-compaction leaves either the old
//!    snapshot + full WAL or the new snapshot + a WAL whose stale records
//!    are skipped by epoch on replay. Both recover to the same state.
//!
//! Crash points for the kill-and-replay conformance tests are injected via
//! the `EGOBTW_CRASH=<point>:<nth>` environment variable (see [`crash`]):
//! `wal-mid-record` flushes half a record then aborts, `post-append`
//! aborts between the durable append and the epoch publish, and
//! `mid-compaction` aborts between writing the temp snapshot and the
//! rename.

use crate::catalog::Mode;
use egobtw_dynamic::EdgeOp;
use egobtw_graph::io::{fnv1a64, read_snapshot_file, write_snapshot_file};
use egobtw_graph::CsrGraph;
use egobtw_telemetry::Counter;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// WAL file name inside a dataset directory.
pub const WAL_FILE: &str = "wal.log";
/// Manifest file name inside a dataset directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// First line of a manifest — bumped if the layout ever changes shape.
pub const MANIFEST_TAG: &str = "egobtw-dataset-v1";
/// Upper bound on one record's payload; a length prefix beyond this is
/// treated as corruption rather than allocated (a torn length field must
/// not OOM recovery).
pub const MAX_RECORD: usize = 64 << 20;

/// When the WAL fsyncs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every appended record: survives power loss at the
    /// cost of one sync per `UPDATE` batch.
    Always,
    /// Never fsync explicitly: appends reach the OS page cache only, which
    /// survives a process kill but not a machine crash.
    Never,
}

impl FsyncPolicy {
    /// Parses the CLI form `always` / `never`.
    pub fn parse(text: &str) -> Result<FsyncPolicy, String> {
        match text {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!("bad fsync policy {other:?}: always or never")),
        }
    }
}

/// Durability configuration shared by every dataset of one service.
#[derive(Clone, Debug)]
pub struct PersistConfig {
    /// Root directory; each dataset gets a subdirectory named after it.
    pub dir: PathBuf,
    /// WAL fsync policy.
    pub fsync: FsyncPolicy,
    /// Snapshot compaction cadence: after this many WAL records a fresh
    /// snapshot is written and the WAL truncated.
    pub compact_every: u64,
}

impl PersistConfig {
    /// A config with the default cadence (compact every 64 batches).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            compact_every: 64,
        }
    }
}

/// One WAL record: the raw `UPDATE` batch that published `epoch`.
/// Replaying it through the maintainers' forgiving semantics (duplicate
/// inserts, absent deletes, and self-loops are no-ops) reproduces the
/// epoch exactly, skipped ops included.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// The epoch this batch published (previous epoch + 1).
    pub epoch: u64,
    /// The batch, verbatim as received — including ops that did not apply.
    pub ops: Vec<EdgeOp>,
}

/// Crash-point injection for kill-and-replay tests.
pub mod crash {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    /// `EGOBTW_CRASH=<point>:<nth>` — abort the process at the `nth`
    /// (1-based) arrival at the named crash point.
    pub const ENV: &str = "EGOBTW_CRASH";

    fn config() -> &'static Option<(String, u64)> {
        static CONFIG: OnceLock<Option<(String, u64)>> = OnceLock::new();
        CONFIG.get_or_init(|| {
            let spec = std::env::var(ENV).ok()?;
            let (point, nth) = spec.split_once(':').unwrap_or((spec.as_str(), "1"));
            Some((point.to_string(), nth.parse().ok().filter(|&n| n > 0)?))
        })
    }

    /// Returns `true` when this call is the configured `nth` arrival at
    /// `point` — the caller is expected to die (after any partial-write
    /// staging it wants to do).
    pub fn hit(point: &str) -> bool {
        static COUNT: AtomicU64 = AtomicU64::new(0);
        match config() {
            Some((p, nth)) if p == point => COUNT.fetch_add(1, Ordering::SeqCst) + 1 == *nth,
            _ => false,
        }
    }

    /// Aborts the process (no destructors, no flushes — the closest
    /// in-process stand-in for `kill -9`) if this is the configured
    /// arrival at `point`.
    pub fn abort_if(point: &str) {
        if hit(point) {
            eprintln!("egobtw: injected crash at {point:?}");
            std::process::abort();
        }
    }
}

/// Encodes one record into its on-disk frame: `len u32 | fnv1a64 u64 |
/// payload`, everything little-endian.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(12 + rec.ops.len() * EdgeOp::WIRE_LEN);
    payload.extend_from_slice(&rec.epoch.to_le_bytes());
    payload.extend_from_slice(&(rec.ops.len() as u32).to_le_bytes());
    for &op in &rec.ops {
        op.encode_into(&mut payload);
    }
    let mut frame = Vec::with_capacity(12 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Decodes every valid record from `bytes`. Returns the records and the
/// byte length of the valid prefix; anything past it is a torn or
/// corrupted tail. Never panics on any input.
pub fn decode_records(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while let Some(len_bytes) = bytes.get(at..at + 4) {
        let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
        if !(12..=MAX_RECORD).contains(&len) {
            break;
        }
        let Some(crc_bytes) = bytes.get(at + 4..at + 12) else {
            break;
        };
        let crc = u64::from_le_bytes(crc_bytes.try_into().unwrap());
        let Some(payload) = bytes.get(at + 12..at + 12 + len) else {
            break;
        };
        if fnv1a64(payload) != crc {
            break;
        }
        let epoch = u64::from_le_bytes(payload[..8].try_into().unwrap());
        let count = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
        if payload.len() != 12 + count * EdgeOp::WIRE_LEN {
            break;
        }
        let mut ops = Vec::with_capacity(count);
        let mut ok = true;
        for i in 0..count {
            match EdgeOp::decode(&payload[12 + i * EdgeOp::WIRE_LEN..]) {
                Some(op) => ops.push(op),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            break;
        }
        records.push(WalRecord { epoch, ops });
        at += 12 + len;
    }
    (records, at)
}

/// Telemetry handles a [`Wal`] bumps as it works. Detached counters by
/// default (nothing registered, nothing rendered); the catalog swaps in
/// registry-backed handles labeled with the dataset name.
#[derive(Clone, Default)]
pub struct WalMetrics {
    /// Records appended (one per published epoch).
    pub appends: Arc<Counter>,
    /// Explicit data syncs issued (per-append under
    /// [`FsyncPolicy::Always`], plus drain barriers and truncations).
    pub fsyncs: Arc<Counter>,
}

/// An open, append-positioned write-ahead log.
pub struct Wal {
    file: File,
    fsync: FsyncPolicy,
    /// Records currently in the file (valid ones; reset by [`Wal::truncate`]).
    records: u64,
    metrics: WalMetrics,
}

impl Wal {
    /// Creates (truncating any previous content) an empty WAL at `path`.
    pub fn create(path: &Path, fsync: FsyncPolicy) -> io::Result<Wal> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Wal {
            file,
            fsync,
            records: 0,
            metrics: WalMetrics::default(),
        })
    }

    /// Opens an existing WAL for recovery: reads every valid record,
    /// truncates the file to the valid prefix (discarding a torn tail),
    /// and returns the records, the reopened append handle, and whether a
    /// tail was discarded.
    pub fn recover(path: &Path, fsync: FsyncPolicy) -> io::Result<(Vec<WalRecord>, Wal, bool)> {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false) // existing records are the whole point
            .read(true)
            .write(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid_len) = decode_records(&bytes);
        let torn = valid_len != bytes.len();
        if torn {
            file.set_len(valid_len as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_len as u64))?;
        let records_count = records.len() as u64;
        Ok((
            records,
            Wal {
                file,
                fsync,
                records: records_count,
                metrics: WalMetrics::default(),
            },
            torn,
        ))
    }

    /// Appends one record, honoring the fsync policy. The `wal-mid-record`
    /// crash point flushes a half-written record then aborts — the torn
    /// tail recovery must cope with.
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<()> {
        let frame = encode_record(rec);
        if crash::hit("wal-mid-record") {
            let _ = self.file.write_all(&frame[..frame.len() / 2]);
            let _ = self.file.sync_data();
            eprintln!("egobtw: injected crash at \"wal-mid-record\"");
            std::process::abort();
        }
        self.file.write_all(&frame)?;
        if self.fsync == FsyncPolicy::Always {
            self.file.sync_data()?;
            self.metrics.fsyncs.inc();
        }
        self.records += 1;
        self.metrics.appends.inc();
        Ok(())
    }

    /// Swaps in registry-backed telemetry handles (detached by default).
    pub fn set_metrics(&mut self, metrics: WalMetrics) {
        self.metrics = metrics;
    }

    /// Forces every appended byte to stable storage, regardless of the
    /// fsync policy — the graceful-drain path's durability barrier, so a
    /// clean exit under [`FsyncPolicy::Never`] still leaves every acked
    /// record recoverable.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.metrics.fsyncs.inc();
        Ok(())
    }

    /// Empties the WAL (after a snapshot made its records redundant).
    pub fn truncate(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        if self.fsync == FsyncPolicy::Always {
            self.file.sync_data()?;
            self.metrics.fsyncs.inc();
        }
        self.records = 0;
        Ok(())
    }

    /// Records appended since creation or the last truncate.
    pub fn records(&self) -> u64 {
        self.records
    }
}

/// The snapshot file name for `epoch` (zero-padded so lexical order is
/// numeric order).
pub fn snapshot_name(epoch: u64) -> String {
    format!("snap-{epoch:016}.snap")
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

/// Best-effort directory fsync (directory entries — the rename — need
/// their own sync on POSIX; ignored where unsupported).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Writes the snapshot for `epoch` atomically (temp + rename), then
/// deletes older snapshot files. The `mid-compaction` crash point aborts
/// between the temp write and the rename, leaving the previous snapshot
/// authoritative.
pub fn write_snapshot_at(dir: &Path, g: &CsrGraph, epoch: u64) -> io::Result<()> {
    let tmp = dir.join("snap.tmp");
    write_snapshot_file(g, None, &tmp)?;
    crash::abort_if("mid-compaction");
    fs::rename(&tmp, dir.join(snapshot_name(epoch)))?;
    sync_dir(dir);
    // Older snapshots are now redundant; a failure to unlink is harmless
    // (recovery picks the newest parseable one).
    for (e, path) in list_snapshots(dir) {
        if e < epoch {
            let _ = fs::remove_file(path);
        }
    }
    Ok(())
}

fn list_snapshots(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut found = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Some(epoch) = entry.file_name().to_str().and_then(parse_snapshot_name) {
                found.push((epoch, entry.path()));
            }
        }
    }
    found.sort_unstable_by_key(|&(e, _)| e);
    found
}

/// Loads the newest parseable snapshot in `dir`: `(epoch, graph)`.
/// Unparseable files (e.g. half-written by a dying process that somehow
/// bypassed the temp+rename discipline) are skipped, falling back to the
/// next older one.
pub fn latest_snapshot(dir: &Path) -> Option<(u64, CsrGraph)> {
    for (epoch, path) in list_snapshots(dir).into_iter().rev() {
        if let Ok((g, _)) = read_snapshot_file(&path) {
            return Some((epoch, g));
        }
    }
    None
}

/// Writes the dataset manifest: format tag, name, and maintainer mode.
pub fn write_manifest(dir: &Path, name: &str, mode: Mode) -> io::Result<()> {
    let text = format!("{MANIFEST_TAG}\nname={name}\nmode={}\n", mode.render());
    let tmp = dir.join("MANIFEST.tmp");
    fs::write(&tmp, text)?;
    fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
    sync_dir(dir);
    Ok(())
}

/// Reads a dataset manifest back: `(name, mode)`.
pub fn read_manifest(dir: &Path) -> Result<(String, Mode), String> {
    let path = dir.join(MANIFEST_FILE);
    let text = fs::read_to_string(&path).map_err(|e| format!("read {path:?}: {e}"))?;
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_TAG) {
        return Err(format!("{path:?}: unknown manifest format"));
    }
    let mut name = None;
    let mut mode = None;
    for line in lines {
        if let Some(v) = line.strip_prefix("name=") {
            name = Some(v.to_string());
        } else if let Some(v) = line.strip_prefix("mode=") {
            mode = Some(Mode::parse(v)?);
        }
    }
    match (name, mode) {
        (Some(n), Some(m)) => Ok((n, m)),
        _ => Err(format!("{path:?}: missing name= or mode= line")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("egobtw-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord {
                epoch: 1,
                ops: vec![EdgeOp::Insert(0, 1), EdgeOp::Delete(2, 3)],
            },
            WalRecord {
                epoch: 2,
                ops: vec![],
            },
            WalRecord {
                epoch: 3,
                ops: vec![EdgeOp::Insert(7, 9)],
            },
        ]
    }

    #[test]
    fn wal_roundtrip_and_recover() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join(WAL_FILE);
        let mut wal = Wal::create(&path, FsyncPolicy::Always).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        assert_eq!(wal.records(), 3);
        drop(wal);
        let (records, wal, torn) = Wal::recover(&path, FsyncPolicy::Never).unwrap();
        assert!(!torn);
        assert_eq!(records, sample_records());
        assert_eq!(wal.records(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_truncated_and_appendable() {
        let dir = tmp_dir("torn");
        let path = dir.join(WAL_FILE);
        let mut wal = Wal::create(&path, FsyncPolicy::Never).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        drop(wal);
        let full = fs::read(&path).unwrap();
        // Simulate a crash mid-append: any strict prefix that cuts into
        // the last record recovers exactly the first two records.
        let (two, two_len) = decode_records(&full[..full.len() - 3]);
        assert_eq!(two.len(), 2);
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (records, mut wal, torn) = Wal::recover(&path, FsyncPolicy::Never).unwrap();
        assert!(torn);
        assert_eq!(records, sample_records()[..2]);
        assert_eq!(fs::metadata(&path).unwrap().len(), two_len as u64);
        // The next append lands cleanly after the valid prefix.
        let next = WalRecord {
            epoch: 3,
            ops: vec![EdgeOp::Delete(1, 2)],
        };
        wal.append(&next).unwrap();
        drop(wal);
        let (records, _, torn) = Wal::recover(&path, FsyncPolicy::Never).unwrap();
        assert!(!torn);
        assert_eq!(records.len(), 3);
        assert_eq!(records[2], next);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decode_rejects_absurd_length_without_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        let (records, valid) = decode_records(&bytes);
        assert!(records.is_empty());
        assert_eq!(valid, 0);
    }

    #[test]
    fn snapshot_rotation_keeps_newest() {
        let dir = tmp_dir("snaps");
        let g1 = CsrGraph::from_edges(4, &[(0, 1), (1, 2)]);
        let g2 = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        write_snapshot_at(&dir, &g1, 0).unwrap();
        write_snapshot_at(&dir, &g2, 5).unwrap();
        let (epoch, g) = latest_snapshot(&dir).unwrap();
        assert_eq!(epoch, 5);
        assert_eq!(g.m(), 3);
        assert_eq!(list_snapshots(&dir).len(), 1, "older snapshot deleted");
        // A corrupt newest snapshot falls back to an older parseable one.
        write_snapshot_at(&dir, &g1, 9).unwrap();
        fs::write(dir.join(snapshot_name(11)), b"garbage").unwrap();
        let (epoch, g) = latest_snapshot(&dir).unwrap();
        assert_eq!(epoch, 9);
        assert_eq!(g.m(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_roundtrip() {
        let dir = tmp_dir("manifest");
        for mode in [
            Mode::Delta { k: 32 },
            Mode::Lazy { k: 8 },
            Mode::Delta { k: 5 },
        ] {
            write_manifest(&dir, "ds-1", mode).unwrap();
            assert_eq!(read_manifest(&dir).unwrap(), ("ds-1".to_string(), mode));
        }
        fs::write(dir.join(MANIFEST_FILE), "not-a-manifest\n").unwrap();
        assert!(read_manifest(&dir).is_err());
        fs::remove_dir_all(&dir).ok();
    }
}
