//! Graph catalog: named datasets with epoch-swapped immutable snapshots,
//! sharded maps, per-shard writer pools, and optional durability.
//!
//! Each [`Dataset`] is split into a writer side and a reader side:
//!
//! * the **writer** — a dynamic maintainer ([`LocalIndex`] or
//!   [`LazyTopK`]) behind a `Mutex`, owning the mutable graph, plus the
//!   last published CSR. Update batches go through the maintainer's
//!   incremental path; the next epoch's CSR is that last one with only
//!   the rows of the batch's endpoints replaced ([`CsrGraph::with_rows`]:
//!   span copies of the untouched rows, no edge sort), so a publish
//!   costs a copy of the arrays plus the touched rows rather than an
//!   `O(m log m)` rebuild;
//! * the **reader** — an `RwLock<Arc<EpochSnapshot>>` holding the current
//!   epoch. Readers clone the `Arc` under a momentary read lock and then
//!   work entirely on immutable data, so a slow query never sees a
//!   half-applied batch and a slow writer never blocks query threads
//!   (the write lock is held only for the pointer swap).
//!
//! Every snapshot carries its own result cache; publishing a new epoch
//! abandons the old snapshot (and its cache) to the readers still holding
//! it, which makes cache invalidation structural — there is no way to
//! serve a stale cached answer for the current epoch. Within an epoch the
//! cache also **coalesces**: the first requester of a key claims a
//! compute ticket and everyone else arriving before it finishes blocks on
//! the pending slot instead of redundantly running the same engine
//! ([`EpochSnapshot::claim`]).
//!
//! The catalog itself is split into [`Catalog`] **shards** keyed by a
//! hash of the dataset name. Each shard has its own map lock and its own
//! lazily-spawned writer pool, so a writer storm on one dataset never
//! contends with lookups — or updates — of datasets living in other
//! shards.
//!
//! With a [`PersistConfig`], every dataset additionally owns a directory
//! holding a manifest, a CSR snapshot, and a write-ahead log of its
//! update batches (see [`crate::wal`]). The WAL append lands — and, under
//! [`crate::wal::FsyncPolicy::Always`], is fsynced — *before* the epoch
//! is published to readers, so no client ever observes an epoch that a
//! restart could lose.
//!
//! The two maintainer modes trade differently, which is the point of the
//! paper's exact (Algorithms 4–5) vs lazy (Algorithm 6) updates in a
//! serving context: [`Mode::Delta`] keeps every score exact and
//! re-certifies the top-k incrementally per op, so every snapshot
//! publishes exact entries at O(k log k); [`Mode::Lazy`] defers
//! recomputation, so a snapshot published after deletes may carry no
//! exact maintained top-k — the service then decides *when* to pay the
//! refresh via [`Dataset::refresh_maintained`] ([`LazyTopK::peek_top_k`]
//! tells it whether the cost is due at all).

use crate::wal::{self, crash, PersistConfig, Wal, WalMetrics, WalRecord, WAL_FILE};
use egobtw_core::registry::topk_from_scores;
use egobtw_dynamic::{EdgeOp, LazyTopK, LocalIndex};
use egobtw_graph::io::fnv1a64;
use egobtw_graph::{CsrGraph, FxHashMap, VertexId};
use egobtw_telemetry::{Counter, Gauge, Histogram, Registry};
use std::collections::HashMap;
use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// The `k` a dataset maintains when `LOAD` names no mode: [`Mode::default`]
/// is `delta:DEFAULT_PUBLISH_K`, so requests with `k` at most this are
/// answered without touching an engine or the writer lock.
pub const DEFAULT_PUBLISH_K: usize = 64;

/// Maintainer choice for a dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Lazy maintenance (Algorithm 6) at a fixed `k`: snapshots publish
    /// exact entries only when the maintained set happens to be fully
    /// fresh; otherwise the refresh cost is deferred to the first reader
    /// that needs exact values.
    Lazy {
        /// The maintained `k`.
        k: usize,
    },
    /// Exact local maintenance (Algorithms 4–5) at a fixed `k`: every
    /// score is kept exact by the Lemma 4–7 pair patches, and the top-k
    /// heap is re-certified per op, so every snapshot publishes exact
    /// entries without re-sorting all `n` scores.
    Delta {
        /// The maintained `k`.
        k: usize,
    },
}

impl Default for Mode {
    fn default() -> Self {
        Mode::Delta {
            k: DEFAULT_PUBLISH_K,
        }
    }
}

impl Mode {
    /// Parses the wire form: `lazy:K` or `delta:K`. The legacy spellings
    /// `local` and `local:K` (the retired exact-all-scores mode, still
    /// found in old MANIFESTs and client scripts) parse as `delta:64` and
    /// `delta:K`; `local:0` becomes `delta:1`, which likewise answers
    /// every `TOPK` exactly.
    pub fn parse(text: &str) -> Result<Mode, String> {
        let parse_k = |s: &str| s.parse::<usize>().map_err(|_| format!("bad mode k {s:?}"));
        if text == "local" {
            Ok(Mode::default())
        } else if let Some(k) = text.strip_prefix("local:") {
            Ok(Mode::Delta {
                k: parse_k(k)?.max(1),
            })
        } else if let Some(k) = text.strip_prefix("lazy:") {
            let k = parse_k(k)?;
            if k == 0 {
                return Err("lazy:k needs k ≥ 1".into());
            }
            Ok(Mode::Lazy { k })
        } else if let Some(k) = text.strip_prefix("delta:") {
            let k = parse_k(k)?;
            if k == 0 {
                return Err("delta:k needs k ≥ 1".into());
            }
            Ok(Mode::Delta { k })
        } else {
            Err(format!("bad mode {text:?}: expected lazy:K or delta:K"))
        }
    }

    /// The wire form parsed by [`Mode::parse`].
    pub fn render(&self) -> String {
        match self {
            Mode::Lazy { k } => format!("lazy:{k}"),
            Mode::Delta { k } => format!("delta:{k}"),
        }
    }

    /// Splits a CLI `PATH[:MODE]` spec, trying the longest mode suffix
    /// first (`…:lazy:8` before `…:local`) so paths containing `:` still
    /// work. Shared by `egobtw-serve --load` and `egobtw-cli --dataset`.
    pub fn split_path_mode(rest: &str) -> (String, Mode) {
        let segments: Vec<&str> = rest.split(':').collect();
        for take in [2usize, 1] {
            if segments.len() > take {
                let suffix = segments[segments.len() - take..].join(":");
                if let Ok(mode) = Mode::parse(&suffix) {
                    return (rest[..rest.len() - suffix.len() - 1].to_string(), mode);
                }
            }
        }
        (rest.to_string(), Mode::default())
    }
}

/// Cache key for one hot query at one epoch.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub enum CacheKey {
    /// A top-k answer under a named engine (`auto` included).
    TopK {
        /// Engine name.
        engine: String,
        /// Requested k.
        k: usize,
    },
    /// One vertex's exact score.
    Score(VertexId),
}

/// Shared, immutable ranked entries — the currency of the result cache.
pub type SharedEntries = Arc<Vec<(VertexId, f64)>>;

/// The in-flight side of a coalesced query: the first requester computes,
/// everyone else blocks here until the slot is filled.
pub struct PendingResult {
    state: Mutex<Option<Result<SharedEntries, String>>>,
    cv: Condvar,
}

impl PendingResult {
    fn new() -> Arc<Self> {
        Arc::new(PendingResult {
            state: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    /// Blocks until the computing requester fills the slot.
    pub fn wait(&self) -> Result<SharedEntries, String> {
        let mut g = self.state.lock().unwrap();
        while g.is_none() {
            g = self.cv.wait(g).unwrap();
        }
        g.as_ref().unwrap().clone()
    }

    fn fill(&self, result: Result<SharedEntries, String>) {
        *self.state.lock().unwrap() = Some(result);
        self.cv.notify_all();
    }
}

enum CacheSlot {
    Ready(SharedEntries),
    Pending(Arc<PendingResult>),
}

/// What [`EpochSnapshot::claim`] handed this requester.
pub enum Claim {
    /// The answer was cached — use it.
    Ready(SharedEntries),
    /// Another requester is computing the same key right now — call
    /// [`PendingResult::wait`].
    Wait(Arc<PendingResult>),
    /// This requester computes; it MUST consume the ticket via
    /// [`ComputeTicket::fulfill`] or [`ComputeTicket::fail`] (dropping it
    /// fails the waiters cleanly, so a panic cannot strand them).
    Compute(ComputeTicket),
}

/// Obligation to fill a claimed cache slot exactly once.
pub struct ComputeTicket {
    snap: Arc<EpochSnapshot>,
    key: CacheKey,
    slot: Arc<PendingResult>,
    done: bool,
}

impl ComputeTicket {
    /// Publishes the computed entries: caches them for later requesters at
    /// this epoch and wakes every coalesced waiter.
    pub fn fulfill(mut self, entries: SharedEntries) {
        self.snap
            .cache
            .lock()
            .unwrap()
            .insert(self.key.clone(), CacheSlot::Ready(entries.clone()));
        self.slot.fill(Ok(entries));
        self.done = true;
    }

    /// Propagates a computation error: the slot is vacated (a later
    /// requester may retry) and every waiter gets the error.
    pub fn fail(mut self, err: String) {
        self.snap.cache.lock().unwrap().remove(&self.key);
        self.slot.fill(Err(err));
        self.done = true;
    }
}

impl Drop for ComputeTicket {
    fn drop(&mut self) {
        if !self.done {
            self.snap.cache.lock().unwrap().remove(&self.key);
            self.slot
                .fill(Err("query computation aborted before completion".into()));
        }
    }
}

/// One immutable published epoch of a dataset.
pub struct EpochSnapshot {
    /// Epoch number: 0 at load (or the recovered epoch after a restart),
    /// +1 per published update batch.
    pub epoch: u64,
    /// The graph at this epoch.
    pub graph: Arc<CsrGraph>,
    /// Exact maintained top-k entries published with the snapshot, when
    /// the maintainer had them: always for [`Mode::Delta`] (length
    /// `min(k, n)`), and for [`Mode::Lazy`] only when the peek was fully
    /// fresh at publish time.
    pub maintained: Option<Vec<(VertexId, f64)>>,
    /// For [`Mode::Lazy`]: how many maintained members were stale at
    /// publish time (0 whenever `maintained` is `Some`).
    pub stale_members: usize,
    /// Per-epoch result cache. Dies with the snapshot, which *is* the
    /// invalidation scheme.
    cache: Mutex<FxHashMap<CacheKey, CacheSlot>>,
}

impl EpochSnapshot {
    fn new(
        epoch: u64,
        graph: Arc<CsrGraph>,
        maintained: Option<Vec<(VertexId, f64)>>,
        stale_members: usize,
    ) -> Self {
        EpochSnapshot {
            epoch,
            graph,
            maintained,
            stale_members,
            cache: Mutex::new(FxHashMap::default()),
        }
    }

    /// Cache lookup (ready answers only; pending slots are invisible here
    /// — use [`EpochSnapshot::claim`] to coalesce).
    pub fn cache_get(&self, key: &CacheKey) -> Option<SharedEntries> {
        match self.cache.lock().unwrap().get(key) {
            Some(CacheSlot::Ready(v)) => Some(v.clone()),
            _ => None,
        }
    }

    /// Cache insert (last writer wins; all writers computed the same
    /// answer for this epoch, so races are benign). If a pending slot was
    /// occupying the key, its waiters get this value.
    pub fn cache_put(&self, key: CacheKey, value: SharedEntries) {
        let previous = self
            .cache
            .lock()
            .unwrap()
            .insert(key, CacheSlot::Ready(value.clone()));
        if let Some(CacheSlot::Pending(p)) = previous {
            p.fill(Ok(value));
        }
    }

    /// Coalescing entry point: atomically either returns the cached
    /// answer, joins an in-flight computation, or makes this requester the
    /// computing one (single-flight per key per epoch).
    pub fn claim(self: &Arc<Self>, key: CacheKey) -> Claim {
        let mut cache = self.cache.lock().unwrap();
        match cache.get(&key) {
            Some(CacheSlot::Ready(v)) => Claim::Ready(v.clone()),
            Some(CacheSlot::Pending(p)) => Claim::Wait(p.clone()),
            None => {
                let slot = PendingResult::new();
                cache.insert(key.clone(), CacheSlot::Pending(slot.clone()));
                Claim::Compute(ComputeTicket {
                    snap: self.clone(),
                    key,
                    slot,
                    done: false,
                })
            }
        }
    }
}

/// Writer-side state: the maintainer plus the epoch it has reached.
enum Maintainer {
    Lazy(Box<LazyTopK>),
    Delta(Box<LocalIndex>),
}

impl Maintainer {
    fn build(g: &CsrGraph, mode: Mode) -> Maintainer {
        match mode {
            Mode::Lazy { k } => Maintainer::Lazy(Box::new(LazyTopK::new(g, k))),
            Mode::Delta { k } => Maintainer::Delta(Box::new(LocalIndex::new(g, k))),
        }
    }

    /// The exact entries to publish, if any, and how many maintained
    /// members are stale. A lazy set publishes only when fully fresh; the
    /// delta heap is re-certified after every applied op, so its read-off
    /// is O(k log k) with no full sort.
    fn maintained(&self) -> (Option<Vec<(VertexId, f64)>>, usize) {
        match self {
            Maintainer::Lazy(lz) => {
                let peek = lz.peek_top_k();
                (
                    (peek.stale_members == 0).then_some(peek.entries),
                    peek.stale_members,
                )
            }
            Maintainer::Delta(di) => (Some(di.top_k()), 0),
        }
    }

    fn apply(&mut self, op: EdgeOp) -> bool {
        match self {
            Maintainer::Lazy(lz) => lz.apply(op),
            Maintainer::Delta(di) => di.apply(op),
        }
    }

    /// `base` with the rows of `touched` replaced by the maintainer's
    /// current adjacency (see [`CsrGraph::with_rows`]); `base` itself when
    /// nothing was touched. `touched` must hold both endpoints of every op
    /// applied since `base`; it is sorted and deduplicated here.
    fn patch(&self, base: &Arc<CsrGraph>, touched: &mut Vec<VertexId>) -> Arc<CsrGraph> {
        if touched.is_empty() {
            return base.clone();
        }
        let g = match self {
            Maintainer::Lazy(lz) => lz.graph(),
            Maintainer::Delta(di) => di.graph(),
        };
        touched.sort_unstable();
        touched.dedup();
        let lists: Vec<Vec<VertexId>> = touched.iter().map(|&u| g.sorted_neighbors(u)).collect();
        let rows: Vec<(VertexId, &[VertexId])> = touched
            .iter()
            .zip(&lists)
            .map(|(&u, list)| (u, list.as_slice()))
            .collect();
        Arc::new(base.with_rows(&rows))
    }
}

/// Durable state of one dataset: its directory, open WAL, and compaction
/// cadence. Lives inside the writer lock, so appends are serialized with
/// the maintainer mutations they log.
struct DatasetPersist {
    dir: std::path::PathBuf,
    wal: Wal,
    compact_every: u64,
}

/// What the writer remembers about the last sequenced batch it applied —
/// enough to recognize a client's retry of an already-acked batch (same
/// expected-epoch token, same ops) and re-ack it without reapplying.
#[derive(Clone, Copy, Debug)]
struct SeqRecord {
    seq: u64,
    ops_hash: u64,
    outcome: UpdateOutcome,
}

struct Writer {
    maintainer: Maintainer,
    /// The last published graph: the maintainer's graph at `epoch`, which
    /// the next publish patches and compaction serializes.
    graph: Arc<CsrGraph>,
    epoch: u64,
    /// Total ops accepted (graph actually changed) since load or recovery.
    ops_applied: u64,
    persist: Option<DatasetPersist>,
    /// Last `seq=`-tokened batch applied (None after restart — recovery
    /// clients resolve ambiguity by comparing STATS epoch to their token).
    last_seq: Option<SeqRecord>,
}

/// Order-sensitive fingerprint of an op batch, for duplicate detection.
fn ops_fingerprint(ops: &[EdgeOp]) -> u64 {
    let mut bytes = Vec::with_capacity(ops.len() * 9);
    for op in ops {
        bytes.push(match op {
            EdgeOp::Insert(..) => b'+',
            EdgeOp::Delete(..) => b'-',
        });
        let (u, v) = op.endpoints();
        bytes.extend_from_slice(&u.to_le_bytes());
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Outcome of one published update batch.
#[derive(Clone, Copy, Debug)]
pub struct UpdateOutcome {
    /// Epoch of the snapshot the batch published.
    pub epoch: u64,
    /// Ops that changed the graph.
    pub applied: usize,
    /// No-op or out-of-range ops skipped (forgiving stream semantics,
    /// matching [`egobtw_dynamic::replay_graph`]).
    pub skipped: usize,
    /// Vertex count after the batch.
    pub n: usize,
    /// Edge count after the batch.
    pub m: usize,
}

/// What a restart reconstructed for one dataset.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryReport {
    /// Epoch of the snapshot file recovery started from.
    pub snapshot_epoch: u64,
    /// Epoch reached after replaying the WAL tail.
    pub epoch: u64,
    /// WAL records replayed (epochs past the snapshot).
    pub replayed: usize,
    /// Whether a torn tail was discarded from the WAL.
    pub torn_tail: bool,
}

/// Per-dataset telemetry bundle. Detached handles by default (usable
/// standalone in tests); [`Catalog::insert`] and [`Catalog::recover_all`]
/// swap in registry-backed handles labeled `dataset`/`shard`, so one
/// `METRICS` scrape covers every dataset of the catalog.
#[derive(Clone, Default)]
pub struct DatasetMetrics {
    /// Queries answered from the per-epoch result cache (cumulative
    /// across epochs; the caches themselves die on every publish).
    pub cache_hits: Arc<Counter>,
    /// Queries that had to run an engine.
    pub cache_misses: Arc<Counter>,
    /// Queries answered by joining another requester's in-flight
    /// computation of the same key at the same epoch.
    pub coalesced: Arc<Counter>,
    /// Exact ego-betweenness computations engines ran on this dataset.
    pub exact: Arc<Counter>,
    /// Candidate vertices engines pruned via upper bounds.
    pub pruned: Arc<Counter>,
    /// Triangles enumerated by engine computations.
    pub triangles: Arc<Counter>,
    /// Of `exact`, the egos OptBSearch's helper threads computed.
    pub helper_computations: Arc<Counter>,
    /// Current published epoch.
    pub epoch: Arc<Gauge>,
    /// Stale maintained members at the current epoch (lazy mode; 0
    /// elsewhere).
    pub stale_members: Arc<Gauge>,
    /// Snapshot compactions completed.
    pub compactions: Arc<Counter>,
    /// Per-UPDATE publish time in nanoseconds: patching the next epoch's
    /// CSR plus swapping it in for readers.
    pub publish_latency_ns: Arc<Histogram>,
    /// Per-UPDATE time in nanoseconds the maintainer spends applying the
    /// batch's ops.
    pub update_apply_ns: Arc<Histogram>,
    /// Per-UPDATE time in nanoseconds to append (and, under
    /// [`crate::wal::FsyncPolicy::Always`], fsync) the batch's WAL record;
    /// durable datasets only.
    pub wal_append_ns: Arc<Histogram>,
    /// WAL append/fsync counters handed to the dataset's [`Wal`].
    pub wal: WalMetrics,
}

impl DatasetMetrics {
    /// Registry-backed handles for `dataset` living in `shard`.
    pub fn registered(registry: &Registry, dataset: &str, shard: usize) -> Self {
        let shard = shard.to_string();
        let labels: &[(&str, &str)] = &[("dataset", dataset), ("shard", &shard)];
        let counter = |name, help: &str| registry.counter(name, help, labels);
        let histogram = |name, help: &str| registry.histogram(name, help, labels);
        DatasetMetrics {
            cache_hits: counter(
                "egobtw_cache_hits_total",
                "Queries answered from the per-epoch result cache.",
            ),
            cache_misses: counter(
                "egobtw_cache_misses_total",
                "Queries that had to run an engine.",
            ),
            coalesced: counter(
                "egobtw_cache_coalesced_total",
                "Queries that joined another requester's in-flight computation.",
            ),
            exact: counter(
                "egobtw_work_exact_total",
                "Exact ego-betweenness computations run by engines.",
            ),
            pruned: counter(
                "egobtw_work_pruned_total",
                "Candidate vertices pruned by engine upper bounds.",
            ),
            triangles: counter(
                "egobtw_work_triangles_total",
                "Triangles enumerated by engine computations.",
            ),
            helper_computations: counter(
                "egobtw_work_helper_computations_total",
                "Exact computations run on OptBSearch helper threads.",
            ),
            epoch: registry.gauge("egobtw_dataset_epoch", "Current published epoch.", labels),
            stale_members: registry.gauge(
                "egobtw_dataset_stale_members",
                "Stale maintained members at the current epoch (lazy mode).",
                labels,
            ),
            compactions: counter(
                "egobtw_wal_compactions_total",
                "Snapshot compactions completed.",
            ),
            publish_latency_ns: histogram(
                "egobtw_publish_latency_ns",
                "Per-UPDATE time to patch the next epoch's CSR and swap it in.",
            ),
            update_apply_ns: histogram(
                "egobtw_update_apply_ns",
                "Per-UPDATE time the maintainer spends applying the batch's ops.",
            ),
            wal_append_ns: histogram(
                "egobtw_wal_append_ns",
                "Per-UPDATE time to append the batch's WAL record (durable datasets).",
            ),
            wal: WalMetrics {
                appends: counter("egobtw_wal_appends_total", "WAL records appended."),
                fsyncs: counter("egobtw_wal_fsyncs_total", "Explicit WAL data syncs."),
            },
        }
    }
}

/// A named dataset: writer-side maintainer + reader-side current snapshot.
pub struct Dataset {
    name: String,
    mode: Mode,
    writer: Mutex<Writer>,
    current: RwLock<Arc<EpochSnapshot>>,
    retired: AtomicBool,
    metrics: DatasetMetrics,
}

impl Dataset {
    /// Builds the maintainer on `g` and publishes epoch 0 (in-memory only;
    /// see [`Dataset::create_persistent`] for the durable variant).
    pub fn new(name: impl Into<String>, g: CsrGraph, mode: Mode) -> Self {
        let maintainer = Maintainer::build(&g, mode);
        let graph = Arc::new(g);
        let (maintained, stale) = maintainer.maintained();
        let snapshot = EpochSnapshot::new(0, graph.clone(), maintained, stale);
        Dataset {
            name: name.into(),
            mode,
            writer: Mutex::new(Writer {
                maintainer,
                graph,
                epoch: 0,
                ops_applied: 0,
                persist: None,
                last_seq: None,
            }),
            current: RwLock::new(Arc::new(snapshot)),
            retired: AtomicBool::new(false),
            metrics: DatasetMetrics::default(),
        }
    }

    /// Builds a durable dataset: creates `<cfg.dir>/<name>/`, writes the
    /// manifest and the epoch-0 snapshot, opens an empty WAL, then
    /// publishes epoch 0. A leftover directory from an interrupted
    /// creation or an earlier incarnation is replaced.
    pub fn create_persistent(
        name: &str,
        g: CsrGraph,
        mode: Mode,
        cfg: &PersistConfig,
    ) -> Result<Self, String> {
        let dir = cfg.dir.join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        wal::write_manifest(&dir, name, mode).map_err(|e| format!("write manifest: {e}"))?;
        wal::write_snapshot_at(&dir, &g, 0).map_err(|e| format!("write snapshot: {e}"))?;
        let wal =
            Wal::create(&dir.join(WAL_FILE), cfg.fsync).map_err(|e| format!("create WAL: {e}"))?;
        let ds = Dataset::new(name, g, mode);
        ds.writer.lock().unwrap().persist = Some(DatasetPersist {
            dir,
            wal,
            compact_every: cfg.compact_every.max(1),
        });
        Ok(ds)
    }

    /// Rebuilds a dataset from its directory: newest parseable snapshot,
    /// then WAL tail replay (records at or before the snapshot epoch are
    /// skipped; a torn tail is truncated). The maintainer mode comes from
    /// the manifest, so a dataset recovers with the same serving semantics
    /// it was created with.
    pub fn recover(name: &str, cfg: &PersistConfig) -> Result<(Self, RecoveryReport), String> {
        let dir = cfg.dir.join(name);
        let (manifest_name, mode) = wal::read_manifest(&dir)?;
        if manifest_name != name {
            return Err(format!(
                "manifest in {dir:?} names dataset {manifest_name:?}, expected {name:?}"
            ));
        }
        let (snapshot_epoch, g) = wal::latest_snapshot(&dir)
            .ok_or_else(|| format!("no parseable snapshot in {dir:?}"))?;
        let (records, wal_handle, torn_tail) = Wal::recover(&dir.join(WAL_FILE), cfg.fsync)
            .map_err(|e| format!("recover WAL in {dir:?}: {e}"))?;
        let mut maintainer = Maintainer::build(&g, mode);
        let n = g.n();
        let mut epoch = snapshot_epoch;
        let mut ops_applied = 0u64;
        let mut replayed = 0usize;
        let mut touched = Vec::new();
        for rec in &records {
            if rec.epoch <= snapshot_epoch {
                continue; // compacted away logically; crash kept the bytes
            }
            if rec.epoch != epoch + 1 {
                break; // an epoch gap means the tail is not trustworthy
            }
            for &op in &rec.ops {
                let (u, v) = op.endpoints();
                if (u as usize) >= n || (v as usize) >= n {
                    continue;
                }
                if maintainer.apply(op) {
                    ops_applied += 1;
                    touched.extend([u, v]);
                }
            }
            epoch = rec.epoch;
            replayed += 1;
        }
        // One patch covers the whole replayed tail.
        let graph = maintainer.patch(&Arc::new(g), &mut touched);
        let writer = Writer {
            maintainer,
            graph,
            epoch,
            ops_applied,
            persist: Some(DatasetPersist {
                dir,
                wal: wal_handle,
                compact_every: cfg.compact_every.max(1),
            }),
            last_seq: None,
        };
        let snapshot = Self::build_snapshot(&writer);
        let ds = Dataset {
            name: name.to_string(),
            mode,
            writer: Mutex::new(writer),
            current: RwLock::new(snapshot),
            retired: AtomicBool::new(false),
            metrics: DatasetMetrics::default(),
        };
        Ok((
            ds,
            RecoveryReport {
                snapshot_epoch,
                epoch,
                replayed,
                torn_tail,
            },
        ))
    }

    /// The dataset's catalog name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dataset's telemetry handles (detached unless the dataset was
    /// created through a [`Catalog`]).
    pub fn metrics(&self) -> &DatasetMetrics {
        &self.metrics
    }

    /// Swaps in registry-backed telemetry (before the dataset becomes
    /// shared): wires the WAL counters through and seeds the epoch and
    /// staleness gauges from the current state.
    fn attach_metrics(&mut self, metrics: DatasetMetrics) {
        {
            let mut w = self.writer.lock().unwrap();
            if let Some(p) = w.persist.as_mut() {
                p.wal.set_metrics(metrics.wal.clone());
            }
            metrics.epoch.set(w.epoch as i64);
        }
        metrics
            .stale_members
            .set(self.snapshot().stale_members as i64);
        self.metrics = metrics;
    }

    /// The maintainer mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Whether this dataset journals its updates to a WAL.
    pub fn persisted(&self) -> bool {
        self.writer.lock().unwrap().persist.is_some()
    }

    /// Records currently in the WAL (0 when not persistent).
    pub fn wal_records(&self) -> u64 {
        self.writer
            .lock()
            .unwrap()
            .persist
            .as_ref()
            .map_or(0, |p| p.wal.records())
    }

    /// Whether the dataset has been retired by DROP (writes are refused).
    pub fn retired(&self) -> bool {
        self.retired.load(Ordering::SeqCst)
    }

    /// Total ops that changed the graph since load or recovery.
    pub fn ops_applied(&self) -> u64 {
        self.writer.lock().unwrap().ops_applied
    }

    /// The current snapshot. The read lock is held only for the clone.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        self.current.read().unwrap().clone()
    }

    /// Applies one update batch through the maintainer and publishes a new
    /// epoch. Ops whose endpoints are out of range, self-loops, duplicate
    /// inserts, and absent deletes are counted as skipped. For a durable
    /// dataset the raw batch is appended to the WAL (fsynced under
    /// [`crate::wal::FsyncPolicy::Always`]) *before* the publish, and a compaction
    /// runs afterwards once the WAL holds `compact_every` records.
    ///
    /// Errors when the dataset is retired, and on a WAL append failure —
    /// in which case the dataset retires itself, because the in-memory
    /// maintainer has advanced past what the log can replay.
    pub fn apply_updates(&self, ops: &[EdgeOp]) -> Result<UpdateOutcome, String> {
        self.apply_updates_seq(ops, None)
    }

    /// [`Dataset::apply_updates`] with an optional idempotency token: `seq`
    /// is the epoch the client believes is current, i.e. the epoch its ack
    /// would advance *from*. A batch whose token does not match the
    /// writer's epoch is refused (`stale seq`) — **unless** it re-sends the
    /// writer's last applied sequenced batch (same token, same ops), in
    /// which case the recorded outcome is re-acked without reapplying.
    /// That makes blind client retries of a lost `OK update` ack safe: at
    /// most one application, never a silent double-apply.
    pub fn apply_updates_seq(
        &self,
        ops: &[EdgeOp],
        seq: Option<u64>,
    ) -> Result<UpdateOutcome, String> {
        let mut w = self.writer.lock().unwrap();
        if self.retired() {
            return Err(format!("dataset {:?} is retired", self.name));
        }
        let ops_hash = seq.map(|_| ops_fingerprint(ops));
        if let Some(s) = seq {
            if let Some(last) = w.last_seq {
                if last.seq == s && Some(last.ops_hash) == ops_hash {
                    return Ok(last.outcome); // duplicate retry: re-ack
                }
            }
            if w.epoch != s {
                return Err(format!(
                    "stale seq={s}: dataset {:?} is at epoch {}",
                    self.name, w.epoch
                ));
            }
        }
        let n = w.graph.n();
        let mut applied = 0usize;
        let mut touched = Vec::with_capacity(2 * ops.len());
        let apply_start = Instant::now();
        for &op in ops {
            let (u, v) = op.endpoints();
            if (u as usize) >= n || (v as usize) >= n {
                continue; // skipped: out of range
            }
            if w.maintainer.apply(op) {
                applied += 1;
                touched.extend([u, v]);
            }
        }
        self.metrics
            .update_apply_ns
            .record(apply_start.elapsed().as_nanos() as u64);
        let epoch = w.epoch + 1;
        if let Some(p) = w.persist.as_mut() {
            let rec = WalRecord {
                epoch,
                ops: ops.to_vec(),
            };
            let append_start = Instant::now();
            let appended = p.wal.append(&rec);
            self.metrics
                .wal_append_ns
                .record(append_start.elapsed().as_nanos() as u64);
            if let Err(e) = appended {
                self.retired.store(true, Ordering::SeqCst);
                return Err(format!(
                    "WAL append failed, dataset {:?} retired: {e}",
                    self.name
                ));
            }
            crash::abort_if("post-append");
        }
        w.epoch = epoch;
        w.ops_applied += applied as u64;
        let publish_start = Instant::now();
        w.graph = w.maintainer.patch(&w.graph, &mut touched);
        let snapshot = Self::build_snapshot(&w);
        let (sn, sm) = (snapshot.graph.n(), snapshot.graph.m());
        let stale = snapshot.stale_members;
        *self.current.write().unwrap() = snapshot;
        self.metrics
            .publish_latency_ns
            .record(publish_start.elapsed().as_nanos() as u64);
        self.metrics.epoch.set(epoch as i64);
        self.metrics.stale_members.set(stale as i64);
        if let Some(p) = w.persist.as_ref() {
            if p.wal.records() >= p.compact_every {
                if let Err(e) = self.compact_locked(&mut w) {
                    // Compaction failure is not fatal: the WAL still holds
                    // every record a restart needs.
                    egobtw_telemetry::global().warn(
                        "compaction-failed",
                        &[("dataset", self.name.as_str()), ("error", e.as_str())],
                    );
                }
            }
        }
        let outcome = UpdateOutcome {
            epoch,
            applied,
            skipped: ops.len() - applied,
            n: sn,
            m: sm,
        };
        w.last_seq = seq.map(|s| SeqRecord {
            seq: s,
            ops_hash: ops_hash.unwrap_or(0),
            outcome,
        });
        Ok(outcome)
    }

    /// Forces the WAL's bytes to stable storage now, regardless of the
    /// fsync policy — the graceful-drain path calls this so an exit 0
    /// promises every acked epoch is durable even under
    /// [`crate::wal::FsyncPolicy::Never`]. No-op for in-memory datasets.
    pub fn sync_wal(&self) -> Result<(), String> {
        let mut w = self.writer.lock().unwrap();
        if let Some(p) = w.persist.as_mut() {
            p.wal
                .sync()
                .map_err(|e| format!("sync WAL of {:?}: {e}", self.name))?;
        }
        Ok(())
    }

    /// Forces a snapshot compaction now (also runs automatically every
    /// `compact_every` batches). Returns the epoch the snapshot captures.
    pub fn compact(&self) -> Result<u64, String> {
        let mut w = self.writer.lock().unwrap();
        if self.retired() {
            return Err(format!("dataset {:?} is retired", self.name));
        }
        self.compact_locked(&mut w)
    }

    fn compact_locked(&self, w: &mut Writer) -> Result<u64, String> {
        let epoch = w.epoch;
        let Some(p) = w.persist.as_mut() else {
            return Err("dataset is not persistent".into());
        };
        wal::write_snapshot_at(&p.dir, &w.graph, epoch)
            .map_err(|e| format!("write snapshot: {e}"))?;
        p.wal.truncate().map_err(|e| format!("truncate WAL: {e}"))?;
        self.metrics.compactions.inc();
        Ok(epoch)
    }

    /// Retires the dataset: marks it refused-for-writes, waits for any
    /// in-flight batch to drain (by taking the writer lock), and deletes
    /// its on-disk directory. Readers holding old snapshots keep them
    /// until they finish; new writes get an error.
    pub fn retire(&self) {
        self.retired.store(true, Ordering::SeqCst);
        let mut w = self.writer.lock().unwrap();
        if let Some(p) = w.persist.take() {
            let dir = p.dir.clone();
            drop(p); // close the WAL handle before unlinking
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// Builds the snapshot for the writer's current state around the
    /// already-patched `w.graph` (shared, not copied). Called with the
    /// writer lock held; the maintained top-k read-off happens outside any
    /// reader-visible lock.
    fn build_snapshot(w: &Writer) -> Arc<EpochSnapshot> {
        let (maintained, stale) = w.maintainer.maintained();
        Arc::new(EpochSnapshot::new(
            w.epoch,
            w.graph.clone(),
            maintained,
            stale,
        ))
    }

    /// Pays the deferred lazy refresh for `epoch`, if the writer is still
    /// at that epoch: refreshes the maintained set to exact values,
    /// republishes the snapshot (same epoch, same graph, `maintained`
    /// filled in), and returns the entries. Returns `None` when the writer
    /// has already moved past `epoch` (the caller falls back to running an
    /// engine on its snapshot) or the dataset is not lazy.
    pub fn refresh_maintained(&self, epoch: u64) -> Option<Vec<(VertexId, f64)>> {
        let mut w = self.writer.lock().unwrap();
        if w.epoch != epoch || self.retired() {
            return None;
        }
        let Maintainer::Lazy(lz) = &mut w.maintainer else {
            return None;
        };
        let entries = lz.top_k();
        let snapshot = Self::build_snapshot(&w);
        debug_assert_eq!(snapshot.epoch, epoch);
        debug_assert!(snapshot.maintained.is_some());
        *self.current.write().unwrap() = snapshot;
        self.metrics.stale_members.set(0);
        Some(entries)
    }

    /// Full exact score vector of the current writer state, computed from
    /// the published snapshot graph (used by STATS-style introspection and
    /// tests; not a hot path).
    pub fn exact_topk_uncached(&self, k: usize) -> Vec<(VertexId, f64)> {
        let snap = self.snapshot();
        topk_from_scores(&egobtw_core::compute_all(&snap.graph).0, k)
    }
}

struct UpdateJob {
    ds: Arc<Dataset>,
    ops: Vec<EdgeOp>,
    seq: Option<u64>,
    reply: Sender<Result<UpdateOutcome, String>>,
}

struct WriterPool {
    tx: Sender<UpdateJob>,
    handles: Vec<JoinHandle<()>>,
}

impl WriterPool {
    fn spawn(workers: usize) -> WriterPool {
        let (tx, rx) = channel::<UpdateJob>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers.max(1))
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("egobtw-writer-{i}"))
                    .spawn(move || loop {
                        // Take the lock only to pull a job, never while
                        // applying — co-workers must be able to pull jobs
                        // for other datasets of this shard concurrently.
                        let job = match rx.lock().unwrap().recv() {
                            Ok(job) => job,
                            Err(_) => return,
                        };
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            job.ds.apply_updates_seq(&job.ops, job.seq)
                        }))
                        .unwrap_or_else(|_| Err("update worker panicked applying batch".into()));
                        let _ = job.reply.send(result);
                    })
                    .expect("spawn writer thread")
            })
            .collect();
        WriterPool { tx, handles }
    }
}

struct Shard {
    map: RwLock<HashMap<String, Arc<Dataset>>>,
    pool: Mutex<Option<WriterPool>>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            map: RwLock::new(HashMap::new()),
            pool: Mutex::new(None),
        }
    }
}

/// Catalog construction knobs.
#[derive(Clone)]
pub struct CatalogConfig {
    /// Independent shards (map locks + writer pools). Dataset names hash
    /// to a shard; operations on different shards never contend.
    pub shards: usize,
    /// Writer threads per shard (spawned lazily on the first routed
    /// update).
    pub writers_per_shard: usize,
    /// Durability; `None` keeps every dataset in-memory only.
    pub persist: Option<PersistConfig>,
    /// Registry every dataset's telemetry lands in. The service shares
    /// its own registry here so one `METRICS` scrape covers the catalog.
    pub registry: Arc<Registry>,
}

impl std::fmt::Debug for CatalogConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CatalogConfig")
            .field("shards", &self.shards)
            .field("writers_per_shard", &self.writers_per_shard)
            .field("persist", &self.persist)
            .finish_non_exhaustive()
    }
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            shards: 8,
            writers_per_shard: 2,
            persist: None,
            registry: Arc::new(Registry::new()),
        }
    }
}

/// The named-dataset catalog, split into independent shards.
pub struct Catalog {
    shards: Vec<Shard>,
    writers_per_shard: usize,
    persist: Option<PersistConfig>,
    registry: Arc<Registry>,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::with_config(CatalogConfig::default())
    }
}

impl Catalog {
    /// An empty in-memory catalog with the default shard count.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// An empty catalog with explicit sharding/durability knobs.
    pub fn with_config(cfg: CatalogConfig) -> Self {
        Catalog {
            shards: (0..cfg.shards.max(1)).map(|_| Shard::new()).collect(),
            writers_per_shard: cfg.writers_per_shard.max(1),
            persist: cfg.persist,
            registry: cfg.registry,
        }
    }

    /// The registry dataset telemetry lands in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Checks a dataset name: non-empty, at most 200 bytes, charset
    /// `[A-Za-z0-9._-]`, and not dots-only. Names become file-system path
    /// components once durability is on, so `/`, `\`, `..` and friends
    /// must never pass.
    pub fn validate_name(name: &str) -> Result<(), String> {
        let charset_ok = name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'));
        if name.is_empty() || name.len() > 200 || !charset_ok || name.bytes().all(|b| b == b'.') {
            return Err(format!(
                "bad dataset name {name:?}: need 1-200 chars of [A-Za-z0-9._-], not dots-only"
            ));
        }
        Ok(())
    }

    fn shard(&self, name: &str) -> &Shard {
        &self.shards[self.shard_of(name)]
    }

    /// The shard index `name` hashes to.
    pub fn shard_of(&self, name: &str) -> usize {
        (fnv1a64(name.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether datasets are created durable.
    pub fn persistent(&self) -> bool {
        self.persist.is_some()
    }

    /// Registers a dataset built from `g`. Fails if the name is invalid
    /// (see [`Catalog::validate_name`]) or taken. With durability on, the
    /// dataset's directory, manifest, epoch-0 snapshot, and WAL are
    /// created before the insert becomes visible.
    pub fn insert(&self, name: &str, g: CsrGraph, mode: Mode) -> Result<Arc<Dataset>, String> {
        Self::validate_name(name)?;
        let shard = self.shard(name);
        // Build under the shard's write lock: only this shard blocks, and
        // two racing LOADs of one name cannot both create the directory.
        let mut map = shard.map.write().unwrap();
        if map.contains_key(name) {
            return Err(format!("dataset {name:?} already loaded"));
        }
        let mut ds = match &self.persist {
            Some(cfg) => Dataset::create_persistent(name, g, mode, cfg)?,
            None => Dataset::new(name, g, mode),
        };
        ds.attach_metrics(DatasetMetrics::registered(
            &self.registry,
            name,
            self.shard_of(name),
        ));
        let ds = Arc::new(ds);
        map.insert(name.to_string(), ds.clone());
        Ok(ds)
    }

    /// Looks a dataset up.
    pub fn get(&self, name: &str) -> Result<Arc<Dataset>, String> {
        self.shard(name)
            .map
            .read()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| format!("no dataset {name:?} (use LOAD first)"))
    }

    /// All dataset names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.map.read().unwrap().keys().cloned().collect::<Vec<_>>())
            .collect();
        names.sort();
        names
    }

    /// Routes an update batch through the dataset's shard writer pool and
    /// waits for the outcome. Batches for datasets in other shards run on
    /// other pools concurrently.
    pub fn apply_updates(&self, name: &str, ops: Vec<EdgeOp>) -> Result<UpdateOutcome, String> {
        self.apply_updates_seq(name, ops, None)
    }

    /// [`Catalog::apply_updates`] carrying the client's idempotency token
    /// through to [`Dataset::apply_updates_seq`].
    pub fn apply_updates_seq(
        &self,
        name: &str,
        ops: Vec<EdgeOp>,
        seq: Option<u64>,
    ) -> Result<UpdateOutcome, String> {
        let ds = self.get(name)?;
        let shard = self.shard(name);
        let (reply_tx, reply_rx) = channel();
        {
            let mut pool = shard.pool.lock().unwrap();
            let pool = pool.get_or_insert_with(|| WriterPool::spawn(self.writers_per_shard));
            pool.tx
                .send(UpdateJob {
                    ds,
                    ops,
                    seq,
                    reply: reply_tx,
                })
                .map_err(|_| "writer pool is shut down".to_string())?;
        }
        reply_rx
            .recv()
            .map_err(|_| "writer pool dropped the batch".to_string())?
    }

    /// Fsyncs every persistent dataset's WAL (see [`Dataset::sync_wal`]) —
    /// the drain path's durability barrier before exit 0. Returns the
    /// first error, after attempting every dataset.
    pub fn sync_all(&self) -> Result<(), String> {
        let mut first_err = None;
        for shard in &self.shards {
            let datasets: Vec<Arc<Dataset>> = shard.map.read().unwrap().values().cloned().collect();
            for ds in datasets {
                if let Err(e) = ds.sync_wal() {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Removes a dataset: unlinks it from the map (new lookups fail
    /// immediately), then retires it — draining any in-flight batch,
    /// refusing later writes, and deleting its WAL + snapshots. Readers
    /// holding its snapshots keep them alive until they finish.
    pub fn drop_dataset(&self, name: &str) -> Result<(), String> {
        let ds = self
            .shard(name)
            .map
            .write()
            .unwrap()
            .remove(name)
            .ok_or_else(|| format!("no dataset {name:?}"))?;
        // Outside the map lock: draining a mid-batch writer can take a
        // while, and lookups of other datasets must not wait for it.
        ds.retire();
        Ok(())
    }

    /// Recovers every dataset directory under the persistence root
    /// (directories holding a manifest), sorted by name. No-op for an
    /// in-memory catalog.
    pub fn recover_all(&self) -> Result<Vec<(String, RecoveryReport)>, String> {
        let Some(cfg) = self.persist.clone() else {
            return Ok(Vec::new());
        };
        let entries = match fs::read_dir(&cfg.dir) {
            Ok(e) => e,
            Err(_) => return Ok(Vec::new()), // nothing persisted yet
        };
        let mut names: Vec<String> = entries
            .flatten()
            .filter(|e| e.path().join(wal::MANIFEST_FILE).is_file())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| Self::validate_name(n).is_ok())
            .collect();
        names.sort();
        let mut out = Vec::new();
        for name in names {
            let (mut ds, report) = Dataset::recover(&name, &cfg)?;
            ds.attach_metrics(DatasetMetrics::registered(
                &self.registry,
                &name,
                self.shard_of(&name),
            ));
            self.shard(&name)
                .map
                .write()
                .unwrap()
                .insert(name.clone(), Arc::new(ds));
            out.push((name, report));
        }
        Ok(out)
    }
}

impl Drop for Catalog {
    fn drop(&mut self) {
        for shard in &self.shards {
            let pool = shard.pool.lock().unwrap().take();
            if let Some(pool) = pool {
                drop(pool.tx); // close the channel so workers exit
                for h in pool.handles {
                    let _ = h.join();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egobtw_gen::classic;

    #[test]
    fn mode_parse_and_render_roundtrip() {
        for text in ["delta:64", "delta:10", "lazy:8", "delta:8", "delta:1"] {
            assert_eq!(Mode::parse(text).unwrap().render(), text);
        }
        assert_eq!(
            Mode::default(),
            Mode::Delta {
                k: DEFAULT_PUBLISH_K
            }
        );
        // Legacy `local` spellings parse as exact delta modes and never
        // render back as `local`.
        for (legacy, canonical) in [
            ("local", "delta:64"),
            ("local:64", "delta:64"),
            ("local:10", "delta:10"),
            ("local:1", "delta:1"),
            ("local:0", "delta:1"),
        ] {
            let mode = Mode::parse(legacy).unwrap();
            assert_eq!(mode.render(), canonical, "{legacy:?}");
            assert_eq!(Mode::parse(&mode.render()).unwrap(), mode);
        }
        for bad in [
            "", "lazy", "lazy:0", "lazy:x", "local:", "local:x", "exact", "delta", "delta:0",
            "delta:x",
        ] {
            assert!(Mode::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn split_path_mode_handles_colons_in_paths() {
        assert_eq!(
            Mode::split_path_mode("/tmp/a.snap:lazy:8"),
            ("/tmp/a.snap".to_string(), Mode::Lazy { k: 8 })
        );
        assert_eq!(
            Mode::split_path_mode("/tmp/a.snap:local"),
            ("/tmp/a.snap".to_string(), Mode::default())
        );
        assert_eq!(
            Mode::split_path_mode("/tmp/a.snap"),
            ("/tmp/a.snap".to_string(), Mode::default())
        );
        // A ':' that is not a mode suffix stays part of the path.
        assert_eq!(
            Mode::split_path_mode("C:/data/a.snap"),
            ("C:/data/a.snap".to_string(), Mode::default())
        );
        assert_eq!(
            Mode::split_path_mode("/tmp/a.snap:delta:4"),
            ("/tmp/a.snap".to_string(), Mode::Delta { k: 4 })
        );
        assert_eq!(
            Mode::split_path_mode("/tmp/a.snap:local:4"),
            ("/tmp/a.snap".to_string(), Mode::Delta { k: 4 })
        );
    }

    #[test]
    fn epoch_advances_and_snapshots_are_isolated() {
        let ds = Dataset::new("k", classic::karate_club(), Mode::default());
        let before = ds.snapshot();
        assert_eq!(before.epoch, 0);
        let out = ds
            .apply_updates(&[EdgeOp::Insert(0, 9), EdgeOp::Insert(0, 9)])
            .unwrap();
        assert_eq!(out.epoch, 1);
        assert_eq!((out.applied, out.skipped), (1, 1));
        let after = ds.snapshot();
        assert_eq!(after.epoch, 1);
        // The old snapshot is untouched: readers in flight see epoch 0.
        assert_eq!(before.epoch, 0);
        assert_eq!(before.graph.m() + 1, after.graph.m());
        assert!(!before.graph.has_edge(0, 9) && after.graph.has_edge(0, 9));
    }

    #[test]
    fn out_of_range_and_self_loop_ops_are_skipped() {
        let ds = Dataset::new("k", classic::star(5), Mode::default());
        let out = ds
            .apply_updates(&[
                EdgeOp::Insert(0, 99), // out of range
                EdgeOp::Insert(3, 3),  // self-loop
                EdgeOp::Delete(1, 2),  // absent
                EdgeOp::Insert(1, 2),  // applies
            ])
            .unwrap();
        assert_eq!((out.applied, out.skipped), (1, 3));
        assert_eq!(ds.ops_applied(), 1);
    }

    #[test]
    fn local_mode_publishes_exact_maintained_topk() {
        let g = classic::karate_club();
        // The legacy `local:K` spelling is served by the exact delta index.
        let mode = Mode::parse("local:7").unwrap();
        assert_eq!(mode, Mode::Delta { k: 7 });
        let ds = Dataset::new("k", g.clone(), mode);
        let snap = ds.snapshot();
        let maintained = snap.maintained.as_ref().unwrap();
        assert_eq!(maintained.len(), 7);
        assert_eq!(
            *maintained,
            topk_from_scores(&egobtw_core::compute_all(&g).0, 7)
        );
    }

    #[test]
    fn delta_mode_publishes_exact_maintained_topk_every_epoch() {
        let g = classic::karate_club();
        let ds = Dataset::new("k", g.clone(), Mode::Delta { k: 5 });
        let check = |snap: &EpochSnapshot| {
            let maintained = snap.maintained.as_ref().expect("delta always publishes");
            let truth = topk_from_scores(&egobtw_core::compute_all(&snap.graph).0, 5);
            assert_eq!(*maintained, truth);
        };
        check(&ds.snapshot());
        // Deletes — the case where lazy defers — still publish exact.
        ds.apply_updates(&[EdgeOp::Delete(0, 1), EdgeOp::Insert(9, 15)])
            .unwrap();
        let snap = ds.snapshot();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.stale_members, 0);
        check(&snap);
        // Refresh is a lazy-only concept; delta has nothing deferred.
        assert!(ds.refresh_maintained(1).is_none());
    }

    #[test]
    fn lazy_mode_defers_and_refresh_republishes_same_epoch() {
        // Deleting an edge with common neighbors leaves stale members
        // (Example 8), so the published snapshot defers the refresh.
        let g = egobtw_gen::toy::paper_graph();
        let ds = Dataset::new("toy", g, Mode::Lazy { k: 12 });
        assert!(ds.snapshot().maintained.is_some(), "fresh at load");
        ds.apply_updates(&[EdgeOp::Delete(
            egobtw_gen::toy::ids::C,
            egobtw_gen::toy::ids::G,
        )])
        .unwrap();
        let snap = ds.snapshot();
        assert_eq!(snap.epoch, 1);
        assert!(snap.maintained.is_none(), "stale members defer publish");
        assert!(snap.stale_members > 0);
        // Paying the refresh republishes the same epoch with entries.
        let entries = ds.refresh_maintained(1).expect("writer still at epoch 1");
        let snap2 = ds.snapshot();
        assert_eq!(snap2.epoch, 1);
        assert_eq!(snap2.maintained.as_ref().unwrap(), &entries);
        assert!(
            Arc::ptr_eq(&snap.graph, &snap2.graph),
            "a refresh republishes the epoch's graph, it does not rebuild it"
        );
        // Refresh for a stale epoch is refused.
        ds.apply_updates(&[EdgeOp::Insert(0, 5)]).unwrap();
        assert!(ds.refresh_maintained(1).is_none());
    }

    #[test]
    fn cache_lives_and_dies_with_the_epoch() {
        let ds = Dataset::new("k", classic::karate_club(), Mode::default());
        let key = CacheKey::TopK {
            engine: "auto".into(),
            k: 3,
        };
        let snap = ds.snapshot();
        assert!(snap.cache_get(&key).is_none());
        snap.cache_put(key.clone(), Arc::new(vec![(0, 1.0)]));
        assert!(snap.cache_get(&key).is_some());
        ds.apply_updates(&[EdgeOp::Insert(0, 9)]).unwrap();
        assert!(
            ds.snapshot().cache_get(&key).is_none(),
            "new epoch starts with an empty cache"
        );
    }

    #[test]
    fn claim_coalesces_single_flight_per_key() {
        let ds = Dataset::new("k", classic::karate_club(), Mode::default());
        let snap = ds.snapshot();
        let key = CacheKey::TopK {
            engine: "auto".into(),
            k: 3,
        };
        let Claim::Compute(ticket) = snap.claim(key.clone()) else {
            panic!("first claim computes");
        };
        // Everyone else joins the pending slot while the ticket is open.
        assert!(matches!(snap.claim(key.clone()), Claim::Wait(_)));
        ticket.fulfill(Arc::new(vec![(0, 1.0)]));
        assert!(matches!(snap.claim(key.clone()), Claim::Ready(_)));
        assert!(snap.cache_get(&key).is_some());
    }

    #[test]
    fn dropped_ticket_fails_waiters_and_vacates_slot() {
        let ds = Dataset::new("k", classic::karate_club(), Mode::default());
        let snap = ds.snapshot();
        let key = CacheKey::TopK {
            engine: "bsearch".into(),
            k: 2,
        };
        let Claim::Compute(ticket) = snap.claim(key.clone()) else {
            panic!("first claim computes");
        };
        let Claim::Wait(pending) = snap.claim(key.clone()) else {
            panic!("second claim waits");
        };
        drop(ticket); // simulated panic in the computing requester
        assert!(pending.wait().is_err());
        // Slot is vacated: the next requester computes afresh.
        assert!(matches!(snap.claim(key), Claim::Compute(_)));
    }

    #[test]
    fn name_validation_rejects_path_shaped_names() {
        for bad in [
            "",
            ".",
            "..",
            "...",
            "a/b",
            "../etc",
            "a\\b",
            "a b",
            "a:b",
            "a*",
            "café",
            &"x".repeat(201),
        ] {
            assert!(Catalog::validate_name(bad).is_err(), "{bad:?}");
        }
        for good in ["a", "karate--w10", "ds_1.snap", "A-Z.0", &"x".repeat(200)] {
            assert!(Catalog::validate_name(good).is_ok(), "{good:?}");
        }
    }

    #[test]
    fn catalog_insert_get_list_drop() {
        let cat = Catalog::new();
        cat.insert("a", classic::star(4), Mode::default()).unwrap();
        cat.insert("b", classic::path(4), Mode::Lazy { k: 2 })
            .unwrap();
        assert!(cat.insert("a", classic::star(4), Mode::default()).is_err());
        assert!(cat
            .insert("bad name", classic::star(4), Mode::default())
            .is_err());
        assert!(cat
            .insert("../traversal", classic::star(4), Mode::default())
            .is_err());
        assert_eq!(cat.names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(cat.get("b").unwrap().mode(), Mode::Lazy { k: 2 });
        assert!(cat.get("c").is_err());
        cat.drop_dataset("a").unwrap();
        assert!(cat.drop_dataset("a").is_err());
        assert_eq!(cat.names(), vec!["b".to_string()]);
    }

    #[test]
    fn dropped_dataset_refuses_writes() {
        let cat = Catalog::new();
        let ds = cat.insert("a", classic::star(6), Mode::default()).unwrap();
        ds.apply_updates(&[EdgeOp::Insert(1, 2)]).unwrap();
        cat.drop_dataset("a").unwrap();
        assert!(ds.retired());
        let err = ds.apply_updates(&[EdgeOp::Insert(2, 3)]).unwrap_err();
        assert!(err.contains("retired"), "{err}");
        // The name is free again.
        cat.insert("a", classic::star(6), Mode::default()).unwrap();
    }

    #[test]
    fn seq_token_duplicate_retry_reacks_without_reapplying() {
        let ds = Dataset::new("k", classic::star(8), Mode::default());
        let batch = [EdgeOp::Insert(1, 2), EdgeOp::Insert(2, 3)];
        let first = ds.apply_updates_seq(&batch, Some(0)).unwrap();
        assert_eq!(first.epoch, 1);
        assert_eq!(first.applied, 2);
        // A blind retry of the same (seq, ops) — a lost ack — re-acks the
        // recorded outcome; nothing applies twice.
        let again = ds.apply_updates_seq(&batch, Some(0)).unwrap();
        assert_eq!((again.epoch, again.applied), (first.epoch, first.applied));
        assert_eq!(ds.snapshot().epoch, 1, "no phantom epoch from the retry");
        assert_eq!(ds.ops_applied(), 2);
    }

    #[test]
    fn seq_token_mismatch_is_refused_naming_the_epoch() {
        let ds = Dataset::new("k", classic::star(8), Mode::default());
        ds.apply_updates_seq(&[EdgeOp::Insert(1, 2)], Some(0))
            .unwrap();
        // Wrong expectation: refused, and the error names where we are.
        let err = ds
            .apply_updates_seq(&[EdgeOp::Insert(3, 4)], Some(0))
            .unwrap_err();
        assert!(err.contains("stale seq=0") && err.ends_with('1'), "{err}");
        // Same token but *different* ops is not the duplicate-retry case:
        // acking it would claim we applied a batch we never saw.
        let err = ds
            .apply_updates_seq(&[EdgeOp::Insert(5, 6)], Some(0))
            .unwrap_err();
        assert!(err.contains("stale seq"), "{err}");
        assert_eq!(ds.snapshot().epoch, 1);
        // The correct next token proceeds.
        let out = ds
            .apply_updates_seq(&[EdgeOp::Insert(3, 4)], Some(1))
            .unwrap();
        assert_eq!(out.epoch, 2);
    }

    #[test]
    fn unsequenced_updates_keep_at_least_once_semantics() {
        let ds = Dataset::new("k", classic::star(8), Mode::default());
        let batch = [EdgeOp::Insert(1, 2)];
        assert_eq!(ds.apply_updates_seq(&batch, None).unwrap().epoch, 1);
        // Without a token the same bytes are a *new* batch (dup insert
        // skips, but the epoch still advances) — exactly at-least-once.
        let again = ds.apply_updates_seq(&batch, None).unwrap();
        assert_eq!((again.epoch, again.applied, again.skipped), (2, 0, 1));
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let cat = Catalog::with_config(CatalogConfig {
            shards: 4,
            ..CatalogConfig::default()
        });
        assert_eq!(cat.shard_count(), 4);
        for name in ["a", "b", "karate--w10", "tenant-042"] {
            let s = cat.shard_of(name);
            assert!(s < 4);
            assert_eq!(s, cat.shard_of(name), "stable");
        }
    }

    #[test]
    fn catalog_routes_updates_through_shard_pools() {
        let cat = Catalog::with_config(CatalogConfig {
            shards: 2,
            writers_per_shard: 2,
            ..CatalogConfig::default()
        });
        cat.insert("a", classic::star(8), Mode::default()).unwrap();
        cat.insert("b", classic::path(8), Mode::default()).unwrap();
        let out = cat
            .apply_updates("a", vec![EdgeOp::Insert(1, 2), EdgeOp::Insert(2, 3)])
            .unwrap();
        assert_eq!(out.epoch, 1);
        assert_eq!(out.applied, 2);
        let out = cat.apply_updates("b", vec![EdgeOp::Insert(0, 2)]).unwrap();
        assert_eq!(out.epoch, 1);
        assert!(cat.apply_updates("zzz", vec![]).is_err());
        // Pool threads are joined on drop without deadlocking.
        drop(cat);
    }
}
