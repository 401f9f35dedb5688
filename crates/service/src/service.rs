//! In-process query API: parse → execute → render.
//!
//! [`Service`] is the protocol-agnostic core the TCP server, the CLI's
//! in-process loadgen mode, tests, and examples all share. It is `&self`
//! throughout and internally synchronized, so one `Arc<Service>` serves
//! any number of threads.
//!
//! Per-request **engine selection**: a `TOPK` request either names a
//! registry engine (any [`egobtw_core::builtin_engines`] name, run on the
//! request's snapshot and cached per epoch) or says `auto`, in which case
//! the service picks the cheapest correct source in order:
//!
//! 1. the snapshot's **maintained** entries (published by the dynamic
//!    maintainer — free; `delta` datasets publish on every epoch, so
//!    requests with `k ≤ maintained` never touch an engine);
//! 2. for a lazy dataset that deferred its refresh: pay the refresh once
//!    via [`Dataset::refresh_maintained`], which republishes the epoch
//!    with exact entries (amortized across all subsequent readers);
//! 3. the per-epoch **cache**;
//! 4. the default search engine (OptBSearch, θ=1.05) on the snapshot,
//!    cached for the epoch.

use crate::catalog::{
    CacheKey, Catalog, CatalogConfig, Claim, EpochSnapshot, Mode, RecoveryReport,
};
use crate::obs::ServiceMetrics;
use crate::proto::{format_entries, parse_command, split_deadline, split_trace, Command};
use egobtw_core::naive::ego_betweenness_of;
use egobtw_core::opt_search::{opt_bsearch_cancellable, OptParams};
use egobtw_core::registry::{builtin_engines, RegisteredEngine};
use egobtw_core::stats::SearchStats;
use egobtw_core::{approx_topk_cancellable, ApproxParams, Cancel, Cancelled};
use egobtw_graph::io::{read_edge_list_file, read_snapshot_file, IoError, SNAPSHOT_MAGIC};
use egobtw_graph::{CsrGraph, VertexId};
use egobtw_telemetry::span::{Phase, PhaseTimer, Trace};
use egobtw_telemetry::{unix_ms, Counter, Gauge, Registry, SlowEntry};
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a `TOPK auto` answer came from (reported on the wire so clients,
/// tests, and the loadgen can assert cache/maintained behavior).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopkSource {
    /// Served from the snapshot's published maintained entries.
    Maintained,
    /// Served by paying the deferred lazy refresh for this epoch.
    Refreshed,
    /// Served from the per-epoch result cache.
    Cache,
    /// Joined another requester's in-flight computation of the same
    /// (engine, k) at the same epoch and waited for its answer.
    Coalesced,
    /// Computed by the named engine on the snapshot (and cached).
    Engine(String),
}

impl TopkSource {
    fn render(&self) -> String {
        match self {
            TopkSource::Maintained => "maintained".into(),
            TopkSource::Refreshed => "refreshed".into(),
            TopkSource::Cache => "cache".into(),
            TopkSource::Coalesced => "coalesced".into(),
            TopkSource::Engine(name) => format!("engine({name})"),
        }
    }
}

/// Structured reply to one command; [`Reply::render`] is the wire form.
#[derive(Clone, Debug)]
pub enum Reply {
    /// LOAD succeeded.
    Load {
        /// Dataset name.
        name: String,
        /// Vertex count.
        n: usize,
        /// Edge count.
        m: usize,
        /// Maintainer mode.
        mode: Mode,
        /// Whether the file was a binary snapshot (vs a text edge list).
        snapshot: bool,
    },
    /// TOPK answer.
    Topk {
        /// Dataset name.
        name: String,
        /// Epoch the answer is exact for.
        epoch: u64,
        /// Requested k.
        k: usize,
        /// Where the answer came from.
        source: TopkSource,
        /// `min(k, n)` entries, descending score.
        entries: Arc<Vec<(VertexId, f64)>>,
    },
    /// SCORE answer.
    Score {
        /// Dataset name.
        name: String,
        /// Epoch the answer is exact for.
        epoch: u64,
        /// `(vertex, CB)` in request order.
        entries: Vec<(VertexId, f64)>,
        /// How many came from the per-epoch cache.
        cached: usize,
    },
    /// COMMON answer.
    Common {
        /// Dataset name.
        name: String,
        /// Epoch the answer is exact for.
        epoch: u64,
        /// Sorted common neighbors of the two endpoints.
        witnesses: Vec<VertexId>,
    },
    /// UPDATE outcome.
    Update(
        /// Dataset name.
        String,
        /// Batch outcome.
        crate::catalog::UpdateOutcome,
    ),
    /// STATS counters.
    Stats {
        /// Dataset name.
        name: String,
        /// Current epoch.
        epoch: u64,
        /// Vertex count.
        n: usize,
        /// Edge count.
        m: usize,
        /// Maintainer mode.
        mode: Mode,
        /// Published maintained entries in the current snapshot (absent
        /// for a lazy dataset that deferred its refresh).
        maintained: Option<usize>,
        /// Stale members at publish time (lazy only).
        stale_members: usize,
        /// Ops that changed the graph since load.
        ops_applied: u64,
        /// Cumulative cache hits.
        cache_hits: u64,
        /// Cumulative cache misses.
        cache_misses: u64,
        /// Queries that coalesced onto another requester's computation.
        coalesced: u64,
        /// Catalog shard this dataset hashes to.
        shard: usize,
        /// Whether updates are journaled to a WAL.
        persisted: bool,
        /// Records currently in the WAL (0 when not persisted).
        wal_records: u64,
        /// Cumulative pair samples drawn by `approx:` engine runs.
        approx_samples: u64,
        /// Cumulative adaptive rounds before the approx stopping rule
        /// fired, across `approx:` engine runs.
        approx_rounds: u64,
        /// Service-wide: requests shed with `ERR busy`.
        shed: u64,
        /// Service-wide: requests that blew their deadline.
        timeouts: u64,
        /// Service-wide: requests cancelled by client disconnect.
        cancelled: u64,
        /// Service-wide: engine computations in flight right now.
        inflight: i64,
        /// Vertices engines computed exactly on this dataset (Table II's
        /// metric, cumulative).
        exact: u64,
        /// Vertices engines pruned via upper bounds (cumulative).
        pruned: u64,
        /// Triangles engines enumerated (cumulative).
        triangles: u64,
        /// Of `exact`, the egos OptBSearch's helper threads computed
        /// (cumulative).
        helper_computations: u64,
    },
    /// LIST answer.
    List(
        /// Sorted dataset names.
        Vec<String>,
    ),
    /// DROP succeeded.
    Dropped(
        /// Dataset name.
        String,
    ),
    /// COMPACT succeeded.
    Compacted {
        /// Dataset name.
        name: String,
        /// Epoch the fresh snapshot captures.
        epoch: u64,
    },
    /// PING answer.
    Pong,
    /// METRICS answer: the full Prometheus text exposition (multi-line;
    /// the command must therefore be the only line of its frame).
    Metrics(
        /// Rendered exposition.
        String,
    ),
    /// SLOWLOG answer: drained outliers (multi-line when entries exist;
    /// the command must therefore be the only line of its frame).
    Slowlog {
        /// Drained entries, oldest first.
        entries: Vec<SlowEntry>,
        /// Entries evicted before anyone drained them.
        dropped: u64,
    },
}

impl Reply {
    /// The wire form: a single response line for everything except
    /// [`Reply::Metrics`] and a non-empty [`Reply::Slowlog`], which span
    /// multiple lines (and are therefore restricted to single-line
    /// frames by the handler).
    pub fn render(&self) -> String {
        match self {
            Reply::Load {
                name,
                n,
                m,
                mode,
                snapshot,
            } => format!(
                "OK load name={name} n={n} m={m} mode={} format={}",
                mode.render(),
                if *snapshot { "snapshot" } else { "edges" }
            ),
            Reply::Topk {
                name,
                epoch,
                k,
                source,
                entries,
            } => format!(
                "OK top name={name} epoch={epoch} k={k} source={} entries={}",
                source.render(),
                format_entries(entries)
            ),
            Reply::Score {
                name,
                epoch,
                entries,
                cached,
            } => format!(
                "OK score name={name} epoch={epoch} cached={cached} entries={}",
                format_entries(entries)
            ),
            Reply::Common {
                name,
                epoch,
                witnesses,
            } => {
                let list: Vec<String> = witnesses.iter().map(|w| w.to_string()).collect();
                format!(
                    "OK common name={name} epoch={epoch} count={} entries={}",
                    witnesses.len(),
                    list.join(",")
                )
            }
            Reply::Update(name, out) => format!(
                "OK update name={name} epoch={} applied={} skipped={} n={} m={}",
                out.epoch, out.applied, out.skipped, out.n, out.m
            ),
            Reply::Stats {
                name,
                epoch,
                n,
                m,
                mode,
                maintained,
                stale_members,
                ops_applied,
                cache_hits,
                cache_misses,
                coalesced,
                shard,
                persisted,
                wal_records,
                approx_samples,
                approx_rounds,
                shed,
                timeouts,
                cancelled,
                inflight,
                exact,
                pruned,
                triangles,
                helper_computations,
            } => format!(
                "OK stats name={name} epoch={epoch} n={n} m={m} mode={} maintained={} \
                 stale_members={stale_members} ops_applied={ops_applied} \
                 cache_hits={cache_hits} cache_misses={cache_misses} coalesced={coalesced} \
                 shard={shard} persisted={persisted} wal_records={wal_records} \
                 approx_samples={approx_samples} approx_rounds={approx_rounds} \
                 shed={shed} timeouts={timeouts} cancelled={cancelled} inflight={inflight} \
                 exact={exact} pruned={pruned} triangles={triangles} \
                 helper_computations={helper_computations}",
                mode.render(),
                maintained.map_or_else(|| "none".into(), |l| l.to_string()),
            ),
            Reply::List(names) => format!("OK list datasets={}", names.join(",")),
            Reply::Dropped(name) => format!("OK drop name={name}"),
            Reply::Compacted { name, epoch } => format!("OK compact name={name} epoch={epoch}"),
            Reply::Pong => "OK pong".into(),
            Reply::Metrics(text) => text.trim_end_matches('\n').to_string(),
            Reply::Slowlog { entries, dropped } => {
                let mut out = format!("OK slowlog count={} dropped={dropped}", entries.len());
                for e in entries {
                    out.push('\n');
                    out.push_str(&e.render());
                }
                out
            }
        }
    }
}

/// Parses the `approx:EPS,DELTA` engine token into validated sampler
/// parameters. The seed is fixed: one epoch, one token, one answer — the
/// per-epoch cache can serve repeats byte-identically, and replays are
/// reproducible (the sampler itself is bit-deterministic by seed).
fn parse_approx_engine(spec: &str) -> Result<ApproxParams, String> {
    let bad = || {
        format!(
            "bad approx engine {spec:?}: expected approx:EPS,DELTA \
             with 0 < EPS ≤ 1 and 0 < DELTA < 1"
        )
    };
    let (eps_s, delta_s) = spec.split_once(',').ok_or_else(bad)?;
    let eps: f64 = eps_s.trim().parse().map_err(|_| bad())?;
    let delta: f64 = delta_s.trim().parse().map_err(|_| bad())?;
    if !(eps > 0.0 && eps <= 1.0 && delta > 0.0 && delta < 1.0) {
        return Err(bad());
    }
    Ok(ApproxParams::new(eps, delta))
}

/// Reads a graph file, sniffing binary snapshot vs text edge list from
/// the magic bytes; the flag says which it was.
pub fn read_graph_file_sniffed(path: &str) -> Result<(CsrGraph, bool), String> {
    let is_snapshot = {
        let mut f = std::fs::File::open(path).map_err(|e| format!("open {path:?}: {e}"))?;
        let mut magic = [0u8; 8];
        match f.read(&mut magic) {
            Ok(got) => got == 8 && magic == SNAPSHOT_MAGIC,
            Err(e) => return Err(format!("read {path:?}: {e}")),
        }
    };
    let bad = |e: IoError| format!("load {path:?}: {e}");
    let g = if is_snapshot {
        read_snapshot_file(path).map_err(bad)?.0
    } else {
        read_edge_list_file(path).map_err(bad)?.0
    };
    Ok((g, is_snapshot))
}

/// [`read_graph_file_sniffed`] without the format flag.
pub fn read_graph_file(path: &str) -> Result<CsrGraph, String> {
    read_graph_file_sniffed(path).map(|(g, _)| g)
}

/// Suggested client back-off carried in a load-shed `ERR busy` reply.
pub const SHED_RETRY_MS: u64 = 50;

/// Overload counters and the compute watermark, shared service-wide.
///
/// The counters appear in every `STATS` reply and in the `METRICS`
/// exposition so operators (and the conformance chaos driver) can see
/// shedding and deadline pressure on either surface. Detached handles by
/// default; [`Service::with_config`] registers them.
#[derive(Default)]
pub struct OverloadState {
    /// Requests refused with `ERR busy` at the compute watermark.
    pub shed: Arc<Counter>,
    /// Requests abandoned because their deadline expired.
    pub timeouts: Arc<Counter>,
    /// Requests abandoned because the client vanished (explicit cancel).
    pub cancelled: Arc<Counter>,
    /// Engine computations running right now.
    pub inflight: Arc<Gauge>,
    /// Max concurrent engine computations before shedding (0 = no limit).
    pub compute_watermark: AtomicU64,
}

impl OverloadState {
    fn registered(registry: &Registry) -> Self {
        OverloadState {
            shed: registry.counter(
                "egobtw_shed_total",
                "Requests refused with ERR busy at the compute watermark.",
                &[],
            ),
            timeouts: registry.counter(
                "egobtw_timeouts_total",
                "Requests abandoned because their deadline expired.",
                &[],
            ),
            cancelled: registry.counter(
                "egobtw_client_cancelled_total",
                "Requests abandoned because the client vanished.",
                &[],
            ),
            inflight: registry.gauge(
                "egobtw_compute_inflight",
                "Engine computations running right now.",
                &[],
            ),
            compute_watermark: AtomicU64::new(0),
        }
    }
}

/// Decrements the in-flight gauge even if the engine panics.
struct InflightGuard<'a>(&'a Gauge);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

/// The shared, internally synchronized query service.
pub struct Service {
    catalog: Catalog,
    engines: Vec<RegisteredEngine>,
    overload: OverloadState,
    default_deadline: Option<Duration>,
    metrics: ServiceMetrics,
}

impl Default for Service {
    fn default() -> Self {
        Service::new()
    }
}

impl Service {
    /// An empty in-memory service with the full builtin engine registry.
    pub fn new() -> Self {
        Service::with_config(CatalogConfig::default())
    }

    /// A service with explicit catalog knobs (shard count, writer pool
    /// width, durability). Recovery of previously persisted datasets is a
    /// separate, explicit step: [`Service::recover`].
    pub fn with_config(cfg: CatalogConfig) -> Self {
        // One registry spans every layer: the catalog's dataset series,
        // the overload counters, and the request-outcome series all land
        // where a single `METRICS` scrape finds them.
        let metrics = ServiceMetrics::new(cfg.registry.clone());
        let overload = OverloadState::registered(&cfg.registry);
        Service {
            catalog: Catalog::with_config(cfg),
            engines: builtin_engines(),
            overload,
            default_deadline: None,
            metrics,
        }
    }

    /// The service's observability bundle (registry, slow-query log,
    /// request-outcome counters).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Sets the deadline applied to every command line that carries no
    /// explicit `DEADLINE` prefix (`None` = unlimited). Call before
    /// sharing the service.
    pub fn set_default_deadline(&mut self, deadline: Option<Duration>) {
        self.default_deadline = deadline;
    }

    /// Sets the compute watermark: once this many engine computations are
    /// in flight, further cache-missing `TOPK` requests are shed with
    /// `ERR busy retry_after_ms=…` instead of queuing on the CPU
    /// (0 = no limit). Call before sharing the service.
    pub fn set_compute_watermark(&mut self, watermark: u64) {
        self.overload
            .compute_watermark
            .store(watermark, Ordering::Relaxed);
    }

    /// The service-wide overload counters.
    pub fn overload(&self) -> &OverloadState {
        &self.overload
    }

    /// Translates an engine-level [`Cancelled`] into the wire error,
    /// bumping the matching counter: an explicit flag means the client is
    /// gone, otherwise the request's deadline expired.
    fn cancelled_err(&self, cancel: &Cancel) -> String {
        if cancel.is_flagged() {
            self.overload.cancelled.inc();
            "cancelled (client gone)".into()
        } else {
            self.overload.timeouts.inc();
            "deadline exceeded".into()
        }
    }

    /// Recovers every dataset directory under the persistence root (newest
    /// parseable snapshot + WAL tail replay). Returns what was rebuilt,
    /// sorted by name; empty for an in-memory service.
    pub fn recover(&self) -> Result<Vec<(String, RecoveryReport)>, String> {
        self.catalog.recover_all()
    }

    /// The catalog (for direct inspection in tests and tools).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Registers an in-memory graph, skipping the filesystem — the path
    /// tests, examples, and in-process loadgen use.
    pub fn load_graph(&self, name: &str, g: CsrGraph, mode: Mode) -> Result<Reply, String> {
        let (n, m) = (g.n(), g.m());
        self.catalog.insert(name, g, mode)?;
        Ok(Reply::Load {
            name: name.to_string(),
            n,
            m,
            mode,
            snapshot: false,
        })
    }

    /// Loads a dataset file, sniffing binary snapshot vs text edge list
    /// from the magic bytes.
    pub fn load_path(&self, name: &str, path: &str, mode: Mode) -> Result<Reply, String> {
        let (g, is_snapshot) = read_graph_file_sniffed(path)?;
        let (n, m) = (g.n(), g.m());
        self.catalog.insert(name, g, mode)?;
        Ok(Reply::Load {
            name: name.to_string(),
            n,
            m,
            mode,
            snapshot: is_snapshot,
        })
    }

    /// Folds one engine run's work counters into the request trace, the
    /// dataset's cumulative counters (the `STATS` surface), and the
    /// per-engine registry series (the `METRICS` surface).
    fn record_engine_work(
        &self,
        ds: &crate::catalog::Dataset,
        engine_label: &str,
        stats: &SearchStats,
        trace: &mut Trace,
    ) {
        trace.work.exact += stats.exact_computations as u64;
        trace.work.pruned += stats.pruned as u64;
        trace.work.triangles += stats.triangles_processed;
        trace.work.bound_refreshes += stats.bound_refreshes as u64;
        trace.work.helper_computations += stats.helper_computations as u64;
        let m = ds.metrics();
        m.exact.add(stats.exact_computations as u64);
        m.pruned.add(stats.pruned as u64);
        m.triangles.add(stats.triangles_processed);
        m.helper_computations.add(stats.helper_computations as u64);
        let registry = self.metrics.registry();
        let labels: &[(&str, &str)] = &[("engine", engine_label)];
        registry
            .counter(
                "egobtw_engine_exact_total",
                "Vertices computed exactly, by engine.",
                labels,
            )
            .add(stats.exact_computations as u64);
        registry
            .counter(
                "egobtw_engine_pruned_total",
                "Vertices pruned by upper bounds, by engine.",
                labels,
            )
            .add(stats.pruned as u64);
        registry
            .counter(
                "egobtw_engine_triangles_total",
                "Triangles processed, by engine.",
                labels,
            )
            .add(stats.triangles_processed);
        registry
            .counter(
                "egobtw_engine_helper_computations_total",
                "Exact computations run on OptBSearch helper threads, by engine.",
                labels,
            )
            .add(stats.helper_computations as u64);
    }

    fn run_engine_cached(
        &self,
        ds: &crate::catalog::Dataset,
        snap: &Arc<EpochSnapshot>,
        engine_name: &str,
        k: usize,
        cancel: &Cancel,
        trace: &mut Trace,
    ) -> Result<(crate::catalog::SharedEntries, TopkSource), String> {
        // Resolve the engine before claiming a cache slot, so an unknown
        // name (or a malformed approx spec) can never leave a pending
        // slot behind.
        let mut approx: Option<ApproxParams> = None;
        let engine = if engine_name == "auto" {
            None
        } else if let Some(spec) = engine_name.strip_prefix("approx:") {
            approx = Some(parse_approx_engine(spec)?);
            None
        } else {
            Some(
                self.engines
                    .iter()
                    .find(|e| e.name() == engine_name)
                    .ok_or_else(|| format!("unknown engine {engine_name:?}"))?,
            )
        };
        let key = CacheKey::TopK {
            engine: engine_name.to_string(),
            k,
        };
        match snap.claim(key) {
            Claim::Ready(hit) => {
                ds.metrics().cache_hits.inc();
                Ok((hit, TopkSource::Cache))
            }
            Claim::Wait(pending) => {
                // Identical query in flight: wait for its answer instead
                // of burning another engine run on the same epoch.
                ds.metrics().coalesced.inc();
                Ok((pending.wait()?, TopkSource::Coalesced))
            }
            Claim::Compute(ticket) => {
                ds.metrics().cache_misses.inc();
                // Load shedding at the compute watermark: refusing here —
                // after the cache/coalesce fast paths, before the engine —
                // sheds exactly the requests that would pile CPU work onto
                // an already saturated box. Dropping `ticket` fails any
                // coalesced waiters with an error, which is right: they
                // were waiting on work that is not going to happen.
                let watermark = self.overload.compute_watermark.load(Ordering::Relaxed);
                let running = self.overload.inflight.add_and_get(1);
                let _guard = InflightGuard(&self.overload.inflight);
                if watermark > 0 && running as u64 > watermark {
                    self.overload.shed.inc();
                    return Err(format!("busy retry_after_ms={SHED_RETRY_MS}"));
                }
                let label = if engine_name == "auto" {
                    "core::opt_search(θ=1.05)".to_string()
                } else {
                    engine_name.to_string()
                };
                let timer = PhaseTimer::start(Phase::Compute);
                let mut work = SearchStats::default();
                let mut run = || -> Result<Vec<(VertexId, f64)>, Cancelled> {
                    Ok(match (engine, &approx) {
                        (None, Some(params)) => {
                            let result = approx_topk_cancellable(&snap.graph, k, params, cancel)?;
                            ds.metrics().approx_samples.add(result.samples_drawn);
                            ds.metrics().approx_rounds.add(u64::from(result.rounds));
                            trace.work.samples += result.samples_drawn;
                            trace.work.rounds += u64::from(result.rounds);
                            result.topk_entries()
                        }
                        (None, None) => {
                            let result = opt_bsearch_cancellable(
                                &snap.graph,
                                k,
                                OptParams { theta: 1.05 },
                                cancel,
                            )?;
                            work = result.stats;
                            result.entries
                        }
                        (Some(engine), _) => {
                            let result =
                                engine.topk_with_stats_cancellable(&snap.graph, k, cancel)?;
                            work = result.stats;
                            result.entries
                        }
                    })
                };
                let outcome = run().map_err(|Cancelled| self.cancelled_err(cancel));
                trace.end(timer);
                self.record_engine_work(ds, &label, &work, trace);
                let entries = Arc::new(outcome?);
                ticket.fulfill(entries.clone());
                Ok((entries, TopkSource::Engine(label)))
            }
        }
    }

    fn topk(
        &self,
        name: &str,
        k: usize,
        engine: &str,
        cancel: &Cancel,
        trace: &mut Trace,
    ) -> Result<Reply, String> {
        let timer = PhaseTimer::start(Phase::Snapshot);
        let ds = self.catalog.get(name)?;
        let snap = ds.snapshot();
        trace.end(timer);
        let n = snap.graph.n();
        let want = k.min(n);

        let (entries, source) = if engine == "auto" {
            // 1. Published maintained entries cover the request for free.
            if let Some(m) = snap.maintained.as_ref().filter(|m| want <= m.len()) {
                (Arc::new(m[..want].to_vec()), TopkSource::Maintained)
            } else if matches!(ds.mode(), Mode::Lazy { k: lk } if want <= lk.min(n))
                && snap.maintained.is_none()
            {
                // 2. Lazy dataset that deferred its refresh: pay it now.
                let timer = PhaseTimer::start(Phase::Compute);
                let refreshed = ds.refresh_maintained(snap.epoch);
                trace.end(timer);
                match refreshed {
                    Some(full) => (Arc::new(full[..want].to_vec()), TopkSource::Refreshed),
                    // Writer already moved on; answer for *our* snapshot
                    // via the engine path so the epoch stays truthful.
                    None => self.run_engine_cached(&ds, &snap, "auto", k, cancel, trace)?,
                }
            } else {
                // 3./4. Cache, then the default engine.
                self.run_engine_cached(&ds, &snap, "auto", k, cancel, trace)?
            }
        } else {
            self.run_engine_cached(&ds, &snap, engine, k, cancel, trace)?
        };
        debug_assert_eq!(entries.len(), want);
        Ok(Reply::Topk {
            name: name.to_string(),
            epoch: snap.epoch,
            k,
            source,
            entries,
        })
    }

    fn score(
        &self,
        name: &str,
        vertices: &[VertexId],
        cancel: &Cancel,
        trace: &mut Trace,
    ) -> Result<Reply, String> {
        let timer = PhaseTimer::start(Phase::Snapshot);
        let ds = self.catalog.get(name)?;
        let snap = ds.snapshot();
        trace.end(timer);
        let n = snap.graph.n();
        let mut entries = Vec::with_capacity(vertices.len());
        let mut cached = 0usize;
        let timer = PhaseTimer::start(Phase::Compute);
        for &v in vertices {
            if (v as usize) >= n {
                trace.end(timer);
                return Err(format!("vertex {v} out of range (n={n})"));
            }
            // One ego is the unit of work here; poll between egos so a
            // long SCORE list honors its deadline too.
            if let Err(Cancelled) = cancel.check() {
                trace.end(timer);
                return Err(self.cancelled_err(cancel));
            }
            let key = CacheKey::Score(v);
            let score = if let Some(hit) = snap.cache_get(&key) {
                ds.metrics().cache_hits.inc();
                cached += 1;
                hit[0].1
            } else {
                ds.metrics().cache_misses.inc();
                let s = ego_betweenness_of(&*snap.graph, v);
                trace.work.exact += 1;
                snap.cache_put(key, Arc::new(vec![(v, s)]));
                s
            };
            entries.push((v, score));
        }
        trace.end(timer);
        Ok(Reply::Score {
            name: name.to_string(),
            epoch: snap.epoch,
            entries,
            cached,
        })
    }

    fn common(&self, name: &str, u: VertexId, v: VertexId) -> Result<Reply, String> {
        let ds = self.catalog.get(name)?;
        let snap = ds.snapshot();
        let n = snap.graph.n();
        if (u as usize) >= n || (v as usize) >= n {
            return Err(format!("endpoint out of range (n={n})"));
        }
        let mut witnesses = Vec::new();
        if u != v {
            snap.graph.common_neighbors_into(u, v, &mut witnesses);
        }
        Ok(Reply::Common {
            name: name.to_string(),
            epoch: snap.epoch,
            witnesses,
        })
    }

    fn stats(&self, name: &str) -> Result<Reply, String> {
        let ds = self.catalog.get(name)?;
        let snap = ds.snapshot();
        Ok(Reply::Stats {
            name: name.to_string(),
            epoch: snap.epoch,
            n: snap.graph.n(),
            m: snap.graph.m(),
            mode: ds.mode(),
            maintained: snap.maintained.as_ref().map(|m| m.len()),
            stale_members: snap.stale_members,
            ops_applied: ds.ops_applied(),
            cache_hits: ds.metrics().cache_hits.get(),
            cache_misses: ds.metrics().cache_misses.get(),
            coalesced: ds.metrics().coalesced.get(),
            shard: self.catalog.shard_of(name),
            persisted: ds.persisted(),
            wal_records: ds.wal_records(),
            approx_samples: ds.metrics().approx_samples.get(),
            approx_rounds: ds.metrics().approx_rounds.get(),
            shed: self.overload.shed.get(),
            timeouts: self.overload.timeouts.get(),
            cancelled: self.overload.cancelled.get(),
            inflight: self.overload.inflight.get(),
            exact: ds.metrics().exact.get(),
            pruned: ds.metrics().pruned.get(),
            triangles: ds.metrics().triangles.get(),
            helper_computations: ds.metrics().helper_computations.get(),
        })
    }

    /// Executes one parsed command without a cancellation context.
    pub fn execute(&self, cmd: &Command) -> Result<Reply, String> {
        self.execute_with(cmd, &Cancel::never())
    }

    /// Executes one parsed command under a cancellation token: compute
    /// paths (`TOPK`, `SCORE`) poll it and return `deadline exceeded` /
    /// `cancelled` errors; `UPDATE` runs to completion regardless — a
    /// batch is acked or not, never half-cancelled (retries stay safe via
    /// the `seq` idempotency token).
    pub fn execute_with(&self, cmd: &Command, cancel: &Cancel) -> Result<Reply, String> {
        self.execute_traced(cmd, cancel, &mut Trace::start())
    }

    /// [`Service::execute_with`] recording phase timings and engine work
    /// counters into `trace` — the request-path entry, shared by the
    /// `TRACE` prefix and the slow-query log.
    fn execute_traced(
        &self,
        cmd: &Command,
        cancel: &Cancel,
        trace: &mut Trace,
    ) -> Result<Reply, String> {
        match cmd {
            Command::Load { name, path, mode } => self.load_path(name, path, *mode),
            Command::Topk { name, k, engine } => self.topk(name, *k, engine, cancel, trace),
            Command::Score { name, vertices } => self.score(name, vertices, cancel, trace),
            Command::Common { name, u, v } => self.common(name, *u, *v),
            Command::Update { name, ops, seq } => {
                // Routed through the dataset's shard writer pool: a storm
                // on one shard never blocks other shards' writers.
                let timer = PhaseTimer::start(Phase::Compute);
                let out = self.catalog.apply_updates_seq(name, ops.clone(), *seq);
                trace.end(timer);
                Ok(Reply::Update(name.clone(), out?))
            }
            Command::Stats { name } => self.stats(name),
            Command::List => Ok(Reply::List(self.catalog.names())),
            Command::Drop { name } => {
                self.catalog.drop_dataset(name)?;
                Ok(Reply::Dropped(name.clone()))
            }
            Command::Compact { name } => {
                let ds = self.catalog.get(name)?;
                let epoch = ds.compact()?;
                Ok(Reply::Compacted {
                    name: name.clone(),
                    epoch,
                })
            }
            Command::Ping => Ok(Reply::Pong),
            Command::Metrics => Ok(Reply::Metrics(self.metrics.registry().render())),
            Command::Slowlog => {
                let entries = self.metrics.slowlog().drain();
                Ok(Reply::Slowlog {
                    dropped: self.metrics.slowlog().dropped(),
                    entries,
                })
            }
        }
    }

    /// The verb and dataset labels one parsed command reports under.
    fn cmd_meta(cmd: &Command) -> (&'static str, &str) {
        match cmd {
            Command::Load { name, .. } => ("LOAD", name),
            Command::Topk { name, .. } => ("TOPK", name),
            Command::Score { name, .. } => ("SCORE", name),
            Command::Common { name, .. } => ("COMMON", name),
            Command::Update { name, .. } => ("UPDATE", name),
            Command::Stats { name } => ("STATS", name),
            Command::List => ("LIST", ""),
            Command::Drop { name } => ("DROP", name),
            Command::Compact { name } => ("COMPACT", name),
            Command::Ping => ("PING", ""),
            Command::Metrics => ("METRICS", ""),
            Command::Slowlog => ("SLOWLOG", ""),
        }
    }

    /// Parses and executes one line, rendering the response line (`ERR …`
    /// on parse or execution failure — the connection stays usable).
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_line_with(line, &Cancel::never())
    }

    /// [`Service::handle_line`] under a request-scoped cancellation token
    /// (typically connection-scoped, fired by the server when the client
    /// disconnects). A `DEADLINE <ms>` prefix — or, absent one, the
    /// service's default deadline — derives a tighter per-line token, and
    /// an already expired token is refused before any work starts.
    pub fn handle_line_with(&self, line: &str, cancel: &Cancel) -> String {
        self.handle_line_observed(line, cancel, true, None)
    }

    /// [`Service::handle_line_with`] with externally measured queue-wait
    /// nanoseconds folded into the trace (the TCP server hands down how
    /// long the connection sat in the acceptor queue).
    pub fn handle_line_queued(&self, line: &str, cancel: &Cancel, queue_ns: u64) -> String {
        self.handle_line_observed(line, cancel, true, Some(queue_ns))
    }

    /// The fully observed request path: outcome accounting (see
    /// [`crate::obs`] for the invariant), span tracing, per-verb latency,
    /// slow-query capture, and the opt-in `TRACE` reply suffix.
    ///
    /// `sole` says whether this line is the only line of its frame —
    /// `METRICS` and `SLOWLOG` render multi-line replies, which would
    /// corrupt the one-response-line-per-command-line pairing if another
    /// command shared the frame, so they are refused mid-frame.
    fn handle_line_observed(
        &self,
        line: &str,
        cancel: &Cancel,
        sole: bool,
        queue_ns: Option<u64>,
    ) -> String {
        self.metrics.admitted.inc();
        let mut trace = Trace::start();
        if let Some(ns) = queue_ns {
            trace.add_ns(Phase::Queue, ns);
        }
        let mut want_trace = false;
        let mut verb = "?";
        let mut dataset = String::new();
        let result = (|| -> Result<Reply, String> {
            let timer = PhaseTimer::start(Phase::Parse);
            let (traced, rest) = split_trace(line)?;
            want_trace = traced;
            let (ms, rest) = split_deadline(rest)?;
            let budget = ms.map(Duration::from_millis).or(self.default_deadline);
            let cancel = match budget {
                Some(d) => cancel.with_deadline(Instant::now() + d),
                None => cancel.clone(),
            };
            // Deadline-at-dequeue: a request that expired waiting in the
            // server queue is answered (with ERR), never computed.
            cancel
                .check()
                .map_err(|Cancelled| self.cancelled_err(&cancel))?;
            let cmd = parse_command(rest)?;
            trace.end(timer);
            let (v, ds) = Self::cmd_meta(&cmd);
            verb = v;
            dataset = ds.to_string();
            if matches!(cmd, Command::Metrics | Command::Slowlog) && !sole {
                return Err(format!("{verb} must be the only line in its frame"));
            }
            if matches!(cmd, Command::Metrics) {
                // Count this request's completion *before* rendering the
                // exposition, so admitted == completed+cancelled+failed
                // holds within the scrape it returns.
                self.metrics.completed.inc();
            }
            self.execute_traced(&cmd, &cancel, &mut trace)
        })();
        let timer = PhaseTimer::start(Phase::Serialize);
        let mut rendered = match &result {
            Ok(reply) => reply.render(),
            Err(e) => format!("ERR {e}"),
        };
        trace.end(timer);
        match &result {
            Ok(Reply::Metrics(_)) => {} // counted before the render above
            Ok(_) => self.metrics.completed.inc(),
            Err(e) if e == "deadline exceeded" || e.starts_with("cancelled") => {
                self.metrics.cancelled.inc();
            }
            Err(_) => self.metrics.failed.inc(),
        }
        let total_ns = trace.total_ns();
        self.metrics.latency(verb).record(total_ns);
        self.metrics.slowlog().maybe_record(total_ns, || SlowEntry {
            seq: 0, // assigned by the log
            unix_ms: unix_ms(),
            verb: verb.to_string(),
            dataset: dataset.clone(),
            total_ns,
            breakdown: trace.summary(),
        });
        if want_trace && !rendered.contains('\n') {
            rendered.push_str(" trace=");
            rendered.push_str(&trace.summary());
        }
        rendered
    }

    /// Handles one request payload: one response line per command line.
    pub fn handle_payload(&self, payload: &str) -> String {
        self.handle_payload_with(payload, &Cancel::never())
    }

    /// [`Service::handle_payload`] under a request-scoped token.
    pub fn handle_payload_with(&self, payload: &str, cancel: &Cancel) -> String {
        self.handle_payload_queued(payload, cancel, 0)
    }

    /// [`Service::handle_payload_with`] with the frame's queue-wait
    /// nanoseconds attributed to its first command line.
    pub fn handle_payload_queued(&self, payload: &str, cancel: &Cancel, queue_ns: u64) -> String {
        let lines: Vec<&str> = payload.lines().filter(|l| !l.trim().is_empty()).collect();
        if lines.is_empty() {
            return "ERR empty request".into();
        }
        let sole = lines.len() == 1;
        let mut out = String::new();
        for (i, line) in lines.iter().enumerate() {
            let queue = (i == 0).then_some(queue_ns);
            out.push_str(&self.handle_line_observed(line, cancel, sole, queue));
            out.push('\n');
        }
        out.pop(); // single trailing newline off; frames carry the length
        out
    }
}
