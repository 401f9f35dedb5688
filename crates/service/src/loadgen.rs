//! Load-generating client: mixed read/update workloads, latency
//! percentiles, and an oracle-checked mode.
//!
//! One run drives each dataset with `threads` client threads: thread 0 is
//! the single **writer** (it owns the dataset's whole update stream, so
//! the mapping *epoch → op prefix* is well defined), the rest are
//! **readers** issuing a TOPK-heavy query mix. With `check` on, readers
//! sample their top-k responses and, after the run, every sampled answer
//! is verified against a from-scratch replay of the writer's stream at
//! that epoch — truth from [`ego_betweenness_reference`] (zero machinery
//! shared with any engine), compared with the `conformance` crate's
//! tie-aware comparator. A served answer that was stale, torn, or
//! cache-leaked across epochs cannot pass.
//!
//! A run covers one or more **scenarios**, each tagged with a `kind`:
//!
//! * `mixed` — named read/write mixes (e.g. `read-heavy` at 10% writes,
//!   `update-heavy` at 50%): every dataset is driven once per scenario,
//!   under a catalog name mangled with the scenario name so epochs never
//!   bleed across scenarios.
//! * `recovery` — per dataset: a write burst into a WAL-backed in-process
//!   service, a full teardown, a **timed restart recovery**, then an
//!   oracle-checked read phase against the recovered epoch.
//! * `skew` — all datasets driven **concurrently** against one catalog,
//!   with every write aimed at the first (hot) dataset: the sharded
//!   catalog's worst case, cold readers must not stall behind the hot
//!   shard's writer storm.
//! * `multi-tenant` — 100+ tiny synthesized datasets in one catalog with
//!   light per-tenant traffic; one aggregate record.
//! * `overload` — a deliberately tiny TCP server (2 workers, 2-slot
//!   queue, compute watermark 1) hammered past saturation: records the
//!   admitted-request QPS, the shed rate, and the latency percentiles of
//!   the requests that *were* admitted — and asserts every refused
//!   request got an explicit `ERR`, never a hang.
//!
//! Results go to `BENCH_service.json` (schema `egobtw/bench-service/v4`),
//! one record per (scenario, dataset) with throughput and read/update
//! latency percentiles; [`validate`] is the CI schema check.
//!
//! Writers send every `UPDATE` with a `seq=` idempotency token and retry
//! refused or failed batches under jittered exponential backoff — a retry
//! of an acked batch is re-acked, not reapplied, so at-least-once
//! delivery never double-applies an op.
//!
//! The oracle check replays the writer's stream from scratch per sampled
//! epoch with a cubic-per-vertex reference, so it is automatically
//! skipped (and recorded as skipped) for datasets larger than
//! [`LoadgenConfig::check_max_n`] — large graphs get throughput numbers,
//! small ones get proofs.

use crate::catalog::{CatalogConfig, Mode};
use crate::proto::parse_entries;
use crate::server::{
    connect_with_retry, is_retryable_response, roundtrip, RetryPolicy, Server, ServerConfig,
};
use crate::service::Service;
use crate::wal::{FsyncPolicy, PersistConfig};
use conformance::{check_topk, REL_TOL};
use egobtw_bench::json::Json;
use egobtw_core::naive::ego_betweenness_reference;
use egobtw_dynamic::{replay_graph, EdgeOp};
use egobtw_graph::{CsrGraph, DynGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Schema tag written into `BENCH_service.json`.
pub const SCHEMA: &str = "egobtw/bench-service/v4";

/// One named read/write mix of a run.
#[derive(Clone, Debug)]
pub struct MixSpec {
    /// Scenario name (goes into the document and the mangled catalog
    /// names, so it must be catalog-name-safe).
    pub name: String,
    /// Fraction of ops that are edge updates (e.g. `0.5` for 50/50).
    pub write_frac: f64,
}

/// Which non-mix scenarios a run should include beyond its `mixed` ones.
#[derive(Clone, Debug, Default)]
pub struct ExtraScenarios {
    /// Run the `restart-recovery` scenario (WAL burst → teardown → timed
    /// recovery → oracle-checked reads). Always in-process: a restart
    /// cannot be driven through a TCP target.
    pub recovery: bool,
    /// Run the `shard-skew` scenario (all datasets concurrent, writes
    /// concentrated on the first). Needs at least two datasets.
    pub skew: bool,
    /// Tenant count for the `multi-tenant` scenario (`0` = off, minimum
    /// 2). Always in-process on synthesized tiny graphs.
    pub tenants: usize,
    /// Run the `overload` scenario (tiny saturated TCP server → shed
    /// rate, saturation QPS, admitted-read percentiles). Always spawns
    /// its own server.
    pub overload: bool,
}

/// Workload shape shared by every dataset in a run.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Client threads per dataset (thread 0 writes, the rest read).
    pub threads: usize,
    /// Total operations per dataset (reads + updates).
    pub ops: usize,
    /// `k` for the top-k reads.
    pub k: usize,
    /// Update ops per UPDATE command (one epoch per command).
    pub batch: usize,
    /// Workload seed.
    pub seed: u64,
    /// Verify sampled top-k answers against the replay oracle.
    pub check: bool,
    /// Largest `n` the oracle check runs on (the reference truth is cubic
    /// per vertex); bigger datasets record the check as skipped.
    pub check_max_n: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            threads: 4,
            ops: 2000,
            k: 8,
            batch: 2,
            seed: 42,
            check: false,
            check_max_n: 512,
        }
    }
}

/// One dataset of a run.
pub struct DatasetSpec {
    /// Catalog name to load under (must be fresh for the run).
    pub name: String,
    /// The initial graph (also the replay base in check mode).
    pub g0: CsrGraph,
    /// File path to `g0`, required for TCP targets (the daemon loads the
    /// file itself).
    pub path: Option<String>,
    /// Maintainer mode.
    pub mode: Mode,
}

/// Where the load goes.
pub enum Target<'a> {
    /// Straight into an in-process [`Service`] (no sockets).
    InProc(&'a Service),
    /// A running daemon at this address.
    Tcp(String),
}

enum Conn<'a> {
    InProc(&'a Service),
    Tcp(Box<(BufReader<TcpStream>, TcpStream)>),
}

impl Conn<'_> {
    fn round(&mut self, payload: &str) -> Result<String, String> {
        match self {
            Conn::InProc(service) => Ok(service.handle_payload(payload)),
            Conn::Tcp(pair) => {
                let (reader, writer) = &mut **pair;
                roundtrip(reader, writer, payload).map_err(|e| format!("i/o: {e}"))
            }
        }
    }
}

fn open_conn<'a>(target: &'a Target<'a>) -> Result<Conn<'a>, String> {
    match target {
        Target::InProc(service) => Ok(Conn::InProc(service)),
        Target::Tcp(addr) => connect_with_retry(addr, std::time::Duration::from_secs(10))
            .map(|pair| Conn::Tcp(Box::new(pair)))
            .map_err(|e| format!("connect {addr}: {e}")),
    }
}

/// Pulls `key=value` out of a response line.
fn field<'r>(reply: &'r str, key: &str) -> Result<&'r str, String> {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .ok_or_else(|| format!("no {key}= in reply {reply:?}"))
}

fn expect_ok(reply: &str) -> Result<&str, String> {
    if reply.starts_with("OK ") {
        Ok(reply)
    } else {
        Err(format!("server said: {reply}"))
    }
}

/// One sampled top-k answer, to be oracle-checked after the run.
struct TopkSample {
    epoch: u64,
    k: usize,
    entries: Vec<(VertexId, f64)>,
}

#[derive(Default)]
struct ThreadLog {
    read_ns: Vec<u64>,
    update_ns: Vec<u64>,
    samples: Vec<TopkSample>,
    /// Writer only: `(epoch, ops-prefix length)` after each batch.
    epochs: Vec<(u64, usize)>,
}

/// Per-thread workload parameters (shared fields of the two loops).
struct WorkerPlan<'a> {
    name: &'a str,
    n: usize,
    k: usize,
    seed: u64,
    check: bool,
    sample_every: usize,
}

/// One request, retried under `policy` while the server sheds or drains
/// (`ERR busy` / `ERR draining`). Returns the last response either way —
/// callers decide whether a still-refused final answer is fatal.
fn round_backoff(
    conn: &mut Conn<'_>,
    payload: &str,
    policy: &RetryPolicy,
) -> Result<String, String> {
    let mut reply = conn.round(payload)?;
    for retry in 0..policy.attempts {
        if !is_retryable_response(&reply) {
            break;
        }
        std::thread::sleep(policy.backoff(retry));
        reply = conn.round(payload)?;
    }
    Ok(reply)
}

fn writer_loop(
    conn: &mut Conn<'_>,
    plan: &WorkerPlan<'_>,
    updates: usize,
    batch: usize,
    mirror: &mut DynGraph,
    ops_log: &mut Vec<EdgeOp>,
) -> Result<ThreadLog, String> {
    let (name, n) = (plan.name, plan.n);
    let mut rng = StdRng::seed_from_u64(plan.seed ^ 0xE12A_11E5);
    let policy = RetryPolicy {
        seed: plan.seed,
        ..RetryPolicy::default()
    };
    let mut log = ThreadLog::default();
    // The seq idempotency token is the epoch each batch expects to
    // advance from; anchor it on the dataset's current epoch (recovery
    // scenarios start past zero).
    let stats = conn.round(&format!("STATS {name}"))?;
    let mut expected: u64 = field(expect_ok(&stats)?, "epoch")?
        .parse()
        .map_err(|_| format!("bad epoch in {stats:?}"))?;
    let mut sent = 0usize;
    while sent < updates {
        let take = batch.min(updates - sent);
        let mut payload = format!("UPDATE {name} seq={expected}");
        for _ in 0..take {
            // Pick a state-changing op against the writer's mirror.
            let (u, v) = loop {
                let u = rng.random_range(0..n as u32);
                let v = rng.random_range(0..n as u32);
                if u != v {
                    break (u, v);
                }
            };
            let op = if mirror.has_edge(u, v) {
                payload.push_str(&format!(" -{u},{v}"));
                EdgeOp::Delete(u, v)
            } else {
                payload.push_str(&format!(" +{u},{v}"));
                EdgeOp::Insert(u, v)
            };
            match op {
                EdgeOp::Insert(a, b) => mirror.insert_edge(a, b),
                EdgeOp::Delete(a, b) => mirror.remove_edge(a, b),
            };
            ops_log.push(op);
        }
        sent += take;
        let t0 = Instant::now();
        let reply = round_backoff(conn, &payload, &policy)?;
        log.update_ns.push(t0.elapsed().as_nanos() as u64);
        let reply = expect_ok(&reply)?;
        let epoch: u64 = field(reply, "epoch")?
            .parse()
            .map_err(|_| format!("bad epoch in {reply:?}"))?;
        log.epochs.push((epoch, ops_log.len()));
        expected = epoch;
    }
    Ok(log)
}

fn reader_loop(
    conn: &mut Conn<'_>,
    plan: &WorkerPlan<'_>,
    reads: usize,
) -> Result<ThreadLog, String> {
    let (name, n, k) = (plan.name, plan.n, plan.k);
    let mut rng = StdRng::seed_from_u64(plan.seed);
    let policy = RetryPolicy {
        seed: plan.seed ^ 0x00C0_FFEE,
        ..RetryPolicy::default()
    };
    let mut log = ThreadLog::default();
    for i in 0..reads {
        let roll: f64 = rng.random_range(0.0..1.0);
        let payload = if roll < 0.8 {
            format!("TOPK {name} {k}")
        } else if roll < 0.9 {
            format!("SCORE {name} {}", rng.random_range(0..n as u32))
        } else {
            let u = rng.random_range(0..n as u32);
            let v = rng.random_range(0..n as u32);
            format!("COMMON {name} {u} {v}")
        };
        let t0 = Instant::now();
        let reply = round_backoff(conn, &payload, &policy)?;
        log.read_ns.push(t0.elapsed().as_nanos() as u64);
        let reply = expect_ok(&reply)?;
        if plan.check && payload.starts_with("TOPK") && i % plan.sample_every == 0 {
            log.samples.push(TopkSample {
                epoch: field(reply, "epoch")?
                    .parse()
                    .map_err(|_| format!("bad epoch in {reply:?}"))?,
                k,
                entries: parse_entries(field(reply, "entries")?)?,
            });
        }
    }
    Ok(log)
}

/// Interpolated percentile in microseconds over ascending-sorted
/// nanosecond samples, with the sample count the estimate rests on.
/// Delegates to [`egobtw_telemetry::percentile_sorted`] — the old
/// nearest-rank rounding clamped small-sample tail quantiles (p99 of 50
/// samples *was* the max) without telling anyone.
pub fn percentile_us(sorted_ns: &[u64], q: f64) -> (f64, usize) {
    let us = egobtw_telemetry::percentile_sorted(sorted_ns, q).map_or(0.0, |ns| ns / 1000.0);
    (us, sorted_ns.len())
}

fn latency_json(mut ns: Vec<u64>) -> Json {
    ns.sort_unstable();
    Json::Obj(vec![
        ("count".into(), Json::Num(ns.len() as f64)),
        ("p50_us".into(), Json::Num(percentile_us(&ns, 0.50).0)),
        ("p90_us".into(), Json::Num(percentile_us(&ns, 0.90).0)),
        ("p99_us".into(), Json::Num(percentile_us(&ns, 0.99).0)),
        (
            "max_us".into(),
            Json::Num(ns.last().map_or(0.0, |&x| x as f64 / 1000.0)),
        ),
    ])
}

/// Metrics crosscheck: drives an in-process service with
/// compute-dominated `TOPK`s (distinct `k` per request so the per-epoch
/// cache never absorbs them), then scrapes `METRICS` and checks the
/// server-side `TOPK` latency histogram against the client-side timings
/// — the two views of every request must put each quantile within one
/// log2 bucket of each other. Returns a JSON report; `Err` when the
/// exposition fails to parse/validate or a quantile drifts further.
pub fn metrics_crosscheck(requests: usize, seed: u64) -> Result<Json, String> {
    use egobtw_telemetry::{bucket_index, percentile_sorted, prometheus};

    // Every request gets a distinct k so none hits the per-epoch cache —
    // a fast-hit/slow-miss bimodal distribution would let an interpolated
    // client percentile land between the two modes while the server's
    // closest-rank bucket sticks to one of them. The cap keeps k < n.
    let requests = requests.clamp(8, 128);
    let service = Service::new();
    let g = egobtw_gen::gnp(160, 0.08, seed);
    service.load_graph("xcheck", g, Mode::default())?;

    let mut client_ns = Vec::with_capacity(requests);
    for i in 0..requests {
        let k = 1 + i;
        let t0 = Instant::now();
        let reply = service.handle_line(&format!("TOPK xcheck {k} core::compute_all"));
        client_ns.push(t0.elapsed().as_nanos() as u64);
        expect_ok(&reply)?;
    }
    client_ns.sort_unstable();

    let text = service.handle_line("METRICS");
    let expo = prometheus::parse(&text)?;
    let violations = expo.validate(&[
        "egobtw_request_latency_ns",
        "egobtw_requests_admitted_total",
    ]);
    if !violations.is_empty() {
        return Err(format!("exposition invalid: {violations:?}"));
    }
    let server = expo
        .histogram("egobtw_request_latency_ns", &[("verb", "TOPK")])
        .ok_or("no server-side TOPK latency series")?;
    if server.count != requests as u64 {
        return Err(format!(
            "server saw {} TOPKs, client sent {requests}",
            server.count
        ));
    }

    let mut fields = vec![
        ("requests".into(), Json::Num(requests as f64)),
        ("client".into(), latency_json(client_ns.clone())),
    ];
    for (label, q) in [("p50", 0.50), ("p99", 0.99)] {
        let client = percentile_sorted(&client_ns, q).unwrap_or(0.0) as u64;
        let server_le = server
            .quantile(q)
            .ok_or_else(|| format!("server histogram empty at {label}"))?;
        let (cb, sb) = (bucket_index(client), bucket_index(server_le));
        fields.push((format!("{label}_bucket_client"), Json::Num(cb as f64)));
        fields.push((format!("{label}_bucket_server"), Json::Num(sb as f64)));
        if cb.abs_diff(sb) > 1 {
            return Err(format!(
                "{label}: client {client}ns (bucket {cb}) vs server ≤{server_le}ns \
                 (bucket {sb}) — more than one log2 bucket apart"
            ));
        }
    }
    Ok(Json::Obj(fields))
}

/// Metric names every healthy daemon must expose (the live-scrape gate).
/// `egobtw_publish_latency_ns` and `egobtw_update_apply_ns` are per
/// dataset, so the gate expects a daemon with at least one dataset loaded.
pub const REQUIRED_METRICS: [&str; 10] = [
    "egobtw_requests_admitted_total",
    "egobtw_requests_completed_total",
    "egobtw_requests_cancelled_total",
    "egobtw_requests_failed_total",
    "egobtw_request_latency_ns",
    "egobtw_shed_total",
    "egobtw_timeouts_total",
    "egobtw_compute_inflight",
    "egobtw_publish_latency_ns",
    "egobtw_update_apply_ns",
];

/// Live-daemon scrape gate: two `METRICS` scrapes over TCP, each parsed
/// and schema-validated (required families present, histogram buckets
/// cumulative, `+Inf` == `_count`), plus counter monotonicity between
/// them — every `_total` series in the first scrape must be ≤ its value
/// in the second. Returns a human-readable summary line.
pub fn metrics_check_live(addr: &str) -> Result<String, String> {
    use egobtw_telemetry::prometheus::{self, Exposition};

    let scrape = || -> Result<Exposition, String> {
        let (mut reader, mut writer) = connect_with_retry(addr, Duration::from_secs(10))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let text =
            roundtrip(&mut reader, &mut writer, "METRICS").map_err(|e| format!("i/o: {e}"))?;
        let expo = prometheus::parse(&text)?;
        let violations = expo.validate(&REQUIRED_METRICS);
        if violations.is_empty() {
            Ok(expo)
        } else {
            Err(format!("exposition invalid: {violations:?}"))
        }
    };
    let first = scrape()?;
    let second = scrape()?;
    let mut series = 0usize;
    for (name, fam) in &first.families {
        if fam.kind != "counter" {
            continue;
        }
        for s in &fam.samples {
            let labels: Vec<(&str, &str)> = s
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            // A counter can't vanish between scrapes — a missing series
            // in the second scrape must fail the monotonicity check.
            let later = second.value(name, &labels)?.unwrap_or(f64::NEG_INFINITY);
            if later < s.value {
                return Err(format!(
                    "{name}{labels:?} went backwards: {} → {later}",
                    s.value
                ));
            }
            series += 1;
        }
    }
    let admitted = second
        .value("egobtw_requests_admitted_total", &[])?
        .unwrap_or(0.0);
    Ok(format!(
        "metrics-check OK: {} families, {series} counter series monotone, admitted={admitted}",
        second.families.len()
    ))
}

/// Oracle check: verify every sampled top-k answer against a replay of
/// the writer's op stream at the answer's epoch. Returns violation
/// messages (empty = clean).
fn check_samples(
    g0: &CsrGraph,
    ops: &[EdgeOp],
    epoch_prefix: &HashMap<u64, usize>,
    samples: &[TopkSample],
) -> Vec<String> {
    let mut truth_by_epoch: HashMap<u64, Vec<f64>> = HashMap::new();
    let mut violations = Vec::new();
    for s in samples {
        let Some(&prefix) = epoch_prefix.get(&s.epoch) else {
            violations.push(format!("answer cites unknown epoch {}", s.epoch));
            continue;
        };
        let truth = truth_by_epoch.entry(s.epoch).or_insert_with(|| {
            let g = replay_graph(g0, &ops[..prefix]).to_csr();
            (0..g.n() as VertexId)
                .map(|v| ego_betweenness_reference(&g, v))
                .collect()
        });
        if let Err(e) = check_topk(truth, &s.entries, s.k, REL_TOL) {
            violations.push(format!("epoch {}: {e}", s.epoch));
        }
    }
    violations
}

/// Runs one scenario's workload against one dataset and returns its JSON
/// record. The catalog name is mangled with the scenario name so the same
/// dataset can be driven once per scenario against a shared target.
fn run_dataset(
    target: &Target<'_>,
    cfg: &LoadgenConfig,
    spec: &DatasetSpec,
    mix: &MixSpec,
) -> Result<Json, String> {
    let catalog_name = format!("{}--{}", spec.name, mix.name);
    // Load the dataset into the target.
    match target {
        Target::InProc(service) => {
            service
                .load_graph(&catalog_name, spec.g0.clone(), spec.mode)
                .map(|_| ())?;
        }
        Target::Tcp(_) => {
            let path = spec
                .path
                .as_ref()
                .ok_or("TCP loadgen needs a dataset file path")?;
            let mut conn = open_conn(target)?;
            let reply = conn.round(&format!(
                "LOAD {} {} {}",
                catalog_name,
                path,
                spec.mode.render()
            ))?;
            expect_ok(&reply)?;
        }
    }

    let n = spec.g0.n();
    if n < 2 {
        return Err(format!("dataset {} too small to drive", spec.name));
    }
    // The reference oracle is cubic per vertex — only check small graphs.
    let check = cfg.check && n <= cfg.check_max_n;
    let updates = ((cfg.ops as f64 * mix.write_frac).round() as usize).min(cfg.ops);
    let reads = cfg.ops - updates;
    let reader_threads = cfg.threads.saturating_sub(1).max(1);
    let sample_every = (reads / (64 * reader_threads)).max(1);

    let mut ops_log: Vec<EdgeOp> = Vec::with_capacity(updates);
    let mut mirror = DynGraph::from_csr(&spec.g0);
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let reader_logs: Mutex<Vec<ThreadLog>> = Mutex::new(Vec::new());
    let mut writer_log = ThreadLog::default();

    let t0 = Instant::now();
    std::thread::scope(|scope| {
        // Readers.
        for t in 0..reader_threads {
            let share = reads / reader_threads + usize::from(t < reads % reader_threads);
            let (errors, reader_logs) = (&errors, &reader_logs);
            let name = catalog_name.clone();
            let (seed, k) = (cfg.seed, cfg.k);
            scope.spawn(move || {
                let plan = WorkerPlan {
                    name: &name,
                    n,
                    k,
                    seed: seed ^ ((t as u64 + 1) * 0x9E37_79B9),
                    check,
                    sample_every,
                };
                let run =
                    open_conn(target).and_then(|mut conn| reader_loop(&mut conn, &plan, share));
                match run {
                    Ok(log) => reader_logs.lock().unwrap().push(log),
                    Err(e) => errors.lock().unwrap().push(format!("reader {t}: {e}")),
                }
            });
        }
        // Writer (runs on this thread so it can borrow the mirror/log).
        if updates > 0 {
            let plan = WorkerPlan {
                name: &catalog_name,
                n,
                k: cfg.k,
                seed: cfg.seed,
                check,
                sample_every,
            };
            let run = open_conn(target).and_then(|mut conn| {
                writer_loop(
                    &mut conn,
                    &plan,
                    updates,
                    cfg.batch.max(1),
                    &mut mirror,
                    &mut ops_log,
                )
            });
            match run {
                Ok(log) => writer_log = log,
                Err(e) => errors.lock().unwrap().push(format!("writer: {e}")),
            }
        }
    });
    let wall = t0.elapsed();

    let errors = errors.into_inner().unwrap();
    if let Some(first) = errors.first() {
        return Err(format!("{} worker error(s), first: {first}", errors.len()));
    }

    let mut read_ns = Vec::new();
    let mut samples = Vec::new();
    for log in reader_logs.into_inner().unwrap() {
        read_ns.extend(log.read_ns);
        samples.extend(log.samples);
    }

    let (checked, violations) = if check {
        let mut epoch_prefix: HashMap<u64, usize> = writer_log.epochs.iter().copied().collect();
        epoch_prefix.insert(0, 0); // the pre-update epoch
        let violations = check_samples(&spec.g0, &ops_log, &epoch_prefix, &samples);
        for v in &violations {
            eprintln!("loadgen[{catalog_name}]: COMPARATOR VIOLATION: {v}");
        }
        (samples.len(), violations.len())
    } else {
        (0, 0)
    };

    Ok(record_json(RecordCore {
        name: spec.name.clone(),
        scenario: mix.name.clone(),
        n,
        m: spec.g0.m(),
        mode: spec.mode,
        threads: cfg.threads,
        read_ns,
        update_ns: writer_log.update_ns,
        epochs_published: writer_log.epochs.len(),
        wall,
        check,
        checked,
        violations,
        extra: Vec::new(),
    }))
}

/// The shared shape of a per-dataset record; scenario-specific fields
/// ride in `extra` so every kind validates against the same core.
struct RecordCore {
    name: String,
    scenario: String,
    n: usize,
    m: usize,
    mode: Mode,
    threads: usize,
    read_ns: Vec<u64>,
    update_ns: Vec<u64>,
    epochs_published: usize,
    wall: std::time::Duration,
    check: bool,
    checked: usize,
    violations: usize,
    extra: Vec<(String, Json)>,
}

fn record_json(core: RecordCore) -> Json {
    let total_ops = core.read_ns.len() + core.update_ns.len();
    let throughput = total_ops as f64 / core.wall.as_secs_f64().max(1e-9);
    let mut fields = vec![
        ("name".into(), Json::Str(core.name)),
        ("scenario".into(), Json::Str(core.scenario)),
        ("n".into(), Json::Num(core.n as f64)),
        ("m".into(), Json::Num(core.m as f64)),
        ("mode".into(), Json::Str(core.mode.render())),
        ("threads".into(), Json::Num(core.threads as f64)),
        ("reads".into(), Json::Num(core.read_ns.len() as f64)),
        ("updates".into(), Json::Num(core.update_ns.len() as f64)),
        (
            "epochs_published".into(),
            Json::Num(core.epochs_published as f64),
        ),
        (
            "wall_ms".into(),
            Json::Num(core.wall.as_secs_f64() * 1000.0),
        ),
        ("throughput_ops_per_sec".into(), Json::Num(throughput)),
        ("read_latency".into(), latency_json(core.read_ns)),
        ("update_latency".into(), latency_json(core.update_ns)),
        (
            "comparator".into(),
            Json::Obj(vec![
                ("enabled".into(), Json::Bool(core.check)),
                ("checked".into(), Json::Num(core.checked as f64)),
                ("violations".into(), Json::Num(core.violations as f64)),
            ]),
        ),
    ];
    fields.extend(core.extra);
    Json::Obj(fields)
}

/// `restart-recovery`, one dataset: write burst into a WAL-backed
/// in-process service → full teardown → **timed** restart recovery →
/// read phase whose sampled answers are oracle-checked against the
/// writer's durable op prefix at the recovered epoch.
fn run_recovery_dataset(
    cfg: &LoadgenConfig,
    spec: &DatasetSpec,
    scenario: &str,
) -> Result<Json, String> {
    let catalog_name = format!("{}--{}", spec.name, scenario);
    let n = spec.g0.n();
    if n < 2 {
        return Err(format!("dataset {} too small to drive", spec.name));
    }
    let dir = std::env::temp_dir().join(format!(
        "egobtw-loadgen-recovery-{}-{}",
        std::process::id(),
        catalog_name
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mk_service = || {
        Service::with_config(CatalogConfig {
            shards: 4,
            writers_per_shard: 2,
            persist: Some(PersistConfig {
                dir: dir.clone(),
                fsync: FsyncPolicy::Always,
                compact_every: 64,
            }),
            ..CatalogConfig::default()
        })
    };
    let check = cfg.check && n <= cfg.check_max_n;
    let updates = (cfg.ops / 2).max(cfg.batch.max(1));
    let reads = cfg.ops.saturating_sub(updates).max(32);
    let plan = WorkerPlan {
        name: &catalog_name,
        n,
        k: cfg.k,
        seed: cfg.seed,
        check,
        sample_every: (reads / 64).max(1),
    };

    let t0 = Instant::now();
    let service = mk_service();
    service.load_graph(&catalog_name, spec.g0.clone(), spec.mode)?;
    let mut mirror = DynGraph::from_csr(&spec.g0);
    let mut ops_log: Vec<EdgeOp> = Vec::with_capacity(updates);
    let mut conn = Conn::InProc(&service);
    let writer_log = writer_loop(
        &mut conn,
        &plan,
        updates,
        cfg.batch.max(1),
        &mut mirror,
        &mut ops_log,
    )?;
    drop(conn);
    drop(service); // teardown: pools joined, WAL handle closed

    let service = mk_service();
    let t_rec = Instant::now();
    let reports = service.recover()?;
    let recovery_ms = t_rec.elapsed().as_secs_f64() * 1000.0;
    let report = reports
        .iter()
        .find(|(name, _)| name == &catalog_name)
        .map(|&(_, r)| r)
        .ok_or_else(|| format!("recovery rebuilt no dataset {catalog_name:?}"))?;
    let published = writer_log.epochs.last().map_or(0, |&(e, _)| e);
    if report.epoch != published {
        return Err(format!(
            "{catalog_name}: recovered epoch {} but the burst published {published}",
            report.epoch
        ));
    }

    let mut conn = Conn::InProc(&service);
    let reader_log = reader_loop(&mut conn, &plan, reads)?;
    let wall = t0.elapsed();

    let (checked, violations) = if check {
        let mut epoch_prefix: HashMap<u64, usize> = writer_log.epochs.iter().copied().collect();
        epoch_prefix.insert(0, 0);
        let violations = check_samples(&spec.g0, &ops_log, &epoch_prefix, &reader_log.samples);
        for v in &violations {
            eprintln!("loadgen[{catalog_name}]: COMPARATOR VIOLATION (post-recovery): {v}");
        }
        (reader_log.samples.len(), violations.len())
    } else {
        (0, 0)
    };
    drop(conn);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);

    Ok(record_json(RecordCore {
        name: spec.name.clone(),
        scenario: scenario.to_string(),
        n,
        m: spec.g0.m(),
        mode: spec.mode,
        threads: 1,
        read_ns: reader_log.read_ns,
        update_ns: writer_log.update_ns,
        epochs_published: writer_log.epochs.len(),
        wall,
        check,
        checked,
        violations,
        extra: vec![
            ("recovery_ms".into(), Json::Num(recovery_ms)),
            ("recovered_epoch".into(), Json::Num(report.epoch as f64)),
            (
                "snapshot_epoch".into(),
                Json::Num(report.snapshot_epoch as f64),
            ),
            ("wal_replayed".into(), Json::Num(report.replayed as f64)),
        ],
    }))
}

/// `shard-skew`: every dataset drives **concurrently** against the same
/// target, all writes aimed at the first (hot) one — cold readers ride
/// other shards and must not stall behind the hot shard's writer storm.
fn run_skew_scenario(
    target: &Target<'_>,
    cfg: &LoadgenConfig,
    specs: &[DatasetSpec],
) -> Result<Json, String> {
    const NAME: &str = "shard-skew";
    if specs.len() < 2 {
        return Err("shard-skew scenario needs at least 2 datasets".into());
    }
    let results: Vec<Result<Json, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                scope.spawn(move || {
                    let role = if i == 0 { "hot" } else { "cold" };
                    let mix = MixSpec {
                        name: NAME.into(),
                        write_frac: if i == 0 { 0.5 } else { 0.0 },
                    };
                    run_dataset(target, cfg, spec, &mix).map(|record| match record {
                        Json::Obj(mut fields) => {
                            fields.push(("role".into(), Json::Str(role.into())));
                            Json::Obj(fields)
                        }
                        other => other,
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let datasets = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(Json::Obj(vec![
        ("name".into(), Json::Str(NAME.into())),
        ("kind".into(), Json::Str("skew".into())),
        ("write_frac".into(), Json::Num(0.5)),
        ("datasets".into(), Json::Arr(datasets)),
    ]))
}

/// `multi-tenant`: `tenants` tiny synthesized datasets in one sharded
/// in-process catalog, light concurrent traffic on each, every sampled
/// answer oracle-checked (the graphs are small enough to check all of
/// them), one aggregate record.
fn run_multi_tenant_scenario(cfg: &LoadgenConfig, tenants: usize) -> Result<Json, String> {
    const NAME: &str = "multi-tenant";
    if tenants < 2 {
        return Err("multi-tenant scenario needs at least 2 tenants".into());
    }
    let service = Service::with_config(CatalogConfig {
        shards: 8,
        writers_per_shard: 2,
        persist: None,
        ..CatalogConfig::default()
    });
    let t0 = Instant::now();
    let graphs: Vec<CsrGraph> = (0..tenants)
        .map(|i| egobtw_gen::gnp(20, 0.18, cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9)))
        .collect();
    for (i, g) in graphs.iter().enumerate() {
        service.load_graph(&format!("ten{i:04}"), g.clone(), Mode::default())?;
    }

    struct TenantLog {
        log: ThreadLog,
        ops: Vec<EdgeOp>,
        tenant: usize,
    }
    let worker_threads = cfg.threads.max(1);
    let outcomes: Vec<Result<Vec<TenantLog>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..worker_threads)
            .map(|t| {
                let (service, graphs) = (&service, &graphs);
                scope.spawn(move || {
                    let mut logs = Vec::new();
                    for tenant in (t..tenants).step_by(worker_threads) {
                        let name = format!("ten{tenant:04}");
                        let g0 = &graphs[tenant];
                        let plan = WorkerPlan {
                            name: &name,
                            n: g0.n(),
                            k: cfg.k,
                            seed: cfg.seed ^ (tenant as u64 + 1),
                            check: cfg.check,
                            sample_every: 3,
                        };
                        let mut mirror = DynGraph::from_csr(g0);
                        let mut ops = Vec::new();
                        let mut conn = Conn::InProc(service);
                        let mut log = writer_loop(
                            &mut conn,
                            &plan,
                            cfg.batch.max(1) * 3,
                            cfg.batch.max(1),
                            &mut mirror,
                            &mut ops,
                        )?;
                        let reads = reader_loop(&mut conn, &plan, 8)?;
                        log.read_ns = reads.read_ns;
                        log.samples = reads.samples;
                        logs.push(TenantLog { log, ops, tenant });
                    }
                    Ok(logs)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed();

    let mut read_ns = Vec::new();
    let mut update_ns = Vec::new();
    let mut epochs_published = 0usize;
    let mut checked = 0usize;
    let mut violations = 0usize;
    for outcome in outcomes {
        for tl in outcome? {
            if cfg.check {
                let mut epoch_prefix: HashMap<u64, usize> = tl.log.epochs.iter().copied().collect();
                epoch_prefix.insert(0, 0);
                let bad =
                    check_samples(&graphs[tl.tenant], &tl.ops, &epoch_prefix, &tl.log.samples);
                for v in &bad {
                    eprintln!("loadgen[ten{:04}]: COMPARATOR VIOLATION: {v}", tl.tenant);
                }
                checked += tl.log.samples.len();
                violations += bad.len();
            }
            read_ns.extend(tl.log.read_ns);
            update_ns.extend(tl.log.update_ns);
            epochs_published += tl.log.epochs.len();
        }
    }
    let (total_n, total_m) = graphs
        .iter()
        .fold((0, 0), |(n, m), g| (n + g.n(), m + g.m()));
    let record = record_json(RecordCore {
        name: "tenants".into(),
        scenario: NAME.into(),
        n: total_n,
        m: total_m,
        mode: Mode::default(),
        threads: worker_threads,
        read_ns,
        update_ns,
        epochs_published,
        wall,
        check: cfg.check,
        checked,
        violations,
        extra: vec![("tenants".into(), Json::Num(tenants as f64))],
    });
    Ok(Json::Obj(vec![
        ("name".into(), Json::Str(NAME.into())),
        ("kind".into(), Json::Str("multi-tenant".into())),
        (
            "write_frac".into(),
            Json::Num({
                let w = (cfg.batch.max(1) * 3) as f64;
                w / (w + 8.0)
            }),
        ),
        ("datasets".into(), Json::Arr(vec![record])),
    ]))
}

/// `overload`: a deliberately tiny TCP server — 2 workers, a 2-slot
/// pending queue, connection cap 8, compute watermark 1 — hammered by
/// closer threads issuing cache-missing `TOPK` requests (an epoch-bumping
/// writer keeps the per-epoch cache cold) over fresh connections. Records
/// saturation QPS (admitted requests only), the shed rate, and p99 of
/// admitted reads; fails if any request ends without an explicit outcome
/// (`OK`, `ERR busy`, `ERR draining`, `ERR deadline`, or a transport
/// error from a refused connection — never a hang).
fn run_overload_scenario(cfg: &LoadgenConfig) -> Result<Json, String> {
    const NAME: &str = "overload";
    let g0 = egobtw_gen::gnp(150, 0.08, cfg.seed ^ 0x00EE_10AD);
    let mut service = Service::new();
    service.set_compute_watermark(1);
    service.set_default_deadline(Some(Duration::from_millis(2_000)));
    let service = Arc::new(service);
    service.load_graph("ov", g0.clone(), Mode::default())?;
    let server = Server::spawn_with(
        service.clone(),
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            queue_cap: 2,
            max_conns: 8,
            io_timeout: Some(Duration::from_secs(5)),
            drain_grace: Duration::from_millis(500),
        },
    )
    .map_err(|e| format!("overload server: {e}"))?;
    let addr = server.local_addr().to_string();

    #[derive(Default)]
    struct CloserLog {
        admitted_ns: Vec<u64>,
        shed: usize,
        deadline: usize,
        transport: usize,
        unexpected: Option<String>,
    }
    let closers = cfg.threads.max(4);
    let per_closer = (cfg.ops / closers).clamp(16, 120);
    let stop_writer = AtomicBool::new(false);
    let t_run = Instant::now();
    let (logs, writer_epochs) = std::thread::scope(|scope| {
        // Epoch-bumping writer: keeps the per-epoch result cache cold so
        // reads actually reach the (watermarked) compute path.
        let writer = {
            let (addr, stop) = (addr.clone(), &stop_writer);
            let seed = cfg.seed;
            scope.spawn(move || {
                let mut epochs = 0usize;
                let mut rng = StdRng::seed_from_u64(seed ^ 0xAB5E);
                let Ok((mut reader, mut stream)) =
                    connect_with_retry(&addr, Duration::from_secs(5))
                else {
                    return epochs;
                };
                let mut expected = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let u = rng.random_range(0..150u32);
                    let v = (u + 1 + rng.random_range(0..148u32)) % 150;
                    let payload = format!("UPDATE ov seq={expected} +{u},{v} -{u},{v}");
                    match roundtrip(&mut reader, &mut stream, &payload) {
                        Ok(reply) if reply.starts_with("OK ") => {
                            epochs += 1;
                            expected += 1;
                        }
                        Ok(_) => std::thread::sleep(Duration::from_millis(5)),
                        Err(_) => break,
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                epochs
            })
        };
        let handles: Vec<_> = (0..closers)
            .map(|c| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut log = CloserLog::default();
                    for i in 0..per_closer {
                        // Distinct k per request defeats same-epoch cache
                        // coalescing; the explicit engine skips the free
                        // maintained path.
                        let k = 1 + (c * per_closer + i) % 32;
                        let payload = format!("TOPK ov {k} core::compute_all");
                        let t0 = Instant::now();
                        match connect_with_retry(&addr, Duration::from_secs(2)).and_then(
                            |(mut reader, mut stream)| {
                                roundtrip(&mut reader, &mut stream, &payload)
                            },
                        ) {
                            Ok(reply) if reply.starts_with("OK ") => {
                                log.admitted_ns.push(t0.elapsed().as_nanos() as u64)
                            }
                            Ok(reply) if is_retryable_response(&reply) => log.shed += 1,
                            Ok(reply) if reply.starts_with("ERR deadline") => log.deadline += 1,
                            Ok(reply) => {
                                // Any other reply is a real failure, not
                                // an overload outcome.
                                log.unexpected = Some(reply);
                                break;
                            }
                            // A connection the acceptor refused and
                            // closed mid-handshake surfaces as an I/O
                            // error — an explicit outcome, not a hang.
                            Err(_) => log.transport += 1,
                        }
                    }
                    log
                })
            })
            .collect();
        let logs: Vec<CloserLog> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        stop_writer.store(true, Ordering::Relaxed);
        (logs, writer.join().unwrap())
    });
    let run_wall = t_run.elapsed();
    let t0 = Instant::now();
    server.drain(Duration::from_millis(500));
    let drain_ms = t0.elapsed().as_secs_f64() * 1000.0;

    let mut admitted_ns = Vec::new();
    let (mut shed, mut deadline, mut transport) = (0usize, 0usize, 0usize);
    for log in logs {
        if let Some(reply) = log.unexpected {
            return Err(format!("overload closer: unexpected reply {reply:?}"));
        }
        admitted_ns.extend(log.admitted_ns);
        shed += log.shed;
        deadline += log.deadline;
        transport += log.transport;
    }
    let total = admitted_ns.len() + shed + deadline + transport;
    if total != closers * per_closer {
        return Err(format!(
            "overload scenario lost requests: {total} outcomes for {} sends",
            closers * per_closer
        ));
    }
    let admitted = admitted_ns.len();
    if admitted == 0 {
        return Err("overload scenario admitted no requests at all".into());
    }
    let saturation_qps = admitted as f64 / run_wall.as_secs_f64().max(1e-9);
    let shed_rate = (shed + transport) as f64 / total as f64;
    let record = record_json(RecordCore {
        name: "ov".into(),
        scenario: NAME.into(),
        n: g0.n(),
        m: g0.m(),
        mode: Mode::default(),
        threads: closers,
        read_ns: admitted_ns,
        update_ns: Vec::new(),
        epochs_published: writer_epochs,
        wall: run_wall,
        check: false,
        checked: 0,
        violations: 0,
        extra: vec![
            ("admitted".into(), Json::Num(admitted as f64)),
            ("shed".into(), Json::Num(shed as f64)),
            ("deadline_expired".into(), Json::Num(deadline as f64)),
            ("conn_refused".into(), Json::Num(transport as f64)),
            ("shed_rate".into(), Json::Num(shed_rate)),
            ("saturation_qps".into(), Json::Num(saturation_qps)),
            ("drain_ms".into(), Json::Num(drain_ms)),
        ],
    });
    Ok(Json::Obj(vec![
        ("name".into(), Json::Str(NAME.into())),
        ("kind".into(), Json::Str("overload".into())),
        ("write_frac".into(), Json::Num(0.0)),
        ("datasets".into(), Json::Arr(vec![record])),
    ]))
}

/// Runs the full workload: every scenario in `mixes` drives every dataset
/// in `specs`, one (scenario, dataset) pair after another (each gets the
/// configured thread count to itself), then any [`ExtraScenarios`] —
/// restart-recovery, shard-skew, multi-tenant — and returns the
/// `BENCH_service.json` document. Fails when no scenario is named and on
/// any worker error; comparator violations are *reported in the
/// document*, not fatal, so the caller (CI) can assert on them explicitly.
pub fn run(
    target: &Target<'_>,
    cfg: &LoadgenConfig,
    specs: &[DatasetSpec],
    mixes: &[MixSpec],
    extras: &ExtraScenarios,
) -> Result<Json, String> {
    if specs.is_empty() {
        return Err("loadgen needs at least one dataset".into());
    }
    let any_extra = extras.recovery || extras.skew || extras.tenants > 0 || extras.overload;
    if mixes.is_empty() && !any_extra {
        return Err(
            "no scenario named: pass --mix NAME:FRAC, --recovery, --skew, --tenants N or --overload"
                .into(),
        );
    }
    for mix in mixes {
        if !(0.0..=1.0).contains(&mix.write_frac) {
            return Err(format!("mix {:?}: write_frac out of [0,1]", mix.name));
        }
        if mix.name.is_empty() || !mix.name.chars().all(|c| c.is_ascii_graphic()) {
            return Err(format!("bad mix name {:?}", mix.name));
        }
    }
    let mut scenarios = Vec::new();
    for mix in mixes {
        let mut datasets = Vec::new();
        for spec in specs {
            datasets.push(run_dataset(target, cfg, spec, mix)?);
        }
        scenarios.push(Json::Obj(vec![
            ("name".into(), Json::Str(mix.name.clone())),
            ("kind".into(), Json::Str("mixed".into())),
            ("write_frac".into(), Json::Num(mix.write_frac)),
            ("datasets".into(), Json::Arr(datasets)),
        ]));
    }
    if extras.recovery {
        let mut datasets = Vec::new();
        for spec in specs {
            datasets.push(run_recovery_dataset(cfg, spec, "restart-recovery")?);
        }
        scenarios.push(Json::Obj(vec![
            ("name".into(), Json::Str("restart-recovery".into())),
            ("kind".into(), Json::Str("recovery".into())),
            ("write_frac".into(), Json::Num(0.5)),
            ("datasets".into(), Json::Arr(datasets)),
        ]));
    }
    if extras.skew {
        scenarios.push(run_skew_scenario(target, cfg, specs)?);
    }
    if extras.tenants > 0 {
        scenarios.push(run_multi_tenant_scenario(cfg, extras.tenants)?);
    }
    if extras.overload {
        scenarios.push(run_overload_scenario(cfg)?);
    }
    Ok(Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        (
            "config".into(),
            Json::Obj(vec![
                ("threads".into(), Json::Num(cfg.threads as f64)),
                ("ops".into(), Json::Num(cfg.ops as f64)),
                ("k".into(), Json::Num(cfg.k as f64)),
                ("batch".into(), Json::Num(cfg.batch as f64)),
                ("seed".into(), Json::Num(cfg.seed as f64)),
                ("check".into(), Json::Bool(cfg.check)),
                ("check_max_n".into(), Json::Num(cfg.check_max_n as f64)),
                (
                    "target".into(),
                    Json::Str(match target {
                        Target::InProc(_) => "inproc".into(),
                        Target::Tcp(addr) => format!("tcp:{addr}"),
                    }),
                ),
            ]),
        ),
        ("scenarios".into(), Json::Arr(scenarios)),
    ]))
}

/// Schema check for a `BENCH_service.json` document: the right schema
/// tag, at least `min_scenarios` scenario records with known kinds,
/// every **mixed** scenario holding at least `min_datasets` dataset
/// records, every record carrying finite, sane core metrics, and the
/// kind-specific fields present (`recovery_ms`/`recovered_epoch` on
/// recovery records, `role` on skew records, `tenants` on multi-tenant).
/// Returns the first problem found.
pub fn validate(doc: &Json, min_datasets: usize, min_scenarios: usize) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("schema tag is not {SCHEMA:?}"));
    }
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .ok_or("no scenarios array")?;
    if scenarios.len() < min_scenarios {
        return Err(format!(
            "{} scenario record(s), expected at least {min_scenarios}",
            scenarios.len()
        ));
    }
    for (si, sc) in scenarios.iter().enumerate() {
        let sc_name = sc
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("scenario {si}: no name"))?;
        let kind = sc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or(format!("scenario {sc_name:?}: no kind"))?;
        if !["mixed", "recovery", "skew", "multi-tenant", "overload"].contains(&kind) {
            return Err(format!("scenario {sc_name:?}: unknown kind {kind:?}"));
        }
        sc.get("write_frac")
            .and_then(Json::as_num)
            .filter(|x| (0.0..=1.0).contains(x))
            .ok_or(format!("scenario {sc_name:?}: bad write_frac"))?;
        let datasets = sc
            .get("datasets")
            .and_then(Json::as_arr)
            .ok_or(format!("scenario {sc_name:?}: no datasets array"))?;
        let floor = match kind {
            "mixed" => min_datasets.max(1),
            "skew" => 2,
            _ => 1,
        };
        if datasets.len() < floor {
            return Err(format!(
                "scenario {sc_name:?}: {} dataset record(s), expected at least {floor}",
                datasets.len()
            ));
        }
        for (i, ds) in datasets.iter().enumerate() {
            let name = ds
                .get("name")
                .and_then(Json::as_str)
                .ok_or(format!("scenario {sc_name:?} dataset {i}: no name"))?;
            ds.get("scenario")
                .and_then(Json::as_str)
                .filter(|s| *s == sc_name)
                .ok_or(format!(
                    "dataset {name:?}: scenario tag does not match {sc_name:?}"
                ))?;
            let num = |key: &str| -> Result<f64, String> {
                ds.get(key)
                    .and_then(Json::as_num)
                    .filter(|x| x.is_finite())
                    .ok_or(format!("dataset {name:?}: missing/non-finite {key}"))
            };
            if num("throughput_ops_per_sec")? <= 0.0 {
                return Err(format!("dataset {name:?}: non-positive throughput"));
            }
            num("wall_ms")?;
            num("reads")?;
            num("updates")?;
            for class in ["read_latency", "update_latency"] {
                let lat = ds
                    .get(class)
                    .ok_or(format!("dataset {name:?}: missing {class}"))?;
                for key in ["count", "p50_us", "p90_us", "p99_us", "max_us"] {
                    lat.get(key)
                        .and_then(Json::as_num)
                        .filter(|x| x.is_finite() && *x >= 0.0)
                        .ok_or(format!("dataset {name:?}: bad {class}.{key}"))?;
                }
            }
            let comp = ds
                .get("comparator")
                .ok_or(format!("dataset {name:?}: missing comparator"))?;
            let violations = comp
                .get("violations")
                .and_then(Json::as_num)
                .ok_or(format!("dataset {name:?}: missing comparator.violations"))?;
            if violations != 0.0 {
                return Err(format!(
                    "dataset {name:?}: {violations} comparator violation(s)"
                ));
            }
            match kind {
                "recovery" => {
                    num("recovery_ms")?;
                    if num("recovered_epoch")? < 1.0 {
                        return Err(format!(
                            "dataset {name:?}: recovery scenario recovered no epochs"
                        ));
                    }
                    num("wal_replayed")?;
                }
                "skew" => {
                    ds.get("role")
                        .and_then(Json::as_str)
                        .filter(|r| ["hot", "cold"].contains(r))
                        .ok_or(format!("dataset {name:?}: skew record needs a role"))?;
                }
                "multi-tenant" => {
                    let tenants = num("tenants")?;
                    if tenants < 2.0 {
                        return Err(format!("dataset {name:?}: fewer than 2 tenants"));
                    }
                }
                "overload" => {
                    if num("admitted")? <= 0.0 {
                        return Err(format!("dataset {name:?}: overload admitted nothing"));
                    }
                    let rate = num("shed_rate")?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!("dataset {name:?}: shed_rate {rate} out of [0,1]"));
                    }
                    num("saturation_qps")?;
                    num("drain_ms")?;
                }
                _ => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_the_tail_instead_of_clamping() {
        // 50 samples: nearest-rank rounding used to clamp p99 to the max.
        let ns: Vec<u64> = (1..=50).map(|i| i * 1_000).collect();
        let (p99, count) = percentile_us(&ns, 0.99);
        assert_eq!(count, 50);
        assert!(
            p99 > 49.0 && p99 < 50.0,
            "p99 of 50 samples must interpolate below the max, got {p99}"
        );
        let (max, _) = percentile_us(&ns, 1.0);
        assert_eq!(max, 50.0);
        let (p50, _) = percentile_us(&ns, 0.50);
        assert_eq!(p50, 25.5);
        assert_eq!(percentile_us(&[], 0.5), (0.0, 0));
    }

    #[test]
    fn metrics_crosscheck_agrees_within_one_bucket() {
        let report = metrics_crosscheck(8, 7).expect("crosscheck must pass");
        assert_eq!(
            report.get("requests").and_then(|r| r.as_num()),
            Some(8.0),
            "{report:?}"
        );
    }
}
