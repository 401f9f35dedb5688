//! `serve-churn`: the query daemon (the `Service` + `Server` pair that
//! `egobtw-serve` runs, with a write-ahead log) under edge churn and reads,
//! over loopback TCP.
//!
//! One closed-loop client sends the repository's `read-heavy` service mix
//! (`loadgen`'s default, as committed in `BENCH_service.json`): edge ops
//! are 10% of all ops, sent as `UPDATE` batches of 2 (each publishes an
//! epoch: maintainer apply, WAL append, snapshot publish), so every UPDATE
//! is followed by 18 reads; the reads are `TOPK g 8` (answered by the
//! `delta:8` index), `SCORE` of one random vertex and `COMMON` of two, in
//! loadgen's 8 : 1 : 1 proportion. On top of that mix the benchmark adds
//! one top-k read beyond the maintained `k` every [`ENGINE_EVERY`]
//! UPDATEs, which runs the search engine on the fresh epoch; this engine
//! share is the benchmark's own choice, not taken from a traffic source.
//! The client follows a fixed [`cycle`] rather than loadgen's coin flips,
//! so every run sends the same mix. A single client keeps the figures
//! steady on a small machine; it leaves reader/writer interference
//! unmeasured.
//!
//! Edge ops flip pairs of a fixed pool (see [`Churn`]), so the graph
//! stays near the generated one however many batches a run gets through.
//! The graph at epoch `e` is the initial graph plus the first `e`
//! batches, which the oracle replays.

use crate::reference::{check_topk, close, ranked, Adjacency, Scratch};
use crate::{
    end_to_end, kernel_ns_per_intersection, median, relabeled_edges, relabeling, repeat_setup,
    Args, Layers, Outcome, Rng, Timed,
};
use egobtw_graph::io::write_snapshot_file;
use egobtw_graph::CsrGraph;
use egobtw_service::proto::{parse_entries, read_frame, write_frame};
use egobtw_service::{CatalogConfig, FsyncPolicy, PersistConfig, Server, ServerConfig, Service};
use std::collections::HashSet;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `k` the dataset's delta index maintains (`LOAD … delta:K`) and every
/// index read asks for: loadgen's default `k`.
const MAINTAINED_K: usize = 8;
/// `k` of the engine-path reads: above the maintained `k`.
const ENGINE_K: usize = 50;
/// Edge ops per UPDATE: loadgen's default `batch`.
const BATCH: usize = 2;
/// Reads per UPDATE: loadgen's `read-heavy` mix sends 1,800 reads and 100
/// UPDATEs of [`BATCH`] ops per 2,000 ops (`write_frac` 0.1).
const READS_PER_UPDATE: usize = 18;
/// One engine-path read per this many UPDATEs.
const ENGINE_EVERY: usize = 2;

#[derive(Clone, Copy, PartialEq)]
enum Op {
    /// `UPDATE` batch.
    Update,
    /// `TOPK` within the maintained `k`.
    IndexRead,
    /// `SCORE` of one vertex.
    Score,
    /// `COMMON` of two vertices.
    Common,
    /// `TOPK` beyond the maintained `k`: the engine path.
    EngineRead,
}

/// The client's repeating request sequence: each UPDATE is followed by
/// [`READS_PER_UPDATE`] reads in loadgen's 8 : 1 : 1 TOPK/SCORE/COMMON
/// proportion (a read counter runs across UPDATEs, so the proportion is
/// exact over the cycle), and every [`ENGINE_EVERY`]-th UPDATE is
/// followed by an engine read first.
fn cycle() -> Vec<Op> {
    // 18 reads per UPDATE and a 10-read proportion meet after 5 UPDATEs;
    // 10 UPDATEs also close a whole number of engine periods.
    let updates = 10;
    let mut ops = Vec::new();
    let mut read = 0usize;
    for u in 0..updates {
        ops.push(Op::Update);
        if u % ENGINE_EVERY == 0 {
            ops.push(Op::EngineRead);
        }
        for _ in 0..READS_PER_UPDATE {
            ops.push(match read % 10 {
                8 => Op::Score,
                9 => Op::Common,
                _ => Op::IndexRead,
            });
            read += 1;
        }
    }
    ops
}

/// Pairs the update stream flips: this many edges of the generated graph
/// and as many pairs it lacks.
const POOL_HALF: usize = 128;

/// Deterministic churn over a fixed pool of pairs: half are generated
/// edges drawn uniformly (so a hub's edges are drawn in proportion to its
/// degree), half are uniformly random absent pairs (loadgen's insertions).
/// The pool is drawn from the graph's structure with a fixed seed, like
/// the structure itself, and renumbered; `--seed` picks the order of the
/// flips. Each edge op flips one pool pair, deleting it if present and
/// inserting it if absent, as loadgen's writer does. The graph therefore
/// never differs from the generated one by more than the pool's 256
/// pairs, and the expected number of present pool pairs stays at its
/// start: degrees and triangles are the same early and late in a run,
/// whatever its throughput.
struct Churn {
    pool: Vec<(u32, u32)>,
    present: Vec<bool>,
    rng: Rng,
}

impl Churn {
    fn new(structure: &CsrGraph, ids: &[u32], seed: u64) -> Self {
        let mut draw = Rng::new(0xC4A1);
        let edges: Vec<(u32, u32)> = structure.edges().collect();
        let n = structure.n();
        let mut taken = HashSet::new();
        while taken.len() < POOL_HALF {
            taken.insert(edges[draw.below(edges.len())]);
        }
        let mut absent = HashSet::new();
        while absent.len() < POOL_HALF {
            let (u, v) = (draw.below(n) as u32, draw.below(n) as u32);
            if u != v && !structure.has_edge(u, v) {
                absent.insert((u.min(v), u.max(v)));
            }
        }
        // Sorted, so the pool's order depends on the structure alone.
        let mut pool: Vec<(u32, u32)> = taken.into_iter().collect();
        pool.sort_unstable();
        let mut lacking: Vec<(u32, u32)> = absent.into_iter().collect();
        lacking.sort_unstable();
        pool.extend(lacking);
        let pool = pool
            .into_iter()
            .map(|(u, v)| (ids[u as usize], ids[v as usize]))
            .collect();
        let present = (0..2 * POOL_HALF).map(|i| i < POOL_HALF).collect();
        Churn {
            pool,
            present,
            rng: Rng::new(seed ^ 0xC4A1),
        }
    }

    /// `(insert?, u, v)` ops of the next batch, on distinct pool pairs.
    fn next_batch(&mut self) -> Vec<(bool, u32, u32)> {
        let mut picked: Vec<usize> = Vec::with_capacity(BATCH);
        while picked.len() < BATCH {
            let i = self.rng.below(self.pool.len());
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        picked
            .into_iter()
            .map(|i| {
                self.present[i] = !self.present[i];
                (self.present[i], self.pool[i].0, self.pool[i].1)
            })
            .collect()
    }
}

/// Server-side breakdown of one `TRACE`d request.
#[derive(Default)]
struct ServerTrace {
    total_us: f64,
    compute_us: f64,
    exact: f64,
    refreshes: f64,
    /// Whether an engine ran (not the per-epoch cache).
    engine: bool,
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn { stream, reader })
    }

    fn call(&mut self, payload: &str) -> Result<String, String> {
        write_frame(&self.stream, payload).map_err(|e| format!("send: {e}"))?;
        read_frame(&mut self.reader)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or_else(|| "server closed the connection".to_string())
    }

    fn expect_ok(&mut self, payload: &str) -> Result<(), String> {
        let reply = self.call(payload)?;
        if reply.starts_with("OK") {
            Ok(())
        } else {
            Err(format!("{payload:?} failed: {reply}"))
        }
    }
}

fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key))
}

fn parse_trace(reply: &str) -> Result<ServerTrace, String> {
    let summary = field(reply, "trace=").ok_or_else(|| format!("no trace in {reply:?}"))?;
    let mut t = ServerTrace {
        engine: field(reply, "source=").is_some_and(|s| s.starts_with("engine")),
        ..ServerTrace::default()
    };
    for part in summary.split(',') {
        let (key, value) = part
            .split_once(':')
            .ok_or_else(|| format!("bad trace part {part:?}"))?;
        let value: f64 = value
            .trim_end_matches("us")
            .parse()
            .map_err(|_| format!("bad trace part {part:?}"))?;
        match key {
            "total" => t.total_us = value,
            "compute" => t.compute_us = value,
            "exact" => t.exact = value,
            "bound_refreshes" => t.refreshes = value,
            _ => {}
        }
    }
    Ok(t)
}

/// One answered read.
struct Read {
    epoch: u64,
    answer: Answer,
}

enum Answer {
    Top { k: usize, entries: Vec<(u32, f64)> },
    Score(Vec<(u32, f64)>),
    Common { u: u32, v: u32, witnesses: Vec<u32> },
}

/// Everything the measured window produced.
#[derive(Default)]
struct Window {
    ops: Vec<Timed>,
    /// `(op, server trace)` per request, `--trace 1` only.
    traces: Vec<(Op, ServerTrace)>,
    /// Batch `i` published epoch `i + 1` (checked as replies arrive).
    batches: Vec<Vec<(bool, u32, u32)>>,
    reads: Vec<Read>,
    errors: Vec<String>,
    wall_s: f64,
}

fn measure(conn: &mut Conn, churn: &mut Churn, n: usize, args: &Args) -> Result<Window, String> {
    // Vertices of SCORE and COMMON reads, drawn uniformly as loadgen does.
    let mut picks = Rng::new(args.seed ^ 0x5EAD);
    let mut s = Window::default();
    let started = Instant::now();
    let deadline = started + Duration::from_secs(args.seconds);
    for &op in cycle().iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        let mut batch = Vec::new();
        let mut pair = (0, 0);
        let line = match op {
            Op::Update => {
                batch = churn.next_batch();
                let ops: Vec<String> = batch
                    .iter()
                    .map(|&(ins, u, v)| format!("{}{u},{v}", if ins { '+' } else { '-' }))
                    .collect();
                format!("UPDATE g {}", ops.join(" "))
            }
            Op::IndexRead => format!("TOPK g {MAINTAINED_K}"),
            Op::EngineRead => format!("TOPK g {ENGINE_K}"),
            Op::Score => format!("SCORE g {}", picks.below(n)),
            Op::Common => {
                pair = loop {
                    let (u, v) = (picks.below(n) as u32, picks.below(n) as u32);
                    if u != v {
                        break (u, v);
                    }
                };
                format!("COMMON g {} {}", pair.0, pair.1)
            }
        };
        let payload = if args.trace {
            format!("TRACE {line}")
        } else {
            line
        };
        let t0 = Instant::now();
        let reply = conn.call(&payload)?;
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        if !reply.starts_with("OK") {
            s.errors.push(reply);
            continue;
        }
        s.ops.push(Timed {
            end_s: started.elapsed().as_secs_f64(),
            latency_ms,
        });
        let epoch: u64 = field(&reply, "epoch=")
            .and_then(|e| e.parse().ok())
            .ok_or_else(|| format!("no epoch in {reply:?}"))?;
        let entries =
            || field(&reply, "entries=").ok_or_else(|| format!("no entries in {reply:?}"));
        let answer = match op {
            Op::Update => {
                s.batches.push(batch);
                let applied = field(&reply, "applied=").and_then(|a| a.parse().ok());
                if epoch != s.batches.len() as u64 || applied != Some(BATCH) {
                    return Err(format!(
                        "update #{} should publish epoch {} applying {BATCH} ops: {reply}",
                        s.batches.len(),
                        s.batches.len()
                    ));
                }
                None
            }
            Op::IndexRead | Op::EngineRead => Some(Answer::Top {
                k: if op == Op::IndexRead {
                    MAINTAINED_K
                } else {
                    ENGINE_K
                },
                entries: parse_entries(entries()?)?,
            }),
            Op::Score => Some(Answer::Score(parse_entries(entries()?)?)),
            Op::Common => Some(Answer::Common {
                u: pair.0,
                v: pair.1,
                witnesses: entries()?
                    .split(',')
                    .filter(|w| !w.is_empty())
                    .map(|w| w.parse().map_err(|_| format!("bad witness in {reply:?}")))
                    .collect::<Result<_, _>>()?,
            }),
        };
        if let Some(answer) = answer {
            s.reads.push(Read { epoch, answer });
        }
        if args.trace {
            s.traces.push((op, parse_trace(&reply)?));
        }
    }
    s.wall_s = started.elapsed().as_secs_f64();
    Ok(s)
}

/// Replays the batches into the oracle and checks every `SCORE` and
/// `COMMON` answer at its epoch, and every `TOPK` answer at three epochs
/// (the first and last read, one seeded pick): a top-k check needs every
/// vertex's score, too slow to recompute at each epoch.
fn verify(initial: &Adjacency, s: &Window, seed: u64) -> Result<(), String> {
    let epochs: Vec<u64> = s.reads.iter().map(|r| r.epoch).collect();
    let (&first, &last) = epochs
        .first()
        .zip(epochs.last())
        .ok_or("no reads to check")?;
    let topk_epochs = [first, last, epochs[Rng::new(seed).below(epochs.len())]];

    let mut g = initial.clone();
    let mut scratch = Scratch::new(g.n());
    let mut applied = 0usize;
    // `(epoch, scores, ranked)` of the last epoch a top-k read was checked at.
    let mut truth: Option<(u64, Vec<f64>, Vec<f64>)> = None;
    for r in &s.reads {
        // One client: each reply's epoch is at least the previous one's.
        if r.epoch < applied as u64 {
            return Err(format!("read at epoch {} after epoch {applied}", r.epoch));
        }
        while (applied as u64) < r.epoch {
            for &(ins, u, v) in &s.batches[applied] {
                if !(if ins { g.insert(u, v) } else { g.remove(u, v) }) {
                    return Err(format!(
                        "oracle replay: op ({ins}, {u}, {v}) changed nothing"
                    ));
                }
            }
            applied += 1;
        }
        match &r.answer {
            Answer::Top { k, entries } if topk_epochs.contains(&r.epoch) => {
                if truth.as_ref().is_none_or(|(e, _, _)| *e != r.epoch) {
                    let scores = g.scores();
                    let ranked = ranked(&scores);
                    truth = Some((r.epoch, scores, ranked));
                }
                let (_, scores, ranked) = truth.as_ref().expect("computed above");
                check_topk(entries, *k, scores, ranked)
            }
            Answer::Top { .. } => Ok(()),
            Answer::Score(entries) => entries.iter().try_for_each(|&(v, got)| {
                let want = g.score(v, &mut scratch);
                if close(got, want) {
                    Ok(())
                } else {
                    Err(format!("score {v}: {got}, truth {want}"))
                }
            }),
            Answer::Common { u, v, witnesses } => {
                let want = g.common(*u, *v);
                if *witnesses == want {
                    Ok(())
                } else {
                    Err(format!("common {u} {v}: {witnesses:?}, want {want:?}"))
                }
            }
        }
        .map_err(|e| format!("epoch {}: {e}", r.epoch))?;
    }
    Ok(())
}

/// Confines this thread, and every thread it starts afterwards (the
/// daemon's acceptor and workers), to the highest-numbered CPU it may use.
///
/// The client waits for each reply, so only one side runs at a time. On
/// the 2-vCPU virtual machines this benchmark was tuned on, a request
/// handed from one CPU to the other waited on a cross-CPU wake-up that
/// took 2–3× the request's own time and swung from run to run; on one CPU
/// the latencies are the daemon's work and the loopback system calls.
fn pin_to_one_cpu() -> Result<(), String> {
    // glibc's wrappers (std links glibc on Linux); `pid` 0 is this thread.
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..64 * mask.len())
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Work directory for the graph file and the WAL, inside the repository
/// next to the build output (which git ignores).
fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_build")
        .join("perfbench-work")
        .join(format!("serve-churn-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // Preferential attachment, 20,000 vertices and ~100,000 edges: hubs
    // make index maintenance and engine reads costly, and the size makes
    // per-epoch work proportional to the graph show against per-op work.
    let structure = egobtw_gen::barabasi_albert(20_000, 5, 0xEB05);
    let ids = relabeling(structure.n(), args.seed);
    let edges = relabeled_edges(&structure, &ids);
    let generated = CsrGraph::from_edges(structure.n(), &edges);
    let initial = Adjacency::new(generated.n(), edges.iter().copied());
    let dir = work_dir()?;
    let graph_path = dir.join("graph.snap");
    write_snapshot_file(&generated, None, &graph_path)
        .map_err(|e| format!("writing graph: {e}"))?;

    // WAL appends reach the page cache only: fsync latency belongs to the
    // device, and would make the figures depend on the disk's neighbours.
    let service = Service::with_config(CatalogConfig {
        persist: Some(PersistConfig {
            fsync: FsyncPolicy::Never,
            ..PersistConfig::new(dir.join("data"))
        }),
        ..CatalogConfig::default()
    });
    if let Err(e) = pin_to_one_cpu() {
        eprintln!("perfbench: running unpinned: {e}");
    }
    let server = Server::spawn_with(
        Arc::new(service),
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("starting server: {e}"))?;
    let result = drive(
        args,
        server.local_addr(),
        &initial,
        &structure,
        &ids,
        &generated,
        &graph_path,
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    result
}

fn drive(
    args: &Args,
    addr: SocketAddr,
    initial: &Adjacency,
    structure: &CsrGraph,
    ids: &[u32],
    generated: &CsrGraph,
    graph_path: &Path,
) -> Result<Outcome, String> {
    let mut conn = Conn::open(addr)?;
    // Set-up: LOAD reads the graph file, builds the delta index and writes
    // the first durable snapshot; an untimed DROP precedes each repeat.
    let load = format!("LOAD g {} delta:{MAINTAINED_K}", graph_path.display());
    let mut loaded = false;
    let setup_s = repeat_setup(|| {
        if loaded {
            conn.expect_ok("DROP g")?;
        }
        let t0 = Instant::now();
        conn.expect_ok(&load)?;
        loaded = true;
        Ok(t0.elapsed().as_secs_f64())
    })?;

    let mut churn = Churn::new(structure, ids, args.seed);
    let s = measure(&mut conn, &mut churn, initial.n(), args)?;
    drop(conn);
    if let Some(first) = s.errors.first() {
        eprintln!(
            "perfbench: {} failed requests; first: {first}",
            s.errors.len()
        );
    }
    let correct = match verify(initial, &s, args.seed) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("perfbench: wrong answer: {e}");
            false
        }
    };

    let metrics = if args.trace {
        let engine: Vec<&ServerTrace> = s
            .traces
            .iter()
            .filter(|(op, t)| *op == Op::EngineRead && t.engine)
            .map(|(_, t)| t)
            .collect();
        if engine.is_empty() {
            return Err("no engine-path read ran in the traced window".into());
        }
        let per_engine =
            |f: fn(&ServerTrace) -> f64| median(&engine.iter().map(|t| f(t)).collect::<Vec<_>>());
        // Microseconds as a percentage of the window.
        let share = |us: f64| us / (s.wall_s * 1e4);
        let update_us: f64 = s
            .traces
            .iter()
            .filter(|(op, _)| *op == Op::Update)
            .map(|(_, t)| t.compute_us)
            .sum();
        let transport_us: f64 = s
            .ops
            .iter()
            .zip(&s.traces)
            .map(|(op, (_, t))| (op.latency_ms * 1e3 - t.total_us).max(0.0))
            .sum();
        Layers {
            kernel_ns: kernel_ns_per_intersection(generated),
            engine_ms: per_engine(|t| t.compute_us) / 1e3,
            engine_exact: per_engine(|t| t.exact),
            engine_refreshes: per_engine(|t| t.refreshes),
            engine_share_pct: share(engine.iter().map(|t| t.compute_us).sum()),
            update_share_pct: share(update_us),
            transport_share_pct: share(transport_us),
        }
        .metrics()
    } else {
        end_to_end(&s.ops, s.wall_s, &setup_s)?
    };
    Ok(Outcome {
        correct,
        attempted: (s.ops.len() + s.errors.len()) as u64,
        failed: s.errors.len() as u64,
        metrics,
    })
}
