//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload static-skewed|serve-churn \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every input is generated from `--seed`; the program under test only
//! sees the generated graph and requests. Each run measures for
//! `--seconds`, checks every timed answer (top-k answers at sampled
//! epochs on `serve-churn`) against an independent oracle, and prints one
//! JSON line last: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` a separately
//! traced run's per-layer metrics. See `perfbench/README.md` for the metric catalogue.

mod reference;
mod serve;
mod static_search;

use egobtw_graph::CsrGraph;
use std::time::{Duration, Instant};

/// Command-line arguments (all required).
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run hands back for printing.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// One timed request: when it finished (seconds into the measured
/// window) and how long it took.
pub struct Timed {
    pub end_s: f64,
    pub latency_ms: f64,
}

/// The measured window is cut into slices of about this many seconds and
/// each end-to-end figure is computed per slice. Short enough that most
/// slices fall within one of the host's speed phases (see
/// [`FAST_QUANTILE`]); two-second slices left the static p90 half again
/// as spread.
const SLICE_S: f64 = 1.0;

/// Each end-to-end figure is this quantile of its per-slice values, counted
/// from the fast end (the lower quartile of latencies, the upper quartile
/// of rates). On a shared 2-vCPU virtual machine the same search ran at
/// two or more speeds up to half apart (5-s medians of 36 to 59 ms over ten
/// minutes), switching every few seconds as load elsewhere on the host
/// came and went. The median slice then flipped between speeds from run to
/// run, while the faster quarter stays on the fast one unless load covers
/// three quarters of the window: over that trace, cut into 45-s windows,
/// the spread (IQR / median) across windows fell from 0.13 / 0.19 / 0.14
/// to 0.10 / 0.13 / 0.13 for p50 / p90 / rate. The cost: a regression
/// shows in full only once it slows more than three quarters of the
/// slices. Work the program repeats every second or so (WAL compaction on
/// `serve-churn`, say) lands in every slice and shows.
const FAST_QUANTILE: f64 = 0.25;

/// The end-to-end metrics (`--trace 0`) of one measured window.
pub fn end_to_end(ops: &[Timed], wall_s: f64, setup_s: &[f64]) -> Result<Vec<Metric>, String> {
    let slices = ((wall_s / SLICE_S).round() as usize).max(1);
    let slice_s = wall_s / slices as f64;
    let (mut p50, mut p90, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..slices {
        let mut latency: Vec<f64> = ops
            .iter()
            .filter(|op| ((op.end_s / slice_s) as usize).min(slices - 1) == i)
            .map(|op| op.latency_ms)
            .collect();
        if latency.is_empty() {
            return Err(format!("no request finished in slice {i} of the window"));
        }
        latency.sort_unstable_by(f64::total_cmp);
        p50.push(quantile(&latency, 0.5));
        p90.push(quantile(&latency, 0.9));
        rate.push(latency.len() as f64 / slice_s);
    }
    Ok(vec![
        Metric {
            name: "op_p50_ms",
            value: quantile_of(&p50, FAST_QUANTILE),
            unit: "ms",
        },
        Metric {
            name: "op_p90_ms",
            value: quantile_of(&p90, FAST_QUANTILE),
            unit: "ms",
        },
        Metric {
            name: "ops_per_s",
            value: quantile_of(&rate, 1.0 - FAST_QUANTILE),
            unit: "1/s",
        },
        Metric {
            name: "setup_s",
            value: median(setup_s),
            unit: "s",
        },
    ])
}

/// Set-up is repeated for this long (and at least three times) and
/// `setup_s` is the median: one set-up lasts milliseconds, and the
/// machine's slower moments last up to a second or two.
const SETUP_SECONDS: f64 = 3.0;

/// Runs `once` (which returns the seconds its timed part took) until
/// [`SETUP_SECONDS`] have passed, returning every timing.
pub fn repeat_setup(mut once: impl FnMut() -> Result<f64, String>) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || started.elapsed().as_secs_f64() < SETUP_SECONDS {
        times.push(once()?);
    }
    Ok(times)
}

/// The per-layer metrics (`--trace 1`). Shares are of the client's wall
/// time in the measured window; a layer a workload never enters reports 0.
pub struct Layers {
    /// Kernel: ns per materialized common neighbourhood, over the
    /// graph's edges.
    pub kernel_ns: f64,
    /// Engine: median compute time of one exact top-k search.
    pub engine_ms: f64,
    /// Engine: median vertices computed exactly per search (Table II).
    pub engine_exact: f64,
    /// Engine: median dynamic-bound refreshes per search (heap pops
    /// that recomputed a vertex's tightening bound).
    pub engine_refreshes: f64,
    pub engine_share_pct: f64,
    /// Write path (maintainer apply + WAL append + snapshot publish).
    pub update_share_pct: f64,
    /// Socket, framing and client: request time outside the server span.
    pub transport_share_pct: f64,
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric {
                name: "kernel_ns",
                value: self.kernel_ns,
                unit: "ns",
            },
            Metric {
                name: "engine_ms",
                value: self.engine_ms,
                unit: "ms",
            },
            Metric {
                name: "engine_exact",
                value: self.engine_exact,
                unit: "count",
            },
            Metric {
                name: "engine_refreshes",
                value: self.engine_refreshes,
                unit: "count",
            },
            Metric {
                name: "engine_share_pct",
                value: self.engine_share_pct,
                unit: "%",
            },
            Metric {
                name: "update_share_pct",
                value: self.update_share_pct,
                unit: "%",
            },
            Metric {
                name: "transport_share_pct",
                value: self.transport_share_pct,
                unit: "%",
            },
        ]
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{}: bad number {value:?}", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    let trace = match trace {
        Some(0) => false,
        Some(1) => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload static-skewed|serve-churn \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "static-skewed" => static_search::run(&args),
        "serve-churn" => serve::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match outcome {
        Ok(out) => println!("{}", render(&out)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn render(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// SplitMix64: a tiny seeded generator, so inputs depend on `--seed`
/// alone and not on the workspace's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A seeded random vertex numbering: vertex `v` of a generated graph is
/// `ids[v]` in the graph the program sees.
///
/// Each workload's graph *structure* (and anything else drawn from it)
/// comes from a generator run with a fixed seed, because the cost of a
/// search is set by a few hubs whose degrees swing widely between
/// generator seeds; `--seed` varies the vertex ids (and the request
/// stream), which changes memory layout and every id the program sees but
/// not the work an answer takes.
pub fn relabeling(n: usize, seed: u64) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n as u32).collect();
    Rng::new(seed ^ 0x1D5).shuffle(&mut ids);
    ids
}

/// The edges of `g` under the numbering `ids`.
pub fn relabeled_edges(g: &CsrGraph, ids: &[u32]) -> Vec<(u32, u32)> {
    g.edges()
        .map(|(u, v)| (ids[u as usize], ids[v as usize]))
        .collect()
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Quantile of unsorted samples.
pub fn quantile_of(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    quantile(&sorted, q)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile_of(samples, 0.5)
}

/// Kernel layer: nanoseconds per materialized `N(u) ∩ N(v)` over every
/// edge of `g`, through `CsrGraph::common_neighbors_into` — the entry point
/// OptBSearch's exact computation, the dynamic maintainers and `COMMON`
/// call — into one reused buffer, as they do. Median of five passes, each
/// repeated until it lasts at least 20 ms.
pub fn kernel_ns_per_intersection(g: &CsrGraph) -> f64 {
    let edges: Vec<(u32, u32)> = g.edges().collect();
    assert!(!edges.is_empty(), "kernel probe needs edges");
    let mut common = Vec::new();
    let mut pass = || {
        let t0 = Instant::now();
        let mut calls = 0u64;
        while t0.elapsed() < Duration::from_millis(20) {
            for &(u, v) in &edges {
                common.clear();
                g.common_neighbors_into(
                    std::hint::black_box(u),
                    std::hint::black_box(v),
                    &mut common,
                );
                std::hint::black_box(&common);
            }
            calls += edges.len() as u64;
        }
        t0.elapsed().as_nanos() as f64 / calls as f64
    };
    median(&(0..5).map(|_| pass()).collect::<Vec<_>>())
}
