//! Reproducible perf harness: the bench-trajectory driver.
//!
//! Runs the five dataset stand-ins × {`compute_all`, `opt_search` θ=1.05,
//! `edge_pebw` at 1/2/4 threads} with warmup + median-of-R timing, on two
//! configurations of every dataset:
//!
//! * **baseline** — the representation before hub bitmaps: a
//!   bitmap-free CSR (`HybridConfig::disabled`) with original vertex ids,
//!   run through the same engines (`compute_all` on it is the baseline
//!   column's all-egos time);
//! * **hybrid** — the degree-descending relabeled twin with auto-chosen
//!   hub bitmap rows, i.e. the representation every engine now runs on.
//!
//! Both timings and their ratio are recorded per case in
//! `BENCH_topk.json`, so the speedup claim is reproducible in-file and
//! future PRs have a machine-readable trajectory to not regress.
//!
//! ```text
//! cargo run --release -p egobtw-bench --bin perf -- [flags]
//!
//! flags:
//!   --scale S     dataset size multiplier (default 0.5)
//!   --rounds R    timed rounds per case, median reported (default 5)
//!   --warmup W    untimed runs per case (default 1)
//!   --k K         top-k for the search engines (default 100)
//!   --out PATH    output file (default BENCH_topk.json)
//!   --validate PATH   don't run: schema-check an existing file (CI smoke)
//! ```
//!
//! Correctness guard: for every dataset the baseline and hybrid
//! `compute_all` score vectors are compared (inverse-mapped, relative
//! 1e-9) before any timing is reported.

use egobtw_bench::json::Json;
use egobtw_bench::standins;
use egobtw_core::{compute_all, opt_bsearch, OptParams};
use egobtw_graph::{CsrGraph, HybridConfig, Relabeling};
use egobtw_parallel::edge_pebw;
use std::time::Instant;

const SCHEMA: &str = "egobtw/bench-topk/v3";

struct Args {
    scale: f64,
    rounds: usize,
    warmup: usize,
    k: usize,
    out: String,
    validate: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        scale: 0.5,
        rounds: 5,
        warmup: 1,
        k: 100,
        out: "BENCH_topk.json".into(),
        validate: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| -> Result<&String, String> {
            argv.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--scale" => args.scale = value(i)?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--rounds" => args.rounds = value(i)?.parse().map_err(|e| format!("--rounds: {e}"))?,
            "--warmup" => args.warmup = value(i)?.parse().map_err(|e| format!("--warmup: {e}"))?,
            "--k" => args.k = value(i)?.parse().map_err(|e| format!("--k: {e}"))?,
            "--out" => args.out = value(i)?.clone(),
            "--validate" => args.validate = Some(value(i)?.clone()),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    if args.rounds == 0 {
        return Err("--rounds must be ≥ 1".into());
    }
    Ok(args)
}

/// Warmup + median-of-R wall-clock nanoseconds for one closure.
fn median_ns<T>(warmup: usize, rounds: usize, mut f: impl FnMut() -> T) -> u64 {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut samples: Vec<u64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// One timed engine configuration on one dataset.
struct CaseResult {
    engine: String,
    hybrid_ns: u64,
    baseline_ns: u64,
}

fn run_dataset(
    name: &str,
    graph: &CsrGraph,
    args: &Args,
) -> (Vec<CaseResult>, /* hub stats */ (usize, usize, u64)) {
    // Baseline representation: no hub bitmaps, original ids.
    let plain = graph.with_hybrid_config(&HybridConfig::disabled());
    // Hybrid representation: degree-relabeled twin with auto hub rows.
    let t0 = Instant::now();
    let relab = Relabeling::degree_descending(graph);
    let rg = relab.apply(graph);
    let prep_ns = t0.elapsed().as_nanos() as u64;

    // Correctness guard before timing anything.
    let base_scores = compute_all(&plain).0;
    let hybrid_scores = relab.restore_scores(&compute_all(&rg).0);
    for (v, (a, b)) in base_scores.iter().zip(&hybrid_scores).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
            "{name}: hybrid CB({v}) = {b} diverges from baseline {a}"
        );
    }

    let w = args.warmup;
    let r = args.rounds;
    let mut cases = vec![CaseResult {
        engine: "compute_all".into(),
        hybrid_ns: median_ns(w, r, || compute_all(&rg)),
        baseline_ns: median_ns(w, r, || compute_all(&plain)),
    }];
    let params = OptParams { theta: 1.05 };
    cases.push(CaseResult {
        engine: format!("opt_search(theta=1.05,k={})", args.k),
        hybrid_ns: median_ns(w, r, || opt_bsearch(&rg, args.k, params)),
        baseline_ns: median_ns(w, r, || opt_bsearch(&plain, args.k, params)),
    });
    for threads in [1usize, 2, 4] {
        cases.push(CaseResult {
            engine: format!("edge_pebw(t={threads})"),
            hybrid_ns: median_ns(w, r, || edge_pebw(&rg, threads)),
            baseline_ns: median_ns(w, r, || edge_pebw(&plain, threads)),
        });
    }
    let hub_stats = (rg.hub_count(), rg.hub_threshold().unwrap_or(0), prep_ns);
    (cases, hub_stats)
}

fn run(args: &Args) {
    let datasets = standins(args.scale);
    let mut case_rows: Vec<Json> = Vec::new();
    for d in &datasets {
        eprintln!(
            "perf: {} (n={}, m={}) ...",
            d.name,
            d.graph.n(),
            d.graph.m()
        );
        let (cases, (hubs, threshold, prep_ns)) = run_dataset(d.name, &d.graph, args);
        for c in &cases {
            let speedup = c.baseline_ns as f64 / (c.hybrid_ns as f64).max(1.0);
            eprintln!(
                "  {:<28} hybrid {:>12} ns   baseline {:>12} ns   {:.2}x",
                c.engine, c.hybrid_ns, c.baseline_ns, speedup
            );
            case_rows.push(Json::Obj(vec![
                ("dataset".into(), Json::Str(d.name.into())),
                ("engine".into(), Json::Str(c.engine.clone())),
                ("n".into(), Json::Num(d.graph.n() as f64)),
                ("m".into(), Json::Num(d.graph.m() as f64)),
                ("hubs".into(), Json::Num(hubs as f64)),
                ("hub_threshold".into(), Json::Num(threshold as f64)),
                ("prep_ns".into(), Json::Num(prep_ns as f64)),
                ("median_ns".into(), Json::Num(c.hybrid_ns as f64)),
                ("baseline_median_ns".into(), Json::Num(c.baseline_ns as f64)),
                (
                    "speedup".into(),
                    Json::Num((speedup * 1000.0).round() / 1000.0),
                ),
            ]));
        }
    }
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("scale".into(), Json::Num(args.scale)),
        ("rounds".into(), Json::Num(args.rounds as f64)),
        ("warmup".into(), Json::Num(args.warmup as f64)),
        ("k".into(), Json::Num(args.k as f64)),
        (
            "baseline".into(),
            Json::Str("bitmap-free CSR, original ids, same engines".into()),
        ),
        (
            "hybrid".into(),
            Json::Str("degree-relabeled twin, auto hub-bitmap rows, adaptive dispatch".into()),
        ),
        ("cases".into(), Json::Arr(case_rows)),
    ]);
    let mut text = doc.pretty();
    text.push('\n');
    std::fs::write(&args.out, text).unwrap_or_else(|e| panic!("writing {}: {e}", args.out));
    println!("wrote {}", args.out);
}

/// Schema check for CI: the file parses, carries the expected schema tag,
/// and every case row has the mandatory fields with sane types. No timing
/// assertions — machines differ; the trajectory comparison is a human /
/// reviewer concern.
fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = Json::parse(&text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema tag")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
    }
    for field in ["scale", "rounds", "warmup", "k"] {
        doc.get(field)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing numeric field {field:?}"))?;
    }
    let cases = doc
        .get("cases")
        .and_then(Json::as_arr)
        .ok_or("missing cases array")?;
    if cases.is_empty() {
        return Err("cases array is empty".into());
    }
    let mut datasets = std::collections::BTreeSet::new();
    let mut engines = std::collections::BTreeSet::new();
    for (i, case) in cases.iter().enumerate() {
        let field = |name: &str| {
            case.get(name)
                .ok_or_else(|| format!("case {i}: missing field {name:?}"))
        };
        datasets.insert(
            field("dataset")?
                .as_str()
                .ok_or_else(|| format!("case {i}: dataset not a string"))?
                .to_string(),
        );
        engines.insert(
            field("engine")?
                .as_str()
                .ok_or_else(|| format!("case {i}: engine not a string"))?
                .to_string(),
        );
        for name in ["median_ns", "baseline_median_ns", "speedup"] {
            let x = field(name)?
                .as_num()
                .ok_or_else(|| format!("case {i}: {name} not a number"))?;
            if !(x.is_finite() && x > 0.0) {
                return Err(format!("case {i}: {name} = {x} is not a positive number"));
            }
        }
    }
    if datasets.len() < 5 {
        return Err(format!(
            "only {} datasets covered, expected 5",
            datasets.len()
        ));
    }
    if engines.len() < 5 {
        return Err(format!(
            "only {} engine configs covered, expected ≥ 5",
            engines.len()
        ));
    }

    println!(
        "{path}: ok ({} cases, {} datasets × {} engines)",
        cases.len(),
        datasets.len(),
        engines.len()
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perf [--scale S] [--rounds R] [--warmup W] [--k K] \
                 [--out PATH] | --validate PATH"
            );
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.validate {
        if let Err(e) = validate(path) {
            eprintln!("{path}: INVALID: {e}");
            std::process::exit(1);
        }
        return;
    }
    run(&args);
}
