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
//!   --approx-scale S   R-MAT multiplier for the approx demo (default 5)
//!   --approx-trials T  repeated (ε, δ) validation trials (default 8)
//!   --out PATH    output file (default BENCH_topk.json)
//!   --validate PATH   don't run: schema-check an existing file (CI smoke)
//! ```
//!
//! Correctness guard: for every dataset the baseline and hybrid
//! `compute_all` score vectors are compared (inverse-mapped, relative
//! 1e-9) before any timing is reported.
//!
//! The `approx` section is the sampling-engine payoff demo: on the
//! skewed R-MAT stand-in at `--approx-scale` (default 5), it times exact vs
//! `approx_topk` at (ε = 0.05, δ = 0.01, k = 8) and re-runs the sampler
//! `--approx-trials` times with fresh seeds, counting statistical-
//! contract violations (CI containment, bounded displacement, estimate
//! accuracy, rank-slack discipline) against the exact truth. The
//! committed run records the observed speedup and a zero violation
//! count; the validator enforces both.

use egobtw_bench::json::Json;
use egobtw_bench::{rmat_standin, standins};
use egobtw_core::{approx_topk, compute_all, opt_bsearch, ApproxParams, ApproxTopk, OptParams};
use egobtw_graph::{CsrGraph, HybridConfig, Relabeling};
use egobtw_parallel::edge_pebw;
use std::time::Instant;

const SCHEMA: &str = "egobtw/bench-topk/v2";
/// The approx demo's fixed operating point (the headline claim).
const APPROX_EPS: f64 = 0.05;
const APPROX_DELTA: f64 = 0.01;
const APPROX_K: usize = 8;

struct Args {
    scale: f64,
    rounds: usize,
    warmup: usize,
    k: usize,
    approx_scale: f64,
    approx_trials: usize,
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
        approx_scale: 5.0,
        approx_trials: 8,
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
            "--approx-scale" => {
                args.approx_scale = value(i)?
                    .parse()
                    .map_err(|e| format!("--approx-scale: {e}"))?;
            }
            "--approx-trials" => {
                args.approx_trials = value(i)?
                    .parse()
                    .map_err(|e| format!("--approx-trials: {e}"))?;
            }
            "--out" => args.out = value(i)?.clone(),
            "--validate" => args.validate = Some(value(i)?.clone()),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    if args.rounds == 0 {
        return Err("--rounds must be ≥ 1".into());
    }
    if args.approx_trials == 0 {
        return Err("--approx-trials must be ≥ 1".into());
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

/// Checks one sampler output against the exact truth: the same
/// statistical contract the conformance tier's `approx_check` enforces
/// (CI containment, bounded displacement below `c*_k`, per-entry
/// estimate accuracy, rank-slack discipline on a clean stop). Returns a
/// description of the first violation, if any — the δ-events the trials
/// loop counts.
fn approx_violation(truth: &[f64], out: &ApproxTopk, k: usize, eps: f64) -> Option<String> {
    let expect = k.min(truth.len());
    if out.entries.len() != expect {
        return Some(format!(
            "returned {} entries, expected {expect}",
            out.entries.len()
        ));
    }
    if expect == 0 {
        return None;
    }
    let mut sorted = truth.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let ck = sorted[expect - 1];
    let atol = 1e-9 * ck.abs().max(1.0);
    for e in &out.entries {
        let t = truth[e.vertex as usize];
        if t < e.lo - atol || t > e.hi + atol {
            return Some(format!(
                "vertex {} true CB {t} outside CI [{}, {}]",
                e.vertex, e.lo, e.hi
            ));
        }
        if t < ck - eps * ck.max(1.0) - atol {
            return Some(format!(
                "vertex {} true CB {t} displaced more than ε below c*_k = {ck}",
                e.vertex
            ));
        }
        if (e.estimate - t).abs() > eps * ck.max(t).max(1.0) + atol {
            return Some(format!(
                "vertex {} estimate {} more than ε-slack from true CB {t}",
                e.vertex, e.estimate
            ));
        }
    }
    if !out.budget_exhausted && out.rank_slack > eps * ck.max(1.0) + atol {
        return Some(format!(
            "clean stop but rank slack {} exceeds ε·max(1, c*_k)",
            out.rank_slack
        ));
    }
    None
}

/// SplitMix64 finalizer for decorrelated per-trial seeds.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sampling-engine payoff demo + repeated-trials honesty check.
fn run_approx(args: &Args) -> Json {
    let d = rmat_standin(args.approx_scale);
    let g = &d.graph;
    eprintln!(
        "perf: approx demo on {} at scale {} (n={}, m={}) ...",
        d.name,
        args.approx_scale,
        g.n(),
        g.m()
    );

    let t0 = Instant::now();
    let truth = egobtw_core::compute_all(g).0;
    let exact_ns = t0.elapsed().as_nanos() as u64;
    eprintln!("  exact compute_all          {exact_ns:>14} ns");

    let params = ApproxParams::new(APPROX_EPS, APPROX_DELTA);
    let approx_ns = median_ns(args.warmup.min(1), args.rounds, || {
        approx_topk(g, APPROX_K, &params)
    });
    let headline = approx_topk(g, APPROX_K, &params);
    let speedup = exact_ns as f64 / (approx_ns as f64).max(1.0);
    eprintln!(
        "  approx_topk(eps={APPROX_EPS},delta={APPROX_DELTA},k={APPROX_K}) \
         {approx_ns:>14} ns   {speedup:.2}x   samples={} rounds={}",
        headline.samples_drawn, headline.rounds
    );

    // Repeated trials with fresh seeds: every run must honor the full
    // statistical contract against the exact truth. A nonzero count here
    // fails validation — the committed file proves an honest run.
    let mut violations = 0usize;
    for trial in 0..args.approx_trials {
        let mut p = params;
        p.seed = mix64(0xBE2C_11A7 ^ trial as u64);
        let out = approx_topk(g, APPROX_K, &p);
        if let Some(why) = approx_violation(&truth, &out, APPROX_K, APPROX_EPS) {
            eprintln!("  trial {trial}: VIOLATION: {why}");
            violations += 1;
        }
    }
    eprintln!(
        "  trials={} violations={violations} (δ promised {APPROX_DELTA})",
        args.approx_trials
    );

    Json::Obj(vec![
        ("dataset".into(), Json::Str(d.name.into())),
        ("approx_scale".into(), Json::Num(args.approx_scale)),
        ("n".into(), Json::Num(g.n() as f64)),
        ("m".into(), Json::Num(g.m() as f64)),
        ("k".into(), Json::Num(APPROX_K as f64)),
        ("eps".into(), Json::Num(APPROX_EPS)),
        ("delta".into(), Json::Num(APPROX_DELTA)),
        ("exact_ns".into(), Json::Num(exact_ns as f64)),
        ("approx_median_ns".into(), Json::Num(approx_ns as f64)),
        (
            "speedup".into(),
            Json::Num((speedup * 1000.0).round() / 1000.0),
        ),
        (
            "samples_drawn".into(),
            Json::Num(headline.samples_drawn as f64),
        ),
        (
            "sampling_rounds".into(),
            Json::Num(f64::from(headline.rounds)),
        ),
        (
            "budget_exhausted".into(),
            Json::Bool(headline.budget_exhausted),
        ),
        ("trials".into(), Json::Num(args.approx_trials as f64)),
        ("violations".into(), Json::Num(violations as f64)),
    ])
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
        ("approx".into(), run_approx(args)),
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

    // v2: the approx demo section. Violations must be zero on every run;
    // the ≥ 20× headline is enforced only at demo scale (≥ 5), so CI's
    // small-scale regeneration still validates.
    let approx = doc.get("approx").ok_or("missing approx section")?;
    let num = |name: &str| {
        approx
            .get(name)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("approx: missing numeric field {name:?}"))
    };
    for name in [
        "n",
        "m",
        "k",
        "eps",
        "delta",
        "exact_ns",
        "approx_median_ns",
    ] {
        let x = num(name)?;
        if !(x.is_finite() && x > 0.0) {
            return Err(format!("approx: {name} = {x} is not a positive number"));
        }
    }
    let trials = num("trials")?;
    if trials < 1.0 {
        return Err(format!("approx: trials = {trials}, expected ≥ 1"));
    }
    let violations = num("violations")?;
    if violations != 0.0 {
        return Err(format!(
            "approx: {violations} statistical-contract violations recorded — \
             the committed run must be honest"
        ));
    }
    let approx_scale = num("approx_scale")?;
    let speedup = num("speedup")?;
    if !(speedup.is_finite() && speedup > 0.0) {
        return Err(format!("approx: speedup = {speedup} is not positive"));
    }
    if approx_scale >= 5.0 && speedup < 20.0 {
        return Err(format!(
            "approx: speedup {speedup}x at demo scale {approx_scale}, expected ≥ 20x"
        ));
    }
    println!(
        "{path}: ok ({} cases, {} datasets × {} engines; approx {speedup}x, \
         {trials} trials, 0 violations)",
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
                 [--approx-scale S] [--approx-trials T] [--out PATH] | --validate PATH"
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
