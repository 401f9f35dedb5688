//! Experiment reproduction driver: one subcommand per table/figure of the
//! paper's evaluation (Section VI). Prints the same rows/series the paper
//! reports, on the synthetic dataset stand-ins (`egobtw_bench::standins`).
//!
//! ```text
//! cargo run --release -p egobtw-bench --bin repro -- <command> [--scale S] [--k K]
//!
//! commands:
//!   datasets   Table I     dataset statistics
//!   exp1       Fig. 6 + Table II   BaseBSearch vs OptBSearch, varying k
//!   exp2       Fig. 7      OptBSearch vs the gradient ratio θ
//!   exp3       Fig. 8      update maintenance: Local vs Lazy, insert/delete (top-k checked)
//!   exp4       Fig. 9      scalability on edge/vertex samples
//!   exp5       Fig. 10     parallel runtime and speedup, varying threads
//!   exp6       Fig. 11     TopBW vs TopEBW: runtime and overlap
//!   exp7       Fig. 12 + Tables III/IV   case study on DB/IR stand-ins
//!   ablate     (extra)     design-choice ablations: all-egos driver, intersection kernels
//!   all        everything above
//! ```
//!
//! `--scale` multiplies dataset sizes (default 1.0; use 0.1–0.3 for a
//! quick pass).

use egobtw_baseline::{overlap_fraction, top_bw};
use egobtw_bench::{case_study, ms, print_table, standins, time, Dataset};
use egobtw_core::{
    base_bsearch, compute_all, compute_all_naive, opt_bsearch, topk_from_scores, OptParams,
    TopkResult,
};
use egobtw_dynamic::{replay_graph, EdgeOp, LazyTopK, LocalIndex};
use egobtw_gen::sample::{edge_sample, vertex_sample};
use egobtw_graph::intersect::{
    bitmap_bitmap_intersection_count, gallop_intersection_count, intersection_count,
    merge_intersection_count, pack_bitmap, slice_bitmap_intersection_count, GALLOP_RATIO,
};
use egobtw_graph::{CsrGraph, HybridConfig, VertexId};
use egobtw_parallel::{edge_pebw, vertex_pebw};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let scale = flag_value(&args, "--scale").unwrap_or(1.0);
    let k_default = flag_value(&args, "--k").map(|k| k as usize).unwrap_or(500);

    match cmd {
        "datasets" => datasets(scale),
        "exp1" => exp1(scale),
        "exp2" => exp2(scale),
        "exp3" => exp3(scale, k_default),
        "exp4" => exp4(scale),
        "exp5" => exp5(scale),
        "exp6" => exp6(scale),
        "exp7" => exp7(scale),
        "ablate" => ablate(scale),
        "all" => {
            datasets(scale);
            exp1(scale);
            exp2(scale);
            exp3(scale, k_default);
            exp4(scale);
            exp5(scale);
            exp6(scale);
            exp7(scale);
            ablate(scale);
        }
        _ => {
            eprintln!(
                "usage: repro <datasets|exp1..exp7|ablate|all> [--scale S] [--k K]\n\
                 see the module docs at the top of repro.rs"
            );
            std::process::exit(2);
        }
    }
}

fn flag_value(args: &[String], name: &str) -> Option<f64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

// ---------------------------------------------------------------- Table I

fn datasets(scale: f64) {
    banner(&format!("Table I: datasets (stand-ins, scale={scale})"));
    let rows: Vec<Vec<String>> = standins(scale)
        .iter()
        .map(|d| {
            vec![
                d.name.to_string(),
                d.graph.n().to_string(),
                d.graph.m().to_string(),
                d.graph.max_degree().to_string(),
                egobtw_graph::triangle::count_triangles(&d.graph).to_string(),
                d.substitutes.to_string(),
            ]
        })
        .collect();
    print_table(
        &["dataset", "n", "m", "dmax", "triangles", "substitutes"],
        &rows,
    );
}

// -------------------------------------------------- Fig. 6 + Table II

fn exp1(scale: f64) {
    banner("Exp-1 (Fig. 6): BaseBSearch vs OptBSearch runtime, varying k");
    let ks = [50usize, 100, 200, 500, 1000, 2000];
    let sets = standins(scale);
    let mut fig6: Vec<Vec<String>> = Vec::new();
    let mut table2: Vec<Vec<String>> = Vec::new();
    for d in &sets {
        for &k in &ks {
            let (rb, tb) = time(|| base_bsearch(&d.graph, k));
            let (ro, to) = time(|| opt_bsearch(&d.graph, k, OptParams::default()));
            let speedup = tb.as_secs_f64() / to.as_secs_f64().max(1e-12);
            fig6.push(vec![
                d.name.into(),
                k.to_string(),
                ms(tb),
                ms(to),
                format!("{speedup:.1}x"),
            ]);
            if matches!(k, 500 | 1000 | 2000) {
                table2.push(vec![
                    d.name.into(),
                    k.to_string(),
                    rb.stats.exact_computations.to_string(),
                    ro.stats.exact_computations.to_string(),
                ]);
            }
            // Sanity: identical value sequences, bit for bit — both
            // searches score egos with the same kernel.
            let values = |r: &TopkResult| r.entries.iter().map(|e| e.1).collect::<Vec<_>>();
            assert_eq!(values(&rb), values(&ro), "base/opt disagree");
        }
    }
    print_table(
        &["dataset", "k", "BaseBS (ms)", "OptBS (ms)", "speedup"],
        &fig6,
    );
    banner("Table II: #vertices computed exactly");
    print_table(&["dataset", "k", "BaseBS", "OptBS"], &table2);
}

// ------------------------------------------------------------- Fig. 7

fn exp2(scale: f64) {
    banner("Exp-2 (Fig. 7): OptBSearch vs gradient ratio θ (k=500)");
    let thetas = [1.05, 1.10, 1.15, 1.20, 1.25, 1.30];
    let sets = standins(scale);
    let mut rows = Vec::new();
    for d in sets
        .iter()
        .filter(|d| d.name == "wikitalk-like" || d.name == "livejournal-like")
    {
        for &theta in &thetas {
            let (r, t) = time(|| opt_bsearch(&d.graph, 500, OptParams { theta }));
            rows.push(vec![
                d.name.into(),
                format!("{theta:.2}"),
                ms(t),
                r.stats.exact_computations.to_string(),
                r.stats.bound_refreshes.to_string(),
            ]);
        }
    }
    print_table(
        &["dataset", "theta", "OptBS (ms)", "exact", "bound refreshes"],
        &rows,
    );
}

// ------------------------------------------------------------- Fig. 8

/// Undirected edge list, as produced by [`pick_updates`].
type EdgeList = Vec<(VertexId, VertexId)>;

/// Picks `count` random insertable non-edges and deletable edges.
fn pick_updates(g: &egobtw_graph::CsrGraph, count: usize, seed: u64) -> (EdgeList, EdgeList) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.n() as VertexId;
    let mut inserts = Vec::with_capacity(count);
    while inserts.len() < count {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v && !g.has_edge(u, v) {
            inserts.push((u, v));
        }
    }
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let deletes = (0..count)
        .map(|_| edges[rng.random_range(0..edges.len())])
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    (inserts, deletes)
}

/// Relative tolerance for `LazyTopK`'s top-k against `compute_all`: the
/// conformance harness's `REL_TOL`, restated because `egobtw-bench` sits
/// below `egobtw-service` and takes no dependency on `conformance`.
const REL_TOL: f64 = 1e-9;

/// Asserts that a maintained top-k holds the `k` largest `compute_all`
/// scores, each reported for a vertex that really has it, up to ties.
fn check_maintained(who: &str, truth: &[f64], got: &[(VertexId, f64)], k: usize) {
    let close = |a: f64, b: f64| (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0);
    let mut want = truth.to_vec();
    want.sort_by(|a, b| b.total_cmp(a));
    want.truncate(k);
    assert_eq!(got.len(), want.len(), "{who}: top-k size");
    for (&(v, s), &w) in got.iter().zip(&want) {
        assert!(
            close(s, truth[v as usize]) && close(s, w),
            "{who}: vertex {v} reports {s}, compute_all gives {} (rank value {w})",
            truth[v as usize]
        );
    }
}

fn exp3(scale: f64, k: usize) {
    banner(&format!(
        "Exp-3 (Fig. 8): maintenance — 1000 random updates, k={k}"
    ));
    let count = 1000;
    let mut rows = Vec::new();
    for d in &standins(scale) {
        let (inserts, deletes) = pick_updates(&d.graph, count, 0xF1B8);
        let inserts: Vec<EdgeOp> = inserts.iter().map(|&(u, v)| EdgeOp::Insert(u, v)).collect();
        // Deletes start from the original graph too.
        let deletes: Vec<EdgeOp> = deletes.iter().map(|&(u, v)| EdgeOp::Delete(u, v)).collect();
        let mut row = vec![d.name.to_string()];
        for ops in [&inserts, &deletes] {
            // Both maintainers keep a top-k answer; each is checked
            // against `compute_all` on the replayed graph after its timing.
            // `LocalIndex`'s must be exactly the full sort's.
            let mut local = LocalIndex::new(&d.graph, k);
            let (_, t_local) = time(|| {
                for &op in ops {
                    local.apply(op);
                }
            });
            let mut lazy = LazyTopK::new(&d.graph, k);
            let (_, t_lazy) = time(|| {
                for &op in ops {
                    lazy.apply(op);
                }
            });
            let (truth, _) = compute_all(&replay_graph(&d.graph, ops).to_csr());
            assert!(
                local.top_k() == topk_from_scores(&truth, k),
                "{} Local: top-k differs from compute_all's",
                d.name
            );
            check_maintained(&format!("{} Lazy", d.name), &truth, &lazy.top_k(), k);
            for t in [t_local, t_lazy] {
                row.push(format!("{:.4}", t.as_secs_f64() * 1e3 / ops.len() as f64));
            }
        }
        rows.push(row);
    }
    print_table(
        &[
            "dataset",
            "LocalInsert (ms/op)",
            "LazyInsert (ms/op)",
            "LocalDelete (ms/op)",
            "LazyDelete (ms/op)",
        ],
        &rows,
    );
}

// ------------------------------------------------------------- Fig. 9

fn exp4(scale: f64) {
    banner("Exp-4 (Fig. 9): scalability on livejournal-like (k=500)");
    let lj = standins(scale)
        .into_iter()
        .find(|d| d.name == "livejournal-like")
        .expect("registry contains livejournal-like");
    let fracs = [0.2, 0.4, 0.6, 0.8, 1.0];
    let mut rows = Vec::new();
    for &f in &fracs {
        let sub = edge_sample(&lj.graph, f, 0xE49);
        let (_, tb) = time(|| base_bsearch(&sub, 500));
        let (_, to) = time(|| opt_bsearch(&sub, 500, OptParams::default()));
        rows.push(vec![
            format!("{:.0}% edges", f * 100.0),
            sub.m().to_string(),
            ms(tb),
            ms(to),
        ]);
    }
    for &f in &fracs {
        let (sub, _) = vertex_sample(&lj.graph, f, 0xE49);
        let (_, tb) = time(|| base_bsearch(&sub, 500));
        let (_, to) = time(|| opt_bsearch(&sub, 500, OptParams::default()));
        rows.push(vec![
            format!("{:.0}% vertices", f * 100.0),
            sub.m().to_string(),
            ms(tb),
            ms(to),
        ]);
    }
    print_table(&["sample", "m", "BaseBS (ms)", "OptBS (ms)"], &rows);
}

// ------------------------------------------------------------ Fig. 10

fn exp5(scale: f64) {
    banner("Exp-5 (Fig. 10): parallel all-vertex computation on livejournal-like");
    let lj = standins(scale)
        .into_iter()
        .find(|d| d.name == "livejournal-like")
        .expect("registry contains livejournal-like");
    let ((seq, _), t_seq) = time(|| compute_all(&lj.graph));
    println!("compute_all (t = 1): {} ms", ms(t_seq));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut rows = Vec::new();
    for &t in &[1usize, 4, 8, 12, 16] {
        let (vertex, tv) = time(|| vertex_pebw(&lj.graph, t));
        let (edge, te) = time(|| edge_pebw(&lj.graph, t));
        // Sanity: all three score every ego with the same kernel.
        assert_eq!(bits(&vertex), bits(&seq), "vertex_pebw t={t} disagrees");
        assert_eq!(bits(&edge), bits(&seq), "edge_pebw t={t} disagrees");
        rows.push(vec![
            t.to_string(),
            ms(tv),
            format!("{:.1}", t_seq.as_secs_f64() / tv.as_secs_f64().max(1e-12)),
            ms(te),
            format!("{:.1}", t_seq.as_secs_f64() / te.as_secs_f64().max(1e-12)),
        ]);
    }
    print_table(
        &[
            "threads",
            "VertexPEBW (ms)",
            "speedup",
            "EdgePEBW (ms)",
            "speedup",
        ],
        &rows,
    );
}

// ------------------------------------------------------------ Fig. 11

fn run_bw_vs_ebw(d: &Dataset, ks: &[usize], threads: usize) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    // Betweenness is k-independent; compute once.
    let (bc, t_bw_all) = time(|| egobtw_baseline::betweenness_parallel(&d.graph, threads));
    let mut ranked: Vec<VertexId> = (0..d.graph.n() as VertexId).collect();
    ranked.sort_by(|&a, &b| bc[b as usize].total_cmp(&bc[a as usize]).then(a.cmp(&b)));
    for &k in ks {
        let (ebw, t_ebw) = time(|| opt_bsearch(&d.graph, k, OptParams::default()));
        let ev: Vec<VertexId> = ebw.entries.iter().map(|e| e.0).collect();
        let bv: Vec<VertexId> = ranked.iter().copied().take(k).collect();
        rows.push(vec![
            d.name.into(),
            k.to_string(),
            ms(t_bw_all),
            ms(t_ebw),
            format!(
                "{:.0}x",
                t_bw_all.as_secs_f64() / t_ebw.as_secs_f64().max(1e-12)
            ),
            format!("{:.0}%", 100.0 * overlap_fraction(&bv, &ev)),
        ]);
    }
    rows
}

fn exp6(scale: f64) {
    let threads = std::thread::available_parallelism().map_or(8, |p| p.get());
    banner(&format!(
        "Exp-6 (Fig. 11): TopBW (Brandes × {threads} threads) vs TopEBW"
    ));
    let ks = [50usize, 100, 200, 500, 1000, 2000];
    let mut rows = Vec::new();
    for d in standins(scale)
        .into_iter()
        .filter(|d| d.name == "wikitalk-like" || d.name == "pokec-like")
    {
        rows.extend(run_bw_vs_ebw(&d, &ks, threads));
    }
    print_table(
        &[
            "dataset",
            "k",
            "TopBW (ms)",
            "TopEBW (ms)",
            "speedup",
            "overlap",
        ],
        &rows,
    );
}

// ------------------------------------- Fig. 12 + Tables III / IV

fn exp7(scale: f64) {
    let threads = std::thread::available_parallelism().map_or(8, |p| p.get());
    banner("Exp-7 (Fig. 12): case study on DB-like / IR-like collaboration graphs");
    let ks = [10usize, 50, 100, 150, 200, 250];
    let sets = case_study(scale);
    let mut rows = Vec::new();
    for d in &sets {
        println!(
            "{}: n={} m={} ({})",
            d.name,
            d.graph.n(),
            d.graph.m(),
            d.substitutes
        );
        rows.extend(run_bw_vs_ebw(d, &ks, threads));
    }
    print_table(
        &[
            "dataset",
            "k",
            "TopBW (ms)",
            "TopEBW (ms)",
            "speedup",
            "overlap",
        ],
        &rows,
    );

    banner("Tables III/IV: top-10 authors, EBW vs BW side by side");
    for d in &sets {
        let ebw = opt_bsearch(&d.graph, 10, OptParams::default());
        let bw = top_bw(&d.graph, 10, threads);
        let in_bw: Vec<VertexId> = bw.iter().map(|e| e.0).collect();
        let in_ebw: Vec<VertexId> = ebw.entries.iter().map(|e| e.0).collect();
        println!(
            "\n{} (authors appearing in both lists are starred):",
            d.name
        );
        let rows: Vec<Vec<String>> = (0..10)
            .map(|i| {
                let (ve, cbe) = ebw.entries[i];
                let (vb, btb) = bw[i];
                vec![
                    format!("{}author-{ve}", if in_bw.contains(&ve) { "*" } else { " " }),
                    d.graph.degree(ve).to_string(),
                    format!("{cbe:.1}"),
                    format!(
                        "{}author-{vb}",
                        if in_ebw.contains(&vb) { "*" } else { " " }
                    ),
                    d.graph.degree(vb).to_string(),
                    format!("{btb:.1}"),
                ]
            })
            .collect();
        print_table(&["Top-10 EBW", "d", "CB", "Top-10 BW", "d", "BT"], &rows);
    }
}

// ------------------------------------------------------------ ablations

fn ablate(scale: f64) {
    banner("Ablations: design choices (docs/ARCHITECTURE.md)");
    let d = standins(scale)
        .into_iter()
        .find(|d| d.name == "dblp-like")
        .expect("registry contains dblp-like");
    let g = &d.graph;

    // Rows shared between an edge's two egos vs per-ego intersections.
    let (_, t_engine) = time(|| compute_all(g));
    let (_, t_naive) = time(|| compute_all_naive(g));
    print_table(
        &["variant", "all-vertices (ms)"],
        &[
            vec!["all-egos driver (rows once per edge)".into(), ms(t_engine)],
            vec!["per-ego straightforward".into(), ms(t_naive)],
        ],
    );
    kernel_ablation();
}

/// Strictly ascending slice of `len` distinct ids from `0..universe`.
fn sorted_random(len: usize, universe: u32, seed: u64) -> Vec<VertexId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = std::collections::BTreeSet::new();
    while s.len() < len {
        s.insert(rng.random_range(0..universe));
    }
    s.into_iter().collect()
}

/// Best of 7 runs of the per-call time of `f`, in ns; each run repeats
/// `f` for about a millisecond.
fn ns_per_call(mut f: impl FnMut() -> usize) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    let iters = (1_000_000 / t0.elapsed().as_nanos().max(1)).clamp(1, 100_000) as usize;
    (0..7)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The intersection kernels behind every engine, and the dispatch
/// constants they are picked by (`intersect::GALLOP_RATIO` and the
/// bitmap rule in `CsrGraph::common_neighbors_into`). Shapes are fixed,
/// independent of `--scale`.
fn kernel_ablation() {
    let ns = |f: &mut dyn FnMut() -> usize| format!("{:.0}", ns_per_call(f));
    let slices = |la: usize, lb: usize, seed: u64| -> Vec<String> {
        let a = sorted_random(la, 1 << 20, seed);
        let b = sorted_random(lb, 1 << 20, seed + 1);
        let (a, b) = (&a, &b);
        let picks = if la.min(lb) * GALLOP_RATIO < la.max(lb) {
            "gallop"
        } else {
            "merge"
        };
        vec![
            format!("{la}x{lb}"),
            ns(&mut || merge_intersection_count(black_box(a), black_box(b))),
            ns(&mut || gallop_intersection_count(black_box(a), black_box(b))),
            ns(&mut || intersection_count(black_box(a), black_box(b))),
            picks.into(),
        ]
    };
    let headers = [
        "shape",
        "merge (ns)",
        "gallop (ns)",
        "adaptive (ns)",
        "picks",
    ];
    println!("\nslice kernels, per call:");
    let rows: Vec<_> = [(1_000, 1_000), (32, 10_000), (4, 50_000)]
        .into_iter()
        .map(|(la, lb)| slices(la, lb, 1))
        .collect();
    print_table(&headers, &rows);
    println!("\nmerge/gallop crossover (adaptive gallops once short·{GALLOP_RATIO} < long):");
    let rows: Vec<_> = [256, 512, 1_024, 2_048, 4_096, 8_192]
        .into_iter()
        .map(|lb| slices(64, lb, 21))
        .collect();
    print_table(&headers, &rows);

    // Hub shapes: probes into a 20,000-id row over a 2^20 universe, two
    // hub rows against each other, and every edge of a power-law graph.
    let universe = 1u32 << 20;
    let words = (universe as usize).div_ceil(64);
    let hub_a = sorted_random(20_000, universe, 11);
    let hub_b = sorted_random(16_000, universe, 12);
    let (row_a, row_b) = (pack_bitmap(&hub_a, words), pack_bitmap(&hub_b, words));
    let mut rows = Vec::new();
    for probe_len in [8, 64, 1_024] {
        let probe = sorted_random(probe_len, universe, 13);
        rows.push(vec![
            format!("{probe_len}x{}", hub_a.len()),
            "gallop".into(),
            ns(&mut || gallop_intersection_count(black_box(&probe), black_box(&hub_a))),
            "slice x bitmap".into(),
            ns(&mut || slice_bitmap_intersection_count(black_box(&probe), black_box(&row_a))),
        ]);
    }
    rows.push(vec![
        format!("{}x{}", hub_a.len(), hub_b.len()),
        "merge".into(),
        ns(&mut || merge_intersection_count(black_box(&hub_a), black_box(&hub_b))),
        "bitmap x bitmap".into(),
        ns(&mut || bitmap_bitmap_intersection_count(black_box(&row_a), black_box(&row_b))),
    ]);
    let hybrid = egobtw_gen::barabasi_albert(10_000, 8, 5);
    let plain = hybrid.with_hybrid_config(&HybridConfig::disabled());
    let edges: Vec<(VertexId, VertexId)> = hybrid.edges().collect();
    let all_edges = |g: &CsrGraph| {
        edges
            .iter()
            .map(|&(u, v)| black_box(g).common_neighbor_count(u, v))
            .sum::<usize>()
    };
    rows.push(vec![
        format!("all edges BA(10k,8), {} hub rows", hybrid.hub_count()),
        "no hub rows".into(),
        ns(&mut || all_edges(&plain)),
        "hub rows".into(),
        ns(&mut || all_edges(&hybrid)),
    ]);
    println!("\nhub bitmap kernels, per call:");
    print_table(&["shape", "slice kernel", "ns", "hub kernel", "ns"], &rows);
}
