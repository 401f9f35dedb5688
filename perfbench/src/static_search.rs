//! `static-skewed`: exact top-k search (OptBSearch, the paper's
//! algorithm) on a graph that does not change, called in process the way a
//! library user calls it, by one closed-loop caller.
//!
//! The caller cycles through the `k` values of the paper's runtime
//! experiment ([`K_CYCLE`]), so the latency percentiles are set by the
//! work queries of different sizes take; with one `k` every query does the
//! same work and the tail is only the machine's timing jitter.

use crate::reference::{check_topk, ranked, Adjacency};
use crate::{
    end_to_end, kernel_ns_per_intersection, median, relabeled_edges, relabeling, repeat_setup,
    Args, Layers, Outcome, Timed,
};
use egobtw_core::{opt_bsearch, OptParams};
use egobtw_gen::rmat::RmatParams;
use egobtw_graph::CsrGraph;
use std::time::{Duration, Instant};

/// `k` of successive queries, repeated: the paper's Exp-1 values (Fig. 6)
/// up to half the graph; its 2,000 would rank nearly every vertex of this
/// 2,048-vertex graph. Five equally frequent sizes put the median in the
/// middle class and the 90th percentile in the middle of the largest, away
/// from the boundaries between classes.
const K_CYCLE: [usize; 5] = [50, 100, 200, 500, 1000];

pub fn run(args: &Args) -> Result<Outcome, String> {
    // R-MAT with skewed quadrant weights (2,048 vertices, 6,144 edges): a
    // few hubs adjacent to a large share of the graph, so the hub-bitmap
    // kernels and the bound heap carry the cost. Small enough to stay in
    // cache, so memory traffic from elsewhere on a shared machine moves it
    // little.
    let structure = egobtw_gen::rmat(11, 3, RmatParams::skewed(), 0xEB02);
    let n = structure.n();
    let edges = relabeled_edges(&structure, &relabeling(n, args.seed));
    // Set-up is what a caller pays before the first query: building the
    // engines' in-memory graph (CSR and hub bitmaps) from an edge list.
    let mut built = None;
    let setup_s = repeat_setup(|| {
        let t0 = Instant::now();
        built = Some(CsrGraph::from_edges(n, &edges));
        Ok(t0.elapsed().as_secs_f64())
    })?;
    let g = built.expect("set-up ran");

    let scores = Adjacency::new(n, edges).scores();
    let truth = ranked(&scores);

    let search = |k| opt_bsearch(&g, k, OptParams { theta: 1.05 });
    for k in K_CYCLE {
        std::hint::black_box(search(k)); // warm caches and the allocator
    }

    let mut ops = Vec::new();
    let mut exact = Vec::new();
    let mut refreshes = Vec::new();
    let mut mismatches = 0u64;
    let started = Instant::now();
    let deadline = started + Duration::from_secs(args.seconds);
    for k in K_CYCLE.into_iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        let t0 = Instant::now();
        let result = search(k);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        ops.push(Timed {
            end_s: started.elapsed().as_secs_f64(),
            latency_ms,
        });
        if let Err(e) = check_topk(&result.entries, k, &scores, &truth) {
            if mismatches == 0 {
                eprintln!("perfbench: wrong answer for k = {k}: {e}");
            }
            mismatches += 1;
        }
        exact.push(result.stats.exact_computations as f64);
        refreshes.push(result.stats.bound_refreshes as f64);
    }
    let wall_s = started.elapsed().as_secs_f64();

    let metrics = if args.trace {
        let latency: Vec<f64> = ops.iter().map(|op| op.latency_ms).collect();
        Layers {
            kernel_ns: kernel_ns_per_intersection(&g),
            engine_ms: median(&latency),
            engine_exact: median(&exact),
            engine_refreshes: median(&refreshes),
            engine_share_pct: latency.iter().sum::<f64>() / (wall_s * 10.0),
            // No writer and no socket on this path.
            update_share_pct: 0.0,
            transport_share_pct: 0.0,
        }
        .metrics()
    } else {
        end_to_end(&ops, wall_s, &setup_s)?
    };
    Ok(Outcome {
        correct: mismatches == 0,
        attempted: ops.len() as u64,
        failed: 0,
        metrics,
    })
}
