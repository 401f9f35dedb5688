//! Enumerable registry of top-k engines.
//!
//! Every way this crate can answer "give me the top-k ego-betweenness
//! vertices" is registered here under a stable name, behind one uniform
//! closure signature. Harnesses (the `conformance` crate's differential
//! oracle layer, benchmark drivers, CLIs) *discover* engines by iterating
//! [`builtin_engines`] instead of hand-listing call sites — so a newly
//! added algorithm is cross-checked the moment it registers itself, and a
//! forgotten registration is a one-line fix rather than a silent coverage
//! hole.
//!
//! Every engine closure takes a [`Cancel`] token and may return
//! [`Cancelled`] from a coarse checkpoint (heap pop batch, vertex chunk)
//! — the serving layer threads per-request deadlines and
//! disconnect detection through here so an abandoned exact search stops
//! burning CPU. Harness code that has no deadline uses the infallible
//! [`RegisteredEngine::topk`], which passes [`Cancel::never`].
//!
//! Crates higher in the dependency graph (parallel, dynamic) cannot
//! register here without inverting dependencies; they expose the same
//! shape by constructing [`RegisteredEngine`] values of their own, which
//! the conformance layer appends to this list.

use crate::base_search::base_bsearch_cancellable;
use crate::cancel::{Cancel, Cancelled};
use crate::compute_all::compute_all_cancellable;
use crate::naive::compute_all_naive_cancellable;
use crate::opt_search::{opt_bsearch_cancellable, OptParams};
use crate::topk::TopkResult;
use egobtw_graph::{CsrGraph, HybridConfig, Relabeling, VertexId};

/// Uniform engine signature: graph in, ranked `(vertex, CB)` entries plus
/// the run's work counters out (a [`TopkResult`]) — unless the token
/// cancels the run first. Every engine reports the paper's Table II
/// metric (exact computations) for the serving layer's telemetry.
pub type EngineFn =
    Box<dyn Fn(&CsrGraph, usize, &Cancel) -> Result<TopkResult, Cancelled> + Send + Sync>;

/// One named engine in the registry. Every registered engine is exact.
pub struct RegisteredEngine {
    name: String,
    run: EngineFn,
}

impl RegisteredEngine {
    /// Wraps a closure under a stable engine name.
    pub fn new(name: impl Into<String>, run: EngineFn) -> Self {
        RegisteredEngine {
            name: name.into(),
            run,
        }
    }

    /// The engine's stable name (used in reports and failure messages).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs the engine: top-`k` entries sorted by descending `CB`, with
    /// ties inside the returned list in ascending vertex id. When the
    /// `k`-th score is tied beyond the list, which tied vertices fill
    /// the boundary depends on the engine.
    pub fn topk(&self, g: &CsrGraph, k: usize) -> Vec<(VertexId, f64)> {
        self.topk_cancellable(g, k, &Cancel::never())
            .expect("a never-cancelled engine run cannot be cancelled")
    }

    /// [`RegisteredEngine::topk`] under a cancellation token: returns
    /// [`Cancelled`] once the engine observes an expired deadline or a
    /// fired flag at one of its checkpoints.
    pub fn topk_cancellable(
        &self,
        g: &CsrGraph,
        k: usize,
        cancel: &Cancel,
    ) -> Result<Vec<(VertexId, f64)>, Cancelled> {
        Ok((self.run)(g, k, cancel)?.entries)
    }

    /// [`RegisteredEngine::topk_cancellable`] keeping the run's work
    /// counters.
    pub fn topk_with_stats_cancellable(
        &self,
        g: &CsrGraph,
        k: usize,
        cancel: &Cancel,
    ) -> Result<TopkResult, Cancelled> {
        (self.run)(g, k, cancel)
    }
}

impl std::fmt::Debug for RegisteredEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegisteredEngine")
            .field("name", &self.name)
            .finish()
    }
}

/// Ranks a full per-vertex score vector into top-k entries, with the same
/// ordering contract as the search engines (descending score, ascending id
/// on exact ties). Shared by every all-vertices engine adapter.
pub fn topk_from_scores(scores: &[f64], k: usize) -> Vec<(VertexId, f64)> {
    let mut v: Vec<(VertexId, f64)> = scores
        .iter()
        .enumerate()
        .map(|(i, &s)| (i as VertexId, s))
        .collect();
    v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(k);
    v
}

/// Every engine implemented in this crate, under its stable name:
///
/// * `core::naive` — per-ego bitset baseline over all vertices;
/// * `core::compute_all` — the all-egos driver: each edge's row once, the
///   kernel per ego;
/// * `core::base_search` — BaseBSearch (Algorithm 1);
/// * `core::opt_search(θ=…)` — OptBSearch (Algorithm 2) at three gradient
///   ratios, since θ must never change answers;
/// * `core::compute_all(degree-relabel)` — the hybrid fast path: run on
///   the degree-descending relabeled twin, inverse-map results back;
/// * `core::compute_all(bitmap-dense)` — rebuilt under
///   [`HybridConfig::dense`], forcing every intersection through the
///   slice×bitmap / bitmap×bitmap kernels (conformance coverage for the
///   bitmap paths, which real thresholds rarely reach on small graphs);
/// * `core::opt_search(θ=1.05, degree-relabel)` — OptBSearch on the
///   relabeled twin, since renaming must never change answers.
pub fn builtin_engines() -> Vec<RegisteredEngine> {
    let mut engines = vec![
        RegisteredEngine::new(
            "core::naive",
            Box::new(|g: &CsrGraph, k, cancel: &Cancel| {
                let (scores, stats) = compute_all_naive_cancellable(g, cancel)?;
                Ok(TopkResult {
                    entries: topk_from_scores(&scores, k),
                    stats,
                })
            }) as EngineFn,
        ),
        RegisteredEngine::new(
            "core::compute_all",
            Box::new(|g: &CsrGraph, k, cancel: &Cancel| {
                let (scores, stats) = compute_all_cancellable(g, cancel)?;
                Ok(TopkResult {
                    entries: topk_from_scores(&scores, k),
                    stats,
                })
            }) as EngineFn,
        ),
        RegisteredEngine::new(
            "core::base_search",
            Box::new(base_bsearch_cancellable) as EngineFn,
        ),
    ];
    for theta in [1.0, 1.05, 2.0] {
        engines.push(RegisteredEngine::new(
            format!("core::opt_search(θ={theta:.2})"),
            Box::new(move |g: &CsrGraph, k, cancel: &Cancel| {
                opt_bsearch_cancellable(g, k, OptParams { theta }, cancel)
            }) as EngineFn,
        ));
    }
    engines.push(RegisteredEngine::new(
        "core::compute_all(degree-relabel)",
        Box::new(|g: &CsrGraph, k, cancel: &Cancel| {
            let relab = Relabeling::degree_descending(g);
            let rg = relab.apply(g);
            let (scores, stats) = compute_all_cancellable(&rg, cancel)?;
            Ok(TopkResult {
                entries: topk_from_scores(&relab.restore_scores(&scores), k),
                stats,
            })
        }) as EngineFn,
    ));
    engines.push(RegisteredEngine::new(
        "core::compute_all(bitmap-dense)",
        Box::new(|g: &CsrGraph, k, cancel: &Cancel| {
            let dense = g.with_hybrid_config(&HybridConfig::dense());
            let (scores, stats) = compute_all_cancellable(&dense, cancel)?;
            Ok(TopkResult {
                entries: topk_from_scores(&scores, k),
                stats,
            })
        }) as EngineFn,
    ));
    engines.push(RegisteredEngine::new(
        "core::opt_search(θ=1.05, degree-relabel)",
        Box::new(|g: &CsrGraph, k, cancel: &Cancel| {
            let relab = Relabeling::degree_descending(g);
            let rg = relab.apply(g);
            let result = opt_bsearch_cancellable(&rg, k, OptParams { theta: 1.05 }, cancel)?;
            Ok(TopkResult {
                entries: relab.restore_topk(result.entries),
                stats: result.stats,
            })
        }) as EngineFn,
    ));
    engines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::compute_all_naive;
    use egobtw_gen::classic;

    #[test]
    fn names_are_unique_and_prefixed() {
        let engines = builtin_engines();
        let mut names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        assert!(names.iter().all(|n| n.starts_with("core::")));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), engines.len(), "duplicate engine name");
    }

    #[test]
    fn every_builtin_agrees_on_karate_top5() {
        let g = classic::karate_club();
        let reference = topk_from_scores(&compute_all_naive(&g), 5);
        for e in builtin_engines() {
            let got = e.topk(&g, 5);
            assert_eq!(got.len(), 5, "{}", e.name());
            // Every engine is exact, so scores match bit for bit by rank.
            // Ids may differ inside the k-th score's tie class.
            for (rank, ((_, a), (_, b))) in got.iter().zip(&reference).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} rank {rank}: {a} vs {b}",
                    e.name()
                );
            }
        }
    }

    #[test]
    fn every_builtin_respects_a_fired_cancel_token() {
        let g = classic::karate_club();
        let token = Cancel::new();
        token.cancel();
        for e in builtin_engines() {
            assert!(
                matches!(e.topk_cancellable(&g, 5, &token), Err(Cancelled)),
                "{} ignored a fired cancel token",
                e.name()
            );
        }
    }

    #[test]
    fn stats_path_matches_plain_path_and_reports_work() {
        let g = classic::karate_club();
        for e in builtin_engines() {
            let plain = e.topk_cancellable(&g, 5, &Cancel::never()).unwrap();
            let with_stats = e
                .topk_with_stats_cancellable(&g, 5, &Cancel::never())
                .unwrap();
            assert_eq!(plain, with_stats.entries, "{}", e.name());
            assert!(
                with_stats.stats.exact_computations > 0,
                "{} reported no exact computations",
                e.name()
            );
        }
    }

    /// The kernel engines count each computed ego's edges, so at `k = n`
    /// every triangle is counted once per corner.
    #[test]
    fn kernel_engines_count_three_corners_per_triangle_at_k_eq_n() {
        let graphs = [
            classic::karate_club(),
            egobtw_gen::rmat(9, 4, egobtw_gen::rmat::RmatParams::skewed(), 0),
        ];
        for g in &graphs {
            let triangles = egobtw_graph::triangle::count_triangles(g);
            assert!(triangles > 0);
            for e in builtin_engines()
                .iter()
                .filter(|e| matches!(e.name(), "core::naive" | "core::base_search"))
            {
                let r = e
                    .topk_with_stats_cancellable(g, g.n(), &Cancel::never())
                    .unwrap();
                assert_eq!(r.stats.exact_computations, g.n(), "{}", e.name());
                assert_eq!(r.stats.triangles_processed, 3 * triangles, "{}", e.name());
            }
        }
    }

    #[test]
    fn topk_from_scores_ties_prefer_small_ids() {
        let out = topk_from_scores(&[1.0, 3.0, 3.0, 0.5], 3);
        assert_eq!(out, vec![(1, 3.0), (2, 3.0), (0, 1.0)]);
    }

    #[test]
    fn topk_from_scores_truncates_and_handles_k_over_n() {
        assert_eq!(topk_from_scores(&[2.0, 1.0], 0), vec![]);
        assert_eq!(topk_from_scores(&[2.0, 1.0], 5).len(), 2);
    }
}
