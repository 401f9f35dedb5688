//! The [`Oracle`] trait: one uniform face over every algorithm path.
//!
//! Static engines (everything in `core`'s registry, plus the parallel
//! PEBW variants) answer on the case's *final* graph; stream engines (the
//! two dynamic maintainers) build on the *initial* graph and replay the
//! update stream through their incremental paths. Both kinds return the
//! same shape, so the harness compares them all against one truth vector.
//!
//! [`all_oracles`] is the discovery point: `core` engines come from
//! [`egobtw_core::registry::builtin_engines`] (a new core engine is picked
//! up with zero changes here), and the parallel/dynamic adapters are
//! appended because those crates sit above `core` in the dependency graph
//! and cannot self-register.

use crate::case::Case;
use crate::compare::{check_topk, check_topk_statistical, REL_TOL};
use egobtw_core::approx::{approx_topk_with_fault, ApproxFault, ApproxParams, SamplingStrategy};
use egobtw_core::opt_search::{opt_bsearch_with_fault, OptFault, OptParams};
use egobtw_core::registry::{builtin_engines, topk_from_scores, EngineKind, RegisteredEngine};
use egobtw_dynamic::{DeltaFault, DeltaIndex, LazyTopK, LocalIndex};
use egobtw_graph::{CsrGraph, VertexId};
use egobtw_parallel::{edge_pebw, vertex_pebw};

/// One engine under differential test.
pub trait Oracle {
    /// Stable name used in reports and failure messages.
    fn name(&self) -> String;
    /// The engine's top-k answer for the case. `final_g` is the graph
    /// after stream replay (precomputed once by the harness); static
    /// engines answer on it, stream engines ignore it and replay
    /// `case.ops` themselves.
    fn topk(&self, case: &Case, final_g: &CsrGraph) -> Vec<(VertexId, f64)>;
    /// Validates this oracle's answer against the truth vector. The
    /// default is the exact tie-aware comparator; randomized oracles
    /// override it with the statistical-tolerance tier.
    fn check(&self, case: &Case, final_g: &CsrGraph, truth: &[f64]) -> Result<(), String> {
        check_topk(truth, &self.topk(case, final_g), case.k, REL_TOL)
    }
}

/// Adapter over a [`RegisteredEngine`] from `core`'s registry. Engines
/// tagged [`EngineKind::Approx`] are judged by the statistical comparator;
/// everything else must match the reference exactly.
pub struct StaticOracle(pub RegisteredEngine);

impl Oracle for StaticOracle {
    fn name(&self) -> String {
        self.0.name().to_string()
    }
    fn topk(&self, case: &Case, final_g: &CsrGraph) -> Vec<(VertexId, f64)> {
        self.0.topk(final_g, case.k)
    }
    fn check(&self, case: &Case, final_g: &CsrGraph, truth: &[f64]) -> Result<(), String> {
        let got = self.topk(case, final_g);
        match self.0.kind() {
            EngineKind::Exact => check_topk(truth, &got, case.k, REL_TOL),
            EngineKind::Approx { eps, .. } => {
                check_topk_statistical(truth, &got, case.k, eps, REL_TOL)
            }
        }
    }
}

/// Which PEBW work-distribution strategy a [`ParallelOracle`] runs.
#[derive(Clone, Copy, Debug)]
pub enum PebwVariant {
    /// Vertices as the unit of work.
    Vertex,
    /// Oriented edges as the unit of work.
    Edge,
}

/// Adapter over the parallel all-vertices engines at a fixed thread count.
pub struct ParallelOracle {
    /// Strategy under test.
    pub variant: PebwVariant,
    /// Worker threads.
    pub threads: usize,
}

impl Oracle for ParallelOracle {
    fn name(&self) -> String {
        match self.variant {
            PebwVariant::Vertex => format!("parallel::vertex_pebw(t={})", self.threads),
            PebwVariant::Edge => format!("parallel::edge_pebw(t={})", self.threads),
        }
    }
    fn topk(&self, case: &Case, final_g: &CsrGraph) -> Vec<(VertexId, f64)> {
        let scores = match self.variant {
            PebwVariant::Vertex => vertex_pebw(final_g, self.threads),
            PebwVariant::Edge => edge_pebw(final_g, self.threads),
        };
        topk_from_scores(&scores, case.k)
    }
}

/// Adapter over [`LazyTopK`] replayed across the case's update stream.
pub struct LazyOracle;

impl Oracle for LazyOracle {
    fn name(&self) -> String {
        "dynamic::lazy(replay)".into()
    }
    fn topk(&self, case: &Case, _final_g: &CsrGraph) -> Vec<(VertexId, f64)> {
        LazyTopK::replay(&case.initial(), case.k, &case.ops).top_k()
    }
}

/// Adapter over [`LocalIndex`] replayed across the case's update stream.
pub struct LocalOracle;

impl Oracle for LocalOracle {
    fn name(&self) -> String {
        "dynamic::local(replay)".into()
    }
    fn topk(&self, case: &Case, _final_g: &CsrGraph) -> Vec<(VertexId, f64)> {
        LocalIndex::replay(&case.initial(), &case.ops).top_k(case.k)
    }
}

/// Adapter over [`DeltaIndex`] replayed across the case's update stream.
pub struct DeltaOracle;

impl Oracle for DeltaOracle {
    fn name(&self) -> String {
        "dynamic::delta(replay)".into()
    }
    fn topk(&self, case: &Case, _final_g: &CsrGraph) -> Vec<(VertexId, f64)> {
        DeltaIndex::replay(&case.initial(), case.k, &case.ops).top_k()
    }
}

/// Direct adapter over the approx sampler with *forced* sampling
/// (`exact_pair_cutoff = 0`), so the small conformance graphs actually
/// exercise the estimator instead of falling through to the exact path.
/// Unlike the registry's approx engines (checked through the plain
/// statistical comparator), this oracle sees the full [`ApproxTopk`]
/// evidence and re-checks CI containment, certificate soundness,
/// certified membership, and the reported rank slack.
pub struct ApproxOracle {
    /// Budget-allocation strategy under test.
    pub strategy: SamplingStrategy,
    /// `true` keeps egos sampling up to `32 · P_p` draws before the exact
    /// fallback, reaching the variance-dominated stopping regime (needed
    /// to expose the no-variance-term mutant); `false` is the cheap
    /// always-on configuration.
    pub deep: bool,
}

impl ApproxOracle {
    /// The forced-sampling parameters this oracle runs with.
    pub fn forced_params(&self) -> ApproxParams {
        ApproxParams {
            eps: 0.1,
            delta: 0.005,
            seed: 0x5EED_CAFE,
            strategy: self.strategy,
            threads: 1,
            exact_pair_cutoff: 0,
            initial_batch: 32,
            max_rounds: 48,
            exact_fallback_factor: if self.deep { 32.0 } else { 2.0 },
        }
    }
}

impl Oracle for ApproxOracle {
    fn name(&self) -> String {
        let tag = match self.strategy {
            SamplingStrategy::Uniform => "uniform",
            SamplingStrategy::HubStratified => "hub-strat",
        };
        let depth = if self.deep { ", deep" } else { "" };
        format!("approx::sampler({tag}, forced{depth})")
    }
    fn topk(&self, case: &Case, final_g: &CsrGraph) -> Vec<(VertexId, f64)> {
        approx_topk_with_fault(final_g, case.k, &self.forced_params(), ApproxFault::None)
            .topk_entries()
    }
    fn check(&self, case: &Case, final_g: &CsrGraph, truth: &[f64]) -> Result<(), String> {
        approx_check(
            final_g,
            case.k,
            &self.forced_params(),
            ApproxFault::None,
            truth,
        )
    }
}

/// Runs the sampler (optionally with a planted fault) and validates the
/// full statistical contract against the truth vector:
///
/// 1. the plain statistical comparator (structure + bounded displacement
///    + ε-accurate estimates);
/// 2. CI containment — every returned vertex's true CB inside `[lo, hi]`;
/// 3. certificate soundness — a `certified` entry's lower bound must
///    clear the reported non-returned upper-bound boundary;
/// 4. certified membership — certified entries are tie-aware true top-k
///    members, with *exact* tolerance (no ε slack);
/// 5. displacement within the reported `rank_slack`, and (on a clean
///    stop) `rank_slack ≤ ε·max(1, c*_k)`.
///
/// Violations of 1/2/4/5 are the δ-events the trials driver counts;
/// violation 3 is deterministic evidence of a broken certifier.
pub fn approx_check(
    g: &CsrGraph,
    k: usize,
    params: &ApproxParams,
    fault: ApproxFault,
    truth: &[f64],
) -> Result<(), String> {
    let out = approx_topk_with_fault(g, k, params, fault);
    check_topk_statistical(truth, &out.topk_entries(), k, params.eps, REL_TOL)?;
    let expect_len = k.min(truth.len());
    if expect_len == 0 {
        return Ok(());
    }
    let mut sorted = truth.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let ck = sorted[expect_len - 1];
    let atol = REL_TOL * ck.abs().max(1.0);
    for (rank, e) in out.entries.iter().enumerate() {
        let t = truth[e.vertex as usize];
        if t < e.lo - atol || t > e.hi + atol {
            return Err(format!(
                "rank {rank}: vertex {} true CB {t} outside its reported CI [{}, {}]",
                e.vertex, e.lo, e.hi
            ));
        }
        if e.certified {
            if e.lo < out.uncovered_hi - atol {
                return Err(format!(
                    "rank {rank}: vertex {} certified but lo {} does not clear \
                     the non-returned boundary {} — unsound certificate",
                    e.vertex, e.lo, out.uncovered_hi
                ));
            }
            if t < ck - atol {
                return Err(format!(
                    "rank {rank}: vertex {} certified but true CB {t} is below \
                     the k-th true score {ck} — certified non-member",
                    e.vertex
                ));
            }
        }
        if t < ck - out.rank_slack - atol {
            return Err(format!(
                "rank {rank}: vertex {} true CB {t} displaced below {ck} by more \
                 than the reported rank slack {}",
                e.vertex, out.rank_slack
            ));
        }
    }
    if !out.budget_exhausted && out.rank_slack > params.eps * ck.max(1.0) + atol {
        return Err(format!(
            "clean stop but rank slack {} exceeds ε·max(1, c*_k) = {}",
            out.rank_slack,
            params.eps * ck.max(1.0)
        ));
    }
    Ok(())
}

/// Every registered algorithm path: the enumerated `core` registry (the
/// approx engines judged statistically via [`EngineKind`]), both PEBW
/// variants at 1/2/4 threads, all three dynamic maintainers replayed over
/// the update stream, and both forced-sampling approx oracles.
pub fn all_oracles() -> Vec<Box<dyn Oracle>> {
    let mut oracles: Vec<Box<dyn Oracle>> = builtin_engines()
        .into_iter()
        .map(|e| Box::new(StaticOracle(e)) as Box<dyn Oracle>)
        .collect();
    for threads in [1usize, 2, 4] {
        for variant in [PebwVariant::Vertex, PebwVariant::Edge] {
            oracles.push(Box::new(ParallelOracle { variant, threads }));
        }
    }
    oracles.push(Box::new(LazyOracle));
    oracles.push(Box::new(LocalOracle));
    oracles.push(Box::new(DeltaOracle));
    for strategy in [SamplingStrategy::Uniform, SamplingStrategy::HubStratified] {
        oracles.push(Box::new(ApproxOracle {
            strategy,
            deep: false,
        }));
    }
    oracles
}

/// Deliberate defect classes for mutation-testing the harness itself
/// (`stress --mutate <kind>`). If the harness cannot catch these, its
/// green runs mean nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Drops entries tied with the k-th score — the classic tie-boundary
    /// truncation bug. Caught by the length check.
    TieDrop,
    /// Perturbs the last returned score by a small bias — stands in for
    /// an accumulated-delta bug in a maintainer. Caught by per-vertex
    /// honesty / multiset checks.
    Bias,
    /// Swallows the update stream and answers on the initial graph —
    /// stands in for a maintainer that forgets to apply updates. Caught
    /// whenever the stream changes any relevant score.
    StaleGraph,
    /// `DeltaIndex` with [`DeltaFault::StalePairOnDelete`] planted: on
    /// delete, connectors of pairs in the common-neighbor egos are never
    /// decremented, so those egos' `CB` rots low. Caught by per-vertex
    /// honesty / multiset checks on any stream with a triangle-adjacent
    /// delete.
    DeltaStalePair,
    /// `DeltaIndex` with [`DeltaFault::MissEgo`] planted: the last
    /// common-neighbor ego is skipped when enumerating the affected set,
    /// and its terms silently rot.
    DeltaMissedEgo,
    /// `DeltaIndex` with [`DeltaFault::SkipRecertify`] planted: the top-k
    /// boundary is never re-certified, freezing membership at the initial
    /// top-k. Caught whenever the stream changes the true top-k.
    DeltaNoRecert,
    /// Approx sampler with [`ApproxFault::SkipHighDegree`] planted: the
    /// highest-degree egos never enter candidacy. Caught by the length
    /// check at `k = n` and by membership/displacement whenever a hub
    /// belongs in the top-k.
    ApproxSkipHub,
    /// Approx sampler with [`ApproxFault::NoVarianceTerm`] planted: the
    /// stopping rule drops the empirical-variance term, so CIs are too
    /// narrow in the variance-dominated regime. Caught (deep sampling)
    /// by CI-containment / displacement violations.
    ApproxNoVariance,
    /// Approx sampler with [`ApproxFault::BoundaryOffByOne`] planted: one
    /// entry past the sound confidence boundary is marked certified.
    /// Caught deterministically by the certificate-soundness re-check.
    ApproxBoundaryOff,
    /// OptBSearch with [`OptFault::DoubleCredit`] planted: every
    /// identified ego edge lowers the Lemma 3 bound twice, so the bound
    /// can fall below `CB` and the search prunes or stops before a true
    /// top-k member. Caught by membership / multiset checks.
    OptDoubleCredit,
}

impl Mutation {
    /// Parses the `--mutate` argument.
    pub fn parse(s: &str) -> Option<Mutation> {
        match s {
            "tie-drop" => Some(Mutation::TieDrop),
            "bias" => Some(Mutation::Bias),
            "stale-graph" => Some(Mutation::StaleGraph),
            "delta-stale-pair" => Some(Mutation::DeltaStalePair),
            "delta-missed-ego" => Some(Mutation::DeltaMissedEgo),
            "delta-no-recert" => Some(Mutation::DeltaNoRecert),
            "approx-skip-hub" => Some(Mutation::ApproxSkipHub),
            "approx-no-variance" => Some(Mutation::ApproxNoVariance),
            "approx-boundary-off" => Some(Mutation::ApproxBoundaryOff),
            "opt-double-credit" => Some(Mutation::OptDoubleCredit),
            _ => None,
        }
    }

    /// All mutation names, for usage text.
    pub const NAMES: &'static str = "tie-drop | bias | stale-graph | delta-stale-pair | \
         delta-missed-ego | delta-no-recert | approx-skip-hub | approx-no-variance | \
         approx-boundary-off | opt-double-credit";

    /// The fault to plant into a [`DeltaIndex`], for the delta mutants.
    fn delta_fault(self) -> Option<DeltaFault> {
        match self {
            Mutation::DeltaStalePair => Some(DeltaFault::StalePairOnDelete),
            Mutation::DeltaMissedEgo => Some(DeltaFault::MissEgo),
            Mutation::DeltaNoRecert => Some(DeltaFault::SkipRecertify),
            _ => None,
        }
    }

    /// The fault to plant into the approx sampler, for the approx mutants.
    fn approx_fault(self) -> Option<ApproxFault> {
        match self {
            Mutation::ApproxSkipHub => Some(ApproxFault::SkipHighDegree),
            Mutation::ApproxNoVariance => Some(ApproxFault::NoVarianceTerm),
            Mutation::ApproxBoundaryOff => Some(ApproxFault::BoundaryOffByOne),
            _ => None,
        }
    }
}

/// An engine wrapped with one deliberate defect: the first three mutations
/// corrupt a correct naive answer from the outside; the `Delta*` ones run
/// the real `DeltaIndex` replay with the corresponding fault planted
/// *inside* its update path; the `Approx*` ones run the real sampler
/// (deep forced-sampling configuration) with the fault planted inside its
/// estimation loop, checked against the full statistical contract; the
/// `Opt*` one runs the real OptBSearch with its bound bookkeeping broken.
pub struct FaultyOracle(pub Mutation);

impl FaultyOracle {
    /// Deep forced-sampling parameters for the approx mutants — the same
    /// configuration an honest deep [`ApproxOracle`] would run, so any
    /// divergence is attributable to the planted fault.
    fn approx_params(&self) -> ApproxParams {
        ApproxOracle {
            strategy: SamplingStrategy::Uniform,
            deep: true,
        }
        .forced_params()
    }
}

impl Oracle for FaultyOracle {
    fn name(&self) -> String {
        format!("mutant::{:?}", self.0)
    }
    fn check(&self, case: &Case, final_g: &CsrGraph, truth: &[f64]) -> Result<(), String> {
        if let Some(fault) = self.0.approx_fault() {
            return approx_check(final_g, case.k, &self.approx_params(), fault, truth);
        }
        check_topk(truth, &self.topk(case, final_g), case.k, REL_TOL)
    }
    fn topk(&self, case: &Case, final_g: &CsrGraph) -> Vec<(VertexId, f64)> {
        if let Some(fault) = self.0.approx_fault() {
            return approx_topk_with_fault(final_g, case.k, &self.approx_params(), fault)
                .topk_entries();
        }
        if let Some(fault) = self.0.delta_fault() {
            let mut idx = DeltaIndex::with_fault(&case.initial(), case.k, fault);
            for &op in &case.ops {
                idx.apply(op);
            }
            return idx.top_k();
        }
        if self.0 == Mutation::OptDoubleCredit {
            return opt_bsearch_with_fault(
                final_g,
                case.k,
                OptParams::default(),
                OptFault::DoubleCredit,
                None,
            )
            .entries;
        }
        let g = match self.0 {
            Mutation::StaleGraph => case.initial(),
            _ => final_g.clone(),
        };
        let mut out = topk_from_scores(&egobtw_core::compute_all_naive(&g), case.k);
        match self.0 {
            Mutation::TieDrop => {
                if let Some(&(_, kth)) = out.last() {
                    let keep = out.iter().take_while(|&&(_, s)| s > kth).count();
                    // Keep exactly one representative of the boundary class.
                    out.truncate((keep + 1).min(out.len()));
                }
            }
            Mutation::Bias => {
                if let Some(last) = out.last_mut() {
                    last.1 += 1e-3;
                }
            }
            _ => {}
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egobtw_dynamic::stream::EdgeOp;

    fn star_case(k: usize, ops: Vec<EdgeOp>) -> Case {
        Case {
            n: 6,
            edges: (1..6).map(|v| (0, v)).collect(),
            k,
            ops,
            label: "star".into(),
        }
    }

    #[test]
    fn oracle_set_is_complete_and_uniquely_named() {
        let oracles = all_oracles();
        let mut names: Vec<String> = oracles.iter().map(|o| o.name()).collect();
        assert!(names.iter().any(|n| n == "core::naive"));
        assert!(names.iter().any(|n| n == "core::base_search"));
        assert!(names.iter().any(|n| n.starts_with("core::opt_search")));
        assert!(names.iter().any(|n| n == "parallel::vertex_pebw(t=4)"));
        assert!(names.iter().any(|n| n == "parallel::edge_pebw(t=2)"));
        assert!(names.iter().any(|n| n == "dynamic::lazy(replay)"));
        assert!(names.iter().any(|n| n == "dynamic::local(replay)"));
        assert!(names.iter().any(|n| n == "dynamic::delta(replay)"));
        names.sort();
        names.dedup();
        assert_eq!(names.len(), oracles.len(), "duplicate oracle name");
    }

    #[test]
    fn every_oracle_agrees_on_a_star_stream() {
        let case = star_case(2, vec![EdgeOp::Insert(1, 2), EdgeOp::Delete(0, 5)]);
        let final_g = case.final_graph();
        let reference = LazyOracle.topk(&case, &final_g);
        for o in all_oracles() {
            let got = o.topk(&case, &final_g);
            assert_eq!(got.len(), reference.len(), "{}", o.name());
            for ((_, a), (_, b)) in got.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-9, "{}: {a} vs {b}", o.name());
            }
        }
    }

    #[test]
    fn mutants_misbehave() {
        // Stale-graph mutant ignores the stream that empties the star.
        let case = star_case(1, (1..6).map(|v| EdgeOp::Delete(0, v)).collect());
        let final_g = case.final_graph();
        let honest = StaticOracle(egobtw_core::registry::builtin_engines().remove(0));
        assert_eq!(honest.topk(&case, &final_g)[0].1, 0.0);
        assert!(FaultyOracle(Mutation::StaleGraph).topk(&case, &final_g)[0].1 > 0.0);
        // Bias mutant shifts a score; tie-drop mutant shortens the answer.
        let case = star_case(3, vec![]);
        let final_g = case.final_graph();
        assert!(FaultyOracle(Mutation::Bias).topk(&case, &final_g)[2].1 != 0.0);
        assert!(FaultyOracle(Mutation::TieDrop).topk(&case, &final_g).len() < 3);
        assert_eq!(Mutation::parse("bias"), Some(Mutation::Bias));
        assert_eq!(
            Mutation::parse("delta-no-recert"),
            Some(Mutation::DeltaNoRecert)
        );
        assert_eq!(Mutation::parse("nope"), None);
    }

    #[test]
    fn delta_mutants_misbehave() {
        // Each planted delta fault paired with the op/k regime where the
        // paper's toy graph provably exposes it: connector rot on the
        // (c,g) delete, a skipped ego on the (i,k) insert (both at k=n,
        // value-level), and the frozen Example 7 top-1 flip (k=1,
        // membership-level).
        use egobtw_gen::toy;
        let g = toy::paper_graph();
        let mk = |k: usize, ops: Vec<EdgeOp>| Case {
            n: g.n(),
            edges: g.edges().collect(),
            k,
            ops,
            label: "toy-delta-mutant".into(),
        };
        let checks = [
            (
                Mutation::DeltaStalePair,
                mk(16, vec![EdgeOp::Delete(toy::ids::C, toy::ids::G)]),
            ),
            (
                Mutation::DeltaMissedEgo,
                mk(16, vec![EdgeOp::Insert(toy::ids::I, toy::ids::K)]),
            ),
            (
                Mutation::DeltaNoRecert,
                mk(1, vec![EdgeOp::Insert(toy::ids::I, toy::ids::K)]),
            ),
        ];
        for (m, case) in checks {
            let final_g = case.final_graph();
            let honest = DeltaOracle.topk(&case, &final_g);
            let got = FaultyOracle(m).topk(&case, &final_g);
            let diverges = got.len() != honest.len()
                || got
                    .iter()
                    .zip(&honest)
                    .any(|(a, b)| a.0 != b.0 || (a.1 - b.1).abs() > 1e-9);
            assert!(diverges, "{m:?} indistinguishable from honest replay");
        }
    }
}
