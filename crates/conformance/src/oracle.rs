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
use egobtw_core::opt_search::{opt_bsearch_with_fault, OptFault, OptParams};
use egobtw_core::registry::{builtin_engines, topk_from_scores, RegisteredEngine};
use egobtw_dynamic::{LazyTopK, LocalFault, LocalIndex};
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
}

/// Adapter over a [`RegisteredEngine`] from `core`'s registry.
pub struct StaticOracle(pub RegisteredEngine);

impl Oracle for StaticOracle {
    fn name(&self) -> String {
        self.0.name().to_string()
    }
    fn topk(&self, case: &Case, final_g: &CsrGraph) -> Vec<(VertexId, f64)> {
        self.0.topk(final_g, case.k)
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
        LocalIndex::replay(&case.initial(), case.k, &case.ops).top_k()
    }
}

/// Every registered algorithm path: the enumerated `core` registry, both
/// PEBW variants at 1/2/4 threads, and both dynamic maintainers replayed
/// over the update stream.
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
    /// `LocalIndex` with [`LocalFault::StalePairOnDelete`] planted: on
    /// delete, connectors of pairs in the common-neighbor egos are never
    /// decremented, so those egos' `CB` rots low. Caught by per-vertex
    /// honesty / multiset checks on any stream with a triangle-adjacent
    /// delete.
    DeltaStalePair,
    /// `LocalIndex` with [`LocalFault::MissEgo`] planted: the last
    /// common-neighbor ego is skipped when enumerating the affected set,
    /// and its terms silently rot.
    DeltaMissedEgo,
    /// `LocalIndex` with [`LocalFault::SkipRecertify`] planted: the top-k
    /// boundary is never re-certified, freezing membership at the initial
    /// top-k. Caught whenever the stream changes the true top-k.
    DeltaNoRecert,
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
            "opt-double-credit" => Some(Mutation::OptDoubleCredit),
            _ => None,
        }
    }

    /// All mutation names, for usage text.
    pub const NAMES: &'static str = "tie-drop | bias | stale-graph | delta-stale-pair | \
         delta-missed-ego | delta-no-recert | opt-double-credit";

    /// The fault to plant into a [`LocalIndex`], for the delta mutants.
    fn local_fault(self) -> Option<LocalFault> {
        match self {
            Mutation::DeltaStalePair => Some(LocalFault::StalePairOnDelete),
            Mutation::DeltaMissedEgo => Some(LocalFault::MissEgo),
            Mutation::DeltaNoRecert => Some(LocalFault::SkipRecertify),
            _ => None,
        }
    }
}

/// An engine wrapped with one deliberate defect: the first three mutations
/// corrupt a correct naive answer from the outside; the `Delta*` ones run
/// the real `LocalIndex` replay (the `delta:K` maintainer) with the
/// corresponding fault planted *inside* its update path; the `Opt*` one
/// runs the real OptBSearch with its bound bookkeeping broken.
pub struct FaultyOracle(pub Mutation);

impl Oracle for FaultyOracle {
    fn name(&self) -> String {
        format!("mutant::{:?}", self.0)
    }
    fn topk(&self, case: &Case, final_g: &CsrGraph) -> Vec<(VertexId, f64)> {
        if let Some(fault) = self.0.local_fault() {
            let mut idx = LocalIndex::with_fault(&case.initial(), case.k, fault);
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
            let honest = LocalOracle.topk(&case, &final_g);
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
