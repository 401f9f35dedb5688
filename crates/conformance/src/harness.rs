//! Running one case through every oracle and reporting the first mismatch.
//!
//! The truth vector comes from [`egobtw_core::naive::ego_betweenness_reference`]
//! — the dead-simple hash-membership evaluation of the ego-network
//! definition, the one implementation in the workspace with no shared
//! machinery (no bitsets, no S-maps, no ordering). Every other path,
//! including `core::naive`'s bitset kernel, is an engine *under test*.
//!
//! Besides score conformance, the harness exercises the graph layer's
//! structural invariants on every case: the initial CSR, the replayed
//! dynamic graph, and the re-frozen CSR are each validated explicitly (in
//! release builds too, where the constructors' `debug_assert`s are
//! compiled out).

use crate::case::Case;
use crate::compare::{check_topk, REL_TOL};
use crate::oracle::{all_oracles, Oracle};
use egobtw_core::naive::ego_betweenness_reference;
use egobtw_dynamic::stream::EdgeOp;
use egobtw_graph::VertexId;

/// A conformance violation: which oracle diverged, and how.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// Name of the diverging oracle (or the violated invariant layer).
    pub oracle: String,
    /// Human-readable description of the divergence.
    pub detail: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Runs `case` through the given oracles. `Ok` means every oracle's
/// answer is tie-aware-equal to the reference truth and every graph
/// invariant held.
pub fn check_case_with(case: &Case, oracles: &[Box<dyn Oracle>]) -> Result<(), Mismatch> {
    let invariant = |layer: &str, r: Result<(), String>| {
        r.map_err(|detail| Mismatch {
            oracle: format!("invariant::{layer}"),
            detail,
        })
    };
    let g0 = case.initial();
    invariant("csr(initial)", g0.validate())?;
    let replayed = case.final_dyn();
    invariant("dyn(replayed)", replayed.validate())?;
    let final_g = replayed.to_csr();
    invariant("csr(final)", final_g.validate())?;

    let truth: Vec<f64> = (0..final_g.n() as VertexId)
        .map(|v| ego_betweenness_reference(&final_g, v))
        .collect();
    for oracle in oracles {
        check_topk(&truth, &oracle.topk(case, &final_g), case.k, REL_TOL).map_err(|detail| {
            Mismatch {
                oracle: oracle.name(),
                detail,
            }
        })?;
    }
    Ok(())
}

/// [`check_case_with`] over the full discovered oracle set.
pub fn check_case(case: &Case) -> Result<(), Mismatch> {
    check_case_with(case, &all_oracles())
}

/// Entry point for shrunk regression tests (the code printed by the
/// stress binary calls this). Panics with the mismatch on divergence.
pub fn assert_case(n: usize, edges: &[(VertexId, VertexId)], k: usize, ops: &[EdgeOp]) {
    let case = Case {
        n,
        edges: edges.to_vec(),
        k,
        ops: ops.to_vec(),
        label: "regression".into(),
    };
    if let Err(m) = check_case(&case) {
        panic!("conformance violation: {m}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{FaultyOracle, Mutation};

    fn case(n: usize, edges: &[(VertexId, VertexId)], k: usize, ops: Vec<EdgeOp>) -> Case {
        Case {
            n,
            edges: edges.to_vec(),
            k,
            ops,
            label: "unit".into(),
        }
    }

    #[test]
    fn green_on_small_cases() {
        assert_case(0, &[], 0, &[]);
        assert_case(1, &[], 3, &[]);
        assert_case(5, &[(0, 1), (1, 2), (2, 3), (3, 4)], 2, &[]);
        assert_case(
            4,
            &[(0, 1), (1, 2)],
            4,
            &[
                EdgeOp::Insert(2, 3),
                EdgeOp::Insert(0, 3),
                EdgeOp::Delete(1, 2),
            ],
        );
    }

    #[test]
    fn mutant_detected() {
        let c = case(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)], 3, vec![]);
        let oracles: Vec<Box<dyn Oracle>> = vec![Box::new(FaultyOracle(Mutation::TieDrop))];
        let m = check_case_with(&c, &oracles).unwrap_err();
        assert!(m.oracle.contains("TieDrop"));
        assert!(m.detail.contains("expected 3"), "{}", m.detail);
    }

    #[test]
    fn stale_graph_mutant_detected_via_stream() {
        let c = case(
            4,
            &[(0, 1), (0, 2), (0, 3)],
            1,
            vec![EdgeOp::Delete(0, 1), EdgeOp::Delete(0, 2)],
        );
        let oracles: Vec<Box<dyn Oracle>> = vec![Box::new(FaultyOracle(Mutation::StaleGraph))];
        let m = check_case_with(&c, &oracles).unwrap_err();
        assert!(m.oracle.contains("StaleGraph"), "{}", m.oracle);
    }
}
