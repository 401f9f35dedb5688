//! Differential conformance harness for every ego-betweenness engine.
//!
//! The paper's contract is strong: the optimized top-k searches, the
//! parallel all-vertices engines, and both dynamic maintainers must all
//! return *exactly* what the naive ego-network definition gives — faster,
//! never different. This crate turns that contract into an executable
//! oracle layer, in the spirit of the differential validation used for
//! evolving-graph betweenness (Kourtellis et al., arXiv:1401.6981):
//!
//! * [`oracle`] — the [`Oracle`] trait plus adapters for every algorithm
//!   path: the enumerated `core` engine registry, `parallel` PEBW at
//!   several thread counts, and the `dynamic` maintainers replayed over
//!   update streams;
//! * [`scenario`] — deterministic scenario generation over every `gen`
//!   model family, a k-sweep (`0, 1, n/2, n, n+5`), and seeded
//!   insert/delete streams;
//! * [`compare`] — the tie-aware top-k comparator (score-multiset
//!   equality with interchangeable boundary tie classes, relative float
//!   tolerance);
//! * [`harness`] — one case through all oracles, including the graph
//!   layer's structural invariant checks;
//! * [`shrink`] — greedy reduction of a failing case to a minimal one;
//! * [`chaos`] — a seeded fault-injection TCP proxy plus an
//!   oracle-checked chaos workload that turns the same replay truth
//!   against the *serving* path under delays, stalls, cuts, corruption,
//!   and resets;
//! * the `stress` binary — reproducible sweeps (`--seed`, `--budget`),
//!   printing any shrunk failure as a ready-to-paste `#[test]`, and a
//!   `--chaos` mode that drives a real daemon through the proxy.
//!
//! See `docs/TESTING.md` for the full oracle matrix and workflows.

#![warn(missing_docs)]

pub mod case;
pub mod chaos;
pub mod compare;
pub mod harness;
pub mod oracle;
pub mod scenario;
pub mod shrink;

pub use case::Case;
pub use chaos::{
    run_chaos_workload, verify_outcome_accounting, verify_recovered, ChaosProxy, ChaosReport,
    FaultKind, FaultPlan, OutcomeAccounting,
};
pub use compare::{approx_eq, check_topk, REL_TOL};
pub use harness::{assert_case, check_case, check_case_with, Mismatch};
pub use oracle::{all_oracles, FaultyOracle, Mutation, Oracle};
pub use scenario::{scenario, FAMILIES};
pub use shrink::shrink;
