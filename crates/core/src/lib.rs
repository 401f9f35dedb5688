//! Top-k ego-betweenness search — the paper's core contribution.
//!
//! For a vertex `p`, the *ego network* `GE(p)` is the subgraph induced by
//! `N(p) ∪ {p}`, and the *ego-betweenness* `CB(p)` sums, over pairs of
//! `p`'s neighbors, the fraction of shortest paths between them (inside
//! `GE(p)`) that pass through `p`. Because every ego network has diameter
//! ≤ 2 through its center, a non-adjacent pair `(u,v)` with `c` common
//! connectors (excluding `p`) contributes exactly `1/(c+1)`, and adjacent
//! pairs contribute 0 (Lemma 2 of the paper).
//!
//! This crate implements:
//!
//! * [`naive`] — the per-ego "straightforward algorithm" (bitset-based) and
//!   a simple reference implementation; these are both baselines and test
//!   oracles;
//! * [`smap`] — the per-vertex pair-count maps `S_u` the exact dynamic
//!   maintainer starts from (`compute_all::build_store`) and updates,
//!   each scored by the kernel's own summation;
//! * [`ego_kernel`] — the dense ego-local kernel (EgoBWCal) behind both
//!   searches and every per-ego caller, the one histogram summation
//!   every exact score goes through, and OptBSearch's identified-edge
//!   counters that feed its dynamic bound `ũb` (Lemma 3; the static bound
//!   `ub` of Lemma 2 is `CsrGraph::degree_bound`);
//! * [`cancel`] — the cooperative [`Cancel`] token (explicit flag +
//!   optional deadline) every engine polls at coarse checkpoints, so a
//!   serving layer can stop an abandoned or deadline-expired request;
//! * [`base_search`] — **BaseBSearch** (Algorithm 1), scoring egos in
//!   static-bound order with the same kernel;
//! * [`opt_search`] — **OptBSearch** (Algorithm 2) with the gradient ratio
//!   `θ` and EgoBWCal (Algorithm 3), its exact computations spread over
//!   helper threads that each own a kernel;
//! * [`compute_all`] — exact `CB` for every vertex (the `k = n`
//!   baseline): one all-egos driver computes each edge's common
//!   neighbourhood once and scores each ego in a triangle with the kernel,
//!   on the caller's thread or, for the parallel crate's PEBW, on `t`;
//! * [`topk`] — ordered-float utilities and the bounded top-k set;
//! * [`registry`] — the enumerable engine registry: every top-k path in
//!   this crate under a stable name and a uniform signature, so harnesses
//!   discover engines instead of hand-listing them;
//! * [`stats`] — instrumentation counters (exact computations per search —
//!   Table II of the paper — plus triangle work).
//!
//! # Quick start
//!
//! ```
//! use egobtw_core::opt_search::{opt_bsearch, OptParams};
//!
//! // A 5-star: the hub's neighbors are pairwise non-adjacent, so the hub
//! // scores C(5,2) = 10 and the leaves score 0.
//! let g = egobtw_graph::CsrGraph::from_edges(
//!     6, &[(0,1),(0,2),(0,3),(0,4),(0,5)]);
//! let result = opt_bsearch(&g, 1, OptParams::default());
//! assert_eq!(result.entries[0], (0, 10.0));
//! ```

#![warn(missing_docs)]

pub mod base_search;
pub mod cancel;
pub mod compute_all;
pub mod ego_kernel;
pub mod naive;
pub mod opt_search;
pub mod registry;
pub mod smap;
pub mod stats;
pub mod topk;

/// Tests of the upper bounds of Lemmas 2 and 3.
#[cfg(test)]
#[path = "bounds_tests.rs"]
mod bounds;
/// Tests of the exact scoring the two searches share.
#[cfg(test)]
#[path = "engine_tests.rs"]
mod engine;

pub use base_search::{base_bsearch, base_bsearch_cancellable};
pub use cancel::{Cancel, Cancelled};
pub use compute_all::{compute_all, compute_all_cancellable};
pub use ego_kernel::EgoKernel;
pub use naive::{compute_all_naive, compute_all_naive_cancellable, ego_betweenness_of, EgoView};
pub use opt_search::{
    opt_bsearch, opt_bsearch_cancellable, opt_bsearch_with_fault, OptFault, OptParams,
};
pub use registry::{builtin_engines, topk_from_scores, RegisteredEngine};
pub use stats::SearchStats;
pub use topk::{TopKSet, TopkResult};
