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
//! * [`smap`] — the per-vertex pair-count maps `S_u`, the shared data
//!   structure behind Algorithms 1–3;
//! * [`engine`] — the triangle-driven engine behind BaseBSearch: ordered
//!   processing with diamond bookkeeping that counts each connector
//!   exactly once;
//! * [`ego_kernel`] — the dense ego-local kernel (EgoBWCal) behind
//!   OptBSearch and every per-ego caller, and OptBSearch's identified-edge
//!   counters that feed Lemma 3;
//! * [`bounds`] — the static upper bound `ub` (Lemma 2) and the dynamic,
//!   monotonically tightening bound `ũb` (Lemma 3);
//! * [`cancel`] — the cooperative [`Cancel`] token (explicit flag +
//!   optional deadline) every engine polls at coarse checkpoints, so a
//!   serving layer can stop an abandoned or deadline-expired request;
//! * [`base_search`] — **BaseBSearch** (Algorithm 1);
//! * [`opt_search`] — **OptBSearch** (Algorithm 2) with the gradient ratio
//!   `θ` and EgoBWCal (Algorithm 3), its exact computations spread over
//!   helper threads that each own a kernel;
//! * [`approx`] — adaptive pair-sampling engines with (ε, δ) rank
//!   guarantees and per-vertex empirical-Bernstein confidence intervals,
//!   for graphs the exact engines can't touch;
//! * [`compute_all`] — exact `CB` for every vertex via a single
//!   edge-centric pass (the `k = n` baseline, and the kernel that the
//!   parallel crate distributes);
//! * [`topk`] — ordered-float utilities and the bounded top-k set;
//! * [`registry`] — the enumerable engine registry: every top-k path in
//!   this crate under a stable name and a uniform signature, so harnesses
//!   discover engines instead of hand-listing them;
//! * [`stats`] — instrumentation counters (exact computations per search —
//!   Table II of the paper — plus triangle/diamond work).
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

pub mod approx;
pub mod base_search;
pub mod bounds;
pub mod cancel;
pub mod compute_all;
pub mod ego_kernel;
pub mod engine;
pub mod naive;
pub mod opt_search;
pub mod registry;
pub mod smap;
pub mod stats;
pub mod topk;

pub use approx::{
    approx_topk, approx_topk_cancellable, approx_topk_with_fault, binomial_tail_ge,
    clopper_pearson_upper, eb_half_width, round_delta, ApproxEntry, ApproxFault, ApproxParams,
    ApproxTopk, SamplingStrategy,
};
pub use base_search::base_bsearch;
pub use cancel::{Cancel, Cancelled};
pub use compute_all::{compute_all, compute_all_cancellable};
pub use ego_kernel::EgoKernel;
pub use engine::Engine;
pub use naive::{compute_all_naive, compute_all_naive_cancellable, ego_betweenness_of, EgoView};
pub use opt_search::{
    opt_bsearch, opt_bsearch_cancellable, opt_bsearch_with_fault, OptFault, OptParams,
};
pub use registry::{builtin_engines, topk_from_scores, EngineKind, RegisteredEngine};
pub use stats::SearchStats;
pub use topk::{TopKSet, TopkResult};
