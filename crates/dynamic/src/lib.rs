//! Ego-betweenness maintenance under edge updates (Section IV).
//!
//! Two maintainers, trading memory for work:
//!
//! * [`local::LocalIndex`] — **LocalInsert / LocalDelete** (Algorithms
//!   4–5): keeps the complete per-vertex maps `S_u` plus every `CB`, and
//!   applies exact delta updates. Observation 1 bounds the blast radius of
//!   an edge flip `(u,v)` to `{u, v} ∪ (N(u) ∩ N(v))`; Lemmas 4–7 give the
//!   per-pair patches, and each touched ego is rescored from its map's
//!   connector tallies with the kernel's summation, bit for bit a static
//!   recomputation. Those touched egos also feed a lazily re-certified
//!   top-k set, so reading the answer costs `O(k log k)`, not a full sort.
//!   Memory `O(Σ d(u)²)`, update cost local.
//! * [`lazy::LazyTopK`] — **LazyInsert / LazyDelete** (Algorithm 6): keeps
//!   only `O(n)` state (one value + staleness flag per vertex) and the
//!   current top-k. Monotonicity facts (insertion can only *decrease* a
//!   common neighbor's `CB`; deletion can only *increase* it; endpoint
//!   bounds move with the degree) let most affected vertices be marked
//!   stale instead of recomputed; exact recomputation happens on demand via
//!   the per-ego kernel.
//!
//! Both are verified against from-scratch recomputation after every
//! update in the property-test suites (`LocalIndex` bit for bit).
//!
//! [`stream`] gives updates a first-class data form ([`EdgeOp`]) with
//! replay constructors on both maintainers, so the conformance harness
//! can treat "maintainer fed a stream" as just another engine.

pub mod lazy;
pub mod local;
pub mod stream;

pub use lazy::{LazyTopK, TopKPeek};
pub use local::{LocalFault, LocalIndex};
pub use stream::{replay_graph, EdgeOp};

/// Scenario tests of the service's `delta:K` mode: a [`LocalIndex`] with a
/// certified top-k, fed [`EdgeOp`]s one at a time through
/// [`LocalIndex::apply`] as the daemon's writer does, and checked against
/// `compute_all` on the mirrored graph.
#[cfg(test)]
mod delta {
    mod tests;
}
