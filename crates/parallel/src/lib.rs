//! Parallel all-vertex ego-betweenness (Section V).
//!
//! Both algorithms run the all-egos driver
//! [`egobtw_core::compute_all::all_egos`] on `t` scoped threads. Phase 1
//! computes each undirected edge's `N(a) ∩ N(b)` once; phase 2 scores each
//! ego with one `EgoKernel` per thread, reading those rows. The paper
//! locks each vertex's map `S` as edges update it; here no shared state
//! is written twice, so nothing is locked. The two differ in how phase 1
//! cuts the edges into claims pulled from an atomic cursor:
//!
//! * [`vertex_pebw`] — **VertexPEBW**: a claim is a run of owner
//!   vertices with every edge they own (an edge belongs to its smaller
//!   id). Hubs sit at low ids in R-MAT and BA graphs and own huge edge
//!   bundles — the skewed load the paper observes;
//! * [`edge_pebw`] — **EdgePEBW**: a claim is a fixed number of edges —
//!   balanced load, and the faster of the two (Fig. 10).
//!
//! Every score is the kernel's, so both are bit-identical to
//! `compute_all` and `compute_all_naive` at every thread count.

pub mod pebw;

pub use pebw::{edge_pebw, vertex_pebw};
