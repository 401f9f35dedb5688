//! Graph substrate for the ego-betweenness toolkit.
//!
//! This crate provides everything the search, maintenance, and parallel
//! algorithms need from a graph library, built from scratch:
//!
//! * [`CsrGraph`] — an immutable, cache-friendly compressed-sparse-row
//!   graph with sorted adjacency slices;
//! * [`GraphBuilder`] — edge-list ingestion with deduplication and
//!   self-loop removal;
//! * [`DegreeOrder`] / [`OrientedGraph`] — the paper's total order `≺`
//!   (degree descending, id descending on ties) and the acyclic edge
//!   orientation derived from it;
//! * [`Relabeling`] — the degree-descending vertex renaming derived from
//!   `≺`, applied to a graph up front so hot loops see hubs as small ids,
//!   with inverse maps to restore results to original ids;
//! * [`triangle`] — oriented triangle enumeration (each triangle visited
//!   exactly once, at its `≺`-minimal vertex);
//! * [`DynGraph`] — a mutable adjacency structure for the dynamic
//!   maintenance algorithms;
//! * [`EdgeSet`] — O(1) edge membership via packed pair keys;
//! * [`io`] — SNAP-style edge-list reading and writing;
//! * [`hash`] / [`pair`] — a fast Fx-style hasher and packed `(u,v)`
//!   pair keys used pervasively by the hot per-vertex maps.
//!
//! Vertices are dense `u32` identifiers in `0..n`, following the
//! small-integer-id idiom for compact adjacency storage.

#![warn(missing_docs)]

pub mod builder;
pub mod csr;
pub mod dynamic;
pub mod edgeset;
pub mod hash;
pub mod intersect;
pub mod io;
pub mod order;
pub mod pair;
pub mod triangle;

pub use builder::GraphBuilder;
pub use csr::{CsrGraph, HybridConfig};
pub use dynamic::DynGraph;
pub use edgeset::EdgeSet;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use order::{DegreeOrder, OrientedGraph, Relabeling};
pub use pair::{pack_pair, unpack_pair};

/// Dense vertex identifier. All graphs in this workspace index vertices as
/// `0..n`, which keeps adjacency arrays compact and lets per-vertex state
/// live in flat `Vec`s instead of maps.
pub type VertexId = u32;
