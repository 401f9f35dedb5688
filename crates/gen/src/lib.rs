//! Synthetic graph generators.
//!
//! The paper evaluates on five SNAP datasets that are unavailable offline;
//! these generators produce deterministic stand-ins that preserve the three
//! structural axes the algorithms are sensitive to (degree skew, triangle
//! density, community structure) — `egobtw_bench::standins` maps each
//! SNAP dataset to its stand-in.
//!
//! All generators take an explicit `seed` and are fully deterministic: the
//! same `(parameters, seed)` always yields the same graph, so experiment
//! tables are reproducible run to run.
//!
//! * [`ba::barabasi_albert`] — preferential attachment (heavy-tailed social
//!   networks: Youtube / Pokec / LiveJournal stand-ins);
//! * [`rmat::rmat`] — recursive-matrix sampling (extreme hub skew:
//!   WikiTalk stand-in);
//! * [`community::planted_partition`] — dense intra-community cliques
//!   (collaboration networks: DBLP / case-study stand-ins);
//! * [`er`] — Erdős–Rényi G(n,m) and G(n,p) reference models;
//! * [`ws::watts_strogatz`] — small-world ring rewiring;
//! * [`classic`] — deterministic families (complete, star, path, …) plus
//!   Zachary's karate club for human-scale examples;
//! * [`toy::paper_graph`] — the exact 16-vertex running example of the
//!   paper's Fig. 1, reconstructed from the worked examples, with golden
//!   ego-betweenness values for testing;
//! * [`sample`] — uniform edge / vertex subsampling (scalability
//!   experiment, Fig. 9).

pub mod ba;
pub mod classic;
pub mod community;
pub mod er;
pub mod rmat;
pub mod sample;
pub mod toy;
pub mod ws;

pub use ba::barabasi_albert;
pub use community::planted_partition;
pub use er::{gnm, gnp};
pub use rmat::rmat;
pub use ws::watts_strogatz;

use egobtw_graph::CsrGraph;

/// The families [`synth_family`] accepts, with base sizes at scale 1.0.
pub const SYNTH_FAMILIES: &[&str] = &[
    "karate",
    "toy",
    "er",
    "ba",
    "ws",
    "rmat",
    "community",
    "hub",
];

/// One-stop named-family synthesis, shared by the `mkdata` binary and the
/// service's `egobtw-cli loadgen --gen` so "the same `(family, scale,
/// seed)` is the same graph" holds *across tools*, not just within one.
/// `scale` multiplies the family's base size (ignored by the fixed
/// `karate`/`toy` fixtures); the floor is 8 vertices.
pub fn synth_family(family: &str, scale: f64, seed: u64) -> Result<CsrGraph, String> {
    let n = |base: usize| ((base as f64 * scale) as usize).max(8);
    Ok(match family {
        "karate" => classic::karate_club(),
        "toy" => toy::paper_graph(),
        "er" => gnp(n(200), 0.05, seed),
        "ba" => barabasi_albert(n(200), 3, seed),
        // Hub-heavy but sparse (m ≈ n): attachment 1 grows a scale-free
        // tree whose high-degree hubs dominate the ranking while common
        // neighborhoods stay tiny, so per-op incremental work is small
        // and the per-publish cost (sorting all n scores vs reading off
        // a k-heap) dominates an update-heavy serving workload.
        "hub" => barabasi_albert(n(2000), 1, seed),
        "ws" => watts_strogatz(n(200), 6, 0.1, seed),
        "rmat" => {
            let target = n(256);
            let s = (usize::BITS - 1 - target.leading_zeros()).max(3);
            rmat(s, 4, rmat::RmatParams::skewed(), seed)
        }
        "community" => planted_partition(
            community::PlantedPartition {
                communities: n(20),
                community_size: 10,
                p_in: 0.45,
                cross_edges_per_vertex: 0.4,
            },
            seed,
        ),
        other => {
            return Err(format!(
                "unknown family {other:?} (families: {})",
                SYNTH_FAMILIES.join(", ")
            ))
        }
    })
}

#[cfg(test)]
mod synth_tests {
    use super::*;

    #[test]
    fn every_family_synthesizes_deterministically() {
        for &family in SYNTH_FAMILIES {
            let a = synth_family(family, 0.5, 9).unwrap();
            let b = synth_family(family, 0.5, 9).unwrap();
            assert!(a.n() >= 8, "{family}");
            assert_eq!((a.n(), a.m()), (b.n(), b.m()), "{family}");
            assert_eq!(a.validate(), Ok(()), "{family}");
        }
        assert!(synth_family("nope", 1.0, 0).is_err());
    }
}
