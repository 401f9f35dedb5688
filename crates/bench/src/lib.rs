//! Shared harness for the experiment reproduction driver and the perf
//! harness: the synthetic dataset registry (stand-ins for the
//! paper's five SNAP graphs — [`standins`]), wall-clock helpers, and
//! fixed-width table printing that mirrors the paper's layout.

use egobtw_gen::rmat::RmatParams;
use egobtw_graph::CsrGraph;
use std::time::{Duration, Instant};

pub mod json;

/// A named benchmark graph.
pub struct Dataset {
    /// Stand-in name, e.g. `youtube-like`.
    pub name: &'static str,
    /// Which paper dataset it substitutes.
    pub substitutes: &'static str,
    /// The graph itself.
    pub graph: CsrGraph,
}

/// Scales a base size by `scale`, clamping to a sane floor.
fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(64)
}

/// The five stand-ins at a given size multiplier (`scale = 1.0` is the
/// default experiment size; `--scale 0.2` gives a quick smoke run).
pub fn standins(scale: f64) -> Vec<Dataset> {
    // R-MAT scale chosen so n tracks the multiplier.
    let target_n = scaled(32_768, scale);
    let rmat_scale = (usize::BITS - 1 - target_n.leading_zeros()).max(8);
    vec![
        Dataset {
            name: "youtube-like",
            substitutes: "Youtube (social)",
            graph: egobtw_gen::barabasi_albert(scaled(30_000, scale), 3, 0xEB01),
        },
        Dataset {
            name: "wikitalk-like",
            substitutes: "WikiTalk (communication)",
            graph: egobtw_gen::rmat(rmat_scale, 3, RmatParams::skewed(), 0xEB02),
        },
        Dataset {
            name: "dblp-like",
            substitutes: "DBLP (collaboration)",
            graph: egobtw_gen::planted_partition(
                egobtw_gen::community::PlantedPartition {
                    communities: scaled(3_000, scale),
                    community_size: 10,
                    p_in: 0.45,
                    cross_edges_per_vertex: 0.4,
                },
                0xEB03,
            ),
        },
        Dataset {
            name: "pokec-like",
            substitutes: "Pokec (social, dense)",
            graph: egobtw_gen::barabasi_albert(scaled(25_000, scale), 10, 0xEB04),
        },
        Dataset {
            name: "livejournal-like",
            substitutes: "LiveJournal (social, largest)",
            graph: egobtw_gen::barabasi_albert(scaled(50_000, scale), 7, 0xEB05),
        },
    ]
}

/// The Exp-7 case-study graphs (DB and IR co-authorship subnetworks),
/// sized like the paper's extractions (37k/132k and 13k/37k).
pub fn case_study(scale: f64) -> Vec<Dataset> {
    vec![
        Dataset {
            name: "DB-like",
            substitutes: "DBLP DB subgraph (37,177 v / 131,715 e)",
            graph: egobtw_gen::planted_partition(
                egobtw_gen::community::PlantedPartition {
                    communities: scaled(3_100, scale),
                    community_size: 12,
                    p_in: 0.45,
                    cross_edges_per_vertex: 0.55,
                },
                0xCA5E,
            ),
        },
        Dataset {
            name: "IR-like",
            substitutes: "DBLP IR subgraph (13,445 v / 37,428 e)",
            graph: egobtw_gen::planted_partition(
                egobtw_gen::community::PlantedPartition {
                    communities: scaled(1_350, scale),
                    community_size: 10,
                    p_in: 0.4,
                    cross_edges_per_vertex: 0.5,
                },
                0xCA5F,
            ),
        },
    ]
}

/// Times one invocation.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Milliseconds with three decimals, right-aligned — the unit used in all
/// printed tables.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Prints a fixed-width table: a header row, a rule, then rows. Column
/// widths adapt to content.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i == 0 {
                s.push_str(&format!("{:<w$}", cell, w = widths[i]));
            } else {
                s.push_str(&format!("  {:>w$}", cell, w = widths[i]));
            }
        }
        s
    };
    println!("{}", line(headers.iter().map(|s| s.to_string()).collect()));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", line(row.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standins_have_expected_character() {
        let sets = standins(0.05);
        assert_eq!(sets.len(), 5);
        for d in &sets {
            assert!(d.graph.n() > 0 && d.graph.m() > 0, "{} is empty", d.name);
        }
        // Heavy tails where expected.
        let yt = &sets[0].graph;
        assert!(yt.max_degree() > 10 * (2 * yt.m() / yt.n()).max(1));
    }

    #[test]
    fn case_study_sizes_scale() {
        let cs = case_study(0.05);
        assert_eq!(cs.len(), 2);
        assert!(cs[0].graph.n() > cs[1].graph.n());
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(ms(Duration::from_millis(1500)), "1500.000");
    }
}
