//! Streaming maintenance: keep the top-k ego-betweenness vertices current
//! while edges arrive and disappear (Section IV of the paper).
//!
//! Simulates a communication network under churn: a burst of new contacts,
//! then link failures, with the lazy maintainer tracking the top-k and the
//! local index keeping every vertex exact under its own certified top-k —
//! and cross-checking each other.
//!
//! ```text
//! cargo run --release --example dynamic_stream
//! ```

use egobtw::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    let g = egobtw::gen::rmat(12, 4, egobtw::gen::rmat::RmatParams::skewed(), 7);
    println!(
        "communication network (R-MAT): n={} m={} dmax={}",
        g.n(),
        g.m(),
        g.max_degree()
    );

    let k = 10;
    let mut lazy = LazyTopK::new(&g, k);
    let mut local = LocalIndex::new(&g, k);
    let mut rng = StdRng::seed_from_u64(99);

    let updates = 2_000;
    let n = g.n() as u32;
    let mut inserted: Vec<(u32, u32)> = Vec::new();

    let t0 = Instant::now();
    for step in 0..updates {
        // 70% inserts (network growth), 30% deletes (link failures).
        if rng.random_bool(0.7) || inserted.is_empty() {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            if u != v && !lazy.graph().has_edge(u, v) {
                lazy.insert_edge(u, v);
                local.insert_edge(u, v);
                inserted.push((u, v));
            }
        } else {
            let (u, v) = inserted.swap_remove(rng.random_range(0..inserted.len()));
            if lazy.graph().has_edge(u, v) {
                lazy.delete_edge(u, v);
                local.delete_edge(u, v);
            }
        }
        if (step + 1) % 500 == 0 {
            let top = lazy.top_k();
            println!(
                "\nafter {:>5} updates (m = {}):",
                step + 1,
                lazy.graph().m()
            );
            for (rank, (v, cb)) in top.iter().take(5).enumerate() {
                println!("  #{:<2} vertex {v:<6} CB = {cb:.3}", rank + 1);
            }
            // The two maintainers must agree on the top-k values bit for
            // bit: both score every ego with the kernel's summation.
            let lv: Vec<u64> = top.iter().map(|e| e.1.to_bits()).collect();
            let tv: Vec<u64> = local.top_k().iter().map(|e| e.1.to_bits()).collect();
            assert_eq!(lv, tv, "maintainers diverged");
        }
    }
    let elapsed = t0.elapsed();
    println!(
        "\n{updates} updates in {elapsed:.2?} ({:.1} µs/update across both maintainers)",
        elapsed.as_micros() as f64 / updates as f64
    );
    println!(
        "lazy maintainer: {} recomputations, {} lazy skips, {} swaps",
        lazy.stats.recomputations, lazy.stats.lazy_skips, lazy.stats.swaps
    );
}
