//! Replays the paper's running example (Fig. 1–3, Examples 1–8) on the
//! reconstructed 16-vertex graph and prints every value the paper states,
//! side by side with what the library computes.
//!
//! ```text
//! cargo run --release --example paper_walkthrough
//! ```

use egobtw::core::{base_bsearch, opt_bsearch, OptParams};
use egobtw::dynamic::{LazyTopK, LocalIndex};
use egobtw::gen::toy::{self, ids};

fn row(label: char, got: f64, paper: &str) {
    println!("  CB({label}) = {got:<10.6} (paper: {paper})");
}

fn main() {
    let g = toy::paper_graph();
    println!(
        "Fig. 1(a) graph reconstructed: n={} m={} (see egobtw_gen::toy for the derivation)",
        g.n(),
        g.m()
    );

    // --- Example 1 & 2: exact ego-betweennesses ---
    println!("\nExample 1–2 (exact values):");
    let (cb, _) = egobtw::core::compute_all(&g);
    row('d', cb[ids::D as usize], "14/3");
    row('f', cb[ids::F as usize], "11");
    row('x', cb[ids::X as usize], "10");
    row('i', cb[ids::I as usize], "8");

    // --- Example 3 / Fig. 2: BaseBSearch, k = 5 ---
    println!("\nExample 3 (BaseBSearch, k=5):");
    let base = base_bsearch(&g, 5);
    print!("  R = {{");
    for (v, cbv) in &base.entries {
        print!(" {}:{:.3}", toy::label(*v), cbv);
    }
    println!(" }}");
    println!(
        "  exact computations: {} (paper: 10 — saves 6 of 16 vertices)",
        base.stats.exact_computations
    );

    // --- Example 4 / Fig. 3: OptBSearch, k = 5, θ = 1 ---
    println!("\nExample 4 (OptBSearch, k=5, θ=1):");
    let opt = opt_bsearch(&g, 5, OptParams { theta: 1.0 });
    print!("  R = {{");
    for (v, cbv) in &opt.entries {
        print!(" {}:{:.3}", toy::label(*v), cbv);
    }
    println!(" }}");
    println!(
        "  exact computations: {} (paper trace: 6; our bound counts only\n  \
         identified ego edges, not connectors, so it can be looser)",
        opt.stats.exact_computations
    );

    // --- Example 5: LocalInsert of (i,k) ---
    println!("\nExample 5 (insert (i,k), LocalInsert):");
    let mut local = LocalIndex::new(&g, 1);
    local.insert_edge(ids::I, ids::K);
    row('k', local.cb(ids::K), "1/2");
    row('i', local.cb(ids::I), "10.5");
    row('f', local.cb(ids::F), "9.5");

    // --- Example 6: LocalDelete of (c,g) ---
    println!("\nExample 6 (delete (c,g), LocalDelete — corrected values):");
    let mut local = LocalIndex::new(&g, 1);
    local.delete_edge(ids::C, ids::G);
    row('g', local.cb(ids::G), "1/2");
    row(
        'c',
        local.cb(ids::C),
        "14/3; the paper prints 55/6, which contradicts its own Lemma 6",
    );
    row(
        'e',
        local.cb(ids::E),
        "13/2; the paper prints 9/2, which contradicts its own Lemma 7",
    );

    // --- Example 7: LazyInsert with k = 1 ---
    println!("\nExample 7 (LazyInsert, k=1):");
    let mut lazy = LazyTopK::new(&g, 1);
    let before = lazy.top_k();
    println!(
        "  before: top-1 = {} ({:.3})",
        toy::label(before[0].0),
        before[0].1
    );
    lazy.insert_edge(ids::I, ids::K);
    let after = lazy.top_k();
    println!(
        "  after:  top-1 = {} ({:.3})   [paper: i with 10.5]",
        toy::label(after[0].0),
        after[0].1
    );
    println!(
        "  lazy skips: {}, recomputations: {}",
        lazy.stats.lazy_skips, lazy.stats.recomputations
    );

    // --- Example 8: LazyDelete with k = 1 and k = 12 ---
    println!("\nExample 8 (LazyDelete):");
    let mut lazy = LazyTopK::new(&g, 1);
    lazy.delete_edge(ids::C, ids::G);
    let after = lazy.top_k();
    println!(
        "  k=1: top-1 = {} ({:.3})   [paper: f stays on top]",
        toy::label(after[0].0),
        after[0].1
    );
    let mut lazy12 = LazyTopK::new(&g, 12);
    lazy12.delete_edge(ids::C, ids::G);
    let mut members: Vec<char> = lazy12.top_k().iter().map(|e| toy::label(e.0)).collect();
    members.sort_unstable();
    println!("  k=12: R = {members:?}   [paper: V − {{u,v,y,z}}]");
}
