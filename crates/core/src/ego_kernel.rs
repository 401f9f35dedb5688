//! The ego-local exact kernel, and OptBSearch's completion state on top
//! of it.
//!
//! [`EgoKernel`] computes one ego's `CB(p)` (Lemma 2) from its *rows*
//! `L_a = N(p) ∩ N(a)`, one per neighbour `a` of `p`, rewritten as local
//! ids (positions in sorted `N(p)`) through a dense position array. The
//! rows come from the view's intersection kernel — on [`CsrGraph`], the
//! hybrid merge/gallop/bitmap dispatch of
//! [`CsrGraph::common_neighbors_into`]. A non-adjacent pair `{x, y}` of
//! neighbours with `c = |L_x ∩ L_y|` connectors contributes `1/(c+1)`;
//! with `e = Σ|L_a|/2` edges among the neighbours, two evaluators count
//! the connectors:
//!
//! * **bitset sweep** — rows as `d`-bit sets; each non-adjacent pair costs
//!   `⌈d/64⌉` word `AND`+popcounts, `(d + d(d−1)/2 − e)·⌈d/64⌉` steps with
//!   the set-up;
//! * **dense wedge count** — for row `x` and each `a ∈ L_x`, bump a
//!   `d`-sized counter at every `y ∈ L_a` with `y > x`: `Σ_a C(|L_a|, 2)`
//!   steps, visiting only pairs that have a connector; pairs without one
//!   are counted, not visited.
//!
//! Both step counts are exact once the rows exist, so each ego takes the
//! cheaper evaluator with no tuned constant: the sweep wins on small or
//! dense egos, the wedge count on hubs whose neighbours share little.
//! Either evaluator tallies pairs by connector count and sums
//! `hist[c]/(c+1)` in ascending `c` ([`cb_of_histogram`]), so the two
//! agree bit for bit and the result does not depend on vertex labels.
//!
//! `EgoCompletion` is what OptBSearch keeps between exact computations:
//! which vertices are complete, and per vertex the number of its ego
//! edges identified so far. It is fed the rows of whichever kernel scored
//! an ego, so egos scored on helper threads are credited too. Computing
//! ego `u` enumerates every triangle `(u, a, b)`; each tells ego `a` that
//! its neighbour pair `{u, b}` is adjacent. Whichever of `u` and `b`
//! completes first credits it, so every ego edge is counted once, and
//! `ũb(v) = d(d−1)/2 − known[v]` is Lemma 3 over the identified edges at
//! O(1) per refresh.

use crate::naive::EgoView;
use crate::stats::SearchStats;
use egobtw_graph::{CsrGraph, VertexId};

/// `CB` of an ego whose non-adjacent neighbour pairs are tallied by
/// connector count (Lemma 2): `zero` pairs without a connector, and
/// `rest[c − 1]` pairs with `c ≥ 1`, each contributing `1/(c+1)`. The
/// non-zero counts are summed in ascending `c`. Every exact score is this
/// sum — [`EgoKernel`]'s and the dynamic maintainer's `S`-maps'
/// ([`crate::smap::PairMap::cb`]) — so equal tallies give equal bits.
pub fn cb_of_histogram(zero: u64, rest: &[u64]) -> f64 {
    std::iter::once(&zero)
        .chain(rest)
        .enumerate()
        .filter(|&(_, &h)| h != 0)
        .map(|(c, &h)| h as f64 / (c + 1) as f64)
        .sum()
}

/// The two ways [`EgoKernel`] can count connectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Evaluator {
    BitsetSweep,
    WedgeCount,
}

/// Reusable scratch for ego-local exact computations. One kernel serves
/// any number of egos on any number of graphs; every buffer only grows.
#[derive(Debug, Default)]
pub struct EgoKernel {
    /// `pos[v]` is `v`'s local id in the current ego. Only entries of the
    /// current ego's neighbours are meaningful, and only those are read:
    /// every row entry is a neighbour of the centre.
    pos: Vec<u32>,
    /// Sorted `N(p)` of the current ego.
    nbrs: Vec<VertexId>,
    /// Row `a` is `flat[off[a]..off[a + 1]]`, ascending local ids.
    off: Vec<usize>,
    flat: Vec<u32>,
    /// Pairs per connector count of the current ego.
    hist: Vec<u64>,
    /// Wedge counter, all zero between rows.
    count: Vec<u32>,
    touched: Vec<u32>,
    /// Bitset rows, `⌈d/64⌉` words each.
    bits: Vec<u64>,
}

/// Set in a wedge counter slot to mark the pair adjacent, so it is never
/// mistaken for a pair with connectors.
const ADJACENT: u32 = 1 << 31;

impl EgoKernel {
    /// An empty kernel; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exact `CB(p)`.
    pub fn score<V: EgoView + ?Sized>(&mut self, g: &V, p: VertexId) -> f64 {
        self.build_rows(g, p);
        self.evaluate(None)
    }

    /// Sorted `N(p)` of the ego last scored.
    pub(crate) fn neighbors(&self) -> &[VertexId] {
        &self.nbrs
    }

    /// Row `i` of the ego last scored: the local ids of `N(p) ∩ N(a)`
    /// for `a = neighbors()[i]`, ascending.
    pub(crate) fn row(&self, i: usize) -> &[u32] {
        &self.flat[self.off[i]..self.off[i + 1]]
    }

    /// Edges among the neighbours of the ego last scored, i.e. the
    /// triangles through its centre.
    pub(crate) fn ego_edges(&self) -> usize {
        self.flat.len() / 2
    }

    fn build_rows<V: EgoView + ?Sized>(&mut self, g: &V, p: VertexId) {
        let nbrs = &mut self.nbrs;
        nbrs.clear();
        g.for_each_neighbor(p, &mut |v| nbrs.push(v));
        nbrs.sort_unstable();
        if self.pos.len() < g.n_vertices() {
            self.pos.resize(g.n_vertices(), 0);
        }
        for (i, &v) in self.nbrs.iter().enumerate() {
            self.pos[v as usize] = i as u32;
        }
        self.off.clear();
        self.off.push(0);
        self.flat.clear();
        for &a in &self.nbrs {
            let start = self.flat.len();
            g.common_neighbors_sorted_into(p, a, &mut self.flat);
            for w in &mut self.flat[start..] {
                debug_assert_eq!(self.nbrs[self.pos[*w as usize] as usize], *w);
                *w = self.pos[*w as usize];
            }
            self.off.push(self.flat.len());
        }
    }

    /// Step counts of the two evaluators on the current rows (see the
    /// module docs).
    fn costs(&self) -> (u64, u64) {
        let d = self.nbrs.len() as u64;
        let words = d.div_ceil(64);
        let non_adjacent = d * d.saturating_sub(1) / 2 - self.ego_edges() as u64;
        let sweep = (d + non_adjacent) * words;
        let wedge = self
            .off
            .windows(2)
            .map(|w| {
                let l = (w[1] - w[0]) as u64;
                l * l.saturating_sub(1) / 2
            })
            .sum();
        (sweep, wedge)
    }

    /// `CB` of the current rows, by `force` or else by the cheaper
    /// evaluator.
    fn evaluate(&mut self, force: Option<Evaluator>) -> f64 {
        let d = self.nbrs.len();
        if d < 2 {
            return 0.0;
        }
        let which = force.unwrap_or_else(|| {
            let (sweep, wedge) = self.costs();
            if wedge < sweep {
                Evaluator::WedgeCount
            } else {
                Evaluator::BitsetSweep
            }
        });
        self.hist.clear();
        self.hist.resize(d - 1, 0);
        match which {
            Evaluator::BitsetSweep => self.bitset_sweep(),
            Evaluator::WedgeCount => self.wedge_count(),
        }
        cb_of_histogram(self.hist[0], &self.hist[1..])
    }

    /// Tallies every non-adjacent pair by its popcounted connectors.
    fn bitset_sweep(&mut self) {
        let d = self.nbrs.len();
        let words = d.div_ceil(64);
        self.bits.clear();
        self.bits.resize(d * words, 0);
        for x in 0..d {
            let row = &mut self.bits[x * words..(x + 1) * words];
            for &y in &self.flat[self.off[x]..self.off[x + 1]] {
                row[y as usize >> 6] |= 1u64 << (y & 63);
            }
        }
        for x in 0..d {
            let row_x = &self.bits[x * words..(x + 1) * words];
            for y in x + 1..d {
                if row_x[y >> 6] & (1u64 << (y & 63)) != 0 {
                    continue;
                }
                let row_y = &self.bits[y * words..(y + 1) * words];
                let c: u32 = row_x
                    .iter()
                    .zip(row_y)
                    .map(|(a, b)| (a & b).count_ones())
                    .sum();
                self.hist[c as usize] += 1;
            }
        }
    }

    /// Tallies the pairs with connectors by wedge counting; the rest go to
    /// `hist[0]` by subtraction.
    fn wedge_count(&mut self) {
        let d = self.nbrs.len();
        let EgoKernel {
            off,
            flat,
            hist,
            count,
            touched,
            ..
        } = self;
        let row = |a: usize| &flat[off[a]..off[a + 1]];
        count.clear();
        count.resize(d, 0);
        let mut with_connectors = 0u64;
        for x in 0..d {
            let row_x = row(x);
            for &y in row_x {
                count[y as usize] = ADJACENT;
            }
            touched.clear();
            for &a in row_x {
                // Rows ascend, so the `y > x` suffix is read from the back.
                for &y in row(a as usize).iter().rev() {
                    if y as usize <= x {
                        break;
                    }
                    let slot = &mut count[y as usize];
                    if *slot == 0 {
                        touched.push(y);
                    }
                    *slot += 1;
                }
            }
            for &y in touched.iter() {
                hist[count[y as usize] as usize] += 1;
                count[y as usize] = 0;
            }
            with_connectors += touched.len() as u64;
            for &y in row_x {
                count[y as usize] = 0;
            }
        }
        let pairs = (d * (d - 1) / 2) as u64;
        hist[0] = pairs - (flat.len() / 2) as u64 - with_connectors;
    }
}

/// OptBSearch's exact-computation ledger: which vertices are complete,
/// and each vertex's count of identified ego edges, the input of its
/// Lemma 3 bound (see the module docs). It owns no kernel: whichever
/// [`EgoKernel`] scored an ego hands its rows to [`Self::credit`], so
/// egos scored on other threads are credited by the ledger's one owner,
/// in whatever order they finish.
pub(crate) struct EgoCompletion {
    completed: Vec<bool>,
    known: Vec<u64>,
    /// Added to `known` per identified edge: 1, or 2 under
    /// [`crate::opt_search::OptFault::DoubleCredit`].
    credit: u64,
    /// Work counters: exact computations and the triangles they
    /// enumerated.
    pub stats: SearchStats,
}

impl EgoCompletion {
    /// Nothing completed over a graph of `n` vertices.
    #[cfg(test)]
    pub(crate) fn new(n: usize) -> Self {
        Self::with_credit(n, 1)
    }

    pub(crate) fn with_credit(n: usize, credit: u64) -> Self {
        EgoCompletion {
            completed: vec![false; n],
            known: vec![0; n],
            credit,
            stats: SearchStats::default(),
        }
    }

    /// The dynamic bound `ũb(v)` (Lemma 3): the pair count minus the ego
    /// edges of `v` identified so far. It never falls below `CB(v)` and
    /// never rises.
    pub fn bound(&self, g: &CsrGraph, v: VertexId) -> f64 {
        g.degree_bound(v) - self.known[v as usize] as f64
    }

    /// EgoBWCal: computes `CB(u)` exactly on `kernel` and credits the ego
    /// edges its triangles identify. A repeated call rescores `u` and
    /// changes nothing.
    pub fn complete(&mut self, kernel: &mut EgoKernel, g: &CsrGraph, u: VertexId) -> f64 {
        let cb = kernel.score(g, u);
        self.credit(kernel, u);
        cb
    }

    /// Marks `u` complete and credits the ego edges its triangles identify
    /// to the neighbours not yet complete; `kernel` last scored `u`. A
    /// repeated call changes nothing.
    pub fn credit(&mut self, kernel: &EgoKernel, u: VertexId) {
        if self.completed[u as usize] {
            return;
        }
        self.completed[u as usize] = true;
        self.stats.exact_computations += 1;
        self.stats.triangles_processed += kernel.ego_edges() as u64;
        let nbrs = kernel.neighbors();
        for (i, &a) in nbrs.iter().enumerate() {
            if self.completed[a as usize] {
                continue;
            }
            // Triangle (u, a, b): ego `a` learns that `{u, b}` is an edge,
            // unless `b` completed first and already said so.
            let fresh = kernel
                .row(i)
                .iter()
                .filter(|&&b| !self.completed[nbrs[b as usize] as usize])
                .count() as u64;
            self.known[a as usize] += fresh * self.credit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::ego_betweenness_reference;
    use egobtw_gen::{classic, gnp, toy};
    use egobtw_graph::{DynGraph, HybridConfig};

    fn assert_close(a: f64, b: f64, what: &str) {
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
            "{what}: {a} vs {b}"
        );
    }

    /// Both forced evaluators and the automatic choice agree bit for bit,
    /// and match the reference oracle, on every vertex of `g`.
    fn check_evaluators<V: EgoView + ?Sized>(g: &V) {
        let mut k = EgoKernel::new();
        for p in 0..g.n_vertices() as VertexId {
            k.build_rows(g, p);
            let sweep = k.evaluate(Some(Evaluator::BitsetSweep));
            let wedge = k.evaluate(Some(Evaluator::WedgeCount));
            let auto = k.score(g, p);
            assert_eq!(sweep.to_bits(), wedge.to_bits(), "vertex {p}");
            assert_eq!(sweep.to_bits(), auto.to_bits(), "vertex {p}");
            assert_close(
                sweep,
                ego_betweenness_reference(g, p),
                &format!("vertex {p}"),
            );
        }
    }

    #[test]
    fn evaluators_match_reference_on_random_graphs() {
        for seed in 0..4 {
            check_evaluators(&gnp(40, 0.2, seed));
        }
    }

    #[test]
    fn evaluators_match_reference_on_hub_graphs() {
        for seed in 0..3 {
            let g = egobtw_gen::rmat(9, 4, egobtw_gen::rmat::RmatParams::skewed(), seed);
            assert!(g.hub_count() > 0, "seed {seed}: no hub rows");
            check_evaluators(&g);
            // Dense hybrid thresholds make most rows bitmaps, so the rows
            // come from the bitmap×bitmap and slice×bitmap kernels.
            check_evaluators(&g.with_hybrid_config(&HybridConfig::dense()));
        }
    }

    #[test]
    fn evaluators_cross_word_boundaries() {
        for d in [63usize, 64, 65, 130] {
            let star = classic::star(d + 1);
            check_evaluators(&star);
            let mut k = EgoKernel::new();
            assert_eq!(k.score(&star, 0), (d * (d - 1) / 2) as f64, "star d={d}");
            let complete = classic::complete(d + 1);
            assert_eq!(k.score(&complete, 0), 0.0, "complete d={d}");
            // A complete ego with one edge removed leaves one pair with
            // d − 2 connectors: the histogram's last slot.
            let dropped: Vec<_> = complete.edges().filter(|&e| e != (1, 2)).collect();
            let g = CsrGraph::from_edges(d + 1, &dropped);
            check_evaluators(&g);
            assert_close(k.score(&g, 0), 1.0 / (d - 1) as f64, "near-complete");
        }
    }

    #[test]
    fn evaluators_run_on_dyn_graph() {
        let g = gnp(30, 0.25, 7);
        check_evaluators(&DynGraph::from_csr(&g));
        check_evaluators(&DynGraph::from_csr(&toy::paper_graph()));
    }

    #[test]
    fn cost_model_picks_each_evaluator() {
        // A star's leaves share nothing: no wedges, so the count wins.
        let mut k = EgoKernel::new();
        k.build_rows(&classic::star(40), 0);
        let (sweep, wedge) = k.costs();
        assert!(wedge < sweep, "star: {wedge} vs {sweep}");
        // A complete ego has no non-adjacent pair: the sweep costs only
        // its set-up, the wedge count a cubic.
        k.build_rows(&classic::complete(40), 0);
        let (sweep, wedge) = k.costs();
        assert!(sweep < wedge, "complete: {sweep} vs {wedge}");
    }

    /// Completing vertices in `visit` order (OptBSearch style) yields the
    /// oracle's values.
    fn check_completion(g: &CsrGraph, visit: impl Iterator<Item = VertexId>) {
        let mut done = EgoCompletion::new(g.n());
        let mut kernel = EgoKernel::new();
        for u in visit {
            let cb = done.complete(&mut kernel, g, u);
            assert_close(cb, ego_betweenness_reference(g, u), &format!("vertex {u}"));
        }
    }

    #[test]
    fn completion_any_order_matches_oracle() {
        let g = toy::paper_graph();
        check_completion(&g, 0..g.n() as VertexId);
        check_completion(&g, (0..g.n() as VertexId).rev());
        let weird = [5u32, 9, 0, 15, 8, 7, 3, 2, 11, 1, 6, 4, 13, 12, 14, 10];
        check_completion(&g, weird.into_iter());
        for seed in 0..5 {
            let g = gnp(40, 0.15, seed);
            check_completion(&g, (0..g.n() as VertexId).rev());
        }
        // Out-of-order completions first, then a full sweep over
        // everything (completed or not).
        let g = classic::karate_club();
        let mut done = EgoCompletion::new(g.n());
        let mut kernel = EgoKernel::new();
        done.complete(&mut kernel, &g, 33);
        done.complete(&mut kernel, &g, 0);
        for u in 0..g.n() as VertexId {
            let cb = done.complete(&mut kernel, &g, u);
            assert_close(cb, ego_betweenness_reference(&g, u), &format!("v{u}"));
        }
    }

    #[test]
    fn completion_on_hub_graphs_matches_oracle() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        for seed in 0..3 {
            let g = egobtw_gen::rmat(9, 4, egobtw_gen::rmat::RmatParams::skewed(), seed);
            assert!(g.hub_count() > 0, "seed {seed}: no hub rows");
            let n = g.n() as VertexId;
            check_completion(&g, 0..n);
            let mut shuffled: Vec<VertexId> = (0..n).collect();
            shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
            check_completion(&g, shuffled.into_iter());
        }
    }

    #[test]
    fn completion_is_idempotent() {
        let g = classic::karate_club();
        let mut done = EgoCompletion::new(g.n());
        let mut kernel = EgoKernel::new();
        let first = done.complete(&mut kernel, &g, 0);
        let stats = done.stats;
        let known = done.known.clone();
        let second = done.complete(&mut kernel, &g, 0);
        assert_eq!(first, second);
        assert_eq!(done.stats, stats, "no second count");
        assert_eq!(done.known, known, "no second credit");
        assert_eq!(done.stats.exact_computations, 1);
    }

    /// Distinct adjacent neighbour pairs `{x, y}` of `v` with a completed
    /// vertex among `x`, `y` — the ego edges of `v` the completions so
    /// far have identified, counted by brute force.
    fn identified_by_brute_force(g: &CsrGraph, done: &EgoCompletion, v: VertexId) -> u64 {
        let ns = g.neighbors(v);
        let mut count = 0;
        for (i, &x) in ns.iter().enumerate() {
            for &y in &ns[i + 1..] {
                if g.has_edge(x, y) && (done.completed[x as usize] || done.completed[y as usize]) {
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn known_counts_each_identified_ego_edge_once() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let graphs = [
            toy::paper_graph(),
            classic::karate_club(),
            gnp(40, 0.2, 3),
            egobtw_gen::rmat(8, 4, egobtw_gen::rmat::RmatParams::skewed(), 1),
        ];
        for (gi, g) in graphs.iter().enumerate() {
            let mut visit: Vec<VertexId> = (0..g.n() as VertexId).collect();
            visit.shuffle(&mut rand::rngs::StdRng::seed_from_u64(gi as u64));
            let mut done = EgoCompletion::new(g.n());
            let mut kernel = EgoKernel::new();
            for u in visit {
                done.complete(&mut kernel, g, u);
                for v in 0..g.n() as VertexId {
                    if !done.completed[v as usize] {
                        assert_eq!(
                            done.known[v as usize],
                            identified_by_brute_force(g, &done, v),
                            "graph {gi}: vertex {v} after completing {u}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bound_dominates_cb_and_tightens() {
        for g in [toy::paper_graph(), classic::karate_club(), gnp(40, 0.2, 5)] {
            let n = g.n() as VertexId;
            let truth: Vec<f64> = (0..n).map(|v| ego_betweenness_reference(&g, v)).collect();
            let mut done = EgoCompletion::new(g.n());
            let mut kernel = EgoKernel::new();
            let mut prev: Vec<f64> = (0..n).map(|v| done.bound(&g, v)).collect();
            for (v, p) in prev.iter().enumerate() {
                assert_eq!(*p, g.degree_bound(v as VertexId), "starts at Lemma 2");
            }
            for u in (0..n).rev().step_by(3) {
                done.complete(&mut kernel, &g, u);
                for v in (0..n).filter(|&v| !done.completed[v as usize]) {
                    let b = done.bound(&g, v);
                    let t = truth[v as usize];
                    assert!(b >= t - 1e-9, "bound {b} below CB {t} for {v}");
                    assert!(b <= prev[v as usize], "bound of {v} rose");
                    prev[v as usize] = b;
                }
            }
        }
    }

    #[test]
    fn paper_example4_bound_after_c_and_i() {
        // Fig. 3(a): after computing c and i exactly, the paper's trace
        // refreshes f's dynamic bound to 23/2, and the S-map engine that
        // shared every processed triangle (diamonds included) had it at
        // CB(f) = 11. Counting identified ego edges alone: f has d = 6,
        // 15 pairs, and c and i identify its three ego edges, leaving 12.
        let g = toy::paper_graph();
        let mut done = EgoCompletion::new(g.n());
        let mut kernel = EgoKernel::new();
        done.complete(&mut kernel, &g, toy::ids::C);
        done.complete(&mut kernel, &g, toy::ids::I);
        let b = done.bound(&g, toy::ids::F);
        assert_eq!(b, 12.0);
        assert!(b >= 11.0, "still an upper bound on CB(f) = 11");
    }
}
