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
//! * **bitset sweep** — rows as `d`-bit sets of `W = ⌈d/64⌉` words. Row
//!   `x`'s complement names the neighbours `y > x` not adjacent to `x`,
//!   read off its set bits, and each such pair costs `W` word
//!   `AND`+popcounts: `(d + d(d−1)/2 − e)·W` steps with the complement
//!   scan. No adjacent pair is visited. The loop is compiled once per
//!   width `W ∈ 1..=8` (wider rows take a slice loop), and on x86-64 CPUs
//!   that report POPCNT at run time it runs in a copy compiled with the
//!   hardware instruction;
//! * **dense wedge count** — for row `x` and each `a ∈ L_x`, bump a
//!   `d`-sized counter at every `y ∈ L_a` with `y > x`: `Σ_a C(|L_a|, 2)`
//!   steps, visiting only pairs that have a connector; pairs without one
//!   are counted, not visited.
//!
//! Both step counts are known once the rows exist. Each ego takes the
//! cheaper evaluator with a wedge step priced at [`WEDGE_STEP_COST`]
//! sweep word-steps (a scattered counter bump against a streamed word):
//! the sweep wins on small or dense egos, the wedge count on hubs whose
//! neighbours share little. Either evaluator tallies pairs by connector
//! count and sums `hist[c]/(c+1)` in ascending `c`
//! ([`cb_of_histogram`]), so the two agree bit for bit and the result
//! does not depend on vertex labels or on the choice.
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

/// What one wedge-count step costs in bitset-sweep word steps, the price
/// [`EgoKernel`] picks its evaluator by. A wedge step bumps a counter at
/// a scattered slot; a sweep step streams one `AND`+popcount through
/// registers. `repro ablate` prints both step counts and both evaluators'
/// times on the egos this ratio was settled from.
pub const WEDGE_STEP_COST: u64 = 3;

/// The two ways [`EgoKernel`] can count connectors (see the module docs).
/// Public, with the methods that take or return it, only so that
/// `repro ablate` can time each evaluator on its own.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Evaluator {
    /// Popcount the rows of every non-adjacent pair.
    BitsetSweep,
    /// Bump a counter per wedge; pairs without a connector are counted.
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
    /// The wedge count's first-touched slots, `d` of them preallocated.
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
        self.evaluate(self.choice())
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

    /// Builds ego `p`'s rows without scoring them; [`Self::score`] is
    /// this plus [`Self::evaluate`] by [`Self::choice`].
    #[doc(hidden)]
    pub fn build_rows<V: EgoView + ?Sized>(&mut self, g: &V, p: VertexId) {
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

    /// Step counts `(sweep, wedge)` of the two evaluators on the current
    /// rows (see the module docs).
    #[doc(hidden)]
    pub fn costs(&self) -> (u64, u64) {
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

    /// The cheaper evaluator on the current rows, a wedge step priced at
    /// [`WEDGE_STEP_COST`] sweep steps.
    #[doc(hidden)]
    pub fn choice(&self) -> Evaluator {
        let (sweep, wedge) = self.costs();
        if wedge.saturating_mul(WEDGE_STEP_COST) < sweep {
            Evaluator::WedgeCount
        } else {
            Evaluator::BitsetSweep
        }
    }

    /// `CB` of the rows [`Self::build_rows`] last built, by the evaluator
    /// `by`.
    #[doc(hidden)]
    pub fn evaluate(&mut self, by: Evaluator) -> f64 {
        let d = self.nbrs.len();
        if d < 2 {
            return 0.0;
        }
        self.hist.clear();
        self.hist.resize(d - 1, 0);
        match by {
            Evaluator::BitsetSweep => self.bitset_sweep(tally),
            Evaluator::WedgeCount => self.wedge_count(),
        }
        cb_of_histogram(self.hist[0], &self.hist[1..])
    }

    /// Tallies every non-adjacent pair by its popcounted connectors, with
    /// `tally_with` doing the counting.
    fn bitset_sweep(&mut self, tally_with: fn(&[u64], usize, &mut [u64])) {
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
        tally_with(&self.bits, words, &mut self.hist);
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
        // At most `d − 1` slots are kept per row, so `d` slots also hold
        // the one written past the last kept.
        touched.clear();
        touched.resize(d, 0);
        let mut with_connectors = 0u64;
        for x in 0..d {
            let row_x = row(x);
            for &y in row_x {
                count[y as usize] = ADJACENT;
            }
            let mut len = 0;
            for &a in row_x {
                // Rows ascend, so the `y > x` suffix is read from the back.
                for &y in row(a as usize).iter().rev() {
                    if y as usize <= x {
                        break;
                    }
                    // Always written, kept only on the slot's first bump.
                    touched[len] = y;
                    len += usize::from(count[y as usize] == 0);
                    count[y as usize] += 1;
                }
            }
            for &y in &touched[..len] {
                hist[count[y as usize] as usize] += 1;
                count[y as usize] = 0;
            }
            with_connectors += len as u64;
            for &y in row_x {
                count[y as usize] = 0;
            }
        }
        let pairs = (d * (d - 1) / 2) as u64;
        hist[0] = pairs - (flat.len() / 2) as u64 - with_connectors;
    }
}

/// [`tally_portable`], in its POPCNT copy where the CPU has the
/// instruction.
fn tally(bits: &[u64], words: usize, hist: &mut [u64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("popcnt") {
        // SAFETY: `tally_popcnt` only needs POPCNT, which this CPU was
        // just found to support.
        return unsafe { tally_popcnt(bits, words, hist) };
    }
    tally_portable(bits, words, hist);
}

/// Counts every non-adjacent pair of the rows in `bits`, `words` words
/// each, into `hist` by its connectors. Compiled for the baseline CPU.
fn tally_portable(bits: &[u64], words: usize, hist: &mut [u64]) {
    tally_by_width(bits, words, hist);
}

/// [`tally_portable`] compiled with POPCNT, so each word's `count_ones`
/// is one instruction instead of a bit-twiddling sequence.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
fn tally_popcnt(bits: &[u64], words: usize, hist: &mut [u64]) {
    tally_by_width(bits, words, hist);
}

/// Dispatches on the row width, so rows of up to 8 words are fixed-size
/// arrays the compiler unrolls. Inlined into each caller, so it takes the
/// caller's target features.
#[inline(always)]
fn tally_by_width(bits: &[u64], words: usize, hist: &mut [u64]) {
    match words {
        1 => tally_fixed::<1>(bits, hist),
        2 => tally_fixed::<2>(bits, hist),
        3 => tally_fixed::<3>(bits, hist),
        4 => tally_fixed::<4>(bits, hist),
        5 => tally_fixed::<5>(bits, hist),
        6 => tally_fixed::<6>(bits, hist),
        7 => tally_fixed::<7>(bits, hist),
        8 => tally_fixed::<8>(bits, hist),
        _ => tally_rows(hist, bits.len() / words, words, |x| {
            &bits[x * words..(x + 1) * words]
        }),
    }
}

/// Rows of `W` words as `[u64; W]`.
#[inline(always)]
fn tally_fixed<const W: usize>(bits: &[u64], hist: &mut [u64]) {
    let (rows, _) = bits.as_chunks::<W>();
    tally_rows(hist, rows.len(), W, |x| &rows[x]);
}

/// The sweep over `d` rows of `words` words, row `x` read as `row(x)`:
/// the set bits of row `x`'s complement past `x` are its non-adjacent
/// pairs `{x, y}`, each tallied by its popcounted connectors.
#[inline(always)]
fn tally_rows<'a, R: AsRef<[u64]> + ?Sized + 'a>(
    hist: &mut [u64],
    d: usize,
    words: usize,
    row: impl Fn(usize) -> &'a R,
) {
    // The last word's bits at `d` and past it name no neighbour.
    let tail = u64::MAX >> (words * 64 - d);
    for x in 0..d {
        let row_x = row(x).as_ref();
        let first = (x + 1) / 64;
        for (i, &word) in row_x.iter().enumerate().skip(first) {
            let mut apart = !word;
            if i == first {
                apart &= u64::MAX << ((x + 1) % 64);
            }
            if i == words - 1 {
                apart &= tail;
            }
            while apart != 0 {
                let y = i * 64 + apart.trailing_zeros() as usize;
                apart &= apart - 1;
                let connectors: u32 = row_x
                    .iter()
                    .zip(row(y).as_ref())
                    .map(|(a, b)| (a & b).count_ones())
                    .sum();
                hist[connectors as usize] += 1;
            }
        }
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

    /// Both forced evaluators and the automatic choice agree bit for bit
    /// with each other and with the reference oracle, on every vertex of
    /// `g`.
    fn check_evaluators<V: EgoView + ?Sized>(g: &V) {
        let mut k = EgoKernel::new();
        for p in 0..g.n_vertices() as VertexId {
            k.build_rows(g, p);
            let sweep = k.evaluate(Evaluator::BitsetSweep);
            let wedge = k.evaluate(Evaluator::WedgeCount);
            let auto = k.score(g, p);
            let reference = ego_betweenness_reference(g, p);
            assert_eq!(sweep.to_bits(), wedge.to_bits(), "vertex {p}");
            assert_eq!(sweep.to_bits(), auto.to_bits(), "vertex {p}");
            assert_eq!(sweep.to_bits(), reference.to_bits(), "vertex {p}");
        }
    }

    /// The bitset sweep's histogram on the rows `k` holds, from the
    /// dispatched tally (POPCNT where the CPU has it) and from the
    /// portable one, which must agree.
    fn sweep_histogram(k: &mut EgoKernel) -> Vec<u64> {
        k.evaluate(Evaluator::BitsetSweep);
        let dispatched = k.hist.clone();
        k.hist.fill(0);
        k.bitset_sweep(tally_portable);
        assert_eq!(k.hist, dispatched, "portable and dispatched tallies");
        dispatched
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
    fn portable_tally_matches_dispatched_on_hubs() {
        for seed in 0..3 {
            let g = egobtw_gen::rmat(10, 4, egobtw_gen::rmat::RmatParams::skewed(), seed);
            let mut k = EgoKernel::new();
            let mut hubs = 0;
            for p in g.vertices().filter(|&p| g.hub_bitmap(p).is_some()) {
                k.build_rows(&g, p);
                let hist = sweep_histogram(&mut k);
                let d = g.degree(p);
                assert_eq!(
                    hist.iter().sum::<u64>(),
                    (d * (d - 1) / 2 - k.ego_edges()) as u64,
                    "seed {seed}, hub {p}: every non-adjacent pair tallied once"
                );
                hubs += 1;
            }
            assert!(hubs > 0, "seed {seed}: no hubs");
        }
    }

    #[test]
    fn evaluators_cross_word_boundaries() {
        // Every specialised row width (1..=8 words) and the slice loop
        // past it, on both sides of each word boundary.
        let widths = [
            63usize, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513, 600,
        ];
        let mut k = EgoKernel::new();
        for d in widths {
            // The centre's score by the sweep (portable and dispatched),
            // by the automatic choice and, where its cubic cost stays
            // small, by the wedge count; all must equal `want` in bits.
            let mut check = |g: &CsrGraph, want: f64, wedge: bool, what: &str| {
                k.build_rows(g, 0);
                sweep_histogram(&mut k);
                let sweep = k.evaluate(Evaluator::BitsetSweep);
                assert_eq!(sweep.to_bits(), want.to_bits(), "{what} d={d}: sweep");
                if wedge {
                    let by_wedge = k.evaluate(Evaluator::WedgeCount);
                    assert_eq!(by_wedge.to_bits(), want.to_bits(), "{what} d={d}: wedge");
                }
                let auto = k.score(g, 0);
                assert_eq!(auto.to_bits(), want.to_bits(), "{what} d={d}: auto");
            };
            // A star's leaves are pairwise apart with no connector.
            check(
                &classic::star(d + 1),
                (d * (d - 1) / 2) as f64,
                true,
                "star",
            );
            // A complete ego has no non-adjacent pair: an empty sum.
            let complete = classic::complete(d + 1);
            check(&complete, -0.0, d < 256, "complete");
            // One edge removed leaves one pair with d − 2 connectors: the
            // histogram's last slot.
            let dropped: Vec<_> = complete.edges().filter(|&e| e != (1, 2)).collect();
            let g = CsrGraph::from_edges(d + 1, &dropped);
            check(&g, 1.0 / (d - 1) as f64, d < 256, "near-complete");
        }
        check_evaluators(&classic::star(66));
    }

    #[test]
    fn evaluators_run_on_dyn_graph() {
        let g = gnp(30, 0.25, 7);
        check_evaluators(&DynGraph::from_csr(&g));
        check_evaluators(&DynGraph::from_csr(&toy::paper_graph()));
    }

    #[test]
    fn cost_model_picks_each_evaluator() {
        let picks = |g: &CsrGraph, p: VertexId| {
            let mut k = EgoKernel::new();
            k.build_rows(g, p);
            k.choice()
        };
        // A star's leaves share nothing: no wedges, so the count wins.
        assert_eq!(picks(&classic::star(40), 0), Evaluator::WedgeCount);
        // So do a preferential-attachment hub's neighbours, mostly.
        let ba = egobtw_gen::barabasi_albert(20_000, 5, 1);
        let top = ba.vertices().max_by_key(|&v| ba.degree(v)).unwrap();
        assert_eq!(picks(&ba, top), Evaluator::WedgeCount, "BA hub");
        // A complete ego has no non-adjacent pair: the sweep costs only
        // its set-up, the wedge count a cubic.
        assert_eq!(picks(&classic::complete(40), 0), Evaluator::BitsetSweep);
        // The `static-skewed` benchmark graph's hubs of degree near 150
        // share enough neighbours that the sweep is the faster one there.
        let skewed = egobtw_gen::rmat(11, 3, egobtw_gen::rmat::RmatParams::skewed(), 0xEB02);
        let mid_hubs: Vec<VertexId> = skewed
            .vertices()
            .filter(|&v| (140..=170).contains(&skewed.degree(v)))
            .collect();
        assert!(mid_hubs.len() >= 5, "{} hubs near d = 150", mid_hubs.len());
        for p in mid_hubs {
            assert_eq!(picks(&skewed, p), Evaluator::BitsetSweep, "hub {p}");
        }
    }

    /// Completing vertices in `visit` order (OptBSearch style) yields the
    /// oracle's values.
    fn check_completion(g: &CsrGraph, visit: impl Iterator<Item = VertexId>) {
        let mut done = EgoCompletion::new(g.n());
        let mut kernel = EgoKernel::new();
        for u in visit {
            let cb = done.complete(&mut kernel, g, u);
            let reference = ego_betweenness_reference(g, u);
            assert_eq!(cb.to_bits(), reference.to_bits(), "vertex {u}");
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
            let reference = ego_betweenness_reference(&g, u);
            assert_eq!(cb.to_bits(), reference.to_bits(), "v{u}");
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
