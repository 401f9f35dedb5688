//! Immutable compressed-sparse-row graph with hybrid hub bitmaps.
//!
//! [`CsrGraph`] is the workhorse static representation: two flat arrays
//! (offsets + concatenated sorted adjacency lists). Every algorithm crate
//! reads neighborhoods as `&[u32]` slices, which keeps hot loops free of
//! pointer chasing and lets intersections run on sorted slices.
//!
//! On top of the CSR arrays, high-degree **hubs** additionally carry a
//! packed bitmap row over the full vertex universe (bit `v` of word
//! `v / 64`). On power-law graphs the hub rows are rescanned once per
//! incident edge by the common-neighbor queries every engine bottoms out
//! in; a bitmap row turns each such rescan from `O(d_hub)` merge work into
//! one bit-probe per element of the *short* side. The degree threshold is
//! auto-chosen at build under a memory budget (see [`HybridConfig`]), and
//! [`CsrGraph::common_neighbors_into`] dispatches adaptively between
//! merge, gallop, slice×bitmap, and bitmap×bitmap kernels.

use crate::intersect::{
    bitmap_bitmap_intersect_into, bitmap_bitmap_intersection_count, intersect_into,
    intersection_count, slice_bitmap_intersect_into, slice_bitmap_intersection_count,
};
use crate::pair::pack_pair;
use crate::VertexId;
use std::sync::Arc;

/// How [`CsrGraph`] chooses which vertices get packed bitmap rows.
///
/// A bitmap row costs `⌈n/64⌉` words, so rows are reserved for vertices
/// whose adjacency is rescanned often and at length — the hubs. The
/// builder picks the smallest degree threshold `t ≥ min_hub_degree` such
/// that giving a row to *every* vertex of degree `≥ t` fits the memory
/// budget; with the defaults the threshold lands near `n/64` on skewed
/// graphs (budget ≈ the CSR arrays themselves) while small or regular
/// graphs simply get no rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HybridConfig {
    /// Master switch; `false` builds a plain CSR (the pre-hybrid layout).
    pub enabled: bool,
    /// Floor on the auto-chosen degree threshold. A row only pays for
    /// itself once `d² ≫ n/64` (build cost `n/64` words amortized over
    /// `d` rescans saving `O(d)` each), so very low floors waste memory
    /// on graphs without real hubs.
    pub min_hub_degree: usize,
    /// Memory budget: total bitmap words may not exceed
    /// `budget_words_per_edge · m` (+ a small constant allowance so tiny
    /// graphs with one genuine hub still get a row).
    pub budget_words_per_edge: usize,
}

impl HybridConfig {
    /// Tuned defaults: threshold floor 32, budget 4 words (32 bytes) of
    /// bitmap per edge — at most ~4× the adjacency array itself.
    pub const fn new() -> Self {
        HybridConfig {
            enabled: true,
            min_hub_degree: 32,
            budget_words_per_edge: 4,
        }
    }

    /// No bitmap rows at all: the exact pre-hybrid representation, used
    /// by the perf harness to time the recorded baseline.
    pub const fn disabled() -> Self {
        HybridConfig {
            enabled: false,
            min_hub_degree: usize::MAX,
            budget_words_per_edge: 0,
        }
    }

    /// Bitmap rows for (nearly) every vertex: threshold floor 1 with a
    /// generous budget. On conformance-scale graphs this forces every
    /// intersection through the bitmap kernels, giving the differential
    /// harness full coverage of the hybrid paths; on large graphs the
    /// budget still caps memory, degrading gracefully toward the default
    /// hub set. Not meant for production-size inputs.
    pub const fn dense() -> Self {
        HybridConfig {
            enabled: true,
            min_hub_degree: 1,
            budget_words_per_edge: 64,
        }
    }
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig::new()
    }
}

/// Packed bitmap rows for the hub vertices (see [`HybridConfig`]).
///
/// Each row is its own shared allocation, so the next epoch of a graph
/// under edge updates ([`CsrGraph::with_rows`]) copies the rows of the
/// hubs it touches and shares every other row with its parent.
#[derive(Clone, Debug, PartialEq, Eq)]
struct HubBitmaps {
    /// The policy the rows were chosen under, kept so a patched graph
    /// ([`CsrGraph::with_rows`]) re-decides under the same policy.
    cfg: HybridConfig,
    /// Degree threshold actually chosen; `usize::MAX` when no rows exist.
    threshold: usize,
    /// `⌈n/64⌉`, the length of each row.
    words_per_row: usize,
    /// Row index per vertex (`u32::MAX` = no row); empty when no rows.
    /// Shared between a graph and the graphs patched from it while the
    /// hub set holds.
    row_of: Arc<[u32]>,
    /// The rows, indexed by `row_of`. A patch copies this pointer array
    /// and replaces the touched hubs' rows; untouched rows stay shared.
    rows: Arc<[Arc<[u64]>]>,
}

/// Total bitmap words the policy allows on a graph with `n` vertices and
/// `m` edges.
fn budget_words(n: usize, m: usize, cfg: &HybridConfig) -> usize {
    // Small constant allowance so a tiny graph with one genuine hub
    // (e.g. a star) still gets its row under a per-edge budget.
    m.saturating_mul(cfg.budget_words_per_edge)
        .saturating_add(8 * n.div_ceil(64))
}

/// The smallest affordable hub degree threshold `≥ cfg.min_hub_degree`
/// for the degrees `offsets` describes, or `usize::MAX` when no vertex
/// gets a row. The single threshold rule of [`HubBitmaps::build`] and
/// [`HubBitmaps::patched`].
fn hub_threshold_for(offsets: &[usize], cfg: &HybridConfig) -> usize {
    let n = offsets.len() - 1;
    let m = offsets[n] / 2;
    if !cfg.enabled || n == 0 {
        return usize::MAX;
    }
    let words_per_row = n.div_ceil(64);
    let budget_words = budget_words(n, m, cfg);
    let degree = |u: usize| offsets[u + 1] - offsets[u];
    let d_max = (0..n).map(degree).max().unwrap_or(0);
    let floor = cfg.min_hub_degree.max(1);
    if d_max < floor {
        return usize::MAX;
    }
    // count_ge[d] = #vertices with degree ≥ d; smallest affordable
    // threshold ≥ floor wins.
    let mut count_ge = vec![0usize; d_max + 2];
    for u in 0..n {
        count_ge[degree(u)] += 1;
    }
    for d in (0..=d_max).rev() {
        count_ge[d] += count_ge[d + 1];
    }
    let mut threshold = floor;
    while threshold <= d_max && count_ge[threshold].saturating_mul(words_per_row) > budget_words {
        threshold += 1;
    }
    if threshold > d_max {
        usize::MAX
    } else {
        threshold
    }
}

/// A fresh `words_per_row`-word row with exactly the bits of `row_adj`.
fn packed_row(row_adj: &[VertexId], words_per_row: usize) -> Arc<[u64]> {
    // Built in place: collecting a sized iterator allocates the `Arc`
    // once, with no copy out of a `Vec`.
    let mut row: Arc<[u64]> = std::iter::repeat_n(0, words_per_row).collect();
    let words = Arc::get_mut(&mut row).expect("unshared");
    for &v in row_adj {
        words[v as usize >> 6] |= 1u64 << (v & 63);
    }
    row
}

impl HubBitmaps {
    fn none(cfg: HybridConfig) -> Self {
        HubBitmaps {
            cfg,
            threshold: usize::MAX,
            words_per_row: 0,
            row_of: Arc::new([]),
            rows: Arc::new([]),
        }
    }

    /// Picks the threshold and packs the rows for an already-built CSR.
    fn build(offsets: &[usize], adj: &[VertexId], cfg: &HybridConfig) -> Self {
        let threshold = hub_threshold_for(offsets, cfg);
        HubBitmaps::none(*cfg).repacked(offsets, adj, &[], threshold)
    }

    /// The threshold [`hub_threshold_for`] picks for a CSR that differs
    /// from this one's only in the adjacency of the `rows` vertices. While
    /// the threshold sits at the policy floor, the new hub count follows
    /// from the touched vertices alone; if those hubs still fit the budget,
    /// the floor stays and the two `O(n)` degree scans are skipped.
    fn patched_threshold(&self, offsets: &[usize], rows: &[(VertexId, &[VertexId])]) -> usize {
        let floor = self.cfg.min_hub_degree.max(1);
        if self.threshold != floor {
            return hub_threshold_for(offsets, &self.cfg);
        }
        let hubs = rows.iter().fold(self.row_count(), |hubs, &(u, row)| {
            match (self.row(u).is_some(), row.len() >= floor) {
                (false, true) => hubs + 1,
                (true, false) => hubs - 1,
                _ => hubs,
            }
        });
        let n = offsets.len() - 1;
        let m = offsets[n] / 2;
        if hubs > 0 && hubs.saturating_mul(self.words_per_row) <= budget_words(n, m, &self.cfg) {
            floor
        } else {
            hub_threshold_for(offsets, &self.cfg)
        }
    }

    /// The rows for a CSR that differs from this one's only in the
    /// adjacency of the `rows` vertices (see [`CsrGraph::with_rows`]).
    /// When the threshold holds and no patched vertex crosses it, the hub
    /// set is unchanged: the row pointers are copied, each patched hub
    /// gets a fresh row, and every other row is shared with `self`.
    /// Otherwise the hub set is re-decided in one pass ([`Self::repacked`]).
    fn patched(
        &self,
        offsets: &[usize],
        adj: &[VertexId],
        rows: &[(VertexId, &[VertexId])],
    ) -> Self {
        let threshold = self.patched_threshold(offsets, rows);
        let same_hubs = threshold == self.threshold
            && rows
                .iter()
                .all(|&(u, row)| (row.len() >= threshold) == self.row(u).is_some());
        if !same_hubs {
            return self.repacked(offsets, adj, rows, threshold);
        }
        let mut hubs = self.clone();
        if rows.iter().any(|&(u, _)| self.slot(u).is_some()) {
            let mut hub_rows: Arc<[Arc<[u64]>]> = self.rows.iter().cloned().collect();
            let slots = Arc::get_mut(&mut hub_rows).expect("unshared");
            for &(u, row) in rows {
                if let Some(slot) = self.slot(u) {
                    slots[slot] = packed_row(row, self.words_per_row);
                }
            }
            hubs.rows = hub_rows;
        }
        hubs
    }

    /// The hub set at `threshold` for a CSR that differs from this one's
    /// only in the adjacency of the `rows` vertices, one row per hub in
    /// ascending vertex order: `row_of` is rebuilt in one pass over the
    /// degrees, a hub outside `rows` that already had a row shares it
    /// with `self`, every other hub gets a fresh row, and the rows of
    /// vertices below `threshold` are dropped. On [`Self::none`] with no
    /// `rows` this packs every hub afresh, which is [`Self::build`].
    fn repacked(
        &self,
        offsets: &[usize],
        adj: &[VertexId],
        rows: &[(VertexId, &[VertexId])],
        threshold: usize,
    ) -> Self {
        if threshold == usize::MAX {
            return HubBitmaps::none(self.cfg);
        }
        let n = offsets.len() - 1;
        let words_per_row = n.div_ceil(64);
        let mut row_of: Arc<[u32]> = std::iter::repeat_n(u32::MAX, n).collect();
        let mut hub_rows = Vec::new();
        {
            let row_of = Arc::get_mut(&mut row_of).expect("unshared");
            let untouched = |u| rows.binary_search_by_key(&u, |&(v, _)| v).is_err();
            for u in 0..n {
                if offsets[u + 1] - offsets[u] >= threshold {
                    row_of[u] = hub_rows.len() as u32;
                    hub_rows.push(match self.slot(u as VertexId) {
                        Some(slot) if untouched(u as VertexId) => self.rows[slot].clone(),
                        _ => packed_row(&adj[offsets[u]..offsets[u + 1]], words_per_row),
                    });
                }
            }
        }
        HubBitmaps {
            cfg: self.cfg,
            threshold,
            words_per_row,
            row_of,
            rows: hub_rows.into(),
        }
    }

    /// The index of `u`'s row in `rows`, if it is a hub.
    #[inline]
    fn slot(&self, u: VertexId) -> Option<usize> {
        let slot = *self.row_of.get(u as usize)?;
        (slot != u32::MAX).then_some(slot as usize)
    }

    /// The bitmap row of `u`, if it is a hub.
    #[inline]
    fn row(&self, u: VertexId) -> Option<&[u64]> {
        self.slot(u).map(|slot| &*self.rows[slot])
    }

    fn row_count(&self) -> usize {
        self.rows.len()
    }
}

/// The kernel chosen for one common-neighbor query, borrowing the inputs
/// it needs (see [`CsrGraph::pick_kernel`]).
enum CnKernel<'a> {
    /// Word-wise `AND` of two hub rows.
    BitmapBitmap(&'a [u64], &'a [u64]),
    /// Probe the short slice into the long side's hub row.
    SliceBitmap(&'a [VertexId], &'a [u64]),
    /// Merge/gallop over two sorted slices (short side first).
    Slices(&'a [VertexId], &'a [VertexId]),
}

/// An undirected, unweighted simple graph in compressed-sparse-row form,
/// with packed bitmap rows on high-degree hubs (see the module docs).
///
/// Invariants (established by all constructors, relied upon everywhere):
/// * vertices are `0..n`;
/// * adjacency slices are strictly increasing (sorted, no duplicates);
/// * no self-loops;
/// * symmetry: `v ∈ N(u) ⟺ u ∈ N(v)`;
/// * every hub bitmap row holds exactly the bits of its adjacency slice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Box<[usize]>,
    adj: Box<[VertexId]>,
    hubs: HubBitmaps,
}

impl CsrGraph {
    /// Builds a graph with `n` vertices from an undirected edge list,
    /// with hub bitmaps auto-chosen under [`HybridConfig::new`].
    ///
    /// Self-loops are dropped; duplicate edges (in either orientation) are
    /// collapsed. Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        Self::from_edges_with(n, edges, &HybridConfig::new())
    }

    /// [`CsrGraph::from_edges`] with an explicit hub-bitmap policy.
    pub fn from_edges_with(n: usize, edges: &[(VertexId, VertexId)], cfg: &HybridConfig) -> Self {
        let mut keys: Vec<u64> = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range for n={n}"
            );
            if u != v {
                keys.push(pack_pair(u, v));
            }
        }
        keys.sort_unstable();
        keys.dedup();

        let mut degrees = vec![0usize; n];
        for &k in &keys {
            let (u, v) = crate::pair::unpack_pair(k);
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        let mut adj = vec![0 as VertexId; acc];
        for &k in &keys {
            let (u, v) = crate::pair::unpack_pair(k);
            adj[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Keys were sorted by (min, max); per-vertex lists need their own
        // sort because a vertex appears as both min and max endpoint.
        for u in 0..n {
            adj[offsets[u]..offsets[u + 1]].sort_unstable();
        }
        let hubs = HubBitmaps::build(&offsets, &adj, cfg);
        let g = CsrGraph {
            offsets: offsets.into_boxed_slice(),
            adj: adj.into_boxed_slice(),
            hubs,
        };
        debug_assert_eq!(g.validate(), Ok(()));
        g
    }

    /// Builds a graph from a *replayable* stream of edges without ever
    /// materializing an edge list: pass one counts degrees, pass two
    /// scatters endpoints straight into the CSR adjacency array. Peak
    /// transient memory is the CSR itself plus a per-vertex cursor — no
    /// `Vec<(u, v)>`, no packed-key sort buffer (`from_edges` allocates
    /// both). This is what lets large generator runs stream.
    ///
    /// `make_stream` is called twice and must yield the *same* sequence
    /// both times (seeded generators replay their RNG). Each undirected
    /// edge must appear exactly once, with no self-loops; violations
    /// panic — callers own dedup, which they typically already do.
    pub fn from_edge_stream<I, F>(n: usize, make_stream: F) -> Self
    where
        I: Iterator<Item = (VertexId, VertexId)>,
        F: Fn() -> I,
    {
        Self::from_edge_stream_with(n, make_stream, &HybridConfig::new())
    }

    /// [`CsrGraph::from_edge_stream`] with an explicit hub-bitmap policy.
    pub fn from_edge_stream_with<I, F>(n: usize, make_stream: F, cfg: &HybridConfig) -> Self
    where
        I: Iterator<Item = (VertexId, VertexId)>,
        F: Fn() -> I,
    {
        let mut degrees = vec![0usize; n];
        let mut first_pass_edges = 0usize;
        for (u, v) in make_stream() {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range for n={n}"
            );
            assert!(u != v, "self-loop ({u},{u}) in edge stream");
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
            first_pass_edges += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        drop(degrees);

        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        let mut adj = vec![0 as VertexId; acc];
        let mut second_pass_edges = 0usize;
        for (u, v) in make_stream() {
            adj[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
            second_pass_edges += 1;
        }
        assert_eq!(
            first_pass_edges, second_pass_edges,
            "edge stream did not replay identically"
        );
        drop(cursor);
        for u in 0..n {
            let list = &mut adj[offsets[u]..offsets[u + 1]];
            list.sort_unstable();
            assert!(
                list.windows(2).all(|w| w[0] != w[1]),
                "duplicate edge incident to vertex {u} in edge stream"
            );
        }
        let hubs = HubBitmaps::build(&offsets, &adj, cfg);
        let g = CsrGraph {
            offsets: offsets.into_boxed_slice(),
            adj: adj.into_boxed_slice(),
            hubs,
        };
        debug_assert_eq!(g.validate(), Ok(()));
        g
    }

    /// Rebuilds only the hub-bitmap layer under a different policy; the
    /// CSR arrays are shared-cloned, so this skips the edge re-sort.
    pub fn with_hybrid_config(&self, cfg: &HybridConfig) -> Self {
        let g = CsrGraph {
            offsets: self.offsets.clone(),
            adj: self.adj.clone(),
            hubs: HubBitmaps::build(&self.offsets, &self.adj, cfg),
        };
        debug_assert_eq!(g.validate(), Ok(()));
        g
    }

    /// This graph with the adjacency of some vertices replaced: the next
    /// epoch of a graph under edge updates, at the cost of copying the
    /// arrays plus the new rows instead of re-sorting all `m` edges.
    ///
    /// `rows` lists `(u, new N(u))` sorted by strictly increasing `u`,
    /// each list strictly increasing; the caller keeps symmetry (both
    /// endpoints of every flipped edge appear). Untouched rows are copied
    /// as contiguous spans with shifted offsets — no edge sort, no
    /// hashing. Hub rows are shared with this graph one by one: each
    /// touched hub gets a fresh row, and the cost of the hub layer is
    /// `O(hubs)` pointer copies plus `O(n/64)` words per touched hub.
    /// While the threshold sits at the policy floor it is re-checked from
    /// the touched degrees alone. If the new degrees move the threshold or
    /// a touched vertex crosses it, the hub set is re-decided under the
    /// policy this graph was built with, in one `O(n)` pass that still
    /// shares every untouched hub's row. Panics if `rows` is unsorted or
    /// out of range. The result equals
    /// [`CsrGraph::from_edges_with`] on the updated edge list under that
    /// policy.
    pub fn with_rows(&self, rows: &[(VertexId, &[VertexId])]) -> Self {
        let n = self.n();
        let new_len = rows.iter().fold(self.adj.len(), |len, &(u, row)| {
            len - self.degree(u) + row.len()
        });
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(new_len);
        // Copies the untouched rows `from..to` as one span.
        let copy_span = |offsets: &mut Vec<usize>, adj: &mut Vec<VertexId>, from, to| {
            let start = self.offsets[from];
            let shift = adj.len().wrapping_sub(start);
            offsets.extend(
                self.offsets[from..to]
                    .iter()
                    .map(|&o| o.wrapping_add(shift)),
            );
            adj.extend_from_slice(&self.adj[start..self.offsets[to]]);
        };
        let mut next = 0usize;
        for &(u, row) in rows {
            let u = u as usize;
            assert!(
                u >= next && u < n,
                "with_rows: row {u} out of order or out of range (n={n})"
            );
            copy_span(&mut offsets, &mut adj, next, u);
            offsets.push(adj.len());
            adj.extend_from_slice(row);
            next = u + 1;
        }
        copy_span(&mut offsets, &mut adj, next, n);
        offsets.push(adj.len());
        let hubs = self.hubs.patched(&offsets, &adj, rows);
        let g = CsrGraph {
            offsets: offsets.into_boxed_slice(),
            adj: adj.into_boxed_slice(),
            hubs,
        };
        debug_assert_eq!(g.validate(), Ok(()));
        g
    }

    /// The auto-chosen hub degree threshold, if any bitmap rows exist.
    pub fn hub_threshold(&self) -> Option<usize> {
        (self.hubs.threshold != usize::MAX).then_some(self.hubs.threshold)
    }

    /// Number of vertices carrying a bitmap row.
    pub fn hub_count(&self) -> usize {
        self.hubs.row_count()
    }

    /// The packed bitmap row of `u` (bit `v` of word `v / 64`), if `u` is
    /// a hub. Exposed for kernels and tests; most callers want
    /// [`CsrGraph::common_neighbors_into`].
    #[inline]
    pub fn hub_bitmap(&self, u: VertexId) -> Option<&[u64]> {
        self.hubs.row(u)
    }

    /// Appends the sorted common neighborhood `N(u) ∩ N(v)` to `out`,
    /// dispatching adaptively over the hybrid representation (merge,
    /// gallop, slice×bitmap or bitmap×bitmap). This is the common-neighbor
    /// entry point every engine routes through.
    #[inline]
    pub fn common_neighbors_into(&self, u: VertexId, v: VertexId, out: &mut Vec<VertexId>) {
        match self.pick_kernel(u, v) {
            CnKernel::BitmapBitmap(ra, rb) => bitmap_bitmap_intersect_into(ra, rb, out),
            CnKernel::SliceBitmap(slice, row) => slice_bitmap_intersect_into(slice, row, out),
            CnKernel::Slices(na, nb) => intersect_into(na, nb, out),
        }
    }

    /// Picks the kernel for one common-neighbor query, with `a` the
    /// lower-degree endpoint:
    /// * `b` not a hub → merge/gallop over the two sorted slices;
    /// * exactly one hub (necessarily the longer side) → probe the short
    ///   slice into the hub's bitmap;
    /// * both hubs and the short slice long enough that word-wise `AND`
    ///   wins → bitmap×bitmap.
    ///
    /// Single source of truth for the dispatch heuristic, so the
    /// materializing and counting entry points can never drift apart.
    #[inline]
    fn pick_kernel(&self, u: VertexId, v: VertexId) -> CnKernel<'_> {
        // Bitmap×bitmap is chosen over probing the short slice into the
        // long row when `short_len · BITMAP_WORD_RATIO ≥ words_per_row`,
        // i.e. one 64-bit word op is costed at a quarter of a slice probe.
        const BITMAP_WORD_RATIO: usize = 4;
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let na = self.neighbors(a);
        match self.hubs.row(b) {
            Some(row_b) => match self.hubs.row(a) {
                Some(row_a)
                    if na.len().saturating_mul(BITMAP_WORD_RATIO) >= self.hubs.words_per_row =>
                {
                    CnKernel::BitmapBitmap(row_a, row_b)
                }
                _ => CnKernel::SliceBitmap(na, row_b),
            },
            None => CnKernel::Slices(na, self.neighbors(b)),
        }
    }

    /// `|N(u) ∩ N(v)|` without materializing, same dispatch as
    /// [`CsrGraph::common_neighbors_into`].
    #[inline]
    pub fn common_neighbor_count(&self, u: VertexId, v: VertexId) -> usize {
        match self.pick_kernel(u, v) {
            CnKernel::BitmapBitmap(ra, rb) => bitmap_bitmap_intersection_count(ra, rb),
            CnKernel::SliceBitmap(slice, row) => slice_bitmap_intersection_count(slice, row),
            CnKernel::Slices(na, nb) => intersection_count(na, nb),
        }
    }

    /// Exhaustively checks the structural invariants every algorithm
    /// relies on: monotone offsets covering the adjacency array, strictly
    /// sorted self-loop-free neighbor slices with in-range endpoints,
    /// symmetry (`v ∈ N(u) ⟺ u ∈ N(v)`), and an even total degree.
    ///
    /// Returns a description of the first violation. Debug builds run this
    /// after every construction; the conformance harness runs it on every
    /// generated and replayed graph in release builds too. Cost
    /// `O(m log d_max)`.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n();
        if *self.offsets.first().expect("offsets non-empty") != 0 {
            return Err("offsets[0] != 0".into());
        }
        for u in 0..n {
            if self.offsets[u] > self.offsets[u + 1] {
                return Err(format!("offsets not monotone at vertex {u}"));
            }
        }
        if self.offsets[n] != self.adj.len() {
            return Err(format!(
                "offsets end {} != adjacency length {}",
                self.offsets[n],
                self.adj.len()
            ));
        }
        if !self.adj.len().is_multiple_of(2) {
            return Err(format!("odd total degree {}", self.adj.len()));
        }
        for u in 0..n as VertexId {
            let ns = self.neighbors(u);
            for w in ns.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!(
                        "adjacency of {u} not strictly sorted: {} then {}",
                        w[0], w[1]
                    ));
                }
            }
            for &v in ns {
                if v as usize >= n {
                    return Err(format!("neighbor {v} of {u} out of range (n={n})"));
                }
                if v == u {
                    return Err(format!("self-loop at {u}"));
                }
                if self.neighbors(v).binary_search(&u).is_err() {
                    return Err(format!("asymmetric edge: {v} ∈ N({u}) but {u} ∉ N({v})"));
                }
            }
        }
        self.validate_hubs()
    }

    /// Hub-bitmap layer invariants: rows exist exactly for vertices at or
    /// above the threshold, and each row's set bits equal its adjacency
    /// slice. Part of [`CsrGraph::validate`].
    fn validate_hubs(&self) -> Result<(), String> {
        let n = self.n();
        let h = &self.hubs;
        if h.row_of.is_empty() {
            if !h.rows.is_empty() {
                return Err("hub rows without row index".into());
            }
            return Ok(());
        }
        if h.row_of.len() != n {
            return Err(format!("hub row index length {} != n {n}", h.row_of.len()));
        }
        if h.words_per_row != n.div_ceil(64) {
            return Err(format!(
                "words_per_row {} != ceil(n/64) {}",
                h.words_per_row,
                n.div_ceil(64)
            ));
        }
        if let Some(i) = h.rows.iter().position(|r| r.len() != h.words_per_row) {
            return Err(format!("hub row {i} is not {} words", h.words_per_row));
        }
        for u in 0..n as VertexId {
            let row = h.row(u);
            if row.is_some() != (self.degree(u) >= h.threshold) {
                return Err(format!(
                    "vertex {u} (degree {}) {} a bitmap row at threshold {}",
                    self.degree(u),
                    if row.is_some() { "has" } else { "lacks" },
                    h.threshold
                ));
            }
            if let Some(row) = row {
                let mut decoded = Vec::with_capacity(self.degree(u));
                for (i, &w) in row.iter().enumerate() {
                    let mut w = w;
                    while w != 0 {
                        decoded.push((i as u32) << 6 | w.trailing_zeros());
                        w &= w - 1;
                    }
                }
                if decoded != self.neighbors(u) {
                    return Err(format!("hub row of {u} disagrees with adjacency slice"));
                }
            }
        }
        Ok(())
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// Sorted neighbors of `u`.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[VertexId] {
        &self.adj[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Edge membership: one bit-probe when either endpoint is a hub,
    /// otherwise binary search (`O(log d)`) on the smaller endpoint. The
    /// `S`-map pass (`build_store` in `egobtw-core`), which tests every
    /// diamond of the graph, builds an [`crate::EdgeSet`] for guaranteed
    /// O(1) membership instead.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        if let Some(row) = self.hubs.row(u) {
            return row[v as usize >> 6] & (1u64 << (v & 63)) != 0;
        }
        if let Some(row) = self.hubs.row(v) {
            return row[u as usize >> 6] & (1u64 << (u & 63)) != 0;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all vertices.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.n() as VertexId
    }

    /// Iterator over undirected edges as `(min, max)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree (`d_max` in the paper's tables). Zero for empty graphs.
    pub fn max_degree(&self) -> usize {
        (0..self.n() as VertexId)
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Sum over vertices of `d(u)²`; the worst-case size of the S-map store
    /// (Theorem 2's space term) — useful for sizing estimates in harnesses.
    pub fn degree_square_sum(&self) -> u64 {
        (0..self.n() as VertexId)
            .map(|u| (self.degree(u) as u64).pow(2))
            .sum()
    }

    /// The static upper bound `ub(u) = d(u)(d(u)-1)/2` of Lemma 2.
    #[inline]
    pub fn degree_bound(&self, u: VertexId) -> f64 {
        let d = self.degree(u) as f64;
        d * (d - 1.0) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn basic_accessors() {
        let g = path4();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = path4();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = CsrGraph::from_edges(4, &[(2, 1), (3, 0), (1, 0)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2)]);
    }

    #[test]
    fn edge_stream_matches_from_edges() {
        let edges = [(2, 1), (3, 0), (1, 0), (0, 2)];
        let streamed = CsrGraph::from_edge_stream(4, || edges.iter().copied());
        let built = CsrGraph::from_edges(4, &edges);
        assert_eq!(
            streamed.edges().collect::<Vec<_>>(),
            built.edges().collect::<Vec<_>>()
        );
        assert_eq!(streamed.validate(), Ok(()));
        for u in 0..4 {
            assert_eq!(streamed.neighbors(u), built.neighbors(u));
        }
    }

    #[test]
    fn edge_stream_empty_and_isolated() {
        let g = CsrGraph::from_edge_stream(3, std::iter::empty);
        assert_eq!((g.n(), g.m()), (3, 0));
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn edge_stream_rejects_duplicates() {
        let edges = [(0, 1), (1, 0)];
        let _ = CsrGraph::from_edge_stream(2, || edges.iter().copied());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn edge_stream_rejects_self_loops() {
        let edges = [(1, 1)];
        let _ = CsrGraph::from_edge_stream(2, || edges.iter().copied());
    }

    #[test]
    fn adjacency_sorted_and_symmetric() {
        let g = CsrGraph::from_edges(6, &[(5, 0), (4, 0), (3, 0), (0, 1), (2, 0), (1, 2), (3, 4)]);
        for u in g.vertices() {
            let ns = g.neighbors(u);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
            for &v in ns {
                assert!(g.neighbors(v).contains(&u), "symmetry");
            }
        }
    }

    #[test]
    fn degree_square_sum_and_bound() {
        let g = path4();
        assert_eq!(g.degree_square_sum(), 1 + 4 + 4 + 1);
        assert_eq!(g.degree_bound(1), 1.0);
        assert_eq!(g.degree_bound(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn validate_accepts_constructed_graphs() {
        for g in [
            CsrGraph::from_edges(1, &[]),
            path4(),
            CsrGraph::from_edges(6, &[(5, 0), (4, 0), (3, 0), (0, 1), (2, 0), (1, 2), (3, 4)]),
        ] {
            assert_eq!(g.validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_corruption() {
        // Hand-build broken structures through the private fields.
        let asym = CsrGraph {
            offsets: vec![0usize, 1, 1].into_boxed_slice(),
            adj: vec![1 as VertexId].into_boxed_slice(),
            hubs: HubBitmaps::none(HybridConfig::new()),
        };
        assert!(asym.validate().unwrap_err().contains("odd total degree"));
        let unsorted = CsrGraph {
            offsets: vec![0usize, 2, 3, 4].into_boxed_slice(),
            adj: vec![2 as VertexId, 1, 0, 0].into_boxed_slice(),
            hubs: HubBitmaps::none(HybridConfig::new()),
        };
        assert!(unsorted
            .validate()
            .unwrap_err()
            .contains("not strictly sorted"));
        let self_loop = CsrGraph {
            offsets: vec![0usize, 2, 4].into_boxed_slice(),
            adj: vec![0 as VertexId, 1, 0, 1].into_boxed_slice(),
            hubs: HubBitmaps::none(HybridConfig::new()),
        };
        assert!(self_loop.validate().unwrap_err().contains("self-loop"));
    }

    #[test]
    fn validate_rejects_hub_corruption() {
        let mut g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)])
            .with_hybrid_config(&HybridConfig::dense());
        assert!(g.hub_count() > 0);
        assert_eq!(g.validate(), Ok(()));
        // Flip a bit in vertex 0's row: adjacency and bitmap now disagree.
        let rows = Arc::make_mut(&mut g.hubs.rows);
        Arc::make_mut(&mut rows[0])[0] ^= 1u64 << 3;
        assert!(g.validate().unwrap_err().contains("disagrees"));
    }

    #[test]
    fn hub_selection_respects_threshold_and_config() {
        // A 70-leaf star: the hub clears the default floor of 32, leaves
        // stay slice-only.
        let edges: Vec<(VertexId, VertexId)> = (1..=70).map(|v| (0, v)).collect();
        let g = CsrGraph::from_edges(71, &edges);
        assert_eq!(g.hub_count(), 1);
        assert!(g.hub_bitmap(0).is_some());
        assert!(g.hub_bitmap(1).is_none());
        let t = g.hub_threshold().expect("star hub gets a row");
        assert!(t <= 70 && t > 1);
        // Disabled config: plain CSR.
        let plain = g.with_hybrid_config(&HybridConfig::disabled());
        assert_eq!(plain.hub_count(), 0);
        assert_eq!(plain.hub_threshold(), None);
        assert_eq!(plain.validate(), Ok(()));
        // Dense config on a tiny graph: every non-isolated vertex rows up.
        let dense = g.with_hybrid_config(&HybridConfig::dense());
        assert_eq!(dense.hub_count(), 71);
    }

    #[test]
    fn common_neighbors_dispatch_agrees_across_configs() {
        // Karate club has max degree 17 < 32: default has no hubs; dense
        // has all. Every pair must agree with the merge reference.
        let base = classic_karate();
        let dense = base.with_hybrid_config(&HybridConfig::dense());
        assert_eq!(base.hub_count(), 0);
        assert_eq!(dense.hub_count(), 34);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for u in base.vertices() {
            for v in base.vertices() {
                a.clear();
                b.clear();
                base.common_neighbors_into(u, v, &mut a);
                dense.common_neighbors_into(u, v, &mut b);
                assert_eq!(a, b, "pair ({u},{v})");
                assert_eq!(dense.common_neighbor_count(u, v), a.len());
                assert_eq!(base.has_edge(u, v), dense.has_edge(u, v));
            }
        }
    }

    /// Zachary's karate club, inlined to keep `egobtw-gen` out of this
    /// crate's dev-dependencies.
    fn classic_karate() -> CsrGraph {
        let edges: [(VertexId, VertexId); 78] = [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (0, 5),
            (0, 6),
            (0, 7),
            (0, 8),
            (0, 10),
            (0, 11),
            (0, 12),
            (0, 13),
            (0, 17),
            (0, 19),
            (0, 21),
            (0, 31),
            (1, 2),
            (1, 3),
            (1, 7),
            (1, 13),
            (1, 17),
            (1, 19),
            (1, 21),
            (1, 30),
            (2, 3),
            (2, 7),
            (2, 8),
            (2, 9),
            (2, 13),
            (2, 27),
            (2, 28),
            (2, 32),
            (3, 7),
            (3, 12),
            (3, 13),
            (4, 6),
            (4, 10),
            (5, 6),
            (5, 10),
            (5, 16),
            (6, 16),
            (8, 30),
            (8, 32),
            (8, 33),
            (9, 33),
            (13, 33),
            (14, 32),
            (14, 33),
            (15, 32),
            (15, 33),
            (18, 32),
            (18, 33),
            (19, 33),
            (20, 32),
            (20, 33),
            (22, 32),
            (22, 33),
            (23, 25),
            (23, 27),
            (23, 29),
            (23, 32),
            (23, 33),
            (24, 25),
            (24, 27),
            (24, 31),
            (25, 31),
            (26, 29),
            (26, 33),
            (27, 33),
            (28, 31),
            (28, 33),
            (29, 32),
            (29, 33),
            (30, 32),
            (30, 33),
            (31, 32),
            (31, 33),
            (32, 33),
        ];
        CsrGraph::from_edges(34, &edges)
    }
}
