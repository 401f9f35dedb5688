//! Intersection kernels: sorted slices and packed bitmaps.
//!
//! Common-neighbor queries `N(a) ∩ N(b)` dominate the full-computation and
//! dynamic paths. Four kernels are provided:
//!
//! * a linear **merge** (best when the slices have similar lengths);
//! * a **galloping**/binary variant (best when one slice is much shorter,
//!   as happens constantly on power-law graphs);
//! * **slice×bitmap**: one membership bit-test per element of the short
//!   slice, when the long side has a packed bitmap row (hub rows in
//!   [`crate::CsrGraph`]'s hybrid adjacency);
//! * **bitmap×bitmap**: word-wise `AND` (+ popcount for counting), when
//!   both sides have rows and the slices are long enough that scanning
//!   `n/64` words beats probing.
//!
//! [`intersect_into`] / [`intersection_count`] pick adaptively between the
//! slice kernels at [`GALLOP_RATIO`]; the bitmap-aware dispatch lives in
//! [`crate::CsrGraph::common_neighbors_into`], because only the graph
//! knows which vertices own bitmap rows. `repro ablate` times every kernel
//! and the merge/gallop crossover behind the ratio.

use crate::VertexId;

/// Length ratio above which galloping beats the linear merge
/// (`short · GALLOP_RATIO < long`). `repro ablate` prints merge, gallop
/// and adaptive at 64 × 256…8192, the crossover this ratio sits on.
pub const GALLOP_RATIO: usize = 32;

/// Appends `a ∩ b` to `out` (both inputs strictly ascending), picking
/// merge or gallop by [`GALLOP_RATIO`].
#[inline]
pub fn intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.len().saturating_mul(GALLOP_RATIO) < long.len() {
        gallop_intersect_into(short, long, out);
    } else {
        merge_intersect_into(a, b, out);
    }
}

/// `|a ∩ b|` without materializing the intersection, same dispatch as
/// [`intersect_into`].
#[inline]
pub fn intersection_count(a: &[VertexId], b: &[VertexId]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.len().saturating_mul(GALLOP_RATIO) < long.len() {
        gallop_intersection_count(short, long)
    } else {
        merge_intersection_count(a, b)
    }
}

/// Linear two-pointer merge intersection.
pub fn merge_intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Counting variant of [`merge_intersect_into`].
pub fn merge_intersection_count(a: &[VertexId], b: &[VertexId]) -> usize {
    let (mut i, mut j, mut c) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// Exponential (galloping) search for `x` in `hay[from..]`; returns the
/// index of the first element `>= x`.
#[inline]
fn gallop(hay: &[VertexId], from: usize, x: VertexId) -> usize {
    let mut step = 1;
    let mut lo = from;
    let mut hi = from;
    while hi < hay.len() && hay[hi] < x {
        lo = hi;
        hi = (hi + step).min(hay.len());
        step <<= 1;
    }
    lo + hay[lo..hi].partition_point(|&y| y < x)
}

/// Galloping intersection: for each element of the short slice, gallop
/// through the long slice. `O(s · log(l/s))`.
pub fn gallop_intersect_into(short: &[VertexId], long: &[VertexId], out: &mut Vec<VertexId>) {
    let mut from = 0;
    for &x in short {
        let at = gallop(long, from, x);
        if at < long.len() && long[at] == x {
            out.push(x);
            from = at + 1;
        } else {
            from = at;
        }
        if from >= long.len() {
            break;
        }
    }
}

/// Counting variant of [`gallop_intersect_into`].
pub fn gallop_intersection_count(short: &[VertexId], long: &[VertexId]) -> usize {
    let mut from = 0;
    let mut c = 0;
    for &x in short {
        let at = gallop(long, from, x);
        if at < long.len() && long[at] == x {
            c += 1;
            from = at + 1;
        } else {
            from = at;
        }
        if from >= long.len() {
            break;
        }
    }
    c
}

/// Appends the elements of `slice` whose bit is set in `words` (a packed
/// bitmap over vertex ids: bit `v` of word `v / 64`). Output order follows
/// `slice`, so an ascending slice yields an ascending intersection. Ids at
/// or beyond `64 · words.len()` are treated as absent.
pub fn slice_bitmap_intersect_into(slice: &[VertexId], words: &[u64], out: &mut Vec<VertexId>) {
    for &x in slice {
        let w = x as usize >> 6;
        if w < words.len() && words[w] & (1u64 << (x & 63)) != 0 {
            out.push(x);
        }
    }
}

/// Counting variant of [`slice_bitmap_intersect_into`].
pub fn slice_bitmap_intersection_count(slice: &[VertexId], words: &[u64]) -> usize {
    slice
        .iter()
        .filter(|&&x| {
            let w = x as usize >> 6;
            w < words.len() && words[w] & (1u64 << (x & 63)) != 0
        })
        .count()
}

/// Appends the set bits of the word-wise `AND` of two equal-universe
/// packed bitmaps, decoded as ascending vertex ids.
pub fn bitmap_bitmap_intersect_into(a: &[u64], b: &[u64], out: &mut Vec<VertexId>) {
    for (i, (&wa, &wb)) in a.iter().zip(b).enumerate() {
        let mut w = wa & wb;
        while w != 0 {
            out.push((i as u32) << 6 | w.trailing_zeros());
            w &= w - 1;
        }
    }
}

/// Counting variant of [`bitmap_bitmap_intersect_into`]: pure `AND` +
/// popcount, no decode.
pub fn bitmap_bitmap_intersection_count(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(&wa, &wb)| (wa & wb).count_ones() as usize)
        .sum()
}

/// Packs a strictly ascending id slice into a bitmap with `words` words
/// (ids `≥ 64 · words` are ignored). Helper for tests and ablations; the
/// hybrid graph builds its hub rows directly.
pub fn pack_bitmap(slice: &[VertexId], words: usize) -> Vec<u64> {
    let mut out = vec![0u64; words];
    for &x in slice {
        let w = x as usize >> 6;
        if w < words {
            out[w] |= 1u64 << (x & 63);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn naive(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().filter(|x| b.contains(x)).copied().collect()
    }

    #[test]
    fn basic_cases() {
        let mut out = Vec::new();
        intersect_into(&[1, 3, 5, 7], &[2, 3, 4, 7, 9], &mut out);
        assert_eq!(out, vec![3, 7]);
        assert_eq!(intersection_count(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]), 2);
        assert_eq!(intersection_count(&[], &[1, 2]), 0);
        assert_eq!(intersection_count(&[1, 2], &[]), 0);
    }

    #[test]
    fn gallop_skewed() {
        let long: Vec<u32> = (0..10_000).map(|x| x * 3).collect();
        let short = vec![3, 2_997, 29_997, 50_000];
        let mut out = Vec::new();
        gallop_intersect_into(&short, &long, &mut out);
        assert_eq!(out, vec![3, 2_997, 29_997]);
        assert_eq!(gallop_intersection_count(&short, &long), 3);
    }

    #[test]
    fn bitmap_kernels_basic() {
        let a = [1u32, 3, 64, 127, 128, 300];
        let b = [3u32, 64, 65, 128, 299];
        let words = 6; // universe 0..384
        let ba = pack_bitmap(&a, words);
        let bb = pack_bitmap(&b, words);
        let expect = vec![3u32, 64, 128];

        let mut out = Vec::new();
        slice_bitmap_intersect_into(&a, &bb, &mut out);
        assert_eq!(out, expect);
        out.clear();
        bitmap_bitmap_intersect_into(&ba, &bb, &mut out);
        assert_eq!(out, expect);
        assert_eq!(slice_bitmap_intersection_count(&b, &ba), 3);
        assert_eq!(bitmap_bitmap_intersection_count(&ba, &bb), 3);
        // Ids beyond the bitmap universe are treated as absent.
        assert_eq!(slice_bitmap_intersection_count(&[10_000], &ba), 0);
    }

    #[test]
    fn params_dispatch_matches_fixed_kernels() {
        let a: Vec<u32> = (0..400).map(|x| x * 2).collect();
        let b = vec![4u32, 100, 399, 400];
        let (mut ad, mut m, mut g) = (Vec::new(), Vec::new(), Vec::new());
        intersect_into(&a, &b, &mut ad);
        merge_intersect_into(&a, &b, &mut m);
        gallop_intersect_into(&b, &a, &mut g);
        assert_eq!(ad, m);
        assert_eq!(ad, g);
        assert_eq!(ad, vec![4, 100, 400]);
        assert_eq!(intersection_count(&a, &b), 3);
    }

    /// Random strictly-ascending slice: up to 120 values drawn from 0..500.
    fn sorted_vec(rng: &mut StdRng) -> Vec<u32> {
        let len = rng.random_range(0..120usize);
        let mut s = std::collections::BTreeSet::new();
        for _ in 0..len {
            s.insert(rng.random_range(0..500u32));
        }
        s.into_iter().collect()
    }

    /// Randomized equivalence check (seeded, 512 cases): every kernel must
    /// agree with the quadratic reference on arbitrary sorted inputs.
    #[test]
    fn kernels_agree() {
        let mut rng = StdRng::seed_from_u64(0x1A7E);
        for _ in 0..512 {
            let a = sorted_vec(&mut rng);
            let b = sorted_vec(&mut rng);
            let expect = naive(&a, &b);

            let mut m = Vec::new();
            merge_intersect_into(&a, &b, &mut m);
            assert_eq!(m, expect);

            let (short, long) = if a.len() <= b.len() {
                (&a, &b)
            } else {
                (&b, &a)
            };
            let mut g = Vec::new();
            gallop_intersect_into(short, long, &mut g);
            assert_eq!(g, expect);

            let mut ad = Vec::new();
            intersect_into(&a, &b, &mut ad);
            assert_eq!(ad, expect);

            assert_eq!(merge_intersection_count(&a, &b), expect.len());
            assert_eq!(gallop_intersection_count(short, long), expect.len());
            assert_eq!(intersection_count(&a, &b), expect.len());
        }
    }
}
