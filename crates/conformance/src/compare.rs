//! Tie-aware top-k comparison against a full truth vector.
//!
//! Comparing two top-k answers entry-by-entry is wrong in the presence of
//! ties: when ranks `k−1, k, k+1` share a score, *any* subset of the tied
//! score class is a correct boundary fill, so two correct engines may
//! legitimately return different vertex sets. What is invariant is:
//!
//! 1. the returned *score multiset* — rank `i`'s score must equal the
//!    `i`-th largest true score;
//! 2. per-vertex honesty — each returned vertex must carry its own true
//!    score;
//! 3. boundary discipline — every vertex scoring *strictly above* the k-th
//!    true score must be present; only the boundary score class is
//!    interchangeable.
//!
//! All float comparisons are relative (`|a−b| ≤ tol·max(|a|,|b|,1)`):
//! engines sum identical contribution terms in different orders, so
//! last-bit divergence is expected and correct.

use egobtw_graph::VertexId;

/// Relative tolerance for cross-engine score comparison. Scores are sums
/// of `O(d²)` terms of magnitude ≤ 1; `1e-9` leaves six orders of margin
/// above accumulated association error on any graph this harness runs.
pub const REL_TOL: f64 = 1e-9;

/// Relative float equality with an absolute floor of `tol` near zero.
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// Checks one engine's top-k answer against the full truth vector.
/// Returns a human-readable description of the first violation.
pub fn check_topk(
    truth: &[f64],
    got: &[(VertexId, f64)],
    k: usize,
    tol: f64,
) -> Result<(), String> {
    let n = truth.len();
    let expect_len = k.min(n);
    if got.len() != expect_len {
        return Err(format!(
            "returned {} entries, expected {expect_len} (k={k}, n={n})",
            got.len()
        ));
    }

    // Per-vertex honesty, id range, duplicates, descending order.
    let mut seen = vec![false; n];
    for (rank, &(v, score)) in got.iter().enumerate() {
        let Some(&truth_v) = truth.get(v as usize) else {
            return Err(format!("rank {rank}: vertex {v} out of range (n={n})"));
        };
        if seen[v as usize] {
            return Err(format!("vertex {v} returned twice"));
        }
        seen[v as usize] = true;
        if !approx_eq(score, truth_v, tol) {
            return Err(format!(
                "rank {rank}: vertex {v} reported {score}, true CB is {truth_v}"
            ));
        }
        if rank > 0 && got[rank - 1].1 < score && !approx_eq(got[rank - 1].1, score, tol) {
            return Err(format!(
                "ranks {}..{rank} not descending: {} then {score}",
                rank - 1,
                got[rank - 1].1
            ));
        }
    }

    if expect_len == 0 {
        return Ok(());
    }

    // Score multiset: rank i must carry the i-th largest true score.
    let mut sorted = truth.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    for (rank, &(v, score)) in got.iter().enumerate() {
        if !approx_eq(score, sorted[rank], tol) {
            return Err(format!(
                "rank {rank}: got {score} (vertex {v}), the {rank}-th best true score is {}",
                sorted[rank]
            ));
        }
    }

    // Boundary discipline: strictly-above-boundary vertices are mandatory.
    let boundary = sorted[expect_len - 1];
    for (v, &t) in truth.iter().enumerate() {
        if t > boundary && !approx_eq(t, boundary, tol) && !seen[v] {
            return Err(format!(
                "vertex {v} (CB {t}) is strictly above the k-boundary {boundary} but missing"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: &[f64] = &[5.0, 3.0, 3.0, 3.0, 1.0, 0.0];

    #[test]
    fn accepts_any_tie_class_fill() {
        // k=2: rank 1 may be any of vertices 1, 2, 3 (all score 3).
        for boundary_pick in [1u32, 2, 3] {
            assert_eq!(
                check_topk(T, &[(0, 5.0), (boundary_pick, 3.0)], 2, REL_TOL),
                Ok(())
            );
        }
    }

    #[test]
    fn rejects_wrong_multiset() {
        // Vertex 4's true score (1.0) cannot appear at rank 1.
        let err = check_topk(T, &[(0, 5.0), (4, 1.0)], 2, REL_TOL).unwrap_err();
        assert!(err.contains("best true score"), "{err}");
    }

    #[test]
    fn rejects_dishonest_score() {
        let err = check_topk(T, &[(0, 5.0), (1, 2.9)], 2, REL_TOL).unwrap_err();
        assert!(err.contains("reported"), "{err}");
    }

    #[test]
    fn rejects_missing_strictly_better_vertex() {
        // k=4 covers the whole tie class {1,2,3} plus vertex 0; dropping
        // vertex 0 for vertex 4 is a multiset violation, and dropping a
        // *mandatory* above-boundary vertex is flagged even if scores were
        // somehow patched to look right.
        let err = check_topk(T, &[(1, 3.0), (2, 3.0), (3, 3.0), (4, 1.0)], 4, REL_TOL).unwrap_err();
        assert!(!err.is_empty());
    }

    #[test]
    fn rejects_duplicates_and_length() {
        assert!(check_topk(T, &[(0, 5.0), (0, 5.0)], 2, REL_TOL)
            .unwrap_err()
            .contains("twice"));
        assert!(check_topk(T, &[(0, 5.0)], 2, REL_TOL)
            .unwrap_err()
            .contains("expected 2"));
    }

    #[test]
    fn k_zero_and_k_over_n() {
        assert_eq!(check_topk(T, &[], 0, REL_TOL), Ok(()));
        let full: Vec<(VertexId, f64)> =
            vec![(0, 5.0), (1, 3.0), (2, 3.0), (3, 3.0), (4, 1.0), (5, 0.0)];
        assert_eq!(check_topk(T, &full, 100, REL_TOL), Ok(()));
    }

    #[test]
    fn tolerates_last_bit_divergence() {
        let wiggle = 3.0 + 3.0 * 1e-13;
        assert_eq!(check_topk(T, &[(0, 5.0), (2, wiggle)], 2, REL_TOL), Ok(()));
    }
}
