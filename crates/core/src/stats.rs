//! Instrumentation counters.
//!
//! Table II of the paper compares BaseBSearch and OptBSearch by the
//! *number of vertices whose ego-betweenness is computed exactly* — the
//! honest measure of pruning power, independent of constant factors.
//! [`SearchStats`] carries that plus the underlying triangle/diamond work.

/// Work counters accumulated by a search or a full computation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Vertices whose `CB` was computed exactly (Table II's metric).
    pub exact_computations: usize,
    /// Triangle work. OptBSearch counts the triangles through each ego it
    /// computes (`Σ|L_a|/2` per ego, so a triangle shared by two computed
    /// egos counts twice); BaseBSearch counts each processed triangle
    /// once; `compute_all` counts corner writes, three per triangle.
    pub triangles_processed: u64,
    /// Diamond (connector) discoveries of the S-map engines — each bumps
    /// two maps. OptBSearch's kernel keeps no maps and reports 0.
    pub diamonds_counted: u64,
    /// Vertices pruned by a bound without exact computation.
    pub pruned: usize,
    /// Dynamic-bound refreshes (OptBSearch pops that recomputed `ũb`).
    pub bound_refreshes: usize,
    /// Re-insertions into the lazy heap after a bound refresh.
    pub heap_reinserts: usize,
}

impl SearchStats {
    /// Merges counters from another run (used when a harness aggregates
    /// per-thread stats).
    pub fn merge(&mut self, other: &SearchStats) {
        self.exact_computations += other.exact_computations;
        self.triangles_processed += other.triangles_processed;
        self.diamonds_counted += other.diamonds_counted;
        self.pruned += other.pruned;
        self.bound_refreshes += other.bound_refreshes;
        self.heap_reinserts += other.heap_reinserts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = SearchStats {
            exact_computations: 1,
            triangles_processed: 2,
            diamonds_counted: 3,
            pruned: 4,
            bound_refreshes: 5,
            heap_reinserts: 6,
        };
        a.merge(&a.clone());
        assert_eq!(a.exact_computations, 2);
        assert_eq!(a.triangles_processed, 4);
        assert_eq!(a.diamonds_counted, 6);
        assert_eq!(a.pruned, 8);
        assert_eq!(a.bound_refreshes, 10);
        assert_eq!(a.heap_reinserts, 12);
    }
}
