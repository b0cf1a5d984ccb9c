//! Kernel work counters: the schedule-invariant observables behind the
//! paper's pruning-efficiency claims.
//!
//! Wall-clock timings on a noisy shared container say little about how
//! much *work* the grid pruning avoided; these counters say it exactly.
//! Each is a plain sum over the cells a kernel visited, and every kernel
//! operates on a disjoint cell range — so the totals are a sum over a
//! partition of `0..num_cells` and therefore do not depend on thread
//! count or task schedule. That invariance is what lets them live in
//! the deterministic (non-stripped) section of run reports and be
//! pinned byte-identical across thread counts by test.

/// Canonical counter names, in the order they are reported. Trace
/// counter events and report fields both use exactly these strings, so
/// validators can check that an emitted counter was declared.
pub const KERNEL_COUNTER_NAMES: [&str; 4] = [
    "cells_visited",
    "bbox_prunes",
    "early_exit_hits",
    "distance_evals",
];

/// Work counters accumulated by the phase-3/phase-5 kernels.
///
/// All four are monotone sums over disjoint per-cell work, so merging
/// per-task values with [`merge`](KernelCounters::merge) in *any* order
/// yields the same totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Cells a kernel iterated over (skipped-by-flag cells included:
    /// the loop still touched them).
    pub cells_visited: u64,
    /// Neighbor cells skipped because the query point's minimum squared
    /// distance to the cell's bounding box already exceeded ε².
    pub bbox_prunes: u64,
    /// Early terminations: a core-point count reached `minPts` (or an
    /// outlier query found a core neighbor) before the neighbor list was
    /// exhausted.
    pub early_exit_hits: u64,
    /// Point-to-point squared-distance evaluations (the quantity the
    /// linearity proof of Lemma 6/8 bounds).
    pub distance_evals: u64,
}

impl KernelCounters {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `other` into `self` (saturating; order-independent).
    pub fn merge(&mut self, other: &KernelCounters) {
        self.cells_visited = self.cells_visited.saturating_add(other.cells_visited);
        self.bbox_prunes = self.bbox_prunes.saturating_add(other.bbox_prunes);
        self.early_exit_hits = self.early_exit_hits.saturating_add(other.early_exit_hits);
        self.distance_evals = self.distance_evals.saturating_add(other.distance_evals);
    }

    /// The counters as `(name, value)` pairs in canonical order.
    pub fn named(&self) -> [(&'static str, u64); 4] {
        [
            ("cells_visited", self.cells_visited),
            ("bbox_prunes", self.bbox_prunes),
            ("early_exit_hits", self.early_exit_hits),
            ("distance_evals", self.distance_evals),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_order_independent() {
        let parts = [
            KernelCounters {
                cells_visited: 3,
                bbox_prunes: 1,
                early_exit_hits: 0,
                distance_evals: 10,
            },
            KernelCounters {
                cells_visited: 5,
                bbox_prunes: 0,
                early_exit_hits: 2,
                distance_evals: 7,
            },
            KernelCounters {
                cells_visited: 1,
                bbox_prunes: 4,
                early_exit_hits: 1,
                distance_evals: 0,
            },
        ];
        let mut forward = KernelCounters::new();
        for p in &parts {
            forward.merge(p);
        }
        let mut backward = KernelCounters::new();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.cells_visited, 9);
        assert_eq!(forward.distance_evals, 17);
    }

    #[test]
    fn named_matches_the_canonical_name_list() {
        let c = KernelCounters {
            cells_visited: 1,
            bbox_prunes: 2,
            early_exit_hits: 3,
            distance_evals: 4,
        };
        let named = c.named();
        for (i, (name, _)) in named.iter().enumerate() {
            assert_eq!(*name, KERNEL_COUNTER_NAMES[i]);
        }
        assert_eq!(named[3], ("distance_evals", 4));
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        let mut a = KernelCounters {
            cells_visited: u64::MAX,
            ..KernelCounters::default()
        };
        a.merge(&KernelCounters {
            cells_visited: 1,
            ..KernelCounters::default()
        });
        assert_eq!(a.cells_visited, u64::MAX);
    }
}
