//! A brute-force O(n²) reference implementation of Definitions 2–3.
//!
//! This is the ground truth that DBSCOUT's exactness claim is tested
//! against: for every dataset and parameter set, `naive_labels` and
//! [`crate::detect_outliers`] must agree point-for-point. Keep this module
//! dead simple — its only job is to be obviously correct.

use dbscout_spatial::distance::within;
use dbscout_spatial::points::PointId;
use dbscout_spatial::PointStore;

use crate::labels::PointLabel;
use crate::params::DbscoutParams;

/// Labels every point by direct application of Definitions 2–3.
///
/// A point is **core** iff at least `min_pts` points (itself included) lie
/// within distance ≤ ε; an **outlier** iff no core point lies within ≤ ε;
/// **covered** otherwise.
pub fn naive_labels(store: &PointStore, params: DbscoutParams) -> Vec<PointLabel> {
    let n = store.len() as usize;
    let eps_sq = params.eps_sq();

    // Definition 2.
    let mut is_core = vec![false; n];
    for (i, p) in store.iter() {
        let mut count = 0usize;
        for (_, q) in store.iter() {
            if within(p, q, eps_sq) {
                count += 1;
            }
        }
        if let Some(slot) = is_core.get_mut(i as usize) {
            *slot = count >= params.min_pts();
        }
    }
    let core_at = |i: PointId| is_core.get(i as usize).copied().unwrap_or(false);

    // Definition 3.
    store
        .iter()
        .map(|(i, p)| {
            if core_at(i) {
                return PointLabel::Core;
            }
            let covered = store
                .iter()
                .any(|(j, q)| core_at(j) && within(p, q, eps_sq));
            if covered {
                PointLabel::Covered
            } else {
                PointLabel::Outlier
            }
        })
        .collect()
}

/// Outlier ids per the naive reference, ascending.
pub fn naive_outliers(store: &PointStore, params: DbscoutParams) -> Vec<PointId> {
    naive_labels(store, params)
        .iter()
        .enumerate()
        .filter(|(_, l)| l.is_outlier())
        .map(|(i, _)| i as PointId)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_2d(points: &[[f64; 2]]) -> PointStore {
        PointStore::from_rows(2, points.iter().map(|p| p.to_vec())).unwrap()
    }

    #[test]
    fn classifies_paper_style_toy() {
        // Dense blob of 5 coincident points, one reachable point, one far
        // point.
        let mut pts = vec![[0.0, 0.0]; 5];
        pts.push([0.5, 0.0]);
        pts.push([9.0, 9.0]);
        let store = store_2d(&pts);
        let labels = naive_labels(&store, DbscoutParams::new(1.0, 5).unwrap());
        assert_eq!(labels[0], PointLabel::Core);
        // The 6th point has 6 neighbors within eps (all blob points plus
        // itself) => also core.
        assert_eq!(labels[5], PointLabel::Core);
        assert_eq!(labels[6], PointLabel::Outlier);
    }

    #[test]
    fn covered_point() {
        // A chain of 5 points spaced 0.1 apart (all core with eps = 0.5,
        // minPts = 5) and a hanger-on at 0.9: only 2 neighbors within
        // eps, but within eps of the core point at 0.4 — covered.
        let mut pts: Vec<[f64; 2]> = (0..5).map(|i| [i as f64 * 0.1, 0.0]).collect();
        pts.push([0.9, 0.0]);
        let store = store_2d(&pts);
        let labels = naive_labels(&store, DbscoutParams::new(0.5, 5).unwrap());
        assert_eq!(labels[5], PointLabel::Covered);
    }

    #[test]
    fn naive_outliers_ids() {
        let pts = vec![[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]];
        let store = store_2d(&pts);
        let outliers = naive_outliers(&store, DbscoutParams::new(1.0, 2).unwrap());
        assert_eq!(outliers, vec![0, 1, 2]);
    }
}
