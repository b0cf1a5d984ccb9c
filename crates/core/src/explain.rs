//! Outlier explanations — the companion problem the paper's related-work
//! section points at (Dang et al., "Local outlier detection with
//! interpretation"): *why* is this point an outlier, and what would have
//! to change for it not to be?
//!
//! For the density definitions an explanation is fully determined by two
//! counterfactual quantities:
//!
//! * `eps_to_cover` — the smallest radius at which the point would stop
//!   being an outlier *given the current core set* (its distance to the
//!   nearest core point);
//! * `neighbors_within_eps` — how many points it actually has nearby,
//!   vs. the `minPts` it would need to be core itself.

use dbscout_spatial::points::PointId;
use dbscout_spatial::{KdTree, PointStore};

use crate::error::Result;
use crate::labels::{OutlierResult, PointLabel};
use crate::params::DbscoutParams;

/// Why one point received its label.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The point being explained.
    pub id: PointId,
    /// Its label in the run being explained.
    pub label: PointLabel,
    /// Number of points within ε (itself included) — `≥ minPts` iff core.
    pub neighbors_within_eps: usize,
    /// The nearest core point and its distance, when any core exists.
    pub nearest_core: Option<(PointId, f64)>,
    /// The smallest ε (given the current core set) at which this point
    /// would be covered; `None` when no core points exist at all.
    pub eps_to_cover: Option<f64>,
    /// How many additional nearby points this point would have needed to
    /// be core itself (0 for core points).
    pub deficit_to_core: usize,
}

/// Explains every requested point of a finished run.
///
/// Builds one KD-tree over the full dataset and one over the core set,
/// so explaining `k` points costs `O(n log n + k log n)`.
pub fn explain(
    store: &PointStore,
    result: &OutlierResult,
    params: DbscoutParams,
    ids: &[PointId],
) -> Result<Vec<Explanation>> {
    let eps_sq = params.eps_sq();
    let all = KdTree::build(store);
    let core_ids: Vec<PointId> = result
        .labels
        .iter()
        .enumerate()
        .filter(|(_, l)| matches!(l, PointLabel::Core))
        .map(|(i, _)| i as PointId)
        .collect();
    let core_store = store.gather(&core_ids);
    let core_tree = (!core_ids.is_empty()).then(|| KdTree::build(&core_store));

    Ok(ids
        .iter()
        .map(|&id| {
            let p = store.point(id);
            let neighbors = all
                .within_radius(p, params.eps())
                .iter()
                .filter(|n| n.sq_dist <= eps_sq)
                .count();
            let nearest_core = core_tree.as_ref().and_then(|t| {
                t.knn(p, 1).first().map(|nn| {
                    let cid = core_ids.get(nn.id as usize).copied().unwrap_or(nn.id);
                    (cid, nn.sq_dist.sqrt())
                })
            });
            Explanation {
                id,
                label: result
                    .labels
                    .get(id as usize)
                    .copied()
                    .unwrap_or(PointLabel::Outlier),
                neighbors_within_eps: neighbors,
                nearest_core,
                eps_to_cover: nearest_core.map(|(cid, d)| {
                    // A core point explains itself at radius 0.
                    if cid == id {
                        0.0
                    } else {
                        d
                    }
                }),
                deficit_to_core: params.min_pts().saturating_sub(neighbors),
            }
        })
        .collect())
}

/// Render an explanation as one human-readable line.
impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "point {}: {:?}; {} neighbors within eps",
            self.id, self.label, self.neighbors_within_eps
        )?;
        if self.deficit_to_core > 0 {
            write!(f, " ({} short of core)", self.deficit_to_core)?;
        }
        match self.nearest_core {
            Some((cid, d)) if cid != self.id => {
                write!(f, "; nearest core point {cid} at distance {d:.4}")
            }
            Some(_) => write!(f, "; is itself core"),
            None => write!(f, "; no core points exist"),
        }
    }
}

/// Sanity check used by tests and callers: an explanation must be
/// consistent with the label it explains.
pub fn consistent(e: &Explanation, params: DbscoutParams) -> bool {
    match e.label {
        PointLabel::Core => e.neighbors_within_eps >= params.min_pts() && e.deficit_to_core == 0,
        PointLabel::Covered => {
            e.neighbors_within_eps < params.min_pts()
                && e.eps_to_cover.is_some_and(|d| d <= params.eps())
        }
        PointLabel::Outlier => {
            e.neighbors_within_eps < params.min_pts()
                && e.eps_to_cover.is_none_or(|d| d > params.eps())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::detect_outliers;

    fn setup() -> (PointStore, OutlierResult, DbscoutParams) {
        let mut pts: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 * 0.1, 0.0]).collect();
        pts.push(vec![0.9, 0.0]); // covered by the core at 0.4
        pts.push(vec![5.0, 0.0]); // outlier
        let store = PointStore::from_rows(2, pts).unwrap();
        let params = DbscoutParams::new(0.5, 5).unwrap();
        let result = detect_outliers(&store, params).unwrap();
        (store, result, params)
    }

    #[test]
    fn explanations_are_label_consistent() {
        let (store, result, params) = setup();
        let ids: Vec<u32> = (0..store.len()).collect();
        for e in explain(&store, &result, params, &ids).unwrap() {
            assert!(consistent(&e, params), "{e}");
        }
    }

    #[test]
    fn outlier_explanation_quantifies_the_gap() {
        let (store, result, params) = setup();
        let e = &explain(&store, &result, params, &[6]).unwrap()[0];
        assert_eq!(e.label, PointLabel::Outlier);
        // 5.0 is alone: only itself within eps.
        assert_eq!(e.neighbors_within_eps, 1);
        assert_eq!(e.deficit_to_core, 4);
        // Nearest core is the chain point at 0.4 → distance 4.6.
        let (_, d) = e.nearest_core.unwrap();
        assert!((d - 4.6).abs() < 1e-9, "{d}");
        assert!((e.eps_to_cover.unwrap() - 4.6).abs() < 1e-9);
    }

    #[test]
    fn covered_explanation_names_a_close_core() {
        let (store, result, params) = setup();
        let e = &explain(&store, &result, params, &[5]).unwrap()[0];
        assert_eq!(e.label, PointLabel::Covered);
        let (cid, d) = e.nearest_core.unwrap();
        assert_eq!(cid, 4);
        assert!((d - 0.5).abs() < 1e-9);
    }

    #[test]
    fn core_explains_itself() {
        let (store, result, params) = setup();
        let e = &explain(&store, &result, params, &[2]).unwrap()[0];
        assert_eq!(e.label, PointLabel::Core);
        assert_eq!(e.deficit_to_core, 0);
        assert_eq!(e.eps_to_cover, Some(0.0));
        assert!(e.to_string().contains("is itself core"));
    }

    #[test]
    fn no_core_points_case() {
        let store = PointStore::from_rows(2, vec![vec![0.0, 0.0], vec![9.0, 9.0]]).unwrap();
        let params = DbscoutParams::new(1.0, 3).unwrap();
        let result = detect_outliers(&store, params).unwrap();
        let e = &explain(&store, &result, params, &[0]).unwrap()[0];
        assert!(e.nearest_core.is_none());
        assert!(e.eps_to_cover.is_none());
        assert!(consistent(e, params));
        assert!(e.to_string().contains("no core points"));
    }
}
