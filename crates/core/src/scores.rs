//! Continuous outlier scores on top of the binary Definition-3 verdict.
//!
//! The paper's output is a set; many pipelines want a *ranking* (alerting
//! thresholds, top-N triage, ROC evaluation). The natural DBSCOUT-flavoured
//! score is the **distance to the nearest core point**: it is zero for
//! core points, at most ε for covered points, and `> ε` exactly for the
//! Definition-3 outliers — so thresholding the score at ε recovers the
//! exact outlier set, while the magnitude above ε says *how far* outside
//! every dense region a point lies.

use dbscout_spatial::{KdTree, PointStore};

use crate::error::Result;
use crate::labels::PointLabel;
use crate::native::Dbscout;
use crate::params::DbscoutParams;

/// Per-point nearest-core-distance scores plus the underlying run.
#[derive(Debug, Clone)]
pub struct ScoredResult {
    /// Distance from each point to its nearest core point (0 for core
    /// points; `f64::INFINITY` when the dataset has no core points).
    pub scores: Vec<f64>,
    /// The exact detection result the scores refine.
    pub result: crate::labels::OutlierResult,
}

/// Runs DBSCOUT and scores every point by its distance to the nearest
/// core point.
///
/// Cost: one DBSCOUT run plus one KD-tree over the core points and one
/// nearest-neighbor query per non-core point.
pub fn outlier_scores(store: &PointStore, params: DbscoutParams) -> Result<ScoredResult> {
    let result = Dbscout::new(params).detect(store)?;
    let core_ids: Vec<u32> = result
        .labels
        .iter()
        .enumerate()
        .filter(|(_, l)| matches!(l, PointLabel::Core))
        .map(|(i, _)| i as u32)
        .collect();

    let scores = if core_ids.is_empty() {
        vec![f64::INFINITY; store.len() as usize]
    } else {
        let cores = store.gather(&core_ids);
        let tree = KdTree::build(&cores);
        result
            .labels
            .iter()
            .enumerate()
            .map(|(i, l)| {
                if matches!(l, PointLabel::Core) {
                    0.0
                } else {
                    tree.knn(store.point(i as u32), 1)
                        .first()
                        .map_or(f64::INFINITY, |nn| nn.sq_dist.sqrt())
                }
            })
            .collect()
    };
    Ok(ScoredResult { scores, result })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_2d(points: &[[f64; 2]]) -> PointStore {
        PointStore::from_rows(2, points.iter().map(|p| p.to_vec())).unwrap()
    }

    fn chain_plus_stragglers() -> PointStore {
        let mut pts: Vec<[f64; 2]> = (0..6).map(|i| [i as f64 * 0.1, 0.0]).collect();
        pts.push([1.2, 0.0]); // covered (0.7 from the core at 0.5... within eps of core at 0.5)
        pts.push([5.0, 0.0]); // outlier, 4.5 from the nearest core
        pts.push([9.0, 0.0]); // outlier, farther
        store_2d(&pts)
    }

    #[test]
    fn score_semantics_match_labels() {
        let store = chain_plus_stragglers();
        let params = DbscoutParams::new(1.0, 5).unwrap();
        let scored = outlier_scores(&store, params).unwrap();
        for (i, l) in scored.result.labels.iter().enumerate() {
            match l {
                PointLabel::Core => assert_eq!(scored.scores[i], 0.0, "core {i}"),
                PointLabel::Covered => assert!(
                    scored.scores[i] <= params.eps(),
                    "covered {i}: {}",
                    scored.scores[i]
                ),
                PointLabel::Outlier => assert!(
                    scored.scores[i] > params.eps(),
                    "outlier {i}: {}",
                    scored.scores[i]
                ),
            }
        }
    }

    #[test]
    fn farther_outliers_score_higher() {
        let store = chain_plus_stragglers();
        let params = DbscoutParams::new(1.0, 5).unwrap();
        let scored = outlier_scores(&store, params).unwrap();
        assert!(scored.scores[8] > scored.scores[7]);
    }

    #[test]
    fn thresholding_at_eps_recovers_exact_outliers() {
        let store = chain_plus_stragglers();
        let params = DbscoutParams::new(1.0, 5).unwrap();
        let scored = outlier_scores(&store, params).unwrap();
        let by_threshold: Vec<u32> = scored
            .scores
            .iter()
            .enumerate()
            .filter(|(_, &s)| s > params.eps())
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(by_threshold, scored.result.outliers);
    }

    #[test]
    fn no_core_points_means_infinite_scores() {
        let store = store_2d(&[[0.0, 0.0], [100.0, 0.0]]);
        let params = DbscoutParams::new(1.0, 5).unwrap();
        let scored = outlier_scores(&store, params).unwrap();
        assert!(scored.scores.iter().all(|s| s.is_infinite()));
        assert_eq!(scored.result.num_outliers(), 2);
    }

    #[test]
    fn empty_store() {
        let store = PointStore::new(2).unwrap();
        let params = DbscoutParams::new(1.0, 5).unwrap();
        let scored = outlier_scores(&store, params).unwrap();
        assert!(scored.scores.is_empty());
    }
}
