//! Exact DBSCAN (Ester et al. 1996).
//!
//! DBSCOUT's outliers are *defined* to be DBSCAN's noise points
//! (Definitions 1–3 of the paper mirror DBSCAN's), so this implementation
//! doubles as the semantic ground truth for the workspace's equivalence
//! tests and as the "run a clustering algorithm just to read off its
//! noise" strawman of §I. Two engines:
//!
//! * [`Dbscan::fit_naive`] — O(n²), obviously-correct, for tests;
//! * [`Dbscan::fit`] — grid-accelerated (Gunawan-style ε-cells), for the
//!   benchmark datasets.

use std::collections::VecDeque;

use dbscout_spatial::distance::within;
use dbscout_spatial::points::PointId;
use dbscout_spatial::{Grid, NeighborOffsets, PointStore, SpatialError};

/// Cluster id assigned to noise points.
pub const NOISE: i32 = -1;

/// DBSCAN parameters.
#[derive(Debug, Clone, Copy)]
pub struct Dbscan {
    /// Neighborhood radius ε (closed ball).
    pub eps: f64,
    /// Density threshold, the point itself included.
    pub min_pts: usize,
}

/// The output of a DBSCAN run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbscanResult {
    /// Per-point cluster id, or [`NOISE`].
    pub cluster: Vec<i32>,
    /// Per-point core flag.
    pub is_core: Vec<bool>,
    /// Number of clusters found.
    pub num_clusters: usize,
}

impl DbscanResult {
    /// Noise (outlier) mask — DBSCAN noise coincides with Definition 3.
    pub fn noise_mask(&self) -> Vec<bool> {
        self.cluster.iter().map(|&c| c == NOISE).collect()
    }

    /// Ids of all noise points, ascending.
    pub fn noise_ids(&self) -> Vec<PointId> {
        self.cluster
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == NOISE)
            .map(|(i, _)| i as PointId)
            .collect()
    }
}

impl Dbscan {
    /// Creates a parameter set (unvalidated struct literal also works;
    /// `fit` validates ε via the grid).
    pub fn new(eps: f64, min_pts: usize) -> Self {
        Self { eps, min_pts }
    }

    /// Grid-accelerated exact DBSCAN.
    ///
    /// # Errors
    ///
    /// Fails on an ε out of range ([`dbscout_spatial::validate_eps`]).
    pub fn fit(&self, store: &PointStore) -> Result<DbscanResult, SpatialError> {
        let grid = Grid::build(store, self.eps)?;
        let offsets = NeighborOffsets::new(store.dims())?;
        let eps_sq = self.eps * self.eps;
        let n = store.len() as usize;

        // Core test via neighboring cells (dense-cell shortcut included).
        let mut is_core = vec![false; n];
        for (cell, ids) in grid.cells() {
            if ids.len() >= self.min_pts {
                for &p in ids {
                    if let Some(c) = is_core.get_mut(p as usize) {
                        *c = true;
                    }
                }
                continue;
            }
            for &p in ids {
                let pc = store.point(p);
                let mut count = 0usize;
                'search: for off in offsets.iter() {
                    let Some(ncell) = NeighborOffsets::apply(cell, off) else {
                        continue;
                    };
                    let Some(qs) = grid.points_in(&ncell) else {
                        continue;
                    };
                    for &q in qs {
                        if within(pc, store.point(q), eps_sq) {
                            count += 1;
                            if count >= self.min_pts {
                                break 'search;
                            }
                        }
                    }
                }
                if let Some(c) = is_core.get_mut(p as usize) {
                    *c = count >= self.min_pts;
                }
            }
        }

        // Expansion: BFS over core points, attaching border points.
        let neighbors_of = |p: PointId| -> Vec<PointId> {
            let pc = store.point(p);
            let cell = grid.cell_for(pc);
            let mut out = Vec::new();
            for off in offsets.iter() {
                let Some(ncell) = NeighborOffsets::apply(&cell, off) else {
                    continue;
                };
                if let Some(qs) = grid.points_in(&ncell) {
                    for &q in qs {
                        if within(pc, store.point(q), eps_sq) {
                            out.push(q);
                        }
                    }
                }
            }
            out
        };
        let (cluster, num_clusters) = expand_clusters(n, &is_core, neighbors_of);
        Ok(DbscanResult {
            cluster,
            is_core,
            num_clusters,
        })
    }

    /// Naive O(n²) exact DBSCAN (for tests and tiny inputs).
    pub fn fit_naive(&self, store: &PointStore) -> DbscanResult {
        let eps_sq = self.eps * self.eps;
        let n = store.len() as usize;
        let mut is_core = vec![false; n];
        for (i, p) in store.iter() {
            let count = store.iter().filter(|(_, q)| within(p, q, eps_sq)).count();
            if let Some(c) = is_core.get_mut(i as usize) {
                *c = count >= self.min_pts;
            }
        }
        let neighbors_of = |p: PointId| -> Vec<PointId> {
            let pc = store.point(p);
            store
                .iter()
                .filter(|(_, q)| within(pc, q, eps_sq))
                .map(|(id, _)| id)
                .collect()
        };
        let (cluster, num_clusters) = expand_clusters(n, &is_core, neighbors_of);
        DbscanResult {
            cluster,
            is_core,
            num_clusters,
        }
    }
}

/// Standard DBSCAN expansion: each unvisited core point seeds a cluster;
/// the BFS frontier only grows through core points; border points join
/// the first cluster that reaches them.
fn expand_clusters(
    n: usize,
    is_core: &[bool],
    neighbors_of: impl Fn(PointId) -> Vec<PointId>,
) -> (Vec<i32>, usize) {
    let mut cluster = vec![NOISE; n];
    let mut next_id = 0i32;
    for seed in 0..n {
        if !is_core.get(seed).copied().unwrap_or(false)
            || cluster.get(seed).copied().unwrap_or(NOISE) != NOISE
        {
            continue;
        }
        let id = next_id;
        next_id += 1;
        if let Some(slot) = cluster.get_mut(seed) {
            *slot = id;
        }
        let mut queue = VecDeque::from([seed as PointId]);
        while let Some(p) = queue.pop_front() {
            debug_assert!(is_core.get(p as usize).copied().unwrap_or(false));
            for q in neighbors_of(p) {
                let qi = q as usize;
                if let Some(slot) = cluster.get_mut(qi) {
                    if *slot == NOISE {
                        *slot = id;
                        if is_core.get(qi).copied().unwrap_or(false) {
                            queue.push_back(q);
                        }
                    }
                }
            }
        }
    }
    (cluster, next_id as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_2d(points: &[[f64; 2]]) -> PointStore {
        PointStore::from_rows(2, points.iter().map(|p| p.to_vec())).unwrap()
    }

    fn two_blobs_and_noise() -> PointStore {
        let mut pts = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                pts.push([i as f64 * 0.3, j as f64 * 0.3]);
            }
        }
        for i in 0..3 {
            for j in 0..3 {
                pts.push([10.0 + i as f64 * 0.3, j as f64 * 0.3]);
            }
        }
        pts.push([5.0, 5.0]);
        store_2d(&pts)
    }

    #[test]
    fn finds_two_clusters_and_noise() {
        let store = two_blobs_and_noise();
        let r = Dbscan::new(1.0, 5).fit(&store).unwrap();
        assert_eq!(r.num_clusters, 2);
        assert_eq!(r.cluster[18], NOISE);
        // All of blob 1 shares one id; all of blob 2 shares another.
        let id0 = r.cluster[0];
        assert!((0..9).all(|i| r.cluster[i] == id0));
        let id1 = r.cluster[9];
        assert_ne!(id0, id1);
        assert!((9..18).all(|i| r.cluster[i] == id1));
        assert_eq!(r.noise_ids(), vec![18]);
    }

    #[test]
    fn grid_matches_naive() {
        let store = two_blobs_and_noise();
        for (eps, min_pts) in [(0.5, 3), (1.0, 5), (2.0, 4), (11.0, 9)] {
            let d = Dbscan::new(eps, min_pts);
            let fast = d.fit(&store).unwrap();
            let slow = d.fit_naive(&store);
            assert_eq!(fast.is_core, slow.is_core, "eps {eps}");
            assert_eq!(fast.noise_mask(), slow.noise_mask(), "eps {eps}");
            assert_eq!(fast.num_clusters, slow.num_clusters, "eps {eps}");
        }
    }

    #[test]
    fn border_point_joins_cluster() {
        // Chain of 5 close points + hanger-on within eps of the last.
        let mut pts: Vec<[f64; 2]> = (0..5).map(|i| [i as f64 * 0.1, 0.0]).collect();
        pts.push([0.9, 0.0]);
        let store = store_2d(&pts);
        let r = Dbscan::new(0.5, 5).fit(&store).unwrap();
        assert!(!r.is_core[5]);
        assert_eq!(r.cluster[5], r.cluster[0], "border point joins");
        assert_eq!(r.num_clusters, 1);
    }

    #[test]
    fn all_noise_when_sparse() {
        let pts: Vec<[f64; 2]> = (0..5).map(|i| [i as f64 * 100.0, 0.0]).collect();
        let store = store_2d(&pts);
        let r = Dbscan::new(1.0, 2).fit(&store).unwrap();
        assert_eq!(r.num_clusters, 0);
        assert_eq!(r.noise_ids().len(), 5);
    }

    #[test]
    fn single_cluster_spanning_many_cells() {
        // A long chain with spacing < eps: one cluster via transitive
        // expansion even though it spans dozens of cells.
        let pts: Vec<[f64; 2]> = (0..50).map(|i| [i as f64 * 0.4, 0.0]).collect();
        let store = store_2d(&pts);
        let r = Dbscan::new(1.0, 3).fit(&store).unwrap();
        assert_eq!(r.num_clusters, 1);
        assert!(r.noise_ids().is_empty());
    }

    #[test]
    fn empty_store() {
        let store = PointStore::new(2).unwrap();
        let r = Dbscan::new(1.0, 3).fit(&store).unwrap();
        assert!(r.cluster.is_empty());
        assert_eq!(r.num_clusters, 0);
    }
}
