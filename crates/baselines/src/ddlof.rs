//! DDLOF-style distributed Local Outlier Factor (after Yan, Cao, Kulhman,
//! Rundensteiner — KDD 2017), the efficiency competitor of paper
//! Table II.
//!
//! **Substitution note** (see `DESIGN.md`): the published DDLOF is a
//! closed-source MapReduce job. This implementation reproduces its round
//! structure over the dataflow substrate:
//!
//! 1. **spatial grid partitioning** of the domain into roughly one cell
//!    per partition;
//! 2. a **local k-NN round** inside each cell, yielding per-cell
//!    k-distance upper bounds;
//! 3. a **support round**: every point is replicated into each cell whose
//!    region it may serve as a k-NN for (bound-driven replication — the
//!    mechanism that blows up on skewed data, which is why the paper's
//!    DDLOF times out on Geolife);
//! 4. an **exact k-NN round** over own + support points;
//! 5. two **join rounds** exchanging neighbor k-distances (→ lrd) and
//!    neighbor lrds (→ LOF).
//!
//! The result is the *exact* LOF score for every point (verified against
//! the sequential [`crate::Lof`] in tests); only the data movement is
//! distributed.

use std::sync::Arc;

use dbscout_dataflow::{Dataset, ExecutionContext};
use dbscout_spatial::cell::{cell_of, min_sq_dist_to_cell, CellCoord, MAX_DIMS};
use dbscout_spatial::points::PointId;
use dbscout_spatial::{KdTree, PointStore};

use crate::error::BaselineError;
use crate::lof::threshold_top_fraction;

/// A point record with inlined coordinates.
#[derive(Debug, Clone, Copy)]
struct Rec {
    id: PointId,
    dims: u8,
    coords: [f64; MAX_DIMS],
}

impl Rec {
    fn new(id: PointId, p: &[f64]) -> Self {
        let mut coords = [0.0; MAX_DIMS];
        for (out, &x) in coords.iter_mut().zip(p) {
            *out = x;
        }
        Self {
            id,
            dims: p.len() as u8,
            coords,
        }
    }

    fn coords(&self) -> &[f64] {
        // dims <= MAX_DIMS by construction, so the range is always valid.
        self.coords
            .get(..self.dims as usize)
            .unwrap_or(&self.coords)
    }
}

/// The DDLOF-style distributed LOF detector.
#[derive(Debug, Clone)]
pub struct Ddlof {
    ctx: Arc<ExecutionContext>,
    /// Neighborhood size k (the paper uses k = 6 for DDLOF).
    pub k: usize,
    target_cells: usize,
}

/// Output of a run.
#[derive(Debug, Clone)]
pub struct DdlofResult {
    /// Exact LOF score per point.
    pub scores: Vec<f64>,
    /// How many support replicas were shipped between cells (the cost
    /// driver on skewed data).
    pub support_replicas: usize,
    /// Number of grid cells used for partitioning.
    pub grid_cells: usize,
}

impl Ddlof {
    /// A detector with neighborhood size `k` over `ctx`, targeting one
    /// grid cell per default partition.
    pub fn new(ctx: Arc<ExecutionContext>, k: usize) -> Self {
        let target_cells = ctx.default_partitions();
        Self {
            ctx,
            k,
            target_cells,
        }
    }

    /// Overrides the number of spatial grid cells (≈ partitions).
    pub fn with_cells(mut self, cells: usize) -> Self {
        self.target_cells = cells.max(1);
        self
    }

    /// Computes exact LOF scores for every point, distributedly.
    pub fn score(&self, store: &PointStore) -> Result<DdlofResult, BaselineError> {
        if self.k == 0 {
            return Err(BaselineError::InvalidParameter("k must be >= 1"));
        }
        let n = store.len() as usize;
        if n == 0 {
            return Ok(DdlofResult {
                scores: Vec::new(),
                support_replicas: 0,
                grid_cells: 0,
            });
        }
        let k = self.k.min(n.saturating_sub(1)).max(1);
        let dims = store.dims();

        // Grid sizing: ~target_cells cells over the bounding box.
        let (min, max) = store
            .bounding_box()
            .ok_or(BaselineError::InvalidParameter("empty store"))?;
        let per_axis = (self.target_cells as f64)
            .powf(1.0 / dims as f64)
            .ceil()
            .max(1.0);
        let side = min
            .iter()
            .zip(&max)
            .map(|(&lo, &hi)| (hi - lo) / per_axis)
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        // The bounding-box diagonal caps all distances.
        let diagonal_sq: f64 = min
            .iter()
            .zip(&max)
            .map(|(&lo, &hi)| (hi - lo).powi(2))
            .sum();

        let recs: Vec<Rec> = store.iter().map(|(id, p)| Rec::new(id, p)).collect();
        let points: Dataset<(CellCoord, Rec)> = self
            .ctx
            .parallelize(recs, self.ctx.default_partitions())
            .map(|rec| (cell_of(rec.coords(), side), *rec))?;

        // Round 1+2: per-cell local k-NN → per-cell k-distance bound.
        let by_cell = points.group_by_key_with(self.ctx.default_partitions())?;
        let cell_bounds: Vec<(CellCoord, f64)> = by_cell
            .map(move |(cell, members)| {
                // On any (impossible for store-derived points) build
                // failure, fall back to the conservative diagonal bound.
                let local_bound = |members: &[Rec]| -> Option<f64> {
                    let mut local = PointStore::new(dims).ok()?;
                    for m in members {
                        local.push(m.coords()).ok()?;
                    }
                    let tree = KdTree::build(&local);
                    Some(
                        members
                            .iter()
                            .map(|m| {
                                let nn = tree.knn(m.coords(), k + 1);
                                nn.last().map(|x| x.sq_dist).unwrap_or(diagonal_sq)
                            })
                            .fold(0.0f64, f64::max),
                    )
                };
                let bound_sq = if members.len() <= k {
                    // Not enough local points: k-NN may reach anywhere.
                    diagonal_sq
                } else {
                    local_bound(members).unwrap_or(diagonal_sq)
                };
                (*cell, bound_sq)
            })?
            .collect()?;
        let grid_cells = cell_bounds.len();
        let bounds = self.ctx.broadcast(cell_bounds);

        // Round 3: support replication — ship every point to each cell
        // whose region it might serve (min dist to cell box ≤ that cell's
        // bound).
        let supports = {
            let bounds = bounds.clone();
            points.flat_map(move |(own_cell, rec)| {
                let mut out = Vec::new();
                for (cell, bound_sq) in bounds.iter() {
                    if cell != own_cell
                        && min_sq_dist_to_cell(rec.coords(), cell, side) <= *bound_sq
                    {
                        out.push((*cell, *rec));
                    }
                }
                out
            })?
        };
        let support_replicas = supports.count();

        // Round 4: exact k-NN over own + support points, per cell.
        let own_and_support = by_cell.cogroup(
            &supports.group_by_key_with(self.ctx.default_partitions())?,
            self.ctx.default_partitions(),
        )?;
        // Per point: (id, [(neighbor_id, dist)]) with exact k-NN.
        let knn: Dataset<(PointId, Vec<(PointId, f64)>)> =
            own_and_support.flat_map(move |(_, (own_groups, support_groups))| {
                let own: Vec<&Rec> = own_groups.iter().flatten().collect();
                let sup: Vec<&Rec> = support_groups.iter().flatten().collect();
                if own.is_empty() {
                    return Vec::new();
                }
                let Ok(mut all) = PointStore::new(dims) else {
                    return Vec::new();
                };
                // Local ids ascend with global ids, so the tree breaks
                // distance ties as Lof's tree over the whole store does.
                let mut members: Vec<&Rec> = own.iter().chain(&sup).copied().collect();
                members.sort_unstable_by_key(|r| r.id);
                let ids: Vec<PointId> = members.iter().map(|r| r.id).collect();
                for r in &members {
                    if all.push(r.coords()).is_err() {
                        return Vec::new();
                    }
                }
                let tree = KdTree::build(&all);
                own.iter()
                    .map(|r| {
                        let mut nn: Vec<(PointId, f64)> = tree
                            .knn(r.coords(), k + 1)
                            .into_iter()
                            .filter_map(|m| {
                                ids.get(m.id as usize).map(|&id| (id, m.sq_dist.sqrt()))
                            })
                            .filter(|&(id, _)| id != r.id)
                            .collect();
                        nn.truncate(k);
                        (r.id, nn)
                    })
                    .collect()
            })?;

        // k-distance per point.
        let kdist: Dataset<(PointId, f64)> =
            knn.map(|(id, nn)| (*id, nn.last().map(|&(_, d)| d).unwrap_or(0.0)))?;

        // Round 5a: exchange neighbor k-distances → lrd.
        // Emit (neighbor_id, (point_id, dist)) and join with kdist.
        let edges = knn.flat_map(|(id, nn)| {
            let id = *id;
            nn.iter()
                .map(move |&(o, d)| (o, (id, d)))
                .collect::<Vec<_>>()
        })?;
        let parts = self.ctx.default_partitions();
        let lrd: Dataset<(PointId, f64)> = kdist
            .join_with(&edges, parts)?
            .map(|(_, (kd_o, (p, d)))| (*p, (d.max(*kd_o), 1u32)))?
            .reduce_by_key_with(parts, |(s1, c1), (s2, c2)| (s1 + s2, c1 + c2))?
            .map(|(p, (sum, cnt))| {
                let mean = sum / *cnt as f64;
                let lrd = if mean == 0.0 {
                    crate::lof::LRD_CAP
                } else {
                    (1.0 / mean).min(crate::lof::LRD_CAP)
                };
                (*p, lrd)
            })?;

        // Round 5b: exchange neighbor lrds → LOF.
        let lof: Dataset<(PointId, f64)> = lrd
            .join_with(&edges, parts)?
            .map(|(_, (lrd_o, (p, _)))| (*p, (*lrd_o, 1u32)))?
            .reduce_by_key_with(parts, |(s1, c1), (s2, c2)| (s1 + s2, c1 + c2))?
            .join_with(&lrd, parts)?
            .map(|(p, ((sum, cnt), own_lrd))| {
                let mean = sum / *cnt as f64;
                (*p, mean / own_lrd)
            })?;

        let mut scores = vec![1.0f64; n];
        for (id, s) in lof.collect()? {
            if let Some(slot) = scores.get_mut(id as usize) {
                *slot = s;
            }
        }
        Ok(DdlofResult {
            scores,
            support_replicas,
            grid_cells,
        })
    }

    /// The ids of the `n` highest-LOF points, descending by score (ties
    /// broken by id) — the *top-N* variant of distributed LOF (Yan et
    /// al., IEEE BigData 2017, the paper's reference for DDLOF's
    /// follow-up).
    pub fn top_n(&self, store: &PointStore, n: usize) -> Result<Vec<PointId>, BaselineError> {
        let scores = self.score(store)?.scores;
        let mut idx: Vec<PointId> = (0..scores.len() as u32).collect();
        let score_at = |i: PointId| scores.get(i as usize).copied().unwrap_or(1.0);
        idx.sort_by(|&a, &b| score_at(b).total_cmp(&score_at(a)).then(a.cmp(&b)));
        idx.truncate(n);
        Ok(idx)
    }

    /// Binary decision: the `contamination` fraction with the highest
    /// LOF scores.
    pub fn detect(
        &self,
        store: &PointStore,
        contamination: f64,
    ) -> Result<Vec<bool>, BaselineError> {
        if !(0.0..=1.0).contains(&contamination) {
            return Err(BaselineError::InvalidParameter(
                "contamination must be in [0, 1]",
            ));
        }
        Ok(threshold_top_fraction(
            &self.score(store)?.scores,
            contamination,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lof::Lof;
    use dbscout_rng::Rng;

    fn ctx() -> Arc<ExecutionContext> {
        ExecutionContext::builder()
            .workers(4)
            .default_partitions(9)
            .build()
    }

    fn random_store(n: usize, seed: u64) -> PointStore {
        let mut rng = Rng::seed_from_u64(seed);
        PointStore::from_rows(
            2,
            (0..n).map(|_| vec![rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)]),
        )
        .unwrap()
    }

    #[test]
    fn matches_sequential_lof_exactly() {
        let store = random_store(300, 1);
        let dd = Ddlof::new(ctx(), 6).score(&store).unwrap();
        let seq = Lof::new(6).score(&store);
        for (i, (a, b)) in dd.scores.iter().zip(&seq.scores).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "point {i}: distributed {a} vs sequential {b}"
            );
        }
    }

    #[test]
    fn distance_ties_pick_the_neighbours_lof_picks() {
        // Lattice coordinates, so many distances tie. On the first set
        // point 10 scored 1.2138 against Lof's 1.4279 while each kd-tree
        // kept whichever tied point it met first; the second also needs
        // each cell's tree to number its points in global id order.
        let lattice = PointStore::from_rows(
            2,
            (0..12u64).map(|i| vec![((7 * i) % 12 * 4096) as f64, ((i * i) % 5 * 4096) as f64]),
        )
        .unwrap();
        let small = [
            [3.0, 3.0],
            [3.0, 2.0],
            [1.0, 2.0],
            [0.0, 0.0],
            [3.0, 1.0],
            [2.0, 1.0],
        ];
        let small = PointStore::from_rows(2, small.iter().map(|p| p.to_vec())).unwrap();
        for (name, store) in [("lattice", lattice), ("small", small)] {
            let seq = Lof::new(3).score(&store);
            for workers in [1, 2, 4] {
                for partitions in [1, 2, 4, 9] {
                    let ctx = ExecutionContext::builder()
                        .workers(workers)
                        .default_partitions(partitions)
                        .build();
                    for cells in [None, Some(1), Some(4), Some(16), Some(64)] {
                        let mut ddlof = Ddlof::new(Arc::clone(&ctx), 3);
                        if let Some(cells) = cells {
                            ddlof = ddlof.with_cells(cells);
                        }
                        let dd = ddlof.score(&store).unwrap();
                        for (i, (a, b)) in dd.scores.iter().zip(&seq.scores).enumerate() {
                            assert!(
                                (a - b).abs() < 1e-9,
                                "{name} point {i} ({workers} workers, {partitions} \
                                 partitions, cells {cells:?}): distributed {a} vs \
                                 sequential {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn outlier_gets_top_score() {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut rng = dbscout_rng::Rng::seed_from_u64(2);
        for _ in 0..200 {
            rows.push(vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]);
        }
        rows.push(vec![25.0, 25.0]);
        let store = PointStore::from_rows(2, rows).unwrap();
        let mask = Ddlof::new(ctx(), 6).detect(&store, 1.0 / 201.0).unwrap();
        assert!(mask[200]);
    }

    #[test]
    fn top_n_ranks_planted_outlier_first() {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut rng = dbscout_rng::Rng::seed_from_u64(8);
        for _ in 0..150 {
            rows.push(vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]);
        }
        rows.push(vec![30.0, -30.0]);
        let store = PointStore::from_rows(2, rows).unwrap();
        let top = Ddlof::new(ctx(), 6).top_n(&store, 3).unwrap();
        assert_eq!(top.len(), 3);
        assert_eq!(top[0], 150);
        // Requesting more than n points returns everything.
        assert_eq!(Ddlof::new(ctx(), 6).top_n(&store, 999).unwrap().len(), 151);
    }

    #[test]
    fn cell_count_does_not_change_scores() {
        let store = random_store(150, 3);
        let a = Ddlof::new(ctx(), 5).with_cells(1).score(&store).unwrap();
        let b = Ddlof::new(ctx(), 5).with_cells(16).score(&store).unwrap();
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn skew_inflates_support_replication() {
        // A dominant hotspot forces its huge k-distance bound cell to
        // pull supports — replication grows vs uniform data.
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut rng = dbscout_rng::Rng::seed_from_u64(4);
        for _ in 0..300 {
            rows.push(vec![rng.gen_range(-0.1..0.1), rng.gen_range(-0.1..0.1)]);
        }
        for _ in 0..30 {
            rows.push(vec![rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)]);
        }
        let skewed = PointStore::from_rows(2, rows).unwrap();
        let uniform = random_store(330, 5);
        let rs = Ddlof::new(ctx(), 6).with_cells(16).score(&skewed).unwrap();
        let ru = Ddlof::new(ctx(), 6).with_cells(16).score(&uniform).unwrap();
        assert!(
            rs.support_replicas > ru.support_replicas,
            "skewed {} !> uniform {}",
            rs.support_replicas,
            ru.support_replicas
        );
    }

    #[test]
    fn empty_and_invalid() {
        let empty = PointStore::new(2).unwrap();
        let r = Ddlof::new(ctx(), 6).score(&empty).unwrap();
        assert!(r.scores.is_empty());
        assert!(Ddlof::new(ctx(), 0).score(&random_store(10, 6)).is_err());
        assert!(Ddlof::new(ctx(), 3)
            .detect(&random_store(10, 7), 2.0)
            .is_err());
    }
}
