//! An RP-DBSCAN-like approximated parallel DBSCAN (after Song & Lee,
//! SIGMOD 2018), used as the scalable-competitor stand-in for the
//! efficiency experiments (Table II, Figs 10–13) and the quality
//! comparison (Tables IV–V).
//!
//! **Substitution note** (see `DESIGN.md`): the published RP-DBSCAN is a
//! closed-source Spark jar. This implementation reproduces its defining
//! mechanics —
//!
//! 1. **random partitioning** of points across workers,
//! 2. a **two-level cell dictionary** (ε-cells split into sub-cells of
//!    diagonal ρ·ε) built per partition, merged, and **broadcast to every
//!    worker** (the memory appetite the paper observes),
//! 3. **approximate neighborhood counting at sub-cell granularity**: a
//!    sub-cell's population is counted only when the whole sub-cell
//!    provably lies inside the ε-ball (`max dist ≤ ε`),
//! 4. a **cell-graph clustering step** (union-find over core cells) — the
//!    cluster-formation work any DBSCAN must do on top of outlier
//!    extraction,
//!
//! and therefore also its error *direction*: neighborhoods are
//! undercounted, so core-ness and coverage are under-detected and the
//! emitted outliers form a **superset** of the exact ones — false
//! positives but (in exact arithmetic) no false negatives, matching the
//! behaviour of Tables IV–V (FP 7–19% of output, FN ≈ 0.01%).

use std::sync::Arc;

use dbscout_dataflow::shuffle::DetHashMap;
use dbscout_dataflow::{Dataset, ExecutionContext};
use dbscout_spatial::cell::{cell_of, cell_side, CellCoord, MAX_DIMS};
use dbscout_spatial::points::PointId;
use dbscout_spatial::{check_point, NeighborOffsets, PointStore};

use crate::error::BaselineError;

/// A point record with inlined coordinates (same role as the one in
/// `dbscout-core`, duplicated here to keep the baselines crate
/// independent of the core crate).
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

/// The RP-DBSCAN-like detector.
#[derive(Debug, Clone)]
pub struct RpDbscan {
    ctx: Arc<ExecutionContext>,
    eps: f64,
    min_pts: usize,
    rho: f64,
    num_partitions: usize,
}

/// Output of a run.
#[derive(Debug, Clone)]
pub struct RpDbscanResult {
    /// Approximate outlier mask (superset of the exact outliers).
    pub outlier_mask: Vec<bool>,
    /// Approximate core-point count.
    pub num_core: usize,
    /// Number of clusters formed by the cell-graph step.
    pub num_clusters: usize,
    /// Size of the merged sub-cell dictionary (the broadcast structure).
    pub dictionary_size: usize,
}

impl RpDbscan {
    /// A detector with the paper's standard approximation ρ = 0.01.
    pub fn new(ctx: Arc<ExecutionContext>, eps: f64, min_pts: usize) -> Self {
        let num_partitions = ctx.default_partitions();
        Self {
            ctx,
            eps,
            min_pts,
            rho: 0.01,
            num_partitions,
        }
    }

    /// Overrides the approximation parameter ρ ∈ (0, 1].
    pub fn with_rho(mut self, rho: f64) -> Self {
        self.rho = rho;
        self
    }

    /// Overrides the number of random partitions.
    pub fn with_partitions(mut self, n: usize) -> Self {
        self.num_partitions = n.max(1);
        self
    }

    /// Runs the approximated detection.
    pub fn detect(&self, store: &PointStore) -> Result<RpDbscanResult, BaselineError> {
        if !(self.rho > 0.0 && self.rho <= 1.0) {
            return Err(BaselineError::InvalidParameter("rho must be in (0, 1]"));
        }
        dbscout_spatial::validate_eps(self.eps).map_err(BaselineError::Spatial)?;
        if self.min_pts == 0 {
            return Err(BaselineError::InvalidParameter("min_pts must be >= 1"));
        }
        let dims = store.dims();
        let n = store.len() as usize;
        let side = cell_side(self.eps, dims);
        // m sub-cells per cell side; sub-cell diagonal ≤ ρ·ε.
        let m = (1.0 / self.rho).ceil() as i64;
        let sub_side = side / m as f64;
        // Sub-cells are the finest cells here, so the range is checked
        // against their side: within it `cell_of` and every sub-cell
        // corner are exact, and no cell index nears the ends of `i64`.
        for (id, p) in store.iter() {
            check_point(id as usize, p, sub_side)?;
        }
        let eps_sq = self.eps * self.eps;
        let min_pts = self.min_pts;
        let offsets = Arc::new(NeighborOffsets::new(dims)?);

        // Phase 1: random partitioning (round-robin redistribution of the
        // input order — the pseudo-random split of RP-DBSCAN).
        let recs: Vec<Rec> = store.iter().map(|(id, p)| Rec::new(id, p)).collect();
        let points: Dataset<Rec> = self
            .ctx
            .parallelize(recs, self.num_partitions)
            .repartition(self.num_partitions)?;

        // Phase 2: per-partition two-level dictionaries, merged by key
        // and broadcast. Key = sub-cell coordinate; parent ε-cell is
        // derived by integer division.
        let sub_counts = points
            .map_partitions(|part| {
                let mut local: DetHashMap<CellCoord, u32> = DetHashMap::default();
                for rec in part {
                    *local.entry(cell_of(rec.coords(), sub_side)).or_insert(0) += 1;
                }
                local.into_iter().collect()
            })?
            .reduce_by_key_with(self.num_partitions, |a, b| a + b)?
            .collect()?;
        let mut dictionary: DetHashMap<CellCoord, Vec<(CellCoord, u32)>> = DetHashMap::default();
        for (sub, count) in sub_counts {
            dictionary
                .entry(parent_cell(&sub, m))
                .or_default()
                .push((sub, count));
        }
        let dictionary_size: usize = dictionary.values().map(Vec::len).sum();
        let dict = self.ctx.broadcast(dictionary);

        // Phase 3: approximate core marking at **sub-cell granularity**,
        // as in RP-DBSCAN's cell-dictionary density test: a sub-cell is
        // core iff the total population of sub-cells provably inside the
        // ε-ball of *every* point of it (box-to-box max distance ≤ ε)
        // reaches minPts; every point of a core sub-cell is then provably
        // a true core point, so the approximation errs only toward
        // missing borderline cores — the source of the false-positive
        // outliers of Tables IV–V.
        let distinct_subs: Vec<CellCoord> = dict
            .values()
            .flat_map(|subs| subs.iter().map(|(s, _)| *s))
            .collect();
        let core_subcells: Vec<CellCoord> = {
            let dict = dict.clone();
            let offsets = Arc::clone(&offsets);
            self.ctx
                .parallelize(distinct_subs, self.num_partitions)
                .flat_map(move |sub| {
                    let cell = parent_cell(sub, m);
                    let mut count: usize = 0;
                    'offsets: for off in offsets.iter() {
                        let Some(ncell) = NeighborOffsets::apply(&cell, off) else {
                            continue;
                        };
                        let Some(subs) = dict.get(&ncell) else {
                            continue;
                        };
                        for (other, c) in subs {
                            if max_sq_dist_between_cells(sub, other, sub_side) <= eps_sq {
                                count += *c as usize;
                                if count >= min_pts {
                                    break 'offsets;
                                }
                            }
                        }
                    }
                    (count >= min_pts).then_some(*sub)
                })?
                .collect()?
        };
        let core_sub_set: DetHashMap<CellCoord, ()> =
            core_subcells.iter().map(|s| (*s, ())).collect();
        let core_set = self.ctx.broadcast(core_sub_set);
        let core_flags = {
            let core_set = core_set.clone();
            points.map(move |rec| {
                let sub = cell_of(rec.coords(), sub_side);
                (*rec, core_set.contains_key(&sub))
            })?
        };
        let mut core_dict: DetHashMap<CellCoord, Vec<CellCoord>> = DetHashMap::default();
        for sub in &core_subcells {
            core_dict.entry(parent_cell(sub, m)).or_default().push(*sub);
        }

        // Phase 4: cell-graph clustering (union-find over core cells):
        // the cluster-formation cost every DBSCAN carries. Two core cells
        // merge when they are grid neighbors with a provably-within-ε
        // pair of core sub-cells (sub-cell center distance test).
        let core_cells: Vec<CellCoord> = core_dict.keys().copied().collect();
        let mut cell_index: DetHashMap<CellCoord, usize> = DetHashMap::default();
        for (i, c) in core_cells.iter().enumerate() {
            cell_index.insert(*c, i);
        }
        let mut uf = UnionFind::new(core_cells.len());
        for (i, cell) in core_cells.iter().enumerate() {
            for off in offsets.iter() {
                let Some(ncell) = NeighborOffsets::apply(cell, off) else {
                    continue;
                };
                let Some(&j) = cell_index.get(&ncell) else {
                    continue;
                };
                if j <= i {
                    continue;
                }
                let (Some(subs_a), Some(subs_b)) = (core_dict.get(cell), core_dict.get(&ncell))
                else {
                    continue;
                };
                if core_cells_linked(subs_a, subs_b, sub_side, eps_sq) {
                    uf.union(i, j);
                }
            }
        }
        let num_clusters = uf.num_roots();

        // Phase 5: outlier extraction at sub-cell granularity, as in
        // RP-DBSCAN's cell-level labelling: a point inherits its
        // sub-cell's verdict, and a sub-cell counts as covered only when
        // its whole box is provably within ε of a core sub-cell's box.
        // Boundary sub-cells fail this conservative test, which is where
        // the approximation's false-positive outliers come from.
        let core_bcast = self.ctx.broadcast(core_dict);
        let outliers = {
            let offsets = Arc::clone(&offsets);
            core_flags.flat_map(move |(rec, is_core)| {
                if *is_core {
                    return None;
                }
                let p = rec.coords();
                let own_sub = cell_of(p, sub_side);
                let cell = cell_of(p, side);
                for off in offsets.iter() {
                    let Some(ncell) = NeighborOffsets::apply(&cell, off) else {
                        continue;
                    };
                    let Some(subs) = core_bcast.get(&ncell) else {
                        continue;
                    };
                    for sub in subs {
                        if max_sq_dist_between_cells(&own_sub, sub, sub_side) <= eps_sq {
                            return None; // whole sub-cell provably covered
                        }
                    }
                }
                Some(rec.id)
            })?
        };

        let mut outlier_mask = vec![false; n];
        for id in outliers.collect()? {
            if let Some(slot) = outlier_mask.get_mut(id as usize) {
                *slot = true;
            }
        }
        let num_core = core_flags.filter(|(_, is_core)| *is_core)?.count();
        Ok(RpDbscanResult {
            outlier_mask,
            num_core,
            num_clusters,
            dictionary_size,
        })
    }
}

/// Parent ε-cell of a sub-cell coordinate (floor division by `m`).
fn parent_cell(sub: &CellCoord, m: i64) -> CellCoord {
    let mut parent = [0i64; MAX_DIMS];
    for (slot, &c) in parent.iter_mut().zip(sub.coords()) {
        *slot = c.div_euclid(m);
    }
    // sub.dims() <= MAX_DIMS by construction, so the range is valid.
    CellCoord::from_slice(parent.get(..sub.dims()).unwrap_or(&parent))
}

/// Squared maximum distance between any point of box `a` and any point of
/// box `b` (both of side `side`).
fn max_sq_dist_between_cells(a: &CellCoord, b: &CellCoord, side: f64) -> f64 {
    let mut acc = 0.0;
    for (&ca, &cb) in a.coords().iter().zip(b.coords()) {
        let (alo, ahi) = (ca as f64 * side, (ca + 1) as f64 * side);
        let (blo, bhi) = (cb as f64 * side, (cb + 1) as f64 * side);
        let gap = (ahi - blo).abs().max((bhi - alo).abs());
        acc += gap * gap;
    }
    acc
}

/// Whether two core cells have a core-sub-cell pair provably within ε
/// (all-corners test via per-axis extremes of the two sub-cell boxes).
fn core_cells_linked(
    subs_a: &[CellCoord],
    subs_b: &[CellCoord],
    sub_side: f64,
    eps_sq: f64,
) -> bool {
    for a in subs_a {
        // Max distance from any point of box `a` to box `b` ≤ ε ⇒ linked.
        for b in subs_b {
            if max_sq_dist_between_cells(a, b, sub_side) <= eps_sq {
                return true;
            }
        }
    }
    false
}

/// Plain union-find with path compression.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while let Some(&p) = self.parent.get(x) {
            if p == x {
                break;
            }
            // Path halving: point x at its grandparent, then hop.
            let gp = self.parent.get(p).copied().unwrap_or(p);
            if let Some(slot) = self.parent.get_mut(x) {
                *slot = gp;
            }
            x = gp;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            if let Some(slot) = self.parent.get_mut(ra) {
                *slot = rb;
            }
        }
    }

    fn num_roots(&mut self) -> usize {
        let n = self.parent.len();
        (0..n).filter(|&i| self.find(i) == i).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::Dbscan;

    fn ctx() -> Arc<ExecutionContext> {
        ExecutionContext::builder()
            .workers(4)
            .default_partitions(4)
            .build()
    }

    fn clustered_store() -> PointStore {
        let mut rows = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                rows.push(vec![i as f64 * 0.15, j as f64 * 0.15]);
            }
        }
        for i in 0..10 {
            for j in 0..10 {
                rows.push(vec![20.0 + i as f64 * 0.15, j as f64 * 0.15]);
            }
        }
        rows.push(vec![10.0, 10.0]);
        rows.push(vec![-8.0, 4.0]);
        PointStore::from_rows(2, rows).unwrap()
    }

    #[test]
    fn outliers_are_superset_of_exact() {
        let store = clustered_store();
        let (eps, min_pts) = (1.0, 5);
        let exact = Dbscan::new(eps, min_pts).fit(&store).unwrap().noise_mask();
        let approx = RpDbscan::new(ctx(), eps, min_pts)
            .detect(&store)
            .unwrap()
            .outlier_mask;
        for (i, (&e, &a)) in exact.iter().zip(&approx).enumerate() {
            if e {
                assert!(a, "exact outlier {i} missed (false negative)");
            }
        }
    }

    #[test]
    fn planted_outliers_are_found() {
        let store = clustered_store();
        let r = RpDbscan::new(ctx(), 1.0, 5).detect(&store).unwrap();
        assert!(r.outlier_mask[200]);
        assert!(r.outlier_mask[201]);
        assert!(r.num_core > 150, "num_core {}", r.num_core);
    }

    #[test]
    fn finds_two_clusters() {
        let store = clustered_store();
        let r = RpDbscan::new(ctx(), 1.0, 5).detect(&store).unwrap();
        assert_eq!(r.num_clusters, 2);
    }

    #[test]
    fn coarser_rho_means_more_false_positives() {
        let store = clustered_store();
        let fine = RpDbscan::new(ctx(), 1.0, 5)
            .with_rho(0.01)
            .detect(&store)
            .unwrap();
        let coarse = RpDbscan::new(ctx(), 1.0, 5)
            .with_rho(0.5)
            .detect(&store)
            .unwrap();
        let count = |m: &[bool]| m.iter().filter(|&&x| x).count();
        assert!(
            count(&coarse.outlier_mask) >= count(&fine.outlier_mask),
            "coarse {} < fine {}",
            count(&coarse.outlier_mask),
            count(&fine.outlier_mask)
        );
        assert!(fine.dictionary_size >= coarse.dictionary_size);
    }

    #[test]
    fn partition_count_does_not_change_result() {
        let store = clustered_store();
        let base = RpDbscan::new(ctx(), 1.0, 5)
            .with_partitions(1)
            .detect(&store)
            .unwrap();
        for parts in [2, 8, 32] {
            let r = RpDbscan::new(ctx(), 1.0, 5)
                .with_partitions(parts)
                .detect(&store)
                .unwrap();
            assert_eq!(r.outlier_mask, base.outlier_mask, "partitions {parts}");
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        let store = clustered_store();
        assert!(RpDbscan::new(ctx(), 1.0, 5)
            .with_rho(0.0)
            .detect(&store)
            .is_err());
        assert!(RpDbscan::new(ctx(), -1.0, 5).detect(&store).is_err());
        assert!(RpDbscan::new(ctx(), 1.0, 0).detect(&store).is_err());
    }

    #[test]
    fn empty_input() {
        let store = PointStore::new(2).unwrap();
        let r = RpDbscan::new(ctx(), 1.0, 5).detect(&store).unwrap();
        assert!(r.outlier_mask.is_empty());
        assert_eq!(r.num_clusters, 0);
    }
}
