//! The cell-major incremental engine.
//!
//! Live points sit in a [`MutableCellMajor`] — the slack-slot mutable
//! companion of the batch [`dbscout_spatial::CellMajorStore`] — so every
//! ε-neighborhood enumeration runs through the same audited counted
//! kernels as the batch fast path: bbox pruning via
//! `min_sq_dist_to_bbox`, [`KernelKind`] dispatch (scalar or
//! lane-unrolled), and [`KernelCounters`] accounting. Labels, exact
//! neighbor counts, and liveness stay id-indexed side arrays, exactly as
//! in the hashed engine; only the neighborhood scan differs.
//!
//! The algorithm (delta evaluation on insert and delete) is documented
//! on the facade ([`crate::incremental`]).

use dbscout_spatial::cell::{cell_of, cell_side};
use dbscout_spatial::mutable::MutableCellMajor;
use dbscout_spatial::points::PointId;
use dbscout_spatial::{KernelKind, NeighborOffsets, PointStore, SpatialError};
use dbscout_telemetry::KernelCounters;

use crate::error::Result;
use crate::labels::{OutlierResult, PhaseTimings, PointLabel, RunStats};
use crate::params::DbscoutParams;

/// Cell-major incremental state: columnar live points, counted kernels.
#[derive(Debug, Clone)]
pub(crate) struct CellMajorEngine {
    params: DbscoutParams,
    side: f64,
    /// Every point ever inserted, by id — removed points keep their
    /// coordinates here (ids are never recycled), so `store()` and the
    /// delete path's "where was it" lookups stay O(1).
    all_points: PointStore,
    /// Live points only, in the mutable slack-slot layout the kernels
    /// scan.
    mstore: MutableCellMajor,
    offsets: NeighborOffsets,
    /// Exact ε-neighbor count per point (self included).
    counts: Vec<u32>,
    labels: Vec<PointLabel>,
    alive: Vec<bool>,
    num_alive: usize,
    /// The resolved distance kernel (never `Auto`).
    kernel: KernelKind,
    counters: KernelCounters,
}

impl CellMajorEngine {
    pub(crate) fn new(dims: usize, params: DbscoutParams, kernel: KernelKind) -> Result<Self> {
        let offsets = NeighborOffsets::new(dims)?;
        let mstore = MutableCellMajor::new(dims, params.eps)?;
        Ok(Self {
            params,
            side: cell_side(params.eps, dims),
            all_points: PointStore::new(dims)?,
            mstore,
            offsets,
            counts: Vec::new(),
            labels: Vec::new(),
            alive: Vec::new(),
            num_alive: 0,
            kernel: kernel.resolve(),
            counters: KernelCounters::new(),
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.num_alive
    }

    pub(crate) fn total_inserted(&self) -> usize {
        self.labels.len()
    }

    pub(crate) fn is_alive(&self, id: PointId) -> bool {
        self.alive.get(id as usize).copied().unwrap_or(false)
    }

    pub(crate) fn params(&self) -> DbscoutParams {
        self.params
    }

    pub(crate) fn kernel(&self) -> KernelKind {
        self.kernel
    }

    pub(crate) fn label(&self, id: PointId) -> PointLabel {
        self.labels
            .get(id as usize)
            .copied()
            .unwrap_or(PointLabel::Outlier)
    }

    pub(crate) fn labels(&self) -> &[PointLabel] {
        &self.labels
    }

    pub(crate) fn outliers(&self) -> Vec<PointId> {
        self.labels
            .iter()
            .zip(&self.alive)
            .enumerate()
            .filter(|&(_, (l, &alive))| alive && l.is_outlier())
            .map(|(i, _)| i as PointId)
            .collect()
    }

    pub(crate) fn store(&self) -> &PointStore {
        &self.all_points
    }

    pub(crate) fn kernel_counters(&self) -> KernelCounters {
        self.counters
    }

    pub(crate) fn rebuilds(&self) -> u64 {
        self.mstore.rebuilds()
    }

    pub(crate) fn compactions(&self) -> u64 {
        self.mstore.compactions()
    }

    pub(crate) fn snapshot(&self) -> OutlierResult {
        let labels: Vec<PointLabel> = self
            .labels
            .iter()
            .zip(&self.alive)
            .map(|(&l, &alive)| if alive { l } else { PointLabel::Covered })
            .collect();
        let min_pts = self.params.min_pts;
        let mut dense_cells = 0;
        let mut core_cells = 0;
        let ids = self.mstore.store().orig_ids();
        for (_, range) in self.mstore.live_ranges() {
            dense_cells += usize::from(range.len() >= min_pts);
            let has_core = range.clone().any(|slot| {
                ids.get(slot)
                    .and_then(|&id| self.labels.get(id as usize))
                    .map(|l| matches!(l, PointLabel::Core))
                    .unwrap_or(false)
            });
            core_cells += usize::from(has_core);
        }
        let stats = RunStats {
            num_cells: self.mstore.num_live_cells(),
            dense_cells,
            core_cells,
            ..RunStats::default()
        };
        OutlierResult::from_labels(labels, stats, PhaseTimings::default())
    }

    /// Rejects points the store would reject, without mutating it.
    fn validate(&self, point: &[f64]) -> Result<()> {
        if point.len() != self.all_points.dims() {
            return Err(SpatialError::DimensionMismatch {
                expected: self.all_points.dims(),
                got: point.len(),
            }
            .into());
        }
        for (dim, &x) in point.iter().enumerate() {
            if !x.is_finite() {
                return Err(SpatialError::NonFiniteCoordinate {
                    point: self.total_inserted(),
                    dim,
                }
                .into());
            }
        }
        Ok(())
    }

    /// Collects the ids of every live point within ε of `point` via the
    /// counted kernels: per neighbor cell, bbox prune then a
    /// kernel-dispatched columnar scan over the cell's live run.
    fn neighbors_of(&mut self, point: &[f64], out: &mut Vec<PointId>) {
        out.clear();
        let coord = cell_of(point, self.side);
        let eps_sq = self.params.eps_sq();
        let mut slots: Vec<u32> = Vec::new();
        for off in self.offsets.iter() {
            let Some(ncoord) = NeighborOffsets::apply(&coord, off) else {
                continue;
            };
            let store = self.mstore.store();
            let Some(ci) = store.cell_index(&ncoord) else {
                continue;
            };
            let Some(rec) = store.cells().get(ci as usize).copied() else {
                continue;
            };
            if rec.is_empty() {
                continue;
            }
            self.counters.cells_visited += 1;
            if store.min_sq_dist_to_bbox(point, ci as usize) > eps_sq {
                self.counters.bbox_prunes += 1;
                continue;
            }
            slots.clear();
            let comps =
                store.collect_within_kernel(point, rec.range(), eps_sq, self.kernel, &mut slots);
            self.counters.distance_evals += comps;
            let ids = store.orig_ids();
            for &slot in &slots {
                if let Some(&id) = ids.get(slot as usize) {
                    out.push(id);
                }
            }
        }
    }

    pub(crate) fn insert(&mut self, point: &[f64]) -> Result<PointId> {
        let id = self.all_points.push(point)?;
        let min_pts = self.params.min_pts as u32;

        // ε-neighbors among the live points (the new point is not in the
        // mutable store yet), exactly the set the hashed engine scans.
        let mut nbrs: Vec<PointId> = Vec::new();
        self.neighbors_of(point, &mut nbrs);
        let my_count = 1 + nbrs.len() as u32;
        let mut newly_core: Vec<PointId> = Vec::new();
        for &q in &nbrs {
            if let Some(cnt) = self.counts.get_mut(q as usize) {
                *cnt += 1;
                if *cnt == min_pts {
                    newly_core.push(q);
                }
            }
        }

        // Label the new point before registering it, so the coverage scan
        // only ever sees fully-labelled points.
        let label = if my_count >= min_pts {
            newly_core.push(id);
            PointLabel::Core
        } else if nbrs
            .iter()
            .any(|&q| self.labels.get(q as usize) == Some(&PointLabel::Core))
        {
            PointLabel::Covered
        } else {
            PointLabel::Outlier
        };
        self.mstore
            .insert(id, point)
            .map_err(crate::DbscoutError::from)?;
        self.counts.push(my_count);
        self.labels.push(label);
        self.alive.push(true);
        self.num_alive += 1;

        // Every newly-core point upgrades itself and rescues the former
        // outliers inside its ε-ball (monotone: no downgrade can occur).
        let mut cn: Vec<PointId> = Vec::new();
        for c in newly_core {
            if let Some(l) = self.labels.get_mut(c as usize) {
                *l = PointLabel::Core;
            }
            let cpoint = self.all_points.point(c).to_vec();
            self.neighbors_of(&cpoint, &mut cn);
            for &q in &cn {
                if self.labels.get(q as usize) == Some(&PointLabel::Outlier) {
                    if let Some(l) = self.labels.get_mut(q as usize) {
                        *l = PointLabel::Covered;
                    }
                }
            }
        }
        Ok(id)
    }

    pub(crate) fn remove(&mut self, id: PointId) -> bool {
        if !self.is_alive(id) {
            return false;
        }
        let min_pts = self.params.min_pts as u32;
        let point = self.all_points.point(id).to_vec();

        // Unregister first, so every scan below sees the survivor set.
        self.mstore.remove(id);
        if let Some(a) = self.alive.get_mut(id as usize) {
            *a = false;
        }
        self.num_alive -= 1;

        // Decrement neighbor counts; collect core points that lost their
        // status, plus the removed point itself if it was core — their
        // coverage contributions vanish together.
        let mut lost_cores: Vec<PointId> = Vec::new();
        if self.labels.get(id as usize) == Some(&PointLabel::Core) {
            lost_cores.push(id);
        }
        let mut nbrs: Vec<PointId> = Vec::new();
        self.neighbors_of(&point, &mut nbrs);
        for &q in &nbrs {
            let demoted = match self.counts.get_mut(q as usize) {
                Some(cnt) => {
                    *cnt -= 1;
                    *cnt == min_pts - 1
                }
                None => false,
            };
            if demoted && self.labels.get(q as usize) == Some(&PointLabel::Core) {
                lost_cores.push(q);
            }
        }

        // First drop every lost core out of the Core class so the
        // coverage scans below see the post-removal core set...
        for &c in &lost_cores {
            if let Some(l) = self.labels.get_mut(c as usize) {
                *l = PointLabel::Covered; // provisional
            }
        }
        // ...then re-evaluate every live point that may have depended on
        // a lost core: the demoted points themselves and all Covered
        // points within ε of any lost core.
        let mut affected: Vec<PointId> = Vec::new();
        let mut cn: Vec<PointId> = Vec::new();
        for &c in &lost_cores {
            if c != id {
                affected.push(c);
            }
            let cpoint = self.all_points.point(c).to_vec();
            self.neighbors_of(&cpoint, &mut cn);
            for &r in &cn {
                if self.labels.get(r as usize) == Some(&PointLabel::Covered) {
                    affected.push(r);
                }
            }
        }
        affected.sort_unstable();
        affected.dedup();
        let mut rn: Vec<PointId> = Vec::new();
        for r in affected {
            if self.labels.get(r as usize) == Some(&PointLabel::Core) {
                continue; // still core through its own count
            }
            let rpoint = self.all_points.point(r).to_vec();
            self.neighbors_of(&rpoint, &mut rn);
            let covered = rn
                .iter()
                .any(|&q| self.labels.get(q as usize) == Some(&PointLabel::Core));
            let verdict = if covered {
                PointLabel::Covered
            } else {
                PointLabel::Outlier
            };
            if let Some(l) = self.labels.get_mut(r as usize) {
                *l = verdict;
            }
        }
        true
    }

    /// Classifies a point as if it were inserted, without inserting it.
    /// Pinned equal to "insert, read the label" by the property suite.
    pub(crate) fn probe(&mut self, point: &[f64]) -> Result<PointLabel> {
        self.validate(point)?;
        let min_pts = self.params.min_pts as u32;
        let mut nbrs: Vec<PointId> = Vec::new();
        self.neighbors_of(point, &mut nbrs);
        if 1 + nbrs.len() as u32 >= min_pts {
            return Ok(PointLabel::Core);
        }
        // Covered if a neighbor is core already, or would become core
        // with the probe point as its one extra neighbor.
        let covered = nbrs.iter().any(|&q| {
            self.labels.get(q as usize) == Some(&PointLabel::Core)
                || self.counts.get(q as usize).copied() == Some(min_pts - 1)
        });
        Ok(if covered {
            PointLabel::Covered
        } else {
            PointLabel::Outlier
        })
    }
}
