//! The legacy hashed-map incremental engine.
//!
//! Points live in per-cell `Vec<PointId>` lists behind a deterministic
//! `HashMap` — the layout the incremental core shipped with before the
//! cell-major port. It remains as the [`ExecutionLayout::Hashed`]
//! engine: simple, allocation-heavy, always scalar distances (there is
//! no columnar run to unroll over). The algorithm — delta evaluation on
//! insert and delete — is documented on the facade
//! ([`crate::incremental`]); this module only differs in *how*
//! ε-neighborhoods are enumerated.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use dbscout_spatial::cell::{cell_of, cell_side, CellCoord};
use dbscout_spatial::distance::within;
use dbscout_spatial::points::PointId;
use dbscout_spatial::{NeighborOffsets, PointStore, SpatialError};
use dbscout_telemetry::KernelCounters;

use crate::error::Result;
use crate::labels::{OutlierResult, PhaseTimings, PointLabel, RunStats};
use crate::params::DbscoutParams;

#[allow(unused_imports)] // rustdoc link target
use crate::native::ExecutionLayout;

type DetState = BuildHasherDefault<DefaultHasher>;

/// Hashed-map incremental state: per-cell id lists, scalar distances.
#[derive(Debug, Clone)]
pub(crate) struct HashedEngine {
    params: DbscoutParams,
    side: f64,
    store: PointStore,
    cells: HashMap<CellCoord, Vec<PointId>, DetState>,
    offsets: NeighborOffsets,
    /// Exact ε-neighbor count per point (self included).
    counts: Vec<u32>,
    labels: Vec<PointLabel>,
    /// Tombstones: `false` once a point has been removed. Removed points
    /// keep their slot (ids stay stable) but leave every computation.
    alive: Vec<bool>,
    num_alive: usize,
    counters: KernelCounters,
}

impl HashedEngine {
    pub(crate) fn new(dims: usize, params: DbscoutParams) -> Result<Self> {
        let offsets = NeighborOffsets::new(dims)?;
        Ok(Self {
            params,
            side: cell_side(params.eps, dims),
            store: PointStore::new(dims)?,
            cells: HashMap::default(),
            offsets,
            counts: Vec::new(),
            labels: Vec::new(),
            alive: Vec::new(),
            num_alive: 0,
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
        &self.store
    }

    pub(crate) fn kernel_counters(&self) -> KernelCounters {
        self.counters
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
        // xlint: ordered -- counting matches is order-insensitive
        for ids in self.cells.values() {
            dense_cells += usize::from(ids.len() >= min_pts);
            let has_core = ids
                .iter()
                .any(|&id| self.labels.get(id as usize) == Some(&PointLabel::Core));
            core_cells += usize::from(has_core);
        }
        let stats = RunStats {
            num_cells: self.cells.len(),
            dense_cells,
            core_cells,
            ..RunStats::default()
        };
        OutlierResult::from_labels(labels, stats, PhaseTimings::default())
    }

    /// Rejects points the store would reject, without mutating it.
    fn validate(&self, point: &[f64]) -> Result<()> {
        if point.len() != self.store.dims() {
            return Err(SpatialError::DimensionMismatch {
                expected: self.store.dims(),
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

    pub(crate) fn insert(&mut self, point: &[f64]) -> Result<PointId> {
        let id = self.store.push(point)?;
        let eps_sq = self.params.eps_sq();
        let min_pts = self.params.min_pts as u32;
        let cell = cell_of(point, self.side);

        // Find all ε-neighbors of the new point among existing points and
        // bump their counts; collect the ones that just became core.
        let mut my_count = 1u32; // self
        let mut newly_core: Vec<PointId> = Vec::new();
        for off in self.offsets.iter() {
            let Some(ncell) = NeighborOffsets::apply(&cell, off) else {
                continue;
            };
            let Some(ids) = self.cells.get(&ncell) else {
                continue;
            };
            self.counters.cells_visited += 1;
            self.counters.distance_evals += ids.len() as u64;
            for &q in ids {
                if within(point, self.store.point(q), eps_sq) {
                    my_count += 1;
                    if let Some(cnt) = self.counts.get_mut(q as usize) {
                        *cnt += 1;
                        if *cnt == min_pts {
                            newly_core.push(q);
                        }
                    }
                }
            }
        }

        // Label the new point before registering it, so the coverage scan
        // only ever sees fully-labelled points.
        let label = if my_count >= min_pts {
            newly_core.push(id);
            PointLabel::Core
        } else if self.covered_by_core(point, &cell) {
            PointLabel::Covered
        } else {
            PointLabel::Outlier
        };
        self.cells.entry(cell).or_default().push(id);
        self.counts.push(my_count);
        self.labels.push(label);
        self.alive.push(true);
        self.num_alive += 1;

        // Every newly-core point upgrades itself and rescues the former
        // outliers inside its ε-ball (monotone: no downgrade can occur).
        for c in newly_core {
            if let Some(l) = self.labels.get_mut(c as usize) {
                *l = PointLabel::Core;
            }
            let (ccell, cpoint) = {
                let p = self.store.point(c);
                (cell_of(p, self.side), p.to_vec())
            };
            for off in self.offsets.iter() {
                let Some(ncell) = NeighborOffsets::apply(&ccell, off) else {
                    continue;
                };
                let Some(ids) = self.cells.get(&ncell) else {
                    continue;
                };
                self.counters.cells_visited += 1;
                for &q in ids {
                    if self.labels.get(q as usize) != Some(&PointLabel::Outlier) {
                        continue;
                    }
                    self.counters.distance_evals += 1;
                    if within(&cpoint, self.store.point(q), eps_sq) {
                        if let Some(l) = self.labels.get_mut(q as usize) {
                            *l = PointLabel::Covered;
                        }
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
        let eps_sq = self.params.eps_sq();
        let min_pts = self.params.min_pts as u32;
        let point = self.store.point(id).to_vec();
        let cell = cell_of(&point, self.side);

        // Unregister the point. A live point is always indexed under its
        // cell; tolerating a missing entry keeps this path panic-free.
        if let Some(a) = self.alive.get_mut(id as usize) {
            *a = false;
        }
        self.num_alive -= 1;
        if let Some(members) = self.cells.get_mut(&cell) {
            if let Some(pos) = members.iter().position(|&q| q == id) {
                members.swap_remove(pos);
            }
            if members.is_empty() {
                self.cells.remove(&cell);
            }
        }

        // Decrement neighbor counts; collect core points that lost their
        // status, plus the removed point itself if it was core — their
        // coverage contributions vanish together.
        let mut lost_cores: Vec<PointId> = Vec::new();
        if self.labels.get(id as usize) == Some(&PointLabel::Core) {
            lost_cores.push(id);
        }
        for off in self.offsets.iter() {
            let Some(ncell) = NeighborOffsets::apply(&cell, off) else {
                continue;
            };
            let Some(ids) = self.cells.get(&ncell) else {
                continue;
            };
            self.counters.cells_visited += 1;
            self.counters.distance_evals += ids.len() as u64;
            for &q in ids {
                if within(&point, self.store.point(q), eps_sq) {
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
        for &c in &lost_cores {
            if c != id {
                affected.push(c);
            }
            let cpoint = self.store.point(c).to_vec();
            let ccell = cell_of(&cpoint, self.side);
            for off in self.offsets.iter() {
                let Some(ncell) = NeighborOffsets::apply(&ccell, off) else {
                    continue;
                };
                let Some(ids) = self.cells.get(&ncell) else {
                    continue;
                };
                self.counters.cells_visited += 1;
                for &r in ids {
                    if self.labels.get(r as usize) != Some(&PointLabel::Covered) {
                        continue;
                    }
                    self.counters.distance_evals += 1;
                    if within(&cpoint, self.store.point(r), eps_sq) {
                        affected.push(r);
                    }
                }
            }
        }
        affected.sort_unstable();
        affected.dedup();
        for r in affected {
            if self.labels.get(r as usize) == Some(&PointLabel::Core) {
                continue; // still core through its own count
            }
            let rpoint = self.store.point(r).to_vec();
            let rcell = cell_of(&rpoint, self.side);
            let verdict = if self.covered_by_core(&rpoint, &rcell) {
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
        let eps_sq = self.params.eps_sq();
        let min_pts = self.params.min_pts as u32;
        let cell = cell_of(point, self.side);
        let mut count = 1u32; // the probe point itself
        let mut covered = false;
        for off in self.offsets.iter() {
            let Some(ncell) = NeighborOffsets::apply(&cell, off) else {
                continue;
            };
            let Some(ids) = self.cells.get(&ncell) else {
                continue;
            };
            self.counters.cells_visited += 1;
            self.counters.distance_evals += ids.len() as u64;
            for &q in ids {
                if within(point, self.store.point(q), eps_sq) {
                    count += 1;
                    // Covered if q is core already, or would become core
                    // with the probe point as its one extra neighbor.
                    covered = covered
                        || self.labels.get(q as usize) == Some(&PointLabel::Core)
                        || self.counts.get(q as usize).copied() == Some(min_pts - 1);
                }
            }
        }
        Ok(if count >= min_pts {
            PointLabel::Core
        } else if covered {
            PointLabel::Covered
        } else {
            PointLabel::Outlier
        })
    }

    /// Whether `point` lies within ε of some existing core point.
    fn covered_by_core(&mut self, point: &[f64], cell: &CellCoord) -> bool {
        let eps_sq = self.params.eps_sq();
        for off in self.offsets.iter() {
            let Some(ncell) = NeighborOffsets::apply(cell, off) else {
                continue;
            };
            let Some(ids) = self.cells.get(&ncell) else {
                continue;
            };
            self.counters.cells_visited += 1;
            for &q in ids {
                if self.labels.get(q as usize) != Some(&PointLabel::Core) {
                    continue;
                }
                self.counters.distance_evals += 1;
                if within(point, self.store.point(q), eps_sq) {
                    self.counters.early_exit_hits += 1;
                    return true;
                }
            }
        }
        false
    }
}
