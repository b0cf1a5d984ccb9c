//! Incremental DBSCOUT — exact labels under insert *and* delete, an
//! extension beyond the paper.
//!
//! The batch algorithm answers "which points are outliers *now*"; GPS
//! workloads, the paper's motivating domain, grow and churn
//! continuously. This module maintains the Definition 2–3 labels
//! exactly under both mutation directions, with work localized to the
//! affected ε-neighborhood (the Ester et al. 1998 delta-evaluation
//! approach):
//!
//! * **Insertion is monotone**: neighbor counts only grow, so points
//!   only ever move Outlier → Covered → Core, never back. The new
//!   point's ε-neighbors each gain one neighbor — some cross the
//!   `minPts` threshold and become core — and every newly-core point
//!   immediately covers the former outliers in its own ε-ball.
//! * **Deletion is non-monotone**: ε-neighbors of the removed point
//!   lose one neighbor each, core points can drop below `minPts` and
//!   stop vouching for their surroundings, and points they covered may
//!   revert to outliers. The damage is confined to the 2-hop cell
//!   neighborhood of the removed point: the demoted cores, plus every
//!   Covered point within ε of a demoted (or removed) core, are
//!   re-evaluated against the post-removal core set.
//!
//! Each operation touches only the O(k_d) neighboring cells of the
//! affected points, so maintenance stays constant-time for fixed
//! parameters (amortized over bounded-density data).
//!
//! **The equivalence invariant**, pinned by a randomized property suite
//! over interleaved insert/delete/probe sequences: after *any* sequence
//! of operations, the live points carry byte-identical labels to a
//! from-scratch batch run on the surviving points.
//!
//! The live points sit in a [`MutableCellMajor`] — the slack-slot
//! mutable companion of the batch [`dbscout_spatial::CellMajorStore`],
//! with per-cell bbox metadata — so every ε-neighborhood enumeration
//! runs through the same audited counted kernels as the batch fast
//! path: bbox pruning, the lane-unrolled distance loops, and
//! [`KernelCounters`] accounting. Labels, exact neighbor counts, and
//! liveness are id-indexed side arrays.
//!
//! A bulk load ([`IncrementalDbscout::from_store`]) does not insert
//! point by point. It builds the batch layout (Algorithm 1), counts
//! every point's ε-neighbors exactly in one sweep over the sorted cell
//! table, labels the points from those counts, and adopts the layout as
//! the mutable store. The state equals the one that inserting every
//! point in order reaches.
//!
//! The Definition 3 answer is kept current, not recomputed: every label
//! and liveness write goes through one setter, which also flips the
//! point's bit in an id-indexed outlier bitset and keeps the live
//! outlier and core counts. Listing the outliers then walks set bits,
//! O(ids/64 + #outliers), and counting them reads a counter.

use dbscout_spatial::cell::{cell_of, cell_side, check_point};
use dbscout_spatial::mutable::MutableCellMajor;
use dbscout_spatial::points::PointId;
use dbscout_spatial::{
    CellMajorStore, CellRecord, NeighborOffsets, PointStore, SpatialError, MAX_DIMS,
};
use dbscout_telemetry::KernelCounters;

use crate::error::Result;
use crate::labels::{OutlierResult, PhaseTimings, PointLabel, RunStats};
use crate::native::{take_run, ExecutionLayout, KernelKind};
use crate::params::DbscoutParams;

/// An exactly-maintained DBSCOUT state under point insertion and
/// removal.
///
/// Ids are issued consecutively from 0 and never recycled; removal
/// tombstones the id but keeps it addressable. Labels are exact after
/// every operation — equal to a batch run on the live points.
///
/// ```
/// use dbscout_core::incremental::IncrementalDbscout;
/// use dbscout_core::{DbscoutParams, PointLabel};
///
/// let params = DbscoutParams::new(1.0, 3).unwrap();
/// let mut inc = IncrementalDbscout::new(2, params).unwrap();
/// let lone = inc.insert(&[100.0, 100.0]).unwrap();
/// assert_eq!(inc.label(lone), PointLabel::Outlier);
/// let mut ids = Vec::new();
/// for i in 0..3 {
///     ids.push(inc.insert(&[i as f64 * 0.1, 0.0]).unwrap());
/// }
/// // The cluster is dense now; the far point is still the only outlier.
/// assert_eq!(inc.outliers(), vec![lone]);
/// // Deleting a cluster member dissolves it again: every survivor
/// // reverts to outlier, exactly as a batch run would label them.
/// assert!(inc.remove(ids[1]));
/// assert_eq!(inc.outliers().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalDbscout {
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
    /// Tombstones: `false` once a point has been removed. Removed points
    /// keep their slot (ids stay stable) but leave every computation.
    alive: Vec<bool>,
    /// Bit `id % 64` of word `id / 64` is set iff `id` is alive and
    /// labelled [`PointLabel::Outlier`]. Words past the end read as 0.
    outlier_bits: Vec<u64>,
    num_alive: usize,
    /// Live points labelled [`PointLabel::Outlier`] (set bits).
    num_outliers: usize,
    /// Live points labelled [`PointLabel::Core`].
    num_core: usize,
    counters: KernelCounters,
}

/// `n` copies of `value` with room for `n / 8` more, like every
/// id-indexed array of a bulk load: the first inserts of a session then
/// do not reallocate (and copy) them, as they did not when one `insert`
/// per point had grown them by doubling.
fn with_room<T: Clone>(n: usize, value: T) -> Vec<T> {
    let mut v = Vec::with_capacity(n + n / 8);
    v.resize(n, value);
    v
}

impl IncrementalDbscout {
    /// An empty incremental detector for `dims`-dimensional points.
    pub fn new(dims: usize, params: DbscoutParams) -> Result<Self> {
        let offsets = NeighborOffsets::new(dims)?;
        let mstore = MutableCellMajor::new(dims, params.eps())?;
        Ok(Self {
            params,
            side: cell_side(params.eps(), dims),
            all_points: PointStore::new(dims)?,
            mstore,
            offsets,
            counts: Vec::new(),
            labels: Vec::new(),
            alive: Vec::new(),
            outlier_bits: Vec::new(),
            num_alive: 0,
            num_outliers: 0,
            num_core: 0,
            counters: KernelCounters::new(),
        })
    }

    /// Bulk-loads an initial dataset in one batch pass on one thread;
    /// row `i` of `store` gets id `i`.
    ///
    /// The pass builds the batch layout ([`CellMajorStore::build`],
    /// Algorithm 1), counts every point's ε-neighbors exactly in one
    /// sweep over its cell table, labels a point core at `minPts` or
    /// more and any other point covered iff a core point lies within ε,
    /// and then adopts the layout as the mutable store
    /// ([`MutableCellMajor::from_cell_major`]). The covered test reads
    /// only neighbor cells that hold a core point, so it resolves them
    /// from that side ([`CellMajorStore::neighbor_pairs`]): only cells
    /// holding a core point are swept, and the pairs, 8 bytes each, are
    /// freed before the layout is adopted. Counts and labels come
    /// from the distance tests [`Self::insert`] makes, not from the
    /// batch phases' Lemma 1/2 shortcuts, so the state equals inserting
    /// every point in order, field by field. Its kernel work is added to
    /// [`Self::kernel_counters`].
    ///
    /// # Errors
    ///
    /// Fails on an invalid dimensionality (`store`'s coordinates are
    /// finite by construction).
    pub fn from_store(store: &PointStore, params: DbscoutParams) -> Result<Self> {
        let mut inc = Self::new(store.dims(), params)?;
        let batch = CellMajorStore::build(store, params.eps())?;
        let counts = inc.seed_counts(&batch)?;
        let min_pts = params.min_pts() as u32;
        let core: Vec<bool> = counts.iter().map(|&c| c >= min_pts).collect();
        let labels = inc.seed_labels(&batch, &core)?;
        // Both passes work by slot (the kernels' flags are slot-indexed);
        // the engine's side arrays are by id. Every slot starts dead, and
        // the pass that writes its count brings it to life with its
        // label, so the outlier bitset and the live counts are seeded
        // with no pass of their own.
        let n = batch.len();
        inc.counts = with_room(n, 0);
        inc.labels = with_room(n, PointLabel::Outlier);
        inc.alive = with_room(n, false);
        inc.outlier_bits = with_room(n.div_ceil(64), 0);
        for ((&id, &count), &label) in batch.orig_ids().iter().zip(&counts).zip(&labels) {
            if let Some(c) = inc.counts.get_mut(id as usize) {
                *c = count;
            }
            inc.set(id, label, true);
        }
        inc.mstore = MutableCellMajor::from_cell_major(batch);
        inc.all_points = PointStore::with_capacity(store.dims(), n + n / 8)?;
        inc.all_points.extend_from(store)?;
        Ok(inc)
    }

    /// [`Self::from_store`], for callers that name the layout and kernel;
    /// each of the two types has one value.
    pub fn from_store_with(
        store: &PointStore,
        params: DbscoutParams,
        _: ExecutionLayout,
        _: KernelKind,
    ) -> Result<Self> {
        Self::from_store(store, params)
    }

    /// The exact ε-neighbor count (self included) of every slot of
    /// `batch`: one sweep over the sorted cell table, with no early exit.
    /// Only what the bbox prunes prove empty is skipped, so each count is
    /// the one [`Self::insert`] would reach.
    fn seed_counts(&mut self, batch: &CellMajorStore) -> Result<Vec<u32>> {
        let eps_sq = self.params.eps_sq();
        let mut sweep = batch.neighbor_sweep(&self.offsets)?;
        let mut nbrs: Vec<u32> = Vec::new();
        let mut buf = [0.0; MAX_DIMS];
        let mut counts = vec![0u32; batch.len()];
        for (idx, rec) in batch.cells().iter().enumerate() {
            self.counters.cells_visited += 1;
            sweep.neighbors_into(idx, Some(eps_sq), &mut nbrs);
            for slot in rec.range() {
                batch.point_into(slot, &mut buf);
                let q = buf.get(..batch.dims()).unwrap_or_default();
                let mut count = 0;
                for &nidx in &nbrs {
                    if batch.min_sq_dist_to_bbox(q, nidx as usize) > eps_sq {
                        self.counters.bbox_prunes += 1;
                        continue;
                    }
                    let Some(nrec) = batch.cell(nidx as usize) else {
                        continue;
                    };
                    let (c, comps) = batch.count_within(q, nrec.range(), eps_sq, usize::MAX);
                    count += c;
                    self.counters.distance_evals += comps;
                }
                if let Some(dst) = counts.get_mut(slot) {
                    *dst = count as u32;
                }
            }
        }
        Ok(counts)
    }

    /// The label of every slot of `batch`, given the slot-indexed `core`
    /// flags: Core where flagged, else Covered iff a core point lies
    /// within ε. Only a cell's neighbors that hold a core point are read,
    /// so they are resolved from that side
    /// ([`CellMajorStore::neighbor_pairs`]): the cells holding a core
    /// point are swept, and each lists the cells in reach that hold a
    /// non-core point. A cell of both kinds lists itself. Sorted, the
    /// pairs give each cell its neighbors holding a core point in sweep
    /// order, so cells without a core point are never swept.
    fn seed_labels(&mut self, batch: &CellMajorStore, core: &[bool]) -> Result<Vec<PointLabel>> {
        let eps_sq = self.params.eps_sq();
        let mut buf = [0.0; MAX_DIMS];
        let cell_core = |rec: &CellRecord| core.get(rec.range()).unwrap_or_default();
        let (has_core, all_core): (Vec<bool>, Vec<bool>) = batch
            .cells()
            .iter()
            .map(|rec| {
                let flags = cell_core(rec);
                (flags.contains(&true), flags.iter().all(|&c| c))
            })
            .unzip();
        let mut core_neighbors = batch.neighbor_pairs(
            &self.offsets,
            (0..batch.num_cells()).filter(|&idx| has_core.get(idx) == Some(&true)),
            |idx| all_core.get(idx) == Some(&false),
            Some(eps_sq),
        )?;
        core_neighbors.sort_unstable();
        let mut pairs = core_neighbors.as_slice();
        let mut labels = vec![PointLabel::Core; batch.len()];
        for ((idx, rec), &all) in batch.cells().iter().enumerate().zip(&all_core) {
            if all {
                continue;
            }
            self.counters.cells_visited += 1;
            let run = take_run(&mut pairs, idx);
            for (slot, _) in rec.range().zip(cell_core(rec)).filter(|(_, &c)| !c) {
                batch.point_into(slot, &mut buf);
                let q = buf.get(..batch.dims()).unwrap_or_default();
                let mut covered = false;
                for &(_, nidx) in run {
                    if batch.min_sq_dist_to_bbox(q, nidx as usize) > eps_sq {
                        self.counters.bbox_prunes += 1;
                        continue;
                    }
                    let Some(nrec) = batch.cell(nidx as usize) else {
                        continue;
                    };
                    let (hit, comps) =
                        batch.any_flagged_within(q, nrec.range(), eps_sq, core, true);
                    self.counters.distance_evals += comps;
                    if hit {
                        self.counters.early_exit_hits += 1;
                        covered = true;
                        break;
                    }
                }
                if let Some(dst) = labels.get_mut(slot) {
                    *dst = if covered {
                        PointLabel::Covered
                    } else {
                        PointLabel::Outlier
                    };
                }
            }
        }
        Ok(labels)
    }

    /// Number of live (non-removed) points.
    pub fn len(&self) -> usize {
        self.num_alive
    }

    /// Whether the detector holds no live points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of slots ever allocated (live + removed); ids are always
    /// `0..total_inserted()`.
    pub fn total_inserted(&self) -> usize {
        self.labels.len()
    }

    /// Whether `id` is live (inserted and not removed).
    pub fn is_alive(&self, id: PointId) -> bool {
        self.alive.get(id as usize).copied().unwrap_or(false)
    }

    /// The configured parameters.
    pub fn params(&self) -> DbscoutParams {
        self.params
    }

    /// The current label of a point. Ids this detector never issued
    /// report [`PointLabel::Outlier`].
    pub fn label(&self, id: PointId) -> PointLabel {
        self.labels
            .get(id as usize)
            .copied()
            .unwrap_or(PointLabel::Outlier)
    }

    /// All current labels, indexed by point id.
    pub fn labels(&self) -> &[PointLabel] {
        &self.labels
    }

    /// Ids of all current live outliers, ascending, read off the outlier
    /// bitset: O(ids/64 + #outliers).
    pub fn outliers(&self) -> Vec<PointId> {
        let mut ids = Vec::with_capacity(self.num_outliers);
        for (word, &bits) in self.outlier_bits.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                // Every set bit is a `PointId`'s, so its index fits one.
                ids.push((word * 64 + bits.trailing_zeros() as usize) as PointId);
                bits &= bits - 1;
            }
        }
        ids
    }

    /// Number of live outliers (`outliers().len()`, from a counter).
    pub fn num_outliers(&self) -> usize {
        self.num_outliers
    }

    /// Number of live core points, from a counter.
    pub fn num_core(&self) -> usize {
        self.num_core
    }

    /// Writes `id`'s label and liveness, and keeps the outlier bitset and
    /// the live, outlier and core counts in step with them. Every label
    /// and liveness write goes through here. Ids past the end are
    /// ignored: a slot is pushed (dead) before it is first set.
    fn set(&mut self, id: PointId, label: PointLabel, alive: bool) {
        let i = id as usize;
        let (Some(l), Some(a)) = (self.labels.get_mut(i), self.alive.get_mut(i)) else {
            return;
        };
        let (was_label, was_alive) = (*l, *a);
        *l = label;
        *a = alive;
        if was_alive != alive {
            if alive {
                self.num_alive += 1;
            } else {
                self.num_alive -= 1;
            }
        }
        let was_core = was_alive && was_label == PointLabel::Core;
        let is_core = alive && label == PointLabel::Core;
        if was_core != is_core {
            if is_core {
                self.num_core += 1;
            } else {
                self.num_core -= 1;
            }
        }
        let was_outlier = was_alive && was_label == PointLabel::Outlier;
        let is_outlier = alive && label == PointLabel::Outlier;
        if was_outlier != is_outlier {
            let word = i / 64;
            if word >= self.outlier_bits.len() {
                self.outlier_bits.resize(word + 1, 0);
            }
            if let Some(bits) = self.outlier_bits.get_mut(word) {
                *bits ^= 1 << (i % 64);
            }
            if is_outlier {
                self.num_outliers += 1;
            } else {
                self.num_outliers -= 1;
            }
        }
    }

    /// Every point ever inserted, by id (removed points keep their
    /// coordinates; ids are never recycled).
    pub fn store(&self) -> &PointStore {
        &self.all_points
    }

    /// Kernel work counters accumulated over every operation so far
    /// (the bulk load's two sweeps, then inserts, removals and probes),
    /// from the counted batch kernels (bbox prunes included). The bulk
    /// load counts one visited cell per cell of the counting sweep and
    /// per cell holding a non-core point, and one early exit per point
    /// it finds covered.
    pub fn kernel_counters(&self) -> KernelCounters {
        self.counters
    }

    /// Cell-run relocations the mutable store performed.
    pub fn rebuilds(&self) -> u64 {
        self.mstore.rebuilds()
    }

    /// Whole-layout compactions the mutable store performed.
    pub fn compactions(&self) -> u64 {
        self.mstore.compactions()
    }

    /// The current state as a batch [`OutlierResult`] (one label per
    /// ever-issued id). Removed points are reported as
    /// [`PointLabel::Covered`] so they never surface in the outlier list;
    /// timings and distance counters are zero — the incremental engine
    /// spreads its work across operations (see [`Self::kernel_counters`]
    /// for the accumulated totals).
    pub fn snapshot(&self) -> OutlierResult {
        let labels: Vec<PointLabel> = self
            .labels
            .iter()
            .zip(&self.alive)
            .map(|(&l, &alive)| if alive { l } else { PointLabel::Covered })
            .collect();
        let min_pts = self.params.min_pts();
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

    /// Rejects points the store would reject, or whose cell would not be
    /// exact ([`check_point`]), without mutating anything.
    fn validate(&self, point: &[f64]) -> Result<()> {
        if point.len() != self.all_points.dims() {
            return Err(SpatialError::DimensionMismatch {
                expected: self.all_points.dims(),
                got: point.len(),
            }
            .into());
        }
        Ok(check_point(self.total_inserted(), point, self.side)?)
    }

    /// Collects the ids of every live point within ε of `point` via the
    /// counted kernels: per neighbor cell, bbox prune then a columnar
    /// scan over the cell's live run.
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
            let comps = store.collect_within(point, rec.range(), eps_sq, &mut slots);
            self.counters.distance_evals += comps;
            let ids = store.orig_ids();
            for &slot in &slots {
                if let Some(&id) = ids.get(slot as usize) {
                    out.push(id);
                }
            }
        }
    }

    /// Inserts one point and restores all label invariants; returns the
    /// new point's id.
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatch, or a coordinate that is non-finite or
    /// out of range ([`check_point`]), and then changes nothing
    /// ([`dbscout_spatial::SpatialError`] via [`crate::DbscoutError`]).
    pub fn insert(&mut self, point: &[f64]) -> Result<PointId> {
        self.validate(point)?;
        let id = self.all_points.push(point)?;
        let min_pts = self.params.min_pts() as u32;

        // ε-neighbors among the live points (the new point is not in the
        // mutable store yet).
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
        self.labels.push(PointLabel::Outlier);
        self.alive.push(false);
        self.set(id, label, true);

        // Every newly-core point upgrades itself and rescues the former
        // outliers inside its ε-ball (monotone: no downgrade can occur).
        // All of them are live: `neighbors_of` lists only live points.
        let mut cn: Vec<PointId> = Vec::new();
        for c in newly_core {
            self.set(c, PointLabel::Core, true);
            let cpoint = self.all_points.point(c).to_vec();
            self.neighbors_of(&cpoint, &mut cn);
            for &q in &cn {
                if self.labels.get(q as usize) == Some(&PointLabel::Outlier) {
                    self.set(q, PointLabel::Covered, true);
                }
            }
        }
        Ok(id)
    }

    /// Inserts a batch of points; returns the id of the first one (ids
    /// are consecutive).
    ///
    /// # Errors
    ///
    /// Fails on the first invalid point; earlier points of the batch
    /// remain inserted.
    pub fn extend(&mut self, store: &PointStore) -> Result<PointId> {
        let first = self.total_inserted() as PointId;
        for (_, p) in store.iter() {
            self.insert(p)?;
        }
        Ok(first)
    }

    /// Removes a live point and restores all label invariants for the
    /// remaining points; returns `false` if `id` was already removed (or
    /// never existed).
    ///
    /// Deletion is the non-monotone direction: ε-neighbors of the removed
    /// point lose one neighbor each, demoted core points stop vouching
    /// for their surroundings, and points they covered may revert to
    /// outliers. All effects are confined to the 2-hop cell neighborhood
    /// of the removed point, so the work stays constant for fixed
    /// parameters on bounded-density data.
    pub fn remove(&mut self, id: PointId) -> bool {
        if !self.is_alive(id) {
            return false;
        }
        let min_pts = self.params.min_pts() as u32;
        let point = self.all_points.point(id).to_vec();

        // Unregister first, so every scan below sees the survivor set. A
        // removed core point is relabelled Covered, as a demoted one is.
        let was_core = self.label(id) == PointLabel::Core;
        let label = if was_core {
            PointLabel::Covered
        } else {
            self.label(id)
        };
        self.mstore.remove(id);
        self.set(id, label, false);

        // Decrement neighbor counts; collect core points that lost their
        // status, plus the removed point itself if it was core — their
        // coverage contributions vanish together.
        let mut lost_cores: Vec<PointId> = Vec::new();
        if was_core {
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
        // coverage scans below see the post-removal core set... (every
        // point relabelled from here on is live: the removed point is
        // done, and `neighbors_of` lists only live points)
        for &c in &lost_cores {
            if c != id {
                self.set(c, PointLabel::Covered, true); // provisional
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
            self.set(r, verdict, true);
        }
        true
    }

    /// Classifies `point` as if it were inserted, without inserting it:
    /// the answer equals "insert, then read the label" (the probe point
    /// can tip a `minPts − 1` neighbor into core, which would cover it).
    /// The point set and labels are untouched; only telemetry counters
    /// advance, hence `&mut self`.
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatch or non-finite coordinates.
    pub fn probe(&mut self, point: &[f64]) -> Result<PointLabel> {
        self.validate(point)?;
        let min_pts = self.params.min_pts() as u32;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::detect_outliers;
    use crate::reference::naive_labels;
    use crate::DistributedDbscout;
    use dbscout_dataflow::ExecutionContext;

    fn params(eps: f64, min_pts: usize) -> DbscoutParams {
        DbscoutParams::new(eps, min_pts).unwrap()
    }

    fn engine(dims: usize, p: DbscoutParams) -> IncrementalDbscout {
        IncrementalDbscout::new(dims, p).unwrap()
    }

    #[test]
    fn single_point_is_outlier_unless_min_pts_one() {
        let mut inc = engine(2, params(1.0, 2));
        let id = inc.insert(&[0.0, 0.0]).unwrap();
        assert_eq!(inc.label(id), PointLabel::Outlier);
        let mut inc = engine(2, params(1.0, 1));
        let id = inc.insert(&[0.0, 0.0]).unwrap();
        assert_eq!(inc.label(id), PointLabel::Core);
    }

    #[test]
    fn labels_upgrade_monotonically_as_cluster_forms() {
        let mut inc = engine(2, params(1.0, 4));
        let first = inc.insert(&[0.0, 0.0]).unwrap();
        assert_eq!(inc.label(first), PointLabel::Outlier);
        inc.insert(&[0.2, 0.0]).unwrap();
        inc.insert(&[0.0, 0.2]).unwrap();
        // Still below minPts = 4.
        assert_eq!(inc.label(first), PointLabel::Outlier);
        inc.insert(&[0.2, 0.2]).unwrap();
        // Now every point has 4 neighbors: all core.
        for i in 0..4 {
            assert_eq!(inc.label(i), PointLabel::Core, "point {i}");
        }
    }

    #[test]
    fn newly_core_point_rescues_distant_outlier() {
        // A border point beyond the forming cluster becomes covered the
        // moment its neighbor turns core.
        let mut inc = engine(2, params(0.5, 5));
        let border = inc.insert(&[0.9, 0.0]).unwrap();
        for i in 0..5 {
            inc.insert(&[i as f64 * 0.1, 0.0]).unwrap();
        }
        // The chain 0.0..0.4 is core; 0.9 is within 0.5 of the core at
        // 0.4 but has only 2 neighbors.
        assert_eq!(inc.label(border), PointLabel::Covered);
    }

    #[test]
    fn matches_batch_after_every_insert() {
        // The exactness invariant, checked at every prefix.
        let pts: Vec<[f64; 2]> = vec![
            [0.0, 0.0],
            [10.0, 10.0],
            [0.3, 0.1],
            [0.1, 0.3],
            [0.2, 0.2],
            [1.2, 0.0],
            [10.1, 10.1],
            [10.2, 9.9],
            [0.15, 0.15],
            [2.0, 0.2],
            [10.05, 10.05],
        ];
        let p = params(1.0, 4);
        let mut inc = engine(2, p);
        let mut batch_store = PointStore::new(2).unwrap();
        for pt in &pts {
            inc.insert(pt).unwrap();
            batch_store.push(pt).unwrap();
            assert_eq!(
                inc.labels(),
                naive_labels(&batch_store, p).as_slice(),
                "diverged after {} inserts",
                batch_store.len()
            );
        }
    }

    #[test]
    fn from_store_equals_batch() {
        let store = PointStore::from_rows(
            2,
            (0..60).map(|i| vec![(i % 8) as f64 * 0.4, (i / 8) as f64 * 0.4]),
        )
        .unwrap();
        let p = params(1.0, 5);
        let batch = detect_outliers(&store, p).unwrap();
        let inc = IncrementalDbscout::from_store(&store, p).unwrap();
        assert_eq!(inc.labels(), batch.labels.as_slice());
        assert_eq!(inc.outliers(), batch.outliers);
        assert_eq!(inc.len(), 60);
    }

    /// The one-pass seed against the loop it replaced: `new`, then one
    /// `insert` per point in id order.
    fn assert_seed_equals_loop(store: &PointStore, p: DbscoutParams, ctx: &str) {
        let seeded = IncrementalDbscout::from_store(store, p).unwrap();
        let mut looped = IncrementalDbscout::new(store.dims(), p).unwrap();
        for (_, pt) in store.iter() {
            looped.insert(pt).unwrap();
        }
        assert_eq!(seeded.labels, looped.labels, "{ctx}: labels");
        assert_eq!(seeded.counts, looped.counts, "{ctx}: counts");
        assert_eq!(seeded.alive, looped.alive, "{ctx}: liveness");
        assert_eq!(seeded.len(), looped.len(), "{ctx}: live count");
        assert_eq!(seeded.store(), looped.store(), "{ctx}: points");
        assert_eq!(seeded.outliers(), looped.outliers(), "{ctx}: outliers");
        assert_eq!(seeded.num_outliers(), looped.num_outliers(), "{ctx}");
        assert_eq!(seeded.num_core(), looped.num_core(), "{ctx}: core");
        assert_eq!(
            seeded.snapshot().stats,
            looped.snapshot().stats,
            "{ctx}: stats"
        );
    }

    #[test]
    fn seed_equals_one_insert_per_point() {
        let mut rng = dbscout_rng::Rng::seed_from_u64(0x5EED);
        for dims in 2..=4usize {
            for round in 0..4 {
                let eps = rng.gen_range(0.5..2.0);
                let min_pts = rng.gen_range(2usize..7);
                let mut rows: Vec<Vec<f64>> = Vec::new();
                for _ in 0..150 {
                    // One row in five repeats an earlier one exactly.
                    let row = if !rows.is_empty() && rng.gen_bool(0.2) {
                        rows[rng.gen_range(0..rows.len())].clone()
                    } else {
                        (0..dims).map(|_| rng.gen_range(-5.0..5.0)).collect()
                    };
                    rows.push(row);
                }
                let store = PointStore::from_rows(dims, rows).unwrap();
                let ctx = format!("dims {dims} round {round} eps {eps} minPts {min_pts}");
                assert_seed_equals_loop(&store, params(eps, min_pts), &ctx);
            }
        }

        // Two points exactly ε apart are neighbors (Def. 2 is ≤).
        let pair = PointStore::from_rows(2, [vec![0.0, 0.0], vec![0.5, 0.0]]).unwrap();
        assert_seed_equals_loop(&pair, params(0.5, 2), "pair at exactly eps");
        let seeded = IncrementalDbscout::from_store(&pair, params(0.5, 2)).unwrap();
        assert!(seeded.outliers().is_empty(), "pair at exactly eps is core");

        // A cell holding at least minPts points, a border point in the
        // next cell, and a stray point.
        let mut rows: Vec<Vec<f64>> = (0..6).map(|i| vec![0.05 * i as f64, 0.1]).collect();
        rows.push(vec![1.22, 0.1]);
        rows.push(vec![9.0, 9.0]);
        let dense = PointStore::from_rows(2, rows).unwrap();
        assert_seed_equals_loop(&dense, params(1.0, 4), "dense cell");
        let seeded = IncrementalDbscout::from_store(&dense, params(1.0, 4)).unwrap();
        assert_eq!(seeded.label(6), PointLabel::Covered);
        assert_eq!(seeded.outliers(), vec![7]);

        // minPts = 1: every point is core.
        assert_seed_equals_loop(&dense, params(1.0, 1), "minPts 1");

        assert_seed_equals_loop(&PointStore::new(3).unwrap(), params(1.0, 3), "empty store");

        // Points whose cells would saturate (`tests/extreme_coordinates.rs`)
        // are refused alike by the seed and by the first insert.
        let far = PointStore::from_rows(2, (1..=4).map(|k| vec![k as f64 * 1e300, 0.0])).unwrap();
        let refused = crate::DbscoutError::InvalidInput(SpatialError::CoordinateOutOfRange {
            point: 0,
            dim: 0,
        });
        assert_eq!(
            IncrementalDbscout::from_store(&far, params(1.0, 3)).err(),
            Some(refused.clone())
        );
        let mut looped = IncrementalDbscout::new(2, params(1.0, 3)).unwrap();
        assert_eq!(looped.insert(far.point(0)).err(), Some(refused));
        assert!(looped.is_empty());
    }

    #[test]
    fn extend_matches_pointwise_inserts() {
        let store = PointStore::from_rows(
            2,
            (0..30).map(|i| vec![(i % 6) as f64 * 0.3, (i / 6) as f64 * 0.3]),
        )
        .unwrap();
        let p = params(1.0, 4);
        let mut batch = IncrementalDbscout::new(2, p).unwrap();
        let first = batch.extend(&store).unwrap();
        assert_eq!(first, 0);
        let seeded = IncrementalDbscout::from_store(&store, p).unwrap();
        assert_eq!(batch.labels(), seeded.labels());
        // Extending again starts at the next id.
        let second = batch.extend(&store).unwrap();
        assert_eq!(second, 30);
        assert_eq!(batch.len(), 60);
    }

    #[test]
    fn rejects_bad_input() {
        let mut inc = engine(2, params(1.0, 3));
        assert!(inc.insert(&[1.0]).is_err());
        assert!(inc.insert(&[f64::NAN, 0.0]).is_err());
        assert!(inc.probe(&[1.0]).is_err());
        assert!(inc.probe(&[f64::INFINITY, 0.0]).is_err());
        assert!(inc.is_empty());
    }

    #[test]
    fn remove_reverts_labels() {
        // Build a minimal core configuration, then dismantle it.
        let mut inc = engine(2, params(0.5, 3));
        let a = inc.insert(&[0.0, 0.0]).unwrap();
        let b = inc.insert(&[0.1, 0.0]).unwrap();
        let c = inc.insert(&[0.2, 0.0]).unwrap();
        // d reaches only c (dist 0.5 exactly; a and b are too far).
        let d = inc.insert(&[0.7, 0.0]).unwrap();
        assert_eq!(inc.label(a), PointLabel::Core);
        assert_eq!(inc.label(c), PointLabel::Core);
        assert_eq!(inc.label(d), PointLabel::Covered);

        // Removing the bridge point c demotes a and b (2 neighbors left)
        // and strands d entirely.
        assert!(inc.remove(c));
        assert_eq!(inc.label(a), PointLabel::Outlier);
        assert_eq!(inc.label(b), PointLabel::Outlier);
        assert_eq!(inc.label(d), PointLabel::Outlier);
        assert!(!inc.is_alive(c));
        assert_eq!(inc.len(), 3);
    }

    #[test]
    fn remove_is_idempotent_and_checked() {
        let mut inc = engine(2, params(1.0, 2));
        let id = inc.insert(&[0.0, 0.0]).unwrap();
        assert!(inc.remove(id));
        assert!(!inc.remove(id), "double remove must report false");
        assert!(!inc.remove(99), "unknown id must report false");
        assert!(inc.is_empty());
    }

    #[test]
    fn insert_after_remove_reuses_nothing_but_works() {
        let mut inc = engine(2, params(1.0, 2));
        let a = inc.insert(&[0.0, 0.0]).unwrap();
        inc.remove(a);
        let b = inc.insert(&[0.0, 0.0]).unwrap();
        assert_ne!(a, b, "ids are never reused");
        assert_eq!(inc.total_inserted(), 2);
        assert_eq!(inc.len(), 1);
        assert_eq!(inc.outliers(), vec![b]);
    }

    #[test]
    fn mixed_insert_remove_matches_batch() {
        // A scripted churn sequence; after every operation the live
        // points must carry exactly the brute-force labels.
        let inserts: Vec<[f64; 2]> = vec![
            [0.0, 0.0],
            [0.2, 0.0],
            [0.0, 0.2],
            [0.2, 0.2],
            [1.0, 0.0],
            [5.0, 5.0],
            [5.2, 5.0],
            [5.0, 5.2],
            [0.1, 0.1],
            [5.1, 5.1],
        ];
        let p = params(0.9, 4);
        let mut inc = engine(2, p);
        let mut ids = Vec::new();
        for pt in &inserts {
            ids.push(inc.insert(pt).unwrap());
        }
        for &victim in &[ids[1], ids[6], ids[0], ids[9]] {
            inc.remove(victim);
            // Rebuild the live subset and compare against the oracle.
            let live: Vec<u32> = (0..inc.total_inserted() as u32)
                .filter(|&i| inc.is_alive(i))
                .collect();
            let expected = naive_labels(&inc.store().gather(&live), p);
            for (bi, &id) in live.iter().enumerate() {
                assert_eq!(
                    inc.label(id),
                    expected[bi],
                    "label of {id} diverged after removing {victim}"
                );
            }
        }
    }

    #[test]
    fn duplicate_points_count_individually() {
        let mut inc = engine(2, params(1.0, 3));
        inc.insert(&[5.0, 5.0]).unwrap();
        inc.insert(&[5.0, 5.0]).unwrap();
        assert_eq!(inc.outliers().len(), 2);
        inc.insert(&[5.0, 5.0]).unwrap();
        // Three coincident points with minPts = 3: all core.
        assert_eq!(inc.outliers().len(), 0);
        assert!(inc.labels().iter().all(|l| *l == PointLabel::Core));
    }

    #[test]
    fn probe_equals_insert_then_label() {
        let pts: Vec<[f64; 2]> = vec![
            [0.0, 0.0],
            [0.2, 0.0],
            [0.0, 0.2],
            [1.0, 1.0],
            [5.0, 5.0],
            [0.1, 0.1],
        ];
        let probes: Vec<[f64; 2]> = vec![
            [0.1, 0.0],   // would be core
            [0.9, 0.15],  // near the cluster edge
            [5.1, 5.1],   // tips a min_pts-1 neighbor into core
            [20.0, 20.0], // isolated
        ];
        let p = params(0.5, 3);
        let mut inc = engine(2, p);
        for pt in &pts {
            inc.insert(pt).unwrap();
        }
        for q in &probes {
            let probed = inc.probe(q).unwrap();
            let mut clone = inc.clone();
            let id = clone.insert(q).unwrap();
            assert_eq!(probed, clone.label(id), "probe of {q:?}");
            // The probe itself must not have changed any state.
            assert_eq!(inc.len(), pts.len());
        }
    }

    #[test]
    fn matches_oracles_and_counts_kernel_work() {
        let p = params(0.7, 3);
        let pts: Vec<[f64; 2]> = (0..40)
            .map(|i| [((i * 13) % 17) as f64 * 0.25, ((i * 5) % 11) as f64 * 0.25])
            .collect();
        let mut inc = engine(2, p);
        for pt in &pts {
            inc.insert(pt).unwrap();
        }
        for id in [3u32, 17, 31] {
            inc.remove(id);
        }
        let live: Vec<u32> = (0..inc.total_inserted() as u32)
            .filter(|&i| inc.is_alive(i))
            .collect();
        let survivors = inc.store().gather(&live);
        let expected = naive_labels(&survivors, p);
        let live_labels: Vec<PointLabel> = live.iter().map(|&id| inc.label(id)).collect();
        assert_eq!(live_labels, expected);
        let counters = inc.kernel_counters();
        assert!(counters.distance_evals > 0);
        assert!(counters.cells_visited > 0);
        // Snapshot cell statistics agree with the paper-literal engine
        // run on the survivors.
        let ctx = ExecutionContext::builder().workers(2).build();
        let dist = DistributedDbscout::new(ctx, p).detect(&survivors).unwrap();
        let snap = inc.snapshot();
        assert_eq!(snap.stats.num_cells, dist.stats.num_cells);
        assert_eq!(snap.stats.dense_cells, dist.stats.dense_cells);
        assert_eq!(snap.stats.core_cells, dist.stats.core_cells);
        let snap_live: Vec<PointLabel> = live.iter().map(|&id| snap.labels[id as usize]).collect();
        assert_eq!(snap_live, dist.labels);
    }
}
