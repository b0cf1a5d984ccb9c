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
//! A bulk load ([`IncrementalDbscout::from_store`],
//! [`IncrementalDbscout::from_source`]) does not insert point by point.
//! It is a run of the batch engine's five phases ([`Dbscout`]) with no
//! cap on phase 3's counts, so every count is exact, and the engine
//! adopts what the run leaves: the layout as the mutable store, and the
//! counts and labels as its side arrays. The state equals the one that
//! inserting every point in order reaches.
//!
//! The Definition 3 answer is kept current, not recomputed: every label
//! and liveness write goes through one setter, which also flips the
//! point's bit in an id-indexed outlier bitset and keeps the live
//! outlier and core counts. Listing the outliers then walks set bits,
//! O(ids/64 + #outliers), and counting them reads a counter.
//!
//! Every ε-neighborhood query is one stencil walk (`stencil_cells`)
//! that visits the live cells nearest first and that its caller stops
//! once it has its answer, the §III-G early exit: a removal re-checks
//! each affected point with an existence query that returns at the
//! first live core point within ε, and a probe stops counting at
//! `minPts − 1` neighbors. Inserts, and a removal's decrements and
//! lost-core scans, need every neighbor and walk the whole stencil.

use std::ops::Range;

use dbscout_data::{PointSource, StoreSource, DEFAULT_BATCH_SIZE};
use dbscout_spatial::cell::{cell_of, cell_side, check_point};
use dbscout_spatial::mutable::MutableCellMajor;
use dbscout_spatial::points::PointId;
use dbscout_spatial::{CellMajorStore, NeighborOffsets, PointStore, SpatialError, MAX_DIMS};
use dbscout_telemetry::KernelCounters;

use crate::error::{DbscoutError, Result};
use crate::labels::{OutlierResult, PhaseTimings, PointLabel, RunStats};
use crate::native::{labels_by_id, Dbscout, ExecutionLayout, KernelKind, PhaseState};
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
    /// The stencil's offsets in the order the walk visits them
    /// ([`nearest_first`]), `dims` per offset.
    nearest: Vec<i8>,
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
    scratch: Scratch,
}

/// Buffers that one operation fills and the next reuses, so a warm
/// operation allocates nothing once they have grown. No content carries
/// over from one operation to the next: each use clears its buffer.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Slots one walk found, before they are mapped to ids.
    slots: Vec<u32>,
    /// The ε-neighbors of the point being inserted, removed or probed,
    /// then of each point the operation re-examines.
    nbrs: Vec<PointId>,
    /// Points that turned core (insert) or lost core status (remove).
    flipped: Vec<PointId>,
    /// Points a removal re-checks for coverage.
    affected: Vec<PointId>,
}

/// The offsets of `offsets` nearest first, flat with stride `dims`: the
/// zero offset (the own cell), then by ascending squared norm `Σ j_i²`,
/// ties in lexicographic order. A walk in this order meets the cells most
/// likely to hold a query's answer first, so a query that stops early
/// stops sooner. Only the warm engine walks it, so it is computed here,
/// once per engine.
fn nearest_first(offsets: &NeighborOffsets) -> Vec<i8> {
    let dims = offsets.dims();
    let flat: Vec<i8> = offsets.iter().flatten().copied().collect();
    // `Σ j_i²` is at most `d · ⌈√d⌉² ≤ 81` for `d ≤ 9`.
    let sq_norm = |off: &[i8]| -> u8 { off.iter().map(|&j| j.unsigned_abs().pow(2)).sum() };
    // Sorted by (norm, position): equal norms keep the lexicographic
    // order.
    let mut by_norm: Vec<(u8, u32)> = flat.chunks_exact(dims).map(sq_norm).zip(0..).collect();
    by_norm.sort_unstable();
    by_norm
        .iter()
        .filter_map(|&(_, i)| flat.get(i as usize * dims..(i as usize + 1) * dims))
        .flatten()
        .copied()
        .collect()
}

/// The live, non-empty cells of `store` that the stencil reaches from
/// the cell of `q`, in the order of `nearest` ([`nearest_first`]), as
/// slot ranges; a caller that has its answer stops pulling. Every
/// offset costs one hash lookup. A cell is skipped only when its stored
/// tight box lies beyond ε (counted in `bbox_prunes`), never because
/// the grid box an offset names lies beyond ε: [`cell_of`] floors a
/// rounded `x / side`, so a point can sit an ulp outside the grid box of
/// its own cell, and its neighbors' grid boxes are no bound either.
fn stencil_cells<'a>(
    store: &'a CellMajorStore,
    nearest: &'a [i8],
    q: &'a [f64],
    eps_sq: f64,
    counters: &'a mut KernelCounters,
) -> impl Iterator<Item = Range<usize>> + 'a {
    let home = cell_of(q, store.side());
    nearest.chunks_exact(store.dims()).filter_map(move |off| {
        let idx = store.cell_index(&NeighborOffsets::apply(&home, off)?)? as usize;
        let rec = store.cell(idx).filter(|rec| !rec.is_empty())?;
        counters.cells_visited += 1;
        if store.min_sq_dist_to_bbox(q, idx) > eps_sq {
            counters.bbox_prunes += 1;
            return None;
        }
        Some(rec.range())
    })
}

/// Copies the coordinates of `id` into `buf` and returns them, so a
/// query can read them while the engine is borrowed mutably.
fn point_copy<'b>(points: &PointStore, id: PointId, buf: &'b mut [f64; MAX_DIMS]) -> &'b [f64] {
    let p = points.point(id);
    for (dst, &x) in buf.iter_mut().zip(p) {
        *dst = x;
    }
    let buf: &'b [f64; MAX_DIMS] = buf;
    buf.get(..p.len()).unwrap_or_default()
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
        let nearest = nearest_first(&NeighborOffsets::new(dims)?);
        let mstore = MutableCellMajor::new(dims, params.eps())?;
        Ok(Self {
            params,
            side: cell_side(params.eps(), dims),
            all_points: PointStore::new(dims)?,
            mstore,
            nearest,
            counts: Vec::new(),
            labels: Vec::new(),
            alive: Vec::new(),
            outlier_bits: Vec::new(),
            num_alive: 0,
            num_outliers: 0,
            num_core: 0,
            counters: KernelCounters::new(),
            scratch: Scratch::default(),
        })
    }

    /// Bulk-loads an initial dataset; row `i` of `store` gets id `i`.
    ///
    /// One run of [`Dbscout`]'s five phases at the default thread count,
    /// with no cap on phase 3's counts, so every ε-neighbor count is
    /// exact, as [`Self::remove`]'s decrements need. The engine adopts
    /// the run's layout as its mutable store
    /// ([`MutableCellMajor::from_cell_major`]), its counts and labels,
    /// and its kernel work as the first [`Self::kernel_counters`]. The
    /// state equals inserting every point in order, field by field.
    ///
    /// # Errors
    ///
    /// Fails on an invalid dimensionality, or a coordinate too far out
    /// for ε ([`SpatialError::CoordinateOutOfRange`]).
    pub fn from_store(store: &PointStore, params: DbscoutParams) -> Result<Self> {
        Self::from_source(&mut StoreSource::new(store, DEFAULT_BATCH_SIZE), params)
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

    /// [`Self::from_store`] over a streaming source, read twice as
    /// [`Dbscout::detect_source`] reads it, with no copy of the input in
    /// memory. Point `i` of the stream gets id `i`.
    ///
    /// # Errors
    ///
    /// As [`Self::from_store`], plus the source's failures and
    /// non-finite coordinates. A source with no batches and no declared
    /// dimensionality is an [`DbscoutError::Ingest`] error.
    pub fn from_source(source: &mut dyn PointSource, params: DbscoutParams) -> Result<Self> {
        Self::load_source(&Dbscout::new(params), source)?
            .ok_or_else(|| DbscoutError::Ingest("empty source".to_owned()))
    }

    /// [`Self::from_source`] through `engine`'s run, at its thread count;
    /// `None` for a source with no batches and no dimensionality.
    pub(crate) fn load_source(
        engine: &Dbscout,
        source: &mut dyn PointSource,
    ) -> Result<Option<Self>> {
        engine
            .run_source(source, None)?
            .map(|state| Self::adopt(engine.params(), state))
            .transpose()
    }

    /// Adopts the state an uncapped run left. Every id starts dead, and
    /// the write of its label brings it to life, which seeds the outlier
    /// bitset and the live counts; its coordinates are read back from the
    /// adopted layout.
    fn adopt(params: DbscoutParams, state: PhaseState) -> Result<Self> {
        let PhaseState {
            cm,
            offsets,
            counts: slot_counts,
            outliers,
            stats,
            ..
        } = state;
        let (dims, n) = (cm.dims(), cm.len());
        let mut counts = with_room(n, 0);
        for (&id, &count) in cm.orig_ids().iter().zip(&slot_counts) {
            if let Some(c) = counts.get_mut(id as usize) {
                *c = count;
            }
        }
        let labels = labels_by_id(cm.orig_ids(), slot_counts, params.min_pts(), &outliers);
        drop(outliers);
        let side = cm.side();
        let mstore = MutableCellMajor::from_cell_major(cm);
        // Allocated once the batch columns are freed, so it can reuse
        // their memory.
        let all_points = PointStore::with_capacity(dims, n + n / 8)?;
        let mut inc = Self {
            params,
            side,
            all_points,
            mstore,
            nearest: nearest_first(&offsets),
            counts,
            labels: with_room(n, PointLabel::Outlier),
            alive: with_room(n, false),
            outlier_bits: with_room(n.div_ceil(64), 0),
            num_alive: 0,
            num_outliers: 0,
            num_core: 0,
            counters: stats.kernel,
            scratch: Scratch::default(),
        };
        let mut buf = [0.0; MAX_DIMS];
        for (id, &label) in (0..).zip(&labels) {
            inc.set(id, label, true);
            if inc.mstore.point_of(id, &mut buf) {
                inc.all_points.push(buf.get(..dims).unwrap_or_default())?;
            }
        }
        Ok(inc)
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

    /// Ids of all current live outliers, ascending: [`Self::outlier_ids`]
    /// collected.
    pub fn outliers(&self) -> Vec<PointId> {
        let mut ids = Vec::with_capacity(self.num_outliers);
        // `for_each` runs the walk as two plain loops; `extend` pulls it
        // one `next` at a time, which read ~25% slower in process.
        self.outlier_ids().for_each(|id| ids.push(id));
        ids
    }

    /// Ids of all current live outliers, ascending, read off the outlier
    /// bitset as they are pulled: O(ids/64 + #outliers) for the whole
    /// walk, with no allocation. [`Self::num_outliers`] of them.
    pub fn outlier_ids(&self) -> impl Iterator<Item = PointId> + '_ {
        self.outlier_bits
            .iter()
            .enumerate()
            .flat_map(|(word, &bits)| {
                let mut rest = bits;
                std::iter::from_fn(move || {
                    if rest == 0 {
                        return None;
                    }
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    // Every set bit is a `PointId`'s, so its index fits one.
                    Some((word * 64 + bit) as PointId)
                })
            })
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
    /// (the bulk load's batch phases, then inserts, removals and probes),
    /// from the counted batch kernels (bbox prunes included). The bulk
    /// load counts what phases 3 and 5 count with no cap: one visited
    /// cell per cell in phase 3 and per non-core cell in phase 5, and one
    /// early exit per point phase 5 finds covered.
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

    /// Sets `out` to the ids of the live points within ε of `q`, in walk
    /// order, stopping at the one that brings it to `limit` entries
    /// (`usize::MAX` for all of them). Per cell: the walk's hash lookup
    /// and bbox prune, then a columnar scan over the cell's live run.
    fn neighbors_into(&mut self, q: &[f64], limit: usize, out: &mut Vec<PointId>) {
        let eps_sq = self.params.eps_sq();
        let store = self.mstore.store();
        let slots = &mut self.scratch.slots;
        slots.clear();
        let mut comps = 0;
        for range in stencil_cells(store, &self.nearest, q, eps_sq, &mut self.counters) {
            comps += store.collect_within(q, range, eps_sq, limit, slots);
            if slots.len() >= limit {
                break;
            }
        }
        self.counters.distance_evals += comps;
        let ids = store.orig_ids();
        out.clear();
        out.extend(slots.iter().filter_map(|&slot| ids.get(slot as usize)));
    }

    /// Whether a live core point lies within ε of `q` (Def. 2's ≤, on
    /// the kernels' squared distance): the walk returns at the first
    /// one, counted as an early exit.
    fn has_core_within(&mut self, q: &[f64]) -> bool {
        let eps_sq = self.params.eps_sq();
        let store = self.mstore.store();
        let (ids, labels) = (store.orig_ids(), &self.labels);
        let is_core = |slot: usize| {
            ids.get(slot).and_then(|&id| labels.get(id as usize)) == Some(&PointLabel::Core)
        };
        let mut comps = 0;
        let mut hit = false;
        for range in stencil_cells(store, &self.nearest, q, eps_sq, &mut self.counters) {
            let (found, c) = store.any_within_where(q, range, eps_sq, is_core, true);
            comps += c;
            if found {
                hit = true;
                break;
            }
        }
        self.counters.distance_evals += comps;
        self.counters.early_exit_hits += u64::from(hit);
        hit
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
        let mut nbrs = std::mem::take(&mut self.scratch.nbrs);
        let mut newly_core = std::mem::take(&mut self.scratch.flipped);
        newly_core.clear();

        // ε-neighbors among the live points (the new point is not in the
        // mutable store yet).
        self.neighbors_into(point, usize::MAX, &mut nbrs);
        let my_count = 1 + nbrs.len() as u32;
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
        // All of them are live: the walk lists only live points.
        let mut buf = [0.0; MAX_DIMS];
        for &c in &newly_core {
            self.set(c, PointLabel::Core, true);
            let cpoint = point_copy(&self.all_points, c, &mut buf);
            self.neighbors_into(cpoint, usize::MAX, &mut nbrs);
            for &q in &nbrs {
                if self.labels.get(q as usize) == Some(&PointLabel::Outlier) {
                    self.set(q, PointLabel::Covered, true);
                }
            }
        }
        self.scratch.nbrs = nbrs;
        self.scratch.flipped = newly_core;
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
    /// parameters on bounded-density data. Each point that may have
    /// lost its cover is re-checked with an existence query that stops
    /// at the first live core point within ε.
    pub fn remove(&mut self, id: PointId) -> bool {
        if !self.is_alive(id) {
            return false;
        }
        let min_pts = self.params.min_pts() as u32;
        let mut buf = [0.0; MAX_DIMS];
        let point = point_copy(&self.all_points, id, &mut buf);

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
        let mut nbrs = std::mem::take(&mut self.scratch.nbrs);
        let mut lost_cores = std::mem::take(&mut self.scratch.flipped);
        let mut affected = std::mem::take(&mut self.scratch.affected);
        lost_cores.clear();
        affected.clear();
        if was_core {
            lost_cores.push(id);
        }
        self.neighbors_into(point, usize::MAX, &mut nbrs);
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
        // coverage checks below see the post-removal core set... (every
        // point relabelled from here on is live: the removed point is
        // done, and the walk lists only live points)
        for &c in &lost_cores {
            if c != id {
                self.set(c, PointLabel::Covered, true); // provisional
            }
        }
        // ...then re-evaluate every live point that may have depended on
        // a lost core: the demoted points themselves and all Covered
        // points within ε of any lost core. The core set is fixed from
        // here on, so the order of the re-checks does not matter.
        for &c in &lost_cores {
            if c != id {
                affected.push(c);
            }
            let cpoint = point_copy(&self.all_points, c, &mut buf);
            self.neighbors_into(cpoint, usize::MAX, &mut nbrs);
            affected.extend(
                nbrs.iter()
                    .filter(|&&r| self.labels.get(r as usize) == Some(&PointLabel::Covered)),
            );
        }
        affected.sort_unstable();
        affected.dedup();
        for &r in &affected {
            if self.labels.get(r as usize) == Some(&PointLabel::Core) {
                continue; // still core through its own count
            }
            let rpoint = point_copy(&self.all_points, r, &mut buf);
            let verdict = if self.has_core_within(rpoint) {
                PointLabel::Covered
            } else {
                PointLabel::Outlier
            };
            self.set(r, verdict, true);
        }
        self.scratch.nbrs = nbrs;
        self.scratch.flipped = lost_cores;
        self.scratch.affected = affected;
        true
    }

    /// Classifies `point` as if it were inserted, without inserting it:
    /// the answer equals "insert, then read the label" (the probe point
    /// can tip a `minPts − 1` neighbor into core, which would cover it).
    /// The walk stops once it has `minPts − 1` neighbors, enough for
    /// core. The point set and labels are untouched; only telemetry
    /// counters advance, hence `&mut self`.
    ///
    /// # Errors
    ///
    /// Fails, and changes nothing, on dimension mismatch, or a coordinate
    /// that is non-finite or out of range
    /// ([`SpatialError::CoordinateOutOfRange`], see [`check_point`]).
    pub fn probe(&mut self, point: &[f64]) -> Result<PointLabel> {
        self.validate(point)?;
        let min_pts = self.params.min_pts() as u32;
        let mut nbrs = std::mem::take(&mut self.scratch.nbrs);
        self.neighbors_into(point, min_pts as usize - 1, &mut nbrs);
        let label = if 1 + nbrs.len() as u32 >= min_pts {
            PointLabel::Core
        } else if nbrs.iter().any(|&q| {
            // Covered if a neighbor is core already, or would become
            // core with the probe point as its one extra neighbor.
            self.labels.get(q as usize) == Some(&PointLabel::Core)
                || self.counts.get(q as usize).copied() == Some(min_pts - 1)
        }) {
            PointLabel::Covered
        } else {
            PointLabel::Outlier
        };
        self.scratch.nbrs = nbrs;
        Ok(label)
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

    /// The bulk load of `store` at `threads`, streamed in batches of 37
    /// points.
    fn seed(store: &PointStore, p: DbscoutParams, threads: usize) -> Result<IncrementalDbscout> {
        let engine = Dbscout::new(p).with_threads(threads);
        let loaded = IncrementalDbscout::load_source(&engine, &mut StoreSource::new(store, 37))?;
        Ok(loaded.unwrap())
    }

    /// The bulk load at `threads` against the loop it replaced: `new`,
    /// then one `insert` per point in id order.
    fn assert_seed_equals_loop(store: &PointStore, p: DbscoutParams, threads: usize, ctx: &str) {
        let seeded = seed(store, p, threads).unwrap();
        let mut looped = IncrementalDbscout::new(store.dims(), p).unwrap();
        for (_, pt) in store.iter() {
            looped.insert(pt).unwrap();
        }
        let ctx = format!("{ctx}, {threads} threads");
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
        for threads in [1, 2, 8] {
            let check = |store: &PointStore, p: DbscoutParams, ctx: &str| {
                assert_seed_equals_loop(store, p, threads, ctx);
            };
            let seeded = |store: &PointStore, p: DbscoutParams| seed(store, p, threads);
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
                    check(&store, params(eps, min_pts), &ctx);
                }
            }

            // Two points exactly ε apart are neighbors (Def. 2 is ≤).
            let pair = PointStore::from_rows(2, [vec![0.0, 0.0], vec![0.5, 0.0]]).unwrap();
            check(&pair, params(0.5, 2), "pair at exactly eps");
            let inc = seeded(&pair, params(0.5, 2)).unwrap();
            assert!(inc.outliers().is_empty(), "pair at exactly eps is core");

            // A cell holding at least minPts points, a border point in the
            // next cell, and a stray point.
            let mut rows: Vec<Vec<f64>> = (0..6).map(|i| vec![0.05 * i as f64, 0.1]).collect();
            rows.push(vec![1.22, 0.1]);
            rows.push(vec![9.0, 9.0]);
            let dense = PointStore::from_rows(2, rows).unwrap();
            check(&dense, params(1.0, 4), "dense cell");
            let inc = seeded(&dense, params(1.0, 4)).unwrap();
            assert_eq!(inc.label(6), PointLabel::Covered);
            assert_eq!(inc.outliers(), vec![7]);

            // minPts = 1: every point is core.
            check(&dense, params(1.0, 1), "minPts 1");

            check(&PointStore::new(3).unwrap(), params(1.0, 3), "empty store");

            // Points whose cells would saturate
            // (`tests/extreme_coordinates.rs`) are refused alike by the
            // seed and by the first insert.
            let far =
                PointStore::from_rows(2, (1..=4).map(|k| vec![k as f64 * 1e300, 0.0])).unwrap();
            let refused = crate::DbscoutError::InvalidInput(SpatialError::CoordinateOutOfRange {
                point: 0,
                dim: 0,
            });
            assert_eq!(seeded(&far, params(1.0, 3)).err(), Some(refused.clone()));
            let mut looped = IncrementalDbscout::new(2, params(1.0, 3)).unwrap();
            assert_eq!(looped.insert(far.point(0)).err(), Some(refused));
            assert!(looped.is_empty());
        }
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

    /// Every live label equals `naive_labels` on the survivors.
    fn assert_matches_naive(inc: &IncrementalDbscout, ctx: &str) {
        let live: Vec<PointId> = (0..inc.total_inserted() as PointId)
            .filter(|&id| inc.is_alive(id))
            .collect();
        let want = naive_labels(&inc.store().gather(&live), inc.params());
        let got: Vec<PointLabel> = live.iter().map(|&id| inc.label(id)).collect();
        assert_eq!(got, want, "{ctx}");
    }

    /// `probe` answers what an insert of the same point would be labelled.
    fn assert_probe_is_insert(inc: &mut IncrementalDbscout, p: &[f64], ctx: &str) {
        let probed = inc.probe(p).unwrap();
        let mut clone = inc.clone();
        let id = clone.insert(p).unwrap();
        assert_eq!(probed, clone.label(id), "{ctx}: probe of {p:?}");
        assert_matches_naive(&clone, ctx);
    }

    /// A border point P at (0, 0) sits exactly ε = 0.5 from two core
    /// points, A at (0.5, 0) and B at (−0.5, 0), each core through two
    /// more points on its far side; every point is inserted `dup` times
    /// and minPts is 4·dup, so P (3·dup neighbors) is never core. Losing
    /// one of B's far points demotes B, and P stays covered by A alone,
    /// at exactly ε (Def. 2 is ≤); losing one of A's demotes A too, and P
    /// becomes an outlier.
    fn check_cover_at_exactly_eps(dup: usize) {
        let p = params(0.5, 4 * dup);
        let mut inc = engine(2, p);
        let sites = |x: f64| [[x, 0.0], [2.0 * x, 0.0], [1.5 * x, 0.25]];
        let mut ids = Vec::new();
        for site in sites(0.5).into_iter().chain(sites(-0.5)) {
            ids.push(
                (0..dup)
                    .map(|_| inc.insert(&site).unwrap())
                    .collect::<Vec<_>>(),
            );
            assert_matches_naive(&inc, "building the cores");
        }
        let (a_far, b_far) = (ids[1][0], ids[4][0]);
        let border = [0.0, 0.0];
        assert_probe_is_insert(&mut inc, &border, &format!("dup {dup}: before P"));
        let ps: Vec<PointId> = (0..dup).map(|_| inc.insert(&border).unwrap()).collect();
        assert_matches_naive(&inc, &format!("dup {dup}: P inserted"));
        assert!(ps.iter().all(|&id| inc.label(id) == PointLabel::Covered));
        assert!(ids[0]
            .iter()
            .chain(&ids[3])
            .all(|&id| inc.label(id) == PointLabel::Core));

        assert!(inc.remove(b_far));
        assert_matches_naive(&inc, &format!("dup {dup}: B demoted"));
        assert!(ids[3].iter().all(|&id| inc.label(id) != PointLabel::Core));
        assert!(ids[0].iter().all(|&id| inc.label(id) == PointLabel::Core));
        let covered = ps.iter().all(|&id| inc.label(id) == PointLabel::Covered);
        assert!(covered, "dup {dup}: A alone, at exactly ε, covers P");
        assert_probe_is_insert(&mut inc, &border, &format!("dup {dup}: B demoted"));

        assert!(inc.remove(a_far));
        assert_matches_naive(&inc, &format!("dup {dup}: A demoted"));
        assert!(ps.iter().all(|&id| inc.label(id) == PointLabel::Outlier));
        assert_probe_is_insert(&mut inc, &border, &format!("dup {dup}: A demoted"));
    }

    #[test]
    fn a_core_at_exactly_eps_keeps_covering_through_a_demotion() {
        check_cover_at_exactly_eps(1);
    }

    #[test]
    fn a_duplicate_heavy_cell_keeps_its_cover_at_exactly_eps() {
        // minPts 28: each site's cell holds 7 coincident points, and
        // A's far side 14.
        check_cover_at_exactly_eps(7);
    }

    #[test]
    fn a_core_in_the_query_s_own_cell_ends_the_walk_there() {
        // ε = 1 at d = 2: cells of side 0.707. Three core points share
        // cell (0, 0) with the query point; neighbors in four other
        // cells would be scanned by a walk that did not stop.
        let mut inc = engine(2, params(1.0, 3));
        for p in [[0.1, 0.1], [0.15, 0.1], [0.1, 0.15]] {
            inc.insert(&p).unwrap();
        }
        for p in [[-0.3, 0.3], [0.9, 0.3], [0.3, -0.3], [0.3, 0.9]] {
            inc.insert(&p).unwrap();
        }
        let q = [0.3, 0.3];
        let cell = cell_of(&q, inc.side);
        assert_eq!(cell.coords(), &[0, 0]);
        assert_eq!(inc.label(0), PointLabel::Core);

        let before = inc.kernel_counters();
        assert!(inc.has_core_within(&q));
        let after = inc.kernel_counters();
        assert_eq!(after.cells_visited - before.cells_visited, 1);
        assert_eq!(after.early_exit_hits - before.early_exit_hits, 1);
        assert_eq!(after.bbox_prunes, before.bbox_prunes);
        assert!(after.distance_evals - before.distance_evals <= 3);

        // A probe there stops at minPts − 1 = 2 neighbors, in that cell.
        let before = inc.kernel_counters();
        assert_eq!(inc.probe(&q).unwrap(), PointLabel::Core);
        let after = inc.kernel_counters();
        assert_eq!(after.cells_visited - before.cells_visited, 1);
        assert!(after.distance_evals - before.distance_evals <= 2);

        // Listing every neighbor walks on: the other four cells too.
        let before = inc.kernel_counters();
        let mut all = Vec::new();
        inc.neighbors_into(&q, usize::MAX, &mut all);
        assert_eq!(all.len(), 7);
        assert_eq!(
            inc.kernel_counters().cells_visited - before.cells_visited,
            5
        );
    }

    #[test]
    fn nearest_first_is_the_offsets_by_norm_then_lexicographic() {
        for d in 1..=5 {
            let offs = NeighborOffsets::new(d).unwrap();
            let mut want: Vec<Vec<i8>> = offs.iter().map(<[i8]>::to_vec).collect();
            want.sort_by_key(|o| {
                let norm: i32 = o.iter().map(|&j| i32::from(j) * i32::from(j)).sum();
                (norm, o.clone())
            });
            let got: Vec<Vec<i8>> = nearest_first(&offs)
                .chunks_exact(d)
                .map(<[i8]>::to_vec)
                .collect();
            assert_eq!(got, want, "d={d}");
            assert!(got[0].iter().all(|&j| j == 0), "own cell first, d={d}");
        }
        let d2 = nearest_first(&NeighborOffsets::new(2).unwrap());
        assert_eq!(d2[..10], [0, 0, -1, 0, 0, -1, 0, 1, 1, 0]);
    }
}
