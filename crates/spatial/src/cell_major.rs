//! Cell-major columnar point storage — the hot-path layout of the native
//! engine.
//!
//! [`crate::Grid`] keeps one heap-allocated id list per cell behind a hash
//! map, so every neighbor-cell visit in the core-point and outlier phases
//! costs a hash probe plus a pointer chase into a scattered allocation.
//! [`CellMajorStore`] instead *permutes* the points once so that each
//! cell's points occupy one contiguous run of a single columnar buffer:
//!
//! * coordinates are stored column-major (`col(k)[slot]` is dimension `k`
//!   of the point in `slot`), so a distance scan over a cell streams
//!   `d` dense `f64` slices instead of hopping between point rows;
//! * cells are sorted by [`CellCoord`], each described by an 8-byte
//!   [`CellRecord`] `start..end`; the coordinates live once in a compact
//!   cell table (flat `i64`s plus 8-byte index buckets) that answers
//!   [`CellMajorStore::cell_index`] and [`CellMajorStore::cell_coord`].
//!   Neighbor cells of a query cell tend to be nearby in the table and in
//!   the buffer, and a [`NeighborSweep`] finds them with forward cursors
//!   instead of hash probes;
//! * `orig_ids` maps a slot back to the [`PointId`] of the source
//!   [`PointStore`], so per-point labels can be scattered back;
//! * every cell carries the tight bounding box of its *actual* points
//!   (tighter than the ε-cell box), enabling the pruned kernels below to
//!   skip whole cells whose contents provably cannot lie within ε.
//!
//! The layout is canonical for a given dataset and ε: cells ascend in
//! `CellCoord` order and slots within a cell ascend in original id, so
//! any two builds — whatever the thread count — produce byte-identical
//! buffers. Exactness of the pruning rests on two invariants that the
//! property tests pin:
//!
//! 1. **bbox containment** — every point of a cell lies inside the cell's
//!    stored bounding box, so `min_sq_dist_to_bbox(q, c) > ε²` implies no
//!    point of `c` is within ε of `q` (closed-ball semantics keep the
//!    `= ε²` case);
//! 2. **prune soundness** — a cell skipped by the bbox-to-bbox test can
//!    contain no point within ε of *any* point of the query cell, because
//!    box-to-box minimum distance lower-bounds every point pair.

use std::ops::Range;

use crate::cell::{
    cell_of, cell_side, check_point, min_sq_dist_between_boxes, min_sq_dist_to_box, validate_eps,
    CellCoord, MAX_DIMS,
};
use crate::cell_table::CellTable;
use crate::distance::{accumulate_sq_dists_x4, sq_dists_2d_x8, sq_dists_3d_x4, LANES_2D, LANES_ND};
use crate::error::SpatialError;
use crate::neighbors::NeighborOffsets;
use crate::points::{PointId, PointStore};

/// One cell of a [`CellMajorStore`]: the slot range its points occupy in
/// the columnar buffer. Eight bytes; the cell's coordinate lives in the
/// store's cell table ([`CellMajorStore::cell_coord`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRecord {
    /// First slot of the cell's run (inclusive).
    pub start: u32,
    /// One past the last slot of the cell's run.
    pub end: u32,
}

impl CellRecord {
    /// The slot range of this cell.
    #[inline]
    pub fn range(&self) -> Range<usize> {
        self.start as usize..self.end as usize
    }

    /// Number of points in this cell.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the cell is empty (never true for stored records).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Cell-contiguous columnar storage for one dataset and one ε.
///
/// Fields are `pub(crate)` so [`crate::mutable::MutableCellMajor`] can
/// maintain a slack-slot variant of the same layout in place; outside
/// this crate the store is immutable.
#[derive(Debug, Clone)]
pub struct CellMajorStore {
    pub(crate) dims: usize,
    pub(crate) eps: f64,
    pub(crate) side: f64,
    /// Slot count — the column stride. For a store built by
    /// [`CellMajorStore::build`] this equals the point count; a mutable
    /// wrapper may hold spare (non-live) slots, in which case only the
    /// slots inside some [`CellRecord`] run are meaningful.
    pub(crate) n: usize,
    /// Column-major coordinates: dimension `k` of slot `j` lives at
    /// `cols[k * n + j]`.
    pub(crate) cols: Vec<f64>,
    /// Slot → original [`PointId`] (a permutation of `0..n` for a batch
    /// build; spare slots of a mutable layout hold `PointId::MAX`).
    pub(crate) orig_ids: Vec<PointId>,
    /// Non-empty cells, ascending by coordinate (batch builds; a mutable
    /// layout may append cells out of order).
    pub(crate) cells: Vec<CellRecord>,
    /// Whether the cells are known to strictly ascend by coordinate — the
    /// precondition of [`NeighborSweep`]. The batch build checks it when
    /// it lays the table out; a mutable layout, which appends new cells,
    /// never sets it.
    pub(crate) sorted: bool,
    /// Cell `i`'s coordinate, and coordinate → `i`.
    pub(crate) table: CellTable,
    /// Tight per-cell bounding boxes: cell `c`'s box spans
    /// `bbox_min[c*dims..(c+1)*dims]` .. `bbox_max[..]`.
    pub(crate) bbox_min: Vec<f64>,
    pub(crate) bbox_max: Vec<f64>,
}

/// Pass 1 of the two-pass streaming build: tallies how many points fall
/// in each ε-cell. Feed every batch of the stream through
/// [`CellMajorBuilder::count_batch`], then call
/// [`CellMajorBuilder::begin_scatter`] and replay the stream into the
/// resulting [`CellMajorScatter`].
///
/// The two passes are a counting sort by cell: pass 1 sizes the
/// cell-contiguous runs, pass 2 places each point directly into its
/// final slot. Because points are replayed in id order and each cell's
/// cursor advances monotonically, slots within a cell ascend in original
/// id — the exact canonical layout [`CellMajorStore::build`] defines —
/// while peak memory is the finished layout plus the recorded cells and
/// one batch, never the whole raw input plus a sort buffer.
///
/// Pass 1 is the only pass that hashes a cell. The tally keeps its cells
/// in a compact table (at d = 3, ~40 bytes a cell: coordinates and index
/// buckets) and records each point's cell number by arrival id, 4 bytes
/// a point. The recording is the tally: [`Self::begin_scatter`] sizes
/// the runs from it, and pass 2 only has to check the cell it is told.
#[derive(Debug)]
pub struct CellMajorBuilder {
    dims: usize,
    eps: f64,
    side: f64,
    n: usize,
    /// This tally's cells, numbered in the order they were first met.
    table: CellTable,
    /// Every counted batch's cell numbers, with its first arrival id.
    recorded: Vec<Recording>,
}

/// The cell numbers of one counted batch, point by point.
#[derive(Debug)]
struct Recording {
    /// Arrival id of the batch's first point in the whole stream.
    first: usize,
    cells: Vec<u32>,
}

impl CellMajorBuilder {
    /// Starts a streaming build for `dims`-dimensional points at radius
    /// `eps`.
    ///
    /// # Errors
    ///
    /// Fails if `eps` is out of range ([`validate_eps`]), `dims` is zero,
    /// or `dims` exceeds [`MAX_DIMS`].
    pub fn new(dims: usize, eps: f64) -> Result<Self, SpatialError> {
        validate_eps(eps)?;
        if dims == 0 {
            return Err(SpatialError::ZeroDims);
        }
        if dims > MAX_DIMS {
            return Err(SpatialError::TooManyDims { requested: dims });
        }
        Ok(Self {
            dims,
            eps,
            side: cell_side(eps, dims),
            n: 0,
            table: CellTable::new(dims),
            recorded: Vec::new(),
        })
    }

    /// Number of points counted so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no points have been counted yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Tallies the next flat row-major batch of the stream (`len * dims`
    /// coordinates; its first point's arrival id is the count so far):
    /// records each point's cell, adding cells not met before.
    /// Coordinates are validated here — the batch must be a whole number
    /// of points and every value finite and in range ([`check_point`]) —
    /// so every recorded cell is exact.
    pub fn count_batch(&mut self, coords: &[f64]) -> Result<(), SpatialError> {
        self.count_batch_at(self.n, coords)
    }

    /// [`Self::count_batch`] for a tally that sees only some batches of
    /// the stream, such as one lane of a parallel pass 1: `first` is the
    /// arrival id of the batch's first point in the whole stream, which
    /// is the point a [`SpatialError::NonFiniteCoordinate`] names and the
    /// id the recorded cells are filed under.
    pub fn count_batch_at(&mut self, first: usize, coords: &[f64]) -> Result<(), SpatialError> {
        let mut cells = Vec::with_capacity(batch_len(coords, self.dims)?);
        for (i, p) in coords.chunks_exact(self.dims).enumerate() {
            check_point(first + i, p, self.side)?;
            cells.push(self.table.intern(cell_of(p, self.side).coords()).0);
        }
        self.n += cells.len();
        if !cells.is_empty() {
            self.recorded.push(Recording { first, cells });
        }
        Ok(())
    }

    /// Folds another pass-1 tally into this one: `other`'s cells are
    /// interned here once each, and its recorded cells are renumbered
    /// into this tally's numbering. Cell counts are sums, so the merge is
    /// order-insensitive: counting batch shards on separate workers and
    /// merging yields exactly the tally of one sequential pass, whatever
    /// the shard split — the count half of the parallel two-pass build.
    ///
    /// # Errors
    ///
    /// Fails with [`SpatialError::DimensionMismatch`] when the builders
    /// disagree on dimensionality, or [`SpatialError::StreamMismatch`]
    /// when they were configured with different ε (their cell tilings are
    /// incompatible).
    pub fn merge(&mut self, other: CellMajorBuilder) -> Result<(), SpatialError> {
        if other.dims != self.dims {
            return Err(SpatialError::DimensionMismatch {
                expected: self.dims,
                got: other.dims,
            });
        }
        if other.eps.to_bits() != self.eps.to_bits() {
            return Err(SpatialError::StreamMismatch);
        }
        let renumber: Vec<u32> = (0..other.table.len())
            .map(|j| self.table.intern(other.table.coord(j)).0)
            .collect();
        for mut rec in other.recorded {
            for ci in &mut rec.cells {
                *ci = renumber.get(*ci as usize).copied().unwrap_or(*ci);
            }
            self.recorded.push(rec);
        }
        self.n += other.n;
        Ok(())
    }

    /// Finishes pass 1: sorts the cell table by coordinate, renumbers the
    /// recorded cells into their sorted ranks while counting them, lays
    /// out the records (prefix-summed slot ranges), and allocates the
    /// columnar buffers at their final size, returning the pass-2 scatter
    /// state.
    pub fn begin_scatter(self) -> CellMajorScatter {
        let Self {
            dims,
            eps,
            side,
            n,
            mut table,
            mut recorded,
        } = self;
        let rank = table.sort();
        let mut counts = vec![0u32; rank.len()];
        for rec in &mut recorded {
            for ci in &mut rec.cells {
                *ci = rank.get(*ci as usize).copied().unwrap_or(*ci);
                if let Some(count) = counts.get_mut(*ci as usize) {
                    *count += 1;
                }
            }
        }
        recorded.sort_unstable_by_key(|rec| rec.first);
        let mut cells = Vec::with_capacity(counts.len());
        let mut cursors = Vec::with_capacity(counts.len());
        let mut next = 0u32;
        for count in counts {
            cells.push(CellRecord {
                start: next,
                end: next + count,
            });
            cursors.push(next);
            next += count;
        }
        CellMajorScatter {
            dims,
            eps,
            side,
            n,
            cols: vec![0.0f64; n * dims],
            orig_ids: vec![0; n],
            cells,
            table,
            recorded,
            bbox_min: Vec::new(),
            bbox_max: Vec::new(),
            cursors,
            filled: 0,
        }
    }
}

/// The number of points in a flat row-major batch of `dims`-dimensional
/// points, or [`SpatialError::DimensionMismatch`] when it holds a partial
/// point.
fn batch_len(coords: &[f64], dims: usize) -> Result<usize, SpatialError> {
    if coords.len().is_multiple_of(dims) {
        Ok(coords.len() / dims)
    } else {
        Err(SpatialError::DimensionMismatch {
            expected: dims,
            got: coords.len() % dims,
        })
    }
}

/// Pass 2 of the two-pass streaming build: places the replayed stream
/// into the cell-contiguous columns sized by [`CellMajorBuilder`].
///
/// [`Self::shards`] carves the layout into shards that own disjoint
/// ranges of cells. Each shard is handed every replayed batch and
/// [`ScatterShard::place`]s only the points whose cell pass 1 recorded
/// for their arrival id is one of its own, after checking that each
/// such point still lies in that cell, with no hash lookup. So every
/// point is checked once, by the shard that writes it, and shards place
/// in parallel. [`Self::scatter_batch`] is the one-shard sequential
/// form.
///
/// Any disagreement with pass 1 yields [`SpatialError::StreamMismatch`]
/// instead of a corrupt layout: a point outside the cell recorded for
/// its arrival id (whether or not pass 1 counted the cell it moved to),
/// a point past the counted stream, a cell receiving more points than
/// counted, or the stream ending short. The recorded cells cost 4 bytes
/// a point until [`Self::finish`] drops them.
#[derive(Debug)]
pub struct CellMajorScatter {
    dims: usize,
    eps: f64,
    side: f64,
    n: usize,
    cols: Vec<f64>,
    orig_ids: Vec<PointId>,
    cells: Vec<CellRecord>,
    table: CellTable,
    /// Pass 1's recorded cells, renumbered into sorted ranks and ordered
    /// by first arrival id.
    recorded: Vec<Recording>,
    bbox_min: Vec<f64>,
    bbox_max: Vec<f64>,
    cursors: Vec<u32>,
    filled: usize,
}

impl CellMajorScatter {
    /// Number of points the counting pass saw, and so the layout holds.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the counting pass saw no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Places the next flat row-major batch of the replayed stream, in
    /// one shard that owns every cell ([`ScatterShard::place`]). Points
    /// are assigned ids by arrival order across the whole pass, so the
    /// stream must replay in the same order as the counting pass.
    pub fn scatter_batch(&mut self, coords: &[f64]) -> Result<(), SpatialError> {
        let first = self.filled;
        let end = first + batch_len(coords, self.dims)?;
        for mut shard in self.shards(1) {
            shard.place(first, coords).map_err(|(_, e)| e)?;
        }
        if end > self.n {
            // Only an empty layout, which has no shard, gets here.
            return Err(SpatialError::StreamMismatch);
        }
        self.filled = end;
        Ok(())
    }

    /// Number of points scattered so far by [`Self::scatter_batch`].
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Carves the placing step into `parts` independent shards, each
    /// owning a disjoint contiguous range of cells (and therefore a
    /// disjoint contiguous slot range of every output buffer). Shard
    /// boundaries are balanced by slot count, never splitting a cell.
    ///
    /// Every shard is handed every replayed batch, in the order of the
    /// counting pass, and checks and writes only the points whose
    /// recorded cells it owns; the shards share the recorded cells and
    /// the cell table, read-only. The cell cursors live in the scatter,
    /// not in the shards, so a driver may also drop the shards between
    /// batches and carve again: carving costs `O(parts · log cells)`.
    /// Because a point's final slot is a pure function of its `(cell,
    /// arrival id)` — independent of which shard writes it — the
    /// assembled store is byte-identical to a single-shard scatter for
    /// any `parts`. Finish with [`Self::finish_sharded`].
    ///
    /// Fewer than `parts` shards are returned when the store has fewer
    /// cells than `parts`; zero shards for an empty layout.
    pub fn shards(&mut self, parts: usize) -> Vec<ScatterShard<'_>> {
        if self.bbox_min.is_empty() && !self.cells.is_empty() {
            // Deferred so a mismatching replay fails before the big
            // bbox allocation, not after.
            self.bbox_min = vec![0.0f64; self.cells.len() * self.dims];
            self.bbox_max = vec![0.0f64; self.cells.len() * self.dims];
        }
        // Slot-balanced cell boundaries: the k-th cut follows the first
        // cell whose run ends at or past k fair shares of the slots,
        // found by binary search over the prefix-summed run ends.
        let parts = parts.max(1).min(self.cells.len());
        let target = self.n as f64 / parts as f64;
        let last = self.cells.len().saturating_sub(1);
        let mut cell_bounds: Vec<usize> = Vec::with_capacity(parts.saturating_sub(1));
        for k in 1..parts {
            let from = cell_bounds.last().copied().unwrap_or(0);
            let goal = k as f64 * target;
            let ci = from
                + self
                    .cells
                    .get(from..last)
                    .unwrap_or(&[])
                    .partition_point(|rec| f64::from(rec.end) < goal);
            if ci >= last {
                break;
            }
            cell_bounds.push(ci + 1);
        }
        let slot_cuts: Vec<usize> = cell_bounds
            .iter()
            .map(|&ci| self.cells.get(ci).map_or(self.n, |r| r.start as usize))
            .collect();

        let n = self.n;
        // Split each coordinate column at the slot cuts; regroup the
        // per-dimension pieces into per-shard column sets below.
        let mut col_pieces: Vec<Vec<&mut [f64]>> = Vec::with_capacity(self.dims);
        for col in self.cols.chunks_mut(n.max(1)).take(self.dims) {
            col_pieces.push(split_at_cuts(col, &slot_cuts));
        }
        let id_pieces = split_at_cuts(self.orig_ids.as_mut_slice(), &slot_cuts);
        let cursor_pieces = split_at_cuts(self.cursors.as_mut_slice(), &cell_bounds);
        let bbox_cuts: Vec<usize> = cell_bounds.iter().map(|&ci| ci * self.dims).collect();
        let bbox_min_pieces = split_at_cuts(self.bbox_min.as_mut_slice(), &bbox_cuts);
        let bbox_max_pieces = split_at_cuts(self.bbox_max.as_mut_slice(), &bbox_cuts);

        let mut shards = Vec::with_capacity(parts);
        let mut cell_start = 0usize;
        let mut slot_start = 0usize;
        let mut cols: Vec<std::vec::IntoIter<&mut [f64]>> =
            col_pieces.into_iter().map(Vec::into_iter).collect();
        let zipped = id_pieces
            .into_iter()
            .zip(cursor_pieces)
            .zip(bbox_min_pieces.into_iter().zip(bbox_max_pieces));
        for (i, ((orig_ids, cursors), (bbox_min, bbox_max))) in zipped.enumerate() {
            let cell_end = cell_bounds.get(i).copied().unwrap_or(self.cells.len());
            let slot_end = slot_start + orig_ids.len();
            if self.cells.is_empty() {
                break;
            }
            shards.push(ScatterShard {
                dims: self.dims,
                side: self.side,
                table: &self.table,
                recorded: &self.recorded,
                cell_range: cell_start..cell_end,
                slot_start,
                cells: self.cells.get(cell_start..cell_end).unwrap_or(&[]),
                cols: cols.iter_mut().filter_map(Iterator::next).collect(),
                orig_ids,
                bbox_min,
                bbox_max,
                cursors,
                filled: 0,
            });
            cell_start = cell_end;
            slot_start = slot_end;
        }
        shards
    }

    /// Completes a sharded scatter pass. Instead of the sequential
    /// `filled == n` check (shards tally their own fills), this validates
    /// that every cell's cursor reached the end of its slot run — the
    /// cursors are the per-cell proof that each shard placed exactly the
    /// points pass 1 counted.
    pub fn finish_sharded(mut self) -> Result<CellMajorStore, SpatialError> {
        for (cursor, rec) in self.cursors.iter().zip(&self.cells) {
            if *cursor != rec.end {
                return Err(SpatialError::StreamMismatch);
            }
        }
        self.filled = self.n;
        self.finish()
    }

    /// Completes the build. Fails with [`SpatialError::StreamMismatch`]
    /// when the replay delivered fewer points than the counting pass.
    pub fn finish(self) -> Result<CellMajorStore, SpatialError> {
        if self.filled != self.n {
            return Err(SpatialError::StreamMismatch);
        }
        Ok(CellMajorStore {
            dims: self.dims,
            eps: self.eps,
            side: self.side,
            n: self.n,
            cols: self.cols,
            orig_ids: self.orig_ids,
            sorted: self.table.ascending(),
            cells: self.cells,
            table: self.table,
            bbox_min: self.bbox_min,
            bbox_max: self.bbox_max,
        })
    }
}

/// Splits `buf` at the given ascending absolute offsets, yielding
/// `cuts.len() + 1` contiguous exclusive pieces that cover it. Offsets
/// are clamped to the buffer, so malformed cuts shift coverage rather
/// than panic (the callers derive cuts from the cell table, which keeps
/// them consistent by construction).
fn split_at_cuts<'a, T>(mut buf: &'a mut [T], cuts: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(cuts.len() + 1);
    let mut prev = 0usize;
    for &cut in cuts {
        let mid = cut.saturating_sub(prev).min(buf.len());
        let (head, tail) = buf.split_at_mut(mid);
        out.push(head);
        buf = tail;
        prev = cut;
    }
    out.push(buf);
    out
}

/// One worker's slice of a partitioned placing step: a contiguous range
/// of cells plus exclusive `&mut` views of exactly the output buffer
/// segments those cells own, and shared views of the cell table and of
/// pass 1's recorded cells. Produced by [`CellMajorScatter::shards`];
/// shards are `Send`, so a driver can run one per thread with no locks —
/// the cell ranges are disjoint, so there is nothing to contend on. A
/// shard may live for a whole pass: hand it every batch of the replay,
/// in order.
#[derive(Debug)]
pub struct ScatterShard<'a> {
    dims: usize,
    side: f64,
    /// Every cell's coordinates, by index.
    table: &'a CellTable,
    /// Pass 1's recorded cells, ordered by first arrival id.
    recorded: &'a [Recording],
    /// The cells this shard owns, as indices into the full table.
    cell_range: Range<usize>,
    /// First slot of the shard's buffer segments (`cells[cell_range.start].start`).
    slot_start: usize,
    /// The records of the owned cells.
    cells: &'a [CellRecord],
    /// Per-dimension column segments covering the shard's slots.
    cols: Vec<&'a mut [f64]>,
    orig_ids: &'a mut [PointId],
    bbox_min: &'a mut [f64],
    bbox_max: &'a mut [f64],
    /// Cursors of the owned cells (absolute slot values).
    cursors: &'a mut [u32],
    /// Points this shard placed.
    filled: usize,
}

impl ScatterShard<'_> {
    /// The cell indices this shard owns.
    pub fn cell_range(&self) -> Range<usize> {
        self.cell_range.clone()
    }

    /// Number of points this shard has placed so far.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Checks and places the points of one replayed batch whose cells
    /// pass 1 recorded in this shard's range, skipping the rest. `first`
    /// is the arrival id of the batch's first point; the batches need
    /// not be cut as in pass 1, but every shard must see every batch, in
    /// counting-pass order. Each placed point must pass [`check_point`]
    /// and lie in its recorded cell, so a point is checked by exactly the
    /// shard that writes it.
    ///
    /// # Errors
    ///
    /// The first failure in stream order, with the arrival id it was met
    /// at, so a driver running several shards can report the failure a
    /// sequential pass meets first: the batch's `first` for the shape
    /// error of [`CellMajorBuilder::count_batch`];
    /// [`SpatialError::NonFiniteCoordinate`] or
    /// [`SpatialError::CoordinateOutOfRange`] for a bad coordinate;
    /// [`SpatialError::StreamMismatch`] for a point outside its recorded
    /// cell, a point past the counted stream (every shard reports it), or
    /// a cell receiving more points than pass 1 counted.
    pub fn place(&mut self, first: usize, coords: &[f64]) -> Result<(), (usize, SpatialError)> {
        let end = first + batch_len(coords, self.dims).map_err(|e| (first, e))?;
        let mut points = coords.chunks_exact(self.dims);
        let mut id = first;
        let mut run = self
            .recorded
            .partition_point(|rec| rec.first + rec.cells.len() <= first);
        while id < end {
            let recorded = self
                .recorded
                .get(run)
                .and_then(|rec| rec.cells.get(id.checked_sub(rec.first)?..))
                .ok_or((id, SpatialError::StreamMismatch))?;
            for (&ci, p) in recorded.iter().zip(points.by_ref().take(end - id)) {
                let at = id;
                id += 1;
                let ci = ci as usize;
                if !self.cell_range.contains(&ci) {
                    continue;
                }
                self.place_point(ci, at, p).map_err(|e| (at, e))?;
            }
            run += 1;
        }
        Ok(())
    }

    /// Writes point `id`, recorded in cell `ci` of this shard, at its
    /// cell's cursor, after checking it.
    fn place_point(&mut self, ci: usize, id: usize, p: &[f64]) -> Result<(), SpatialError> {
        check_point(id, p, self.side)?;
        if cell_of(p, self.side).coords() != self.table.coord(ci) {
            return Err(SpatialError::StreamMismatch);
        }
        let local_cell = ci - self.cell_range.start;
        let rec = *self
            .cells
            .get(local_cell)
            .ok_or(SpatialError::StreamMismatch)?;
        let cursor = self
            .cursors
            .get_mut(local_cell)
            .ok_or(SpatialError::StreamMismatch)?;
        if *cursor >= rec.end {
            return Err(SpatialError::StreamMismatch);
        }
        let slot = *cursor as usize;
        *cursor += 1;
        let local_slot = slot - self.slot_start;
        for (col, &x) in self.cols.iter_mut().zip(p) {
            if let Some(out) = col.get_mut(local_slot) {
                *out = x;
            }
        }
        if let Some(out) = self.orig_ids.get_mut(local_slot) {
            *out = id as PointId;
        }
        let bbox = local_cell * self.dims..(local_cell + 1) * self.dims;
        if let (Some(lo), Some(hi)) = (
            self.bbox_min.get_mut(bbox.clone()),
            self.bbox_max.get_mut(bbox),
        ) {
            let opens_cell = slot == rec.start as usize;
            for ((lo, hi), &x) in lo.iter_mut().zip(hi.iter_mut()).zip(p) {
                if opens_cell {
                    (*lo, *hi) = (x, x);
                } else {
                    (*lo, *hi) = (lo.min(x), hi.max(x));
                }
            }
        }
        self.filled += 1;
        Ok(())
    }
}

impl CellMajorStore {
    /// Permutes `store` into cell-major layout for radius `eps`
    /// (paper Algorithm 1 plus the physical reorder).
    ///
    /// This is the materialized entry point over the two-pass streaming
    /// builder ([`CellMajorBuilder`] → [`CellMajorScatter`]) with the
    /// whole store as one batch, so the streaming and in-memory paths
    /// produce identical layouts by construction. The layout is fully
    /// determined by `(cell, id)` and therefore identical for any thread
    /// count: cells ascend by coordinate, slots within a cell ascend by
    /// original id.
    ///
    /// # Errors
    ///
    /// Fails if `eps` is out of range ([`validate_eps`]).
    pub fn build(store: &PointStore, eps: f64) -> Result<Self, SpatialError> {
        let mut builder = CellMajorBuilder::new(store.dims(), eps)?;
        builder.count_batch(store.flat())?;
        let mut scatter = builder.begin_scatter();
        scatter.scatter_batch(store.flat())?;
        scatter.finish()
    }

    /// Dimensionality of the stored points.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The ε this store was built with.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Cell side length `l = ε/√d`.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the store holds no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of non-empty cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// The cell records, ascending by coordinate.
    pub fn cells(&self) -> &[CellRecord] {
        &self.cells
    }

    /// The record of cell `idx`, if in range.
    pub fn cell(&self, idx: usize) -> Option<&CellRecord> {
        self.cells.get(idx)
    }

    /// Index of the cell with coordinate `coord`, if non-empty: one
    /// SipHash of its live coordinates and a probe of the cell table's
    /// 8-byte buckets.
    pub fn cell_index(&self, coord: &CellCoord) -> Option<u32> {
        self.table.lookup(coord.coords())
    }

    /// The integer coordinates of cell `idx`, if in range: `dims` values
    /// read from the cell table's flat coordinate array.
    pub fn cell_coord(&self, idx: usize) -> Option<&[i64]> {
        self.table.get(idx)
    }

    /// Slot → original point id permutation.
    pub fn orig_ids(&self) -> &[PointId] {
        &self.orig_ids
    }

    /// One coordinate column: dimension `k` of every slot, cell-major.
    pub fn col(&self, k: usize) -> &[f64] {
        self.cols.get(k * self.n..(k + 1) * self.n).unwrap_or(&[])
    }

    /// Copies the coordinates of `slot` into `out` (first `dims`
    /// entries); a gather across the columns.
    #[inline]
    pub fn point_into(&self, slot: usize, out: &mut [f64; MAX_DIMS]) {
        for (k, o) in out.iter_mut().take(self.dims).enumerate() {
            *o = self.cols.get(k * self.n + slot).copied().unwrap_or(0.0);
        }
    }

    /// The tight bounding box of cell `idx`: its `dims` lower and upper
    /// ends (empty slices when `idx` is out of range).
    #[inline]
    fn bbox(&self, idx: usize) -> (&[f64], &[f64]) {
        let axes = idx * self.dims..(idx + 1) * self.dims;
        (
            self.bbox_min.get(axes.clone()).unwrap_or(&[]),
            self.bbox_max.get(axes).unwrap_or(&[]),
        )
    }

    /// Squared minimum distance from `q` to the tight bounding box of
    /// cell `idx` (0 when `q` lies inside, and for an `idx` out of
    /// range). Lower-bounds the distance from `q` to every point of the
    /// cell — the per-point prune. Branch-free per axis, like
    /// [`crate::cell::min_sq_dist_to_cell`]: the side of the box a query
    /// lies on is decided by the data at random, and the result is bit
    /// for bit that of the piecewise "below, inside, above" gaps.
    #[inline]
    pub fn min_sq_dist_to_bbox(&self, q: &[f64], idx: usize) -> f64 {
        let (lo, hi) = self.bbox(idx);
        min_sq_dist_to_box(q, lo, hi)
    }

    /// Squared minimum distance between the tight bounding boxes of
    /// cells `a` and `b` (0 when either is out of range). Lower-bounds
    /// every point pair across the two cells — the per-cell prune.
    /// Branch-free per axis, the same in both argument orders, and bit
    /// for bit that of the piecewise gaps.
    #[inline]
    pub fn min_sq_dist_between_bboxes(&self, a: usize, b: usize) -> f64 {
        let ((alo, ahi), (blo, bhi)) = (self.bbox(a), self.bbox(b));
        min_sq_dist_between_boxes(alo, ahi, blo, bhi)
    }

    /// Starts a [`NeighborSweep`]: neighbor-cell resolution for a run of
    /// query cells by forward cursors over the sorted cell table, with no
    /// hash probe.
    ///
    /// # Errors
    ///
    /// [`SpatialError::UnsortedCells`] unless the store came from the
    /// batch build, whose cell table is checked to ascend by coordinate
    /// (the view of a [`crate::MutableCellMajor`] is refused: it appends
    /// new cells at the end), and [`SpatialError::DimensionMismatch`]
    /// when `offsets` were built for another dimensionality.
    pub fn neighbor_sweep<'a>(
        &'a self,
        offsets: &'a NeighborOffsets,
    ) -> Result<NeighborSweep<'a>, SpatialError> {
        if !self.sorted {
            return Err(SpatialError::UnsortedCells);
        }
        if offsets.dims() != self.dims {
            return Err(SpatialError::DimensionMismatch {
                expected: self.dims,
                got: offsets.dims(),
            });
        }
        Ok(NeighborSweep {
            store: self,
            offsets,
            cursors: vec![0; offsets.columns().len()],
            slab: 0..0,
            last: None,
        })
    }

    /// Lists `(target, source)` pairs of neighbor cells by sweeping only
    /// the `source` cells: for each source, in the order given, every
    /// cell of its [`NeighborSweep::neighbors_into`] list (with the same
    /// optional bbox prune) that satisfies `is_target`.
    ///
    /// The neighbor relation is symmetric: the stencil holds `−o` with
    /// every offset `o`, and [`Self::min_sq_dist_between_bboxes`] sums
    /// the same gaps for `(a, b)` as for `(b, a)`. So `t` is on the
    /// (pruned) list of `s` exactly when `s` is on the list of `t`, and
    /// once the pairs are sorted, the run of each target holds exactly
    /// the sources its own list would hold, in that list's order
    /// (ascending cell index, which is offset order). A phase that reads
    /// only the neighbors of one kind — phase 5 reads a non-core cell's
    /// core neighbors — resolves from the side of that kind and never
    /// sweeps a target. The pairs come back unsorted, in sweep order;
    /// ascending sources make the sweep amortized O(1) per column.
    ///
    /// # Errors
    ///
    /// As [`Self::neighbor_sweep`].
    pub fn neighbor_pairs(
        &self,
        offsets: &NeighborOffsets,
        sources: impl IntoIterator<Item = usize>,
        is_target: impl Fn(usize) -> bool,
        prune_eps_sq: Option<f64>,
    ) -> Result<Vec<(u32, u32)>, SpatialError> {
        let mut sweep = self.neighbor_sweep(offsets)?;
        let mut pairs = Vec::new();
        for source in sources {
            sweep.for_each_neighbor(source, prune_eps_sq, |target| {
                if is_target(target) {
                    pairs.push((target as u32, source as u32));
                }
            });
        }
        Ok(pairs)
    }

    /// Counts slots of `range` within `ε` of `q` (closed ball, given
    /// `eps_sq = ε²`), stopping as soon as the count reaches `limit`.
    /// Returns `(count, comparisons)`; the comparison tally feeds the
    /// Lemma 6/8 accounting.
    ///
    /// Squared distances are computed in 8-lane (d = 2) or 4-lane
    /// (d ≥ 3) blocks, each lane bit-equal to [`crate::distance::sq_dist`].
    /// A block is taken whole only while the count provably stays below
    /// `limit`; otherwise it is drained in slot order, so the early exit
    /// lands on the comparison a one-slot-at-a-time loop stops at and the
    /// `(count, comparisons)` pair is that loop's exactly.
    #[inline]
    pub fn count_within(
        &self,
        q: &[f64],
        range: Range<usize>,
        eps_sq: f64,
        limit: usize,
    ) -> (usize, u64) {
        match self.dims {
            2 => self.count_within_2d(q, range, eps_sq, limit),
            3 => self.count_within_3d(q, range, eps_sq, limit),
            _ => self.count_within_nd(q, range, eps_sq, limit),
        }
    }

    /// Whether any *flagged* slot of `range` lies within ε of `q`, each
    /// slot's flag read from `flagged`: phase 5's and the incremental
    /// engine's "is this slot's point core". With `early`, returns at the
    /// first hit; otherwise scans the whole range (the ablation mode).
    /// Returns `(hit, comparisons)`.
    ///
    /// Distances are computed per 4-lane block (cheap, branch-free) but
    /// flags gate the per-slot verdicts in order, so the comparison tally
    /// and the `early` exit point are a one-slot-at-a-time loop's
    /// exactly; blocks with no flagged slot are skipped without touching
    /// the columns.
    #[inline]
    pub fn any_within_where(
        &self,
        q: &[f64],
        range: Range<usize>,
        eps_sq: f64,
        flagged: impl Fn(usize) -> bool,
        early: bool,
    ) -> (bool, u64) {
        let mut hit = false;
        let mut comps = 0u64;
        let mut slot = range.start;
        while slot + LANES_ND <= range.end {
            if (slot..slot + LANES_ND).any(&flagged) {
                let d = self.sq_dists_x4_at(q, slot);
                for (i, &v) in d.iter().enumerate() {
                    if !flagged(slot + i) {
                        continue;
                    }
                    comps += 1;
                    if v <= eps_sq {
                        hit = true;
                        if early {
                            return (true, comps);
                        }
                    }
                }
            }
            slot += LANES_ND;
        }
        for s in (slot..range.end).filter(|&s| flagged(s)) {
            comps += 1;
            if self.sq_dist_to_slot(q, s) <= eps_sq {
                hit = true;
                if early {
                    break;
                }
            }
        }
        (hit, comps)
    }

    /// Appends the slots of `range` within ε of `q` (closed ball, given
    /// `eps_sq = ε²`) to `out`, in ascending slot order, stopping at the
    /// slot that brings `out` to `limit` entries; returns the comparison
    /// tally. Unlike [`Self::count_within`] this reports the neighbor
    /// *identities*, which the incremental engine needs to bump
    /// per-point counts. With no stop the tally is `range.len()`; with
    /// one, it is the slots up to and including the last one appended,
    /// as a one-slot-at-a-time loop would count. Distances are computed
    /// per 4-lane block.
    #[inline]
    pub fn collect_within(
        &self,
        q: &[f64],
        range: Range<usize>,
        eps_sq: f64,
        limit: usize,
        out: &mut Vec<u32>,
    ) -> u64 {
        let mut slot = range.start;
        while slot + LANES_ND <= range.end {
            let d = self.sq_dists_x4_at(q, slot);
            for (s, &v) in (slot..).zip(&d) {
                if v <= eps_sq {
                    out.push(s as u32);
                    if out.len() >= limit {
                        return (s + 1 - range.start) as u64;
                    }
                }
            }
            slot += LANES_ND;
        }
        for s in slot..range.end {
            if self.sq_dist_to_slot(q, s) <= eps_sq {
                out.push(s as u32);
                if out.len() >= limit {
                    return (s + 1 - range.start) as u64;
                }
            }
        }
        range.len() as u64
    }

    /// [`Self::count_within`] at d = 2, in 8-lane blocks.
    fn count_within_2d(
        &self,
        q: &[f64],
        range: Range<usize>,
        eps_sq: f64,
        limit: usize,
    ) -> (usize, u64) {
        let (qx, qy) = (
            q.first().copied().unwrap_or(0.0),
            q.get(1).copied().unwrap_or(0.0),
        );
        let xs = self.col(0).get(range.clone()).unwrap_or(&[]);
        let ys = self.col(1).get(range).unwrap_or(&[]);
        let mut tally = Tally::new(limit);
        let mut xit = xs.chunks_exact(LANES_2D);
        let mut yit = ys.chunks_exact(LANES_2D);
        for (cx, cy) in xit.by_ref().zip(yit.by_ref()) {
            let (Ok(ax), Ok(ay)) = (
                <&[f64; LANES_2D]>::try_from(cx),
                <&[f64; LANES_2D]>::try_from(cy),
            ) else {
                break;
            };
            if tally.add_block(&sq_dists_2d_x8(qx, qy, ax, ay), eps_sq) {
                return tally.into_pair();
            }
        }
        for (&x, &y) in xit.remainder().iter().zip(yit.remainder()) {
            let (dx, dy) = (x - qx, y - qy);
            if tally.add_block(&[dx * dx + dy * dy], eps_sq) {
                break;
            }
        }
        tally.into_pair()
    }

    /// [`Self::count_within`] at d = 3, in 4-lane blocks.
    fn count_within_3d(
        &self,
        q: &[f64],
        range: Range<usize>,
        eps_sq: f64,
        limit: usize,
    ) -> (usize, u64) {
        let (qx, qy, qz) = (
            q.first().copied().unwrap_or(0.0),
            q.get(1).copied().unwrap_or(0.0),
            q.get(2).copied().unwrap_or(0.0),
        );
        let xs = self.col(0).get(range.clone()).unwrap_or(&[]);
        let ys = self.col(1).get(range.clone()).unwrap_or(&[]);
        let zs = self.col(2).get(range).unwrap_or(&[]);
        let mut tally = Tally::new(limit);
        let mut xit = xs.chunks_exact(LANES_ND);
        let mut yit = ys.chunks_exact(LANES_ND);
        let mut zit = zs.chunks_exact(LANES_ND);
        for ((cx, cy), cz) in xit.by_ref().zip(yit.by_ref()).zip(zit.by_ref()) {
            let (Ok(ax), Ok(ay), Ok(az)) = (
                <&[f64; LANES_ND]>::try_from(cx),
                <&[f64; LANES_ND]>::try_from(cy),
                <&[f64; LANES_ND]>::try_from(cz),
            ) else {
                break;
            };
            if tally.add_block(&sq_dists_3d_x4(qx, qy, qz, ax, ay, az), eps_sq) {
                return tally.into_pair();
            }
        }
        for ((&x, &y), &z) in xit
            .remainder()
            .iter()
            .zip(yit.remainder())
            .zip(zit.remainder())
        {
            let (dx, dy, dz) = (x - qx, y - qy, z - qz);
            if tally.add_block(&[dx * dx + dy * dy + dz * dz], eps_sq) {
                break;
            }
        }
        tally.into_pair()
    }

    /// [`Self::count_within`] at any other d, in 4-lane blocks that
    /// accumulate one dimension at a time.
    fn count_within_nd(
        &self,
        q: &[f64],
        range: Range<usize>,
        eps_sq: f64,
        limit: usize,
    ) -> (usize, u64) {
        let mut tally = Tally::new(limit);
        let mut slot = range.start;
        while slot + LANES_ND <= range.end {
            if tally.add_block(&self.sq_dists_x4_at(q, slot), eps_sq) {
                return tally.into_pair();
            }
            slot += LANES_ND;
        }
        for s in slot..range.end {
            if tally.add_block(&[self.sq_dist_to_slot(q, s)], eps_sq) {
                break;
            }
        }
        tally.into_pair()
    }

    /// Squared distances from `q` to the four slots starting at `slot`,
    /// accumulated dimension-by-dimension in the scalar order (bit-equal
    /// to four [`Self::sq_dist_to_slot`] calls).
    #[inline]
    fn sq_dists_x4_at(&self, q: &[f64], slot: usize) -> [f64; LANES_ND] {
        let mut acc = [0.0f64; LANES_ND];
        for (k, &qk) in q.iter().enumerate().take(self.dims) {
            let base = k * self.n + slot;
            if let Ok(block) =
                <&[f64; LANES_ND]>::try_from(self.cols.get(base..base + LANES_ND).unwrap_or(&[]))
            {
                accumulate_sq_dists_x4(&mut acc, qk, block);
            }
        }
        acc
    }

    /// Squared distance from `q` to the point in `slot`.
    #[inline]
    fn sq_dist_to_slot(&self, q: &[f64], slot: usize) -> f64 {
        let mut acc = 0.0;
        for (k, &x) in q.iter().enumerate().take(self.dims) {
            let c = self.cols.get(k * self.n + slot).copied().unwrap_or(x);
            let d = c - x;
            acc += d * d;
        }
        acc
    }
}

/// The running `(count, comparisons)` of [`CellMajorStore::count_within`],
/// fed one block of squared distances at a time.
struct Tally {
    count: usize,
    comps: u64,
    limit: usize,
}

impl Tally {
    #[inline]
    fn new(limit: usize) -> Self {
        Self {
            count: 0,
            comps: 0,
            limit,
        }
    }

    /// Adds a block of squared distances, in slot order. The block is
    /// taken whole when its hits keep the count below the limit;
    /// otherwise it is drained slot by slot up to the hit that reaches
    /// the limit. Returns whether the limit was reached.
    #[inline]
    fn add_block(&mut self, d: &[f64], eps_sq: f64) -> bool {
        let hits = d.iter().filter(|&&v| v <= eps_sq).count();
        if self.count + hits < self.limit {
            self.count += hits;
            self.comps += d.len() as u64;
            return false;
        }
        for &v in d {
            self.comps += 1;
            if v <= eps_sq {
                self.count += 1;
                if self.count >= self.limit {
                    return true;
                }
            }
        }
        false
    }

    #[inline]
    fn into_pair(self) -> (usize, u64) {
        (self.count, self.comps)
    }
}

/// Neighbor-cell resolution over a sorted cell table, for query cells
/// taken in ascending order. Created by [`CellMajorStore::neighbor_sweep`].
///
/// Two facts make it work. The table ascends by [`CellCoord`], and
/// adding a fixed offset to every cell keeps that lexicographic order.
/// [`NeighborOffsets`] groups its offsets into columns that agree on
/// every coordinate but the last, so the cells one column reaches from a
/// query form one contiguous window of the table, and as the queries
/// ascend each window only moves forward. The sweep keeps one cursor per
/// column at the start of its last window; a query advances each cursor
/// by exponential search, then reads the window.
///
/// Every neighbor's first coordinate also lies within ⌈√d⌉ of the
/// query's, so all of a query's neighbors sit in one *slab* of the
/// table, which two more forward cursors bound. When the slab holds no
/// more cells than there are columns (5 at d = 2, 25 at d = 3), the
/// query tests each of its cells against the stencil directly instead of
/// seeking the columns: it then compares no more cells than the seeks
/// would. The column cursors it leaves behind are stale but still below
/// every later window, so a later seek only has further to go.
///
/// The first query — and any query below its predecessor — places the
/// cursors afresh, so every query sequence gets exact answers and an
/// ascending one pays amortized O(1) cursor moves per column.
#[derive(Debug)]
pub struct NeighborSweep<'a> {
    store: &'a CellMajorStore,
    offsets: &'a NeighborOffsets,
    /// Per column: the first table index not below the column's window
    /// for the last query that sought it.
    cursors: Vec<usize>,
    /// The previous query's slab: the table indices of every cell whose
    /// first coordinate lies within ⌈√d⌉ of the query's.
    slab: Range<usize>,
    /// The previous query's cell index.
    last: Option<usize>,
}

impl NeighborSweep<'_> {
    /// Resolves the non-empty neighbor cells of cell `idx` into `out`
    /// (cleared first), as indices into [`CellMajorStore::cells`], in
    /// offset order: exactly the cells whose coordinate is the query's
    /// plus a neighbor offset, computed without overflow — targets
    /// outside `i64` hold no cell. With `prune_eps_sq = Some(ε²)`,
    /// neighbor cells whose bounding box lies strictly farther than ε
    /// from this cell's bounding box are dropped — sound because the box
    /// distance lower-bounds every point pair.
    ///
    /// Offset order is ascending cell index, whether the list comes from
    /// the column windows or from a direct scan of a small slab.
    pub fn neighbors_into(&mut self, idx: usize, prune_eps_sq: Option<f64>, out: &mut Vec<u32>) {
        out.clear();
        self.for_each_neighbor(idx, prune_eps_sq, |nidx| out.push(nidx as u32));
    }

    /// Calls `emit` with each cell [`Self::neighbors_into`] lists for
    /// `idx`, in the same order.
    fn for_each_neighbor(
        &mut self,
        idx: usize,
        prune_eps_sq: Option<f64>,
        mut emit: impl FnMut(usize),
    ) {
        let store = self.store;
        let table = &store.table;
        let Some(query) = table.get(idx) else {
            return;
        };
        let (Some(&q_first), Some((&q_last, q_prefix))) = (query.first(), query.split_last())
        else {
            return;
        };
        if self.last.is_none_or(|last| idx < last) {
            self.cursors.fill(0);
            self.slab = 0..0;
        }
        self.last = Some(idx);
        let pruned = |nidx: usize| {
            prune_eps_sq.is_some_and(|eps_sq| store.min_sq_dist_between_bboxes(idx, nidx) > eps_sq)
        };

        let first = |i: usize| table.coord(i).first().copied().unwrap_or(i64::MAX);
        let reach = self.offsets.reach();
        let slab_lo = q_first.saturating_sub_unsigned(reach);
        let start = gallop(self.slab.start, table.len(), |i| first(i) < slab_lo);
        let end = match q_first.checked_add_unsigned(reach) {
            Some(slab_hi) => gallop(self.slab.end.max(start), table.len(), |i| {
                first(i) <= slab_hi
            }),
            None => table.len(),
        };
        self.slab = start..end;
        if end - start <= self.cursors.len() {
            for nidx in start..end {
                if self.offsets.contains_step(query, table.coord(nidx)) && !pruned(nidx) {
                    emit(nidx);
                }
            }
            return;
        }

        let dims = query.len();
        let mut lo = [0i64; MAX_DIMS];
        'columns: for (col, cursor) in self.offsets.columns().iter().zip(&mut self.cursors) {
            for ((t, &a), &o) in lo.iter_mut().zip(q_prefix).zip(self.offsets.prefix(col)) {
                match a.checked_add(i64::from(o)) {
                    Some(v) => *t = v,
                    // No cell exists beyond i64; the cursor stays put,
                    // still below every later query's window.
                    None => continue 'columns,
                }
            }
            let mut hi = lo;
            // Saturating ends clip the window to exactly its in-range
            // targets (`lo ≤ 0 ≤ hi` for every stencil column).
            let (Some(lo_last), Some(hi_last)) = (lo.get_mut(dims - 1), hi.get_mut(dims - 1))
            else {
                continue;
            };
            *lo_last = q_last.saturating_add(i64::from(col.lo));
            *hi_last = q_last.saturating_add(i64::from(col.hi));
            let (Some(lo), Some(hi)) = (lo.get(..dims), hi.get(..dims)) else {
                continue;
            };
            *cursor = gallop(*cursor, table.len(), |i| table.coord(i) < lo);
            for nidx in *cursor..table.len() {
                if table.coord(nidx) > hi {
                    break;
                }
                if !pruned(nidx) {
                    emit(nidx);
                }
            }
        }
    }
}

/// The first index in `from..len` at which `below` fails, or `len`, found
/// by exponential search from `from` (cheap when the answer is near,
/// logarithmic when it is far). `below` must hold on a prefix of
/// `from..len` and fail on the rest — true of "sorts below a bound" over
/// an ascending table.
fn gallop(from: usize, len: usize, below: impl Fn(usize) -> bool) -> usize {
    let mut bound = 1;
    while from + bound <= len && below(from + bound - 1) {
        bound *= 2;
    }
    let (mut lo, mut hi) = (from + bound / 2, (from + bound).min(len));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::sq_dist;

    fn store_2d(points: &[[f64; 2]]) -> PointStore {
        PointStore::from_rows(2, points.iter().map(|p| p.to_vec())).unwrap()
    }

    fn gather_point(cm: &CellMajorStore, slot: usize) -> Vec<f64> {
        let mut buf = [0.0; MAX_DIMS];
        cm.point_into(slot, &mut buf);
        buf[..cm.dims()].to_vec()
    }

    #[test]
    fn cell_record_is_eight_bytes() {
        // The coordinate lives in the cell table, not in the record.
        assert_eq!(std::mem::size_of::<CellRecord>(), 8);
    }

    #[test]
    fn permutation_is_a_bijection_preserving_coordinates() {
        let s = store_2d(&[[0.1, 0.1], [5.0, 5.0], [0.9, 0.9], [-3.0, 2.0], [5.1, 5.1]]);
        let cm = CellMajorStore::build(&s, 2f64.sqrt()).unwrap();
        assert_eq!(cm.len(), 5);
        let mut seen = [false; 5];
        for slot in 0..cm.len() {
            let id = cm.orig_ids()[slot];
            assert!(!seen[id as usize], "id {id} mapped twice");
            seen[id as usize] = true;
            assert_eq!(gather_point(&cm, slot), s.point(id));
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn cells_are_sorted_and_partition_the_slots() {
        let s = store_2d(&[[0.2, 0.2], [9.0, 9.0], [0.8, 0.8], [1.1, -0.3], [1.9, -0.9]]);
        let cm = CellMajorStore::build(&s, 2f64.sqrt()).unwrap();
        let mut next = 0u32;
        for i in 1..cm.num_cells() {
            assert!(
                cm.cell_coord(i - 1) < cm.cell_coord(i),
                "cells out of order"
            );
        }
        for (i, rec) in cm.cells().iter().enumerate() {
            assert_eq!(rec.start, next, "gap before {:?}", cm.cell_coord(i));
            assert!(rec.end > rec.start);
            next = rec.end;
        }
        assert_eq!(next as usize, cm.len());
    }

    #[test]
    fn ids_ascend_within_each_cell() {
        let s = store_2d(&[[0.3, 0.3], [0.1, 0.1], [0.2, 0.2], [7.0, 7.0]]);
        let cm = CellMajorStore::build(&s, 2f64.sqrt()).unwrap();
        for (i, rec) in cm.cells().iter().enumerate() {
            let ids = &cm.orig_ids()[rec.range()];
            for w in ids.windows(2) {
                assert!(w[0] < w[1], "ids not ascending in {:?}", cm.cell_coord(i));
            }
        }
    }

    #[test]
    fn index_round_trips() {
        let s = store_2d(&[[0.5, 0.5], [10.0, -3.0]]);
        let cm = CellMajorStore::build(&s, 1.0).unwrap();
        for i in 0..cm.num_cells() {
            let coord = CellCoord::from_slice(cm.cell_coord(i).unwrap());
            assert_eq!(cm.cell_index(&coord), Some(i as u32));
        }
        assert_eq!(cm.cell_index(&CellCoord::from_slice(&[999, 999])), None);
    }

    #[test]
    fn bbox_contains_every_point_of_its_cell() {
        let s = store_2d(&[
            [0.11, 0.42],
            [0.35, 0.02],
            [0.21, 0.33],
            [4.0, 4.0],
            [4.2, 4.1],
        ]);
        let cm = CellMajorStore::build(&s, 2f64.sqrt()).unwrap();
        for (idx, rec) in cm.cells().iter().enumerate() {
            for slot in rec.range() {
                let p = gather_point(&cm, slot);
                assert_eq!(
                    cm.min_sq_dist_to_bbox(&p, idx),
                    0.0,
                    "point {p:?} escapes bbox of {:?}",
                    cm.cell_coord(idx)
                );
            }
        }
    }

    #[test]
    fn point_to_bbox_lower_bounds_every_point_distance() {
        let s = store_2d(&[[0.1, 0.1], [0.4, 0.4], [2.0, 2.0], [2.3, 1.9]]);
        let cm = CellMajorStore::build(&s, 1.0).unwrap();
        let q = [5.0, -1.0];
        for (idx, rec) in cm.cells().iter().enumerate() {
            let lb = cm.min_sq_dist_to_bbox(&q, idx);
            for slot in rec.range() {
                let p = gather_point(&cm, slot);
                assert!(lb <= sq_dist(&q, &p) + 1e-12);
            }
        }
    }

    #[test]
    fn bbox_to_bbox_lower_bounds_every_point_pair() {
        let s = store_2d(&[[0.1, 0.1], [0.4, 0.4], [2.0, 2.0], [2.3, 1.9], [-3.0, 0.2]]);
        let cm = CellMajorStore::build(&s, 1.0).unwrap();
        for a in 0..cm.num_cells() {
            for b in 0..cm.num_cells() {
                let lb = cm.min_sq_dist_between_bboxes(a, b);
                for sa in cm.cells()[a].range() {
                    for sb in cm.cells()[b].range() {
                        let pa = gather_point(&cm, sa);
                        let pb = gather_point(&cm, sb);
                        assert!(lb <= sq_dist(&pa, &pb) + 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_neighbors_are_a_subset_losing_nothing_within_eps() {
        // Points in adjacent cells but far apart inside them: the pruned
        // list may drop cells, but never one holding a point within eps
        // of any point of the query cell.
        let eps = 0.5;
        let s = store_2d(&[
            [0.01, 0.01],
            [0.30, 0.30],
            [0.34, 0.01], // next cell over, within eps of [0.30, 0.30]
            [0.69, 0.69], // diagonal cell, corner region
            [3.0, 3.0],
        ]);
        let cm = CellMajorStore::build(&s, eps).unwrap();
        let offsets = NeighborOffsets::new(2).unwrap();
        let eps_sq = eps * eps;
        let mut sweep_all = cm.neighbor_sweep(&offsets).unwrap();
        let mut sweep_pruned = cm.neighbor_sweep(&offsets).unwrap();
        for idx in 0..cm.num_cells() {
            let mut all = Vec::new();
            let mut pruned = Vec::new();
            sweep_all.neighbors_into(idx, None, &mut all);
            sweep_pruned.neighbors_into(idx, Some(eps_sq), &mut pruned);
            assert!(pruned.iter().all(|n| all.contains(n)));
            // Soundness: every dropped neighbor has no point within eps
            // of any point of the query cell.
            for dropped in all.iter().filter(|n| !pruned.contains(n)) {
                for sa in cm.cells()[idx].range() {
                    let pa = gather_point(&cm, sa);
                    for sb in cm.cells()[*dropped as usize].range() {
                        let pb = gather_point(&cm, sb);
                        assert!(
                            sq_dist(&pa, &pb) > eps_sq,
                            "prune dropped a reachable pair {pa:?} {pb:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn count_within_matches_brute_force_and_respects_limit() {
        let s = store_2d(&[[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.3, 0.0], [0.9, 0.0]]);
        let cm = CellMajorStore::build(&s, 10.0).unwrap(); // all one cell
        assert_eq!(cm.num_cells(), 1);
        let range = cm.cells()[0].range();
        let q = [0.0, 0.0];
        let (count, comps) = cm.count_within(&q, range.clone(), 0.25 * 0.25 + 1e-12, usize::MAX);
        assert_eq!(count, 3); // 0.0, 0.1, 0.2
        assert_eq!(comps, 5);
        let (count, comps) = cm.count_within(&q, range, 1.0, 2);
        assert_eq!(count, 2);
        assert!(comps <= 2, "early exit must stop scanning");
    }

    #[test]
    fn collect_within_matches_scalar_across_kernels_and_dims() {
        for dims in 2..=4usize {
            let rows: Vec<Vec<f64>> = (0..37)
                .map(|i| {
                    (0..dims)
                        .map(|k| ((i * (k + 3)) % 11) as f64 * 0.17)
                        .collect()
                })
                .collect();
            let s = PointStore::from_rows(dims, rows).unwrap();
            let cm = CellMajorStore::build(&s, 10.0).unwrap();
            let q: Vec<f64> = (0..dims).map(|k| 0.2 * k as f64).collect();
            let dists = oracle_dists(&cm, &q);
            for rec in cm.cells() {
                for range in ragged_ranges(rec.range()) {
                    // Each slot in turn on the closed ball's boundary.
                    for &eps_sq in [0.45].iter().chain(&dists[range.clone()]) {
                        let mut got = Vec::new();
                        let comps =
                            cm.collect_within(&q, range.clone(), eps_sq, usize::MAX, &mut got);
                        assert_eq!(comps, range.len() as u64);
                        // Hits ascend in slot order and match the oracle.
                        let want: Vec<u32> = range
                            .clone()
                            .filter(|&slot| dists[slot] <= eps_sq)
                            .map(|slot| slot as u32)
                            .collect();
                        assert_eq!(got, want, "dims {dims} range {range:?} eps² {eps_sq}");
                        // A limit stops at the hit that reaches it, counting
                        // the slots a one-at-a-time loop would have read; the
                        // limit counts what `out` held before the call.
                        for limit in 1..=want.len() {
                            let mut got = vec![u32::MAX];
                            let comps =
                                cm.collect_within(&q, range.clone(), eps_sq, limit + 1, &mut got);
                            assert_eq!(got[1..], want[..limit], "limit {limit}");
                            let last = want[limit - 1] as usize;
                            assert_eq!(comps, (last + 1 - range.start) as u64, "limit {limit}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn any_within_where_honors_flags_and_early_exit() {
        let s = store_2d(&[[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]]);
        let cm = CellMajorStore::build(&s, 10.0).unwrap();
        let range = cm.cells()[0].range();
        let q = [0.0, 0.0];
        // No flags set: never a hit, zero comparisons.
        let (hit, comps) = cm.any_within_where(&q, range.clone(), 1.0, |_| false, true);
        assert!(!hit);
        assert_eq!(comps, 0);
        // Only the far slot flagged and out of range.
        let slot_of_02 = (0..3)
            .find(|&s| {
                let p = gather_point(&cm, s);
                (p[0] - 0.2).abs() < 1e-12
            })
            .unwrap();
        let mut flags = [false; 3];
        flags[slot_of_02] = true;
        let (hit, _) = cm.any_within_where(&q, range.clone(), 0.01, |s| flags[s], true);
        assert!(!hit);
        let (hit, _) = cm.any_within_where(&q, range, 0.05, |s| flags[s], true);
        assert!(hit);
    }

    #[test]
    fn three_d_and_generic_kernels_agree() {
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                vec![
                    (i % 4) as f64 * 0.3,
                    (i % 5) as f64 * 0.2,
                    (i % 3) as f64 * 0.4,
                ]
            })
            .collect();
        let s = PointStore::from_rows(3, rows).unwrap();
        let cm = CellMajorStore::build(&s, 10.0).unwrap();
        let range = cm.cells()[0].range();
        let q = [0.3, 0.2, 0.4];
        let (fast, _) = cm.count_within(&q, range.clone(), 0.3, usize::MAX);
        // Brute-force recount through the gathered rows.
        let slow = range
            .clone()
            .filter(|&slot| sq_dist(&gather_point(&cm, slot), &q) <= 0.3)
            .count();
        assert_eq!(fast, slow);
    }

    #[test]
    fn empty_store_builds_empty_layout() {
        let s = PointStore::new(2).unwrap();
        let cm = CellMajorStore::build(&s, 1.0).unwrap();
        assert!(cm.is_empty());
        assert_eq!(cm.num_cells(), 0);
        assert!(cm.cells().is_empty());
        assert!(cm.orig_ids().is_empty());
    }

    #[test]
    fn invalid_eps_rejected() {
        let s = store_2d(&[[0.0, 0.0]]);
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                CellMajorStore::build(&s, eps),
                Err(SpatialError::InvalidEpsilon { .. })
            ));
        }
    }

    fn assert_layout_identical(a: &CellMajorStore, b: &CellMajorStore) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.dims(), b.dims());
        assert_eq!(a.cells(), b.cells());
        assert_eq!(a.orig_ids(), b.orig_ids());
        for k in 0..a.dims() {
            assert_eq!(a.col(k), b.col(k), "column {k}");
        }
        assert_eq!(a.bbox_min, b.bbox_min);
        assert_eq!(a.bbox_max, b.bbox_max);
    }

    #[test]
    fn streaming_build_is_byte_identical_to_materialized_for_any_batching() {
        let pts: Vec<[f64; 2]> = (0..97)
            .map(|i| [((i * 37) % 50) as f64 * 0.3, ((i * 53) % 40) as f64 * 0.3])
            .collect();
        let s = store_2d(&pts);
        let eps = 1.5;
        let whole = CellMajorStore::build(&s, eps).unwrap();
        for batch in [1usize, 7, 16, 97, 1000] {
            let mut b = CellMajorBuilder::new(2, eps).unwrap();
            for chunk in s.flat().chunks(batch * 2) {
                b.count_batch(chunk).unwrap();
            }
            assert_eq!(b.len(), 97);
            let mut sc = b.begin_scatter();
            for chunk in s.flat().chunks(batch * 2) {
                sc.scatter_batch(chunk).unwrap();
            }
            assert_eq!(sc.filled(), 97);
            let streamed = sc.finish().unwrap();
            assert_layout_identical(&whole, &streamed);
        }
    }

    #[test]
    fn builder_validates_inputs() {
        assert!(matches!(
            CellMajorBuilder::new(0, 1.0),
            Err(SpatialError::ZeroDims)
        ));
        assert!(matches!(
            CellMajorBuilder::new(MAX_DIMS + 1, 1.0),
            Err(SpatialError::TooManyDims { .. })
        ));
        for eps in [0.0, -1.0, f64::NAN] {
            assert!(matches!(
                CellMajorBuilder::new(2, eps),
                Err(SpatialError::InvalidEpsilon { .. })
            ));
        }
        let mut b = CellMajorBuilder::new(2, 1.0).unwrap();
        assert!(matches!(
            b.count_batch(&[1.0, 2.0, 3.0]),
            Err(SpatialError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            b.count_batch(&[1.0, f64::NAN]),
            Err(SpatialError::NonFiniteCoordinate { point: 0, dim: 1 })
        ));
    }

    /// Pass 2 of one batch through `parts` shards, reporting the failure
    /// met first in stream order, as the parallel build does.
    fn place_in_shards(
        sc: &mut CellMajorScatter,
        parts: usize,
        first: usize,
        coords: &[f64],
    ) -> Result<(), SpatialError> {
        let mut met: Option<(usize, SpatialError)> = None;
        for mut shard in sc.shards(parts) {
            if let Err(e) = shard.place(first, coords) {
                if met.as_ref().is_none_or(|m| e.0 < m.0) {
                    met = Some(e);
                }
            }
        }
        met.map_or(Ok(()), |(_, e)| Err(e))
    }

    #[test]
    fn scatter_detects_replay_divergence() {
        for parts in [1usize, 3] {
            // A point moving to a never-counted cell.
            let mut b = CellMajorBuilder::new(2, 1.0).unwrap();
            b.count_batch(&[0.1, 0.1, 0.2, 0.2, 5.0, 5.0, 9.0, 9.0])
                .unwrap();
            let mut sc = b.begin_scatter();
            assert!(matches!(
                place_in_shards(&mut sc, parts, 0, &[50.0, 50.0]),
                Err(SpatialError::StreamMismatch)
            ));

            // A point moving into another cell that pass 1 did count.
            let mut b = CellMajorBuilder::new(2, 1.0).unwrap();
            b.count_batch(&[0.1, 0.1, 5.0, 5.0, 9.0, 9.0]).unwrap();
            let mut sc = b.begin_scatter();
            assert!(matches!(
                place_in_shards(&mut sc, parts, 0, &[0.1, 0.1, 9.0, 9.0, 5.0, 5.0]),
                Err(SpatialError::StreamMismatch)
            ));
            assert!(matches!(
                place_in_shards(&mut sc, parts, 1, &[0.1, 0.1]),
                Err(SpatialError::StreamMismatch)
            ));

            // A cell receiving more points than were counted (the last
            // cell, so with several shards the last shard catches it).
            let mut b = CellMajorBuilder::new(2, 1.0).unwrap();
            b.count_batch(&[0.1, 0.1, 5.0, 5.0, 9.0, 9.0]).unwrap();
            let mut sc = b.begin_scatter();
            place_in_shards(&mut sc, parts, 0, &[0.1, 0.1, 5.0, 5.0, 9.0, 9.0]).unwrap();
            assert!(matches!(
                place_in_shards(&mut sc, parts, 2, &[9.15, 9.15]),
                Err(SpatialError::StreamMismatch)
            ));

            // A point past the counted stream.
            assert!(matches!(
                place_in_shards(&mut sc, parts, 3, &[9.15, 9.15]),
                Err(SpatialError::StreamMismatch)
            ));
        }

        // The replay ending short.
        let mut b = CellMajorBuilder::new(2, 1.0).unwrap();
        b.count_batch(&[0.1, 0.1, 0.2, 0.2]).unwrap();
        let mut sc = b.begin_scatter();
        sc.scatter_batch(&[0.1, 0.1]).unwrap();
        assert!(matches!(sc.finish(), Err(SpatialError::StreamMismatch)));
    }

    #[test]
    fn non_finite_errors_name_the_arrival_id_in_the_whole_stream() {
        // A lane that sees only later batches still reports global ids.
        let mut lane = CellMajorBuilder::new(2, 1.0).unwrap();
        assert!(matches!(
            lane.count_batch_at(100, &[0.0, 0.0, 1.0, f64::NAN]),
            Err(SpatialError::NonFiniteCoordinate { point: 101, dim: 1 })
        ));
        let mut b = CellMajorBuilder::new(2, 1.0).unwrap();
        b.count_batch(&[0.0; 18]).unwrap();
        let mut sc = b.begin_scatter();
        for mut shard in sc.shards(1) {
            assert!(matches!(
                shard.place(7, &[0.0, 0.0, f64::INFINITY, 0.0]),
                Err((8, SpatialError::NonFiniteCoordinate { point: 8, dim: 0 }))
            ));
        }
    }

    #[test]
    fn place_rejects_a_batch_under_another_batch_s_arrival_ids() {
        let mut b = CellMajorBuilder::new(2, 1.0).unwrap();
        b.count_batch(&[0.1, 0.1, 5.0, 5.0]).unwrap();
        let mut sc = b.begin_scatter();
        for mut shard in sc.shards(1) {
            assert!(matches!(
                shard.place(0, &[5.0, 5.0]),
                Err((0, SpatialError::StreamMismatch))
            ));
        }
    }

    #[test]
    fn empty_builder_finishes_into_an_empty_store() {
        let b = CellMajorBuilder::new(3, 1.0).unwrap();
        assert!(b.is_empty());
        let cm = b.begin_scatter().finish().unwrap();
        assert!(cm.is_empty());
        assert_eq!(cm.num_cells(), 0);
        assert_eq!(cm.dims(), 3);
    }

    #[test]
    fn merged_sharded_counts_build_the_same_layout() {
        let pts: Vec<[f64; 2]> = (0..61)
            .map(|i| [((i * 37) % 50) as f64 * 0.3, ((i * 53) % 40) as f64 * 0.3])
            .collect();
        let s = store_2d(&pts);
        let eps = 1.5;
        let whole = CellMajorStore::build(&s, eps).unwrap();
        for workers in [1usize, 2, 3, 5] {
            // Pass 1 on `workers` independent builders over batch shards,
            // merged in arbitrary (here: reverse) order.
            let batches: Vec<&[f64]> = s.flat().chunks(14).collect();
            let mut subs: Vec<CellMajorBuilder> = (0..workers)
                .map(|_| CellMajorBuilder::new(2, eps).unwrap())
                .collect();
            for (i, batch) in batches.iter().enumerate() {
                subs[i % workers].count_batch_at(i * 7, batch).unwrap();
            }
            let mut merged = CellMajorBuilder::new(2, eps).unwrap();
            for sub in subs.into_iter().rev() {
                merged.merge(sub).unwrap();
            }
            assert_eq!(merged.len(), 61);
            let mut sc = merged.begin_scatter();
            for batch in &batches {
                sc.scatter_batch(batch).unwrap();
            }
            let streamed = sc.finish().unwrap();
            assert_layout_identical(&whole, &streamed);
        }
    }

    #[test]
    fn merge_rejects_incompatible_builders() {
        let mut b = CellMajorBuilder::new(2, 1.0).unwrap();
        assert!(matches!(
            b.merge(CellMajorBuilder::new(3, 1.0).unwrap()),
            Err(SpatialError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            b.merge(CellMajorBuilder::new(2, 2.0).unwrap()),
            Err(SpatialError::StreamMismatch)
        ));
    }

    #[test]
    fn sharded_scatter_is_byte_identical_to_sequential() {
        let pts: Vec<[f64; 2]> = (0..61)
            .map(|i| [((i * 37) % 50) as f64 * 0.3, ((i * 53) % 40) as f64 * 0.3])
            .collect();
        let s = store_2d(&pts);
        let eps = 1.5;
        let whole = CellMajorStore::build(&s, eps).unwrap();
        for parts in [1usize, 2, 3, 4, 7] {
            for batch in [1usize, 7, 61] {
                let mut b = CellMajorBuilder::new(2, eps).unwrap();
                for chunk in s.flat().chunks(batch * 2) {
                    b.count_batch(chunk).unwrap();
                }
                let mut sc = b.begin_scatter();
                let chunks: Vec<&[f64]> = s.flat().chunks(batch * 2).collect();
                let mut shards = sc.shards(parts);
                assert!(!shards.is_empty() && shards.len() <= parts);
                // Shards partition the cell table.
                let mut next = 0usize;
                for shard in &shards {
                    assert_eq!(shard.cell_range().start, next);
                    next = shard.cell_range().end;
                }
                // Every shard is handed every batch (order per shard is
                // the stream order; shards themselves could run on
                // threads).
                let mut placed = 0usize;
                for shard in &mut shards {
                    for (i, chunk) in chunks.iter().enumerate() {
                        shard.place(i * batch, chunk).unwrap();
                    }
                    placed += shard.filled();
                }
                assert_eq!(placed, 61);
                drop(shards);
                let sharded = sc.finish_sharded().unwrap();
                assert_layout_identical(&whole, &sharded);
            }
        }
    }

    #[test]
    fn finish_sharded_detects_a_short_replay() {
        let mut b = CellMajorBuilder::new(2, 1.0).unwrap();
        b.count_batch(&[0.1, 0.1, 5.0, 5.0]).unwrap();
        let mut sc = b.begin_scatter();
        let mut shards = sc.shards(2);
        // Only the first shard places: its cells fill, the rest don't.
        if let Some(first) = shards.first_mut() {
            first.place(0, &[0.1, 0.1, 5.0, 5.0]).unwrap();
        }
        drop(shards);
        assert!(matches!(
            sc.finish_sharded(),
            Err(SpatialError::StreamMismatch)
        ));
    }

    #[test]
    fn empty_layout_yields_no_shards() {
        let b = CellMajorBuilder::new(2, 1.0).unwrap();
        let mut sc = b.begin_scatter();
        assert!(sc.shards(4).is_empty());
        assert!(sc.finish_sharded().unwrap().is_empty());
    }

    /// Sub-ranges of `range` whose lengths are mostly not multiples of
    /// either lane width, so every kernel runs its remainder loop.
    fn ragged_ranges(range: Range<usize>) -> Vec<Range<usize>> {
        let (lo, hi) = (range.start, range.end);
        [(0, 0), (1, 0), (0, 1), (3, 2), (2, 5)]
            .iter()
            .filter(|&&(a, b)| lo + a <= hi.saturating_sub(b))
            .map(|&(a, b)| lo + a..hi - b)
            .chain([lo..lo, lo..(lo + 5).min(hi)])
            .collect()
    }

    /// The oracle's distances: [`sq_dist`] from `q` to every slot.
    fn oracle_dists(cm: &CellMajorStore, q: &[f64]) -> Vec<f64> {
        (0..cm.len())
            .map(|slot| sq_dist(&gather_point(cm, slot), q))
            .collect()
    }

    /// One slot at a time: the `(count, comparisons)` that
    /// [`CellMajorStore::count_within`] must return.
    fn oracle_count(dists: &[f64], range: Range<usize>, eps_sq: f64, limit: usize) -> (usize, u64) {
        let (mut count, mut comps) = (0, 0);
        for &d in &dists[range] {
            comps += 1;
            if d <= eps_sq {
                count += 1;
                if count >= limit {
                    break;
                }
            }
        }
        (count, comps)
    }

    /// One slot at a time: the `(hit, comparisons)` that
    /// [`CellMajorStore::any_within_where`] must return.
    fn oracle_flagged(
        dists: &[f64],
        range: Range<usize>,
        eps_sq: f64,
        flags: &[bool],
        early: bool,
    ) -> (bool, u64) {
        let (mut hit, mut comps) = (false, 0);
        for slot in range.filter(|&slot| flags[slot]) {
            comps += 1;
            if dists[slot] <= eps_sq {
                hit = true;
                if early {
                    break;
                }
            }
        }
        (hit, comps)
    }

    #[test]
    fn kernel_dispatch_matches_scalar_counts_and_comparisons() {
        // d = 2 and d = 3 have their own blocks; d = 4 is the generic path.
        for dims in [2usize, 3, 4] {
            let rows: Vec<Vec<f64>> = (0..37)
                .map(|i| {
                    (0..dims)
                        .map(|k| ((i * (k + 3)) % 11) as f64 * 0.21)
                        .collect()
                })
                .collect();
            let s = PointStore::from_rows(dims, rows).unwrap();
            let cm = CellMajorStore::build(&s, 25.0).unwrap(); // one big cell
            let q: Vec<f64> = (0..dims).map(|k| 0.21 * (k + 1) as f64).collect();
            let dists = oracle_dists(&cm, &q);
            for range in ragged_ranges(cm.cells()[0].range()) {
                // Each slot in turn on the closed ball's boundary.
                for &eps_sq in [0.0, 0.4, 1.0, 900.0].iter().chain(&dists[range.clone()]) {
                    // Early exit must stop on the oracle's comparison.
                    for limit in [1usize, 3, 10, usize::MAX] {
                        assert_eq!(
                            cm.count_within(&q, range.clone(), eps_sq, limit),
                            oracle_count(&dists, range.clone(), eps_sq, limit),
                            "dims {dims} range {range:?} eps² {eps_sq} limit {limit}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn flagged_kernel_dispatch_matches_scalar_hits_and_comparisons() {
        for dims in [2usize, 3, 4] {
            let rows: Vec<Vec<f64>> = (0..29)
                .map(|i| {
                    (0..dims)
                        .map(|k| ((i * (k + 2)) % 13) as f64 * 0.17)
                        .collect()
                })
                .collect();
            let s = PointStore::from_rows(dims, rows).unwrap();
            let cm = CellMajorStore::build(&s, 25.0).unwrap();
            let q: Vec<f64> = (0..dims).map(|_| 0.17).collect();
            let dists = oracle_dists(&cm, &q);
            // Four mixed patterns at every slot's distance, then each slot
            // flagged alone at its own, so every slot decides a hit alone.
            let mixed = (0..4u32).map(|pattern| {
                let flags: Vec<bool> = (0..cm.len())
                    .map(|slot| (slot as u32).wrapping_mul(pattern + 1).is_multiple_of(3))
                    .collect();
                (flags, dists.clone())
            });
            let lone = (0..cm.len()).map(|lone| {
                let flags = (0..cm.len()).map(|slot| slot == lone).collect();
                (flags, vec![dists[lone]])
            });
            for (flags, edges) in mixed.chain(lone) {
                for range in ragged_ranges(cm.cells()[0].range()) {
                    for &eps_sq in [0.0, 0.3, 900.0].iter().chain(&edges) {
                        for early in [true, false] {
                            assert_eq!(
                                cm.any_within_where(&q, range.clone(), eps_sq, |s| flags[s], early),
                                oracle_flagged(&dists, range.clone(), eps_sq, &flags, early),
                                "dims {dims} flags {flags:?} range {range:?} eps² {eps_sq}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn layout_agrees_with_grid() {
        // Same cells, same per-cell id sets as the hash-keyed `Grid`.
        let pts: Vec<[f64; 2]> = (0..60)
            .map(|i| [((i * 37) % 50) as f64 * 0.3, ((i * 53) % 40) as f64 * 0.3])
            .collect();
        let s = store_2d(&pts);
        let eps = 1.5;
        let grid = crate::Grid::build(&s, eps).unwrap();
        let cm = CellMajorStore::build(&s, eps).unwrap();
        assert_eq!(cm.num_cells(), grid.num_cells());
        for (i, rec) in cm.cells().iter().enumerate() {
            let ids = &cm.orig_ids()[rec.range()];
            let coord = CellCoord::from_slice(cm.cell_coord(i).unwrap());
            assert_eq!(grid.points_in(&coord), Some(ids));
        }
    }
}
