//! Mutable slack-slot companion of the cell-major store.
//!
//! [`crate::CellMajorStore`] is built once, tightly packed, and never
//! changes — ideal for batch detection, useless for a long-running
//! service that inserts and removes points. [`MutableCellMajor`] keeps
//! the *same physical contract* (column-major coordinates with a fixed
//! stride, a cell → slot-range index, per-cell bounding boxes) while
//! allowing point churn, so the audited counted kernels
//! ([`CellMajorStore::count_within`],
//! [`CellMajorStore::any_within_where`],
//! [`CellMajorStore::collect_within`]) run unchanged over the
//! live slot ranges. A warm start adopts a finished batch layout
//! ([`MutableCellMajor::from_cell_major`]): its records, compact cell
//! table (coordinates plus 8-byte index buckets) and boxes move over as
//! they are, and each run is re-spaced once to open its slack. The
//! mutability scheme:
//!
//! * **slack slots** — every cell's run is allocated with spare capacity
//!   (`cap ≥ len`); an insert into a cell with slack writes one slot and
//!   bumps the run's `end`, O(d);
//! * **swap-remove** — a removal moves the run's last live slot into the
//!   hole and shrinks the run; the freed slot stays inside the cell's
//!   capacity and is reused by the next insert into that cell;
//! * **amortized run relocation** — when a cell overflows its capacity,
//!   its run is copied to the buffer tail with doubled capacity
//!   (geometric growth ⇒ amortized O(1) slots moved per insert); the old
//!   run's slots become *tombstones*;
//! * **compaction** — when tombstones outnumber `max(64, live)`, the
//!   whole layout is rebuilt tightly (canonical cell order, fresh slack,
//!   tight bounding boxes), reclaiming every dead slot.
//!
//! Invariants the property tests pin:
//!
//! 1. **bbox containment** — every live point of a cell lies inside the
//!    cell's stored box. Inserts *widen* the box and removals leave it
//!    untouched, so the box may be looser than the tight batch box —
//!    pruning stays sound (a lower bound stays a lower bound), it only
//!    prunes less until the next relocation/compaction re-tightens it.
//! 2. **run disjointness** — live runs (and their capacity extents)
//!    never overlap, so a kernel scan over one cell's range touches no
//!    other cell's points.
//! 3. **id ↔ slot bijection** — `slot_of` maps every live id to the slot
//!    holding its coordinates and `orig_ids` inverts it; tombstoned
//!    slots hold [`TOMBSTONE`].

use std::ops::Range;

use crate::cell::{cell_of, cell_side, check_point, validate_eps, MAX_DIMS};
use crate::cell_major::{CellMajorStore, CellRecord};
use crate::cell_table::CellTable;
use crate::error::SpatialError;
use crate::points::{PointId, PointStore};

/// The `orig_ids` marker for a slot holding no live point.
pub const TOMBSTONE: PointId = PointId::MAX;

/// Per-cell slack granted on (re)layout: a quarter of the occupancy
/// plus a small constant, so small cells can absorb a few inserts and
/// large cells do not double the footprint.
fn slack_for(len: usize) -> usize {
    len / 4 + 2
}

/// Spare room past `len` entries on (re)layout: an eighth, at least 16.
/// The slot columns get it, and an adopted layout's cell table, boxes,
/// capacities and id map too, so the first new cells and ids of a
/// session do not reallocate (and copy) them.
fn headroom(len: usize) -> usize {
    16.max(len / 8)
}

/// A [`CellMajorStore`] that supports exact insert/remove churn.
///
/// The wrapped store's `n` is the *slot capacity* (column stride), not
/// the live point count — use [`MutableCellMajor::live`] for the latter
/// and trust only slots inside a [`CellRecord`] run. Cells are found
/// through the store's compact cell table: an insert interns its cell
/// with one SipHash and a probe of 8-byte buckets, and a new cell
/// appends its coordinates to the table's flat array and an 8-byte
/// record to the store.
#[derive(Debug, Clone)]
pub struct MutableCellMajor {
    store: CellMajorStore,
    /// Per-cell allocated run end: cell `i` owns slots
    /// `cells[i].start .. caps[i]`, of which `cells[i].start ..
    /// cells[i].end` are live.
    caps: Vec<u32>,
    /// Point id → slot, [`TOMBSTONE`] when the id is not live. Indexed
    /// by every id ever passed to [`Self::insert`].
    slot_of: Vec<u32>,
    live: usize,
    /// First never-allocated slot (`≤ store.n`); new and relocated runs
    /// are carved from here.
    tail: usize,
    /// Slots abandoned by run relocations, reclaimed on compaction.
    dead_slots: usize,
    rebuilds: u64,
    compactions: u64,
}

impl MutableCellMajor {
    /// An empty mutable layout for `dims`-dimensional points at radius
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
            store: CellMajorStore {
                dims,
                eps,
                side: cell_side(eps, dims),
                n: 0,
                cols: Vec::new(),
                orig_ids: Vec::new(),
                cells: Vec::new(),
                // New cells are appended out of order, so this layout
                // never offers the sorted-table neighbor sweep.
                sorted: false,
                table: CellTable::new(dims),
                bbox_min: Vec::new(),
                bbox_max: Vec::new(),
            },
            caps: Vec::new(),
            slot_of: Vec::new(),
            live: 0,
            tail: 0,
            dead_slots: 0,
            rebuilds: 0,
            compactions: 0,
        })
    }

    /// Adopts a finished batch layout — the warm-start path of the
    /// serving daemon, and the last step of a compaction. The live
    /// points, their ids (`orig_ids`, so id `i` is row `i` of the store
    /// `batch` was built from), the cell records, the cell table and the
    /// tight bounding boxes are `batch`'s. The records and table move
    /// over without a rebuild; each cell's run is copied once to open its
    /// slack gap behind it (`len / 4 + 2` slots).
    pub fn from_cell_major(batch: CellMajorStore) -> Self {
        let CellMajorStore {
            dims,
            eps,
            side,
            n,
            cols,
            orig_ids,
            mut cells,
            mut table,
            mut bbox_min,
            mut bbox_max,
            ..
        } = batch;
        let spare = headroom(cells.len());
        let used: usize = cells
            .iter()
            .map(|rec| rec.len() + slack_for(rec.len()))
            .sum();
        let slots = used + headroom(used);
        let mut new_cols = vec![0.0; dims * slots];
        let mut new_ids = vec![TOMBSTONE; slots];
        let mut slot_of = Vec::with_capacity(n + headroom(n));
        slot_of.resize(n, TOMBSTONE);
        let mut caps = Vec::with_capacity(cells.len() + spare);
        let mut cursor = 0usize;
        for rec in &mut cells {
            let (from, len) = (rec.range(), rec.len());
            let to = cursor..cursor + len;
            for k in 0..dims {
                if let (Some(src), Some(dst)) = (
                    cols.get(k * n + from.start..k * n + from.end),
                    new_cols.get_mut(k * slots + to.start..k * slots + to.end),
                ) {
                    dst.copy_from_slice(src);
                }
            }
            if let (Some(src), Some(dst)) = (orig_ids.get(from), new_ids.get_mut(to.clone())) {
                dst.copy_from_slice(src);
                for (slot, &id) in to.zip(src.iter()) {
                    if let Some(s) = slot_of.get_mut(id as usize) {
                        *s = slot as u32;
                    }
                }
            }
            rec.start = cursor as u32;
            rec.end = (cursor + len) as u32;
            cursor += len + slack_for(len);
            caps.push(cursor as u32);
        }
        cells.reserve_exact(spare);
        table.reserve(spare);
        bbox_min.reserve_exact(spare * dims);
        bbox_max.reserve_exact(spare * dims);
        Self {
            store: CellMajorStore {
                dims,
                eps,
                side,
                n: slots,
                cols: new_cols,
                orig_ids: new_ids,
                cells,
                // New cells will be appended out of order.
                sorted: false,
                table,
                bbox_min,
                bbox_max,
            },
            caps,
            slot_of,
            live: n,
            tail: cursor,
            dead_slots: 0,
            rebuilds: 0,
            compactions: 0,
        }
    }

    /// The read-only view the kernels consume. The wrapped store's
    /// `len()` is the slot capacity; only slots inside a cell record's
    /// live range hold points.
    pub fn store(&self) -> &CellMajorStore {
        &self.store
    }

    /// Number of live points.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether the layout holds no live points.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Dimensionality of the stored points.
    pub fn dims(&self) -> usize {
        self.store.dims
    }

    /// The ε this layout was built with.
    pub fn eps(&self) -> f64 {
        self.store.eps
    }

    /// Allocated slot capacity (the column stride).
    pub fn capacity(&self) -> usize {
        self.store.n
    }

    /// Slots abandoned by run relocations and not yet compacted away.
    pub fn dead_slots(&self) -> usize {
        self.dead_slots
    }

    /// Cell-run relocations performed so far (overflow grows).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Whole-layout compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The slot currently holding live point `id`, if any.
    pub fn slot_of(&self, id: PointId) -> Option<usize> {
        match self.slot_of.get(id as usize).copied() {
            Some(TOMBSTONE) | None => None,
            Some(slot) => Some(slot as usize),
        }
    }

    /// Whether `id` is live in this layout.
    pub fn contains(&self, id: PointId) -> bool {
        self.slot_of(id).is_some()
    }

    /// Copies the coordinates of live point `id` into `out` (first
    /// `dims` entries); `false` when `id` is not live.
    pub fn point_of(&self, id: PointId, out: &mut [f64; MAX_DIMS]) -> bool {
        match self.slot_of(id) {
            Some(slot) => {
                self.store.point_into(slot, out);
                true
            }
            None => false,
        }
    }

    /// Inserts point `id`; returns `false` (and changes nothing) when
    /// the id is already live. Ids may arrive in any order but are never
    /// recycled by the callers (the incremental engine issues fresh ids
    /// monotonically).
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatch, or a coordinate that is non-finite or
    /// out of range ([`check_point`]).
    pub fn insert(&mut self, id: PointId, point: &[f64]) -> Result<bool, SpatialError> {
        if point.len() != self.store.dims {
            return Err(SpatialError::DimensionMismatch {
                expected: self.store.dims,
                got: point.len(),
            });
        }
        check_point(id as usize, point, self.store.side)?;
        if self.contains(id) {
            return Ok(false);
        }
        let coord = cell_of(point, self.store.side);
        match self.store.table.intern(coord.coords()) {
            (ci, false) => self.insert_into_cell(ci as usize, id, point),
            (_, true) => self.insert_new_cell(id, point),
        }
        self.live += 1;
        if self.dead_slots > 64.max(self.live) {
            self.compact();
        }
        Ok(true)
    }

    /// Removes live point `id` by swap-remove within its cell run;
    /// returns `false` when the id is not live. The freed slot stays
    /// inside the cell's capacity and is reused by the next insert into
    /// the same cell; the cell's bounding box is left untouched (still
    /// containing, merely looser).
    pub fn remove(&mut self, id: PointId) -> bool {
        let Some(slot) = self.slot_of(id) else {
            return false;
        };
        let mut buf = [0.0; MAX_DIMS];
        self.store.point_into(slot, &mut buf);
        let coord = cell_of(buf.get(..self.store.dims).unwrap_or(&[]), self.store.side);
        let Some(ci) = self.store.table.lookup(coord.coords()) else {
            return false; // unreachable for a live id; stay panic-free
        };
        let Some(rec) = self.store.cells.get(ci as usize) else {
            return false;
        };
        let last = rec.end as usize - 1;
        if slot != last {
            let n = self.store.n;
            for k in 0..self.store.dims {
                let v = self.store.cols.get(k * n + last).copied().unwrap_or(0.0);
                if let Some(dst) = self.store.cols.get_mut(k * n + slot) {
                    *dst = v;
                }
            }
            let moved = self.store.orig_ids.get(last).copied().unwrap_or(TOMBSTONE);
            if let Some(dst) = self.store.orig_ids.get_mut(slot) {
                *dst = moved;
            }
            if let Some(s) = self.slot_of.get_mut(moved as usize) {
                *s = slot as u32;
            }
        }
        if let Some(dst) = self.store.orig_ids.get_mut(last) {
            *dst = TOMBSTONE;
        }
        if let Some(rec) = self.store.cells.get_mut(ci as usize) {
            rec.end -= 1;
        }
        if let Some(s) = self.slot_of.get_mut(id as usize) {
            *s = TOMBSTONE;
        }
        self.live -= 1;
        true
    }

    /// Live slot ranges, one per non-empty cell, paired with the cell
    /// index (for bbox lookups). Emptied cells keep their record (their
    /// capacity is reusable) but are skipped here.
    pub fn live_ranges(&self) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        self.store
            .cells
            .iter()
            .enumerate()
            .filter(|(_, rec)| !rec.is_empty())
            .map(|(ci, rec)| (ci, rec.range()))
    }

    /// Number of non-empty cells.
    pub fn num_live_cells(&self) -> usize {
        self.store.cells.iter().filter(|r| !r.is_empty()).count()
    }

    // ---- internals ------------------------------------------------------

    /// Writes `point`/`id` into `slot` (no bookkeeping besides the
    /// columns, the id maps, and nothing else).
    fn write_slot(&mut self, slot: usize, id: PointId, point: &[f64]) {
        let n = self.store.n;
        for (k, &x) in point.iter().enumerate() {
            if let Some(dst) = self.store.cols.get_mut(k * n + slot) {
                *dst = x;
            }
        }
        if let Some(dst) = self.store.orig_ids.get_mut(slot) {
            *dst = id;
        }
        if self.slot_of.len() <= id as usize {
            self.slot_of.resize(id as usize + 1, TOMBSTONE);
        }
        if let Some(s) = self.slot_of.get_mut(id as usize) {
            *s = slot as u32;
        }
    }

    /// Widens cell `ci`'s bounding box to contain `point`; when `reset`,
    /// the box is set to the point exactly (first point of an emptied or
    /// fresh run — the stale box of an emptied cell must not leak).
    fn grow_bbox(&mut self, ci: usize, point: &[f64], reset: bool) {
        let base = ci * self.store.dims;
        for (k, &x) in point.iter().enumerate() {
            if let Some(mn) = self.store.bbox_min.get_mut(base + k) {
                *mn = if reset { x } else { mn.min(x) };
            }
            if let Some(mx) = self.store.bbox_max.get_mut(base + k) {
                *mx = if reset { x } else { mx.max(x) };
            }
        }
    }

    /// Insert into an existing cell: use slack when available, otherwise
    /// relocate the run to the tail with doubled capacity.
    fn insert_into_cell(&mut self, ci: usize, id: PointId, point: &[f64]) {
        let (start, end) = match self.store.cells.get(ci) {
            Some(rec) => (rec.start as usize, rec.end as usize),
            None => return,
        };
        let cap = self.caps.get(ci).copied().unwrap_or(end as u32) as usize;
        if end < cap {
            self.write_slot(end, id, point);
            self.grow_bbox(ci, point, start == end);
            if let Some(rec) = self.store.cells.get_mut(ci) {
                rec.end += 1;
            }
            return;
        }
        // Overflow: relocate the run to the tail, geometrically grown.
        let len = end - start;
        let new_cap = len * 2 + 2;
        self.reserve_tail(new_cap);
        let (new_start, n) = (self.tail, self.store.n);
        for k in 0..self.store.dims {
            let src = k * n + start;
            let dst = k * n + new_start;
            // Runs never overlap: the tail lies beyond every allocated run.
            self.store.cols.copy_within(src..src + len, dst);
        }
        for i in 0..len {
            let moved = self
                .store
                .orig_ids
                .get(start + i)
                .copied()
                .unwrap_or(TOMBSTONE);
            if let Some(dst) = self.store.orig_ids.get_mut(new_start + i) {
                *dst = moved;
            }
            if let Some(s) = self.slot_of.get_mut(moved as usize) {
                *s = (new_start + i) as u32;
            }
        }
        for slot in start..cap {
            if let Some(dst) = self.store.orig_ids.get_mut(slot) {
                *dst = TOMBSTONE;
            }
        }
        self.dead_slots += cap - start;
        if let Some(rec) = self.store.cells.get_mut(ci) {
            rec.start = new_start as u32;
            rec.end = (new_start + len) as u32;
        }
        if let Some(c) = self.caps.get_mut(ci) {
            *c = (new_start + new_cap) as u32;
        }
        self.tail = new_start + new_cap;
        self.rebuilds += 1;
        self.write_slot(new_start + len, id, point);
        if let Some(rec) = self.store.cells.get_mut(ci) {
            rec.end += 1;
        }
        self.retighten_bbox(ci);
    }

    /// Insert into a cell just interned as the table's last: carve a
    /// small fresh run from the tail.
    fn insert_new_cell(&mut self, id: PointId, point: &[f64]) {
        let new_cap = slack_for(1).max(2);
        self.reserve_tail(new_cap);
        let start = self.tail;
        self.store.cells.push(CellRecord {
            start: start as u32,
            end: start as u32 + 1,
        });
        self.caps.push((start + new_cap) as u32);
        self.store.bbox_min.extend_from_slice(point);
        self.store.bbox_max.extend_from_slice(point);
        self.tail = start + new_cap;
        self.write_slot(start, id, point);
    }

    /// Recomputes the tight bounding box of cell `ci` from its live run
    /// (used after relocation, when the run is being rewritten anyway).
    fn retighten_bbox(&mut self, ci: usize) {
        let Some(rec) = self.store.cells.get(ci).copied() else {
            return;
        };
        let mut buf = [0.0; MAX_DIMS];
        let mut first = true;
        for slot in rec.range() {
            self.store.point_into(slot, &mut buf);
            let point = buf;
            self.grow_bbox(ci, point.get(..self.store.dims).unwrap_or(&[]), first);
            first = false;
        }
    }

    /// Ensures at least `extra` slots exist past the tail, growing the
    /// column stride geometrically (a re-stride copies every column —
    /// O(capacity), amortized by the geometric growth).
    fn reserve_tail(&mut self, extra: usize) {
        let need = self.tail + extra;
        if need <= self.store.n {
            return;
        }
        let old_n = self.store.n;
        let new_n = need.max(old_n + old_n / 2).max(64);
        let mut cols = vec![0.0; self.store.dims * new_n];
        for k in 0..self.store.dims {
            let src = k * old_n;
            let dst = k * new_n;
            if let (Some(s), Some(d)) = (
                self.store.cols.get(src..src + old_n),
                cols.get_mut(dst..dst + old_n),
            ) {
                d.copy_from_slice(s);
            }
        }
        self.store.cols = cols;
        self.store.orig_ids.resize(new_n, TOMBSTONE);
        self.store.n = new_n;
    }

    /// Rebuilds the whole layout tightly from scratch, as a batch build
    /// of the live points adopted by [`Self::from_cell_major`]: canonical
    /// cell order (ascending coordinate), fresh slack, tight bounding
    /// boxes, zero tombstones. Ids and counters carry over.
    fn compact(&mut self) {
        let dims = self.store.dims;
        let mut ids: Vec<PointId> = Vec::with_capacity(self.live);
        let mut rows: Vec<f64> = Vec::with_capacity(self.live * dims);
        let mut buf = [0.0; MAX_DIMS];
        for id in 0..self.slot_of.len() as PointId {
            if self.point_of(id, &mut buf) {
                ids.push(id);
                rows.extend_from_slice(buf.get(..dims).unwrap_or_default());
            }
        }
        // Live points are finite and `new` validated ε, so the build
        // cannot fail; if it did, the layout would stay as it is.
        let Ok(batch) = PointStore::from_flat(dims, rows)
            .and_then(|points| CellMajorStore::build(&points, self.store.eps))
        else {
            return;
        };
        let mut fresh = Self::from_cell_major(batch);
        // The build numbered the live points by rank; restore their ids.
        fresh.slot_of = vec![TOMBSTONE; self.slot_of.len()];
        for (slot, id) in fresh.store.orig_ids.iter_mut().enumerate() {
            if let Some(&orig) = ids.get(*id as usize) {
                *id = orig;
                if let Some(s) = fresh.slot_of.get_mut(orig as usize) {
                    *s = slot as u32;
                }
            }
        }
        fresh.rebuilds = self.rebuilds;
        fresh.compactions = self.compactions + 1;
        *self = fresh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::sq_dist;
    use crate::neighbors::NeighborOffsets;

    fn store_2d(points: &[[f64; 2]]) -> PointStore {
        PointStore::from_rows(2, points.iter().map(|p| p.to_vec())).unwrap()
    }

    /// Every live id maps to a slot holding its coordinates, runs are
    /// disjoint, and every live point sits inside its cell's bbox.
    fn check_invariants(m: &MutableCellMajor, reference: &[(PointId, Vec<f64>)]) {
        let live: Vec<_> = reference.iter().collect();
        assert_eq!(m.live(), live.len());
        let s = m.store();
        let mut buf = [0.0; MAX_DIMS];
        for (id, p) in &live {
            let slot = m.slot_of(*id).expect("live id has a slot");
            s.point_into(slot, &mut buf);
            assert_eq!(&buf[..s.dims()], p.as_slice(), "id {id} coords");
            assert_eq!(s.orig_ids()[slot], *id);
            // The slot lies in exactly one live run, and that run's cell
            // bbox contains the point.
            let (ci, _) = m
                .live_ranges()
                .find(|(_, r)| r.contains(&slot))
                .expect("slot inside a live run");
            assert_eq!(s.min_sq_dist_to_bbox(p, ci), 0.0, "bbox lost id {id}");
        }
        // Runs and their capacity extents are disjoint.
        let mut extents: Vec<(usize, usize)> = s
            .cells()
            .iter()
            .enumerate()
            .map(|(ci, rec)| (rec.start as usize, m.caps[ci] as usize))
            .collect();
        extents.sort_unstable();
        for w in extents.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping runs {:?}", w);
        }
        // Tombstone bookkeeping: slots outside every capacity extent or
        // past a run's end are never live ids.
        let live_slots: std::collections::HashSet<usize> =
            live.iter().map(|(id, _)| m.slot_of(*id).unwrap()).collect();
        for slot in 0..m.capacity() {
            let in_run = s
                .cells()
                .iter()
                .any(|rec| (rec.start as usize..rec.end as usize).contains(&slot));
            if in_run {
                assert!(live_slots.contains(&slot), "run slot {slot} not live");
            } else {
                assert_eq!(s.orig_ids()[slot], TOMBSTONE, "slot {slot}");
            }
        }
    }

    /// Kernel query over the mutable layout = brute force over the
    /// reference set.
    fn check_queries(m: &MutableCellMajor, reference: &[(PointId, Vec<f64>)], eps: f64) {
        let s = m.store();
        let offsets = NeighborOffsets::new(s.dims()).unwrap();
        let eps_sq = eps * eps;
        let queries: Vec<Vec<f64>> = reference.iter().take(8).map(|(_, p)| p.clone()).collect();
        for q in &queries {
            let coord = cell_of(q, s.side());
            let mut got: Vec<PointId> = Vec::new();
            for off in offsets.iter() {
                let Some(ncoord) = NeighborOffsets::apply(&coord, off) else {
                    continue;
                };
                let Some(ci) = s.cell_index(&ncoord) else {
                    continue;
                };
                if s.min_sq_dist_to_bbox(q, ci as usize) > eps_sq {
                    continue;
                }
                let rec = s.cells()[ci as usize];
                let mut slots = Vec::new();
                s.collect_within(q, rec.range(), eps_sq, usize::MAX, &mut slots);
                got.extend(slots.iter().map(|&sl| s.orig_ids()[sl as usize]));
            }
            got.sort_unstable();
            let mut want: Vec<PointId> = reference
                .iter()
                .filter(|(_, p)| sq_dist(p, q) <= eps_sq)
                .map(|(id, _)| *id)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "neighbors of {q:?}");
        }
    }

    #[test]
    fn bulk_load_matches_batch_layout_contents() {
        let pts: Vec<[f64; 2]> = (0..60)
            .map(|i| [((i * 7) % 13) as f64 * 0.3, ((i * 11) % 9) as f64 * 0.3])
            .collect();
        let s = store_2d(&pts);
        let eps = 1.0;
        let m = MutableCellMajor::from_cell_major(CellMajorStore::build(&s, eps).unwrap());
        let reference: Vec<(PointId, Vec<f64>)> =
            s.iter().map(|(id, p)| (id, p.to_vec())).collect();
        check_invariants(&m, &reference);
        check_queries(&m, &reference, eps);
        // Same cell decomposition as the immutable batch build.
        let batch = CellMajorStore::build(&s, eps).unwrap();
        assert_eq!(m.num_live_cells(), batch.num_cells());
        for (i, rec) in batch.cells().iter().enumerate() {
            let coord = crate::CellCoord::from_slice(batch.cell_coord(i).unwrap());
            let ci = m.store().cell_index(&coord).expect("cell present");
            assert_eq!(
                m.store().cells()[ci as usize].len(),
                rec.len(),
                "occupancy of {coord:?}"
            );
        }
    }

    #[test]
    fn churn_preserves_invariants_and_queries() {
        let eps = 0.8;
        let mut m = MutableCellMajor::new(2, eps).unwrap();
        let mut reference: Vec<(PointId, Vec<f64>)> = Vec::new();
        let mut next_id = 0u32;
        // Deterministic pseudo-random churn without an RNG dependency.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..400 {
            let r = rand();
            if reference.is_empty() || r % 100 < 70 {
                let p = vec![
                    ((r >> 8) % 1000) as f64 * 0.01,
                    ((r >> 24) % 1000) as f64 * 0.01,
                ];
                assert!(m.insert(next_id, &p).unwrap());
                reference.push((next_id, p));
                next_id += 1;
            } else {
                let victim = (r >> 16) as usize % reference.len();
                let (id, _) = reference.swap_remove(victim);
                assert!(m.remove(id));
                assert!(!m.remove(id), "double remove");
            }
            if step % 57 == 0 {
                reference.sort_unstable_by_key(|&(id, _)| id);
                check_invariants(&m, &reference);
                check_queries(&m, &reference, eps);
            }
        }
        reference.sort_unstable_by_key(|&(id, _)| id);
        check_invariants(&m, &reference);
        check_queries(&m, &reference, eps);
        assert!(m.rebuilds() > 0, "churn must exercise run relocation");
    }

    #[test]
    fn overflow_relocates_run_and_compaction_reclaims() {
        let mut m = MutableCellMajor::new(2, 1.0).unwrap();
        // Hammer one cell so its run overflows repeatedly.
        for i in 0..200u32 {
            m.insert(i, &[0.1 + (i as f64) * 1e-6, 0.1]).unwrap();
        }
        assert!(m.rebuilds() > 2, "one hot cell must relocate repeatedly");
        assert!(m.dead_slots() > 0 || m.compactions() > 0);
        let dead_before = m.dead_slots();
        // Spread inserts over fresh cells until compaction triggers (it
        // fires when tombstones exceed max(64, live); removals shrink
        // live, so remove most points first).
        for i in 0..190u32 {
            assert!(m.remove(i));
        }
        for i in 200..280u32 {
            m.insert(i, &[(i as f64) * 3.0, 0.0]).unwrap();
            m.remove(i);
        }
        // Force the hot cell to overflow again and push tombstones past
        // the threshold.
        for i in 300..400u32 {
            m.insert(i, &[0.1, 0.1 + (i as f64) * 1e-6]).unwrap();
        }
        let _ = dead_before;
        if m.compactions() == 0 {
            // Depending on thresholds compaction may not have fired yet;
            // force the condition by churning the hot cell further.
            for i in 400..800u32 {
                m.insert(i, &[0.1, 0.2]).unwrap();
            }
        }
        assert!(m.compactions() > 0, "tombstones must eventually compact");
        // After compaction the layout is tight again.
        let reference: Vec<(PointId, Vec<f64>)> = (0..m.slot_of.len() as u32)
            .filter_map(|id| {
                let mut buf = [0.0; MAX_DIMS];
                m.point_of(id, &mut buf).then(|| (id, buf[..2].to_vec()))
            })
            .collect();
        check_invariants(&m, &reference);
    }

    #[test]
    fn compaction_keeps_every_live_id_and_its_point() {
        // One hot cell grows while every even id is removed again, so the
        // live ids are sparse when the relocations' tombstones force a
        // compaction.
        let mut m = MutableCellMajor::new(2, 1.0).unwrap();
        let mut reference: Vec<(PointId, Vec<f64>)> = Vec::new();
        let mut id = 0u32;
        while m.compactions() == 0 {
            assert!(id < 10_000, "tombstones must eventually compact");
            let p = vec![0.1 + f64::from(id) * 1e-4, 0.2];
            assert!(m.insert(id, &p).unwrap());
            reference.push((id, p));
            if id % 2 == 1 {
                let (even, _) = reference.swap_remove(reference.len() - 2);
                assert!(m.remove(even));
            }
            id += 1;
        }
        check_invariants(&m, &reference);
        check_queries(&m, &reference, 1.0);
    }

    #[test]
    fn emptied_cell_is_reusable_and_bbox_resets() {
        let mut m = MutableCellMajor::new(2, 1.0).unwrap();
        m.insert(0, &[0.3, 0.3]).unwrap();
        m.insert(1, &[0.05, 0.05]).unwrap();
        m.remove(0);
        m.remove(1);
        assert_eq!(m.live(), 0);
        // Re-insert far inside the same cell: the stale wide bbox must
        // reset to the new point, or pruning would stay needlessly loose.
        m.insert(2, &[0.2, 0.2]).unwrap();
        let s = m.store();
        let ci = s.cell_index(&cell_of(&[0.2, 0.2], s.side())).unwrap() as usize;
        assert_eq!(s.min_sq_dist_to_bbox(&[0.2, 0.2], ci), 0.0);
        // A probe at the cell corner sees a positive lower bound again
        // (tight box around the single point, not the stale wide one).
        let d = s.min_sq_dist_to_bbox(&[0.05, 0.05], ci);
        assert!(d > 0.0, "bbox did not reset: {d}");
    }

    #[test]
    fn insert_validates_and_rejects_duplicates() {
        let mut m = MutableCellMajor::new(2, 1.0).unwrap();
        assert!(matches!(
            m.insert(0, &[1.0]),
            Err(SpatialError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            m.insert(0, &[f64::NAN, 0.0]),
            Err(SpatialError::NonFiniteCoordinate { .. })
        ));
        assert!(m.insert(0, &[0.0, 0.0]).unwrap());
        assert!(
            !m.insert(0, &[5.0, 5.0]).unwrap(),
            "duplicate id is a no-op"
        );
        let mut buf = [0.0; MAX_DIMS];
        assert!(m.point_of(0, &mut buf));
        assert_eq!(&buf[..2], &[0.0, 0.0]);
    }

    #[test]
    fn empty_layout_answers_queries() {
        let m = MutableCellMajor::new(3, 0.5).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.num_live_cells(), 0);
        assert_eq!(m.slot_of(7), None);
        assert!(!m.contains(7));
    }
}
