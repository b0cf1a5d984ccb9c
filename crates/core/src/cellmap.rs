//! Cell maps: the small, broadcastable structures that classify every
//! non-empty cell (paper §III-C and §III-E).
//!
//! A [`CellMap`] holds one [`CellType`] per **non-empty** cell plus the
//! neighbor-offset table, so executors can answer "what type is cell C?",
//! "which non-empty cells neighbor C?" and "which core cells neighbor C?"
//! without touching point data.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use dbscout_spatial::{CellCoord, NeighborOffsets, SpatialError};

type DetState = BuildHasherDefault<DefaultHasher>;

/// Classification of a non-empty cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellType {
    /// Contains ≥ `minPts` points (Definition 6): every point inside is a
    /// core point (Lemma 1), so the cell is also core.
    Dense,
    /// Non-dense but contains at least one core point (Definition 7).
    Core,
    /// Neither dense nor (known to be) core.
    Other,
}

impl CellType {
    /// Whether the cell is a core cell (dense cells are core, Lemma 1 ⇒
    /// Definition 7).
    pub fn is_core(self) -> bool {
        matches!(self, CellType::Dense | CellType::Core)
    }
}

/// A broadcastable map from non-empty cell coordinates to [`CellType`].
#[derive(Debug, Clone)]
pub struct CellMap {
    types: HashMap<CellCoord, CellType, DetState>,
    offsets: NeighborOffsets,
}

impl CellMap {
    /// Builds the *dense* cell map from per-cell point counts
    /// (paper Algorithm 2): `Dense` iff the count reaches `min_pts`.
    ///
    /// # Errors
    ///
    /// Fails if `dims` is unsupported or `min_pts` is zero.
    pub fn from_counts(
        dims: usize,
        counts: impl IntoIterator<Item = (CellCoord, usize)>,
        min_pts: usize,
    ) -> Result<Self, SpatialError> {
        if min_pts == 0 {
            return Err(SpatialError::InvalidMinPts);
        }
        let offsets = NeighborOffsets::new(dims)?;
        let types = counts
            .into_iter()
            .map(|(c, n)| {
                let t = if n >= min_pts {
                    CellType::Dense
                } else {
                    CellType::Other
                };
                (c, t)
            })
            .collect();
        Ok(Self { types, offsets })
    }

    /// Number of known (non-empty) cells.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the map knows no cells.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// The type of a cell; `None` for empty (unknown) cells.
    pub fn cell_type(&self, cell: &CellCoord) -> Option<CellType> {
        self.types.get(cell).copied()
    }

    /// Whether `cell` is dense.
    pub fn is_dense(&self, cell: &CellCoord) -> bool {
        matches!(self.cell_type(cell), Some(CellType::Dense))
    }

    /// Whether `cell` is a core cell.
    pub fn is_core(&self, cell: &CellCoord) -> bool {
        self.cell_type(cell).is_some_and(CellType::is_core)
    }

    /// Marks a non-dense cell as core (paper Algorithm 4). Dense cells are
    /// left as `Dense` — they already imply core.
    pub fn promote_to_core(&mut self, cell: &CellCoord) {
        if let Some(t) = self.types.get_mut(cell) {
            if *t == CellType::Other {
                *t = CellType::Core;
            }
        }
    }

    /// The non-empty neighbor cells of `cell`, itself included
    /// (Definition 8 restricted to cells that exist in the grid).
    pub fn neighbors<'a>(&'a self, cell: &'a CellCoord) -> impl Iterator<Item = CellCoord> + 'a {
        self.offsets
            .iter()
            .filter_map(move |o| NeighborOffsets::apply(cell, o))
            .filter(|n| self.types.contains_key(n))
    }

    /// The neighbor cells of `cell` that are core cells.
    pub fn core_neighbors<'a>(
        &'a self,
        cell: &'a CellCoord,
    ) -> impl Iterator<Item = CellCoord> + 'a {
        self.offsets
            .iter()
            .filter_map(move |o| NeighborOffsets::apply(cell, o))
            .filter(|n| self.is_core(n))
    }

    /// Whether `cell` has at least one core neighbor (fast path of the
    /// outliers phase: none ⇒ every point of the cell is an outlier).
    pub fn has_core_neighbor(&self, cell: &CellCoord) -> bool {
        self.core_neighbors(cell).next().is_some()
    }

    /// Iterates over all `(cell, type)` entries, in unspecified order.
    /// Order-sensitive callers must canonicalize.
    pub fn iter(&self) -> impl Iterator<Item = (&CellCoord, CellType)> + '_ {
        // xlint: ordered -- documented order-free; consumers count or probe by key
        self.types.iter().map(|(c, t)| (c, *t))
    }

    /// Number of dense cells.
    pub fn dense_cells(&self) -> usize {
        // xlint: ordered -- counting matches is order-insensitive
        self.types
            .values()
            .filter(|t| matches!(t, CellType::Dense))
            .count()
    }

    /// Number of core cells (dense included).
    pub fn core_cells(&self) -> usize {
        // xlint: ordered -- counting matches is order-insensitive
        self.types.values().filter(|t| t.is_core()).count()
    }

    /// The neighbor-offset table (shared with callers that iterate raw
    /// offsets).
    pub fn offsets(&self) -> &NeighborOffsets {
        &self.offsets
    }
}

/// The cell-major layout's analogue of [`CellMap`]: dense/core flags
/// keyed by *cell index* (position in
/// [`dbscout_spatial::CellMajorStore::cells`]) instead of coordinate
/// hash, so the hot loops classify a cell with one array load.
#[derive(Debug, Clone)]
pub struct CellFlags {
    dense: Vec<bool>,
    /// Non-dense cells promoted by Algorithm 4; disjoint from `dense`.
    promoted: Vec<bool>,
    dense_cells: usize,
    promoted_cells: usize,
}

impl CellFlags {
    /// Builds the dense flags from per-cell point counts in cell-index
    /// order (paper Algorithm 2): dense iff the count reaches `min_pts`.
    ///
    /// # Errors
    ///
    /// Fails if `min_pts` is zero.
    pub fn from_counts(
        counts: impl IntoIterator<Item = usize>,
        min_pts: usize,
    ) -> Result<Self, SpatialError> {
        if min_pts == 0 {
            return Err(SpatialError::InvalidMinPts);
        }
        let dense: Vec<bool> = counts.into_iter().map(|n| n >= min_pts).collect();
        let dense_cells = dense.iter().filter(|&&d| d).count();
        let promoted = vec![false; dense.len()];
        Ok(Self {
            dense,
            promoted,
            dense_cells,
            promoted_cells: 0,
        })
    }

    /// Number of cells tracked.
    pub fn len(&self) -> usize {
        self.dense.len()
    }

    /// Whether no cells are tracked.
    pub fn is_empty(&self) -> bool {
        self.dense.is_empty()
    }

    /// Whether cell `idx` is dense (out-of-range ⇒ `false`).
    #[inline]
    pub fn is_dense(&self, idx: usize) -> bool {
        self.dense.get(idx).copied().unwrap_or(false)
    }

    /// Whether cell `idx` is a core cell — dense (Lemma 1) or promoted
    /// (Algorithm 4).
    #[inline]
    pub fn is_core(&self, idx: usize) -> bool {
        self.is_dense(idx) || self.promoted.get(idx).copied().unwrap_or(false)
    }

    /// Marks a non-dense cell as core (paper Algorithm 4); dense cells
    /// and out-of-range indices are left alone.
    pub fn promote_to_core(&mut self, idx: usize) {
        if self.is_dense(idx) {
            return;
        }
        if let Some(p) = self.promoted.get_mut(idx) {
            if !*p {
                *p = true;
                self.promoted_cells += 1;
            }
        }
    }

    /// Number of dense cells.
    pub fn dense_cells(&self) -> usize {
        self.dense_cells
    }

    /// Number of core cells (dense included).
    pub fn core_cells(&self) -> usize {
        self.dense_cells + self.promoted_cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(x: i64, y: i64) -> CellCoord {
        CellCoord::from_slice(&[x, y])
    }

    fn map_2d(entries: &[((i64, i64), usize)], min_pts: usize) -> CellMap {
        CellMap::from_counts(
            2,
            entries.iter().map(|&((x, y), n)| (cell(x, y), n)),
            min_pts,
        )
        .unwrap()
    }

    #[test]
    fn dense_classification_threshold() {
        let m = map_2d(&[((0, 0), 5), ((1, 0), 4), ((2, 0), 6)], 5);
        assert_eq!(m.cell_type(&cell(0, 0)), Some(CellType::Dense));
        assert_eq!(m.cell_type(&cell(1, 0)), Some(CellType::Other));
        assert_eq!(m.cell_type(&cell(2, 0)), Some(CellType::Dense));
        assert_eq!(m.cell_type(&cell(9, 9)), None);
        assert_eq!(m.dense_cells(), 2);
    }

    #[test]
    fn dense_is_core() {
        let m = map_2d(&[((0, 0), 5)], 5);
        assert!(m.is_core(&cell(0, 0)));
        assert!(m.is_dense(&cell(0, 0)));
    }

    #[test]
    fn promote_to_core_only_upgrades_other() {
        let mut m = map_2d(&[((0, 0), 5), ((1, 0), 2)], 5);
        m.promote_to_core(&cell(1, 0));
        assert_eq!(m.cell_type(&cell(1, 0)), Some(CellType::Core));
        // Dense stays dense.
        m.promote_to_core(&cell(0, 0));
        assert_eq!(m.cell_type(&cell(0, 0)), Some(CellType::Dense));
        // Unknown cells are ignored.
        m.promote_to_core(&cell(9, 9));
        assert_eq!(m.cell_type(&cell(9, 9)), None);
        assert_eq!(m.core_cells(), 2);
    }

    #[test]
    fn neighbors_filter_to_non_empty() {
        // Only (0,0) and (1,1) exist; (5,5) is far away.
        let m = map_2d(&[((0, 0), 3), ((1, 1), 3), ((5, 5), 3)], 5);
        let n: Vec<_> = m.neighbors(&cell(0, 0)).collect();
        assert!(n.contains(&cell(0, 0)), "cell is its own neighbor");
        assert!(n.contains(&cell(1, 1)));
        assert!(!n.contains(&cell(5, 5)));
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn core_neighbors_require_core_type() {
        let mut m = map_2d(&[((0, 0), 2), ((1, 0), 2), ((0, 1), 7)], 5);
        // (0,1) is dense ⇒ core; (1,0) is other.
        let cn: Vec<_> = m.core_neighbors(&cell(0, 0)).collect();
        assert_eq!(cn, vec![cell(0, 1)]);
        assert!(m.has_core_neighbor(&cell(0, 0)));
        // Promote (1,0): now two core neighbors.
        m.promote_to_core(&cell(1, 0));
        assert_eq!(m.core_neighbors(&cell(0, 0)).count(), 2);
    }

    #[test]
    fn no_core_neighbor_detected() {
        let m = map_2d(&[((0, 0), 2), ((10, 10), 9)], 5);
        assert!(!m.has_core_neighbor(&cell(0, 0)));
        assert!(m.has_core_neighbor(&cell(10, 10)), "self-neighborhood");
    }

    #[test]
    fn neighbor_range_respects_kd() {
        // A lone cell surrounded by every cell in a 7x7 block: exactly the
        // k_2 = 21 neighboring cells (incl. itself) must be returned.
        let mut entries = Vec::new();
        for x in -3..=3 {
            for y in -3..=3 {
                entries.push(((x, y), 1));
            }
        }
        let m = map_2d(&entries, 5);
        assert_eq!(m.neighbors(&cell(0, 0)).count(), 21);
    }

    #[test]
    fn empty_map() {
        let m = map_2d(&[], 5);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.core_cells(), 0);
    }

    #[test]
    fn cell_flags_mirror_cell_map_semantics() {
        let mut f = CellFlags::from_counts([5, 2, 7, 1], 5).unwrap();
        assert_eq!(f.len(), 4);
        assert!(f.is_dense(0) && f.is_dense(2));
        assert!(!f.is_dense(1) && !f.is_dense(3));
        assert_eq!(f.dense_cells(), 2);
        assert_eq!(f.core_cells(), 2, "dense cells are core");
        // Promote a non-dense cell; dense and repeated promotions no-op.
        f.promote_to_core(1);
        f.promote_to_core(1);
        f.promote_to_core(0);
        f.promote_to_core(99);
        assert!(f.is_core(1));
        assert!(!f.is_core(3));
        assert!(!f.is_core(99));
        assert_eq!(f.core_cells(), 3);
        assert_eq!(f.dense_cells(), 2);
    }

    #[test]
    fn cell_flags_reject_zero_min_pts() {
        assert!(matches!(
            CellFlags::from_counts([1, 2], 0),
            Err(SpatialError::InvalidMinPts)
        ));
        let f = CellFlags::from_counts(std::iter::empty(), 3).unwrap();
        assert!(f.is_empty());
    }
}
