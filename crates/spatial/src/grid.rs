//! The grid: a complete, non-overlapping partition of a dataset into
//! ε-cells (paper Definition 5, Algorithm 1).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use crate::cell::{cell_of, cell_side, check_point, validate_eps, CellCoord};
use crate::error::SpatialError;
use crate::points::{PointId, PointStore};

type DetState = BuildHasherDefault<DefaultHasher>;

/// Per-cell point lists for one dataset and one ε.
///
/// The number of non-empty cells is O(n); each point belongs to exactly
/// one cell. Iteration order is deterministic for a given dataset (the
/// map uses a fixed-key hasher), which keeps parallel runs reproducible.
#[derive(Debug, Clone)]
pub struct Grid {
    eps: f64,
    side: f64,
    dims: usize,
    cells: HashMap<CellCoord, Vec<PointId>, DetState>,
}

impl Grid {
    /// Assigns every point of `store` to its ε-cell (paper Algorithm 1;
    /// O(n)).
    ///
    /// # Errors
    ///
    /// Fails if `eps` is out of range ([`validate_eps`]) or a point lies
    /// too far out for it ([`check_point`]).
    pub fn build(store: &PointStore, eps: f64) -> Result<Self, SpatialError> {
        validate_eps(eps)?;
        let dims = store.dims();
        let side = cell_side(eps, dims);
        let mut cells: HashMap<CellCoord, Vec<PointId>, DetState> = HashMap::default();
        for (id, p) in store.iter() {
            check_point(id as usize, p, side)?;
            cells.entry(cell_of(p, side)).or_default().push(id);
        }
        Ok(Self {
            eps,
            side,
            dims,
            cells,
        })
    }

    /// The ε this grid was built with.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Cell side length `l = ε/√d`.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of non-empty cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Total number of points across all cells.
    pub fn num_points(&self) -> usize {
        // xlint: ordered -- summing lengths is order-insensitive
        self.cells.values().map(Vec::len).sum()
    }

    /// The cell a coordinate vector falls into.
    pub fn cell_for(&self, point: &[f64]) -> CellCoord {
        cell_of(point, self.side)
    }

    /// The point ids of one cell, if non-empty.
    pub fn points_in(&self, cell: &CellCoord) -> Option<&[PointId]> {
        self.cells.get(cell).map(Vec::as_slice)
    }

    /// Iterates over `(cell, point ids)` for every non-empty cell, in
    /// unspecified order. Callers whose output depends on order must
    /// canonicalize (the native engine sorts by coordinate; the
    /// cell-major builder sorts its scatter plan).
    pub fn cells(&self) -> impl Iterator<Item = (&CellCoord, &[PointId])> + '_ {
        // xlint: ordered -- documented order-free; order-sensitive callers sort
        self.cells.iter().map(|(c, v)| (c, v.as_slice()))
    }

    /// Population of the most populous cell (the skew measure the paper
    /// discusses for Geolife, §IV-B2).
    pub fn max_cell_population(&self) -> usize {
        // xlint: ordered -- max over lengths is order-insensitive
        self.cells.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Fraction of points living in the most populous cell.
    pub fn skew(&self) -> f64 {
        let n = self.num_points();
        if n == 0 {
            0.0
        } else {
            self.max_cell_population() as f64 / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_2d(points: &[[f64; 2]]) -> PointStore {
        PointStore::from_rows(2, points.iter().map(|p| p.to_vec())).unwrap()
    }

    #[test]
    fn build_assigns_every_point_once() {
        let s = store_2d(&[[0.1, 0.1], [0.9, 0.9], [5.0, 5.0], [-3.0, 2.0]]);
        let g = Grid::build(&s, 2f64.sqrt()).unwrap();
        assert_eq!(g.num_points(), 4);
        let mut seen = std::collections::HashSet::new();
        for (_, ids) in g.cells() {
            for &id in ids {
                assert!(seen.insert(id), "point {id} in two cells");
            }
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn paper_example_grid() {
        // §III-B: ε = √2 in 2-D gives unit cells; points sharing a unit
        // square share a cell.
        let s = store_2d(&[[0.2, 0.2], [0.8, 0.8], [1.1, -0.3], [1.9, -0.9]]);
        let g = Grid::build(&s, 2f64.sqrt()).unwrap();
        assert_eq!(g.num_cells(), 2);
        let c00 = g.cell_for(&[0.5, 0.5]);
        let c1m1 = g.cell_for(&[1.5, -0.5]);
        assert_eq!(g.points_in(&c00).unwrap().len(), 2);
        assert_eq!(g.points_in(&c1m1).unwrap().len(), 2);
    }

    #[test]
    fn invalid_eps_rejected() {
        let s = store_2d(&[[0.0, 0.0]]);
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                Grid::build(&s, eps),
                Err(SpatialError::InvalidEpsilon { .. })
            ));
        }
    }

    #[test]
    fn empty_store_builds_empty_grid() {
        let s = PointStore::new(2).unwrap();
        let g = Grid::build(&s, 1.0).unwrap();
        assert_eq!(g.num_cells(), 0);
        assert_eq!(g.num_points(), 0);
        assert_eq!(g.max_cell_population(), 0);
        assert_eq!(g.skew(), 0.0);
    }

    #[test]
    fn points_within_one_cell_are_within_eps() {
        // Lemma 1's geometric premise: same cell ⇒ dist ≤ ε.
        let eps = 0.7;
        let s = store_2d(&[[0.0, 0.0], [0.1, 0.2], [0.3, 0.1], [0.45, 0.45]]);
        let g = Grid::build(&s, eps).unwrap();
        for (_, ids) in g.cells() {
            for &a in ids {
                for &b in ids {
                    let d = crate::distance::dist(s.point(a), s.point(b));
                    assert!(d <= eps, "same-cell points at distance {d} > {eps}");
                }
            }
        }
    }

    #[test]
    fn skew_measures_heaviest_cell() {
        let mut pts = vec![[0.1, 0.1]; 8];
        pts.push([100.0, 100.0]);
        pts.push([-100.0, -100.0]);
        let s = store_2d(&pts);
        let g = Grid::build(&s, 1.0).unwrap();
        assert_eq!(g.max_cell_population(), 8);
        assert!((g.skew() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn grid_3d() {
        let s =
            PointStore::from_rows(3, vec![vec![0.0, 0.0, 0.0], vec![10.0, 10.0, 10.0]]).unwrap();
        let g = Grid::build(&s, 1.0).unwrap();
        assert_eq!(g.num_cells(), 2);
        assert_eq!(g.dims(), 3);
    }
}
