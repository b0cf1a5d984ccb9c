//! Flat structure-of-arrays point storage.
//!
//! Points are stored row-major in one contiguous `Vec<f64>` (point `i`
//! occupies `coords[i*d .. (i+1)*d]`). For the 2–3 dimensional GPS data
//! DBSCOUT targets, this keeps every distance computation on a dense cache
//! line and avoids one allocation per point.

use crate::error::SpatialError;

/// An index into a [`PointStore`]. 32 bits suffice for the laptop-scale
/// experiments and halve the size of per-cell point lists.
pub type PointId = u32;

/// A dense, append-only collection of `d`-dimensional points.
#[derive(Debug, Clone, PartialEq)]
pub struct PointStore {
    /// Valid for [`PointStore::new`].
    pub(crate) dims: usize,
    /// A whole number of points, every coordinate finite.
    pub(crate) coords: Vec<f64>,
}

impl PointStore {
    /// Creates an empty store for `dims`-dimensional points.
    ///
    /// # Errors
    ///
    /// Fails if `dims` is zero or exceeds [`crate::MAX_DIMS`].
    pub fn new(dims: usize) -> Result<Self, SpatialError> {
        if dims == 0 {
            return Err(SpatialError::ZeroDims);
        }
        if dims > crate::MAX_DIMS {
            return Err(SpatialError::TooManyDims { requested: dims });
        }
        Ok(Self {
            dims,
            coords: Vec::new(),
        })
    }

    /// Creates an empty store with capacity for `n` points.
    pub fn with_capacity(dims: usize, n: usize) -> Result<Self, SpatialError> {
        let mut s = Self::new(dims)?;
        s.coords.reserve(n * dims);
        Ok(s)
    }

    /// Builds a store from row-major point rows.
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatches or non-finite coordinates.
    pub fn from_rows(
        dims: usize,
        rows: impl IntoIterator<Item = Vec<f64>>,
    ) -> Result<Self, SpatialError> {
        let mut s = Self::new(dims)?;
        for row in rows {
            s.push(&row)?;
        }
        Ok(s)
    }

    /// Builds a store from a flat row-major coordinate buffer.
    ///
    /// # Errors
    ///
    /// Fails if the buffer length is not a multiple of `dims` or any
    /// coordinate is non-finite.
    pub fn from_flat(dims: usize, coords: Vec<f64>) -> Result<Self, SpatialError> {
        Self::new(dims)?; // validate dimensionality
        if !coords.len().is_multiple_of(dims) {
            return Err(SpatialError::DimensionMismatch {
                expected: dims,
                got: coords.len() % dims,
            });
        }
        for (i, &c) in coords.iter().enumerate() {
            if !c.is_finite() {
                return Err(SpatialError::NonFiniteCoordinate {
                    point: i / dims,
                    dim: i % dims,
                });
            }
        }
        Ok(Self { dims, coords })
    }

    /// Appends one point; returns its id.
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatch or non-finite coordinates.
    pub fn push(&mut self, point: &[f64]) -> Result<PointId, SpatialError> {
        if point.len() != self.dims {
            return Err(SpatialError::DimensionMismatch {
                expected: self.dims,
                got: point.len(),
            });
        }
        let id = self.len();
        for (dim, &c) in point.iter().enumerate() {
            if !c.is_finite() {
                return Err(SpatialError::NonFiniteCoordinate {
                    point: id as usize,
                    dim,
                });
            }
        }
        self.coords.extend_from_slice(point);
        Ok(id)
    }

    /// Number of points.
    pub fn len(&self) -> PointId {
        (self.coords.len() / self.dims) as PointId
    }

    /// Whether the store holds no points.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Dimensionality of the stored points.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Borrows the coordinates of point `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (indexing bug, not a data error).
    #[inline]
    #[allow(clippy::indexing_slicing)]
    pub fn point(&self, id: PointId) -> &[f64] {
        let i = id as usize * self.dims;
        // ids come from this store's own iteration; out-of-range is a caller bug
        // xtask-lint: allow(XL001) -- documented `# Panics` contract on `point`
        &self.coords[i..i + self.dims]
    }

    /// The raw row-major coordinate buffer.
    pub fn flat(&self) -> &[f64] {
        &self.coords
    }

    /// Iterates over `(id, coordinates)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PointId, &[f64])> + '_ {
        self.coords
            .chunks_exact(self.dims)
            .enumerate()
            .map(|(i, p)| (i as PointId, p))
    }

    /// Copies the selected points into a new store (used to slice datasets
    /// into samples and partitions).
    pub fn gather(&self, ids: &[PointId]) -> PointStore {
        let mut coords = Vec::with_capacity(ids.len() * self.dims);
        for &id in ids {
            coords.extend_from_slice(self.point(id));
        }
        PointStore {
            dims: self.dims,
            coords,
        }
    }

    /// Appends all points of `other`.
    ///
    /// # Errors
    ///
    /// Fails on dimensionality mismatch.
    pub fn extend_from(&mut self, other: &PointStore) -> Result<(), SpatialError> {
        if other.dims != self.dims {
            return Err(SpatialError::DimensionMismatch {
                expected: self.dims,
                got: other.dims,
            });
        }
        self.coords.extend_from_slice(&other.coords);
        Ok(())
    }

    /// Axis-aligned bounding box as `(min, max)` per dimension, or `None`
    /// for an empty store.
    pub fn bounding_box(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        if self.is_empty() {
            return None;
        }
        let mut min = self.point(0).to_vec();
        let mut max = min.clone();
        for (_, p) in self.iter().skip(1) {
            for ((mn, mx), &x) in min.iter_mut().zip(max.iter_mut()).zip(p) {
                *mn = mn.min(x);
                *mx = mx.max(x);
            }
        }
        Some((min, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut s = PointStore::new(3).unwrap();
        let a = s.push(&[1.0, 2.0, 3.0]).unwrap();
        let b = s.push(&[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.point(0), &[1.0, 2.0, 3.0]);
        assert_eq!(s.point(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn zero_dims_rejected() {
        assert_eq!(PointStore::new(0).unwrap_err(), SpatialError::ZeroDims);
    }

    #[test]
    fn too_many_dims_rejected() {
        assert!(matches!(
            PointStore::new(crate::MAX_DIMS + 1),
            Err(SpatialError::TooManyDims { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut s = PointStore::new(2).unwrap();
        assert!(matches!(
            s.push(&[1.0]),
            Err(SpatialError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn nan_rejected() {
        let mut s = PointStore::new(2).unwrap();
        s.push(&[0.0, 0.0]).unwrap();
        assert_eq!(
            s.push(&[1.0, f64::NAN]),
            Err(SpatialError::NonFiniteCoordinate { point: 1, dim: 1 })
        );
        // The failed push must not leave a partial row behind.
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn from_flat_validates_shape() {
        assert!(PointStore::from_flat(2, vec![1.0, 2.0, 3.0]).is_err());
        let s = PointStore::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn from_flat_rejects_infinity() {
        assert!(matches!(
            PointStore::from_flat(1, vec![f64::INFINITY]),
            Err(SpatialError::NonFiniteCoordinate { point: 0, dim: 0 })
        ));
    }

    #[test]
    fn from_rows_round_trip() {
        let rows = vec![vec![0.0, 1.0], vec![2.0, 3.0]];
        let s = PointStore::from_rows(2, rows.clone()).unwrap();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(s.point(i as u32), row.as_slice());
        }
    }

    #[test]
    fn iter_yields_all_points() {
        let s = PointStore::from_rows(1, (0..5).map(|i| vec![i as f64])).unwrap();
        let ids: Vec<_> = s.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn gather_selects() {
        let s = PointStore::from_rows(1, (0..5).map(|i| vec![i as f64])).unwrap();
        let g = s.gather(&[4, 0, 2]);
        assert_eq!(g.point(0), &[4.0]);
        assert_eq!(g.point(1), &[0.0]);
        assert_eq!(g.point(2), &[2.0]);
    }

    #[test]
    fn extend_from_checks_dims() {
        let mut a = PointStore::new(2).unwrap();
        let b = PointStore::new(3).unwrap();
        assert!(a.extend_from(&b).is_err());
        let c = PointStore::from_rows(2, vec![vec![1.0, 2.0]]).unwrap();
        a.extend_from(&c).unwrap();
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn bounding_box() {
        let s = PointStore::from_rows(2, vec![vec![1.0, -5.0], vec![-2.0, 7.0], vec![0.0, 0.0]])
            .unwrap();
        let (min, max) = s.bounding_box().unwrap();
        assert_eq!(min, vec![-2.0, -5.0]);
        assert_eq!(max, vec![1.0, 7.0]);
        assert!(PointStore::new(2).unwrap().bounding_box().is_none());
    }
}
