//! Neighboring-cell offset enumeration (paper Definition 8, Lemma 3,
//! Table I).
//!
//! Two cells are *neighbors* iff the minimum possible distance between a
//! point of one and a point of the other is `< ε`. For cells of side
//! `l = ε/√d`, the offset vector `j ∈ ℤ^d` between two cells leaves a
//! per-dimension gap of `max(|j_i| − 1, 0)` cell sides, so the condition
//! becomes
//!
//! ```text
//! l · √( Σ_i max(|j_i| − 1, 0)² ) < ε   ⇔   Σ_i max(|j_i| − 1, 0)² < d
//! ```
//!
//! The number of such offsets is the paper's constant k_d; the loose bound
//! of Lemma 3 is `(2⌈√d⌉ + 1)^d`. This module reproduces the *actual k_d*
//! column of Table I exactly.

use crate::cell::{CellCoord, MAX_DIMS};
use crate::error::SpatialError;

/// The precomputed set of neighbor offsets for one dimensionality.
///
/// Offsets are stored as a flat `Vec<i8>` with stride `dims` (components
/// never exceed ⌈√d⌉ ≤ 3 for d ≤ 9), in lexicographic order; the zero
/// offset (a cell is its own neighbor) is always present.
///
/// The offsets are also grouped into *columns*: maximal runs that agree
/// on every coordinate but the last, whose last coordinates step through
/// a contiguous interval (5 columns for d = 2, 25 for d = 3).
/// Concatenating the columns in order yields the offsets in order; the
/// neighbor sweep of [`crate::CellMajorStore`] works column by column.
#[derive(Debug, Clone)]
pub struct NeighborOffsets {
    dims: usize,
    /// ⌈√d⌉: no offset coordinate is larger in magnitude.
    reach: u64,
    flat: Vec<i8>,
    columns: Vec<OffsetColumn>,
}

/// A run of consecutive offsets sharing every coordinate but the last,
/// whose last coordinates are exactly `lo..=hi` in ascending order. The
/// cells such a run reaches from one query cell form one contiguous
/// window of a table sorted by [`CellCoord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OffsetColumn {
    /// Position of the column's first offset in offset order.
    pub(crate) first: usize,
    /// Last coordinate of the column's first offset.
    pub(crate) lo: i8,
    /// Last coordinate of the column's last offset.
    pub(crate) hi: i8,
}

impl NeighborOffsets {
    /// Enumerates all neighbor offsets for `dims`-dimensional cells.
    ///
    /// # Errors
    ///
    /// Fails if `dims` is zero or exceeds [`MAX_DIMS`].
    pub fn new(dims: usize) -> Result<Self, SpatialError> {
        if dims == 0 {
            return Err(SpatialError::ZeroDims);
        }
        if dims > MAX_DIMS {
            return Err(SpatialError::TooManyDims { requested: dims });
        }
        let r = reach(dims);
        let mut flat = Vec::new();
        let mut current = vec![0i8; dims];
        enumerate(dims, r as i8, 0, 0, &mut current, &mut |off| {
            flat.extend_from_slice(off)
        });
        let columns = columns_of(&flat, dims);
        Ok(Self {
            dims,
            reach: r,
            flat,
            columns,
        })
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of offsets — the paper's k_d.
    pub fn len(&self) -> usize {
        self.flat.len() / self.dims
    }

    /// Always false: the zero offset is present for every valid `dims`.
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    /// Iterates over the offsets as `&[i8]` slices of length `dims`.
    pub fn iter(&self) -> impl Iterator<Item = &[i8]> + '_ {
        self.flat.chunks_exact(self.dims)
    }

    /// ⌈√d⌉, the largest magnitude of any offset coordinate: every
    /// neighbor of a cell lies within this many cells of it in each
    /// coordinate.
    pub(crate) fn reach(&self) -> u64 {
        self.reach
    }

    /// Whether the cell at `to` is a neighbor of the cell at `from`, i.e.
    /// whether `to − from` is one of the offsets, decided by the stencil
    /// condition itself rather than by a lookup. Each difference is taken
    /// without overflow (`abs_diff`), so cells saturated at the ends of
    /// `i64` compare exactly. Both slices hold `dims` coordinates.
    #[inline]
    pub(crate) fn contains_step(&self, from: &[i64], to: &[i64]) -> bool {
        let mut penalty = 0;
        for (&a, &b) in from.iter().zip(to) {
            let diff = a.abs_diff(b);
            if diff > self.reach {
                return false;
            }
            penalty += gap_sq(diff);
        }
        penalty < self.dims as u64
    }

    /// The offset columns, in offset order.
    pub(crate) fn columns(&self) -> &[OffsetColumn] {
        &self.columns
    }

    /// The coordinates `column` shares: every coordinate of its offsets
    /// but the last (`dims − 1` entries).
    pub(crate) fn prefix(&self, column: &OffsetColumn) -> &[i8] {
        let start = column.first * self.dims;
        self.flat
            .get(start..start + self.dims - 1)
            .unwrap_or_default()
    }

    /// The cell displaced from `cell` by offset `off`, or `None` when a
    /// coordinate of the target falls outside `i64` — no cell exists
    /// there. (Points [`crate::check_point`] accepts have cells within
    /// 2^53 of the origin, so this guards only hand-built cells.)
    #[inline]
    pub fn apply(cell: &CellCoord, off: &[i8]) -> Option<CellCoord> {
        let mut coords = [0i64; MAX_DIMS];
        let c = cell.coords();
        for ((out, &a), &o) in coords.iter_mut().zip(c).zip(off) {
            *out = a.checked_add(i64::from(o))?;
        }
        Some(CellCoord::from_slice(
            coords.get(..c.len()).unwrap_or(&coords),
        ))
    }
}

/// Groups lexicographically ordered offsets into maximal columns: a new
/// column starts whenever the prefix changes or the last coordinate does
/// not step by exactly one.
fn columns_of(flat: &[i8], dims: usize) -> Vec<OffsetColumn> {
    let mut columns: Vec<OffsetColumn> = Vec::new();
    let mut prev: Option<&[i8]> = None;
    for (i, off) in flat.chunks_exact(dims).enumerate() {
        let (Some(&last), Some(prefix)) = (off.last(), off.get(..dims - 1)) else {
            continue;
        };
        let extends = prev.is_some_and(|p| {
            p.get(..dims - 1) == Some(prefix)
                && p.last().map(|&l| i16::from(l) + 1) == Some(i16::from(last))
        });
        match columns.last_mut() {
            Some(col) if extends => col.hi = last,
            _ => columns.push(OffsetColumn {
                first: i,
                lo: last,
                hi: last,
            }),
        }
        prev = Some(off);
    }
    columns
}

/// Counts k_d without materialising the offsets (Table I's "Actual k_d"
/// column; usable up to d = 9 where the candidate space is ~40M vectors).
pub fn count_k_d(dims: usize) -> Result<u64, SpatialError> {
    if dims == 0 {
        return Err(SpatialError::ZeroDims);
    }
    if dims > MAX_DIMS {
        return Err(SpatialError::TooManyDims { requested: dims });
    }
    let mut count = 0u64;
    let mut current = vec![0i8; dims];
    enumerate(dims, reach(dims) as i8, 0, 0, &mut current, &mut |_| {
        count += 1
    });
    Ok(count)
}

/// The loose upper bound of Lemma 3: `(2⌈√d⌉ + 1)^d`.
pub fn loose_upper_bound(dims: usize) -> u64 {
    (2 * reach(dims) + 1).pow(dims as u32)
}

/// ⌈√d⌉: the stencil condition bounds every offset coordinate by it.
fn reach(dims: usize) -> u64 {
    (dims as f64).sqrt().ceil() as u64
}

/// One coordinate's term of the stencil condition: the squared gap
/// `max(|j| − 1, 0)²` that a difference of `|j|` cells leaves between two
/// cells. Called only with `|j| ≤ ⌈√d⌉`.
#[inline]
fn gap_sq(abs_diff: u64) -> u64 {
    let gap = abs_diff.saturating_sub(1);
    gap * gap
}

/// DFS over offset vectors with penalty pruning. `penalty` accumulates
/// `Σ max(|j_i|−1, 0)²`; a branch is cut as soon as it reaches `d`.
/// [`NeighborOffsets::contains_step`] tests the same condition on a pair
/// of cells.
fn enumerate(
    dims: usize,
    r: i8,
    dim: usize,
    penalty: u64,
    current: &mut Vec<i8>,
    emit: &mut impl FnMut(&[i8]),
) {
    if dim == dims {
        emit(current);
        return;
    }
    for j in -r..=r {
        let p = penalty + gap_sq(u64::from(j.unsigned_abs()));
        if p < dims as u64 {
            if let Some(slot) = current.get_mut(dim) {
                *slot = j;
            }
            enumerate(dims, r, dim + 1, p, current, emit);
        }
    }
    if let Some(slot) = current.get_mut(dim) {
        *slot = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table I of the paper: (d, loose upper bound, actual k_d).
    const TABLE_I: &[(usize, u64, u64)] = &[
        (2, 25, 21),
        (3, 125, 117),
        (4, 625, 609),
        (5, 16807, 3903),
        (6, 117649, 28197),
    ];

    #[test]
    fn reproduces_table_i_actual_kd() {
        for &(d, _, expected) in TABLE_I {
            assert_eq!(count_k_d(d).unwrap(), expected, "k_d mismatch for d={d}");
            assert_eq!(
                NeighborOffsets::new(d).unwrap().len() as u64,
                expected,
                "materialised k_d mismatch for d={d}"
            );
        }
    }

    #[test]
    fn reproduces_table_i_upper_bound() {
        for &(d, bound, _) in TABLE_I {
            assert_eq!(loose_upper_bound(d), bound, "bound mismatch for d={d}");
        }
        assert_eq!(loose_upper_bound(7), 823543);
        assert_eq!(loose_upper_bound(8), 5764801);
        assert_eq!(loose_upper_bound(9), 40353607);
    }

    #[test]
    fn d1_is_adjacent_cells_only() {
        // For d = 1 the condition is max(|j|−1,0)² < 1, i.e. j ∈ {−1,0,1}.
        let offs = NeighborOffsets::new(1).unwrap();
        let got: Vec<i8> = offs.iter().map(|o| o[0]).collect();
        assert_eq!(got, vec![-1, 0, 1]);
    }

    #[test]
    fn zero_offset_present() {
        for d in 1..=4 {
            let offs = NeighborOffsets::new(d).unwrap();
            assert!(
                offs.iter().any(|o| o.iter().all(|&j| j == 0)),
                "zero offset missing for d={d}"
            );
        }
    }

    #[test]
    fn offsets_are_symmetric() {
        // If j is a neighbor offset, so is −j (Definition 8 is symmetric).
        for d in 1..=4 {
            let offs = NeighborOffsets::new(d).unwrap();
            let set: std::collections::HashSet<Vec<i8>> = offs.iter().map(|o| o.to_vec()).collect();
            for o in offs.iter() {
                let neg: Vec<i8> = o.iter().map(|&j| -j).collect();
                assert!(set.contains(&neg), "missing mirror of {o:?} for d={d}");
            }
        }
    }

    #[test]
    fn every_offset_satisfies_min_distance_condition() {
        for d in 2..=5 {
            let offs = NeighborOffsets::new(d).unwrap();
            for o in offs.iter() {
                let penalty: i64 = o
                    .iter()
                    .map(|&j| {
                        let g = (j.unsigned_abs() as i64).saturating_sub(1).max(0);
                        g * g
                    })
                    .sum();
                assert!(penalty < d as i64, "offset {o:?} violates condition, d={d}");
            }
        }
    }

    #[test]
    fn non_neighbors_really_cannot_be_within_eps() {
        // Geometric cross-check in 2-D: for each *excluded* offset, the
        // closest corners of the two cells are at distance ≥ ε — up to one
        // ULP, because `cell_side` nudges the side down so that Lemma 1
        // (same-cell diagonal ≤ ε) holds exactly in floating point. The
        // paper's own Definition 8 (strict `< ε`) excludes the same
        // measure-zero corner-touch configurations.
        let d = 2usize;
        let eps = 1.0;
        let side = crate::cell::cell_side(eps, d);
        let offs = NeighborOffsets::new(d).unwrap();
        let set: std::collections::HashSet<Vec<i8>> = offs.iter().map(|o| o.to_vec()).collect();
        let r = 3i8;
        for a in -r..=r {
            for b in -r..=r {
                if set.contains(&vec![a, b]) {
                    continue;
                }
                let gx = (a.unsigned_abs() as f64 - 1.0).max(0.0) * side;
                let gy = (b.unsigned_abs() as f64 - 1.0).max(0.0) * side;
                let min_dist = (gx * gx + gy * gy).sqrt();
                assert!(
                    min_dist >= eps * (1.0 - 1e-12),
                    "excluded offset ({a},{b}) has min dist {min_dist} < {eps}"
                );
            }
        }
    }

    #[test]
    fn apply_offsets() {
        let cell = CellCoord::from_slice(&[10, -5]);
        let got = NeighborOffsets::apply(&cell, &[-1, 2]).unwrap();
        assert_eq!(got.coords(), &[9, -3]);
    }

    #[test]
    fn apply_skips_targets_outside_i64() {
        let top = CellCoord::from_slice(&[i64::MAX, 0]);
        assert_eq!(NeighborOffsets::apply(&top, &[1, 0]), None);
        assert_eq!(
            NeighborOffsets::apply(&top, &[-1, 0]).unwrap().coords(),
            &[i64::MAX - 1, 0]
        );
        let bottom = CellCoord::from_slice(&[0, i64::MIN]);
        assert_eq!(NeighborOffsets::apply(&bottom, &[0, -2]), None);
        assert_eq!(
            NeighborOffsets::apply(&bottom, &[0, 2]).unwrap().coords(),
            &[0, i64::MIN + 2]
        );
    }

    #[test]
    fn columns_partition_the_offsets_in_order() {
        // 5 columns for d = 2 and 25 for d = 3 (every prefix within the
        // stencil's (d−1)-dimensional shadow).
        for (d, want) in [(1usize, 1usize), (2, 5), (3, 25)] {
            assert_eq!(
                NeighborOffsets::new(d).unwrap().columns().len(),
                want,
                "d={d}"
            );
        }
        for d in 1..=5 {
            let offs = NeighborOffsets::new(d).unwrap();
            let mut rebuilt: Vec<Vec<i8>> = Vec::new();
            for col in offs.columns() {
                assert_eq!(col.first, rebuilt.len(), "columns must be contiguous");
                assert!(col.lo <= col.hi);
                assert_eq!(col.lo, -col.hi, "stencil columns are symmetric");
                for last in col.lo..=col.hi {
                    let mut off = offs.prefix(col).to_vec();
                    off.push(last);
                    rebuilt.push(off);
                }
            }
            let flat: Vec<Vec<i8>> = offs.iter().map(<[i8]>::to_vec).collect();
            assert_eq!(
                rebuilt, flat,
                "columns must replay the offsets in order, d={d}"
            );
        }
    }

    #[test]
    fn contains_step_agrees_with_the_offsets() {
        // Every difference in [−r−1, r+1]^d, applied at ordinary cells and
        // at cells near both ends of i64 where only some targets exist.
        for d in 1..=5usize {
            let offs = NeighborOffsets::new(d).unwrap();
            let set: std::collections::HashSet<Vec<i8>> = offs.iter().map(<[i8]>::to_vec).collect();
            let r = offs.reach() as i8;
            let span = (2 * r + 3) as usize;
            for code in 0..span.pow(d as u32) {
                let diff: Vec<i8> = (0..d)
                    .map(|k| (code / span.pow(k as u32) % span) as i8 - r - 1)
                    .collect();
                let want = set.contains(&diff);
                for base in [0i64, -7, i64::MAX, i64::MIN, i64::MAX - 1, i64::MIN + 2] {
                    let from = vec![base; d];
                    let to: Option<Vec<i64>> = from
                        .iter()
                        .zip(&diff)
                        .map(|(&a, &j)| a.checked_add(i64::from(j)))
                        .collect();
                    let Some(to) = to else { continue };
                    assert_eq!(
                        offs.contains_step(&from, &to),
                        want,
                        "d={d} {diff:?} at {base}"
                    );
                    assert_eq!(offs.contains_step(&to, &from), want, "d={d} mirror");
                }
            }
            // Differences far beyond i64 itself.
            let low = vec![i64::MIN; d];
            let high = vec![i64::MAX; d];
            assert!(!offs.contains_step(&low, &high), "d={d}");
            assert!(!offs.contains_step(&high, &low), "d={d}");
            assert!(offs.contains_step(&high, &high), "d={d}");
        }
    }

    #[test]
    fn invalid_dims_rejected() {
        assert!(NeighborOffsets::new(0).is_err());
        assert!(NeighborOffsets::new(MAX_DIMS + 1).is_err());
        assert!(count_k_d(0).is_err());
    }
}
