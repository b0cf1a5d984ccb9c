//! ε-cells (paper Definition 4).
//!
//! An ε-cell is a d-dimensional hypercube whose **diagonal** is ε, i.e.
//! whose side is `l = ε/√d`; any two points inside one cell are therefore
//! at distance ≤ ε (the fact behind Lemma 1). A cell is identified by the
//! integer coordinates of its minimum vertex scaled by `l`:
//! `C_i = ⌊x_i / l⌋` (paper Algorithm 1).

use std::hash::{Hash, Hasher};

use crate::error::SpatialError;

/// Maximum supported dimensionality. The paper evaluates k_d for d ≤ 9
/// (Table I) and runs experiments on 2–3-dimensional data.
pub const MAX_DIMS: usize = 9;

/// Integer coordinates of an ε-cell.
///
/// Stored as a fixed-size array (zero-padded beyond `dims`) so the type is
/// `Copy` and hashes without heap traffic — cell ids are the shuffle keys
/// of every DBSCOUT phase. The hash covers only the `dims` live
/// coordinates, not the padding: a 3-D cell feeds its hasher 32 bytes,
/// not 81. Equality still compares the whole array, which agrees because
/// the padding is always zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellCoord {
    dims: u8,
    c: [i64; MAX_DIMS],
}

impl Hash for CellCoord {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The slice hash writes its length first, so cells of different
        // dimensionality still hash apart.
        self.coords().hash(state);
    }
}

impl CellCoord {
    /// Builds a cell coordinate from a slice of per-dimension indices.
    ///
    /// # Panics
    ///
    /// Panics if `coords.len()` is 0 or exceeds [`MAX_DIMS`]; callers
    /// validate dimensionality when constructing stores and grids.
    pub fn from_slice(coords: &[i64]) -> Self {
        assert!(
            !coords.is_empty() && coords.len() <= MAX_DIMS,
            "cell dimensionality {} out of range 1..={}",
            coords.len(),
            MAX_DIMS
        );
        let mut c = [0i64; MAX_DIMS];
        for (out, &x) in c.iter_mut().zip(coords) {
            *out = x;
        }
        Self {
            dims: coords.len() as u8,
            c,
        }
    }

    /// Dimensionality of the cell.
    pub fn dims(&self) -> usize {
        self.dims as usize
    }

    /// The per-dimension integer coordinates.
    pub fn coords(&self) -> &[i64] {
        // `dims <= MAX_DIMS` is a constructor invariant, so the range is
        // always in bounds; fall back to the full array rather than panic.
        self.c.get(..self.dims as usize).unwrap_or(&self.c)
    }

    /// The cell displaced by `offset` (must have the same dimensionality).
    #[inline]
    pub fn offset_by(&self, offset: &CellCoord) -> CellCoord {
        debug_assert_eq!(self.dims, offset.dims);
        let mut c = [0i64; MAX_DIMS];
        for ((out, &a), &b) in c.iter_mut().zip(&self.c).zip(&offset.c) {
            *out = a + b;
        }
        CellCoord { dims: self.dims, c }
    }
}

/// Checks that `eps` is a radius every engine compares exactly: positive,
/// with a normal f64 square, i.e. between about 1.5e-154 and 1.34e154.
///
/// Distances are compared squared, against ε². When ε² is normal, a
/// squared distance that overflows to +∞ belongs to a pair farther apart
/// than ε, and one that underflows to 0 to a pair closer than ε, so every
/// comparison comes out as in exact arithmetic. Outside that range ε²
/// itself overflows or underflows, and points 2ε apart would compare as
/// within ε.
///
/// # Errors
///
/// [`SpatialError::InvalidEpsilon`] for NaN, ±∞, zero, negative values
/// and the two ends above.
pub fn validate_eps(eps: f64) -> Result<(), SpatialError> {
    if eps > 0.0 && (eps * eps).is_normal() {
        Ok(())
    } else {
        Err(SpatialError::InvalidEpsilon { value: eps })
    }
}

/// Side length `l = ε/√d` of an ε-cell, nudged one ULP downward so that
/// the cell diagonal `l·√d` cannot exceed ε after rounding (keeps Lemma 1
/// exact in floating point).
pub fn cell_side(eps: f64, dims: usize) -> f64 {
    (eps / (dims as f64).sqrt()).next_down()
}

/// The largest cell index magnitude a coordinate may reach, 2^53: a
/// coordinate `x` is in range for cells of side `side` when
/// `|x| < MAX_CELL_INDEX · side`. Then `|x / side| ≤ 2^53`, so
/// [`cell_of`] floors it to an exact integer, far from the ends of `i64`
/// where the cast saturates and merges distant points into one cell, and
/// every cell's corner `index · side` is exact too.
pub const MAX_CELL_INDEX: f64 = 9_007_199_254_740_992.0;

/// Checks that every coordinate of point `id` is finite and in range for
/// cells of side `side` (see [`MAX_CELL_INDEX`]), as [`cell_of`] needs.
///
/// # Errors
///
/// [`SpatialError::NonFiniteCoordinate`] or
/// [`SpatialError::CoordinateOutOfRange`] naming point `id` and the first
/// failing dimension.
#[inline]
pub fn check_point(id: usize, point: &[f64], side: f64) -> Result<(), SpatialError> {
    // 2^53 · side is exact: side is a normal f64 far from both ends.
    let limit = MAX_CELL_INDEX * side;
    match point.iter().position(|x| x.is_nan() || x.abs() >= limit) {
        None => Ok(()),
        Some(dim) => Err(match point.get(dim) {
            Some(x) if x.is_finite() => SpatialError::CoordinateOutOfRange { point: id, dim },
            _ => SpatialError::NonFiniteCoordinate { point: id, dim },
        }),
    }
}

/// The cell containing `point`, for cells of side `side`: each
/// coordinate is `(x / side).floor() as i64`, saturating at the ends of
/// `i64` (and 0 for NaN). Exact for points [`check_point`] accepts.
#[inline]
pub fn cell_of(point: &[f64], side: f64) -> CellCoord {
    debug_assert!(point.len() <= MAX_DIMS);
    let mut c = [0i64; MAX_DIMS];
    for (out, &x) in c.iter_mut().zip(point) {
        *out = floor_to_i64(x / side);
    }
    CellCoord {
        dims: point.len() as u8,
        c,
    }
}

/// `q.floor() as i64`, without the `floor` call the baseline x86-64
/// target makes and without a branch: truncate (the cast saturates, NaN
/// gives 0), then subtract the comparison "truncation rounded a negative
/// fraction up" as 0 or 1. A branch there would go either way at random
/// on data whose coordinates mix signs (on Geolife about half of x and
/// of y are negative), and `cell_of` runs once per point in each grid
/// pass. Above 2^53 in magnitude every `f64` is an integer, so the
/// comparison is exact wherever the step can apply.
#[inline]
fn floor_to_i64(q: f64) -> i64 {
    let t = q as i64;
    t.saturating_sub(i64::from((t as f64) > q))
}

/// Distance from `x` to the closed interval `[lo, hi]`: `lo − x` below
/// it, `x − hi` above it, 0 inside it and for a NaN `x`. It is the larger
/// of the two differences and 0, with no branch: the prunes ask it for
/// every axis of every box they test, and which case holds is decided by
/// the data at random, so a branch would mispredict often. Inside, both
/// differences are ≤ 0 and the result may be −0, which squares to +0;
/// `f64::max` returns its other operand for NaN, so NaN (and `∞ − ∞` at
/// an infinite end) gives 0. For `lo ≤ hi` its square equals bit for bit
/// that of the piecewise form.
#[inline]
fn gap_to(x: f64, lo: f64, hi: f64) -> f64 {
    (lo - x).max(x - hi).max(0.0)
}

/// Distance between the closed intervals `[alo, ahi]` and `[blo, bhi]`,
/// 0 when they meet: the box-to-box twin of [`gap_to`], with the same
/// branch-free form and the same value in both argument orders.
#[inline]
fn gap_between(alo: f64, ahi: f64, blo: f64, bhi: f64) -> f64 {
    (blo - ahi).max(alo - bhi).max(0.0)
}

/// Squared minimum distance from `point` to the closed box of `cell`
/// (side `side`). Zero when the point lies inside the cell. Each axis
/// adds the square of the branch-free `gap_to`, so for every
/// coordinate, NaN included, the sum is bit for bit that of the
/// piecewise "below, inside, above" gaps.
pub fn min_sq_dist_to_cell(point: &[f64], cell: &CellCoord, side: f64) -> f64 {
    let mut acc = 0.0;
    for (&x, &ci) in point.iter().zip(&cell.c) {
        let lo = ci as f64 * side;
        let gap = gap_to(x, lo, lo + side);
        acc += gap * gap;
    }
    acc
}

/// Squared minimum distance from `point` to the box whose axis `k` spans
/// `[lo[k], hi[k]]` (0 inside it), over the axes all three slices hold.
/// Each axis adds the square of the branch-free [`gap_to`], so for every
/// box with `lo ≤ hi` and every coordinate, NaN included, the sum is bit
/// for bit that of the piecewise gaps.
#[inline]
pub(crate) fn min_sq_dist_to_box(point: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
    let mut acc = 0.0;
    for ((&x, &lo), &hi) in point.iter().zip(lo).zip(hi) {
        let gap = gap_to(x, lo, hi);
        acc += gap * gap;
    }
    acc
}

/// Squared minimum distance between the boxes `[alo, ahi]` and
/// `[blo, bhi]` (per axis, as in [`min_sq_dist_to_box`]), 0 when they
/// meet. Each axis adds the square of the branch-free [`gap_between`], so
/// swapping the boxes gives the same sum, and for boxes with `lo ≤ hi`
/// the sum is bit for bit that of the piecewise gaps.
#[inline]
pub(crate) fn min_sq_dist_between_boxes(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (((&alo, &ahi), &blo), &bhi) in alo.iter().zip(ahi).zip(blo).zip(bhi) {
        let gap = gap_between(alo, ahi, blo, bhi);
        acc += gap * gap;
    }
    acc
}

/// Squared maximum distance from `point` to any point of `cell`'s box.
pub fn max_sq_dist_to_cell(point: &[f64], cell: &CellCoord, side: f64) -> f64 {
    let mut acc = 0.0;
    for (&x, &ci) in point.iter().zip(&cell.c) {
        let lo = ci as f64 * side;
        let hi = lo + side;
        let gap = (x - lo).abs().max((x - hi).abs());
        acc += gap * gap;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_slice_round_trip() {
        let c = CellCoord::from_slice(&[1, -2, 3]);
        assert_eq!(c.dims(), 3);
        assert_eq!(c.coords(), &[1, -2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_slice_rejects_oversized() {
        CellCoord::from_slice(&[0; MAX_DIMS + 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_slice_rejects_empty() {
        CellCoord::from_slice(&[]);
    }

    #[test]
    fn zero_padding_makes_eq_and_hash_consistent() {
        let a = CellCoord::from_slice(&[1, 2]);
        let b = CellCoord::from_slice(&[1, 2]);
        assert_eq!(a, b);
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn hash_covers_only_the_live_coordinates() {
        fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
            let mut state = std::collections::hash_map::DefaultHasher::new();
            value.hash(&mut state);
            state.finish()
        }
        let cell = CellCoord::from_slice(&[4, -7, 9]);
        assert_eq!(hash_of(&cell), hash_of(&[4i64, -7, 9][..]));
        assert_ne!(
            hash_of(&CellCoord::from_slice(&[0])),
            hash_of(&CellCoord::from_slice(&[0, 0]))
        );
    }

    #[test]
    fn offset_by_adds() {
        let c = CellCoord::from_slice(&[5, -3]);
        let o = CellCoord::from_slice(&[-1, 2]);
        assert_eq!(c.offset_by(&o).coords(), &[4, -1]);
    }

    #[test]
    fn paper_example_cell_assignment() {
        // Paper §III-B example: ε = √2, d = 2 gives side 1; point
        // (1.1, -0.3) lies in cell (1, -1).
        let side = cell_side(2f64.sqrt(), 2);
        let c = cell_of(&[1.1, -0.3], side);
        assert_eq!(c.coords(), &[1, -1]);
        // (0.5, 0.5) lies in cell (0, 0).
        assert_eq!(cell_of(&[0.5, 0.5], side).coords(), &[0, 0]);
        // (1.9, -0.9) lies in cell (1, -1).
        assert_eq!(cell_of(&[1.9, -0.9], side).coords(), &[1, -1]);
    }

    #[test]
    fn floor_to_i64_is_floor_then_cast() {
        let edges = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            -1.0,
            -1.5,
            2.5,
            -2.5,
            1e-300,
            -1e-300,
            f64::MIN_POSITIVE,
            4503599627370496.5,
            -4503599627370497.0,
            9007199254740993.0,
            -9007199254740993.0,
            -(2f64.powi(63)),
            2f64.powi(63),
            -9.3e18,
            9.3e18,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for q in edges {
            for q in [q, q.next_up(), q.next_down()] {
                assert_eq!(floor_to_i64(q), q.floor() as i64, "{q:e}");
            }
        }
    }

    /// The piecewise gaps, one branch per case.
    fn three_way_gap_to(x: f64, lo: f64, hi: f64) -> f64 {
        if x < lo {
            lo - x
        } else if x > hi {
            x - hi
        } else {
            0.0
        }
    }

    fn three_way_gap_between(alo: f64, ahi: f64, blo: f64, bhi: f64) -> f64 {
        if ahi < blo {
            blo - ahi
        } else if bhi < alo {
            alo - bhi
        } else {
            0.0
        }
    }

    /// Interval ends and coordinates at the edges of `f64`: ±∞, ±1e300,
    /// ±1, subnormals and signed zeros.
    fn edge_values() -> [f64; 12] {
        let least = f64::from_bits(1);
        let sub = f64::MIN_POSITIVE / 2.0;
        [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -sub,
            -least,
            -0.0,
            0.0,
            least,
            sub,
            1.0,
            1e300,
            f64::INFINITY,
        ]
    }

    /// The coordinates to test against `[lo, hi]`: every edge value,
    /// NaN, both ends and one ULP either side of each.
    fn coordinates_around(lo: f64, hi: f64) -> Vec<f64> {
        let mut xs = edge_values().to_vec();
        xs.push(f64::NAN);
        for end in [lo, hi] {
            xs.extend([end, end.next_down(), end.next_up()]);
        }
        xs
    }

    #[test]
    fn branch_free_gaps_square_to_the_three_way_forms_bit_for_bit() {
        // `CellMajorStore::min_sq_dist_to_bbox` and
        // `min_sq_dist_between_bboxes` are `min_sq_dist_to_box` and
        // `min_sq_dist_between_boxes` over a cell's bounding box.
        let sq = |gap: f64| 0.0 + gap * gap;
        let ends = edge_values();
        let boxes: Vec<(f64, f64)> = ends
            .iter()
            .flat_map(|&lo| ends.iter().map(move |&hi| (lo, hi)))
            .filter(|(lo, hi)| lo <= hi)
            .collect();
        let mut cases = Vec::new();
        for &(lo, hi) in &boxes {
            for x in coordinates_around(lo, hi) {
                let want = sq(three_way_gap_to(x, lo, hi));
                let got = min_sq_dist_to_box(&[x], &[lo], &[hi]);
                assert_eq!(got.to_bits(), want.to_bits(), "{x:e} to [{lo:e}, {hi:e}]");
                cases.push((x, lo, hi, want));
            }
            for &(blo, bhi) in &boxes {
                let want = sq(three_way_gap_between(lo, hi, blo, bhi));
                for got in [
                    min_sq_dist_between_boxes(&[lo], &[hi], &[blo], &[bhi]),
                    min_sq_dist_between_boxes(&[blo], &[bhi], &[lo], &[hi]),
                ] {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "[{lo:e}, {hi:e}] to [{blo:e}, {bhi:e}]"
                    );
                }
            }
        }
        // Three axes at once sum the same squares in the same order.
        for (i, &(x0, lo0, hi0, d0)) in cases.iter().enumerate() {
            let (x1, lo1, hi1, d1) = cases[(i + 7) % cases.len()];
            let (x2, lo2, hi2, d2) = cases[(i + 31) % cases.len()];
            let got = min_sq_dist_to_box(&[x0, x1, x2], &[lo0, lo1, lo2], &[hi0, hi1, hi2]);
            assert_eq!(got.to_bits(), (0.0 + d0 + d1 + d2).to_bits());
        }
        // A cell's box is [index · side, index · side + side].
        for ci in [i64::MIN, -(1 << 53), -1, 0, 1, 1 << 53, i64::MAX] {
            for side in [f64::from_bits(1), f64::MIN_POSITIVE, 0.7, 1.0, 1e300] {
                let cell = CellCoord::from_slice(&[ci]);
                let lo = ci as f64 * side;
                for x in coordinates_around(lo, lo + side) {
                    let want = sq(three_way_gap_to(x, lo, lo + side));
                    let got = min_sq_dist_to_cell(&[x], &cell, side);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{x:e} to cell {ci} of side {side:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn negative_coordinates_floor_correctly() {
        let c = cell_of(&[-0.1, -1.0], 1.0);
        assert_eq!(c.coords(), &[-1, -1]);
    }

    #[test]
    fn cell_diagonal_never_exceeds_eps() {
        for dims in 1..=MAX_DIMS {
            for &eps in &[0.1, 1.0, std::f64::consts::PI, 1e6] {
                let side = cell_side(eps, dims);
                let diagonal = side * (dims as f64).sqrt();
                assert!(
                    diagonal <= eps,
                    "diagonal {diagonal} > eps {eps} for d={dims}"
                );
            }
        }
    }

    #[test]
    fn min_max_dist_to_cell() {
        // Unit cell at (0,0): box [0,1]x[0,1].
        let cell = CellCoord::from_slice(&[0, 0]);
        // Point inside.
        assert_eq!(min_sq_dist_to_cell(&[0.5, 0.5], &cell, 1.0), 0.0);
        // Point left of the box at distance 2.
        assert_eq!(min_sq_dist_to_cell(&[-2.0, 0.5], &cell, 1.0), 4.0);
        // Max distance from origin corner is the far corner (1,1).
        assert_eq!(max_sq_dist_to_cell(&[0.0, 0.0], &cell, 1.0), 2.0);
        // Diagonal case.
        let d = min_sq_dist_to_cell(&[2.0, 2.0], &cell, 1.0);
        assert!((d - 2.0).abs() < 1e-12);
    }

    #[test]
    fn min_le_max_dist() {
        let cell = CellCoord::from_slice(&[3, -2, 1]);
        for p in [[0.0, 0.0, 0.0], [3.2, -1.7, 1.9], [100.0, -50.0, 0.1]] {
            assert!(min_sq_dist_to_cell(&p, &cell, 0.7) <= max_sq_dist_to_cell(&p, &cell, 0.7));
        }
    }
}
