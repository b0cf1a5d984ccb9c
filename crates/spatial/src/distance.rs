//! Euclidean distance kernels.
//!
//! All comparisons in DBSCOUT are of the form `dist(p, q) ≤ ε`, so the
//! kernels work on *squared* distances and never take a square root in the
//! hot path.
//!
//! The cell-major hot loops compute a block of squared distances at once
//! with portable lane-unrolled loops ([`sq_dists_2d_x8`],
//! [`sq_dists_3d_x4`], [`accumulate_sq_dists_x4`]), written so the
//! optimizer can keep each lane in a vector register. Per-lane arithmetic
//! is the *same expression tree* as [`sq_dist`] (differences squared,
//! accumulated in dimension order), so every lane is bit-equal to it and
//! gives the same ≤ ε² verdict; `sq_dist` is the oracle the kernels are
//! tested against.
//!
//! Lane-unrolled code is confined to this file and `cell_major.rs` by the
//! `XL010` lint, so any future `std::arch` specialization has exactly two
//! places to live.

/// Lane width of the unrolled d = 2 kernel.
pub const LANES_2D: usize = 8;
/// Lane width of the unrolled d = 3 and generic kernels.
pub const LANES_ND: usize = 4;

/// Eight squared distances from `(qx, qy)` to the column block
/// `(xs[i], ys[i])`, one per lane. Per-lane arithmetic matches
/// [`sq_dist`] exactly (`dx·dx + dy·dy`).
#[inline]
pub fn sq_dists_2d_x8(
    qx: f64,
    qy: f64,
    xs: &[f64; LANES_2D],
    ys: &[f64; LANES_2D],
) -> [f64; LANES_2D] {
    let mut out = [0.0f64; LANES_2D];
    for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
        let (dx, dy) = (x - qx, y - qy);
        *o = dx * dx + dy * dy;
    }
    out
}

/// Four squared distances from `(qx, qy, qz)` to the column block
/// `(xs[i], ys[i], zs[i])`, one per lane.
#[inline]
pub fn sq_dists_3d_x4(
    qx: f64,
    qy: f64,
    qz: f64,
    xs: &[f64; LANES_ND],
    ys: &[f64; LANES_ND],
    zs: &[f64; LANES_ND],
) -> [f64; LANES_ND] {
    let mut out = [0.0f64; LANES_ND];
    for (((o, &x), &y), &z) in out.iter_mut().zip(xs).zip(ys).zip(zs) {
        let (dx, dy, dz) = (x - qx, y - qy, z - qz);
        *o = dx * dx + dy * dy + dz * dz;
    }
    out
}

/// Accumulates one dimension's squared differences into four running
/// lane totals: `acc[i] += (col[i] - qk)²`. Calling this for `k = 0..d`
/// in order reproduces [`sq_dist`]'s accumulation order per lane, keeping
/// the generic kernel bit-equal to it.
#[inline]
pub fn accumulate_sq_dists_x4(acc: &mut [f64; LANES_ND], qk: f64, col: &[f64; LANES_ND]) {
    for (a, &x) in acc.iter_mut().zip(col) {
        let d = x - qk;
        *a += d * d;
    }
}

/// Squared Euclidean distance between two equal-length slices.
///
/// Written as a `zip` fold so the compiler can fully unroll it for
/// d = 2 and 3 without emitting bounds checks.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    sq_dist(a, b).sqrt()
}

/// `true` iff `dist(a, b) ≤ ε`, given `eps_sq = ε²` (Definition 2 uses a
/// closed ball).
#[inline]
pub fn within(a: &[f64], b: &[f64], eps_sq: f64) -> bool {
    sq_dist(a, b) <= eps_sq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sq_dist_basics() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(sq_dist(&[1.0], &[1.0]), 0.0);
        assert_eq!(sq_dist(&[-1.0, -1.0], &[1.0, 1.0]), 8.0);
    }

    #[test]
    fn dist_is_sqrt_of_sq_dist() {
        assert_eq!(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn within_is_closed_ball() {
        // Boundary case: dist == eps must count as within (Definition 2).
        assert!(within(&[0.0], &[2.0], 4.0));
        assert!(!within(&[0.0], &[2.0 + 1e-9], 4.0));
        assert!(within(&[0.0], &[0.0], 0.0));
    }

    #[test]
    fn higher_dims() {
        let a = [1.0; 9];
        let b = [2.0; 9];
        assert_eq!(sq_dist(&a, &b), 9.0);
        assert_eq!(dist(&a, &b), 3.0);
    }

    #[test]
    fn unrolled_lanes_are_bit_equal_to_the_scalar_kernel() {
        let qx = 0.3125;
        let qy = -1.75;
        let qz = 2.015625;
        let xs: [f64; LANES_2D] = core::array::from_fn(|i| i as f64 * 0.37 - 1.1);
        let ys: [f64; LANES_2D] = core::array::from_fn(|i| 2.4 - i as f64 * 0.73);
        let d2 = sq_dists_2d_x8(qx, qy, &xs, &ys);
        for i in 0..LANES_2D {
            assert_eq!(d2[i], sq_dist(&[xs[i], ys[i]], &[qx, qy]), "lane {i}");
        }
        let x4: [f64; LANES_ND] = core::array::from_fn(|i| xs[i]);
        let y4: [f64; LANES_ND] = core::array::from_fn(|i| ys[i]);
        let z4: [f64; LANES_ND] = core::array::from_fn(|i| i as f64 * 0.19 + 0.05);
        let d3 = sq_dists_3d_x4(qx, qy, qz, &x4, &y4, &z4);
        let mut acc = [0.0f64; LANES_ND];
        accumulate_sq_dists_x4(&mut acc, qx, &x4);
        accumulate_sq_dists_x4(&mut acc, qy, &y4);
        accumulate_sq_dists_x4(&mut acc, qz, &z4);
        for i in 0..LANES_ND {
            let scalar = sq_dist(&[x4[i], y4[i], z4[i]], &[qx, qy, qz]);
            assert_eq!(d3[i], scalar, "3d lane {i}");
            assert_eq!(acc[i], scalar, "generic lane {i}");
        }
    }
}
