//! Algorithm parameters (the user-specified constants of paper §II).

use dbscout_spatial::validate_eps;

use crate::error::{DbscoutError, Result};

/// The two DBSCAN-family parameters: a point is **core** when at least
/// `min_pts` points (itself included) lie within Euclidean distance `eps`
/// of it (Definition 2); a point is an **outlier** when no core point lies
/// within `eps` of it (Definition 3).
///
/// The fields are private, so every parameter set passed
/// [`DbscoutParams::new`]'s checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscoutParams {
    eps: f64,
    min_pts: usize,
}

impl DbscoutParams {
    /// Creates and validates a parameter set.
    ///
    /// Every engine compares squared distances with ε², so ε² must be a
    /// normal f64: ε between about 1.5e-154 and 1.34e154
    /// ([`dbscout_spatial::validate_eps`], the check every spatial
    /// constructor makes too).
    ///
    /// # Errors
    ///
    /// [`DbscoutError::InvalidEpsilon`] unless `eps` is positive with a
    /// normal square (NaN, ±∞, zero, negative values and the two ends
    /// above are rejected); [`DbscoutError::InvalidMinPts`] if `min_pts`
    /// is zero.
    pub fn new(eps: f64, min_pts: usize) -> Result<Self> {
        validate_eps(eps)?;
        if min_pts == 0 {
            return Err(DbscoutError::InvalidMinPts { value: 0 });
        }
        Ok(Self { eps, min_pts })
    }

    /// Neighborhood radius ε (positive, with a normal f64 square).
    #[inline]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Density threshold `minPts` (≥ 1).
    #[inline]
    pub fn min_pts(&self) -> usize {
        self.min_pts
    }

    /// ε² — every distance comparison uses squared distances.
    #[inline]
    pub fn eps_sq(&self) -> f64 {
        self.eps * self.eps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_params() {
        let p = DbscoutParams::new(0.5, 5).unwrap();
        assert_eq!(p.eps(), 0.5);
        assert_eq!(p.min_pts(), 5);
        assert_eq!(p.eps_sq(), 0.25);
    }

    #[test]
    fn invalid_eps() {
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(DbscoutParams::new(eps, 5).is_err(), "eps {eps} accepted");
        }
    }

    #[test]
    fn eps_range_ends_where_its_square_stops_being_normal() {
        // The smallest and largest ε whose square is a normal f64.
        let smallest = 1.491_668_146_240_041_3e-154;
        let largest = 1.340_780_792_994_259_6e154;
        for eps in [smallest, largest] {
            let p = DbscoutParams::new(eps, 2).unwrap();
            assert!(p.eps_sq().is_normal(), "eps {eps}");
        }
        assert_eq!(smallest * smallest, f64::MIN_POSITIVE);
        for eps in [
            smallest.next_down(),
            largest.next_up(),
            1e-320,
            1e155,
            1e200,
            -largest,
            f64::MIN_POSITIVE,
            f64::MAX,
        ] {
            assert_eq!(
                DbscoutParams::new(eps, 2).unwrap_err(),
                DbscoutError::InvalidEpsilon { value: eps },
                "eps {eps:e}"
            );
        }
        let message = DbscoutParams::new(1e200, 2).unwrap_err().to_string();
        assert!(
            message.contains("1.5e-154") && message.contains("1.34e154"),
            "{message}"
        );
    }

    #[test]
    fn invalid_min_pts() {
        assert_eq!(
            DbscoutParams::new(1.0, 0).unwrap_err(),
            DbscoutError::InvalidMinPts { value: 0 }
        );
    }

    #[test]
    fn min_pts_one_is_legal() {
        // With minPts = 1 every point is core (it neighbors itself), so
        // the parameter must not be rejected.
        assert!(DbscoutParams::new(1.0, 1).is_ok());
    }
}
