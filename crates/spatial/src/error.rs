//! Error type for spatial operations.

use std::fmt;

/// Errors from constructing or querying spatial structures.
#[derive(Debug, Clone, PartialEq)]
pub enum SpatialError {
    /// A point's dimensionality did not match the store's.
    DimensionMismatch {
        /// Dimensionality the structure was built with.
        expected: usize,
        /// Dimensionality of the offending input.
        got: usize,
    },
    /// Requested dimensionality exceeds [`crate::MAX_DIMS`].
    TooManyDims {
        /// The requested dimensionality.
        requested: usize,
    },
    /// Dimensionality must be at least 1.
    ZeroDims,
    /// ε must be positive with a normal f64 square, i.e. between about
    /// 1.5e-154 and 1.34e154 (see [`crate::validate_eps`]).
    InvalidEpsilon {
        /// The offending value.
        value: f64,
    },
    /// `minPts` must be at least 1.
    InvalidMinPts,
    /// A coordinate was NaN or infinite.
    NonFiniteCoordinate {
        /// Index of the offending point.
        point: usize,
        /// Offending dimension.
        dim: usize,
    },
    /// A coordinate lies so far out, for the cell side ε gives, that its
    /// cell index would not be an exact integer (see
    /// [`crate::cell::check_point`]).
    CoordinateOutOfRange {
        /// Index of the offending point.
        point: usize,
        /// Offending dimension.
        dim: usize,
    },
    /// A streaming source replayed different points on its second pass
    /// than it produced on the first (the two-pass cell-major builder
    /// requires byte-identical replay).
    StreamMismatch,
    /// A forward neighbor sweep was requested over a cell table not known
    /// to ascend by coordinate: any but a batch build's (a mutable layout
    /// appends new cells at the end). The sweep would miss neighbors in
    /// an unsorted table.
    UnsortedCells,
}

impl fmt::Display for SpatialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpatialError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            SpatialError::TooManyDims { requested } => {
                write!(
                    f,
                    "dimensionality {requested} exceeds maximum supported ({})",
                    crate::MAX_DIMS
                )
            }
            SpatialError::ZeroDims => write!(f, "dimensionality must be at least 1"),
            SpatialError::InvalidEpsilon { value } => {
                write!(
                    f,
                    "eps must lie between about 1.5e-154 and 1.34e154 (eps² must be a normal f64), got {value}"
                )
            }
            SpatialError::InvalidMinPts => write!(f, "minPts must be at least 1"),
            SpatialError::NonFiniteCoordinate { point, dim } => {
                write!(f, "point {point} has a non-finite coordinate in dim {dim}")
            }
            SpatialError::CoordinateOutOfRange { point, dim } => write!(
                f,
                "point {point} has a coordinate in dim {dim} beyond 2^53 cell sides \
                 from the origin, too far out for this eps"
            ),
            SpatialError::StreamMismatch => write!(
                f,
                "streaming source did not replay the same points on its second pass"
            ),
            SpatialError::UnsortedCells => {
                write!(f, "neighbor sweep needs a cell table sorted by coordinate")
            }
        }
    }
}

impl std::error::Error for SpatialError {}

// Compile-time proof of the XL004 contract: the error type is
// `Display + std::error::Error + Send + Sync`.
const fn _assert_error_bounds<T: std::error::Error + Send + Sync + 'static>() {}
const _: () = _assert_error_bounds::<SpatialError>();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SpatialError::DimensionMismatch {
            expected: 2,
            got: 3
        }
        .to_string()
        .contains("expected 2, got 3"));
        assert!(SpatialError::TooManyDims { requested: 99 }
            .to_string()
            .contains("99"));
        assert!(SpatialError::InvalidEpsilon { value: -1.0 }
            .to_string()
            .contains("-1"));
        assert!(SpatialError::ZeroDims.to_string().contains("at least 1"));
        assert!(SpatialError::InvalidMinPts.to_string().contains("minPts"));
        assert!(SpatialError::NonFiniteCoordinate { point: 7, dim: 1 }
            .to_string()
            .contains("point 7"));
        assert!(SpatialError::CoordinateOutOfRange { point: 3, dim: 0 }
            .to_string()
            .contains("point 3 has a coordinate in dim 0 beyond 2^53"));
    }
}
