//! Error type for DBSCOUT runs.
//!
//! Every engine — [`crate::Dbscout`], [`crate::DistributedDbscout`],
//! [`crate::IncrementalDbscout`] — reports failures through this one
//! enum, so code generic over [`crate::OutlierDetector`] matches on a
//! single set of variants. Parameter mistakes surface as the dedicated
//! [`DbscoutError::InvalidEpsilon`] / [`DbscoutError::InvalidMinPts`]
//! variants whichever layer catches them; everything else folds into
//! "the input data was bad" ([`DbscoutError::InvalidInput`]) or "the
//! execution substrate failed" ([`DbscoutError::Execution`]).

use std::fmt;

use dbscout_data::DataIoError;
use dbscout_dataflow::EngineError;
use dbscout_spatial::SpatialError;

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, DbscoutError>;

/// Errors from configuring or running DBSCOUT.
#[derive(Debug, Clone, PartialEq)]
pub enum DbscoutError {
    /// ε must be positive with a normal f64 square, i.e. between about
    /// 1.5e-154 and 1.34e154 (see [`crate::DbscoutParams::new`]).
    InvalidEpsilon {
        /// The offending value.
        value: f64,
    },
    /// `minPts` must be at least 1.
    InvalidMinPts {
        /// The offending value.
        value: usize,
    },
    /// The input data was rejected (dimension mismatch, non-finite
    /// coordinate, unsupported dimensionality, …).
    InvalidInput(SpatialError),
    /// The execution substrate failed (a task panicked, exhausted its
    /// retry budget, bad partitioning, …).
    Execution(EngineError),
    /// A streaming [`dbscout_data::PointSource`] failed mid-detection
    /// (IO error, malformed row in strict mode, corrupt binary payload).
    /// Carries the rendered message so this enum stays `Clone +
    /// PartialEq` (the underlying [`DataIoError`] holds an
    /// [`std::io::Error`], which is neither).
    Ingest(String),
}

impl fmt::Display for DbscoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // The range text lives once, next to `validate_eps`.
            DbscoutError::InvalidEpsilon { value } => {
                write!(f, "{}", SpatialError::InvalidEpsilon { value: *value })
            }
            DbscoutError::InvalidMinPts { value } => {
                write!(f, "minPts must be at least 1, got {value}")
            }
            DbscoutError::InvalidInput(e) => write!(f, "invalid input: {e}"),
            DbscoutError::Execution(e) => write!(f, "execution error: {e}"),
            DbscoutError::Ingest(message) => write!(f, "ingest error: {message}"),
        }
    }
}

impl std::error::Error for DbscoutError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbscoutError::InvalidInput(e) => Some(e),
            DbscoutError::Execution(e) => Some(e),
            DbscoutError::InvalidEpsilon { .. }
            | DbscoutError::InvalidMinPts { .. }
            | DbscoutError::Ingest(_) => None,
        }
    }
}

impl From<SpatialError> for DbscoutError {
    /// Parameter mistakes caught by the spatial layer are re-expressed as
    /// the top-level parameter variants, so a caller sees the same error
    /// whether validation happened in [`crate::DbscoutParams::new`] or
    /// deep inside an engine.
    fn from(e: SpatialError) -> Self {
        match e {
            SpatialError::InvalidEpsilon { value } => DbscoutError::InvalidEpsilon { value },
            SpatialError::InvalidMinPts => DbscoutError::InvalidMinPts { value: 0 },
            other => DbscoutError::InvalidInput(other),
        }
    }
}

impl From<EngineError> for DbscoutError {
    fn from(e: EngineError) -> Self {
        DbscoutError::Execution(e)
    }
}

impl From<DataIoError> for DbscoutError {
    /// Structural point problems detected during decoding re-enter the
    /// [`SpatialError`] normalization (so e.g. a non-finite coordinate in
    /// a binary file surfaces exactly like one in a materialized store);
    /// everything else is an ingest failure.
    fn from(e: DataIoError) -> Self {
        match e {
            DataIoError::Spatial(s) => s.into(),
            other => DbscoutError::Ingest(other.to_string()),
        }
    }
}

// Compile-time proof of the XL004 contract: the error type is
// `Display + std::error::Error + Send + Sync`.
const fn _assert_error_bounds<T: std::error::Error + Send + Sync + 'static>() {}
const _: () = _assert_error_bounds::<DbscoutError>();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_errors_normalize_across_layers() {
        // The spatial layer's parameter variants surface as the same
        // top-level variants DbscoutParams::new produces directly.
        let e: DbscoutError = SpatialError::InvalidEpsilon { value: -1.0 }.into();
        assert_eq!(e, DbscoutError::InvalidEpsilon { value: -1.0 });
        let e: DbscoutError = SpatialError::InvalidMinPts.into();
        assert_eq!(e, DbscoutError::InvalidMinPts { value: 0 });
    }

    #[test]
    fn conversions_and_sources() {
        let e: DbscoutError = SpatialError::ZeroDims.into();
        assert!(matches!(e, DbscoutError::InvalidInput(_)));
        assert!(std::error::Error::source(&e).is_some());

        let e: DbscoutError = EngineError::InvalidPartitionCount { requested: 0 }.into();
        assert!(matches!(e, DbscoutError::Execution(_)));
        assert!(std::error::Error::source(&e).is_some());

        let e = DbscoutError::InvalidMinPts { value: 0 };
        assert!(e.to_string().contains("minPts"));
        assert!(std::error::Error::source(&e).is_none());

        let e = DbscoutError::InvalidEpsilon { value: f64::NAN };
        assert!(e.to_string().contains("eps"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn ingest_errors_fold_in_but_spatial_causes_normalize() {
        let e: DbscoutError = DataIoError::Truncated.into();
        assert!(matches!(e, DbscoutError::Ingest(_)));
        assert!(e.to_string().contains("truncated"));
        assert!(std::error::Error::source(&e).is_none());

        // A structurally-bad point inside a decoded payload surfaces the
        // same way as one in a materialized store.
        let e: DbscoutError =
            DataIoError::Spatial(SpatialError::InvalidEpsilon { value: -2.0 }).into();
        assert_eq!(e, DbscoutError::InvalidEpsilon { value: -2.0 });
        let e: DbscoutError = DataIoError::Spatial(SpatialError::ZeroDims).into();
        assert!(matches!(e, DbscoutError::InvalidInput(_)));
    }
}
