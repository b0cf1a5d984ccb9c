//! Error type for engine operations.

use std::fmt;

use crate::context::ContextConfig;

/// Convenient result alias used throughout the engine.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Errors surfaced by dataflow operations.
///
/// User closures run inside worker tasks; a panicking closure is caught,
/// retried up to the context's task-retry budget, and only an exhausted
/// budget surfaces as [`EngineError::TaskFailed`] — mirroring how a
/// cluster engine re-executes failed tasks before failing the job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A task (user closure over one partition) exhausted its attempt
    /// budget (the original run plus `max_task_retries` retries).
    TaskFailed {
        /// Name of the stage the task belonged to (e.g.
        /// `"core-point pass:join"`).
        stage: String,
        /// Index of the partition whose task failed.
        partition: usize,
        /// Number of attempts made, all of which failed.
        attempts: usize,
        /// One cause per failed attempt, in attempt order.
        causes: Vec<String>,
    },
    /// An operation was asked to produce an invalid number of partitions.
    InvalidPartitionCount {
        /// The requested number of partitions.
        requested: usize,
    },
    /// Two datasets that must share an [`super::ExecutionContext`] did not.
    ContextMismatch {
        /// Configuration of the left-hand dataset's context.
        left: ContextConfig,
        /// Configuration of the right-hand dataset's context.
        right: ContextConfig,
    },
    /// An engine-internal invariant failed to hold. Surfaced as an error
    /// instead of a panic so a broken scheduler cannot take down a scan.
    Internal {
        /// Description of the violated invariant.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::TaskFailed {
                stage,
                partition,
                attempts,
                causes,
            } => {
                write!(
                    f,
                    "task for partition {partition} of stage {stage:?} failed after \
                     {attempts} attempt(s): {}",
                    causes.join("; ")
                )
            }
            EngineError::InvalidPartitionCount { requested } => {
                write!(f, "invalid partition count: {requested} (must be >= 1)")
            }
            EngineError::ContextMismatch { left, right } => {
                write!(
                    f,
                    "datasets belong to different execution contexts \
                     (left: {left}, right: {right})"
                )
            }
            EngineError::Internal { message } => {
                write!(f, "engine invariant violated: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

// Compile-time proof of the XL004 contract: the error type is
// `Display + std::error::Error + Send + Sync`.
const fn _assert_error_bounds<T: std::error::Error + Send + Sync + 'static>() {}
const _: () = _assert_error_bounds::<EngineError>();

#[cfg(test)]
mod tests {
    use super::*;

    fn mismatch() -> EngineError {
        EngineError::ContextMismatch {
            left: ContextConfig {
                workers: 4,
                default_partitions: 8,
            },
            right: ContextConfig {
                workers: 2,
                default_partitions: 16,
            },
        }
    }

    #[test]
    fn display_task_failed() {
        let err = EngineError::TaskFailed {
            stage: "core-point pass:join".into(),
            partition: 3,
            attempts: 2,
            causes: vec!["attempt 1: boom".into(), "attempt 2: boom again".into()],
        };
        let s = err.to_string();
        assert!(s.contains("partition 3"), "{s}");
        assert!(s.contains("core-point pass:join"), "{s}");
        assert!(s.contains("2 attempt(s)"), "{s}");
        assert!(s.contains("attempt 1: boom; attempt 2: boom again"), "{s}");
    }

    #[test]
    fn display_invalid_partition_count() {
        let err = EngineError::InvalidPartitionCount { requested: 0 };
        assert!(err.to_string().contains("invalid partition count: 0"));
    }

    #[test]
    fn display_context_mismatch_names_both_configs() {
        let s = mismatch().to_string();
        assert!(s.contains("different execution contexts"), "{s}");
        assert!(s.contains("4 workers"), "{s}");
        assert!(s.contains("16 default partitions"), "{s}");
    }

    #[test]
    fn error_is_std_error() {
        fn takes_error<E: std::error::Error>(_: E) {}
        takes_error(mismatch());
    }
}
