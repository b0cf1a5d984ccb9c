//! The unified execution configuration.
//!
//! The one knob that decides *how* a detection runs — never *what* it
//! returns — is the worker-thread count, and it lives in one
//! [`ExecutionConfig`] value. The CLI maps its `--threads` flag into this
//! struct in exactly one place, and [`crate::DetectorBuilder::execution`]
//! consumes it.
//!
//! The struct is `#[non_exhaustive]`: construct it with
//! [`ExecutionConfig::default`] (or `new`) plus the chainable setter,
//! so future knobs can be added without breaking callers.

/// How a detection executes: the worker-thread count.
///
/// It is a performance knob only — a property suite pins that no thread
/// count changes labels or kernel-counter totals.
///
/// ```
/// use dbscout_core::{DetectorBuilder, DbscoutParams, ExecutionConfig};
///
/// let cfg = ExecutionConfig::new().with_threads(4);
/// let params = DbscoutParams::new(0.5, 5).unwrap();
/// let detector = DetectorBuilder::new(params).execution(cfg).build_native();
/// assert_eq!(detector.threads(), 4);
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecutionConfig {
    /// Worker threads for the native engine; `0` means "all available
    /// cores" (the CLI convention).
    pub threads: usize,
}

impl ExecutionConfig {
    /// The default configuration: all cores.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the native engine's worker-thread count (`0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The thread count this configuration resolves to at run time
    /// (`0` becomes the machine's available parallelism).
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_auto_on_all_cores() {
        let cfg = ExecutionConfig::new();
        assert_eq!(cfg.threads, 0);
        assert!(cfg.resolved_threads() >= 1);
    }

    #[test]
    fn setters_chain_and_resolve() {
        let cfg = ExecutionConfig::new().with_threads(3);
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.resolved_threads(), 3);
        // Zero goes back to all cores.
        assert_eq!(cfg.with_threads(0), ExecutionConfig::new());
    }
}
