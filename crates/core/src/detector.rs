//! The engine-agnostic detection API: the [`OutlierDetector`] trait that
//! every engine implements, and the [`DetectorBuilder`] that is the one
//! documented way to construct an engine.
//!
//! Experiments, the CLI, and tests are written against the trait, so an
//! engine swap is a one-line change:
//!
//! ```
//! use dbscout_core::{DetectorBuilder, DbscoutParams, ExecutionConfig, OutlierDetector};
//! use dbscout_spatial::PointStore;
//!
//! let mut rows: Vec<Vec<f64>> = (0..8).map(|i| vec![0.1 * i as f64, 0.0]).collect();
//! rows.push(vec![1e6, 1e6]);
//! let store = PointStore::from_rows(2, rows).unwrap();
//!
//! let params = DbscoutParams::new(1.0, 4).unwrap();
//! let detector = DetectorBuilder::new(params)
//!     .execution(ExecutionConfig::new().with_threads(2))
//!     .build();
//! let result = detector.detect(&store).unwrap();
//! assert_eq!(result.outliers, vec![8]);
//! ```

use std::sync::Arc;

use dbscout_data::{materialize, PointSource, StoreSource, DEFAULT_BATCH_SIZE};
use dbscout_dataflow::ExecutionContext;
use dbscout_spatial::PointStore;

use crate::distributed::{DistributedDbscout, JoinStrategy};
use crate::error::Result;
use crate::execution::ExecutionConfig;
use crate::incremental::IncrementalDbscout;
use crate::labels::OutlierResult;
use crate::native::{Dbscout, NativeOptions};
use crate::params::DbscoutParams;

/// A batch outlier detector: given a dataset, classify every point
/// exactly per Definitions 2–3 and report the outliers.
///
/// All engines return the same [`crate::DbscoutError`] variants and —
/// property tests pin this — identical labels for identical inputs.
pub trait OutlierDetector {
    /// Detects all outliers of `store` (Definition 3), exactly.
    fn detect(&self, store: &PointStore) -> Result<OutlierResult>;

    /// Detects all outliers of a streaming [`PointSource`], exactly.
    ///
    /// The default implementation is the materializing adapter: read the
    /// whole source into a [`PointStore`] and run [`Self::detect`] — the
    /// route the distributed engine takes. The native engine, and the
    /// incremental engine's bulk load that runs it, override it with a
    /// genuinely out-of-core path whose peak memory is the grid layout
    /// plus a few batches.
    fn detect_source(&self, source: &mut dyn PointSource) -> Result<OutlierResult> {
        let store = materialize(source).map_err(crate::DbscoutError::from)?;
        self.detect(&store)
    }

    /// The (ε, minPts) parameters this detector runs with.
    fn params(&self) -> DbscoutParams;
}

impl OutlierDetector for Dbscout {
    fn detect(&self, store: &PointStore) -> Result<OutlierResult> {
        Dbscout::detect(self, store)
    }

    fn detect_source(&self, source: &mut dyn PointSource) -> Result<OutlierResult> {
        Dbscout::detect_source(self, source)
    }

    fn params(&self) -> DbscoutParams {
        Dbscout::params(self)
    }
}

impl OutlierDetector for DistributedDbscout {
    fn detect(&self, store: &PointStore) -> Result<OutlierResult> {
        DistributedDbscout::detect(self, store)
    }

    fn params(&self) -> DbscoutParams {
        DistributedDbscout::params(self)
    }
}

/// Which engine a [`DetectorBuilder`] constructs.
#[derive(Debug, Clone, Default)]
enum EngineChoice {
    /// The native multi-threaded engine (the default).
    #[default]
    Native,
    /// The Spark-style formulation on a given execution context.
    Distributed(Arc<ExecutionContext>),
    /// The insert/delete incremental engine used in batch mode.
    Incremental,
}

/// The single documented construction path for every engine:
/// parameters, then execution knobs, then engine selection.
///
/// ```
/// use dbscout_core::{DetectorBuilder, DbscoutParams, ExecutionConfig, JoinStrategy};
/// use dbscout_dataflow::ExecutionContext;
///
/// let params = DbscoutParams::new(0.5, 5).unwrap();
///
/// // Native engine, 4 worker threads:
/// let native = DetectorBuilder::new(params)
///     .execution(ExecutionConfig::new().with_threads(4))
///     .build_native();
///
/// // Distributed engine on a 2-worker context:
/// let ctx = ExecutionContext::builder().workers(2).build();
/// let dist = DetectorBuilder::new(params)
///     .distributed(ctx)
///     .partitions(8)
///     .strategy(JoinStrategy::GroupedShuffle)
///     .build_distributed();
/// ```
#[derive(Debug, Clone)]
pub struct DetectorBuilder {
    params: DbscoutParams,
    exec: ExecutionConfig,
    options: NativeOptions,
    engine: EngineChoice,
    partitions: Option<usize>,
    strategy: JoinStrategy,
}

impl DetectorBuilder {
    /// Starts a builder for validated parameters (native engine, all
    /// cores unless overridden).
    pub fn new(params: DbscoutParams) -> Self {
        Self {
            params,
            exec: ExecutionConfig::default(),
            options: NativeOptions::default(),
            engine: EngineChoice::default(),
            partitions: None,
            strategy: JoinStrategy::default(),
        }
    }

    /// Applies an [`ExecutionConfig`] — the one way to set the native
    /// engine's worker-thread count (`0` means "all available cores",
    /// matching the CLI convention).
    pub fn execution(mut self, cfg: ExecutionConfig) -> Self {
        self.exec = cfg;
        self
    }

    /// Overrides the native engine's ablation switches.
    pub fn options(mut self, options: NativeOptions) -> Self {
        self.options = options;
        self
    }

    /// Selects the distributed engine, running on `ctx`.
    pub fn distributed(mut self, ctx: Arc<ExecutionContext>) -> Self {
        self.engine = EngineChoice::Distributed(ctx);
        self
    }

    /// Selects the incremental engine (in batch mode: bulk-load through
    /// the native engine's run, at the configured thread count, then
    /// snapshot).
    pub fn incremental(mut self) -> Self {
        self.engine = EngineChoice::Incremental;
        self
    }

    /// Overrides the distributed engine's partition count (ignored by the
    /// other engines).
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.partitions = (partitions > 0).then_some(partitions);
        self
    }

    /// Overrides the distributed engine's join strategy (ignored by the
    /// other engines).
    pub fn strategy(mut self, strategy: JoinStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builds the configured native engine, whatever engine was selected.
    pub fn build_native(&self) -> Dbscout {
        Dbscout::new(self.params)
            .with_options(self.options)
            .with_threads(self.exec.resolved_threads())
    }

    /// Builds the distributed engine on the configured context (a fresh
    /// all-cores context when none was given via [`Self::distributed`]).
    pub fn build_distributed(&self) -> DistributedDbscout {
        let ctx = match &self.engine {
            EngineChoice::Distributed(ctx) => Arc::clone(ctx),
            _ => ExecutionContext::with_all_cores(),
        };
        let mut d = DistributedDbscout::new(ctx, self.params).with_strategy(self.strategy);
        if let Some(p) = self.partitions {
            d = d.with_partitions(p);
        }
        d
    }

    /// One-shot streaming detection: builds the selected engine and runs
    /// it over `source`. On the native engine (the default) this is
    /// out-of-core end to end.
    pub fn detect_source(&self, source: &mut dyn PointSource) -> Result<OutlierResult> {
        self.build().detect_source(source)
    }

    /// Builds whichever engine was selected, behind the trait.
    pub fn build(&self) -> Box<dyn OutlierDetector> {
        match &self.engine {
            EngineChoice::Native => Box::new(self.build_native()),
            EngineChoice::Distributed(_) => Box::new(self.build_distributed()),
            EngineChoice::Incremental => Box::new(BatchIncremental {
                engine: self.build_native(),
            }),
        }
    }
}

/// The incremental engine's batch façade: bulk-loads each call into a
/// fresh [`IncrementalDbscout`] through the configured native engine's
/// run (streaming, for [`OutlierDetector::detect_source`]) and snapshots
/// it.
#[derive(Debug, Clone)]
struct BatchIncremental {
    engine: Dbscout,
}

impl OutlierDetector for BatchIncremental {
    fn detect(&self, store: &PointStore) -> Result<OutlierResult> {
        self.detect_source(&mut StoreSource::new(store, DEFAULT_BATCH_SIZE))
    }

    fn detect_source(&self, source: &mut dyn PointSource) -> Result<OutlierResult> {
        let loaded = IncrementalDbscout::load_source(&self.engine, source)?;
        Ok(loaded.map(|inc| inc.snapshot()).unwrap_or_default())
    }

    fn params(&self) -> DbscoutParams {
        self.engine.params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_labels;

    fn sample_store() -> PointStore {
        let mut rows: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![(i % 4) as f64 * 0.2, (i / 4) as f64 * 0.2])
            .collect();
        rows.push(vec![40.0, 40.0]);
        rows.push(vec![-9.0, 3.0]);
        PointStore::from_rows(2, rows).unwrap()
    }

    #[test]
    fn every_engine_agrees_through_the_trait() {
        let store = sample_store();
        let params = DbscoutParams::new(1.0, 4).unwrap();
        let expected = naive_labels(&store, params);
        let builder =
            DetectorBuilder::new(params).execution(ExecutionConfig::new().with_threads(2));
        let engines: Vec<(&str, Box<dyn OutlierDetector>)> = vec![
            ("native", builder.clone().build()),
            (
                "distributed",
                builder
                    .clone()
                    .distributed(ExecutionContext::builder().workers(2).build())
                    .partitions(3)
                    .build(),
            ),
            ("incremental", builder.clone().incremental().build()),
        ];
        for (name, engine) in engines {
            assert_eq!(engine.params(), params, "{name} params");
            let got = engine.detect(&store).unwrap();
            assert_eq!(got.labels, expected, "{name} labels");
        }
    }

    #[test]
    fn execution_config_sets_every_native_knob() {
        let params = DbscoutParams::new(0.5, 3).unwrap();
        let cfg = ExecutionConfig::new().with_threads(2);
        let d = DetectorBuilder::new(params).execution(cfg).build_native();
        assert_eq!(d.threads(), 2);
        assert_eq!(OutlierDetector::params(&d), params);
        // threads = 0 in the config keeps the all-cores default — it must
        // not panic or zero out.
        let d = DetectorBuilder::new(params)
            .execution(ExecutionConfig::new())
            .build_native();
        assert_eq!(d.threads(), ExecutionConfig::new().resolved_threads());
        assert!(d.detect(&sample_store()).is_ok());
    }

    #[test]
    fn build_distributed_without_context_uses_all_cores() {
        let params = DbscoutParams::new(1.0, 4).unwrap();
        let d = DetectorBuilder::new(params).build_distributed();
        let got = d.detect(&sample_store()).unwrap();
        let expected = naive_labels(&sample_store(), params);
        assert_eq!(got.labels, expected);
    }
}
