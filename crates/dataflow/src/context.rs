//! The execution context: worker count, defaults, failure policy, and
//! metrics.

use std::fmt;
use std::sync::{Arc, Mutex};

use dbscout_telemetry::Recorder;

use crate::broadcast::Broadcast;
use crate::dataset::Dataset;
use crate::error::{EngineError, Result};
use crate::executor::{self, lock_unpoisoned, SpeculationConfig, StageOptions};
use crate::fault::FaultPlan;
use crate::metrics::EngineMetrics;

/// Default task-retry budget: a task may fail twice and still succeed on
/// its third attempt (the spirit of Spark's `spark.task.maxFailures = 4`,
/// scaled to a single-process engine).
pub const DEFAULT_TASK_RETRIES: usize = 2;

/// The scheduling-relevant shape of an [`ExecutionContext`], carried by
/// [`EngineError::ContextMismatch`] so mixed-context errors are
/// actionable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextConfig {
    /// Number of concurrently running tasks.
    pub workers: usize,
    /// Partition count used when the caller does not specify one.
    pub default_partitions: usize,
}

impl fmt::Display for ContextConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} workers / {} default partitions",
            self.workers, self.default_partitions
        )
    }
}

/// Shared engine state: the "driver" of this mini cluster.
///
/// Holds the worker count (how many partition tasks run concurrently — the
/// analogue of total executor cores), the default partition count for new
/// datasets, the failure policy (task-retry budget, speculation, fault
/// injection), and the [`EngineMetrics`] counters.
///
/// Contexts are cheap to clone via [`Arc`] inside datasets; create one per
/// logical cluster configuration.
pub struct ExecutionContext {
    workers: usize,
    default_partitions: usize,
    max_task_retries: usize,
    speculation: Option<SpeculationConfig>,
    fault_plan: Option<FaultPlan>,
    /// Seed perturbing work-queue pop order in every stage (schedule
    /// exploration); `None` = FIFO.
    schedule_seed: Option<u64>,
    /// Caller-visible phase label (e.g. `"core-point pass"`) prefixed onto
    /// every stage name while set.
    stage: Mutex<Option<String>>,
    metrics: EngineMetrics,
    /// Span sink installed at build time; `None` (the default) keeps the
    /// engine span-free — a single branch per stage, nothing per task.
    recorder: Option<Arc<dyn Recorder>>,
}

impl fmt::Debug for ExecutionContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecutionContext")
            .field("workers", &self.workers)
            .field("default_partitions", &self.default_partitions)
            .field("max_task_retries", &self.max_task_retries)
            .field("speculation", &self.speculation)
            .field("fault_plan", &self.fault_plan)
            .field("schedule_seed", &self.schedule_seed)
            .field("recorder", &self.recorder.is_some())
            .finish_non_exhaustive()
    }
}

impl ExecutionContext {
    /// Starts building a context.
    pub fn builder() -> ExecutionContextBuilder {
        ExecutionContextBuilder::default()
    }

    /// A context with one worker per available CPU.
    pub fn with_all_cores() -> Arc<Self> {
        Self::builder().build()
    }

    /// Number of concurrently running tasks.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Partition count used when the caller does not specify one.
    pub fn default_partitions(&self) -> usize {
        self.default_partitions
    }

    /// How many times a failed task is re-queued before the job fails.
    pub fn max_task_retries(&self) -> usize {
        self.max_task_retries
    }

    /// The scheduling-relevant shape of this context.
    pub fn config(&self) -> ContextConfig {
        ContextConfig {
            workers: self.workers,
            default_partitions: self.default_partitions,
        }
    }

    /// The engine counters.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The span sink installed at build time, if any. Detectors use this
    /// to emit their phase spans into the same trace as the engine's
    /// task spans.
    pub fn recorder(&self) -> Option<&Arc<dyn Recorder>> {
        self.recorder.as_ref()
    }

    /// Labels all stages run until [`clear_stage`](Self::clear_stage) with
    /// a caller-visible phase name, so errors and fault plans can name the
    /// algorithm phase (e.g. `"core-point pass"`) instead of the engine
    /// primitive alone.
    pub fn set_stage(&self, phase: impl Into<String>) {
        *lock_unpoisoned(&self.stage) = Some(phase.into());
    }

    /// Removes the phase label set by [`set_stage`](Self::set_stage).
    pub fn clear_stage(&self) {
        *lock_unpoisoned(&self.stage) = None;
    }

    /// The currently set phase label, if any.
    pub fn current_stage(&self) -> Option<String> {
        lock_unpoisoned(&self.stage).clone()
    }

    /// Runs one stage of `tasks` under this context's failure policy.
    /// `op` names the engine primitive; the full stage name is
    /// `"{phase}:{op}"` while a phase label is set.
    pub(crate) fn run_stage<T, F>(&self, op: &str, tasks: Vec<F>) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn() -> T + Send + Sync,
    {
        let label = match lock_unpoisoned(&self.stage).as_deref() {
            Some(phase) => format!("{phase}:{op}"),
            None => op.to_owned(),
        };
        let opts = StageOptions {
            workers: self.workers,
            max_task_retries: self.max_task_retries,
            speculation: self.speculation,
            fault_plan: self.fault_plan.as_ref(),
            metrics: Some(&self.metrics),
            recorder: self.recorder.as_deref(),
            schedule_seed: self.schedule_seed,
            stage: &label,
        };
        executor::run_stage(&opts, tasks)
    }

    /// The error for mixing datasets of `self` and `other`.
    pub(crate) fn mismatch_with(&self, other: &ExecutionContext) -> EngineError {
        EngineError::ContextMismatch {
            left: self.config(),
            right: other.config(),
        }
    }

    /// Broadcasts a read-only value to all workers (metered).
    pub fn broadcast<T>(self: &Arc<Self>, value: T) -> Broadcast<T> {
        self.metrics.record_broadcast();
        Broadcast::new(value)
    }

    /// Distributes `data` into `num_partitions` contiguous chunks of nearly
    /// equal size (Spark's `parallelize`).
    pub fn parallelize<T: Send + Sync>(
        self: &Arc<Self>,
        data: Vec<T>,
        num_partitions: usize,
    ) -> Dataset<T> {
        let num_partitions = num_partitions.max(1);
        let n = data.len();
        let base = n / num_partitions;
        let extra = n % num_partitions;
        let mut partitions = Vec::with_capacity(num_partitions);
        let mut iter = data.into_iter();
        for p in 0..num_partitions {
            let size = base + usize::from(p < extra);
            partitions.push(iter.by_ref().take(size).collect());
        }
        Dataset::from_partitions(Arc::clone(self), partitions)
    }

    /// Distributes a *batched* stream of `total` items into
    /// `num_partitions` contiguous chunks — the out-of-core counterpart
    /// of [`Self::parallelize`].
    ///
    /// Partition boundaries are computed from `total` exactly as
    /// `parallelize` computes them, then batches are drained in order
    /// across those boundaries, so the resulting [`Dataset`] is
    /// element-identical to `parallelize(flattened, num_partitions)` for
    /// any batch shape — without ever holding more than the partitions
    /// being filled plus one batch. Items beyond `total` land in the last
    /// partition; a short stream simply yields short partitions (callers
    /// that know `total` exactly get the canonical layout).
    pub fn parallelize_batches<T: Send + Sync>(
        self: &Arc<Self>,
        total: usize,
        batches: impl IntoIterator<Item = Vec<T>>,
        num_partitions: usize,
    ) -> Dataset<T> {
        let num_partitions = num_partitions.max(1);
        let base = total / num_partitions;
        let extra = total % num_partitions;
        let mut partitions: Vec<Vec<T>> = Vec::with_capacity(num_partitions);
        let mut sizes = (0..num_partitions).map(|p| base + usize::from(p < extra));
        let mut capacity = sizes.next().unwrap_or(0);
        partitions.push(Vec::with_capacity(capacity));
        for batch in batches {
            for item in batch {
                while let Some(current) = partitions.last_mut() {
                    if current.len() < capacity {
                        current.push(item);
                        break;
                    }
                    match sizes.next() {
                        Some(next) => {
                            capacity = next;
                            partitions.push(Vec::with_capacity(next));
                        }
                        None => {
                            // Stream ran past `total`: overflow into the
                            // last partition rather than dropping data.
                            current.push(item);
                            break;
                        }
                    }
                }
            }
        }
        // A short stream leaves sizes unconsumed; emit the remaining
        // partitions empty so the partition count always matches.
        for size in sizes {
            partitions.push(Vec::with_capacity(size));
        }
        Dataset::from_partitions(Arc::clone(self), partitions)
    }
}

/// Builder for [`ExecutionContext`].
#[derive(Clone, Default)]
pub struct ExecutionContextBuilder {
    workers: Option<usize>,
    default_partitions: Option<usize>,
    max_task_retries: Option<usize>,
    speculation: Option<SpeculationConfig>,
    fault_plan: Option<FaultPlan>,
    schedule_seed: Option<u64>,
    recorder: Option<Arc<dyn Recorder>>,
}

impl fmt::Debug for ExecutionContextBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecutionContextBuilder")
            .field("workers", &self.workers)
            .field("default_partitions", &self.default_partitions)
            .field("max_task_retries", &self.max_task_retries)
            .field("speculation", &self.speculation)
            .field("fault_plan", &self.fault_plan)
            .field("schedule_seed", &self.schedule_seed)
            .field("recorder", &self.recorder.is_some())
            .finish()
    }
}

impl ExecutionContextBuilder {
    /// Sets the number of worker threads (defaults to available CPUs).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Sets the default partition count (defaults to `2 * workers`).
    pub fn default_partitions(mut self, partitions: usize) -> Self {
        self.default_partitions = Some(partitions.max(1));
        self
    }

    /// Sets the task-retry budget (defaults to
    /// [`DEFAULT_TASK_RETRIES`]; `0` fails the job on the first task
    /// error).
    pub fn max_task_retries(mut self, retries: usize) -> Self {
        self.max_task_retries = Some(retries);
        self
    }

    /// Enables speculative duplication of straggler tasks (off by
    /// default).
    pub fn speculation(mut self, config: SpeculationConfig) -> Self {
        self.speculation = Some(config);
        self
    }

    /// Installs a deterministic fault-injection plan (chaos testing).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Perturbs work-queue pop order in every stage with a seeded rng
    /// (schedule exploration). Off by default — production pops FIFO.
    ///
    /// The engine's results are schedule-independent by construction;
    /// this hook lets tests *prove* it by running the same job under
    /// many seeds and asserting byte-identical output.
    pub fn schedule_chaos(mut self, seed: u64) -> Self {
        self.schedule_seed = Some(seed);
        self
    }

    /// Installs a span sink (e.g. a
    /// [`TraceCollector`](dbscout_telemetry::TraceCollector)): every task
    /// attempt emits a span into it, and detectors running on the context
    /// add their phase spans. Off by default.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Finalises the context.
    pub fn build(self) -> Arc<ExecutionContext> {
        let workers = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let default_partitions = self.default_partitions.unwrap_or(workers * 2);
        Arc::new(ExecutionContext {
            workers,
            default_partitions,
            max_task_retries: self.max_task_retries.unwrap_or(DEFAULT_TASK_RETRIES),
            speculation: self.speculation,
            fault_plan: self.fault_plan,
            schedule_seed: self.schedule_seed,
            stage: Mutex::new(None),
            metrics: EngineMetrics::new(),
            recorder: self.recorder,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let ctx = ExecutionContext::builder().build();
        assert!(ctx.workers() >= 1);
        assert_eq!(ctx.default_partitions(), ctx.workers() * 2);
        assert_eq!(ctx.max_task_retries(), DEFAULT_TASK_RETRIES);
        assert_eq!(ctx.current_stage(), None);
    }

    #[test]
    fn builder_overrides() {
        let ctx = ExecutionContext::builder()
            .workers(3)
            .default_partitions(17)
            .max_task_retries(0)
            .build();
        assert_eq!(ctx.workers(), 3);
        assert_eq!(ctx.default_partitions(), 17);
        assert_eq!(ctx.max_task_retries(), 0);
    }

    #[test]
    fn builder_clamps_zero() {
        let ctx = ExecutionContext::builder()
            .workers(0)
            .default_partitions(0)
            .build();
        assert_eq!(ctx.workers(), 1);
        assert_eq!(ctx.default_partitions(), 1);
    }

    #[test]
    fn stage_labels_reach_errors() {
        let ctx = ExecutionContext::builder()
            .workers(2)
            .max_task_retries(0)
            .build();
        ctx.set_stage("outlier pass");
        let ds = ctx.parallelize((0..8).collect::<Vec<_>>(), 4);
        let err = ds
            .map(|&x: &i32| {
                assert!(x < 4, "chaos");
                x
            })
            .unwrap_err();
        match err {
            EngineError::TaskFailed { stage, .. } => {
                assert!(stage.contains("outlier pass"), "stage: {stage}");
                assert!(stage.contains("map"), "stage: {stage}");
            }
            other => panic!("unexpected: {other:?}"),
        }
        ctx.clear_stage();
        assert_eq!(ctx.current_stage(), None);
    }

    #[test]
    fn config_reports_shape() {
        let ctx = ExecutionContext::builder()
            .workers(3)
            .default_partitions(9)
            .build();
        let cfg = ctx.config();
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.default_partitions, 9);
        assert_eq!(cfg.to_string(), "3 workers / 9 default partitions");
    }

    #[test]
    fn parallelize_balances_partitions() {
        let ctx = ExecutionContext::builder().workers(2).build();
        let ds = ctx.parallelize((0..10).collect::<Vec<_>>(), 3);
        let sizes = ds.partition_sizes();
        assert_eq!(sizes, vec![4, 3, 3]);
        assert_eq!(ds.collect().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn parallelize_more_partitions_than_items() {
        let ctx = ExecutionContext::builder().workers(2).build();
        let ds = ctx.parallelize(vec![1, 2], 5);
        assert_eq!(ds.num_partitions(), 5);
        assert_eq!(ds.count(), 2);
    }

    #[test]
    fn parallelize_empty() {
        let ctx = ExecutionContext::builder().workers(2).build();
        let ds = ctx.parallelize(Vec::<i32>::new(), 4);
        assert_eq!(ds.count(), 0);
        assert_eq!(ds.num_partitions(), 4);
    }

    #[test]
    fn parallelize_zero_partitions_clamped() {
        let ctx = ExecutionContext::builder().workers(2).build();
        let ds = ctx.parallelize(vec![1, 2, 3], 0);
        assert_eq!(ds.num_partitions(), 1);
    }

    #[test]
    fn parallelize_batches_matches_parallelize_for_any_batch_shape() {
        let ctx = ExecutionContext::builder().workers(2).build();
        let items: Vec<i32> = (0..23).collect();
        for parts in [1usize, 3, 5, 23, 40] {
            let reference = ctx.parallelize(items.clone(), parts);
            for batch in [1usize, 4, 7, 23, 100] {
                let batches: Vec<Vec<i32>> = items.chunks(batch).map(|c| c.to_vec()).collect();
                let ds = ctx.parallelize_batches(items.len(), batches, parts);
                assert_eq!(
                    ds.partition_sizes(),
                    reference.partition_sizes(),
                    "parts {parts} batch {batch}"
                );
                assert_eq!(ds.collect().unwrap(), items, "parts {parts} batch {batch}");
            }
        }
    }

    #[test]
    fn parallelize_batches_handles_empty_and_overflow() {
        let ctx = ExecutionContext::builder().workers(2).build();
        // Empty stream: all partitions present, all empty.
        let ds = ctx.parallelize_batches(0, Vec::<Vec<i32>>::new(), 4);
        assert_eq!(ds.num_partitions(), 4);
        assert_eq!(ds.count(), 0);
        // Understated total: surplus lands in the last partition, nothing
        // is dropped.
        let ds = ctx.parallelize_batches(2, vec![vec![1, 2], vec![3, 4]], 2);
        assert_eq!(ds.num_partitions(), 2);
        assert_eq!(ds.collect().unwrap(), vec![1, 2, 3, 4]);
        // Short stream: trailing partitions stay empty.
        let ds = ctx.parallelize_batches(10, vec![vec![1, 2]], 5);
        assert_eq!(ds.num_partitions(), 5);
        assert_eq!(ds.count(), 2);
    }
}
