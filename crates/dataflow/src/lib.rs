//! A Spark-like, partition-isolated dataflow engine.
//!
//! DBSCOUT (Corain, Garza, Asudeh — ICDE 2021) is specified as a sequence of
//! Spark transformations (`MAP`, `FLATMAP`, `FILTER`, `REDUCEBYKEY`,
//! `GROUPBYKEY`, `JOIN`, `UNION`, `BROADCAST`, `FOREACH`) executed by
//! independent executors. This crate is the substrate that stands in for
//! Apache Spark in this reproduction: a multi-threaded engine in which
//!
//! * a [`Dataset<T>`] is a list of *partitions* (`Vec<T>` each);
//! * every transformation runs one task per partition on a worker pool;
//! * a task can only observe **its own partition** plus read-only
//!   [`Broadcast`] variables — the same isolation contract as a Spark
//!   executor, so algorithms keep the same data-movement structure
//!   (shuffles for `reduceByKey`/`join`, broadcast for small maps);
//! * key-based operations repartition data with a **deterministic** hash
//!   (SipHash-1-3 with fixed keys), so runs are reproducible across
//!   processes.
//!
//! Unlike Spark the engine is *eager*: each transformation materialises its
//! output partitions immediately. Laziness is an optimisation for
//! pipelining on real clusters; it does not change what data moves where,
//! which is what the DBSCOUT experiments measure. Fault tolerance, on the
//! other hand, is provided directly at the task level: a failed or
//! panicked partition task is re-queued up to the context's
//! `max_task_retries` budget, straggler tasks can be duplicated
//! speculatively ([`SpeculationConfig`]), and a seeded [`FaultPlan`]
//! injects deterministic faults for chaos tests.
//!
//! # Example
//!
//! ```
//! use dbscout_dataflow::ExecutionContext;
//!
//! let ctx = ExecutionContext::builder().workers(4).build();
//! let data = ctx.parallelize((0u64..1000).collect::<Vec<_>>(), 8);
//! let sum_of_squares = data
//!     .map(|x| (x % 10, x * x))
//!     .unwrap()
//!     .reduce_by_key(|a, b| a + b)
//!     .unwrap()
//!     .collect()
//!     .unwrap();
//! assert_eq!(sum_of_squares.len(), 10);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Unit tests may panic freely; library code is held to the panic-freedom
// gates in `[workspace.lints]` and `cargo xtask lint`.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic
    )
)]

pub mod broadcast;
pub mod context;
pub mod dataset;
pub mod error;
pub mod executor;
pub mod fault;
pub mod metrics;
pub mod ops;
pub mod pair;
pub mod shuffle;

pub use broadcast::Broadcast;
pub use context::{ContextConfig, ExecutionContext, ExecutionContextBuilder};
pub use dataset::Dataset;
pub use error::{EngineError, Result};
pub use executor::{run_fed_workers, Feeder, SpeculationConfig, StageOptions};
pub use fault::{FaultKind, FaultPlan, FaultPlanBuilder};
pub use metrics::{EngineMetrics, MetricsSnapshot, StageRecord};
