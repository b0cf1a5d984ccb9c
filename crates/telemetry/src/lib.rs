//! Structured tracing and run reporting for the DBSCOUT stack.
//!
//! The paper's evaluation (§V) is entirely about *where time goes* —
//! grid partitioning, cell classification, the core-point pass, and the
//! outlier pass across executors. This crate is the substrate those
//! measurements flow through:
//!
//! * a [`Recorder`] trait behind which producers (the dataflow executor,
//!   the detectors) emit [`Span`]s and counters. The default is **no
//!   recorder at all**: every producer holds an `Option<&dyn Recorder>`
//!   and the disabled path is a single branch — no allocation, no
//!   locking, no clock reads beyond what the engine already does;
//! * [`DurationHistogram`] — fixed-bucket (log-spaced) duration
//!   histograms for task-latency percentiles without unbounded memory;
//! * [`TraceCollector`] — a [`Recorder`] that buffers spans and renders
//!   them as a Chrome Trace Event Format JSON array loadable in
//!   `chrome://tracing` / [Perfetto](https://ui.perfetto.dev);
//! * [`RunReport`] — the machine-readable run report emitted by
//!   `dbscout detect --report-json`, with a deterministic field order so
//!   chaos-seeded tests can assert byte-identical structure
//!   (timestamp-bearing fields are isolated; see
//!   [`strip_timing_lines`]).
//!
//! The crate is dependency-free (std only) so every other crate in the
//! workspace can depend on it without widening the build.

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
        clippy::panic,
        clippy::float_cmp
    )
)]

pub mod counters;
pub mod histogram;
pub mod json;
pub mod report;
pub mod rss;
pub mod span;
pub mod trace;

pub use counters::{KernelCounters, KERNEL_COUNTER_NAMES};
pub use histogram::DurationHistogram;
pub use report::{
    strip_timing_lines, DatasetEcho, ParamsEcho, PhaseReport, RunReport, ServeReport, StageReport,
    TotalsReport, REPORT_SCHEMA_VERSION,
};
pub use rss::peak_rss_bytes;
pub use span::{ArgValue, Recorder, Span, SpanKind};
pub use trace::TraceCollector;
