//! DBSCOUT on the process-worker backend: sharded cell ranges over
//! shared-nothing worker processes.
//!
//! Closures cannot cross a process boundary, so this module trades the
//! in-process task closures of [`crate::native`] for serialized task
//! descriptors: the driver streams **pass 1** (per-cell counting) over
//! the `DBSC` binary input itself, derives the dense-cell flags and a
//! disjoint cell-range shard per task, and then runs two stages on the
//! pool ([`dbscout_dataflow::ProcessPool`]):
//!
//! 1. **core-point pass** — each worker rebuilds the full cell-major
//!    layout from the shared input file (the layout is a pure function
//!    of the file and ε, so every process derives byte-identical slot
//!    order), runs the phase-3 kernel over its own cell range, and
//!    returns core slots, promoted cells, and distance counts;
//! 2. **outlier pass** — the driver merges the global core-slot bitmap
//!    and promotions (phase 4), broadcasts both inside each task
//!    descriptor, and workers run the phase-5 kernel over their range,
//!    returning a label per point of that range.
//!
//! Both kernels are the *same functions* the threaded backend runs
//! ([`crate::native::core_points_in_range`] /
//! [`crate::native::outliers_in_range`]), and a cell's work is
//! independent of how cells are grouped into shards — so labels **and**
//! distance-computation totals are identical to the in-process backend
//! by construction, no matter how many workers die and how often their
//! shards are re-dispatched. The chaos suite pins this byte-for-byte.
//!
//! Workers cache the built layout keyed by `(path, ε, batch)` so the
//! two stages (and re-dispatched shards) rebuild it once per process,
//! not once per task.

use std::path::Path;
use std::time::Instant;

use dbscout_data::{BinarySource, PointSource};
use dbscout_dataflow::{serve_worker, ExecutionBackend, ExecutionContext, IpcError, TaskSpans};
use dbscout_spatial::{CellMajorBuilder, CellMajorStore, KernelKind, NeighborOffsets};
use dbscout_telemetry::{KernelCounters, SpanKind};

use crate::cellmap::CellFlags;
use crate::error::{DbscoutError, Result};
use crate::labels::{OutlierResult, PhaseTimings, PointLabel, RunStats};
use crate::native::NativeOptions;
use crate::native::{chunk_ranges, core_points_in_range, outliers_in_range, CellScratch};
use crate::params::DbscoutParams;

/// Version byte opening every task/result descriptor, so a driver and a
/// worker built from different revisions fail loudly instead of
/// misinterpreting each other's payloads (the same discipline as the
/// `DBSC` and `DBIP` framings).
///
/// History: v1 shipped a single distance-computation count per result;
/// v2 replaced it with the full four-counter kernel block
/// ([`KernelCounters`]); v3 added the distance-kernel byte
/// ([`KernelKind`]) to every shard spec.
const DESC_VERSION: u8 = 3;

/// Descriptor kinds.
const KIND_CORE_TASK: u8 = 1;
const KIND_OUTLIER_TASK: u8 = 2;

/// Shards per worker: mirrors the `threads * 4` chunking of the
/// threaded backend so stragglers and reassigned shards stay small.
const SHARDS_PER_WORKER: usize = 4;

/// How the input and parameters reach a worker, common to both stages.
#[derive(Debug, Clone, PartialEq)]
struct ShardSpec {
    path: String,
    batch_size: u64,
    eps: f64,
    min_pts: u64,
    dense_cell_shortcut: bool,
    early_exit: bool,
    kernel: KernelKind,
    /// The shard's half-open cell range.
    start: u64,
    end: u64,
}

/// Wire encoding of [`KernelKind`] — explicit so a reordered enum can
/// never silently change descriptors.
fn kernel_to_byte(kernel: KernelKind) -> u8 {
    match kernel {
        KernelKind::Scalar => 0,
        KernelKind::Unrolled => 1,
        KernelKind::Auto => 2,
    }
}

fn kernel_from_byte(byte: u8) -> std::result::Result<KernelKind, String> {
    match byte {
        0 => Ok(KernelKind::Scalar),
        1 => Ok(KernelKind::Unrolled),
        2 => Ok(KernelKind::Auto),
        other => Err(format!("unknown kernel byte {other}")),
    }
}

/// Bounds-checked little-endian decoder over a descriptor payload.
struct Dec<'a> {
    data: &'a [u8],
}

impl<'a> Dec<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data }
    }

    fn take(&mut self, n: usize) -> std::result::Result<&'a [u8], String> {
        let head = self
            .data
            .get(..n)
            .ok_or_else(|| "task descriptor truncated".to_owned())?;
        self.data = self.data.get(n..).unwrap_or(&[]);
        Ok(head)
    }

    fn u8(&mut self) -> std::result::Result<u8, String> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    fn u64_le(&mut self) -> std::result::Result<u64, String> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    fn f64_le(&mut self) -> std::result::Result<f64, String> {
        Ok(f64::from_bits(self.u64_le()?))
    }

    fn u32_vec(&mut self) -> std::result::Result<Vec<u32>, String> {
        let len = self.u64_le()? as usize;
        let bytes = self.take(len.checked_mul(4).ok_or("u32 list length overflow")?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| {
                let mut buf = [0u8; 4];
                buf.copy_from_slice(c);
                u32::from_le_bytes(buf)
            })
            .collect())
    }

    fn bytes(&mut self) -> std::result::Result<&'a [u8], String> {
        let len = self.u64_le()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> std::result::Result<String, String> {
        String::from_utf8(self.bytes()?.to_vec()).map_err(|_| "non-UTF-8 path".to_owned())
    }
}

fn put_u32_vec(out: &mut Vec<u8>, values: &[u32]) {
    out.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Serializes a kernel-counter block in canonical field order.
fn put_counters(out: &mut Vec<u8>, counters: &KernelCounters) {
    for (_, value) in counters.named() {
        out.extend_from_slice(&value.to_le_bytes());
    }
}

fn take_counters(dec: &mut Dec<'_>) -> std::result::Result<KernelCounters, String> {
    Ok(KernelCounters {
        cells_visited: dec.u64_le()?,
        bbox_prunes: dec.u64_le()?,
        early_exit_hits: dec.u64_le()?,
        distance_evals: dec.u64_le()?,
    })
}

/// Packs a bool slice into bytes, LSB-first within each byte.
fn pack_bits(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &bit) in bits.iter().enumerate() {
        if bit {
            if let Some(byte) = out.get_mut(i / 8) {
                *byte |= 1 << (i % 8);
            }
        }
    }
    out
}

/// Inverse of [`pack_bits`] for `n` bits.
fn unpack_bits(bytes: &[u8], n: usize) -> Vec<bool> {
    (0..n)
        .map(|i| {
            bytes
                .get(i / 8)
                .is_some_and(|byte| byte & (1 << (i % 8)) != 0)
        })
        .collect()
}

impl ShardSpec {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.eps.to_bits().to_le_bytes());
        out.extend_from_slice(&self.min_pts.to_le_bytes());
        out.push(u8::from(self.dense_cell_shortcut));
        out.push(u8::from(self.early_exit));
        out.push(kernel_to_byte(self.kernel));
        out.extend_from_slice(&self.batch_size.to_le_bytes());
        out.extend_from_slice(&self.start.to_le_bytes());
        out.extend_from_slice(&self.end.to_le_bytes());
        put_bytes(out, self.path.as_bytes());
    }

    fn decode(dec: &mut Dec<'_>) -> std::result::Result<Self, String> {
        let eps = dec.f64_le()?;
        let min_pts = dec.u64_le()?;
        let dense_cell_shortcut = dec.u8()? != 0;
        let early_exit = dec.u8()? != 0;
        let kernel = kernel_from_byte(dec.u8()?)?;
        let batch_size = dec.u64_le()?;
        let start = dec.u64_le()?;
        let end = dec.u64_le()?;
        let path = dec.string()?;
        Ok(Self {
            path,
            batch_size,
            eps,
            min_pts,
            dense_cell_shortcut,
            early_exit,
            kernel,
            start,
            end,
        })
    }

    fn options(&self) -> NativeOptions {
        NativeOptions {
            dense_cell_shortcut: self.dense_cell_shortcut,
            early_exit: self.early_exit,
        }
    }
}

fn encode_core_task(spec: &ShardSpec) -> Vec<u8> {
    let mut out = vec![DESC_VERSION, KIND_CORE_TASK];
    spec.encode_into(&mut out);
    out
}

fn encode_outlier_task(spec: &ShardSpec, promoted: &[u32], core_slots: &[bool]) -> Vec<u8> {
    let mut out = vec![DESC_VERSION, KIND_OUTLIER_TASK];
    spec.encode_into(&mut out);
    put_u32_vec(&mut out, promoted);
    out.extend_from_slice(&(core_slots.len() as u64).to_le_bytes());
    put_bytes(&mut out, &pack_bits(core_slots));
    out
}

/// Core-stage result: `(core_slots, promoted_cells, kernel_counters)`.
fn encode_core_result(core: &[u32], promoted: &[u32], counters: &KernelCounters) -> Vec<u8> {
    let mut out = Vec::new();
    put_counters(&mut out, counters);
    put_u32_vec(&mut out, core);
    put_u32_vec(&mut out, promoted);
    out
}

fn decode_core_result(
    data: &[u8],
) -> std::result::Result<(Vec<u32>, Vec<u32>, KernelCounters), String> {
    let mut dec = Dec::new(data);
    let counters = take_counters(&mut dec)?;
    let core = dec.u32_vec()?;
    let promoted = dec.u32_vec()?;
    Ok((core, promoted, counters))
}

/// Outlier-stage result: one `(orig_id, label)` pair per point of the
/// shard's cells, plus the kernel counters spent.
fn encode_outlier_result(pairs: &[(u32, u8)], counters: &KernelCounters) -> Vec<u8> {
    let mut out = Vec::new();
    put_counters(&mut out, counters);
    out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for &(id, label) in pairs {
        out.extend_from_slice(&id.to_le_bytes());
        out.push(label);
    }
    out
}

fn decode_outlier_result(
    data: &[u8],
) -> std::result::Result<(Vec<(u32, u8)>, KernelCounters), String> {
    let mut dec = Dec::new(data);
    let counters = take_counters(&mut dec)?;
    let len = dec.u64_le()? as usize;
    let bytes = dec.take(len.checked_mul(5).ok_or("pair list length overflow")?)?;
    let pairs = bytes
        .chunks_exact(5)
        .map(|c| {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(c.get(..4).unwrap_or(&[0; 4]));
            (u32::from_le_bytes(buf), c.get(4).copied().unwrap_or(0))
        })
        .collect();
    Ok((pairs, counters))
}

const LABEL_CORE: u8 = 0;
const LABEL_COVERED: u8 = 1;
const LABEL_OUTLIER: u8 = 2;

fn label_from_byte(byte: u8) -> PointLabel {
    match byte {
        LABEL_CORE => PointLabel::Core,
        LABEL_OUTLIER => PointLabel::Outlier,
        _ => PointLabel::Covered,
    }
}

/// Streams the `DBSC` file twice through the counting builder into the
/// finished cell-major layout — exactly the layout
/// [`crate::Dbscout::detect_source`] builds, because the layout is a
/// pure function of `(file, ε)`.
fn build_layout(
    path: &str,
    batch_size: usize,
    eps: f64,
) -> std::result::Result<(CellMajorStore, NeighborOffsets), String> {
    let err = |e: &dyn std::fmt::Display| format!("worker failed to read {path}: {e}");
    let mut source = BinarySource::open(path, batch_size).map_err(|e| err(&e))?;
    let dims = source
        .dims()
        .ok_or_else(|| format!("{path} declares no dimensionality"))?;
    let mut builder = CellMajorBuilder::new(dims, eps).map_err(|e| err(&e))?;
    while let Some(batch) = source.next_batch().map_err(|e| err(&e))? {
        builder.count_batch(batch.coords()).map_err(|e| err(&e))?;
    }
    source.reset().map_err(|e| err(&e))?;
    let mut scatter = builder.begin_scatter();
    while let Some(batch) = source.next_batch().map_err(|e| err(&e))? {
        scatter.scatter_batch(batch.coords()).map_err(|e| err(&e))?;
    }
    let cm = scatter.finish().map_err(|e| err(&e))?;
    let offsets = NeighborOffsets::new(cm.dims()).map_err(|e| err(&e))?;
    Ok((cm, offsets))
}

/// The worker-side layout cache: rebuilt only when the input file, ε,
/// or batch size changes — i.e. once per detection run per process.
struct CachedLayout {
    path: String,
    eps_bits: u64,
    batch_size: u64,
    cm: CellMajorStore,
    offsets: NeighborOffsets,
}

/// The worker-side task handler (decoding, layout cache, kernels).
/// Public so the CLI's hidden `worker` subcommand can serve it.
pub struct WorkerHandler {
    cache: Option<CachedLayout>,
}

impl Default for WorkerHandler {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerHandler {
    /// An empty handler (no layout cached yet).
    pub fn new() -> Self {
        Self { cache: None }
    }

    fn layout(
        &mut self,
        spec: &ShardSpec,
        spans: &mut TaskSpans,
    ) -> std::result::Result<&CachedLayout, String> {
        let stale = !self.cache.as_ref().is_some_and(|c| {
            c.path == spec.path
                && c.eps_bits == spec.eps.to_bits()
                && c.batch_size == spec.batch_size
        });
        if stale {
            let started = Instant::now();
            let (cm, offsets) = build_layout(&spec.path, spec.batch_size as usize, spec.eps)?;
            spans.record("layout build", SpanKind::Stage, started, started.elapsed());
            self.cache = Some(CachedLayout {
                path: spec.path.clone(),
                eps_bits: spec.eps.to_bits(),
                batch_size: spec.batch_size,
                cm,
                offsets,
            });
        }
        self.cache
            .as_ref()
            .ok_or_else(|| "layout cache unexpectedly empty".to_owned())
    }

    /// Decodes and executes one task payload, returning the encoded
    /// result. Worker-local spans (layout builds, kernel time) are
    /// recorded into `spans` for the driver to merge into its trace.
    /// Errors are retryable at the driver.
    pub fn handle(
        &mut self,
        payload: &[u8],
        spans: &mut TaskSpans,
    ) -> std::result::Result<Vec<u8>, String> {
        let mut dec = Dec::new(payload);
        let version = dec.u8()?;
        if version != DESC_VERSION {
            return Err(format!(
                "unsupported task descriptor version {version} (worker speaks {DESC_VERSION})"
            ));
        }
        let kind = dec.u8()?;
        let spec = ShardSpec::decode(&mut dec)?;
        match kind {
            KIND_CORE_TASK => self.run_core_shard(&spec, spans),
            KIND_OUTLIER_TASK => {
                let promoted = dec.u32_vec()?;
                let n = dec.u64_le()? as usize;
                let bitmap = dec.bytes()?;
                let core_slots = unpack_bits(bitmap, n);
                self.run_outlier_shard(&spec, &promoted, &core_slots, spans)
            }
            other => Err(format!("unknown task descriptor kind {other}")),
        }
    }

    fn run_core_shard(
        &mut self,
        spec: &ShardSpec,
        spans: &mut TaskSpans,
    ) -> std::result::Result<Vec<u8>, String> {
        let min_pts = spec.min_pts as usize;
        let eps_sq = spec.eps * spec.eps;
        let options = spec.options();
        let range = spec.start as usize..spec.end as usize;
        let layout = self.layout(spec, spans)?;
        let flags = CellFlags::from_counts(layout.cm.cells().iter().map(|r| r.len()), min_pts)
            .map_err(|e| e.to_string())?;
        let started = Instant::now();
        let (core, promoted, counters) = core_points_in_range(
            &layout.cm,
            &flags,
            &layout.offsets,
            eps_sq,
            min_pts,
            options,
            spec.kernel,
            range,
            &mut CellScratch::new(),
        )
        .map_err(|e| e.to_string())?;
        spans.record(
            "core shard kernel",
            SpanKind::Task,
            started,
            started.elapsed(),
        );
        Ok(encode_core_result(&core, &promoted, &counters))
    }

    fn run_outlier_shard(
        &mut self,
        spec: &ShardSpec,
        promoted: &[u32],
        core_slots: &[bool],
        spans: &mut TaskSpans,
    ) -> std::result::Result<Vec<u8>, String> {
        let min_pts = spec.min_pts as usize;
        let eps_sq = spec.eps * spec.eps;
        let options = spec.options();
        let range = spec.start as usize..spec.end as usize;
        let layout = self.layout(spec, spans)?;
        let mut flags = CellFlags::from_counts(layout.cm.cells().iter().map(|r| r.len()), min_pts)
            .map_err(|e| e.to_string())?;
        for &idx in promoted {
            flags.promote_to_core(idx as usize);
        }
        let started = Instant::now();
        let (outlier_slots, counters) = outliers_in_range(
            &layout.cm,
            &flags,
            &layout.offsets,
            eps_sq,
            options,
            spec.kernel,
            core_slots,
            range.clone(),
            &mut CellScratch::new(),
        )
        .map_err(|e| e.to_string())?;
        spans.record(
            "outlier shard kernel",
            SpanKind::Task,
            started,
            started.elapsed(),
        );
        // Label every point of the shard's cells: core from the global
        // bitmap, outliers from the kernel, covered otherwise — keyed
        // back to original ids through the layout's permutation.
        let cells = layout.cm.cells().get(range).unwrap_or(&[]);
        let ids = layout.cm.orig_ids();
        let base = cells.first().map(|r| r.start as usize).unwrap_or(0);
        let span = cells.last().map(|r| r.end as usize - base).unwrap_or(0);
        let mut local = vec![LABEL_COVERED; span];
        for rec in cells {
            for slot in rec.range() {
                if core_slots.get(slot).copied().unwrap_or(false) {
                    if let Some(l) = local.get_mut(slot - base) {
                        *l = LABEL_CORE;
                    }
                }
            }
        }
        for slot in outlier_slots {
            if let Some(l) = local.get_mut(slot as usize - base) {
                *l = LABEL_OUTLIER;
            }
        }
        let pairs: Vec<(u32, u8)> = local
            .iter()
            .enumerate()
            .filter_map(|(off, &label)| ids.get(base + off).map(|&id| (id, label)))
            .collect();
        Ok(encode_outlier_result(&pairs, &counters))
    }
}

/// Serves this process as a worker over stdin/stdout until the driver
/// hangs up. `rss_probe` supplies the process's peak RSS (`VmHWM`) and
/// `cpu_probe` its cumulative CPU time for heartbeats; pass `|| 0`
/// where unavailable.
pub fn run_worker(
    rss_probe: fn() -> u64,
    cpu_probe: fn() -> u64,
) -> std::result::Result<(), IpcError> {
    let mut handler = WorkerHandler::new();
    serve_worker(
        move |payload, spans| handler.handle(payload, spans),
        rss_probe,
        cpu_probe,
    )
}

fn internal(message: String) -> DbscoutError {
    DbscoutError::Execution(dbscout_dataflow::EngineError::Internal { message })
}

/// Detects all outliers of the `DBSC` binary file at `path` on the
/// process-worker backend of `ctx`, exactly — labels and distance
/// counts are byte-identical to [`crate::Dbscout::detect_source`] over
/// the same file (see the module docs for why).
///
/// The driver itself only ever streams pass-1 counts (it never holds
/// the points); workers rebuild the full layout from the shared file.
///
/// # Errors
///
/// Anything the in-process detector reports, plus
/// [`dbscout_dataflow::EngineError::WorkerLost`] when worker processes
/// die faster than the context's respawn budget replaces them.
pub fn detect_with_process_workers(
    ctx: &ExecutionContext,
    path: &Path,
    batch_size: usize,
    params: DbscoutParams,
    options: NativeOptions,
    kernel: KernelKind,
) -> Result<OutlierResult> {
    let ExecutionBackend::Process { workers } = *ctx.backend() else {
        return Err(internal(
            "detect_with_process_workers needs a process-backend context".to_owned(),
        ));
    };
    let path_str = path.to_str().ok_or_else(|| {
        internal(format!(
            "non-UTF-8 input path {path:?} cannot cross the worker boundary"
        ))
    })?;
    let mut timings = PhaseTimings::default();

    // Phase 1 (driver side): stream the file once through the counting
    // builder — cell table and shard ranges, but no points.
    let t = Instant::now();
    let mut source = BinarySource::open(path, batch_size)?;
    let dims = source
        .dims()
        .ok_or_else(|| internal(format!("{path_str} declares no dimensionality")))?;
    let mut builder = CellMajorBuilder::new(dims, params.eps)?;
    let mut n = 0usize;
    while let Some(batch) = source.next_batch()? {
        n += batch.len();
        builder.count_batch(batch.coords())?;
    }
    drop(source);
    let num_cells = builder.num_cells();
    let counts = builder.cell_counts_sorted();
    timings.grid = t.elapsed();
    if n == 0 {
        return Ok(OutlierResult::from_labels(
            Vec::new(),
            RunStats::default(),
            timings,
        ));
    }

    // Phase 2: dense cell map from the sorted counts — the same cell
    // order the workers' scattered layouts use.
    let t = Instant::now();
    let mut flags = CellFlags::from_counts(counts.iter().map(|&c| c as usize), params.min_pts)?;
    timings.dense_map = t.elapsed();

    let shards = chunk_ranges(num_cells, workers * SHARDS_PER_WORKER);
    let spec_for = |range: &std::ops::Range<usize>| ShardSpec {
        path: path_str.to_owned(),
        batch_size: batch_size as u64,
        eps: params.eps,
        min_pts: params.min_pts as u64,
        dense_cell_shortcut: options.dense_cell_shortcut,
        early_exit: options.early_exit,
        kernel,
        start: range.start as u64,
        end: range.end as u64,
    };

    // Phase 3: core points, one shard per disjoint cell range.
    let t = Instant::now();
    ctx.set_stage("core-point pass");
    let tasks: Vec<Vec<u8>> = shards
        .iter()
        .map(|r| encode_core_task(&spec_for(r)))
        .collect();
    let round = ctx.run_process_stage("shard", tasks);
    ctx.clear_stage();
    let mut core_slots = vec![false; n];
    let mut promotions: Vec<u32> = Vec::new();
    let mut kernel = KernelCounters::new();
    let mut stage_kernel = KernelCounters::new();
    for blob in round? {
        let (core, promoted, kc) = decode_core_result(&blob).map_err(internal)?;
        for slot in core {
            if let Some(s) = core_slots.get_mut(slot as usize) {
                *s = true;
            }
        }
        promotions.extend(promoted);
        stage_kernel.merge(&kc);
    }
    ctx.metrics().attach_kernel_counters(stage_kernel);
    kernel.merge(&stage_kernel);
    timings.core_points = t.elapsed();

    // Phase 4 (driver side): promote cells that gained a core point.
    let t = Instant::now();
    for &idx in &promotions {
        flags.promote_to_core(idx as usize);
    }
    timings.core_map = t.elapsed();

    // Phase 5: outliers; the bitmap and promotions ride inside every
    // task descriptor (the process backend's broadcast).
    let t = Instant::now();
    ctx.set_stage("outlier pass");
    let tasks: Vec<Vec<u8>> = shards
        .iter()
        .map(|r| encode_outlier_task(&spec_for(r), &promotions, &core_slots))
        .collect();
    let round = ctx.run_process_stage("shard", tasks);
    ctx.clear_stage();
    let mut labels = vec![PointLabel::Covered; n];
    let mut stage_kernel = KernelCounters::new();
    for blob in round? {
        let (pairs, kc) = decode_outlier_result(&blob).map_err(internal)?;
        for (id, label) in pairs {
            if let Some(l) = labels.get_mut(id as usize) {
                *l = label_from_byte(label);
            }
        }
        stage_kernel.merge(&kc);
    }
    ctx.metrics().attach_kernel_counters(stage_kernel);
    kernel.merge(&stage_kernel);
    timings.outliers = t.elapsed();

    let stats = RunStats {
        num_cells,
        dense_cells: flags.dense_cells(),
        core_cells: flags.core_cells(),
        distance_computations: kernel.distance_evals,
        kernel,
    };
    Ok(OutlierResult::from_labels(labels, stats, timings))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_packing_round_trips() {
        for n in [0usize, 1, 7, 8, 9, 64, 65] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let packed = pack_bits(&bits);
            assert_eq!(packed.len(), n.div_ceil(8));
            assert_eq!(unpack_bits(&packed, n), bits);
        }
    }

    #[test]
    fn kernel_bytes_round_trip() {
        for k in [KernelKind::Scalar, KernelKind::Unrolled, KernelKind::Auto] {
            assert_eq!(kernel_from_byte(kernel_to_byte(k)).unwrap(), k);
        }
        assert!(kernel_from_byte(9).is_err());
    }

    #[test]
    fn core_task_descriptor_round_trips() {
        let spec = ShardSpec {
            path: "/tmp/data.dbsc".to_owned(),
            batch_size: 8192,
            eps: 1.25,
            min_pts: 7,
            dense_cell_shortcut: true,
            early_exit: false,
            kernel: KernelKind::Unrolled,
            start: 10,
            end: 42,
        };
        let encoded = encode_core_task(&spec);
        let mut dec = Dec::new(&encoded);
        assert_eq!(dec.u8().unwrap(), DESC_VERSION);
        assert_eq!(dec.u8().unwrap(), KIND_CORE_TASK);
        assert_eq!(ShardSpec::decode(&mut dec).unwrap(), spec);
    }

    #[test]
    fn outlier_task_descriptor_round_trips() {
        let spec = ShardSpec {
            path: "x.dbsc".to_owned(),
            batch_size: 4,
            eps: 0.5,
            min_pts: 3,
            dense_cell_shortcut: false,
            early_exit: true,
            kernel: KernelKind::Scalar,
            start: 0,
            end: 5,
        };
        let promoted = vec![1u32, 4, 9];
        let bits = vec![true, false, true, true, false, false, true];
        let encoded = encode_outlier_task(&spec, &promoted, &bits);
        let mut dec = Dec::new(&encoded);
        assert_eq!(dec.u8().unwrap(), DESC_VERSION);
        assert_eq!(dec.u8().unwrap(), KIND_OUTLIER_TASK);
        assert_eq!(ShardSpec::decode(&mut dec).unwrap(), spec);
        assert_eq!(dec.u32_vec().unwrap(), promoted);
        let n = dec.u64_le().unwrap() as usize;
        assert_eq!(n, bits.len());
        let bitmap = dec.bytes().unwrap();
        assert_eq!(unpack_bits(bitmap, n), bits);
    }

    #[test]
    fn result_codecs_round_trip() {
        let counters = KernelCounters {
            cells_visited: 12,
            bbox_prunes: 3,
            early_exit_hits: 4,
            distance_evals: 555,
        };
        let encoded = encode_core_result(&[3, 9, 200], &[1, 7], &counters);
        assert_eq!(
            decode_core_result(&encoded).unwrap(),
            (vec![3, 9, 200], vec![1, 7], counters)
        );
        let pairs = vec![(0u32, LABEL_CORE), (5, LABEL_OUTLIER), (9, LABEL_COVERED)];
        let counters = KernelCounters {
            distance_evals: 77,
            ..KernelCounters::new()
        };
        let encoded = encode_outlier_result(&pairs, &counters);
        assert_eq!(decode_outlier_result(&encoded).unwrap(), (pairs, counters));
    }

    #[test]
    fn truncated_descriptors_error_not_panic() {
        let spec = ShardSpec {
            path: "p".to_owned(),
            batch_size: 1,
            eps: 1.0,
            min_pts: 1,
            dense_cell_shortcut: true,
            early_exit: true,
            kernel: KernelKind::Auto,
            start: 0,
            end: 1,
        };
        let encoded = encode_core_task(&spec);
        for cut in [0, 1, 2, 10, encoded.len() - 1] {
            let mut dec = Dec::new(encoded.get(..cut).unwrap_or(&[]));
            let _ = dec.u8().and_then(|_| dec.u8());
            assert!(
                ShardSpec::decode(&mut dec).is_err() || cut == encoded.len() - 1,
                "cut {cut} should fail or hit the path-length guard"
            );
        }
    }

    #[test]
    fn handler_rejects_version_skew_and_unknown_kinds() {
        let mut handler = WorkerHandler::new();
        let mut spans = TaskSpans::new(0);
        let err = handler
            .handle(&[DESC_VERSION + 1, KIND_CORE_TASK], &mut spans)
            .unwrap_err();
        assert!(err.contains("version"), "{err}");
        let mut bogus = vec![DESC_VERSION, 99];
        ShardSpec {
            path: "p".to_owned(),
            batch_size: 1,
            eps: 1.0,
            min_pts: 1,
            dense_cell_shortcut: true,
            early_exit: true,
            kernel: KernelKind::Auto,
            start: 0,
            end: 0,
        }
        .encode_into(&mut bogus);
        let err = handler.handle(&bogus, &mut spans).unwrap_err();
        assert!(err.contains("unknown task descriptor kind 99"), "{err}");
    }

    #[test]
    fn label_bytes_map_to_labels() {
        assert_eq!(label_from_byte(LABEL_CORE), PointLabel::Core);
        assert_eq!(label_from_byte(LABEL_COVERED), PointLabel::Covered);
        assert_eq!(label_from_byte(LABEL_OUTLIER), PointLabel::Outlier);
        assert_eq!(label_from_byte(200), PointLabel::Covered);
    }

    /// The worker handler runs end to end inside this process: encode a
    /// file, shard it, execute both stages through `handle`, and check
    /// the merged labels equal the in-process detector's.
    #[test]
    fn handler_stages_reproduce_the_native_labels() {
        use dbscout_spatial::PointStore;

        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..40 {
            rows.push(vec![
                (i % 8) as f64 * 0.4 + ((i as f64) * 0.618).fract() * 0.1,
                (i / 8) as f64 * 0.4,
            ]);
        }
        rows.push(vec![25.0, 25.0]);
        rows.push(vec![-13.0, 2.0]);
        let store = PointStore::from_rows(2, rows).unwrap();
        let params = DbscoutParams::new(1.0, 6).unwrap();
        let expected = crate::native::Dbscout::new(params).detect(&store).unwrap();

        let dir = std::env::temp_dir().join(format!("dbscout-process-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("points.dbsc");
        dbscout_data::io::write_binary(&path, &store).unwrap();

        // Driver side, in miniature: pass-1 counts and shard ranges.
        let mut source = BinarySource::open(&path, 7).unwrap();
        let mut builder = CellMajorBuilder::new(2, params.eps).unwrap();
        let mut n = 0usize;
        while let Some(batch) = source.next_batch().unwrap() {
            n += batch.len();
            builder.count_batch(batch.coords()).unwrap();
        }
        let num_cells = builder.num_cells();
        let mut flags = CellFlags::from_counts(
            builder.cell_counts_sorted().iter().map(|&c| c as usize),
            params.min_pts,
        )
        .unwrap();

        let mut handler = WorkerHandler::new();
        let shards = chunk_ranges(num_cells, 3);
        let spec_for = |r: &std::ops::Range<usize>| ShardSpec {
            path: path.to_str().unwrap().to_owned(),
            batch_size: 7,
            eps: params.eps,
            min_pts: params.min_pts as u64,
            dense_cell_shortcut: true,
            early_exit: true,
            kernel: KernelKind::Unrolled,
            start: r.start as u64,
            end: r.end as u64,
        };
        let mut core_slots = vec![false; n];
        let mut promotions: Vec<u32> = Vec::new();
        let mut kernel = KernelCounters::new();
        let mut spans = TaskSpans::new(1);
        for r in &shards {
            let blob = handler
                .handle(&encode_core_task(&spec_for(r)), &mut spans)
                .unwrap();
            let (core, promoted, kc) = decode_core_result(&blob).unwrap();
            for slot in core {
                core_slots[slot as usize] = true;
            }
            promotions.extend(promoted);
            kernel.merge(&kc);
        }
        // The first core task rebuilt the layout, so the sink holds at
        // least the "layout build" span plus one kernel span per shard.
        assert!(spans.len() > shards.len(), "worker spans were not recorded");
        for &idx in &promotions {
            flags.promote_to_core(idx as usize);
        }
        let mut labels = vec![PointLabel::Covered; n];
        for r in &shards {
            let blob = handler
                .handle(
                    &encode_outlier_task(&spec_for(r), &promotions, &core_slots),
                    &mut spans,
                )
                .unwrap();
            let (pairs, kc) = decode_outlier_result(&blob).unwrap();
            for (id, label) in pairs {
                labels[id as usize] = label_from_byte(label);
            }
            kernel.merge(&kc);
        }

        assert_eq!(labels, expected.labels);
        assert_eq!(kernel, expected.stats.kernel);
        assert_eq!(kernel.distance_evals, expected.stats.distance_computations);
        assert_eq!(flags.dense_cells(), expected.stats.dense_cells);
        assert_eq!(flags.core_cells(), expected.stats.core_cells);
        assert_eq!(num_cells, expected.stats.num_cells);

        std::fs::remove_dir_all(&dir).ok();
    }
}
