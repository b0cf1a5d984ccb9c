//! The native multi-threaded DBSCOUT implementation.
//!
//! Runs the paper's five phases (§III-A) inside one process, parallelised
//! over cells with the same dynamic task scheduling the dataflow substrate
//! uses. This is the implementation a library user should reach for; the
//! [`crate::distributed`] module is the literal Spark-style formulation
//! used for the scalability experiments.
//!
//! Both implementations produce identical results (a property test
//! enforces it); both implement the exact semantics of Definitions 2–3:
//!
//! 1. **Grid partitioning** — assign every point to its ε-cell.
//! 2. **Dense cell map** — mark cells with ≥ `minPts` points; their points
//!    are core without any distance computation (Lemma 1).
//! 3. **Core points** — for points of non-dense cells, count neighbors in
//!    the ≤ k_d neighboring cells, stopping early at `minPts`.
//! 4. **Core cell map** — mark cells that contain a core point.
//! 5. **Outliers** — points of non-core cells are outliers unless within ε
//!    of a core point in a neighboring core cell; cells with no core
//!    neighbor are all outliers outright.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dbscout_data::{PointBatch, PointSource};
use dbscout_dataflow::executor::{run_fed_workers, run_tasks, run_tasks_with};
use dbscout_spatial::points::PointId;
use dbscout_spatial::{
    CellMajorBuilder, CellMajorStore, NeighborOffsets, PointStore, SpatialError, MAX_DIMS,
};
use dbscout_telemetry::KernelCounters;

use crate::cellmap::CellFlags;
use crate::error::Result;
use crate::labels::{OutlierResult, PhaseTimings, PointLabel, RunStats};
use crate::params::DbscoutParams;

/// The DBSCOUT detector.
///
/// ```
/// use dbscout_core::{Dbscout, DbscoutParams};
/// use dbscout_spatial::PointStore;
///
/// // A tight cluster of 6 points plus one far-away point.
/// let mut rows: Vec<Vec<f64>> = (0..6)
///     .map(|i| vec![(i as f64) * 0.1, 0.0])
///     .collect();
/// rows.push(vec![100.0, 100.0]);
/// let store = PointStore::from_rows(2, rows).unwrap();
///
/// let params = DbscoutParams::new(1.0, 5).unwrap();
/// let result = Dbscout::new(params).detect(&store).unwrap();
/// assert_eq!(result.outliers, vec![6]);
/// ```
#[derive(Debug, Clone)]
pub struct Dbscout {
    params: DbscoutParams,
    threads: usize,
    options: NativeOptions,
}

/// The physical layout the engines run on. There is one: batch detection
/// and warm serving both scan the cell-contiguous columnar
/// [`CellMajorStore`] (or its mutable companion), where neighbor cells
/// are resolved once per cell, per-cell bounding boxes prune unreachable
/// cells, and the counted kernels stream contiguous columns. The type
/// remains only as the `layout` argument of
/// [`crate::IncrementalDbscout::from_store_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionLayout {
    /// The cell-major layout.
    #[default]
    CellMajor,
}

/// The distance kernel the engines run. There is one: the lane-unrolled
/// loops of [`CellMajorStore::count_within`] and its siblings. Like
/// [`ExecutionLayout`], the type remains only as an argument of
/// [`crate::IncrementalDbscout::from_store_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// The one kernel.
    #[default]
    Auto,
}

/// Ablation switches for the native engine. Both default to `true`
/// (the paper's algorithm); disabling them never changes the result —
/// only the amount of distance work — which the ablation benchmarks
/// measure and a test asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NativeOptions {
    /// Lemma 1: skip the neighborhood count for points of dense cells.
    pub dense_cell_shortcut: bool,
    /// §III-G: stop counting at `minPts` / stop at the first covering
    /// core point.
    pub early_exit: bool,
}

impl Default for NativeOptions {
    fn default() -> Self {
        Self {
            dense_cell_shortcut: true,
            early_exit: true,
        }
    }
}

impl Dbscout {
    /// A detector with the given parameters, using all available CPUs.
    pub fn new(params: DbscoutParams) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            params,
            threads,
            options: NativeOptions::default(),
        }
    }

    /// Overrides the number of worker threads (≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the ablation switches (results are unaffected; only the
    /// work changes).
    pub fn with_options(mut self, options: NativeOptions) -> Self {
        self.options = options;
        self
    }

    /// The configured parameters.
    pub fn params(&self) -> DbscoutParams {
        self.params
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Detects all outliers of `store` (Definition 3), exactly.
    ///
    /// Runs in O(n · minPts · k_d) distance computations — linear in n for
    /// fixed parameters (Lemmas 4–8). Points live in one cell-contiguous
    /// columnar buffer ([`CellMajorStore`]), neighbor cells are resolved
    /// once per *cell* into per-worker scratch, bounding boxes prune
    /// cells provably outside ε, and the counted kernels stream
    /// contiguous columns with early exit.
    ///
    /// Phase 1 builds that buffer with the same two-pass routine as
    /// [`Self::detect_source`], reading the store as one row chunk per
    /// thread.
    pub fn detect(&self, store: &PointStore) -> Result<OutlierResult> {
        let min_pts = self.params.min_pts();
        let chunks = chunk_ranges(store.len() as usize, self.threads);
        let mut input = StoreChunks {
            store,
            chunks,
            next: 0,
        };
        let state = self.run(&mut input, Some(min_pts))?;
        Ok(outlier_result(state, min_pts))
    }

    /// Detects all outliers of a streaming [`PointSource`], exactly, with
    /// peak memory bounded by the finished cell-major layout plus a few
    /// batches per thread in flight (and, during the counting pass, one
    /// per-cell tally per thread) — never the raw input file.
    ///
    /// The grid is built in two passes over the source: pass 1 counts
    /// points per ε-cell, the source is [`PointSource::reset`], and pass
    /// 2 places the replayed batches straight into the cell-contiguous
    /// columns; then the shared phases 2–5 run. The calling thread reads
    /// the source batch by batch and feeds `threads` workers that live
    /// for the whole pass: in pass 1 each batch goes to one lane, which
    /// records each point's cell; in pass 2 every batch is shared with
    /// every shard of the layout, and each shard checks and places the
    /// points of its own cells. Each point's cell is computed once per
    /// pass. Peak memory also holds the recorded cells, 4 bytes a point,
    /// until pass 2 finishes. The result is identical to materializing
    /// the source and calling [`Self::detect`] at any thread count — the
    /// equivalence suite pins labels *and* stats — and so is a failure:
    /// the error reported is the one a sequential pass meets first.
    pub fn detect_source(&self, source: &mut dyn PointSource) -> Result<OutlierResult> {
        let min_pts = self.params.min_pts();
        let state = self.run_source(source, Some(min_pts))?;
        Ok(outlier_result(state, min_pts))
    }

    /// Phases 1–5 over `source`, counting up to `cap`; `None` for a
    /// source with no batches and no declared dimensionality.
    pub(crate) fn run_source(
        &self,
        source: &mut dyn PointSource,
        cap: Option<usize>,
    ) -> Result<Option<PhaseState>> {
        self.run(
            &mut SourceBatches {
                dims: source.dims(),
                source,
            },
            cap,
        )
    }

    /// Phase 1 over `input`, then phases 2–5.
    fn run(&self, input: &mut impl GridInput, cap: Option<usize>) -> Result<Option<PhaseState>> {
        let t = Instant::now();
        let mut timings = PhaseTimings::default();
        let Some(cm) = self.build_grid(input, &mut timings)? else {
            return Ok(None);
        };
        let offsets = NeighborOffsets::new(cm.dims())?;
        timings.grid = t.elapsed();
        self.run_cell_major_phases(cm, offsets, cap, timings)
            .map(Some)
    }

    /// Phase 1, grid partitioning (Algorithm 1), fused with the
    /// cell-major permutation: a two-pass counting sort by cell over
    /// `input`. The calling thread reads each pass batch by batch, in
    /// stream order, and feeds at most `threads` workers that live for
    /// the whole pass ([`run_fed_workers`]). Each pass computes every
    /// point's cell once, and only pass 1 hashes it.
    ///
    /// * Pass 1: batch `i` goes to lane `i mod threads`, a
    ///   [`CellMajorBuilder`] that interns each point's cell in its
    ///   compact cell table and records the lane-local cell number under
    ///   the point's arrival id. The lanes merge once at the end, each
    ///   lane's cells interned in the tally once and its recorded cells
    ///   renumbered. Cell counts are sums, so the split cannot change
    ///   the totals.
    /// * [`CellMajorBuilder::begin_scatter`] sorts the cell table,
    ///   renumbers the recorded cells into their sorted ranks and lays
    ///   out the records.
    /// * Pass 2: [`CellMajorScatter::shards`] carves the layout once into
    ///   `threads` shards of disjoint cell ranges. Every batch is shared
    ///   with every shard, and each shard checks and writes only the
    ///   points whose recorded cell it owns: the point must be finite, in
    ///   range and inside that cell ([`SpatialError::StreamMismatch`]
    ///   otherwise), with no hash lookup.
    ///   [`CellMajorScatter::finish_sharded`] then checks that every cell
    ///   got all its points.
    ///
    /// A point's slot is a pure function of `(cell, arrival id)`, so the
    /// layout is byte-identical to [`CellMajorStore::build`] for any
    /// thread count and batching. A failure is too: workers report the
    /// arrival id they failed at, a read error stops the feed only after
    /// the batches before it, and the error reported is the one a
    /// sequential pass meets first. The steps' times go into `timings`.
    /// Returns `None` for an input that has no batches and never
    /// declared a dimensionality.
    ///
    /// [`CellMajorScatter::shards`]: dbscout_spatial::CellMajorScatter::shards
    /// [`CellMajorScatter::finish_sharded`]: dbscout_spatial::CellMajorScatter::finish_sharded
    fn build_grid<I: GridInput>(
        &self,
        input: &mut I,
        timings: &mut PhaseTimings,
    ) -> Result<Option<CellMajorStore>> {
        let threads = self.threads.max(1);
        let eps = self.params.eps();
        let t = Instant::now();
        let mut batch = input.next_batch()?;
        let Some(dims) = input.dims() else {
            return Ok(None);
        };

        // Pass 1: `tally` is lane 0; the other lanes fold into it once.
        let mut tally = CellMajorBuilder::new(dims, eps)?;
        let mut lanes = (1..threads)
            .map(|_| CellMajorBuilder::new(dims, eps))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let workers: Vec<_> = std::iter::once(&mut tally)
            .chain(&mut lanes)
            .map(|lane| {
                move |(first, batch): (usize, I::Batch)| {
                    lane.count_batch_at(first, batch.as_ref())
                        .map_err(|e| (first, e))
                }
            })
            .collect();
        let (fed, tallied) = run_fed_workers(workers, |feeder| -> Result<()> {
            let (mut lane, mut next_id) = (0, 0);
            while let Some(b) = batch.take() {
                let first = next_id;
                next_id += b.as_ref().len() / dims;
                if !feeder.send(lane, (first, b)) {
                    return Ok(());
                }
                lane = (lane + 1) % feeder.workers();
                batch = input.next_batch()?;
            }
            Ok(())
        });
        first_failure(fed, tallied)?;
        for lane in lanes {
            tally.merge(lane)?;
        }
        timings.grid_count = t.elapsed();

        let t = Instant::now();
        let mut scatter = tally.begin_scatter();
        timings.grid_plan = t.elapsed();

        // Pass 2: one shard per worker, each handed every batch.
        let t = Instant::now();
        input.rewind()?;
        let counted = scatter.len();
        let workers: Vec<_> = scatter
            .shards(threads)
            .into_iter()
            .map(|mut shard| {
                move |(first, batch): (usize, Arc<I::Batch>)| shard.place(first, (*batch).as_ref())
            })
            .collect();
        let (fed, placed) = run_fed_workers(workers, |feeder| -> Result<()> {
            let mut next_id = 0;
            while let Some(b) = input.next_batch()? {
                let len = b.as_ref().len();
                if !len.is_multiple_of(dims) {
                    return Err(SpatialError::DimensionMismatch {
                        expected: dims,
                        got: len % dims,
                    }
                    .into());
                }
                let first = next_id;
                next_id += len / dims;
                let b = Arc::new(b);
                for shard in 0..feeder.workers() {
                    if !feeder.send(shard, (first, Arc::clone(&b))) {
                        return Ok(());
                    }
                }
                if next_id > counted {
                    // Past the counted stream: the shards check the
                    // batch's points before `counted` first.
                    return Err(SpatialError::StreamMismatch.into());
                }
            }
            Ok(())
        });
        first_failure(fed, placed)?;
        let cm = scatter.finish_sharded()?;
        timings.grid_place = t.elapsed();
        Ok(Some(cm))
    }

    /// Phases 2–5 over a built cell-major layout — shared verbatim by
    /// every entry point, batch and warm, which is what makes their
    /// equivalence structural rather than coincidental. Phase 3 counts
    /// each slot's ε-neighbors up to `cap` (`None`: no cap).
    fn run_cell_major_phases(
        &self,
        cm: CellMajorStore,
        offsets: NeighborOffsets,
        cap: Option<usize>,
        mut timings: PhaseTimings,
    ) -> Result<PhaseState> {
        let eps_sq = self.params.eps_sq();
        let min_pts = self.params.min_pts();
        let cap = cap.unwrap_or(usize::MAX);
        let options = self.options;

        // Phase 2: dense cell map (Algorithm 2), keyed by cell index.
        let t = Instant::now();
        let mut flags = CellFlags::from_counts(cm.cells().iter().map(|r| r.len()), min_pts)?;
        timings.dense_map = t.elapsed();

        let n = cm.len();
        let chunks = chunk_ranges(cm.num_cells(), self.threads * 4);

        // Phase 3: core points identification (Algorithm 3). Each task
        // writes the counts of its own cells' slots into one slot-indexed
        // vector. The scratch (neighbor list + gathered query point) is
        // per-worker, so the loop allocates nothing.
        let t = Instant::now();
        let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let tasks: Vec<_> = chunks
            .iter()
            .map(|range| {
                let (cm, offsets, counts) = (&cm, &offsets, &counts);
                move |scratch: &mut CellScratch| {
                    core_points_in_range(
                        cm,
                        offsets,
                        eps_sq,
                        cap,
                        options,
                        range.clone(),
                        counts,
                        scratch,
                    )
                }
            })
            .collect();
        let mut kernel = KernelCounters::new();
        for task in run_tasks_with(self.threads, CellScratch::new, tasks)? {
            kernel.merge(&task?);
        }
        let counts: Vec<u32> = counts.into_iter().map(AtomicU32::into_inner).collect();
        timings.core_points = t.elapsed();

        // Phase 4: core cell map (Algorithm 4): a non-dense cell holding a
        // core point is promoted.
        let t = Instant::now();
        for (idx, rec) in cm.cells().iter().enumerate() {
            let cell = counts.get(rec.range()).unwrap_or_default();
            if !flags.is_dense(idx) && cell.iter().any(|&c| c as usize >= min_pts) {
                flags.promote_to_core(idx);
            }
        }
        timings.core_map = t.elapsed();

        // Phase 5: outliers identification (Algorithm 5). Only non-core
        // cells are scanned (Lemma 2), and they read only their pruned
        // core neighbors. Those are resolved from the core side: each
        // chunk sweeps its core cells and lists the non-core cells in
        // reach, and one sort files every pair under its non-core cell.
        let t = Instant::now();
        let tasks: Vec<_> = chunks
            .iter()
            .map(|range| {
                let (cm, offsets, flags) = (&cm, &offsets, &flags);
                move || {
                    cm.neighbor_pairs(
                        offsets,
                        range.clone().filter(|&idx| flags.is_core(idx)),
                        |idx| !flags.is_core(idx),
                        Some(eps_sq),
                    )
                }
            })
            .collect();
        let mut core_neighbors: Vec<(u32, u32)> = Vec::new();
        for pairs in run_tasks(self.threads, tasks)? {
            core_neighbors.extend(pairs?);
        }
        core_neighbors.sort_unstable();
        let tasks: Vec<_> = chunks
            .iter()
            .map(|range| {
                let (cm, flags, counts) = (&cm, &flags, &counts);
                let core_neighbors = &core_neighbors;
                move |scratch: &mut CellScratch| {
                    outliers_in_range(
                        cm,
                        flags,
                        core_neighbors,
                        eps_sq,
                        options,
                        |slot| counts.get(slot).is_some_and(|&c| c as usize >= min_pts),
                        range.clone(),
                        scratch,
                    )
                }
            })
            .collect();
        let mut outliers = Vec::with_capacity(chunks.len());
        for (slots, kc) in run_tasks_with(self.threads, CellScratch::new, tasks)? {
            outliers.push(slots);
            kernel.merge(&kc);
        }
        timings.outliers = t.elapsed();

        let stats = RunStats {
            num_cells: cm.num_cells(),
            dense_cells: flags.dense_cells(),
            core_cells: flags.core_cells(),
            distance_computations: kernel.distance_evals,
            kernel,
        };
        Ok(PhaseState {
            cm,
            offsets,
            counts,
            outliers,
            stats,
            timings,
        })
    }
}

/// What a run of the five phases leaves: the layout they ran on and
/// everything they computed over it, every label included (the counts
/// say which points are core, the outlier slots which are outliers; see
/// [`labels_by_id`]). [`Dbscout::detect`] keeps the labels; the warm
/// engine adopts all of it ([`crate::IncrementalDbscout::from_store`]).
pub(crate) struct PhaseState {
    /// The cell-major layout (phase 1).
    pub(crate) cm: CellMajorStore,
    /// The stencil the phases swept.
    pub(crate) offsets: NeighborOffsets,
    /// Each slot's ε-neighbor count, itself included, up to the run's cap:
    /// a count below the cap is exact, and a point is core iff its count
    /// reaches `minPts`. With no cap every count is exact.
    pub(crate) counts: Vec<u32>,
    /// The outlier slots, ascending, one run per phase-5 task. Every
    /// other point is core or covered.
    pub(crate) outliers: Vec<Vec<u32>>,
    pub(crate) stats: RunStats,
    pub(crate) timings: PhaseTimings,
}

/// Every point's label, by id, given the slot → id permutation `ids`:
/// core where the slot's count reaches `min_pts`, outlier at the slots
/// of `outliers`, and covered otherwise. The counts give way to one bit
/// a slot before the labels are allocated, which keeps the two off the
/// same peak.
pub(crate) fn labels_by_id(
    ids: &[PointId],
    counts: Vec<u32>,
    min_pts: usize,
    outliers: &[Vec<u32>],
) -> Vec<PointLabel> {
    let core: Vec<u64> = counts
        .chunks(64)
        .map(|word| {
            let bits = word.iter().rev();
            bits.fold(0, |acc, &c| acc << 1 | u64::from(c as usize >= min_pts))
        })
        .collect();
    drop(counts);
    let mut labels = vec![PointLabel::Covered; ids.len()];
    for (slot, &id) in ids.iter().enumerate() {
        let core = core
            .get(slot / 64)
            .is_some_and(|w| w >> (slot % 64) & 1 == 1);
        if let Some(l) = labels.get_mut(id as usize).filter(|_| core) {
            *l = PointLabel::Core;
        }
    }
    for &slot in outliers.iter().flatten() {
        let id = ids.get(slot as usize).map(|&id| id as usize);
        if let Some(l) = id.and_then(|id| labels.get_mut(id)) {
            *l = PointLabel::Outlier;
        }
    }
    labels
}

/// The batch answer of a run: its labels, stats and timings, or an empty
/// result for an input with no batches and no dimensionality.
fn outlier_result(state: Option<PhaseState>, min_pts: usize) -> OutlierResult {
    state.map_or_else(OutlierResult::default, |s| {
        let labels = labels_by_id(s.cm.orig_ids(), s.counts, min_pts, &s.outliers);
        OutlierResult::from_labels(labels, s.stats, s.timings)
    })
}

/// The phase-3 kernel over one contiguous cell range: counts every
/// point's ε-neighbors (Algorithm 3), stopping at `cap`, into the
/// slot-indexed `counts`. Returns the kernel work counters spent.
///
/// A cell holding at least `cap` points records every point at the cap
/// with no distance computation (Lemma 1). Otherwise each point counts
/// its neighbor cells until the count reaches `cap` (the §III-G early
/// exit), so every count below the cap is exact. `detect` passes
/// `minPts`; the warm bulk load passes `usize::MAX`, so every count is
/// exact.
///
/// Run by every threaded chunk of [`Dbscout::detect`]. A cell's work is
/// a pure function of the layout, so any partition of `0..num_cells`
/// into ranges sums to the same counts *and* work counters: both are
/// identical across thread counts by construction.
///
/// Neighbor cells come from a [`dbscout_spatial::NeighborSweep`] started
/// afresh for this range, so the list for a cell does not depend on
/// which task, attempt or worker resolves it.
///
/// # Errors
///
/// [`SpatialError::UnsortedCells`] if `cm`'s cell table is not sorted,
/// which no batch build produces.
#[allow(clippy::too_many_arguments)]
pub(crate) fn core_points_in_range(
    cm: &CellMajorStore,
    offsets: &NeighborOffsets,
    eps_sq: f64,
    cap: usize,
    options: NativeOptions,
    range: std::ops::Range<usize>,
    counts: &[AtomicU32],
    scratch: &mut CellScratch,
) -> std::result::Result<KernelCounters, SpatialError> {
    let mut sweep = cm.neighbor_sweep(offsets)?;
    let mut counters = KernelCounters::new();
    let record = |slot: usize, count: usize| {
        if let Some(c) = counts.get(slot) {
            let count = u32::try_from(count.min(cap)).unwrap_or(u32::MAX);
            // xtask-lint: allow(XL009) -- each slot is written by one task and read after the join
            c.store(count, Ordering::Relaxed);
        }
    };
    for idx in range {
        let Some(rec) = cm.cell(idx) else { continue };
        counters.cells_visited += 1;
        if options.dense_cell_shortcut && rec.len() >= cap {
            // Lemma 1: every point of a dense cell is core.
            rec.range().for_each(|slot| record(slot, cap));
            continue;
        }
        sweep.neighbors_into(idx, Some(eps_sq), &mut scratch.neighbors);
        for slot in rec.range() {
            cm.point_into(slot, &mut scratch.q);
            // dims ≤ MAX_DIMS is validated at store build.
            let Some(q) = scratch.q.get(..cm.dims()) else {
                continue;
            };
            let mut count = 0usize;
            for &nidx in &scratch.neighbors {
                let nidx = nidx as usize;
                if cm.min_sq_dist_to_bbox(q, nidx) > eps_sq {
                    counters.bbox_prunes += 1;
                    continue; // no point of that cell can be within eps
                }
                let Some(nrec) = cm.cell(nidx) else { continue };
                let limit = if options.early_exit {
                    cap - count
                } else {
                    usize::MAX
                };
                let (c, comps) = cm.count_within(q, nrec.range(), eps_sq, limit);
                count += c;
                counters.distance_evals += comps;
                if options.early_exit && count >= cap {
                    counters.early_exit_hits += 1;
                    break;
                }
            }
            record(slot, count);
        }
    }
    Ok(counters)
}

/// The phase-5 kernel over one contiguous cell range: finds the outlier
/// *slots* among points of non-core cells in `range` (Algorithm 5),
/// given whether each slot is core, plus the kernel work counters spent.
///
/// `core_neighbors` holds `(non-core cell, core cell)` pairs sorted
/// ascending, as [`CellMajorStore::neighbor_pairs`] lists them from the
/// core side with the bbox prune. A non-core cell's run of pairs is
/// exactly its pruned neighbor list filtered to core cells, in the same
/// order, so the kernel sweeps no cell: it walks its non-core cells and
/// their runs, and a cell with an empty run is all outliers. Each
/// non-core cell counts as one visited cell, as when it was swept.
#[allow(clippy::too_many_arguments)]
pub(crate) fn outliers_in_range(
    cm: &CellMajorStore,
    flags: &CellFlags,
    core_neighbors: &[(u32, u32)],
    eps_sq: f64,
    options: NativeOptions,
    is_core: impl Fn(usize) -> bool + Copy,
    range: std::ops::Range<usize>,
    scratch: &mut CellScratch,
) -> (Vec<u32>, KernelCounters) {
    let mut outliers: Vec<u32> = Vec::new();
    let mut counters = KernelCounters::new();
    let first = core_neighbors.partition_point(|&(cell, _)| (cell as usize) < range.start);
    let mut pairs = core_neighbors.get(first..).unwrap_or_default();
    for idx in range {
        if flags.is_core(idx) {
            // Lemma 2: core cells contain no outliers.
            continue;
        }
        let Some(rec) = cm.cell(idx) else { continue };
        counters.cells_visited += 1;
        let run = take_run(&mut pairs, idx);
        if run.is_empty() {
            // O_ncn: no core cell in reach — all outliers.
            outliers.extend(rec.start..rec.end);
            continue;
        }
        for slot in rec.range() {
            cm.point_into(slot, &mut scratch.q);
            // dims ≤ MAX_DIMS is validated at store build.
            let Some(q) = scratch.q.get(..cm.dims()) else {
                continue;
            };
            let mut covered = false;
            for &(_, nidx) in run {
                let nidx = nidx as usize;
                if cm.min_sq_dist_to_bbox(q, nidx) > eps_sq {
                    counters.bbox_prunes += 1;
                    continue;
                }
                let Some(nrec) = cm.cell(nidx) else { continue };
                let (hit, comps) =
                    cm.any_within_where(q, nrec.range(), eps_sq, is_core, options.early_exit);
                counters.distance_evals += comps;
                if hit {
                    covered = true;
                    if options.early_exit {
                        counters.early_exit_hits += 1;
                        break;
                    }
                }
            }
            if !covered {
                outliers.push(slot as u32);
            }
        }
    }
    (outliers, counters)
}

/// Splits the run of pairs filed under `cell` off the front of `pairs`,
/// which ascend by cell: the cell's sources, in sorted order. Every cell
/// below `cell` must already have been taken.
fn take_run<'a>(pairs: &mut &'a [(u32, u32)], cell: usize) -> &'a [(u32, u32)] {
    let len = pairs
        .iter()
        .take_while(|&&(c, _)| c as usize == cell)
        .count();
    let run = pairs.get(..len).unwrap_or_default();
    *pairs = pairs.get(len..).unwrap_or_default();
    run
}

/// Per-worker reusable scratch of the cell-major phases: the resolved
/// neighbor-cell list (phase 3) and the gathered query point. Built once
/// per worker by [`run_tasks_with`]; cleared by the kernels on use. The
/// sweep cursors are not kept here: each task places its own.
pub(crate) struct CellScratch {
    neighbors: Vec<u32>,
    q: [f64; MAX_DIMS],
}

impl CellScratch {
    pub(crate) fn new() -> Self {
        Self {
            // A neighbor list holds at most k_d entries: 21 at d = 2,
            // 117 at d = 3, 609 at d = 4, 3,903 at d = 5 and more above.
            // It grows to the longest list the worker meets, then is
            // reused.
            neighbors: Vec::with_capacity(64),
            q: [0.0; MAX_DIMS],
        }
    }
}

/// Splits `len` items into at most `parts` contiguous ranges of nearly
/// equal size.
pub(crate) fn chunk_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// The error a sequential pass over the stream meets first: the worker
/// failure at the lowest arrival id, else the feeder's own. The feeder
/// stops only after sending every batch before its failure, so a worker
/// failure always comes earlier in the stream.
fn first_failure(
    fed: Result<()>,
    outcomes: Vec<std::result::Result<(), (usize, SpatialError)>>,
) -> Result<()> {
    match outcomes
        .into_iter()
        .filter_map(std::result::Result::err)
        .min_by_key(|&(at, _)| at)
    {
        Some((_, e)) => Err(e.into()),
        None => fed,
    }
}

/// The input of phase 1, read twice as a stream of flat row-major
/// batches.
trait GridInput {
    /// One batch of points.
    type Batch: AsRef<[f64]> + Send + Sync;

    /// The point dimensionality, once known.
    fn dims(&self) -> Option<usize>;

    /// The next batch of the pass, or `None` at its end.
    fn next_batch(&mut self) -> Result<Option<Self::Batch>>;

    /// Rewinds to the first batch for the second pass.
    fn rewind(&mut self) -> Result<()>;
}

/// A materialized store, read as borrowed row chunks.
struct StoreChunks<'a> {
    store: &'a PointStore,
    chunks: Vec<std::ops::Range<usize>>,
    /// The next chunk to hand out.
    next: usize,
}

impl<'a> GridInput for StoreChunks<'a> {
    type Batch = &'a [f64];

    fn dims(&self) -> Option<usize> {
        Some(self.store.dims())
    }

    fn next_batch(&mut self) -> Result<Option<&'a [f64]>> {
        let (flat, dims) = (self.store.flat(), self.store.dims());
        let chunk = self.chunks.get(self.next);
        self.next += 1;
        Ok(chunk.map(|rows| flat.get(rows.start * dims..rows.end * dims).unwrap_or(&[])))
    }

    fn rewind(&mut self) -> Result<()> {
        self.next = 0;
        Ok(())
    }
}

/// A streaming source, read batch by batch.
struct SourceBatches<'a> {
    source: &'a mut dyn PointSource,
    /// Declared by the source, or learned from its first batch.
    dims: Option<usize>,
}

impl GridInput for SourceBatches<'_> {
    type Batch = PointBatch;

    fn dims(&self) -> Option<usize> {
        self.dims
    }

    fn next_batch(&mut self) -> Result<Option<PointBatch>> {
        let batch = self.source.next_batch()?;
        if let Some(b) = &batch {
            self.dims.get_or_insert(b.dims());
        }
        Ok(batch)
    }

    fn rewind(&mut self) -> Result<()> {
        Ok(self.source.reset()?)
    }
}

/// One-shot convenience: detect with all defaults. Thin wrapper over
/// [`crate::DetectorBuilder`] — reach for the builder when any knob
/// (threads, engine, join strategy) needs setting.
pub fn detect_outliers(store: &PointStore, params: DbscoutParams) -> Result<OutlierResult> {
    Dbscout::new(params).detect(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_labels;

    fn store_2d(points: &[[f64; 2]]) -> PointStore {
        PointStore::from_rows(2, points.iter().map(|p| p.to_vec())).unwrap()
    }

    #[test]
    fn chunk_ranges_cover_everything() {
        for len in [0usize, 1, 7, 100] {
            for parts in [1usize, 3, 8, 200] {
                let ranges = chunk_ranges(len, parts);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, len, "len {len} parts {parts}");
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
            }
        }
    }

    #[test]
    fn single_far_point_is_outlier() {
        let mut pts: Vec<[f64; 2]> = (0..10)
            .map(|i| [(i % 5) as f64 * 0.1, (i / 5) as f64 * 0.1])
            .collect();
        pts.push([50.0, 50.0]);
        let store = store_2d(&pts);
        let r = detect_outliers(&store, DbscoutParams::new(1.0, 5).unwrap()).unwrap();
        assert_eq!(r.outliers, vec![10]);
        assert_eq!(r.labels[10], PointLabel::Outlier);
        assert!(r.num_core() >= 1);
    }

    #[test]
    fn all_points_outliers_when_sparse() {
        let pts: Vec<[f64; 2]> = (0..8).map(|i| [i as f64 * 100.0, 0.0]).collect();
        let store = store_2d(&pts);
        let r = detect_outliers(&store, DbscoutParams::new(1.0, 2).unwrap()).unwrap();
        assert_eq!(r.num_outliers(), 8);
        assert_eq!(r.stats.core_cells, 0);
    }

    #[test]
    fn no_outliers_in_one_dense_blob() {
        let pts: Vec<[f64; 2]> = (0..25)
            .map(|i| [(i % 5) as f64 * 0.01, (i / 5) as f64 * 0.01])
            .collect();
        let store = store_2d(&pts);
        let r = detect_outliers(&store, DbscoutParams::new(0.5, 5).unwrap()).unwrap();
        assert_eq!(r.num_outliers(), 0);
        assert_eq!(r.num_core(), 25);
        assert!(r.stats.dense_cells >= 1);
    }

    #[test]
    fn min_pts_one_makes_everything_core() {
        let pts: Vec<[f64; 2]> = (0..5).map(|i| [i as f64 * 1000.0, 0.0]).collect();
        let store = store_2d(&pts);
        let r = detect_outliers(&store, DbscoutParams::new(0.1, 1).unwrap()).unwrap();
        assert_eq!(r.num_core(), 5);
        assert_eq!(r.num_outliers(), 0);
    }

    #[test]
    fn empty_store() {
        let store = PointStore::new(2).unwrap();
        let r = detect_outliers(&store, DbscoutParams::new(1.0, 5).unwrap()).unwrap();
        assert!(r.labels.is_empty());
        assert!(r.outliers.is_empty());
        assert_eq!(r.stats.num_cells, 0);
    }

    #[test]
    fn border_point_is_covered_not_outlier() {
        // A tight chain of 5 points (all core with minPts = 5 and
        // eps = 0.5) plus a hanger-on at x = 0.9: it has only 2 points
        // within eps (0.4 and itself) so it is not core, but it is within
        // eps of the core point at 0.4 — covered, not outlier. The
        // distance to that core point is exactly eps (closed ball,
        // Definition 2/3).
        let mut pts: Vec<[f64; 2]> = (0..5).map(|i| [i as f64 * 0.1, 0.0]).collect();
        pts.push([0.9, 0.0]);
        let store = store_2d(&pts);
        let r = detect_outliers(&store, DbscoutParams::new(0.5, 5).unwrap()).unwrap();
        assert_eq!(r.labels[5], PointLabel::Covered);
        assert_eq!(r.labels[4], PointLabel::Core);
        assert_eq!(r.num_outliers(), 0);
    }

    #[test]
    fn point_just_beyond_eps_is_outlier() {
        let mut pts = vec![[0.0, 0.0]; 5];
        pts.push([1.0 + 1e-9, 0.0]);
        let store = store_2d(&pts);
        let r = detect_outliers(&store, DbscoutParams::new(1.0, 5).unwrap()).unwrap();
        assert_eq!(r.outliers, vec![5]);
    }

    #[test]
    fn matches_naive_reference_on_small_grid() {
        // A structured layout exercising dense cells, non-dense core
        // cells, covered points and outliers at once.
        let mut pts = Vec::new();
        // Blob A: 3x3 grid spaced 0.3 (all mutually within eps = 1).
        for i in 0..3 {
            for j in 0..3 {
                pts.push([i as f64 * 0.3, j as f64 * 0.3]);
            }
        }
        // A chain leading away.
        pts.push([1.5, 0.0]);
        pts.push([2.4, 0.0]);
        // Lone points.
        pts.push([10.0, 10.0]);
        pts.push([-7.0, 3.0]);
        let store = store_2d(&pts);
        let params = DbscoutParams::new(1.0, 5).unwrap();
        let got = detect_outliers(&store, params).unwrap();
        let expected = naive_labels(&store, params);
        assert_eq!(got.labels, expected);
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let mut pts = Vec::new();
        for i in 0..40 {
            pts.push([
                (i % 8) as f64 * 0.4 + (i as f64 * 0.618).fract() * 0.1,
                (i / 8) as f64 * 0.4,
            ]);
        }
        pts.push([25.0, 25.0]);
        let store = store_2d(&pts);
        let params = DbscoutParams::new(1.0, 6).unwrap();
        let single = Dbscout::new(params).with_threads(1).detect(&store).unwrap();
        for threads in [2, 4, 8] {
            let multi = Dbscout::new(params)
                .with_threads(threads)
                .detect(&store)
                .unwrap();
            assert_eq!(single.labels, multi.labels, "threads {threads}");
            assert_eq!(single.outliers, multi.outliers);
        }
    }

    #[test]
    fn distance_computations_are_bounded_linearly() {
        // Lemma 6/8: at most n * minPts * k_d comparisons per pass. Build
        // a worst-case-ish uniform layout and check the bound (x2 for the
        // two passes).
        let mut pts = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                pts.push([i as f64 * 0.9, j as f64 * 0.9]);
            }
        }
        let store = store_2d(&pts);
        let min_pts = 4usize;
        let params = DbscoutParams::new(1.0, min_pts).unwrap();
        let r = detect_outliers(&store, params).unwrap();
        let n = store.len() as u64;
        let bound = 2 * n * min_pts as u64 * 21;
        assert!(
            r.stats.distance_computations <= bound,
            "{} > {}",
            r.stats.distance_computations,
            bound
        );
    }

    #[test]
    fn ablation_switches_change_work_not_results() {
        let mut pts = Vec::new();
        for i in 0..120 {
            pts.push([(i % 12) as f64 * 0.25, (i / 12) as f64 * 0.25]);
        }
        pts.push([9.0, 9.0]);
        pts.push([-4.0, 2.0]);
        let store = store_2d(&pts);
        let params = DbscoutParams::new(1.0, 5).unwrap();
        let full = Dbscout::new(params).detect(&store).unwrap();
        let mut prev_work = full.stats.distance_computations;
        for options in [
            NativeOptions {
                dense_cell_shortcut: false,
                early_exit: true,
            },
            NativeOptions {
                dense_cell_shortcut: true,
                early_exit: false,
            },
            NativeOptions {
                dense_cell_shortcut: false,
                early_exit: false,
            },
        ] {
            let ablated = Dbscout::new(params)
                .with_options(options)
                .detect(&store)
                .unwrap();
            assert_eq!(ablated.labels, full.labels, "{options:?} changed results");
            assert!(
                ablated.stats.distance_computations >= full.stats.distance_computations,
                "{options:?} did less work than the optimized run"
            );
            prev_work = prev_work.max(ablated.stats.distance_computations);
        }
        assert!(
            prev_work > full.stats.distance_computations,
            "disabling every optimization must cost extra distance work"
        );
    }

    #[test]
    fn kernel_counters_are_thread_invariant_and_mirror_distance_count() {
        let mut pts = Vec::new();
        for i in 0..60 {
            pts.push([
                (i % 10) as f64 * 0.35 + (i as f64 * 0.618).fract() * 0.05,
                (i / 10) as f64 * 0.35,
            ]);
        }
        pts.push([40.0, 40.0]);
        let store = store_2d(&pts);
        let params = DbscoutParams::new(1.0, 5).unwrap();
        let single = Dbscout::new(params).with_threads(1).detect(&store).unwrap();
        assert_eq!(single.labels, naive_labels(&store, params));
        assert_eq!(
            single.stats.distance_computations,
            single.stats.kernel.distance_evals
        );
        assert!(single.stats.kernel.cells_visited > 0);
        for threads in [2, 4, 8] {
            let multi = Dbscout::new(params)
                .with_threads(threads)
                .detect(&store)
                .unwrap();
            assert_eq!(single.stats.kernel, multi.stats.kernel, "threads {threads}");
        }
    }

    #[test]
    fn stats_cell_counts_are_consistent() {
        let mut pts = vec![[0.05, 0.05]; 6];
        pts.push([0.8, 0.05]);
        pts.push([30.0, 30.0]);
        let store = store_2d(&pts);
        let r = detect_outliers(&store, DbscoutParams::new(1.0, 5).unwrap()).unwrap();
        assert!(r.stats.dense_cells <= r.stats.core_cells);
        assert!(r.stats.core_cells <= r.stats.num_cells);
    }
}
