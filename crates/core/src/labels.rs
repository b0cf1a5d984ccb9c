//! Per-point classification and run results.

use std::time::Duration;

use dbscout_spatial::points::PointId;
use dbscout_telemetry::KernelCounters;

/// The exhaustive classification of a point under Definitions 2–3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointLabel {
    /// Center of a dense region: ≥ `minPts` points within ε (Definition 2).
    Core,
    /// Not core, but within ε of some core point — inside a dense region,
    /// hence not an outlier (DBSCAN would call it a border point).
    Covered,
    /// Within ε of no core point (Definition 3).
    Outlier,
}

impl PointLabel {
    /// Whether this label means "outlier".
    pub fn is_outlier(self) -> bool {
        matches!(self, PointLabel::Outlier)
    }
}

/// Wall-clock timings of the five DBSCOUT phases (paper §III-A).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Grid partitioning and point-cell assignment (Algorithm 1).
    pub grid: Duration,
    /// Of `grid`, the native engine's pass 1: reading the input and
    /// counting points per cell, lanes merged ([`GRID_STEP_NAMES`]).
    /// Zero for engines that do not split the phase.
    pub grid_count: Duration,
    /// Of `grid`, the native engine's plan: the cell table sorted and
    /// the layout's cell ranges laid out.
    pub grid_plan: Duration,
    /// Of `grid`, the native engine's pass 2: the input read again and
    /// every point checked and placed in its slot.
    pub grid_place: Duration,
    /// Dense cell map construction (Algorithm 2).
    pub dense_map: Duration,
    /// Core points identification (Algorithm 3).
    pub core_points: Duration,
    /// Core cell map construction (Algorithm 4).
    pub core_map: Duration,
    /// Outliers identification (Algorithm 5).
    pub outliers: Duration,
}

/// Trace names of the steps of the grid partitioning phase, in order:
/// the spans of [`PhaseTimings::grid_count`], [`PhaseTimings::grid_plan`]
/// and [`PhaseTimings::grid_place`].
pub const GRID_STEP_NAMES: [&str; 3] = ["grid: count pass", "grid: plan", "grid: place pass"];

impl PhaseTimings {
    /// The three steps of the grid partitioning phase, in
    /// [`GRID_STEP_NAMES`] order.
    pub fn grid_steps(&self) -> [Duration; 3] {
        [self.grid_count, self.grid_plan, self.grid_place]
    }

    /// Total across all phases.
    pub fn total(&self) -> Duration {
        self.grid + self.dense_map + self.core_points + self.core_map + self.outliers
    }
}

/// Structural counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Non-empty ε-cells in the grid.
    pub num_cells: usize,
    /// Cells with ≥ `minPts` points (Definition 6).
    pub dense_cells: usize,
    /// Cells containing at least one core point (Definition 7); includes
    /// all dense cells.
    pub core_cells: usize,
    /// Point-to-point distance computations performed (the quantity the
    /// linearity proof of Lemma 6/8 bounds by `n · minPts · k_d`).
    /// Always equals `kernel.distance_evals`; kept as its own field for
    /// callers that predate the counter taxonomy.
    pub distance_computations: u64,
    /// Kernel work counters summed over the core-point and outlier
    /// passes. Sums over a disjoint partition of the cell range, so
    /// identical across thread counts and schedules.
    pub kernel: KernelCounters,
}

/// The output of a DBSCOUT run; the default is an empty dataset's.
#[derive(Debug, Clone, Default)]
pub struct OutlierResult {
    /// One label per input point, indexed by [`PointId`].
    pub labels: Vec<PointLabel>,
    /// Ids of all outliers, ascending.
    pub outliers: Vec<PointId>,
    /// Structural counters.
    pub stats: RunStats,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
}

impl OutlierResult {
    /// Builds the result from labels, deriving the outlier id list.
    pub fn from_labels(labels: Vec<PointLabel>, stats: RunStats, timings: PhaseTimings) -> Self {
        let outliers = labels
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_outlier())
            .map(|(i, _)| i as PointId)
            .collect();
        Self {
            labels,
            outliers,
            stats,
            timings,
        }
    }

    /// Number of core points.
    pub fn num_core(&self) -> usize {
        self.labels
            .iter()
            .filter(|l| matches!(l, PointLabel::Core))
            .count()
    }

    /// Number of outliers.
    pub fn num_outliers(&self) -> usize {
        self.outliers.len()
    }

    /// Boolean outlier mask, indexed by point id.
    pub fn outlier_mask(&self) -> Vec<bool> {
        self.labels.iter().map(|l| l.is_outlier()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_labels_extracts_sorted_outliers() {
        let labels = vec![
            PointLabel::Core,
            PointLabel::Outlier,
            PointLabel::Covered,
            PointLabel::Outlier,
        ];
        let r = OutlierResult::from_labels(labels, RunStats::default(), PhaseTimings::default());
        assert_eq!(r.outliers, vec![1, 3]);
        assert_eq!(r.num_core(), 1);
        assert_eq!(r.num_outliers(), 2);
        assert_eq!(r.outlier_mask(), vec![false, true, false, true]);
    }

    #[test]
    fn phase_timings_total() {
        // The grid steps lie inside `grid` and add nothing to the total.
        let t = PhaseTimings {
            grid: Duration::from_millis(1),
            grid_count: Duration::from_micros(500),
            grid_plan: Duration::from_micros(100),
            grid_place: Duration::from_micros(300),
            dense_map: Duration::from_millis(2),
            core_points: Duration::from_millis(3),
            core_map: Duration::from_millis(4),
            outliers: Duration::from_millis(5),
        };
        assert_eq!(t.total(), Duration::from_millis(15));
    }

    #[test]
    fn label_predicates() {
        assert!(PointLabel::Outlier.is_outlier());
        assert!(!PointLabel::Core.is_outlier());
        assert!(!PointLabel::Covered.is_outlier());
    }
}
