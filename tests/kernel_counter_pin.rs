//! Pins the batch engine's labels and kernel work counters on seeded
//! inputs, at one and at three threads.
//!
//! The four kernel counters (cells visited, bbox prunes, early exits,
//! distance evaluations) are a pure function of the cell-major layout and
//! the parameters, so any change to how phases 3 and 5 find their work —
//! neighbor-cell resolution, task split, kernel dispatch — must leave them
//! byte-identical. The pinned values below were recorded before the
//! neighbor-cell sweep replaced per-offset hash probes; the smallest store
//! is also checked label-for-label against the brute-force reference.

// Tests assert on known-good data; panicking is the failure mode.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::float_cmp
)]

use dbscout::core::reference::naive_labels;
use dbscout::core::{Dbscout, DbscoutParams, OutlierResult, PointLabel};
use dbscout::data::generators::{geolife_like, osm_like};
use dbscout::spatial::PointStore;
use dbscout_rng::Rng;

/// Everything pinned about one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    num_cells: usize,
    dense_cells: usize,
    core_cells: usize,
    outliers: usize,
    /// FNV-1a over the per-point labels, in point order.
    label_digest: u64,
    cells_visited: u64,
    bbox_prunes: u64,
    early_exit_hits: u64,
    distance_evals: u64,
}

impl Pin {
    fn of(r: &OutlierResult) -> Self {
        Self {
            num_cells: r.stats.num_cells,
            dense_cells: r.stats.dense_cells,
            core_cells: r.stats.core_cells,
            outliers: r.num_outliers(),
            label_digest: r.labels.iter().fold(0xcbf2_9ce4_8422_2325, |h, l| {
                let byte = match l {
                    PointLabel::Core => 1,
                    PointLabel::Covered => 2,
                    PointLabel::Outlier => 3,
                };
                (h ^ byte).wrapping_mul(0x0000_0100_0000_01b3)
            }),
            cells_visited: r.stats.kernel.cells_visited,
            bbox_prunes: r.stats.kernel.bbox_prunes,
            early_exit_hits: r.stats.kernel.early_exit_hits,
            distance_evals: r.stats.kernel.distance_evals,
        }
    }
}

/// `n` uniform points on `[0, side)²`.
fn uniform_2d(n: usize, side: f64, seed: u64) -> PointStore {
    let mut rng = Rng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| vec![rng.gen_range(0.0..side), rng.gen_range(0.0..side)])
        .collect();
    PointStore::from_rows(2, rows).unwrap()
}

/// Runs the default detector at 1 and 3 threads, requires both runs to
/// agree on labels and to match `want`, and returns the labels.
fn check(name: &str, store: &PointStore, eps: f64, min_pts: usize, want: Pin) -> OutlierResult {
    let params = DbscoutParams::new(eps, min_pts).unwrap();
    let single = Dbscout::new(params).with_threads(1).detect(store).unwrap();
    let multi = Dbscout::new(params).with_threads(3).detect(store).unwrap();
    assert_eq!(
        single.labels, multi.labels,
        "{name}: labels differ by thread count"
    );
    assert_eq!(Pin::of(&single), want, "{name}: 1 thread");
    assert_eq!(Pin::of(&multi), want, "{name}: 3 threads");
    single
}

#[test]
fn uniform_2d_matches_reference_and_pinned_counters() {
    let store = uniform_2d(2_000, 100.0, 11);
    let params = DbscoutParams::new(3.0, 5).unwrap();
    let got = check(
        "uniform-2d",
        &store,
        params.eps(),
        params.min_pts(),
        Pin {
            num_cells: 1_304,
            dense_cells: 8,
            core_cells: 1_002,
            outliers: 86,
            label_digest: 474_282_331_072_851_014,
            cells_visited: 1_606,
            bbox_prunes: 1_049,
            early_exit_hits: 1_798,
            distance_evals: 11_093,
        },
    );
    assert_eq!(got.labels, naive_labels(&store, params));
}

#[test]
fn geolife_like_pinned_counters() {
    check(
        "geolife-like",
        &geolife_like(30_000, 1),
        100.0,
        20,
        Pin {
            num_cells: 5_392,
            dense_cells: 137,
            core_cells: 1_324,
            outliers: 3_901,
            label_digest: 11_366_542_136_819_680_134,
            cells_visited: 9_460,
            bbox_prunes: 21_150,
            early_exit_hits: 5_064,
            distance_evals: 343_152,
        },
    );
}

#[test]
fn osm_like_pinned_counters() {
    check(
        "osm-like",
        &osm_like(30_000, 2),
        200_000.0,
        20,
        Pin {
            num_cells: 1_744,
            dense_cells: 472,
            core_cells: 1_558,
            outliers: 179,
            label_digest: 2_851_795_203_607_173_720,
            cells_visited: 1_930,
            bbox_prunes: 6_783,
            early_exit_hits: 6_631,
            distance_evals: 273_692,
        },
    );
}

#[test]
fn uniform_2d_large_pinned_counters() {
    check(
        "uniform-2d-large",
        &uniform_2d(50_000, 800.0, 12),
        5.0,
        6,
        Pin {
            num_cells: 31_958,
            dense_cells: 23,
            core_cells: 22_463,
            outliers: 2_590,
            label_digest: 15_422_766_412_315_851_667,
            cells_visited: 41_453,
            bbox_prunes: 32_957,
            early_exit_hits: 44_824,
            distance_evals: 338_584,
        },
    );
}
