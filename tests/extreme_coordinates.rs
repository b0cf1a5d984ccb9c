//! Points so far out that `cell_of` saturates their cells to the ends of
//! the `i64` range. Neighbor-cell targets beyond `i64` must be skipped:
//! adding an offset to such a cell used to overflow, which panics in a
//! debug build and wraps to the other end of the cell table in a release
//! build.
//!
//! Every cell here holds fewer than minPts points, so the dense-cell
//! shortcut never fires and the labels must equal brute force. (When a
//! saturated cell reaches minPts, points that saturation merged into one
//! cell are wrongly taken as dense — a separate defect of `cell_of`.)

// Tests assert on known-good data; panicking is the failure mode.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::float_cmp
)]

use dbscout::baselines::Dbscan;
use dbscout::core::reference::naive_labels;
use dbscout::core::{
    detect_outliers, Dbscout, DbscoutError, DbscoutParams, DistributedDbscout, IncrementalDbscout,
    PointLabel,
};
use dbscout::dataflow::ExecutionContext;
use dbscout::spatial::{
    validate_eps, CellMajorBuilder, CellMajorStore, Grid, MutableCellMajor, PointStore,
    SpatialError,
};

/// Runs every exact detector on `store` and requires brute-force labels.
fn all_detectors_match_reference(store: &PointStore, params: DbscoutParams) {
    let want = naive_labels(store, params);
    assert_eq!(detect_outliers(store, params).unwrap().labels, want);
    for threads in [1, 2] {
        let got = Dbscout::new(params)
            .with_threads(threads)
            .detect(store)
            .unwrap();
        assert_eq!(got.labels, want, "{threads} threads");
    }
    let inc = IncrementalDbscout::from_store(store, params).unwrap();
    assert_eq!(inc.labels(), want.as_slice(), "incremental");
    let ctx = ExecutionContext::builder().workers(2).build();
    let dist = DistributedDbscout::new(ctx, params).detect(store).unwrap();
    assert_eq!(dist.labels, want, "distributed");
    let noise = Dbscan::new(params.eps(), params.min_pts())
        .fit(store)
        .unwrap()
        .noise_mask();
    let outliers: Vec<bool> = want.iter().map(|&l| l == PointLabel::Outlier).collect();
    assert_eq!(noise, outliers, "DBSCAN noise");
}

#[test]
fn cells_saturated_at_i64_max_do_not_overflow() {
    // All four points land in cell (i64::MAX, 0); none is within ε of
    // another, so all are outliers.
    let rows: Vec<Vec<f64>> = (1..=4).map(|k| vec![k as f64 * 1e300, 0.0]).collect();
    let store = PointStore::from_rows(2, rows).unwrap();
    let params = DbscoutParams::new(1.0, 5).unwrap();
    let result = detect_outliers(&store, params).unwrap();
    assert_eq!(result.outliers, vec![0, 1, 2, 3]);
    all_detectors_match_reference(&store, params);
}

#[test]
fn cells_at_both_ends_of_i64_in_one_table() {
    // Saturated cells at i64::MIN and i64::MAX in every dimension, next
    // to an ordinary cluster whose points are all core.
    for dims in [1usize, 2, 3] {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for &far in &[-3e300, -1e300, 1e300, 2e300] {
            for k in 0..dims {
                let mut p = vec![0.5; dims];
                p[k] = far;
                rows.push(p);
            }
            rows.push(vec![far; dims]);
        }
        for i in 0..6 {
            rows.push(vec![0.01 * i as f64; dims]);
        }
        let store = PointStore::from_rows(dims, rows).unwrap();
        let params = DbscoutParams::new(1.0, 5).unwrap();
        let want = naive_labels(&store, params);
        assert_eq!(
            want.iter().filter(|&&l| l == PointLabel::Core).count(),
            6,
            "d={dims}: the cluster is core"
        );
        all_detectors_match_reference(&store, params);
    }
}

#[test]
fn eps_whose_square_overflows_or_underflows_is_rejected() {
    // Two points 2ε apart are both outliers at minPts = 2. At ε = 1e155
    // the squared distance and ε² both overflowed to +inf, and at
    // ε = 1e-320 both underflowed to 0, so `d² ≤ ε²` held and every
    // engine answered "0 outliers, 2 core points". Every engine (native,
    // streamed, distributed, incremental) takes its ε from
    // `DbscoutParams`, whose constructor now refuses both.
    for (eps, far) in [(1e155, 2e155), (1e-320, 2e-320)] {
        assert!(eps * eps == far * far, "the repro needs equal squares");
        let store = PointStore::from_rows(2, vec![vec![0.0, 0.0], vec![far, 0.0]]).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(
            DbscoutParams::new(eps, 2).unwrap_err(),
            DbscoutError::InvalidEpsilon { value: eps },
            "eps {eps:e}"
        );
    }
    // The ends of the accepted range keep exact answers on the same
    // layout: points 2ε apart are outliers, points ε apart are core.
    for eps in [1.5e-154, 1.3e154] {
        let params = DbscoutParams::new(eps, 2).unwrap();
        for (gap, want) in [(2.0, PointLabel::Outlier), (1.0, PointLabel::Core)] {
            let store =
                PointStore::from_rows(2, vec![vec![0.0, 0.0], vec![gap * eps, 0.0]]).unwrap();
            assert_eq!(naive_labels(&store, params), vec![want; 2], "eps {eps:e}");
            all_detectors_match_reference(&store, params);
        }
    }
}

#[test]
fn spatial_constructors_refuse_what_params_refuse() {
    // The spatial layer takes a raw ε, so it must make the same range
    // check as `DbscoutParams::new`. `Dbscan` builds its grid from one:
    // at ε = 1e155 it marked neither of two points 2ε apart as noise,
    // because both squares overflowed. Now `fit` refuses that ε.
    let store = PointStore::from_rows(2, vec![vec![0.0, 0.0], vec![2e155, 0.0]]).unwrap();
    assert_eq!(
        Dbscan::new(1e155, 2).fit(&store).err(),
        Some(SpatialError::InvalidEpsilon { value: 1e155 })
    );
    for eps in [1e155, 1e-320] {
        let want = Some(SpatialError::InvalidEpsilon { value: eps });
        assert_eq!(validate_eps(eps).err(), want, "eps {eps:e}");
        assert_eq!(CellMajorBuilder::new(2, eps).err(), want, "eps {eps:e}");
        assert_eq!(
            CellMajorStore::build(&store, eps).err(),
            want,
            "eps {eps:e}"
        );
        assert_eq!(Grid::build(&store, eps).err(), want, "eps {eps:e}");
        assert_eq!(
            Grid::build_parallel(&store, eps, 2).err(),
            want,
            "eps {eps:e}"
        );
        assert_eq!(MutableCellMajor::new(2, eps).err(), want, "eps {eps:e}");
        assert_eq!(
            DbscoutParams::new(eps, 2).err(),
            Some(DbscoutError::InvalidEpsilon { value: eps }),
            "eps {eps:e}"
        );
    }
}
