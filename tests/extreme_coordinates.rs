//! Points so far out that `cell_of` would saturate their cells at the
//! ends of the `i64` range. Saturation merged points 1e19 apart into one
//! "dense" cell: four such points at ε 1 and minPts 3 read "0 outliers,
//! 4 core points, 1 cells" on every engine, where all four are outliers.
//! Every engine and entry point now refuses such input with
//! `SpatialError::CoordinateOutOfRange` instead: a coordinate must lie
//! within 2^53 cell sides of the origin (`dbscout_spatial::MAX_CELL_INDEX`).

// Tests assert on known-good data; panicking is the failure mode.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::float_cmp
)]

use dbscout::baselines::{BaselineError, Dbscan, RpDbscan};
use dbscout::core::reference::naive_labels;
use dbscout::core::{
    detect_outliers, Dbscout, DbscoutError, DbscoutParams, DistributedDbscout, IncrementalDbscout,
    PointLabel,
};
use dbscout::data::StoreSource;
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

/// Requires every engine and entry point to refuse `store` with
/// `CoordinateOutOfRange` naming `point` and `dim`.
fn every_engine_refuses(store: &PointStore, params: DbscoutParams, point: usize, dim: usize) {
    let want = SpatialError::CoordinateOutOfRange { point, dim };
    let wanted = DbscoutError::InvalidInput(want.clone());
    assert_eq!(detect_outliers(store, params).unwrap_err(), wanted);
    for threads in [1, 2, 3] {
        let native = Dbscout::new(params).with_threads(threads);
        assert_eq!(
            native.detect(store).unwrap_err(),
            wanted,
            "{threads} threads"
        );
        for batch in [1, 3, 64] {
            let mut source = StoreSource::new(store, batch);
            assert_eq!(
                native.detect_source(&mut source).unwrap_err(),
                wanted,
                "streamed, {threads} threads, batch {batch}"
            );
        }
    }
    assert_eq!(
        IncrementalDbscout::from_store(store, params).err(),
        Some(wanted.clone()),
        "incremental bulk load"
    );
    let ctx = ExecutionContext::builder().workers(2).build();
    assert_eq!(
        DistributedDbscout::new(ctx.clone(), params)
            .detect(store)
            .unwrap_err(),
        wanted,
        "distributed"
    );
    let (eps, min_pts) = (params.eps(), params.min_pts());
    assert_eq!(
        Dbscan::new(eps, min_pts).fit(store).err(),
        Some(want.clone())
    );
    // RP-DBSCAN overflowed computing sub-cell corners (a panic, retried
    // into `TaskFailed`) or, in a release build, merged the points into
    // one sub-cell.
    assert_eq!(
        RpDbscan::new(ctx, eps, min_pts).detect(store).err(),
        Some(BaselineError::Spatial(want.clone())),
        "RP-DBSCAN"
    );
    assert_eq!(CellMajorStore::build(store, eps).err(), Some(want.clone()));
    assert_eq!(Grid::build(store, eps).err(), Some(want.clone()));

    // Warm entry points: a point too far out is refused on its own,
    // named by the id it would have got, and changes nothing.
    let row = store.point(point as u32).to_vec();
    let near = PointStore::from_rows(store.dims(), vec![vec![0.0; store.dims()]]).unwrap();
    let mut inc = IncrementalDbscout::from_store(&near, params).unwrap();
    let refused = DbscoutError::InvalidInput(SpatialError::CoordinateOutOfRange { point: 1, dim });
    assert_eq!(inc.insert(&row).unwrap_err(), refused, "insert");
    assert_eq!(inc.probe(&row).unwrap_err(), refused, "probe");
    assert_eq!((inc.len(), inc.total_inserted()), (1, 1));
    let mut mutable = MutableCellMajor::new(store.dims(), eps).unwrap();
    assert_eq!(
        mutable.insert(7, &row).err(),
        Some(SpatialError::CoordinateOutOfRange { point: 7, dim })
    );
}

#[test]
fn cells_saturated_at_i64_max_do_not_overflow() {
    // All four points would land in cell (i64::MAX, 0), which merged
    // them; none is within ε of another. The input is refused.
    let rows: Vec<Vec<f64>> = (1..=4).map(|k| vec![k as f64 * 1e300, 0.0]).collect();
    let store = PointStore::from_rows(2, rows).unwrap();
    let params = DbscoutParams::new(1.0, 5).unwrap();
    every_engine_refuses(&store, params, 0, 0);
}

#[test]
fn cells_at_both_ends_of_i64_in_one_table() {
    // Cells at i64::MIN and i64::MAX in every dimension, next to an
    // ordinary cluster. The input is refused at its first far point.
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
        every_engine_refuses(&store, params, 0, 0);
    }
}

#[test]
fn points_1e19_apart_are_refused_not_merged() {
    // The repro: at ε 1 and minPts 3, four points 1e19 apart (and at
    // 1e300) shared one saturated cell, so every engine answered 4 core
    // points where all four are outliers.
    let params = DbscoutParams::new(1.0, 3).unwrap();
    for scale in [1e19, 1e300] {
        let rows: Vec<Vec<f64>> = (1..=4).map(|k| vec![k as f64 * scale, 0.0]).collect();
        let store = PointStore::from_rows(2, rows).unwrap();
        every_engine_refuses(&store, params, 0, 0);
        // Reordered, the refusal names the first far point and its dim.
        let rows = vec![vec![0.0, 0.0], vec![0.5, 0.0], vec![0.0, -scale]];
        let store = PointStore::from_rows(2, rows).unwrap();
        every_engine_refuses(&store, params, 2, 1);
    }
}

#[test]
fn the_range_ends_just_below_2_pow_53_cell_sides() {
    // At ε = √2 in 2-D the cell side is just under 1, so 2^53 cell sides
    // is just under 2^53: 2^52 is accepted with exact answers, 2^53 and
    // beyond are refused.
    let params = DbscoutParams::new(2f64.sqrt(), 2).unwrap();
    let edge = 2f64.powi(52);
    let store = PointStore::from_rows(
        2,
        vec![
            vec![edge, 0.0],
            vec![edge + 1.0, 0.0],
            vec![-edge, 0.0],
            vec![0.0, edge - 4.0],
        ],
    )
    .unwrap();
    all_detectors_match_reference(&store, params);
    for far in [2f64.powi(53), 1e17] {
        let store = PointStore::from_rows(2, vec![vec![0.0, 0.0], vec![0.0, -far]]).unwrap();
        every_engine_refuses(&store, params, 1, 1);
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
        assert_eq!(MutableCellMajor::new(2, eps).err(), want, "eps {eps:e}");
        assert_eq!(
            DbscoutParams::new(eps, 2).err(),
            Some(DbscoutError::InvalidEpsilon { value: eps }),
            "eps {eps:e}"
        );
    }
}
