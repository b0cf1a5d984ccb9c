//! Workspace-level integration tests: the umbrella API exercised end to
//! end across generators, engines, baselines, IO and metrics.

// Tests assert on known-good data; panicking is the failure mode.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::float_cmp
)]

use dbscout::baselines::{Dbscan, IsolationForest, Lof, RpDbscan};
use dbscout::core::{detect_outliers, Dbscout, DbscoutParams, DistributedDbscout};
use dbscout::data::generators::{blobs, circles, cure_t2_like, geolife_like, moons, osm_like};
use dbscout::data::io::{decode_binary, encode_binary, read_csv, write_csv};
use dbscout::data::kdist::suggest_eps;
use dbscout::data::sampling::sample_exact;
use dbscout::dataflow::ExecutionContext;
use dbscout::metrics::ConfusionMatrix;

#[test]
fn detect_on_every_generator_family() {
    // Every generator must produce data DBSCOUT can digest, and planted
    // outliers must be recovered with decent quality.
    let sets = vec![
        blobs(1980, 20, 3, 0.5, 1),
        circles(1980, 20, 0.5, 0.03, 1),
        moons(1980, 20, 0.04, 1),
        cure_t2_like(1),
    ];
    for ds in sets {
        let min_pts = 5;
        let eps = suggest_eps(&ds.points, min_pts).expect("non-trivial dataset");
        let params = DbscoutParams::new(eps, min_pts).unwrap();
        let result = detect_outliers(&ds.points, params).unwrap();
        let f1 = ConfusionMatrix::from_masks(&result.outlier_mask(), &ds.labels).f1();
        assert!(f1 > 0.5, "{}: F1 {f1} too low (eps {eps})", ds.name);
    }
}

#[test]
fn gps_generators_flow_through_both_engines() {
    let store = geolife_like(20_000, 2);
    let params = DbscoutParams::new(100.0, 100).unwrap();
    let native = Dbscout::new(params).detect(&store).unwrap();
    let ctx = ExecutionContext::builder().workers(2).build();
    let dist = DistributedDbscout::new(ctx, params).detect(&store).unwrap();
    assert_eq!(native.outliers, dist.outliers);
    assert!(native.num_outliers() > 0, "skewed GPS data has outliers");
    assert!(
        native.num_outliers() < store.len() as usize / 2,
        "most fixes are inliers"
    );
}

#[test]
fn osm_generator_agrees_across_all_detectors_semantics() {
    let store = sample_exact(&osm_like(30_000, 4), 10_000, 1);
    let params = DbscoutParams::new(1_000_000.0, 50).unwrap();
    let scout = detect_outliers(&store, params).unwrap();

    // DBSCAN noise = DBSCOUT outliers (definitional equivalence).
    let dbscan = Dbscan::new(params.eps(), params.min_pts())
        .fit(&store)
        .unwrap();
    assert_eq!(scout.outlier_mask(), dbscan.noise_mask());

    // RP-DBSCAN-A: superset of the exact outliers.
    let ctx = ExecutionContext::builder().workers(2).build();
    let rp = RpDbscan::new(ctx, params.eps(), params.min_pts())
        .detect(&store)
        .unwrap();
    for (i, (&e, &a)) in scout
        .outlier_mask()
        .iter()
        .zip(&rp.outlier_mask)
        .enumerate()
    {
        assert!(!e || a, "exact outlier {i} missing from approximation");
    }
}

#[test]
fn score_based_baselines_rank_planted_outliers_high() {
    let ds = blobs(990, 10, 2, 0.4, 9);
    let nu = ds.contamination();
    for (name, mask) in [
        ("lof", Lof::new(20).detect(&ds.points, nu)),
        ("iforest", IsolationForest::new(1).detect(&ds.points, nu)),
    ] {
        let f1 = ConfusionMatrix::from_masks(&mask, &ds.labels).f1();
        assert!(f1 > 0.6, "{name}: F1 {f1}");
    }
}

#[test]
fn csv_and_binary_round_trip_through_detection() {
    let ds = moons(500, 10, 0.05, 3);
    let dir = std::env::temp_dir().join("dbscout-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("moons.csv");
    write_csv(&path, &ds.points, Some(&ds.labels)).unwrap();
    let (loaded, labels) = read_csv(&path, true).unwrap();
    assert_eq!(loaded, ds.points);
    assert_eq!(labels.unwrap(), ds.labels);

    let bin = encode_binary(&ds.points);
    let decoded = decode_binary(&bin).unwrap();
    let params = DbscoutParams::new(0.1, 5).unwrap();
    let a = detect_outliers(&ds.points, params).unwrap();
    let b = detect_outliers(&decoded, params).unwrap();
    assert_eq!(a.outliers, b.outliers);
}

#[test]
fn linearity_of_distance_work() {
    // Lemma 6/8 in practice: doubling n must not blow up the per-point
    // distance work. (Wall-clock is too noisy for CI; the distance
    // counter is exact and deterministic.)
    let big = osm_like(40_000, 5);
    let small = sample_exact(&big, 20_000, 6);
    let params = DbscoutParams::new(500_000.0, 100).unwrap();
    let r_small = detect_outliers(&small, params).unwrap();
    let r_big = detect_outliers(&big, params).unwrap();
    let per_point_small = r_small.stats.distance_computations as f64 / small.len() as f64;
    let per_point_big = r_big.stats.distance_computations as f64 / big.len() as f64;
    // Denser data does more work per point (more neighbors below the
    // minPts early-exit), but it must stay within a small constant.
    assert!(
        per_point_big < per_point_small * 3.0,
        "per-point work grew superlinearly: {per_point_small} -> {per_point_big}"
    );
}

#[test]
fn umbrella_reexports_are_usable() {
    // Compile-time check that every sub-crate is reachable through the
    // umbrella, plus a smoke call through each path.
    let store = dbscout::spatial::PointStore::from_rows(2, vec![vec![0.0, 0.0]]).unwrap();
    assert_eq!(store.len(), 1);
    let _ = dbscout::metrics::ConfusionMatrix::default();
    let ctx = dbscout::dataflow::ExecutionContext::builder()
        .workers(1)
        .build();
    assert_eq!(ctx.workers(), 1);
}
