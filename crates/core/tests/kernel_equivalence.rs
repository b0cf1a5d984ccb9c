//! The distance kernel is a loop shape, not a semantic: its labels must
//! equal the brute-force oracle's (`naive_labels`, one `sq_dist` per
//! pair), and its kernel-counter totals must not move with the thread
//! count (the lane blocks drain in slot order, so each tally is the one
//! a slot-at-a-time loop makes). Likewise the parallel streaming builder
//! is a scheduling choice: any thread count and batch size must yield
//! the same layout, so labels and counters of `detect_source` pin the
//! whole pipeline.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::float_cmp
)]

use dbscout_core::reference::naive_labels;
use dbscout_core::{Dbscout, DbscoutParams, OutlierResult};
use dbscout_data::StoreSource;
use dbscout_rng::Rng;
use dbscout_spatial::PointStore;

/// Clustered-looking random datasets: anchors, points near anchors,
/// uniform noise (the same construction as the layout suite).
fn dataset(rng: &mut Rng, dims: usize, max_n: usize) -> PointStore {
    let n_anchors = rng.gen_range(1usize..4);
    let anchors: Vec<Vec<f64>> = (0..n_anchors)
        .map(|_| (0..dims).map(|_| rng.gen_range(-20.0..20.0)).collect())
        .collect();
    let n = rng.gen_range(1..max_n);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            let a = rng.gen_range(0usize..3);
            let off: Vec<f64> = (0..dims).map(|_| rng.gen_range(-0.8..0.8)).collect();
            let noise = rng.gen::<bool>();
            let anchor = &anchors[a % anchors.len()];
            if noise {
                off.iter().map(|o| o * 40.0).collect()
            } else {
                anchor.iter().zip(&off).map(|(c, o)| c + o).collect()
            }
        })
        .collect();
    PointStore::from_rows(dims, rows).expect("generated rows are valid")
}

fn detect(store: &PointStore, params: DbscoutParams, threads: usize) -> OutlierResult {
    Dbscout::new(params)
        .with_threads(threads)
        .detect(store)
        .unwrap()
}

/// Labels, outliers, and the full four-counter kernel block must match.
fn assert_equivalent(a: &OutlierResult, b: &OutlierResult, what: &str) {
    assert_eq!(a.labels, b.labels, "{what}: labels");
    assert_eq!(a.outliers, b.outliers, "{what}: outliers");
    assert_eq!(a.stats.kernel, b.stats.kernel, "{what}: kernel counters");
    assert_eq!(
        a.stats.distance_computations, b.stats.distance_computations,
        "{what}: distance totals"
    );
}

/// Labels equal the oracle's at 1 thread, and labels and the four
/// kernel counters at 4 and 8 threads equal the 1-thread run's.
fn assert_matches_oracle(store: &PointStore, params: DbscoutParams, what: &str) {
    let single = detect(store, params, 1);
    assert_eq!(
        single.labels,
        naive_labels(store, params),
        "{what}: vs naive"
    );
    for threads in [4usize, 8] {
        let got = detect(store, params, threads);
        assert_equivalent(&single, &got, &format!("{what} threads={threads}"));
    }
}

#[test]
fn labels_match_the_naive_oracle_dims_2_to_4() {
    let mut rng = Rng::seed_from_u64(0x51D3);
    for round in 0..18 {
        let (dims, max_n) = match round % 3 {
            0 => (2, 160),
            1 => (3, 100),
            _ => (4, 70),
        };
        let store = dataset(&mut rng, dims, max_n);
        let eps = rng.gen_range(0.3..5.0);
        let min_pts = rng.gen_range(1usize..8);
        let params = DbscoutParams::new(eps, min_pts).unwrap();
        assert_matches_oracle(&store, params, &format!("d={dims}"));
    }
}

#[test]
fn duplicates_and_eps_boundary_coords_are_kernel_invariant() {
    // Points spaced *exactly* ε apart (the closed-ball boundary of
    // Definition 2), plus duplicate blocks — the coordinates where a
    // kernel that reassociates FP arithmetic would diverge first.
    let eps = 1.0;
    for dims in [2usize, 3, 4] {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..12 {
            let mut row = vec![0.0; dims];
            row[0] = i as f64 * eps; // consecutive points at distance exactly ε
            rows.push(row);
        }
        // Duplicate blocks at the boundary points.
        for _ in 0..3 {
            rows.push(rows[0].clone());
            rows.push(rows[5].clone());
        }
        // An off-axis point at exactly ε from the chain (3-4-5 triangle).
        let mut tri = vec![0.0; dims];
        tri[0] = 0.6;
        tri[1] = 0.8;
        rows.push(tri);
        let store = PointStore::from_rows(dims, rows).unwrap();
        for min_pts in [1usize, 2, 4, 30] {
            let params = DbscoutParams::new(eps, min_pts).unwrap();
            assert_matches_oracle(
                &store,
                params,
                &format!("boundary d={dims} minPts={min_pts}"),
            );
        }
    }
}

#[test]
fn parallel_streaming_builder_matches_sequential_detect() {
    let mut rng = Rng::seed_from_u64(0x51D4);
    for dims in [2usize, 3] {
        let store = dataset(&mut rng, dims, 900);
        let eps = rng.gen_range(0.3..4.0);
        let min_pts = rng.gen_range(1usize..8);
        let params = DbscoutParams::new(eps, min_pts).unwrap();
        let sequential = Dbscout::new(params).with_threads(1).detect(&store).unwrap();
        for batch in [1usize, 7, 4096] {
            for threads in [1usize, 4, 8] {
                let mut source = StoreSource::new(&store, batch);
                let streamed = Dbscout::new(params)
                    .with_threads(threads)
                    .detect_source(&mut source)
                    .unwrap();
                assert_equivalent(
                    &sequential,
                    &streamed,
                    &format!("d={dims} batch={batch} threads={threads}"),
                );
            }
        }
    }
}

#[test]
fn parallel_materialized_build_matches_sequential() {
    let mut rng = Rng::seed_from_u64(0x51D5);
    for _ in 0..6 {
        let store = dataset(&mut rng, 2, 500);
        let eps = rng.gen_range(0.3..4.0);
        let min_pts = rng.gen_range(1usize..8);
        let params = DbscoutParams::new(eps, min_pts).unwrap();
        let sequential = Dbscout::new(params).with_threads(1).detect(&store).unwrap();
        for threads in [2usize, 4, 8] {
            let parallel = Dbscout::new(params)
                .with_threads(threads)
                .detect(&store)
                .unwrap();
            assert_equivalent(&sequential, &parallel, &format!("threads={threads}"));
        }
    }
}
