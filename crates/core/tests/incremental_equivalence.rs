//! The incremental engine's contract: after *any* interleaved sequence
//! of inserts and deletes, its labels are byte-identical to a from-
//! scratch batch run over the surviving points, checked against batch
//! runs at 1 and 4 threads and against the brute-force reference.
//! Probes must answer exactly the label an insert of the same point
//! would receive, without mutating state. After every operation the
//! maintained outlier set and live counts must equal a scan of the
//! labels.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::float_cmp
)]

use dbscout_core::reference::naive_labels;
use dbscout_core::{
    DbscoutParams, DetectorBuilder, ExecutionConfig, IncrementalDbscout, PointLabel,
};
use dbscout_rng::Rng;
use dbscout_spatial::PointStore;

/// The surviving points by the test's own record: the ids in `alive`,
/// ascending, and their rows of `points` (every point inserted, by id)
/// in that order, after asserting that the engine reports the same. The
/// oracles label this record, never coordinates read back from the
/// engine under test, which would agree with a store that lost or moved
/// a point.
fn survivors(
    inc: &IncrementalDbscout,
    points: &[Vec<f64>],
    alive: &[u32],
    ctx: &str,
) -> (Vec<u32>, PointStore) {
    let mut ids = alive.to_vec();
    ids.sort_unstable();
    let rows: Vec<Vec<f64>> = ids.iter().map(|&id| points[id as usize].clone()).collect();
    let record = (ids, PointStore::from_rows(inc.dims(), rows).unwrap());
    assert_eq!(inc.survivors(), record, "{ctx}: survivors");
    record
}

/// The maintained index against a scan over every id ever issued:
/// `outliers()` lists the live ids labelled Outlier, ascending, and the
/// two counters count the live outliers and core points.
fn assert_index_matches_scan(inc: &IncrementalDbscout, ctx: &str) {
    let live = |label: PointLabel| {
        (0..inc.total_inserted() as u32)
            .filter(move |&id| inc.is_alive(id) && inc.labels()[id as usize] == label)
    };
    let outliers: Vec<u32> = live(PointLabel::Outlier).collect();
    assert_eq!(inc.outliers(), outliers, "{ctx}: outlier ids");
    assert_eq!(inc.num_outliers(), outliers.len(), "{ctx}: outlier count");
    assert_eq!(
        inc.num_core(),
        live(PointLabel::Core).count(),
        "{ctx}: core"
    );
    let alive = (0..inc.total_inserted() as u32)
        .filter(|&id| inc.is_alive(id))
        .count();
    assert_eq!(inc.len(), alive, "{ctx}: live count");
}

/// The equivalence invariant: the warm state labels every survivor
/// exactly as the brute-force reference and a batch run over the
/// survivors alone would, at 1 and 4 threads, including the outlier id
/// set.
fn assert_matches_batch(inc: &IncrementalDbscout, points: &[Vec<f64>], alive: &[u32], ctx: &str) {
    let (ids, store) = survivors(inc, points, alive, ctx);
    let live: Vec<_> = ids.iter().map(|&id| inc.label(id)).collect();
    assert_eq!(live, naive_labels(&store, inc.params()), "{ctx}: vs naive");
    let expected_outliers: Vec<u32> = inc.outliers();
    for threads in [1usize, 4] {
        let batch = DetectorBuilder::new(inc.params())
            .execution(ExecutionConfig::new().with_threads(threads))
            .build_native()
            .detect(&store)
            .unwrap();
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(
                inc.label(id),
                batch.labels[k],
                "{ctx}: label of id {id} (survivor #{k}, threads {threads})"
            );
        }
        let batch_outliers: Vec<u32> = batch.outliers.iter().map(|&k| ids[k as usize]).collect();
        assert_eq!(
            expected_outliers, batch_outliers,
            "{ctx}: outlier set (threads {threads})"
        );
    }
}

#[test]
fn randomized_interleavings_match_batch() {
    // Multiple seeds × dims 2–4; each sequence interleaves inserts
    // (including exact-duplicate points), removes (including guaranteed
    // double-remove misses), and probes, checking the batch invariant
    // mid-sequence and at the end. Seeds 4–6 start from a bulk load of a
    // random initial store, so churn also runs on a seeded engine.
    for (seed, dims) in [(1u64, 2), (2, 3), (3, 4), (4, 2), (5, 3), (6, 4)] {
        let mut rng = Rng::seed_from_u64(0xD5C0 + seed);
        let eps = rng.gen_range(0.8..3.0);
        let min_pts = rng.gen_range(2usize..6);
        let params = DbscoutParams::new(eps, min_pts).unwrap();
        let mut points: Vec<Vec<f64>> = Vec::new();
        let mut inc = if seed > 3 {
            for _ in 0..80 {
                let p: Vec<f64> = if !points.is_empty() && rng.gen_bool(0.15) {
                    points[rng.gen_range(0..points.len())].clone()
                } else {
                    (0..dims).map(|_| rng.gen_range(-6.0..6.0)).collect()
                };
                points.push(p);
            }
            let initial = PointStore::from_rows(dims, points.clone()).unwrap();
            let inc = IncrementalDbscout::from_store(&initial, params).unwrap();
            let ctx = format!("seed {seed} dims {dims} bulk load");
            assert_index_matches_scan(&inc, &ctx);
            let all: Vec<u32> = (0..points.len() as u32).collect();
            assert_matches_batch(&inc, &points, &all, &ctx);
            inc
        } else {
            IncrementalDbscout::new(dims, params).unwrap()
        };
        let mut alive: Vec<u32> = (0..points.len() as u32).collect();
        for step in 0..140 {
            let ctx = format!("seed {seed} dims {dims} step {step}");
            let roll = rng.gen_range(0usize..10);
            if roll < 5 || alive.is_empty() {
                // Insert — 15% of the time an exact duplicate of an
                // earlier point (alive or dead).
                let p: Vec<f64> = if !points.is_empty() && rng.gen_bool(0.15) {
                    points[rng.gen_range(0..points.len())].clone()
                } else {
                    (0..dims).map(|_| rng.gen_range(-6.0..6.0)).collect()
                };
                let id = inc.insert(&p).unwrap();
                assert_eq!(id as usize, points.len(), "{ctx}: ids are dense");
                points.push(p);
                alive.push(id);
            } else if roll < 8 {
                let id = alive.swap_remove(rng.gen_range(0..alive.len()));
                assert!(inc.remove(id), "{ctx}: live remove hits");
                assert_index_matches_scan(&inc, &ctx);
                assert!(!inc.remove(id), "{ctx}: double remove misses");
            } else {
                // Probe == insert-then-read-label, and the insert that
                // follows it must observe un-mutated state.
                let p: Vec<f64> = (0..dims).map(|_| rng.gen_range(-6.0..6.0)).collect();
                let probed = inc.probe(&p).unwrap();
                assert_index_matches_scan(&inc, &ctx);
                let id = inc.insert(&p).unwrap();
                assert_eq!(probed, inc.label(id), "{ctx}: probe equals insert label");
                points.push(p);
                alive.push(id);
            }
            assert_index_matches_scan(&inc, &ctx);
            if step % 35 == 34 {
                assert_matches_batch(&inc, &points, &alive, &ctx);
            }
        }
        let ctx = format!("seed {seed} dims {dims} final");
        assert_matches_batch(&inc, &points, &alive, &ctx);
    }
}

/// Removes the ids in `alive` (every live id) in random order, then
/// inserts `reinserts` fresh points, checking the index after every
/// operation, the issued count against `points` (every point inserted,
/// by id, to which the new ones are added), and the batch invariant at
/// the end.
fn tear_down_and_rebuild(
    inc: &mut IncrementalDbscout,
    rng: &mut Rng,
    mut alive: Vec<u32>,
    points: &mut Vec<Vec<f64>>,
    reinserts: usize,
    ctx: &str,
) {
    let (dims, issued) = (inc.dims(), points.len());
    // Tear the whole dataset down in random order.
    rng.shuffle(&mut alive);
    for id in alive.drain(..) {
        assert!(inc.remove(id), "{ctx}: remove {id}");
        assert_index_matches_scan(inc, &format!("{ctx}: after removing {id}"));
    }
    assert!(inc.is_empty(), "{ctx}");
    assert!(inc.outliers().is_empty(), "{ctx}");
    assert_eq!(inc.num_core(), 0, "{ctx}");
    assert_eq!(inc.total_inserted(), issued, "{ctx}");

    // Re-insert after empty: ids keep growing, the grid state is
    // reusable, and the invariant holds again.
    for _ in 0..reinserts {
        let p: Vec<f64> = (0..dims).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let id = inc.insert(&p).unwrap();
        assert!(id as usize >= issued, "{ctx}: ids never recycle");
        assert_index_matches_scan(inc, &format!("{ctx}: after inserting {id}"));
        points.push(p);
        alive.push(id);
    }
    assert_matches_batch(inc, points, &alive, &format!("{ctx} after rebirth"));
}

#[test]
fn remove_everything_then_reinsert_matches_batch() {
    for dims in 2..=4usize {
        let mut rng = Rng::seed_from_u64(0xE0 + dims as u64);
        let params = DbscoutParams::new(1.5, 3).unwrap();
        let mut inc = IncrementalDbscout::new(dims, params).unwrap();
        let mut alive: Vec<u32> = Vec::new();
        let mut points: Vec<Vec<f64>> = Vec::new();
        for _ in 0..60 {
            let p: Vec<f64> = (0..dims).map(|_| rng.gen_range(-4.0..4.0)).collect();
            alive.push(inc.insert(&p).unwrap());
            points.push(p);
            assert_index_matches_scan(&inc, &format!("dims {dims} build-up"));
        }
        let ctx = format!("dims {dims}");
        tear_down_and_rebuild(&mut inc, &mut rng, alive, &mut points, 40, &ctx);

        // The same from a bulk load, whose labelling pass seeds the index:
        // a tight clump (core) among scattered points (mostly outliers).
        // 150 points leave the last bitset word part-filled.
        let mut rows: Vec<Vec<f64>> = (0..150)
            .map(|i| {
                let half = if i % 2 == 0 { 1.0 } else { 20.0 };
                (0..dims).map(|_| rng.gen_range(-half..half)).collect()
            })
            .collect();
        let store = PointStore::from_rows(dims, rows.clone()).unwrap();
        let mut inc = IncrementalDbscout::from_store(&store, params).unwrap();
        let ctx = format!("dims {dims} bulk load");
        assert_index_matches_scan(&inc, &ctx);
        assert!(inc.num_outliers() > 0 && inc.num_core() > 0, "{ctx}");
        tear_down_and_rebuild(&mut inc, &mut rng, (0..150).collect(), &mut rows, 80, &ctx);
    }
}

#[test]
fn duplicate_heavy_sequences_match_batch() {
    // Many coincident points stress the minPts threshold bookkeeping:
    // a removed duplicate must not strand its twins' counts.
    let params = DbscoutParams::new(1.0, 4).unwrap();
    let mut rng = Rng::seed_from_u64(0xD0B);
    let mut inc = IncrementalDbscout::new(2, params).unwrap();
    let sites: Vec<Vec<f64>> = (0..5)
        .map(|_| vec![rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)])
        .collect();
    let mut alive: Vec<u32> = Vec::new();
    let mut points: Vec<Vec<f64>> = Vec::new();
    for step in 0..120 {
        if alive.is_empty() || rng.gen_bool(0.65) {
            let site = &sites[rng.gen_range(0..sites.len())];
            alive.push(inc.insert(site).unwrap());
            points.push(site.clone());
        } else {
            let id = alive.swap_remove(rng.gen_range(0..alive.len()));
            assert!(inc.remove(id));
        }
        assert_index_matches_scan(&inc, &format!("duplicates step {step}"));
        if step % 30 == 29 {
            let ctx = format!("duplicates step {step}");
            assert_matches_batch(&inc, &points, &alive, &ctx);
        }
    }
    assert_matches_batch(&inc, &points, &alive, "duplicates final");
}
