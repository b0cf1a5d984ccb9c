//! The streaming ingest path (`detect_source`) is a pure re-plumbing of
//! how points reach the detector: for every batch size it must produce
//! byte-identical labels *and* statistics to the materialized `detect`,
//! on the same clustered fixtures the layout-equivalence suite uses —
//! including permissive CSV ingest with quarantined rows, the
//! materializing adapter the distributed and incremental engines use,
//! and the empty dataset.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::float_cmp
)]

use dbscout_core::reference::naive_labels;
use dbscout_core::{DbscoutError, DbscoutParams, DetectorBuilder, ExecutionConfig, OutlierResult};
use dbscout_data::io::{read_csv_with, IngestMode};
use dbscout_data::{CsvSource, DataIoError, PointBatch, PointSource, StoreSource};
use dbscout_dataflow::ExecutionContext;
use dbscout_rng::Rng;
use dbscout_spatial::{PointStore, SpatialError};

/// The batch shapes the issue calls out: degenerate (1), odd (7), and
/// larger than most fixtures (4096, a single batch).
const BATCH_SIZES: [usize; 3] = [1, 7, 4096];

/// Clustered-looking random datasets (same construction as the
/// layout-equivalence suite): anchors, points near anchors, noise.
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

/// Build-thread counts: 1 and 4, 2 (the default on a two-core host) and
/// 3 (so the last batch group is shorter than the thread count), plus
/// `DBSCOUT_TEST_THREADS` when set (CI adds 8).
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 3, 4];
    if let Some(extra) = std::env::var("DBSCOUT_TEST_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        if extra > 0 && !counts.contains(&extra) {
            counts.push(extra);
        }
    }
    counts
}

/// Asserts two results are identical in every observable the run report
/// and downstream consumers read.
fn assert_identical(streamed: &OutlierResult, materialized: &OutlierResult, ctx: &str) {
    assert_eq!(streamed.labels, materialized.labels, "labels ({ctx})");
    assert_eq!(streamed.outliers, materialized.outliers, "outliers ({ctx})");
    assert_eq!(streamed.stats, materialized.stats, "stats ({ctx})");
}

#[test]
fn detect_source_matches_detect_for_every_batch_size() {
    let mut rng = Rng::seed_from_u64(0x5001);
    for round in 0..12 {
        let (dims, max_n) = match round % 3 {
            0 => (2, 200),
            1 => (3, 120),
            _ => (4, 80),
        };
        let store = dataset(&mut rng, dims, max_n);
        let eps = rng.gen_range(0.3..5.0);
        let min_pts = rng.gen_range(1usize..8);
        let params = DbscoutParams::new(eps, min_pts).unwrap();
        for threads in thread_counts() {
            let builder = DetectorBuilder::new(params)
                .execution(ExecutionConfig::new().with_threads(threads));
            let materialized = builder.build_native().detect(&store).unwrap();
            for batch in BATCH_SIZES {
                let mut source = StoreSource::new(&store, batch);
                let streamed = builder.detect_source(&mut source).unwrap();
                assert_identical(
                    &streamed,
                    &materialized,
                    &format!("d={dims} threads={threads} batch={batch}"),
                );
            }
        }
    }
}

#[test]
fn materializing_adapter_matches_detect() {
    // The distributed and incremental engines have no streaming build;
    // `detect_source` routes them through the materializing adapter,
    // which must be transparent. Labels are also held to brute force.
    let mut rng = Rng::seed_from_u64(0x5002);
    for _ in 0..6 {
        let store = dataset(&mut rng, 2, 150);
        let params = DbscoutParams::new(rng.gen_range(0.3..5.0), rng.gen_range(1usize..8)).unwrap();
        let expected = naive_labels(&store, params);
        let engines = [
            (
                "distributed",
                DetectorBuilder::new(params)
                    .distributed(ExecutionContext::builder().workers(2).build()),
            ),
            ("incremental", DetectorBuilder::new(params).incremental()),
        ];
        for (name, builder) in engines {
            let materialized = builder.build().detect(&store).unwrap();
            assert_eq!(materialized.labels, expected, "{name} vs naive");
            for batch in BATCH_SIZES {
                let mut source = StoreSource::new(&store, batch);
                let streamed = builder.detect_source(&mut source).unwrap();
                assert_identical(&streamed, &materialized, &format!("{name} batch={batch}"));
            }
        }
    }
}

#[test]
fn permissive_csv_streaming_matches_materialized_ingest() {
    // A dirty CSV in permissive mode: both paths must quarantine the
    // same rows and label the survivors identically.
    let dir = std::env::temp_dir().join("dbscout-streaming-equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dirty.csv");
    let mut rng = Rng::seed_from_u64(0x5003);
    let mut content = String::new();
    for i in 0..400 {
        content.push_str(&format!(
            "{:.6},{:.6}\n",
            rng.gen_range(-10.0..10.0),
            rng.gen_range(-10.0..10.0)
        ));
        if i % 97 == 0 {
            content.push_str("not,a,point\n");
        }
        if i % 131 == 0 {
            content.push_str("1.0,NaN\n");
        }
    }
    std::fs::write(&path, content).unwrap();

    let params = DbscoutParams::new(1.0, 4).unwrap();
    let builder = DetectorBuilder::new(params);

    let ingest = read_csv_with(&path, false, IngestMode::Permissive).unwrap();
    let materialized = builder.build_native().detect(&ingest.store).unwrap();

    for batch in BATCH_SIZES {
        let mut source = CsvSource::open(&path, false, IngestMode::Permissive, batch).unwrap();
        let streamed = builder.detect_source(&mut source).unwrap();
        assert_identical(
            &streamed,
            &materialized,
            &format!("permissive batch={batch}"),
        );
        // After the two-pass run the source's quarantine report
        // describes exactly one pass over the file.
        assert_eq!(
            source.quarantine().quarantined,
            ingest.quarantine.quarantined,
            "batch={batch}"
        );
    }
}

#[test]
fn empty_source_yields_an_empty_result() {
    let store = PointStore::new(3).unwrap();
    let params = DbscoutParams::new(1.0, 4).unwrap();
    let engines = [
        ("native", DetectorBuilder::new(params)),
        ("incremental", DetectorBuilder::new(params).incremental()),
    ];
    for (name, builder) in engines {
        let mut source = StoreSource::new(&store, 16);
        let result = builder.detect_source(&mut source).unwrap();
        assert!(result.labels.is_empty(), "{name}");
        assert!(result.outliers.is_empty(), "{name}");
        assert_eq!(result.stats.num_cells, 0, "{name}");
    }
}

#[test]
fn len_hint_is_not_trusted() {
    // A source whose `len_hint` lies must still stream correctly: the
    // two-pass builder sizes everything from the counting pass, and the
    // hint is advisory.
    struct LyingSource<'a>(StoreSource<'a>);
    impl PointSource for LyingSource<'_> {
        fn dims(&self) -> Option<usize> {
            self.0.dims()
        }
        fn next_batch(
            &mut self,
        ) -> Result<Option<dbscout_data::PointBatch>, dbscout_data::DataIoError> {
            self.0.next_batch()
        }
        fn reset(&mut self) -> Result<(), dbscout_data::DataIoError> {
            self.0.reset()
        }
        fn len_hint(&self) -> Option<usize> {
            Some(999_999)
        }
    }

    let mut rng = Rng::seed_from_u64(0x5004);
    let store = dataset(&mut rng, 2, 100);
    let params = DbscoutParams::new(1.0, 4).unwrap();
    let builder = DetectorBuilder::new(params);
    let materialized = builder.build_native().detect(&store).unwrap();
    let mut source = LyingSource(StoreSource::new(&store, 13));
    let streamed = builder.detect_source(&mut source).unwrap();
    assert_identical(&streamed, &materialized, "lying len_hint");
}

#[test]
fn non_finite_coordinate_is_reported_at_its_stream_position() {
    // Five 2-D points per batch; the third batch holds a NaN at point
    // 13, dim 1, and the fourth an infinity at point 16. Batches count
    // in parallel lanes, yet every thread count must name point 13, as
    // a sequential pass does.
    struct Batches {
        batches: Vec<PointBatch>,
        next: usize,
    }
    impl PointSource for Batches {
        fn dims(&self) -> Option<usize> {
            Some(2)
        }
        fn next_batch(&mut self) -> Result<Option<PointBatch>, DataIoError> {
            self.next += 1;
            Ok(self.batches.get(self.next - 1).cloned())
        }
        fn reset(&mut self) -> Result<(), DataIoError> {
            self.next = 0;
            Ok(())
        }
    }

    let mut coords: Vec<f64> = (0..60).map(|i| f64::from(i) * 0.25).collect();
    coords[13 * 2 + 1] = f64::NAN;
    coords[16 * 2] = f64::INFINITY;
    let batches: Vec<PointBatch> = coords
        .chunks(10)
        .map(|chunk| PointBatch::from_flat(2, chunk.to_vec()).unwrap())
        .collect();
    let params = DbscoutParams::new(1.0, 3).unwrap();
    for threads in [1usize, 2, 4] {
        let mut source = Batches {
            batches: batches.clone(),
            next: 0,
        };
        let err = DetectorBuilder::new(params)
            .execution(ExecutionConfig::new().with_threads(threads))
            .detect_source(&mut source)
            .unwrap_err();
        assert_eq!(
            err,
            DbscoutError::InvalidInput(SpatialError::NonFiniteCoordinate { point: 13, dim: 1 }),
            "threads={threads}"
        );
    }
}

/// What one `next_batch` call of a [`Scripted`] source returns: a batch
/// of 2-D points, or a read error naming `line`.
#[derive(Clone)]
enum Read {
    Batch(Vec<f64>),
    Fails(usize),
}

/// A 2-D source that plays one script per pass, and may fail to rewind.
struct Scripted {
    passes: [Vec<Read>; 2],
    reset_fails: bool,
    pass: usize,
    next: usize,
}

/// The read error `Read::Fails(line)` raises.
fn read_error(line: usize) -> DataIoError {
    DataIoError::Parse {
        line,
        message: "scripted read failure".into(),
    }
}

impl PointSource for Scripted {
    fn dims(&self) -> Option<usize> {
        Some(2)
    }
    fn next_batch(&mut self) -> Result<Option<PointBatch>, DataIoError> {
        let read = self.passes[self.pass].get(self.next).cloned();
        self.next += 1;
        match read {
            None => Ok(None),
            Some(Read::Batch(coords)) => Ok(Some(PointBatch::from_flat(2, coords).unwrap())),
            Some(Read::Fails(line)) => Err(read_error(line)),
        }
    }
    fn reset(&mut self) -> Result<(), DataIoError> {
        if self.reset_fails {
            return Err(read_error(0));
        }
        self.pass = 1;
        self.next = 0;
        Ok(())
    }
}

/// Sixty 2-D points, each alone in its cell at ε = 1, far apart along x,
/// so at every thread count above 1 the layout's shards split them and
/// early and late points are checked by different workers.
fn spread_points() -> Vec<f64> {
    (0..60)
        .flat_map(|i| [f64::from(i) * 3.0 + 0.1, 0.1])
        .collect()
}

/// `coords` cut into batches of ten points.
fn batches_of_ten(coords: &[f64]) -> Vec<Read> {
    coords.chunks(20).map(|c| Read::Batch(c.to_vec())).collect()
}

/// Runs `source`-building `make` at every thread count and requires the
/// same error, `want`, from each.
fn fails_alike(make: impl Fn() -> Scripted, want: &DbscoutError, case: &str) {
    let params = DbscoutParams::new(1.0, 3).unwrap();
    for threads in thread_counts() {
        let err = DetectorBuilder::new(params)
            .execution(ExecutionConfig::new().with_threads(threads))
            .detect_source(&mut make())
            .unwrap_err();
        assert_eq!(&err, want, "{case}, threads={threads}");
    }
}

#[test]
fn a_pass_1_read_failure_loses_to_the_errors_of_the_batches_before_it() {
    // The first batch holds a NaN at point 1 and the second read fails:
    // a sequential pass meets the NaN first, so every thread count must
    // report it, not the read error.
    let mut first = spread_points();
    first[3] = f64::NAN;
    let nan_then_fail = || Scripted {
        passes: [
            vec![Read::Batch(first[..20].to_vec()), Read::Fails(2)],
            vec![],
        ],
        reset_fails: false,
        pass: 0,
        next: 0,
    };
    fails_alike(
        nan_then_fail,
        &DbscoutError::InvalidInput(SpatialError::NonFiniteCoordinate { point: 1, dim: 1 }),
        "NaN before a failed read",
    );

    // A read failure before a bad batch is met first.
    let mut later = spread_points();
    later[45] = f64::NAN;
    let fail_then_nan = || {
        let mut pass = batches_of_ten(&later);
        pass.insert(1, Read::Fails(9));
        Scripted {
            passes: [pass, vec![]],
            reset_fails: false,
            pass: 0,
            next: 0,
        }
    };
    fails_alike(
        fail_then_nan,
        &DbscoutError::from(read_error(9)),
        "failed read before a NaN",
    );
}

#[test]
fn a_diverging_replay_fails_alike_at_every_thread_count() {
    let points = spread_points();
    let replay = |edit: &dyn Fn(&mut Vec<f64>)| {
        let mut coords = points.clone();
        edit(&mut coords);
        coords
    };
    let mismatch = DbscoutError::InvalidInput(SpatialError::StreamMismatch);
    let nan = |point: usize, dim: usize| {
        DbscoutError::InvalidInput(SpatialError::NonFiniteCoordinate { point, dim })
    };
    let cases: Vec<(&str, Vec<Read>, bool, DbscoutError)> = vec![
        (
            // Point 3 moves into point 40's counted cell; a NaN at point
            // 50, on another shard, comes later in the stream.
            "moved into another counted cell",
            batches_of_ten(&replay(&|c| {
                c[6] = c[80];
                c[101] = f64::NAN;
            })),
            false,
            mismatch.clone(),
        ),
        (
            "NaN before a moved point",
            batches_of_ten(&replay(&|c| {
                c[11] = f64::NAN;
                c[90] = c[20];
            })),
            false,
            nan(5, 1),
        ),
        (
            "yields a NaN",
            batches_of_ten(&replay(&|c| c[66] = f64::NAN)),
            false,
            nan(33, 0),
        ),
        (
            "adds a point",
            batches_of_ten(&replay(&|c| c.extend([0.1, 0.1]))),
            false,
            mismatch.clone(),
        ),
        (
            "adds a point after a NaN in its batch",
            batches_of_ten(&replay(&|c| {
                c[115] = f64::NAN;
                c.extend([0.1, 0.1]);
            })),
            false,
            nan(57, 1),
        ),
        (
            "ends one point short",
            batches_of_ten(&replay(&|c| c.truncate(118))),
            false,
            mismatch.clone(),
        ),
        (
            "a read fails in pass 2",
            {
                let mut pass = batches_of_ten(&points);
                pass.insert(3, Read::Fails(7));
                pass
            },
            false,
            DbscoutError::from(read_error(7)),
        ),
        (
            "a NaN before a failed read in pass 2",
            {
                let mut pass = batches_of_ten(&replay(&|c| c[24] = f64::NAN));
                pass.insert(3, Read::Fails(7));
                pass
            },
            false,
            nan(12, 0),
        ),
        (
            "the rewind fails",
            batches_of_ten(&points),
            true,
            DbscoutError::from(read_error(0)),
        ),
    ];
    for (case, pass2, reset_fails, want) in cases {
        let make = || Scripted {
            passes: [batches_of_ten(&points), pass2.clone()],
            reset_fails,
            pass: 0,
            next: 0,
        };
        fails_alike(make, &want, case);
    }
    // The unedited replay succeeds, so each failure above is its edit's.
    let params = DbscoutParams::new(1.0, 3).unwrap();
    let store = PointStore::from_rows(2, points.chunks(2).map(<[f64]>::to_vec)).unwrap();
    let materialized = DetectorBuilder::new(params)
        .build_native()
        .detect(&store)
        .unwrap();
    for threads in thread_counts() {
        let mut source = Scripted {
            passes: [batches_of_ten(&points), batches_of_ten(&points)],
            reset_fails: false,
            pass: 0,
            next: 0,
        };
        let streamed = DetectorBuilder::new(params)
            .execution(ExecutionConfig::new().with_threads(threads))
            .detect_source(&mut source)
            .unwrap();
        assert_identical(&streamed, &materialized, &format!("threads={threads}"));
    }
}
