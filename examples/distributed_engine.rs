//! The distributed engine up close: run the paper's Spark-style
//! formulation on the bundled dataflow substrate, compare the §III-G join
//! strategies, and inspect what actually moved through the shuffle.
//!
//! Run: `cargo run --release --example distributed_engine`

// Examples favor brevity: panicking on setup failure is the right
// behavior for demo binaries.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

use dbscout::core::{DbscoutParams, DistributedDbscout, JoinStrategy};
use dbscout::data::generators::osm_like;
use dbscout::dataflow::ExecutionContext;

fn main() {
    let store = osm_like(100_000, 3);
    let params = DbscoutParams::new(500_000.0, 100).expect("valid parameters");
    println!(
        "OSM-like dataset: {} points; eps = {}, minPts = {}\n",
        store.len(),
        params.eps(),
        params.min_pts()
    );

    let mut reference: Option<Vec<u32>> = None;
    for strategy in [
        JoinStrategy::Shuffle,
        JoinStrategy::GroupedShuffle,
        JoinStrategy::Broadcast,
    ] {
        let ctx = ExecutionContext::builder().default_partitions(16).build();
        let before = ctx.metrics().snapshot();
        let t = std::time::Instant::now();
        let result = DistributedDbscout::new(ctx.clone(), params)
            .with_strategy(strategy)
            .detect(&store)
            .expect("detection succeeds");
        let elapsed = t.elapsed();
        let m = ctx.metrics().snapshot().since(&before);

        println!("{strategy:?}:");
        println!(
            "  {} outliers in {elapsed:?} ({} distance computations)",
            result.num_outliers(),
            result.stats.distance_computations
        );
        println!(
            "  engine: {} stages, {} tasks, {} records shuffled, {} join outputs, {} broadcasts",
            m.stages, m.tasks, m.shuffle_records, m.join_output_records, m.broadcasts
        );

        // Exactness holds regardless of strategy.
        match &reference {
            None => reference = Some(result.outliers.clone()),
            Some(r) => assert_eq!(&result.outliers, r, "strategies must agree"),
        }
        println!();
    }
    println!("all three strategies returned identical outlier sets ✓");
}
