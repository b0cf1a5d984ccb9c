// Bench targets are exempt from the panic-freedom policy (see DESIGN.md).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

//! Warm-state throughput of the incremental engine on the uniform 2-D
//! workload:
//!
//! * `bulk_load` — building the warm state from a cold store (one
//!   insert per point; the one-shot batch engine stays the fast path
//!   for cold detection);
//! * `churn1k` — 1000 (insert new point, remove random live point)
//!   pairs against the warm state, the steady serving mix;
//! * `probe` and `outliers` — single warm `dbscout serve` queries,
//!   sampled individually so p50/p95/p99 are per-query latencies.
//!
//! minPts is deliberately lower than the batch uniform-2d benchmarks
//! (10 vs 50) so the expected ε-neighborhood size (~8 at 100k points)
//! straddles the core threshold and every churn step can flip labels.
//!
//! Full size is 100k points; under `--test` (CI smoke) it drops to 2k
//! so the target finishes in seconds.

use dbscout_bench::harness::{criterion_group, criterion_main, Criterion};
use dbscout_bench::workloads;
use dbscout_core::{DbscoutParams, IncrementalDbscout};
use dbscout_rng::Rng;
use dbscout_spatial::PointStore;

const EPS: f64 = workloads::UNIFORM2D_EPS;
const MIN_PTS: usize = 10;
const SEED: u64 = 0x1C2;

fn warm(store: &PointStore) -> IncrementalDbscout {
    let params = DbscoutParams::new(EPS, MIN_PTS).expect("valid params");
    IncrementalDbscout::from_store(store, params).expect("warm load succeeds")
}

fn random_point(rng: &mut Rng) -> [f64; 2] {
    [
        rng.gen_range(0.0..workloads::UNIFORM2D_SIDE),
        rng.gen_range(0.0..workloads::UNIFORM2D_SIDE),
    ]
}

fn bench_incremental(c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let n = if test_mode { 2_000 } else { 100_000 };
    let store = workloads::uniform2d(n, SEED);

    let mut g = c.benchmark_group(&format!("incremental_uniform2d_{n}"));
    g.sample_size(10);
    g.bench_function("bulk_load", |b| b.iter(|| warm(&store)));
    let mut inc = warm(&store);
    let mut alive: Vec<u32> = (0..n as u32).collect();
    let mut rng = Rng::seed_from_u64(SEED ^ 0xC4);
    g.bench_function("churn1k", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                let p = random_point(&mut rng);
                alive.push(inc.insert(&p).expect("finite point"));
                let id = alive.swap_remove(rng.gen_range(0..alive.len()));
                inc.remove(id);
            }
            inc.len()
        })
    });
    g.finish();

    // Per-query serve latency: one warm query per sample, so the
    // reported p50/p95/p99 are individual query latencies.
    let mut g = c.benchmark_group(&format!("serve_query_uniform2d_{n}"));
    g.sample_size(if test_mode { 1 } else { 200 });
    let mut inc = warm(&store);
    let mut rng = Rng::seed_from_u64(SEED ^ 0x9B);
    g.bench_function("probe", |b| {
        b.iter(|| {
            let p = random_point(&mut rng);
            inc.probe(&p).expect("finite point")
        })
    });
    g.bench_function("outliers", |b| b.iter(|| inc.outliers().len()));
    g.finish();
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
