// Bench targets are exempt from the panic-freedom policy (see DESIGN.md).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

//! Criterion microbenchmarks of DBSCOUT's five phases and end-to-end
//! native detection (the per-phase costs behind Lemmas 4–8).

use dbscout_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbscout_bench::workloads;
use dbscout_core::{Dbscout, DbscoutParams};
use dbscout_spatial::Grid;

fn bench_phases(c: &mut Criterion) {
    let store = workloads::osm(50_000);
    let params =
        DbscoutParams::new(workloads::OSM_EPS_CENTRAL, workloads::MIN_PTS).expect("valid params");

    let mut g = c.benchmark_group("phases");
    g.sample_size(10);

    g.bench_function("grid_build", |b| {
        b.iter(|| Grid::build(&store, params.eps()).expect("valid eps"))
    });

    g.bench_function("native_detect_total", |b| {
        b.iter(|| Dbscout::new(params).detect(&store).expect("run"))
    });

    // Linearity probe: detection time at three sizes (shape check — the
    // full sweep is the table2_fig10 binary).
    for n in [12_500usize, 25_000, 50_000] {
        let sub = workloads::osm(n);
        g.bench_with_input(BenchmarkId::new("native_detect_n", n), &sub, |b, s| {
            b.iter(|| Dbscout::new(params).detect(s).expect("run"))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_phases);
criterion_main!(benches);
