// Bench targets are exempt from the panic-freedom policy (see DESIGN.md).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

//! Thread-and-kernel scaling grid: 1/2/4/8 in-process threads ×
//! {materialized, streaming} cell-major × {scalar, unrolled} distance
//! kernels, all on the same uniform 2-D workload. Labels and
//! kernel-counter totals are identical across every cell of the grid
//! (see `kernel_equivalence.rs`); only wall-clock differs. The streaming rows drive `detect_source` through
//! a [`StoreSource`], so they time the parallel two-pass builder as
//! well as the phase kernels.
//!
//! Full size is 200k points; under `--test` (CI smoke) it drops to 5k
//! and the thread ladder to {1, 2} so the target finishes in seconds.

use dbscout_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbscout_bench::workloads;
use dbscout_core::{Dbscout, DbscoutParams, KernelKind};
use dbscout_data::StoreSource;

const STREAM_BATCH: usize = 4096;

fn bench_scaling(c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let n = if test_mode { 5_000 } else { 200_000 };
    let threads: &[usize] = if test_mode { &[1, 2] } else { &[1, 2, 4, 8] };
    let store = workloads::uniform2d(n, 0xCE11);
    let params = DbscoutParams::new(workloads::UNIFORM2D_EPS, workloads::UNIFORM2D_MIN_PTS)
        .expect("valid params");

    let mut g = c.benchmark_group(&format!("scaling_uniform2d_{n}"));
    g.sample_size(5);
    for &t in threads {
        for kernel in [KernelKind::Scalar, KernelKind::Unrolled] {
            for mode in ["cell_major", "streaming"] {
                g.bench_with_input(
                    BenchmarkId::new(format!("{mode}/{}", kernel.as_str()), format!("t{t}")),
                    &(t, kernel, mode),
                    |b, &(t, kernel, mode)| {
                        b.iter(|| {
                            let d = Dbscout::new(params).with_kernel(kernel).with_threads(t);
                            match mode {
                                "cell_major" => d.detect(&store).expect("run"),
                                _ => {
                                    let mut src = StoreSource::new(&store, STREAM_BATCH);
                                    d.detect_source(&mut src).expect("run")
                                }
                            }
                        })
                    },
                );
            }
        }
    }
    g.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
