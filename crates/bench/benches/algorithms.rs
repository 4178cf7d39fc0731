//! Criterion benches of the two extra kernels on the *native* thread
//! machine (real parallel execution) against their sequential
//! baselines — the "is the parallel code actually worth running"
//! sanity check. The three paper kernels are timed by the repo
//! benchmark instead (`algorithms.*_threads_s`, `algorithms.seq_*_s`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qsm_algorithms::matmul::Matrix;
use qsm_algorithms::{gen, histogram, matmul};
use qsm_core::ThreadMachine;

const N: usize = 1 << 16;

fn bench_histogram(c: &mut Criterion) {
    let mut g = c.benchmark_group("histogram");
    g.sample_size(20);
    g.throughput(Throughput::Elements(N as u64));
    let input = gen::random_u32s(N, 4);
    g.bench_function(BenchmarkId::new("sequential", N), |b| {
        b.iter(|| histogram::histogram_seq(std::hint::black_box(&input), 256))
    });
    let machine = ThreadMachine::new(4);
    g.bench_function(BenchmarkId::new("qsm_threads_p4", N), |b| {
        b.iter(|| histogram::run_on(std::hint::black_box(&machine), &input, 256))
    });
    g.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    g.sample_size(10);
    let n = 96;
    g.throughput(Throughput::Elements((n * n * n) as u64));
    let a = Matrix::random(n, 5);
    let b_mat = Matrix::random(n, 6);
    g.bench_function(BenchmarkId::new("sequential", n), |b| {
        b.iter(|| matmul::matmul_seq(std::hint::black_box(&a), &b_mat))
    });
    let machine = ThreadMachine::new(4);
    g.bench_function(BenchmarkId::new("qsm_threads_p4", n), |b| {
        b.iter(|| matmul::run_on(std::hint::black_box(&machine), &a, &b_mat))
    });
    g.finish();
}

criterion_group!(benches, bench_histogram, bench_matmul);
criterion_main!(benches);
