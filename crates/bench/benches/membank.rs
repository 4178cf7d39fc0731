//! Criterion bench of the memory-bank study's native (real atomics)
//! microbenchmark across patterns. The bank-queue simulator's host
//! cost is the repo benchmark's `membank.sim_ns_per_access`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qsm_membank::{run_native, Pattern};

fn bench_native_patterns(c: &mut Criterion) {
    let mut g = c.benchmark_group("membank_native");
    g.sample_size(10);
    let accesses = 100_000;
    g.throughput(Throughput::Elements(accesses as u64));
    for pat in Pattern::all() {
        g.bench_function(BenchmarkId::new("4threads_8banks", pat.label()), |b| {
            b.iter(|| run_native(4, 8, pat, accesses))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_native_patterns);
criterion_main!(benches);
