//! Criterion benches of the runtime/simulator machinery itself, for
//! what no per-layer probe of the repo benchmark (`benchmark/`) times:
//! the simulated dissemination barrier, a streamed put phase, and one
//! uncached calibration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qsm_core::{EffectiveCosts, Layout, SimMachine};
use qsm_simnet::barrier::{BarrierModel, DisseminationBarrier};
use qsm_simnet::{Cycles, MachineConfig, Network};

fn bench_barrier(c: &mut Criterion) {
    c.bench_function("simnet_dissemination_barrier_p64", |b| {
        let cfg = MachineConfig::paper_default(64);
        let enter = vec![Cycles::ZERO; 64];
        b.iter(|| {
            let mut net = Network::new(64, cfg.net);
            DisseminationBarrier.run(&mut net, &cfg.sw, std::hint::black_box(&enter))
        })
    });
}

fn bench_put_stream(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_machine_put_stream");
    g.sample_size(20);
    for words in [1_000usize, 10_000] {
        g.throughput(Throughput::Elements(words as u64));
        g.bench_function(BenchmarkId::new("p8", words), |b| {
            let machine = SimMachine::new(MachineConfig::paper_default(8));
            b.iter(|| {
                machine.run(|ctx| {
                    let p = ctx.nprocs();
                    let arr = ctx.register::<u32>("stream", words * p, Layout::Block);
                    ctx.sync();
                    let dst = (ctx.proc_id() + 1) % p;
                    let base = ctx.local_range(&arr).len() * dst;
                    let data = vec![7u32; words / 4];
                    ctx.put(&arr, base, std::hint::black_box(&data));
                    ctx.sync();
                })
            })
        });
    }
    g.finish();
}

fn bench_calibration(c: &mut Criterion) {
    c.bench_function("calibrate_effective_costs_p8", |b| {
        let cfg = MachineConfig::paper_default(8);
        // The uncached entry: `measure_with` would time a memo hit.
        b.iter(|| EffectiveCosts::measure_uncached(std::hint::black_box(cfg), 1024))
    });
}

criterion_group!(benches, bench_barrier, bench_put_stream, bench_calibration);
criterion_main!(benches);
