//! Probes of layers that cannot be seen from outside a pass: the
//! primitives under `qsm_serve::run` and `Machine::run`, called
//! directly on the same p, `NetConfig` and message sizes the
//! workloads use, and priced per operation. The traced run turns
//! them into shares of a pass by multiplying with the pass's
//! operation counts.

use std::time::Instant;

use crate::adapter::{self, EventQueueProbe, NetProbe, NET_PROBES};
use crate::alloc;
use crate::run::{out_dir, Runtime};
use crate::stats::median;
use crate::workloads::serve_reads_p256;

/// Time `f` `reps` times and return the median in ns per operation,
/// `ops` being the operations one call performs.
fn ns_per_op(reps: usize, ops: u64, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times) * 1e9 / ops as f64
}

/// Run every probe, recording each as a span and its result as a
/// sample. A smoke run times each probe once.
pub fn run(rt: &mut Runtime, seed: u64, smoke: bool) {
    let reps = if smoke { 1 } else { 3 };
    simnet(rt, seed, reps);
    obs(rt, reps);
    core(rt, seed, if smoke { 20 } else { 200 });
    serve(rt, seed);
    rt.span("membank.probe_simulate", |rt| {
        let mut accesses = 0;
        let ns = ns_per_op(reps, 1, || accesses = adapter::membank_simulate(20_000, seed));
        rt.sample("membank.sim_ns_per_access", ns / accesses as f64);
    });
}

fn simnet(rt: &mut Runtime, seed: u64, reps: usize) {
    for name in NET_PROBES {
        rt.span(&format!("simnet.probe_{name}"), |rt| {
            let mut probe = NetProbe::new(name, seed);
            // Enough batches per timing that the small machine's
            // 240-message batch is not lost in clock granularity.
            let batches = (65_536 / probe.messages()).max(1);
            let msgs = (batches * probe.messages()) as u64;
            probe.batch();
            let batch = ns_per_op(reps, msgs, || (0..batches).for_each(|_| probe.batch()));
            rt.sample(&format!("simnet.batch_ns_per_msg.{name}"), batch);
            if name == "flat_p256" {
                let ((), allocs) = alloc::count(|| probe.batch());
                rt.sample("simnet.allocs_per_batch", allocs as f64);
            }
            let single = ns_per_op(reps, msgs, || (0..batches).for_each(|_| probe.singles()));
            rt.sample(&format!("simnet.single_ns_per_msg.{name}"), single);
        });
    }
    rt.span("simnet.probe_fifo_serve", |rt| {
        let calls = 1_000_000;
        let ns = ns_per_op(reps, calls, || {
            adapter::fifo_serve(calls);
        });
        rt.sample("simnet.fifo_serve_ns", ns);
    });
    for (label, pending, pairs) in [("1k", 1_000, 1_000_000), ("1m", 1_000_000, 200_000)] {
        rt.span(&format!("simnet.probe_eventq_{label}"), |rt| {
            let mut queue = EventQueueProbe::new(pending);
            let ns = ns_per_op(reps, pairs, || queue.churn(pairs));
            rt.sample(&format!("simnet.eventq_ns_per_op_{label}"), ns);
        });
    }
}

fn obs(rt: &mut Runtime, reps: usize) {
    let calls = 1_000_000;
    rt.span("obs.probe_histogram", |rt| {
        let ns = ns_per_op(reps, calls, || {
            adapter::histogram_observe(calls);
        });
        rt.sample("obs.histogram_observe_ns", ns);
    });
    for (label, metrics) in [("off", false), ("metrics", true)] {
        rt.span(&format!("obs.probe_recorder_{label}"), |rt| {
            let ns = ns_per_op(reps, calls, || adapter::recorder_observe(calls, metrics));
            rt.sample(&format!("obs.recorder_observe_ns_{label}"), ns);
        });
    }
    // fsync is slow and noisy: few records, and informational only.
    for (label, sync, records) in [("nosync", false, 2_000), ("sync", true, 50)] {
        rt.span(&format!("obs.probe_journal_{label}"), |rt| {
            let path = out_dir().join(format!("journal_probe_{}.jsonl", std::process::id()));
            let ns = ns_per_op(1, records, || {
                std::fs::create_dir_all(out_dir())
                    .and_then(|()| adapter::journal_append(&path, sync, records))
                    .unwrap_or_else(|e| panic!("journal probe at {}: {e}", path.display()));
            });
            let _ = std::fs::remove_file(&path);
            rt.sample(&format!("obs.journal_append_us_{label}"), ns / 1e3);
        });
    }
}

/// The fixed cost of `Machine::run`: a program of one `sync`.
fn core(rt: &mut Runtime, seed: u64, runs: usize) {
    rt.span("core.probe_sim_run_overhead", |rt| {
        let machine = adapter::sim_machine(16, seed);
        let ns = ns_per_op(runs, 1, || {
            adapter::empty_run(&machine);
        });
        rt.sample("core.sim_run_overhead_us", ns / 1e3);
    });
    rt.span("core.probe_threads_run_overhead", |rt| {
        let machine = adapter::thread_machine(4, seed);
        let ns = ns_per_op(runs, 1, || {
            adapter::empty_run(&machine);
        });
        rt.sample("core.threads_run_overhead_us", ns / 1e3);
    });
}

/// The p = 256 leg of `serve_reads` again, for what cannot be read
/// off its pass: the arrival derivation alone, and the whole leg with
/// a metrics recorder installed.
fn serve(rt: &mut Runtime, seed: u64) {
    let points = serve_reads_p256(seed);
    rt.span("serve.probe_arrival", |rt| {
        let offered: u64 = points.iter().map(|cfg| cfg.offered as u64).sum();
        let ns = ns_per_op(3, offered, || {
            points.iter().for_each(|cfg| {
                std::hint::black_box(adapter::derive_arrivals(cfg));
            })
        });
        rt.sample("serve.arrival_ns_per_txn", ns);
    });
    // The engine pushes a load point's arrivals up front, so its queue
    // is about as deep as the point offers transactions: price the
    // queue at that depth rather than at a round number.
    rt.span("serve.probe_eventq", |rt| {
        let pending = points.iter().map(|cfg| cfg.offered as u64).max().unwrap_or(1);
        let mut queue = EventQueueProbe::new(pending);
        let pairs = 200_000;
        let ns = ns_per_op(3, pairs, || queue.churn(pairs));
        rt.sample("_serve.p256_eventq_ns", ns);
    });
    rt.span("serve.probe_recorder_metrics", |rt| {
        let start = Instant::now();
        points.iter().for_each(|cfg| {
            std::hint::black_box(adapter::serve_with_metrics(cfg));
        });
        rt.sample("_serve.p256_metrics_s", start.elapsed().as_secs_f64());
    });
}
