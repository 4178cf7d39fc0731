//! Tracked host-performance baseline for the harness itself.
//!
//! Times fixed workloads (fixed n, p, seeds — so the work per run is
//! identical across commits) on both execution backends, plus one
//! fast-mode pass of the whole figure suite, and writes the
//! measurements to `BENCH_PR6.json` in the current directory:
//!
//! ```text
//! cargo run -p qsm-bench --bin perf_baseline --release
//! ```
//!
//! The simulated workloads keep the exact keys of the original
//! `BENCH_PR1.json` baseline; when that file (or the file named by
//! `QSM_PERF_BASELINE`) is readable, each matching workload gains
//! `baseline_ms` and `speedup` fields. The `*_threads_*` workloads
//! time the SPMD threads engine — persistent worker pool, lock-free
//! exchange — including one large-n point (`prefix` at n=10M, or 1M
//! under `QSM_FAST=1`) at heavy oversubscription (p=64).

use std::fmt::Write as _;
use std::time::Instant;

use qsm_algorithms::{gen, listrank, prefix, samplesort};
use qsm_bench::RunCfg;
use qsm_core::{Layout, Machine, SimMachine, ThreadMachine};
use qsm_simnet::MachineConfig;

const P: usize = 16;
const P_BIG: usize = 64;
const SEED: u64 = 0x51EE_D001;

/// Median wall-clock milliseconds over `reps` runs (after one warmup
/// run).
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Driver/exchange microbenchmark: many phases of dense small-block
/// traffic, so nearly all host time is spent in the sync/exchange
/// machinery rather than in user compute: the barrier-bracketed SPMD
/// exchange on both backends, plus `simulate_exchange` in the price
/// stage on the sim backend.
fn driver_phases<M: Machine>(machine: &M) {
    const PHASES: usize = 32;
    const BLOCK: usize = 64;
    machine.run(|ctx| {
        let p = ctx.nprocs();
        let me = ctx.proc_id();
        let src = ctx.register::<u32>("src", BLOCK * p, Layout::Block);
        let dst = ctx.register::<u32>("dst", BLOCK * p, Layout::Block);
        ctx.sync();
        let data = vec![me as u32; BLOCK];
        for phase in 0..PHASES {
            for peer in 0..p {
                if peer != me {
                    ctx.put(&dst, peer * BLOCK, &data);
                }
            }
            let from = (me + phase + 1) % p;
            let t = ctx.get(&src, from * BLOCK, BLOCK);
            ctx.sync();
            std::hint::black_box(ctx.take(t));
        }
    });
}

/// One fast-mode pass over every figure/table module (reports are
/// computed but not written anywhere).
fn figure_suite_fast() {
    let cfg = RunCfg { p: P, reps: 1, fast: true };
    use qsm_bench::figures::*;
    std::hint::black_box(table3::run(&cfg));
    std::hint::black_box(fig1::run(&cfg));
    std::hint::black_box(fig2::run(&cfg));
    std::hint::black_box(fig3::run(&cfg));
    std::hint::black_box(fig4::run(&cfg));
    std::hint::black_box(fig5::run(&cfg));
    std::hint::black_box(fig6::run(&cfg));
    std::hint::black_box(fig7::run(&cfg));
    std::hint::black_box(table4::run(&cfg));
    std::hint::black_box(ablations::run(&cfg));
    std::hint::black_box(ext_fabric::run(&cfg));
    std::hint::black_box(ext_straggler::run(&cfg));
    std::hint::black_box(ext_hotspot::run(&cfg));
}

/// Pull `"key": <number>` out of a prior run's JSON (flat schema
/// written by this binary; no general JSON parser needed).
fn extract_ms(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn main() {
    let fast = std::env::var("QSM_FAST").map(|v| v != "0").unwrap_or(false);
    // More reps tighten the median on noisy shared hosts;
    // QSM_PERF_REPS overrides the defaults (5 full, 2 fast).
    let reps = std::env::var("QSM_PERF_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if fast { 2 } else { 5 });
    // Comparing a QSM_FAST smoke run against a full baseline would be
    // apples to oranges; only full runs pick one up.
    let baseline = if fast {
        None
    } else {
        std::env::var("QSM_PERF_BASELINE")
            .ok()
            .and_then(|path| std::fs::read_to_string(path).ok())
            .or_else(|| std::fs::read_to_string("BENCH_PR1.json").ok())
    };

    let n_prefix = 1usize << 20;
    let n_sort = 1usize << 16;
    let n_list = 1usize << 14;
    let n_big = if fast { 1usize << 20 } else { 10_000_000 };

    let prefix_input = gen::random_u64s(n_prefix, SEED);
    let sort_input = gen::random_u32s(n_sort, SEED);
    let (succ, pred, _head) = gen::random_list(n_list, SEED);
    let big_input = gen::random_u64s(n_big, SEED);

    let cfg = MachineConfig::paper_default(P);
    let threads = ThreadMachine::new(P).with_seed(SEED);
    let threads_big = ThreadMachine::new(P_BIG).with_seed(SEED);
    let spawned_before = qsm_core::pool::spawned_workers();
    let workloads: Vec<(&str, f64)> = vec![
        (
            "prefix_p16_n1m_ms",
            time_median(reps, || {
                let m = SimMachine::new(cfg).with_seed(SEED);
                std::hint::black_box(prefix::run_sim(&m, &prefix_input));
            }),
        ),
        (
            "samplesort_p16_n64k_ms",
            time_median(reps, || {
                let m = SimMachine::new(cfg).with_seed(SEED);
                std::hint::black_box(samplesort::run_sim(&m, &sort_input));
            }),
        ),
        (
            "listrank_p16_n16k_ms",
            time_median(reps, || {
                let m = SimMachine::new(cfg).with_seed(SEED);
                std::hint::black_box(listrank::run_sim(&m, &succ, &pred));
            }),
        ),
        (
            "driver_phases_p16_ms",
            time_median(reps, || {
                driver_phases(&SimMachine::new(cfg).with_seed(SEED));
            }),
        ),
        (
            "prefix_threads_p16_n1m_ms",
            time_median(reps, || {
                std::hint::black_box(prefix::run_on(&threads, &prefix_input));
            }),
        ),
        (
            "samplesort_threads_p16_n64k_ms",
            time_median(reps, || {
                std::hint::black_box(samplesort::run_on(&threads, &sort_input));
            }),
        ),
        (
            "listrank_threads_p16_n16k_ms",
            time_median(reps, || {
                std::hint::black_box(listrank::run_on(&threads, &succ, &pred));
            }),
        ),
        (
            "driver_phases_threads_p16_ms",
            time_median(reps, || {
                driver_phases(&threads);
            }),
        ),
        (
            "prefix_threads_p64_n10m_ms",
            time_median(reps, || {
                std::hint::black_box(prefix::run_on(&threads_big, &big_input));
            }),
        ),
        ("figure_suite_fast_ms", time_median(reps.min(3), figure_suite_fast)),
    ];
    let pool_spawned = qsm_core::pool::spawned_workers() - spawned_before;

    let cores = qsm_core::pool::host_cores();
    let jobs = std::env::var("QSM_JOBS").unwrap_or_else(|_| "unset".into());
    let pinning = std::env::var("QSM_PIN").map(|v| v != "0").unwrap_or(false);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"qsm-perf-baseline-v2\",");
    let _ = writeln!(json, "  \"host_cores\": {cores},");
    let _ = writeln!(json, "  \"backend\": \"sim+threads\",");
    let _ = writeln!(json, "  \"pinning\": {pinning},");
    let _ = writeln!(json, "  \"pool_threads_spawned\": {pool_spawned},");
    let _ = writeln!(json, "  \"qsm_jobs\": \"{jobs}\",");
    let _ = writeln!(json, "  \"fast\": {fast},");
    let _ = writeln!(json, "  \"reps_per_workload\": {reps},");
    json.push_str("  \"workloads\": {\n");
    for (i, (key, ms)) in workloads.iter().enumerate() {
        let comma = if i + 1 == workloads.len() { "" } else { "," };
        match baseline.as_deref().and_then(|b| extract_ms(b, key)) {
            Some(base_ms) if *ms > 0.0 => {
                let _ = writeln!(
                    json,
                    "    \"{key}\": {ms:.2}, \"{}_baseline_ms\": {base_ms:.2}, \"{}_speedup\": {:.3}{comma}",
                    key.trim_end_matches("_ms"),
                    key.trim_end_matches("_ms"),
                    base_ms / ms
                );
            }
            _ => {
                let _ = writeln!(json, "    \"{key}\": {ms:.2}{comma}");
            }
        }
        println!("{key:<32} {ms:>10.2} ms");
    }
    json.push_str("  }\n}\n");

    match std::fs::write("BENCH_PR6.json", &json) {
        Ok(()) => println!("\n[written to BENCH_PR6.json]"),
        Err(e) => eprintln!("warning: cannot write BENCH_PR6.json: {e}"),
    }
}
