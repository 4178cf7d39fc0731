//! What a kernel-sized run costs the host beside time: minor page
//! faults and resident memory, per kernel and backend, at the sizes
//! and in the order the repo benchmark's `bsp_kernels` workload runs
//! them (sim p = 16, then threads p = 4; a warm-up round, then two).
//!
//! ```text
//! cargo run --release --example kernel_faults
//! ```
//!
//! A run at these sizes is as much a test of the allocator as of this
//! code: when a kernel's time moves and its code did not, read its
//! fault count here before believing the time. In steady state
//! `prefix` takes one fault a page of its 64 MiB output (16 385; the
//! workers take them, `collectives::Gather`) and `samplesort` and
//! `listrank` take none. Linux only: elsewhere the two counters print
//! as `-`.

use std::time::Instant;

use qsm::algorithms::{gen, listrank, prefix, samplesort, seq};
use qsm::core::{Machine, SimMachine, ThreadMachine};
use qsm::simnet::MachineConfig;

/// Minor faults of this process so far: field 10 of `/proc/self/stat`.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2 (the command, in parentheses) may hold spaces: count
    // from the state field that follows it, field 3.
    let after_comm = stat.rsplit_once(')')?.1;
    after_comm.split_whitespace().nth(10 - 3)?.parse().ok()
}

/// Resident set in MiB: `VmRSS` of `/proc/self/status`.
fn rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

fn or_dash<T: ToString>(v: Option<T>) -> String {
    v.map_or_else(|| "-".into(), |v| v.to_string())
}

/// Time `run`, count its faults, and hold its output to the oracle.
fn measure<T: PartialEq>(
    round: usize,
    kernel: &str,
    backend: &str,
    want: &[T],
    run: impl FnOnce() -> Vec<T>,
) {
    let faults = minor_faults();
    let start = Instant::now();
    let got = run();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let faults = minor_faults().zip(faults).map(|(after, before)| after - before);
    assert!(got == want, "{kernel} on {backend} differs from the sequential oracle");
    println!(
        "{round:>5} {kernel:<11} {backend:<8} {ms:>9.1} {:>13} {:>9}",
        or_dash(faults),
        or_dash(rss_mib().map(|m| format!("{m:.1}")))
    );
}

fn kernels<M: Machine>(round: usize, backend: &str, m: &M, inputs: &Inputs) {
    measure(round, "prefix", backend, &inputs.want_prefix, || {
        prefix::run_on(m, &inputs.prefix).output
    });
    measure(round, "samplesort", backend, &inputs.want_sorted, || {
        samplesort::run_on(m, &inputs.sort).output
    });
    measure(round, "listrank", backend, &inputs.want_ranks, || {
        listrank::run_on(m, &inputs.succ, &inputs.pred).ranks
    });
}

struct Inputs {
    prefix: Vec<u64>,
    sort: Vec<u32>,
    succ: Vec<u64>,
    pred: Vec<u64>,
    want_prefix: Vec<u64>,
    want_sorted: Vec<u32>,
    want_ranks: Vec<u64>,
}

fn main() {
    const SEED: u64 = 7;
    let prefix = gen::random_u64s(1 << 23, SEED);
    let sort = gen::random_u32s(1 << 22, SEED);
    let (succ, pred, head) = gen::random_list(1 << 16, SEED);
    let inputs = Inputs {
        want_prefix: seq::prefix_sums(&prefix),
        want_sorted: seq::sorted(&sort),
        want_ranks: seq::list_ranks(&succ, head),
        prefix,
        sort,
        succ,
        pred,
    };
    let sim = SimMachine::new(MachineConfig::paper_default(16)).with_seed(SEED);
    let threads = ThreadMachine::new(4).with_seed(SEED);

    println!("round 0 is the warm-up: workers spawn and the allocator's arenas grow in it\n");
    println!(
        "{:>5} {:<11} {:<8} {:>9} {:>13} {:>9}",
        "round", "kernel", "backend", "ms", "minor faults", "RSS MiB"
    );
    for round in 0..=2 {
        kernels(round, "sim", &sim, &inputs);
        kernels(round, "threads", &threads, &inputs);
    }
}
