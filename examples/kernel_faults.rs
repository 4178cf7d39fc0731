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
//! fault count here before believing the time. `peak MiB` is the
//! process's resident high-water mark during the run alone (`VmHWM`,
//! reset before it), so the benchmark's `peak_rss_mb` traces to one
//! kernel. `huge MiB` is the process's `AnonHugePages`
//! (`/proc/self/smaps_rollup`) while the run's output is still held,
//! and the header line prints the host's transparent huge page mode.
//!
//! In steady state (rounds 1–2, two-core x86-64 host, mode `madvise`)
//! `prefix` takes 544 faults a run, the workers' (`collectives::Gather`):
//! its 64 MiB output is advised onto 2 MiB pages
//! (`qsm_core::zeroed_output`), so 31 faults map 62 MiB (`huge MiB`
//! 62.0) and the rest are its unaligned head and tail. Under mode
//! `never` it takes one a 4 KiB page, 16 385, and `huge MiB` reads 0.
//! It sets the peak, 318.5 MiB. `samplesort` takes up to 1 k faults in
//! round 1 and under 100 in round 2, `listrank` none. Linux only:
//! elsewhere the counters print as `-`.

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

/// Reset this process's resident high-water mark, `VmHWM`, to its
/// resident set now; false where the kernel does not offer that.
fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The host's transparent huge page mode, the bracketed word of
/// `always [madvise] never`.
fn thp_mode() -> Option<String> {
    let modes = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").ok()?;
    Some(modes.split_once('[')?.1.split_once(']')?.0.to_string())
}

/// A line of a `/proc/self` file, such as `VmRSS:` of `status`, in MiB.
fn proc_mib(file: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/self/{file}")).ok()?;
    let kib: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix(field))?
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
    let reset = reset_peak();
    let faults = minor_faults();
    let start = Instant::now();
    let got = run();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let faults = minor_faults().zip(faults).map(|(after, before)| after - before);
    let peak = if reset { proc_mib("status", "VmHWM:") } else { None };
    let huge = proc_mib("smaps_rollup", "AnonHugePages:");
    assert!(got == want, "{kernel} on {backend} differs from the sequential oracle");
    let mib = |m: Option<f64>| or_dash(m.map(|m| format!("{m:.1}")));
    println!(
        "{round:>5} {kernel:<11} {backend:<8} {ms:>9.1} {:>13} {:>9} {:>9} {:>9}",
        or_dash(faults),
        mib(peak),
        mib(proc_mib("status", "VmRSS:")),
        mib(huge)
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

    println!("round 0 is the warm-up: workers spawn and the allocator's arenas grow in it");
    println!("transparent huge pages: {}\n", or_dash(thp_mode()));
    println!(
        "{:>5} {:<11} {:<8} {:>9} {:>13} {:>9} {:>9} {:>9}",
        "round", "kernel", "backend", "ms", "minor faults", "peak MiB", "RSS MiB", "huge MiB"
    );
    for round in 0..=2 {
        kernels(round, "sim", &sim, &inputs);
        kernels(round, "threads", &threads, &inputs);
    }
}
