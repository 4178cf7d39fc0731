//! A thousand simulated processors do not need a thousand threads: a
//! run's processors are fibers of one carrier thread a host core, so
//! p = 1024 finishes in seconds and adds at most `host_cores()` threads
//! to the process. (With a thread per processor this run held 1025
//! threads, spent five times its user time in the scheduler and was
//! killed after a minute.)
//!
//! An integration test so that it owns its process: it counts the
//! process's threads.

use qsm_algorithms::{gen, prefix, seq};
use qsm_core::{pool, SimMachine};
use qsm_simnet::MachineConfig;

/// `Threads:` of `/proc/self/status`; `None` off Linux.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:"))?.trim().parse().ok()
}

#[test]
fn prefix_on_1024_processors_runs_on_a_carrier_a_core() {
    const P: usize = 1024;
    let input = gen::random_u64s(1 << 16, 7);
    let m = SimMachine::new(MachineConfig::paper_default(P));
    let before = threads();
    let run = prefix::run_on(&m, &input);
    assert_eq!(run.output, seq::prefix_sums(&input));
    // Where a thread cannot host several processors, it takes p.
    let hosts = cfg!(all(target_arch = "x86_64", target_os = "linux"));
    if let (true, Some(before), Some(after)) = (hosts, before, threads()) {
        let added = after - before;
        assert!(added <= pool::host_cores(), "{P} processors added {added} threads");
    }
}
