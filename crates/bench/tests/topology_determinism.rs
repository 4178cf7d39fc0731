//! The routed-fabric extension must be as deterministic as the flat
//! wire: `ext_topology`'s CSV must be byte-identical whatever
//! `QSM_JOBS` is set to, and repeat runs must replay the same
//! simulated cycle counts exactly — link queues, multi-hop routes,
//! and per-link counters included. The metrics registry rides along:
//! its link counters are commutative sums, so the JSON dump must not
//! depend on worker count or completion order either.
//!
//! This file contains exactly one `#[test]` on purpose: it mutates
//! process-wide `QSM_*` variables and installs the
//! process-global metrics recorder, and a sibling test running
//! concurrently in the same binary could observe either.

use qsm_bench::backend::Backend;
use qsm_bench::figures::ext_topology;
use qsm_bench::RunCfg;
use qsm_core::obs::{self, ObsLevel, Recorder};
use qsm_core::{Ctx, Layout, Machine, PhaseRecord, SimMachine};
use qsm_simnet::MachineConfig;

/// One registration phase, then every processor puts 64 words into
/// its right neighbour's block: inter-node traffic for a fabric to
/// price.
fn put_phases<M: Machine>(machine: &M) -> Vec<PhaseRecord> {
    let run = machine.run(|ctx: &mut Ctx| {
        let p = ctx.nprocs();
        let arr = ctx.register::<u32>("ring", 64 * p, Layout::Block);
        ctx.sync();
        ctx.put(&arr, 64 * ((ctx.proc_id() + 1) % p), &[7u32; 64]);
        ctx.sync();
    });
    run.phases
}

/// `QSM_TOPOLOGY` fills in a topology only where the config chose
/// none: a `with_fabric` config keeps its one shared link, a plain
/// config gets the routed line.
fn env_topology_yields_to_a_fabric_config() {
    std::env::set_var("QSM_TOPOLOGY", "line");
    let fabric = MachineConfig::paper_default(16).with_fabric(3.0);
    assert_eq!(
        put_phases(&Backend::Sim.machine(fabric, 5)),
        put_phases(&SimMachine::new(fabric).with_seed(5)),
        "a config that chose its own fabric wins over QSM_TOPOLOGY"
    );
    let plain = MachineConfig::paper_default(16);
    assert_ne!(
        put_phases(&Backend::Sim.machine(plain, 5)),
        put_phases(&SimMachine::new(plain).with_seed(5)),
        "QSM_TOPOLOGY=line must still route a config that chose no topology"
    );
    std::env::remove_var("QSM_TOPOLOGY");
}

#[test]
fn ext_topology_is_byte_identical_across_job_counts_and_runs() {
    let cfg = RunCfg::fast();

    // The figure reads QSM_LINK_GAP (and the run journal reads
    // QSM_TOPOLOGY); pin both to their defaults so an ambient setting
    // can't change what "identical" means here.
    std::env::remove_var("QSM_LINK_GAP");
    std::env::remove_var("QSM_TOPOLOGY");

    assert!(obs::install(Recorder::new(ObsLevel::Metrics, 400e6)));
    let rec = obs::recorder();
    let drain = || rec.take_metrics_json().expect("recorder is installed");

    std::env::set_var("QSM_JOBS", "1");
    let serial = ext_topology::run(&cfg);
    let serial_metrics = drain();

    std::env::set_var("QSM_JOBS", "4");
    let parallel = ext_topology::run(&cfg);
    let parallel_metrics = drain();
    let parallel_again = ext_topology::run(&cfg);
    let parallel_again_metrics = drain();
    std::env::remove_var("QSM_JOBS");

    assert_eq!(
        serial.csv, parallel.csv,
        "QSM_JOBS=4 must produce the byte-identical CSV of a serial run"
    );
    assert_eq!(serial.text, parallel.text);
    assert_eq!(
        parallel.csv, parallel_again.csv,
        "repeat parallel runs must replay simulated cycles (and link queues) exactly"
    );

    // The routed rows actually exercised the link stage, and its
    // metrics are as order-blind as the rest of the registry.
    assert!(
        serial_metrics.contains("\"link_fwd_msgs\""),
        "link counters missing from the metrics dump:\n{serial_metrics}"
    );
    assert!(serial_metrics.contains("\"link_wait_cycles\""));
    assert_eq!(
        serial_metrics, parallel_metrics,
        "metrics JSON must be byte-identical across QSM_JOBS"
    );
    assert_eq!(
        parallel_metrics, parallel_again_metrics,
        "repeat runs must replay the metrics registry exactly"
    );

    env_topology_yields_to_a_fabric_config();
}
