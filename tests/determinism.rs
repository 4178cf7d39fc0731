//! Reproducibility: a simulated run is a pure function of
//! (machine config, seed, input) — outputs, phase profiles, and
//! every simulated cycle count must be bit-identical across runs,
//! regardless of host thread scheduling.

use qsm::algorithms::{gen, listrank, samplesort};
use qsm::core::SimMachine;
use qsm::simnet::MachineConfig;

#[test]
fn samplesort_runs_are_bit_identical() {
    let input = gen::random_u32s(4096, 11);
    let go = || {
        let m = SimMachine::new(MachineConfig::paper_default(8)).with_seed(99);
        let r = samplesort::run_on(&m, &input);
        (r.output.clone(), r.b_max, r.comm(), r.run.profile.clone())
    };
    let a = go();
    let b = go();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2, "simulated cycle counts must be exactly reproducible");
    assert_eq!(a.3, b.3);
}

#[test]
fn listrank_runs_are_bit_identical() {
    let (succ, pred, _) = gen::random_list(2048, 12);
    let go = || {
        let m = SimMachine::new(MachineConfig::paper_default(8)).with_seed(7);
        let r = listrank::run_on(&m, &succ, &pred);
        (r.ranks.clone(), r.survivors, r.comm())
    };
    assert_eq!(go(), go());
}

#[test]
fn different_seeds_change_randomized_behavior_not_results() {
    let input = gen::random_u32s(4096, 13);
    let run = |seed| {
        let m = SimMachine::new(MachineConfig::paper_default(8)).with_seed(seed);
        samplesort::run_on(&m, &input)
    };
    let a = run(1);
    let b = run(2);
    // Same sorted output ...
    assert_eq!(a.output, b.output);
    // ... but different random samples -> (almost surely) different
    // load balance and timing.
    assert!(
        a.b_max != b.b_max || a.comm() != b.comm(),
        "different seeds should perturb the randomized algorithm"
    );
}

#[test]
fn machine_clock_is_deterministic_under_load() {
    // A heavily communicating program with many phases: the total
    // simulated time must replay exactly.
    let go = || {
        let m = SimMachine::new(MachineConfig::paper_default(16));
        let run = m.run(|ctx| {
            let arr = ctx.register::<u64>("grid", 16 * 64, qsm::core::Layout::Block);
            ctx.sync();
            for round in 0..10u64 {
                let dst = (ctx.proc_id() + round as usize + 1) % ctx.nprocs();
                let vals = vec![round; 8];
                ctx.put(&arr, dst * 64 + (ctx.proc_id() % 8) * 8, &vals);
                ctx.sync();
            }
        });
        run.report.measured_total
    };
    assert_eq!(go(), go());
}
