//! Cross-crate correctness: every algorithm must reproduce its
//! sequential oracle bit-for-bit, on both machines, across processor
//! counts and problem shapes. All runs go through the shared generic
//! [`Machine`] harness — the simulated and native backends execute
//! the identical pipeline and must produce identical outputs for the
//! same program and seed.

use qsm::algorithms::{gen, listrank, prefix, samplesort, seq};
use qsm::core::{AnyMachine, Machine, SimMachine, ThreadMachine};
use qsm::simnet::MachineConfig;

fn sim(p: usize) -> SimMachine {
    SimMachine::new(MachineConfig::paper_default(p))
}

/// Both backends at `p` processors, behind the same [`Machine`] API.
fn machines(p: usize) -> [AnyMachine; 2] {
    [AnyMachine::from(sim(p)), AnyMachine::from(ThreadMachine::new(p))]
}

#[test]
fn prefix_matches_oracle_across_processor_counts() {
    let input = gen::random_u64s(3000, 1);
    let oracle = seq::prefix_sums(&input);
    for p in [1, 2, 3, 7, 16] {
        for m in machines(p) {
            let run = prefix::run_on(&m, &input);
            assert_eq!(run.output, oracle, "p = {p} on {}", m.backend_name());
        }
    }
}

#[test]
fn samplesort_matches_oracle_across_processor_counts() {
    let input = gen::random_u32s(5000, 2);
    let oracle = seq::sorted(&input);
    for p in [1, 2, 5, 8, 16] {
        for m in machines(p) {
            let run = samplesort::run_on(&m, &input);
            assert_eq!(run.output, oracle, "p = {p} on {}", m.backend_name());
        }
    }
}

#[test]
fn listrank_matches_oracle_across_processor_counts() {
    let (succ, pred, head) = gen::random_list(3000, 3);
    let oracle = seq::list_ranks(&succ, head);
    for p in [1, 2, 4, 8] {
        for m in machines(p) {
            let run = listrank::run_on(&m, &succ, &pred);
            assert_eq!(run.ranks, oracle, "p = {p} on {}", m.backend_name());
        }
    }
}

#[test]
fn algorithms_agree_between_simulated_and_native_machines() {
    let input_u64 = gen::random_u64s(2000, 4);
    let input_u32 = gen::random_u32s(2000, 5);
    let (succ, pred, _) = gen::random_list(1000, 6);

    let s = sim(4);
    let t = ThreadMachine::new(4);

    assert_eq!(prefix::run_on(&s, &input_u64).output, prefix::run_on(&t, &input_u64).output);
    assert_eq!(
        samplesort::run_on(&s, &input_u32).output,
        samplesort::run_on(&t, &input_u32).output
    );
    assert_eq!(listrank::run_on(&s, &succ, &pred).ranks, listrank::run_on(&t, &succ, &pred).ranks);
}

#[test]
fn degenerate_problem_shapes() {
    for m in machines(4) {
        // n = 1 everywhere.
        assert_eq!(prefix::run_on(&m, &[42]).output, vec![42]);
        assert_eq!(samplesort::run_on(&m, &[7]).output, vec![7]);
    }
    for m in machines(2) {
        let (succ, pred, _) = gen::random_list(1, 0);
        assert_eq!(listrank::run_on(&m, &succ, &pred).ranks, vec![0]);
    }
    for m in machines(8) {
        // All-equal keys.
        let equal = vec![9u32; 1000];
        assert_eq!(samplesort::run_on(&m, &equal).output, equal);

        // Already-sorted and reverse-sorted inputs.
        let sorted_in: Vec<u32> = (0..1500).collect();
        assert_eq!(samplesort::run_on(&m, &sorted_in).output, sorted_in);
        let rev: Vec<u32> = (0..1500).rev().collect();
        assert_eq!(samplesort::run_on(&m, &rev).output, sorted_in);
    }
}

#[test]
fn profiles_identical_across_machines() {
    // Metering is layout-driven, so the simulated and native machines
    // must record the same per-phase traffic profile.
    let input = gen::random_u64s(4096, 7);
    let a = prefix::run_on(&sim(4), &input).run.phases;
    let b = prefix::run_on(&ThreadMachine::new(4), &input).run.phases;
    assert!(a.iter().map(|ph| ph.profile).eq(b.iter().map(|ph| ph.profile)));
}
