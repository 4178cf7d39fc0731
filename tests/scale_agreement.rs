//! Large-n agreement between the simulated and SPMD threads
//! backends: the three paper kernels must produce identical output
//! (compared by checksum, so a million-element mismatch prints a
//! digest instead of a novel) at n ≥ 1M under both small and heavily
//! oversubscribed processor counts.

use qsm::algorithms::{gen, listrank, prefix, samplesort, seq};
use qsm::core::{SimMachine, ThreadMachine};
use qsm::simnet::MachineConfig;

const N: usize = 1 << 20;

/// Order-sensitive FNV-1a over the element stream.
fn checksum(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn sim(p: usize) -> SimMachine {
    SimMachine::new(MachineConfig::paper_default(p))
}

fn prefix_agrees(p: usize) {
    let input = gen::random_u64s(N, 0xA1);
    let expect = checksum(seq::prefix_sums(&input).iter().copied());
    let s = prefix::run_on(&sim(p), &input);
    let t = prefix::run_on(&ThreadMachine::new(p), &input);
    assert_eq!(checksum(s.output.iter().copied()), expect, "sim prefix wrong (p={p})");
    assert_eq!(checksum(t.output.iter().copied()), expect, "threads prefix wrong (p={p})");
    assert_eq!(s.run.num_phases(), t.run.num_phases(), "phase structure diverged (p={p})");
}

fn samplesort_agrees(p: usize) {
    let input = gen::random_u32s(N, 0xA2);
    let mut sorted = input.clone();
    sorted.sort_unstable();
    let expect = checksum(sorted.iter().map(|&v| v as u64));
    let s = samplesort::run_on(&sim(p), &input);
    let t = samplesort::run_on(&ThreadMachine::new(p), &input);
    assert_eq!(checksum(s.output.iter().map(|&v| v as u64)), expect, "sim sort wrong (p={p})");
    assert_eq!(checksum(t.output.iter().map(|&v| v as u64)), expect, "threads sort wrong (p={p})");
    // Same seeds → same sample draws → identical bucket skew.
    assert_eq!(s.b_max(), t.b_max(), "bucket skew diverged (p={p})");
}

fn listrank_agrees(p: usize) {
    let (succ, pred, head) = gen::random_list(N, 0xA3);
    let s = listrank::run_on(&sim(p), &succ, &pred);
    let t = listrank::run_on(&ThreadMachine::new(p), &succ, &pred);
    let cs = checksum(s.ranks.iter().copied());
    assert_eq!(cs, checksum(t.ranks.iter().copied()), "ranks diverged (p={p})");
    assert_eq!(s.ranks[head] as usize, N - 1, "head rank must be n-1 (p={p})");
    assert_eq!(s.run.num_phases(), t.run.num_phases(), "phase structure diverged (p={p})");
}

#[test]
fn prefix_sim_vs_threads_p8() {
    prefix_agrees(8);
}

#[test]
fn prefix_sim_vs_threads_p64() {
    prefix_agrees(64);
}

#[test]
fn samplesort_sim_vs_threads_p8() {
    samplesort_agrees(8);
}

#[test]
fn samplesort_sim_vs_threads_p64() {
    samplesort_agrees(64);
}

#[test]
fn listrank_sim_vs_threads_p8() {
    listrank_agrees(8);
}

#[test]
fn listrank_sim_vs_threads_p64() {
    listrank_agrees(64);
}
