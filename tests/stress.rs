//! Model-based stress testing: random bulk-synchronous programs are
//! executed on the simulated machine and on a flat reference memory
//! implementing the documented semantics (gets served from the
//! pre-put state of the phase; puts applied in processor order, then
//! issue order). Every get result must match exactly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use qsm::core::{Layout, SimMachine};
use qsm::simnet::MachineConfig;

/// One processor's scripted operations for one phase.
#[derive(Debug, Clone)]
struct PhaseScript {
    puts: Vec<(usize, Vec<u64>)>,
    gets: Vec<(usize, usize)>,
}

/// Deterministically derive processor `proc`'s script for `phase`.
///
/// To respect the QSM phase contract by construction, each phase
/// draws a split point `s` (shared by all processors): puts target
/// `[0, s)`, gets read `[s, len)`.
fn script(seed: u64, phase: usize, proc: usize, len: usize) -> PhaseScript {
    let mut shared = SmallRng::seed_from_u64(seed ^ (phase as u64) << 16);
    let s = shared.gen_range(1..len);
    let mut rng = SmallRng::seed_from_u64(seed ^ (phase as u64) << 16 ^ (proc as u64 + 1) << 40);
    let mut puts = Vec::new();
    for _ in 0..rng.gen_range(0..4) {
        let start = rng.gen_range(0..s);
        let l = rng.gen_range(0..=(s - start).min(7));
        let data: Vec<u64> = (0..l).map(|_| rng.gen_range(0..1_000_000)).collect();
        puts.push((start, data));
    }
    let mut gets = Vec::new();
    for _ in 0..rng.gen_range(0..4) {
        let start = rng.gen_range(s..len);
        let l = rng.gen_range(0..=(len - start).min(9));
        gets.push((start, l));
    }
    PhaseScript { puts, gets }
}

/// Reference execution: returns, per phase, per processor, the
/// expected result of each scripted get.
fn reference(seed: u64, phases: usize, p: usize, len: usize) -> Vec<Vec<Vec<Vec<u64>>>> {
    let mut mem = vec![0u64; len];
    let mut expected = Vec::with_capacity(phases);
    for k in 0..phases {
        let scripts: Vec<PhaseScript> = (0..p).map(|i| script(seed, k, i, len)).collect();
        // Gets see the pre-put state.
        let phase_expect: Vec<Vec<Vec<u64>>> = scripts
            .iter()
            .map(|sc| sc.gets.iter().map(|&(st, l)| mem[st..st + l].to_vec()).collect())
            .collect();
        // Puts apply in processor order, then issue order.
        for sc in &scripts {
            for (st, data) in &sc.puts {
                mem[*st..st + data.len()].copy_from_slice(data);
            }
        }
        expected.push(phase_expect);
    }
    expected
}

fn run_stress(seed: u64, p: usize, len: usize, phases: usize, layout: Layout) {
    let machine = SimMachine::new(MachineConfig::paper_default(p));
    let run = machine.run(|ctx| {
        let arr = ctx.register::<u64>("stress", len, layout);
        ctx.sync();
        let mut all_results: Vec<Vec<Vec<u64>>> = Vec::with_capacity(phases);
        let mut pending: Vec<qsm::core::GetTicket<u64>> = Vec::new();
        for k in 0..phases {
            let sc = script(seed, k, ctx.proc_id(), len);
            for (st, data) in &sc.puts {
                ctx.put(&arr, *st, data);
            }
            for &(st, l) in &sc.gets {
                pending.push(ctx.get(&arr, st, l));
            }
            ctx.sync();
            all_results.push(pending.drain(..).map(|t| ctx.take(t)).collect());
        }
        all_results
    });
    let expected = reference(seed, phases, p, len);
    for (proc, got) in run.outputs.iter().enumerate() {
        for k in 0..phases {
            assert_eq!(
                got[k], expected[k][proc],
                "divergence: seed {seed}, layout {layout:?}, proc {proc}, phase {k}"
            );
        }
    }
}

#[test]
fn random_programs_match_reference_block_layout() {
    for seed in 0..12 {
        run_stress(seed, 4, 100, 6, Layout::Block);
    }
}

#[test]
fn random_programs_match_reference_hashed_layout() {
    for seed in 100..112 {
        run_stress(seed, 4, 100, 6, Layout::Hashed);
    }
}

#[test]
fn random_programs_match_reference_varied_shapes() {
    run_stress(7, 1, 50, 4, Layout::Block); // single processor
    run_stress(8, 7, 33, 5, Layout::Block); // ragged blocks
    run_stress(9, 16, 300, 3, Layout::Hashed); // wide machine
    run_stress(10, 2, 2, 8, Layout::Block); // tiny array, many phases
}

#[test]
fn stress_runs_are_cycle_deterministic() {
    let go = || {
        let machine = SimMachine::new(MachineConfig::paper_default(4));
        machine
            .run(|ctx| {
                let arr = ctx.register::<u64>("d", 64, Layout::Hashed);
                ctx.sync();
                for k in 0..5 {
                    let sc = script(0xD5, k, ctx.proc_id(), 64);
                    for (st, data) in &sc.puts {
                        ctx.put(&arr, *st, data);
                    }
                    ctx.sync();
                }
            })
            .total()
    };
    assert_eq!(go(), go());
}
