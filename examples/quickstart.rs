//! Quickstart: write a QSM program, run it on the simulated machine,
//! and read the cost report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The program computes a distributed dot product: each processor
//! holds a block of two vectors, computes its partial sum locally,
//! and combines the partials through shared memory in one
//! bulk-synchronous phase.

use qsm::core::{Layout, Machine, SimMachine};
use qsm::simnet::MachineConfig;

fn main() {
    // The paper's default machine: 16 processors, g = 3 cycles/byte,
    // o = 400 cycles, l = 1600 cycles, 400 MHz nodes.
    let machine = SimMachine::new(MachineConfig::paper_default(16));

    let n = 1 << 16;
    let x: Vec<u64> = (0..n as u64).map(|i| i % 100).collect();
    let y: Vec<u64> = (0..n as u64).map(|i| (i * 7) % 100).collect();

    let run = machine.run(|ctx| {
        let p = ctx.nprocs();
        let me = ctx.proc_id();

        // Register shared arrays (collective); usable after sync().
        let xa = ctx.register::<u64>("x", n, Layout::Block);
        let ya = ctx.register::<u64>("y", n, Layout::Block);
        let partials = ctx.register::<u64>("partials", p * p, Layout::Block);
        ctx.sync();

        // Distribute the input: every processor fills its own block.
        let r = ctx.local_range(&xa);
        ctx.local_write(&xa, r.start, &x[r.clone()]);
        ctx.local_write(&ya, r.start, &y[r.clone()]);
        ctx.sync();

        // Phase 1: local dot product, then broadcast the partial sum
        // (an all-gather through the shared board).
        let xs = ctx.local_vec(&xa);
        let ys = ctx.local_vec(&ya);
        let partial: u64 = xs.iter().zip(&ys).map(|(a, b)| a * b).sum();
        ctx.charge(xs.len() as u64 * 2); // one multiply + one add per element
        for j in 0..p {
            if j == me {
                ctx.local_write(&partials, me * p + me, &[partial]);
            } else {
                ctx.put(&partials, j * p + me, &[partial]);
            }
        }
        ctx.sync();

        // Phase 2: combine.
        let row = ctx.local_read(&partials, me * p, p);
        ctx.charge(p as u64);
        row.iter().sum::<u64>()
    });

    let expected: u64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
    assert!(run.outputs.iter().all(|&v| v == expected));

    println!("dot product of {n} elements on 16 simulated processors");
    println!("every processor agrees: {}\n", run.outputs[0]);
    println!("{}", machine.make_report(&run.phases));
    println!("per-phase profile (maxima across processors):");
    for (k, ph) in run.phases.iter().map(|r| r.profile).enumerate() {
        println!(
            "  phase {k}: m_op = {:>6}, m_rw = {:>4} words, kappa = {}, messages = {}",
            ph.m_op, ph.m_rw, ph.kappa, ph.msgs
        );
    }
}
