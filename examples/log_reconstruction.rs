//! Domain scenario: reconstructing the order of a fragmented
//! write-ahead log with parallel list ranking.
//!
//! ```text
//! cargo run --release --example log_reconstruction
//! ```
//!
//! A crashed storage system left `n` log fragments scattered across
//! 16 nodes; each fragment carries only the id of its successor.
//! Globally ordering them is exactly list ranking — the paper's
//! canonical irregular-communication workload, since consecutive
//! fragments live on unrelated nodes. We rank them with the
//! randomized QSM algorithm and verify against sequential pointer
//! chasing.

use qsm::algorithms::{gen, listrank, seq};
use qsm::core::{EffectiveCosts, SimMachine};
use qsm::simnet::MachineConfig;

fn main() {
    let p = 16;
    let n = 1 << 15; // 32k fragments
    let cfg = MachineConfig::paper_default(p);
    let machine = SimMachine::new(cfg);

    // The fragment chain: succ[f] is the fragment after f (NIL for
    // the final fragment), scattered uniformly across nodes.
    let (succ, pred, head) = gen::random_list(n, 0xF7A6);

    println!("ranking {n} log fragments scattered over {p} nodes ...");
    let run = listrank::run_on(&machine, &succ, &pred);
    let oracle = seq::list_ranks(&succ, head);
    assert_eq!(run.ranks, oracle, "parallel ranks must match pointer chasing");

    // rank = distance to the log tail; position = n-1-rank.
    let first = run.ranks.iter().position(|&r| r == (n - 1) as u64).unwrap();
    assert_eq!(first, head);

    let us = |cycles: f64| cycles / (cfg.cpu.clock_hz / 1e6);
    println!("  head fragment: {head}; phases: {}", run.phases());
    println!("  total  {:>10.1} us", us(run.total()));
    println!("  comm   {:>10.1} us", us(run.comm()));
    println!("  survivors shipped to node 0: {} of {n}", run.survivors());

    println!("\n  contraction trace (max active fragments on any node):");
    let maxima = run.iter_maxima();
    for (i, it) in maxima.iter().enumerate() {
        if i % 4 == 0 || i + 1 == maxima.len() {
            println!("    iteration {i:>2}: {:>6} active", it.active);
        }
    }

    let params = EffectiveCosts::measure(cfg);
    let est = listrank::predict_estimate(&run, &params);
    println!(
        "\n  QSM estimate {:.1} us, BSP estimate {:.1} us, measured {:.1} us",
        us(est.qsm),
        us(est.bsp),
        us(run.comm())
    );
}
