//! Domain scenario: a distributed sorting stage in a telemetry
//! pipeline.
//!
//! ```text
//! cargo run --release --example sorting_pipeline
//! ```
//!
//! A 16-node cluster receives a shard of out-of-order event
//! timestamps per node and must produce a globally sorted order.
//! We run the paper's QSM sample sort on the simulated cluster,
//! check it against the sequential baseline, inspect the measured
//! load-balance skews against the analytical bounds, and ask the cost
//! model whether the problem size is in the regime where the simple
//! QSM analysis can be trusted (the paper's n_min discussion).

use qsm::algorithms::samplesort::{self, DEFAULT_OVERSAMPLING};
use qsm::algorithms::{gen, seq};
use qsm::core::{EffectiveCosts, SimMachine};
use qsm::simnet::MachineConfig;

fn main() {
    let p = 16;
    let n = 1 << 18; // ~262k events
    let cfg = MachineConfig::paper_default(p);
    let machine = SimMachine::new(cfg);

    // Out-of-order event timestamps (uniform noise around arrival).
    let events = gen::random_u32s(n, 20260706);

    println!("sorting {n} events on {p} simulated nodes ...");
    let run = samplesort::run_on(&machine, &events);
    assert_eq!(run.output, seq::sorted(&events), "sorted output must match the oracle");

    let us = |cycles: f64| cycles / (cfg.cpu.clock_hz / 1e6);
    println!("  total  {:>10.1} us", us(run.total()));
    println!("  comm   {:>10.1} us", us(run.comm()));
    println!(
        "  load balance: largest bucket B = {} ({:.2}x the n/p average), remote fraction r = {:.3}",
        run.b_max(),
        run.b_max() as f64 / (n as f64 / p as f64),
        run.r_max()
    );

    // Compare against the paper's analysis lines.
    let params = EffectiveCosts::measure(cfg);
    let best = samplesort::predict_best(n, DEFAULT_OVERSAMPLING, &params);
    let whp = samplesort::predict_whp(n, DEFAULT_OVERSAMPLING, &params);
    let est = samplesort::predict_estimate(n, &run, DEFAULT_OVERSAMPLING, &params);
    println!("\n  predicted communication (effective gaps, cycles -> us):");
    println!("    best case    {:>10.1} us", us(best.qsm));
    println!("    measured     {:>10.1} us", us(run.comm()));
    println!("    WHP bound    {:>10.1} us", us(whp.qsm));
    println!(
        "    QSM estimate {:>10.1} us ({:+.1}% vs measured)",
        us(est.qsm),
        100.0 * (est.qsm - run.comm()) / run.comm()
    );
    println!("    BSP estimate {:>10.1} us", us(est.bsp));

    let in_band = run.comm() >= best.qsm && run.comm() <= whp.qsm;
    println!(
        "\n  measured communication {} the [best, WHP] analysis band — problem size {}",
        if in_band { "falls inside" } else { "falls outside" },
        if in_band {
            "is large enough for QSM analysis to be trusted"
        } else {
            "may be too small to bother parallelizing"
        }
    );
}
