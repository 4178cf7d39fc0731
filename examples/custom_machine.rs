//! What-if analysis: should you trust QSM on *your* machine?
//!
//! ```text
//! cargo run --release --example custom_machine
//! ```
//!
//! Model a hypothetical cluster (choose p, gap, overhead, latency),
//! measure its effective (software-inclusive) network costs with the
//! library's self-calibration, sweep the latency to see how the
//! accuracy threshold moves, and extrapolate the minimum problem
//! size across the paper's Table 4 architectures.

use qsm::algorithms::gen;
use qsm::algorithms::prefix;
use qsm::core::{EffectiveCosts, SimMachine};
use qsm::models::machine::{table4_machines, MachineSpec};
use qsm::models::nmin::NminModel;
use qsm::simnet::MachineConfig;

fn main() {
    // A hypothetical 2026-flavored cluster re-expressed in the
    // model's units: 8 nodes, fat links (0.5 cycles/byte), light
    // kernel-bypass overhead, moderate latency.
    let cfg =
        MachineConfig::paper_default(8).with_gap(0.5).with_overhead(150.0).with_latency(900.0);

    println!(
        "custom machine: p={}, g={} c/B, o={} cyc, l={} cyc",
        cfg.p, cfg.net.gap_per_byte, cfg.net.send_overhead, cfg.net.latency
    );

    // 1. Self-calibrate: what the software stack really costs.
    let costs = EffectiveCosts::measure(cfg);
    println!("\nobserved (HW+SW) performance on this machine:");
    println!(
        "  put  {:.1} cycles/byte (hardware gap: {})",
        costs.put_cycles_per_byte(),
        cfg.net.gap_per_byte
    );
    println!("  get  {:.1} cycles/byte", costs.get_cycles_per_byte());
    println!("  empty sync L = {:.0} cycles", costs.l_sync);

    // 2. Sanity: run an algorithm and compare model vs measured.
    let machine = SimMachine::new(cfg);
    let input = gen::random_u64s(1 << 16, 7);
    let run = prefix::run_on(&machine, &input);
    let pred = prefix::predict(&costs);
    println!("\nprefix sums at n = 65536:");
    println!(
        "  measured comm {:.0} cycles; QSM predicts {:.0}, BSP predicts {:.0}",
        run.comm(),
        pred.qsm,
        pred.bsp
    );

    // 3. Extrapolate the accuracy threshold to other architectures,
    //    seeded with illustrative slopes (regenerate them precisely
    //    with the fig5/fig6 harness binaries).
    let this_machine = MachineSpec {
        name: "custom cluster",
        p: cfg.p,
        l: cfg.net.latency,
        o: cfg.net.send_overhead,
        g_per_byte: cfg.net.gap_per_byte,
        estimated: false,
        paper_nmin_per_p: "",
    };
    let model = NminModel::fit(&this_machine, 600.0, 0.03, 0.18);
    println!("\nextrapolated minimum problem size per processor (illustrative slopes):");
    println!("  {:<55} {:>12}", "architecture", "n_min/p");
    println!("  {:<55} {:>12.0}", this_machine.name, model.nmin_per_p(&this_machine));
    for m in table4_machines() {
        println!("  {:<55} {:>12.0}", m.name, model.nmin_per_p(&m));
    }
    println!(
        "\n(regenerate measured slopes with: cargo run --release -p qsm-bench --bin table4_nmin)"
    );
}
