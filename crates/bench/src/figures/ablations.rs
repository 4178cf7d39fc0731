//! Ablations of the runtime's design choices: the exchange order
//! `qsm_core` prices a phase with, and the layouts of [`qsm_core::addr`].
//!
//! The QSM contract makes the *runtime* responsible for hiding `l`,
//! `o`, and layout effects. Two of its levers are ablated here:
//!
//! 1. **Exchange schedule** — the paper's library exchanges data "in
//!    an order designed to reduce contention": round `r` sends
//!    `i → i+r mod p` (latin square), so every receiver ingests one
//!    message per round. The ablation switches to a naive destination
//!    sweep (everyone sends to node 0 first, then node 1, …), piling
//!    the machine onto one receiver at a time.
//! 2. **Randomized layout** — a skewed access pattern against a
//!    block-placed array concentrates all traffic on one memory
//!    module; the hashed layout spreads the same accesses across all
//!    `p` modules. This is the Section 4 phenomenon reproduced inside
//!    the main runtime (κ-free version: distinct addresses, one hot
//!    *module* rather than one hot *location*).

use qsm_core::{Layout, SimMachine};
use qsm_simnet::{ExchangeOrder, MachineConfig};

use crate::output::us_at_400mhz;
use crate::{Report, RunCfg};

/// Communication time of a balanced all-to-all of `words` words per
/// processor pair under a given exchange order and machine.
fn all_to_all_comm(cfg: MachineConfig, words: usize, order: ExchangeOrder) -> f64 {
    let machine = SimMachine::new(cfg.with_exchange_order(order));
    let run = machine.run(|ctx| {
        let p = ctx.nprocs();
        let arr = ctx.register::<u32>("a2a", p * p * words, Layout::Block);
        ctx.sync();
        let me = ctx.proc_id();
        for dst in 0..p {
            if dst != me {
                let data = vec![me as u32; words];
                // Region (dst block, slot for sender me): disjoint.
                ctx.put(&arr, dst * p * words + me * words, &data);
            }
        }
        ctx.sync();
    });
    run.phases[1].timing.comm.get()
}

/// Communication time of a skewed access pattern (every processor
/// writes `words` words into the *first* `1/p`-fraction of the index
/// space) under a given layout.
fn skewed_comm(p: usize, words: usize, layout: Layout) -> f64 {
    let machine = SimMachine::new(MachineConfig::paper_default(p));
    let run = machine.run(move |ctx| {
        let p = ctx.nprocs();
        let arr = ctx.register::<u32>("skew", p * p * words, Layout::Block);
        let target = ctx.register::<u32>("hot", p * words, layout);
        ctx.sync();
        let _ = arr;
        let me = ctx.proc_id();
        // All processors hammer the same low index region (distinct
        // addresses: κ stays 1, only the module placement differs).
        let data = vec![me as u32; words];
        ctx.put(&target, me * words, &data);
        ctx.sync();
    });
    run.phases[1].timing.comm.get()
}

/// The lean library on a `p`-processor Table 3 machine: per-word
/// software costs cut to a few cycles, so the network dominates.
fn lean_library(p: usize) -> MachineConfig {
    let mut sw = qsm_simnet::SoftwareConfig::calibrated();
    sw.put_marshal = 4.0;
    sw.put_apply = 4.0;
    sw.copy_per_word_send = 1.0;
    sw.copy_per_word_recv = 1.0;
    MachineConfig::paper_default(p).with_software(sw)
}

/// Run both ablations.
pub fn run(cfg: &RunCfg) -> Report {
    crate::backend::warn_sim_only("ablations");
    let words = if cfg.fast { 2_000 } else { 20_000 };
    let p = cfg.p;

    // Two library regimes: the calibrated (CPU-heavy, Table 3)
    // library damps scheduling effects; a lean library (small
    // per-word software cost) exposes the network, where the
    // schedule matters most.
    let calibrated = MachineConfig::paper_default(p);
    let lean = lean_library(p);

    // All six measurements are independent simulations; fan them
    // across the sweep pool and assemble the table (whose rows
    // reference their regime's baseline) serially afterwards.
    // The config-carrying variant is big, but there are exactly six
    // short-lived jobs — boxing would buy nothing.
    #[allow(clippy::large_enum_variant)]
    enum Job {
        A2a(MachineConfig, ExchangeOrder),
        Skew(Layout),
    }
    let jobs = vec![
        Job::A2a(calibrated, ExchangeOrder::LatinSquare),
        Job::A2a(calibrated, ExchangeOrder::DirectSweep),
        Job::A2a(lean, ExchangeOrder::LatinSquare),
        Job::A2a(lean, ExchangeOrder::DirectSweep),
        Job::Skew(Layout::Hashed),
        Job::Skew(Layout::Block),
    ];
    let times = crate::sweep::map(p, jobs, |_, job| match job {
        Job::A2a(mc, order) => all_to_all_comm(mc, words, order),
        Job::Skew(layout) => skewed_comm(p, words, layout),
    });

    let mut rows = Vec::new();
    for (i, label) in ["calibrated library", "lean library"].into_iter().enumerate() {
        let (latin, sweep) = (times[2 * i], times[2 * i + 1]);
        rows.push(vec![
            format!("exchange schedule ({label})"),
            "latin square (paper)".into(),
            format!("{:.1}", us_at_400mhz(latin)),
            "1.00".into(),
        ]);
        rows.push(vec![
            format!("exchange schedule ({label})"),
            "naive destination sweep".into(),
            format!("{:.1}", us_at_400mhz(sweep)),
            format!("{:.2}", sweep / latin),
        ]);
    }

    let (hashed, block) = (times[4], times[5]);
    rows.push(vec![
        "skewed writes".into(),
        "hashed layout (QSM contract)".into(),
        format!("{:.1}", us_at_400mhz(hashed)),
        "1.00".into(),
    ]);
    rows.push(vec![
        "skewed writes".into(),
        "block layout (hot module)".into(),
        format!("{:.1}", us_at_400mhz(block)),
        format!("{:.2}", block / hashed),
    ]);

    let headers = ["ablation", "variant", "comm_us", "vs_baseline"];
    Report::table(
        "ablations",
        "runtime design-choice ablations: exchange schedule and randomized layout",
        &headers,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_schedule_is_slower() {
        // Calibrated library: effect exists but is damped by CPU
        // costs.
        let cfg = MachineConfig::paper_default(8);
        let latin = all_to_all_comm(cfg, 4_000, ExchangeOrder::LatinSquare);
        let sweep = all_to_all_comm(cfg, 4_000, ExchangeOrder::DirectSweep);
        assert!(sweep > 1.05 * latin, "naive sweep {sweep} should exceed latin square {latin}");
        // Lean library: the network dominates and the hot receiver
        // hurts badly.
        let lean = lean_library(8);
        let latin = all_to_all_comm(lean, 4_000, ExchangeOrder::LatinSquare);
        let sweep = all_to_all_comm(lean, 4_000, ExchangeOrder::DirectSweep);
        assert!(
            sweep > 1.25 * latin,
            "lean library: naive sweep {sweep} should be well above latin square {latin}"
        );
    }

    #[test]
    fn hashed_layout_tames_hot_module() {
        let hashed = skewed_comm(8, 4_000, Layout::Hashed);
        let block = skewed_comm(8, 4_000, Layout::Block);
        assert!(block > 1.5 * hashed, "hot module {block} should be well above hashed {hashed}");
    }

    #[test]
    fn both_schedules_give_identical_results() {
        // The ablation changes timing only; data must be unaffected.
        let go = |order| {
            let cfg = MachineConfig::paper_default(4).with_exchange_order(order);
            SimMachine::new(cfg)
                .run(|ctx| {
                    let arr = ctx.register::<u64>("x", 16, Layout::Block);
                    ctx.sync();
                    ctx.put(&arr, (ctx.proc_id() + 5) % 16, &[ctx.proc_id() as u64]);
                    ctx.sync();
                    let t = ctx.get(&arr, 0, 16);
                    ctx.sync();
                    ctx.take(t)
                })
                .outputs
        };
        assert_eq!(go(ExchangeOrder::LatinSquare), go(ExchangeOrder::DirectSweep));
    }

    #[test]
    fn report_renders() {
        let rep = run(&RunCfg::fast());
        assert_eq!(rep.csv.lines().count(), 7); // header + 2 regimes x 2 + layout x 2
        assert!(rep.text.contains("latin square"));
    }
}
