//! A machine is its configuration: both backends meter banks from
//! [`Machine::config`] and derive the same [`CostReport`] from it,
//! differing only in the unit of the measured columns.

use qsm_core::{AnyMachine, Ctx, Layout, Machine, SimMachine, ThreadMachine};
use qsm_simnet::{BankModel, MachineConfig};

const P: usize = 4;
const BANKS: usize = 4;
const GETS: usize = 8;

fn banked() -> MachineConfig {
    MachineConfig::paper_default(P).with_banks(BankModel::per_message(BANKS, 100.0))
}

/// Every processor gets `GETS` words of processor 0's block at a
/// stride of `BANKS`: all of them from bank 0 of node 0.
fn conflicting_gets(ctx: &mut Ctx) -> u64 {
    let arr = ctx.register::<u64>("block", GETS * BANKS * ctx.nprocs(), Layout::Block);
    ctx.sync();
    let tickets: Vec<_> = (0..GETS).map(|k| ctx.get(&arr, k * BANKS, 1)).collect();
    ctx.sync();
    tickets.into_iter().map(|t| ctx.take(t)[0]).sum()
}

fn bank_kappas<M: Machine>(machine: &M) -> Vec<u64> {
    machine.run(conflicting_gets).phases.iter().map(|ph| ph.bank_kappa).collect()
}

#[test]
fn both_backends_meter_bank_kappa_from_the_config() {
    let sim = bank_kappas(&SimMachine::new(banked()));
    // The get phase loads bank 0 with every processor's gets, two
    // 4-byte words a `u64`.
    assert_eq!(sim, [0, (P * GETS * 2) as u64]);
    let threads = bank_kappas(&ThreadMachine::new(P).with_model_config(banked()));
    assert_eq!(sim, threads);
    // Without a bank model, neither backend meters banks.
    let flat = MachineConfig::paper_default(P);
    assert!(bank_kappas(&SimMachine::new(flat)).iter().all(|&k| k == 0));
    assert!(bank_kappas(&ThreadMachine::new(P)).iter().all(|&k| k == 0));
}

#[test]
fn every_machine_over_one_config_makes_one_report() {
    let sim = SimMachine::new(banked());
    let phases = sim.run(conflicting_gets).phases;
    let report = sim.make_report(&phases);
    assert_eq!(report.measured_unit, "cycles");
    assert!(report.bank_kappa > 0);
    assert_eq!(AnyMachine::from(sim).make_report(&phases), report);
    let threads = ThreadMachine::new(P).with_model_config(banked());
    for mut other in [threads.make_report(&phases), AnyMachine::from(threads).make_report(&phases)]
    {
        assert_eq!(other.measured_unit, "ns");
        other.measured_unit = report.measured_unit;
        assert_eq!(other, report);
    }
}
