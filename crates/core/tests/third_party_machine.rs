//! [`Machine`] and [`PhaseTimer`] are implementable outside
//! `qsm-core`: a machine defined here, whose timer prices every phase
//! at one unit, runs an ordinary put / get / `sync` program through
//! the shared engine. And [`AnyMachine`] carries no behaviour of its
//! own: a program prices bit-equal on it and on the machine it wraps.

use std::time::Instant;

use qsm_core::{
    AnyMachine, CommMatrix, CostReport, Ctx, Layout, Machine, PhasePrice, PhaseRecord, PhaseTimer,
    PhaseTiming, SimMachine,
};
use qsm_obs::Recorder;
use qsm_simnet::{Cycles, MachineConfig};

/// Every phase costs one unit, all of it communication; the fault,
/// bank and link counters stay at their zero defaults.
struct UnitTimer;

impl PhaseTimer for UnitTimer {
    fn price(&mut self, _: &[u64], _: &CommMatrix, _: &[Instant]) -> PhasePrice {
        PhaseTiming { elapsed: Cycles::new(1.0), compute: Cycles::ZERO, comm: Cycles::new(1.0) }
            .into()
    }
}

struct UnitMachine {
    p: usize,
}

impl Machine for UnitMachine {
    fn config(&self) -> MachineConfig {
        MachineConfig::paper_default(self.p)
    }
    fn seed(&self) -> u64 {
        1
    }
    fn backend_name(&self) -> &'static str {
        "unit"
    }
    fn time_unit(&self) -> &'static str {
        "phases"
    }
    fn make_timer(&self, _rec: Recorder) -> Box<dyn PhaseTimer> {
        Box::new(UnitTimer)
    }
    fn make_report(&self, phases: &[PhaseRecord]) -> CostReport {
        CostReport::build(&self.config(), phases, 0.0, self.time_unit())
    }
}

/// Put `10 · id` into one's own slot, then get the right neighbour's.
fn rotate(ctx: &mut Ctx) -> u64 {
    let arr = ctx.register::<u64>("ring", ctx.nprocs(), Layout::Block);
    ctx.sync();
    let me = ctx.proc_id();
    ctx.put(&arr, me, &[me as u64 * 10]);
    ctx.sync();
    let t = ctx.get(&arr, (me + 1) % ctx.nprocs(), 1);
    ctx.sync();
    ctx.take(t)[0]
}

#[test]
fn a_machine_defined_outside_the_crate_runs_through_the_engine() {
    let run = UnitMachine { p: 4 }.run(rotate);
    assert_eq!(run.outputs, vec![10, 20, 30, 0]);
    assert_eq!(run.num_phases(), 3);
    assert_eq!(run.total(), Cycles::new(3.0));
    assert_eq!(run.comm(), run.total());
    assert!(run.phases.iter().all(|ph| ph.retries == 0 && ph.bank_kappa == 0));
}

#[test]
fn any_machine_prices_exactly_as_the_machine_it_wraps() {
    let sim = SimMachine::new(MachineConfig::paper_default(4));
    let direct = sim.run(rotate);
    let wrapped = AnyMachine::from(sim).run(rotate);
    assert_eq!(direct.outputs, wrapped.outputs);
    assert_eq!(direct.phases, wrapped.phases);
}
