//! The simulated QSM machine.
//!
//! [`SimMachine`] executes a QSM program — an ordinary Rust closure
//! receiving a [`Ctx`] — on `p` *simulated* processors, through the
//! same engine as every other backend. Each simulated processor runs
//! the closure on a stack of its own, hosted by one of `min(p, cores)`
//! pooled carrier threads (`crate::pool`, `crate::fiber`): a run spawns
//! no thread once the pool is warm. Simulated time advances in the
//! leader's price stage, where worker 0 runs the phase's metered
//! traffic through the `qsm-simnet` network model configured by the
//! [`MachineConfig`]; host time and host scheduling never enter it,
//! so results are bit-exact reproducible for a given machine seed.

use qsm_obs::Recorder;
use qsm_simnet::{Cycles, MachineConfig};

use crate::accounting::CostReport;
use crate::ctx::Ctx;
use crate::driver::PhaseRecord;
use crate::machine::{Machine, PhaseTimer};
use crate::sim_timer::{empty_sync_cost, SimTimer};

pub use crate::machine::RunResult;

/// A simulated QSM machine.
#[derive(Debug, Clone, Copy)]
pub struct SimMachine {
    cfg: MachineConfig,
    seed: u64,
}

impl SimMachine {
    /// Create a machine with the given configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        Self { cfg, seed: DEFAULT_SEED }
    }

    /// Replace the RNG seed shared by the per-processor RNGs.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Cost of an empty `sync()` on this machine (the BSP `L`).
    pub fn empty_sync_cost(&self) -> Cycles {
        empty_sync_cost(self.cfg)
    }

    /// Run `program` on every simulated processor and price the run.
    /// Equivalent to the generic [`Machine::run`]; kept inherent so
    /// callers need no trait import.
    pub fn run<R, F>(&self, program: F) -> RunResult<R>
    where
        R: Send,
        F: Fn(&mut Ctx) -> R + Send + Sync,
    {
        crate::engine::run(self, program)
    }
}

impl Machine for SimMachine {
    fn nprocs(&self) -> usize {
        self.cfg.p
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn backend_name(&self) -> &'static str {
        "sim"
    }

    fn time_unit(&self) -> &'static str {
        "cycles"
    }

    fn make_timer(&self, rec: Recorder) -> Box<dyn PhaseTimer> {
        Box::new(SimTimer::with_recorder(self.cfg, rec))
    }

    fn make_report(&self, phases: &[PhaseRecord]) -> CostReport {
        CostReport::build(&self.cfg, phases, self.empty_sync_cost().get())
    }
}

/// Default machine seed of every backend (the paper's TR number and
/// year).
pub(crate) const DEFAULT_SEED: u64 = 0x1998_0021;
