//! The backend abstraction: one engine, many machines.
//!
//! There is exactly one pipeline and one run loop; "simulated" vs
//! "native" is a strategy object — the timer — and nothing else (the
//! run loop is the private `engine` module's, the exchange `spmd`'s).
//! Every QSM backend is a [`Machine`]:
//! a small configuration value that knows how many processors it has,
//! how to build the [`PhaseTimer`] that prices each phase, and how to
//! assemble a [`CostReport`] from a run's phases. Backends today:
//! [`SimMachine`] (simulated cycles on the `qsm-simnet` model) and
//! [`ThreadMachine`] (the host's cores, wall-clock nanoseconds). A
//! backend implements
//!
//! ```text
//! trait Machine {
//!     fn nprocs(&self) -> usize;
//!     fn seed(&self) -> u64;                       // per-proc RNG streams
//!     fn backend_name(&self) -> &'static str;      // "sim" | "threads"
//!     fn time_unit(&self) -> &'static str;         // "cycles" | "ns"
//!     fn make_timer(&self, rec: Recorder) -> Box<dyn PhaseTimer>;
//!     fn make_report(&self, phases: &[PhaseRecord]) -> CostReport;
//!     fn run<R, F>(&self, program: F) -> RunResult<R> { engine::run(self, program) }
//! }
//!
//! trait PhaseTimer {
//!     // timing + this phase's retries, drops, bank and link wait, link util
//!     fn price(&mut self, charged: &[u64], matrix: &CommMatrix,
//!              arrivals: &[Instant]) -> PhasePrice;
//!     // + defaulted per-run queries: bank_model, link_count, spmd_span_epoch
//! }
//! ```
//!
//! The engine (`crate::engine`) holds the timer as the
//! `Box<dyn PhaseTimer>` the machine hands it, so [`AnyMachine`] (the
//! `QSM_BACKEND`-selected backend) only forwards
//! [`Machine::make_timer`] to the machine it wraps: one dynamic
//! dispatch per timer call on every path.
//! `core/tests/third_party_machine.rs` implements both traits from
//! outside the crate.
//!
//! Everything else — worker threads, the sync rendezvous, semantics
//! checks, metering, observability — is shared. Per `sync()` the
//! engine's driver runs four explicit stages:
//!
//! ```text
//!   workers ──publish ops + store pointer──▶ exchange-area slots
//!                                    │  barrier 1
//!        ┌───────────┬───────────────┼───────────────┬───────────┐
//!        │  plan     │  exchange     │  price        │  record   │
//!        │  (leader) │  (every       │  (leader)     │  (leader) │
//!        │  validate │  worker)      │  Machine::    │  metrics, │
//!        │  collect- │  serve own    │  Timer::price │  spans,   │
//!        │  iveness, │  gets; after  │  (SimTimer:   │  κ track, │
//!        │  sum the  │  barrier 2    │  simnet cost; │  Phase-   │
//!        │  CommMat- │  apply puts   │  WallTimer:   │  Record   │
//!        │  rix view │  to own block │  wall split)  │  append   │
//!        └───────────┴───────────────┴───────────────┴───────────┘
//!                                    │
//!   workers compute the next phase while the leader prices this one
//! ```
//!
//! Only the **price** stage differs per backend:
//! [`SimTimer`](crate::SimTimer) prices the plan all-to-all,
//! latin-square exchange, and dissemination barrier on `qsm-simnet` and
//! advances the simulated clock; [`WallTimer`](crate::WallTimer) splits
//! real elapsed time at the last worker's `sync()` arrival (compute =
//! release→last-arrival, comm = remainder). Because plan, exchange, and
//! record are shared, both backends meter κ, h-relations, and message
//! counts from the same [`CommMatrix`], feed the same process-global
//! recorder (metrics + Perfetto), draw identical per-processor RNG
//! streams from `(seed, proc_id)`, and return the same [`RunResult`]:
//! each processor's output and one [`PhaseRecord`] per phase, sim in
//! model cycles, threads in host nanoseconds. A caller that wants
//! predictions asks the machine for them, [`Machine::make_report`] over
//! `run.phases`: the [`CostReport`]'s measured columns are in the
//! backend's unit ([`CostReport::measured_unit`] records which), its
//! prediction columns always come from the model configuration.
//! [`AnyMachine`] erases the two impls behind one value type so the
//! bench sweeps and integration tests are written once and
//! parameterized by `QSM_BACKEND`. `qsm-membank` mirrors the scheme one
//! level down: its `BankBackend` trait (`sim.rs` queue simulator vs
//! `native.rs` threaded atomics) sits under one generic microbenchmark
//! loop that pre-draws the per-processor bank-target sequences, so both
//! executors consume identical access streams. That is the paper's
//! methodology in code: identical programs, identical measured
//! quantities, different machines.

use std::time::Instant;

use qsm_obs::Recorder;
use qsm_simnet::Cycles;

use crate::accounting::CostReport;
use crate::ctx::Ctx;
use crate::driver::{CommMatrix, PhasePrice, PhaseRecord};
use crate::sim_runtime::SimMachine;
use crate::thread_runtime::ThreadMachine;

/// Prices one phase of a run: the **price** stage of the pipeline.
///
/// The driver calls [`PhaseTimer::price`] once per `sync()`, after
/// the exchange has been applied. A backend decides what a phase
/// *costs* here — the simulated machine replays the exchange on the
/// `qsm-simnet` network model, the native machine reads the host
/// clock — and everything downstream (the [`PhaseRecord`] stream,
/// the [`CostReport`], the observability spans) is backend-agnostic.
pub trait PhaseTimer: Send {
    /// Price one phase. `charged[i]` is processor `i`'s explicitly
    /// charged local-operation count, `matrix` the metered traffic
    /// the exchange moved, and `arrivals[i]` the host instant at
    /// which processor `i` entered `sync()` (wall-clock backends
    /// split compute from communication with it; simulated backends
    /// ignore it). `arrivals` is empty when no run is behind the
    /// phase: every [`Machine::make_report`] prices an empty `sync()`
    /// that way ([`SimMachine::empty_sync_cost`]), as do unit tests.
    /// Returns everything the backend knows about the phase: its
    /// timing, plus the fault, bank and link counters of backends
    /// that simulate them.
    fn price(&mut self, charged: &[u64], matrix: &CommMatrix, arrivals: &[Instant]) -> PhasePrice;

    /// The destination-bank model this backend's machine is
    /// configured with, if any. The driver queries it once per run to
    /// switch on per-bank traffic metering (observed bank-κ); `None`
    /// (the default) keeps the bank layer entirely off.
    fn bank_model(&self) -> Option<qsm_simnet::BankModel> {
        None
    }

    /// Number of directed fabric links the backend's machine routes
    /// messages over — zero on the flat contention-free wire and on
    /// backends that do not simulate the fabric. The driver queries
    /// it once per run to switch on per-link metrics, mirroring
    /// [`PhaseTimer::bank_model`].
    fn link_count(&self) -> usize {
        0
    }

    /// Opt in to per-worker span capture. The engine calls this once
    /// per run when full-level observability is on; a timer that
    /// returns the run's epoch instant hands the processor lanes to
    /// the workers, which emit their own compute / barrier / serve /
    /// apply spans against it (so an opting-in timer emits no
    /// per-processor span of its own). The default — and the simulated
    /// backend's behavior — is `None`: no worker-side capture.
    fn spmd_span_epoch(&mut self) -> Option<Instant> {
        None
    }
}

/// A QSM execution backend.
///
/// Implementors are cheap configuration values; [`Machine::run`]
/// executes a program — an ordinary closure over a [`Ctx`] — on `p`
/// workers through the shared engine. See the crate-level example
/// for a program running unmodified on both backends.
pub trait Machine {
    /// Number of processors.
    fn nprocs(&self) -> usize;

    /// Seed for the per-processor deterministic RNGs.
    fn seed(&self) -> u64;

    /// Short stable name for harness output (`"sim"`, `"threads"`).
    fn backend_name(&self) -> &'static str;

    /// Time unit of measured [`crate::PhaseTiming`] values (`"cycles"` for
    /// the simulated machine, `"ns"` for wall-clock backends).
    fn time_unit(&self) -> &'static str;

    /// Build the timer for one run, emitting into `rec`: the
    /// phase-pricing strategy this backend plugs into the engine,
    /// which holds it as a trait object across the run (timers are
    /// configuration + counters, never borrows).
    fn make_timer(&self, rec: Recorder) -> Box<dyn PhaseTimer>;

    /// Assemble the run's cost report from its phase records.
    fn make_report(&self, phases: &[PhaseRecord]) -> CostReport;

    /// Run `program` on every processor and price the run.
    fn run<R, F>(&self, program: F) -> RunResult<R>
    where
        R: Send,
        F: Fn(&mut Ctx) -> R + Send + Sync,
        Self: Sized,
    {
        crate::engine::run(self, program)
    }
}

/// Outcome of one program run, identical in shape on every backend.
///
/// Timing values are in the backend's [`Machine::time_unit`]:
/// simulated cycles on [`SimMachine`], host nanoseconds on
/// [`ThreadMachine`].
#[derive(Debug)]
pub struct RunResult<R> {
    /// Each processor's return value, indexed by processor id.
    pub outputs: Vec<R>,
    /// One record per phase, in execution order.
    pub phases: Vec<PhaseRecord>,
}

impl<R> RunResult<R> {
    /// Total measured time.
    pub fn total(&self) -> Cycles {
        self.phases.iter().map(|r| r.timing.elapsed).sum()
    }

    /// Total measured communication time (time inside `sync()`).
    pub fn comm(&self) -> Cycles {
        self.phases.iter().map(|r| r.timing.comm).sum()
    }

    /// Number of phases executed.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }
}

/// A backend chosen at runtime (e.g. from `QSM_BACKEND`).
///
/// Wraps the statically-typed machines behind one value so harnesses
/// can select a backend from the environment while staying on the
/// generic [`Machine`] pipeline.
#[derive(Debug, Clone, Copy)]
pub enum AnyMachine {
    /// The simulated machine ([`SimMachine`]).
    Sim(SimMachine),
    /// The native host-thread machine ([`ThreadMachine`]).
    Threads(ThreadMachine),
}

impl From<SimMachine> for AnyMachine {
    fn from(m: SimMachine) -> Self {
        AnyMachine::Sim(m)
    }
}

impl From<ThreadMachine> for AnyMachine {
    fn from(m: ThreadMachine) -> Self {
        AnyMachine::Threads(m)
    }
}

impl Machine for AnyMachine {
    fn nprocs(&self) -> usize {
        match self {
            AnyMachine::Sim(m) => m.nprocs(),
            AnyMachine::Threads(m) => m.nprocs(),
        }
    }

    fn seed(&self) -> u64 {
        match self {
            AnyMachine::Sim(m) => m.seed(),
            AnyMachine::Threads(m) => m.seed(),
        }
    }

    fn backend_name(&self) -> &'static str {
        match self {
            AnyMachine::Sim(m) => m.backend_name(),
            AnyMachine::Threads(m) => m.backend_name(),
        }
    }

    fn time_unit(&self) -> &'static str {
        match self {
            AnyMachine::Sim(m) => m.time_unit(),
            AnyMachine::Threads(m) => m.time_unit(),
        }
    }

    fn make_timer(&self, rec: Recorder) -> Box<dyn PhaseTimer> {
        match self {
            AnyMachine::Sim(m) => m.make_timer(rec),
            AnyMachine::Threads(m) => m.make_timer(rec),
        }
    }

    fn make_report(&self, phases: &[PhaseRecord]) -> CostReport {
        match self {
            AnyMachine::Sim(m) => m.make_report(phases),
            AnyMachine::Threads(m) => m.make_report(phases),
        }
    }
}
