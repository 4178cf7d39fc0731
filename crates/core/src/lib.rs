//! # qsm-core — the bulk-synchronous QSM shared-memory runtime
//!
//! This crate is the Rust counterpart of the paper's shared-memory
//! library: remote memory is accessed with explicit [`Ctx::get`] /
//! [`Ctx::put`] calls that merely *enqueue* requests; all
//! communication happens inside [`Ctx::sync`], where the runtime
//! builds a communication plan, batches per-destination messages,
//! exchanges data in a contention-avoiding round order, and runs a
//! barrier — exactly the compiler-side of the QSM contract (Table 1
//! of the paper: hide `l` and `o` by pipelining and batching).
//!
//! Programs are ordinary Rust closures over a [`Ctx`] and run
//! unmodified on every [`Machine`] backend — one shared engine
//! (plan → exchange → price → record) with a per-backend
//! [`PhaseTimer`] deciding what each phase costs:
//!
//! * [`SimMachine`] — `p` simulated processors priced by the
//!   `qsm-simnet` network model; produces exact simulated cycle
//!   counts plus QSM/s-QSM/BSP/LogP predictions per run.
//! * [`ThreadMachine`] — `p` processors on `min(p, cores)` real host
//!   threads (a stack per processor), priced by the wall clock
//!   (nanoseconds), for actually-parallel execution.
//!
//! ## Example: one program, two backends
//!
//! Write the program once, generically over [`Machine`]; run it on
//! both machines; the outputs (and the phase structure, profile, and
//! traffic accounting) are identical — only the time unit differs.
//!
//! ```
//! use qsm_core::{Layout, Machine, SimMachine, ThreadMachine};
//! use qsm_simnet::MachineConfig;
//!
//! fn rotate<M: Machine>(machine: &M) -> Vec<u64> {
//!     let run = machine.run(|ctx| {
//!         let arr = ctx.register::<u64>("ring", ctx.nprocs(), Layout::Block);
//!         ctx.sync();
//!         let me = ctx.proc_id();
//!         ctx.put(&arr, me, &[me as u64 * 10]);
//!         ctx.sync();
//!         let t = ctx.get(&arr, (me + 1) % ctx.nprocs(), 1);
//!         ctx.sync();
//!         ctx.take(t)[0]
//!     });
//!     assert_eq!(run.num_phases(), 3);
//!     run.outputs
//! }
//!
//! let sim = SimMachine::new(MachineConfig::paper_default(4));
//! let threads = ThreadMachine::new(4);
//! assert_eq!(rotate(&sim), vec![10, 20, 30, 0]);
//! assert_eq!(rotate(&sim), rotate(&threads));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod accounting;
pub mod addr;
pub mod calibrate;
pub mod ctx;
mod driver;
mod engine;
// Four audited exceptions: the stacks and the context switch of hosted
// processors, the exchange area (barrier-bracketed shared slots), the
// worker pool every run rides on (the leased job reference), and the
// two casts that view packed storage words as a slice of a sealed
// primitive type.
#[allow(unsafe_code)]
mod fiber;
pub mod machine;
pub mod obs;
pub mod ops;
#[allow(unsafe_code)]
pub mod pool;
pub mod shmem;
pub mod sim_runtime;
mod sim_timer;
#[allow(unsafe_code)]
mod spmd;
pub mod tally;
pub mod thread_runtime;
#[allow(unsafe_code)]
pub mod word;

pub use accounting::{CostReport, ModelInputs};
pub use addr::{ArrayId, Layout};
pub use calibrate::EffectiveCosts;
pub use ctx::Ctx;
pub use driver::{CommMatrix, PairTraffic, PhasePrice, PhaseRecord, PhaseTiming};
pub use machine::{AnyMachine, Machine, PhaseTimer, RunResult};
pub use ops::GetTicket;
pub use shmem::SharedArray;
pub use sim_runtime::SimMachine;
pub use sim_timer::SimTimer;
pub use thread_runtime::{ThreadMachine, WallTimer};
pub use word::Word;
