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
//!
//! The crate reads no environment variable: every `QSM_*` knob is the
//! harness's, parsed once in `qsm-bench`.
//!
//! ## Modules
//!
//! The programming surface:
//!
//! * [`ctx`] — [`Ctx`], what a program sees: `proc_id`, `nprocs`,
//!   `charge`, `register`, `put`, `get`, `take`, the local windows and
//!   `sync()`, with bulk-synchrony checked at run time.
//! * [`shmem`] — [`SharedArray`] handles and [`shmem::ArrayInfo`], an
//!   array's metadata with its block partition.
//! * [`addr`] — [`ArrayId`], [`Layout`] (block or hashed cost owner)
//!   and `BlockGeom`, the block partition of one array,
//!   divided once.
//! * [`word`] — the sealed [`Word`] element types and the two casts
//!   between packed storage words and `[T]`.
//! * [`ops`] — what a processor queues in a phase: the
//!   `Outbox` and [`GetTicket`].
//!
//! The engine every backend runs on:
//!
//! * `engine` — the one run loop: leases the carriers, hosts the
//!   processors, and assembles the [`RunResult`] (the processors'
//!   outputs and the phase records, nothing derived from them).
//! * `fiber` — a stack per hosted processor and the user-space switch
//!   between them: how `p` processors ride on `min(p, cores)` threads.
//! * [`pool`] — the process-global pool of resident worker threads a
//!   run leases its carriers from.
//! * `spmd` — the exchange area every `sync()` rendezvouses in, the
//!   two-level barrier, and the exchange stage (serve own gets, κ of
//!   own block, apply own puts). All the `unsafe` of reading a peer's
//!   publication lives here.
//! * `driver` — the backend-independent plan → price → record stages
//!   over the workers' published rows, and the κ sweep; assembles
//!   each phase's [`PhaseRecord`] from one [`CommMatrix`].
//! * [`machine`] — the [`Machine`] and [`PhaseTimer`] backend traits
//!   and [`AnyMachine`], the two-variant enum the harness selects with
//!   `QSM_BACKEND`.
//!
//! The backends and what surrounds a run:
//!
//! * [`sim_runtime`] / `sim_timer` — [`SimMachine`], whose
//!   [`SimTimer`] prices plan, exchange and barrier on `qsm-simnet`
//!   and runs the delivery protocol over a lossy network.
//! * [`thread_runtime`] — [`ThreadMachine`], the same engine on the
//!   host's cores, priced by [`WallTimer`] in nanoseconds.
//! * [`accounting`] — [`CostReport`]: measured times beside the QSM,
//!   s-QSM, BSP and LogP predictions of `qsm-models`.
//! * [`calibrate`] — [`EffectiveCosts`]: the Table 3 microbenchmarks
//!   (observed put and get gap, empty `sync()`), once per machine per
//!   process.
//! * [`obs`] — the process-global recorder slot: a harness installs a
//!   recorder once and every run emits into it.
//! * [`tally`] — per-thread fault totals of the runs a thread started,
//!   for the sweep journal.

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
