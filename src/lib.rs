//! # qsm — Experimental evaluation of QSM, a simple shared-memory model
//!
//! Umbrella crate re-exporting the public API of the `qsm-rs`
//! workspace, a from-scratch Rust reproduction of
//!
//! > B. Grayson, M. Dahlin, V. Ramachandran,
//! > *Experimental Evaluation of QSM, a Simple Shared-Memory Model*,
//! > UTCS TR98-21 / IPPS 1999.
//!
//! The workspace provides:
//!
//! * [`models`] — the QSM, s-QSM, BSP, and LogP cost models, machine
//!   parameter tables, and the Chernoff-bound analysis machinery.
//! * [`simnet`] — a discrete-event simulator of a message-passing
//!   multiprocessor with configurable gap, latency, and per-message
//!   overhead (our stand-in for the paper's Armadillo simulator).
//! * [`core`] — the bulk-synchronous shared-memory runtime
//!   (`get`/`put`/`sync`) with full per-phase cost accounting, running
//!   either on the simulator or natively on host threads.
//! * [`algorithms`] — the paper's three QSM algorithms (prefix sums,
//!   sample sort, list ranking) with their analytical prediction
//!   lines (best case, Chernoff WHP bound, measured-skew estimates).
//! * [`membank`] — the Section 4 memory-bank contention
//!   microbenchmark with per-machine bank-queue simulators and a
//!   native threaded variant.
//!
//! The package's `examples/` drive that API end to end (quickstart,
//! a sample-sort pipeline, log reconstruction as a list-ranking
//! workload, analytics, a custom-machine what-if, the membank probe,
//! and the per-phase and page-fault cost probes), and its `tests/`
//! hold the cross-crate integration tests. The open-loop serving layer
//! (`qsm-serve`) and the experiment harness (`qsm-bench`) are crates of
//! their own, not re-exported here.
//!
//! ## Quickstart
//!
//! ```
//! use qsm::core::{Layout, Machine, SimMachine};
//! use qsm::simnet::MachineConfig;
//!
//! // A 4-processor simulated machine with the paper's default
//! // network (g = 3 cycles/byte, o = 400 cycles, l = 1600 cycles).
//! let machine = SimMachine::new(MachineConfig::paper_default(4));
//!
//! // Every processor writes its id into a shared array, reads its
//! // right neighbor's entry in the next phase, and returns it.
//! let run = machine.run(|ctx| {
//!     let arr = ctx.register::<u64>("ring", ctx.nprocs(), Layout::Block);
//!     ctx.sync(); // registration completes
//!     let me = ctx.proc_id() as u64;
//!     ctx.put(&arr, ctx.proc_id(), &[me]);
//!     ctx.sync(); // writes become visible
//!     let right = (ctx.proc_id() + 1) % ctx.nprocs();
//!     let t = ctx.get(&arr, right, 1);
//!     ctx.sync(); // reads complete
//!     ctx.take(t)[0]
//! });
//!
//! assert_eq!(run.outputs, vec![1, 2, 3, 0]);
//! println!("{}", machine.make_report(&run.phases)); // measured + predicted cycle counts
//! ```

pub use qsm_algorithms as algorithms;
pub use qsm_core as core;
pub use qsm_membank as membank;
pub use qsm_models as models;
pub use qsm_simnet as simnet;
