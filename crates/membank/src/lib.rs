//! # qsm-membank — the Section 4 memory-bank contention study
//!
//! QSM does not model how data spreads across memory banks; it
//! expects the runtime to randomize layout and charges only hot-spot
//! contention (κ). Section 4 of the paper stress-tests that decision
//! with a microbenchmark running three patterns — [`pattern::Pattern::Random`]
//! (what randomization achieves), [`pattern::Pattern::Conflict`]
//! (worst case), and [`pattern::Pattern::NoConflict`] (hand-placed
//! ideal) — on four platforms.
//!
//! This crate provides:
//! * [`platform`] — queue-parameter profiles of the four platforms
//!   (Sun E5000 natively and under BSPlib, an Ethernet NOW under
//!   BSPlib, and a Cray T3E with `shmem`).
//! * [`microbench`] — the generic microbenchmark loop: deterministic
//!   per-processor target drawing plus the [`BankBackend`] trait the
//!   two executors implement (the membank counterpart of qsm-core's
//!   `Machine` unification).
//! * [`sim`] — the closed-loop bank-queue simulator backend that
//!   regenerates Figure 7's panels.
//! * [`native`] — the same microbenchmark on the host machine, with
//!   padded atomics as banks, for a real-hardware data point.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod microbench;
pub mod native;
pub mod pattern;
pub mod platform;
pub mod sim;

pub use microbench::{run_all, run_pattern, BankBackend, Sample};
pub use native::NativeBank;
pub use pattern::Pattern;
pub use platform::BankMachine;
pub use sim::{simulate_all, SimBank};
