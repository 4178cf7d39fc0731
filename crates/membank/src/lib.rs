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
//! ## Modules
//!
//! * [`pattern`] — the three access patterns.
//! * [`platform`] — queue-parameter profiles of the four platforms
//!   (Sun E5000 natively and under BSPlib, an Ethernet NOW under
//!   BSPlib, and a Cray T3E with `shmem`).
//! * [`sim`] — the microbenchmark itself: deterministic per-processor
//!   target drawing and the closed loop that regenerates Figure 7's
//!   panels through the `qsm-simnet` bank stage, so the workspace has
//!   exactly one bank-queue model.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod pattern;
pub mod platform;
pub mod sim;

pub use pattern::Pattern;
pub use platform::BankMachine;
pub use sim::{simulate_all, Sample};
