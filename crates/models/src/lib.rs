//! # qsm-models — parallel cost models and analytical machinery
//!
//! This crate contains the *pure mathematics* of the QSM evaluation:
//! the cost models themselves (QSM, s-QSM, BSP, LogP), the phase
//! profiles they are evaluated against, machine parameter tables, the
//! Chernoff-bound machinery used for the "WHP bound" analyses of the
//! randomized algorithms, and the `n_min` extrapolation of Table 4.
//!
//! Everything here is deterministic, allocation-light, and free of I/O
//! so that it can be reused by the simulator, the runtime's cost
//! accounting, and the benchmark harness alike.
//!
//! ## Model summary
//!
//! A **QSM** machine is `p` identical processors with private memory
//! communicating through shared memory in bulk-synchronous *phases*.
//! If, during a phase, the maximum number of local operations at any
//! processor is `m_op`, the maximum number of remote reads/writes by
//! any processor is `m_rw`, and the maximum number of accesses to any
//! single shared-memory location is `κ`, the phase costs
//!
//! ```text
//! QSM:   max(m_op, g · m_rw, κ)
//! s-QSM: max(m_op, g · m_rw, g · κ)
//! ```
//!
//! **BSP** charges `w + g·h + L` per superstep, and **LogP** charges
//! per-message overhead `o` and latency `l` explicitly. The whole
//! point of the paper — and of this crate's layout — is that QSM has
//! only two architectural parameters (`p`, `g`) while still tracking
//! machines well for reasonable problem sizes.
//!
//! ## Modules
//!
//! * [`params`] — [`QsmParams`], [`SQsmParams`], [`BspParams`] and
//!   [`LogPParams`]: each model's parameters and its cost of one phase
//!   given `(m_op, m_rw, κ, h, msgs)`.
//! * [`phase`] — [`PhaseProfile`], the per-processor maxima measured
//!   for one phase; a program's prediction under a model is the sum of
//!   that model's per-phase cost over its phases.
//! * [`machine`] — [`MachineSpec`], the rows of Table 4 (default
//!   simulation, Berkeley NOW, Pentium-II/TCP, Cray T3E, Intel
//!   Paragon, Meiko CS-2) with their cycle-unit conversions.
//! * [`chernoff`] — the binomial tail bounds behind the WHP analyses
//!   of sample sort and list ranking (maximum bucket size `B`,
//!   off-processor fraction `r`, per-phase survivor counts).
//! * [`nmin`] — the Table 4 extrapolation: the minimal `n/p` for QSM
//!   accuracy as a linear function of `l`, `o` and `p`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod chernoff;
pub mod machine;
pub mod nmin;
pub mod params;
pub mod phase;

pub use machine::MachineSpec;
pub use params::{BspParams, LogPParams, QsmParams, SQsmParams};
pub use phase::PhaseProfile;
