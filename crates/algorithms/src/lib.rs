//! # qsm-algorithms — the paper's QSM workloads and their analyses
//!
//! Implementations of the three algorithms the paper evaluates —
//! [`prefix`] sums (parallelism with very little communication),
//! [`samplesort`] (some communication), and [`listrank`] (large
//! amounts of irregular communication) — written against the
//! `qsm-core` programming context so they run unmodified on both the
//! simulated machine and the native thread machine.
//!
//! Each algorithm module also carries its *analytical* side: the
//! best-case, Chernoff WHP-bound, and measured-skew estimate lines
//! the paper plots in Figures 1–3, priced with effective
//! (software-inclusive) gaps from [`qsm_core::EffectiveCosts`].
//!
//! Beyond the paper's three, [`histogram`] (owner-computes
//! reduction) shows the library on a combining workload.
//!
//! [`seq`] holds the sequential oracles, [`gen`] the workload
//! generators, and [`collectives`] small reusable building blocks.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod analysis;
pub mod collectives;
pub mod gen;
pub mod histogram;
pub mod listrank;
pub mod prefix;
pub mod samplesort;
pub mod seq;

pub use analysis::Prediction;
