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
//! best-case, Chernoff WHP-bound, and estimate lines the paper plots
//! in Figures 1–3, priced with effective (software-inclusive) gaps
//! from [`qsm_core::EffectiveCosts`]; an estimate prices the words the
//! runtime metered in the run's measured phases
//! ([`analysis::estimate`]).
//!
//! ## Modules
//!
//! * [`prefix`] — Appendix `parallelprefix`: local prefix, broadcast
//!   of the per-processor sums, offset fixup. QSM comm `g(p-1)`, BSP
//!   `g(p-1) + L`.
//! * [`samplesort`] — Appendix `samplesort`: five phases, oversampling
//!   factor `c·log n`, `p-1` pivots, bucket redistribution, local sort,
//!   write-back; it reports the skews `B` and `r` it measured.
//! * [`listrank`] — Appendix `listrank`: random-mate elimination for
//!   `4·log₂ p` iterations, the survivors ranked on processor 0, and
//!   re-insertion in reverse.
//! * [`histogram`] — (beyond the paper) owner-computes combining, the
//!   idiomatic QSM answer to concurrent increments (κ stays 1).
//! * [`analysis`] — the machinery of the prediction lines (best case,
//!   WHP bound, QSM and BSP estimates) on the effective gaps
//!   [`qsm_core::EffectiveCosts`] measures.
//! * [`collectives`] — `Fetch` and `store`, the access rule (in place
//!   when the caller owns the element, else a get or a put), and
//!   `Gather`, how a block-distributed result leaves the machine.
//! * [`seq`] — the sequential oracles and baselines.
//! * [`gen`] — the seeded workload generators: uniform arrays and
//!   random-permutation linked lists.
//!
//! ## Which arrays a kernel registers
//!
//! A kernel registers a shared array only for data that another
//! processor reads or writes. Data that only its owner reads is read
//! in place from the caller's slice at `addr::block_range(n, p, me)`,
//! the block a `Layout::Block` array of `n` elements would give it:
//!
//! | kernel | registers | reads in place |
//! |---|---|---|
//! | `prefix` | `prefix.sums` (`p × p`: every processor puts its block total into every row) | its block of the input; the sums are computed in its part of the output |
//! | `samplesort` | `ssort.staged` (`n`: bucket owners get its runs in phase 4; phase 5 puts the sorted buckets back into it, and it is gathered), `ssort.samples`, `ssort.counts`, `ssort.btotals` | its block of the input, sampled in phase 2 and staged from in phase 3 |
//! | `listrank` | `lr.succ`, `lr.pred`, `lr.weight`, `lr.flip`, `lr.rank`, `lr.counts`, the survivor arrays | nothing: peers read or write every `n`-element array |
//! | `histogram` | `hist.parts` (owners receive partial counts) | its block of the input |
//!
//! Every kernel keeps its setup phase and every `ctx.charge`, so its
//! phase count and every `PhaseRecord` are those the model lines are
//! drawn for; `tests/kernel_goldens.rs` pins them.

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

use qsm_core::{PhaseTiming, RunResult};
use qsm_simnet::Cycles;

/// Cycles summed over a kernel run's measured phases, those after its
/// first `setup` (array registration and input distribution): what
/// each kernel's `comm()` and `total()` report.
fn measured<R>(run: &RunResult<R>, setup: usize, cycles: fn(&PhaseTiming) -> Cycles) -> f64 {
    run.phases[setup..].iter().map(|r| cycles(&r.timing).get()).sum()
}
