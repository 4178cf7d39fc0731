//! # qsm-obs — run-wide observability for the QSM workspace
//!
//! The paper's whole argument rests on decomposing a bulk-synchronous
//! run into compute, communication, barrier wait, and queue
//! contention (κ). End-of-run totals ([`qsm-core`'s `CostReport`])
//! show *that* a model mispredicts; localizing *why* needs the layer
//! in between: per-phase per-processor timelines, exchange-schedule
//! occupancy, and κ/queue-depth distributions. This crate provides
//! that layer for every runtime in the workspace.
//!
//! **Zero-overhead when disabled, passive when enabled.** A disabled
//! recorder is a `None` and every record call an inlined early return,
//! so the figure CSVs are produced with the instrumentation compiled in
//! but off. Enabled, it is strictly a sink: the runtime feeds it
//! *after* a phase has been priced, with the already-computed
//! simulated cycles as timestamps, so an observed run prices every
//! phase bit-identically to an unobserved one (a `qsm-core` test pins
//! this). The two capture levels carry the determinism contract:
//! [`ObsLevel::Metrics`] keeps only commutative integer aggregates and
//! is byte-stable across `QSM_JOBS`; [`ObsLevel::Full`] adds the
//! ordered span and wire streams and is meant for a single run.
//!
//! ## Modules
//!
//! * [`span`] — [`Span`], typed span events (phase compute/comm on a
//!   machine track, per-processor compute / comm-busy / barrier-wait
//!   lanes, exchange rounds) and counter samples, keyed on simulated
//!   [`Cycles`] so output is deterministic.
//! * [`metrics`] — [`MetricsRegistry`], named monotone counters and
//!   fixed-bucket power-of-two histograms. Every operation is a
//!   commutative integer update, so concurrent runs feeding one
//!   registry dump byte-identically in any interleaving (`QSM_JOBS`).
//! * [`recorder`] — [`Recorder`], the cheap, clonable handle the
//!   runtimes emit into, and [`ObsData`], the drained capture.
//! * [`perfetto`] — the capture as Chrome trace-event JSON (load in
//!   <https://ui.perfetto.dev>): one track per processor, a wire track
//!   fed by the `qsm-simnet` [`TraceEvent`] stream (barrier legs
//!   included), and counter tracks for κ and per-destination queue
//!   depth.
//! * [`journal`] — [`RunJournal`], an append-only JSONL sink: one
//!   durable line per record, safe to tail mid-run; the `benchmark/`
//!   crate times its appends.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod journal;
pub mod metrics;
pub mod perfetto;
pub mod recorder;
pub mod span;

pub use journal::{json_escape, RunJournal};
pub use metrics::{Histogram, MetricsRegistry};
pub use recorder::{ObsData, ObsLevel, Recorder, WireEvent};
pub use span::{CounterSample, Span, SpanKind};

pub use qsm_simnet::trace::TraceEvent;
pub use qsm_simnet::Cycles;
