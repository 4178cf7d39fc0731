//! # qsm-serve — an open-loop transaction serving layer
//!
//! Every experiment up to this crate is *closed-loop*: a fixed set of
//! workers issues a phase of operations, waits for the barrier, and
//! only then issues more, so the system can never be offered more
//! work than it finishes. Real shared-memory services are not so
//! polite. This crate models the other regime: millions of logical
//! clients issuing get/put transactions against values hash-sharded
//! across the machine's nodes, at an *offered load* that does not
//! care whether the machine is keeping up.
//!
//! * [`config::ServiceConfig`] — the scenario: client population,
//!   shard count, value size, get/put mix, arrival window, offered
//!   load, optional admission control.
//! * [`arrival`] — the seeded arrival process. Transaction `i` is a
//!   pure SplitMix64 function of `(seed, i)`, so runs replay exactly
//!   and raising the load strictly extends the transaction stream.
//! * [`engine`] — the event-timeline engine: the arrival stream,
//!   sorted once by integer key, merged with an
//!   [`qsm_simnet::event::EventQueue`] of in-flight sends (first
//!   sends on its FIFO lanes, replies and retries in its heap) drives
//!   the *same* staged delivery pipeline ([`qsm_simnet::Network`]) the
//!   batch experiments use, message by message, with keyed fault
//!   retries and per-transaction latency measurement.
//! * [`model`] — utilization-model predictions (`ρ_send`, `ρ_recv`,
//!   `ρ_bank`, capacity) to plot against the measurements.
//!
//! The headline experiment (`ext_service` in `qsm-bench`) sweeps
//! offered load through the saturation knee: below it, throughput
//! tracks the offered load and the utilization model is accurate;
//! above it, throughput plateaus at the predicted capacity while
//! open-loop latency grows without bound — the regime where QSM's
//! contention-free account of communication stops describing the
//! machine.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod arrival;
pub mod config;
pub mod engine;
pub mod model;

pub use arrival::Txn;
pub use config::ServiceConfig;
pub use engine::{run, ServiceOutcome};
pub use model::{predict, Prediction};
