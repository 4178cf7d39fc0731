//! # qsm-simnet — discrete-event multiprocessor network simulator
//!
//! This crate is the workspace's stand-in for *Armadillo*, the
//! simulator used in the paper. The paper's experiments exercise only
//! Armadillo's network model — a configurable gap (bandwidth),
//! latency, and per-message overhead, with **no network contention**
//! — plus a fixed CPU configuration used to convert local work into
//! cycles. `qsm-simnet` implements exactly that surface:
//!
//! * [`time::Cycles`] — simulated time in processor clock cycles.
//! * [`config::MachineConfig`] — the simulated machine: processor
//!   count, network parameters (Table 3), CPU parameters (Table 2's
//!   400 MHz node reduced to a cycles-per-operation rate), and the
//!   shared-memory library's software cost constants.
//! * [`network::Network`] — per-node send/receive engines with busy
//!   timelines; [`network::Network::send_one`] delivers one message
//!   and [`network::Network::transmit_into`] a batch, each reporting
//!   when a message becomes visible to the receiving node's software.
//! * [`barrier`] — a dissemination barrier built *out of simulated
//!   messages*, so that the measured barrier cost `L` (the paper
//!   reports 25 500 cycles at p = 16) emerges from `l`, `o`, and
//!   per-round software cost rather than being configured directly.
//! * [`event::EventQueue`] — the deterministic `(time, insertion)`
//!   priority queue under the `qsm-serve` timeline: events are ordered
//!   by one integer key computed at the push ([`event::event_key`]),
//!   and a caller whose events come presorted can hint them onto FIFO
//!   lanes that bypass the heap without changing the pop order.
//! * [`timeline::FifoTimeline`] — the FIFO service-timeline primitive
//!   every stage above is expressed on, with the busy/backlog
//!   accounting that lets an *open-loop* caller (the `qsm-serve`
//!   transaction engine) drive the same delivery pipeline from a
//!   seeded arrival stream instead of a phase plan.
//!
//! The network model, per message of `b` bytes from `s` to `d`:
//!
//! ```text
//! depart(m)  = max(ready(m), send_free(s)) + o_send + b·gap
//! arrive(m)  = depart(m) + latency
//! ingest(m)  = max(arrive(m), recv_free(d)) + o_recv + b·gap
//! visible(m) = ingest(m)                                 (no banks)
//!            = max(ingest(m), bank_free(d, k)) + service  (bank k)
//! ```
//!
//! with `send_free`/`recv_free` advancing FIFO per node. This gives
//! pipelining (many messages overlap their latencies) and batching
//! (one overhead per message, however large) exactly the roles the
//! QSM contract assigns to the compiler/runtime. The final bank line
//! is the opt-in [`config::BankModel`] stage (Section 4's
//! destination-side memory-bank contention, folded into the one data
//! plane); without it — or for messages that name no bank — the
//! arithmetic is bit-identical to the paper's bank-free simulator.
//!
//! A second opt-in stage sits between `depart` and `arrive`: a
//! non-flat [`topology::TopologyKind`] builds a [`topology::Routes`]
//! table, and every inter-node message is forwarded hop-by-hop along
//! its route, each directed link a FIFO serializing at the link gap,
//! each hop adding the topology's share of the wire latency (the
//! internal `fabric` stage). The default `Flat` topology builds no
//! table and has no link stage at all — the `arrive` line above is
//! the exact arithmetic — and the machine-wide shared fabric
//! ([`config::MachineConfig::with_fabric`]) is the one-link table, so
//! there is a single congestion code path.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod barrier;
pub mod config;
pub mod event;
pub(crate) mod fabric;
pub mod fault;
pub mod message;
pub mod network;
pub mod stats;
pub mod time;
pub mod timeline;
pub mod topology;
pub mod trace;

pub use config::{BankModel, CpuConfig, ExchangeOrder, MachineConfig, NetConfig, SoftwareConfig};
pub use fault::FaultConfig;
pub use message::{Injection, MsgKind};
pub use network::{Delivery, Network};
pub use stats::NetStats;
pub use time::Cycles;
pub use timeline::{FifoTimeline, ServiceSlot};
pub use topology::{LinkId, Routes, TopologyKind};
pub use trace::{Trace, TraceEvent};
