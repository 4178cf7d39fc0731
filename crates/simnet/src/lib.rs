//! # qsm-simnet — discrete-event multiprocessor network simulator
//!
//! This crate is the workspace's stand-in for *Armadillo*, the
//! simulator used in the paper. The paper's experiments exercise only
//! Armadillo's network model — a configurable gap (bandwidth),
//! latency, and per-message overhead, with **no network contention**
//! — plus a fixed CPU configuration used to convert local work into
//! cycles. `qsm-simnet` implements exactly that surface, plus three
//! opt-in stages the workspace's own experiments add.
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
//! `fabric` stage). The default `Flat` topology builds no
//! table and has no link stage at all — the `arrive` line above is
//! the exact arithmetic — and the machine-wide shared fabric
//! ([`config::MachineConfig::with_fabric`]) is the one-link table, so
//! there is a single congestion code path.
//!
//! The third is message loss ([`config::NetConfig::faults`], see
//! [`fault`]): a lost message still holds its sender's NIC and the
//! links, but never reaches the receive engine. The exchange
//! destination order ([`config::ExchangeOrder`]) is selectable too,
//! for the scheduling ablation. Every optional stage is an `Option` whose `None` arm is
//! the exact original arithmetic, so a disabled config is
//! byte-identical to a build without the feature.
//!
//! ## Modules
//!
//! * [`time`] — [`Cycles`], simulated time in processor clock cycles
//!   (an `f64` newtype, total-ordered, never NaN).
//! * [`config`] — [`MachineConfig`], the simulated machine: processor
//!   count, network parameters (Table 3), CPU parameters (Table 2's
//!   400 MHz node reduced to a cycles-per-operation rate), the
//!   shared-memory library's software costs and wire format
//!   ([`config::wire_bytes`]), and the presets
//!   (the paper's default: g = 3 cycles/byte, o = 400, l = 1600).
//! * [`message`] — [`message::Injection`], what a sender hands the
//!   network, and [`message::MsgKind`], its statistics class.
//! * [`network`] — [`Network`], the three-stage delivery pipeline:
//!   [`Network::send_one`] delivers one message and
//!   [`Network::transmit_into`] a batch, each reporting when a message
//!   becomes visible to the receiving node's software.
//! * [`timeline`] — [`timeline::FifoTimeline`], the one FIFO resource
//!   every stage is expressed on (send NIC, receive engine, link,
//!   bank), so the batch exchange and the open-loop `qsm-serve` engine
//!   price a message through the same arithmetic.
//! * `fabric` — the route stage: walks a message over its route's
//!   links, each a FIFO at the link gap, each hop adding the
//!   topology's share of the wire latency.
//! * [`topology`] — [`TopologyKind`], the `Copy` description a
//!   [`NetConfig`] carries, and [`topology::Routes`], the route table
//!   it builds.
//! * [`barrier`] — the dissemination barrier built *out of simulated
//!   messages*, so the measured barrier cost `L` (25 500 cycles at
//!   p = 16 in the paper) emerges from `l`, `o` and per-round software
//!   cost. It fills caller-owned buffers that the runtime keeps across
//!   phases. Table 3's L row is a whole empty `sync()` (plan exchange
//!   and barrier), priced by `qsm_core`'s `SimMachine::empty_sync_cost`.
//! * [`fault`] — deterministic message loss and the resend rule the
//!   delivery loops above this crate share.
//! * [`stats`] — [`NetStats`]: message and byte counts per kind, drops,
//!   and the link stage's message and byte totals. A resource's busy
//!   time is its timeline's ([`Network::send_busy_total`],
//!   [`Network::link_busy_total`]).
//! * [`trace`] — optional bounded event capture (the first `cap`
//!   events, the rest counted as dropped), drained every phase into
//!   the recorder's wire stream.
//! * [`event`] — [`event::EventQueue`], the deterministic
//!   `(time, insertion)` priority queue under the `qsm-serve`
//!   timeline: one integer key per event ([`event::event_key`]), and
//!   FIFO lanes that presorted pushes can bypass the heap on without
//!   changing the pop order.

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

pub use config::{BankModel, ExchangeOrder, MachineConfig, NetConfig, SoftwareConfig, CLOCK_HZ};
pub use fault::FaultConfig;
pub use message::{Injection, MsgKind};
pub use network::{Delivery, Network};
pub use stats::NetStats;
pub use time::Cycles;
pub use timeline::{FifoTimeline, ServiceSlot};
pub use topology::{LinkId, Routes, TopologyKind};
pub use trace::{Trace, TraceEvent};
