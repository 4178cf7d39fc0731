//! Simulated machine configuration.
//!
//! Three layers mirror the paper's setup:
//!
//! * [`NetConfig`] — the raw *hardware* network of Table 3
//!   (gap = 3 cycles/byte, per-message overhead = 400 cycles,
//!   latency = 1600 cycles by default).
//! * [`CpuConfig`] — Table 2's node, reduced to a cycles-per-operation
//!   rate at 400 MHz (the paper never varies CPU parameters, so the
//!   superscalar pipeline is summarized by this single constant; see
//!   DESIGN.md for the substitution rationale).
//! * [`SoftwareConfig`] — the shared-memory library's costs: per-item
//!   marshal/apply/serve CPU work, per-item and per-message wire
//!   headers, and per-round barrier software cost. These are the
//!   reason the *observed* gap (~35 cycles/byte for `put`, ~287 for
//!   `get`) is an order of magnitude above the hardware gap, exactly
//!   as in Table 3; the constants below are calibrated so the
//!   simulated Table 3 reproduces the paper's observed rows.

use crate::fault::FaultConfig;
use crate::time::Cycles;
use crate::topology::TopologyKind;

/// Order in which the library visits destinations during the bulk
/// exchange.
///
/// The paper's library exchanges data "in an order designed to reduce
/// contention and avoid deadlock"; [`ExchangeOrder::LatinSquare`] is
/// that order (round `r`: node `i` talks to `i + r mod p`, so every
/// receiver hears from exactly one sender per round).
/// [`ExchangeOrder::DirectSweep`] is the naive order (every sender
/// walks destinations `0, 1, 2, …`), which piles the whole machine
/// onto one receiver at a time — kept as an ablation of the
/// scheduling claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangeOrder {
    /// Contention-avoiding rotation (the paper's schedule).
    #[default]
    LatinSquare,
    /// Naive destination sweep (ablation: hot receivers).
    DirectSweep,
}

/// Destination-side memory-bank model (extension; the paper's
/// simulator has no bank stage and answers Section 4 with a separate
/// closed-loop queue simulator instead).
///
/// When installed on a [`NetConfig`], every message that names a
/// destination bank ([`crate::Injection::with_bank`]) queues FIFO at
/// that bank *after* the receive engine ingests it: the bank services
/// one message at a time at `service_fixed + service_per_byte · b`
/// cycles, so simultaneous traffic into one bank serializes while
/// traffic spread across banks proceeds in parallel. Messages with no
/// bank (control traffic: plans, barriers, `get` replies) bypass the
/// stage untouched, and with `NetConfig::banks = None` the delivery
/// arithmetic is bit-identical to the bank-free simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankModel {
    /// Memory banks per node (each with its own FIFO service queue).
    pub banks_per_node: usize,
    /// Fixed service cycles per banked message.
    pub service_fixed: f64,
    /// Service cycles per wire byte of a banked message.
    pub service_per_byte: f64,
}

impl BankModel {
    /// A model with `banks` banks per node and a purely per-message
    /// service time (the shape of the Section 4 microbenchmark, which
    /// accesses single words).
    pub fn per_message(banks: usize, service_fixed: f64) -> Self {
        Self { banks_per_node: banks, service_fixed, service_per_byte: 0.0 }
    }

    /// Validate invariants (at least one bank; non-negative, finite
    /// service costs).
    pub fn validate(&self) {
        assert!(self.banks_per_node >= 1, "bank model needs at least one bank per node");
        assert!(self.service_fixed >= 0.0 && self.service_fixed.is_finite());
        assert!(self.service_per_byte >= 0.0 && self.service_per_byte.is_finite());
    }

    /// Cycles a bank is occupied servicing one message of `bytes`.
    pub fn service(&self, bytes: u64) -> Cycles {
        Cycles::new(self.service_fixed + self.service_per_byte * bytes as f64)
    }
}

/// Raw network hardware parameters (all cycles / cycles-per-byte).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Gap: NIC serialization cost, cycles per byte.
    pub gap_per_byte: f64,
    /// Per-message overhead at the sender, cycles.
    pub send_overhead: f64,
    /// Per-message overhead at the receiver, cycles.
    pub recv_overhead: f64,
    /// Wire latency, cycles.
    pub latency: f64,
    /// Network topology of the staged link fabric (extension;
    /// [`TopologyKind::Flat`] — the default — reproduces the paper's
    /// structureless wire bit-exactly by skipping the link stage
    /// entirely: the paper's simulator "does not include network
    /// contention"). Non-flat topologies forward every inter-node
    /// message hop-by-hop over per-link FIFO queues; see
    /// [`crate::topology`].
    pub topology: TopologyKind,
    /// Per-directed-link serialization cost of a non-flat
    /// [`NetConfig::topology`], cycles per byte. `None` (the
    /// default) uses the NIC gap [`NetConfig::gap_per_byte`] — every
    /// link as fast as an endpoint. Ignored on the flat wire.
    pub link_gap_per_byte: Option<f64>,
    /// Optional deterministic fault injection (extension; `None` — a
    /// fault-free network — reproduces the paper's simulator
    /// bit-exactly). See [`crate::fault`] for the model; faults apply
    /// only to transmissions submitted through
    /// [`crate::Network::transmit_into_faulty`] (the bulk data
    /// exchange), never to plan or barrier traffic.
    pub faults: Option<FaultConfig>,
    /// Optional destination-side memory-bank stage (extension; `None`
    /// — the default — reproduces the paper's bank-free simulator
    /// bit-exactly). See [`BankModel`].
    pub banks: Option<BankModel>,
}

impl NetConfig {
    /// Table 3 defaults: g = 3 cycles/byte (133 MB/s at 400 MHz),
    /// o = 400 cycles (1 µs), l = 1600 cycles (4 µs), no fabric
    /// contention (as in the paper's simulator).
    pub fn paper_default() -> Self {
        Self {
            gap_per_byte: 3.0,
            send_overhead: 400.0,
            recv_overhead: 400.0,
            latency: 1600.0,
            topology: TopologyKind::Flat,
            link_gap_per_byte: None,
            faults: None,
            banks: None,
        }
    }

    /// Validate invariants (non-negative, finite).
    pub fn validate(&self) {
        assert!(self.gap_per_byte >= 0.0 && self.gap_per_byte.is_finite());
        assert!(self.send_overhead >= 0.0 && self.send_overhead.is_finite());
        assert!(self.recv_overhead >= 0.0 && self.recv_overhead.is_finite());
        assert!(self.latency >= 0.0 && self.latency.is_finite());
        if let Some(g) = self.link_gap_per_byte {
            assert!(g >= 0.0 && g.is_finite());
        }
        if let Some(f) = &self.faults {
            f.validate();
        }
        if let Some(b) = &self.banks {
            b.validate();
        }
    }

    /// Cycles a NIC is busy serializing one message of `bytes`.
    pub fn send_busy(&self, bytes: u64) -> Cycles {
        Cycles::new(self.send_overhead + self.gap_per_byte * bytes as f64)
    }

    /// Cycles a receiver is busy ingesting one message of `bytes`.
    pub fn recv_busy(&self, bytes: u64) -> Cycles {
        Cycles::new(self.recv_overhead + self.gap_per_byte * bytes as f64)
    }
}

/// Node CPU parameters (Table 2, collapsed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// Cycles charged per abstract local operation.
    pub cycles_per_op: f64,
    /// Clock rate, Hz (used only for cycle↔second conversion in
    /// reports).
    pub clock_hz: f64,
}

impl CpuConfig {
    /// The paper's 1998 node: 400 MHz, 4-issue superscalar; sustained
    /// throughput on the memory-bound loops of these algorithms is
    /// roughly one useful operation per cycle.
    pub fn default_1998() -> Self {
        Self { cycles_per_op: 1.0, clock_hz: 400e6 }
    }

    /// Cycles for `n` local operations.
    pub fn ops(&self, n: u64) -> Cycles {
        Cycles::new(self.cycles_per_op * n as f64)
    }
}

/// Shared-memory library software costs.
///
/// The defaults are calibrated so that on the Table 3 hardware the
/// simulated library reproduces the paper's observed performance:
/// ~35 cycles/byte for streamed `put`s, ~287 cycles/byte for `get`s,
/// and a ~25 500-cycle barrier at p = 16.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftwareConfig {
    /// Sender-side CPU cycles to marshal one `put` item (copy through
    /// the library's staging buffer, append header).
    pub put_marshal: f64,
    /// Receiver-side CPU cycles to apply one `put` item.
    pub put_apply: f64,
    /// Requester-side CPU cycles to marshal one `get` request item.
    pub get_request: f64,
    /// Owner-side CPU cycles to serve one `get` item (address lookup,
    /// copy into the reply buffer).
    pub get_serve: f64,
    /// Requester-side CPU cycles to deposit one `get` reply item.
    pub get_apply: f64,
    /// Sender-side CPU cycles per 4-byte word copied into an outgoing
    /// buffer (puts and get replies).
    pub copy_per_word_send: f64,
    /// Receiver-side CPU cycles per 4-byte word copied out of an
    /// incoming buffer (puts and get replies).
    pub copy_per_word_recv: f64,
    /// Wire bytes of control information carried per item
    /// (global address + length + tag).
    pub item_header_bytes: u64,
    /// Wire bytes of framing per message.
    pub msg_header_bytes: u64,
    /// Per-node software cycles per dissemination-barrier round
    /// (flag scanning, buffer management).
    pub barrier_round_sw: f64,
    /// CPU cycles to process one communication-plan entry.
    pub plan_entry_cost: f64,
    /// Fixed CPU cycles to enter `sync()`.
    pub sync_fixed: f64,
    /// Destination visit order during the data exchange.
    pub exchange_order: ExchangeOrder,
}

impl SoftwareConfig {
    /// Calibrated defaults (see type-level docs).
    pub fn calibrated() -> Self {
        Self {
            put_marshal: 66.0,
            put_apply: 66.0,
            get_request: 240.0,
            get_serve: 660.0,
            get_apply: 240.0,
            copy_per_word_send: 4.0,
            copy_per_word_recv: 4.0,
            item_header_bytes: 16,
            msg_header_bytes: 32,
            barrier_round_sw: 620.0,
            plan_entry_cost: 30.0,
            sync_fixed: 500.0,
            exchange_order: ExchangeOrder::LatinSquare,
        }
    }

    /// An idealized zero-cost library (useful in unit tests where the
    /// raw hardware model is under scrutiny).
    pub fn zero() -> Self {
        Self {
            put_marshal: 0.0,
            put_apply: 0.0,
            get_request: 0.0,
            get_serve: 0.0,
            get_apply: 0.0,
            copy_per_word_send: 0.0,
            copy_per_word_recv: 0.0,
            item_header_bytes: 0,
            msg_header_bytes: 0,
            barrier_round_sw: 0.0,
            plan_entry_cost: 0.0,
            sync_fixed: 0.0,
            exchange_order: ExchangeOrder::LatinSquare,
        }
    }
}

/// A complete simulated machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of processors.
    pub p: usize,
    /// Network hardware.
    pub net: NetConfig,
    /// Node CPU.
    pub cpu: CpuConfig,
    /// Shared-memory library costs.
    pub sw: SoftwareConfig,
    /// Optional heterogeneity: `(node, factor)` makes one node's CPU
    /// `factor`× slower per operation.
    ///
    /// QSM machines are "a number of *identical* processors"; this
    /// knob deliberately breaks that assumption so the
    /// `ext_straggler` experiment can measure how the model degrades
    /// on heterogeneous hardware.
    pub straggler: Option<(usize, f64)>,
}

impl MachineConfig {
    /// The paper's default 16-processor machine, or any other `p`.
    pub fn paper_default(p: usize) -> Self {
        assert!(p >= 1);
        Self {
            p,
            net: NetConfig::paper_default(),
            cpu: CpuConfig::default_1998(),
            sw: SoftwareConfig::calibrated(),
            straggler: None,
        }
    }

    /// Per-node CPU slowdown factor (1.0 unless this is the
    /// configured straggler).
    pub fn cpu_factor(&self, node: usize) -> f64 {
        match self.straggler {
            Some((s, f)) if s == node => f,
            _ => 1.0,
        }
    }

    /// Builder: make `node` `factor`× slower per local operation
    /// (heterogeneity extension).
    pub fn with_straggler(mut self, node: usize, factor: f64) -> Self {
        assert!(node < self.p && factor > 0.0 && factor.is_finite());
        self.straggler = Some((node, factor));
        self
    }

    /// Builder: replace the hardware latency (Figure 4/5 sweeps).
    pub fn with_latency(mut self, l: f64) -> Self {
        self.net.latency = l;
        self.net.validate();
        self
    }

    /// Builder: replace the per-message overhead on both ends
    /// (Figure 6 sweep).
    pub fn with_overhead(mut self, o: f64) -> Self {
        self.net.send_overhead = o;
        self.net.recv_overhead = o;
        self.net.validate();
        self
    }

    /// Builder: replace the hardware gap (cycles per byte).
    pub fn with_gap(mut self, g: f64) -> Self {
        self.net.gap_per_byte = g;
        self.net.validate();
        self
    }

    /// Builder: replace the software cost table.
    pub fn with_software(mut self, sw: SoftwareConfig) -> Self {
        self.sw = sw;
        self
    }

    /// Builder: replace the exchange destination order (ablation).
    pub fn with_exchange_order(mut self, order: ExchangeOrder) -> Self {
        self.sw.exchange_order = order;
        self
    }

    /// Builder: enable shared-fabric contention at `gap` cycles/byte
    /// machine-wide — [`TopologyKind::OneLink`], a single resource
    /// every inter-node message must traverse. An extension used to
    /// test whether the paper's omission of network contention matters
    /// for bulk-synchronous programs (it does not, until the fabric's
    /// aggregate bandwidth saturates; see the `ext_fabric` experiment).
    pub fn with_fabric(self, gap: f64) -> Self {
        self.with_topology(TopologyKind::OneLink).with_link_gap(gap)
    }

    /// Builder: route messages through a network topology with
    /// per-link FIFO bandwidth (extension; the paper's simulator has
    /// a structureless wire). [`TopologyKind::Flat`] restores the
    /// exact paper pipeline.
    pub fn with_topology(mut self, topology: TopologyKind) -> Self {
        topology.validate(self.p);
        self.net.topology = topology;
        self.net.validate();
        self
    }

    /// Builder: set the per-directed-link gap (cycles/byte) of a
    /// non-flat topology. Without it, links run at the NIC gap.
    pub fn with_link_gap(mut self, gap: f64) -> Self {
        self.net.link_gap_per_byte = Some(gap);
        self.net.validate();
        self
    }

    /// Builder: enable deterministic fault injection on the data
    /// exchange (extension; the paper's simulator is fault-free).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.net.faults = Some(faults);
        self.net.validate();
        self
    }

    /// Builder: enable the destination-side memory-bank stage
    /// (extension; the paper's simulator has no bank model).
    pub fn with_banks(mut self, banks: BankModel) -> Self {
        self.net.banks = Some(banks);
        self.net.validate();
        self
    }

    /// The hardware gap expressed per 4-byte word.
    pub fn gap_per_word(&self) -> f64 {
        self.net.gap_per_byte * 4.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table3() {
        let m = MachineConfig::paper_default(16);
        assert_eq!(m.p, 16);
        assert_eq!(m.net.gap_per_byte, 3.0);
        assert_eq!(m.net.send_overhead, 400.0);
        assert_eq!(m.net.latency, 1600.0);
        assert_eq!(m.cpu.clock_hz, 400e6);
    }

    #[test]
    fn busy_times_include_overhead_and_gap() {
        let n = NetConfig::paper_default();
        assert_eq!(n.send_busy(100).get(), 400.0 + 300.0);
        assert_eq!(n.recv_busy(0).get(), 400.0);
    }

    #[test]
    fn builders_replace_single_fields() {
        let m = MachineConfig::paper_default(16).with_latency(6400.0).with_overhead(50.0);
        assert_eq!(m.net.latency, 6400.0);
        assert_eq!(m.net.send_overhead, 50.0);
        assert_eq!(m.net.recv_overhead, 50.0);
        assert_eq!(m.net.gap_per_byte, 3.0);
    }

    #[test]
    fn cpu_ops_scale_linearly() {
        let c = CpuConfig::default_1998();
        assert_eq!(c.ops(1000).get(), 1000.0);
        let slow = CpuConfig { cycles_per_op: 2.5, clock_hz: 400e6 };
        assert_eq!(slow.ops(4).get(), 10.0);
    }

    #[test]
    fn zero_software_is_all_zero() {
        let z = SoftwareConfig::zero();
        assert_eq!(z.put_marshal, 0.0);
        assert_eq!(z.item_header_bytes, 0);
        assert_eq!(z.barrier_round_sw, 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_processors_rejected() {
        let _ = MachineConfig::paper_default(0);
    }

    #[test]
    #[should_panic]
    fn negative_latency_rejected() {
        let _ = MachineConfig::paper_default(2).with_latency(-1.0);
    }
}
