//! The network: a staged delivery pipeline over per-node engines.
//!
//! Every message flows through three explicit per-message stages:
//!
//! 1. **Inject** (`Network::inject_one`) — the sender's NIC
//!    serializes the message and stamps its departure (and flat-wire
//!    arrival).
//! 2. **Route** (the internal `Fabric` stage, optional) — with a
//!    non-flat [`crate::TopologyKind`] each inter-node message is
//!    forwarded hop-by-hop over per-directed-link FIFO queues,
//!    rewriting its arrival time.
//! 3. **Ingest** (`Network::ingest_one`) — the receiver's engine
//!    serializes the arrival, then a banked message queues at its
//!    destination bank FIFO.
//!
//! [`Network::send_one`] is the three in sequence; a batch
//! ([`Network::transmit_into`] and friends) loops the same functions
//! in each stage's deterministic order. Host cost: O(route length)
//! per message, O(n log n) per batch of n for the orderings, nothing
//! per node or per link — the ordering scratch is touched-only.
//!
//! Like the paper's simulator, the *default* network models **no
//! internal contention**: the route stage is absent, messages from
//! different senders never interfere in the wire, and contention
//! exists only at the endpoints plus the wire latency in between.
//! See the crate docs for the exact per-message timing equations.

use crate::config::NetConfig;
use crate::fabric::Fabric;
use crate::fault::FaultConfig;
use crate::message::Injection;
use crate::stats::NetStats;
use crate::time::Cycles;
use crate::timeline::{FifoTimeline, ServiceSlot};
use crate::topology::Topology;
use crate::trace::{Keep, Trace, TraceEvent};

/// Timing of one delivered message (all zero until stamped).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Delivery {
    /// When the last byte left the sender's NIC.
    pub depart: Cycles,
    /// When the first byte reached the receiver (depart + latency).
    pub arrive: Cycles,
    /// When the receiving node's software can see the payload
    /// (after queuing for the receive engine and paying `o_recv`,
    /// plus — for bank-tagged messages under an installed
    /// [`crate::config::BankModel`] — queuing and service at the
    /// destination bank).
    pub visible: Cycles,
    /// Cycles this message spent queued behind earlier traffic at its
    /// destination bank (zero without a bank model, for untagged
    /// messages, and whenever the bank was idle at ingestion).
    pub bank_wait: Cycles,
    /// Cycles this message spent queued behind other traffic at
    /// fabric links along its route (zero on the flat wire, for
    /// self-messages, and whenever every link was idle on arrival).
    pub link_wait: Cycles,
}

/// A `p`-node network with persistent per-node engine timelines, so
/// that successive operations (plan exchange, data exchange, barrier
/// rounds) compose on a single simulated clock.
#[derive(Debug)]
pub struct Network {
    cfg: NetConfig,
    p: usize,
    /// Per-node send-engine timelines ([`FifoTimeline`], one server
    /// per node).
    send_free: FifoTimeline,
    /// Per-node receive-engine timelines.
    recv_free: FifoTimeline,
    /// The routing stage: per-link FIFO forwarding state. `None` on
    /// the paper's flat wire — the pipeline then skips the stage, so
    /// the default arithmetic is exactly the original simulator's.
    fabric: Option<Fabric>,
    /// Per-(node, bank) service timelines of the opt-in bank stage,
    /// `p × banks_per_node` dense; empty when no bank model is
    /// configured.
    bank_free: FifoTimeline,
    stats: NetStats,
    trace: Option<Trace>,
    // Pooled batch-ordering scratch, reused so the hot path of every
    // exchange allocates nothing in steady state: one index queue per
    // node (by sender in stage 1, by receiver in stage 3) and the
    // nodes whose queue is non-empty. Both are empty between stages.
    queues: Vec<Vec<usize>>,
    touched: Vec<usize>,
    /// Monotone sequence number for fault-eligible transmissions —
    /// the coordinate [`FaultConfig::drop_at`] keys on.
    fault_seq: u64,
    /// Per-message drop flags of the most recent
    /// [`Network::transmit_into_faulty`] batch.
    dropped: Vec<bool>,
}

impl Network {
    /// Create a network of `p` nodes, all engines idle at time zero.
    pub fn new(p: usize, cfg: NetConfig) -> Self {
        assert!(p >= 1);
        cfg.validate();
        let bank_slots = cfg.banks.map_or(0, |b| p * b.banks_per_node);
        Self {
            p,
            send_free: FifoTimeline::new(p),
            recv_free: FifoTimeline::new(p),
            fabric: Fabric::from_config(p, &cfg),
            bank_free: FifoTimeline::new(bank_slots),
            stats: NetStats::default(),
            trace: None,
            queues: vec![Vec::new(); p],
            touched: Vec::new(),
            fault_seq: 0,
            dropped: Vec::new(),
            cfg,
        }
    }

    /// Number of nodes.
    pub fn nprocs(&self) -> usize {
        self.p
    }

    /// The network hardware parameters.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Reset all engine timelines to zero and clear statistics (the
    /// fault sequence counter and the last batch's drop flags too, so
    /// faulted runs replay exactly and nothing stale leaks into the
    /// next run).
    pub fn reset(&mut self) {
        self.send_free.reset();
        self.recv_free.reset();
        if let Some(f) = self.fabric.as_mut() {
            f.reset();
        }
        self.bank_free.reset();
        self.stats.clear();
        self.fault_seq = 0;
        self.dropped.clear();
    }

    /// Declare that `node` is busy (e.g. computing) until `t`; its
    /// engines will not start any work earlier.
    pub fn node_busy_until(&mut self, node: usize, t: Cycles) {
        self.send_free.advance(node, t);
        self.recv_free.advance(node, t);
    }

    /// Earliest time every engine in the network is idle.
    pub fn quiesce_time(&self) -> Cycles {
        self.send_free.quiesce().max(self.recv_free.quiesce())
    }

    /// When `node`'s send engine is next free.
    pub fn send_free_at(&self, node: usize) -> Cycles {
        self.send_free.free_at(node)
    }

    /// When `node`'s receive engine is next free.
    pub fn recv_free_at(&self, node: usize) -> Cycles {
        self.recv_free.free_at(node)
    }

    /// Cycles `node`'s send engine has spent serving (overhead +
    /// serialization) since the last reset — the numerator of its
    /// NIC-egress utilization over any elapsed window.
    pub fn send_busy_total(&self, node: usize) -> Cycles {
        self.send_free.busy_total(node)
    }

    /// Cycles `node`'s receive engine has spent serving since the
    /// last reset.
    pub fn recv_busy_total(&self, node: usize) -> Cycles {
        self.recv_free.busy_total(node)
    }

    /// Cycles `node`'s memory banks (all of them together) have spent
    /// serving since the last reset. Zero without a bank model.
    pub fn bank_busy_total(&self, node: usize) -> Cycles {
        let Some(bk) = &self.cfg.banks else { return Cycles::ZERO };
        let base = node * bk.banks_per_node;
        let mut total = Cycles::ZERO;
        for b in 0..bk.banks_per_node {
            total += self.bank_free.busy_total(base + b);
        }
        total
    }

    /// How far `node`'s send engine's committed work extends past
    /// `now` (zero when it is already idle) — the NIC queue-depth
    /// signal an open-loop caller's admission control reads.
    pub fn send_backlog(&self, node: usize, now: Cycles) -> Cycles {
        self.send_free.backlog(node, now)
    }

    /// How far bank `bank` of `node`'s committed work extends past
    /// `now`. Zero without a bank model.
    pub fn bank_backlog(&self, node: usize, bank: u32, now: Cycles) -> Cycles {
        let Some(bk) = &self.cfg.banks else { return Cycles::ZERO };
        assert!((bank as usize) < bk.banks_per_node);
        self.bank_free.backlog(node * bk.banks_per_node + bank as usize, now)
    }

    /// Serve a `bytes`-byte access against bank `bank` of `node`
    /// directly — no wire message — starting no earlier than `ready`.
    /// This is the open-loop entry point for destination-side work
    /// whose bytes never cross the network (e.g. a get transaction's
    /// value read at its shard: the request carries only headers, but
    /// the bank must stream the value). FIFO-queues behind all other
    /// traffic to the same bank, exactly like a bank-tagged delivery.
    /// Without a bank model the access is free: `start = done =
    /// ready`.
    pub fn bank_service(
        &mut self,
        node: usize,
        bank: u32,
        ready: Cycles,
        bytes: u64,
    ) -> ServiceSlot {
        let Some(bk) = &self.cfg.banks else {
            return ServiceSlot { start: ready, done: ready };
        };
        assert!(
            (bank as usize) < bk.banks_per_node,
            "bad bank {bank} (banks per node = {})",
            bk.banks_per_node
        );
        let slot = node * bk.banks_per_node + bank as usize;
        self.bank_free.serve(slot, ready, bk.service(bytes))
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The active routing stage's topology, if any (`None` on the
    /// paper's flat contention-free wire).
    pub fn topology(&self) -> Option<&dyn Topology> {
        self.fabric.as_ref().map(|f| f.router())
    }

    /// Number of directed links in the routing stage (0 on the flat
    /// wire).
    pub fn link_count(&self) -> usize {
        self.fabric.as_ref().map_or(0, |f| f.links())
    }

    /// Start capturing a bounded event trace keeping the first `cap`
    /// events ([`Keep::First`]).
    pub fn enable_trace(&mut self, cap: usize) {
        self.enable_trace_keep(cap, Keep::First);
    }

    /// Start capturing a bounded event trace, choosing which end of
    /// an over-capacity run to retain.
    pub fn enable_trace_keep(&mut self, cap: usize, keep: Keep) {
        self.trace = Some(Trace::with_capacity_keep(cap, keep));
    }

    /// Stop tracing and return what was captured.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Transmit a batch of messages and return each one's
    /// [`Delivery`], parallel to the input slice.
    ///
    /// Per-sender FIFO order follows `(ready, input index)`; arrivals
    /// at each receiver are processed in `(arrive, src, input index)`
    /// order. Both orders are total, making the simulation
    /// deterministic.
    ///
    /// Self-messages (`src == dst`) are legal and model a node moving
    /// data through its own library path; they pay send and receive
    /// overhead but no wire latency.
    pub fn transmit(&mut self, msgs: &[Injection]) -> Vec<Delivery> {
        let mut deliveries = Vec::new();
        self.transmit_into(msgs, &mut deliveries);
        deliveries
    }

    /// [`Network::transmit`] into a caller-provided buffer, reusing
    /// its capacity (and the network's internal index queues) so that
    /// repeated exchanges allocate nothing in steady state. Timing is
    /// identical to `transmit`. Fault injection is **not** applied —
    /// this is the reliable control-plane path.
    pub fn transmit_into(&mut self, msgs: &[Injection], deliveries: &mut Vec<Delivery>) {
        self.transmit_impl(msgs, deliveries, false, None);
    }

    /// Like [`Network::transmit_into`], but subject to the configured
    /// [`FaultConfig`] (the data-plane path): each transmission may
    /// be dropped, degraded, or stalled. Per-message drop flags are
    /// readable via [`Network::last_dropped`] until the next faulty
    /// transmission. Without a fault configuration this is exactly
    /// `transmit_into` plus an all-false flag vector.
    ///
    /// A dropped message occupies its sender's NIC (and the shared
    /// fabric, if modeled) — the bytes really departed — but never
    /// reaches the receive engine; its [`Delivery::visible`] is
    /// meaningless and callers must consult the drop flag.
    pub fn transmit_into_faulty(&mut self, msgs: &[Injection], deliveries: &mut Vec<Delivery>) {
        self.transmit_impl(msgs, deliveries, true, None);
    }

    /// Like [`Network::transmit_into_faulty`], but with explicit fault
    /// keys (one per message) instead of consuming the network's
    /// sequence stream. Used by retry protocols: keying a resend on
    /// (original sequence, attempt) keeps the primary stream aligned
    /// across fault configurations, so the drop schedule at a lower
    /// probability stays a subset of the schedule at a higher one even
    /// though the two runs resend different batches.
    pub fn transmit_into_faulty_keyed(
        &mut self,
        msgs: &[Injection],
        deliveries: &mut Vec<Delivery>,
        keys: &[u64],
    ) {
        assert_eq!(keys.len(), msgs.len(), "fault keys must parallel the batch");
        self.transmit_impl(msgs, deliveries, true, Some(keys));
    }

    /// The sequence number the next message of a (non-keyed) faulty
    /// transmission will draw its drop decision from.
    pub fn next_fault_seq(&self) -> u64 {
        self.fault_seq
    }

    /// Drop flags of the most recent [`Network::transmit_into_faulty`]
    /// batch, parallel to its input slice.
    pub fn last_dropped(&self) -> &[bool] {
        &self.dropped
    }

    /// Send one message through the whole pipeline — inject, route,
    /// ingest — and return its [`Delivery`] and whether it was lost:
    /// the per-message primitive the batch entry points loop over. Its
    /// host cost is the message's route length, whatever the machine
    /// size.
    ///
    /// `fault_key: None` is the reliable control-plane path
    /// ([`Network::transmit_into`] of one message). `Some(key)` is the
    /// data-plane path under the configured [`FaultConfig`], its drop
    /// decision drawn from `key` as
    /// [`Network::transmit_into_faulty_keyed`] draws it; the fault
    /// sequence stream is not consumed.
    ///
    /// [`Network::last_dropped`] describes batch calls only: `send_one`
    /// neither reads nor updates it — the returned flag is the answer.
    pub fn send_one(&mut self, msg: &Injection, fault_key: Option<u64>) -> (Delivery, bool) {
        let faults = fault_key.and(self.cfg.faults);
        let lost = faults.zip(fault_key).is_some_and(|(f, key)| f.drop_at(key));
        (self.deliver_one(msg, &faults, lost), lost)
    }

    /// The three stages in sequence, for a message that is a batch of
    /// its own (no ordering to establish).
    fn deliver_one(&mut self, m: &Injection, faults: &Option<FaultConfig>, lost: bool) -> Delivery {
        self.check(m);
        let mut d = Delivery::default();
        self.inject_one(m, faults, &mut d);
        if let Some(fabric) = self.fabric.as_mut() {
            fabric.begin_batch(&mut self.stats);
            fabric.forward_one(m, &mut d, &mut self.stats);
        }
        if lost {
            self.lose_one(&mut d);
        } else {
            self.ingest_one(m, &mut d);
        }
        d
    }

    fn transmit_impl(
        &mut self,
        msgs: &[Injection],
        deliveries: &mut Vec<Delivery>,
        faulty: bool,
        keys: Option<&[u64]>,
    ) {
        // Fault decisions draw on (seed, sequence) in input order, so
        // the schedule is a pure function of the config seed and the
        // (deterministic) order of injections. Explicit keys bypass
        // the stream without advancing it.
        let faults: Option<FaultConfig> = if faulty { self.cfg.faults } else { None };
        if faulty {
            let base = self.fault_seq;
            if faults.is_some() && keys.is_none() {
                self.fault_seq += msgs.len() as u64;
            }
            let lost = |i: usize| {
                faults.is_some_and(|f| f.drop_at(keys.map_or(base + i as u64, |ks| ks[i])))
            };
            self.dropped.clear();
            self.dropped.extend((0..msgs.len()).map(lost));
        }
        deliveries.clear();
        if let [m] = msgs {
            // What `send_one` does, at what `send_one` costs.
            deliveries.push(self.deliver_one(m, &faults, faulty && self.dropped[0]));
            return;
        }
        deliveries.resize(msgs.len(), Delivery::default());
        let mut touched = std::mem::take(&mut self.touched);

        // Stage 1: each sender's NIC, in (ready, input index) order
        // (senders share nothing, so they go in first-named order).
        for (i, m) in msgs.iter().enumerate() {
            self.check(m);
            enqueue(&mut self.queues, &mut touched, m.src, i);
        }
        for src in touched.drain(..) {
            let mut queue = std::mem::take(&mut self.queues[src]);
            queue.sort_by(|&a, &b| msgs[a].ready.cmp(&msgs[b].ready).then_with(|| a.cmp(&b)));
            for i in queue.drain(..) {
                self.inject_one(&msgs[i], &faults, &mut deliveries[i]);
            }
            self.queues[src] = queue;
        }

        // Stage 2 (extension, absent by default): route each
        // inter-node message hop-by-hop over per-link FIFO queues.
        if let Some(fabric) = self.fabric.as_mut() {
            fabric.forward(msgs, deliveries, &mut self.stats);
        }

        // Stage 3: each receiver's engine (and the opt-in bank FIFO).
        // Receivers go in node order — statistics and the trace see
        // deliveries in this order — and each one's arrivals in
        // (arrive, src, input index) order.
        for (i, m) in msgs.iter().enumerate() {
            if faulty && self.dropped[i] {
                self.lose_one(&mut deliveries[i]);
            } else {
                enqueue(&mut self.queues, &mut touched, m.dst, i);
            }
        }
        touched.sort_unstable();
        for dst in touched.drain(..) {
            let mut queue = std::mem::take(&mut self.queues[dst]);
            queue.sort_by(|&a, &b| {
                deliveries[a]
                    .arrive
                    .cmp(&deliveries[b].arrive)
                    .then_with(|| msgs[a].src.cmp(&msgs[b].src))
                    .then_with(|| a.cmp(&b))
            });
            for i in queue.drain(..) {
                self.ingest_one(&msgs[i], &mut deliveries[i]);
            }
            self.queues[dst] = queue;
        }
        self.touched = touched;
    }

    /// Reject a message naming a node or bank the machine lacks.
    #[inline(always)]
    fn check(&self, m: &Injection) {
        assert!(m.src < self.p, "bad src {} (p = {})", m.src, self.p);
        assert!(m.dst < self.p, "bad dst {} (p = {})", m.dst, self.p);
        if let (Some(bk), Some(b)) = (&self.cfg.banks, m.bank) {
            assert!(
                (b as usize) < bk.banks_per_node,
                "bad bank {b} (banks per node = {})",
                bk.banks_per_node
            );
        }
    }

    /// Pipeline stage 1 for one message: its sender's NIC serializes
    /// it behind everything that NIC already committed to, stamping
    /// `depart` and the flat-wire `arrive` (self-messages skip the
    /// wire entirely).
    // The stage functions are `inline(always)`: left to the inliner's
    // judgement, the batch loops paid a call per message per stage
    // (measured +16–22 % on a full all-to-all batch).
    #[inline(always)]
    fn inject_one(&mut self, m: &Injection, faults: &Option<FaultConfig>, d: &mut Delivery) {
        // Faulted sends may start late (stall burst) and pay a
        // degraded gap/latency; the fault-free arm is the exact
        // original arithmetic, so zero-fault runs are byte-identical.
        let (slot, lat) = match faults {
            Some(f) => {
                let start = f.stall_release(m.src, m.ready.max(self.send_free.free_at(m.src)));
                let (lat_f, gap_f) = f.degrade_factors(start);
                let busy = Cycles::new(
                    self.cfg.send_overhead + self.cfg.gap_per_byte * gap_f * m.bytes as f64,
                );
                (
                    self.send_free.serve_from(m.src, start, busy),
                    Cycles::new(self.cfg.latency * lat_f),
                )
            }
            None => (
                self.send_free.serve(m.src, m.ready, self.cfg.send_busy(m.bytes)),
                Cycles::new(self.cfg.latency),
            ),
        };
        d.depart = slot.done;
        d.arrive = if m.src == m.dst { d.depart } else { d.depart + lat };
    }

    /// A message lost in the wire: the receive engine never sees it.
    #[inline(always)]
    fn lose_one(&mut self, d: &mut Delivery) {
        d.visible = d.arrive;
        self.stats.dropped += 1;
    }

    /// Pipeline stage 3 for one message: its receiver's engine
    /// ingests it behind everything already arrived there; a banked
    /// message then queues FIFO at its destination bank.
    #[inline(always)]
    fn ingest_one(&mut self, m: &Injection, d: &mut Delivery) {
        let busy = self.cfg.recv_busy(m.bytes);
        d.visible = self.recv_free.serve(m.dst, d.arrive, busy).done;
        // Opt-in bank stage: after the receive engine hands the
        // message off, it queues FIFO at its destination bank. The
        // engine itself is released at ingestion (its timeline
        // advanced above), so banks drain independently of the NIC —
        // only same-bank traffic serializes here.
        if let (Some(bk), Some(b)) = (&self.cfg.banks, m.bank) {
            let svc = self.bank_free.serve(
                m.dst * bk.banks_per_node + b as usize,
                d.visible,
                bk.service(m.bytes),
            );
            d.bank_wait = svc.start - d.visible;
            d.visible = svc.done;
        }
        self.stats.record(m.kind, m.bytes, self.cfg.send_busy(m.bytes), busy);
        if let Some(tr) = self.trace.as_mut() {
            tr.record(TraceEvent {
                depart: d.depart,
                arrive: d.arrive,
                visible: d.visible,
                src: m.src,
                dst: m.dst,
                bytes: m.bytes,
                kind: m.kind,
            });
        }
    }
}

/// Queue batch index `i` at `node`, noting a node's first entry.
#[inline(always)]
fn enqueue(queues: &mut [Vec<usize>], touched: &mut Vec<usize>, node: usize, i: usize) {
    if queues[node].is_empty() {
        touched.push(node);
    }
    queues[node].push(i);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{DegradeWindow, StallConfig};
    use crate::message::MsgKind;

    fn net(p: usize) -> Network {
        Network::new(p, NetConfig::paper_default())
    }

    fn inj(src: usize, dst: usize, bytes: u64, ready: f64) -> Injection {
        Injection::new(src, dst, bytes, Cycles::new(ready), MsgKind::Other)
    }

    #[test]
    fn single_message_timing_matches_equations() {
        let mut n = net(2);
        let d = n.transmit(&[inj(0, 1, 100, 0.0)]);
        // depart = 0 + 400 + 300, arrive = +1600, visible = +400+300
        assert_eq!(d[0].depart.get(), 700.0);
        assert_eq!(d[0].arrive.get(), 2300.0);
        assert_eq!(d[0].visible.get(), 3000.0);
    }

    #[test]
    fn sender_serializes_back_to_back_messages() {
        let mut n = net(3);
        let d = n.transmit(&[inj(0, 1, 0, 0.0), inj(0, 2, 0, 0.0)]);
        // Two zero-byte messages: each 400 cycles of send overhead.
        assert_eq!(d[0].depart.get(), 400.0);
        assert_eq!(d[1].depart.get(), 800.0);
    }

    #[test]
    fn latencies_pipeline_across_messages() {
        // 10 messages from one sender: total time ~ 10 sends + ONE
        // latency, not 10 latencies — the QSM pipelining assumption.
        let mut n = net(2);
        let msgs: Vec<_> = (0..10).map(|_| inj(0, 1, 0, 0.0)).collect();
        let d = n.transmit(&msgs);
        let last = d.iter().map(|x| x.visible).fold(Cycles::ZERO, Cycles::max);
        // send: 10*400; + l 1600; recv engine drains the backlog
        // concurrently with later sends, so the tail is one recv.
        assert_eq!(last.get(), 4000.0 + 1600.0 + 400.0);
    }

    #[test]
    fn receiver_serializes_simultaneous_arrivals() {
        let mut n = net(3);
        let d = n.transmit(&[inj(0, 2, 0, 0.0), inj(1, 2, 0, 0.0)]);
        // Both arrive at 2000; receiver ingests one after the other.
        let mut vis: Vec<f64> = d.iter().map(|x| x.visible.get()).collect();
        vis.sort_by(f64::total_cmp);
        assert_eq!(vis, vec![2400.0, 2800.0]);
    }

    #[test]
    fn self_message_skips_the_wire() {
        let mut n = net(2);
        let d = n.transmit(&[inj(1, 1, 40, 0.0)]);
        assert_eq!(d[0].arrive, d[0].depart);
        assert_eq!(d[0].visible.get(), (400.0 + 120.0) * 2.0);
    }

    #[test]
    fn ready_time_defers_injection() {
        let mut n = net(2);
        let d = n.transmit(&[inj(0, 1, 0, 5000.0)]);
        assert_eq!(d[0].depart.get(), 5400.0);
    }

    #[test]
    fn node_busy_until_defers_both_engines() {
        let mut n = net(2);
        n.node_busy_until(0, Cycles::new(10_000.0));
        n.node_busy_until(1, Cycles::new(20_000.0));
        let d = n.transmit(&[inj(0, 1, 0, 0.0)]);
        assert_eq!(d[0].depart.get(), 10_400.0);
        // arrive 12_000 < recv_free 20_000 -> visible 20_400
        assert_eq!(d[0].visible.get(), 20_400.0);
    }

    #[test]
    fn timelines_persist_across_transmissions() {
        let mut n = net(2);
        n.transmit(&[inj(0, 1, 0, 0.0)]);
        let d = n.transmit(&[inj(0, 1, 0, 0.0)]);
        assert_eq!(d[0].depart.get(), 800.0);
        assert_eq!(n.stats().messages, 2);
        n.reset();
        let d = n.transmit(&[inj(0, 1, 0, 0.0)]);
        assert_eq!(d[0].depart.get(), 400.0);
        assert_eq!(n.stats().messages, 1);
    }

    #[test]
    fn batching_beats_many_small_messages() {
        // The o-amortization the QSM contract relies on: one 4000-byte
        // message is far cheaper than 100 x 40-byte messages.
        let cfg = NetConfig::paper_default();
        let mut one = Network::new(2, cfg);
        let big = one.transmit(&[inj(0, 1, 4000, 0.0)]);
        let mut many = Network::new(2, cfg);
        let msgs: Vec<_> = (0..100).map(|_| inj(0, 1, 40, 0.0)).collect();
        let small = many.transmit(&msgs);
        let t_big = big[0].visible;
        let t_small = small.iter().map(|d| d.visible).fold(Cycles::ZERO, Cycles::max);
        assert!(t_small.get() > 2.0 * t_big.get(), "{t_small} !>> {t_big}");
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            let mut n = net(4);
            let msgs: Vec<_> = (0..50)
                .map(|i| inj(i % 4, (i * 7 + 1) % 4, (i as u64 * 13) % 200, (i % 5) as f64))
                .collect();
            n.transmit(&msgs)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn stats_count_bytes_and_kinds() {
        let mut n = net(2);
        n.transmit(&[
            Injection::new(0, 1, 100, Cycles::ZERO, MsgKind::PutData),
            Injection::new(0, 1, 50, Cycles::ZERO, MsgKind::GetRequest),
        ]);
        assert_eq!(n.stats().bytes, 150);
        assert_eq!(n.stats().count(MsgKind::PutData), 1);
        assert_eq!(n.stats().count(MsgKind::GetRequest), 1);
    }

    #[test]
    fn trace_captures_deliveries() {
        let mut n = net(2);
        n.enable_trace(16);
        n.transmit(&[inj(0, 1, 8, 0.0)]);
        let tr = n.take_trace().unwrap();
        assert_eq!(tr.len(), 1);
        let ev = tr.iter().next().unwrap();
        assert_eq!(ev.src, 0);
        assert_eq!(ev.dst, 1);
    }

    #[test]
    fn trace_keep_last_retains_the_tail() {
        let mut n = net(2);
        n.enable_trace_keep(2, Keep::Last);
        let msgs: Vec<_> = (0..5).map(|i| inj(0, 1, 8 + i as u64, 0.0)).collect();
        n.transmit(&msgs);
        let tr = n.take_trace().unwrap();
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.dropped(), 3);
        // The receiver ingests in arrival order, so the retained tail
        // is the two largest (= latest-departing) messages.
        let bytes: Vec<u64> = tr.iter().map(|e| e.bytes).collect();
        assert_eq!(bytes, vec![11, 12]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_destination_rejected() {
        let mut n = net(2);
        n.transmit(&[inj(0, 5, 8, 0.0)]);
    }

    #[test]
    fn fabric_off_matches_paper_simulator() {
        // Default config: two simultaneous flows do not interfere.
        let mut n = net(4);
        let d = n.transmit(&[inj(0, 1, 1000, 0.0), inj(2, 3, 1000, 0.0)]);
        assert_eq!(d[0].visible, d[1].visible);
    }

    #[test]
    fn fabric_serializes_concurrent_flows() {
        let mut n = fabric_net(4, 3.0);
        let d = n.transmit(&[inj(0, 1, 1000, 0.0), inj(2, 3, 1000, 0.0)]);
        // Both occupy the shared fabric for 3000 cycles each; the
        // second flow's arrival is pushed back by the first's slot.
        assert!(d[1].arrive > d[0].arrive + Cycles::new(2_000.0));
    }

    #[test]
    fn generous_fabric_changes_nothing() {
        // A fabric faster than any single NIC never becomes the
        // bottleneck for a single flow.
        let mut with = fabric_net(2, 0.01);
        let mut without = net(2);
        let a = with.transmit(&[inj(0, 1, 1000, 0.0)]);
        let b = without.transmit(&[inj(0, 1, 1000, 0.0)]);
        assert!((a[0].visible.get() - b[0].visible.get()).abs() < 11.0);
    }

    #[test]
    fn faulty_transmit_without_config_matches_reliable_path() {
        let msgs: Vec<_> = (0..40)
            .map(|i| inj(i % 4, (i * 3 + 1) % 4, (i as u64 * 17) % 300, (i % 7) as f64))
            .collect();
        let mut a = net(4);
        let da = a.transmit(&msgs);
        let mut b = net(4);
        let mut db = Vec::new();
        b.transmit_into_faulty(&msgs, &mut db);
        assert_eq!(da, db);
        assert!(b.last_dropped().iter().all(|&d| !d));
        assert_eq!(b.stats().dropped, 0);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn faulty_transmit_drops_and_counts() {
        let cfg =
            NetConfig { faults: Some(FaultConfig::drops(11, 0.5)), ..NetConfig::paper_default() };
        let mut n = Network::new(4, cfg);
        let msgs: Vec<_> = (0..200).map(|i| inj(i % 4, (i + 1) % 4, 64, 0.0)).collect();
        let mut d = Vec::new();
        n.transmit_into_faulty(&msgs, &mut d);
        let dropped = n.last_dropped().iter().filter(|&&x| x).count();
        assert!(dropped > 50 && dropped < 150, "dropped {dropped}/200");
        assert_eq!(n.stats().dropped, dropped as u64);
        // Delivered count excludes drops.
        assert_eq!(n.stats().messages, (200 - dropped) as u64);
        // A dropped message still departed but was never ingested.
        for (i, del) in d.iter().enumerate() {
            if n.last_dropped()[i] {
                assert_eq!(del.visible, del.arrive);
            } else {
                assert!(del.visible > del.arrive);
            }
        }
    }

    #[test]
    fn fault_schedule_replays_after_reset() {
        let cfg =
            NetConfig { faults: Some(FaultConfig::drops(3, 0.3)), ..NetConfig::paper_default() };
        let msgs: Vec<_> = (0..100).map(|i| inj(i % 4, (i + 1) % 4, 32, 0.0)).collect();
        let mut n = Network::new(4, cfg);
        let mut d1 = Vec::new();
        n.transmit_into_faulty(&msgs, &mut d1);
        let drops1: Vec<bool> = n.last_dropped().to_vec();
        n.reset();
        let mut d2 = Vec::new();
        n.transmit_into_faulty(&msgs, &mut d2);
        assert_eq!(drops1, n.last_dropped());
        assert_eq!(d1, d2);
        // Without a reset the sequence advances: a second batch sees
        // fresh draws, not a replay.
        let mut d3 = Vec::new();
        n.transmit_into_faulty(&msgs, &mut d3);
        assert_ne!(drops1, n.last_dropped());
    }

    #[test]
    fn reliable_path_ignores_fault_config() {
        let cfg =
            NetConfig { faults: Some(FaultConfig::drops(11, 0.9)), ..NetConfig::paper_default() };
        let mut with = Network::new(2, cfg);
        let mut without = net(2);
        let msgs: Vec<_> = (0..20).map(|_| inj(0, 1, 100, 0.0)).collect();
        assert_eq!(with.transmit(&msgs), without.transmit(&msgs));
        assert_eq!(with.stats().dropped, 0);
    }

    #[test]
    fn degradation_window_slows_sends_inside_it() {
        let fc = FaultConfig::drops(1, 0.0).with_degrade(DegradeWindow {
            start: 0.0,
            end: 10_000.0,
            latency_factor: 4.0,
            gap_factor: 2.0,
        });
        let cfg = NetConfig { faults: Some(fc), ..NetConfig::paper_default() };
        let mut n = Network::new(2, cfg);
        let mut d = Vec::new();
        // Starts at 0, inside the window: gap doubled, latency x4.
        n.transmit_into_faulty(&[inj(0, 1, 100, 0.0)], &mut d);
        assert_eq!(d[0].depart.get(), 400.0 + 2.0 * 300.0);
        assert_eq!(d[0].arrive.get(), d[0].depart.get() + 4.0 * 1600.0);
        // Starts after the window: baseline timing.
        let mut late = Vec::new();
        n.reset();
        n.transmit_into_faulty(&[inj(0, 1, 100, 20_000.0)], &mut late);
        assert_eq!(late[0].depart.get(), 20_000.0 + 700.0);
        assert_eq!(late[0].arrive.get(), late[0].depart.get() + 1600.0);
    }

    #[test]
    fn stall_burst_defers_the_send_engine() {
        let fc =
            FaultConfig::drops(1, 0.0).with_stall(StallConfig { period: 1e9, duration: 50_000.0 });
        let cfg = NetConfig { faults: Some(fc), ..NetConfig::paper_default() };
        let mut n = Network::new(2, cfg);
        let mut d = Vec::new();
        n.transmit_into_faulty(&[inj(0, 1, 0, 0.0)], &mut d);
        let mut base = Vec::new();
        let mut plain = net(2);
        plain.transmit_into(&[inj(0, 1, 0, 0.0)], &mut base);
        // Whether the (jittered) burst covers t=0 depends on the seed;
        // either way the send never departs *earlier* than fault-free,
        // and the same machine replays identically.
        assert!(d[0].depart >= base[0].depart);
        n.reset();
        let mut d2 = Vec::new();
        n.transmit_into_faulty(&[inj(0, 1, 0, 0.0)], &mut d2);
        assert_eq!(d, d2);
    }

    #[test]
    fn bank_model_off_ignores_bank_tags() {
        // Tagged messages on a bank-free network: exact original
        // arithmetic, zero reported waits.
        let msgs: Vec<_> =
            (0..30).map(|i| inj(i % 4, (i * 3 + 1) % 4, (i as u64 * 17) % 300, 0.0)).collect();
        let tagged: Vec<_> = msgs.iter().map(|m| m.with_bank(0)).collect();
        let mut a = net(4);
        let da = a.transmit(&msgs);
        let mut b = net(4);
        let db = b.transmit(&tagged);
        assert_eq!(da, db);
        assert!(db.iter().all(|d| d.bank_wait == Cycles::ZERO));
    }

    #[test]
    fn untagged_messages_bypass_an_installed_bank_model() {
        let bank = crate::config::BankModel::per_message(4, 5_000.0);
        let cfg = NetConfig { banks: Some(bank), ..NetConfig::paper_default() };
        let mut with = Network::new(4, cfg);
        let mut without = net(4);
        let msgs: Vec<_> = (0..30).map(|i| inj(i % 4, (i * 3 + 1) % 4, 64, 0.0)).collect();
        assert_eq!(with.transmit(&msgs), without.transmit(&msgs));
    }

    #[test]
    fn same_bank_arrivals_serialize() {
        let bank = crate::config::BankModel::per_message(2, 5_000.0);
        let cfg = NetConfig { banks: Some(bank), ..NetConfig::paper_default() };
        let mut n = Network::new(3, cfg);
        let d = n.transmit(&[inj(0, 2, 0, 0.0).with_bank(1), inj(1, 2, 0, 0.0).with_bank(1)]);
        // Both arrive at 2000; ingestion serializes them at 2400 and
        // 2800; the bank then services 5000 cycles each, so the
        // second queues behind the first: 2400+5000 = 7400, then
        // max(2800, 7400) + 5000 = 12400 with a 4600-cycle wait.
        let mut vis: Vec<f64> = d.iter().map(|x| x.visible.get()).collect();
        vis.sort_by(f64::total_cmp);
        assert_eq!(vis, vec![7400.0, 12_400.0]);
        let mut waits: Vec<f64> = d.iter().map(|x| x.bank_wait.get()).collect();
        waits.sort_by(f64::total_cmp);
        assert_eq!(waits, vec![0.0, 4600.0]);
    }

    #[test]
    fn distinct_banks_service_in_parallel() {
        let bank = crate::config::BankModel::per_message(2, 5_000.0);
        let cfg = NetConfig { banks: Some(bank), ..NetConfig::paper_default() };
        let mut n = Network::new(3, cfg);
        let d = n.transmit(&[inj(0, 2, 0, 0.0).with_bank(0), inj(1, 2, 0, 0.0).with_bank(1)]);
        // Ingestion still serializes (one receive engine), but the
        // banks overlap their service: 2400+5000 and 2800+5000.
        let mut vis: Vec<f64> = d.iter().map(|x| x.visible.get()).collect();
        vis.sort_by(f64::total_cmp);
        assert_eq!(vis, vec![7400.0, 7800.0]);
        assert!(d.iter().all(|x| x.bank_wait == Cycles::ZERO));
    }

    #[test]
    fn bank_timelines_persist_and_reset() {
        let bank = crate::config::BankModel::per_message(1, 10_000.0);
        let cfg = NetConfig { banks: Some(bank), ..NetConfig::paper_default() };
        let mut n = Network::new(2, cfg);
        let first = n.transmit(&[inj(0, 1, 0, 0.0).with_bank(0)]);
        // Second batch queues behind the first batch's service slot.
        let second = n.transmit(&[inj(0, 1, 0, 0.0).with_bank(0)]);
        assert!(second[0].bank_wait > Cycles::ZERO);
        n.reset();
        let replay = n.transmit(&[inj(0, 1, 0, 0.0).with_bank(0)]);
        assert_eq!(replay, first);
    }

    #[test]
    #[should_panic]
    fn out_of_range_bank_rejected() {
        let bank = crate::config::BankModel::per_message(2, 100.0);
        let cfg = NetConfig { banks: Some(bank), ..NetConfig::paper_default() };
        let mut n = Network::new(2, cfg);
        n.transmit(&[inj(0, 1, 0, 0.0).with_bank(2)]);
    }

    #[test]
    fn bank_service_scales_with_bytes() {
        let bank = crate::config::BankModel {
            banks_per_node: 1,
            service_fixed: 100.0,
            service_per_byte: 2.0,
        };
        let cfg = NetConfig { banks: Some(bank), ..NetConfig::paper_default() };
        let mut n = Network::new(2, cfg);
        let d = n.transmit(&[inj(0, 1, 50, 0.0).with_bank(0)]);
        // depart 400+150, arrive +1600, ingest +400+150, then the
        // bank: 100 + 2*50 = 200 cycles of service.
        assert_eq!(d[0].visible.get(), 2700.0 + 200.0);
        assert_eq!(d[0].bank_wait, Cycles::ZERO);
    }

    #[test]
    fn self_messages_skip_the_fabric() {
        let mut n = fabric_net(2, 1e6);
        let d = n.transmit(&[inj(1, 1, 40, 0.0)]);
        assert_eq!(d[0].visible.get(), (400.0 + 120.0) * 2.0);
    }

    use crate::topology::TopologyKind;

    fn topo_net(p: usize, t: TopologyKind) -> Network {
        let cfg = NetConfig { topology: t, ..NetConfig::paper_default() };
        Network::new(p, cfg)
    }

    /// The machine-wide shared fabric at `gap` cycles/byte.
    fn fabric_net(p: usize, gap: f64) -> Network {
        let cfg = NetConfig {
            topology: TopologyKind::OneLink,
            link_gap_per_byte: Some(gap),
            ..NetConfig::paper_default()
        };
        Network::new(p, cfg)
    }

    #[test]
    fn explicit_flat_topology_is_the_default_pipeline() {
        // TopologyKind::Flat must not merely approximate the paper
        // pipeline — it must *be* it (no link stage at all).
        let msgs: Vec<_> = (0..40)
            .map(|i| inj(i % 4, (i * 3 + 1) % 4, (i as u64 * 17) % 300, (i % 5) as f64))
            .collect();
        let mut flat = topo_net(4, TopologyKind::Flat);
        assert!(flat.topology().is_none());
        assert_eq!(flat.link_count(), 0);
        let mut plain = net(4);
        assert_eq!(flat.transmit(&msgs), plain.transmit(&msgs));
        assert_eq!(flat.stats(), plain.stats());
        assert!(flat.stats().link_msgs.is_empty());
    }

    #[test]
    fn one_link_fabric_arithmetic_is_pinned() {
        // The shared fabric runs through the generic link pipeline;
        // its numbers are those of the scalar path it replaced.
        let mut n = fabric_net(4, 3.0);
        assert_eq!(n.link_count(), 1);
        let d = n.transmit(&[inj(0, 1, 1000, 0.0), inj(2, 3, 1000, 0.0)]);
        // First flow: depart 400+3000 = 3400, link busy 3000, arrive
        // 6400+1600 = 8000. Second departs 3400 too but queues behind
        // the first's link slot: start 6400, arrive 9400+1600 = 11000.
        assert_eq!(d[0].arrive.get(), 8000.0);
        assert_eq!(d[1].arrive.get(), 11_000.0);
        assert_eq!(d[0].link_wait, Cycles::ZERO);
        assert_eq!(d[1].link_wait.get(), 3000.0);
        assert_eq!(n.stats().link_msgs, vec![2]);
        assert_eq!(n.stats().link_bytes, vec![2000]);
        assert_eq!(n.stats().link_peak_demand, vec![2]);
    }

    #[test]
    fn line_topology_prices_distance() {
        // Line of 4, diameter 3, hop latency 1600/3. A neighbor hop
        // pays one link service + one hop latency; the far pair pays
        // three of each.
        let mut n = topo_net(4, TopologyKind::Line);
        let near = n.transmit(&[inj(0, 1, 100, 0.0)]);
        n.reset();
        let far = n.transmit(&[inj(0, 3, 100, 0.0)]);
        let hop = 300.0 + 1600.0 / 3.0; // link service + hop latency
        assert!((near[0].arrive.get() - (700.0 + hop)).abs() < 1e-6);
        assert!((far[0].arrive.get() - (700.0 + 3.0 * hop)).abs() < 1e-6);
    }

    #[test]
    fn line_topology_contends_on_shared_links() {
        // 0->2 and 1->2 share the directed link 1->2: the second
        // message queues behind the first's occupancy.
        let mut n = topo_net(3, TopologyKind::Line);
        let d = n.transmit(&[inj(0, 2, 1000, 0.0), inj(1, 2, 1000, 0.0)]);
        assert!(
            d[0].link_wait > Cycles::ZERO || d[1].link_wait > Cycles::ZERO,
            "shared line link must queue one of the flows: {d:?}"
        );
        let waited: Vec<_> = d.iter().filter(|x| x.link_wait > Cycles::ZERO).collect();
        assert!(!waited.is_empty());
    }

    #[test]
    fn fat_tree_keeps_disjoint_pairs_independent() {
        // Full bisection: two disjoint flows see identical timing, as
        // on the flat wire (their routes share no links).
        let mut n = topo_net(4, TopologyKind::FatTree);
        let d = n.transmit(&[inj(0, 1, 1000, 0.0), inj(2, 3, 1000, 0.0)]);
        assert_eq!(d[0].visible, d[1].visible);
        assert!(d.iter().all(|x| x.link_wait == Cycles::ZERO));
    }

    #[test]
    fn torus_counters_conserve_hops() {
        let mut n = topo_net(4, TopologyKind::torus(4));
        let msgs: Vec<_> = (0..20).map(|i| inj(i % 4, (i + 1) % 4, 64, 0.0)).collect();
        n.transmit(&msgs);
        let topo = n.topology().expect("torus routes");
        let total_hops: u64 = msgs.iter().map(|m| topo.route(m.src, m.dst).len() as u64).sum();
        assert_eq!(n.stats().link_msgs.iter().sum::<u64>(), total_hops);
        assert_eq!(n.stats().link_bytes.iter().sum::<u64>(), 64 * total_hops);
        assert!(n.stats().link_busy.iter().any(|&b| b > Cycles::ZERO));
        assert!(n.stats().link_peak_demand.iter().any(|&d| d > 0));
    }

    #[test]
    fn each_batch_delivers_exactly_its_own_messages() {
        // The ordering scratch is cleaned only where a batch touched
        // it: batches of very different shapes back to back on one
        // network must each stamp and count their own messages, once.
        let cfg = NetConfig {
            topology: TopologyKind::torus(8),
            faults: Some(FaultConfig::drops(5, 0.25)),
            ..NetConfig::paper_default()
        };
        let mut n = Network::new(8, cfg);
        let all: Vec<_> = (0..56).map(|i| inj(i % 8, (i % 8 + 1 + i / 8) % 8, 64, 0.0)).collect();
        let sparse = vec![inj(6, 2, 10, 0.0), inj(6, 2, 20, 0.0), inj(2, 6, 30, 0.0)];
        let one = vec![inj(7, 7, 5, 0.0)];
        let mut d = Vec::new();
        let mut sent = 0;
        for batch in [&all, &sparse, &one, &Vec::new(), &sparse, &all] {
            n.transmit_into_faulty(batch, &mut d);
            sent += batch.len() as u64;
            assert_eq!(d.len(), batch.len());
            assert_eq!(n.stats().messages + n.stats().dropped, sent);
            for ((m, del), &lost) in batch.iter().zip(&d).zip(n.last_dropped()) {
                assert!(del.depart >= m.ready + cfg.send_busy(m.bytes));
                assert!(del.arrive >= del.depart);
                assert_eq!(del.visible > del.arrive, !lost);
            }
        }
    }

    #[test]
    fn reused_network_replays_exactly_after_reset() {
        // Regression (reset audit): run the same batch twice around a
        // reset — deliveries, stats (including per-link counters),
        // and drop flags must all replay bit-exactly, with nothing
        // stale surviving the reset.
        let cfg = NetConfig {
            topology: TopologyKind::torus(4),
            faults: Some(FaultConfig::drops(7, 0.3)),
            ..NetConfig::paper_default()
        };
        let mut n = Network::new(4, cfg);
        let msgs: Vec<_> =
            (0..60).map(|i| inj(i % 4, (i * 3 + 1) % 4, (i as u64 * 13) % 200, 0.0)).collect();
        let mut d1 = Vec::new();
        n.transmit_into_faulty(&msgs, &mut d1);
        let drops1 = n.last_dropped().to_vec();
        let stats1 = n.stats().clone();
        assert!(stats1.link_msgs.iter().sum::<u64>() > 0);

        n.reset();
        assert!(n.last_dropped().is_empty(), "drop flags must not survive reset");
        assert_eq!(n.stats(), &NetStats::default());

        let mut d2 = Vec::new();
        n.transmit_into_faulty(&msgs, &mut d2);
        assert_eq!(d1, d2);
        assert_eq!(drops1, n.last_dropped());
        assert_eq!(&stats1, n.stats());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::message::MsgKind;
    use proptest::prelude::*;

    fn arb_msgs(p: usize) -> impl Strategy<Value = Vec<Injection>> {
        proptest::collection::vec(
            (0..p, 0..p, 0u64..10_000, 0.0f64..1e6)
                .prop_map(|(s, d, b, r)| Injection::new(s, d, b, Cycles::new(r), MsgKind::Other)),
            0..100,
        )
    }

    proptest! {
        /// Causality: visible >= arrive >= depart >= ready (+ minimum
        /// costs), for every message.
        #[test]
        fn causality_holds(msgs in arb_msgs(8)) {
            let cfg = NetConfig::paper_default();
            let mut n = Network::new(8, cfg);
            let d = n.transmit(&msgs);
            for (m, del) in msgs.iter().zip(&d) {
                let send_busy = cfg.send_busy(m.bytes);
                let recv_busy = cfg.recv_busy(m.bytes);
                prop_assert!(del.depart >= m.ready + send_busy);
                prop_assert!(del.arrive >= del.depart);
                prop_assert!(del.visible >= del.arrive + recv_busy);
            }
        }

        /// Conservation: stats see exactly the injected messages and
        /// bytes.
        #[test]
        fn conservation(msgs in arb_msgs(8)) {
            let mut n = Network::new(8, NetConfig::paper_default());
            n.transmit(&msgs);
            prop_assert_eq!(n.stats().messages, msgs.len() as u64);
            prop_assert_eq!(n.stats().bytes, msgs.iter().map(|m| m.bytes).sum::<u64>());
        }

        /// Input order irrelevance: permuting the injection slice
        /// cannot change the quiesce time (per-sender order is defined
        /// by ready times, and receivers by arrival order). Note the
        /// per-message Delivery vec permutes with the input.
        #[test]
        fn permutation_invariant_quiesce(msgs in arb_msgs(6), seed in 0u64..1000) {
            // Make ready times unique so per-sender order is fully
            // determined by time rather than input index.
            let msgs: Vec<Injection> = msgs
                .iter()
                .enumerate()
                .map(|(i, m)| Injection { ready: m.ready + Cycles::new(i as f64 * 1e-3), ..*m })
                .collect();
            let mut a = Network::new(6, NetConfig::paper_default());
            a.transmit(&msgs);
            let mut shuffled = msgs.clone();
            // Deterministic Fisher-Yates from the seed.
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            for i in (1..shuffled.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                shuffled.swap(i, j);
            }
            let mut b = Network::new(6, NetConfig::paper_default());
            b.transmit(&shuffled);
            prop_assert_eq!(a.quiesce_time(), b.quiesce_time());
        }
    }
}
