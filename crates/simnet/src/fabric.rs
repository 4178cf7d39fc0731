//! The staged link fabric: hop-by-hop forwarding with per-link FIFO
//! occupancy.
//!
//! The delivery pipeline's routing stage. Between a message's NIC
//! departure and its arrival at the receiver, the fabric walks the
//! message along its [`crate::topology::Routes`] route: each
//! directed link is a FIFO resource that serializes the messages
//! crossing it at `link_gap_per_byte` cycles per byte, and each
//! traversed hop adds the topology's per-hop share of the wire
//! latency. Messages are forwarded in deterministic
//! `(depart, src, input index)` order, so simulations replay exactly.
//!
//! The shared-fabric experiment (`ext_fabric`) is the special case of
//! the [`crate::TopologyKind::OneLink`] route table: one link, the full
//! wire latency after it. Its numbers are pinned by the fabric tests in
//! `network.rs`, so the float operations below keep their order.

use crate::config::NetConfig;
use crate::message::Injection;
use crate::network::Delivery;
use crate::stats::NetStats;
use crate::time::Cycles;
use crate::timeline::FifoTimeline;
use crate::topology::Routes;

/// Per-link forwarding state for one [`crate::Network`].
#[derive(Debug)]
pub(crate) struct Fabric {
    routes: Routes,
    /// Service cost per wire byte on every link, cycles.
    link_gap: f64,
    /// The topology's per-hop share of the wire latency.
    hop_latency: Cycles,
    /// Per-directed-link FIFO service timelines.
    link_free: FifoTimeline,
    /// Scratch: forwarding order of the current batch.
    order: Vec<usize>,
}

impl Fabric {
    /// Build the fabric stage a [`NetConfig`] asks for on a `p`-node
    /// machine, or `None` when the configuration is the paper's flat
    /// contention-free wire (the delivery pipeline then skips the
    /// stage entirely — the exact original arithmetic).
    pub(crate) fn from_config(p: usize, cfg: &NetConfig) -> Option<Self> {
        let routes = cfg.topology.build(p, cfg.latency)?;
        let links = routes.links();
        Some(Self {
            link_gap: cfg.link_gap_per_byte.unwrap_or(cfg.gap_per_byte),
            hop_latency: Cycles::new(routes.hop_latency()),
            routes,
            link_free: FifoTimeline::new(links),
            order: Vec::new(),
        })
    }

    /// Number of directed links.
    pub(crate) fn links(&self) -> usize {
        self.link_free.len()
    }

    /// Cycles link `l` has spent serializing traffic since the last
    /// reset.
    pub(crate) fn busy_total(&self, l: usize) -> Cycles {
        self.link_free.busy_total(l)
    }

    /// Reset every link timeline to idle-at-zero.
    pub(crate) fn reset(&mut self) {
        self.link_free.reset();
    }

    /// Forward one transmitted batch through the link pipeline in
    /// deterministic `(depart, src, input index)` order. Link
    /// counters accumulate into `stats`.
    pub(crate) fn forward(
        &mut self,
        msgs: &[Injection],
        deliveries: &mut [Delivery],
        stats: &mut NetStats,
    ) {
        let mut order = std::mem::take(&mut self.order);
        order.extend(0..msgs.len());
        order.sort_by(|&a, &b| {
            deliveries[a]
                .depart
                .cmp(&deliveries[b].depart)
                .then_with(|| msgs[a].src.cmp(&msgs[b].src))
                .then_with(|| a.cmp(&b))
        });
        for i in order.drain(..) {
            self.forward_one(&msgs[i], &mut deliveries[i], stats);
        }
        self.order = order;
    }

    /// Walk one message along its route, rewriting its `arrive` and
    /// recording its accumulated `link_wait`: each hop queues at the
    /// link's FIFO, occupies it for the message's bytes, then pays the
    /// hop latency. Self-messages never enter the fabric. Host cost is
    /// the route length, nothing else.
    //
    // Never inlined: merged into the batch loop the hop walk compiled
    // 13–19 % slower (measured, torus p = 256) than as a function of
    // its own, which costs a call per message over the old fused loop.
    #[inline(never)]
    pub(crate) fn forward_one(&mut self, m: &Injection, d: &mut Delivery, stats: &mut NetStats) {
        if m.src == m.dst {
            return;
        }
        let occupy = Cycles::new(self.link_gap * m.bytes as f64);
        let mut at = d.depart;
        let mut wait = Cycles::ZERO;
        let route = self.routes.route(m.src, m.dst);
        for &l in route {
            let slot = self.link_free.serve(l as usize, at, occupy);
            wait += slot.start - at;
            at = slot.done + self.hop_latency;
        }
        stats.link_msgs += route.len() as u64;
        stats.link_bytes += route.len() as u64 * m.bytes;
        d.arrive = at;
        d.link_wait = wait;
    }
}
