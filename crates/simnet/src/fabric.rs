//! The staged link fabric: hop-by-hop forwarding with per-link FIFO
//! occupancy.
//!
//! The delivery pipeline's routing stage. Between a message's NIC
//! departure and its arrival at the receiver, the fabric walks the
//! message along its [`crate::topology::Topology`] route: each
//! directed link is a FIFO resource that serializes the messages
//! crossing it at `link_gap_per_byte` cycles per byte, and each
//! traversed hop adds the topology's per-hop share of the wire
//! latency. Messages are forwarded in deterministic
//! `(depart, src, input index)` order, so simulations replay exactly.
//!
//! The shared-fabric experiment (`ext_fabric`) is the special case of
//! a [`crate::topology::OneLink`] topology: one link, the full wire
//! latency after it. Its numbers are pinned by the fabric tests in
//! `network.rs`, so the float operations below keep their order.

use crate::config::NetConfig;
use crate::message::Injection;
use crate::network::Delivery;
use crate::stats::NetStats;
use crate::time::Cycles;
use crate::timeline::FifoTimeline;
use crate::topology::Topology;

/// Per-link forwarding state for one [`crate::Network`].
#[derive(Debug)]
pub(crate) struct Fabric {
    router: Box<dyn Topology>,
    /// Service cost per wire byte on every link, cycles.
    link_gap: f64,
    /// The topology's per-hop share of the wire latency.
    hop_latency: Cycles,
    /// Per-directed-link FIFO service timelines.
    link_free: FifoTimeline,
    /// Scratch: forwarding order of the current batch.
    order: Vec<usize>,
    /// Scratch: per-link `(batch, messages)` demand. A count belongs
    /// to the current batch only while its stamp equals `batch`, so
    /// starting a batch touches no link at all.
    demand: Vec<(u64, u64)>,
    /// Stamp of the current batch.
    batch: u64,
}

impl Fabric {
    /// Build the fabric stage a [`NetConfig`] asks for on a `p`-node
    /// machine, or `None` when the configuration is the paper's flat
    /// contention-free wire (the delivery pipeline then skips the
    /// stage entirely — the exact original arithmetic).
    pub(crate) fn from_config(p: usize, cfg: &NetConfig) -> Option<Self> {
        let router = cfg.topology.build(p, cfg.latency)?;
        let links = router.links();
        Some(Self {
            link_gap: cfg.link_gap_per_byte.unwrap_or(cfg.gap_per_byte),
            hop_latency: Cycles::new(router.hop_latency()),
            router,
            link_free: FifoTimeline::new(links),
            order: Vec::new(),
            demand: vec![(0, 0); links],
            batch: 0,
        })
    }

    /// Number of directed links.
    pub(crate) fn links(&self) -> usize {
        self.link_free.len()
    }

    /// The routing function.
    pub(crate) fn router(&self) -> &dyn Topology {
        self.router.as_ref()
    }

    /// Reset every link timeline to idle-at-zero.
    pub(crate) fn reset(&mut self) {
        self.link_free.reset();
    }

    /// Open a transmitted batch (of one message or many): per-link
    /// demand counts from here on, and `stats` has its link counters.
    pub(crate) fn begin_batch(&mut self, stats: &mut NetStats) {
        stats.ensure_links(self.link_free.len());
        self.batch += 1;
    }

    /// Forward one transmitted batch through the link pipeline in
    /// deterministic `(depart, src, input index)` order. Per-link
    /// counters accumulate into `stats`.
    pub(crate) fn forward(
        &mut self,
        msgs: &[Injection],
        deliveries: &mut [Delivery],
        stats: &mut NetStats,
    ) {
        self.begin_batch(stats);
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

    /// Walk one message of the open batch along its route, rewriting
    /// its `arrive` and recording its accumulated `link_wait`: each
    /// hop queues at the link's FIFO, occupies it for the message's
    /// bytes, then pays the hop latency. Self-messages never enter
    /// the fabric. Host cost is the route length, nothing else.
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
        for &l in self.router.route(m.src, m.dst) {
            let slot = self.link_free.serve(l, at, occupy);
            wait += slot.start - at;
            at = slot.done + self.hop_latency;
            stats.link_msgs[l] += 1;
            stats.link_bytes[l] += m.bytes;
            stats.link_busy[l] += occupy;
            let demand = &mut self.demand[l];
            if demand.0 != self.batch {
                *demand = (self.batch, 0);
            }
            demand.1 += 1;
            stats.link_peak_demand[l] = stats.link_peak_demand[l].max(demand.1);
        }
        d.arrive = at;
        d.link_wait = wait;
    }
}
