//! Barrier synchronization models.
//!
//! The paper's library ends every bulk-synchronous phase with a
//! barrier whose measured cost (Table 3: 25 500 cycles ≈ 64 µs at 16
//! processors) *includes* software work, message overheads, and
//! latencies. To keep that emergent rather than configured, the
//! default model is a dissemination barrier built from simulated
//! messages: in round `r` of `⌈log₂ p⌉`, node `i` sends a token to
//! node `(i + 2^r) mod p` and proceeds once it has both finished its
//! own send and ingested the token addressed to it.

use crate::config::SoftwareConfig;
use crate::message::{Injection, MsgKind};
use crate::network::Network;
use crate::time::Cycles;

/// Wire payload of one barrier token (sequence number + round).
pub const BARRIER_TOKEN_BYTES: u64 = 8;

/// The dissemination barrier, `⌈log₂ p⌉` rounds of point-to-point
/// tokens: given each node's arrival time at the barrier, return each
/// node's release time. Monotone: delaying any entry never releases
/// anyone earlier.
pub fn dissemination(net: &mut Network, sw: &SoftwareConfig, enter: &[Cycles]) -> Vec<Cycles> {
    let p = net.nprocs();
    assert_eq!(enter.len(), p, "one entry time per node");
    if p == 1 {
        return vec![enter[0]];
    }
    let rounds = usize::BITS as usize - (p - 1).leading_zeros() as usize; // ceil(log2 p)
    let bytes = BARRIER_TOKEN_BYTES + sw.msg_header_bytes;
    let mut ready: Vec<Cycles> =
        enter.iter().map(|&t| t + Cycles::new(sw.barrier_round_sw)).collect();
    for r in 0..rounds {
        let dist = 1usize << r;
        let msgs: Vec<Injection> = (0..p)
            .map(|i| Injection::new(i, (i + dist) % p, bytes, ready[i], MsgKind::Barrier))
            .collect();
        let mut deliveries = Vec::new();
        net.transmit_into(&msgs, &mut deliveries);
        let mut next = vec![Cycles::ZERO; p];
        for i in 0..p {
            // Node i continues when its own token has departed and
            // the token from (i - 2^r) mod p is ingested.
            let own_depart = deliveries[i].depart;
            let from = (i + p - dist % p) % p;
            let token_visible = deliveries[from].visible;
            next[i] = own_depart.max(token_visible) + Cycles::new(sw.barrier_round_sw);
        }
        ready = next;
    }
    ready
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;

    /// The cost of a barrier entered by all nodes at once on an idle
    /// machine (without the plan exchange `qsm-core` adds for a full
    /// empty `sync()`).
    fn measure_barrier(net: &mut Network, sw: &SoftwareConfig) -> Cycles {
        net.reset();
        let enter = vec![Cycles::ZERO; net.nprocs()];
        let exit = dissemination(net, sw, &enter);
        net.reset();
        exit.into_iter().fold(Cycles::ZERO, Cycles::max)
    }

    fn setup(p: usize) -> (Network, SoftwareConfig) {
        (Network::new(p, NetConfig::paper_default()), SoftwareConfig::calibrated())
    }

    #[test]
    fn single_node_barrier_is_free() {
        let (mut net, sw) = setup(1);
        let out = dissemination(&mut net, &sw, &[Cycles::new(42.0)]);
        assert_eq!(out, vec![Cycles::new(42.0)]);
    }

    #[test]
    fn no_node_released_before_last_entry() {
        // Correctness property of any barrier: release >= every entry.
        let (mut net, sw) = setup(8);
        let enter: Vec<Cycles> = (0..8).map(|i| Cycles::new(i as f64 * 1000.0)).collect();
        let out = dissemination(&mut net, &sw, &enter);
        let last_entry = Cycles::new(7000.0);
        for t in &out {
            assert!(*t >= last_entry, "{t} released before {last_entry}");
        }
    }

    #[test]
    fn rounds_scale_logarithmically() {
        // Barrier cost at 2 nodes ~ 1 round; at 16 nodes ~ 4 rounds.
        let sw = SoftwareConfig::calibrated();
        let mut n2 = Network::new(2, NetConfig::paper_default());
        let mut n16 = Network::new(16, NetConfig::paper_default());
        let t2 = measure_barrier(&mut n2, &sw).get();
        let t16 = measure_barrier(&mut n16, &sw).get();
        // One initial software charge plus one chain segment per
        // round: expect t16/t2 a bit above 3 (exactly 4 rounds vs 1).
        let ratio = t16 / t2;
        assert!((3.0..=4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn delaying_one_entry_delays_release() {
        let (mut net, sw) = setup(4);
        let base = dissemination(&mut net, &sw, &[Cycles::ZERO; 4]);
        net.reset();
        let mut enter = vec![Cycles::ZERO; 4];
        enter[2] = Cycles::new(1e6);
        let delayed = dissemination(&mut net, &sw, &enter);
        for (b, d) in base.iter().zip(&delayed) {
            assert!(d >= b);
        }
        assert!(delayed[0].get() >= 1e6);
    }

    #[test]
    fn latency_dominates_barrier_on_slow_networks() {
        let sw = SoftwareConfig::calibrated();
        let fast = NetConfig { latency: 100.0, ..NetConfig::paper_default() };
        let slow = NetConfig { latency: 100_000.0, ..NetConfig::paper_default() };
        let mut nf = Network::new(16, fast);
        let mut ns = Network::new(16, slow);
        let tf = measure_barrier(&mut nf, &sw).get();
        let ts = measure_barrier(&mut ns, &sw).get();
        // 4 rounds of ~100k latency each.
        assert!(ts > tf + 4.0 * 99_000.0);
    }

    #[test]
    fn non_power_of_two_is_supported() {
        let (mut net, sw) = setup(7);
        let out = dissemination(&mut net, &sw, &[Cycles::ZERO; 7]);
        assert_eq!(out.len(), 7);
        // ceil(log2 7) = 3 rounds; everyone must end strictly later
        // than 3 x (latency) at the very least.
        for t in &out {
            assert!(t.get() > 3.0 * 1600.0);
        }
    }

    #[test]
    fn barrier_legs_are_traced() {
        // Barrier tokens go through the same transmit path as data,
        // so an enabled trace must capture every leg: p tokens per
        // round x ceil(log2 p) rounds, all tagged MsgKind::Barrier.
        let (mut net, sw) = setup(8);
        net.enable_trace(1024);
        dissemination(&mut net, &sw, &[Cycles::ZERO; 8]);
        let tr = net.take_trace().unwrap();
        assert_eq!(tr.len(), 8 * 3, "8 nodes x ceil(log2 8) rounds");
        assert!(tr.iter().all(|e| e.kind == MsgKind::Barrier));
        assert_eq!(net.stats().count(MsgKind::Barrier), 24);
        assert_eq!(
            net.stats().bytes_of(MsgKind::Barrier),
            24 * (BARRIER_TOKEN_BYTES + sw.msg_header_bytes)
        );
    }

    #[test]
    fn sixteen_node_barrier_near_paper_l() {
        // Table 3: ~25 500 cycles at p = 16 for a full empty sync();
        // the bare barrier (without the plan all-to-all that qsm-core
        // adds) must land meaningfully below that but same order.
        let sw = SoftwareConfig::calibrated();
        let mut net = Network::new(16, NetConfig::paper_default());
        let t = measure_barrier(&mut net, &sw).get();
        assert!((10_000.0..26_000.0).contains(&t), "barrier = {t}");
    }
}
