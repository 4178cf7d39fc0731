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

use crate::config::{wire_bytes, BARRIER_ROUND_SW};
use crate::message::{Injection, MsgKind};
use crate::network::{Delivery, Network};
use crate::time::Cycles;

/// Wire payload of one barrier token (sequence number + round).
pub const BARRIER_TOKEN_BYTES: u64 = 8;

/// The token messages and their deliveries a [`dissemination`] barrier
/// fills, kept by a caller that runs one every phase so that none
/// allocates.
#[derive(Debug, Default)]
pub struct BarrierScratch {
    msgs: Vec<Injection>,
    deliveries: Vec<Delivery>,
}

/// The dissemination barrier, `⌈log₂ p⌉` rounds of point-to-point
/// tokens: given each node's arrival time at the barrier, fill
/// `release` with each node's release time. Monotone: delaying any
/// entry never releases anyone earlier.
pub fn dissemination(
    net: &mut Network,
    enter: &[Cycles],
    release: &mut Vec<Cycles>,
    scratch: &mut BarrierScratch,
) {
    let p = net.nprocs();
    assert_eq!(enter.len(), p, "one entry time per node");
    release.clear();
    if p == 1 {
        release.push(enter[0]);
        return;
    }
    let rounds = usize::BITS as usize - (p - 1).leading_zeros() as usize; // ceil(log2 p)
    let bytes = wire_bytes(0, BARRIER_TOKEN_BYTES);
    let round_sw = Cycles::new(BARRIER_ROUND_SW);
    // `release[i]` is when node `i` is ready for the next round.
    release.extend(enter.iter().map(|&t| t + round_sw));
    let BarrierScratch { msgs, deliveries } = scratch;
    for r in 0..rounds {
        let dist = 1usize << r;
        msgs.clear();
        let token = |(i, &ready): (usize, &Cycles)| {
            Injection::new(i, (i + dist) % p, bytes, ready, MsgKind::Barrier)
        };
        msgs.extend(release.iter().enumerate().map(token));
        net.transmit_into(msgs, deliveries);
        for (i, ready) in release.iter_mut().enumerate() {
            // Node i continues when its own token has departed and
            // the token from (i - 2^r) mod p is ingested.
            let own_depart = deliveries[i].depart;
            let from = (i + p - dist % p) % p;
            let token_visible = deliveries[from].visible;
            *ready = own_depart.max(token_visible) + round_sw;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;

    /// Each node's release from a barrier entered at `enter`.
    fn released(net: &mut Network, enter: &[Cycles]) -> Vec<Cycles> {
        let mut release = Vec::new();
        dissemination(net, enter, &mut release, &mut BarrierScratch::default());
        release
    }

    /// The cost of a barrier entered by all nodes at once on an idle
    /// machine (without the plan exchange `qsm-core` adds for a full
    /// empty `sync()`).
    fn measure_barrier(net: &mut Network) -> Cycles {
        net.reset();
        let enter = vec![Cycles::ZERO; net.nprocs()];
        let exit = released(net, &enter);
        net.reset();
        exit.into_iter().fold(Cycles::ZERO, Cycles::max)
    }

    fn setup(p: usize) -> Network {
        Network::new(p, NetConfig::paper_default())
    }

    #[test]
    fn single_node_barrier_is_free() {
        let mut net = setup(1);
        let out = released(&mut net, &[Cycles::new(42.0)]);
        assert_eq!(out, vec![Cycles::new(42.0)]);
    }

    #[test]
    fn no_node_released_before_last_entry() {
        // Correctness property of any barrier: release >= every entry.
        let mut net = setup(8);
        let enter: Vec<Cycles> = (0..8).map(|i| Cycles::new(i as f64 * 1000.0)).collect();
        let out = released(&mut net, &enter);
        let last_entry = Cycles::new(7000.0);
        for t in &out {
            assert!(*t >= last_entry, "{t} released before {last_entry}");
        }
    }

    #[test]
    fn rounds_scale_logarithmically() {
        // Barrier cost at 2 nodes ~ 1 round; at 16 nodes ~ 4 rounds.
        let mut n2 = Network::new(2, NetConfig::paper_default());
        let mut n16 = Network::new(16, NetConfig::paper_default());
        let t2 = measure_barrier(&mut n2).get();
        let t16 = measure_barrier(&mut n16).get();
        // One initial software charge plus one chain segment per
        // round: expect t16/t2 a bit above 3 (exactly 4 rounds vs 1).
        let ratio = t16 / t2;
        assert!((3.0..=4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn delaying_one_entry_delays_release() {
        let mut net = setup(4);
        let base = released(&mut net, &[Cycles::ZERO; 4]);
        net.reset();
        let mut enter = vec![Cycles::ZERO; 4];
        enter[2] = Cycles::new(1e6);
        let delayed = released(&mut net, &enter);
        for (b, d) in base.iter().zip(&delayed) {
            assert!(d >= b);
        }
        assert!(delayed[0].get() >= 1e6);
    }

    #[test]
    fn latency_dominates_barrier_on_slow_networks() {
        let fast = NetConfig { latency: 100.0, ..NetConfig::paper_default() };
        let slow = NetConfig { latency: 100_000.0, ..NetConfig::paper_default() };
        let mut nf = Network::new(16, fast);
        let mut ns = Network::new(16, slow);
        let tf = measure_barrier(&mut nf).get();
        let ts = measure_barrier(&mut ns).get();
        // 4 rounds of ~100k latency each.
        assert!(ts > tf + 4.0 * 99_000.0);
    }

    #[test]
    fn non_power_of_two_is_supported() {
        let mut net = setup(7);
        let out = released(&mut net, &[Cycles::ZERO; 7]);
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
        let mut net = setup(8);
        net.enable_trace(1024);
        released(&mut net, &[Cycles::ZERO; 8]);
        let events = net.take_trace().unwrap().into_events();
        assert_eq!(events.len(), 8 * 3, "8 nodes x ceil(log2 8) rounds");
        assert!(events.iter().all(|e| e.kind == MsgKind::Barrier));
        assert_eq!(net.stats().count(MsgKind::Barrier), 24);
        assert_eq!(net.stats().bytes_of(MsgKind::Barrier), 24 * wire_bytes(0, BARRIER_TOKEN_BYTES));
    }

    #[test]
    fn sixteen_node_barrier_near_paper_l() {
        // Table 3: ~25 500 cycles at p = 16 for a full empty sync();
        // the bare barrier (without the plan all-to-all that qsm-core
        // adds) must land meaningfully below that but same order.
        let mut net = Network::new(16, NetConfig::paper_default());
        let t = measure_barrier(&mut net).get();
        assert!((10_000.0..26_000.0).contains(&t), "barrier = {t}");
    }
}
