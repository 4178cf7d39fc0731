//! `Network::send_one` against the batch entry points it underlies.
//!
//! A seeded message sequence must price bit-identically whether each
//! message goes through `send_one` or through a one-element
//! `transmit_into*` slice, on a fresh network and on one that first
//! ran a full all-to-all batch and was `reset()` — the case where
//! scratch that is only cleaned where it was touched could leak.

use qsm_simnet::{
    BankModel, Cycles, Delivery, FaultConfig, Injection, MsgKind, NetConfig, NetStats, Network,
    TopologyKind,
};

const P: usize = 16;
const BANKS: usize = 4;

/// SplitMix64 step: the sequence below is a pure function of the seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 300 messages between random pairs (self-messages included) with
/// non-decreasing ready times that often tie, mixed sizes and kinds,
/// and a bank tag on about two in three.
fn sequence(seed: u64) -> Vec<Injection> {
    let mut s = seed;
    let mut ready = 0.0;
    (0..300)
        .map(|_| {
            let (src, dst) = (next(&mut s) as usize % P, next(&mut s) as usize % P);
            ready += (next(&mut s) % 3) as f64 * 250.0;
            let kind = MsgKind::ALL[next(&mut s) as usize % MsgKind::COUNT];
            let m = Injection::new(src, dst, next(&mut s) % 2_000, Cycles::new(ready), kind);
            match next(&mut s) % 3 {
                0 => m,
                _ => m.with_bank((next(&mut s) % BANKS as u64) as u32),
            }
        })
        .collect()
}

/// The full p(p−1) all-to-all the BSP driver's plan exchange sends.
fn all_to_all() -> Vec<Injection> {
    (1..P)
        .flat_map(|r| (0..P).map(move |src| (r, src)))
        .map(|(r, src)| {
            Injection::new(src, (src + r) % P, 512, Cycles::ZERO, MsgKind::PutData)
                .with_bank((src % BANKS) as u32)
        })
        .collect()
}

/// Fault key of the `k`-th message: what the network's own sequence
/// stream would hand it on a fresh (or reset) network.
fn key(k: usize) -> u64 {
    k as u64
}

type Outcome = (Vec<(Delivery, bool)>, NetStats);

fn via_send_one(mut net: Network, msgs: &[Injection], faulty: bool) -> Outcome {
    let out =
        msgs.iter().enumerate().map(|(k, m)| net.send_one(m, faulty.then(|| key(k)))).collect();
    (out, net.stats().clone())
}

/// One-element slices through the reliable entry point, or — when
/// `faulty` — through the faulty one: drawing from the network's
/// sequence stream (which hands message `k` key `k` on a fresh or
/// reset network), or explicitly `keyed`.
fn via_slices(mut net: Network, msgs: &[Injection], faulty: bool, keyed: bool) -> Outcome {
    let mut buf = Vec::new();
    let mut out = Vec::new();
    for (k, m) in msgs.iter().enumerate() {
        let one = std::slice::from_ref(m);
        match (faulty, keyed) {
            (false, _) => net.transmit_into(one, &mut buf),
            (true, false) => net.transmit_into_faulty(one, &mut buf),
            (true, true) => net.transmit_into_faulty_keyed(one, &mut buf, &[key(k)]),
        }
        out.push((buf[0], faulty && net.last_dropped()[0]));
    }
    (out, net.stats().clone())
}

/// A network that has already run a full batch and been reset.
fn warmed(cfg: NetConfig, faulty: bool) -> Network {
    let mut net = Network::new(P, cfg);
    let mut buf = Vec::new();
    if faulty {
        net.transmit_into_faulty(&all_to_all(), &mut buf);
    } else {
        net.transmit_into(&all_to_all(), &mut buf);
    }
    assert!(net.stats().messages > 0);
    net.reset();
    net
}

#[test]
fn send_one_slices_and_reused_networks_agree_bit_for_bit() {
    type SetWire = fn(&mut NetConfig);
    let wires: [(&str, SetWire); 4] = [
        ("flat", |_| {}),
        ("one-link", |c| {
            c.topology = TopologyKind::OneLink;
            c.link_gap_per_byte = Some(2.0);
        }),
        ("torus", |c| c.topology = TopologyKind::torus(P)),
        ("fat-tree", |c| c.topology = TopologyKind::FatTree),
    ];
    for (wire, set_wire) in wires {
        for banks in [false, true] {
            for faulty in [false, true] {
                let mut cfg = NetConfig::paper_default();
                set_wire(&mut cfg);
                if banks {
                    cfg.banks = Some(BankModel {
                        banks_per_node: BANKS,
                        service_fixed: 300.0,
                        service_per_byte: 6.0,
                    });
                }
                if faulty {
                    cfg.faults = Some(FaultConfig::drops(0x5E0D, 0.2));
                }
                let label = format!("{wire}, banks {banks}, faults {faulty}");
                let msgs = sequence(0xC0FFEE);
                let reference = via_send_one(Network::new(P, cfg), &msgs, faulty);
                let (deliveries, stats) = &reference;
                assert_eq!(stats.messages + stats.dropped, msgs.len() as u64, "{label}");
                assert_eq!(stats.dropped > 0, faulty, "{label}");
                assert_eq!(deliveries.iter().any(|(d, _)| d.bank_wait > Cycles::ZERO), banks);
                assert_eq!(stats.link_peak_demand.iter().any(|&d| d > 0), wire != "flat");
                // A message is a batch of its own: no link ever sees two.
                assert!(stats.link_peak_demand.iter().all(|&d| d <= 1), "{label}");

                let slices = via_slices(Network::new(P, cfg), &msgs, faulty, false);
                assert_eq!(reference, slices, "{label}: send_one vs one-element slices");
                let reused = via_send_one(warmed(cfg, faulty), &msgs, faulty);
                assert_eq!(reference, reused, "{label}: send_one after a batch and a reset");
                let reused = via_slices(warmed(cfg, faulty), &msgs, faulty, true);
                assert_eq!(reference, reused, "{label}: slices after a batch and a reset");
            }
        }
    }
}

#[test]
fn a_batch_after_single_sends_counts_only_its_own_link_demand() {
    // The other direction: single sends, then (no reset) a batch. Peak
    // demand is a count of routes, not of time, so the batch must
    // report what it reports on a fresh network.
    let cfg = NetConfig { topology: TopologyKind::torus(P), ..NetConfig::paper_default() };
    let batch = all_to_all();
    let mut fresh = Network::new(P, cfg);
    fresh.transmit_into(&batch, &mut Vec::new());
    let peak = &fresh.stats().link_peak_demand;
    assert!(peak.iter().all(|&d| d > 1), "the all-to-all crosses every link: {peak:?}");
    let mut used = Network::new(P, cfg);
    for m in &sequence(7) {
        used.send_one(m, None);
    }
    used.transmit_into(&batch, &mut Vec::new());
    assert_eq!(&used.stats().link_peak_demand, peak);
}

#[test]
fn send_one_leaves_the_batch_drop_flags_alone() {
    let cfg = NetConfig { faults: Some(FaultConfig::drops(3, 0.5)), ..NetConfig::paper_default() };
    let mut net = Network::new(P, cfg);
    let mut buf = Vec::new();
    net.transmit_into_faulty(&all_to_all(), &mut buf);
    let flags = net.last_dropped().to_vec();
    let seq = net.next_fault_seq();
    for (k, m) in sequence(1).iter().enumerate() {
        net.send_one(m, Some(key(k)));
    }
    assert_eq!(net.last_dropped(), flags);
    assert_eq!(net.next_fault_seq(), seq, "keyed sends do not consume the sequence stream");
}

fn other(src: usize, dst: usize) -> Injection {
    Injection::new(src, dst, 8, Cycles::ZERO, MsgKind::Other)
}

#[test]
#[should_panic(expected = "bad src")]
fn send_one_rejects_an_out_of_range_source() {
    Network::new(P, NetConfig::paper_default()).send_one(&other(P, 0), None);
}

#[test]
#[should_panic(expected = "bad dst")]
fn send_one_rejects_an_out_of_range_destination() {
    Network::new(P, NetConfig::paper_default()).send_one(&other(0, P), None);
}

#[test]
#[should_panic(expected = "bad bank")]
fn send_one_rejects_an_out_of_range_bank() {
    let cfg = NetConfig {
        banks: Some(BankModel::per_message(BANKS, 100.0)),
        ..NetConfig::paper_default()
    };
    Network::new(P, cfg).send_one(&other(0, 1).with_bank(BANKS as u32), None);
}
