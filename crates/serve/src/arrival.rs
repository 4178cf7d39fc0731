//! The seeded open-loop arrival process.
//!
//! Every field of transaction `i` — arrival time, issuing client,
//! shard key, operation — is a pure SplitMix64 function of
//! `(seed, i)`: no generator state, no dependence on worker count or
//! evaluation order (the same keyed-determinism discipline as
//! [`qsm_simnet::fault`]). Two consequences the experiments lean on:
//!
//! * **Replays are exact.** Any sweep point, resumed or re-run on any
//!   `QSM_JOBS`, derives the identical transaction stream.
//! * **Load is monotone by construction.** A run offering `n`
//!   transactions sees exactly the first `n` of the infinite keyed
//!   stream; raising the load *appends* transactions without moving
//!   any existing arrival, so extra load can only add queueing delay
//!   to the shared prefix (the monotonicity the knee tests assert).

use qsm_simnet::time::Cycles;

use crate::config::ServiceConfig;

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a 64-bit hash (53 mantissa bits).
#[inline]
fn unit(z: u64) -> f64 {
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One fully derived transaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Txn {
    /// When the client issues it (within the arrival window).
    pub arrival: Cycles,
    /// The node the issuing client is homed on.
    pub origin: usize,
    /// The shard its key hashes to.
    pub shard: usize,
    /// The node that shard lives on (`shard % p`).
    pub node: usize,
    /// The destination-side memory bank holding the value (0 when the
    /// machine models no banks).
    pub bank: u32,
    /// `true` for a get (read `value_bytes` back), `false` for a put
    /// (send `value_bytes` in).
    pub is_get: bool,
}

/// The per-transaction key every field of transaction `i` draws from.
#[inline]
fn txn_key(cfg: &ServiceConfig, i: u64) -> u64 {
    cfg.seed.wrapping_add(mix(i))
}

/// When transaction `i` arrives: [`txn`]`(cfg, i).arrival`, without
/// deriving the other fields (what ordering the stream needs).
pub fn arrival_time(cfg: &ServiceConfig, i: u64) -> Cycles {
    Cycles::new(unit(mix(txn_key(cfg, i))) * cfg.window)
}

/// Derive transaction `i` of `cfg`'s keyed stream.
pub fn txn(cfg: &ServiceConfig, i: u64) -> Txn {
    txn_at(cfg, i, arrival_time(cfg, i))
}

/// [`txn`], for a caller that holds `arrival_time(cfg, i)` already.
pub(crate) fn txn_at(cfg: &ServiceConfig, i: u64, arrival: Cycles) -> Txn {
    let p = cfg.machine.p;
    // Independent draws: re-key the index stream per field so no two
    // fields share a hash.
    let key = txn_key(cfg, i);
    let client = mix(key ^ 0x00C1_1E57) % cfg.clients;
    let origin = (mix(client.wrapping_add(cfg.seed)) % p as u64) as usize;
    let shard_hash = mix(key ^ 0x0005_1AAD);
    let shard = (shard_hash % cfg.shards as u64) as usize;
    let node = shard % p;
    let banks = cfg.machine.net.banks.map_or(1, |b| b.banks_per_node);
    let bank = ((shard_hash >> 32) % banks as u64) as u32;
    let is_get = unit(mix(key ^ 0x9E7)) < cfg.get_fraction;
    Txn { arrival, origin, shard, node, bank, is_get }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsm_simnet::MachineConfig;

    fn cfg() -> ServiceConfig {
        ServiceConfig::new(MachineConfig::paper_default(8))
    }

    #[test]
    fn txn_is_a_pure_function_of_seed_and_index() {
        let c = cfg();
        for i in [0u64, 1, 7, 1_000_003] {
            assert_eq!(txn(&c, i), txn(&c, i));
        }
        let other = cfg().with_seed(99);
        assert_ne!(txn(&c, 3), txn(&other, 3), "the seed must matter");
        for i in 0..256 {
            assert_eq!(arrival_time(&c, i), txn(&c, i).arrival);
        }
    }

    #[test]
    fn arrivals_cover_the_window_uniformly() {
        let c = cfg();
        let n = 4096;
        let mut mean = 0.0;
        for i in 0..n {
            let t = txn(&c, i).arrival.get();
            assert!((0.0..c.window).contains(&t));
            mean += t / n as f64;
        }
        let half = c.window / 2.0;
        assert!((mean - half).abs() < 0.05 * c.window, "mean {mean} vs window/2 {half}");
    }

    #[test]
    fn fields_land_in_range_and_spread() {
        let c = cfg();
        let p = c.machine.p;
        let mut origin_seen = vec![false; p];
        let mut node_seen = vec![false; p];
        let mut gets = 0usize;
        let n = 4096;
        for i in 0..n {
            let t = txn(&c, i);
            assert!(t.origin < p && t.node < p && t.shard < c.shards);
            assert_eq!(t.node, t.shard % p);
            origin_seen[t.origin] = true;
            node_seen[t.node] = true;
            gets += t.is_get as usize;
        }
        assert!(origin_seen.iter().all(|&s| s), "every node issues");
        assert!(node_seen.iter().all(|&s| s), "every node serves");
        let frac = gets as f64 / n as f64;
        assert!((frac - c.get_fraction).abs() < 0.05, "get fraction {frac}");
    }

    #[test]
    fn banks_default_to_zero_without_a_bank_model() {
        let c = cfg();
        assert!(c.machine.net.banks.is_none());
        for i in 0..64 {
            assert_eq!(txn(&c, i).bank, 0);
        }
    }

    #[test]
    fn raising_the_load_is_a_strict_prefix_extension() {
        // The monotonicity anchor: the first n transactions are
        // independent of how many more follow.
        let c = cfg();
        let low: Vec<Txn> = (0..100).map(|i| txn(&c, i)).collect();
        let high: Vec<Txn> = (0..1000).map(|i| txn(&c, i)).collect();
        assert_eq!(low[..], high[..100]);
    }
}
