//! Deterministic fault injection for the simulated network.
//!
//! The paper's simulator (like the analytical models it evaluates)
//! assumes a fault-free network: every message departs, traverses the
//! wire, and is ingested exactly once. Real fabrics drop and delay
//! messages, and the interesting question — the same one the paper
//! asks for latency and overhead — is how far measured behavior
//! drifts from the models' predictions as the fault rate grows.
//!
//! [`FaultConfig`] describes one fault: **message loss**. Each
//! data-plane transmission is dropped with probability `drop_prob`; a
//! dropped message still occupies its sender's NIC (and the fabric),
//! but never reaches the receive engine. A send that is not lost is
//! timed exactly as on a fault-free network.
//!
//! Every drop decision is a **pure function of the config seed** and
//! a stable message coordinate, so a faulted run is byte-reproducible:
//! the same seed yields the same drop schedule, independent of host,
//! thread count, or repetition. Drop decisions additionally use a
//! *threshold* construction (one uniform draw per sequence number
//! compared against `drop_prob`), so raising the probability strictly
//! grows the drop set for a fixed seed — sweeps over `drop_prob` are
//! monotone by construction, not just in expectation.
//!
//! Faults apply to the bulk data exchange (puts, get requests and
//! replies) — the control plane (communication plan, barrier) is
//! modeled as reliable, as in real interconnects that reserve a
//! protected virtual channel for control traffic. The loops that
//! re-deliver dropped data messages live one layer up (`qsm-core`'s
//! exchange stage, `qsm-serve`'s event loop); the rule they share —
//! when a resend is ready, and when to stop — is
//! [`FaultConfig::resend_ready`].

use crate::time::Cycles;

/// SplitMix64 finalizer: a high-quality 64-bit mixing function. Every
/// keyed draw of the workspace (fault decisions, the serving layer's
/// arrivals, hashed array layout) derives from it.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a 64-bit hash (53 mantissa bits).
#[inline]
pub fn unit(z: u64) -> f64 {
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Seeded fault-injection configuration. See the module docs for the
/// model; [`FaultConfig::validate`] for the invariants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed every fault decision derives from.
    pub seed: u64,
    /// Per-transmission drop probability in `[0, 1)`.
    pub drop_prob: f64,
    /// Resend timeout in cycles: a lost transmission's resend becomes
    /// ready `retry_timeout · 2^(attempt-1)` after the failed depart
    /// (bounded exponential backoff, computed only by
    /// [`FaultConfig::resend_ready`] for both retry loops: the batch
    /// exchange in `qsm-core` and the event loop in `qsm-serve`).
    pub retry_timeout: f64,
    /// Maximum delivery attempts per message before
    /// [`FaultConfig::resend_ready`] returns `None`. What giving up
    /// means is the caller's policy: `qsm-core`'s batch exchange panics
    /// with the message's coordinates (the sweep executor degrades
    /// gracefully), `qsm-serve` counts the transaction as `timed_out`.
    pub max_attempts: u32,
}

impl FaultConfig {
    /// A drop-only configuration with default retry parameters.
    pub fn drops(seed: u64, drop_prob: f64) -> Self {
        let cfg = Self { seed, drop_prob, retry_timeout: 8_000.0, max_attempts: 64 };
        cfg.validate();
        cfg
    }

    /// Check invariants; panics on an invalid configuration.
    ///
    /// `drop_prob` must be strictly below 1: at probability 1 no
    /// retry protocol can ever deliver, so the configuration is
    /// rejected up front instead of looping to `max_attempts` on
    /// every message.
    pub fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.drop_prob),
            "drop_prob must be in [0, 1), got {}",
            self.drop_prob
        );
        assert!(self.retry_timeout > 0.0 && self.retry_timeout.is_finite());
        assert!(self.max_attempts >= 1);
    }

    /// Whether the data-plane transmission with sequence number `seq`
    /// is dropped. Pure in `(seed, seq)`; for a fixed seed the drop
    /// set at a lower `drop_prob` is a subset of the set at a higher
    /// one (threshold construction).
    #[inline]
    pub fn drop_at(&self, seq: u64) -> bool {
        if self.drop_prob <= 0.0 {
            return false;
        }
        unit(mix64(self.seed ^ seq.wrapping_mul(0xA24B_AED4_963E_E407))) < self.drop_prob
    }

    /// Fault key for resend `attempt` (≥ 1) of the message whose
    /// primary transmission drew sequence number `seq`. Pure in
    /// `(seq, attempt)` and independent of how many resends any other
    /// message needed, so retry traffic never shifts the primary
    /// stream: the subset property of [`FaultConfig::drop_at`] then
    /// holds across *entire runs* at different drop probabilities,
    /// not just for the first batch.
    #[inline]
    pub fn retry_key(seq: u64, attempt: u32) -> u64 {
        seq ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// The retry rule: when the next resend of a message becomes
    /// ready, given that `attempts` (≥ 1) transmissions of it have
    /// been lost and the last one departed at `failed_depart` —
    /// `retry_timeout · 2^(attempts-1)` later. `None` once `attempts`
    /// has reached `max_attempts`: the caller gives up, by its own
    /// policy.
    #[inline]
    pub fn resend_ready(&self, failed_depart: Cycles, attempts: u32) -> Option<Cycles> {
        if attempts >= self.max_attempts {
            return None;
        }
        // The exponent is clamped so a huge `max_attempts` backs off
        // by a finite 2^60 timeouts instead of overflowing to infinity.
        let backoff = self.retry_timeout * 2f64.powi((attempts - 1).min(60) as i32);
        Some(failed_depart + Cycles::new(backoff))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_schedule_is_pure_in_seed_and_seq() {
        let a = FaultConfig::drops(42, 0.3);
        let b = FaultConfig::drops(42, 0.3);
        for seq in 0..1000 {
            assert_eq!(a.drop_at(seq), b.drop_at(seq));
        }
        let c = FaultConfig::drops(43, 0.3);
        let differs = (0..1000).any(|s| a.drop_at(s) != c.drop_at(s));
        assert!(differs, "different seeds should yield different schedules");
    }

    #[test]
    fn drop_rate_tracks_probability() {
        for &p in &[0.05, 0.2, 0.5] {
            let cfg = FaultConfig::drops(7, p);
            let hits = (0..20_000).filter(|&s| cfg.drop_at(s)).count() as f64 / 20_000.0;
            assert!((hits - p).abs() < 0.02, "p={p} measured {hits}");
        }
    }

    #[test]
    fn drop_sets_nest_monotonically_in_probability() {
        // Threshold construction: every drop at p=0.1 is a drop at
        // p=0.4 for the same seed — sweeps are monotone by design.
        let lo = FaultConfig::drops(99, 0.1);
        let hi = FaultConfig::drops(99, 0.4);
        for seq in 0..20_000 {
            if lo.drop_at(seq) {
                assert!(hi.drop_at(seq), "drop set not nested at seq {seq}");
            }
        }
    }

    #[test]
    fn zero_probability_never_drops() {
        let cfg = FaultConfig::drops(1, 0.0);
        assert!((0..10_000).all(|s| !cfg.drop_at(s)));
    }

    #[test]
    #[should_panic(expected = "drop_prob")]
    fn certain_loss_rejected() {
        let _ = FaultConfig::drops(1, 1.0);
    }

    #[test]
    fn resend_k_is_ready_a_doubling_timeout_after_the_failed_depart() {
        let f = FaultConfig { retry_timeout: 500.0, ..FaultConfig::drops(1, 0.1) };
        let depart = Cycles::new(1_000.0);
        for (k, backoff) in [(1, 500.0), (2, 1_000.0), (3, 2_000.0)] {
            assert_eq!(f.resend_ready(depart, k), Some(Cycles::new(1_000.0 + backoff)), "k={k}");
        }
    }

    #[test]
    fn resend_gives_up_exactly_at_max_attempts() {
        let f = FaultConfig::drops(1, 0.1);
        assert!(f.resend_ready(Cycles::ZERO, f.max_attempts - 1).is_some());
        assert_eq!(f.resend_ready(Cycles::ZERO, f.max_attempts), None);
        assert_eq!(f.resend_ready(Cycles::ZERO, f.max_attempts + 1), None);
        // One attempt allowed: the first loss is already final.
        let once = FaultConfig { max_attempts: 1, ..f };
        assert_eq!(once.resend_ready(Cycles::ZERO, 1), None);
    }

    #[test]
    fn resend_backoff_exponent_is_clamped() {
        let f = FaultConfig { max_attempts: u32::MAX, ..FaultConfig::drops(1, 0.1) };
        let at_clamp = f.resend_ready(Cycles::ZERO, 61).expect("below max_attempts");
        assert_eq!(at_clamp, Cycles::new(2f64.powi(60) * f.retry_timeout));
        assert_eq!(f.resend_ready(Cycles::ZERO, 200), Some(at_clamp));
        assert!(at_clamp.get().is_finite());
    }
}
