//! Deterministic fault injection for the simulated network.
//!
//! The paper's simulator (like the analytical models it evaluates)
//! assumes a fault-free network: every message departs, traverses the
//! wire, and is ingested exactly once. Real fabrics drop and delay
//! messages, and the interesting question — the same one the paper
//! asks for latency and overhead — is how far measured behavior
//! drifts from the models' predictions as the fault rate grows.
//!
//! [`FaultConfig`] describes three fault axes:
//!
//! * **message drops** — each data-plane transmission is lost with
//!   probability `drop_prob`;
//! * **link degradation** — a transient window during which wire
//!   latency and the NIC gap are multiplied by configured factors;
//! * **node stalls** — periodic per-node bursts during which a node's
//!   send engine is frozen (an OS hiccup, a GC pause).
//!
//! Every fault decision is a **pure function of the config seed** and
//! stable message/burst coordinates, so a faulted run is
//! byte-reproducible: the same seed yields the same drop schedule,
//! the same degradation windows, and the same stalls, independent of
//! host, thread count, or repetition. Drop decisions additionally use
//! a *threshold* construction (one uniform draw per sequence number
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

/// A transient link-degradation window: between `start` and `end`
/// (simulated cycles), wire latency and the NIC gap are multiplied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeWindow {
    /// Window start (inclusive), cycles.
    pub start: f64,
    /// Window end (exclusive), cycles.
    pub end: f64,
    /// Multiplier applied to the wire latency inside the window.
    pub latency_factor: f64,
    /// Multiplier applied to the NIC gap (cycles/byte) inside the
    /// window.
    pub gap_factor: f64,
}

/// Periodic per-node stall bursts: once per `period`, each node
/// freezes its send engine for `duration` cycles. The burst's offset
/// within its period is a seeded per-`(node, period-index)` jitter,
/// so nodes do not stall in lockstep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallConfig {
    /// Cycle length between burst opportunities.
    pub period: f64,
    /// Burst duration, cycles (clamped to `period`).
    pub duration: f64,
}

/// Seeded fault-injection configuration. See the module docs for the
/// model; [`FaultConfig::validate`] for the invariants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed every fault decision derives from.
    pub seed: u64,
    /// Per-transmission drop probability in `[0, 1)`.
    pub drop_prob: f64,
    /// Optional transient link degradation.
    pub degrade: Option<DegradeWindow>,
    /// Optional periodic per-node stall bursts.
    pub stall: Option<StallConfig>,
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
        let cfg = Self {
            seed,
            drop_prob,
            degrade: None,
            stall: None,
            retry_timeout: 8_000.0,
            max_attempts: 64,
        };
        cfg.validate();
        cfg
    }

    /// Builder: add a transient link-degradation window.
    pub fn with_degrade(mut self, w: DegradeWindow) -> Self {
        self.degrade = Some(w);
        self.validate();
        self
    }

    /// Builder: add periodic per-node stall bursts.
    pub fn with_stall(mut self, s: StallConfig) -> Self {
        self.stall = Some(s);
        self.validate();
        self
    }

    /// Builder: replace the retry timeout (cycles).
    pub fn with_retry_timeout(mut self, t: f64) -> Self {
        self.retry_timeout = t;
        self.validate();
        self
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
        if let Some(w) = self.degrade {
            assert!(w.start >= 0.0 && w.end > w.start, "bad degrade window {w:?}");
            assert!(w.latency_factor >= 1.0 && w.latency_factor.is_finite());
            assert!(w.gap_factor >= 1.0 && w.gap_factor.is_finite());
        }
        if let Some(s) = self.stall {
            assert!(s.period > 0.0 && s.period.is_finite());
            assert!(s.duration >= 0.0 && s.duration.is_finite());
        }
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
        unit(mix(self.seed ^ seq.wrapping_mul(0xA24B_AED4_963E_E407))) < self.drop_prob
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

    /// `(latency_factor, gap_factor)` in effect at time `t`.
    #[inline]
    pub fn degrade_factors(&self, t: Cycles) -> (f64, f64) {
        match self.degrade {
            Some(w) if t.get() >= w.start && t.get() < w.end => (w.latency_factor, w.gap_factor),
            _ => (1.0, 1.0),
        }
    }

    /// Earliest time at or after `t` at which `node`'s send engine is
    /// not inside a stall burst. Identity when stalls are disabled or
    /// `t` falls outside the current period's burst.
    pub fn stall_release(&self, node: usize, t: Cycles) -> Cycles {
        let Some(s) = self.stall else {
            return t;
        };
        let dur = s.duration.min(s.period);
        if dur <= 0.0 || t.get() < 0.0 {
            return t;
        }
        let k = (t.get() / s.period).floor();
        let jitter = unit(mix(self.seed ^ mix((node as u64) << 32 | k as u64)));
        let burst_start = k * s.period + jitter * (s.period - dur);
        if t.get() >= burst_start && t.get() < burst_start + dur {
            Cycles::new(burst_start + dur)
        } else {
            t
        }
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
        let f = FaultConfig::drops(1, 0.1).with_retry_timeout(500.0);
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

    #[test]
    fn degrade_factors_apply_only_inside_window() {
        let cfg = FaultConfig::drops(1, 0.0).with_degrade(DegradeWindow {
            start: 1_000.0,
            end: 2_000.0,
            latency_factor: 4.0,
            gap_factor: 2.0,
        });
        assert_eq!(cfg.degrade_factors(Cycles::new(999.0)), (1.0, 1.0));
        assert_eq!(cfg.degrade_factors(Cycles::new(1_000.0)), (4.0, 2.0));
        assert_eq!(cfg.degrade_factors(Cycles::new(1_999.0)), (4.0, 2.0));
        assert_eq!(cfg.degrade_factors(Cycles::new(2_000.0)), (1.0, 1.0));
    }

    #[test]
    fn stall_release_is_deterministic_and_bounded() {
        let cfg = FaultConfig::drops(5, 0.0)
            .with_stall(StallConfig { period: 10_000.0, duration: 1_000.0 });
        for node in 0..4 {
            for step in 0..200 {
                let t = Cycles::new(step as f64 * 317.0);
                let a = cfg.stall_release(node, t);
                let b = cfg.stall_release(node, t);
                assert_eq!(a, b);
                assert!(a >= t);
                // A release never lands beyond the end of the
                // current period's burst.
                assert!(a.get() <= t.get() + 1_000.0 + 10_000.0);
            }
        }
    }

    #[test]
    fn stall_bursts_jitter_across_nodes() {
        let cfg = FaultConfig::drops(5, 0.0)
            .with_stall(StallConfig { period: 10_000.0, duration: 2_000.0 });
        // Scan a period finely; different nodes should not share the
        // exact same burst placement.
        let placement = |node: usize| {
            (0..1000)
                .map(|i| cfg.stall_release(node, Cycles::new(i as f64 * 10.0)).get())
                .collect::<Vec<_>>()
        };
        assert_ne!(placement(0), placement(1));
    }

    #[test]
    fn no_stall_config_is_identity() {
        let cfg = FaultConfig::drops(5, 0.0);
        let t = Cycles::new(123.0);
        assert_eq!(cfg.stall_release(3, t), t);
    }
}
