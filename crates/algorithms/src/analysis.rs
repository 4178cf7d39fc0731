//! Shared machinery for the analytical prediction lines.
//!
//! The paper compares measured communication time against four kinds
//! of prediction per algorithm:
//!
//! * **Best case** — load balance is perfect (`B = n/p`,
//!   `r = (p-1)/p`, `x_i = (n/p)(3/4)^(i-1)`, ...): an unreasonably
//!   optimistic lower line.
//! * **WHP bound** — Chernoff bounds on the same quantities holding
//!   with probability ≥ 0.9: a conservative upper line.
//! * **QSM estimate** — the QSM cost of the run that happened: each
//!   measured phase's metered get and put words
//!   (`PhaseProfile::{m_get, m_put}`), priced by [`estimate`].
//! * **BSP estimate** — the same plus `π · L` synchronization cost.
//!
//! All lines are evaluated with *effective* (software-inclusive)
//! per-word gaps, measured by the Table 3 microbenchmarks
//! ([`qsm_core::EffectiveCosts`]) — this mirrors the paper's
//! calibration of per-architecture constants, and is precisely why
//! the models track the slope of the measured lines while missing the
//! per-phase constant (`o`, `l`, `L`) that QSM deliberately omits.

use qsm_core::{EffectiveCosts, PhaseRecord};

/// The failure budget used for every "WHP" line (the paper derives
/// bounds that hold for at least 90% of runs).
pub const WHP_DELTA: f64 = 0.1;

/// One prediction line evaluated at one problem size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// QSM communication prediction (no synchronization term).
    pub qsm: f64,
    /// BSP communication prediction (`qsm + phases · L`).
    pub bsp: f64,
}

impl Prediction {
    /// Build from a QSM communication estimate and a phase count.
    pub fn from_qsm(qsm: f64, phases: usize, params: &EffectiveCosts) -> Self {
        Self { qsm, bsp: qsm + phases as f64 * params.l_sync }
    }
}

/// The QSM and BSP estimates of a run from its measured `phases`: per
/// phase, the get words metered for it priced at `g_get` plus its put
/// words at `g_put`, summed; BSP adds `L` per phase. The maxima over
/// processors are per kind, taken before pricing, as the kernels' own
/// per-kind traffic tallies took them: the most get words any processor
/// issued, and apart from them the most put words, which may be another
/// processor's.
pub fn estimate(phases: &[PhaseRecord], params: &EffectiveCosts) -> Prediction {
    let words = |r: &PhaseRecord| {
        params.g_get * r.profile.m_get as f64 + params.g_put * r.profile.m_put as f64
    };
    let qsm = phases.iter().map(words).fold(0.0, |sum, w| sum + w);
    Prediction::from_qsm(qsm, phases.len(), params)
}

/// Relative error of `predicted` against `measured`
/// (`|measured - predicted| / measured`).
pub fn relative_error(measured: f64, predicted: f64) -> f64 {
    if measured == 0.0 {
        if predicted == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (measured - predicted).abs() / measured
    }
}

/// `log2(n)` as used in the paper's `c log n` sample counts (natural
/// choice for power-of-two sweeps), at least 1.
pub fn log2n(n: usize) -> f64 {
    (n.max(2) as f64).log2()
}

#[cfg(test)]
/// Idealized parameters for unit tests (g_put = g_get = g, L).
pub(crate) fn fixed(p: usize, g: f64, l_sync: f64) -> EffectiveCosts {
    EffectiveCosts { p, g_put: g, g_get: g, l_sync }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsm_simnet::MachineConfig;

    #[test]
    fn fixed_params_round_trip() {
        let e = fixed(16, 140.0, 25_500.0);
        assert_eq!(e.p, 16);
        assert_eq!(e.g_put, 140.0);
        assert_eq!(e.g_get, 140.0);
    }

    #[test]
    fn prediction_adds_l_per_phase() {
        let e = fixed(16, 140.0, 1000.0);
        let p = Prediction::from_qsm(5000.0, 5, &e);
        assert_eq!(p.qsm, 5000.0);
        assert_eq!(p.bsp, 10_000.0);
    }

    #[test]
    fn relative_error_cases() {
        assert_eq!(relative_error(100.0, 90.0), 0.1);
        assert_eq!(relative_error(100.0, 110.0), 0.1);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert!(relative_error(0.0, 1.0).is_infinite());
    }

    #[test]
    fn log2n_floors_at_one() {
        assert_eq!(log2n(0), 1.0);
        assert_eq!(log2n(2), 1.0);
        assert_eq!(log2n(1024), 10.0);
    }

    #[test]
    fn measured_params_have_sane_ordering() {
        let e = EffectiveCosts::measure(MachineConfig::paper_default(4));
        assert!(e.g_get > e.g_put, "gets must cost more than puts");
        assert!(e.g_put > 12.0, "software gap above hardware gap (12 c/word)");
        assert!(e.l_sync > 0.0);
    }
}
