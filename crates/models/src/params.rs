//! Architectural parameter sets for the four cost models.
//!
//! All costs are expressed in **processor clock cycles**; bandwidth
//! gaps are **cycles per word** unless a function says otherwise (the
//! paper quotes hardware gaps in cycles/byte; conversion helpers live
//! on the parameter types).

use crate::phase::PhaseProfile;

/// Number of bytes in the machine word used for cost accounting.
///
/// The paper's algorithms move 4-byte words; `m_rw` and `h` are
/// counted in these units throughout.
pub const WORD_BYTES: u64 = 4;

/// QSM parameters: processor count and gap.
///
/// The gap `g` is the ratio between the local instruction rate and the
/// remote communication rate, i.e. cycles charged per remote word.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QsmParams {
    /// Number of processors.
    pub p: usize,
    /// Gap in cycles per remote word.
    pub g: f64,
}

impl QsmParams {
    /// Create a parameter set, panicking on degenerate values.
    pub fn new(p: usize, g: f64) -> Self {
        assert!(p >= 1, "QSM needs at least one processor");
        assert!(g > 0.0 && g.is_finite(), "gap must be positive and finite");
        Self { p, g }
    }

    /// Cost of one phase: `max(m_op, g · m_rw, κ)`.
    pub fn phase_cost(&self, ph: &PhaseProfile) -> f64 {
        (ph.m_op as f64).max(self.g * ph.m_rw as f64).max(ph.kappa as f64)
    }

    /// Communication-only cost of a phase: `max(g · m_rw, κ)`.
    ///
    /// The paper's figures compare *communication* time, so local
    /// work is excluded from the plotted predictions.
    pub fn phase_comm_cost(&self, ph: &PhaseProfile) -> f64 {
        (self.g * ph.m_rw as f64).max(ph.kappa as f64)
    }
}

/// s-QSM (symmetric QSM): like QSM but the gap also applies at the
/// memory side, charging `g·κ` for hot-spot contention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SQsmParams {
    /// Underlying (p, g) pair.
    pub base: QsmParams,
}

impl SQsmParams {
    /// Create an s-QSM parameter set.
    pub fn new(p: usize, g: f64) -> Self {
        Self { base: QsmParams::new(p, g) }
    }

    /// Cost of one phase: `max(m_op, g · m_rw, g · κ)`.
    pub fn phase_cost(&self, ph: &PhaseProfile) -> f64 {
        (ph.m_op as f64).max(self.base.g * ph.m_rw as f64).max(self.base.g * ph.kappa as f64)
    }

    /// Communication-only cost of a phase: `max(g · m_rw, g · κ)`.
    pub fn phase_comm_cost(&self, ph: &PhaseProfile) -> f64 {
        (self.base.g * ph.m_rw as f64).max(self.base.g * ph.kappa as f64)
    }
}

/// BSP parameters: processors, gap, and per-superstep synchronization
/// cost `L`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BspParams {
    /// Number of processors.
    pub p: usize,
    /// Gap in cycles per word of an h-relation.
    pub g: f64,
    /// Synchronization (barrier) cost per superstep, in cycles.
    pub l_barrier: f64,
}

impl BspParams {
    /// Create a parameter set, panicking on degenerate values.
    pub fn new(p: usize, g: f64, l_barrier: f64) -> Self {
        assert!(p >= 1);
        assert!(g > 0.0 && g.is_finite());
        assert!(l_barrier >= 0.0 && l_barrier.is_finite());
        Self { p, g, l_barrier }
    }

    /// Full superstep cost: `w + g·h + L` with `w = m_op` and
    /// `h = max(h_in, h_out)`.
    pub fn phase_cost(&self, ph: &PhaseProfile) -> f64 {
        ph.m_op as f64 + self.g * ph.h() as f64 + self.l_barrier
    }

    /// Communication cost of a superstep: `g·h + L`.
    pub fn phase_comm_cost(&self, ph: &PhaseProfile) -> f64 {
        self.g * ph.h() as f64 + self.l_barrier
    }
}

/// LogP parameters.
///
/// `l` is the wire latency, `o` the per-message send/receive overhead,
/// `g` the minimum inter-message injection gap (per word here, see
/// [`LogPParams::phase_cost`]), all in cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogPParams {
    /// Number of processors.
    pub p: usize,
    /// Network latency in cycles.
    pub l: f64,
    /// Per-message overhead (each of send and receive) in cycles.
    pub o: f64,
    /// Gap in cycles per word (long-message LogGP-style extension).
    pub g: f64,
}

impl LogPParams {
    /// Create a parameter set, panicking on degenerate values.
    pub fn new(p: usize, l: f64, o: f64, g: f64) -> Self {
        assert!(p >= 1);
        assert!(l >= 0.0 && o >= 0.0 && g > 0.0);
        Self { p, l, o, g }
    }

    /// Cost of a bulk-synchronous phase under a LogGP-style long
    /// message interpretation: the busiest processor pays send and
    /// receive overhead for each of its messages plus the gap for
    /// every word it moves; one terminal latency is exposed because
    /// the last message cannot be overlapped with anything.
    pub fn phase_cost(&self, ph: &PhaseProfile) -> f64 {
        ph.m_op as f64 + self.phase_comm_cost(ph)
    }

    /// Communication part of [`LogPParams::phase_cost`].
    pub fn phase_comm_cost(&self, ph: &PhaseProfile) -> f64 {
        let msg_overhead = 2.0 * self.o * ph.msgs as f64;
        let wire = self.g * ph.h() as f64;
        let tail_latency = if ph.msgs > 0 { self.l } else { 0.0 };
        msg_overhead + wire + tail_latency
    }
}

#[cfg(test)]
impl QsmParams {
    /// Convert a gap quoted in cycles/byte into this model's
    /// cycles/word unit.
    fn gap_from_cycles_per_byte(p: usize, g_byte: f64) -> Self {
        Self::new(p, g_byte * WORD_BYTES as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseProfile;

    fn ph(m_op: u64, m_rw: u64, kappa: u64) -> PhaseProfile {
        PhaseProfile {
            m_op,
            m_rw,
            kappa,
            h_in: m_rw,
            h_out: m_rw,
            msgs: if m_rw > 0 { 1 } else { 0 },
            ..PhaseProfile::default()
        }
    }

    #[test]
    fn qsm_takes_max_of_three_terms() {
        let q = QsmParams::new(4, 2.0);
        assert_eq!(q.phase_cost(&ph(100, 10, 5)), 100.0); // m_op wins
        assert_eq!(q.phase_cost(&ph(10, 100, 5)), 200.0); // g*m_rw wins
        assert_eq!(q.phase_cost(&ph(10, 10, 500)), 500.0); // kappa wins
    }

    #[test]
    fn sqsm_scales_kappa_by_gap() {
        let q = SQsmParams::new(4, 3.0);
        // kappa = 100 -> charged 300, beating m_op=250 and g*m_rw=30.
        assert_eq!(q.phase_cost(&ph(250, 10, 100)), 300.0);
    }

    #[test]
    fn qsm_comm_cost_excludes_local_ops() {
        let q = QsmParams::new(4, 2.0);
        assert_eq!(q.phase_comm_cost(&ph(1_000_000, 10, 5)), 20.0);
    }

    #[test]
    fn bsp_adds_barrier_every_phase() {
        let b = BspParams::new(16, 2.0, 25_500.0);
        let phase = ph(0, 0, 0);
        assert_eq!(b.phase_cost(&phase), 25_500.0);
        assert_eq!(b.phase_comm_cost(&phase), 25_500.0);
    }

    #[test]
    fn bsp_uses_max_of_in_out_h() {
        let b = BspParams::new(4, 2.0, 0.0);
        let phase = PhaseProfile {
            m_rw: 7,
            kappa: 1,
            h_in: 3,
            h_out: 9,
            msgs: 2,
            ..PhaseProfile::default()
        };
        assert_eq!(b.phase_comm_cost(&phase), 18.0);
    }

    #[test]
    fn logp_charges_overheads_per_message() {
        let lp = LogPParams::new(16, 1600.0, 400.0, 12.0);
        let phase =
            PhaseProfile { m_rw: 10, kappa: 1, h_out: 10, msgs: 5, ..PhaseProfile::default() };
        // 2*400*5 + 12*10 + 1600
        assert_eq!(lp.phase_comm_cost(&phase), 4000.0 + 120.0 + 1600.0);
    }

    #[test]
    fn logp_silent_phase_costs_nothing() {
        let lp = LogPParams::new(16, 1600.0, 400.0, 12.0);
        assert_eq!(lp.phase_comm_cost(&ph(42, 0, 0)), 0.0);
    }

    #[test]
    fn gap_conversion_from_bytes() {
        let q = QsmParams::gap_from_cycles_per_byte(16, 3.0);
        assert_eq!(q.g, 12.0);
    }

    #[test]
    #[should_panic]
    fn zero_processors_rejected() {
        let _ = QsmParams::new(0, 1.0);
    }

    #[test]
    #[should_panic]
    fn negative_gap_rejected() {
        let _ = BspParams::new(1, -1.0, 0.0);
    }
}
