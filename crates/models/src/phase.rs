//! Phase profiles: the per-phase measurements every cost model is
//! evaluated against.
//!
//! The runtime (in `qsm-core`) measures one [`PhaseProfile`] per
//! bulk-synchronous phase; a whole program run yields a
//! [`ProgramProfile`]. The models in [`crate::params`] turn profiles
//! into predicted cycle counts.

use crate::params::{BspParams, LogPParams, QsmParams, SQsmParams};

/// Maxima, across processors, of the quantities a single
/// bulk-synchronous phase is charged for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Maximum number of local operations executed by any processor.
    pub m_op: u64,
    /// Maximum number of remote read/write *words* issued by any
    /// processor.
    pub m_rw: u64,
    /// Maximum number of accesses to any single shared-memory
    /// location (the QSM queuing contention κ).
    pub kappa: u64,
    /// Maximum number of words received by any processor (BSP h-in).
    pub h_in: u64,
    /// Maximum number of words sent by any processor (BSP h-out).
    pub h_out: u64,
    /// Maximum number of network messages sent by any processor
    /// (after batching; used by LogP).
    pub msgs: u64,
}

impl PhaseProfile {
    /// The BSP h-relation size: `max(h_in, h_out)`.
    pub fn h(&self) -> u64 {
        self.h_in.max(self.h_out)
    }

    /// Merge another processor's per-phase counts into the maxima.
    pub fn merge_max(&mut self, other: &PhaseProfile) {
        self.m_op = self.m_op.max(other.m_op);
        self.m_rw = self.m_rw.max(other.m_rw);
        self.kappa = self.kappa.max(other.kappa);
        self.h_in = self.h_in.max(other.h_in);
        self.h_out = self.h_out.max(other.h_out);
        self.msgs = self.msgs.max(other.msgs);
    }
}

/// The sequence of phase profiles produced by one program run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramProfile {
    /// One entry per bulk-synchronous phase, in execution order.
    pub phases: Vec<PhaseProfile>,
}

impl ProgramProfile {
    /// Create an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of phases π.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// Append a phase.
    pub fn push(&mut self, ph: PhaseProfile) {
        self.phases.push(ph);
    }

    /// Predicted communication time under QSM.
    pub fn qsm_comm_cost(&self, q: &QsmParams) -> f64 {
        self.phases.iter().map(|p| q.phase_comm_cost(p)).sum()
    }

    /// Predicted total time under s-QSM.
    pub fn sqsm_cost(&self, q: &SQsmParams) -> f64 {
        self.phases.iter().map(|p| q.phase_cost(p)).sum()
    }

    /// Predicted communication time under s-QSM.
    pub fn sqsm_comm_cost(&self, q: &SQsmParams) -> f64 {
        self.phases.iter().map(|p| q.phase_comm_cost(p)).sum()
    }

    /// Predicted total time under BSP.
    pub fn bsp_cost(&self, b: &BspParams) -> f64 {
        self.phases.iter().map(|p| b.phase_cost(p)).sum()
    }

    /// Predicted communication time under BSP.
    pub fn bsp_comm_cost(&self, b: &BspParams) -> f64 {
        self.phases.iter().map(|p| b.phase_comm_cost(p)).sum()
    }

    /// Predicted communication time under LogP.
    pub fn logp_comm_cost(&self, lp: &LogPParams) -> f64 {
        self.phases.iter().map(|p| lp.phase_comm_cost(p)).sum()
    }
}

#[cfg(test)]
impl PhaseProfile {
    /// A phase that only computes locally.
    fn local_only(m_op: u64) -> Self {
        Self { m_op, ..Self::default() }
    }
}

#[cfg(test)]
impl ProgramProfile {
    /// Total words of communication `W` (sum over phases of the
    /// busiest processor's remote words).
    fn total_comm_words(&self) -> u64 {
        self.phases.iter().map(|p| p.m_rw).sum()
    }

    /// Total local operation count of the busiest processor per phase.
    fn total_local_ops(&self) -> u64 {
        self.phases.iter().map(|p| p.m_op).sum()
    }

    /// Predicted total time under QSM.
    fn qsm_cost(&self, q: &QsmParams) -> f64 {
        self.phases.iter().map(|p| q.phase_cost(p)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_max_is_componentwise() {
        let mut a = PhaseProfile { m_op: 1, m_rw: 9, kappa: 2, h_in: 3, h_out: 0, msgs: 4 };
        let b = PhaseProfile { m_op: 5, m_rw: 2, kappa: 8, h_in: 1, h_out: 7, msgs: 0 };
        a.merge_max(&b);
        assert_eq!(a, PhaseProfile { m_op: 5, m_rw: 9, kappa: 8, h_in: 3, h_out: 7, msgs: 4 });
    }

    #[test]
    fn program_costs_sum_over_phases() {
        let q = QsmParams::new(4, 2.0);
        let mut prog = ProgramProfile::new();
        prog.push(PhaseProfile::local_only(100));
        prog.push(PhaseProfile { m_op: 0, m_rw: 50, kappa: 0, h_in: 50, h_out: 50, msgs: 3 });
        assert_eq!(prog.qsm_cost(&q), 100.0 + 100.0);
        assert_eq!(prog.qsm_comm_cost(&q), 100.0);
        assert_eq!(prog.num_phases(), 2);
        assert_eq!(prog.total_comm_words(), 50);
        assert_eq!(prog.total_local_ops(), 100);
    }

    #[test]
    fn bsp_charges_l_per_phase_even_when_idle() {
        let b = BspParams::new(4, 2.0, 10.0);
        let mut prog = ProgramProfile::new();
        for _ in 0..7 {
            prog.push(PhaseProfile::default());
        }
        assert_eq!(prog.bsp_comm_cost(&b), 70.0);
    }

    #[test]
    fn local_only_has_no_communication() {
        let ph = PhaseProfile::local_only(42);
        assert_eq!(ph.m_rw, 0);
        assert_eq!(ph.h(), 0);
        assert_eq!(ph.msgs, 0);
    }

    #[test]
    fn h_is_max_of_directions() {
        let ph = PhaseProfile { h_in: 10, h_out: 4, ..Default::default() };
        assert_eq!(ph.h(), 10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Phase cost is monotone in each profile component for every
        /// model: increasing any measured quantity can never lower the
        /// predicted cost.
        #[test]
        fn costs_monotone(
            m_op in 0u64..1_000_000,
            m_rw in 0u64..1_000_000,
            kappa in 0u64..1_000_000,
            msgs in 0u64..10_000,
            bump in 1u64..1000,
        ) {
            let base = PhaseProfile { m_op, m_rw, kappa, h_in: m_rw, h_out: m_rw, msgs };
            let q = QsmParams::new(16, 12.0);
            let s = SQsmParams::new(16, 12.0);
            let b = BspParams::new(16, 12.0, 25_500.0);
            let lp = LogPParams::new(16, 1600.0, 400.0, 12.0);

            for field in 0..4usize {
                let mut bigger = base;
                match field {
                    0 => bigger.m_op += bump,
                    1 => { bigger.m_rw += bump; bigger.h_in += bump; bigger.h_out += bump; }
                    2 => bigger.kappa += bump,
                    _ => bigger.msgs += bump,
                }
                prop_assert!(q.phase_cost(&bigger) >= q.phase_cost(&base));
                prop_assert!(s.phase_cost(&bigger) >= s.phase_cost(&base));
                prop_assert!(b.phase_cost(&bigger) >= b.phase_cost(&base));
                prop_assert!(lp.phase_cost(&bigger) >= lp.phase_cost(&base));
            }
        }

        /// QSM cost is always bounded by s-QSM cost (g >= 1), and BSP
        /// communication dominates QSM communication when they share g
        /// and BSP adds a nonnegative barrier.
        #[test]
        fn model_orderings(
            m_op in 0u64..1_000_000,
            m_rw in 0u64..1_000_000,
            kappa in 0u64..1_000_000,
        ) {
            let ph = PhaseProfile { m_op, m_rw, kappa, h_in: m_rw, h_out: m_rw, msgs: 1 };
            let q = QsmParams::new(16, 12.0);
            let s = SQsmParams::new(16, 12.0);
            let b = BspParams::new(16, 12.0, 25_500.0);
            prop_assert!(q.phase_cost(&ph) <= s.phase_cost(&ph));
            prop_assert!(q.phase_comm_cost(&ph).min(12.0 * m_rw as f64) <= b.phase_comm_cost(&ph));
        }
    }
}
