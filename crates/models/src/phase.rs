//! Phase profiles: the per-phase measurements every cost model is
//! evaluated against.
//!
//! The runtime (in `qsm-core`) measures one [`PhaseProfile`] per
//! bulk-synchronous phase; a program's prediction is the sum of a
//! model's per-phase cost over its phases. The models in
//! [`crate::params`] turn profiles into predicted cycle counts.

/// Maxima, across processors, of the quantities a single
/// bulk-synchronous phase is charged for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Maximum number of local operations executed by any processor.
    pub m_op: u64,
    /// Maximum number of remote read/write *words* issued by any
    /// processor: its get words plus its put words.
    pub m_rw: u64,
    /// Maximum number of get words issued by any processor.
    pub m_get: u64,
    /// Maximum number of put words issued by any processor.
    pub m_put: u64,
    /// Maximum number of accesses to any single shared-memory
    /// location (the QSM queuing contention κ).
    pub kappa: u64,
    /// Maximum number of words received by any processor (BSP h-in).
    pub h_in: u64,
    /// Maximum number of words sent by any processor (BSP h-out).
    pub h_out: u64,
    /// Maximum number of network messages sent by any processor
    /// (after batching: one per kind and (pair, bank) cell, one bank
    /// a node without a bank model; used by LogP).
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
        self.m_get = self.m_get.max(other.m_get);
        self.m_put = self.m_put.max(other.m_put);
        self.kappa = self.kappa.max(other.kappa);
        self.h_in = self.h_in.max(other.h_in);
        self.h_out = self.h_out.max(other.h_out);
        self.msgs = self.msgs.max(other.msgs);
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
mod tests {
    use super::*;
    use crate::params::{BspParams, QsmParams};

    #[test]
    fn merge_max_is_componentwise() {
        let mut a = PhaseProfile {
            m_op: 1,
            m_rw: 9,
            m_get: 9,
            m_put: 0,
            kappa: 2,
            h_in: 3,
            h_out: 0,
            msgs: 4,
        };
        let b = PhaseProfile {
            m_op: 5,
            m_rw: 2,
            m_get: 0,
            m_put: 2,
            kappa: 8,
            h_in: 1,
            h_out: 7,
            msgs: 0,
        };
        a.merge_max(&b);
        let want = PhaseProfile {
            m_op: 5,
            m_rw: 9,
            m_get: 9,
            m_put: 2,
            kappa: 8,
            h_in: 3,
            h_out: 7,
            msgs: 4,
        };
        assert_eq!(a, want);
    }

    #[test]
    fn program_costs_sum_over_phases() {
        let q = QsmParams::new(4, 2.0);
        let prog = [
            PhaseProfile::local_only(100),
            PhaseProfile { m_rw: 50, h_in: 50, h_out: 50, msgs: 3, ..Default::default() },
        ];
        assert_eq!(prog.iter().map(|ph| q.phase_cost(ph)).sum::<f64>(), 100.0 + 100.0);
        assert_eq!(prog.iter().map(|ph| q.phase_comm_cost(ph)).sum::<f64>(), 100.0);
        assert_eq!(prog.len(), 2);
        assert_eq!(prog.iter().map(|ph| ph.m_rw).sum::<u64>(), 50);
        assert_eq!(prog.iter().map(|ph| ph.m_op).sum::<u64>(), 100);
    }

    #[test]
    fn bsp_charges_l_per_phase_even_when_idle() {
        let b = BspParams::new(4, 2.0, 10.0);
        let prog = [PhaseProfile::default(); 7];
        assert_eq!(prog.iter().map(|ph| b.phase_comm_cost(ph)).sum::<f64>(), 70.0);
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
    use crate::params::{BspParams, LogPParams, QsmParams, SQsmParams};
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
            let (h_in, h_out) = (m_rw, m_rw);
            let base = PhaseProfile { m_op, m_rw, kappa, h_in, h_out, msgs, ..Default::default() };
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
            let (h_in, h_out, msgs) = (m_rw, m_rw, 1);
            let ph = PhaseProfile { m_op, m_rw, kappa, h_in, h_out, msgs, ..Default::default() };
            let q = QsmParams::new(16, 12.0);
            let s = SQsmParams::new(16, 12.0);
            let b = BspParams::new(16, 12.0, 25_500.0);
            prop_assert!(q.phase_cost(&ph) <= s.phase_cost(&ph));
            prop_assert!(q.phase_comm_cost(&ph).min(12.0 * m_rw as f64) <= b.phase_comm_cost(&ph));
        }
    }
}
