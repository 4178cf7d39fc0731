//! Cost reports: measured times side by side with model predictions.

use std::fmt;

use qsm_models::{BspParams, LogPParams, QsmParams, SQsmParams};
use qsm_simnet::{Cycles, MachineConfig};

use crate::driver::PhaseRecord;

/// The parameter bundles a report evaluates its profile against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelInputs {
    /// QSM (p, g).
    pub qsm: QsmParams,
    /// s-QSM (p, g).
    pub sqsm: SQsmParams,
    /// BSP (p, g, L).
    pub bsp: BspParams,
    /// LogP (p, l, o, g).
    pub logp: LogPParams,
}

impl ModelInputs {
    /// Parameters derived from the raw hardware of `cfg` (gap per
    /// 4-byte word) plus a measured per-phase synchronization cost.
    ///
    /// These are the parameters a designer reads off the machine's
    /// data sheet — the paper's central observation is that they
    /// *underestimate* observed communication by the software
    /// constant, which shrinks in relative terms as n grows.
    pub fn hardware(cfg: &MachineConfig, l_barrier: f64) -> Self {
        let g = cfg.gap_per_word();
        Self {
            qsm: QsmParams::new(cfg.p, g),
            sqsm: SQsmParams::new(cfg.p, g),
            bsp: BspParams::new(cfg.p, g, l_barrier),
            logp: LogPParams::new(cfg.p, cfg.net.latency, cfg.net.send_overhead, g),
        }
    }
}

/// Measured run summary plus model predictions.
#[derive(Debug, Clone, PartialEq)]
pub struct CostReport {
    /// Number of processors.
    pub p: usize,
    /// Number of phases.
    pub num_phases: usize,
    /// Measured total simulated time.
    pub measured_total: Cycles,
    /// Measured local-compute time (sum over phases of the slowest
    /// processor's compute).
    pub measured_compute: Cycles,
    /// Measured communication time (sum over phases of sync time).
    pub measured_comm: Cycles,
    /// Total data messages exchanged.
    pub data_msgs: u64,
    /// Total payload bytes moved.
    pub payload_bytes: u64,
    /// Total resends by the delivery protocol (fault injection only).
    pub retries: u64,
    /// Total transmissions lost to fault injection (all re-delivered).
    pub dropped_msgs: u64,
    /// Observed bank-κ: the maximum over phases of the heaviest
    /// per-`(node, bank)` word load (0 unless a destination-bank
    /// model is enabled).
    pub bank_kappa: u64,
    /// Total destination-bank queuing across all deliveries of the
    /// run (zero without a bank model).
    pub bank_wait: Cycles,
    /// Total fabric-link queuing across all deliveries of the run
    /// (zero on the flat contention-free wire).
    pub link_wait: Cycles,
    /// Busy fraction of the most-utilized fabric link over any single
    /// phase of the run (zero on the flat wire).
    pub link_util: f64,
    /// Model parameters used for the prediction columns.
    pub models: ModelInputs,
    /// Predicted communication time under QSM.
    pub qsm_comm: f64,
    /// Predicted communication time under s-QSM.
    pub sqsm_comm: f64,
    /// Predicted communication time under BSP.
    pub bsp_comm: f64,
    /// Predicted communication time under LogP.
    pub logp_comm: f64,
    /// Unit of the measured columns: `"cycles"` on the simulated
    /// machine, `"ns"` on wall-clock backends. Predictions are always
    /// in the model machine's cycles.
    pub measured_unit: &'static str,
}

impl CostReport {
    /// Assemble a report from phase records measured in `unit`,
    /// predicting with `cfg` and a per-phase barrier cost `l_barrier`.
    pub fn build(
        cfg: &MachineConfig,
        phases: &[PhaseRecord],
        l_barrier: f64,
        unit: &'static str,
    ) -> Self {
        let models = ModelInputs::hardware(cfg, l_barrier);
        Self {
            p: cfg.p,
            num_phases: phases.len(),
            measured_total: phases.iter().map(|r| r.timing.elapsed).sum(),
            measured_compute: phases.iter().map(|r| r.timing.compute).sum(),
            measured_comm: phases.iter().map(|r| r.timing.comm).sum(),
            data_msgs: phases.iter().map(|r| r.data_msgs).sum(),
            payload_bytes: phases.iter().map(|r| r.payload_bytes).sum(),
            retries: phases.iter().map(|r| r.retries).sum(),
            dropped_msgs: phases.iter().map(|r| r.dropped_msgs).sum(),
            bank_kappa: phases.iter().map(|r| r.bank_kappa).max().unwrap_or(0),
            bank_wait: phases.iter().map(|r| r.bank_wait).sum(),
            link_wait: phases.iter().map(|r| r.link_wait).sum(),
            link_util: phases.iter().map(|r| r.link_util).fold(0.0, f64::max),
            models,
            qsm_comm: phases.iter().map(|r| models.qsm.phase_comm_cost(&r.profile)).sum(),
            sqsm_comm: phases.iter().map(|r| models.sqsm.phase_comm_cost(&r.profile)).sum(),
            bsp_comm: phases.iter().map(|r| models.bsp.phase_comm_cost(&r.profile)).sum(),
            logp_comm: phases.iter().map(|r| models.logp.phase_comm_cost(&r.profile)).sum(),
            measured_unit: unit,
        }
    }

    /// Relative error of a prediction against the measured
    /// communication time: `(measured - predicted) / measured`.
    pub fn comm_underprediction(&self, predicted: f64) -> f64 {
        let m = self.measured_comm.get();
        if m == 0.0 {
            0.0
        } else {
            (m - predicted) / m
        }
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "QSM run: p = {}, phases = {}", self.p, self.num_phases)?;
        writeln!(
            f,
            "  measured: total {:>14.0}  compute {:>14.0}  comm {:>14.0}  ({})",
            self.measured_total.get(),
            self.measured_compute.get(),
            self.measured_comm.get(),
            self.measured_unit
        )?;
        writeln!(
            f,
            "  traffic:  {} data messages, {} payload bytes",
            self.data_msgs, self.payload_bytes
        )?;
        if self.dropped_msgs > 0 || self.retries > 0 {
            writeln!(
                f,
                "  faults:   {} transmissions lost, {} resends",
                self.dropped_msgs, self.retries
            )?;
        }
        if self.bank_kappa > 0 || self.bank_wait > Cycles::ZERO {
            writeln!(
                f,
                "  banks:    observed bank-\u{3ba} {} words, {:.0} {} queued at banks",
                self.bank_kappa,
                self.bank_wait.get(),
                self.measured_unit
            )?;
        }
        if self.link_wait > Cycles::ZERO || self.link_util > 0.0 {
            writeln!(
                f,
                "  fabric:   {:.0} {} queued at links, hottest link {:.0}% busy",
                self.link_wait.get(),
                self.measured_unit,
                self.link_util * 100.0
            )?;
        }
        writeln!(f, "  predicted communication (hardware parameters):")?;
        for (name, v) in [
            ("QSM", self.qsm_comm),
            ("s-QSM", self.sqsm_comm),
            ("BSP", self.bsp_comm),
            ("LogP", self.logp_comm),
        ] {
            writeln!(
                f,
                "    {name:<6} {v:>14.0} cyc   ({:+.1}% vs measured)",
                -100.0 * self.comm_underprediction(v)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::PhaseTiming;
    use qsm_models::PhaseProfile;

    fn record(m_op: u64, m_rw: u64, comm: f64) -> PhaseRecord {
        PhaseRecord {
            profile: PhaseProfile { m_op, m_rw, kappa: 1, h_in: m_rw, h_out: m_rw, msgs: 1 },
            timing: PhaseTiming {
                elapsed: Cycles::new(m_op as f64 + comm),
                compute: Cycles::new(m_op as f64),
                comm: Cycles::new(comm),
            },
            data_msgs: 2,
            payload_bytes: m_rw * 4,
            retries: 0,
            dropped_msgs: 0,
            bank_kappa: 0,
            bank_wait: Cycles::ZERO,
            link_wait: Cycles::ZERO,
            link_util: 0.0,
        }
    }

    #[test]
    fn totals_sum_over_phases() {
        let cfg = MachineConfig::paper_default(4);
        let phases = vec![record(100, 10, 500.0), record(200, 20, 700.0)];
        let rep = CostReport::build(&cfg, &phases, 25_500.0, "cycles");
        assert_eq!(rep.num_phases, 2);
        assert_eq!(rep.measured_total.get(), 1500.0);
        assert_eq!(rep.measured_compute.get(), 300.0);
        assert_eq!(rep.measured_comm.get(), 1200.0);
        assert_eq!(rep.data_msgs, 4);
        assert_eq!(rep.payload_bytes, 120);
    }

    #[test]
    fn qsm_prediction_uses_word_gap() {
        let cfg = MachineConfig::paper_default(4); // g = 3 c/B = 12 c/word
        let phases = vec![record(0, 100, 5000.0)];
        let rep = CostReport::build(&cfg, &phases, 25_500.0, "cycles");
        assert_eq!(rep.qsm_comm, 1200.0);
        // BSP adds L per phase.
        assert_eq!(rep.bsp_comm, 1200.0 + 25_500.0);
    }

    #[test]
    fn underprediction_sign_convention() {
        let cfg = MachineConfig::paper_default(4);
        let phases = vec![record(0, 100, 2400.0)];
        let rep = CostReport::build(&cfg, &phases, 0.0, "cycles");
        // predicted 1200 vs measured 2400 -> 50% underprediction.
        assert!((rep.comm_underprediction(rep.qsm_comm) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_renders_all_models() {
        let cfg = MachineConfig::paper_default(4);
        let rep = CostReport::build(&cfg, &[record(10, 10, 100.0)], 100.0, "cycles");
        let s = rep.to_string();
        for needle in ["QSM", "s-QSM", "BSP", "LogP", "measured", "phases = 1"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn zero_measured_comm_has_zero_error() {
        let cfg = MachineConfig::paper_default(4);
        let mut rec = record(10, 0, 0.0);
        rec.timing.comm = Cycles::ZERO;
        let rep = CostReport::build(&cfg, &[rec], 0.0, "cycles");
        assert_eq!(rep.comm_underprediction(123.0), 0.0);
    }
}
