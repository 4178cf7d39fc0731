//! Figure 5: problem size needed for accuracy vs latency l.
//!
//! For each hardware latency, the smallest n at which the measured
//! sample-sort communication falls inside the [Best-case, WHP-bound]
//! band (operationally: at or below the WHP line, since measured
//! always sits above Best). Expected shape: n_cross grows *linearly*
//! in l — the paper's pipelining condition `(l/g)·π ≪ W/p` made
//! empirical.

use std::sync::Mutex;

use qsm_simnet::MachineConfig;

use crate::figures::{fig4, CrossoverFigure};
use crate::{Report, RunCfg};

/// The figure; `table4` reads its crossover points.
pub(crate) static FIGURE: CrossoverFigure = CrossoverFigure {
    id: "fig5",
    title: "problem size for measured comm to enter the [Best,WHP] band vs latency",
    values: fig4::latencies,
    vary: MachineConfig::with_latency,
    header: "latency_cyc",
    symbol: 'l',
    swept: Mutex::new(Vec::new()),
};

/// Run the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    FIGURE.run(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_grows_with_latency() {
        let cfg = RunCfg::fast();
        let pts = FIGURE.crossovers(&cfg);
        let found: Vec<(f64, f64)> = pts.iter().filter_map(|(l, c)| c.map(|n| (*l, n))).collect();
        assert!(found.len() >= 2, "crossovers should exist in the sweep: {pts:?}");
        // Monotone non-decreasing in l.
        for w in found.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.9, "crossover shrank with latency: {:?}", found);
        }
    }
}
