//! Figure 6: problem size needed for accuracy vs per-message
//! overhead o.
//!
//! The Figure 5 experiment with the per-message overhead swept
//! instead of the latency. Expected shape: n_cross grows linearly in
//! o (batching amortizes o over more data as n grows).

use std::sync::Mutex;

use qsm_simnet::MachineConfig;

use crate::figures::CrossoverFigure;
use crate::{Report, RunCfg};

/// Overhead values swept (cycles).
pub fn overheads(fast: bool) -> Vec<f64> {
    if fast {
        vec![100.0, 1600.0, 12_800.0]
    } else {
        vec![100.0, 400.0, 1600.0, 6400.0, 25_600.0]
    }
}

/// The figure; `table4` reads its crossover points.
pub(crate) static FIGURE: CrossoverFigure = CrossoverFigure {
    id: "fig6",
    title: "problem size for measured comm to enter the [Best,WHP] band vs overhead",
    values: overheads,
    vary: MachineConfig::with_overhead,
    header: "overhead_cyc",
    symbol: 'o',
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
    fn crossover_grows_with_overhead() {
        let cfg = RunCfg::fast();
        let pts = FIGURE.crossovers(&cfg);
        let found: Vec<(f64, f64)> = pts.iter().filter_map(|(o, c)| c.map(|n| (*o, n))).collect();
        assert!(found.len() >= 2, "crossovers should exist in the sweep: {pts:?}");
        for w in found.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.9, "crossover shrank with overhead: {:?}", found);
        }
    }
}
