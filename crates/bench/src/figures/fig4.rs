//! Figure 4: sample-sort communication vs n as latency l is varied.
//!
//! Hardware latency sweeps over {400 … 102 400} cycles while the QSM
//! prediction lines (which do not model l) stay put. Expected shape:
//! raising l shifts the measured curve up by a *constant* (per-phase
//! latencies are paid once, pipelining hides the rest), so the point
//! where the measured curve meets the WHP band moves right linearly
//! in l.

use qsm_algorithms::samplesort;
use qsm_core::EffectiveCosts;
use qsm_simnet::MachineConfig;

use crate::figures::samplesort_comm;
use crate::output::us_at_400mhz;
use crate::{Report, RunCfg};

/// Latency values swept (cycles).
pub fn latencies(fast: bool) -> Vec<f64> {
    if fast {
        vec![400.0, 6400.0, 51_200.0]
    } else {
        vec![400.0, 1600.0, 6400.0, 25_600.0, 102_400.0]
    }
}

/// Run the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    crate::backend::warn_sim_only("fig4");
    // Prediction lines use the default machine's effective costs:
    // QSM does not model latency, so its lines must not move.
    let params = EffectiveCosts::measure(MachineConfig::paper_default(cfg.p));

    // Flatten the (latency × size) grid into one sweep: every cell is
    // an independent measurement whose seed is keyed on its size
    // index, so the fan-out returns rows in the original nested-loop
    // order regardless of worker count.
    let mut grid = Vec::new();
    for l in latencies(cfg.fast) {
        for (point, n) in cfg.sizes().into_iter().enumerate() {
            grid.push((l, point, n));
        }
    }
    let rows = crate::sweep::map("fig4", cfg, cfg.p, grid, |_, (l, point, n)| {
        let machine_cfg = MachineConfig::paper_default(cfg.p).with_latency(l);
        let comm = samplesort_comm(machine_cfg, n, cfg, point);
        let best = samplesort::predict_best(n, &params);
        let whp = samplesort::predict_whp(n, &params);
        vec![
            format!("{l:.0}"),
            n.to_string(),
            format!("{:.1}", us_at_400mhz(comm)),
            format!("{:.1}", us_at_400mhz(best.qsm)),
            format!("{:.1}", us_at_400mhz(whp.qsm)),
        ]
    });

    let headers = ["latency_cyc", "n", "comm_us", "best_qsm_us", "whp_qsm_us"];
    Report::table(
        "fig4",
        "sample sort comm vs n as latency varies (QSM lines constant)",
        &headers,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_shifts_measured_by_constant() {
        let cfg = RunCfg::fast();
        let rep = run(&cfg);
        let lines: Vec<Vec<f64>> = rep
            .csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
            .collect();
        let sizes = cfg.sizes();
        let comm = |li: usize, ni: usize| lines[li * sizes.len() + ni][2];
        // Higher latency -> higher measured comm at every n.
        for ni in 0..sizes.len() {
            assert!(comm(2, ni) > comm(0, ni), "l should slow comm at n index {ni}");
        }
        // The l-induced delta is near-constant across n (additive, not
        // multiplicative): compare deltas at the smallest and largest n.
        let d_small = comm(2, 0) - comm(0, 0);
        let d_large = comm(2, sizes.len() - 1) - comm(0, sizes.len() - 1);
        assert!(
            d_large < 2.0 * d_small + 1.0,
            "latency penalty grew with n: {d_small} -> {d_large}"
        );
    }
}
