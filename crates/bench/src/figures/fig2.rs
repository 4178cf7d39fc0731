//! Figure 2: measured and predicted performance of sample sort.
//!
//! Measured total and communication time vs n, against four analysis
//! lines: *Best case* (perfect balance), *WHP bound* (Chernoff, ≥90%
//! of runs), *QSM estimate* (measured skews), and *BSP estimate*
//! (QSM estimate + 5L). Expected shape: measured communication falls
//! inside the [Best, WHP] band except at small n, and the QSM
//! estimate comes within ~10% of measured communication beyond
//! roughly 125 000 elements (8 000 per processor).

use qsm_algorithms::analysis::relative_error;
use qsm_algorithms::gen;
use qsm_algorithms::samplesort::{self, DEFAULT_OVERSAMPLING};
use qsm_core::EffectiveCosts;
use qsm_simnet::MachineConfig;

use crate::backend::Backend;
use crate::output::{csv, table, us_at_400mhz};
use crate::stats::mean;
use crate::{Report, RunCfg};

/// Run the experiment on the `QSM_BACKEND`-selected backend.
pub fn run(cfg: &RunCfg) -> Report {
    run_with(cfg, crate::knobs().result.backend)
}

/// Run the experiment on an explicit backend. Measured columns are in
/// the backend's time (converted to µs); the analysis lines (Best,
/// WHP, estimates) are always in the paper machine's simulated µs.
pub fn run_with(cfg: &RunCfg, backend: Backend) -> Report {
    crate::journal::set_figure("fig2", cfg);
    let machine_cfg = MachineConfig::paper_default(cfg.p);
    let params = EffectiveCosts::measure(machine_cfg);

    // Independent per size — fanned across the sweep pool with
    // (point, rep)-keyed seeds; rows return in size order.
    let rows = crate::sweep::map(cfg.p, cfg.sizes(), |point, n| {
        let mut totals = Vec::new();
        let mut comms = Vec::new();
        let mut ests = Vec::new();
        for rep in 0..cfg.reps {
            let seed = cfg.seed(point, rep);
            let machine = backend.machine(machine_cfg, seed);
            let input = gen::random_u32s(n, seed ^ 0xDA7A);
            let r = samplesort::run_on(&machine, &input);
            totals.push(r.total());
            comms.push(r.comm());
            ests.push(samplesort::predict_estimate(n, &r, DEFAULT_OVERSAMPLING, &params));
        }
        let best = samplesort::predict_best(n, DEFAULT_OVERSAMPLING, &params);
        let whp = samplesort::predict_whp(n, DEFAULT_OVERSAMPLING, &params);
        let comm = mean(&comms);
        let qsm_est = mean(&ests.iter().map(|e| e.qsm).collect::<Vec<_>>());
        let bsp_est = mean(&ests.iter().map(|e| e.bsp).collect::<Vec<_>>());
        vec![
            n.to_string(),
            format!("{:.1}", backend.us(mean(&totals))),
            format!("{:.1}", backend.us(comm)),
            format!("{:.1}", us_at_400mhz(best.qsm)),
            format!("{:.1}", us_at_400mhz(whp.qsm)),
            format!("{:.1}", us_at_400mhz(qsm_est)),
            format!("{:.1}", us_at_400mhz(bsp_est)),
            format!("{:.1}", 100.0 * relative_error(comm, qsm_est)),
        ]
    });

    let headers = [
        "n",
        "total_us",
        "comm_us",
        "best_qsm_us",
        "whp_qsm_us",
        "qsm_est_us",
        "bsp_est_us",
        "qsm_est_err_pct",
    ];
    Report {
        id: "fig2",
        title: "sample sort: measured vs Best/WHP/QSM-est/BSP-est (p=16)",
        text: table(&headers, &rows),
        csv: csv(&headers, &rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shape_holds() {
        // Pinned to sim: the band assertions compare against the
        // simulated machine's analysis lines.
        let rep = run_with(&RunCfg::fast(), Backend::Sim);
        let lines: Vec<&str> = rep.csv.lines().skip(1).collect();
        let col = |l: &str, i: usize| l.split(',').nth(i).unwrap().parse::<f64>().unwrap();
        // Best < WHP everywhere; estimate error shrinks with n and is
        // small at the top of the sweep.
        for l in &lines {
            assert!(col(l, 3) < col(l, 4), "best !< whp: {l}");
        }
        let last = lines.last().unwrap();
        assert!(col(last, 7) < 35.0, "estimate error too large at top size: {last}");
        // Measured inside [best, whp*1.2] at the largest size.
        assert!(col(last, 2) >= col(last, 3));
        assert!(col(last, 2) <= col(last, 4) * 1.2, "measured above WHP band: {last}");
    }
}
