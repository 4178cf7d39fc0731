//! Figure 2: measured and predicted performance of sample sort.
//!
//! Measured total and communication time vs n, against four analysis
//! lines: *Best case* (perfect balance), *WHP bound* (Chernoff, ≥90%
//! of runs), *QSM estimate* (measured skews), and *BSP estimate*
//! (QSM estimate + 5L). Expected shape: measured communication falls
//! inside the [Best, WHP] band except at small n, and the QSM
//! estimate comes within ~10% of measured communication beyond
//! roughly 125 000 elements (8 000 per processor).

use qsm_algorithms::gen;
use qsm_algorithms::samplesort::{self, DEFAULT_OVERSAMPLING};

use crate::backend::Backend;
use crate::{Report, RunCfg};

/// Run the experiment on the `QSM_BACKEND`-selected backend.
pub fn run(cfg: &RunCfg) -> Report {
    run_with(cfg, crate::knobs().result.backend)
}

/// Run the experiment on an explicit backend. Measured columns are in
/// the backend's time (converted to µs); the analysis lines (Best,
/// WHP, estimates) are always in the paper machine's simulated µs.
pub fn run_with(cfg: &RunCfg, backend: Backend) -> Report {
    let c = DEFAULT_OVERSAMPLING;
    super::estimate_sweep(
        "fig2",
        "sample sort: measured vs Best/WHP/QSM-est/BSP-est (p=16)",
        cfg,
        backend,
        |machine, n, seed, params| {
            let r = samplesort::run_on(machine, &gen::random_u32s(n, seed));
            (r.total(), r.comm(), samplesort::predict_estimate(n, &r, c, params))
        },
        |n, params| (samplesort::predict_best(n, c, params), samplesort::predict_whp(n, c, params)),
    )
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
