//! Figure 3: measured and predicted performance of list ranking.
//!
//! The irregular-communication stress case. Lines as in Figure 2;
//! expected shape: prediction accuracy improves with n, the QSM
//! estimate landing within ~15% of measured communication for
//! n ≳ 60 000 (the BSP estimate slightly earlier).

use qsm_algorithms::{gen, listrank};

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
    super::estimate_sweep(
        "fig3",
        "list ranking: measured vs Best/WHP/QSM-est/BSP-est (p=16)",
        cfg,
        backend,
        |machine, n, seed, params| {
            let (succ, pred, _head) = gen::random_list(n, seed);
            let r = listrank::run_on(machine, &succ, &pred);
            (r.total(), r.comm(), listrank::predict_estimate(&r, params))
        },
        |n, params| (listrank::predict_best(n, params), listrank::predict_whp(n, params)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shape_holds() {
        // Pinned to sim: the band assertions compare against the
        // simulated machine's analysis lines.
        let rep = run_with(&RunCfg::fast(), Backend::Sim);
        let lines: Vec<&str> = rep.csv.lines().skip(1).collect();
        let col = |l: &str, i: usize| l.split(',').nth(i).unwrap().parse::<f64>().unwrap();
        for l in &lines {
            assert!(col(l, 3) < col(l, 4), "best !< whp: {l}");
        }
        // Estimate error shrinks as n grows.
        let first_err = col(lines[0], 7);
        let last_err = col(lines.last().unwrap(), 7);
        assert!(last_err < first_err, "error should shrink: {first_err} -> {last_err}");
        assert!(last_err < 40.0, "estimate error at top size: {last_err}");
    }
}
