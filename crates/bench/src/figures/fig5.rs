//! Figure 5: problem size needed for accuracy vs latency l.
//!
//! For each hardware latency, the smallest n at which the measured
//! sample-sort communication falls inside the [Best-case, WHP-bound]
//! band (operationally: at or below the WHP line, since measured
//! always sits above Best). Expected shape: n_cross grows *linearly*
//! in l — the paper's pipelining condition `(l/g)·π ≪ W/p` made
//! empirical.

use qsm_algorithms::analysis::EffectiveParams;
use qsm_models::nmin::{linear_fit, r_squared};
use qsm_simnet::MachineConfig;

use crate::figures::{fig4, samplesort_crossover, CrossoverMemo, Crossovers};
use crate::output::{csv, table};
use crate::{Report, RunCfg};

static SWEPT: CrossoverMemo = CrossoverMemo::new();

/// The crossover points for every latency, as `(l, Some(n_cross))`
/// rows: those [`run`] swept earlier in this process (`all` reaches
/// `table4` after this figure), or of a sweep made now.
pub fn crossovers(cfg: &RunCfg) -> Vec<(f64, Option<f64>)> {
    SWEPT.get_or_sweep(cfg, || sweep(cfg))
}

fn sweep(cfg: &RunCfg) -> Crossovers {
    // The prediction band comes from the default machine and is the
    // same for every latency; each latency's doubling scan is then an
    // independent sweep point.
    let params = EffectiveParams::measure(MachineConfig::paper_default(cfg.p));
    crate::sweep::map(cfg.p, fig4::latencies(cfg.fast), |_, l| {
        let machine_cfg = MachineConfig::paper_default(cfg.p).with_latency(l);
        (l, samplesort_crossover(machine_cfg, cfg, &params))
    })
}

/// Run the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    crate::journal::set_figure("fig5", cfg);
    crate::backend::warn_sim_only("fig5");
    let points = SWEPT.sweep(cfg, || sweep(cfg));
    let mut rows = Vec::new();
    let mut fit_pts = Vec::new();
    for (l, cross) in &points {
        match cross {
            Some(n) => {
                rows.push(vec![
                    format!("{l:.0}"),
                    format!("{n:.0}"),
                    format!("{:.0}", n / cfg.p as f64),
                ]);
                fit_pts.push((*l, *n));
            }
            None => rows.push(vec![format!("{l:.0}"), "beyond sweep".into(), "-".into()]),
        }
    }
    let mut text = table(&["latency_cyc", "n_cross", "n_cross_per_proc"], &rows);
    if fit_pts.len() >= 2 {
        let (slope, intercept) = linear_fit(&fit_pts);
        let r2 = r_squared(&fit_pts, slope, intercept);
        text.push_str(&format!(
            "\nlinear fit: n_cross = {slope:.2}·l + {intercept:.0}   (R² = {r2:.3})\n"
        ));
    }
    Report {
        id: "fig5",
        title: "problem size for measured comm to enter the [Best,WHP] band vs latency",
        text,
        csv: csv(&["latency_cyc", "n_cross", "n_cross_per_proc"], &rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_grows_with_latency() {
        let cfg = RunCfg::fast();
        let pts = crossovers(&cfg);
        let found: Vec<(f64, f64)> = pts.iter().filter_map(|(l, c)| c.map(|n| (*l, n))).collect();
        assert!(found.len() >= 2, "crossovers should exist in the sweep: {pts:?}");
        // Monotone non-decreasing in l.
        for w in found.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.9, "crossover shrank with latency: {:?}", found);
        }
    }
}
