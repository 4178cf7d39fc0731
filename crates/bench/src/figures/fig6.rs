//! Figure 6: problem size needed for accuracy vs per-message
//! overhead o.
//!
//! The Figure 5 experiment with the per-message overhead swept
//! instead of the latency. Expected shape: n_cross grows linearly in
//! o (batching amortizes o over more data as n grows).

use qsm_core::EffectiveCosts;
use qsm_models::nmin::{linear_fit, r_squared};
use qsm_simnet::MachineConfig;

use crate::figures::{samplesort_crossover, CrossoverMemo, Crossovers};
use crate::output::{csv, table};
use crate::{Report, RunCfg};

/// Overhead values swept (cycles).
pub fn overheads(fast: bool) -> Vec<f64> {
    if fast {
        vec![100.0, 1600.0, 12_800.0]
    } else {
        vec![100.0, 400.0, 1600.0, 6400.0, 25_600.0]
    }
}

static SWEPT: CrossoverMemo = CrossoverMemo::new();

/// The crossover points for every overhead value: those [`run`] swept
/// earlier in this process, or of a sweep made now (see `fig5`).
pub fn crossovers(cfg: &RunCfg) -> Vec<(f64, Option<f64>)> {
    SWEPT.get_or_sweep(cfg, || sweep(cfg))
}

fn sweep(cfg: &RunCfg) -> Crossovers {
    // Same structure as fig5: one prediction band, independent
    // doubling scans per overhead value.
    let params = EffectiveCosts::measure(MachineConfig::paper_default(cfg.p));
    crate::sweep::map(cfg.p, overheads(cfg.fast), |_, o| {
        let machine_cfg = MachineConfig::paper_default(cfg.p).with_overhead(o);
        (o, samplesort_crossover(machine_cfg, cfg, &params))
    })
}

/// Run the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    crate::journal::set_figure("fig6", cfg);
    crate::backend::warn_sim_only("fig6");
    let points = SWEPT.sweep(cfg, || sweep(cfg));
    let mut rows = Vec::new();
    let mut fit_pts = Vec::new();
    for (o, cross) in &points {
        match cross {
            Some(n) => {
                rows.push(vec![
                    format!("{o:.0}"),
                    format!("{n:.0}"),
                    format!("{:.0}", n / cfg.p as f64),
                ]);
                fit_pts.push((*o, *n));
            }
            None => rows.push(vec![format!("{o:.0}"), "beyond sweep".into(), "-".into()]),
        }
    }
    let mut text = table(&["overhead_cyc", "n_cross", "n_cross_per_proc"], &rows);
    if fit_pts.len() >= 2 {
        let (slope, intercept) = linear_fit(&fit_pts);
        let r2 = r_squared(&fit_pts, slope, intercept);
        text.push_str(&format!(
            "\nlinear fit: n_cross = {slope:.2}·o + {intercept:.0}   (R² = {r2:.3})\n"
        ));
    }
    Report {
        id: "fig6",
        title: "problem size for measured comm to enter the [Best,WHP] band vs overhead",
        text,
        csv: csv(&["overhead_cyc", "n_cross", "n_cross_per_proc"], &rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_grows_with_overhead() {
        let cfg = RunCfg::fast();
        let pts = crossovers(&cfg);
        let found: Vec<(f64, f64)> = pts.iter().filter_map(|(o, c)| c.map(|n| (*o, n))).collect();
        assert!(found.len() >= 2, "crossovers should exist in the sweep: {pts:?}");
        for w in found.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.9, "crossover shrank with overhead: {:?}", found);
        }
    }
}
