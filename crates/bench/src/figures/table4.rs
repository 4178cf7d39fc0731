//! Table 4: extrapolated minimum problem size for QSM accuracy on
//! six architectures.
//!
//! The model is fitted exactly as the paper describes: take the
//! measured crossover on the default simulated machine, take the
//! linear slopes of crossover-vs-l (Figure 5) and crossover-vs-o
//! (Figure 6) — the points those figures swept if this process ran
//! them, a sweep of its own otherwise — and extrapolate
//! `n_min(l, o, p, g)` to the other machines' parameters. The paper's
//! own entries carry an unknown software factor `k` for the
//! non-simulated rows; we print our absolute predictions next to the
//! paper's `k`-coefficients so the *ordering and spread* can be
//! compared.

use qsm_core::EffectiveCosts;
use qsm_models::machine::table4_machines;
use qsm_models::nmin::{linear_fit, NminModel};
use qsm_simnet::MachineConfig;

use crate::figures::{fig5, fig6, fit_points, samplesort_crossover, Crossovers};
use crate::{Report, RunCfg};

/// Fit the extrapolation model from the crossover sweeps.
pub fn fit_model(cfg: &RunCfg) -> Option<NminModel> {
    let base = qsm_models::machine::default_simulation();

    // Baseline crossover on the default machine.
    let machine_cfg = MachineConfig::paper_default(cfg.p);
    let params = EffectiveCosts::measure(machine_cfg);
    let base_cross = samplesort_crossover(machine_cfg, cfg, &params)?;

    // Slopes from the two sweeps, per processor.
    let per_proc = |pts: Crossovers| -> Vec<(f64, f64)> {
        fit_points(&pts, cfg).0.into_iter().map(|(x, n)| (x, n / cfg.p as f64)).collect()
    };
    let l_pts = per_proc(fig5::FIGURE.crossovers(cfg));
    let o_pts = per_proc(fig6::FIGURE.crossovers(cfg));
    if l_pts.len() < 2 || o_pts.len() < 2 {
        return None;
    }
    let (slope_l, _) = linear_fit(&l_pts);
    let (slope_o, _) = linear_fit(&o_pts);
    Some(NminModel::fit(&base, base_cross / cfg.p as f64, slope_l.max(0.0), slope_o.max(0.0)))
}

/// Run the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    crate::backend::warn_sim_only("table4");
    let model = fit_model(cfg);

    let mut rows = Vec::new();
    for m in table4_machines() {
        let (nmin_pp, nmin) = match &model {
            Some(mdl) => (format!("{:.0}", mdl.nmin_per_p(&m)), format!("{:.0}", mdl.nmin(&m))),
            None => ("-".into(), "-".into()),
        };
        rows.push(vec![
            m.name.to_string(),
            m.p.to_string(),
            format!("{:.0}", m.l),
            format!("{:.0}", m.o),
            format!("{}", m.g_per_byte),
            nmin_pp,
            nmin,
            m.paper_nmin_per_p.to_string(),
        ]);
    }
    let headers = [
        "architecture",
        "p",
        "l_cyc",
        "o_cyc",
        "g_cyc_per_byte",
        "nmin_per_p",
        "nmin",
        "paper_nmin_per_p",
    ];
    let mut report = Report::table(
        "table4",
        "minimum problem size for QSM accuracy, extrapolated across architectures",
        &headers,
        &rows,
    );
    if let Some(mdl) = &model {
        report.text.push_str(&format!(
            "\nfitted model: n_min/p = {:.3}·l + {:.3}·o + {:.0}, scaled by g_ref/g\n",
            mdl.slope_l, mdl.slope_o, mdl.intercept
        ));
    } else {
        report.text.push_str("\n(no crossovers found in sweep; model not fitted)\n");
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_fits_and_orders_architectures() {
        let cfg = RunCfg::fast();
        let model = fit_model(&cfg).expect("crossovers must exist in fast sweep");
        let machines = table4_machines();
        let by_name = |n: &str| machines.iter().find(|m| m.name.contains(n)).unwrap();
        // The Ethernet-TCP machine needs the largest problems; this
        // is the paper's most robust qualitative claim.
        let slow = model.nmin_per_p(by_name("Pentium-II"));
        for m in &machines {
            if !m.name.contains("Pentium-II") {
                assert!(
                    slow > model.nmin_per_p(m),
                    "TCP row should dominate: {} vs {} ({})",
                    slow,
                    model.nmin_per_p(m),
                    m.name
                );
            }
        }
        // And thresholds are positive and finite everywhere.
        for m in &machines {
            let v = model.nmin_per_p(m);
            assert!(v.is_finite() && v > 0.0, "{}: {v}", m.name);
        }
    }
}
