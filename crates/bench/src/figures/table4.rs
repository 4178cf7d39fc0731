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

use qsm_algorithms::analysis::EffectiveParams;
use qsm_models::machine::{paper_k_coefficients, table4_machines};
use qsm_models::nmin::{linear_fit, NminModel};
use qsm_simnet::MachineConfig;

use crate::figures::{fig5, fig6, samplesort_crossover};
use crate::output::{csv, table};
use crate::{Report, RunCfg};

/// Fit the extrapolation model from the crossover sweeps.
pub fn fit_model(cfg: &RunCfg) -> Option<NminModel> {
    let base = qsm_models::machine::default_simulation();

    // Baseline crossover on the default machine.
    let machine_cfg = MachineConfig::paper_default(cfg.p);
    let params = EffectiveParams::measure(machine_cfg);
    let base_cross = samplesort_crossover(machine_cfg, cfg, &params)?;

    // Slopes from the two sweeps (per processor). Crossovers pinned
    // at the smallest swept size are floors, not measurements — they
    // would bias the slope toward zero, so drop them when enough
    // resolved points remain.
    let floor = *cfg.sizes().first().unwrap() as f64;
    let resolve = |pts: Vec<(f64, Option<f64>)>| -> Vec<(f64, f64)> {
        let all: Vec<(f64, f64)> =
            pts.into_iter().filter_map(|(x, c)| c.map(|n| (x, n / cfg.p as f64))).collect();
        let unfloored: Vec<(f64, f64)> =
            all.iter().copied().filter(|&(_, n)| n > floor / cfg.p as f64).collect();
        if unfloored.len() >= 2 {
            unfloored
        } else {
            all
        }
    };
    let l_pts = resolve(fig5::crossovers(cfg));
    let o_pts = resolve(fig6::crossovers(cfg));
    if l_pts.len() < 2 || o_pts.len() < 2 {
        return None;
    }
    let (slope_l, _) = linear_fit(&l_pts);
    let (slope_o, _) = linear_fit(&o_pts);
    Some(NminModel::fit(&base, base_cross / cfg.p as f64, slope_l.max(0.0), slope_o.max(0.0)))
}

/// Run the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    crate::journal::set_figure("table4", cfg);
    crate::backend::warn_sim_only("table4");
    let model = fit_model(cfg);
    let paper_k: std::collections::HashMap<&str, f64> =
        paper_k_coefficients().into_iter().collect();

    let mut rows = Vec::new();
    for m in table4_machines() {
        let (nmin_pp, nmin) = match &model {
            Some(mdl) => (format!("{:.0}", mdl.nmin_per_p(&m)), format!("{:.0}", mdl.nmin(&m))),
            None => ("-".into(), "-".into()),
        };
        let paper = match m.paper_nmin_per_p {
            Some(v) => format!("{v:.0}"),
            None => paper_k.get(m.name).map(|k| format!("k*{k:.0}")).unwrap_or_default(),
        };
        rows.push(vec![
            m.name.to_string(),
            m.p.to_string(),
            format!("{:.0}", m.l),
            format!("{:.0}", m.o),
            format!("{}", m.g_per_byte),
            nmin_pp,
            nmin,
            paper,
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
    let mut text = table(&headers, &rows);
    if let Some(mdl) = &model {
        text.push_str(&format!(
            "\nfitted model: n_min/p = {:.3}·l + {:.3}·o + {:.0}, scaled by g_ref/g\n",
            mdl.slope_l, mdl.slope_o, mdl.intercept
        ));
    } else {
        text.push_str("\n(no crossovers found in sweep; model not fitted)\n");
    }
    Report {
        id: "table4",
        title: "minimum problem size for QSM accuracy, extrapolated across architectures",
        text,
        csv: csv(&headers, &rows),
    }
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
