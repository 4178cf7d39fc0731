//! Extension experiment: heterogeneity vs the identical-processors
//! assumption.
//!
//! A QSM machine is "a number of *identical* processors"; the model
//! charges local work as the maximum operation count over
//! processors, implicitly priced at one common speed. This
//! experiment makes one node k× slower and compares measured total
//! time against the s-QSM total prediction (which cannot see the
//! slow node).
//!
//! Expected shape: for compute-light workloads (sample sort at
//! moderate n) the error grows slowly; for compute-heavy balanced
//! workloads the measured total tracks `k` almost linearly while the
//! prediction stays flat — quantifying exactly how far the model's
//! identical-processors assumption stretches.

use qsm_algorithms::analysis::EffectiveParams;
use qsm_algorithms::samplesort::DEFAULT_OVERSAMPLING;
use qsm_algorithms::{gen, samplesort};
use qsm_core::SimMachine;
use qsm_simnet::MachineConfig;

use crate::output::{csv, table, us_at_400mhz};
use crate::{Report, RunCfg};

/// Straggler slowdown factors swept.
pub const FACTORS: [f64; 5] = [1.0, 1.5, 2.0, 4.0, 8.0];

/// Run the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    crate::journal::set_figure("ext_straggler", cfg);
    crate::backend::warn_sim_only("ext_straggler");
    let n = if cfg.fast { 1 << 14 } else { 1 << 17 };
    let input = gen::random_u32s(n, 0x57A6);
    let params = EffectiveParams::measure(MachineConfig::paper_default(cfg.p));
    // Each slowdown factor is an independent simulation of the same
    // input; the pred_drift column references factor 1.0's prediction,
    // so fan out the measurements and build the rows afterwards.
    let points = crate::sweep::map(cfg.p, FACTORS.to_vec(), |_, factor| {
        let mut machine_cfg = MachineConfig::paper_default(cfg.p);
        if factor > 1.0 {
            machine_cfg = machine_cfg.with_straggler(0, factor);
        }
        let run = samplesort::run_on(&SimMachine::new(machine_cfg), &input);
        let measured = run.total();
        // The model's view of the run: BSP estimate on the measured
        // skews plus local work at nominal (homogeneous) speed —
        // operation *counts* don't change with the straggler, so
        // neither does the prediction.
        let est = samplesort::predict_estimate(n, &run, DEFAULT_OVERSAMPLING, &params);
        let predicted = est.bsp
            + run.run.profile.phases[samplesort::SETUP_PHASES..]
                .iter()
                .map(|ph| ph.m_op as f64)
                .sum::<f64>();
        (factor, measured, predicted)
    });
    let baseline_pred = points[0].2;
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|&(factor, measured, predicted)| {
            vec![
                format!("{factor:.1}"),
                format!("{:.1}", us_at_400mhz(measured)),
                format!("{:.1}", us_at_400mhz(predicted)),
                format!("{:.3}", predicted / baseline_pred),
                format!("{:.2}", measured / predicted),
            ]
        })
        .collect();
    let headers =
        ["straggler_factor", "measured_us", "model_pred_us", "pred_drift", "measured_over_pred"];
    Report {
        id: "ext_straggler",
        title: "extension: one slow node vs the identical-processors assumption",
        text: table(&headers, &rows),
        csv: csv(&headers, &rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_blind_to_straggler_measured_is_not() {
        let rep = run(&RunCfg::fast());
        let col = |l: &str, i: usize| l.split(',').nth(i).unwrap().parse::<f64>().unwrap();
        let lines: Vec<&str> = rep.csv.lines().skip(1).collect();
        // The model's prediction barely moves (op counts unchanged;
        // only randomized skews jitter)...
        for l in &lines {
            assert!((col(l, 3) - 1.0).abs() < 0.1, "prediction drifted: {l}");
        }
        // ... while measured time grows monotonically with the factor.
        let measured: Vec<f64> = lines.iter().map(|l| col(l, 1)).collect();
        for w in measured.windows(2) {
            assert!(w[1] >= w[0] * 0.999, "measured not monotone: {measured:?}");
        }
        assert!(
            measured.last().unwrap() > &(measured[0] * 1.1),
            "an 8x straggler must visibly hurt: {measured:?}"
        );
    }
}
