//! Extension experiment: hot-spot contention — QSM's κ vs s-QSM's g·κ.
//!
//! The two models differ in exactly one term: a phase with κ queued
//! accesses to one location costs `max(m_op, g·m_rw, κ)` under QSM
//! but `max(m_op, g·m_rw, g·κ)` under s-QSM. The paper presents its
//! results under s-QSM ("the same gap parameter is encountered at
//! processors and at memory"); this experiment shows why that is the
//! right choice on a machine whose memory modules serve requests at
//! the gap rate.
//!
//! Setup: every processor issues `m` single-word gets of location 0
//! (κ = m·p, all served by one owner), against a control where the
//! same `m` gets are spread over distinct locations on distinct
//! owners (κ = 1). Expected shape: the control matches both models;
//! the hot-spot runs track the s-QSM line (linear in p) while the
//! QSM line stays flat and underpredicts by a factor ≈ p.

use qsm_core::{EffectiveCosts, Layout, SimMachine};
use qsm_simnet::MachineConfig;

use crate::output::us_at_400mhz;
use crate::{Report, RunCfg};

/// Gets issued per processor.
const M: usize = 512;

/// Measured comm of one phase of `M` gets per processor, hot or
/// spread.
fn measure(p: usize, hot: bool) -> f64 {
    let machine = SimMachine::new(MachineConfig::paper_default(p));
    let run = machine.run(move |ctx| {
        let p = ctx.nprocs();
        let arr = ctx.register::<u32>("spot", p * M, Layout::Block);
        ctx.sync();
        let me = ctx.proc_id();
        let tickets: Vec<_> = (0..M)
            .map(|k| {
                let idx = if hot {
                    0 // everyone hammers location 0
                } else {
                    // distinct location on the next owner over
                    ((me + 1) % p) * M + k
                };
                ctx.get(&arr, idx, 1)
            })
            .collect();
        ctx.sync();
        for t in tickets {
            let _ = ctx.take(t);
        }
    });
    run.phases[1].timing.comm.get()
}

/// Run the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    crate::backend::warn_sim_only("ext_hotspot");
    let ps: Vec<usize> = if cfg.fast { vec![2, 4, 8] } else { vec![2, 4, 8, 16] };
    // Rows are fully independent per machine size — each one is its
    // own sweep point (calibration plus both measurements).
    let rows = crate::sweep::map(cfg.p, ps, |_, p| {
        let params = EffectiveCosts::measure(MachineConfig::paper_default(p));
        // Model lines (communication only, plus the per-phase L that
        // both share): QSM charges the issuer's words; s-QSM charges
        // the serialized queue at the memory module.
        let qsm = params.g_get * M as f64 + params.l_sync;
        let sqsm = params.g_get * (M * p) as f64 + params.l_sync;
        let hot = measure(p, true);
        let spread = measure(p, false);
        vec![
            p.to_string(),
            format!("{:.1}", us_at_400mhz(spread)),
            format!("{:.1}", us_at_400mhz(hot)),
            format!("{:.1}", us_at_400mhz(qsm)),
            format!("{:.1}", us_at_400mhz(sqsm)),
            format!("{:.2}", hot / sqsm),
        ]
    });
    let headers = ["p", "spread_us", "hotspot_us", "qsm_pred_us", "sqsm_pred_us", "hot_vs_sqsm"];
    Report::table(
        "ext_hotspot",
        "extension: hot-spot gets — s-QSM's g*kappa term vs QSM's kappa",
        &headers,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsm_models::nmin::linear_fit;

    #[test]
    fn sqsm_tracks_hotspot_qsm_does_not() {
        let cfg = RunCfg::fast();
        let rep = run(&cfg);
        let col = |l: &str, i: usize| l.split(',').nth(i).unwrap().parse::<f64>().unwrap();
        let lines: Vec<&str> = rep.csv.lines().skip(1).collect();
        // Hot-spot time grows ~linearly in p...
        let pts: Vec<(f64, f64)> = lines.iter().map(|l| (col(l, 0), col(l, 2))).collect();
        let (slope, _) = linear_fit(&pts);
        assert!(slope > 0.0, "hot-spot time must grow with p");
        // ...tracking s-QSM within a factor ~2 at every p...
        for l in &lines {
            let ratio = col(l, 5);
            assert!((0.4..2.5).contains(&ratio), "hot vs s-QSM: {l}");
        }
        // ...while QSM's flat line underpredicts badly at the top p.
        let last = lines.last().unwrap();
        assert!(
            col(last, 2) > 2.0 * col(last, 3),
            "QSM should underpredict the hot spot at large p: {last}"
        );
        // Control: spread traffic stays near the (flat) QSM line.
        for l in &lines {
            let err = (col(l, 1) - col(l, 3)).abs() / col(l, 1);
            assert!(err < 0.6, "spread control should sit near QSM: {l}");
        }
    }
}
