//! Extension experiment: fault injection vs the reliable-network
//! assumption.
//!
//! Every model the paper evaluates (QSM, s-QSM, BSP, LogP) prices
//! communication on a *reliable* network: each word is charged once,
//! because each message is delivered once. Real fabrics lose
//! messages, and the runtime re-delivers them with a timeout/backoff
//! protocol the models cannot see — so measured communication drifts
//! away from every prediction as the loss rate grows, exactly the
//! methodology the paper applies to latency (Figure 4) and
//! heterogeneity (our straggler extension), applied to faults.
//!
//! The sweep runs sample sort at a fixed size under increasing
//! per-message drop probability (seeded, deterministic — see
//! `qsm_simnet::FaultConfig`; the drop schedule at a lower
//! probability is a *subset* of the schedule at a higher one, so the
//! sweep is monotone by construction, not just in expectation).
//! Reported per drop probability: measured communication, the three
//! model predictions (blind to faults, so the prediction columns stay
//! flat), the measured/s-QSM ratio — the drift — and the delivery
//! protocol's retry/loss counts.
//!
//! Every point draws its drops from one fixed seed, so the CSV is
//! byte-reproducible. The sweep runs on the graceful executor
//! ([`crate::sweep::map_surviving`]): a failing point is dropped from
//! the artifact instead of killing the run.

use qsm_algorithms::{gen, samplesort};
use qsm_core::{Machine, SimMachine};
use qsm_simnet::{FaultConfig, MachineConfig};

use crate::output::us_at_400mhz;
use crate::sweep::map_surviving;
use crate::{Report, RunCfg};

/// The seed of every point's drop schedule.
const FAULT_SEED: u64 = 0x5EED_FA17;

/// Per-message drop probabilities swept.
pub const DROP_PROBS: [f64; 6] = [0.0, 0.01, 0.02, 0.05, 0.1, 0.2];

/// Run the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    crate::backend::warn_sim_only("ext_faults");
    let n = if cfg.fast { 1 << 14 } else { 1 << 17 };
    let input = gen::random_u32s(n, 0xFA17);
    // Each drop probability is an independent simulation of the same
    // input under the same fault seed; rows are self-contained, so a
    // failed point degrades the artifact instead of losing it.
    let points = map_surviving(cfg.p, DROP_PROBS.to_vec(), |_, drop_prob| {
        let machine_cfg = MachineConfig::paper_default(cfg.p)
            .with_faults(FaultConfig::drops(FAULT_SEED, drop_prob));
        let machine = SimMachine::new(machine_cfg);
        let rep = machine.make_report(&samplesort::run_on(&machine, &input).run.phases);
        (
            drop_prob,
            rep.measured_comm.get(),
            rep.qsm_comm,
            rep.sqsm_comm,
            rep.bsp_comm,
            rep.retries,
            rep.dropped_msgs,
        )
    });
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|&(_, (drop_prob, measured, qsm, sqsm, bsp, retries, dropped))| {
            vec![
                format!("{drop_prob:.2}"),
                format!("{:.1}", us_at_400mhz(measured)),
                format!("{:.1}", us_at_400mhz(qsm)),
                format!("{:.1}", us_at_400mhz(sqsm)),
                format!("{:.1}", us_at_400mhz(bsp)),
                format!("{:.3}", measured / sqsm),
                format!("{retries}"),
                format!("{dropped}"),
            ]
        })
        .collect();
    let headers = [
        "drop_prob",
        "measured_comm_us",
        "qsm_pred_us",
        "sqsm_pred_us",
        "bsp_pred_us",
        "measured_over_sqsm",
        "retries",
        "dropped_msgs",
    ];
    Report::table(
        "ext_faults",
        "extension: message loss + retry protocol vs the reliable-network assumption",
        &headers,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_grows_monotonically_with_drop_probability() {
        let rep = run(&RunCfg::fast());
        let col = |l: &str, i: usize| l.split(',').nth(i).unwrap().parse::<f64>().unwrap();
        let lines: Vec<&str> = rep.csv.lines().skip(1).collect();
        assert_eq!(lines.len(), DROP_PROBS.len());
        // Predictions are blind to faults: flat across the sweep.
        for i in [2, 3, 4] {
            let first = col(lines[0], i);
            for l in &lines {
                assert_eq!(col(l, i), first, "prediction column {i} moved: {l}");
            }
        }
        // Measured drift rises with the drop probability (nested drop
        // sets make this monotone at a fixed seed), and losses cost
        // real time: the lossiest point must sit visibly above the
        // fault-free baseline.
        let drift: Vec<f64> = lines.iter().map(|l| col(l, 5)).collect();
        for w in drift.windows(2) {
            assert!(w[1] >= w[0] * 0.999, "drift not monotone: {drift:?}");
        }
        assert!(
            drift.last().unwrap() > &(drift[0] * 1.02),
            "20% loss must visibly move the drift: {drift:?}"
        );
        // The protocol did real work at nonzero probabilities, and
        // resends match losses one for one.
        let retries = col(lines.last().unwrap(), 6);
        let dropped = col(lines.last().unwrap(), 7);
        assert!(retries > 0.0 && retries == dropped, "retries {retries} dropped {dropped}");
        assert_eq!(col(lines[0], 6), 0.0, "fault-free row must report zero retries");
    }

    #[test]
    fn csv_is_reproducible_at_fixed_seed() {
        let a = run(&RunCfg::fast());
        let b = run(&RunCfg::fast());
        assert_eq!(a.csv, b.csv);
    }
}
