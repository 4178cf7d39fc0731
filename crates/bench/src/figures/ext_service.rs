//! Extension experiment: open-loop serving through the saturation
//! knee.
//!
//! Every paper figure is closed-loop: p workers issue a phase, wait,
//! issue the next — offered load can never exceed completion rate.
//! This experiment runs the other regime. A seeded open-loop arrival
//! process (`qsm-serve`) offers get/put transactions from a large
//! logical client population, hash-sharded across the machine's
//! nodes, at [`LOAD_POINTS`] evenly spaced offered loads up to
//! [`MAX_LOAD_PCT`]% of the utilization model's predicted capacity, so
//! the sweep straddles the knee.
//!
//! Expected shape — the classic throughput-vs-offered-load knee:
//!
//! * **Below the knee** (ρ < 1): throughput tracks the offered load,
//!   latency percentiles sit near the uncontended round trip, and
//!   the model's per-resource utilizations (`ρ_send`, `ρ_recv`,
//!   `ρ_bank`) match the engine's measured busy fractions.
//! * **Above the knee** (ρ > 1): throughput plateaus at the predicted
//!   capacity while open-loop latency grows without bound — the
//!   arrival queue deepens linearly for as long as the window lasts.
//!   The tail (p999) blows up by an order of magnitude across the
//!   knee, which is the figure's headline number: *contention*, the
//!   one thing the QSM cost model abstracts away, is the entire
//!   story on the far side of ρ = 1.
//!
//! The sweep runs open-loop: every arrival is admitted, which is what
//! lets the tail grow past the knee. (Admission control —
//! [`ServiceConfig::with_admission`] — caps the tail at the cost of
//! completed work; `qsm-serve`'s tests and examples cover it.)

use qsm_serve::{model, ServiceConfig};
use qsm_simnet::MachineConfig;

use crate::knobs::bank_model;
use crate::output::us_at_400mhz;
use crate::replay::replay_struct;
use crate::{Report, RunCfg};

/// Offered-load points swept (evenly spaced up to [`MAX_LOAD_PCT`]).
pub const LOAD_POINTS: usize = 8;

/// The top of the sweep, as a percentage of predicted capacity; also
/// the single point `explain`'s service mode runs.
pub const MAX_LOAD_PCT: usize = 200;

replay_struct! {
    /// What one offered-load point produced (the engine outcome reduced
    /// to the scalars the figure reports).
    struct Measured {
        offered: u64,
        completed: u64,
        rejected: u64,
        retries: u64,
        elapsed: f64,
        p50: f64,
        p99: f64,
        p999: f64,
        send_util: f64,
        recv_util: f64,
        bank_util: f64,
    }
}

/// The serving scenario under the run configuration, with
/// [`ServiceConfig::new`]'s population and sharding (offered load is
/// set per sweep point). The machine always carries a bank model —
/// `QSM_BANKS` wins if set, else the serving default, a [`bank_model`]
/// of 4 banks/node — because a machine whose memory system is free can
/// only ever knee on its NICs.
pub fn base_config(cfg: &RunCfg) -> ServiceConfig {
    let knobs = &crate::knobs().result;
    let banks = knobs.bank_model().unwrap_or_else(|| bank_model(4));
    let machine = MachineConfig::paper_default(cfg.p).with_banks(banks);
    let window = if cfg.fast { (1u64 << 18) as f64 } else { (1u64 << 20) as f64 };
    ServiceConfig::new(machine).with_window(window)
}

/// The transactions `base` offers over its window at `pct`% of the
/// utilization model's predicted capacity. Capacity does not depend
/// on the offered load, so the model is probed at one transaction.
pub fn offered_at(base: &ServiceConfig, pct: usize) -> usize {
    let capacity = model::predict(&base.clone().with_offered(1)).capacity;
    (capacity * base.window * pct as f64 / 100.0).round() as usize
}

/// Run the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    crate::backend::warn_sim_only("ext_service");
    let base = base_config(cfg);
    let pcts: Vec<usize> = (1..=LOAD_POINTS).map(|k| MAX_LOAD_PCT * k / LOAD_POINTS).collect();

    let measured = crate::sweep::map("ext_service", cfg, cfg.p, pcts.clone(), |_, pct| {
        let offered = offered_at(&base, pct);
        let out = qsm_serve::run(&base.clone().with_offered(offered), &qsm_core::obs::recorder());
        Measured {
            offered: out.offered,
            completed: out.completed,
            rejected: out.rejected,
            retries: out.retries,
            elapsed: out.elapsed.get(),
            p50: out.latency_percentile(0.5),
            p99: out.latency_percentile(0.99),
            p999: out.latency_percentile(0.999),
            send_util: qsm_serve::ServiceOutcome::mean_util(&out.send_util),
            recv_util: qsm_serve::ServiceOutcome::mean_util(&out.recv_util),
            bank_util: qsm_serve::ServiceOutcome::mean_util(&out.bank_util),
        }
    });

    let rows: Vec<Vec<String>> = pcts
        .iter()
        .zip(&measured)
        .map(|(&pct, m)| {
            let pred = model::predict(&base.clone().with_offered(m.offered as usize));
            // Transactions per million cycles: knee curves read
            // better in a rate unit than in raw counts.
            let tput = if m.elapsed > 0.0 { m.completed as f64 / m.elapsed * 1e6 } else { 0.0 };
            vec![
                pct.to_string(),
                m.offered.to_string(),
                format!("{tput:.1}"),
                format!("{:.1}", pred.throughput * 1e6),
                format!("{:.1}", us_at_400mhz(m.p50)),
                format!("{:.1}", us_at_400mhz(m.p99)),
                format!("{:.1}", us_at_400mhz(m.p999)),
                format!("{:.1}", m.send_util * 100.0),
                format!("{:.1}", pred.rho_send.min(1.0) * 100.0),
                format!("{:.1}", m.recv_util * 100.0),
                format!("{:.1}", pred.rho_recv.min(1.0) * 100.0),
                format!("{:.1}", m.bank_util * 100.0),
                format!("{:.1}", pred.rho_bank.min(1.0) * 100.0),
                pred.bottleneck().to_string(),
                m.completed.to_string(),
                m.rejected.to_string(),
                m.retries.to_string(),
            ]
        })
        .collect();
    let headers = [
        "load_pct",
        "offered_txns",
        "tput_per_mcyc",
        "pred_tput_per_mcyc",
        "p50_us",
        "p99_us",
        "p999_us",
        "send_util_pct",
        "pred_send_pct",
        "recv_util_pct",
        "pred_recv_pct",
        "bank_util_pct",
        "pred_bank_pct",
        "bottleneck",
        "completed",
        "rejected",
        "retries",
    ];
    Report::table(
        "ext_service",
        "extension: open-loop serving — throughput knee vs the utilization model",
        &headers,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(rep: &Report) -> Vec<Vec<String>> {
        rep.csv.lines().skip(1).map(|l| l.split(',').map(str::to_string).collect()).collect()
    }

    fn f(row: &[String], col: usize) -> f64 {
        row[col].parse().unwrap()
    }

    #[test]
    fn knee_shape_holds() {
        let rep = run(&RunCfg::fast());
        let rows = cells(&rep);
        assert_eq!(rows.len(), LOAD_POINTS);
        let (first, last) = (&rows[0], &rows[rows.len() - 1]);

        // Below the knee: throughput tracks the offered load and the
        // model's prediction (the lightest point is far under ρ = 1).
        let offered_rate = |r: &[String]| f(r, 1) / (1u64 << 18) as f64 * 1e6;
        assert!(
            (f(first, 2) - offered_rate(first)).abs() / offered_rate(first) < 0.05,
            "light-load throughput must track the offered load: {first:?}"
        );
        assert!((f(first, 2) - f(first, 3)).abs() / f(first, 3) < 0.05);

        // Above the knee: offered load keeps rising, throughput does
        // not — the plateau is the capacity the model predicts.
        assert!(f(last, 1) > 4.0 * f(first, 1), "the sweep must actually raise the load");
        assert!(
            f(last, 2) < offered_rate(last) * 0.75,
            "top-load throughput must fall well short of the offered rate: {last:?}"
        );
        assert!(
            (f(last, 2) - f(last, 3)).abs() / f(last, 3) < 0.15,
            "the plateau must sit near the predicted capacity: {last:?}"
        );

        // The tail blows up across the knee: p999 grows by at least
        // an order of magnitude (the acceptance headline).
        assert!(
            f(last, 6) >= 10.0 * f(first, 6),
            "p999 must grow >=10x across the knee: {} -> {}",
            f(first, 6),
            f(last, 6)
        );

        // Some resource saturates at the top of the sweep. The
        // reported utilization is a *mean* over nodes and hashing is
        // not perfectly even, so the busiest nodes pin at 100% while
        // the mean sits a little under it.
        let peak = f(last, 7).max(f(last, 9)).max(f(last, 11));
        assert!(peak > 80.0, "the bottleneck must be pinned at the top: {last:?}");
    }

    #[test]
    fn p99_latency_is_monotone_in_offered_load() {
        // Open-loop arrivals are a keyed stream: more load appends
        // transactions without moving existing arrivals, so the tail
        // can only grow. The figure's rows must show it.
        let rep = run(&RunCfg::fast());
        let rows = cells(&rep);
        let mut last = 0.0;
        for r in &rows {
            let p99 = f(r, 5);
            assert!(p99 >= last, "p99 fell from {last} to {p99} at load {}", r[0]);
            last = p99;
        }
    }

    #[test]
    fn predictions_match_measurement_below_the_knee() {
        let rep = run(&RunCfg::fast());
        for r in cells(&rep) {
            // Only judge clearly sub-saturation rows.
            if f(&r, 8).max(f(&r, 10)).max(f(&r, 12)) < 80.0 {
                for (meas, pred) in [(7, 8), (9, 10), (11, 12)] {
                    assert!(
                        (f(&r, meas) - f(&r, pred)).abs() < 5.0,
                        "utilization model off below the knee: {r:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn experiment_is_deterministic() {
        let cfg = RunCfg::fast();
        assert_eq!(run(&cfg).csv, run(&cfg).csv);
    }
}
