//! Figure 1: measured and predicted performance of prefix sums.
//!
//! Total and communication time as n grows, against the QSM
//! prediction `g(p-1)` and the BSP prediction `g(p-1) + L`. The
//! expected shape: communication is flat in n, both models
//! underestimate it (overhead and latency dominate these tiny
//! messages), QSM lowest — yet the absolute error stays small and
//! the algorithm is efficient in practice.

use qsm_algorithms::{gen, prefix};
use qsm_core::EffectiveCosts;
use qsm_simnet::MachineConfig;

use crate::backend::Backend;
use crate::output::us_at_400mhz;
use crate::stats::{mean, rel_stddev_pct};
use crate::{Report, RunCfg};

/// Run the experiment on the `QSM_BACKEND`-selected backend.
pub fn run(cfg: &RunCfg) -> Report {
    run_with(cfg, crate::knobs().result.backend)
}

/// Run the experiment on an explicit backend. Measured columns are in
/// the backend's time (converted to µs); the model prediction columns
/// are always in the paper machine's simulated µs.
pub fn run_with(cfg: &RunCfg, backend: Backend) -> Report {
    let machine_cfg = MachineConfig::paper_default(cfg.p);
    let params = EffectiveCosts::measure(machine_cfg);
    let pred = prefix::predict(&params);

    // Each problem size is an independent measurement point: fan them
    // across the sweep pool. Seeds stay keyed on (point, rep) and
    // results come back in size order, so the table is byte-identical
    // to a serial run.
    let rows = crate::sweep::map("fig1", cfg, cfg.p, cfg.sizes(), |point, n| {
        let mut totals = Vec::new();
        let mut comms = Vec::new();
        for rep in 0..cfg.reps {
            let seed = cfg.seed(point, rep);
            let machine = backend.machine(machine_cfg, seed);
            let input = gen::random_u64s(n, seed ^ 0xDA7A);
            let run = prefix::run_on(&machine, &input);
            totals.push(run.total());
            comms.push(run.comm());
        }
        vec![
            n.to_string(),
            format!("{:.1}", backend.us(mean(&totals))),
            format!("{:.1}", backend.us(mean(&comms))),
            format!("{:.1}", rel_stddev_pct(&comms)),
            format!("{:.1}", us_at_400mhz(pred.qsm)),
            format!("{:.1}", us_at_400mhz(pred.bsp)),
        ]
    });

    let headers = ["n", "total_us", "comm_us", "comm_sd_pct", "qsm_pred_us", "bsp_pred_us"];
    Report::table(
        "fig1",
        "prefix sums: measured vs QSM/BSP predicted (p=16, 400MHz)",
        &headers,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shape_holds() {
        // Pinned to sim: the shape assertions are statements about
        // the simulated machine, whatever QSM_BACKEND says.
        let rep = run_with(&RunCfg::fast(), Backend::Sim);
        let lines: Vec<&str> = rep.csv.lines().skip(1).collect();
        assert!(lines.len() >= 4);
        let comm = |l: &str| l.split(',').nth(2).unwrap().parse::<f64>().unwrap();
        let qsm = |l: &str| l.split(',').nth(4).unwrap().parse::<f64>().unwrap();
        let bsp = |l: &str| l.split(',').nth(5).unwrap().parse::<f64>().unwrap();
        // Flat in n (within 25%), and models underestimate.
        let first = comm(lines[0]);
        let last = comm(lines.last().unwrap());
        assert!((last / first - 1.0).abs() < 0.25, "comm not flat: {first} -> {last}");
        for l in &lines {
            assert!(qsm(l) < bsp(l));
            assert!(bsp(l) < comm(l), "BSP should underestimate: {l}");
        }
    }

    #[test]
    fn fig1_runs_on_the_threads_backend() {
        // Same sweep, real threads: rows keep their shape and the
        // wall-clock measurements are positive. (No model assertions
        // — predictions are in simulated cycles, measurements in ns.)
        let mut cfg = RunCfg::fast();
        cfg.p = 4; // keep the thread count friendly to small hosts
        let rep = run_with(&cfg, Backend::Threads);
        let lines: Vec<&str> = rep.csv.lines().skip(1).collect();
        assert_eq!(lines.len(), cfg.sizes().len());
        for l in &lines {
            let total: f64 = l.split(',').nth(1).unwrap().parse().unwrap();
            assert!(total > 0.0, "non-positive wall time: {l}");
        }
    }
}
