//! One module per table/figure of the paper's evaluation.
//!
//! | Module   | Paper artifact | Content |
//! |----------|----------------|---------|
//! | [`fig1`] | Figure 1 | prefix sums: measured vs QSM/BSP predictions |
//! | [`fig2`] | Figure 2 | sample sort: measured vs Best/WHP/QSM-est/BSP-est |
//! | [`fig3`] | Figure 3 | list ranking: measured vs Best/WHP/QSM-est/BSP-est |
//! | [`fig4`] | Figure 4 | sample sort comm vs n as latency l varies |
//! | [`fig5`] | Figure 5 | crossover problem size vs latency l |
//! | [`fig6`] | Figure 6 | crossover problem size vs overhead o |
//! | [`fig7`] | Figure 7 | memory-bank contention on four platforms |
//! | [`table3`] | Table 3 | hardware vs observed network performance |
//! | [`table4`] | Table 4 | n_min extrapolation across architectures |
//! | [`ablations`] | (ours) | runtime design-choice ablations |
//! | [`ext_fabric`] | (ours) | shared-fabric network-contention extension |
//! | [`ext_straggler`] | (ours) | heterogeneous-processors extension |
//! | [`ext_hotspot`] | (ours) | hot-spot contention: QSM κ vs s-QSM g·κ |
//! | [`ext_faults`] | (ours) | message loss + retry protocol vs reliable-network assumption |
//! | [`ext_banks`] | (ours) | bank contention through the full get/put/sync pipeline |
//! | [`ext_topology`] | (ours) | routed multi-hop fabrics vs the flat wire |
//! | [`ext_service`] | (ours) | open-loop serving: throughput knee vs utilization model |

pub mod ablations;
pub mod ext_banks;
pub mod ext_fabric;
pub mod ext_faults;
pub mod ext_hotspot;
pub mod ext_service;
pub mod ext_straggler;
pub mod ext_topology;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod table3;
pub mod table4;

use std::sync::{Mutex, MutexGuard};

use qsm_algorithms::analysis::relative_error;
use qsm_algorithms::{gen, listrank, prefix, samplesort, Prediction};
use qsm_core::{AnyMachine, EffectiveCosts, Machine, PhaseRecord, SimMachine};
use qsm_simnet::MachineConfig;

use crate::backend::Backend;
use crate::output::{csv, table, us_at_400mhz};
use crate::stats::{cross_interpolate, mean};
use crate::{Report, RunCfg};

/// Run one of the paper's three kernels, by name, on `machine`: `n`
/// elements (list nodes for `listrank`) drawn from `seed ^ 0xDA7A`,
/// the input seed every figure uses. Returns the run's phases, or
/// `None` for a name other than `prefix`, `samplesort` and
/// `listrank`.
pub fn run_kernel<M: Machine>(
    algo: &str,
    machine: &M,
    n: usize,
    seed: u64,
) -> Option<Vec<PhaseRecord>> {
    let seed = seed ^ 0xDA7A;
    Some(match algo {
        "prefix" => prefix::run_on(machine, &gen::random_u64s(n, seed)).run.phases,
        "samplesort" => samplesort::run_on(machine, &gen::random_u32s(n, seed)).run.phases,
        "listrank" => {
            let (succ, pred, _) = gen::random_list(n, seed);
            listrank::run_on(machine, &succ, &pred).run.phases
        }
        _ => return None,
    })
}

/// The sweep behind Figures 2 and 3: at every size, `reps` runs of a
/// kernel on `backend` with (point, rep)-keyed seeds, their mean
/// measured total and communication time beside the analysis lines.
/// `kernel(machine, n, input seed, costs)` runs once and returns its
/// measured total, its communication and the estimate priced from its
/// own measured traffic; `bounds(n, costs)` gives the Best and WHP
/// lines. Measured columns are in the backend's time (converted to
/// µs); the analysis lines are always in the paper machine's
/// simulated µs.
pub(crate) fn estimate_sweep(
    id: &'static str,
    title: &'static str,
    cfg: &RunCfg,
    backend: Backend,
    kernel: impl Fn(&AnyMachine, usize, u64, &EffectiveCosts) -> (f64, f64, Prediction) + Sync,
    bounds: impl Fn(usize, &EffectiveCosts) -> (Prediction, Prediction) + Sync,
) -> Report {
    crate::journal::set_figure(id, cfg);
    let machine_cfg = MachineConfig::paper_default(cfg.p);
    let params = EffectiveCosts::measure(machine_cfg);

    // Independent per size — fanned across the sweep pool; rows return
    // in size order.
    let rows = crate::sweep::map(cfg.p, cfg.sizes(), |point, n| {
        let mut totals = Vec::new();
        let mut comms = Vec::new();
        let mut est_qsm = Vec::new();
        let mut est_bsp = Vec::new();
        for rep in 0..cfg.reps {
            let seed = cfg.seed(point, rep);
            let machine = backend.machine(machine_cfg, seed);
            let (total, comm, est) = kernel(&machine, n, seed ^ 0xDA7A, &params);
            totals.push(total);
            comms.push(comm);
            est_qsm.push(est.qsm);
            est_bsp.push(est.bsp);
        }
        let (best, whp) = bounds(n, &params);
        let comm = mean(&comms);
        let qsm_est = mean(&est_qsm);
        vec![
            n.to_string(),
            format!("{:.1}", backend.us(mean(&totals))),
            format!("{:.1}", backend.us(comm)),
            format!("{:.1}", us_at_400mhz(best.qsm)),
            format!("{:.1}", us_at_400mhz(whp.qsm)),
            format!("{:.1}", us_at_400mhz(qsm_est)),
            format!("{:.1}", us_at_400mhz(mean(&est_bsp))),
            format!("{:.1}", 100.0 * relative_error(comm, qsm_est)),
        ]
    });

    let headers = [
        "n",
        "total_us",
        "comm_us",
        "best_qsm_us",
        "whp_qsm_us",
        "qsm_est_us",
        "bsp_est_us",
        "qsm_est_err_pct",
    ];
    Report { id, title, text: table(&headers, &rows), csv: csv(&headers, &rows) }
}

/// The points of a crossover sweep: `(swept value, n_cross)`, `None`
/// where the crossover lies beyond the sweep.
pub(crate) type Crossovers = Vec<(f64, Option<f64>)>;

/// What one crossover figure (`fig5`, `fig6`) swept so far in this
/// process, for `table4`, which fits its model to the same points.
/// The points are a pure function of the [`RunCfg`] (the machines are
/// `paper_default` variants and every seed derives from the config),
/// and a process sweeps a handful of configs: a linear scan, nothing
/// evicted, in the manner of `qsm_core::calibrate`'s memo.
pub(crate) struct CrossoverMemo(Mutex<Vec<(RunCfg, Crossovers)>>);

impl CrossoverMemo {
    pub(crate) const fn new() -> Self {
        Self(Mutex::new(Vec::new()))
    }

    /// A push cannot tear the table, so a poisoned lock is recovered.
    fn table(&self) -> MutexGuard<'_, Vec<(RunCfg, Crossovers)>> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sweep, and leave the points for later readers. The figure's own
    /// `run` calls this and never reads the memo: a figure that is run
    /// does its work, so its journal, its progress lines and its
    /// timing are those of a sweep whatever the process ran before.
    /// The lock is not held across the sweep.
    pub(crate) fn sweep(&self, cfg: &RunCfg, sweep: impl FnOnce() -> Crossovers) -> Crossovers {
        let points = sweep();
        let mut table = self.table();
        if !table.iter().any(|(c, _)| c == cfg) {
            table.push((cfg.clone(), points.clone()));
        }
        points
    }

    /// The points of an earlier sweep at `cfg`, or of one made now.
    pub(crate) fn get_or_sweep(
        &self,
        cfg: &RunCfg,
        sweep: impl FnOnce() -> Crossovers,
    ) -> Crossovers {
        if let Some((_, points)) = self.table().iter().find(|(c, _)| c == cfg) {
            return points.clone();
        }
        self.sweep(cfg, sweep)
    }
}

/// Mean measured communication time of sample sort at size `n` over
/// `reps` repetitions on `machine_cfg`.
pub(crate) fn samplesort_comm(
    machine_cfg: MachineConfig,
    n: usize,
    cfg: &RunCfg,
    point: usize,
) -> f64 {
    let comms: Vec<f64> = (0..cfg.reps)
        .map(|rep| {
            let seed = cfg.seed(point, rep);
            let machine = SimMachine::new(machine_cfg).with_seed(seed);
            let input = gen::random_u32s(n, seed ^ 0xDA7A);
            samplesort::run_on(&machine, &input).comm()
        })
        .collect();
    mean(&comms)
}

/// Find the problem size at which measured sample-sort communication
/// first falls to (or below) the QSM WHP-bound line — the paper's
/// Figure 5/6 crossover — by scanning the doubling grid and
/// interpolating between the bracketing sizes. Returns `None` when
/// the crossover lies beyond the sweep.
pub(crate) fn samplesort_crossover(
    machine_cfg: MachineConfig,
    cfg: &RunCfg,
    params: &EffectiveCosts,
) -> Option<f64> {
    // Scan the sweep grid, then keep doubling past it (bounded) so
    // slow networks still resolve a crossover instead of reporting
    // "beyond sweep".
    let mut sizes = cfg.sizes();
    let hard_cap = 1usize << 23;
    while *sizes.last().unwrap() < hard_cap {
        let next = sizes.last().unwrap() * 2;
        sizes.push(next);
    }
    let mut prev: Option<(f64, f64)> = None; // (n, measured - whp)
    for (point, n) in sizes.into_iter().enumerate() {
        let measured = samplesort_comm(machine_cfg, n, cfg, point);
        let whp = samplesort::predict_whp(n, samplesort::DEFAULT_OVERSAMPLING, params).qsm;
        let diff = measured - whp;
        if diff <= 0.0 {
            return Some(match prev {
                Some((pn, pd)) => cross_interpolate(pn, pd, n as f64, diff),
                None => n as f64,
            });
        }
        prev = Some((n as f64, diff));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_serves_readers_but_never_the_figure_itself() {
        let memo = CrossoverMemo::new();
        let cfg = RunCfg::fast();
        let sweeps = std::cell::Cell::new(0u32);
        let sweep = || {
            sweeps.set(sweeps.get() + 1);
            vec![(sweeps.get() as f64, None)]
        };
        // A reader with nothing remembered sweeps; the next one does not.
        assert_eq!(memo.get_or_sweep(&cfg, sweep), vec![(1.0, None)]);
        assert_eq!(memo.get_or_sweep(&cfg, sweep), vec![(1.0, None)]);
        assert_eq!(sweeps.get(), 1);
        // The figure's own run sweeps regardless, and readers keep the
        // first remembered points (equal, for a real sweep).
        assert_eq!(memo.sweep(&cfg, sweep), vec![(2.0, None)]);
        assert_eq!(memo.get_or_sweep(&cfg, sweep), vec![(1.0, None)]);
        // Every field of the config is in the key.
        let other = RunCfg { reps: cfg.reps + 1, ..cfg.clone() };
        assert_eq!(memo.get_or_sweep(&other, sweep), vec![(3.0, None)]);
        assert_eq!(sweeps.get(), 3);
    }
}
